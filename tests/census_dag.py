"""Minimum circuit sizes over circuit DAGs, the census's test-local oracle.

:func:`minimum_sizes` is a breadth-first search over sets of computed
tables.  A state is the set of tables some circuit DAG has computed; each
step applies one more gate to anything already computed, so the first level
a table appears at is its true minimum circuit (not formula) size.  At
``n = 2`` the DAG and tree minima coincide, so it checks every census size
there; at ``n = 3`` it bounds tree sizes from below.
"""

from martlab import machine
from martlab.errors import CapExceeded


def minimum_sizes(n: int, max_size: int) -> dict[int, int]:
    """mask -> minimum DAG size, for every table within ``max_size`` gates.

    The states grow too fast past ``n = 2``; at ``n = 3`` the search runs up
    to 5 gates, the first size where shared gates beat trees.
    """
    if n > 3 or (n == 3 and max_size > 5):
        raise CapExceeded(
            "the DAG oracle is meant for n <= 2, or n = 3 up to 5 gates"
        )
    full = (1 << (1 << n)) - 1
    base = tuple(sorted({0, full, *(machine.projection_masks(n))}))
    minima = {m: 0 for m in base}
    states = {base}
    for s in range(1, max_size + 1):
        next_states = set()
        for state in states:
            values = state
            candidates = set()
            for a in values:
                candidates.add(full & ~a)
            for ai in range(len(values)):
                for bi in range(ai, len(values)):
                    candidates.add(values[ai] & values[bi])
                    candidates.add(values[ai] | values[bi])
            for mask in candidates:
                if mask in state:
                    continue
                if mask not in minima:
                    minima[mask] = s
                next_states.add(tuple(sorted(set(state) | {mask})))
        states = next_states
        if not states:
            break
    return minima
