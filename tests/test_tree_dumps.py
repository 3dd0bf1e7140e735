"""The tree dumps past the slice width, their JSON order and their memory.

``tree_csv``, ``tree_json`` and ``tree_dot`` render each level in slices of
:func:`martlab.cantor.level_names`; a level deeper than ``SLICE_BITS`` is
named ``2**SLICE_BITS`` strings at a time, and ``tree_json`` writes one
subtree of ``SLICE_BITS`` levels at a time in pre-order.  The dumps must
match the per-node twins in ``node_walk`` at the root alone and at levels
cut into several slices, ``tree_json`` must give ``json.dumps``'s
``sort_keys`` order, and a deep dump written to a file must hold no more
than its rows and a few slices.
"""

import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import node_walk
from martlab.cantor import SLICE_BITS, BitString, LanguageView, all_strings, level_names
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    condexp_martingale,
    cover_martingale,
)
from martlab.dyadic import Dyadic
from martlab import martingale
from martlab.martingale import levels, tree_csv, tree_dot, tree_json

DUMPS = ((tree_csv, node_walk.tree_csv), (tree_json, node_walk.tree_json),
         (tree_dot, node_walk.tree_dot))


def _level3_cover():
    return cover_martingale(Cover.from_members(map(BitString, ["001", "010", "111"]), 3))


# a cover frozen at level 3, a conditional expectation with a distinct
# numerator per leaf residue, and a product that never freezes
DEEP = {
    "cover": _level3_cover,
    "condexp": lambda: condexp_martingale({v: v * 7 % 5 for v in range(1 << 14)}, 14),
    "acceptance": lambda: acceptance_martingale(AcceptanceSpec.biased(
        LanguageView.from_indices(random.Random(3).sample(range(64), 24), 64), 3, 2)),
}


@pytest.mark.parametrize("depth", [0, SLICE_BITS + 1, SLICE_BITS + 2])
@pytest.mark.parametrize("kind", DEEP)
def test_dumps_match_the_twin_past_the_slice_width(kind, depth):
    m = DEEP[kind]()
    for dump, twin in DUMPS:
        # compared as lines: a failure reports the first differing line
        got = node_walk.dumped(dump, m, depth).splitlines()
        want = twin(m.value, depth).splitlines()
        assert got == want, (kind, dump.__name__)


@pytest.mark.parametrize("k", range(SLICE_BITS + 3))
def test_level_names_are_the_strings_in_index_order(k):
    slices = list(level_names(k))
    assert [w for names in slices for w in names] == list(map(str, all_strings(k)))
    assert {len(names) for names in slices} == {min(1 << k, 1 << SLICE_BITS)}


# sets of names closed under prefixes: every name's proper prefixes are names
prefix_closed = st.lists(st.text("01", max_size=8), min_size=1).map(
    lambda ws: sorted({w[:i] for w in ws for i in range(len(w) + 1)}))


@settings(max_examples=300)
@given(prefix_closed)
def test_sorted_lines_are_sort_keys_order(names):
    """Names with their prefixes among them: the text sort of the rendered
    lines is the key order of ``json.dumps(..., sort_keys=True)``."""
    rnd = random.Random(len(names))
    tree = {w: str(Dyadic(rnd.randrange(9), rnd.randrange(4))) for w in names[::-1]}
    lines = sorted(f'  "{w}": "{v}"' for w, v in tree.items())
    assert "{\n" + ",\n".join(lines) + "\n}" == json.dumps(tree, indent=2, sort_keys=True)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32))
def test_tree_json_is_sort_keys_json(depth, seed):
    rnd = random.Random(seed)
    values = {w: Dyadic(rnd.randrange(9), rnd.randrange(4))
              for k in range(depth + 1) for w in all_strings(k)}
    m = node_walk.tabled(values.__getitem__, depth)
    tree = {str(w): str(values[w]) for w in rnd.sample(list(values), len(values))}
    assert node_walk.dumped(tree_json, m, depth) == json.dumps(
        tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bits", [1, 2])
def test_tree_json_writes_subtrees_below_a_narrow_slice(monkeypatch, bits):
    """With slices of ``bits`` bits a dump to depth 6 is cut into subtrees
    rooted as deep as level 5, each after the ancestors it is first to
    reach: the text is still ``json.dumps``'s."""
    monkeypatch.setattr(martingale, "SLICE_BITS", bits)
    rnd = random.Random(bits)
    for depth in range(7):
        values = {w: Dyadic(rnd.randrange(9), rnd.randrange(4))
                  for k in range(depth + 1) for w in all_strings(k)}
        m = node_walk.tabled(values.__getitem__, depth)
        tree = {str(w): str(v) for w, v in values.items()}
        assert node_walk.dumped(tree_json, m, depth) == json.dumps(
            tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("dump", [tree_csv, tree_dot, tree_json])
def test_deep_dump_holds_its_rows_and_a_few_slices(dump, tmp_path):
    """At depth 16, written to a file, a dump's traced peak is at most its
    held rows plus three slices.  The rows are the peak of walking the
    levels, or for ``tree_json``, which holds every row, of holding them all.
    A slice is ``2**SLICE_BITS`` nodes, each held as two short ``str``s (its
    name and its line) at the dump's mean text per node, and two list slots.
    The whole text held at once would pass the bound in every format."""
    m = _level3_cover()
    depth, nodes = 16, (2 << 16) - 1
    rows = _traced_peak(lambda: list(levels(m, depth)) if dump is tree_json
                        else [None for _ in levels(m, depth)])
    with open(tmp_path / "dump", "w", encoding="utf-8") as f:
        dump(m, SLICE_BITS, f.write)  # names and orders up to SLICE_BITS, built once
        f.seek(0)
        f.truncate()
        peak = _traced_peak(lambda: dump(m, depth, f.write))
        chars = f.tell()
    per_node = 2 * sys.getsizeof("") + 2 * chars // nodes + 2 * 8
    bound = rows + 3 * (per_node << SLICE_BITS)
    assert peak <= bound, (peak, bound)
    assert rows + chars > bound  # holding the text would fail


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
