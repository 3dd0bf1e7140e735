"""Leveled constructions as martlab built them before they read row positions.

Test-local brute-force twins.  :func:`condexp_martingale` calls ``f`` on
every length-``n`` string, in index order, and checks each value as it
meets it, so a negative value is named at the first leaf that has one.
:func:`build_construction` is the configuration's parse of the ``cover``
members, ``condexp`` values and ``acceptance-gap`` values as it was: every
member or key made a ``BitString`` first (``martlab.config._bits``, which
checks the text), each member's length checked in input order and counted
from its ``to_int()``, a ``condexp`` key of another length dropped, and an
``acceptance-gap`` key read by ``index_of``.
"""

from typing import Callable

from martlab.cantor import BitString, all_strings, index_of
from martlab.config import _bits, _bits_list, _int, _natural, _need, _object
from martlab.constructions import (
    AcceptanceSpec,
    _indexed,
    _leveled,
    _subtree_sums,
    acceptance_martingale,
)
from martlab.errors import CapExceeded, ConfigError, NegativeValue
from martlab.martingale import LEVEL_CAP, Martingale


def condexp_martingale(f: Callable[[BitString], int], n: int) -> Martingale:
    """The conditional expectation of ``f``, read once per leaf."""
    if n < 0:
        raise ValueError(f"level {n} is negative")
    if n > LEVEL_CAP:
        raise CapExceeded(f"level {n} exceeds enumeration cap {LEVEL_CAP}")

    def f_checked(x: BitString) -> int:
        v = f(x)
        if v < 0:
            raise NegativeValue(f"f({x!r}) = {v} is negative")
        return v

    row = _subtree_sums(lambda: [f_checked(x) for x in all_strings(n)], n)
    return _leveled(_indexed(row), row, n, "condexp")


def cover_from_members(members: list[BitString], level: int) -> Martingale:
    """The cover of ``members`` as the conditional expectation of their
    indicator, which has the cover's rows."""
    for m in members:  # in input order, so the member named is always the first
        if len(m) != level:
            raise ValueError(f"member {m} does not have length {level}")
    values = {m.to_int() for m in members}
    return condexp_martingale(lambda x: 1 if x.to_int() in values else 0, level)


def _values(spec, path: str, convert=_int) -> dict[BitString, int]:
    return {
        _bits(k, f"{path}.values"): convert(v, f"{path}.values.{k}")
        for k, v in _need(spec, "values", path, _object).items()
    }


def build_construction(spec: dict) -> Martingale:
    """A ``cover`` with members, ``condexp`` or ``acceptance-gap`` spec."""
    path = "construction"
    kind = spec["type"]
    if kind == "cover":
        level = _need(spec, "level", path, _int)
        members = _bits_list(spec["members"], f"{path}.members")
        return cover_from_members(members, level)
    if kind == "condexp":
        level = _need(spec, "level", path, _int)
        values = _values(spec, path)
        return condexp_martingale(lambda x: values.get(x, 0), level)
    assert kind == "acceptance-gap"
    t = _need(spec, "t", path, _natural)

    def gap(value, field: str) -> int:
        paths = _int(value, field)
        if paths < 0 or paths > 0 and (paths - 1).bit_length() > t:
            raise ConfigError(f"must be in [0, 2**{t}], got {paths}", field=field)
        return paths

    default = gap(spec.get("default", 0), f"{path}.default")
    g = {index_of(x): v for x, v in _values(spec, path, gap).items()}
    return acceptance_martingale(
        AcceptanceSpec.from_gap(lambda i: g.get(i, default), lambda n: t)
    )
