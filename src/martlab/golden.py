"""Embedded golden trees for the five reference constructions.

Each entry pins one fully worked example at depth 4: the exact
parameterization and every node value.  The values are data, not derived:
regenerating them from the constructions would make the comparison
circular.
"""

from __future__ import annotations

from .cantor import BitString, LanguageView
from .constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    biimmunity_martingale,
    condexp_martingale,
    cover_martingale,
    subset_martingale,
)
from .dyadic import text
from .martingale import Martingale, levels

__all__ = [
    "FIGURE_DEPTH",
    "GOLDEN_TREES",
    "build_figure",
    "figure_ids",
    "golden_mismatches",
]

FIGURE_DEPTH = 4

_COVER_MEMBERS = ("0001", "0010", "0011", "0110", "1101")
_CONDEXP_VALUES = {"0001": 2, "0010": 1, "0011": 4, "0110": 3, "1101": 4}
_MARKED_INDICES = (1, 3)  # the two marked strings shared by figures 3-5


def _marked_language() -> LanguageView:
    return LanguageView.from_indices(_MARKED_INDICES, horizon=16, name="marked")


def build_figure(figure_id: int) -> Martingale:
    """The exact parameterization behind each golden tree."""
    if figure_id == 1:
        return cover_martingale(Cover.from_members(_COVER_MEMBERS, 4))
    if figure_id == 2:
        return condexp_martingale(
            {int(x, 2): v for x, v in _CONDEXP_VALUES.items()}, 4
        )
    if figure_id == 3:
        return subset_martingale(_marked_language(), 4)
    if figure_id == 4:
        spec = AcceptanceSpec.biased(_marked_language(), correct=3, q=2)
        return acceptance_martingale(spec)
    if figure_id == 5:
        return biimmunity_martingale(_marked_language())
    raise ValueError(f"no figure {figure_id}")


def figure_ids() -> tuple[int, ...]:
    return (1, 2, 3, 4, 5)


def golden_mismatches(figure_id: int, m: Martingale) -> list[tuple]:
    """``(node, expected, actual)`` wherever ``m`` leaves the golden tree,
    in level order."""
    golden = GOLDEN_TREES[figure_id]
    found = []
    for k, nums, log_den in levels(m, FIGURE_DEPTH):
        for i, num in enumerate(nums):
            w, actual = BitString.from_int(i, k), text(num, log_den)
            if actual != golden[w]:
                found.append((w, golden[w], actual))
    return found


def _tree(rows: str) -> dict[BitString, str]:
    table = {}
    for row in rows.strip().splitlines():
        node, value = row.split()
        table[BitString("" if node == "-" else node)] = value
    return table


# node ("-" is the root) and value, level order
GOLDEN_TREES: dict[int, dict[BitString, str]] = {
    1: _tree(
        """
        - 5/16
        0 1/2
        1 1/8
        00 3/4
        01 1/4
        10 0
        11 1/4
        000 1/2
        001 1
        010 0
        011 1/2
        100 0
        101 0
        110 1/2
        111 0
        0000 0
        0001 1
        0010 1
        0011 1
        0100 0
        0101 0
        0110 1
        0111 0
        1000 0
        1001 0
        1010 0
        1011 0
        1100 0
        1101 1
        1110 0
        1111 0
        """
    ),
    2: _tree(
        """
        - 7/8
        0 5/4
        1 1/2
        00 7/4
        01 3/4
        10 0
        11 1
        000 1
        001 5/2
        010 0
        011 3/2
        100 0
        101 0
        110 2
        111 0
        0000 0
        0001 2
        0010 1
        0011 4
        0100 0
        0101 0
        0110 3
        0111 0
        1000 0
        1001 0
        1010 0
        1011 0
        1100 0
        1101 4
        1110 0
        1111 0
        """
    ),
    3: _tree(
        """
        - 1/4
        0 1/2
        1 0
        00 1/2
        01 1/2
        10 0
        11 0
        000 1
        001 0
        010 1
        011 0
        100 0
        101 0
        110 0
        111 0
        0000 1
        0001 1
        0010 0
        0011 0
        0100 1
        0101 1
        0110 0
        0111 0
        1000 0
        1001 0
        1010 0
        1011 0
        1100 0
        1101 0
        1110 0
        1111 0
        """
    ),
    4: _tree(
        """
        - 1
        0 3/2
        1 1/2
        00 3/4
        01 9/4
        10 1/4
        11 3/4
        000 9/8
        001 3/8
        010 27/8
        011 9/8
        100 3/8
        101 1/8
        110 9/8
        111 3/8
        0000 9/16
        0001 27/16
        0010 3/16
        0011 9/16
        0100 27/16
        0101 81/16
        0110 9/16
        0111 27/16
        1000 3/16
        1001 9/16
        1010 1/16
        1011 3/16
        1100 9/16
        1101 27/16
        1110 3/16
        1111 9/16
        """
    ),
    5: _tree(
        """
        - 1
        0 1
        1 1
        00 0
        01 2
        10 0
        11 2
        000 0
        001 0
        010 2
        011 2
        100 0
        101 0
        110 2
        111 2
        0000 0
        0001 0
        0010 0
        0011 0
        0100 0
        0101 4
        0110 0
        0111 4
        1000 0
        1001 0
        1010 0
        1011 0
        1100 0
        1101 4
        1110 0
        1111 4
        """
    ),
}
