"""martlab: a desk-scale laboratory for exact betting martingales.

Everything here evaluates in exact arithmetic: dyadic rationals for values,
exhaustive enumeration for counting oracles, and integer power comparisons
wherever a threshold involves an irrational logarithm.  Constructions are
checked against embedded golden trees, invariants against independent brute
force.
"""

from .cantor import BitString, LanguageView, char_prefix, string_index
from .dyadic import Dyadic
from .martingale import Martingale, diagonalize, success_scan, verify_averaging

__all__ = [
    "BitString",
    "Dyadic",
    "LanguageView",
    "Martingale",
    "char_prefix",
    "diagonalize",
    "string_index",
    "success_scan",
    "verify_averaging",
]

__version__ = "0.1.0"
