"""Hand-derived first-match counts of the built-in catalog's rows: the
oracle for the catalog's own counter, ``CatalogAutomaton.counts``.

Each form maps a word length n, at or above its row's tier floor, to the
number of words of length n whose first matching row, in catalog order, is
that row (see ``src/stacksort/catalog.txt``).
"""
from math import factorial
from typing import Callable, Dict

from stacksort.formulas import _exact_div

ROW_COUNTS: Dict[str, Callable[[int], int]] = {
    "L1": lambda n: factorial(n - 2),
    "L2-1": lambda n: factorial(n - 2),
    "L2-2": lambda n: factorial(n - 3),
    "L2-3": lambda n: (n - 2) * factorial(n - 3),
    "L2-4": lambda n: (n - 2) * factorial(n - 3),
    "L2-5": lambda n: _exact_div(factorial(n - 2), 2),
    "T1a": lambda n: factorial(n - 3),
    "T1b": lambda n: factorial(n - 3),
    "T1c": lambda n: factorial(n - 3),
    "T1d": lambda n: _exact_div(factorial(n - 3), 2),
    "T1e": lambda n: factorial(n - 4),
    "T2a": lambda n: factorial(n - 2),
    "T2b": lambda n: (n - 5) * factorial(n - 4),
    "T2c": lambda n: factorial(n - 4),
    "T3a": lambda n: (n - 3) * factorial(n - 3),
    "T3b": lambda n: (n - 3) * factorial(n - 3),
    "T4a": lambda n: factorial(n - 2) - factorial(n - 4),
    "T4b": lambda n: factorial(n - 2),
    "T4c": lambda n: factorial(n - 2),
    "T4d": lambda n: factorial(n - 4),
    "T5a": lambda n: _exact_div(factorial(n - 2), 2) - factorial(n - 4),
    "T5b": lambda n: _exact_div(factorial(n - 3), 2),
    "T5c": lambda n: _exact_div(factorial(n - 2), 6),
    "T5d": lambda n: _exact_div(factorial(n - 2), 12),
    "T5e": lambda n: (n - 4) * factorial(n - 3),
    "T5f": lambda n: _exact_div(factorial(n - 3), 2),
    "T5g": lambda n: _exact_div(factorial(n - 3), 2),
    "T5h": lambda n: _exact_div(factorial(n - 2), 12),
}
