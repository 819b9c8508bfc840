"""A brute-force pattern matcher: the oracle for the automaton.

It enumerates every extent of every star, so it shares nothing with the
automaton's tables (``stacksort.automaton``) but the parsed tokens and the
expansion of alternations.  Exponential on purpose.

:class:`Labeller` is a second matcher, linear in the word, for words with
distinct letters: the reference kernel of the census tests labels through
it, independently of the automaton, on lengths the oracle cannot reach.
"""
from functools import lru_cache
from itertools import permutations

from stacksort.patterns import (
    AnyOne,
    RelValue,
    Star,
    builtin_catalog,
    expand_alternations,
    tier,
)


def _distinct(w) -> tuple:
    """w as a tuple; a repeated letter raises ValueError, as it does in
    ``stacksort.patterns.row_matches``."""
    w = tuple(w)
    if len(set(w)) != len(w):
        raise ValueError(f"word {w!r} has a repeated letter")
    return w


def _naive_all(ts: tuple, w: tuple, ti: int = 0, pos: int = 0) -> bool:
    """True iff a flat branch matches w from token ti and letter pos on, by
    blunt enumeration of star extents; relative letters resolve against
    len(w)."""
    if ti == len(ts):
        return pos == len(w)
    t = ts[ti]
    if isinstance(t, Star):
        return any(_naive_all(ts, w, ti + 1, end) for end in range(pos, len(w) + 1))
    if isinstance(t, AnyOne):
        return pos < len(w) and _naive_all(ts, w, ti + 1, pos + 1)
    v = len(w) - t.offset if isinstance(t, RelValue) else t.value
    return (pos < len(w) and 1 <= v <= len(w) and w[pos] == v
            and _naive_all(ts, w, ti + 1, pos + 1))


def matches(tokens, w) -> bool:
    """True iff the word matches the token sequence (any alternation branch)."""
    w = _distinct(w)
    return any(_naive_all(b, w) for b in expand_alternations(tokens))


def row_matches(row, w) -> bool:
    """True iff the word matches the row and not its ``minus`` clause."""
    return matches(row.tokens, w) and not (
        row.exclusion is not None and matches(row.exclusion, w))


def classify(catalog, w):
    """Label of the catalog's first row valid at the word's length that the
    word matches, or None."""
    for row in catalog.rows:
        if len(w) >= tier(row.label)[1] and row_matches(row, w):
            return row.label
    return None


@lru_cache(maxsize=None)
def builtin_labels(n: int) -> tuple:
    """The label of every word of S_n under the built-in catalog, in
    lexicographic order: enumerated once per test session, for each
    classifier checked against it."""
    catalog = builtin_catalog()
    return tuple(classify(catalog, p) for p in permutations(range(1, n + 1)))


def _gaps(ts: tuple, n: int):
    """A flat branch at length n as ``(letter, ?s before it, star before
    it)`` for each pinned letter, then ``(None, ?s, star)`` for the word's
    end; None for a branch pinning a letter outside 1..n."""
    got, need, star = [], 0, False
    for t in ts:
        if isinstance(t, Star):
            star = True
        elif isinstance(t, AnyOne):
            need += 1
        else:
            v = n - t.offset if isinstance(t, RelValue) else t.value
            if not 1 <= v <= n:
                return None
            got.append((v, need, star))
            need, star = 0, False
    return (*got, (None, need, star))


class Labeller:
    """The first row of ``catalog`` valid at length n that a word of length
    n with distinct letters matches, or None: each flat branch is read in
    one pass over its pinned letters, each looked up in a dict of places,
    and each gap before one, or before the end, is checked against its
    ``?`` count and whether a star is there."""

    def __init__(self, catalog, n: int):
        def branches(tokens):
            if tokens is None:  # no minus clause
                return []
            return [b for b in (_gaps(ts, n) for ts in expand_alternations(tokens))
                    if b is not None]
        self.rows = [(row.label, branches(row.tokens), branches(row.exclusion))
                     for row in catalog.rows if n >= tier(row.label)[1]]

    def __call__(self, w):
        place = {v: i for i, v in enumerate(_distinct(w))}
        place[None] = len(w)

        def reads(branch):
            pos = 0
            for v, need, star in branch:
                p = place.get(v, -1)
                if p - pos < need or (p - pos > need and not star):
                    return False
                pos = p + 1
            return True

        for label, rows, minus in self.rows:
            if any(map(reads, rows)) and not any(map(reads, minus)):
                return label
        return None
