"""Forbidden configurations that bound stack-sorting complexity.

An *obstruction of order k* in a word w is a triple (B, c, a): a set B of k
letters, all positioned before the letter c, which is positioned before the
letter a, with values a < b < c for every b in B.  (Each b forms a 231-shaped
occurrence b, c, a.)  The obstruction is *uninterrupted* when no letter
larger than c sits between two members of B.

These certify two-sided bounds: a word with no obstruction of order k needs
at most k sorting passes, and a word with an uninterrupted obstruction of
order k needs more than k.  :func:`complexity_bounds` packages both.

Both largest orders cost O(n^2) in the word length n, where trying every
pair (c, a) would cost O(n^3).  For a fixed c, both orders can only shrink
as a grows: a larger a takes letters out of B, and the letters that
interrupt a run (those above c) do not depend on a.  So the smallest letter
after c is the only a that needs trying, with one pass over the letters
before c.
Witnesses break ties by position: a witness is the first pair (c, a) in
position order, c first, that reaches the largest order, and the
uninterrupted witness's B is that pair's first longest run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .words import Word

Witness = Tuple[Tuple[int, ...], int, int]  # (B values in position order, c, a)


@dataclass(frozen=True)
class ForbiddenReport:
    """Largest obstruction orders found in a word, with witnesses."""
    word: Word
    max_order: int
    max_uninterrupted_order: int
    witness: Optional[Witness]
    uninterrupted_witness: Optional[Witness]


def _orders(w: Sequence[int]) -> Tuple[int, int, int, int]:
    """(max order, first c position reaching it, max uninterrupted order,
    first c position reaching that); a position is -1 while its order is 0.

    Each c is tried with the smallest letter after it as a, which gives
    both of its largest orders (see the module docstring), in one pass over
    the letters before it.  Positions are visited from the right, keeping
    that suffix minimum, and a tie moves the reported position left, to the
    first c in position order.
    """
    best = best_un = 0
    at = at_un = -1
    a = w[-1] if w else 0
    for j in range(len(w) - 2, 0, -1):
        c = w[j]
        if a > c:
            a = c
            continue
        if j < best_un:  # at most j letters fit before c: no tie from here on
            break
        count = run = top = 0
        for x in w[:j]:
            if x > c:
                if run > top:
                    top = run
                run = 0
            elif x > a:
                count += 1
                run += 1
        if run > top:
            top = run
        if count >= best:
            best, at = count, j
        if top >= best_un:
            best_un, at_un = top, j
    return best, at, best_un, at_un


def _witness(w: Sequence[int], j: int, order: int,
             uninterrupted: bool) -> Optional[Witness]:
    """The first obstruction of ``order`` with c = w[j], trying each a < c
    after it in position order; its B is every eligible letter, or with
    ``uninterrupted`` the first longest run of them."""
    if not order:
        return None
    c = w[j]
    for a in w[j + 1:]:
        if a > c:
            continue
        # the run under way starts at cands[start]; the longest is cands[lo:hi]
        cands: list = []
        start = lo = hi = 0
        for x in w[:j]:
            if x > c:
                start = len(cands)
            elif x > a:
                cands.append(x)
                if len(cands) - start > hi - lo:
                    lo, hi = start, len(cands)
        b = cands[lo:hi] if uninterrupted else cands
        if len(b) == order:
            return (tuple(b), c, a)
    raise AssertionError(f"no obstruction of order {order} at position {j}")


def forbidden_report(w: Sequence[int]) -> ForbiddenReport:
    """The largest obstruction orders of a word, with witnesses.

    For a pair (c, a), the eligible B letters are those before c with values
    strictly between a and c; the plain order is their number, and the
    uninterrupted order is the longest run of them not broken by a letter
    larger than c.  Each order is the largest over all pairs, found in
    O(n^2) since the smallest a after each c serves for both (see the
    module docstring).  A witness is the first pair (c, a) in position order,
    c first, that reaches the largest order, with all of its eligible
    letters as B, or for the uninterrupted witness its first longest run.

    >>> forbidden_report((2, 3, 5, 1, 4)).max_uninterrupted_order
    2
    """
    w = Word(w)
    best, at, best_un, at_un = _orders(w)
    return ForbiddenReport(w, best, best_un, _witness(w, at, best, False),
                           _witness(w, at_un, best_un, True))


def complexity_bounds(w: Sequence[int]) -> tuple:
    """(lower, upper) bracket for the number of sorting passes needed.

    The upper bound is the least k admitting no obstruction of order k; the
    lower bound comes from the largest uninterrupted obstruction, or from a
    plain inversion when there is none.  Sorted words get (0, 0).  O(n^2) in
    the word length, like :func:`forbidden_report`, but without witnesses.

    >>> complexity_bounds((2, 3, 1))
    (2, 2)
    >>> complexity_bounds((1, 2, 3, 4))
    (0, 0)
    """
    w = Word(w)
    best, _, best_un, _ = _orders(w)
    if not best and all(a < b for a, b in zip(w, w[1:])):
        return (0, 0)
    return (best_un + 1, best + 1)
