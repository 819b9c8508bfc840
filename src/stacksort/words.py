"""Words, the stack-sorting operator, and lexicographic rank plumbing.

A word is a finite sequence of pairwise distinct positive integers.  A
*standard* word (a permutation) is one whose letter set is exactly
{1, ..., n}.  The stack-sorting operator ``S`` is defined recursively:
``S`` of the empty word is the empty word, and if ``w = L m R`` where ``m``
is the greatest letter, then ``S(w) = S(L) S(R) m``.  Equivalently, ``S``
is one greedy pass through a stack that never places a larger letter on a
smaller one (see :func:`stack_sort_pass`).

The complexity of a permutation is the least number of applications of
``S`` needed to reach the identity; it is at most ``n - 1``.  One pass
leaves the largest letter last, and ``complexity(u m) == complexity(u)``
for the largest letter ``m``, so a trailing run of maxima is settled.
:func:`complexity` drops that run before every pass, which can take
several letters at once, and once at most ``TABLE_CAP`` letters remain it
looks the rest up in a table over that symmetric group.  The table is
built on first use, from the same pass, and kept for the life of the
process: the census kernel reads it too (``census._leaf_words``).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Sequence


class Word(tuple):
    """An immutable word: a tuple of pairwise distinct positive integers.

    >>> Word([4, 2, 5, 1, 3])
    Word('42513')
    >>> Word([]).is_standard()
    True
    >>> Word([3, 7]).is_standard()
    False
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Word":
        if isinstance(letters, str):
            raise TypeError("letters must be integers; use parse_word() for text")
        w = super().__new__(cls, letters)
        seen = set()
        for x in w:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"letters must be integers, got {x!r}")
            if x < 1:
                raise ValueError(f"letters must be positive, got {x}")
            if x in seen:
                raise ValueError(f"repeated letter {x}")
            seen.add(x)
        return w

    @property
    def n(self) -> int:
        return len(self)

    def is_standard(self) -> bool:
        """True iff the letter set is exactly {1, ..., n}."""
        # Letters are distinct and positive, so max == n suffices.
        return len(self) == 0 or max(self) == len(self)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def parse_word(text: str) -> Word:
    """Parse the word text format.

    Two forms are accepted: a plain digit string for words over letters
    1..9 ("42513"), or comma/space-separated integers ("4,2,5,1,3").
    Both parse to the same word; the empty string is the empty word.

    >>> parse_word("42513") == parse_word("4, 2, 5, 1, 3")
    True
    """
    s = text.strip()
    if not s:
        return Word()
    if "," in s or " " in s or "\t" in s:
        parts = s.replace(",", " ").split()
    elif s.isdigit():
        parts = list(s)
        # "10" or "121" cannot be compact shorthand (zero or repeated
        # digit), so read them as one multi-digit letter
        if "0" in parts or len(set(parts)) != len(parts):
            parts = [s]
    else:
        raise ValueError(f"cannot parse word from {text!r}")
    try:
        letters = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse word from {text!r}") from None
    return Word(letters)


def format_word(w: Sequence[int]) -> str:
    """Inverse of :func:`parse_word`: compact digits when possible.

    The one ambiguous corner is a single letter above 9 whose decimal
    digits are distinct and nonzero ("123"): that string re-parses as the
    compact word, the convention the shorthand form requires.
    """
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(str(x) for x in w)
    return " ".join(str(x) for x in w)


def identity_word(n: int) -> Word:
    return Word(range(1, n + 1))


def standardize(w: Iterable[int]) -> Word:
    """Replace each letter by its rank, giving a standard word.

    Order-isomorphic words sort identically, so this preserves everything
    the operator sees.

    >>> str(standardize(Word([4, 9, 2])))
    '231'
    """
    w = _as_word(w)
    place = {x: i + 1 for i, x in enumerate(sorted(w))}
    return Word(place[x] for x in w)


def _as_word(w) -> Word:
    return w if isinstance(w, Word) else Word(w)


def _require_standard(w: Word) -> Word:
    if not w.is_standard():
        raise ValueError(f"word {format_word(w)!r} is not a standard permutation")
    return w


def _sort_rec(t: tuple) -> tuple:
    if len(t) <= 1:
        return t
    m = t.index(max(t))
    return _sort_rec(t[:m]) + _sort_rec(t[m + 1:]) + (t[m],)


def stack_sort(w: Iterable[int]) -> Word:
    """Apply the stack-sorting operator once, by its recursive definition.

    Splitting ``w = L m R`` at the greatest letter ``m`` gives
    ``S(w) = S(L) S(R) m``; the empty word is a fixed point.

    >>> str(stack_sort(parse_word("42513")))
    '24135'
    """
    w = _as_word(w)
    return Word(_sort_rec(tuple(w)))


def stack_sort_pass(w: Iterable[int]) -> Word:
    """Apply the stack-sorting operator once, as a single stack pass.

    Scan left to right; before pushing a letter, pop to the output every
    stack letter smaller than it; flush the stack at the end.  Agrees with
    :func:`stack_sort` on every word.
    """
    w = _as_word(w)
    return Word(_pass(w, max(w, default=0) + 1))


def _pass(v: Sequence[int], top: int) -> list:
    """The stack pass behind :func:`stack_sort_pass` and :func:`complexity`
    (the census kernel runs the same pass one letter at a time over its
    prefix tree); ``top`` exceeds every letter and guards the stack."""
    out: list[int] = []
    stack = [top]
    for x in v:
        while stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out += stack[:0:-1]
    return out


# Largest window answered by table lookup: S_0..S_7 take 19 ms and 0.4 MiB
# to build, S_8 would add 160 ms and 2.8 MiB to every census worker.
TABLE_CAP = 7


@lru_cache(maxsize=None)
def _prefix_table(m: int) -> dict:
    """``bytes(p) -> complexity(p)`` for every p in S_m, built from S_{m-1}."""
    if m == 0:
        return {b"": 0}
    below = _prefix_table(m - 1)
    ident = tuple(range(1, m + 1))
    table = {}
    for p in permutations(ident):
        u = _pass(p, m + 1)
        u.pop()
        table[bytes(p)] = 0 if p == ident else 1 + below[bytes(u)]
    return table


def complexity(w: Iterable[int]) -> int:
    """Least k with S^k(w) equal to the identity; requires a standard word.

    >>> [complexity(parse_word(t)) for t in ("123", "132", "213", "231", "312", "321")]
    [0, 1, 1, 2, 1, 1]
    """
    return _complexity(list(_require_standard(_as_word(w))))


def _complexity(v: list) -> int:
    # complexity(u m) equals complexity(u) for the largest letter m, so each
    # round first drops every trailing letter equal to the current maximum.
    # What remains ends below its maximum, so it is not sorted and needs a
    # pass, unless the prefix table answers it.  v is a standard word as a
    # list; it is consumed.
    k = 0
    m = len(v)
    while True:
        while m and v[-1] == m:
            v.pop()
            m -= 1
        if m <= TABLE_CAP:
            return k + _prefix_table(m)[bytes(v)]
        v = _pass(v, m + 1)
        k += 1


def descents(w: Iterable[int]) -> int:
    """Number of positions i with w[i] > w[i+1].

    >>> descents(parse_word("42513"))
    2
    """
    w = _as_word(w)
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def rank(w: Iterable[int]) -> int:
    """Lexicographic rank of a standard permutation, in [0, n!)."""
    w = _require_standard(_as_word(w))
    n = len(w)
    r = 0
    remaining = list(range(1, n + 1))
    for i, x in enumerate(w):
        j = remaining.index(x)
        r += j * factorial(n - 1 - i)
        del remaining[j]
    return r


def unrank(n: int, r: int) -> Word:
    """Standard permutation of length n with lexicographic rank r.

    >>> str(unrank(3, 0)), str(unrank(3, 5))
    ('123', '321')
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for n={n}")
    remaining = list(range(1, n + 1))
    out = []
    for i in range(n):
        f = factorial(n - 1 - i)
        j, r = divmod(r, f)
        out.append(remaining.pop(j))
    return Word(out)


def next_permutation(a: list) -> bool:
    """Advance a list to its lexicographic successor in place.

    Returns True when it advanced.  The last permutation (letters in
    decreasing order) has no successor: the list is left as it is and the
    result is False.
    """
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = reversed(a[i + 1:])
    return True
