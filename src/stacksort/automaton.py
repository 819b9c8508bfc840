"""One automaton over a catalog's symbols, read at each word length.

At length n a row names only its pinned letters: the values of its letter
tokens, resolved against n, that lie in 1..n.  For the built-in catalog
these are 1, 2, 3 and n - 4..n, every letter up to n = 8.  No letter token
matches any other letter, so all of them are one symbol, x, and the
automaton reads a word as symbols: one for each pinned letter, and x.

Each alternation-free branch of a row valid at n (``Catalog.levels(n)``),
and each branch of its ``minus`` clause, is a glob NFA over the symbols.
Position i means its first i tokens are matched: a star keeps its position
on any symbol and may be skipped, ``?`` takes any symbol and a letter
token its own symbol.  A state of the automaton is the tuple of every
branch's set of positions, as a bit mask, interned to an int in the order
a breadth-first search meets it.  Its label is the first row, in catalog
order, with an accepting branch and no accepting exclusion.  The states
are those a word reaches: the letters of a word are distinct, so it reads
each pinned letter at most once.  The whole table of transitions, of every
such state by every symbol, is built in one go and shared by the lengths
whose rows read the same as symbols (:func:`_table`); a transition no word
takes leads to a sink that matches no row.  An automaton adds its length's
letter-to-symbol map and lives as its maker chooses (``census._LengthState``).

The census kernel classifies with it, one state per prefix of its walk.
One dynamic program over its layers (:meth:`CatalogAutomaton.layer`)
counts each row's first matches (:attr:`CatalogAutomaton.counts`), which
``verify_census`` reads, and gives the census the states its leaves can
reach (``census._table_of_labels``).  It is the package's one matcher:
:func:`read` reads any rows as symbols through the same shared table, and
``Catalog.classify``, ``matches`` and ``row_matches`` step those tables
with ``patterns.walk``, with no 256-byte map and so at any length.  The
test suite checks its labels against the brute-force oracle and its
counts against that and the rows' hand-derived forms.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from typing import Optional, Sequence

from .patterns import AnyOne, Catalog, PatternRow, Star, resolve_branches, walk
from .words import _as_word, _require_standard, format_word

NO_LETTER = 255  # the symbol of 0 and of every letter above n, in ``symbol``


class _Branch:
    """One alternation-free branch as a glob NFA over the symbols, its
    tokens each a star, ``?`` or the symbol its letter takes.

    ``move[i]`` is, for each symbol, the set of positions position i goes
    to on it, closed under skipping stars; ``accept`` the bit of the last
    position.  A set of positions is a bit mask."""

    def __init__(self, ts: tuple, symbols: int):
        size = len(ts)
        closure = [1 << size]  # closure[j] is that of position size - j
        for t in reversed(ts):
            closure.append((1 << (size - len(closure))) | (
                closure[-1] if isinstance(t, Star) else 0))
        closure.reverse()
        self.start = closure[0]
        self.accept = 1 << size
        self.move = [
            [closure[i] if isinstance(t, Star)
             else closure[i + 1] if isinstance(t, AnyOne) or t == c else 0
             for c in range(symbols)]
            for i, t in enumerate(ts)]
        self.symbols = symbols
        self.steps: dict = {}  # a set of positions -> its sets after each symbol

    def step(self, mask: int) -> tuple:
        """The sets of positions ``mask`` goes to on each symbol."""
        got = self.steps.get(mask)
        if got is None:
            got = [0] * self.symbols
            for i, moves in enumerate(self.move):  # the last position has none
                if mask >> i & 1:
                    got = [a | b for a, b in zip(got, moves)]
            got = self.steps[mask] = tuple(got)
        return got


@lru_cache(maxsize=1024)
def _table(rows: tuple, x: int, symbols: int) -> tuple:
    """``(delta, codes)`` of the valid ``rows`` read as symbols: each row's
    branches and its exclusion's, each token a star, ``?`` or its letter's
    symbol, of which the first x are pinned.  Every length whose rows read
    the same, each n >= 9 for the built-in catalog, shares the one table,
    built on first use and kept while it is among the 1,024 last read."""
    branches, spans = [], []  # spans: each row's (branches, exclusions)
    for part in rows:
        span = []
        for flat in part:
            span.append(range(len(branches), len(branches) + len(flat)))
            branches += [_Branch(ts, symbols) for ts in flat]
        spans.append(span)
    accept = [br.accept for br in branches]
    # breadth first over pairs (state, pinned symbols read), each as
    # the int state << x | the bits of those symbols: a word reads each
    # pinned letter at most once, so only those transitions are taken
    start = tuple(br.start for br in branches)
    ids = {start: 0}
    order = [start]
    taken = []  # per state, the state after each symbol, None if no word takes it
    after = []  # per state, each branch's position sets after each symbol
    bits = [1 << c if c < x else 0 for c in range(symbols)]
    pairs = [0]
    seen = {0}
    for pair in pairs:  # grows as new pairs are met
        s, used = pair >> x, pair & ~(-1 << x)
        if s == len(taken):  # a state's first pair comes before any later state's
            taken.append([None] * symbols)
            after.append([br.step(m) for br, m in zip(branches, order[s])])
        row = taken[s]
        for c, bit in enumerate(bits):
            if used & bit:
                continue
            t = row[c]
            if t is None:
                nxt = tuple([m[c] for m in after[s]])
                t = row[c] = ids.setdefault(nxt, len(order))
                if t == len(order):
                    order.append(nxt)
            q = t << x | used | bit
            if q not in seen:
                seen.add(q)
                pairs.append(q)
    none = len(rows)
    codes = bytearray()
    for state in order:
        hit = [m & a for m, a in zip(state, accept)]
        codes.append(next((r for r, (ok, no) in enumerate(spans)
                           if any(hit[b] for b in ok) and not any(hit[b] for b in no)),
                          none))
    sink = len(order)  # where a pinned letter read twice leads, labelled none
    delta = tuple(tuple([sink if row[c] is None else row[c] for row in taken] + [sink])
                  for c in range(symbols))
    return delta, bytes(codes) + bytes([none])


def read(rows: Sequence[PatternRow], n: int, foreign: bool = False) -> tuple:
    """``(index, delta, codes)``: ``rows`` read as symbols at length n.
    ``index`` maps each letter they pin to its symbol, 0 up in increasing
    order; every other letter is x, ``len(index)``, a symbol if some letter
    of 1..n is unpinned or if ``foreign`` letters, outside 1..n, are read.
    :func:`_table` gives ``delta`` and ``codes``, which :func:`walk` steps."""
    parts = [[resolve_branches(seq, n) for seq in (row.tokens, row.exclusion)]
             for row in rows]
    pinned = sorted({v for part in parts for flat in part for _, pins in flat
                     for v in pins if v is not None})
    index = {v: c for c, v in enumerate(pinned)}
    key = tuple(tuple(tuple(tuple(t if v is None else index[v] for t, v in zip(ts, pins))
                            for ts, pins in flat) for flat in part) for part in parts)
    x = len(index)
    return (index, *_table(key, x, x + (foreign or n > x)))


class CatalogAutomaton:
    """The deterministic automaton of a catalog at one word length.

    ``labels`` are the labels of the rows valid at n, in catalog order; a
    state's label code is its row's index there, or ``len(labels)`` when no
    row matches.  ``index`` maps each pinned letter to its symbol
    (:func:`read`), and ``symbol``, the census's 256-byte table for
    ``bytes.translate``, gives every letter's: one per pinned letter, 0 up
    in increasing order, then x, and ``NO_LETTER`` for 0 and letters above
    n, so an n outside 0..255 raises ValueError.  The shared :func:`_table`
    gives ``delta[c][s]``, the state after state s reads symbol c, and
    ``codes[s]``, the label code of state s; the start is state 0.
    """

    def __init__(self, catalog: Catalog, n: int):
        if not 0 <= n <= 255:
            raise ValueError(f"an automaton's letters are bytes: n must be in 0..255, got {n}")
        self.n = n
        levels = catalog.levels(n)
        rows = [row for row in catalog.rows if row.label in levels]
        self.labels = tuple(row.label for row in rows)
        self.index, self.delta, self.codes = read(rows, n)
        self.pinned = tuple(self.index)
        table = [NO_LETTER] * 256
        for v in range(1, n + 1):
            table[v] = self.index.get(v, len(self.pinned))
        self.symbol = bytes(table)

    def layer(self, depth: int) -> dict:
        """The words' prefixes of ``depth`` letters as a dynamic program:
        the pinned symbols read, as bits, to each state reached to the
        number of symbol strings that reach it.  A string reads each pinned
        symbol at most once, and x while x letters remain.  :attr:`counts`
        reads the last layer; the census reads the one at its leaves.

        >>> from stacksort.patterns import builtin_catalog
        >>> CatalogAutomaton(builtin_catalog(), 4).layer(1)  # one pinned letter read
        {1: {0: 1}, 2: {0: 1}, 4: {1: 1}, 8: {2: 1}}
        """
        n, x = self.n, len(self.pinned)
        layer = {0: {0: 1}}
        for i in range(depth):
            after: dict = {}
            for used, ways in layer.items():
                steps = [(c, used | 1 << c) for c in range(x) if not used >> c & 1]
                if i - bin(used).count("1") < n - x:
                    steps.append((x, used))
                for c, key in steps:
                    column, got = self.delta[c], after.setdefault(key, {})
                    for s, w in ways.items():
                        t = column[s]
                        got[t] = got.get(t, 0) + w
            layer = after
        return layer

    @cached_property
    def counts(self) -> tuple:
        """``counts[code]``: how many words of length n have label code
        ``code``, no row last; they sum to n!.  Counted on first read from
        the last :meth:`layer`, the strings that read every pinned symbol:
        a string stands for (n - |pinned|)! words.

        >>> from stacksort.patterns import builtin_catalog
        >>> CatalogAutomaton(builtin_catalog(), 4).counts  # L1, L2-1..L2-5, none
        (2, 2, 1, 2, 2, 1, 14)
        """
        n, x = self.n, len(self.pinned)
        counts = [0] * (len(self.labels) + 1)
        for s, w in self.layer(n)[(1 << x) - 1].items():
            counts[self.codes[s]] += w
        return tuple(c * factorial(n - x) for c in counts)

    def classify(self, w: Sequence[int]) -> Optional[str]:
        """Label of the first row valid at n that the standard word ``w`` of
        length n matches, or None; ValueError for any other word."""
        w = _require_standard(_as_word(w))
        if len(w) != self.n:
            raise ValueError(f"word {format_word(w)!r} is not of length {self.n}")
        code = self.codes[walk(self.index, self.delta, w)]
        return self.labels[code] if code < len(self.labels) else None
