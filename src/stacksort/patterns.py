"""Glob-style patterns over standard words, and the catalog classifier.

A pattern row describes a family of standard words, one family per word
length n, by pinning letters relative to the largest value.  Text grammar::

    row    := LABEL ":" seq [ "minus" "{" seq "}" ]
                          [ "where" "nonempty" "(" NAME ("|" NAME)* ")" ]
    seq    := token+
    token  := "*" [NAME]          -- a run of letters, possibly empty
            | "?"                 -- exactly one letter, any value
            | "n"                 -- the letter n (the largest)
            | "(n-" INT ")"       -- the letter n - INT
            | INT                 -- the letter with that exact value
            | "{" seq ("|" seq)+ "}"   -- alternation over branches
    NAME   := one uppercase letter

A named star such as ``*A`` captures the span of letters it absorbs.  The
clause ``where nonempty(A|B)`` keeps a word only if some successful match
gives at least one of the named stars a non-empty span; ``minus { ... }``
subtracts every word matching the bracketed sequence.

Row labels carry a certified complexity tier by prefix: a word matching an
``L1`` row has stack-sorting complexity exactly n-1 (meaningful for n >= 2),
an ``L2`` row exactly n-2 (n >= 4), and a ``T`` row exactly n-3 (n >= 6).
:func:`classify` returns the first matching row in catalog order, so earlier
rows shadow later ones; the built-in catalog is ordered so that the per-row
counts follow closed formulas (see :mod:`stacksort.formulas`).

All matching, the census kernel's included, runs through one positional
matcher: in a word with distinct letters every pinned letter has one
position, so a pattern compiles, once per word length, into position
comparisons with no backtracking.  :class:`CompiledCatalog` dispatches each
word on the number of letters after n and on its last letter.
``naive=True`` swaps in a blunt enumerator of star extents, the independent
oracle the test suite checks the matcher against.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Optional, Sequence, Union

from .words import Word

# ---------------------------------------------------------------------------
# tokens and rows


@dataclass(frozen=True)
class Star:
    """A run of letters, possibly empty; optionally named for capture."""
    name: Optional[str] = None


@dataclass(frozen=True)
class AnyOne:
    """Exactly one letter of any value."""


@dataclass(frozen=True)
class RelValue:
    """The letter n - offset, resolved against the word length n."""
    offset: int


@dataclass(frozen=True)
class AbsValue:
    """The letter with a fixed value."""
    value: int


@dataclass(frozen=True)
class Alt:
    """An alternation: the token matches if any branch sequence matches."""
    branches: tuple


Token = Union[Star, AnyOne, RelValue, AbsValue, Alt]


@dataclass(frozen=True)
class PatternRow:
    """A labelled pattern with optional subtraction and span constraint."""
    label: str
    tokens: tuple
    exclusion: Optional[tuple] = None
    nonempty: tuple = ()


# (label prefix, complexity offset, smallest valid n): the one tier table,
# from which every other tier fact is derived
_TIERS = (("L1", 1, 2), ("L2", 2, 4), ("T", 3, 6))


def tier(label: str) -> tuple:
    """(complexity offset, minimum valid n) for a row label.

    >>> tier("L2-4"), tier("T5a")
    ((2, 4), (3, 6))
    """
    for prefix, offset, floor in _TIERS:
        if label.startswith(prefix):
            return offset, floor
    prefixes = "/".join(prefix for prefix, _, _ in _TIERS)
    raise ValueError(f"label {label!r} has no recognized tier prefix ({prefixes})")


def _valid_at(label: str, n: int) -> bool:
    """True iff a row with this label certifies anything at length n."""
    return n >= tier(label)[1]


def certified_class(label: str, n: int) -> int:
    """The exact complexity certified by a match of this row at length n."""
    offset, _ = tier(label)
    return n - offset


# ---------------------------------------------------------------------------
# parsing


class PatternSyntaxError(ValueError):
    """A parse error, carrying the offending text and column."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1})")


_SCAN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<rel>\(\s*n\s*-\s*(?P<off>\d+)\s*\))
      | (?P<kw>minus\b|where\b|nonempty\b)
      | (?P<bare_n>n\b)
      | (?P<star>\*(?P<sname>[A-Z])?)
      | (?P<q>\?)
      | (?P<int>\d+)
      | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<pipe>\|)
      | (?P<lpar>\() | (?P<rpar>\))
      | (?P<name>[A-Z]\b)
    """,
    re.VERBOSE,
)


def _scan(text: str, start: int = 0) -> list:
    """Tokenize pattern text into (kind, value, position) triples."""
    out = []
    pos = start
    while pos < len(text):
        m = _SCAN.match(text, pos)
        if m is None:
            raise PatternSyntaxError(f"unexpected character {text[pos]!r}", text, pos)
        if m.group("ws"):
            pass
        elif m.group("rel"):
            out.append(("val", RelValue(int(m.group("off"))), pos))
        elif m.group("kw"):
            out.append(("kw", m.group("kw"), pos))
        elif m.group("bare_n"):
            out.append(("val", RelValue(0), pos))
        elif m.group("star"):
            out.append(("star", m.group("sname"), pos))
        elif m.group("q"):
            out.append(("q", None, pos))
        elif m.group("int"):
            out.append(("val", AbsValue(int(m.group("int"))), pos))
        elif m.group("name"):
            out.append(("name", m.group("name"), pos))
        else:
            for kind in ("lbrace", "rbrace", "pipe", "lpar", "rpar"):
                if m.group(kind):
                    out.append((kind, None, pos))
                    break
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, toks: list):
        self.text = text
        self.toks = toks
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0] if self.i < len(self.toks) else "end"

    def take(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def here(self) -> int:
        return self.toks[self.i][2] if self.i < len(self.toks) else len(self.text)

    def fail(self, message: str):
        raise PatternSyntaxError(message, self.text, self.here())

    def expect(self, kind: str, what: str) -> tuple:
        if self.peek() != kind:
            self.fail(f"expected {what}")
        return self.take()

    def seq(self, stop: frozenset) -> tuple:
        tokens = []
        while True:
            k = self.peek()
            if k == "end" or k in stop:
                break
            if k == "star":
                tokens.append(Star(self.take()[1]))
            elif k == "q":
                self.take()
                tokens.append(AnyOne())
            elif k == "val":
                tokens.append(self.take()[1])
            elif k == "lbrace":
                tokens.append(self.alt())
            else:
                self.fail("expected a pattern token")
        if not tokens:
            self.fail("expected at least one pattern token")
        return tuple(tokens)

    def alt(self) -> Alt:
        self.expect("lbrace", "'{'")
        branches = [self.seq(frozenset({"pipe", "rbrace"}))]
        while self.peek() == "pipe":
            self.take()
            branches.append(self.seq(frozenset({"pipe", "rbrace"})))
        self.expect("rbrace", "'}'")
        if len(branches) < 2:
            self.fail("alternation needs at least one '|'")
        return Alt(tuple(branches))


def parse_tokens(text: str) -> tuple:
    """Parse a bare token sequence.

    >>> parse_tokens("* n 1")
    (Star(name=None), RelValue(offset=0), AbsValue(value=1))
    """
    p = _Parser(text, _scan(text))
    tokens = p.seq(frozenset())
    if p.peek() != "end":
        p.fail("unexpected trailing input")
    return tokens


def _star_names(tokens: tuple) -> list:
    names = []
    for t in tokens:
        if isinstance(t, Star) and t.name:
            names.append(t.name)
        elif isinstance(t, Alt):
            for b in t.branches:
                names.extend(_star_names(b))
    return names


def parse_row(line: str) -> PatternRow:
    """Parse one catalog row, e.g. ``"L1: * n 1"``.

    >>> parse_row("T3a: * n 2 ?").label
    'T3a'
    """
    label, sep, _ = line.partition(":")
    if not sep:
        raise PatternSyntaxError("missing ':' after row label", line, len(line))
    start = len(label) + 1
    label = label.strip()
    if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", label or ""):
        raise PatternSyntaxError(f"bad row label {label!r}", line, 0)
    p = _Parser(line, _scan(line, start))
    tokens = p.seq(frozenset({"kw"}))
    exclusion = None
    nonempty: tuple = ()
    if p.peek() == "kw" and p.toks[p.i][1] == "minus":
        p.take()
        p.expect("lbrace", "'{' after 'minus'")
        exclusion = p.seq(frozenset({"rbrace"}))
        p.expect("rbrace", "'}'")
    if p.peek() == "kw" and p.toks[p.i][1] == "where":
        p.take()
        if not (p.peek() == "kw" and p.toks[p.i][1] == "nonempty"):
            p.fail("expected 'nonempty' after 'where'")
        p.take()
        p.expect("lpar", "'('")
        names = [p.expect("name", "a star name")[1]]
        while p.peek() == "pipe":
            p.take()
            names.append(p.expect("name", "a star name")[1])
        p.expect("rpar", "')'")
        nonempty = tuple(names)
    if p.peek() != "end":
        p.fail("unexpected trailing input")
    declared = _star_names(tokens)
    if len(declared) != len(set(declared)):
        raise PatternSyntaxError("duplicate star name", line, start)
    for nm in nonempty:
        if nm not in declared:
            raise PatternSyntaxError(f"nonempty() names unknown star {nm!r}", line, start)
    return PatternRow(label, tokens, exclusion, nonempty)


def format_token(t: Token) -> str:
    if isinstance(t, Star):
        return "*" + (t.name or "")
    if isinstance(t, AnyOne):
        return "?"
    if isinstance(t, RelValue):
        return "n" if t.offset == 0 else f"(n-{t.offset})"
    if isinstance(t, AbsValue):
        return str(t.value)
    if isinstance(t, Alt):
        return "{ " + " | ".join(format_tokens(b) for b in t.branches) + " }"
    raise TypeError(f"not a pattern token: {t!r}")


def format_tokens(tokens: Sequence[Token]) -> str:
    return " ".join(format_token(t) for t in tokens)


def format_row(row: PatternRow) -> str:
    """Canonical text for a row; inverse of :func:`parse_row`."""
    s = f"{row.label}: {format_tokens(row.tokens)}"
    if row.exclusion is not None:
        s += f" minus {{ {format_tokens(row.exclusion)} }}"
    if row.nonempty:
        s += f" where nonempty({'|'.join(row.nonempty)})"
    return s


# ---------------------------------------------------------------------------
# matching


def expand_alternations(tokens: Sequence[Token]) -> list:
    """All alternation-free branches of a token sequence, in branch order."""
    seqs = [()]
    for t in tokens:
        if isinstance(t, Alt):
            expanded = [e for b in t.branches for e in expand_alternations(b)]
            seqs = [s + e for s in seqs for e in expanded]
        else:
            seqs = [s + (t,) for s in seqs]
    return seqs


def _positions(w: tuple) -> list:
    """``pos[v]`` is the index of letter v in w, or -1 if v is absent.

    Covers the letters 1..len(w), the only values a resolved pattern pins.
    A repeated letter raises ValueError: the positional matcher relies on
    each pinned letter having one position.
    """
    n = len(w)
    if len(set(w)) != n:
        raise ValueError(f"word {w!r} has a repeated letter")
    pos = [-1] * (n + 1)
    for i, x in enumerate(w):
        if 0 < x <= n:
            pos[x] = i
    return pos


def _naive_all(ts: tuple, w: tuple, ti: int = 0, pos: int = 0) -> list:
    """Every match assignment of a flat branch, by blunt enumeration of star
    extents; relative letters resolve against len(w).

    Exponential on purpose: an independent oracle for the positional matcher.
    """
    if ti == len(ts):
        return [{}] if pos == len(w) else []
    t = ts[ti]
    out = []
    if isinstance(t, Star):
        for end in range(pos, len(w) + 1):
            for rest in _naive_all(ts, w, ti + 1, end):
                if t.name:
                    d = {t.name: (pos, end)}
                    d.update(rest)
                    out.append(d)
                else:
                    out.append(rest)
    elif isinstance(t, AnyOne):
        if pos < len(w):
            out = _naive_all(ts, w, ti + 1, pos + 1)
    else:
        v = len(w) - t.offset if isinstance(t, RelValue) else t.value
        if pos < len(w) and 1 <= v <= len(w) and w[pos] == v:
            out = _naive_all(ts, w, ti + 1, pos + 1)
    return out


def matches(tokens: Sequence[Token], w: Sequence[int], naive: bool = False) -> bool:
    """True iff the word matches the token sequence (any alternation branch).

    >>> matches(parse_tokens("* n 1"), (2, 3, 1))
    True
    >>> matches(parse_tokens("* n 1"), (3, 2, 1))
    False
    """
    w = tuple(w)
    pos = _positions(w)
    if naive:
        return any(_naive_all(b, w) for b in expand_alternations(tokens))
    return any(br.match(w, pos) for br in _compile(tokens, len(w)))


def row_matches(row: PatternRow, w: Sequence[int], naive: bool = False) -> bool:
    """True iff the word matches the row, honoring minus/nonempty clauses."""
    w = tuple(w)
    pos = _positions(w)
    if not naive:
        return _compiled_row(row, len(w)).match(w, pos)
    for b in expand_alternations(row.tokens):
        for caps in _naive_all(b, w):
            spans = [caps.get(nm, (0, 0)) for nm in row.nonempty]
            if not spans or any(lo < hi for lo, hi in spans):
                return not (row.exclusion is not None
                            and matches(row.exclusion, w, naive=True))
    return False


def match_spans(row: PatternRow, w: Sequence[int]) -> Optional[dict]:
    """A witness {name: (start, end)} for one accepted match, or None.

    >>> match_spans(parse_row("X: * n *A 1 where nonempty(A)"), (3, 2, 1))
    {'A': (1, 2)}
    """
    w = tuple(w)
    pos = _positions(w)
    cr = _compiled_row(row, len(w))
    if any(ex.match(w, pos) for ex in cr.exclusions):
        return None
    for br in cr.branches:
        if br.match(w, pos):
            return br.spans(pos)
    return None


def count_matches(row: PatternRow, n: int) -> int:
    """Number of standard words of length n matching the row, by brute force.

    Enumerates all n! words; intended for small n in tests and exploration.
    """
    cr = _compiled_row(row, n)
    return sum(1 for p in permutations(range(1, n + 1)) if cr.match(p, _positions(p)))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    """An ordered collection of rows; earlier rows shadow later ones."""
    rows: tuple
    # one CompiledCatalog per word length, built on first use
    _compiled: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def labels(self) -> list:
        return [r.label for r in self.rows]

    def row(self, label: str) -> PatternRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def classify(self, w: Sequence[int], naive: bool = False) -> Optional[str]:
        """Label of the first matching row valid at this length, or None.

        Uses the catalog compiled for the word's length, built on first use
        and kept; ``naive=True`` tries each row with the oracle instead.
        """
        w = Word(w)
        if not w.is_standard():
            raise ValueError("classify() needs a standard word")
        n = len(w)
        if naive:
            for row in self.rows:
                if _valid_at(row.label, n) and row_matches(row, w, naive=True):
                    return row.label
            return None
        cc = self._compiled.get(n)
        if cc is None:
            if n < min(floor for _, _, floor in _TIERS):
                return None
            cc = self._compiled[n] = CompiledCatalog(self, n)
        return cc.classify_word(w)


def parse_catalog(text: str) -> Catalog:
    """Parse catalog text: one row per line, '#' comments, blank lines ok."""
    rows = []
    seen = set()
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        row = parse_row(body)
        if row.label in seen:
            raise PatternSyntaxError(f"duplicate row label {row.label!r}", body, 0)
        seen.add(row.label)
        rows.append(row)
    return Catalog(tuple(rows))


@lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    """The packaged 28-row catalog covering complexities n-1, n-2 and n-3."""
    from importlib.resources import files

    text = files("stacksort").joinpath("catalog.txt").read_text(encoding="utf-8")
    return parse_catalog(text)


def classify(w: Sequence[int]) -> Optional[str]:
    """Classify against the built-in catalog.

    >>> classify((2, 3, 1))
    'L1'
    """
    return builtin_catalog().classify(w)


# ---------------------------------------------------------------------------
# the positional matcher


class _CompiledBranch:
    """One alternation-free branch resolved, for one word length, into
    checks on the positions of its pinned letters.

    The stars cut the branch into runs.  A run holding a pinned letter is a
    block; stars and pin-free ``?`` runs form the gaps between blocks, each
    at least as long as its ``?`` count.  A block at an end of the branch
    with no star beside it has a fixed position (a branch with no star is
    one run of exactly n letters); any other block floats, its start read
    off the position of its first pinned letter.  The shape is settled
    here, so a probe only compares positions.
    """

    __slots__ = ("fixed", "head", "floating", "tail", "last", "gaps", "mins",
                 "nonempty", "watch", "alive")

    def __init__(self, ts: tuple, n: int, nonempty: tuple = ()):
        # runs[0] stars[0] runs[1] ... hold each letter's value, None for ?
        runs, stars, pins, pinned = [[]], [], [], [False]
        for t in ts:
            if isinstance(t, Star):
                stars.append(t)
                runs.append([])
                pinned.append(False)
            elif isinstance(t, AnyOne):
                runs[-1].append(None)
            else:
                v = n - t.offset if isinstance(t, RelValue) else t.value
                runs[-1].append(v)
                pins.append(v)
                pinned[-1] = True
        m = len(stars)
        left = runs[0] if pinned[0] or not m else []
        right = runs[m] if m and pinned[m] else []
        self.fixed = tuple(
            (start + i, v)
            for start, run in ((0, left), (n - len(right), right))
            for i, v in enumerate(run) if v is not None)
        gaps, mins, blocks = [[]], [0], []
        for j, run in enumerate(runs):
            if j:
                gaps[-1].append(stars[j - 1])
            if (j == 0 and left) or (j == m and right):
                continue
            if pinned[j]:
                blocks.append(run)
                gaps.append([])
                mins.append(0)
            else:  # a run of ? tokens only
                gaps[-1].extend(run)
                mins[-1] += len(run)
        self.gaps = gaps
        self.mins = mins
        self.head = len(left) + mins[0]
        self.tail = n - len(right)
        floating = []
        for b, run in enumerate(blocks):
            (off, v), *rest = [(i, v) for i, v in enumerate(run) if v is not None]
            floating.append((v, off, tuple((u, i) for i, u in rest),
                             len(run) + mins[b + 1]))
        self.floating = tuple(floating)
        self.last = right[-1] if right else None
        self.nonempty = nonempty
        # gaps holding a star named in the row's nonempty clause
        self.watch = tuple(g for g, gap in enumerate(gaps) if any(
            isinstance(t, Star) and t.name in nonempty for t in gap)) if nonempty else ()
        self.alive = (all(1 <= v <= n for v in pins)
                      and len(ts) - m <= n and (m > 0 or len(ts) == n)
                      and (bool(self.watch) or not nonempty))

    def match(self, w: Sequence[int], pos: Sequence[int]) -> bool:
        """True iff w matches; ``pos[v]`` is the index of letter v in w."""
        for p, v in self.fixed:
            if w[p] != v:
                return False
        prev = self.head
        for v, off, rest, step in self.floating:
            start = pos[v] - off
            if start < prev:
                return False
            for u, i in rest:
                if pos[u] != start + i:
                    return False
            prev = start + step
        return prev <= self.tail and (not self.watch or self._spare(pos))

    def _bounds(self, pos: Sequence[int]) -> list:
        """(start, end) of every gap of a matching word."""
        out, lo = [], self.head - self.mins[0]
        for g, (v, off, _, step) in enumerate(self.floating):
            start = pos[v] - off
            out.append((lo, start))
            lo = start + step - self.mins[g + 1]
        out.append((lo, self.tail))
        return out

    def _spare(self, pos: Sequence[int]) -> bool:
        """True iff some watched gap holds more letters than its ``?`` tokens."""
        bounds = self._bounds(pos)
        return any(bounds[g][1] - bounds[g][0] > self.mins[g] for g in self.watch)

    def spans(self, pos: Sequence[int]) -> dict:
        """{name: (start, end)} of the named stars in one match of a matching
        word: each gap's spare letters go to its last star, or to its last
        star named in the nonempty clause when it has one."""
        caps = {}
        for (at, end), gap, least in zip(self._bounds(pos), self.gaps, self.mins):
            stars = [i for i, t in enumerate(gap) if isinstance(t, Star)]
            taker = max(stars, key=lambda i: (gap[i].name in self.nonempty, i),
                        default=None)
            spare = end - at - least
            for i, t in enumerate(gap):
                if isinstance(t, Star):
                    stop = at + spare if i == taker else at
                    if t.name:
                        caps[t.name] = (at, stop)
                    at = stop
                else:
                    at += 1
        return caps

    def keys(self, n: int) -> list:
        """Every (e, last letter) a matching word can have; e counts the
        letters after n."""
        lo, hi = 0, n - 1  # the positions n can take
        for p, v in self.fixed:
            if v == n:
                lo = hi = p
        first = self.head
        latest = self.tail - sum(step for *_, step in self.floating)
        for v, off, rest, step in self.floating:
            for u, i in ((v, off),) + rest:
                if u == n:
                    lo, hi = first + i, latest + i
            first += step
            latest += step
        lasts = range(1, n + 1) if self.last is None else (self.last,)
        return [(e, x) for e in range(n - 1 - hi, n - lo) for x in lasts]


def _compile(tokens: Sequence[Token], n: int, nonempty: tuple = ()) -> tuple:
    """The branches of a token sequence at length n that can match at all."""
    branches = (_CompiledBranch(b, n, nonempty) for b in expand_alternations(tokens))
    return tuple(br for br in branches if br.alive)


class CompiledRow:
    """A row compiled for one word length."""

    __slots__ = ("label", "branches", "exclusions")

    def __init__(self, row: PatternRow, n: int):
        self.label = row.label
        self.branches = _compile(row.tokens, n, row.nonempty)
        self.exclusions = (_compile(row.exclusion, n)
                           if row.exclusion is not None else ())

    def match(self, w: Sequence[int], pos: Sequence[int]) -> bool:
        for br in self.branches:
            if br.match(w, pos):
                for ex in self.exclusions:
                    if ex.match(w, pos):
                        return False
                return True
        return False


@lru_cache(maxsize=1024)
def _compiled_row(row: PatternRow, n: int) -> CompiledRow:
    """The row compiled for length n, kept for the next word of that length."""
    return CompiledRow(row, n)


class CompiledCatalog:
    """A catalog baked for one word length, with a dispatch derived from its rows.

    A word's cell is keyed on e (the number of letters after the letter n)
    and its last letter.  Each compiled branch gives the cells it can match
    in: e from the positions its blocks and gaps leave for n, the last
    letter from the final token of a block fixed at the right end (any
    letter for ``?`` or a trailing star).  The classifier probes only the
    rows of the word's cell, in catalog order, so it returns the first
    matching row of the whole catalog.  Only cells that some row reaches
    get a list of their own.
    """

    def __init__(self, catalog: Catalog, n: int):
        self.n = n
        self.rows = [CompiledRow(row, n) for row in catalog.rows
                     if _valid_at(row.label, n)]
        cells: dict = {}
        for cr in self.rows:
            for br in cr.branches:
                for key in br.keys(n):
                    cell = cells.setdefault(key, [])
                    if not cell or cell[-1] is not cr:
                        cell.append(cr)
        self.cells = [[()] * (n + 1) for _ in range(n)]
        for (e, last), cell in cells.items():
            self.cells[e][last] = cell

    @cached_property
    def buckets(self) -> list:
        """Rows by min(e, 4), in catalog order: the union of their cells."""
        spans = [self.cells[e:e + 1] for e in range(4)] + [self.cells[4:]]
        return [[cr for cr in self.rows
                 if any(cr in cell for by_last in span for cell in by_last)]
                for span in spans]

    def classify(self, w: Sequence[int], pos: Sequence[int]) -> Optional[str]:
        """First-match label using a precomputed position table.

        ``pos`` must satisfy ``pos[v] = index of letter v in w``.
        """
        n = len(w)
        for cr in self.cells[n - 1 - pos[n]][w[-1]]:
            if cr.match(w, pos):
                return cr.label
        return None

    def classify_word(self, w: Sequence[int]) -> Optional[str]:
        """Convenience wrapper building the position table itself."""
        w = tuple(w)
        return self.classify(w, _positions(w))
