"""Glob-style patterns over standard words, and the catalog classifier.

A pattern row describes a family of standard words, one family per word
length n, by pinning letters relative to the largest value.  Text grammar::

    row    := LABEL ":" seq [ "minus" "{" seq "}" ]
    seq    := token+
    token  := "*"                 -- a run of letters, possibly empty
            | "?"                 -- exactly one letter, any value
            | "n"                 -- the letter n (the largest)
            | "(n-" INT ")"       -- the letter n - INT
            | INT                 -- the letter with that exact value
            | "{" seq ("|" seq)+ "}"   -- alternation over branches

``minus { ... }`` subtracts every word matching the bracketed sequence; it
is the one clause that removes words from a row.  In a word with distinct
letters the pinned letters fix every span between them, so "one of these
stars between pinned letters holds a letter" is the row minus the same row
with those stars left out::

    T5a: * n * (n-2) * (n-1) 2 minus { * n (n-2) (n-1) 2 }

Row labels carry a certified complexity tier by prefix: a word matching an
``L1`` row has stack-sorting complexity exactly n-1 (meaningful for n >= 2),
an ``L2`` row exactly n-2 (n >= 4), and a ``T`` row exactly n-3 (n >= 6).
:func:`classify` returns the first matching row in catalog order, so earlier
rows shadow later ones; the built-in catalog is ordered so that the per-row
counts follow closed formulas; :mod:`stacksort.automaton` counts them.

:func:`classify`, :func:`matches` and :func:`row_matches` run through one
matcher, the automaton of :mod:`stacksort.automaton`: rows read as symbols
at the word's length are one table of transitions, which :func:`walk`
steps once per letter.  :class:`CompiledCatalog` keeps the catalog's table
at one length, and a cache of 1,024 rows keeps one row's for
:func:`row_matches`, which reads every letter the row does not pin as x,
so its words need not be standard.  The matcher answers only whether a
word matches; it reports no witness of where the stars fall.  The census
kernel steps the same tables, once per letter of its walk
(``census._shard_kernel``).  The independent oracle the test suite checks
them against, a blunt enumerator of star extents, is test code
(``tests/_matching_oracle.py``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .words import Word, _as_word, _require_standard

# ---------------------------------------------------------------------------
# tokens and rows


@dataclass(frozen=True)
class Star:
    """A run of letters, possibly empty."""


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
    """A labelled pattern, with an optional subtraction."""
    label: str
    tokens: tuple
    exclusion: Optional[tuple] = None


# (label prefix, complexity offset, smallest valid n): the one tier table,
# from which every other tier fact is derived
_TIERS = (("L1", 1, 2), ("L2", 2, 4), ("T", 3, 6))
# shortest length at which any tier certifies: shorter words match no row
_MIN_FLOOR = min(floor for _, _, floor in _TIERS)


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


def none_ceiling(n: int) -> int:
    """Largest complexity an unclassified word may have at length n: one
    below the lowest level the tiers valid at n certify, or 0 when no tier
    is valid."""
    offsets = [offset for _, offset, floor in _TIERS if floor <= n]
    return n - 1 - max(offsets) if offsets else 0


def certified_class(label: str, n: int) -> int:
    """The exact complexity certified by a match of this row at length n."""
    offset, _ = tier(label)
    return n - offset


# ---------------------------------------------------------------------------
# parsing


class PatternSyntaxError(ValueError):
    """A parse error, carrying the offending text, the 0-based index ``pos``
    into it and, for a catalog, the 1-based number of its ``line``."""

    def __init__(self, message: str, text: str, pos: int,
                 line: Optional[int] = None):
        self.message = message
        self.text = text
        self.pos = pos
        self.line = line
        where = f"column {pos + 1}" if line is None else f"line {line}, column {pos + 1}"
        super().__init__(f"{message} ({where})")


_SCAN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<rel>\(\s*n\s*-\s*(?P<off>\d+)\s*\))
      | (?P<minus>minus\b)
      | (?P<bare_n>n\b)
      | (?P<star>\*)
      | (?P<q>\?)
      | (?P<int>\d+)
      | (?P<lbrace>\{) | (?P<rbrace>\}) | (?P<pipe>\|)
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
        kind = m.lastgroup
        if kind == "rel":
            out.append(("val", RelValue(int(m.group("off"))), pos))
        elif kind == "bare_n":
            out.append(("val", RelValue(0), pos))
        elif kind == "int":
            out.append(("val", AbsValue(int(m.group("int"))), pos))
        elif kind != "ws":
            out.append((kind, None, pos))
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
                self.take()
                tokens.append(Star())
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
    (Star(), RelValue(offset=0), AbsValue(value=1))
    """
    # with no stop token, seq returns only at the end of the input
    return _Parser(text, _scan(text)).seq(frozenset())


def parse_row(line: str) -> PatternRow:
    """Parse one catalog row, e.g. ``"L1: * n 1"``.

    >>> parse_row("T3a: * n 2 ?").label
    'T3a'
    """
    label, sep, _ = line.partition(":")
    if not sep:
        raise PatternSyntaxError("missing ':' after row label", line, len(line))
    start = len(label) + 1
    indent = len(label) - len(label.lstrip())
    label = label.strip()
    if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", label or ""):
        raise PatternSyntaxError(f"bad row label {label!r}", line, indent)
    p = _Parser(line, _scan(line, start))
    tokens = p.seq(frozenset({"minus"}))
    exclusion = None
    if p.peek() == "minus":
        p.take()
        p.expect("lbrace", "'{' after 'minus'")
        exclusion = p.seq(frozenset({"rbrace"}))
        p.expect("rbrace", "'}'")
    if p.peek() != "end":
        p.fail("unexpected trailing input")
    return PatternRow(label, tokens, exclusion)


def format_token(t: Token) -> str:
    if isinstance(t, Star):
        return "*"
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


def resolve_branches(tokens: Optional[Sequence[Token]], n: int) -> list:
    """``(ts, pins)`` for each alternation-free branch ``ts`` of ``tokens``
    (none if None) with ``pins`` the letter each token pins at length n,
    None for a star or ``?``.  A branch pinning a letter outside 1..n
    never matches, so it is left out."""
    got = []
    for ts in expand_alternations(tokens) if tokens is not None else ():
        pins = [None if isinstance(t, (Star, AnyOne))
                else n - t.offset if isinstance(t, RelValue) else t.value for t in ts]
        if all(v is None or 1 <= v <= n for v in pins):
            got.append((ts, pins))
    return got


def matches(tokens: Sequence[Token], w: Sequence[int]) -> bool:
    """True iff the word matches the token sequence (any alternation branch).

    >>> matches(parse_tokens("* n 1"), (2, 3, 1))
    True
    >>> matches(parse_tokens("* n 1"), (3, 2, 1))
    False
    """
    return row_matches(PatternRow("", tuple(tokens)), w)


def row_matches(row: PatternRow, w: Sequence[int]) -> bool:
    """True iff the word matches the row and not its ``minus`` clause.

    A letter the row does not pin at the word's length, 0, one above it or
    any other int, reads as x.  A repeated letter raises ValueError.  A
    ``Word`` has distinct letters by construction, so only other sequences
    are checked.
    """
    if not isinstance(w, Word):
        w = tuple(w)
        if len(set(w)) != len(w):
            raise ValueError(f"word {w!r} has a repeated letter")
    index, delta, codes = _row_automaton(row, len(w))
    return not codes[walk(index, delta, w)]


def walk(index: dict, delta: tuple, w: Sequence[int]) -> int:
    """The state that a table of :func:`stacksort.automaton.read` reaches
    from state 0 on the letters of w: each letter in ``index`` reads as its
    symbol, every other one as x."""
    x, state = len(index), 0
    for v in w:
        state = delta[index.get(v, x)][state]
    return state


@lru_cache(maxsize=1024)
def _row_automaton(row: PatternRow, n: int) -> tuple:
    """``(index, delta, codes)`` of the one row at length n, with x read for
    letters outside 1..n: kept for the next word of that length, the one
    cache that :func:`row_matches` and :func:`matches` read through.  Code
    0 is the row's, 1 no match."""
    from .automaton import read
    return read((row,), n, foreign=True)


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    """An ordered collection of rows; earlier rows shadow later ones."""
    rows: tuple
    # one CompiledCatalog per word length, made on first use (compiled())
    _compiled: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def labels(self) -> list:
        return [r.label for r in self.rows]

    def row(self, label: str) -> PatternRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def levels(self, n: int) -> dict:
        """``{label: certified complexity}`` of the rows valid at length n,
        in catalog order: the one place either fact is decided.

        >>> builtin_catalog().levels(4)
        {'L1': 3, 'L2-1': 2, 'L2-2': 2, 'L2-3': 2, 'L2-4': 2, 'L2-5': 2}
        """
        tiers = {r.label: tier(r.label) for r in self.rows}
        return {label: n - offset for label, (offset, floor) in tiers.items()
                if n >= floor}

    def compiled(self, n: int) -> "CompiledCatalog":
        """The catalog's automaton at length n, made on first use and kept;
        its table is read on its first classify."""
        cc = self._compiled.get(n)
        if cc is None:
            cc = self._compiled[n] = CompiledCatalog(self, n)
        return cc

    def classify(self, w: Sequence[int]) -> Optional[str]:
        """Label of the first matching row valid at this length, or None,
        from the catalog's automaton at the word's length (:meth:`compiled`).
        """
        w = _require_standard(_as_word(w))
        n = len(w)
        if n < _MIN_FLOOR:
            return None
        return self.compiled(n).classify(w)


def parse_catalog(text: str) -> Catalog:
    """Parse catalog text: one row per line, '#' comments, blank lines ok.
    A :class:`PatternSyntaxError` names the 1-based line and its column,
    for bad syntax, a label with no tier prefix or a duplicate label."""
    rows = []
    seen = set()
    for number, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        indent = len(body) - len(body.lstrip())
        try:
            row = parse_row(body)
            if row.label in seen:
                raise PatternSyntaxError(f"duplicate row label {row.label!r}", body,
                                         indent)
            tier(row.label)
        except PatternSyntaxError as exc:
            raise PatternSyntaxError(exc.message, line, exc.pos, number) from None
        except ValueError as exc:  # from tier: the label has no tier prefix
            raise PatternSyntaxError(str(exc), line, indent, number) from None
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
# the catalog at one length


class CompiledCatalog:
    """The catalog's automaton at one word length, which
    :meth:`Catalog.classify` steps.  The constructor only picks the rows
    valid at n; the first :meth:`classify` reads them as symbols
    (:func:`stacksort.automaton.read`).  ``buckets`` holds those rows five
    times: the automaton reads every row at once, whatever the number of
    letters after n."""

    def __init__(self, catalog: Catalog, n: int):
        levels = catalog.levels(n)
        rows = [row for row in catalog.rows if row.label in levels]
        self.n = n
        self.buckets = [rows] * 5

    @cached_property
    def _automaton(self) -> tuple:
        """``(index, delta, labels)``, ``labels[s]`` the label of state s."""
        from .automaton import read
        rows = self.buckets[0]
        index, delta, codes = read(rows, self.n)
        names = [row.label for row in rows] + [None]
        return index, delta, [names[code] for code in codes]

    def classify(self, w: Sequence[int], pos: object = None) -> Optional[str]:
        """Label of the first row valid at n that the standard word ``w`` of
        length n matches, or None.  ``pos`` is ignored."""
        index, delta, labels = self._automaton
        return labels[walk(index, delta, w)]
