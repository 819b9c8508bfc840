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
positional matcher: in a word with distinct letters every pinned letter
has one position, so a pattern compiles, once per word length, into
position comparisons with no backtracking.  The matcher answers only
whether a word matches; it reports no witness of where the stars fall.
Those comparisons are written out as Python source with every position
and letter an int literal, and compiled into functions on the first
probe: one per row, or, in :class:`CompiledCatalog`, one per cell of a
dispatch on the number of letters after n and on the last letter.  The
census kernel does not use it: it classifies with the catalog's
automaton over its letters (:mod:`stacksort.automaton`), stepped once
per letter of its walk (``census._shard_kernel``).  The independent
oracle the test suite checks both against, a blunt enumerator of star
extents, is test code (``tests/_matching_oracle.py``).
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
    never matches, so it is left out, for both matchers."""
    got = []
    for ts in expand_alternations(tokens) if tokens is not None else ():
        pins = [None if isinstance(t, (Star, AnyOne))
                else n - t.offset if isinstance(t, RelValue) else t.value for t in ts]
        if all(v is None or 1 <= v <= n for v in pins):
            got.append((ts, pins))
    return got


def _positions(w: tuple) -> list:
    """``pos[v]`` is the index of letter v in w, or -1 if v is absent.

    Covers the letters 1..len(w), the only values a resolved pattern pins.
    A repeated letter raises ValueError: the positional matcher relies on
    each pinned letter having one position.  A ``Word`` has distinct
    letters by construction, so only other sequences are checked.
    """
    n = len(w)
    if not isinstance(w, Word) and len(set(w)) != n:
        raise ValueError(f"word {w!r} has a repeated letter")
    pos = [-1] * (n + 1)
    for i, x in enumerate(w):
        if 0 < x <= n:
            pos[x] = i
    return pos


def matches(tokens: Sequence[Token], w: Sequence[int]) -> bool:
    """True iff the word matches the token sequence (any alternation branch).

    >>> matches(parse_tokens("* n 1"), (2, 3, 1))
    True
    >>> matches(parse_tokens("* n 1"), (3, 2, 1))
    False
    """
    return row_matches(PatternRow("", tuple(tokens)), w)


def row_matches(row: PatternRow, w: Sequence[int]) -> bool:
    """True iff the word matches the row and not its ``minus`` clause."""
    w = tuple(w)
    return _compiled_row(row, len(w)).match(w, _positions(w))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    """An ordered collection of rows; earlier rows shadow later ones."""
    rows: tuple
    # one CompiledCatalog per word length, built on first use (compiled())
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
        """The catalog compiled for length n, built on first use and kept;
        its dispatch is generated on its first probe."""
        cc = self._compiled.get(n)
        if cc is None:
            cc = self._compiled[n] = CompiledCatalog(self, n)
        return cc

    def classify(self, w: Sequence[int]) -> Optional[str]:
        """Label of the first matching row valid at this length, or None,
        from the catalog compiled for the word's length (:meth:`compiled`).
        """
        w = _require_standard(_as_word(w))
        n = len(w)
        if n < _MIN_FLOOR:
            return None
        return self.compiled(n).classify(w, _positions(w))


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
# the positional matcher


class _CompiledBranch:
    """One alternation-free branch resolved, for one word length, into
    checks on the positions of its pinned letters (``resolve_branches``).

    The stars cut the branch into runs.  A run holding a pinned letter is a
    block; stars and pin-free ``?`` runs form the gaps between blocks, each
    at least as long as its ``?`` count.  A block at an end of the branch
    with no star beside it has a fixed position (a branch with no star is
    one run of exactly n letters); any other block floats, its start read
    off the position of its first pinned letter.  The floating blocks
    chain: the first starts at ``head`` or later, each next one where the
    one before it ends or later, and the last ends at ``tail`` or earlier.
    The shape is settled here, and :meth:`source` writes the checks as one
    boolean expression with every position and letter an int literal; the
    functions generated from it are the positional matcher.
    """

    def __init__(self, ts: tuple, pins: list, n: int):
        # runs[0] * runs[1] * ... hold each letter's value, None for ?
        runs, pinned = [[]], [False]
        for t, v in zip(ts, pins):
            if isinstance(t, Star):
                runs.append([])
                pinned.append(False)
            else:
                runs[-1].append(v)
                pinned[-1] |= v is not None
        m = len(runs) - 1  # the number of stars
        left = runs[0] if pinned[0] or not m else []
        right = runs[m] if m and pinned[m] else []
        self.fixed = tuple(
            (start + i, v)
            for start, run in ((0, left), (n - len(right), right))
            for i, v in enumerate(run) if v is not None)
        mins, blocks = [0], []
        for j, run in enumerate(runs):
            if (j == 0 and left) or (j == m and right):
                continue
            if pinned[j]:
                blocks.append(run)
                mins.append(0)
            else:  # a run of ? tokens only
                mins[-1] += len(run)
        self.head = len(left) + mins[0]
        self.tail = n - len(right)
        floating = []
        for b, run in enumerate(blocks):
            (off, v), *rest = [(i, v) for i, v in enumerate(run) if v is not None]
            floating.append((v, off, tuple((u, i) for i, u in rest),
                             len(run) + mins[b + 1]))
        self.floating = tuple(floating)
        self.last = right[-1] if right else None
        self.alive = len(ts) - m <= n and (m > 0 or len(ts) == n)

    def source(self) -> str:
        """The branch's checks as one boolean expression over ``w`` and
        ``pos`` (``pos[v]`` is the index of letter v in w).  Block b binds
        the position of its first pinned letter to ``p<b>``, and every link
        of the chain compares it against the previous binding plus a
        constant."""
        checks = [f"w[{p}] == {v}" for p, v in self.fixed]
        if not self.floating:  # the chain is the one link head <= tail
            holds = self.head <= self.tail
            return (" and ".join(checks) or "True") if holds else "False"
        prev, end = None, self.head  # the chain so far ends at prev + end
        for b, (v, off, rest, step) in enumerate(self.floating):
            checks.append(f"{_plus(prev, end + off)} <= (p{b} := pos[{v}])")
            checks += [f"pos[{u}] == {_plus(f'p{b}', i - off)}" for u, i in rest]
            prev, end = f"p{b}", step - off
        checks.append(f"{prev} <= {self.tail - end}")
        return " and ".join(checks)

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


def _plus(name: Optional[str], k: int) -> str:
    """Source for ``name + k``, or for k alone when name is None."""
    if name is None:
        return str(k)
    return name if not k else f"{name} {'+' if k > 0 else '-'} {abs(k)}"


def _generate(bodies: Sequence[str], results: tuple = ()) -> list:
    """One function ``f(w, pos)`` per body, all from one compile() call.

    A body is one statement per line.  The generated code reads nothing
    but its arguments and ``R``, the tuple ``results``: a row label reaches
    it only as an index into R, never as source text.
    """
    text = "".join(f"def f{i}(w, pos):\n    " + body.replace("\n", "\n    ") + "\n"
                   for i, body in enumerate(bodies))
    scope = {"R": results}
    exec(compile(text, "<stacksort.patterns>", "exec"), scope)
    return [scope[f"f{i}"] for i in range(len(bodies))]


def _either(branches: Sequence[_CompiledBranch]) -> str:
    """Source true iff some branch matches."""
    return " or ".join(f"({br.source()})" for br in branches) or "False"


def _compile(tokens: Optional[tuple], n: int) -> tuple:
    """The branches of a token sequence at length n that can match at all."""
    branches = (_CompiledBranch(ts, pins, n) for ts, pins in resolve_branches(tokens, n))
    return tuple(br for br in branches if br.alive)


class CompiledRow:
    """A row compiled for one word length."""

    def __init__(self, row: PatternRow, n: int):
        self.label = row.label
        self.branches = _compile(row.tokens, n)
        self.exclusions = _compile(row.exclusion, n)

    def source(self) -> str:
        """Source true iff some branch matches and no exclusion does."""
        if not self.exclusions:
            return _either(self.branches)
        return f"({_either(self.branches)}) and not ({_either(self.exclusions)})"

    @cached_property
    def match(self):
        """The generated probe ``match(w, pos)``: True iff w matches the row."""
        return _generate([f"return {self.source()}"])[0]


@lru_cache(maxsize=1024)
def _compiled_row(row: PatternRow, n: int) -> CompiledRow:
    """The row compiled for length n, kept, with its probe, for the next word
    of that length: the one cache of compiled rows, which :func:`row_matches`,
    :func:`matches` and every :class:`CompiledCatalog` build through."""
    return CompiledRow(row, n)


class CompiledCatalog:
    """A catalog baked for one word length, with a dispatch derived from its rows.

    A word's cell is keyed on e (the number of letters after the letter n)
    and its last letter.  Each compiled branch gives the cells it can match
    in: e from the positions its blocks and gaps leave for n, the last
    letter from the final token of a block fixed at the right end (any
    letter for ``?`` or a trailing star).  Only cells that some row reaches
    get a list of their own.  Each distinct cell becomes one generated
    function that tries its rows in catalog order, so it returns the first
    matching row of the whole catalog; :attr:`dispatch` generates them all
    with one compile() call on the first probe, never here.
    """

    def __init__(self, catalog: Catalog, n: int):
        self.n = n
        levels = catalog.levels(n)
        self.rows = [_compiled_row(row, n) for row in catalog.rows
                     if row.label in levels]
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

    @cached_property
    def dispatch(self) -> list:
        """``dispatch[p][last](w, pos)``: the label of the first row matching
        a word whose letter n sits at index p and whose last letter is
        ``last``, or None; the generated function of that word's cell."""
        index = {id(cr): k for k, cr in enumerate(self.rows)}
        keys = [[tuple(index[id(cr)] for cr in cell) for cell in by_last]
                for by_last in reversed(self.cells)]
        distinct = dict.fromkeys(key for by_last in keys for key in by_last)
        sources = [cr.source() for cr in self.rows]
        bodies = ["".join(f"if {sources[k]}: return R[{k}]\n" for k in key)
                  + "return None" for key in distinct]
        functions = dict(zip(distinct, _generate(
            bodies, tuple(cr.label for cr in self.rows))))
        return [[functions[key] for key in by_last] for by_last in keys]

    def classify(self, w: Sequence[int], pos: Sequence[int]) -> Optional[str]:
        """First-match label using a precomputed position table.

        ``pos`` must satisfy ``pos[v] = index of letter v in w``.
        """
        return self.dispatch[pos[len(w)]][w[-1]](w, pos)
