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

Three matchers are provided and cross-checked in the test suite: the
production backtracking matcher with a dead-state memo (:func:`row_matches`),
a deliberately blunt enumerator of star extents (``naive=True``), and a
compiled positional fast path used by the census kernel
(:class:`CompiledCatalog`).  The fast path dispatches each word on the
number of letters after n and on its last letter; which rows can match in
each such cell is derived from the compiled branches themselves.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterator, Optional, Sequence, Union

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


_TIERS = (("L1", 1, 2), ("L2", 2, 4), ("T", 3, 6))


def tier(label: str) -> tuple:
    """(complexity offset, minimum valid n) for a row label.

    >>> tier("L2-4"), tier("T5a")
    ((2, 4), (3, 6))
    """
    for prefix, offset, floor in _TIERS:
        if label.startswith(prefix):
            return offset, floor
    raise ValueError(f"label {label!r} has no recognized tier prefix (L1/L2/T)")


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


def _resolve_flat(tokens: tuple, n: int):
    """Pin relative values against length n; None if some letter can't exist."""
    out = []
    for t in tokens:
        if isinstance(t, RelValue):
            v = n - t.offset
            if v < 1:
                return None
            out.append(AbsValue(v))
        elif isinstance(t, AbsValue):
            if not 1 <= t.value <= n:
                return None
            out.append(t)
        else:
            out.append(t)
    return tuple(out)


def _branches_for(tokens: Sequence[Token], n: int) -> list:
    out = []
    for b in expand_alternations(tokens):
        r = _resolve_flat(b, n)
        if r is not None:
            out.append(r)
    return out


def _match_bool(ts: tuple, w: tuple) -> bool:
    """Backtracking match of a flat resolved sequence, memoizing dead states."""
    n = len(w)
    k = len(ts)
    dead = set()

    def go(ti: int, pos: int) -> bool:
        if (ti, pos) in dead:
            return False
        if ti == k:
            ok = pos == n
        else:
            t = ts[ti]
            if isinstance(t, Star):
                ok = any(go(ti + 1, end) for end in range(pos, n + 1))
            elif isinstance(t, AnyOne):
                ok = pos < n and go(ti + 1, pos + 1)
            else:
                ok = pos < n and w[pos] == t.value and go(ti + 1, pos + 1)
        if not ok:
            dead.add((ti, pos))
        return ok

    return go(0, 0)


def _match_spans(ts: tuple, w: tuple) -> Iterator[dict]:
    """Yield one {name: (start, end)} dict per successful match assignment."""
    n = len(w)
    k = len(ts)
    dead = set()

    def go(ti: int, pos: int, caps: dict):
        if (ti, pos) in dead:
            return
        hit = False
        if ti == k:
            if pos == n:
                hit = True
                yield dict(caps)
        else:
            t = ts[ti]
            if isinstance(t, Star):
                for end in range(pos, n + 1):
                    if t.name:
                        caps[t.name] = (pos, end)
                    for c in go(ti + 1, end, caps):
                        hit = True
                        yield c
                if t.name:
                    caps.pop(t.name, None)
            elif isinstance(t, AnyOne):
                if pos < n:
                    for c in go(ti + 1, pos + 1, caps):
                        hit = True
                        yield c
            else:
                if pos < n and w[pos] == t.value:
                    for c in go(ti + 1, pos + 1, caps):
                        hit = True
                        yield c
        if not hit:
            dead.add((ti, pos))

    yield from go(0, 0, {})


def _naive_all(ts: tuple, w: tuple, ti: int = 0, pos: int = 0) -> list:
    """Every match assignment, by blunt enumeration of star extents.

    Exponential on purpose: an independent oracle for the memoized matcher.
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
        if pos < len(w) and w[pos] == t.value:
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
    for b in _branches_for(tokens, len(w)):
        if _naive_all(b, w) if naive else _match_bool(b, w):
            return True
    return False


def row_matches(row: PatternRow, w: Sequence[int], naive: bool = False) -> bool:
    """True iff the word matches the row, honoring minus/nonempty clauses."""
    w = tuple(w)
    n = len(w)
    main = False
    if row.nonempty:
        for b in _branches_for(row.tokens, n):
            gen = _naive_all(b, w) if naive else _match_spans(b, w)
            for caps in gen:
                spans = (caps.get(nm) for nm in row.nonempty)
                if any(sp is not None and sp[0] < sp[1] for sp in spans):
                    main = True
                    break
            if main:
                break
    else:
        main = matches(row.tokens, w, naive)
    if not main:
        return False
    if row.exclusion is not None and matches(row.exclusion, w, naive):
        return False
    return True


def match_spans(row: PatternRow, w: Sequence[int]) -> Optional[dict]:
    """A witness {name: (start, end)} for one accepted match, or None."""
    w = tuple(w)
    if row.exclusion is not None and matches(row.exclusion, w):
        return None
    for b in _branches_for(row.tokens, len(w)):
        for caps in _match_spans(b, w):
            if not row.nonempty:
                return caps
            spans = (caps.get(nm) for nm in row.nonempty)
            if any(sp is not None and sp[0] < sp[1] for sp in spans):
                return caps
    return None


def count_matches(row: PatternRow, n: int) -> int:
    """Number of standard words of length n matching the row, by brute force.

    Enumerates all n! words; intended for small n in tests and exploration.
    """
    return sum(1 for p in permutations(range(1, n + 1)) if row_matches(row, p))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class Catalog:
    """An ordered collection of rows; earlier rows shadow later ones."""
    rows: tuple

    def labels(self) -> list:
        return [r.label for r in self.rows]

    def row(self, label: str) -> PatternRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def classify(self, w: Sequence[int], naive: bool = False) -> Optional[str]:
        """Label of the first matching row valid at this length, or None."""
        w = Word(w)
        if not w.is_standard():
            raise ValueError("classify() needs a standard word")
        n = len(w)
        for row in self.rows:
            _, floor = tier(row.label)
            if n >= floor and row_matches(row, w, naive):
                return row.label
        return None


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
# compiled fast path


class _CompiledBranch:
    """One alternation-free branch reduced to positional integer checks.

    The branch must look like ``* seg * seg ... * suffix``: segments between
    stars hold only pinned letter values (their positions in a standard word
    are forced), and the final segment is anchored at the right end.  This
    covers every built-in catalog row and fails loudly on anything else.
    """

    __slots__ = ("suffix", "blocks", "gaps", "n_slot")

    def __init__(self, ts: tuple, n: int):
        if not ts or not isinstance(ts[0], Star):
            raise ValueError("fast path needs a leading star")
        if isinstance(ts[-1], Star):
            raise ValueError("fast path needs an anchored final segment")
        segments = []  # (star_name_before, [tokens...])
        current = None
        for t in ts:
            if isinstance(t, Star):
                if current is not None and not current[1]:
                    raise ValueError("fast path cannot handle adjacent stars")
                current = (t.name, [])
                segments.append(current)
            else:
                if current is None:
                    raise ValueError("fast path needs a leading star")
                current[1].append(t)
        *inner, (last_name, suffix_toks) = segments
        self.suffix = tuple(
            (i, t.value if isinstance(t, AbsValue) else None)
            for i, t in enumerate(suffix_toks)
        )
        if any(not isinstance(t, AbsValue) for _, seg in inner for t in seg):
            raise ValueError("fast path needs pinned values between stars")
        self.blocks = tuple(tuple(t.value for t in seg) for _, seg in inner)
        # gap g feeds segment g: gap 0 precedes the first block, the last
        # gap precedes the suffix.  Map star names to their gap index.
        names = [nm for nm, _ in inner] + [last_name]
        self.gaps = {nm: g for g, nm in enumerate(names) if nm}
        self.n_slot = self._locate(n)

    def _locate(self, n: int):
        """Where the letter n sits: ('suffix', offset) or ('block', b, i)."""
        for i, v in self.suffix:
            if v == n:
                return ("suffix", i)
        for b, block in enumerate(self.blocks):
            for i, v in enumerate(block):
                if v == n:
                    return ("block", b, i)
        return None

    def match(self, w: Sequence[int], pos: Sequence[int], nonempty: tuple) -> bool:
        n = len(w)
        s = n - len(self.suffix)
        if s < 0:
            return False
        for i, v in self.suffix:
            if v is not None and w[s + i] != v:
                return False
        starts = []
        prev_end = 0
        for block in self.blocks:
            p = pos[block[0]]
            if p < prev_end:
                return False
            for j in range(1, len(block)):
                if pos[block[j]] != p + j:
                    return False
            starts.append(p)
            prev_end = p + len(block)
        if prev_end > s:
            return False
        if nonempty:
            starts.append(s)
            ends = [0] + [st + len(b) for st, b in zip(starts, self.blocks)]
            for nm in nonempty:
                g = self.gaps.get(nm)
                if g is not None and starts[g] > ends[g]:
                    return True
            return False
        return True

    def keys(self, n: int) -> list:
        """Every (e, last letter) a matching word can have; e counts the
        letters after n."""
        slot = self.n_slot
        if slot is None:
            lo, hi = 0, n - 1
        elif slot[0] == "suffix":
            lo = hi = len(self.suffix) - 1 - slot[1]
        else:
            _, b, i = slot
            lo = len(self.suffix) + sum(len(blk) for blk in self.blocks[b:]) - i - 1
            hi = n - 1 - i - sum(len(blk) for blk in self.blocks[:b])
        last = self.suffix[-1][1]
        lasts = range(1, n + 1) if last is None else (last,)
        return [(e, x) for e in range(lo, min(hi, n - 1) + 1) for x in lasts]


class CompiledRow:
    """A row compiled for one word length; used by the census kernel."""

    __slots__ = ("label", "offset", "branches", "exclusions", "nonempty")

    def __init__(self, row: PatternRow, n: int):
        self.label = row.label
        self.offset = tier(row.label)[0]
        self.nonempty = row.nonempty
        self.branches = tuple(
            _CompiledBranch(b, n) for b in _branches_for(row.tokens, n)
        )
        self.exclusions = tuple(
            _CompiledBranch(b, n) for b in _branches_for(row.exclusion, n)
        ) if row.exclusion is not None else ()

    def match(self, w: Sequence[int], pos: Sequence[int]) -> bool:
        for br in self.branches:
            if br.match(w, pos, self.nonempty):
                for ex in self.exclusions:
                    if ex.match(w, pos, ()):
                        return False
                return True
        return False


class CompiledCatalog:
    """A catalog baked for one word length, with a dispatch derived from its rows.

    A word's cell is keyed on e (the number of letters after the letter n)
    and its last letter.  Each compiled branch gives the cells it can match
    in: e from where it pins n among its blocks and suffix, the last letter
    from its suffix's final pinned value (any letter for ``?``).  The
    classifier probes only the rows of the word's cell, in catalog order, so
    it agrees letter-for-letter with :meth:`Catalog.classify`.
    """

    def __init__(self, catalog: Catalog, n: int):
        self.n = n
        self.rows = [CompiledRow(row, n) for row in catalog.rows
                     if n >= tier(row.label)[1]]
        self.cells = [[[] for _ in range(n + 1)] for _ in range(n)]
        for cr in self.rows:
            for br in cr.branches:
                for e, last in br.keys(n):
                    cell = self.cells[e][last]
                    if not cell or cell[-1] is not cr:
                        cell.append(cr)

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
        pos = [0] * (len(w) + 1)
        for i, x in enumerate(w):
            pos[x] = i
        return self.classify(w, pos)
