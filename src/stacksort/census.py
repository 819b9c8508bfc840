"""Exhaustive census of stack-sorting complexity over all words of length n.

A census walks every standard word of length n in lexicographic order and
tallies three exact tables: counts by complexity, counts by first matching
catalog row, and a complexity-by-descents matrix.  The walk is split into
rank-range shards whose results merge into bit-identical totals regardless
of the shard count, so runs can be parallelized, checkpointed to disk, and
resumed.

The shard kernel walks the prefix tree of its rank range depth first, so
words that share a prefix share its work: the letters of a prefix go
through the stack pass, the descent count and the catalog's automaton
(:mod:`stacksort.automaton`) once for every word below them.  The walk
stops five letters short of a word, at a leaf that serves the 120 orders
of its last five letters.  Leaves whose prefixes leave that first pass in
the same state (the same output and stack) share all 120 S(w): the kernel
computes their complexities once, in a memo cleared at a fixed size, and
reads them back for every later prefix with that state.  A miss is three
C-level calls over the whole leaf.  The state's shape, the places of the
five free letters among the letters still in play, keys a template of its
120 S(w) written as places: the rest of the pass only compares those
letters, so the shape fixes it up to their names.  One ``translate``
renames the places to the state's letters, one ``split`` cuts the 120 S(w)
apart, and one ``map`` reads each from a dict keyed by S(w) itself, since
different states can give the same S(w); from n = 9 on that dict computes
a complexity on its first read.  A length has C(n + 1, 6) shapes.  Leaves
whose prefixes leave the automaton in the same state, with the same
symbols left for their free letters, share all 120 labels, which a table
holds as bytes.  No word of a leaf is built: a leaf counts one for its
exact key, its 120 complexities, descent counts and labels; each distinct
key is checked once, in rank order, by two ``translate`` calls and a
compare; and after the walk the keys add to the descent matrix by their
complexities and descents and to the rows by their labels.  Every key is
exact, so a hit gives what recomputing would and no tally can differ from
a word-by-word walk.

The kernel's state has two lifetimes.  The automaton, the prefix table,
the table of shapes, the table of leaf labels and the table of a leaf's
descent counts belong to the process and the length: one ``lru_cache``d
call, :func:`_length_state`, makes the object that holds them on the first
use of the length in a process, never at import, and keeps it.  The
automaton is built with it, and the tables, each built whole, on their
first read, so ``verify_census``, which reads only the automaton, builds
no table.  The prefix table comes from ``words._prefix_table``, whose cache
``complexity`` shares.  The automaton holds the transitions of every state
a word can reach, 536 and a sink from n = 9 on, so a node of the walk is
one table lookup.  The table of shapes holds places, not letters, and
C(n + 1, 6) templates, but one length's table cannot serve another: below
n = 5 phantom letters give a shape that a longer length also has, with
another continuation.  The table of leaf labels holds every pair of a
state and free symbols a leaf can reach, from the automaton's reachable
states at the leaves' depth, so the kernel only reads it.  A run that
starts a process pool builds every table in the calling process first, so
workers forked from it inherit them and build nothing, and every later
census of that length in the same process starts warm.  Under the
``spawn`` or ``forkserver`` start methods workers inherit nothing and each
builds the state on its first shard.

The memo, its ``shared`` values and the dict of S(w) belong to the run:
:func:`run_census` makes them as locals and passes them to every shard
it computes, and each pool worker, made for one run and ending with it,
gets its own from :func:`_start_worker`.  So a sharded census computes
each state and each S(w) once per process, as a one-shard census does,
and the tens of MiB those dicts can reach at n >= 10 go when the run
ends; the calling process never holds a worker's dicts.  A direct kernel
call starts with dicts of its own.

Every shard kernel doubles as a soundness check: for each word it compares
the catalog classification, read from the automaton, against the
independently computed complexity, once for each distinct key of a leaf,
and raises :class:`CensusSoundnessError` on any disagreement, naming the
word, its rank and the level the catalog certified for it.  A completed
census is therefore an exhaustive proof, for that n, that the catalog
certifies exactly what
:mod:`stacksort.patterns` states: the level of each row valid at n in
``Catalog.levels(n)``, and ``none_ceiling(n)`` for words no row matches.

Counters are exact integers end to end; the JSON report stores them as
decimal strings so they survive parsers that would round large values.

A run describes each shard by one record, ``(header, path)``: the header
is the dict of :func:`_shard_header`, the shard's identity (length, shard
count, index, rank range, kernel version and catalog hash), and the path
its file's, or None without a checkpoint directory.  The record is the
task :func:`_shard_task` computes, saving ``{**header, **tallies}`` at the
path; the identity a resume checks; and, by ``header["index"]``, the merge
key.  The merge sums the rows and the descent matrices and derives the
counts by complexity once, as the merged matrix's row sums.  A resume
reads the saved shards in the calling process and trusts a file only when
it passes every check of :func:`_read_shard` against its record's header;
any other file is logged on the ``stacksort.census`` logger and recomputed.
Reports are read back through the same tally reader and checks, with a
total of n!.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Dict, Optional, Tuple

from .automaton import NO_LETTER, CatalogAutomaton
from .formulas import _column_sums
from .patterns import builtin_catalog, format_row, none_ceiling
from .words import TABLE_CAP, _complexity, _pass, _prefix_table, format_word, unrank

SCHEMA_VERSION = 1
KERNEL_VERSION = 1  # bump when the kernel's tallies could change for a shard
MAX_N = 14
# entries of the leaf memo, and from n = 9 on of the dict of S(w), that one
# census run holds in one process (or one direct kernel call holds): the
# kernel clears the memo on a miss that finds it full, and the dict of S(w)
# clears itself when a complexity it has not seen would overfill it
_MEMO_CAP = 1 << 18
_FREE = 5  # the free letters of a leaf of the walk
_ORDERS = factorial(_FREE)  # the words a leaf serves, one for each order of them
RANKS = bytes(range(256))  # the places in a template of a leaf's letters
SEP = b"\xff"  # between a template's 120 words: above every letter and place
PLUS_ONE = RANKS[1:] + RANKS[:1]  # translates each complexity c to c + 1

log = logging.getLogger(__name__)

# (memo, shared, dict of S(w)) of the run a pool worker serves, made by
# _start_worker; None in every other process
_worker_dicts: Optional[tuple] = None


class CensusSoundnessError(AssertionError):
    """A word's catalog classification contradicts its measured complexity.

    ``rank`` is the word's lexicographic rank among the words of its
    length, so ``unrank(len(word), rank)`` rebuilds it.  ``certified`` is
    the level the catalog vouches for: the matched row's level in
    ``Catalog.levels(n)``, or ``none_ceiling(n)``, the largest complexity an
    unclassified word may have, when ``label`` is None.
    """

    def __init__(self, word, rank, label, complexity, certified):
        self.word = tuple(word)
        self.rank = rank
        self.label = label
        self.complexity = complexity
        self.certified = certified
        found = f"word {format_word(self.word)} (rank {rank})"
        if label is None:
            super().__init__(f"{found} has complexity {complexity} but matches no "
                             f"catalog row (unclassified words certify at most "
                             f"{certified})")
        else:
            super().__init__(f"{found} matches {label} (certifies {certified}) "
                             f"but has complexity {complexity}")

    def __reduce__(self):  # survive the trip back from a worker process
        return (type(self), (self.word, self.rank, self.label, self.complexity,
                             self.certified))


@dataclass(frozen=True)
class Census:
    """Exact tallies for one word length.

    ``counts_by_complexity[c]`` counts words needing exactly c passes;
    ``descent_matrix[c][d]`` refines that by the number of descents d;
    ``counts_by_row`` counts words by their first matching catalog row.
    """

    n: int
    counts_by_complexity: Tuple[int, ...]
    counts_by_row: Dict[str, int]
    descent_matrix: Tuple[Tuple[int, ...], ...]
    shard_count: int = 1

    @property
    def checksum(self) -> str:
        """sha256 over the tallies only — invariant under re-sharding."""
        payload = {"n": self.n, **self._tally_fields()}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return _sha256(blob.encode())

    def _tally_fields(self) -> dict:
        return _tally_strings(_REPORT_KEYS, self.counts_by_complexity,
                              self.counts_by_row, self.descent_matrix)

    def validate(self) -> None:
        """Raise ValueError unless the tallies pass a saved shard's checks
        with a total of n!."""
        n = self.n
        _check_tallies(n, builtin_catalog().levels(n), factorial(n),
                       self.counts_by_complexity, self.counts_by_row, self.descent_matrix)


_REPORT_KEYS = ("counts_by_complexity", "counts_by_row", "descent_matrix")
# what a census report carries and load_census requires, before its tallies
_REPORT_HEADER = {"schema_version": SCHEMA_VERSION, "kind": "stacksort-census"}
_SHARD_KEYS = ("counts", "rows", "descents")


def _tally_strings(keys, counts, rows, descents) -> dict:
    """The three tallies as decimal strings under ``keys``: the one form in
    which reports and shard files save them and checksums hash them."""
    return dict(zip(keys, (
        [str(c) for c in counts],
        {k: str(v) for k, v in rows.items()},
        [[str(c) for c in row] for row in descents],
    )))


def _decimals(table, key: str) -> list:
    """The ints behind a list of decimal strings, saved under ``key``."""
    try:
        if isinstance(table, list):
            return [int(c, 10) for c in table]  # a base rejects non-strings
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} is not a table of decimal strings")


def _read_tallies(payload, header: dict, keys) -> dict:
    """The inverse of :func:`_tally_strings` for untrusted input: the tallies
    under ``keys`` in ``payload``, a JSON object carrying ``header``'s values.
    ValueError names a non-object, a missing key, a header mismatch or a
    table that is not of decimal strings; :func:`_check_tallies` does shapes.
    """
    if not isinstance(payload, dict):
        raise ValueError("not a JSON object")
    for key in (*header, *keys):
        if key not in payload:
            raise ValueError(f"no {key}")
    for key, want in header.items():
        if payload[key] != want:
            raise ValueError(f"{key} is {payload[key]!r}, expected {want!r}")
    counts, rows, descents = (payload[key] for key in keys)
    if not isinstance(rows, dict) or not isinstance(descents, list):
        raise ValueError(f"{keys[1]} or {keys[2]} is not a table of decimal strings")
    return {"counts": _decimals(counts, keys[0]),
            "rows": dict(zip(rows, _decimals(list(rows.values()), keys[1]))),
            "descents": [_decimals(row, keys[2]) for row in descents]}


def _check_tallies(n: int, levels: dict, total: int, counts, rows,
                   descents) -> None:
    """Raise ValueError unless the tables have the sizes of length n, the row
    labels are exactly the keys of ``levels`` (``Catalog.levels(n)``), no
    entry is negative, the counts sum to ``total``, each descent row sums to
    its count and the rows certifying each level sum to its count.  The sums
    hold for any rank range, the kernel having checked every word in it."""
    if len(descents) != n or any(len(row) != n for row in (counts, *descents)):
        raise ValueError("tables of the wrong size")
    if rows.keys() != levels.keys():
        raise ValueError(f"row labels {sorted(rows.keys() ^ levels.keys())} do not "
                         "match the catalog")
    if min([*counts, *rows.values(), *map(min, descents)]) < 0:
        raise ValueError("negative count")
    if sum(counts) != total:
        whole = "n!" if total == factorial(n) else "the shard's word count"
        raise ValueError(f"counts do not sum to {whole}")
    for c, row in enumerate(descents):
        if sum(row) != counts[c]:
            raise ValueError(f"descent row {c} does not sum to its count")
    sums: dict = {}
    for label, v in rows.items():
        sums[levels[label]] = sums.get(levels[label], 0) + v
    for level, got in sums.items():
        if got != counts[level]:
            raise ValueError(f"rows certifying n-{n - level} sum to {got}, "
                             f"expected {counts[level]}")


def _zero_tallies(n: int) -> dict:
    """Empty tallies for length n, in the form the kernel returns."""
    return {"counts": [0] * n, "rows": dict.fromkeys(builtin_catalog().levels(n), 0),
            "descents": [[0] * n for _ in range(n)]}


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _catalog_sha256() -> str:
    """sha256 of the built-in catalog's canonical rows, binding saved shards
    to the catalog that classified them."""
    return _sha256("\n".join(format_row(row) for row in builtin_catalog().rows).encode())


class _LengthState:
    """The kernel's state for length n, which :func:`_length_state` makes
    once per process and length.  ``automaton``, the
    :class:`CatalogAutomaton` of the built-in catalog at n, is built with
    the object; ``verify_census`` reads only it.  The kernel's tables are
    built whole on first read, and :meth:`tables` reads them all, so a call
    before a pool starts builds them once for every worker forked from it.

    ``table`` is the prefix table over S_min(n-1, TABLE_CAP) from
    ``_prefix_table``; ``shapes`` the table of shapes from
    :func:`_table_of_shapes`; ``labels`` the table of leaf labels from
    :func:`_table_of_labels`; and ``descents`` the table of a leaf's
    descent counts, ``descents[d][r]`` the 120 descent counts, as bytes, of
    the orders of a leaf whose prefix has d descents and ends above r of its
    free letters.  The kernel only reads them."""

    def __init__(self, n: int):
        self.n = n
        self.automaton = CatalogAutomaton(builtin_catalog(), n)

    @cached_property
    def table(self) -> dict:
        return _prefix_table(min(self.n - 1, TABLE_CAP))

    @cached_property
    def shapes(self) -> dict:
        return _table_of_shapes(self.n)

    @cached_property
    def labels(self) -> dict:
        return _table_of_labels(self.automaton, self.n)

    @cached_property
    def descents(self) -> list:
        # the first letter of order t is the (t // 24)-th smallest free
        # letter, and steps[t] the descents within the order
        steps = [sum(a > b for a, b in zip(t, t[1:])) for t in permutations(range(_FREE))]
        first = _ORDERS // _FREE
        return [[bytes(d + (t // first < r) + s for t, s in enumerate(steps))
                 for r in range(_FREE + 1)] for d in range(max(self.n - _FREE, 1))]

    def tables(self) -> tuple:
        """``(table, shapes, labels, descents)``, built on first read."""
        return self.table, self.shapes, self.labels, self.descents


@lru_cache(maxsize=None)
def _length_state(n: int) -> _LengthState:
    """The :class:`_LengthState` of length n, made on the first call in a
    process and kept for its life."""
    return _LengthState(n)


def _orders(codes: bytes, state: int, cols: list) -> bytes:
    """The label codes of the 24 orders of four letters read from the
    automaton's ``state``, in lexicographic order of their places: 40 steps
    down a tree of four levels.  ``cols[i]`` is the column of the transition
    table for the symbol of the i-th letter."""
    got = []
    for i, a in enumerate(cols):
        s = a[state]
        b, c, d = cols[:i] + cols[i + 1:]  # in increasing order
        t = b[s]
        got += (codes[d[c[t]]], codes[c[d[t]]])
        t = c[s]
        got += (codes[d[b[t]]], codes[b[d[t]]])
        t = d[s]
        got += (codes[c[b[t]]], codes[b[c[t]]])
    return bytes(got)


def _table_of_labels(automaton: CatalogAutomaton, n: int) -> dict:
    """Every ``(state, symbols)`` a leaf of S_n can reach, mapped to the
    label codes of the leaf's 120 words as bytes, built whole;
    :class:`_LengthState` keeps it.

    ``state`` is the automaton's after the leaf's prefix and ``symbols``
    those of its five free letters, in increasing order, as bytes.  The
    states come from the automaton's :meth:`~CatalogAutomaton.layer` at the
    leaves' depth, n - 5, with the pinned letters read to reach each.  The
    letters of a word are distinct, so a leaf's free letters are the pinned
    letters its prefix has not read and x letters for the rest; ``symbols``
    keeps them in letter order, every way the x letters can fall among the
    others (one way for the built-in catalog, whose x letters lie between
    3 and n - 4).  Below n = 5 phantom letters 0, of symbol ``NO_LETTER``,
    lead them and step nowhere.  An entry is five calls of :func:`_orders`,
    one for each first letter: 212 entries at n = 8, 1,066 at n = 9."""
    x = len(automaton.pinned)
    cols = {**dict(enumerate(automaton.delta)), NO_LETTER: range(len(automaton.codes))}
    labels = {}
    for used, states in automaton.layer(max(n - _FREE, 0)).items():
        keys = {bytes([NO_LETTER] * (_FREE - n))}
        for c in automaton.symbol[1:n + 1]:  # each letter's, in increasing order
            if c == x:  # an x letter may be free
                keys |= {k + bytes([c]) for k in keys if len(k) < _FREE}
            elif not used >> c & 1:  # a pinned letter not read is free
                keys = {k + bytes([c]) for k in keys if len(k) < _FREE}
        for key in keys:
            if len(key) < _FREE:
                continue
            go = [cols[c] for c in key]
            for state in states:
                labels[state, key] = b"".join(
                    _orders(automaton.codes, col[state], go[:i] + go[i + 1:])
                    for i, col in enumerate(go))
    return labels


class _Complexities(dict):
    """A run's dict of S(w) from n = 9 on: ``bytes(S(w) without n)`` to its
    complexity.  Reading a word it does not hold computes the complexity
    with ``_complexity`` and stores it, after clearing the dict if it holds
    ``_MEMO_CAP`` entries, so the kernel only ever reads it."""

    __slots__ = ()

    def __missing__(self, v: bytes) -> int:
        if len(self) >= _MEMO_CAP:
            self.clear()
        k = self[v] = _complexity(list(v))
        return k


def _start_worker() -> None:
    """Pool initializer: fresh kernel dicts for the one run this worker
    serves, which :func:`_shard_task` reads for every shard it computes."""
    global _worker_dicts
    _worker_dicts = ({}, {}, _Complexities())


def _in_play(stack: list, free: list) -> tuple:
    """``(ls, shape)`` of a first-pass state: ``ls``, the sorted letters
    still in play, those of ``stack[1:] + free``, and the shape, their
    number and the places of the free letters among them."""
    ls = sorted(stack[1:] + free)
    return ls, (len(ls), *map(ls.index, free))


def _template(stack: list, free: list, ls: list) -> bytes:
    """The template of a first-pass state: its whole S(w) without n, one
    for each order of the free letters ``free`` (lexicographic), as bytes
    of places joined by ``SEP``, from one pass for each order.  Places
    0..m - 1 stand for ``ls``, the m sorted letters of ``stack[1:] +
    free``, and places m..n - 1 for the n - m letters of the output in
    order; each S(w) is those n - m places, then the continuation, what
    finishing the first pass appends to the output.  ``stack`` decreases
    upwards over the guard letter n + 1, so pushing ``stack[1:]`` again pops
    nothing; a phantom letter 0 in ``free`` is not pushed, and n, the
    largest letter in play, comes out last."""
    head = RANKS[len(ls):stack[0] - 1]  # empty at the root below n = 5, where m = 5 > n
    return SEP.join(head + bytes(map(ls.index, _pass(stack[1:] + [x for x in t if x],
                                                     stack[0])[:-1]))
                    for t in permutations(free))


def _table_of_shapes(n: int) -> dict:
    """Every shape of a leaf of S_n mapped to its template, built whole;
    :class:`_LengthState` keeps it.

    From n = 5 on a leaf has five free letters and m = 5..n letters in play,
    n the largest of them, and its shape is m and the five places of the
    free letters among them, any five of the m: C(n + 1, 6) shapes in all
    (84 at n = 8, 1,716 at n = 12).  Each is built from one state of that
    shape, with the letters 1..m and the others on the stack in decreasing
    order, and from the templates of four free letters, C(n + 1, 5) of
    them, each built the same way by :func:`_template`: the first free
    letter of an order pops the stack letters below it and leaves a state
    with four free letters, whose 24 words one ``translate`` renames to
    this state's places.  Below n = 5 the root is the only leaf, with
    phantom letters 0 leading ``free``, and :func:`_template` builds its
    one shape, which can be a shape of a longer length with another
    continuation, (5, 0, 1, 2, 3, 4) at n = 4 and 5, so one table serves
    one length only.  A template is 120 words of n - 1 places joined by
    ``SEP``, 120 * n - 1 bytes: 80,556 bytes in all at n = 8."""
    if n < _FREE:
        stack, free = [n + 1], [0] * (_FREE - n) + list(range(1, n + 1))
        ls, shape = _in_play(stack, free)
        return {shape: _template(stack, free, ls)}

    def states(k):  # one state of each shape with k free letters
        return [([n + 1, *(x for x in range(m, 0, -1) if x not in free)], free)
                for m in range(k, n + 1) for free in map(list, combinations(range(1, m + 1), k))]

    fours = {}
    for stack, free in states(_FREE - 1):
        ls, shape = _in_play(stack, free)
        fours[shape] = _template(stack, free, ls)
    shapes = {}
    for stack, free in states(_FREE):
        ls, shape = _in_play(stack, free)
        words = []
        for i, a in enumerate(free):
            cut = len(stack) - sum(x < a for x in stack)  # a pops stack[cut:]
            rest = free[:i] + free[i + 1:]
            below, child = _in_play(stack[:cut] + [a], rest)
            # the child's places: its letters in play, then its output, this
            # state's and then the popped letters, top first
            places = bytes(map(ls.index, below + stack[:cut - 1:-1]))
            places = places[:len(below)] + RANKS[len(ls):n] + places[len(below):]
            words.append(fours[child].translate(
                bytes.maketrans(RANKS[:len(places)], places)))
        shapes[shape] = SEP.join(words)
    return shapes


def _leaf_words(shapes: dict, stack: list, out: list, free: list) -> list:
    """The 120 S(w) without n of a leaf at the first-pass state ``out``,
    ``stack`` with free letters ``free``, in lexicographic order of the
    free letters, each as bytes.

    Finishing the pass only compares letters still in play, those of
    ``ls``, and the stack decreases upwards, so the state's shape (see
    :func:`_in_play`) fixes each S(w) as a sequence of places: those of
    the output's letters, then places in ``ls``.  ``shapes``, the complete
    table of shapes of the length (:func:`_table_of_shapes`), holds the 120
    sequences of each shape as one template; one ``translate`` renames
    the places to this state's letters, ``ls`` then ``out``, and one
    ``split`` cuts the 120 words apart."""
    ls, shape = _in_play(stack, free)
    letters = bytes(ls + out)
    return shapes[shape].translate(
        bytes.maketrans(RANKS[:len(letters)], letters)).split(SEP)


def _check_tables(level: list, ceiling: int) -> tuple:
    """``(clamp, certify)``, the ``translate`` tables of a leaf's check:
    ``cs.translate(clamp) == ls.translate(certify)`` exactly when each word
    passes, the complexity in ``cs`` of each a level its label code in
    ``ls`` certifies.  ``level[j]`` is the level row code j certifies and
    ``ceiling`` the most an unclassified word, of code ``len(level)``, may
    have.  ``clamp`` lifts each complexity at or below the ceiling to it
    and ``certify`` maps each code to its level, no row to the ceiling, or,
    when the ceiling is below 0 and certifies no complexity, to a byte no
    complexity takes.  A row certifying at most the ceiling would let a
    word the per-word test fails pass, so it raises; ``none_ceiling``
    rules it out by its definition."""
    if min(level, default=ceiling + 1) <= ceiling:
        raise AssertionError(f"a row certifies {min(level)}, at most the "
                             f"unclassified ceiling {ceiling}")
    low = max(ceiling + 1, 0)  # the complexities at or below the ceiling
    clamp = bytes([ceiling] * low) + RANKS[low:]
    certify = bytes([*level, ceiling if low else 255]).ljust(256, b"\0")
    return clamp, certify


def _shard_kernel(n: int, lo: int, hi: int,
                  dicts: Optional[tuple] = None) -> dict:
    """Tally ranks [lo, hi) of S_n; raise on any classification/complexity clash.

    A depth-first walk of the prefix tree in lexicographic order.  A node
    whose rank block lies partly outside [lo, hi) descends only into the
    children that meet it, so the range splits into O(n^2) complete prefix
    blocks, each walked in full.  A node pushes its letter through one
    shared stack pass (the smaller letters it pops go to one shared output
    list), adds its descent and steps the catalog's automaton by its
    letter's symbol, one table lookup, once for every word below it, and
    undoes the pass on return.  The walk stops at depth n - 5: a leaf
    serves the 120 orders of its five free letters in lexicographic order,
    each word a rank of its block, and a shard edge inside a leaf slices
    its 120 entries.  Below n = 5 the root is the leaf, and phantom letters
    0 lead ``free`` so that the first n! of the 120 orders are the words of
    S_n.

    The 120 S(w) of a leaf are fixed by its first-pass state, the output
    and the stack (the free letters are those in neither), so prefixes
    that reach the same state, such as 132 and 312, give the same 120
    words.  A memo maps the state, as ``bytes(out + stack)``, where the
    guard letter n + 1 marks the boundary, to one plus the complexity of
    each S(w) without n, as 120 bytes stored once however many states
    share them.  Only on a miss does the leaf build its 120 S(w) without n,
    through :func:`_leaf_words`: each is the output followed by letters in
    play, those of the stack and the free ones, in an order fixed by the
    state's shape.  A shape is a number m <= n of letters in play and the
    places of the five free letters among them, which increase, so a
    length has C(n + 1, 6) shapes (84 at n = 8), each in the table built
    whole by :func:`_table_of_shapes`, and no miss finishes the stack pass:
    one ``translate`` of the shape's template and one ``split`` give the
    120 words.  Another state can give the same S(w) (S of the order
    a < b < c < d < e is the output and then every other letter in
    increasing order), so one ``map`` reads each S(w) without n, as bytes,
    from a dict of S(w): the prefix table itself when n - 1 <= TABLE_CAP,
    since it holds all of S_{n-1} and so is only ever read, and otherwise a
    :class:`_Complexities` that fills itself through ``_complexity``,
    which drops the settled maxima at the end of S(w) and of each later
    pass until the table answers.  A last ``translate`` adds one to each
    of the 120 complexities for the memo.  The memo, its ``shared`` values
    and the dict of S(w) are ``dicts``, the run's in this process (see the
    module docstring); a direct call with none gets fresh ones that die
    with it.  The memo and the dict of S(w) are cleared when they hold
    ``_MEMO_CAP`` entries, which bounds a run of any length in each
    process.  A key is the exact state, shape or word, never a hash of it,
    so a hit returns what a miss would compute and no tally can change.

    The 120 labels of a leaf are fixed by the automaton's state after its
    prefix and by the symbols of its five free letters, which follow from
    the pinned letters the prefix has used.  They come, as label codes in
    120 bytes, from the table of leaf labels, keyed by that state and
    those symbols and built whole before the walk.  A leaf's 120 descent
    counts depend only on the prefix's descents d and on r, the number of
    free letters below its last letter, so they are ``descents[d][r]``.
    Complexity 0 is the sorted word, the one with no descent, which can
    only be a leaf's first: when that word has none, a 0 replaces its entry
    of ``cs``.  No word of a leaf is built: a leaf counts one for its key
    ``(cs, es, ls)``, its complexities, descents and labels as exact bytes.

    Each distinct key is checked the first time the walk meets it, as two
    ``translate`` calls and a compare: ``clamp`` lifts each complexity at or
    below the unclassified ceiling to the ceiling, and ``certify`` maps
    each label code to the level it certifies, so the two agree exactly
    when every word passes, since every row certifies a level above the
    ceiling (a ceiling below 0 certifies no complexity, so no row gets a
    byte that no complexity takes).  Only when they differ does a loop over
    the words find the first that fails.  The walk meets the keys in rank
    order, so the first clash raised is the lowest-ranked one: the first
    failing word of the first failing leaf, rebuilt from its rank by
    ``words.unrank``.  After the walk the keys are summed by
    ``(cs, es)``, each of which adds to the descent matrix, and by ``ls``,
    each of which adds to the rows; the counts are the row sums of the
    descent matrix.  The automaton, the prefix table, the table of shapes,
    the table of leaf labels and the table of descent counts come from
    :func:`_length_state`, the process's for the length.
    """
    tallies = _zero_tallies(n)
    if hi <= lo:
        return tallies
    cnt, rows, dm = tallies.values()
    own = _length_state(n)
    automaton = own.automaton
    table, shapes, labelled, desc = own.tables()
    levels = builtin_catalog().levels(n)
    names = (*automaton.labels, None)  # by label code
    none = len(automaton.labels)       # the code of no row
    ceiling = none_ceiling(n)
    # the level each code certifies: a row's, or at most the ceiling for none
    level = [*(levels[label] for label in automaton.labels), ceiling]
    clamp, certify = _check_tables(level[:none], ceiling)
    symbol = automaton.symbol
    # each letter's column of the transition table; phantom letter 0 stays put
    go = [range(len(automaton.codes)), *(automaton.delta[c] for c in symbol[1:n + 1])]
    # bytes(out + stack) at a leaf -> 1 + complexity of each of its 120 S(w),
    # as bytes; the memo's values, each distinct one stored once; and
    # bytes(S(w) without n) -> its complexity: the run's or this call's own
    memo, shared, known = dicts if dicts is not None else ({}, {}, _Complexities())
    if n - 1 <= TABLE_CAP:
        known = table  # it holds all of S_{n-1}, so it only ever hits
    fact = [factorial(m) for m in range(n + 1)]
    leaf = max(n - _FREE, 0)  # the depth of the leaves
    leaves: dict = {}  # (complexities, descents, labels) of a leaf's words -> its leaves
    free = [0] * (_FREE - n) + list(range(1, n + 1))  # letters not yet placed
    stack = [n + 1]  # decreasing upwards, over a guard letter
    out = []         # letters popped so far, in output order

    def check(cs, ls, first):
        """Raise on the first of a leaf's words, from rank ``first`` on,
        whose complexity in ``cs`` its label code in ``ls`` does not
        certify."""
        for t, (k, j) in enumerate(zip(cs, ls)):
            if k > level[j] if j == none else k != level[j]:
                r = first + t
                raise CensusSoundnessError(unrank(n, r), r, names[j], k, level[j])

    def walk(depth, prev, d, base, state):
        """Walk the block of ranks [base, base + (n - depth)!), whose words
        share a prefix of ``depth`` letters ending in ``prev``, with d
        descents, that leaves the automaton in ``state``."""
        if depth == leaf:
            key = bytes(out + stack)
            cs = memo.get(key)
            if cs is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                    shared.clear()
                cs = bytes(map(known.__getitem__, _leaf_words(shapes, stack, out, free))
                           ).translate(PLUS_ONE)
                cs = memo[key] = shared.setdefault(cs, cs)
            ls = labelled[state, bytes(free).translate(symbol)]
            es = desc[d][bisect_left(free, prev)]
            if lo > base or hi < base + _ORDERS:
                t0, t1 = max(lo - base, 0), min(hi - base, _ORDERS)
                cs, es, ls = cs[t0:t1], es[t0:t1], ls[t0:t1]
            if not es[0]:  # the sorted word, the one with no descent
                cs = b"\0" + cs[1:]
            key = cs, es, ls
            seen = leaves.get(key)
            if seen is None:
                if cs.translate(clamp) != ls.translate(certify):
                    check(cs, ls, max(lo, base))
                leaves[key] = 1
            else:
                leaves[key] = seen + 1
            return
        m = n - depth
        s = fact[m - 1]
        for i in range(max(0, (lo - base) // s), min(m, -((base - hi) // s))):
            x = free.pop(i)
            mark = len(out)
            while stack[-1] < x:
                out.append(stack.pop())
            stack.append(x)
            walk(depth + 1, x, d + (prev > x), base + i * s, go[x][state])
            stack.pop()
            while len(out) > mark:
                stack.append(out.pop())
            free.insert(i, x)

    walk(0, 0, 0, 0, 0)
    del walk  # it refers to itself through its closure
    pairs: dict = {}    # (complexities, descents) -> leaves
    by_labels: dict = {}  # labels -> leaves
    for (cs, es, ls), c in leaves.items():
        pairs[cs, es] = pairs.get((cs, es), 0) + c
        by_labels[ls] = by_labels.get(ls, 0) + c
    for (cs, es), c in pairs.items():
        for k, e in zip(cs, es):
            dm[k][e] += c
    hits = [0] * len(names)  # words by label code
    for ls, c in by_labels.items():
        for j in ls:
            hits[j] += c
    for label, h in zip(automaton.labels, hits):
        rows[label] += h
    cnt[:] = map(sum, dm)
    return tallies


def _checkpoint_path(directory: str, header: dict) -> str:
    return os.path.join(directory, "shard-{n}-{shard_count}-{index:04d}.json"
                        .format(**header))


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` by a rename; a failure leaves no temp file."""
    tmp = path + f".{os.getpid()}.tmp"  # workers never share a temp file
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


_CHECKSUM_KEY = b'"checksum": '


def _shard_text(payload: dict) -> str:
    """A shard file: ``payload`` as JSON, then a last key, ``checksum``, the
    sha256 of the text up to and including that key.  A reader hashes the
    stored text as it is, without serializing the tallies again."""
    head = json.dumps(payload, indent=1)[:-2] + ",\n " + _CHECKSUM_KEY.decode()
    return head + json.dumps(_sha256(head.encode())) + "\n}"


def _shard_header(n, shard_count, index, lo, hi, catalog_sha) -> dict:
    """The identity a shard file must carry to be reused."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kernel_version": KERNEL_VERSION,
        "catalog_sha256": catalog_sha,
        "n": n,
        "shard_count": shard_count,
        "index": index,
        "lo": lo,
        "hi": hi,
    }


def _read_shard(path: str, header: dict, levels: dict) -> dict:
    """The tallies of a saved shard, checked against the expected ``header``
    and the stored checksum, then by :func:`_check_tallies` with the row
    labels of ``levels`` and a total of the shard's word count.

    Raises FileNotFoundError when there is no file and ValueError, naming
    the reason, when the file cannot be used.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    saved = json.loads(text)
    tallies = _read_tallies(saved, header, _SHARD_KEYS)
    head = text[:text.rfind(_CHECKSUM_KEY) + len(_CHECKSUM_KEY)]
    if saved.get("checksum") != _sha256(head):
        raise ValueError("checksum mismatch")
    _check_tallies(header["n"], levels, header["hi"] - header["lo"],
                   *tallies.values())
    return tallies


def _shard_task(record: tuple, dicts: Optional[tuple] = None) -> dict:
    """Compute the shard of a record ``(header, path)`` with the run's
    kernel dicts and, when ``path`` is not None, save the header and the
    tallies there (process-pool safe).  The dicts are ``dicts`` when
    :func:`run_census` computes the shard itself, and those of
    :func:`_start_worker` in a pool worker, which passes none."""
    header, path = record
    result = _shard_kernel(header["n"], header["lo"], header["hi"],
                           dicts or _worker_dicts)
    if path is not None:
        _write_atomic(path, _shard_text(
            {**header, **_tally_strings(_SHARD_KEYS, *result.values())}))
    return result


def _resume_shards(n: int, records: list) -> dict:
    """Saved shards that pass every check against their records' headers,
    by index; each unusable file is logged once and left out, so that it is
    recomputed."""
    levels = builtin_catalog().levels(n)
    found = {}
    for header, path in records:
        try:
            found[header["index"]] = _read_shard(path, header, levels)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            log.warning("shard %d (%s): %s; recomputing", header["index"], path, exc)
    return found


def _stop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting on its shards: cancel those not
    yet handed out and end the workers, dropping the shards they hold.
    Shards already saved stay for a resume."""
    workers = list(pool._processes.values())  # no public handle before 3.14
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.join()


def run_census(
    n: int,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> Census:
    """Enumerate all n! words and return their exact census.

    ``shard_count`` splits the rank range [0, n!) at i*n!//shard_count; the
    merged tallies are identical for every shard count.  Each shard is one
    record ``(header, path)``, built here once (see the module docstring).
    With ``jobs > 1`` shards run in separate processes.  With
    ``checkpoint_dir`` each finished shard is saved at its path, and
    ``resume=True``, which needs ``checkpoint_dir``, first reads here each
    saved file that carries its record's header and passes every check
    (:func:`_resume_shards`), so an interrupted run continues where it
    stopped; any other file is logged and recomputed.
    Only the shards left to compute go to the kernel, in a pool of
    ``min(jobs, shards left)`` workers when more than one is left.  Just
    before that pool starts, this process builds the per-length state of
    :func:`_length_state`, every table included, so forked workers inherit
    it; without a pool the first shard computed here builds it, and a
    resume with no shard left builds none.  When the wait for that pool is
    cut short, by an interrupt or a failed shard, the pool is stopped at
    once: no queued shard is waited for.  The shards computed here share kernel dicts this call
    makes as locals; each pool worker, made for this run alone, has its own.
    The merge sums the rows and the descent matrices and derives the counts
    once, as the merged matrix's row sums; :meth:`Census.validate` checks it.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"census supports 1 <= n <= {MAX_N}, got {n}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume needs a checkpoint directory")
    if shard_count is None:
        shard_count = 16 if checkpoint_dir else max(1, jobs)
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    total = factorial(n)
    catalog_sha = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        catalog_sha = _catalog_sha256()
    records = []  # one (header, path) per shard
    for i in range(shard_count):
        header = _shard_header(n, shard_count, i, i * total // shard_count,
                               (i + 1) * total // shard_count, catalog_sha)
        records.append((header, None if checkpoint_dir is None
                        else _checkpoint_path(checkpoint_dir, header)))
    results = _resume_shards(n, records) if resume else {}
    todo = [r for r in records if r[0]["index"] not in results]
    if jobs == 1 or len(todo) <= 1:
        dicts = ({}, {}, _Complexities())  # the kernel dicts of this run in this process
        computed = [_shard_task(t, dicts) for t in todo]
    else:
        _length_state(n).tables()  # here, so that forked workers inherit them
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo)),
                                 initializer=_start_worker) as pool:
            try:
                computed = list(pool.map(_shard_task, todo))
            except BaseException:
                _stop_pool(pool)  # so that leaving the block waits on nothing
                raise
    results.update((header["index"], res) for (header, _), res in zip(todo, computed))
    _, rows, dm = _zero_tallies(n).values()
    for res in results.values():
        for label, v in res["rows"].items():
            rows[label] += v
        for c, row in enumerate(res["descents"]):
            for d, v in enumerate(row):
                dm[c][d] += v
    census = Census(n, tuple(map(sum, dm)), rows, tuple(map(tuple, dm)), shard_count)
    census.validate()
    return census


def descent_polynomial(census: Census, cutoff: Optional[int] = None) -> tuple:
    """Coefficients c_d = number of words with at most ``cutoff`` passes
    and exactly d descents; ``cutoff`` defaults to n-4."""
    if cutoff is None:
        cutoff = census.n - 4
    return _column_sums(census.descent_matrix, slice(max(cutoff + 1, 0)))


# ---------------------------------------------------------------------------
# persistence


def save_report(census: Census, path: str, verify=None) -> None:
    """Write the census (plus an optional verification) as JSON."""
    payload = {
        **_REPORT_HEADER,
        "n": census.n,
        "shard_count": census.shard_count,
        **census._tally_fields(),
        "checksum": census.checksum,
    }
    if verify is not None:
        payload["verify"] = [
            {
                "name": c.name,
                "expected": str(c.expected),
                "actual": str(c.actual),
                "ok": c.ok,
                "conjectural": c.conjectural,
            }
            for c in verify.checks
        ]
    _write_atomic(path, json.dumps(payload, indent=1))


def load_census(path: str) -> Census:
    """Read a census report back through the shard reader's parsing; its
    schema version and kind, the checksum, which every saved report
    carries, and :meth:`Census.validate` are re-checked.  Raises ValueError
    naming the file and the cause."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        tallies = _read_tallies(payload, _REPORT_HEADER, _REPORT_KEYS)
        n, shard_count = payload.get("n"), payload.get("shard_count", 1)
        if type(n) is not int or type(shard_count) is not int:
            raise ValueError("n and shard_count must be integers")
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        census = Census(n, tuple(tallies["counts"]), tallies["rows"],
                        tuple(map(tuple, tallies["descents"])), shard_count)
        stored = payload.get("checksum")
        if stored is None:
            raise ValueError("checksum missing")
        if stored != census.checksum:
            raise ValueError(f"checksum mismatch: stored {stored}")
        census.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return census


def class_counts_csv(census: Census) -> str:
    """CSV ``n,class,count`` rows, one per complexity class."""
    lines = ["n,class,count"]
    for c, v in enumerate(census.counts_by_complexity):
        lines.append(f"{census.n},{c},{v}")
    return "\n".join(lines) + "\n"


def row_counts_csv(census: Census) -> str:
    """CSV ``n,row_label,count`` rows, in catalog order."""
    lines = ["n,row_label,count"]
    for label in builtin_catalog().levels(census.n):
        lines.append(f"{census.n},{label},{census.counts_by_row.get(label, 0)}")
    return "\n".join(lines) + "\n"
