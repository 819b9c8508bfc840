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
stops four letters short of a word, at a leaf that serves the 24 orders
of its last four letters.  Leaves whose prefixes leave that first pass in
the same state (the same output and stack) share all 24 S(w): the kernel
computes their complexities once, in a memo cleared at a fixed size, and
reads them back for every later prefix with that state.  A miss is three
C-level calls over the whole leaf.  The state's shape, the places of the
four free letters among the letters still in play, keys a template of its
24 S(w) written as places: the rest of the pass only compares those
letters, so the shape fixes it up to their names.  One ``translate``
renames the places to the state's letters, one ``split`` cuts the 24 S(w)
apart, and one ``map`` reads each from a dict keyed by S(w) itself, since
different states can give the same S(w); from n = 9 on that dict computes
a complexity on its first read.  A length has C(n + 1, 5) shapes, and the
pass runs once for each, when the table of templates is built.  Leaves
whose prefixes leave the automaton in the same state, with the same
symbols left for their free letters, share all 24 labels, which a table
kept per process and length holds as bytes.  No word of a leaf is built:
a leaf counts one for its exact key, its 24 complexities, descent counts
and labels, each distinct pair of complexities and labels is checked once
in rank order, and after the walk the keys add to the descent matrix and
to the rows.  Every key is exact, so a hit gives what recomputing would
and no tally can differ from a word-by-word walk.

The kernel's state has two lifetimes.  The automaton, the prefix table,
the table of shapes and the table of leaf labels belong to the process
and the length: one ``lru_cache``d call, :func:`_length_state`, makes
them on the first use of the length in a process, never at import, and
keeps them.  The prefix table comes from ``words._prefix_table``, whose
cache ``complexity`` shares.  The first three are built whole.  The
automaton holds the transitions of every state a word can reach, 536 and
a sink from n = 9 on, so a node of the walk is one table lookup.  The
table of shapes holds places, not letters, and C(n + 1, 5) templates, but
one length's table cannot serve another: below n = 4 phantom letters give
a shape that a longer length also has, with another continuation.  The
table of leaf labels starts empty and fills as leaves miss, and is never
cleared.  A run that starts a process pool builds the state in the
calling process first, so workers forked from it inherit it, build no
automaton and no shape and fill only their tables of leaf labels, and
every later census of that length in the same process starts warm.
Under the ``spawn`` or ``forkserver`` start methods workers inherit
nothing and each builds the state on its first shard.

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
independently computed complexity, once for each distinct pair of a
leaf's complexities and labels, and raises :class:`CensusSoundnessError`
on any disagreement, naming the word, its rank and the level the catalog
certified for it.  A completed census is therefore an exhaustive proof,
for that n, that the catalog certifies exactly what
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
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Dict, Optional, Tuple

from .automaton import CatalogAutomaton
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
RANKS = bytes(range(256))  # the places in a template of a leaf's letters
SEP = b"\xff"  # between a template's 24 words: above every letter and place
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


@lru_cache(maxsize=None)
def _length_state(n: int) -> tuple:
    """``(automaton, table, shapes, labels)``, the kernel's state for length
    n, made on the first call in a process and kept for its life, so a
    call before a pool starts makes it once for every worker forked from
    it.  ``automaton`` is the :class:`CatalogAutomaton` of the built-in
    catalog at n, ``table`` the prefix table over S_min(n-1, TABLE_CAP)
    from ``_prefix_table``, ``shapes`` the complete table of shapes from
    :func:`_table_of_shapes`, and ``labels`` the table of leaf labels, made
    empty: ``(state, symbols)`` to the label codes of a leaf's 24 words, as
    bytes, where ``state`` is the automaton's after the leaf's prefix and
    ``symbols`` those of its four free letters, in increasing order, as
    bytes.  The kernel fills ``labels`` on each miss through
    :func:`_orders` and never clears it, since it holds at most one entry
    per state and choice of free symbols: 536 states and the sink at
    most, times at most 163 choices from n = 9 on.  The letters of a word
    are distinct, so a leaf's free symbols are its pinned letters not yet
    read and x for the rest."""
    return (CatalogAutomaton(builtin_catalog(), n), _prefix_table(min(n - 1, TABLE_CAP)),
            _table_of_shapes(n), {})


def _orders(go: list, codes: bytes, state: int, free: list) -> bytes:
    """The label codes of the 24 orders of the letters ``free`` read from
    the automaton's ``state``, in lexicographic order of their places in
    ``free``: 40 steps down a tree of four levels.  ``go[x]`` is the column
    of the transition table for the symbol of letter x; a phantom letter 0
    steps nowhere."""
    got = []
    for i, a in enumerate(free):
        s = go[a][state]
        b, c, d = (go[x] for x in free[:i] + free[i + 1:])  # in increasing order
        t = b[s]
        got += (codes[d[c[t]]], codes[c[d[t]]])
        t = c[s]
        got += (codes[d[b[t]]], codes[b[d[t]]])
        t = d[s]
        got += (codes[c[b[t]]], codes[b[c[t]]])
    return bytes(got)


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
    """``(ls, shape)`` of a leaf's state: ``ls``, the sorted letters still in
    play, those of ``stack[1:] + free``, and the shape, their number and the
    places of the free letters among them."""
    ls = sorted(stack[1:] + free)
    return ls, (len(ls), *map(ls.index, free))


def _template(stack: list, free: list, ls: list) -> bytes:
    """The template of a leaf's state: its 24 whole S(w) without n, one for
    each order of the four free letters ``free`` (lexicographic), as bytes
    of places joined by ``SEP``.  Places 0..m - 1 stand for ``ls``, the m
    sorted letters of ``stack[1:] + free``, and places m..n - 1 for the
    n - m letters of the output in order; each S(w) is those n - m places,
    then the continuation, what finishing the first pass appends to the
    output.  ``stack`` decreases upwards over the guard letter n + 1, so
    pushing ``stack[1:]`` again pops nothing; a phantom letter 0 in
    ``free`` is not pushed, and n, the largest letter in play, comes out
    last."""
    head = RANKS[len(ls):stack[0] - 1]  # empty below n = 4, where m = 4 > n
    return SEP.join(head + bytes(map(ls.index, _pass(stack[1:] + [x for x in t if x],
                                                     stack[0])[:-1]))
                    for t in permutations(free))


def _table_of_shapes(n: int) -> dict:
    """Every shape of a leaf of S_n mapped to its template, from
    :func:`_template`, built whole; :func:`_length_state` keeps it.

    From n = 4 on a leaf has four free letters and m = 4..n letters in play,
    n the largest of them, and its shape is m and the four places of the
    free letters among them, any four of the m: C(n + 1, 5) shapes in all
    (126 at n = 8, 2,002 at n = 13).  Each is built from one state of that
    shape, with the letters 1..m and the others on the stack in decreasing
    order.  Below n = 4 the root is the only leaf, with phantom letters 0
    leading ``free``, and its one shape can be a shape of a longer length
    with another continuation, (4, 0, 0, 2, 3) at n = 2, so one table
    serves one length only.  A template is 24 words of n - 1 places
    joined by ``SEP``, 24 * n - 1 bytes: 24,066 bytes in all at n = 8."""
    if n < 4:
        states = [([n + 1], [0] * (4 - n) + list(range(1, n + 1)))]
    else:
        states = [([n + 1, *(x for x in range(m, 0, -1) if x not in free)], free)
                  for m in range(4, n + 1)
                  for free in map(list, combinations(range(1, m + 1), 4))]
    shapes = {}
    for stack, free in states:
        ls, shape = _in_play(stack, free)
        shapes[shape] = _template(stack, free, ls)
    return shapes


def _leaf_words(shapes: dict, stack: list, out: list, free: list) -> list:
    """The 24 S(w) without n of a leaf at the first-pass state ``out``,
    ``stack`` with free letters ``free``, in lexicographic order of the
    free letters, each as bytes.

    Finishing the pass only compares letters still in play, those of
    ``ls``, and the stack decreases upwards, so the state's shape (see
    :func:`_in_play`) fixes each S(w) as a sequence of places: those of
    the output's letters, then places in ``ls``.  ``shapes``, the complete
    table of shapes of the length (:func:`_table_of_shapes`), holds the 24
    sequences of each shape as one template; one ``translate`` renames
    the places to this state's letters, ``ls`` then ``out``, and one
    ``split`` cuts the 24 words apart."""
    ls, shape = _in_play(stack, free)
    letters = bytes(ls + out)
    return shapes[shape].translate(
        bytes.maketrans(RANKS[:len(letters)], letters)).split(SEP)


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
    undoes the pass on return.  The walk stops at depth n - 4: a leaf
    serves the 24 orders of its four free letters in lexicographic order,
    each word a rank of its block, and a shard edge inside a leaf slices
    its 24 entries.  Below n = 4 the root is the leaf, and phantom letters
    0 lead ``free`` so that the first n! of the 24 orders are the words of
    S_n.

    The 24 S(w) of a leaf are fixed by its first-pass state, the output
    and the stack (the free letters are those in neither), so prefixes
    that reach the same state, such as 132 and 312, give the same 24
    words.  A memo maps the state, as ``bytes(out + stack)``, where the
    guard letter n + 1 marks the boundary, to one plus the complexity of
    each S(w) without n, as 24 bytes stored once however many states
    share them.  Only on a miss does the leaf build its 24 S(w) without n,
    through :func:`_leaf_words`: each is the output followed by letters in
    play, those of the stack and the free ones, in an order fixed by the
    state's shape.  A shape is a number m <= n of letters in play and the
    places of the four free letters among them, which increase, so a
    length has C(n + 1, 5) shapes (126 at n = 8), each in the table built
    whole by :func:`_table_of_shapes`, and no miss finishes the stack pass:
    one ``translate`` of the shape's template and one ``split`` give the
    24 words.  Another state can give the same S(w) (S of the order
    a < b < c < d is the output and then every other letter in increasing
    order), so one ``map`` reads each S(w) without n, as bytes, from a
    dict of S(w): the prefix table itself when n - 1 <= TABLE_CAP, since
    it holds all of S_{n-1} and so is only ever read, and otherwise a
    :class:`_Complexities` that fills itself through ``_complexity``,
    which drops the settled maxima at the end of S(w) and of each later
    pass until the table answers.  A last ``translate`` adds one to each
    of the 24 complexities for the memo.  The memo, its ``shared`` values
    and the dict of S(w) are ``dicts``, the run's in this process (see the
    module docstring); a direct call with none gets fresh ones that die
    with it.  The memo and the dict of S(w) are cleared when they hold
    ``_MEMO_CAP`` entries, which bounds a run of any length in each
    process.  A key is the exact state, shape or word, never a hash of it,
    so a hit returns what a miss would compute and no tally can change.

    The 24 labels of a leaf are fixed by the automaton's state after its
    prefix and by the symbols of its four free letters, which follow from
    the pinned letters the prefix has used.  They come, as label codes in
    24 bytes, from the table of leaf labels of :func:`_length_state`,
    keyed by that state and those symbols; a miss fills the entry through
    :func:`_orders`, which steps the automaton through the 24 orders as a
    tree of four levels.  A leaf's
    24 descent counts depend only on the prefix's descents d and on r, the
    number of free letters below its last letter, so they are
    ``desc[d][r]``, bytes from a table built once per call.  Complexity 0
    is the sorted word, the one with no descent, which can only be a
    leaf's first: when that word has none, a 0 replaces its entry of
    ``cs``.  No word of a leaf is built: a leaf counts one for its key
    ``(cs, es, ls)``, its complexities, descents and labels as exact
    bytes.  Each distinct ``(cs, ls)`` pair is checked once, the first
    time the walk meets it, so the walk meets every pair in rank order and
    the first clash raised is the lowest-ranked one: the first failing
    word of the first failing leaf, rebuilt from its rank by
    ``words.unrank``.  After the walk each distinct key adds its count to
    ``descents[k][e]`` and to its row for each of its words; the counts
    are the row sums of the descent matrix.  The automaton, the prefix
    table, the table of shapes and the table of leaf labels come from
    :func:`_length_state`, the process's for the length.
    """
    tallies = _zero_tallies(n)
    if hi <= lo:
        return tallies
    cnt, rows, dm = tallies.values()
    automaton, table, shapes, labelled = _length_state(n)
    levels = builtin_catalog().levels(n)
    names = (*automaton.labels, None)  # by label code
    none = len(automaton.labels)       # the code of no row
    # the level each code certifies: a row's, or at most the ceiling for none
    level = [*(levels[label] for label in automaton.labels), none_ceiling(n)]
    codes, symbol = automaton.codes, automaton.symbol
    # each letter's column of the transition table; phantom letter 0 stays put
    go = [range(len(codes)), *(automaton.delta[c] for c in symbol[1:n + 1])]
    # bytes(out + stack) at a leaf -> 1 + complexity of each of its 24 S(w),
    # as bytes; the memo's values, each distinct one stored once; and
    # bytes(S(w) without n) -> its complexity: the run's or this call's own
    memo, shared, known = dicts if dicts is not None else ({}, {}, _Complexities())
    if n - 1 <= TABLE_CAP:
        known = table  # it holds all of S_{n-1}, so it only ever hits
    fact = [factorial(m) for m in range(n + 1)]
    leaf = max(n - 4, 0)  # the depth of the leaves
    # the descents of a leaf's 24 words, as bytes, when its prefix has d
    # descents and ends above r of the four free letters: the first letter
    # of order t is the (t // 6)-th smallest, and steps[t] the descents
    # within the order
    steps = [sum(a > b for a, b in zip(t, t[1:])) for t in permutations(range(4))]
    desc = [[bytes(d + (t // 6 < r) + s for t, s in enumerate(steps)) for r in range(5)]
            for d in range(max(n - 4, 1))]
    leaves: dict = {}  # (complexities, descents, labels) of a leaf's words -> its leaves
    checked = set()    # the (complexities, labels) pairs of the leaves met so far
    free = [0] * (4 - n) + list(range(1, n + 1))  # letters not yet placed
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
            key = state, bytes(free).translate(symbol)
            ls = labelled.get(key)
            if ls is None:
                ls = labelled[key] = _orders(go, codes, state, free)
            a, b, c, f = free  # in increasing order
            es = desc[d][(prev > a) + (prev > b) + (prev > c) + (prev > f)]
            if lo > base or hi < base + 24:
                t0, t1 = max(lo - base, 0), min(hi - base, 24)
                cs, es, ls = cs[t0:t1], es[t0:t1], ls[t0:t1]
            if not es[0]:  # the sorted word, the one with no descent
                cs = b"\0" + cs[1:]
            key = cs, es, ls
            seen = leaves.get(key)
            if seen is None:
                if (cs, ls) not in checked:
                    check(cs, ls, max(lo, base))
                    checked.add((cs, ls))
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
    hits = [0] * len(names)  # words by label code
    for (cs, es, ls), c in leaves.items():
        for k, e, j in zip(cs, es, ls):
            dm[k][e] += c
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
    :func:`_length_state`, so forked workers inherit it; without a pool the
    first shard computed here builds it, and a resume with no shard left
    builds none.  When the wait for that pool is cut short, by an interrupt
    or a failed shard, the pool is stopped at once: no queued shard is
    waited for.  The shards computed here share kernel dicts this call
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
        _length_state(n)  # here, so that forked workers inherit it
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
