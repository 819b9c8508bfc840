"""Exhaustive census of stack-sorting complexity over all words of length n.

A census walks every standard word of length n and tallies three exact
tables: counts by complexity, counts by first matching catalog row, and a
complexity-by-descents matrix.  The rank range [0, n!) splits into shards
whose tallies merge into the same totals for every shard count, so runs can
be parallelized, checkpointed to disk and resumed.  Counters are exact
integers end to end, and files store them as decimal strings
(:func:`_tally_strings`).  Every shard checks each word's catalog
classification against its complexity and raises
:class:`CensusSoundnessError` on a clash, so a completed census proves, for
that n, that the catalog certifies what :mod:`stacksort.patterns` states.

Each mechanism is described once, at its owner:

* the walk of a rank range and the tally after it: :func:`_shard_kernel`;
* a leaf's complexities, its memo, shapes, distinct S(w) and their index,
  and the dict of S(w): :func:`_table_of_shapes` and :func:`_leaf_words`;
* a leaf's labels: :func:`_table_of_labels`;
* the check of a leaf: :func:`_check_tables`;
* the lifetimes of the kernel's tables and dicts: :class:`_LengthState`
  and :func:`run_census`, which also owns the shard records and the merge;
* the files: :func:`_shard_text`, :func:`_read_shard` and
  :func:`load_census`.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import Dict, Optional, Tuple

from .automaton import CatalogAutomaton
from .patterns import builtin_catalog, format_row, none_ceiling
from .words import TABLE_CAP, _complexity, _prefix_table, format_word, unrank

SCHEMA_VERSION = 1
KERNEL_VERSION = 1  # bump when the kernel's tallies could change for a shard
MAX_N = 14
# entries of the leaf memo, and from n = 9 on of the dict of S(w), that one
# run holds in one process; the kernel and _Complexities clear them when full
_MEMO_CAP = 1 << 18
_FREE = 5  # the free letters of a leaf of the walk, min(n, _FREE) at length n
RANKS = bytes(range(256))  # the places in a template of a leaf's letters
SEP = b"\xff"  # between a template's words: above every letter and place
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


def _parse_json(text):
    """``text`` parsed as JSON, for both file readers: ValueError also for
    nesting too deep for the parser's recursion."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


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
    """The kernel's state for length n, which :func:`_length_state` makes on
    the first use of the length in a process, never at import, and keeps.

    ``automaton``, the :class:`CatalogAutomaton` of the built-in catalog at
    n, is built with the object, and ``verify_census`` reads only it.  The
    tables, ``shapes`` (:func:`_table_of_shapes`), ``labels``
    (:func:`_table_of_labels`) and ``descents``, ``descents[d][r]`` the
    descent counts of the k! orders of a leaf whose prefix has d descents
    and ends above r free letters, are each built whole on first read, and
    the kernel only reads them.  :meth:`tables` before a pool forks builds
    them once for every worker; under the ``spawn`` or ``forkserver`` start
    methods a worker inherits nothing and builds them on its first shard."""

    def __init__(self, n: int):
        self.n = n
        self.automaton = CatalogAutomaton(builtin_catalog(), n)

    @cached_property
    def shapes(self) -> dict:
        return _table_of_shapes(self.n)

    @cached_property
    def labels(self) -> dict:
        return _table_of_labels(self.automaton, self.n)

    @cached_property
    def descents(self) -> list:
        # each order's first letter, t[0]-th smallest of the free letters,
        # and the descents within the order
        k = min(self.n, _FREE)
        orders = [(t[0], sum(a > b for a, b in zip(t, t[1:])))
                  for t in permutations(range(k))]
        return [[bytes(d + (first < r) + s for first, s in orders)
                 for r in range(k + 1)] for d in range(max(self.n - k, 1))]

    def tables(self) -> tuple:
        """``(shapes, labels, descents)``, after building the prefix table
        the kernel reads up to n = 8, which ``words._prefix_table`` keeps."""
        _prefix_table(min(self.n - 1, TABLE_CAP))
        return self.shapes, self.labels, self.descents


@lru_cache(maxsize=None)
def _length_state(n: int) -> _LengthState:
    """The :class:`_LengthState` of length n, made on the first call in a
    process and kept for its life."""
    return _LengthState(n)


def _table_of_labels(automaton: CatalogAutomaton, n: int) -> dict:
    """Every ``(state, symbols)`` a leaf of S_n can reach, mapped to the
    label codes of its k! orders as bytes, k = min(n, ``_FREE``): a leaf's
    labels are fixed by the automaton's state after its prefix and the
    symbols of its k free letters, in increasing order.

    The states come from the automaton's :meth:`~CatalogAutomaton.layer` at
    the leaves' depth, n - k, with the pinned letters read to reach each.
    A leaf's free letters are the pinned letters its prefix has not read
    and x letters for the rest, every way the x letters can fall among the
    others (one way for the built-in catalog, whose x letters lie between 3
    and n - 4).  An entry reads the orders in lexicographic order, by one
    recursion over the first symbol read with one memo, by symbols and
    state, for the whole build.  The table holds exactly the pairs a whole
    walk reads: 212 at n = 8, 1,066 at n = 9."""
    k = min(n, _FREE)
    x = len(automaton.pinned)
    codes, delta = automaton.codes, automaton.delta
    # symbols -> state -> the orders' label codes; keyed in two steps, an
    # entry needs no tuple: the build's traced peak at n = 9 is 1.1 MB,
    # against 1.7 MB keyed by (state, symbols)
    memo = defaultdict(dict)

    def orders(state, key):
        """The label codes of the orders of the symbols ``key`` read from
        ``state``, in lexicographic order of their places."""
        if len(key) == 1:
            t = delta[key[0]][state]
            return codes[t:t + 1]
        per = memo[key]
        got = per.get(state)
        if got is None:
            got = per[state] = b"".join([
                orders(delta[c][state], key[:i] + key[i + 1:]) for i, c in enumerate(key)])
        return got

    labels = {}
    for used, states in automaton.layer(n - k).items():
        keys = {b""}
        for c in automaton.symbol[1:n + 1]:  # each letter's, in increasing order
            if c == x:  # an x letter may be free
                keys |= {key + bytes([c]) for key in keys if len(key) < k}
            elif not used >> c & 1:  # a pinned letter not read is free
                keys = {key + bytes([c]) for key in keys if len(key) < k}
        for key in keys:
            if len(key) == k:
                for state in states:
                    labels[state, key] = orders(state, key)
    del orders  # it refers to itself through its closure
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


def _table_of_shapes(n: int) -> dict:
    """Every shape of a leaf of S_n mapped to its template, built whole.

    A leaf's k! S(w), k = min(n, ``_FREE``), are fixed by its first-pass
    state.  Finishing the pass only compares the letters still in play,
    those on the stack and the free ones, so the state's shape fixes every
    S(w) up to their names: their number m, k..n, n the largest, and the
    places of the k free letters among them, C(n + 1, k + 1) shapes in
    all.  A template is ``(words, index)``: ``words`` the shape's distinct
    S(w) without n as n - 1 places, the output's n - m letters at
    m..n - 1 and the letters in play at 0..m - 1, joined by ``SEP`` in
    order of first appearance; ``index`` k! bytes, the position in
    ``words`` of each order's, in lexicographic order.  The output's places
    depend on n, so a table serves one length.  The image of stack-sort is
    small: a shape has at most 61 distinct words up to n = 14, and one of
    more than 256, which a byte cannot index, raises OverflowError.

    Level j of the derivation holds every shape of j free letters, from one
    state of that shape: the letters 1..m in play at places 0..m - 1, the
    free ones at places f and the others on the stack in decreasing order.
    At level 0 the stack pops in increasing order and n, the largest, comes
    out last and is dropped.  At level j the first free letter read, at
    place p = f[i], pops the stack letters below it, places 0..p - 1 other
    than f[:i], and leaves a state of level j - 1 whose letters in play are
    those at f[:i] and p..m - 1.  One ``translate`` renames the child's
    words to this state's places, and another composes the child's index
    with their positions here."""
    shapes = {(m,): (RANKS[m:n] + RANKS[:m - 1], b"\0") for m in range(1, n + 1)}
    for j in range(1, min(n, _FREE) + 1):
        level = {}
        for m in range(j, n + 1):
            for f in combinations(RANKS[:m], j):
                shape = (m, *f)
                # every child's words in turn, where each child's end in
                # every, and each child's index
                every, ends, indexes = [], [0], []
                for i, p in enumerate(f):
                    low = f[:i]
                    child = (i + m - p, *range(i), *(i + x - p for x in f[i + 1:]))
                    # a translate table from the child's places to this state's:
                    # its letters in play, at low and p..m - 1, then its output,
                    # this state's at m..n - 1 and then the popped letters
                    places = (bytes(low) + RANKS[p:n]
                              + bytes(x for x in range(p) if x not in low) + RANKS[n:])
                    words, index = shapes[child]
                    every += words.translate(places).split(SEP)
                    ends.append(len(every))
                    indexes.append(index)
                ids = dict.fromkeys(every)
                if len(ids) > 256:
                    raise OverflowError(f"shape {shape} of length {n} has {len(ids)} "
                                        "distinct words, more than a byte index holds")
                ids = dict(zip(ids, RANKS))  # each distinct word -> its position
                to = bytes(map(ids.__getitem__, every))
                level[shape] = (SEP.join(ids), b"".join(
                    index.translate(to[a:b].ljust(256, b"\0"))
                    for index, a, b in zip(indexes, ends, ends[1:])))
        shapes = level
    return shapes


def _leaf_words(shapes: dict, stack: list, out: list, free: list) -> tuple:
    """``(words, index)`` of a leaf at the first-pass state ``out``,
    ``stack`` with free letters ``free``: ``words`` its distinct S(w)
    without n, as a list of bytes, and ``index`` its shape's.

    The kernel's memo maps the state, ``bytes(out + stack)`` with the guard
    letter n + 1 between them, to one plus the complexity of each of the
    leaf's k! S(w), as k! bytes, each distinct value stored once in a
    ``shared`` dict; prefixes that reach the same state, such as 132 and
    312, share them.  Only a miss calls this function: one ``translate``
    renames the shape's template (:func:`_table_of_shapes`) from places to
    the letters in play in increasing order, then the output's, and one
    ``split`` cuts the distinct words apart, which renaming keeps distinct.
    The kernel reads each word's complexity from a dict of S(w), since
    different states can give the same S(w): the prefix table over S_{n-1}
    when n - 1 <= ``TABLE_CAP``, and otherwise the run's
    :class:`_Complexities`.  One ``translate`` adds one to each, and one of
    the index spreads them over the k! orders.  Every key is the exact
    state, shape or word, so a hit gives what a miss would compute."""
    ls = sorted(stack[1:] + free)  # the letters in play
    letters = bytes(ls + out)
    words, index = shapes[(len(ls), *map(ls.index, free))]
    rename = bytes.maketrans(RANKS[:len(letters)], letters)
    return words.translate(rename).split(SEP), index


def _check_tables(level: list, ceiling: int) -> tuple:
    """``(clamp, certify)``, the ``translate`` tables of a leaf's check:
    ``cs.translate(clamp)`` and ``ls.translate(certify)`` agree at a word
    exactly when it passes, its complexity in ``cs`` a level its label code
    in ``ls`` certifies, so they are equal when every word passes.
    ``level[j]`` is the level row code j certifies and ``ceiling`` the most
    an unclassified word, of code ``len(level)``, may have.  ``clamp`` lifts
    each complexity at or below the ceiling to it and ``certify`` maps each
    code to its level, no row to the ceiling, or, when the ceiling is below
    0 and certifies no complexity, to a byte no complexity takes.  A row
    certifying at most the ceiling would let a word the per-word test fails
    pass, so it raises; ``none_ceiling`` rules it out by its definition."""
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
    blocks.  A node pushes its letter through one shared stack pass (the
    letters it pops go to one shared output list), adds its descent and
    steps the catalog's automaton by its letter's symbol, once for every
    word below it, and undoes the pass on return.  The walk stops at depth
    n - k, k = min(n, ``_FREE``): a leaf serves the k! orders of its free
    letters in lexicographic order, and a shard edge inside a leaf slices
    them.  Up to n = 5 the root is the only leaf.

    A leaf reads its complexities from the memo (:func:`_leaf_words`), its
    labels from the table of :func:`_table_of_labels` and its descent
    counts from ``_LengthState.descents``.  A memo entry is one more than
    the complexity of S(w), which is wrong only for the sorted word, the
    one with no descent and always a leaf's first: it gets a 0.  No word is
    built: a leaf counts one for its key, its complexities, descents and
    labels as exact bytes, and each distinct key is checked when the walk
    first meets it (:func:`_check_tables`), in rank order, so the first
    clash raised is the lowest-ranked failing word.  After the walk the
    keys are summed by complexities and descents into the descent matrix
    and by labels into the rows; the counts are the matrix's row sums.
    Every key is exact, so no tally can differ from a word-by-word walk.

    ``dicts`` are the run's memo, its shared values and dict of S(w) in
    this process (:func:`run_census`); a direct call with none gets its
    own.  The tables come from :func:`_length_state`.
    """
    tallies = _zero_tallies(n)
    if hi <= lo:
        return tallies
    cnt, rows, dm = tallies.values()
    own = _length_state(n)
    automaton = own.automaton
    shapes, labelled, desc = own.tables()
    levels = builtin_catalog().levels(n)
    names = (*automaton.labels, None)  # by label code
    none = len(automaton.labels)       # the code of no row
    ceiling = none_ceiling(n)
    # the level each code certifies: a row's, or at most the ceiling for none
    level = [*(levels[label] for label in automaton.labels), ceiling]
    clamp, certify = _check_tables(level[:none], ceiling)
    symbol = automaton.symbol
    free = list(range(1, n + 1))  # letters not yet placed
    go = {x: automaton.delta[symbol[x]] for x in free}  # its column of transitions
    # the memo, its shared values and the dict of S(w) (see _leaf_words)
    memo, shared, known = dicts if dicts is not None else ({}, {}, _Complexities())
    if n - 1 <= TABLE_CAP:
        known = _prefix_table(n - 1)  # it holds all of S_{n-1}, so it only ever hits
    fact = [factorial(m) for m in range(n + 1)]
    k = min(n, _FREE)  # the free letters of a leaf
    leaf, orders = n - k, fact[k]  # the leaves' depth and the words each serves
    leaves: dict = {}  # (complexities, descents, labels) of a leaf's words -> its leaves
    stack = [n + 1]  # decreasing upwards, over a guard letter
    out = []         # letters popped so far, in output order

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
                words, index = _leaf_words(shapes, stack, out, free)
                cs = bytes(map(known.__getitem__, words)).translate(PLUS_ONE)
                cs = index.translate(cs.ljust(256, b"\0"))
                cs = memo[key] = shared.setdefault(cs, cs)
            ls = labelled[state, bytes(free).translate(symbol)]
            es = desc[d][bisect_left(free, prev)]
            if lo > base or hi < base + orders:
                t0, t1 = max(lo - base, 0), min(hi - base, orders)
                cs, es, ls = cs[t0:t1], es[t0:t1], ls[t0:t1]
            if not es[0]:  # the sorted word, the one with no descent
                cs = b"\0" + cs[1:]
            key = cs, es, ls
            seen = leaves.get(key)
            if seen is None:
                got, want = cs.translate(clamp), ls.translate(certify)
                if got != want:  # raise on the first word that fails
                    t = next(t for t, (a, b) in enumerate(zip(got, want)) if a != b)
                    r, j = max(lo, base) + t, ls[t]
                    raise CensusSoundnessError(unrank(n, r), r, names[j], cs[t], level[j])
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
    labels of ``levels`` and a total of the shard's word count.  Raises
    FileNotFoundError when there is no file and ValueError, naming the
    reason, when the file cannot be used."""
    with open(path, "rb") as fh:
        text = fh.read()
    saved = _parse_json(text)
    tallies = _read_tallies(saved, header, _SHARD_KEYS)
    head = text[:text.rfind(_CHECKSUM_KEY) + len(_CHECKSUM_KEY)]
    if saved.get("checksum") != _sha256(head):
        raise ValueError("checksum mismatch")
    _check_tallies(header["n"], levels, header["hi"] - header["lo"],
                   *tallies.values())
    return tallies


def _shard_task(record: tuple, dicts: Optional[tuple] = None) -> dict:
    """Compute the shard of a record ``(header, path)`` with the run's
    kernel dicts, ``dicts`` here or :func:`_start_worker`'s in a pool
    worker, and save the header and the tallies at ``path`` unless it is
    None (process-pool safe)."""
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
    record ``(header, path)``: its identity from :func:`_shard_header`, and
    its file's path, or None without ``checkpoint_dir``.  The record is the
    task :func:`_shard_task` computes, the identity a resume checks and, by
    ``header["index"]``, the merge key.  With ``checkpoint_dir`` each shard
    is saved when done, and ``resume=True`` first reads the saved shards
    that pass :func:`_resume_shards`, so an interrupted run continues.  The
    shards left go to the kernel here, or, with ``jobs > 1`` and more than
    one left, to a pool of ``min(jobs, shards left)`` workers; just before
    it starts, this process builds :meth:`_LengthState.tables`, so forked
    workers inherit them.  A wait for the pool cut short, by an interrupt
    or a failed shard, stops it at once.

    The kernel's memo, its shared values and its dict of S(w) belong to the
    run: the shards computed here share three dicts made as locals, and each
    pool worker, made for this run alone, gets its own from
    :func:`_start_worker`.  So a sharded census computes each state and each
    S(w) once per process, as a one-shard census does, and the dicts go with
    the run.  The merge sums the rows and the descent matrices and derives
    the counts as the merged matrix's row sums; :meth:`Census.validate`
    checks it.
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


def _column_sums(matrix, classes: slice) -> Tuple[int, ...]:
    """The column sums of ``matrix[classes]``: zeros if it selects no row."""
    rows = matrix[classes]
    return tuple(sum(row[d] for row in rows) for d in range(len(matrix[0])))


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
    carries, and :meth:`Census.validate`, with a total of n!, are
    re-checked.  Raises ValueError naming the file and the cause."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = _parse_json(fh.read())
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
