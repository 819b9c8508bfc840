import gc
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import cached_property, lru_cache
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stacksort.census as census_mod
import stacksort.patterns as patterns_mod
import stacksort.words as words_mod
from stacksort.census import (
    Census,
    CensusSoundnessError,
    class_counts_csv,
    descent_polynomial,
    load_census,
    row_counts_csv,
    run_census,
    save_report,
)
from stacksort.formulas import REGISTRY, verify_census
from stacksort.patterns import builtin_catalog, tier
from stacksort.words import (
    Word,
    descents,
    identity_word,
    next_permutation,
    rank,
    stack_sort,
    stack_sort_pass,
    unrank,
)

import _matching_oracle as oracle


# Frozen small-length distributions, cross-checked against the counting
# formulas (which the verify tests exercise independently).
KNOWN_COUNTS = {
    1: [1],
    2: [1, 1],
    3: [1, 4, 1],
    4: [1, 13, 8, 2],
    5: [1, 41, 49, 23, 6],
    6: [1, 131, 276, 198, 90, 24],
    7: [1, 428, 1509, 1556, 982, 444, 120],
}


# Report checksums: n = 5 as quoted in the README, n = 8, 9 and 10 as
# pinned in perfbench/bench.py from runs of the first census kernel, n = 11
# from `census --n 11 --shards 64 --jobs 2` with the prefix-tree kernel.
PINNED_CHECKSUMS = {
    5: "sha256:4a51e5f10e58aeb4f4aa691dc9bd3be58dba9304af968057e9308d56dc4336ee",
    8: "sha256:e154f75f4a5e366a4534504b1e5c22b9e34a7b50f13388cf8825318a08e371f1",
    9: "sha256:8f46fe43396003e268dbc969fb19c194ddfd5015c71e1f514dece2cfb3b9faaa",
    10: "sha256:17a798e2941afe4bdd69497883eff703bafc33e19f113c8c7c9352296a4ede34",
    11: "sha256:ae082d295913ddd5e17480ccaab7f56bda29fcfbd09baef271fdaf0c3dab0a86",
}


@pytest.mark.parametrize("n", sorted(PINNED_CHECKSUMS))
def test_pinned_checksums(n, census_cache, extended):
    if n >= 10 and not extended:
        pytest.skip(f"n = {n} runs with STACKSORT_EXTENDED=1")
    assert census_cache(n).checksum == PINNED_CHECKSUMS[n]


def _passes_to_identity(w):
    """Complexity with no prefix table and no settled letters dropped:
    whole stack passes, counted until the word is the identity."""
    w, ident, k = Word(w), identity_word(len(w)), 0
    while w != ident:
        w, k = stack_sort_pass(w), k + 1
    return k


@lru_cache(maxsize=None)
def _reference_labeller(n, tiers):
    """The independent labeller of the built-in catalog at length n under
    the tier table ``tiers``, built once per pair: the key is the table
    itself, so a test that patches ``patterns._TIERS`` never reuses one
    built under other floors."""
    return oracle.Labeller(builtin_catalog(), n)


def _reference_words(n, lo, hi):
    """(complexity, descents, label) of ranks [lo, hi), one word at a time
    through unrank, next_permutation, whole stack passes, descents and the
    independent labeller of ``_matching_oracle``, which shares no table
    with the automaton: the census kernel before the prefix-tree walk, kept
    as its oracle.  Raises CensusSoundnessError like the kernel."""
    if hi <= lo:
        return
    label_of = _reference_labeller(n, patterns_mod._TIERS)
    ceiling = census_mod.none_ceiling(n)
    w = list(unrank(n, lo))
    for r in range(lo, hi):
        k, label = _passes_to_identity(w), label_of(w)
        certified = ceiling if label is None else n - tier(label)[0]
        if k > certified or (label is not None and k != certified):
            raise CensusSoundnessError(w, r, label, k, certified)
        yield k, descents(w), label
        next_permutation(w)


def _tallies(n, records):
    size = max(n, 1)
    cnt = [0] * size
    dm = [[0] * size for _ in range(size)]
    rows = dict.fromkeys(builtin_catalog().levels(n), 0)
    for k, d, label in records:
        cnt[k] += 1
        dm[k][d] += 1
        if label is not None:
            rows[label] += 1
    return {"counts": cnt, "rows": rows, "descents": dm}


def _reference_kernel(n, lo, hi):
    return _tallies(n, _reference_words(n, lo, hi))


def test_walk_matches_reference_on_every_range_to_n5():
    for n in range(1, 6):
        words = list(_reference_words(n, 0, factorial(n)))
        for lo in range(len(words) + 1):
            for hi in range(lo, len(words) + 1):
                assert census_mod._shard_kernel(n, lo, hi) == _tallies(
                    n, words[lo:hi]), (n, lo, hi)


def _seeded_ranges(n, rng, count, width):
    """Random ranges of S_n, plus empty ranges, single words, ranges that
    start or end on a prefix-block boundary, and the whole of S_n."""
    total = factorial(n)
    out = [(0, total), (0, 0), (total, total), (0, 1), (total - 1, total)]
    for _ in range(count):
        lo = rng.randrange(total)
        out.append((lo, min(total, lo + rng.randrange(width))))
        out.append((lo, lo))
        out.append((lo, lo + 1))
        block = factorial(rng.randrange(1, n))  # words sharing a prefix
        edge = rng.randrange(total // block + 1) * block
        out.append((edge, min(total, edge + rng.randrange(1, width))))
        out.append((max(0, edge - rng.randrange(1, width)), edge))
    return out


@pytest.mark.parametrize("n, count, width", [(6, 40, 720), (7, 30, 3000),
                                             (8, 12, 6000), (9, 2, 4000),
                                             (10, 2, 3000), (12, 2, 3000),
                                             (13, 2, 2000), (14, 2, 2000)])
def test_walk_matches_reference_on_seeded_ranges(n, count, width, monkeypatch):
    rng = random.Random(n)
    ranges = _seeded_ranges(n, rng, count, width)
    if n >= 9:  # S_9 and up are too long to replay word by word here
        ranges.remove((0, factorial(n)))
    # a cap of 1 or 3 entries clears the state memo at almost every miss,
    # and from n = 9 on the dict of S(w) too
    caps = [census_mod._MEMO_CAP] + ([1, 3] if n >= 8 else [])
    for lo, hi in ranges:
        want = _reference_kernel(n, lo, hi)
        for cap in caps:
            monkeypatch.setattr(census_mod, "_MEMO_CAP", cap)
            assert census_mod._shard_kernel(n, lo, hi) == want, (n, lo, hi, cap)


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="only forked workers inherit the caller's state")


def _counting(monkeypatch, name):
    """Patch census's ``name`` to record each call in the list returned."""
    calls, f = [], getattr(census_mod, name)
    monkeypatch.setattr(census_mod, name, lambda *a: calls.append(a) or f(*a))
    return calls


def _counted_automata(monkeypatch):
    """Forget the per-length state this process holds, and record from now
    on the length of each automaton built, in the list returned."""
    built, init = [], census_mod.CatalogAutomaton.__init__

    def counted(self, catalog, n):
        built.append(n)
        init(self, catalog, n)

    monkeypatch.setattr(census_mod.CatalogAutomaton, "__init__", counted)
    census_mod._length_state.cache_clear()
    return built


def test_leaf_memo_lives_in_one_kernel_call(monkeypatch):
    # a direct kernel call, outside a census run, starts with a memo and a
    # dict of S(w) of its own, so a second call recomputes every complexity.
    # The 40,320 words of S_9 that start with 1 give 1,780 distinct S(w),
    # as many as S_8 has sorted words: the dict of S(w) computes each once.
    # The table of shapes is the process's, for each length, and complete
    # when built: a leaf's shape is its number m = 5..9 of letters in play
    # and the places of its five free letters among them, so the first call,
    # on a table that no earlier test built, builds all C(10, 6) = 210 in
    # one call, and the second builds none
    census_mod._length_state.cache_clear()
    calls = _counting(monkeypatch, "_complexity")
    shapes = _counting(monkeypatch, "_table_of_shapes")
    first = census_mod._shard_kernel(9, 0, 40320)
    once = len(calls)
    assert census_mod._shard_kernel(9, 0, 40320) == first
    assert (len(calls), shapes) == (2 * once, [(9,)])
    assert once <= 1780
    assert len(census_mod._length_state(9).shapes) == comb(10, 6)
    assert first == _reference_kernel(9, 0, 40320)


# |S(S_9)|: the distinct S(w) of the words of length 9, each of which a run
# of n = 9 computes the complexity of once in each process
IMAGE_OF_S_9 = 11033


def test_kernel_dicts_live_for_one_run_per_process(monkeypatch):
    # with one job every shard of a run is computed in this process, which
    # computes each S(w) once however the run is sharded; the next run,
    # with the same or another shard count, recomputes them all, and so
    # does a run after a shard task called outside any run
    header = census_mod._shard_header(9, 8, 0, 0, factorial(9) // 8, None)
    census_mod._shard_task((header, None))
    calls = _counting(monkeypatch, "_complexity")
    for shards in (1, 8, 102, 1):
        calls.clear()
        assert run_census(9, shard_count=shards).checksum == PINNED_CHECKSUMS[9]
        assert len(calls) == IMAGE_OF_S_9, shards


def test_a_failed_run_leaves_no_run_state(monkeypatch):
    kernel, held = census_mod._shard_kernel, []

    def failing_kernel(n, lo, hi, dicts=None):
        held.append(dicts)
        if len(held) == 3:
            raise KeyboardInterrupt
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", failing_kernel)
    with pytest.raises(KeyboardInterrupt):
        run_census(9, shard_count=8)
    # the three shards computed shared the dicts of the run, which went
    # with it: once the test drops what it recorded, this process holds no
    # dict of S(w), the one dict of the three that has a type of its own
    assert held[0] is not None and all(h is held[0] for h in held)
    held.clear()
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, census_mod._Complexities)]
    monkeypatch.undo()
    calls = _counting(monkeypatch, "_complexity")
    assert run_census(9, shard_count=8).checksum == PINNED_CHECKSUMS[9]
    assert len(calls) == IMAGE_OF_S_9


@fork_only
def test_each_pool_worker_keeps_its_dicts_for_the_run(monkeypatch):
    # each job, this process or the worker, computes each S(w) at most once
    # for all the shards it takes, so the two together compute at most twice
    # |S(S_9)|; fresh dicts for every shard would compute about 49,800
    calls = multiprocessing.Value("i", 0)
    complexity = census_mod._complexity

    def counted(v):
        with calls.get_lock():
            calls.value += 1
        return complexity(v)

    monkeypatch.setattr(census_mod, "_complexity", counted)
    c = run_census(9, shard_count=102, jobs=2)
    assert c.checksum == PINNED_CHECKSUMS[9]
    assert IMAGE_OF_S_9 <= calls.value <= 2 * IMAGE_OF_S_9


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=fork_only)])
def test_a_run_never_reads_dicts_held_by_the_calling_process(jobs, monkeypatch):
    # this process keeps the dicts of an earlier run, every entry of its
    # memo and of its dict of S(w) poisoned to complexity 0; a run computes
    # its shards with dicts it makes, here or in each worker, which inherits
    # the poisoned ones when forked
    kernel, earlier = census_mod._shard_kernel, []

    def recording_kernel(n, lo, hi, dicts=None):
        earlier.append(dicts)
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", recording_kernel)
    run_census(9, shard_count=4)
    monkeypatch.undo()
    memo, _, known = earlier[0]
    assert memo and known
    for key, cs in memo.items():
        memo[key] = bytes(len(cs))
    known.update(dict.fromkeys(known, 0))
    c = run_census(9, shard_count=4, jobs=jobs)
    assert c.checksum == PINNED_CHECKSUMS[9]


def _shape_count(n):
    """Shapes of a leaf of S_n, whose min(n, 5) free letters fall among
    the m letters in play, any of min(n, 5)..n: C(n + 1, min(n, 5) + 1)."""
    return comb(n + 1, min(n, 5) + 1)


def test_tables_of_shapes_are_kept_per_length(monkeypatch):
    # one process runs every length up and then down, so each table of
    # shapes, built whole on the first run of its length, serves later runs
    # of its length.  A shape's template holds the places of the n - m
    # letters of the output, so one shape has another template at another
    # length ((5, 0, 1, 2, 3, 4) at n = 5 and 6), and a table shared across
    # lengths would change the counts
    census_mod._length_state.cache_clear()
    shapes = _counting(monkeypatch, "_table_of_shapes")
    for n in (*range(1, 9), *range(8, 0, -1)):
        c = run_census(n, shard_count=3)
        if n in KNOWN_COUNTS:
            assert list(c.counts_by_complexity) == KNOWN_COUNTS[n], n
        if n in PINNED_CHECKSUMS:
            assert c.checksum == PINNED_CHECKSUMS[n], n
    # each length's table was built once, whole, on its first run
    assert shapes == [(n,) for n in range(1, 9)]
    assert census_mod._length_state.cache_info().misses == 8
    for n in range(1, 9):
        assert len(census_mod._length_state(n).shapes) == _shape_count(n), n


def _leaf_states(n, prefixes=None):
    """(prefix, stack, out, free) of each leaf of S_n whose prefix of
    n - min(n, 5) letters is in ``prefixes``, by default every leaf: the
    prefix after one stack pass, and the free letters, as the kernel holds
    them."""
    if prefixes is None:
        prefixes = permutations(range(1, n + 1), n - min(n, 5))
    for prefix in prefixes:
        stack, out = [n + 1], []
        for x in prefix:
            while stack[-1] < x:
                out.append(stack.pop())
            stack.append(x)
        free = sorted(set(range(1, n + 1)) - set(prefix))
        yield list(prefix), stack, out, free


@pytest.mark.parametrize("n", range(1, 13))
def test_leaf_shapes_give_every_sorted_word(n):
    # the complete table of shapes, each built from one canonical state,
    # serves every leaf of S_n: its distinct words, expanded through its
    # index, are S of each of the leaf's min(n, 5)! words in lexicographic
    # order, by the recursive definition, the output's letters included.
    # Every leaf up to n = 8; from n = 9 on, seeded leaves
    shapes = census_mod._table_of_shapes(n)
    assert len(shapes) == _shape_count(n)
    # each template holds distinct words of n - 1 places (empty at n = 1) in
    # order of first appearance, every one of them used, and an index of
    # min(n, 5)! bytes
    for words, index in shapes.values():
        words = words.split(census_mod.SEP)
        assert {len(v) for v in words} == {n - 1}
        assert len(set(words)) == len(words)
        assert len(index) == factorial(min(n, 5))
        assert list(dict.fromkeys(index)) == list(range(len(words)))
    prefixes = None
    if n >= 9:
        rng = random.Random(n)
        prefixes = [rng.sample(range(1, n + 1), n - 5) for _ in range(300)]
    for prefix, stack, out, free in _leaf_states(n, prefixes):
        want = [bytes(stack_sort(prefix + list(t)))[:-1] for t in permutations(free)]
        words, index = census_mod._leaf_words(shapes, stack, out, free)
        assert [words[i] for i in index] == want, prefix


def test_a_shape_with_more_words_than_a_byte_indexes_raises(monkeypatch, extended):
    # a template indexes its distinct words by one byte each, so a shape with
    # more than 256 raises rather than truncating: with seven free letters
    # the one shape of n = 7 has 326, one for each sorted word of length 7,
    # and a census of n = 7 gives no tally.  With STACKSORT_EXTENDED=1, the
    # five free letters of a leaf give at most 61 at every n up to MAX_N
    # (the n = 13 and 14 builds take 0.2-0.6 s)
    if extended:
        for n in range(1, census_mod.MAX_N + 1):
            shapes = census_mod._table_of_shapes(n)
            assert max(w.count(census_mod.SEP) + 1 for w, _ in shapes.values()) <= 61, n
    monkeypatch.setattr(census_mod, "_FREE", 7)
    census_mod._length_state.cache_clear()
    too_many = r"shape \(7, 0, 1, 2, 3, 4, 5, 6\) of length 7 has 326 distinct words"
    try:
        with pytest.raises(OverflowError, match=too_many):
            census_mod._table_of_shapes(7)
        with pytest.raises(OverflowError, match=too_many):
            run_census(7)
    finally:
        census_mod._length_state.cache_clear()  # no table of this leaf size outlives it


def test_kernel_never_writes_the_prefix_table(monkeypatch):
    # up to n = 8 the prefix table is the kernel's dict of S(w): it holds
    # every S(w) without n, so the kernel only reads it, even when a cap of
    # 1 would clear a dict of its own at every miss
    table = words_mod._prefix_table(7)
    monkeypatch.setattr(census_mod, "_MEMO_CAP", 1)
    census_mod._shard_kernel(8, 0, factorial(8))
    census_mod._shard_kernel(9, 0, 5000)
    # the table as built, whatever any kernel call of the session did to it
    assert words_mod._prefix_table(7) is table
    assert table == words_mod._prefix_table.__wrapped__(7)


def test_leaf_memo_cap_leaves_an_n12_shard_unchanged(extended, monkeypatch):
    if not extended:
        pytest.skip("n = 12 runs with STACKSORT_EXTENDED=1")
    total = factorial(12)
    lo, hi = 100 * total // 256, 101 * total // 256  # shard 100 of --shards 256
    want = census_mod._shard_kernel(12, lo, hi)
    # with a cap of 1 both the state memo and the dict of S(w) are cleared
    # at almost every miss
    monkeypatch.setattr(census_mod, "_MEMO_CAP", 1)
    assert census_mod._shard_kernel(12, lo, hi) == want


def test_kernel_builds_the_automaton_once_per_process(monkeypatch):
    # the kernel classifies with the automaton of the built-in catalog at
    # its length, built whole on the first call in a process and kept, and
    # makes no catalog for Catalog.classify; the table of leaf labels, the
    # process's too, is built whole on the first call and only read after
    built = _counted_automata(monkeypatch)
    monkeypatch.delitem(builtin_catalog()._compiled, 9, raising=False)
    first = census_mod._shard_kernel(9, 0, 5000)
    entries = dict(census_mod._length_state(9).labels)
    assert built == [9] and entries
    assert census_mod._shard_kernel(9, 0, 5000) == first
    assert census_mod._length_state(9).labels == entries
    census_mod._shard_kernel(10, 0, 5000)
    assert built == [9, 10]
    assert 9 not in builtin_catalog()._compiled


class _ReadKeys(dict):
    """A table of leaf labels that records each key the kernel reads."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_leaf_labels_are_kept_per_state_and_free_symbols(n):
    # the table of leaf labels is built whole from the automaton's states at
    # the leaves' depth, and its keys are exactly those a whole walk reads.
    # A leaf's free letters are distinct, so their symbols, in increasing
    # order, are the pinned letters its prefix has not used and x for the
    # rest: every choice of at most five of the eight pinned letters that
    # leaves x enough letters, n - 8 from n = 9 on (56 at n = 8, 126 at
    # n = 9, 219 from n = 13 on)
    state = census_mod._length_state(n)
    table = state.labels
    recorded = state.__dict__["labels"] = _ReadKeys(table)
    try:
        census_mod._shard_kernel(n, 0, factorial(n))
    finally:
        state.__dict__["labels"] = table
    assert recorded.read == table.keys()
    assert len(table) == {8: 212, 9: 1066, 10: 2887}[n]
    choices = {symbols for _, symbols in table}
    assert len(choices) == sum(comb(8, k) for k in range(max(13 - n, 0), 6))
    assert len(table) <= len(state.automaton.codes) * len(choices)
    assert all(len(labels) == 120 for labels in table.values())


@pytest.mark.parametrize("patch", ["tiers", "ceiling", "T5 tier", "T4 tier"])
def test_walk_raises_on_the_reference_word(patch, monkeypatch):
    # an L1 offset one too high, or an unclassified ceiling one too low, makes
    # many words fail: both kernels must raise on the same, first one.  T5 or
    # T4 rows certifying one level too high make fewer words fail.  With
    # fresh dicts no range of any patch raises on a leaf-memo hit: each
    # raises at the first leaf of its state (counted on an instrumented copy
    # of the kernel, over every range that starts just after a failing word
    # of S_6..S_8 and after each of the first 1,500 of S_9).  So each range
    # runs again with the dicts of a whole walk of its length made before
    # the patch, where every leaf is a hit
    warm = {n: ({}, {}, census_mod._Complexities()) for n in (6, 7, 8, 9)}
    for n, dicts in warm.items():
        census_mod._shard_kernel(n, 0, factorial(n), dicts)
    if patch == "tiers":
        monkeypatch.setattr(patterns_mod, "_TIERS",
                            (("L1", 2, 2), ("L2", 2, 4), ("T", 3, 6)))
    elif patch == "ceiling":
        monkeypatch.setattr(census_mod, "none_ceiling", lambda n: n - 5)
    else:
        monkeypatch.setattr(patterns_mod, "_TIERS",
                            ((patch[:2], 2, 6), *patterns_mod._TIERS))
    rng = random.Random(7)
    ranges = [(n, lo, hi) for n in (6, 7, 8, 9)
              for lo, hi in _seeded_ranges(n, rng, 10, 2000)
              if (lo, hi) != (0, factorial(9))]  # too long to replay here
    ranges += [(8, 886, 2886), (9, 5926, 7926)]
    raised = 0
    for n, lo, hi in ranges:
        try:
            want = _reference_kernel(n, lo, hi)
        except CensusSoundnessError as exc:
            want = (exc.word, exc.rank, exc.label, exc.complexity, exc.certified)
            raised += 1
        for dicts in (None, warm[n]):
            try:
                got = census_mod._shard_kernel(n, lo, hi, dicts)
            except CensusSoundnessError as exc:
                got = (exc.word, exc.rank, exc.label, exc.complexity, exc.certified)
            assert got == want, (n, lo, hi, dicts is None)
    assert 0 < raised < len(ranges)


def _reference_outcomes(n, lo, hi):
    """Each word of ranks [lo, hi) of S_n through the reference: its
    (complexity, descents, label), or the CensusSoundnessError the
    reference raises on it."""
    got = []
    while lo + len(got) < hi:
        try:
            got.extend(_reference_words(n, lo + len(got), hi))
        except CensusSoundnessError as exc:
            got.append(exc)
    return got


@pytest.mark.parametrize("patched", [False, True])
@pytest.mark.parametrize("n", range(5, 10))
def test_leaf_edges_match_the_reference(n, patched, monkeypatch):
    # from n = 5 on a leaf of the walk is a block of 120 ranks; ranges that
    # start and end inside one give the reference's tallies, or, with L1
    # certified one level too low (the "tiers" patch of
    # test_walk_raises_on_the_reference_word), the reference's first
    # failing word.  The ranges start at each offset 0..120 and run to the
    # block's end or over 0, 1 or 2 words, and end at each offset from the
    # block's start.  The leaves are the first, the last, and the one
    # holding the first word from a seeded rank on that the patched catalog
    # fails (at offset 81 of its leaf at n = 5 and 33 from n = 6 on)
    total = factorial(n)
    r = random.Random(n).randrange(total)
    monkeypatch.setattr(patterns_mod, "_TIERS",
                        (("L1", 2, 2), ("L2", 2, 4), ("T", 3, 6)))
    for lo, hi in ((r, total), (0, r)):
        try:
            for _ in _reference_words(n, lo, hi):
                pass
        except CensusSoundnessError as exc:
            r = exc.rank
            break
    if not patched:
        monkeypatch.undo()
    raised = 0
    for base in (0, r // 120 * 120, total - 120):
        outcomes = _reference_outcomes(n, base, base + 120)
        edge = base + 120
        ranges = {(lo, hi) for lo in range(base, edge + 1)
                  for hi in (lo, lo + 1, lo + 2, edge) if hi <= edge}
        ranges |= {(base, hi) for hi in range(base, edge + 1)}
        for lo, hi in sorted(ranges):
            want = outcomes[lo - base:hi - base]
            failed = [e for e in want if isinstance(e, Exception)]
            try:
                got = census_mod._shard_kernel(n, lo, hi)
            except CensusSoundnessError as exc:
                got = (exc.rank, exc.word, exc.label)
            if failed:
                raised += 1
                want = (failed[0].rank, failed[0].word, failed[0].label)
            else:
                want = _tallies(n, want)
            assert got == want, (n, lo, hi)
    assert bool(raised) == patched


@pytest.mark.parametrize("free", [1, 3, 4, 6])
def test_the_leaf_size_is_one_constant(free, census_cache, monkeypatch):
    # a leaf serves the orders of its min(n, _FREE) free letters, and every
    # table the kernel reads derives from that one constant: with another
    # leaf size each census to n = 9 gives the same checksum, and seeded
    # ranges, whose edges mostly fall inside a leaf, the reference's tallies
    want = {n: census_cache(n).checksum for n in range(1, 10)}
    assert all(want[n] == PINNED_CHECKSUMS[n] for n in (5, 8, 9))
    monkeypatch.setattr(census_mod, "_FREE", free)
    census_mod._length_state.cache_clear()
    try:
        for n in range(1, 10):
            assert run_census(n).checksum == want[n], n
        rng = random.Random(free)
        for n in (6, 7, 8):
            for lo, hi in _seeded_ranges(n, rng, 3, 2 * factorial(min(n, free)) + 50):
                if hi - lo <= 3000:
                    assert census_mod._shard_kernel(n, lo, hi) == _reference_kernel(
                        n, lo, hi), (n, lo, hi)
    finally:
        census_mod._length_state.cache_clear()  # no table of this leaf size outlives it


def test_known_distributions(census_cache):
    for n, expected in KNOWN_COUNTS.items():
        c = census_cache(n)
        assert list(c.counts_by_complexity) == expected
        assert sum(c.counts_by_complexity) == factorial(n)


def test_verify_passes_through_n8(census_cache):
    for n in range(1, 9):
        report = verify_census(census_cache(n))
        assert report.ok, report.failures


@pytest.mark.parametrize("n", [9, 10, 11])
def test_verify_passes_at_the_top_lengths(n, census_cache, extended):
    if n >= 10 and not extended:
        pytest.skip(f"n = {n} runs with STACKSORT_EXTENDED=1")
    report = verify_census(census_cache(n))
    assert report.ok, report.failures
    assert {f"{name}-d{n - 1}" for name in ("eulerian", "narayana", "jacquard-schaeffer")
            } <= {chk.name for chk in report.checks}


def test_the_catalog_counts_its_rows_as_the_walk_does(census_cache, extended):
    # the automaton's counter, which verify_census reads, against the walk's
    # first-match tallies; to n = 11 with STACKSORT_EXTENDED=1
    for n in range(1, 12 if extended else 10):
        c = census_cache(n)
        automaton = census_mod._length_state(n).automaton
        rows = [c.counts_by_row.get(label, 0) for label in automaton.labels]
        assert automaton.counts == (*rows, factorial(n) - sum(rows)), n


def test_a_second_verify_at_a_length_counts_nothing(census_cache, monkeypatch):
    # the counts are kept on the automaton of the per-length state, so only
    # the first verify_census at a length runs the counter
    counts, runs = census_mod.CatalogAutomaton.counts, []

    def counting(self):
        runs.append(self.n)
        return counts.func(self)

    patched = cached_property(counting)
    patched.__set_name__(census_mod.CatalogAutomaton, "counts")
    monkeypatch.setattr(census_mod.CatalogAutomaton, "counts", patched)
    census_mod._length_state.cache_clear()
    for _ in range(2):
        assert verify_census(census_cache(7)).ok
    assert runs == [7]


def test_verify_builds_none_of_the_kernel_tables(census_cache, monkeypatch):
    # verify_census reads only the automaton of the per-length state: at a
    # length this process holds no state for, it builds no shape and no
    # leaf's labels
    c = census_cache(8)
    census_mod._length_state.cache_clear()
    shapes = _counting(monkeypatch, "_table_of_shapes")
    labels = _counting(monkeypatch, "_table_of_labels")
    assert verify_census(c).ok
    assert (shapes, labels) == ([], [])
    assert census_mod._length_state.cache_info().currsize == 1


def test_shard_invariance(census_cache):
    base = census_cache(6)
    for shards in (2, 5, 7, 16, 100):
        c = run_census(6, shard_count=shards)
        assert c.counts_by_complexity == base.counts_by_complexity
        assert c.counts_by_row == base.counts_by_row
        assert c.descent_matrix == base.descent_matrix
        assert c.checksum == base.checksum


def test_more_shards_than_words():
    c = run_census(3, shard_count=50)
    assert list(c.counts_by_complexity) == KNOWN_COUNTS[3]


def test_parallel_jobs_match(census_cache):
    c = run_census(6, shard_count=8, jobs=2)
    assert c.checksum == census_cache(6).checksum


def test_run_census_argument_errors():
    with pytest.raises(ValueError):
        run_census(0)
    with pytest.raises(ValueError):
        run_census(15)
    with pytest.raises(ValueError):
        run_census(5, jobs=0)
    with pytest.raises(ValueError):
        run_census(5, shard_count=0)
    with pytest.raises(ValueError, match="resume needs a checkpoint directory"):
        run_census(5, resume=True)


def test_checkpoints_written_and_resumed(tmp_path, census_cache):
    d = str(tmp_path / "ck")
    c1 = run_census(6, shard_count=8, checkpoint_dir=d)
    files = sorted(os.listdir(d))
    assert len(files) == 8
    assert files[0] == "shard-6-8-0000.json"
    # resume reuses every shard file; tallies stay identical
    c2 = run_census(6, shard_count=8, checkpoint_dir=d, resume=True)
    assert c2.checksum == c1.checksum == census_cache(6).checksum


def test_resume_from_partial_checkpoints(tmp_path, census_cache):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, checkpoint_dir=d)
    for index in (1, 4, 6):  # as if the run had been killed mid-way
        os.remove(os.path.join(d, f"shard-6-8-{index:04d}.json"))
    c = run_census(6, shard_count=8, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum
    assert len(os.listdir(d)) == 8


def test_resume_ignores_mismatched_checkpoint(tmp_path, census_cache):
    d = tmp_path / "ck"
    d.mkdir()
    stale = d / "shard-5-4-0000.json"
    stale.write_text(json.dumps({
        "schema_version": 1, "n": 6, "shard_count": 4, "index": 0,
        "counts": ["999"], "rows": {}, "descents": [["999"]],
    }))
    c = run_census(5, shard_count=4, checkpoint_dir=str(d), resume=True)
    assert list(c.counts_by_complexity) == KNOWN_COUNTS[5]


def test_resume_recomputes_unreadable_shard(tmp_path, census_cache):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=4, checkpoint_dir=d)
    path = os.path.join(d, "shard-6-4-0000.json")
    with open(path, "r+") as fh:
        fh.truncate(40)
    c = run_census(6, shard_count=4, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum
    with open(path) as fh:  # rewritten with the fresh tallies
        assert json.load(fh)["counts"] == [
            str(v) for v in census_mod._shard_kernel(6, 0, 180)["counts"]]
    # a file missing a key is recomputed too
    payload = json.loads(Path(path).read_text())
    del payload["descents"]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert run_census(6, shard_count=4, checkpoint_dir=d, resume=True) == c
    assert sorted(os.listdir(d)) == [f"shard-6-4-{i:04d}.json" for i in range(4)]


def test_swapped_classes_in_a_shard_fail_verification(tmp_path, census_cache):
    # resume recomputes the shard, whose stored checksum no longer matches
    d = str(tmp_path / "ck")
    run_census(6, shard_count=4, checkpoint_dir=d)
    path = os.path.join(d, "shard-6-4-0000.json")
    payload = json.loads(Path(path).read_text())
    for key in ("counts", "descents"):
        payload[key][1], payload[key][2] = payload[key][2], payload[key][1]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    base = census_cache(6)
    resumed = run_census(6, shard_count=4, checkpoint_dir=d, resume=True)
    assert resumed.checksum == base.checksum
    # merged as trusted, those tallies would still fail the bottom-end forms
    shard = census_mod._shard_kernel(6, 0, 180)

    def swap(seq):
        seq = list(seq)
        seq[1], seq[2] = seq[2], seq[1]
        return seq

    def with_swapped_shard(total, part):
        return [t - p + q for t, p, q in zip(total, part, swap(part))]

    counts = with_swapped_shard(base.counts_by_complexity, shard["counts"])
    matrix = [tuple(t - p + q for t, p, q in zip(*rows)) for rows in zip(
        base.descent_matrix, shard["descents"], swap(shard["descents"]))]
    bad = Census(6, tuple(counts), base.counts_by_row, tuple(matrix))
    assert bad.counts_by_complexity != base.counts_by_complexity
    bad.validate()  # the census's own invariants do not notice
    report = verify_census(bad)
    assert "sortable-1" in {chk.name for chk in report.failures}


def _started_workers(monkeypatch):
    """Patch census to record each worker process it starts, still a real
    one, in the list returned."""
    started = []

    def counted(*args, **kwargs):
        started.append(multiprocessing.Process(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(census_mod, "Process", counted)
    return started


def test_resume_of_a_finished_run_starts_no_pool(tmp_path, census_cache, monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, jobs=2, checkpoint_dir=d)

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(census_mod, "Process", no_worker)
    c = run_census(6, shard_count=8, jobs=2, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum


def _drop_length_state(monkeypatch, n):
    """Forget the prefix tables, the per-length state and the catalog
    compiled for length n that this process holds, so that the next use
    builds them again."""
    words_mod._prefix_table.cache_clear()
    monkeypatch.delitem(builtin_catalog()._compiled, n, raising=False)
    census_mod._length_state.cache_clear()


def test_length_state_is_built_on_first_use():
    # importing the package builds no per-length state, and a census builds
    # the state of its length once
    code = ("import stacksort, stacksort.census as c; "
            "print(c._length_state.cache_info().currsize, end=' '); "
            "stacksort.run_census(5, shard_count=3); "
            "print(c._length_state.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(census_mod.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == ["0", "1"], done.stderr


@fork_only
def test_forked_workers_inherit_the_per_length_state(census_cache, monkeypatch):
    serial = census_cache(7).checksum
    parent = os.getpid()

    def here_only(f):
        def guarded(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"a worker called {f.__name__}")
            return f(*args, **kwargs)
        return guarded

    monkeypatch.setattr(words_mod, "_pass", here_only(words_mod._pass))
    monkeypatch.setattr(census_mod, "CatalogAutomaton",
                        here_only(census_mod.CatalogAutomaton))
    _drop_length_state(monkeypatch, 7)
    assert run_census(7, shard_count=4, jobs=2).checksum == serial


@fork_only
def test_forked_workers_build_no_shape(monkeypatch):
    # the calling process builds the automaton, the whole table of shapes
    # and the whole table of leaf labels before the pool starts, so the
    # forked workers find every transition, shape and leaf's labels they
    # meet in them; tables filled as leaves miss would leave them up to 84
    # shapes and 212 entries of labels to build at n = 8, in every pooled
    # run, since a worker's tables die with it
    parent = os.getpid()
    calls = {name: multiprocessing.Value("i", 0)
             for name in ("shapes", "automaton", "labels")}

    def counted(name, f):
        def g(*args):
            if os.getpid() != parent:
                with calls[name].get_lock():
                    calls[name].value += 1
            return f(*args)
        return g

    monkeypatch.setattr(census_mod, "_table_of_shapes",
                        counted("shapes", census_mod._table_of_shapes))
    monkeypatch.setattr(census_mod, "CatalogAutomaton",
                        counted("automaton", census_mod.CatalogAutomaton))
    monkeypatch.setattr(census_mod, "_table_of_labels",
                        counted("labels", census_mod._table_of_labels))
    census_mod._length_state.cache_clear()
    for _ in range(2):
        c = run_census(8, shard_count=11, jobs=2)
        assert c.checksum == PINNED_CHECKSUMS[8]
    assert calls["shapes"].value == calls["automaton"].value == 0
    assert calls["labels"].value == 0
    assert census_mod._length_state.cache_info().misses == 1
    state = census_mod._length_state(8)
    assert len(state.shapes) == comb(9, 6)
    assert state.labels == census_mod._table_of_labels(state.automaton, 8)
    assert len(state.labels) == 212


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_started_fresh_give_the_pinned_checksum(method, tmp_path):
    # the start method belongs to the whole process, so set it in a new one;
    # a worker started fresh gets the records and its end of the pipe
    # pickled, and writes the shard files of a checkpointed run and of a
    # resume that recomputes two of them
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    src = os.path.dirname(os.path.dirname(census_mod.__file__))
    d = str(tmp_path / "ck")
    code = ("import multiprocessing, os\n"
            "from stacksort.census import run_census\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r})\n"
            "    print(run_census(8, shard_count=4, jobs=2).checksum)\n"
            f"    print(run_census(8, shard_count=4, jobs=2, checkpoint_dir={d!r}).checksum)\n"
            "    for i in (1, 2):\n"
            f"        os.remove(os.path.join({d!r}, f'shard-8-4-{{i:04d}}.json'))\n"
            f"    print(run_census(8, shard_count=4, jobs=2, checkpoint_dir={d!r},\n"
            "                     resume=True).checksum)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [PINNED_CHECKSUMS[8]] * 3
    assert sorted(os.listdir(d)) == [f"shard-8-4-{i:04d}.json" for i in range(4)]


def test_resume_of_a_finished_run_builds_no_state(tmp_path, census_cache,
                                                  monkeypatch):
    serial = census_cache(7).checksum
    d = str(tmp_path / "ck")
    run_census(7, shard_count=4, jobs=2, checkpoint_dir=d)
    _drop_length_state(monkeypatch, 7)
    c = run_census(7, shard_count=4, jobs=2, checkpoint_dir=d, resume=True)
    assert c.checksum == serial
    assert words_mod._prefix_table.cache_info().currsize == 0
    assert 7 not in builtin_catalog()._compiled
    assert census_mod._length_state.cache_info().currsize == 0


def test_partial_resume_computes_only_missing_shards(tmp_path, census_cache,
                                                     monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, checkpoint_dir=d)
    for index in (1, 4, 6):
        os.remove(os.path.join(d, f"shard-6-8-{index:04d}.json"))
    kernel, ranges = census_mod._shard_kernel, []

    def recording_kernel(n, lo, hi, dicts=None):
        ranges.append((lo, hi))
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", recording_kernel)
    c = run_census(6, shard_count=8, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum
    assert ranges == [(90 * i, 90 * (i + 1)) for i in (1, 4, 6)]


def test_partial_resume_sizes_the_pool_to_the_shards_left(tmp_path, census_cache,
                                                         monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, checkpoint_dir=d)
    started = _started_workers(monkeypatch)
    # this process is one of the jobs: three shards left at jobs 4 start two
    # workers, and one shard left runs in this process alone
    for missing, workers in (((2, 5, 7), 2),
                             ((3,), 0)):
        # a file kept keeps the time set here; a shard computed is written anew
        for name in os.listdir(d):
            os.utime(os.path.join(d, name), ns=(0, 0))
        for index in missing:
            os.remove(os.path.join(d, f"shard-6-8-{index:04d}.json"))
        started.clear()
        c = run_census(6, shard_count=8, jobs=4, checkpoint_dir=d, resume=True)
        assert c.checksum == census_cache(6).checksum
        assert len(started) == workers
        assert not [p for p in started if p.exitcode is None]
        written = sorted(int(name[-9:-5]) for name in os.listdir(d)
                         if os.stat(os.path.join(d, name)).st_mtime_ns)
        assert written == list(missing)
    assert len(os.listdir(d)) == 8


@fork_only
def test_a_worker_that_dies_stops_the_run_and_leaves_whole_files(tmp_path, monkeypatch):
    # the worker ends hard at the start of its second shard, while this
    # process computes its own; the run raises BrokenProcessPool, leaves
    # only whole shard files, the dead worker's shard not among them, and a
    # resume finishes the census
    d, shards = str(tmp_path / "ck"), 11
    parent, kernel, seen = os.getpid(), census_mod._shard_kernel, []

    def dying_kernel(n, start, hi, dicts=None):
        if os.getpid() != parent:
            seen.append(start)  # the worker's own copy of the list
            if len(seen) == 2:
                os._exit(1)
        return kernel(n, start, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", dying_kernel)
    started = _started_workers(monkeypatch)
    with pytest.raises(BrokenProcessPool):
        run_census(8, shard_count=shards, jobs=2, checkpoint_dir=d)
    assert [p.exitcode for p in started] == [1] and not seen
    assert not multiprocessing.active_children()
    levels, sha = builtin_catalog().levels(8), census_mod._catalog_sha256()
    names = sorted(os.listdir(d))
    assert 0 < len(names) < shards
    for name in names:
        i = int(name.removeprefix(f"shard-8-{shards}-").removesuffix(".json"))
        header = census_mod._shard_header(8, shards, i, i * factorial(8) // shards,
                                          (i + 1) * factorial(8) // shards, sha)
        census_mod._read_shard(os.path.join(d, name), header, levels)
    monkeypatch.undo()
    c = run_census(8, shard_count=shards, jobs=2, checkpoint_dir=d, resume=True)
    assert c.checksum == PINNED_CHECKSUMS[8]


@fork_only
def test_a_soundness_failure_in_a_worker_is_the_serial_runs(monkeypatch):
    # with no complexity certified for an unclassified word, every word of
    # S_6 fails, and two jobs report the lowest-ranked, as one job does;
    # when only the worker's words fail, the run raises the first word of
    # the worker's first shard, shard 1, as the kernel raises it here
    parent, ceiling = os.getpid(), census_mod.none_ceiling
    monkeypatch.setattr(census_mod, "none_ceiling", lambda n: -1)
    raised = []
    for jobs in (1, 2):
        with pytest.raises(CensusSoundnessError) as exc:
            run_census(6, shard_count=8, jobs=jobs)
        raised.append((exc.value.word, exc.value.rank, str(exc.value)))
    assert raised[0] == raised[1]
    assert raised[0][:2] == ((1, 2, 3, 4, 5, 6), 0)
    with pytest.raises(CensusSoundnessError) as exc:
        census_mod._shard_kernel(6, 90, 180)
    raised = [(exc.value.word, exc.value.rank, str(exc.value))]
    monkeypatch.setattr(census_mod, "none_ceiling",
                        lambda n: -1 if os.getpid() != parent else ceiling(n))
    with pytest.raises(CensusSoundnessError) as exc:
        run_census(6, shard_count=8, jobs=2)
    assert (exc.value.word, exc.value.rank, str(exc.value)) == raised[0]
    assert exc.value.rank == 90


@fork_only
def test_a_pooled_run_raises_the_failure_of_the_lowest_shard(tmp_path, monkeypatch):
    # this process takes shard 0 and the worker shards 1 to 3; shard 1
    # fails while shard 0 still runs and then fails too: the run hands out
    # no further shard, waits for shards 2 and 3, which the worker saves,
    # and raises shard 0's failure, the one a serial run raises
    d = str(tmp_path / "ck")
    kernel = census_mod._shard_kernel

    def failing_kernel(n, lo, hi, dicts=None):
        if lo < 180:
            time.sleep(0.3 if lo == 0 else 0)
            raise ValueError(f"shard {lo // 90}")
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", failing_kernel)
    with pytest.raises(ValueError, match="^shard 0$"):
        run_census(6, shard_count=8, jobs=2, checkpoint_dir=d)
    assert sorted(os.listdir(d)) == ["shard-6-8-0002.json", "shard-6-8-0003.json"]
    assert not multiprocessing.active_children()


def test_a_pooled_n10_run_and_its_resume_give_the_pinned_checksum(tmp_path, extended):
    # the run this process and one worker share, checkpointed, then a resume
    # that recomputes three deleted shards
    if not extended:
        pytest.skip("n = 10 runs with STACKSORT_EXTENDED=1")
    d = str(tmp_path / "ck")
    c = run_census(10, shard_count=64, jobs=2, checkpoint_dir=d)
    assert c.checksum == PINNED_CHECKSUMS[10]
    for index in (0, 31, 63):
        os.remove(os.path.join(d, f"shard-10-64-{index:04d}.json"))
    c = run_census(10, shard_count=64, jobs=2, checkpoint_dir=d, resume=True)
    assert c.checksum == PINNED_CHECKSUMS[10]
    assert len(os.listdir(d)) == 64


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_this_process_is_one_of_the_jobs(jobs, monkeypatch):
    # jobs K start K - 1 workers, none for one job, and this process
    # computes shards of its own with them
    parent, kernel, here = os.getpid(), census_mod._shard_kernel, []

    def recording_kernel(n, lo, hi, dicts=None):
        if os.getpid() == parent:
            here.append(lo)
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", recording_kernel)
    started = _started_workers(monkeypatch)
    assert run_census(8, shard_count=11, jobs=jobs).checksum == PINNED_CHECKSUMS[8]
    assert len(started) == jobs - 1
    assert here and (jobs > 1 or len(here) == 11)
    assert not multiprocessing.active_children()


def test_a_worker_ends_while_this_process_computes(monkeypatch):
    # two shards at jobs 2: this process takes shard 0, and the worker
    # shard 1 and then, the queue being empty, None, so that the worker
    # ends while this process still computes its shard
    parent, kernel, ended = os.getpid(), census_mod._shard_kernel, []

    def waiting_kernel(n, lo, hi, dicts=None):
        if os.getpid() == parent:
            deadline = time.monotonic() + 10
            while started[0].exitcode is None and time.monotonic() < deadline:
                time.sleep(0.01)
            ended.append(started[0].exitcode)
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", waiting_kernel)
    started = _started_workers(monkeypatch)
    assert run_census(8, shard_count=2, jobs=2).checksum == PINNED_CHECKSUMS[8]
    assert ended == [0]


@fork_only
def test_a_soundness_failure_in_this_process_ends_the_worker(monkeypatch):
    # every word fails in this process and none in the worker: the run
    # stops at the first shard computed here, lets the worker finish the
    # shards it holds and end, and raises the first word of that shard,
    # the lowest-ranked word that fails
    parent, ceiling = os.getpid(), census_mod.none_ceiling
    monkeypatch.setattr(census_mod, "none_ceiling",
                        lambda n: -1 if os.getpid() == parent else ceiling(n))
    kernel, here = census_mod._shard_kernel, []

    def recording_kernel(n, lo, hi, dicts=None):
        if os.getpid() == parent:
            here.append(lo)
        return kernel(n, lo, hi, dicts)

    monkeypatch.setattr(census_mod, "_shard_kernel", recording_kernel)
    started = _started_workers(monkeypatch)
    with pytest.raises(CensusSoundnessError) as exc:
        run_census(8, shard_count=11, jobs=2)
    assert len(here) == 1
    assert (exc.value.rank, exc.value.word) == (here[0], unrank(8, here[0]))
    assert [p.exitcode for p in started] == [0]
    assert not multiprocessing.active_children()


@fork_only
def test_an_interrupt_in_this_process_s_shard_ends_the_workers(tmp_path, monkeypatch):
    # an interrupt while this process saves a shard of its own removes the
    # temp file, terminates the worker and leaves only whole shard files
    d, parent, replace = str(tmp_path / "ck"), os.getpid(), os.replace

    def interrupted(src, dst):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(census_mod.os, "replace", interrupted)
    started = _started_workers(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        run_census(8, shard_count=11, jobs=2, checkpoint_dir=d)
    monkeypatch.undo()
    assert len(started) == 1 and started[0].exitcode is not None
    assert not multiprocessing.active_children()
    names = os.listdir(d)
    assert not [name for name in names if name.endswith(".tmp")]
    assert run_census(8, shard_count=11, jobs=2, checkpoint_dir=d,
                      resume=True).checksum == PINNED_CHECKSUMS[8]


def _stamped(payload):
    """The edited shard as a fresh run would write it, checksum and all."""
    del payload["checksum"]
    return census_mod._shard_text(payload)


def _stale(payload):
    """The edited shard with the checksum of the file it came from."""
    return json.dumps(payload, indent=1)


def _swap_classes(payload):
    for key in ("counts", "descents"):
        payload[key][1], payload[key][2] = payload[key][2], payload[key][1]
    return _stale(payload)


def _pre_checksum_file(payload):
    for key in ("checksum", "kernel_version", "catalog_sha256"):
        del payload[key]
    return _stale(payload)


def _negative_count(payload):
    payload["descents"][0][1] = "-1"
    payload["descents"][1][1] = str(int(payload["descents"][1][1]) + 1)
    return _stamped(payload)


def _extra_word(payload):
    for table in (payload["counts"], payload["descents"][1]):
        table[1] = str(int(table[1]) + 1)
    return _stamped(payload)


def _moved_descent(payload):
    """One word moved from descent row 1 to row 2, counts left as they were."""
    rows = payload["descents"]
    d = next(d for d, v in enumerate(rows[1]) if v != "0")
    rows[1][d] = str(int(rows[1][d]) - 1)
    rows[2][d] = str(int(rows[2][d]) + 1)
    return _stamped(payload)


def _moved_row_word(payload):
    """One word moved from row L1 to row L2-1, counts left as they were."""
    rows = payload["rows"]
    rows["L1"] = str(int(rows["L1"]) - 1)
    rows["L2-1"] = str(int(rows["L2-1"]) + 1)
    return _stamped(payload)


BAD_SHARDS = {
    "tampered tally, stale checksum": (_swap_classes, "checksum mismatch"),
    "wrong lo": (lambda p: _stamped(dict(p, lo=p["lo"] + 1)), "lo is 181"),
    "wrong hi": (lambda p: _stamped(dict(p, hi=p["hi"] - 1)), "hi is 359"),
    "another catalog": (
        lambda p: _stamped(dict(p, catalog_sha256="sha256:" + "0" * 64)),
        "catalog_sha256"),
    "another kernel": (
        lambda p: _stamped(dict(p, kernel_version=census_mod.KERNEL_VERSION + 1)),
        "kernel_version"),
    "file from before checksums": (_pre_checksum_file, "no kernel_version"),
    "unknown row label": (
        lambda p: _stamped(dict(p, rows={**p["rows"], "ZZ": "0"})), "['ZZ']"),
    "negative count": (_negative_count, "negative count"),
    "null count": (lambda p: _stamped(dict(p, rows={**p["rows"], "L1": None})),
                   "rows is not a table of decimal strings"),
    "one word too many": (_extra_word, "do not sum to the shard's word count"),
    "word moved between descent rows": (
        _moved_descent, "descent row 1 does not sum to its count"),
    "word moved between tiers": (_moved_row_word, "rows certifying n-1 sum to"),
    "descent row dropped": (
        lambda p: _stamped(dict(p, descents=p["descents"][:-1])),
        "tables of the wrong size"),
    "descents an object": (
        lambda p: _stamped(dict(p, descents=dict(enumerate(p["descents"])))),
        "rows or descents is not a table of decimal strings"),
    "nested too deeply": (lambda p: "[" * 200_000, "JSON nested too deeply to parse"),
}


@pytest.mark.parametrize("case", BAD_SHARDS)
def test_resume_recomputes_a_bad_shard(case, tmp_path, census_cache, caplog):
    edit, reason = BAD_SHARDS[case]
    d = tmp_path / "ck"
    run_census(6, shard_count=4, checkpoint_dir=str(d))
    path = d / "shard-6-4-0001.json"
    fresh = path.read_text()
    # unedited, both helpers give back the file as written
    assert _stamped(json.loads(fresh)) == _stale(json.loads(fresh)) == fresh
    path.write_text(edit(json.loads(fresh)))
    with caplog.at_level("WARNING", logger="stacksort.census"):
        c = run_census(6, shard_count=4, jobs=2, checkpoint_dir=str(d), resume=True)
    assert c.checksum == census_cache(6).checksum
    assert path.read_text() == fresh  # rewritten as a fresh run writes it
    [record] = caplog.records
    assert record.name == "stacksort.census"
    assert record.levelname == "WARNING"
    assert record.getMessage().startswith(f"shard 1 ({path}): ")
    assert reason in record.getMessage()


# sha256 of the text of shard 1 of run_census(6, shard_count=4) with
# checkpoints, schema 1 and kernel 1: files written before a change to the
# run layer must still resume, so the text a run writes stays fixed.  The
# text holds the catalog's sha256, so an edit of the catalog changes it too
PINNED_SHARD_TEXT = (
    "sha256:94b2e5e95058d8c010819a4ff341a2ed51154957d38097e6672f435463badd49")


def test_shard_file_text_is_pinned(tmp_path):
    run_census(6, shard_count=4, checkpoint_dir=str(tmp_path))
    text = (tmp_path / "shard-6-4-0001.json").read_bytes()
    assert census_mod._sha256(text) == PINNED_SHARD_TEXT


def test_a_failed_atomic_write_leaves_no_temp_file(tmp_path):
    # the write fails once the temp file exists (text that is no str); a
    # failed rename is tests/test_cli.py's report onto a directory
    with pytest.raises(TypeError):
        census_mod._write_atomic(str(tmp_path / "shard.json"), None)
    assert os.listdir(tmp_path) == []


def test_save_load_roundtrip(tmp_path, census_cache):
    c = census_cache(6)
    path = str(tmp_path / "report.json")
    save_report(c, path, verify=verify_census(c))
    loaded = load_census(path)
    assert loaded == c
    payload = json.loads(Path(path).read_text())
    assert payload["kind"] == "stacksort-census"
    assert payload["counts_by_complexity"][0] == "1"  # decimal strings
    assert all(chk["ok"] for chk in payload["verify"])


def test_load_rejects_tampered_counts(tmp_path, census_cache):
    path = str(tmp_path / "report.json")
    save_report(census_cache(5), path)
    payload = json.loads(Path(path).read_text())
    payload["counts_by_complexity"][2] = "50"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="checksum"):
        load_census(path)


def test_load_rejects_unknown_schema(tmp_path, census_cache):
    path = str(tmp_path / "report.json")
    save_report(census_cache(5), path)
    payload = json.loads(Path(path).read_text())
    payload["schema_version"] = 99
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError, match="schema_version"):
        load_census(path)


def test_checksum_stable_across_shard_metadata(census_cache):
    a = run_census(5, shard_count=1)
    b = run_census(5, shard_count=6)
    assert a.shard_count != b.shard_count
    assert a.checksum == b.checksum


def test_validate_catches_corruption(census_cache):
    c = census_cache(5)
    bad = Census(
        n=5,
        counts_by_complexity=(1, 41, 49, 23, 7),
        counts_by_row=c.counts_by_row,
        descent_matrix=c.descent_matrix,
    )
    with pytest.raises(ValueError):
        bad.validate()
    bad_rows = dict(c.counts_by_row)
    bad_rows["L1"] += 1
    with pytest.raises(ValueError):
        Census(5, c.counts_by_complexity, bad_rows, c.descent_matrix).validate()


def _moved_descent_word(c):
    """The census with one word of complexity 1 moved to a descent cell that
    holds none, leaving -1 behind: every sum still holds."""
    matrix = [list(row) for row in c.descent_matrix]
    d = matrix[1].index(0)
    matrix[1][d] -= 1
    matrix[1][1] += 1
    return Census(c.n, c.counts_by_complexity, c.counts_by_row,
                  tuple(map(tuple, matrix)))


def _invalid_row_label(c):
    """The census with an empty row of a tier not valid at its length."""
    return Census(c.n, c.counts_by_complexity, {**c.counts_by_row, "T1a": 0},
                  c.descent_matrix)


@pytest.mark.parametrize("n, corrupt, reason", [
    (6, _moved_descent_word, "negative count"),
    (5, _invalid_row_label, r"row labels \['T1a'\]"),
])
def test_wrong_tallies_with_a_matching_checksum_are_rejected(
        n, corrupt, reason, tmp_path, census_cache):
    bad = corrupt(census_cache(n))
    with pytest.raises(ValueError, match=reason):
        bad.validate()
    # saved with a fresh checksum, the report does not load either
    path = str(tmp_path / "report.json")
    save_report(bad, path)
    with pytest.raises(ValueError, match=reason):
        load_census(path)
    # of the checks, only the forms by descents and Bóna's symmetry (of the
    # words of at most three passes) notice a moved descent
    failures = {chk.name for chk in verify_census(bad).failures}
    assert failures == ({f"{name}-d{d}" for name in
                         ("eulerian", "narayana", "jacquard-schaeffer", "symmetry-3")
                         for d in (0, 1)}
                        if corrupt is _moved_descent_word else set())


def test_soundness_guard_trips(monkeypatch):
    # force the no-match ceiling below 0 so the very first word trips it
    monkeypatch.setattr(census_mod, "none_ceiling", lambda n: -1)
    with pytest.raises(CensusSoundnessError) as e:
        run_census(4)
    assert e.value.word == (1, 2, 3, 4)
    assert e.value.rank == 0
    assert e.value.complexity == 0
    # the error survives the trip back from a worker process
    back = pickle.loads(pickle.dumps(e.value))
    assert (back.word, back.rank, back.label, back.complexity, str(back)) == (
        e.value.word, 0, None, 0, str(e.value))


def test_sorted_word_clash_at_every_leaf_depth(monkeypatch):
    # the sorted word is the one with no descent, so it alone has
    # complexity 0, whether its leaf is the root (n <= 5) or lies deeper;
    # with no row allowed to leave a word unclassified, it trips first
    monkeypatch.setattr(census_mod, "none_ceiling", lambda n: -1)
    for n in range(1, 11):
        with pytest.raises(CensusSoundnessError) as e:
            census_mod._shard_kernel(n, 0, 1)
        got = (e.value.word, e.value.rank, e.value.complexity, e.value.label)
        assert got == (tuple(range(1, n + 1)), 0, 0, None), n
    # past the sorted word, the first to trip is rank 1, whose rank the
    # kernel recovers from the word itself
    for n in range(5, 11):
        with pytest.raises(CensusSoundnessError) as e:
            census_mod._shard_kernel(n, 1, factorial(n))
        w = unrank(n, 1)
        assert (e.value.word, e.value.rank) == (tuple(w), 1), n
        assert e.value.complexity == words_mod.complexity(w), n


@given(st.data())
def test_the_bytes_check_agrees_with_the_word_loop(data):
    # a leaf's check is one compare of two translates, which agree at a word
    # exactly when it passes the per-word test, and so are equal exactly
    # when every word passes, for any ceiling from -1 up
    # (test_sorted_word_clash_at_every_leaf_depth patches it to -1, where no
    # complexity is certified) and any row levels above it.  Each word's
    # complexity is often the one its label certifies, so that whole leaves
    # pass as well as fail
    ceiling = data.draw(st.integers(-1, 12), "ceiling")
    level = data.draw(st.lists(st.integers(ceiling + 1, 13), max_size=5), "levels")
    # (label code, complexity) of each word, None for the one it certifies
    words = data.draw(st.lists(st.tuples(st.integers(0, len(level)),
                                         st.none() | st.integers(0, 13)), max_size=120))
    ls = bytes(j for j, _ in words)
    cs = bytes((level + [max(ceiling, 0)])[j] if k is None else k for j, k in words)
    clamp, certify = census_mod._check_tables(level, ceiling)
    passes = [k <= ceiling if j == len(level) else k == level[j] for k, j in zip(cs, ls)]
    got, want = cs.translate(clamp), ls.translate(certify)
    assert (got == want) == all(passes)
    # word by word too: the kernel names the first place they differ
    assert [a == b for a, b in zip(got, want)] == passes


def test_the_bytes_check_refuses_a_row_at_the_ceiling():
    with pytest.raises(AssertionError):
        census_mod._check_tables([4, 3], 3)


def test_soundness_guard_trips_on_wrong_offset(monkeypatch):
    # certify L1 rows one class too low: the first L1 word at n=4 must trip
    monkeypatch.setattr(patterns_mod, "_TIERS",
                        (("L1", 2, 2), ("L2", 2, 4), ("T", 3, 6)))
    with pytest.raises(CensusSoundnessError) as e:
        run_census(4)
    assert e.value.word == (2, 3, 4, 1)
    assert e.value.rank == rank((2, 3, 4, 1))
    assert f"(rank {rank((2, 3, 4, 1))})" in str(e.value)
    assert e.value.label == "L1"
    assert e.value.complexity == 3


def test_soundness_message_writes_the_word_as_the_cli_does():
    # letters above 9 are space-separated, as in the reproduction command
    w = (2, 10, 1, 3, 4, 5, 6, 7, 8, 9)
    exc = CensusSoundnessError(w, rank(w), "L1", 8, 9)
    assert str(exc) == (f"word 2 10 1 3 4 5 6 7 8 9 (rank {rank(w)}) matches L1 "
                        "(certifies 9) but has complexity 8")


def test_soundness_error_carries_the_certified_level(monkeypatch):
    # an unclassified word is certified up to the none-ceiling ...
    monkeypatch.setattr(census_mod, "none_ceiling", lambda n: -1)
    with pytest.raises(CensusSoundnessError) as e:
        run_census(4)
    assert (e.value.label, e.value.certified) == (None, -1)
    monkeypatch.undo()
    # ... a labelled one at n - offset of its row
    monkeypatch.setattr(patterns_mod, "_TIERS",
                        (("L1", 2, 2), ("L2", 2, 4), ("T", 3, 6)))
    with pytest.raises(CensusSoundnessError) as e:
        run_census(5)
    assert (e.value.label, e.value.certified) == ("L1", 3)
    # the error survives the trip back from a worker process
    back = pickle.loads(pickle.dumps(e.value))
    assert (back.word, back.rank, back.label, back.complexity, back.certified,
            str(back)) == (e.value.word, e.value.rank, "L1", 4, 3, str(e.value))
    assert "certifies 3" in str(back)


def test_descent_polynomial(census_cache):
    c = census_cache(6)
    dp = descent_polynomial(c)
    assert sum(dp) == 408  # words sortable in at most n-4 = 2 passes
    assert dp[0] == 1      # only the identity has no descents
    assert dp[-1] == 1     # the reverse word sorts in one pass
    assert descent_polynomial(c, cutoff=5) == tuple(
        sum(col) for col in zip(*c.descent_matrix))


@pytest.mark.parametrize("n, cutoff", [(n, cutoff) for n in range(1, 8)
                                       for cutoff in range(-2, n + 1)])
def test_descent_polynomial_by_cutoff(n, cutoff, census_cache):
    c = census_cache(n)
    dp = descent_polynomial(c, cutoff=cutoff)
    if cutoff < 0:
        assert dp == (0,) * n
    if cutoff >= n - 1:
        assert dp == REGISTRY["eulerian"].evaluate(n)
    assert sum(dp) == sum(v for cls, v in enumerate(c.counts_by_complexity)
                          if cls <= cutoff)


def test_eulerian_totals(census_cache):
    # cutting at the top of the range counts all words by descents
    c = census_cache(5)
    assert descent_polynomial(c, cutoff=4) == (1, 26, 66, 26, 1)


def test_csv_exports(census_cache):
    c = census_cache(5)
    lines = class_counts_csv(c).strip().splitlines()
    assert lines[0] == "n,class,count"
    assert lines[1] == "5,0,1"
    assert lines[-1] == "5,4,6"
    rows = row_counts_csv(c).strip().splitlines()
    assert rows[0] == "n,row_label,count"
    assert rows[1] == "5,L1,6"
    assert len(rows) == 1 + 6  # L1 + five L2 rows are valid at n=5
