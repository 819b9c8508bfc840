import json
import multiprocessing
import os
import pickle
import random
from math import factorial
from pathlib import Path

import pytest

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
from stacksort.patterns import CompiledCatalog, _positions, builtin_catalog, tier
from stacksort.words import (
    Word,
    descents,
    identity_word,
    next_permutation,
    rank,
    stack_sort_pass,
    unrank,
)


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


def _reference_words(n, lo, hi):
    """(complexity, descents, label) of ranks [lo, hi), one word at a time
    through unrank, next_permutation, whole stack passes, descents and the
    compiled classify: the census kernel before the prefix-tree walk, kept
    as its oracle.  Raises CensusSoundnessError like the kernel."""
    if hi <= lo:
        return
    cc = CompiledCatalog(builtin_catalog(), n)
    ceiling = census_mod.none_ceiling(n)
    w = list(unrank(n, lo))
    for r in range(lo, hi):
        k, label = _passes_to_identity(w), cc.classify(w, _positions(w))
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
                                             (10, 2, 3000), (12, 2, 3000)])
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


def test_leaf_memo_lives_in_one_kernel_call(monkeypatch):
    # the 40,320 words of S_9 that start with 1 give 1,780 distinct S(w),
    # as many as S_8 has sorted words: the dict of S(w) computes each once
    calls = []
    complexity = census_mod._complexity
    monkeypatch.setattr(census_mod, "_complexity",
                        lambda u: calls.append(1) or complexity(u))
    first = census_mod._shard_kernel(9, 0, 40320)
    once = len(calls)
    assert census_mod._shard_kernel(9, 0, 40320) == first
    assert len(calls) == 2 * once  # nothing carried over from the first call
    assert once <= 1780
    assert first == _reference_kernel(9, 0, 40320)


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


def test_kernel_generates_the_cells_once_per_process(monkeypatch):
    calls = []
    generate = patterns_mod._generate
    monkeypatch.setattr(patterns_mod, "_generate",
                        lambda bodies, results=(): calls.append(len(bodies))
                        or generate(bodies, results))
    catalog = builtin_catalog()
    monkeypatch.delitem(catalog._compiled, 9, raising=False)
    first = census_mod._shard_kernel(9, 0, 5000)
    assert len(calls) == 1  # every cell of n = 9 in one generation
    assert census_mod._shard_kernel(9, 0, 5000) == first
    assert len(calls) == 1
    w = (3, 4, 5, 6, 7, 8, 2, 9, 1)
    assert catalog.compiled(9).classify(w, _positions(w)) == "L1"
    assert len(calls) == 1  # classify shares the kernel's compiled catalog


@pytest.mark.parametrize("patch", ["tiers", "ceiling", "T5 tier", "T4 tier"])
def test_walk_raises_on_the_reference_word(patch, monkeypatch):
    # an L1 offset one too high, or an unclassified ceiling one too low, makes
    # many words fail: both kernels must raise on the same, first one.  T5 or
    # T4 rows certifying one level too high make fewer words fail.  Under
    # the T4 patch the first failing word of the last two ranges is one
    # whose leaf state an earlier prefix of the range reached, a memo hit;
    # no other range of any patch raises on a hit (counted on an
    # instrumented copy of the kernel)
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
        try:
            got = census_mod._shard_kernel(n, lo, hi)
        except CensusSoundnessError as exc:
            got = (exc.word, exc.rank, exc.label, exc.complexity, exc.certified)
        assert got == want, (n, lo, hi)
    assert 0 < raised < len(ranges)


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


def test_resume_of_a_finished_run_starts_no_pool(tmp_path, census_cache, monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, jobs=2, checkpoint_dir=d)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(census_mod, "ProcessPoolExecutor", no_pool)
    c = run_census(6, shard_count=8, jobs=2, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum


def _drop_length_state(monkeypatch, n):
    """Forget the prefix tables and the catalog compiled for length n that
    this process holds, so that the next use builds them again."""
    words_mod._prefix_table.cache_clear()
    monkeypatch.delitem(builtin_catalog()._compiled, n, raising=False)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the caller's state")
def test_forked_workers_inherit_the_per_length_state(census_cache, monkeypatch):
    serial = census_cache(7).checksum
    parent = os.getpid()

    def here_only(f):
        def guarded(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"a worker called {f.__name__}")
            return f(*args, **kwargs)
        return guarded

    monkeypatch.setattr(patterns_mod, "_generate", here_only(patterns_mod._generate))
    monkeypatch.setattr(words_mod, "_pass", here_only(words_mod._pass))
    _drop_length_state(monkeypatch, 7)
    assert run_census(7, shard_count=4, jobs=2).checksum == serial


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


def test_partial_resume_computes_only_missing_shards(tmp_path, census_cache,
                                                     monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, checkpoint_dir=d)
    for index in (1, 4, 6):
        os.remove(os.path.join(d, f"shard-6-8-{index:04d}.json"))
    kernel, ranges = census_mod._shard_kernel, []

    def recording_kernel(n, lo, hi):
        ranges.append((lo, hi))
        return kernel(n, lo, hi)

    monkeypatch.setattr(census_mod, "_shard_kernel", recording_kernel)
    c = run_census(6, shard_count=8, checkpoint_dir=d, resume=True)
    assert c.checksum == census_cache(6).checksum
    assert ranges == [(90 * i, 90 * (i + 1)) for i in (1, 4, 6)]


def test_partial_resume_sizes_the_pool_to_the_shards_left(tmp_path, census_cache,
                                                         monkeypatch):
    d = str(tmp_path / "ck")
    run_census(6, shard_count=8, checkpoint_dir=d)
    pools = []

    class InlinePool:  # runs the tasks here, recording what it was given
        def __init__(self, max_workers):
            self.record = {"workers": max_workers, "shards": []}
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.record["shards"] += [t[2] for t in tasks]
            return map(fn, tasks)

    monkeypatch.setattr(census_mod, "ProcessPoolExecutor", InlinePool)
    for missing, want in (((2, 5, 7), [{"workers": 3, "shards": [2, 5, 7]}]),
                          ((3,), [])):  # one shard left runs in this process
        for index in missing:
            os.remove(os.path.join(d, f"shard-6-8-{index:04d}.json"))
        pools.clear()
        c = run_census(6, shard_count=8, jobs=4, checkpoint_dir=d, resume=True)
        assert c.checksum == census_cache(6).checksum
        assert pools == want
    assert len(os.listdir(d)) == 8


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
    # of the formulas, only the forms by descents notice a moved descent
    failures = {chk.name for chk in verify_census(bad).failures}
    assert failures == ({f"{name}-d{d}" for name in
                         ("eulerian", "narayana", "jacquard-schaeffer") for d in (0, 1)}
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
