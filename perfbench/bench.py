"""Workloads, correctness gates, tracing and layer replays for run.py.

Everything here calls the program only through the public functions of
``stacksort.words``, ``patterns``, ``forbidden``, ``formulas``, ``census``
and ``cli``.  An *answer* is what a user waits for: one census, one resume
to a verified report, or one query word.  Each answer is timed, checked
against a reference, and counted as attempted, and as failed when a check
breaks or the program raises.

Times of work done in this process are scaled by the host's speed at that
moment: just before a census-serial answer (or a batch of query words, or
a replay pass) a fixed pure-Python loop that never calls the program is
timed, and the time is multiplied by REFERENCE_CALIBRATION_S over the
loop's time.  On a shared machine the speed of a core drifts by up to
1.6x over minutes; both the loop and the program slow down together, so
the scaled figures keep the program's changes and drop the host's.  The
record keeps the unscaled figures too.  A resume is scaled the same way by
the time of an empty process pool.  Sharded census answers and cold starts
are not scaled (see README.md, "Scaled times").
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from importlib.resources import files
from math import factorial

import stacksort
from stacksort import (
    AbsValue,
    Alt,
    AnyOne,
    CompiledCatalog,
    RelValue,
    Star,
    Word,
    builtin_catalog,
    certified_class,
    complexity,
    complexity_bounds,
    descents,
    load_census,
    next_permutation,
    parse_catalog,
    run_census,
    save_report,
    stack_sort,
    tier,
    unrank,
    verify_census,
)

# Report checksums of the census, pinned from the README (n = 5) and from
# runs of the seed implementation (n = 8, 9, 10).
REFERENCE_CHECKSUMS = {
    5: "sha256:4a51e5f10e58aeb4f4aa691dc9bd3be58dba9304af968057e9308d56dc4336ee",
    8: "sha256:e154f75f4a5e366a4534504b1e5c22b9e34a7b50f13388cf8825318a08e371f1",
    9: "sha256:8f46fe43396003e268dbc969fb19c194ddfd5015c71e1f514dece2cfb3b9faaa",
    10: "sha256:17a798e2941afe4bdd69497883eff703bafc33e19f113c8c7c9352296a4ede34",
}

QUERY_LENGTHS = tuple(range(8, 17))
QUERY_HARD_SHARE = 0.25     # share of query words built from a catalog row
QUERY_BATCH = 256           # words generated, untimed, between timed stretches
ORACLE_EVERY = 16           # every 16th query word is replayed through stack_sort
MIN_CENSUS_ANSWERS = 3
CALIBRATE_EVERY = 16        # query words per calibration
REFERENCE_CALIBRATION_S = 0.004
REFERENCE_POOL_S = 0.034    # pool_calibration_s(2, 102) on the tuning machine
SETUP_STARTS = 15           # cold starts per run; the median is reported
CLI_STARTS = 7              # cold starts of the command line in a traced run
KERNEL_SAMPLE = 20000       # ranks replayed through the per-word functions
QUERY_SAMPLE = 2000         # query words replayed through the per-word functions
GENERAL_SAMPLE = 400        # words replayed through the general matcher
REPEATS = 3                 # replay passes per function; the median is reported

OUT_DIR = os.path.join("perfbench", "out")

END_TO_END_UNITS = {
    "words_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "words.next_permutation_ns": "ns",
    "words.complexity_ns": "ns",
    "words.descents_ns": "ns",
    "words.passes_per_word": "count",
    "words.replay_ns_per_word": "ns",
    "patterns.compiled_classify_ns": "ns",
    "patterns.rows_probed_per_word": "count",
    "patterns.labelled_share": "%",
    "patterns.general_classify_us": "us",
    "patterns.catalog_parse_ms": "ms",
    "patterns.compile_ms": "ms",
    "forbidden.bounds_us": "us",
    "formulas.verify_ms": "ms",
    "census.cores_busy": "ratio",
    "census.cpu_ns_per_word": "ns",
    "census.resume_read_ms": "ms",
    "census.report_ms": "ms",
    "census.checkpoint_files": "count",
    "census.checkpoint_bytes": "B",
    "cli.cold_start_ms": "ms",
    "trace.overhead_pct": "%",
}


WORDS_PER_SHARD = 3544      # the long-run recipe's density: n = 10 in 1024 shards


def shard_count(n: int) -> int:
    """Shards of about WORDS_PER_SHARD words: 11 at n = 8, 1024 at n = 10."""
    return max(2, round(factorial(n) / WORDS_PER_SHARD))


def jobs() -> int:
    """Cores this process may run on (what nproc prints)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans (name, start ns, end ns, parent index) kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def self_ms_by_layer(self) -> dict:
        """Span time minus the time its child spans cover, summed per layer.

        The layer is the span name up to its first dot.  Spans nest without
        overlap, since the benchmark makes its calls from one thread.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner) / 1e6
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "self_ms_by_layer": self.self_ms_by_layer()}, fh)


_NO_SPAN = nullcontext()


class _Untraced:
    def span(self, name: str):
        return _NO_SPAN


UNTRACED = _Untraced()


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Attempted and failed answers, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def answer(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.extend(problems)


def _guarded(tally: Tally, fn):
    """Run one answer; a raise from the program counts as a failed answer."""
    try:
        problems = fn()
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        problems = [f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(limit=3)]
    tally.answer(problems)


def census_problems(census, expected: dict) -> list:
    want = expected.get(census.n)
    problems = []
    if census.checksum != want:
        problems.append(f"n={census.n}: checksum {census.checksum}, expected {want}")
    report = verify_census(census)
    problems += [f"n={census.n}: verify {c.name} expected {c.expected} got {c.actual}"
                 for c in report.failures]
    return problems


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; with fewer than 1/(1-q) values, the largest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus its largest waited-for child.

    The only children waited for by then are pool workers: cold starts
    belong to the ColdStarts helper, which is waited for afterwards.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


_CALIBRATION_WORDS = [random.Random(0).sample(range(1, 13), 12) for _ in range(300)]


def calibration_s() -> float:
    """Time of a fixed pure-Python loop of stack passes, never the program's."""
    t0 = time.perf_counter()
    for v in _CALIBRATION_WORDS:
        for _ in range(3):
            out: list = []
            stack: list = []
            for x in v:
                while stack and stack[-1] < x:
                    out.append(stack.pop())
                stack.append(x)
            while stack:
                out.append(stack.pop())
            sorted(v, reverse=True)
    return time.perf_counter() - t0


def _nothing(x):
    return x


def pool_calibration_s(jobs: int, tasks: int) -> float:
    """Time to start a process pool and pass it ``tasks`` empty tasks.

    A resume spends most of its time so, and on a shared host that time
    grows far more than the calibration loop's when other machines take
    the cores (see README.md, "Scaled times").
    """
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(_nothing, range(tasks)))
    return time.perf_counter() - t0


class Speed:
    """The host's current speed, from the median of the last few probes.

    The probe is the calibration loop unless another is given, with the
    time it takes at reference speed.  The median damps the jitter of a
    single probe; the host's drift takes seconds to minutes, which the
    short window still follows.
    """

    def __init__(self, probe=calibration_s, reference: float = REFERENCE_CALIBRATION_S):
        self.probe = probe
        self.reference = reference
        self.recent = deque((probe() for _ in range(3)), maxlen=5)

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-speed time."""
        self.recent.append(self.probe())
        return self.reference / statistics.median(self.recent)


_COLD_START_TIMER = """\
import subprocess, sys, time
expect, argv = sys.argv[1], sys.argv[2:]
for _ in sys.stdin:
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    ok = done.returncode == 0 and done.stdout.strip() == expect
    print(elapsed if ok else -1.0, flush=True)
"""


class ColdStarts:
    """Wall times of fresh interpreters running argv, started by a helper.

    A start fails unless it exits 0 and prints ``expect``.

    The helper, not this process, is their parent, so they stay out of this
    process's RUSAGE_CHILDREN until close() waits for the helper.  Not
    scaled: a cold start is mostly process creation and file reads, which
    do not follow the calibration loop's speed.
    """

    def __init__(self, argv: list, expect: str = ""):
        self.argv = argv
        self.proc = subprocess.Popen([sys.executable, "-c", _COLD_START_TIMER, expect, *argv],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def take(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        seconds = float(self.proc.stdout.readline())
        if seconds < 0:
            raise RuntimeError(f"cold start {self.argv[1:]} failed")
        return seconds

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def setup_argv(lengths) -> list:
    """Cold start: import stacksort, load the catalog, compile it per length."""
    code = ("import stacksort as s; c = s.builtin_catalog(); "
            f"[s.CompiledCatalog(c, n) for n in {list(lengths)!r}]")
    return [sys.executable, "-c", code]


def provenance() -> dict:
    catalog = files("stacksort").joinpath("catalog.txt").read_bytes()
    return {
        "nproc": jobs(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "stacksort_version": stacksort.__version__,
        "catalog_sha256": hashlib.sha256(catalog).hexdigest(),
    }


def git_sha():
    """HEAD of the repository in the current directory, or None."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# generated inputs


def _pick_branch(rng: random.Random, tokens) -> list:
    flat = []
    for t in tokens:
        if isinstance(t, Alt):
            flat.extend(_pick_branch(rng, rng.choice(t.branches)))
        else:
            flat.append(t)
    return flat


def row_word(rng: random.Random, row, n: int) -> list:
    """A random length-n word shaped like one branch of a catalog row.

    Pinned letters go where the branch puts them; the other letters are
    shuffled and spread over the stars.  ``minus`` and ``where`` clauses
    are ignored, so the word is usually, not always, labelled by the row.
    """
    tokens = _pick_branch(rng, row.tokens)
    pinned = [n - t.offset if isinstance(t, RelValue) else t.value
              for t in tokens if isinstance(t, (RelValue, AbsValue))]
    free = [x for x in range(1, n + 1) if x not in pinned]
    rng.shuffle(free)
    stars = sum(isinstance(t, Star) for t in tokens)
    spare = len(free) - sum(isinstance(t, AnyOne) for t in tokens)
    cuts = sorted(rng.randint(0, spare) for _ in range(stars - 1))
    sizes = iter(b - a for a, b in zip([0] + cuts, cuts + [spare]))
    out: list = []
    for t in tokens:
        if isinstance(t, Star):
            k = next(sizes)
            out += free[:k]
            free = free[k:]
        elif isinstance(t, AnyOne):
            out.append(free.pop(0))
        else:
            out.append(n - t.offset if isinstance(t, RelValue) else t.value)
    return out


def query_words(rng: random.Random, count: int) -> list:
    """Standard words with lengths uniform over QUERY_LENGTHS.

    A QUERY_HARD_SHARE of them are built from a random catalog row valid at
    their length, so the stream holds words of complexity n-1 to n-3 that
    uniform sampling almost never produces at these lengths.
    """
    rows = builtin_catalog().rows
    out = []
    for _ in range(count):
        n = rng.choice(QUERY_LENGTHS)
        if rng.random() < QUERY_HARD_SHARE:
            row = rng.choice([r for r in rows if n >= tier(r.label)[1]])
            w = row_word(rng, row, n)
        else:
            w = list(range(1, n + 1))
            rng.shuffle(w)
        out.append(Word(w))
    return out


def oracle_complexity(w: Word) -> int:
    """Passes of the recursive stack_sort until the word is sorted."""
    ident = Word(range(1, len(w) + 1))
    k = 0
    while w != ident:
        w = stack_sort(w)
        k += 1
    return k


# ---------------------------------------------------------------------------
# workloads


class Run:
    """One invocation: a workload, its seed, its answers and timings."""

    def __init__(self, workload, seed, seconds, trace, n, expected):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n = n
        self.expected = expected
        self.rng = random.Random(seed)
        self.tally = Tally()
        self.tracer = Tracer()
        self.speed = Speed()
        self.latencies: list = []       # scaled seconds per untraced answer
        self.raw_latencies: list = []   # the same, unscaled
        self.last_answer_s = 0.0
        self.traced_latencies: list = []
        self.words = 0                  # words in untraced answers
        self.labelled = 0               # query words the catalog labelled
        self.histogram: dict = {}
        self.info: dict = {}
        self.work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.setup = None if trace else ColdStarts(
            setup_argv(QUERY_LENGTHS if workload == "query" else (n,)))
        self.cold_starts: list = []
        self.started = 0.0

    def cold_start_due(self) -> None:
        """Take the next of SETUP_STARTS cold starts once its turn has come.

        The starts are spread evenly over an untraced run, because the
        host's speed for process start-up changes within seconds; starts
        taken back to back all see the same moment.
        """
        if self.trace or len(self.cold_starts) >= SETUP_STARTS:
            return
        if not self.cold_starts and not self.started:
            self.setup.take()  # unmeasured: writes the bytecode caches
            self.started = time.perf_counter()
        if time.perf_counter() - self.started >= (
                len(self.cold_starts) * self.seconds / SETUP_STARTS):
            self.cold_starts.append(self.setup.take())

    def setup_s(self) -> float:
        while len(self.cold_starts) < SETUP_STARTS:
            self.cold_starts.append(self.setup.take())
        return statistics.median(self.cold_starts)

    def tracer_for(self, i: int):
        """With --trace 1, every other answer is traced, to show the overhead."""
        return self.tracer if self.trace and i % 2 else UNTRACED

    def record(self, i: int, seconds: float, scale: float, words: int, length: int) -> None:
        self.last_answer_s = seconds
        if self.trace and i % 2:
            self.traced_latencies.append(seconds * scale)
            return
        self.latencies.append(seconds * scale)
        self.raw_latencies.append(seconds)
        self.words += words
        self.histogram[length] = self.histogram.get(length, 0) + words

    # -- census workloads ---------------------------------------------------

    def census_loop(self, answer) -> None:
        """Repeat a census answer while the next one fits in the run."""
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if i >= MIN_CENSUS_ANSWERS and elapsed + self.last_answer_s > self.seconds:
                break
            self.cold_start_due()
            answer(i)
            i += 1

    def census_serial(self) -> None:
        n = self.n
        self.info.update(n=n, shards=1, jobs=1)

        def answer(i):
            tr = self.tracer_for(i)

            def one():
                scale = self.speed.scale()
                t0 = time.perf_counter()
                with tr.span("census.run_census"):
                    c = run_census(n, jobs=1)
                self.record(i, time.perf_counter() - t0, scale, factorial(n), n)
                return census_problems(c, self.expected)

            _guarded(self.tally, one)

        self.census_loop(answer)

    def census_sharded(self) -> None:
        n, shards, j = self.n, shard_count(self.n), jobs()
        self.info.update(n=n, shards=shards, jobs=j)

        def answer(i):
            tr = self.tracer_for(i)
            directory = os.path.join(self.work, f"sharded-{i}")

            def one():
                t0 = time.perf_counter()
                with tr.span("census.run_census"):
                    c = run_census(n, shard_count=shards, jobs=j, checkpoint_dir=directory)
                # every core is busy, which the calibration loop does not see
                self.record(i, time.perf_counter() - t0, 1.0, factorial(n), n)
                return census_problems(c, self.expected)

            _guarded(self.tally, one)
            shutil.rmtree(directory, ignore_errors=True)

        self.census_loop(answer)

    def census_resume(self) -> None:
        n, shards, j = self.n, shard_count(self.n), jobs()
        self.info.update(n=n, shards=shards, jobs=j)
        directory = os.path.join(self.work, "resume")
        first = run_census(n, shard_count=shards, jobs=j, checkpoint_dir=directory)
        problems = census_problems(first, self.expected)
        if problems:
            self.tally.answer(problems)
            return
        report = os.path.join(self.work, "report.json")
        pool_speed = Speed(lambda: pool_calibration_s(j, shards), REFERENCE_POOL_S)

        def answer(i):
            tr = self.tracer_for(i)

            def one():
                scale = pool_speed.scale()
                t0 = time.perf_counter()
                with tr.span("bench.resume_to_report"):
                    with tr.span("census.run_census"):
                        c = run_census(n, shard_count=shards, jobs=j,
                                       checkpoint_dir=directory, resume=True)
                    with tr.span("formulas.verify_census"):
                        v = verify_census(c)
                    with tr.span("census.save_report"):
                        save_report(c, report, verify=v)
                    with tr.span("census.load_census"):
                        back = load_census(report)
                self.record(i, time.perf_counter() - t0, scale, factorial(n), n)
                problems = census_problems(c, self.expected)
                if c.checksum != first.checksum:
                    problems.append(f"resume checksum {c.checksum} != first pass "
                                    f"{first.checksum}")
                if not v.ok:
                    problems.append("verify_census failed on the resumed census")
                if back.checksum != c.checksum:
                    problems.append("reloaded report checksum differs")
                return problems

            _guarded(self.tally, one)

        self.census_loop(answer)

    # -- query --------------------------------------------------------------

    def query(self) -> None:
        catalog = builtin_catalog()
        catalog.classify(Word([2, 3, 1]))  # warm: the catalog parse is set-up
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds:
            self.cold_start_due()
            for w in query_words(self.rng, QUERY_BATCH):
                tr = self.tracer_for(i)
                if i % CALIBRATE_EVERY == 0:
                    scale = self.speed.scale()

                def one():
                    t0 = time.perf_counter()
                    with tr.span("bench.query_word"):
                        with tr.span("words.complexity"):
                            c = complexity(w)
                        with tr.span("patterns.classify"):
                            label = catalog.classify(w)
                        with tr.span("forbidden.complexity_bounds"):
                            lo, hi = complexity_bounds(w)
                    self.record(i, time.perf_counter() - t0, scale, 1, len(w))
                    self.labelled += label is not None
                    problems = []
                    if not lo <= c <= hi:
                        problems.append(f"{w}: bounds ({lo}, {hi}) miss complexity {c}")
                    if label is not None and certified_class(label, len(w)) != c:
                        problems.append(f"{w}: {label} certifies "
                                        f"{certified_class(label, len(w))}, complexity {c}")
                    if i % ORACLE_EVERY == 0 and oracle_complexity(w) != c:
                        problems.append(f"{w}: complexity {c} disagrees with stack_sort")
                    return problems

                _guarded(self.tally, one)
                i += 1
        self.info.update(lengths=list(QUERY_LENGTHS), hard_share_built=QUERY_HARD_SHARE,
                         oracle_every=ORACLE_EVERY,
                         labelled_share=self.labelled / max(1, self.tally.attempted))

    # -- metrics ------------------------------------------------------------

    def answer_metrics(self, lat: list) -> dict:
        if self.workload == "query":
            words_per_s = self.words / sum(lat)
        else:
            words_per_s = statistics.median(factorial(self.n) / t for t in lat)
        return {
            "words_per_s": words_per_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            # Recorded, not gated: see README.md, "End-to-end metrics".
            "latency_p99_ms": percentile(lat, 0.99) * 1e3,
        }

    def end_to_end(self) -> dict:
        self.info["latency_samples"] = len(self.latencies)
        self.info["unscaled"] = self.answer_metrics(self.raw_latencies)
        if self.workload != "query":
            self.info["answer_ms_unscaled"] = [t * 1e3 for t in self.raw_latencies]
        m = self.answer_metrics(self.latencies)
        self.info["latency_p99_ms"] = m.pop("latency_p99_ms")
        m["setup_s"] = self.setup_s()
        self.info["cold_start_s"] = self.cold_starts
        m["peak_rss_mib"] = peak_rss_mib()
        return {name: (value, END_TO_END_UNITS[name]) for name, value in m.items()}


# ---------------------------------------------------------------------------
# layer replays (traced runs only)


def _time_ns(fn, items, speed: Speed) -> float:
    """Median over REPEATS passes of the mean scaled ns per call of fn over items."""
    per = []
    for _ in range(REPEATS):
        scale = speed.scale()
        t0 = time.perf_counter_ns()
        for x in items:
            fn(x)
        per.append((time.perf_counter_ns() - t0) * scale / len(items))
    return statistics.median(per)


def kernel_replay(run: Run) -> dict:
    """Replay a seeded sample through each public per-word function."""
    rng = random.Random(run.seed)
    if run.workload == "query":
        sample = query_words(rng, QUERY_SAMPLE)
    else:
        total = factorial(run.n)
        ranks = range(total) if total <= KERNEL_SAMPLE else rng.sample(range(total), KERNEL_SAMPLE)
        sample = [unrank(run.n, r) for r in ranks]
    catalog = builtin_catalog()
    compiled = {n: CompiledCatalog(catalog, n) for n in {len(w) for w in sample}}
    positions = []
    for w in sample:
        pos = [0] * (len(w) + 1)
        for i, x in enumerate(w):
            pos[x] = i
        positions.append(pos)
    pairs = list(zip(sample, positions))
    lists = [list(w) for w in sample]

    def timed(name, fn, items):
        with run.tracer.span(name):
            return _time_ns(fn, items, run.speed)

    m = {
        # each pass advances the lists again: every call still gets a fresh word
        "words.next_permutation_ns": timed("words.next_permutation", next_permutation, lists),
        "words.complexity_ns": timed("words.complexity", complexity, sample),
        "words.descents_ns": timed("words.descents", descents, sample),
        "patterns.compiled_classify_ns": timed(
            "patterns.compiled_classify",
            lambda p: compiled[len(p[0])].classify(p[0], p[1]), pairs),
    }
    m["words.replay_ns_per_word"] = (m["words.next_permutation_ns"] + m["words.complexity_ns"]
                                     + m["words.descents_ns"]
                                     + m["patterns.compiled_classify_ns"])
    m["words.passes_per_word"] = statistics.fmean(complexity(w) for w in sample)
    probed = labelled = 0
    for w, pos in pairs:
        cc = compiled[len(w)]
        bucket = cc.buckets[min(len(w) - 1 - pos[len(w)], 4)]
        label = cc.classify(w, pos)
        if label is None:
            probed += len(bucket)
        else:
            labelled += 1
            probed += 1 + [cr.label for cr in bucket].index(label)
    m["patterns.rows_probed_per_word"] = probed / len(sample)
    m["patterns.labelled_share"] = 100 * labelled / len(sample)
    m["patterns.general_classify_us"] = timed(
        "patterns.classify", catalog.classify, sample[:GENERAL_SAMPLE]) / 1e3
    m["forbidden.bounds_us"] = timed(
        "forbidden.complexity_bounds", complexity_bounds, sample[:QUERY_SAMPLE]) / 1e3
    text = files("stacksort").joinpath("catalog.txt").read_text(encoding="utf-8")
    m["patterns.catalog_parse_ms"] = timed("patterns.parse_catalog", parse_catalog,
                                           [text] * 20) / 1e6
    m["patterns.compile_ms"] = timed("patterns.compile",
                                     lambda n: CompiledCatalog(catalog, n),
                                     sorted(compiled) * 20) / 1e6
    return m


def census_replay(run: Run) -> dict:
    """The long-run recipe at the run's n: sharded first pass, resume, report."""
    n, shards, j = run.n, shard_count(run.n), jobs()
    directory = os.path.join(run.work, "replay")
    report = os.path.join(run.work, "replay-report.json")
    tr = run.tracer
    m: dict = {}

    def one():
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        with tr.span("census.run_census"):
            first = run_census(n, shard_count=shards, jobs=j, checkpoint_dir=directory)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        m["census.cores_busy"] = cpu / (wall * j)
        m["census.cpu_ns_per_word"] = cpu * 1e9 / factorial(n)
        names = os.listdir(directory)
        m["census.checkpoint_files"] = len(names)
        m["census.checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(directory, f)) for f in names)
        scale = Speed(lambda: pool_calibration_s(j, shards), REFERENCE_POOL_S).scale()
        t0 = time.perf_counter()
        with tr.span("census.run_census"):
            again = run_census(n, shard_count=shards, jobs=j,
                               checkpoint_dir=directory, resume=True)
        m["census.resume_read_ms"] = (time.perf_counter() - t0) * scale * 1e3
        with tr.span("formulas.verify_census"):
            m["formulas.verify_ms"] = _time_ns(verify_census, [again] * 50, run.speed) / 1e6
        v = verify_census(again)
        scale = run.speed.scale()
        t0 = time.perf_counter()
        with tr.span("census.save_report"):
            save_report(again, report, verify=v)
        with tr.span("census.load_census"):
            back = load_census(report)
        m["census.report_ms"] = (time.perf_counter() - t0) * scale * 1e3
        problems = census_problems(first, run.expected)
        if again.checksum != first.checksum or back.checksum != first.checksum:
            problems.append("resumed or reloaded census differs from the first pass")
        return problems

    _guarded(run.tally, one)
    return m


def per_layer(run: Run) -> dict:
    with run.tracer.span("bench.kernel_replay"):
        m = kernel_replay(run)
    with run.tracer.span("bench.census_replay"):
        m.update(census_replay(run))
    cli = ColdStarts([sys.executable, "-m", "stacksort.cli", "complexity", "42513"],
                     expect="3")
    try:
        with run.tracer.span("cli.cold_start"):
            cli.take()  # unmeasured, as for setup_s
            m["cli.cold_start_ms"] = 1e3 * statistics.median(
                cli.take() for _ in range(CLI_STARTS))
    finally:
        cli.close()
    if run.latencies and run.traced_latencies:
        m["trace.overhead_pct"] = 100 * (statistics.median(run.traced_latencies)
                                         / statistics.median(run.latencies) - 1)
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in m.items()}


# ---------------------------------------------------------------------------
# entry


def run(workload: str, seed: int, seconds: float, trace: bool, n: int,
        expect: dict) -> int:
    expected = dict(REFERENCE_CHECKSUMS)
    expected.update(expect)
    r = Run(workload, seed, seconds, trace, n, expected)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "loadavg_start": os.getloadavg()}
    record.update(provenance())
    os.makedirs(r.work, exist_ok=True)
    try:
        getattr(r, workload.replace("-", "_"))()
        if trace:
            metrics = per_layer(r)
        elif r.latencies:
            metrics = r.end_to_end()
        else:
            metrics = {}
    finally:
        if r.setup:
            r.setup.close()
        shutil.rmtree(r.work, ignore_errors=True)
    record.update(r.info)
    record["word_length_histogram"] = {str(k): v for k, v in sorted(r.histogram.items())}
    record["failures"] = r.tally.failures
    record["loadavg_end"] = os.getloadavg()
    if trace:
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        r.tracer.write(path)
        record["trace_file"] = path
        record["self_ms_by_layer"] = r.tracer.self_ms_by_layer()
        record["replay_vs_census_ns_per_word"] = [
            metrics["words.replay_ns_per_word"][0],
            metrics.get("census.cpu_ns_per_word", (None,))[0]]
    correct = r.tally.failed == 0 and bool(metrics)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, r.tally.attempted),
        "failed": r.tally.failed if r.tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
