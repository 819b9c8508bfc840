"""Exhaustive census of stack-sorting complexity over all words of length n.

A census walks every standard word of length n in lexicographic order and
tallies three exact tables: counts by complexity, counts by first matching
catalog row, and a complexity-by-descents matrix.  The walk is split into
rank-range shards whose results merge into bit-identical totals regardless
of the shard count, so runs can be parallelized, checkpointed to disk, and
resumed.

Every shard kernel doubles as a soundness check: for each word it compares
the catalog classification against the independently computed complexity
and raises :class:`CensusSoundnessError` with a witness on any disagreement.
A completed census is therefore an exhaustive proof, for that n, that the
catalog certifies exactly what it claims.

Counters are exact integers end to end; the JSON report stores them as
decimal strings so they survive parsers that would round large values.
"""
from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial
from typing import Dict, Iterable, Optional, Tuple

from .patterns import CompiledCatalog, builtin_catalog, tier
from .words import _complexity, next_permutation, unrank

SCHEMA_VERSION = 1
MAX_N = 14


class CensusSoundnessError(AssertionError):
    """A word's catalog classification contradicts its measured complexity.

    ``rank`` is the word's lexicographic rank among the words of its
    length, so ``unrank(len(word), rank)`` rebuilds it.
    """

    def __init__(self, word, rank, label, complexity, message):
        self.word = tuple(word)
        self.rank = rank
        self.label = label
        self.complexity = complexity
        super().__init__(message)

    def __reduce__(self):  # survive the trip back from a worker process
        return (type(self), (self.word, self.rank, self.label, self.complexity,
                             self.args[0]))


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
        payload = {
            "n": self.n,
            "counts_by_complexity": [str(c) for c in self.counts_by_complexity],
            "counts_by_row": {k: str(v) for k, v in self.counts_by_row.items()},
            "descent_matrix": [[str(c) for c in row] for row in self.descent_matrix],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()

    def validate(self) -> None:
        """Raise ValueError unless the internal tallies are consistent."""
        n = self.n
        size = max(n, 1)
        if len(self.counts_by_complexity) != size:
            raise ValueError("counts_by_complexity has wrong length")
        if sum(self.counts_by_complexity) != factorial(n):
            raise ValueError("counts do not sum to n!")
        if len(self.descent_matrix) != size or any(
            len(row) != size for row in self.descent_matrix
        ):
            raise ValueError("descent_matrix has wrong shape")
        for c, row in enumerate(self.descent_matrix):
            if sum(row) != self.counts_by_complexity[c]:
                raise ValueError(f"descent row {c} does not sum to its count")
        if any(v < 0 for v in self.counts_by_row.values()):
            raise ValueError("negative row count")
        sums = {"L1": 0, "L2": 0, "T": 0}
        for label, v in self.counts_by_row.items():
            offset, _ = tier(label)
            sums[{1: "L1", 2: "L2", 3: "T"}[offset]] += v
        for prefix, offset, floor in (("L1", 1, 2), ("L2", 2, 4), ("T", 3, 6)):
            if n >= floor and sums[prefix] != self.counts_by_complexity[n - offset]:
                raise ValueError(
                    f"{prefix} rows sum to {sums[prefix]}, expected "
                    f"{self.counts_by_complexity[n - offset]}"
                )

    def cumulative(self, c: int) -> int:
        """Number of words with complexity at most c."""
        return sum(self.counts_by_complexity[: c + 1])


def _eligible_labels(n: int) -> list:
    return [r.label for r in builtin_catalog().rows if n >= tier(r.label)[1]]


def _none_ceiling(n: int) -> int:
    """Largest complexity an unclassified word may have at this length."""
    if n >= 6:
        return n - 4
    if n >= 4:
        return n - 3
    if n >= 2:
        return n - 2
    return 0


def _shard_kernel(n: int, lo: int, hi: int) -> dict:
    """Tally ranks [lo, hi); raises on any classification/complexity clash."""
    size = max(n, 1)
    cnt = [0] * size
    dm = [[0] * size for _ in range(size)]
    rows = {label: 0 for label in _eligible_labels(n)}
    if hi <= lo:
        return {"counts": cnt, "rows": rows, "descents": dm}
    cc = CompiledCatalog(builtin_catalog(), n)
    offsets = {cr.label: tier(cr.label)[0] for cr in cc.rows}
    ceiling = _none_ceiling(n)
    classify = cc.classify
    w = list(unrank(n, lo))
    pos = [0] * (n + 1)
    for r in range(lo, hi):
        for i, x in enumerate(w):
            pos[x] = i
        k = _complexity(w)
        d = 0
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                d += 1
        label = classify(w, pos)
        if label is None:
            if k > ceiling:
                raise CensusSoundnessError(
                    w, r, None, k,
                    f"word {''.join(map(str, w)) if n <= 9 else w} (rank {r}) "
                    f"has complexity {k} but matches no catalog row",
                )
        else:
            if k != n - offsets[label]:
                raise CensusSoundnessError(
                    w, r, label, k,
                    f"word {''.join(map(str, w)) if n <= 9 else w} (rank {r}) "
                    f"matches {label} (certifies {n - offsets[label]}) but has "
                    f"complexity {k}",
                )
            rows[label] += 1
        cnt[k] += 1
        dm[k][d] += 1
        next_permutation(w)
    return {"counts": cnt, "rows": rows, "descents": dm}


def _checkpoint_path(directory: str, n: int, shard_count: int, index: int) -> str:
    return os.path.join(directory, f"shard-{n}-{shard_count}-{index:04d}.json")


def _write_json_atomic(path: str, payload: dict) -> None:
    tmp = path + f".{os.getpid()}.tmp"  # workers never share a temp file
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, path)


def _read_shard(path: str, n: int, shard_count: int, index: int) -> Optional[dict]:
    """The tallies of a saved shard, or None when the file cannot be used:
    unparseable, missing keys, tables of the wrong size, or another run's.

    Row labels are not checked here: that would parse the catalog in every
    worker of a resume, which otherwise only reads files.
    """
    size = max(n, 1)
    try:
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
        if (
            saved["schema_version"] != SCHEMA_VERSION
            or saved["n"] != n
            or saved["shard_count"] != shard_count
            or saved["index"] != index
        ):
            return None
        result = {
            "counts": [int(c) for c in saved["counts"]],
            "rows": {k: int(v) for k, v in saved["rows"].items()},
            "descents": [[int(c) for c in row] for row in saved["descents"]],
        }
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    counts, descents = result["counts"], result["descents"]
    if len(descents) != size or any(len(row) != size for row in [counts] + descents):
        return None
    return result


def _shard_task(args: tuple) -> dict:
    """One shard, with optional checkpoint read/write (process-pool safe).

    On resume a shard file that cannot be used is recomputed and rewritten.
    """
    n, shard_count, index, lo, hi, checkpoint_dir, resume = args
    path = None
    if checkpoint_dir is not None:
        path = _checkpoint_path(checkpoint_dir, n, shard_count, index)
        if resume and os.path.exists(path):
            saved = _read_shard(path, n, shard_count, index)
            if saved is not None:
                return saved
    result = _shard_kernel(n, lo, hi)
    if path is not None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "shard_count": shard_count,
            "index": index,
            "lo": lo,
            "hi": hi,
            "counts": [str(c) for c in result["counts"]],
            "rows": {k: str(v) for k, v in result["rows"].items()},
            "descents": [[str(c) for c in row] for row in result["descents"]],
        }
        _write_json_atomic(path, payload)
    return result


def run_census(
    n: int,
    shard_count: Optional[int] = None,
    jobs: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> Census:
    """Enumerate all n! words and return their exact census.

    ``shard_count`` splits the rank range [0, n!) at i*n!//shard_count; the
    merged tallies are identical for every shard count.  With ``jobs > 1``
    shards run in separate processes.  With ``checkpoint_dir`` each finished
    shard is saved, and ``resume=True`` reuses any shard file already there
    (matched by n, shard count and index), so an interrupted run continues
    where it stopped.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"census supports 1 <= n <= {MAX_N}, got {n}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if shard_count is None:
        shard_count = 16 if checkpoint_dir else max(1, jobs)
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    total = factorial(n)
    bounds = [i * total // shard_count for i in range(shard_count + 1)]
    tasks = [
        (n, shard_count, i, bounds[i], bounds[i + 1], checkpoint_dir, resume)
        for i in range(shard_count)
    ]
    if jobs == 1:
        results = [_shard_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_shard_task, tasks))
    size = max(n, 1)
    cnt = [0] * size
    dm = [[0] * size for _ in range(size)]
    rows = {label: 0 for label in _eligible_labels(n)}
    for res in results:
        for c, v in enumerate(res["counts"]):
            cnt[c] += v
        for label, v in res["rows"].items():
            rows[label] += v
        for c, row in enumerate(res["descents"]):
            for d, v in enumerate(row):
                dm[c][d] += v
    census = Census(
        n=n,
        counts_by_complexity=tuple(cnt),
        counts_by_row=rows,
        descent_matrix=tuple(tuple(row) for row in dm),
        shard_count=shard_count,
    )
    census.validate()
    return census


def descent_polynomial(census: Census, cutoff: Optional[int] = None) -> tuple:
    """Coefficients c_d = number of words with at most ``cutoff`` passes
    and exactly d descents; ``cutoff`` defaults to n-4."""
    if cutoff is None:
        cutoff = census.n - 4
    size = max(census.n, 1)
    out = [0] * size
    for c in range(0, min(cutoff, size - 1) + 1):
        for d, v in enumerate(census.descent_matrix[c]):
            out[d] += v
    return tuple(out)


# ---------------------------------------------------------------------------
# persistence


def save_report(
    census: Census,
    path: str,
    verify=None,
    fits: Iterable = (),
) -> None:
    """Write the census (plus optional verification and fits) as JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "stacksort-census",
        "n": census.n,
        "shard_count": census.shard_count,
        "counts_by_complexity": [str(c) for c in census.counts_by_complexity],
        "counts_by_row": {k: str(v) for k, v in census.counts_by_row.items()},
        "descent_matrix": [
            [str(c) for c in row] for row in census.descent_matrix
        ],
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
    fits = list(fits)
    if fits:
        payload["fits"] = [
            {
                "k": f.k,
                "degree": f.degree,
                "coeffs": [str(a) for a in f.coeffs],
                "ns": list(f.ns),
                "prefactor_exact": f.prefactor_exact,
                "consistent": f.consistent,
                "natural": f.natural,
            }
            for f in fits
        ]
    _write_json_atomic(path, payload)


def load_census(path: str) -> Census:
    """Read a census report back; checksum and invariants are re-verified."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {payload.get('schema_version')!r}")
    census = Census(
        n=int(payload["n"]),
        counts_by_complexity=tuple(int(c) for c in payload["counts_by_complexity"]),
        counts_by_row={k: int(v) for k, v in payload["counts_by_row"].items()},
        descent_matrix=tuple(
            tuple(int(c) for c in row) for row in payload["descent_matrix"]
        ),
        shard_count=int(payload.get("shard_count", 1)),
    )
    stored = payload.get("checksum")
    if stored is not None and stored != census.checksum:
        raise ValueError(f"checksum mismatch in {path}: stored {stored}")
    census.validate()
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
    for label in _eligible_labels(census.n):
        lines.append(f"{census.n},{label},{census.counts_by_row.get(label, 0)}")
    return "\n".join(lines) + "\n"
