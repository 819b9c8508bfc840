"""Exhaustive census of stack-sorting complexity over all words of length n.

A census walks every standard word of length n in lexicographic order and
tallies three exact tables: counts by complexity, counts by first matching
catalog row, and a complexity-by-descents matrix.  The walk is split into
rank-range shards whose results merge into bit-identical totals regardless
of the shard count, so runs can be parallelized, checkpointed to disk, and
resumed.

The shard kernel walks the prefix tree of its rank range depth first, so
words that share a prefix share its work: the letters of a prefix go
through the stack pass, the position table and the descent count once for
every word below them.  The walk stops three letters short of a word, at a
leaf that serves the six orders of its last three letters.  Leaves whose
prefixes leave that first pass in the same state (the same output and
stack) share all six S(w): the kernel computes their complexities once,
in a memo that is local to one kernel call and cleared at a fixed size,
and reads them back for every later prefix with that state.  On a miss it
finishes the pass in each order and looks each S(w) up in a second dict
keyed by S(w) itself, since different states can give the same S(w).
Both keys are exact, so a hit gives what recomputing would, and every
word is still classified, checked and tallied on its own in rank order:
no tally can differ from a word-by-word walk.  Each word then costs one
read of its leaf's memo entry and one call of the generated function of
its dispatch cell.  Those functions are generated for all cells of a
length at once, with one compile() call, and kept for every later shard.
They and the prefix table behind the lookup are the per-length state a
process builds once (:func:`_length_state`).  A run that starts a process
pool builds that state in the calling process first, so workers forked
from it inherit it, and every later census of that length in the same
process starts warm.  Under the ``spawn`` or ``forkserver`` start methods
workers inherit nothing and each builds the state on its first shard.

Every shard kernel doubles as a soundness check: for each word it compares
the catalog classification against the independently computed complexity
and raises :class:`CensusSoundnessError` on any disagreement, naming the
word, its rank and the level the catalog certified for it.  A completed
census is therefore an exhaustive proof, for that n, that the catalog
certifies exactly what :mod:`stacksort.patterns` states: the level of each
row valid at n in ``Catalog.levels(n)``, and ``none_ceiling(n)`` for words
no row matches.

Counters are exact integers end to end; the JSON report stores them as
decimal strings so they survive parsers that would round large values.

A resume reads the saved shards in the calling process and trusts a shard
file only when its identity (length, shard, rank range, kernel version and
catalog hash), its checksum, its shape and its row labels all match and
its counts, descent rows and tier rows add up; any other file is logged on
the ``stacksort.census`` logger and recomputed.
Reports are read back through the same tally reader and checks, with a
total of n!.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Dict, Optional, Tuple

from .formulas import _column_sums
from .patterns import builtin_catalog, format_row, none_ceiling
from .words import TABLE_CAP, _complexity, _prefix_table, format_word

SCHEMA_VERSION = 1
KERNEL_VERSION = 1  # bump when the kernel's tallies could change for a shard
MAX_N = 14
# entries of one kernel call's leaf memo before it is cleared
_MEMO_CAP = 1 << 18

log = logging.getLogger(__name__)


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


def _length_state(n: int) -> tuple:
    """``(dispatch, table)`` for length n: the generated dispatch of the
    built-in catalog compiled for n and the prefix table over
    S_min(n-1, TABLE_CAP).  Both are built on the first call in a process
    and kept for its life, so a call before a pool starts builds them
    once for every worker forked from it."""
    return (builtin_catalog().compiled(n).dispatch,
            _prefix_table(min(n - 1, TABLE_CAP)))


def _shard_kernel(n: int, lo: int, hi: int) -> dict:
    """Tally ranks [lo, hi) of S_n; raise on any classification/complexity clash.

    A depth-first walk of the prefix tree in lexicographic order.  A node
    whose rank block lies partly outside [lo, hi) descends only into the
    children that meet it, so the range splits into O(n^2) complete prefix
    blocks, each walked in full.  A node pushes its letter through one
    shared stack pass (the smaller letters it pops go to one shared output
    list), sets ``w`` and ``pos`` and adds its descent, once for every
    word below it, and undoes all of it on return.  The walk stops at
    depth n - 3: a leaf unrolls the six orders of its three free letters
    in lexicographic order, each word of the six a rank of its block.
    Below n = 3 the root is the leaf, and phantom letters 0 lead ``free``
    so that the first n! of the six orders are the words of S_n.

    The six S(w) of a leaf are fixed by its first-pass state, the output
    and the stack (the free letters are those in neither), so prefixes
    that reach the same state, such as 132 and 312, give the same six
    words.  A memo local to this call maps the state, as
    ``bytes(out + stack)``, where the guard letter n + 1 marks the
    boundary, to one plus the complexity of each S(w) without n, as a
    tuple stored once however many states share it.  Only on a miss does
    the leaf finish the stack pass from the state in each order.  Another
    state can give the same S(w) (S of the order a < b < c is the output
    and then every other letter in increasing order), so each S(w) without
    n is looked up, as bytes, in a second dict: the prefix table itself
    when n - 1 <= TABLE_CAP, since it holds all of S_{n-1} and so is only
    ever read, and otherwise a dict of this call filled through
    ``_complexity``, which drops the settled maxima at the end of S(w)
    and of each later pass until the table answers.  Each dict of this
    call is cleared when it holds ``_MEMO_CAP`` entries, which bounds a
    one-shard census of any length, and dies with the call, so every
    census recomputes.  A key is the exact state or word, never a hash of
    it, so a hit returns what a miss would compute and no tally can
    change.

    Each word then costs one call of the generated function of its
    dispatch cell, the only call in the leaf's loop, and the tallies;
    complexity 0 is the word with no descent, and the counts are the row
    sums of the descent matrix.  The dispatch and the table come from
    :func:`_length_state`: the compiled catalog is the process's own
    (``Catalog.compiled``), shared with ``classify``, so both are built
    once per process and length.  A forked pool worker inherits them from
    the calling process of :func:`run_census`; a worker started by
    ``spawn`` or ``forkserver`` builds them on its first shard.  Words are
    classified, checked and tallied one at a time in rank order, so the
    first clash raised is the lowest-ranked one.
    """
    tallies = _zero_tallies(n)
    if hi <= lo:
        return tallies
    cnt, rows, dm = tallies.values()
    certified = builtin_catalog().levels(n)
    ceiling = none_ceiling(n)
    dispatch, table = _length_state(n)
    # bytes(S(w) without n) -> its complexity: the prefix table itself when
    # it holds all of S_{n-1}, so that it only ever hits, else this call's own
    known = table if n - 1 <= TABLE_CAP else {}
    fact = [factorial(m) for m in range(n + 1)]
    leaf = max(n - 3, 0)  # the depth of the leaves
    # where a leaf's three letters go: below n = 3 a phantom letter's spot,
    # clamped to 0, is written first and then overwritten
    l0, l1, l2 = (max(i, 0) for i in range(n - 3, n))
    steps = [sum(a > b for a, b in zip(t, t[1:]))  # descents within each order
             for t in permutations(range(3))]
    w = [0] * n
    pos = [0] * (n + 1)
    free = [0] * (3 - n) + list(range(1, n + 1))  # letters not yet placed
    stack = [n + 1]  # decreasing upwards, over a guard letter
    out = []         # letters popped so far, in output order
    memo = {}    # bytes(out + stack) at a leaf -> 1 + complexity of each S(w)
    shared = {}  # the memo's values, each distinct tuple stored once

    def walk(depth, prev, d, base):
        """Walk the block of ranks [base, base + (n - depth)!), whose words
        share the prefix w[:depth] ending in ``prev`` with d descents."""
        if depth == leaf:
            a, b, c = free
            orders = ((a, b, c, 0), (a, c, b, 1), (b, a, c, 2),  # lexicographic
                      (b, c, a, 3), (c, a, b, 4), (c, b, a, 5))
            key = bytes(out + stack)
            cs = memo.get(key)
            if cs is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                    shared.clear()
                cs = []
                for *t, _ in orders:  # finish the pass in each order
                    s, u = stack[:], out[:]
                    for x in t:
                        if x:  # a phantom letter is not pushed
                            while s[-1] < x:
                                u.append(s.pop())
                            s.append(x)
                    u += s[:1:-1]  # S(w) without n: s[1] is n, s[0] the guard
                    v = bytes(u)
                    k = known.get(v)
                    if k is None:
                        if len(known) >= _MEMO_CAP:
                            known.clear()
                        k = known[v] = _complexity(u)
                    cs.append(k + 1)
                cs = tuple(cs)
                cs = memo[key] = shared.setdefault(cs, cs)
            for x, y, z, j in orders[lo - base if lo > base else 0:hi - base]:
                w[l0] = x
                w[l1] = y
                w[l2] = z
                pos[x] = l0
                pos[y] = l1
                pos[z] = l2
                e = d + (prev > x) + steps[j]
                k = cs[j] if e else 0  # the word with no descent is sorted
                label = dispatch[pos[n]][z](w, pos)
                if label is None:
                    if k > ceiling:
                        raise CensusSoundnessError(w, base + j, None, k, ceiling)
                elif k != certified[label]:
                    raise CensusSoundnessError(w, base + j, label, k,
                                               certified[label])
                else:
                    rows[label] += 1
                dm[k][e] += 1
            return
        m = n - depth
        s = fact[m - 1]
        for i in range(max(0, (lo - base) // s), min(m, -((base - hi) // s))):
            x = free.pop(i)
            w[depth] = x
            pos[x] = depth
            mark = len(out)
            while stack[-1] < x:
                out.append(stack.pop())
            stack.append(x)
            walk(depth + 1, x, d + (prev > x), base + i * s)
            stack.pop()
            while len(out) > mark:
                stack.append(out.pop())
            free.insert(i, x)

    walk(0, 0, 0, 0)
    del walk  # it refers to itself through its closure
    cnt[:] = map(sum, dm)
    return tallies


def _checkpoint_path(directory: str, n: int, shard_count: int, index: int) -> str:
    return os.path.join(directory, f"shard-{n}-{shard_count}-{index:04d}.json")


def _write_atomic(path: str, text: str) -> None:
    tmp = path + f".{os.getpid()}.tmp"  # workers never share a temp file
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


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


def _shard_task(args: tuple) -> dict:
    """Compute one shard and, with a checkpoint directory, save it
    (process-pool safe)."""
    n, shard_count, index, lo, hi, checkpoint_dir, catalog_sha = args
    result = _shard_kernel(n, lo, hi)
    if checkpoint_dir is not None:
        payload = _shard_header(n, shard_count, index, lo, hi, catalog_sha)
        payload.update(_tally_strings(_SHARD_KEYS, result["counts"],
                                      result["rows"], result["descents"]))
        _write_atomic(_checkpoint_path(checkpoint_dir, n, shard_count, index),
                      _shard_text(payload))
    return result


def _resume_shards(n, shard_count, bounds, checkpoint_dir, catalog_sha) -> dict:
    """Saved shards that pass every check, by index; each unusable file is
    logged once and left out, so that it is recomputed."""
    levels = builtin_catalog().levels(n)
    found = {}
    for i in range(shard_count):
        path = _checkpoint_path(checkpoint_dir, n, shard_count, i)
        header = _shard_header(n, shard_count, i, bounds[i], bounds[i + 1],
                               catalog_sha)
        try:
            found[i] = _read_shard(path, header, levels)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            log.warning("shard %d (%s): %s; recomputing", i, path, exc)
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
    merged tallies are identical for every shard count.  With ``jobs > 1``
    shards run in separate processes.  With ``checkpoint_dir`` each finished
    shard is saved, and ``resume=True``, which needs ``checkpoint_dir``,
    first reads the shard files already there in this process, so an
    interrupted run continues where it stopped.
    A file is reused only when it matches this run (n, shard count, index,
    rank range, kernel version and catalog hash) and its checksum, shape,
    row labels and sums check out; any other file is logged and recomputed.
    Only the shards left to compute go to the kernel, in a pool of
    ``min(jobs, shards left)`` workers when more than one is left.  Just
    before that pool starts, this process builds the kernel's per-length
    state (the dispatch and prefix table of :func:`_length_state`), so
    forked workers inherit it instead of each building its own; under
    ``spawn`` or ``forkserver`` each worker builds it on its first shard.
    Without a pool, the state is built by the first shard computed here,
    and a resume with no shard left builds none.  When the wait for that
    pool is cut short, by an interrupt or a failed shard, the pool is
    stopped at once: no queued shard is waited for.
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
    bounds = [i * total // shard_count for i in range(shard_count + 1)]
    catalog_sha = None
    results = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        catalog_sha = _catalog_sha256()
        if resume:
            results = _resume_shards(n, shard_count, bounds, checkpoint_dir,
                                     catalog_sha)
    todo = [
        (n, shard_count, i, bounds[i], bounds[i + 1], checkpoint_dir, catalog_sha)
        for i in range(shard_count) if i not in results
    ]
    if jobs == 1 or len(todo) <= 1:
        computed = [_shard_task(t) for t in todo]
    else:
        _length_state(n)  # here, so that forked workers inherit it
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            try:
                computed = list(pool.map(_shard_task, todo))
            except BaseException:
                _stop_pool(pool)  # so that leaving the block waits on nothing
                raise
    results.update((t[2], res) for t, res in zip(todo, computed))
    merged = _zero_tallies(n)
    cnt, rows, dm = merged.values()
    for res in results.values():
        for c, v in enumerate(res["counts"]):
            cnt[c] += v
        for label, v in res["rows"].items():
            rows[label] += v
        for c, row in enumerate(res["descents"]):
            for d, v in enumerate(row):
                dm[c][d] += v
    census = Census(n, tuple(cnt), rows, tuple(map(tuple, dm)), shard_count)
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
