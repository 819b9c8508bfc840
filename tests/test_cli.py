import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from importlib.resources import files

import pytest

import stacksort.census as census_mod
from stacksort.census import save_report
from stacksort.cli import main
from stacksort.census import Census


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sort(capsys):
    code, out, _ = run(capsys, "sort", "42513")
    assert code == 0 and out.strip() == "24135"
    code, out, _ = run(capsys, "sort", "42513", "--passes", "2")
    assert code == 0 and out.strip() == "21345"
    code, out, _ = run(capsys, "sort", "42513", "--passes", "0")
    assert out.strip() == "42513"
    code, _, err = run(capsys, "sort", "42513", "--passes", "-1")
    assert code == 2


def test_sort_accepts_separated_letters(capsys):
    code, out, _ = run(capsys, "sort", "10 2 5 1 3")
    assert code == 0 and out.strip() == "2 1 3 5 10"


def test_complexity(capsys):
    code, out, _ = run(capsys, "complexity", "231")
    assert code == 0 and out.strip() == "2"
    code, _, err = run(capsys, "complexity", "13")  # not standard
    assert code == 2 and "standard" in err


def test_malformed_word_exits_2(capsys):
    code, _, err = run(capsys, "sort", "12x")
    assert code == 2 and "cannot parse" in err


def test_descents(capsys):
    code, out, _ = run(capsys, "descents", "42513")
    assert code == 0 and out.strip() == "2"


def test_forbidden(capsys):
    code, out, _ = run(capsys, "forbidden", "23514")
    assert code == 0
    lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
    assert lines["max_order"] == "2"
    assert lines["max_uninterrupted_order"] == "2"
    assert lines["lower_bound"] == "3"
    assert lines["upper_bound"] == "3"
    assert lines["witness"] == "B={2 3} c=5 a=1"
    code, out, _ = run(capsys, "forbidden", "123")  # no forbidden pattern at all
    assert code == 0
    lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
    assert lines["witness"] == lines["uninterrupted_witness"] == "none"
    assert lines["lower_bound"] == lines["upper_bound"] == "0"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "231")
    assert code == 0 and out.strip() == "L1"
    code, out, _ = run(capsys, "classify", "1234")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run(capsys, "classify", "451632", "--explain")
    assert code == 0
    assert out.splitlines()[0] == "T3b"
    assert "certified_complexity: 3" in out
    assert "complexity: 3" in out.splitlines()


@pytest.mark.parametrize("command", ["classify", "complexity"])
def test_non_standard_word_is_named(command, capsys):
    # one message for a word that is not a permutation, whichever command
    assert run(capsys, command, "35") == (
        2, "", "stacksort: word '35' is not a standard permutation\n")


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 28
    assert lines[0] == "L1: * n 1"
    # the packaged rows, verbatim: a row not written in canonical form fails
    text = files("stacksort").joinpath("catalog.txt").read_text(encoding="utf-8")
    assert out.splitlines() == [line for line in text.splitlines()
                                if line.strip() and not line.startswith("#")]


def test_census_with_outputs(tmp_path, capsys):
    report = tmp_path / "r.json"
    ccsv = tmp_path / "c.csv"
    rcsv = tmp_path / "r.csv"
    code, out, _ = run(
        capsys, "census", "--n", "5", "--out", str(report),
        "--class-csv", str(ccsv), "--row-csv", str(rcsv),
    )
    assert code == 0
    assert "class 0: 1" in out and "class 4: 6" in out
    assert "total: 120" in out
    payload = json.loads(report.read_text())
    assert payload["n"] == 5
    assert [c["ok"] for c in payload["verify"]]
    assert ccsv.read_text().startswith("n,class,count")
    assert rcsv.read_text().startswith("n,row_label,count")


def test_failed_csv_export_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    # the table is built before the file is touched, so a failure leaves it
    rows = tmp_path / "rows.csv"
    rows.write_text("old content\n")

    def fail(census):
        raise OSError("no room for the table")

    monkeypatch.setattr(census_mod, "row_counts_csv", fail)
    code, _, err = run(capsys, "census", "--n", "4", "--row-csv", str(rows))
    assert code == 2 and "no room for the table" in err
    assert rows.read_text() == "old content\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_report_onto_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the report's temp file is written next to --out, and the rename onto
    # a directory fails: the error is one line, and the temp file goes
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run(capsys, "census", "--n", "4", "--out", str(out))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("stacksort: ")
    assert os.listdir(tmp_path) == ["out"] and os.listdir(out) == []


def test_census_checkpoint_resume(tmp_path, capsys):
    d = tmp_path / "ck"
    code, out1, _ = run(capsys, "census", "--n", "4", "--shards", "4",
                        "--checkpoint", str(d))
    assert code == 0 and len(list(d.iterdir())) == 4
    code, out2, _ = run(capsys, "census", "--n", "4", "--shards", "4",
                        "--checkpoint", str(d), "--resume")
    assert code == 0 and out1 == out2
    code, out, err = run(capsys, "census", "--n", "4", "--resume")
    assert (code, out, err) == (2, "", "stacksort: resume needs a checkpoint directory\n")


@pytest.mark.parametrize("exc, code", [(KeyboardInterrupt, 130),
                                       (BrokenProcessPool, 3)])
def test_long_run_stops_cleanly(exc, code, tmp_path, capsys, monkeypatch):
    def stopped(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(census_mod, "run_census", stopped)
    long_run = ("--n", "9", "--jobs", "2")
    got, out, err = run(capsys, "census", *long_run,
                        "--checkpoint", str(tmp_path / "ck"))
    assert got == code and out == ""
    [line] = err.splitlines()
    assert line.startswith("stacksort: ")
    assert "are saved" in line and "--resume continues the run" in line
    # with no checkpoint directory nothing was saved, so no resume is offered
    why = {130: "interrupted", 3: "a worker process died"}[code]
    for command in ("census", "verify"):
        assert run(capsys, command, *long_run) == (code, "", f"stacksort: {why}\n")


def _children(pid):
    """The pids of the processes whose parent is ``pid``."""
    listing = subprocess.run(["ps", "-e", "-o", "pid=,ppid="], capture_output=True,
                             text=True, check=True).stdout.split()
    return [int(c) for c, p in zip(listing[::2], listing[1::2]) if int(p) == pid]


def _running(pid):
    """Alive and not a zombie waiting for its parent."""
    done = subprocess.run(["ps", "-o", "stat=", "-p", str(pid)],
                          capture_output=True, text=True)
    return done.returncode == 0 and not done.stdout.strip().startswith("Z")


@pytest.mark.skipif(os.name != "posix", reason="signals a single POSIX process")
def test_interrupt_to_the_parent_alone_stops_the_pool(tmp_path):
    src = os.path.dirname(os.path.dirname(census_mod.__file__))
    # a run far longer than the wait below, and SIGINT at its default in the
    # child, which a suite run as a background job would otherwise pass on
    # as ignored, so that Python would install no KeyboardInterrupt handler
    for attempt in range(2):
        proc = subprocess.Popen(
            [sys.executable, "-m", "stacksort.cli", "census", "--n", "11",
             "--shards", "64", "--jobs", "2", "--checkpoint", str(tmp_path / str(attempt))],
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        workers = []
        try:
            start = time.monotonic()
            # this process is one of the two jobs, so one worker starts
            while not workers and time.monotonic() - start < 10:
                time.sleep(0.1)
                workers = _children(proc.pid)
            assert len(workers) == 1
            time.sleep(max(0.0, 2 - (time.monotonic() - start)))
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=15)
            assert proc.returncode == 130, err
            assert "interrupted" in err
            assert not [pid for pid in workers if _running(pid)]
            saved = os.listdir(tmp_path / str(attempt))
            assert not [name for name in saved if name.endswith(".tmp")]
        finally:
            for pid in (*workers, proc.pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            proc.communicate(timeout=15)


def test_soundness_failure_prints_a_reproduction(capsys, monkeypatch):
    monkeypatch.setattr(census_mod, "none_ceiling", lambda n: -1)
    code, out, err = run(capsys, "census", "--n", "4")
    assert code == 1 and out == ""
    failure, repro = err.splitlines()
    assert failure.startswith("stacksort: soundness failure: word 1234 (rank 0)")
    assert repro == "stacksort: reproduce with: stacksort classify 1234 --explain"
    monkeypatch.undo()
    code, out, _ = run(capsys, "classify", "1234", "--explain")
    assert code == 0 and out.splitlines() == ["none", "complexity: 0"]


def test_census_bad_n(capsys):
    code, _, err = run(capsys, "census", "--n", "0")
    assert code == 2 and "census supports" in err


def test_verify_fresh_and_from_file(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 0
    assert "PASS total: 120 == 120" in out
    assert "all pass" in out

    report = tmp_path / "r.json"
    code, _, _ = run(capsys, "census", "--n", "6", "--out", str(report))
    code, out, _ = run(capsys, "verify", "--census", str(report))
    assert code == 0 and "all pass" in out
    assert "(conjectural)" not in out  # no conjectural formula applies below n=8

    code, _, err = run(capsys, "verify", "--census", str(report), "--n", "7")
    assert code == 2 and "n=6" in err


def test_verify_needs_a_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "--n or --census" in err


def test_verify_failure_exits_1(tmp_path, capsys):
    # internally consistent tallies that contradict the counting formulas
    rows = {"L1": 7, "L2-1": 22, "L2-2": 0, "L2-3": 0, "L2-4": 0, "L2-5": 0}
    matrix = []
    counts = (1, 41, 49, 22, 7)
    for c, v in enumerate(counts):
        row = [0] * 5
        row[min(c, 4)] = v
        matrix.append(tuple(row))
    fake = Census(5, counts, rows, tuple(matrix))
    fake.validate()
    path = tmp_path / "bad.json"
    save_report(fake, str(path))
    code, out, _ = run(capsys, "verify", "--census", str(path))
    assert code == 1
    assert "FAIL exact-n-1: expected 6, got 7" in out


def _verify_forged_report(tmp_path, capsys, moves, n=6):
    """`verify --census` on a saved report of length n with one word moved
    from cell (class, descents) to cell (class, descents) of the descent
    matrix for each pair in ``moves``, the class counts following, and its
    checksum stamped again: the report loads, as every sum still holds."""
    path = tmp_path / "r.json"
    run(capsys, "census", "--n", str(n), "--out", str(path))
    payload = json.loads(path.read_text())
    counts, matrix = payload["counts_by_complexity"], payload["descent_matrix"]
    for src, dst in moves:
        for (c, d), step in ((src, -1), (dst, 1)):
            counts[c] = str(int(counts[c]) + step)
            matrix[c][d] = str(int(matrix[c][d]) + step)
    payload["checksum"] = Census(
        n, tuple(map(int, counts)),
        {k: int(v) for k, v in payload["counts_by_row"].items()},
        tuple(tuple(map(int, r)) for r in matrix)).checksum
    path.write_text(json.dumps(payload))
    census_mod.load_census(str(path))
    return run(capsys, "verify", "--census", str(path))


def test_forged_descent_column_fails_verify(tmp_path, capsys, census_cache):
    # one class-2 word moved to the next descent column: two columns no
    # longer sum to their Eulerian numbers, nor the words of at most two
    # passes to Jacquard and Schaeffer's, and the words of at most three
    # passes are no longer symmetric at either column
    d = next(d for d, v in enumerate(census_cache(6).descent_matrix[2]) if v)
    code, out, _ = _verify_forged_report(tmp_path, capsys,
                                         [((2, d), (2, d + 1))])
    assert code == 1
    for name in ("eulerian", "jacquard-schaeffer"):
        assert f"FAIL {name}-d{d}: " in out and f"FAIL {name}-d{d + 1}: " in out
    for col in (d, d + 1):
        assert f"FAIL symmetry-3-d{min(col, 5 - col)}: " in out
    assert out.splitlines()[-1] == "checked 63 values for n=6: 6 FAILED"


def test_cancelling_descent_forgery_fails_verify(tmp_path, capsys):
    # a class-2 word moved from 1 to 2 descents and a class-3 word from 2
    # to 1: every column sum still holds, but the words of at most two
    # passes no longer fit Jacquard and Schaeffer's form
    code, out, _ = _verify_forged_report(
        tmp_path, capsys, [((2, 1), (2, 2)), ((3, 2), (3, 1))])
    assert code == 1
    fails = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL jacquard-schaeffer-d1", "FAIL jacquard-schaeffer-d2"]
    assert out.splitlines()[-1] == "checked 63 values for n=6: 2 FAILED"


def test_class_n_minus_1_descent_forgery_fails_verify(tmp_path, capsys):
    # a class-5 word moved from 1 to 2 descents and a class-4 word from 2 to
    # 1: every column sum and every bottom-class form still holds, but the
    # row of class n - 1 is no longer t A_{n-2}(t)
    code, out, _ = _verify_forged_report(
        tmp_path, capsys, [((5, 1), (5, 2)), ((4, 2), (4, 1))])
    assert code == 1
    fails = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL eulerian-n-1-d1", "FAIL eulerian-n-1-d2"]
    assert out.splitlines()[-1] == "checked 63 values for n=6: 2 FAILED"


def test_class_move_off_the_middle_column_fails_verify(tmp_path, capsys):
    # one n = 9 word moved from class 3 to class 4 at 3 descents: no closed
    # form reads either class alone, but the words of at most three passes
    # are no longer symmetric under d <-> 8 - d (Bóna)
    code, out, _ = _verify_forged_report(tmp_path, capsys,
                                         [((3, 3), (4, 3))], n=9)
    assert code == 1
    fails = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL symmetry-3-d3"]
    assert out.splitlines()[-1] == "checked 90 values for n=9: 1 FAILED"


def test_class_move_in_the_middle_column_escapes_verify(tmp_path, capsys):
    # a known escape: the same move at 4 descents, the middle column, which
    # is its own mirror, still passes; only an independent count of the
    # classes can catch it
    code, out, _ = _verify_forged_report(tmp_path, capsys,
                                         [((3, 4), (4, 4))], n=9)
    assert code == 0
    assert out.splitlines()[-1] == "checked 90 values for n=9: all pass"


def _without_rows(payload):
    del payload["counts_by_row"]
    return payload


def _null_count(payload):
    payload["counts_by_row"]["L1"] = None
    return payload


def _swapped_without_checksum(payload):
    """Classes 1 and 2 swapped, which no other check at n = 5 notices."""
    del payload["checksum"]
    for key in ("counts_by_complexity", "descent_matrix"):
        table = payload[key]
        table[1], table[2] = table[2], table[1]
    return payload


def _restamped(n):
    """An edit giving a report length n and the tallies of a census of the
    empty word, with a checksum that matches them."""
    def edit(payload):
        fake = Census(n, (1,), {}, ((1,),))
        return {**payload, "n": n, **fake._tally_fields(), "checksum": fake.checksum}
    return edit


def _short_counts(payload):
    """counts_by_complexity one entry short, with a checksum that matches: the
    checksum hashes each entry's str, and a decimal string is its own."""
    payload["counts_by_complexity"].pop()
    fake = Census(payload["n"], *(payload[k] for k in census_mod._REPORT_KEYS))
    return {**payload, "checksum": fake.checksum}


MALFORMED_REPORTS = {
    "another kind": (lambda payload: {**payload, "kind": "stacksort-preimages"},
                     "kind is 'stacksort-preimages', expected 'stacksort-census'"),
    "no kind": (lambda payload: {k: v for k, v in payload.items() if k != "kind"},
                "no kind"),
    "no counts_by_row": (_without_rows, "no counts_by_row"),
    "a JSON list": (lambda payload: [payload], "not a JSON object"),
    "a null count": (_null_count, "counts_by_row is not a table of decimal strings"),
    "no checksum": (_swapped_without_checksum, "checksum missing"),
    "n 0": (_restamped(0), f"n must be in 1..{census_mod.MAX_N}, got 0"),
    "negative n": (_restamped(-2), f"n must be in 1..{census_mod.MAX_N}, got -2"),
    "no shards": (lambda payload: {**payload, "shard_count": 0},
                  "shard_count must be >= 1, got 0"),
    "n a string": (lambda payload: {**payload, "n": "5"},
                   "n and shard_count must be integers"),
    "shard_count a bool": (lambda payload: {**payload, "shard_count": True},
                           "n and shard_count must be integers"),
    "counts one short": (_short_counts, "tables of the wrong size"),
    "nested too deeply": (lambda payload: "[" * 200_000, "JSON nested too deeply to parse"),
}


@pytest.mark.parametrize("command", [["verify"], ["fit", "--k", "2"]],
                         ids=["verify", "fit"])
@pytest.mark.parametrize("case", MALFORMED_REPORTS)
def test_malformed_report_exits_2(case, command, tmp_path, capsys):
    edit, reason = MALFORMED_REPORTS[case]
    path = tmp_path / "r.json"
    save_report(census_mod.run_census(5), str(path))
    edited = edit(json.loads(path.read_text()))  # a payload, or raw text
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    code, out, err = run(capsys, *command, "--census", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"stacksort: {path}: {reason}"]


def test_fit_command(tmp_path, capsys):
    code, out, _ = run(capsys, "fit", "--k", "2", "--data", "4=8", "--data", "5=23")
    assert code == 0
    assert "coeffs: 16 7" in out
    assert "natural: yes" in out
    assert "formula:" in out

    code, out, _ = run(capsys, "fit", "--k", "2",
                       "--data", "4=8", "--data", "5=23", "--data", "6=91")
    assert code == 1  # 6=91 contradicts the k=2 family
    assert "consistent: no" in out

    code, _, err = run(capsys, "fit", "--k", "2", "--data", "4=oops")
    assert code == 2

    code, _, err = run(capsys, "fit", "--k", "3", "--data", "6=198")
    assert code == 2 and "data points" in err

    code, out, err = run(capsys, "fit", "--k", "2", "--degree", "-1", "--data", "4=0")
    assert (code, out, err) == (2, "", "stacksort: degree must be >= 0\n")

    report = str(tmp_path / "c4.json")
    save_report(census_mod.run_census(4), report)
    for k in ("0", "-1"):
        for source in ("--data", "4=8"), ("--census", report):
            code, out, err = run(capsys, "fit", "--k", k, *source)
            assert (code, out, err) == (2, "", "stacksort: k must be >= 1\n"), source


def test_fit_from_census_files(tmp_path, capsys):
    paths = []
    for n in (4, 5):
        p = tmp_path / f"c{n}.json"
        run(capsys, "census", "--n", str(n), "--out", str(p))
        paths.append(str(p))
    code, out, _ = run(capsys, "fit", "--k", "2",
                       "--census", paths[0], "--census", paths[1])
    assert code == 0 and "coeffs: 16 7" in out

    code, _, err = run(capsys, "fit", "--k", "3", "--census", paths[0])
    assert code == 2 and "below the k=3 fit range" in err


def test_fit_rejects_a_repeated_n_and_a_negative_count(tmp_path, capsys):
    report = str(tmp_path / "c4.json")
    save_report(census_mod.run_census(4), report)
    for sources in (("--data", "4=8", "--data", "4=9", "--data", "5=23"),
                    ("--census", report, "--data", "4=9", "--data", "5=23"),
                    ("--census", report, "--census", report, "--data", "5=23")):
        code, out, err = run(capsys, "fit", "--k", "2", *sources)
        assert (code, out, err) == (2, "", "stacksort: two data points for n=4\n"), sources
    code, out, err = run(capsys, "fit", "--k", "2", "--data", "4=-8", "--data", "5=23")
    assert (code, out, err) == (
        2, "", "stacksort: bad --data '4=-8', a count cannot be negative\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["sort"])  # missing word
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["unknown-command"])
    assert e.value.code == 2
