"""Line-oriented command-line interface.

Examples::

    stacksort sort 42513                 # one sorting pass -> 24135
    stacksort sort 42513 --passes 2      # iterate the operator
    stacksort complexity 231             # passes needed -> 2
    stacksort classify 2431              # first matching catalog row
    stacksort forbidden 23514            # obstruction report and bounds
    stacksort census --n 7 --out report.json --class-csv classes.csv
    stacksort verify --n 7               # formulas vs a fresh census
    stacksort fit --k 2 --data 4=8 --data 5=23

Exit status: 0 on success, 1 when a verification or fit check fails or a
census finds a word whose catalog row contradicts its complexity (the
message gives a ``classify --explain`` command that shows the word),
2 on usage errors or malformed input, 3 when a census worker process dies,
130 when interrupted.  A usage error that argparse does not catch itself
prints one ``stacksort:`` line on stderr.
After 3 or 130 a ``census`` run with ``--checkpoint`` keeps the shards
already saved there, and its line says that ``--resume`` continues the run;
any other run has nothing to resume, and its line says only why it stopped.
"""
from __future__ import annotations

import argparse
import shlex
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from . import census as census_mod
from . import formulas
from .forbidden import complexity_bounds, forbidden_report
from .patterns import builtin_catalog, certified_class, format_row
from .words import complexity, descents, format_word, parse_word, stack_sort_pass


def _cmd_sort(args) -> int:
    w = parse_word(args.word)
    if args.passes < 0:
        raise ValueError("--passes must be >= 0")
    for _ in range(args.passes):
        w = stack_sort_pass(w)
    print(format_word(w))
    return 0


def _cmd_complexity(args) -> int:
    print(complexity(parse_word(args.word)))
    return 0


def _cmd_descents(args) -> int:
    print(descents(parse_word(args.word)))
    return 0


def _fmt_witness(wit) -> str:
    if wit is None:
        return "none"
    b, c, a = wit
    return f"B={{{' '.join(map(str, b))}}} c={c} a={a}"


def _cmd_forbidden(args) -> int:
    w = parse_word(args.word)
    rep = forbidden_report(w)
    lower, upper = complexity_bounds(w)
    print(f"word: {format_word(w)}")
    print(f"max_order: {rep.max_order}")
    print(f"max_uninterrupted_order: {rep.max_uninterrupted_order}")
    print(f"witness: {_fmt_witness(rep.witness)}")
    print(f"uninterrupted_witness: {_fmt_witness(rep.uninterrupted_witness)}")
    print(f"lower_bound: {lower}")
    print(f"upper_bound: {upper}")
    return 0


def _cmd_classify(args) -> int:
    w = parse_word(args.word)
    label = builtin_catalog().classify(w)
    print("none" if label is None else label)
    if args.explain:
        if label is not None:
            print(f"certified_complexity: {certified_class(label, len(w))}")
        print(f"complexity: {complexity(w)}")
    return 0


def _cmd_catalog(args) -> int:
    for row in builtin_catalog().rows:
        print(format_row(row))
    return 0


def _cmd_census(args) -> int:
    c = census_mod.run_census(args.n, shard_count=args.shards, jobs=args.jobs,
                              checkpoint_dir=args.checkpoint, resume=args.resume)
    print(f"n: {c.n}")
    for cls, v in enumerate(c.counts_by_complexity):
        print(f"class {cls}: {v}")
    print(f"total: {sum(c.counts_by_complexity)}")
    print(f"checksum: {c.checksum}")
    if args.out:
        report = formulas.verify_census(c)
        census_mod.save_report(c, args.out, verify=report)
        print(f"report: {args.out}")
    for name, path, table in (("class_csv", args.class_csv, census_mod.class_counts_csv),
                              ("row_csv", args.row_csv, census_mod.row_counts_csv)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(table(c))
            print(f"{name}: {path}")
    return 0


def _cmd_verify(args) -> int:
    if args.census:
        c = census_mod.load_census(args.census)
        if args.n is not None and args.n != c.n:
            raise ValueError(f"census file has n={c.n}, but --n {args.n} was given")
    elif args.n is None:
        raise ValueError("need --n or --census FILE")
    else:
        c = census_mod.run_census(args.n, jobs=args.jobs)
    report = formulas.verify_census(c)
    for chk in report.checks:
        tag = " (conjectural)" if chk.conjectural else ""
        if chk.ok:
            print(f"PASS {chk.name}{tag}: {chk.actual} == {chk.expected}")
        else:
            print(f"FAIL {chk.name}{tag}: expected {chk.expected}, got {chk.actual}")
    bad = len(report.failures)
    print(f"checked {len(report.checks)} values for n={c.n}: "
          + ("all pass" if bad == 0 else f"{bad} FAILED"))
    return 0 if bad == 0 else 1


def _cmd_fit(args) -> int:
    if args.k < 1:  # before a report's counts are read at n - k
        raise ValueError("k must be >= 1")
    points = []
    for path in args.census or ():
        c = census_mod.load_census(path)
        if c.n < 2 * args.k:
            raise ValueError(f"census n={c.n} is below the k={args.k} "
                             f"fit range (needs n >= {2 * args.k})")
        points.append((c.n, c.counts_by_complexity[c.n - args.k]))
    for item in args.data or ():
        try:
            left, right = item.split("=", 1)
            n, count = int(left), int(right)
        except ValueError:
            raise ValueError(f"bad --data {item!r}, want n=count") from None
        if count < 0:
            raise ValueError(f"bad --data {item!r}, a count cannot be negative")
        points.append((n, count))
    data = {}
    for n, count in points:
        if n in data:
            raise ValueError(f"two data points for n={n}")
        data[n] = count
    fit = formulas.fit_binomial(args.k, data, degree=args.degree)
    print(f"k: {fit.k}")
    print(f"degree: {fit.degree}")
    print("data: " + " ".join(f"{n}={data[n]}" for n in fit.ns))
    print("coeffs: " + " ".join(str(a) for a in fit.coeffs))
    print(f"prefactor_exact: {'yes' if fit.prefactor_exact else 'no'}")
    print(f"consistent: {'yes' if fit.consistent else 'no'}")
    print(f"natural: {'yes' if fit.natural else 'no'}")
    if fit.consistent and fit.natural:
        terms = " + ".join(
            f"{a}*C(n-{2 * fit.k},{i})" for i, a in enumerate(fit.coeffs))
        print(f"formula: {fit.k - 1}! (n-{fit.k + 1})! / {2 * fit.k - 2}! * [{terms}]")
    return 0 if fit.consistent else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stacksort",
        description="Stack-sorting complexity: operator, classifier, census.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sort", help="apply the stack-sorting operator")
    s.add_argument("word")
    s.add_argument("--passes", type=int, default=1)
    s.set_defaults(fn=_cmd_sort)

    s = sub.add_parser("complexity", help="number of passes to reach identity")
    s.add_argument("word")
    s.set_defaults(fn=_cmd_complexity)

    s = sub.add_parser("descents", help="count descents of a word")
    s.add_argument("word")
    s.set_defaults(fn=_cmd_descents)

    s = sub.add_parser("forbidden", help="obstruction report and bounds")
    s.add_argument("word")
    s.set_defaults(fn=_cmd_forbidden)

    s = sub.add_parser("classify", help="first matching catalog row")
    s.add_argument("word")
    s.add_argument("--explain", action="store_true",
                   help="also print the certified and the measured complexity")
    s.set_defaults(fn=_cmd_classify)

    s = sub.add_parser("catalog", help="print the built-in catalog rows")
    s.set_defaults(fn=_cmd_catalog)

    s = sub.add_parser("census", help="exhaustively tally all words of length n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--shards", type=int, default=None)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", help="write a JSON report")
    s.add_argument("--checkpoint", help="directory for per-shard checkpoints")
    s.add_argument("--resume", action="store_true",
                   help="reuse matching checkpoint files")
    s.add_argument("--class-csv", dest="class_csv")
    s.add_argument("--row-csv", dest="row_csv")
    s.set_defaults(fn=_cmd_census)

    s = sub.add_parser("verify", help="check counting formulas against a census")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--census", help="verify a saved report instead of recomputing")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("fit", help="fit counts to the binomial family shape")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--census", action="append",
                   help="take a data point from a saved report (repeatable)")
    s.add_argument("--data", action="append", metavar="N=COUNT",
                   help="explicit data point (repeatable)")
    s.add_argument("--degree", type=int, default=None)
    s.set_defaults(fn=_cmd_fit)

    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except census_mod.CensusSoundnessError as exc:
        print(f"stacksort: soundness failure: {exc}", file=sys.stderr)
        print("stacksort: reproduce with: stacksort classify "
              f"{shlex.quote(format_word(exc.word))} --explain", file=sys.stderr)
        return 1
    except BrokenProcessPool:
        stopped, code = "a worker process died", 3
    except KeyboardInterrupt:
        stopped, code = "interrupted", 130
    except (ValueError, OSError) as exc:
        print(f"stacksort: {exc}", file=sys.stderr)
        return 2
    if args.command == "census" and args.checkpoint:
        stopped += ("; shards finished under --checkpoint are saved, "
                    "and --resume continues the run")
    print(f"stacksort: {stopped}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
