"""Run one stacksort benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the current directory,
never from an installed copy.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the full record (provenance, sizes, failures).  The
exit status is 0 when every answer passed its checks, 1 when any failed and
2 when the program is missing or the arguments are bad.  See README.md.
"""
from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("census-serial", "census-sharded", "census-resume", "query")
PINNED_LENGTHS = (5, 8, 9, 10)
# n = 9 gives census-resume 102 checkpoint files to read, so the reads stay
# most of its answer, as in a long run; at n = 8 it would read 11.
DEFAULT_N = {"census-resume": 9}


def _expectation(text: str) -> tuple:
    n, sep, checksum = text.partition("=")
    if not sep or not n.isdigit():
        raise argparse.ArgumentTypeError(f"want N=sha256:..., got {text!r}")
    return int(n), checksum


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, choices=PINNED_LENGTHS,
                   help="census length; only lengths with a pinned checksum "
                        "(default 9 for census-resume, 8 otherwise)")
    p.add_argument("--expect", type=_expectation, action="append", default=[],
                   metavar="N=CHECKSUM",
                   help="replace the pinned checksum for length N (to test the gate)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "stacksort", "__init__.py")):
        print(f"perfbench: no program at {src}/stacksort; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Cold-start interpreters and pool workers import the same copy.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    import bench

    n = args.n or DEFAULT_N.get(args.workload, 8)
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     n=n, expect=dict(args.expect))


if __name__ == "__main__":
    sys.exit(main())
