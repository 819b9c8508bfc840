"""Run the benchmark on several seeds and summarise the spread of each metric.

Run from the repository root::

    python3 perfbench/prove.py --seeds 10 --traced --out perfbench/baseline.json

Each workload in BENCHMARK.json runs once per seed for ``run_seconds``,
untraced.  For every end-to-end metric the summary gives the median, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--traced`` adds one traced run per workload (first seed)
for the per-layer metrics.  The exit status is 1 when a run fails or any
spread exceeds its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def one_run(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = None
    if len(lines) > 1 and lines[-2].startswith("record "):
        record = json.loads(lines[-2][len("record "):])
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "result": result, "record": record,
            "stderr": done.stderr[-2000:] if done.returncode else ""}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", help="write runs and summary as JSON")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary, bad = [], {}, 0
    for workload in names:
        got = {}
        for seed in seeds:
            r = one_run(bench["command"], workload, seed, bench["run_seconds"], 0)
            runs.append(r)
            ok = r["exit"] == 0 and r["result"] and r["result"]["correct"]
            bad += not ok
            print(f"{workload} seed {seed}: exit {r['exit']}", file=sys.stderr)
            if ok:
                for name, m in r["result"]["metrics"].items():
                    got.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, values in got.items():
            if len(values) < 2:
                continue
            s = spread(values)
            s["bound"] = bounds[name]
            summary[workload][name] = s
            flag = ""
            if s["spread"] > s["bound"]:
                flag, bad = "  OVER BOUND", bad + 1
            elif s["spread"] > s["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:15} {name:15} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}")
        if args.traced:
            runs.append(one_run(bench["command"], workload, args.first_seed,
                                bench["run_seconds"], 1))
            bad += runs[-1]["exit"] != 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"benchmark": bench, "seeds": list(seeds), "summary": summary,
                       "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
