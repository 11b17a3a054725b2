#!/usr/bin/env python3
"""Compare two result sets of the benchmark, parent against change.

Measure both sides in alternating pairs, then compare:

    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --out DIR
        [--workload NAME ...] [--pairs 10] [--seed 1] [--trace 0|1]

Compare result files written earlier with ``bench/run.py --results``:

    python3 bench/compare.py report PARENT.jsonl CHANGE.jsonl

``run`` measures PARENT_DIR/src and CHANGE_DIR/src with this benchmark's own
code and settings, run length included, so both sides run identical
benchmark code.  Pair i uses seed ``--seed + i`` on both sides, and the side
that runs first alternates from pair to pair.  The records go to
DIR/parent.jsonl and DIR/change.jsonl, which ``run`` empties first, and are
then reported as below.

``report`` pairs runs by workload, trace flag and seed and prints one row per
workload and metric: each side's median and quartiles, the pairs the change won, and
a verdict by the rule the benchmark fixes:

* better: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* unresolved: the run-to-run spread of either side (interquartile range
  over median) exceeds the metric's bound, unless every run of the change
  reads better than every run of the parent;
* worse: the change's median is worse than the parent's by more than the
  bound;
* same: none of the above.

Metrics without a bound (per-layer ones) get only "better" or "-".  Each
workload also gets a host row: the median calibration loop time of each
side, which shows a host slowdown beside the numbers and is never used to
rescale them.  The exit code is 1 when any row is "worse", and also when a
workload has no pair of runs to compare or a metric is missing from a run:
then nothing is judged, so nothing may pass as "no regression".
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def declared_metrics():
    """name -> (better, bound) from BENCHMARK.json, when it is there."""
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, better, bound):
    """(verdict, wins) for paired values of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if wins >= WIN_SHARE * len(parent) and abs(cm - pm) > p3 - p1:
        return "better", wins
    if bound is None:
        return "-", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", wins
    return "same", wins


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def report(parent_records, change_records, out=sys.stdout):
    """Print the rows; True when any is worse or cannot be judged."""
    declared = declared_metrics()
    groups = []
    for rec in parent_records + change_records:
        if (rec["workload"], rec["trace"]) not in groups:
            groups.append((rec["workload"], rec["trace"]))
    failed = False
    print("%-15s %-32s %-6s %-34s %-34s %-6s %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"), file=out)
    for workload, trace in groups:
        by_seed = [{r["seed"]: r for r in records
                    if (r["workload"], r["trace"]) == (workload, trace)}
                   for records in (parent_records, change_records)]
        seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
        if not seeds:
            print("%-15s no pair of runs with --trace %d on both sides" % (
                workload, trace), file=out)
            failed = True
            continue
        pairs = [(by_seed[0][s], by_seed[1][s]) for s in seeds]
        label = workload + ("/traced" if trace else "")
        names = set()
        for p, c in pairs:
            names |= set(p["metrics"]) | set(c["metrics"])
        order = {name: i for i, name in enumerate(declared)}
        for name in sorted(names, key=lambda n: (order.get(n, len(order)), n)):
            if not all(name in p["metrics"] and name in c["metrics"]
                       for p, c in pairs):
                print("%-15s %-32s missing from some runs" % (label, name),
                      file=out)
                failed = True
                continue
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            better, bound = declared.get(name, ("lower", None))
            result, wins = verdict(parent, change, better, bound)
            failed = failed or result == "worse"
            print("%-15s %-32s %-6s %-34s %-34s %2d/%-3d %s" % (
                label, name, pairs[0][0]["metrics"][name]["unit"],
                _fmt(parent), _fmt(change), wins, len(pairs), result),
                file=out)
        host = [[statistics.median(r["context"]["calibration_s"])
                 for r in side] for side in zip(*pairs)]
        print("%-15s %-32s %-6s %-34s %-34s %-6s %s" % (
            label, "(host) calibration_s", "s", _fmt(host[0]),
            _fmt(host[1]), "", "-"), file=out)
    return failed


def measure(args):
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    files = {side: out / ("%s.jsonl" % side) for side in sides}
    for path in files.values():
        path.write_text("")
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in args.workload:
            for side in order:
                cmd = [sys.executable, str(BENCH / "run.py"),
                       "--workload", workload, "--seed", str(args.seed + i),
                       "--seconds", str(args.run_seconds),
                       "--trace", str(args.trace),
                       "--root", str(sides[side]),
                       "--results", str(files[side])]
                print("pair %d/%d %s %s" % (i + 1, args.pairs, workload,
                                            side), file=sys.stderr)
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return files["parent"], files["change"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="measure both sides in alternating pairs")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report", help="compare two result files")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        args.workload = args.workload or [w["name"]
                                          for w in spec["workloads"]]
        args.run_seconds = spec["run_seconds"]
        parent_file, change_file = measure(args)
    else:
        parent_file, change_file = args.parent, args.change
    return 1 if report(load(parent_file), load(change_file)) else 0


if __name__ == "__main__":
    sys.exit(main())
