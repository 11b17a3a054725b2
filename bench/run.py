#!/usr/bin/env python3
"""gtseq benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--root DIR] [--results FILE]

The benchmark drives the program as a user does: one ``gtseq`` process per
command, started from the checkout's ``src/`` and timed from outside with
``time.perf_counter``.  A workload repetition ("rep") is a fixed list of
commands whose inputs come from ``--seed``; the run repeats it until
``--seconds`` is spent (at least ``MIN_REPS`` times) and reports medians.
Every process is checked: exit code, zero violations, the recorded
``pointsChecked`` of each verify command, and the exact stdout of each point
query.  See bench/README.md for the workloads and metrics.

With ``--trace 1`` each cycle runs the rep twice on the same inputs, plain and
under bench/tracer.py, and the run prints the per-layer metrics plus the
tracing overhead instead of the end-to-end metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is the machine context (nproc,
Python version, and a fixed CPU loop timed between reps; it is never used to
rescale a number).  ``--results FILE`` appends the whole record, samples
included, as one JSON line; bench/compare.py reads such files.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs.json"

# What the installed ``gtseq`` console script runs.
LAUNCH = "import sys; from gtseq.cli import main; sys.exit(main())"

MIN_REPS = {0: 3, 1: 1}      # cycles per run, by --trace
SETUPS_PER_S = 0.75          # setup samples per second of run, between reps
MIN_SETUPS = 15
KILL_MARGIN_S = 100.0        # processes running this long past --seconds die
CALIBRATION_ITERS = 300_000

DEEP_SUITES = (                # (suite, grid, trees), all at --n 5
    ("theorem-main", "-2..2", 5),
    ("independence", "-2..2", 5),
    ("prop-first", "-1..1", 2),
    ("prop-second", "-1..1", 2),
    ("rho-zero", "-1..1", 1),
)
SUITE_NAMES = (
    "theorem-main", "independence", "shift-antisym", "delta-n", "e-rho",
    "prop-first", "prop-second", "rho-zero", "extensions-agree",
    "alpha-props", "refined", "doubly-refined", "paths", "intervals",
    "decomposition")

SHIFTS = range(-20, 21)
EMIT_BASE = (0, 2, 4, 6)
EMIT_LIMIT = 20
APPLY_BASE = (0, 2, 4, 6, 8)
APPLY_OPERATOR = " ".join("V(k%d,k%d)" % (i, j)
                          for i, j in combinations(range(1, 6), 2))
NONINTERSECTING_K = (0, 1, 1, 2, 4)


# --- exact references, independent of src/ -----------------------------------


def product_formula(k):
    num = den = 1
    for i, j in combinations(range(len(k)), 2):
        num *= k[j] - k[i] + j - i
        den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("product formula is not integral at %r" % (k,))
    return q


def asm_count(n):
    """Alternating sign matrices of order n: prod (3j+1)!/(n+j)!."""
    num = den = 1
    for j in range(n):
        num *= math.factorial(3 * j + 1)
        den *= math.factorial(n + j)
    return num // den


def _k(values):
    return "--k=" + ",".join(map(str, values))


def _shuffled(values, rng):
    values = list(values)
    rng.shuffle(values)
    return tuple(values)


def _translated(values, rng):
    shift = rng.choice(SHIFTS)
    return tuple(v + shift for v in values)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- commands and their correctness gates ------------------------------------


class Command:
    """One gtseq process: its arguments and what its output must be.

    ``points`` is the pointsChecked a verify command must report; ``stdout``
    is the exact output of a query, or ``sha256`` its digest.
    """

    def __init__(self, args, points=None, stdout=None, sha256=None):
        self.args = args
        self.points = points
        self.stdout = stdout
        self.sha256 = sha256

    @property
    def ops(self):
        return self.points if self.points is not None else 1

    def check(self, code, out):
        """(checks reported, failed ops, reason or None)."""
        if self.points is None:
            text = out.strip()
            ok = code == 0 and (text == self.stdout if self.sha256 is None
                                else digest(text) == self.sha256)
            return 0, 0 if ok else 1, None if ok else \
                "exit %d, stdout %.80r" % (code, text)
        try:
            report = json.loads(out)
            checked = report["pointsChecked"]
            violations = len(report["violations"])
        except (ValueError, KeyError, TypeError):
            return 0, self.points, "exit %d, no JSON report" % code
        if checked != self.points:
            return checked, self.points, \
                "pointsChecked %d, recorded %d" % (checked, self.points)
        if violations or code != 0:
            return checked, max(violations, 1), \
                "exit %d, %d violations" % (code, violations)
        return checked, 0, None


def verify_all(workers):
    def commands(rng, refs):
        return [Command(["verify", "all", "--workers", str(workers)],
                        points=refs["pointsChecked"]["all"])]
    return commands


def deep_sequences(rng, refs):
    # Each suite gets its own seed.  A suite's sequences come from its seed
    # alone, so one shared seed would give every suite the same sequences,
    # and one costly sequence would slow the whole rep.
    return [Command(["verify", suite, "--n", "5", "--grid=" + grid,
                     "--trees", str(trees),
                     "--seed", str(rng.randrange(1, 10 ** 6))],
                    points=refs["pointsChecked"][suite])
            for suite, grid, trees in DEEP_SUITES]


def point_queries(rng, refs):
    gt_k = _shuffled((0, 2, 4, 6, 8), rng)
    pattern_k = _translated((0, 3, 6, 9, 12, 15), rng)
    alpha_k = _translated(range(1, 9), rng)
    det_k = _shuffled(range(0, 80, 2), rng)
    general_k = _shuffled(range(0, 14, 2), rng)
    emit_k = _shuffled(EMIT_BASE, rng)
    apply_k = _translated(APPLY_BASE, rng)
    return [
        Command(["count", "gtseq", _k(gt_k), "--sequence", "random",
                 "--seed", str(rng.randrange(10 ** 6))],
                stdout=str(product_formula(gt_k))),
        Command(["count", "patterns", _k(pattern_k)],
                stdout=str(product_formula(pattern_k))),
        Command(["count", "alpha", "--n", "8", _k(alpha_k)],
                stdout=str(asm_count(8))),
        Command(["count", "det", _k(det_k)],
                stdout=str(product_formula(det_k))),
        Command(["count", "paths", "--variant", "general", _k(general_k)],
                stdout=str(product_formula(general_k))),
        Command(["count", "paths", "--variant", "nonintersecting",
                 _k(NONINTERSECTING_K)],
                stdout=str(product_formula(NONINTERSECTING_K))),
        Command(["emit", "pattern", _k(emit_k), "--limit", str(EMIT_LIMIT)],
                sha256=refs["emit"][",".join(map(str, emit_k))]),
        Command(["apply", "--operator", APPLY_OPERATOR, "--function", "alpha",
                 "--at=" + ",".join(map(str, apply_k))],
                stdout=refs["apply"]),
    ]


# name -> (commands(rng, refs), pool workers per verify process)
WORKLOADS = {
    "verify-all": (verify_all(1), 1),
    "verify-all-w2": (verify_all(2), 2),
    "deep-sequences": (deep_sequences, 1),
    "point-queries": (point_queries, 1),
}


# --- running processes -------------------------------------------------------


class Runner:
    """Starts gtseq processes from one source tree; reaps each with wait4."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("GTSEQ_CONFIG", None)

    def spawn(self, argv):
        """(exit code, stdout, stderr, rusage) of one process."""
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        timer = threading.Timer(max(self.deadline - time.perf_counter(), 0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        err = []
        reader = threading.Thread(
            target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        # Disarm before reaping, so the group id cannot have been reused.
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return proc.returncode, out.decode(), err[0].decode(), usage

    def setup_seconds(self):
        started = time.perf_counter()
        code, _, err, _ = self.spawn([sys.executable, "-c",
                                      "import gtseq.cli"])
        took = time.perf_counter() - started
        if code != 0:
            raise RuntimeError("importing gtseq.cli failed: %s" % err.strip())
        return took

    def rep(self, commands, trace_prefix=None):
        """Run the commands in order; time from first spawn to last exit."""
        finished = []
        marks = [time.perf_counter()]
        for i, cmd in enumerate(commands):
            if trace_prefix is None:
                argv = [sys.executable, "-c", LAUNCH] + cmd.args
            else:
                argv = [sys.executable, str(BENCH / "tracer.py"),
                        "%s-%d" % (trace_prefix, i)] + cmd.args
            finished.append(self.spawn(argv))
            marks.append(time.perf_counter())
        rep = {"wall_s": marks[-1] - marks[0], "cpu_s": 0.0,
               "command_s": [b - a for a, b in zip(marks, marks[1:])],
               "peak_rss_kb": 0, "ops": 0, "failed": 0, "checks": 0,
               "errors": []}
        for cmd, (code, out, err, usage) in zip(commands, finished):
            checks, failed, reason = cmd.check(code, out)
            rep["cpu_s"] += usage.ru_utime + usage.ru_stime
            rep["peak_rss_kb"] = max(rep["peak_rss_kb"], usage.ru_maxrss)
            rep["ops"] += cmd.ops
            rep["failed"] += failed
            rep["checks"] += checks
            if reason:
                rep["errors"].append("gtseq %s: %s %s" % (
                    " ".join(cmd.args), reason, err.strip()[-300:]))
        return rep


def calibrate():
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    started = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - started


# --- per-layer metrics from trace files -------------------------------------


def load_traces(prefix):
    folder = Path(prefix).parent
    stem = Path(prefix).name
    groups = {}
    memo = {}
    spans = {}
    import_s = 0.0
    for path in sorted(folder.glob(stem + "-*.json")):
        doc = json.loads(path.read_text())
        import_s += doc["import_s"]
        spans[path.stem] = doc["spans"]
        for label, value in doc["memo"].items():
            memo[label] = memo.get(label, 0) + value
        for name, st in doc["stats"].items():
            group = name.split(":", 1)[0] if not name.startswith(
                "verify.suite:") else name
            acc = groups.setdefault(group, [0, 0.0, 0.0, 0, 0, 0])
            for i, value in enumerate(st):
                acc[i] += value
        path.unlink()
    return groups, memo, import_s, spans


def _g(groups, name, field):
    index = {"calls": 0, "self_s": 1, "total_s": 2, "items": 5}[field]
    return groups.get(name, [0] * 6)[index]


def _ratio(groups, name):
    lookups, hits = groups.get(name, [0] * 6)[3:5]
    return hits / lookups if lookups else 0.0


def _self(group):
    return "s", "lower", lambda g, m, x: _g(g, group, "self_s")


def _calls(group, field="calls"):
    return "count", "lower", lambda g, m, x: _g(g, group, field)


def _memo(*labels):
    return "count", "lower", lambda g, m, x: sum(m.get(l, 0) for l in labels)


def _hit_ratio(group):
    return "ratio", "higher", lambda g, m, x: _ratio(g, group)


def _suite(name):
    return "s", "lower", \
        lambda g, m, x: _g(g, "verify.suite:" + name, "total_s")


def _suite_times(groups):
    return [_g(groups, "verify.suite:" + s, "total_s") for s in SUITE_NAMES]


# name -> (unit, better, value(groups, memo, extra)); extra holds
# checks, workers, wall_s and import_s of the traced rep.
PER_LAYER = {
    "verify.checks": ("count", "higher", lambda g, m, x: x["checks"]),
    **{"verify.suite.%s_s" % s: _suite(s) for s in SUITE_NAMES},
    "verify.straggler_s": ("s", "lower",
                           lambda g, m, x: max(_suite_times(g))),
    "verify.pool_efficiency": (
        "ratio", "higher",
        lambda g, m, x: sum(_suite_times(g)) / (x["workers"] * x["wall_s"])),
    "operators.build_s": _self("operators.build"),
    "operators.build_calls": _calls("operators.build"),
    "operators.apply_s": _self("operators.apply"),
    "operators.apply_calls": _calls("operators.apply"),
    "operators.terms_applied": _calls("operators.apply", "items"),
    "operators.lattice_calls": _calls("operators.lattice"),
    "operators.lattice_hit_ratio": _hit_ratio("operators.lattice"),
    "operators.lattice_memo_entries": _memo("operators.LatticeFunction"),
    "operators.product_formula_calls": _calls("operators.product_formula"),
    "operators.product_formula_s": _self("operators.product_formula"),
    "operators.determinant_s": _self("operators.determinant"),
    "labelings.counter_s": _self("labelings.counter"),
    "labelings.counter_calls": _calls("labelings.counter"),
    "labelings.counter_hit_ratio": _hit_ratio("labelings.counter"),
    "labelings.restricted_s": _self("labelings.restricted"),
    "labelings.filtered_s": _self("labelings.filtered"),
    "labelings.witnesses_s": _self("labelings.witnesses"),
    "labelings.witnesses": _calls("labelings.witnesses", "items"),
    "labelings.memo_entries": _memo("labelings.SequenceCounter"),
    "trees.build_s": _self("trees.build"),
    "trees.edge_lookups": _calls("trees.edge_lookups"),
    "monotone.alpha_s": _self("monotone.alpha"),
    "monotone.alpha_hit_ratio": _hit_ratio("monotone.alpha"),
    "monotone.alpha_memo_entries": _memo("monotone._alpha_memo"),
    "monotone.extension_s": _self("monotone.extension"),
    "monotone.ext_memo_entries": _memo("monotone._ext_memos[2]",
                                       "monotone._ext_memos[3]",
                                       "monotone._ext_memos[4]"),
    "monotone.strict_memo_entries": _memo("monotone._strict_memo"),
    "monotone.operator_route_s": _self("monotone.operator_route"),
    "monotone.property_s": _self("monotone.property"),
    "monotone.refined_s": _self("monotone.refined"),
    "patterns.count_s": _self("patterns.count"),
    "patterns.count_hit_ratio": _hit_ratio("patterns.count"),
    "patterns.memo_entries": _memo("patterns._count_memo"),
    "patterns.enumerate_s": _self("patterns.enumerate"),
    "patterns.enumerated": _calls("patterns.enumerate", "items"),
    "paths.signed_s": _self("paths.signed"),
    "paths.nonintersecting_s": _self("paths.nonintersecting"),
    "intervals.calls": _calls("intervals.calls"),
    "cli.import_s": ("s", "lower", lambda g, m, x: x["import_s"]),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_metrics(prefix, rep, workers):
    """Per-layer metrics of one traced rep, and its spans by process."""
    groups, memo, import_s, spans = load_traces(prefix)
    extra = {"checks": rep["checks"], "workers": workers,
             "wall_s": rep["wall_s"], "import_s": import_s}
    return {name: fn(groups, memo, extra)
            for name, (_, _, fn) in PER_LAYER.items()}, spans


# --- one run -----------------------------------------------------------------


def machine_context():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "calibration_iters": CALIBRATION_ITERS}


def run(workload, seed, seconds, trace, root, trace_dir):
    commands_for, workers = WORKLOADS[workload]
    refs = json.loads(REFS.read_text())
    rng = random.Random(seed)
    started = time.perf_counter()
    runner = Runner(root, started + seconds + KILL_MARGIN_S)
    runner.setup_seconds()      # compiles bytecode, warms the file cache
    calibration, setups, plain, traced, layers = [], [], [], [], []
    spans = {}
    while True:
        calibration.append(calibrate())
        while not trace and \
                len(setups) < SETUPS_PER_S * (time.perf_counter() - started):
            setups.append(runner.setup_seconds())
        commands = commands_for(rng, refs)
        plain.append(runner.rep(commands))
        if trace:
            prefix = os.path.join(trace_dir, "rep%d" % len(traced))
            traced.append(runner.rep(commands, prefix))
            layer, spans = layer_metrics(prefix, traced[-1], workers)
            layers.append(layer)
        cycles = len(plain)
        elapsed = time.perf_counter() - started
        if cycles >= MIN_REPS[trace] and \
                elapsed * (cycles + 1) / cycles > seconds:
            break
    calibration.append(calibrate())
    # The time no whole rep fits in goes to more setup samples.
    while not trace and (len(setups) < MIN_SETUPS or
                         time.perf_counter() - started < seconds):
        setups.append(runner.setup_seconds())

    reps = plain + traced
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for message in r["errors"][:3]:
            print(message, file=sys.stderr)
    if trace:
        samples = {name: [layer[name] for layer in layers]
                   for name in PER_LAYER}
        samples[TRACE_OVERHEAD[0]] = [t["wall_s"] - p["wall_s"]
                                      for p, t in zip(plain, traced)]
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "ops_per_s": [r["ops"] / r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in plain],
        }
        units = END_TO_END
    metrics = {name: {"value": statistics.median(values),
                      "unit": units[name]}
               for name, values in samples.items()}
    context = dict(machine_context(), calibration_s=calibration,
                   reps=len(plain), traced_reps=len(traced),
                   setups=len(setups), run_s=time.perf_counter() - started)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, root=str(root), context=context,
                  samples=samples,
                  command_s=[r["command_s"] for r in plain], spans=spans)
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH.parent,
                        help="checkout whose src/ is measured"
                             " (default: the one holding bench/)")
    parser.add_argument("--results", type=Path,
                        help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "gtseq" / "cli.py").is_file():
        print("bench: no gtseq sources under %s" % (root / "src"),
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".trace-",
                                     dir=BENCH) as trace_dir:
        result, record = run(args.workload, args.seed, args.seconds,
                             args.trace, root, trace_dir)
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"context": record["context"]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
