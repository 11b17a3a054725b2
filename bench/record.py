#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares.

    python3 bench/record.py

Writes bench/refs.json from the gtseq in this checkout's src/:

* pointsChecked of ``verify all`` and of each deep-sequences suite (they do
  not depend on the seed),
* the sha256 of ``emit pattern --limit 20`` for every ordering of the emit
  base vector,
* the stdout of the pairwise V-product ``apply`` at its base point; every
  shifted query is compared against it, since a shift of k leaves the
  operator's value unchanged.

Re-record only in a change that widens a sweep or changes an output on
purpose, and say so in that change; a speed-up must pass against the
references as they are.
"""

import json
import sys
import time
from itertools import permutations

import run


def main():
    runner = run.Runner(run.BENCH.parent, time.perf_counter() + 3600)

    def gtseq(*cli_args):
        code, out, err, _ = runner.spawn(
            [sys.executable, "-c", run.LAUNCH] + list(cli_args))
        if code != 0:
            raise SystemExit("gtseq %s failed: %s" % (" ".join(cli_args), err))
        return out

    points = {"all": json.loads(gtseq("verify", "all"))["pointsChecked"]}
    for suite, grid, trees in run.DEEP_SUITES:
        report = json.loads(gtseq("verify", suite, "--n", "5",
                                  "--grid=" + grid, "--trees", str(trees),
                                  "--seed", "1"))
        points[suite] = report["pointsChecked"]
    emit = {}
    for k in sorted(set(permutations(run.EMIT_BASE))):
        out = gtseq("emit", "pattern", run._k(k), "--limit",
                    str(run.EMIT_LIMIT))
        emit[",".join(map(str, k))] = run.digest(out.strip())
    apply = gtseq("apply", "--operator", run.APPLY_OPERATOR,
                  "--function", "alpha",
                  "--at=" + ",".join(map(str, run.APPLY_BASE))).strip()
    refs = {"recorded": time.strftime("%Y-%m-%d"),
            "pointsChecked": points, "emit": emit, "apply": apply}
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % run.REFS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
