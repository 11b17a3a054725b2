"""Acceptance gate: one test per release criterion.

Every test prints a single PASS or FAIL line (run pytest with -s or read
the captured output) and asserts that the underlying sweep found zero
violations.  All arithmetic is exact integer arithmetic; there is no
tolerance anywhere.
"""

import itertools
import json
import subprocess
import sys
import time

from gtseq.labelings import SequenceCounter
from gtseq.monotone import check_alpha_property
from gtseq.operators import product_formula
from gtseq.trees import random_sequence
from gtseq import verify


def report_line(label, reports):
    bad = []
    for rep in reports:
        bad.extend(rep["violations"])
    points = sum(rep["pointsChecked"] for rep in reports)
    status = "PASS" if not bad else "FAIL"
    print("%s: %s (%d points, %d violations)"
          % (status, label, points, len(bad)))
    return bad


def deep_cube_mismatches(n=5, bound=2, trees=5, seed=7):
    """(seed, k) wherever a seeded order-n sequence's sweep of the cube
    [-bound, bound]^n disagrees with its point calls or with the product
    formula."""
    grid = list(itertools.product(range(-bound, bound + 1), repeat=n))
    bad = []
    for s in range(seed, seed + trees):
        seq = random_sequence(n, s)
        pointwise = SequenceCounter(seq)
        swept = SequenceCounter(seq).sweep(grid)
        bad += [(s, k) for k, value in zip(grid, swept)
                if not value == pointwise(k) == product_formula(k)]
    print("%s: n=5 cube swept, point by point and by the product formula"
          " (%d points, %d mismatches)" % ("FAIL" if bad else "PASS",
                                           trees * len(grid), len(bad)))
    return bad


def test_tree_sequence_counts_match_product():
    started = time.time()
    rep = verify.suite_theorem_main(det_n_max=0)
    bad = report_line("tree sequence signed counts equal the product"
                      " formula", [rep])
    assert bad == []
    assert deep_cube_mismatches() == []
    assert time.time() - started < 300


def test_determinant_matches_product():
    started = time.time()
    rep = verify.suite_theorem_main(n_max=0)
    bad = report_line("binomial determinant equals the product formula",
                      [rep])
    assert bad == []
    assert time.time() - started < 60


def test_shift_antisymmetry_and_independence():
    reps = [verify.suite_shift_antisym(), verify.suite_independence()]
    bad = report_line("shift antisymmetry and sequence independence", reps)
    assert bad == []


def test_operator_annihilation():
    reps = [verify.suite_delta_n(), verify.suite_e_rho()]
    bad = report_line("difference operators annihilate both counting"
                      " functions", reps)
    assert bad == []


def test_restricted_counts_and_vanishing_sums():
    reps = [verify.suite_prop_first(), verify.suite_prop_second(),
            verify.suite_rho_zero()]
    bad = report_line("restricted counts, edge and vertex modes, vanishing"
                      " subset sums", reps)
    assert bad == []


def test_monotone_extensions_agree():
    rep = verify.suite_extensions_agree()
    bad = report_line("monotone triangle recursion, extensions, and"
                      " operator forms agree", [rep])
    assert bad == []


def test_refined_counts():
    reps = [verify.suite_refined(), verify.suite_doubly_refined()]
    bad = report_line("refined and doubly refined counts with their linear"
                      " relations", reps)
    assert bad == []


def test_cyclic_alpha_identity():
    reports = []
    for n in range(1, 5):
        grid = itertools.product(range(-2, 3), repeat=n)
        reports.append(check_alpha_property("P3", n, grid))
    bad = report_line("cyclic shift identity for the triangle count",
                      reports)
    assert bad == []


def test_path_models():
    rep = verify.suite_paths()
    bad = report_line("lattice path families match the product formula",
                      [rep])
    assert bad == []


def test_intervals_and_decomposition():
    reps = [verify.suite_intervals(), verify.suite_decomposition()]
    bad = report_line("generalized intervals and the pattern decomposition",
                      reps)
    assert bad == []


def test_cli_verify_all_exits_clean(cli_env):
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "gtseq.cli", "verify", "all"],
        capture_output=True, text=True, timeout=900, env=cli_env)
    elapsed = time.time() - started
    status = "PASS" if proc.returncode == 0 else "FAIL"
    print("%s: gtseq verify all exits 0 (%.1fs)" % (status, elapsed))
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 900


def _without_wall_time(report):
    if isinstance(report, dict):
        return {key: _without_wall_time(value)
                for key, value in report.items() if key != "wallTime"}
    if isinstance(report, list):
        return [_without_wall_time(value) for value in report]
    return report


def test_cli_verify_all_independent_of_workers(cli_env):
    reports = {}
    for workers in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "gtseq.cli", "verify", "all",
             "--workers", str(workers)],
            capture_output=True, text=True, timeout=900, env=cli_env)
        assert proc.returncode == 0, proc.stderr
        report = _without_wall_time(json.loads(proc.stdout))
        # the report echoes the worker count; nothing else may differ
        assert report["parameters"].pop("workers") == workers
        reports[workers] = report
    same = reports[1] == reports[2]
    status = "PASS" if same else "FAIL"
    print("%s: gtseq verify all reports the same at --workers 1 and 2"
          " (%d points)" % (status, reports[1]["pointsChecked"]))
    assert same
