import concurrent.futures
import hashlib
import inspect
import json
import multiprocessing
from concurrent.futures import Future
from itertools import combinations, product

import pytest

from gtseq import monotone, verify
from gtseq.intervals import Family
from gtseq.monotone import PAIR_PRODUCTS
from gtseq.operators import product_formula


def _report_digest(report):
    """sha256 of a report as sorted-key JSON, with every wallTime removed."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "wallTime"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    text = json.dumps(strip(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the code before the pinned level was compiled into a plan
# over a shared per-values setup; a refactor of the counting code must
# leave every report unchanged.
FROZEN_RUN_ALL = \
    "bacde8b4e18ca5d5ac9253ef7ba923430d2c614765987ae8a65d2181e865a236"
FROZEN_DEEP_SEED = 33     # verify.run_suite(name, n_max=4, seed=33)
FROZEN_DEEP = {
    "theorem-main":
        "8b4b62b7becc4ede94306d0cb9aa47915df555ab0015397b63883ed47a481138",
    "independence":
        "04c9c860dbfa59b15ed7e410e4764021be51b466df330474bed6330a3b64d243",
    "prop-first":
        "850d77ef908e356eef1cb181f355b1e2f4f480bf30a4052ee5d2825567750e84",
    "prop-second":
        "4e0a742b8880d55fdf34e130622e7919249863accd2a4e015d00d1cee0f5299b",
    "rho-zero":
        "0b6a34e3cd7cde928094a644e29d43053e7e9da777d1aaff78272756ef12e7fa",
}


@pytest.fixture(scope="module")
def run_all_report():
    return verify.run_all()


def test_extensions_agree_catches_wrong_variant_one_stream(monkeypatch):
    real = verify.enumerate_extension

    def short_stream(variant, n, k):
        # drop the first object of every variant-1 stream
        stream = real(variant, n, k)
        if variant == 1:
            next(stream, None)
        return stream

    monkeypatch.setattr(verify, "enumerate_extension", short_stream)
    rep = verify.suite_extensions_agree(bound3=1, lo4=0, hi4=0)
    bad = [v for v in rep["violations"] if v["check"] == "extension"]
    assert bad
    assert all(v["variant"] == 1 and v["n"] == 3 for v in bad)
    assert len(bad) == len(rep["violations"])


@pytest.mark.parametrize("variant", (2, 3, 4, "relaxed"))
def test_extensions_agree_catches_moved_upper_limit(monkeypatch, variant):
    real = monotone.EXTENSIONS[variant].rows

    def moved(v):
        for decoration, sign, slots in real(v):
            slots = list(slots)
            for q, found in enumerate(slots):
                if found is not None:
                    # the first non-empty slot's upper limit, one higher
                    members, inverted = found
                    slots[q] = range(members[0], members[-1] + 2), inverted
                    break
            yield decoration, sign, slots

    # a fresh family of the moved rows, so that they are counted and the
    # live family is left as it was
    monkeypatch.setitem(monotone.EXTENSIONS, variant, Family(rows=moved))
    rep = verify.suite_extensions_agree(bound3=1, lo4=0, hi4=1)
    want = (("extensionThreeRelaxed", None) if variant == "relaxed"
            else ("extension", variant))
    assert rep["violations"]
    assert all((v["check"], v.get("variant")) == want
               for v in rep["violations"])


def test_asm_closed_forms_give_the_known_counts():
    assert [verify._asm_count(n) for n in range(1, 8)] == [
        1, 2, 7, 42, 429, 7436, 218348]
    assert verify._refined_asm_counts(4) == (7, 14, 14, 7)
    assert verify._refined_asm_counts(5) == (42, 105, 135, 105, 42)
    for n in range(1, 30):
        assert sum(verify._refined_asm_counts(n)) == verify._asm_count(n), n


@pytest.mark.parametrize("name, suite, params, check", [
    ("_refined_asm_counts", verify.suite_refined, dict(n_max=3),
     "closedForm"),
    ("_asm_count", verify.suite_extensions_agree,
     dict(bound3=1, lo4=0, hi4=0), "staircase"),
])
def test_gates_catch_a_closed_form_off_by_one(monkeypatch, name, suite, params,
                                              check):
    real = getattr(verify, name)

    def off(n):
        want = real(n)
        return want + 1 if isinstance(want, int) else (want[0] + 1,) + want[1:]

    monkeypatch.setattr(verify, name, off)
    report = suite(**params)
    assert report["violations"]
    assert {v["check"] for v in report["violations"]} == {check}


def test_refined_checks_the_closed_form_past_n_four():
    report = verify.suite_refined(n_max=6)
    assert report["pointsChecked"] > verify.suite_refined()["pointsChecked"]
    assert report["violations"] == []


def test_operator_cache_bounded_after_run_all(run_all_report):
    assert run_all_report["violations"] == []
    for build in PAIR_PRODUCTS.values():
        info = build.cache_info()
        assert 0 < info.currsize <= info.maxsize


def _camel(name):
    head, *rest = name.split("_")
    return head + "".join(part[:1].upper() + part[1:] for part in rest)


def test_report_parameters_name_every_suite_knob(run_all_report):
    # the command line maps its flags, and the bench tracer its spans,
    # through the signatures in SUITES
    reports = run_all_report["reports"]
    assert [r["suite"] for r in reports] == list(verify.SUITES)
    for report in reports:
        knobs = inspect.signature(verify.SUITES[report["suite"]]).parameters
        assert set(report["parameters"]) == {_camel(k) for k in knobs}


def test_run_all_report_frozen(run_all_report):
    assert run_all_report["pointsChecked"] == 45103
    assert _report_digest(run_all_report) == FROZEN_RUN_ALL


@pytest.mark.parametrize("name", sorted(FROZEN_DEEP))
def test_deep_suite_reports_frozen(name):
    # in one process and on a pool of two, which is gone when the call returns
    for workers in (1, 2):
        report = verify.run_suite(name, workers=workers, n_max=4,
                                  seed=FROZEN_DEEP_SEED)
        assert report["violations"] == []
        assert _report_digest(report) == FROZEN_DEEP[name], workers
    assert not multiprocessing.active_children()


def _inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a stand-in that starts no process;
    return the worker count of each pool opened and the unit index of each
    task submitted."""
    pools, tasks = [], []

    class InlinePool:
        """Runs the initializer, then each task as it is submitted, here."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, i):
            tasks.append(i)
            future = Future()
            future.set_result(fn(i))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools, tasks


def test_pool_is_no_larger_than_its_units(monkeypatch):
    pools, tasks = _inline_pool(monkeypatch)
    # the inline initializer hands the units to this process
    monkeypatch.setattr(verify, "_pool_units", ())
    report = verify.run_all(workers=100_000)
    units = [unit for name in verify.SUITES
             for unit in verify._PLANS[name]()[2]]
    assert pools == [len(units)]
    assert sorted(tasks) == list(range(len(units)))
    sizes = [verify._pool_units[i][0] for i in tasks]
    assert sizes == sorted(sizes, reverse=True)
    # taken largest first, the results still land in body order
    report["parameters"]["workers"] = 1
    assert _report_digest(report) == FROZEN_RUN_ALL


def test_one_dominant_unit_runs_without_a_pool(monkeypatch):
    pools, tasks = _inline_pool(monkeypatch)
    # independence at n_max = 4: the n = 4 unit (5 * 5^4 = 3,125) outweighs
    # the three below it (775), so two workers would mostly wait on it
    sizes = [size for size, _ in verify._PLANS["independence"](n_max=4)[2]]
    assert max(sizes) > sum(sizes) - max(sizes)
    report = verify.suite_independence(n_max=4, workers=2)
    assert pools == [] and tasks == []
    assert report["violations"] == []
    # at n = 3 the determinant and tree units weigh 5, 25 and 125 each, so
    # theorem-main keeps its pool; its initializer hands the units here
    monkeypatch.setattr(verify, "_pool_units", ())
    report = verify.suite_theorem_main(n_max=3, trees=1, det_n_max=3,
                                       det_bound=2, workers=2)
    assert pools == [2] and sorted(tasks) == list(range(6))
    assert report["violations"] == []


def _recursive_difference(f, k, coords):
    if not coords:
        return f(k)
    kp = list(k)
    kp[coords[0] - 1] += 1
    return (_recursive_difference(f, tuple(kp), coords[1:])
            - _recursive_difference(f, k, coords[1:]))


def test_difference_matches_recursive_definition():
    for n in (1, 2, 3, 4):
        for k in product(range(-2, 2), repeat=n):
            # product_formula(k + 1_S), listed by the bitmask of S
            corners = [product_formula(tuple(x + (mask >> i & 1)
                                             for i, x in enumerate(k)))
                       for mask in range(1 << n)]
            differences = verify._differences(corners)
            for size in range(n + 1):
                for R in combinations(range(1, n + 1), size):
                    mask = sum(1 << (c - 1) for c in R)
                    assert differences[mask] == _recursive_difference(
                        product_formula, k, R), (k, R)


def _off_at_zero_sum(f):
    """f, but one too large wherever the entries of its last argument k
    sum to 0."""
    return lambda *args: f(*args) + (sum(args[-1]) == 0)


def _family_off_at_zero_sum(real, mode=None):
    """A pinned family class whose instances (of one pinning mode, or of
    every mode) count one too many for every member wherever the entries of
    k sum to 0."""
    def make(*args, **kwargs):
        family = real(*args, **kwargs)
        if mode is None or kwargs.get("mode") == mode:
            return lambda k: tuple(value + (sum(k) == 0)
                                   for value in family(k))
        return family
    return make


def _p3_off_at_zero_sum(real):
    def check(prop, n, grid):
        grid = list(grid)
        report = real(prop, n, grid)
        if prop == "P3":
            report["violations"] = report["violations"] + [
                {"point": list(k), "residual": [1]}
                for k in grid if sum(k) == 0]
        return report
    return check


def _first_residual_off(real):
    return lambda n, vector=None: [r + (i == 0)
                                   for i, r in enumerate(real(n, vector))]


def _routes_fail_at_two(real):
    def counts(n):
        if n == 2:
            raise AssertionError("routes disagree at n=2")
        return real(n)
    return counts


def _left_anchored_off(real):
    return lambda x, y, z: real(x, y, z) and x != z


def _first_part_off_at_zero_sum(real):
    def counts(k, i):
        parts = dict(real(k, i))
        if sum(k) == 0:
            parts[next(iter(parts))] += 1
        return parts
    return counts


# suite -> (the name it reads in gtseq.verify, how to break that name,
# small parameters at which the broken suite reports violations)
BROKEN_SUITES = {
    "theorem-main": ("product_formula", _off_at_zero_sum,
                     dict(n_max=2, bound=1, trees=1, det_n_max=2,
                          det_bound=1)),
    "independence": ("signed_pattern_count", _off_at_zero_sum,
                     dict(n_max=2, bound=1, trees=2)),
    "shift-antisym": ("product_formula", _off_at_zero_sum,
                      dict(n_max=3, bound=1)),
    "delta-n": ("PATTERN_FAMILY", _off_at_zero_sum, dict(n_max=2, bound=1)),
    "e-rho": ("PATTERN_FAMILY", _off_at_zero_sum, dict(n_max=2, bound=1)),
    "prop-first": ("PinnedFamily", _family_off_at_zero_sum,
                   dict(n_max=3, bound=1, trees=1)),
    "prop-second": ("PinnedFamily",
                    lambda real: _family_off_at_zero_sum(real, "edge"),
                    dict(n_max=3, bound=1, trees=1)),
    "rho-zero": ("PinnedFamily", _family_off_at_zero_sum,
                 dict(n_max=3, bound=1, trees=1)),
    "extensions-agree": ("alpha", _off_at_zero_sum,
                         dict(bound3=1, lo4=0, hi4=0)),
    "alpha-props": ("check_alpha_property", _p3_off_at_zero_sum,
                    dict(n_max=2, bound=1)),
    "refined": ("linear_system_residuals", _first_residual_off,
                dict(n_max=3)),
    "doubly-refined": ("doubly_refined_asm", _routes_fail_at_two,
                       dict(n_max=3)),
    "paths": ("product_formula", _off_at_zero_sum,
              dict(n_max=2, classic_hi=2, general_bound=1)),
    "intervals": ("left_anchored_identity", _left_anchored_off,
                  dict(bound=1)),
    "decomposition": ("shift_decomposition_counts",
                      _first_part_off_at_zero_sum, dict(n=2, bound=1)),
}

# Recorded from the suites as they stood before the shared suite runner:
# the runner must keep each failing report, its point count and the order
# of its violations.
FROZEN_BROKEN = {
    "alpha-props":
        "03186f1c7c8bc08e06975e2a61c6878d61d53b11da161e609ab5d0561b384164",
    "decomposition":
        "bd39006ee7deda1c9368077a1fdea3e908c0366d23fb3d10e032ad9b45996469",
    "delta-n":
        "aa1d221b97d4507eaa9139ef0cc413c62b1ba8ac5c4bc19ba6e6349957392ef0",
    "doubly-refined":
        "1c57d2e092c8d2c8d8a94934651f78f4e6c87c63e5914f12956aa9995c3f9f05",
    "e-rho":
        "71dfe84cc861a41d1e10e92599fef7592f5fa2e1fe2fcbe0ae42c6359059e46e",
    "extensions-agree":
        "f96e081a168a1933076ab0b5af831d5b030f86d9bf1d757b2a3901d6f4aed218",
    "independence":
        "5e43adce818d4d7548a6e236a2f4e65478b4d8fcac9a6688c93ad6cc0fcb9d06",
    "intervals":
        "010b3ebd3ae05a36d01213f3a600142cb9987a31ca79322a5849631f7b4a77af",
    "paths":
        "a10a4e57694be24e42f5345fe674e52e99a956bb782503db1c2d15e7c2f4393e",
    "prop-first":
        "75ae929a49bae8dc6420d2fabe155e89de49cfe7c910dd82d35920e74be63d96",
    "prop-second":
        "4f81874e47d19661ba55a6f0aba325d6a7970a24a179bec64215756f3a21db09",
    "refined":
        "3219a6ae4f89938e15d3499ccde1bf73d411abb4054ed5a4e1804ebf7cf226f2",
    "rho-zero":
        "5226233129c5d3ff6babdfcd448610fc6c3aa896e419cd0106b822023394f438",
    "shift-antisym":
        "7c6827527651c993c7f5c50866bb6f8c83adb57146ea6506662ad6eb608d0673",
    "theorem-main":
        "01849f7dfc8d9f456678eb26dabb7085c91737fee65bf0019033433d4e23f1d2",
}


@pytest.mark.parametrize("name", sorted(BROKEN_SUITES))
def test_broken_suite_reports_frozen(monkeypatch, name):
    attr, break_, params = BROKEN_SUITES[name]
    monkeypatch.setattr(verify, attr, break_(getattr(verify, attr)))
    # forked workers inherit the broken name
    for workers in (1, 2):
        report = verify.run_suite(name, workers=workers, **params)
        assert report["violations"]
        assert _report_digest(report) == FROZEN_BROKEN[name], workers
