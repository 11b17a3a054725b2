import hashlib
import json
from itertools import combinations, product

import pytest

from gtseq import monotone, verify
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
    relaxed = variant == "relaxed"
    name = "_rows_3" if relaxed else "_rows_%d" % variant
    real = getattr(monotone, name)

    def moved(v, **kwargs):
        # the relaxed count passes its subsets; variant 3 uses the default
        if ("subsets" in kwargs) != relaxed:
            yield from real(v, **kwargs)
            return
        for decoration, sign, inverted, box in real(v, **kwargs):
            if box:
                # the first slot's upper limit, one higher
                box = [range(box[0][0], box[0][-1] + 2)] + box[1:]
            yield decoration, sign, inverted, box

    monkeypatch.setattr(monotone, name, moved)
    if not relaxed:
        # a fresh memo, so that the moved rows are counted and the shared
        # table is left as it was
        monkeypatch.setitem(monotone._ext_memos, variant, {})
    rep = verify.suite_extensions_agree(bound3=1, lo4=0, hi4=1)
    want = ("extensionThreeRelaxed", None) if relaxed else ("extension",
                                                            variant)
    assert rep["violations"]
    assert all((v["check"], v.get("variant")) == want
               for v in rep["violations"])


def test_operator_cache_bounded_after_run_all(run_all_report):
    assert run_all_report["violations"] == []
    for build in PAIR_PRODUCTS.values():
        info = build.cache_info()
        assert 0 < info.currsize <= info.maxsize


def test_run_all_report_frozen(run_all_report):
    assert run_all_report["pointsChecked"] == 45103
    assert _report_digest(run_all_report) == FROZEN_RUN_ALL


@pytest.mark.parametrize("name", sorted(FROZEN_DEEP))
def test_deep_suite_reports_frozen(name):
    report = verify.run_suite(name, n_max=4, seed=FROZEN_DEEP_SEED)
    assert report["violations"] == []
    assert _report_digest(report) == FROZEN_DEEP[name]


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
            corners = verify._corner_values(product_formula, k)
            for size in range(n + 1):
                for R in combinations(range(1, n + 1), size):
                    got = verify._difference_in(
                        corners, verify._difference_masks(R))
                    assert got == _recursive_difference(
                        product_formula, k, R), (k, R)
