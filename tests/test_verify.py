from gtseq import verify
from gtseq.monotone import PAIR_PRODUCTS


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


def test_operator_cache_bounded_after_run_all():
    report = verify.run_all()
    assert report["violations"] == []
    for build in PAIR_PRODUCTS.values():
        info = build.cache_info()
        assert 0 < info.currsize <= info.maxsize
