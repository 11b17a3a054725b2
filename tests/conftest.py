import os
from pathlib import Path

import pytest

import gtseq


@pytest.fixture
def cli_env():
    """The environment for a ``gtseq`` subprocess: the source tree of the
    imported package first on the path, so the child runs the code under
    test rather than an installed copy."""
    env = dict(os.environ)
    src = str(Path(gtseq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


@pytest.fixture
def fill_log(monkeypatch):
    """The levels each call of ``intervals.fill`` filled, one list per call:
    2..top when it filled, empty when it left the points to the memoized
    step."""
    from gtseq import intervals
    log = []
    real = intervals.fill

    def fill(points, slots, table):
        filled = real(points, slots, table)
        log.append(list(range(2, len(points[0]) + 1)) if filled else [])
        return filled

    monkeypatch.setattr(intervals, "fill", fill)
    return log
