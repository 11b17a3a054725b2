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
    """The levels each call of ``intervals.fill`` from labelings or
    monotone filled, one list per call: empty when the fill left the points
    to the memoized step."""
    from gtseq import labelings, monotone
    log = []

    def watch(real):
        def fill(*args):
            levels = []
            log.append(levels)
            for level, box, values in real(*args):
                levels.append(level)
                yield level, box, values
        return fill

    for module in (labelings, monotone):
        monkeypatch.setattr(module, "fill", watch(module.fill))
    return log
