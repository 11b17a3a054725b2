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
