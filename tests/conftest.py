import os
import subprocess
import sys

import pytest

import vsbbm


@pytest.fixture
def fresh_python():
    """Run a fresh interpreter with the given arguments, importing this
    checkout's ``vsbbm`` and otherwise in the caller's environment, and
    return its standard output; a failure shows its standard error."""
    src = os.path.dirname(os.path.dirname(vsbbm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args: str) -> str:
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
