from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# each demo at a size that runs in about a second
DEMO_ARGS = {
    "bridge_tube": ["--replicates", "200"],
    "cluster_collapse": ["--replicates", "20"],
    "covariance_check": ["--redraws", "300", "--pairs", "2"],
    "envelope_sandwich": ["--t", "4", "--replicates", "20"],
    "fkpp_front": ["--t-end", "5"],
    "martingale_convergence": ["--replicates", "20"],
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("name", list(DEMO_ARGS))
def test_demo_runs(fresh_python, name):
    assert fresh_python(str(DEMOS / f"{name}.py"), *DEMO_ARGS[name])
