"""perfbench/make_reference.py, the tool that regenerates the benchmark's
reference fronts and tail constants, run at the tiny sizes."""

import importlib
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_make_reference_reproduces_the_stored_values(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    make_reference = importlib.import_module("make_reference")
    with open(os.path.join(BENCH, "reference.json")) as fh:
        stored = json.load(fh)
    out = tmp_path / "reference.json"
    monkeypatch.setattr(make_reference, "REFERENCE_PATH", str(out))
    monkeypatch.setattr(make_reference, "SIZES", ("tiny",))
    make_reference.main()
    made = json.loads(out.read_text())
    # the stored values came from an earlier build of the solver and differ
    # from today's in the last digits, so they are compared within the
    # tolerances the benchmark's output check uses
    tol = stored["tolerances"]
    assert made["tolerances"] == tol
    assert len(made["fkpp"]) == 2  # binary t_end = 5, and law (1,3) t_end = 4 with a tail
    for key, entry in made["fkpp"].items():
        expect = stored["fkpp"][key]
        assert entry["front"] == pytest.approx(expect["front"], rel=0, abs=tol["fkpp_front_abs"])
        assert entry.get("tail_constants", {}).keys() == expect.get("tail_constants", {}).keys()
        for s, value in entry.get("tail_constants", {}).items():
            assert value == pytest.approx(expect["tail_constants"][s], rel=tol["fkpp_tail_rel"], abs=0)
