"""The fit comparison of ``tools/fit_deviation.py``, loaded by path."""

import copy
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_deviation.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fit_deviation", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def fits():
    rng = np.random.default_rng(0)
    one = {
        "params": {"lstm0/Wx": rng.standard_normal((3, 8)), "veracity/out/b": np.zeros(3)},
        "history": np.array([1.25, 0.75]),
        "probs": {"veracity": np.full((4, 3), 1 / 3), "stance": np.full((6, 4), 0.25)},
        "labels": {"veracity": ["true", "false"], "detection": ["rumour", "rumour"],
                   "stance": ["support", "deny", "query"]},
    }
    return {"paper seed 11": one, "tiny seed 11": copy.deepcopy(one)}


def test_identical_fits_report_nothing():
    ref = fits()
    assert tool.compare(ref, copy.deepcopy(ref)) == []
    assert tool.summary("tiny seed 11", ref["tiny seed 11"], ref["tiny seed 11"]) == (
        "tiny seed 11: parameters 0, loss history 0, probabilities 0, 0 of 7 labels changed")


def test_one_ulp_in_one_block_reported_with_its_size():
    ref, new = fits(), fits()
    block = new["tiny seed 11"]["params"]["lstm0/Wx"]
    step = np.nextafter(block[1, 2], np.inf) - block[1, 2]
    block[1, 2] += step
    assert step > 0
    assert tool.compare(ref, new) == [
        f"tiny seed 11: parameter block lstm0/Wx largest difference {step:.3g}"]
    assert tool.summary("tiny seed 11", ref["tiny seed 11"], new["tiny seed 11"]).startswith(
        f"tiny seed 11: parameters {step:.3g}, loss history 0,")


def test_changed_label_counted():
    ref, new = fits(), fits()
    new["paper seed 11"]["labels"]["stance"][1] = "comment"
    new["paper seed 11"]["labels"]["veracity"][0] = "unverified"
    assert tool.compare(ref, new) == [
        "paper seed 11: 2 labels changed (veracity 1, detection 0, stance 1)"]


def test_missing_fit_and_block_reported():
    ref, new = fits(), fits()
    del new["tiny seed 11"]
    del new["paper seed 11"]["params"]["veracity/out/b"]
    assert tool.compare(ref, new) == [
        "paper seed 11: parameter block veracity/out/b largest difference nan",
        "tiny seed 11: missing in change"]


@pytest.mark.parametrize("seeds", [",", "", "11..12", "11,x"])
def test_bad_seeds_refused_before_any_ref_is_unpacked(monkeypatch, capsys, seeds):
    def unpack(ref, target):
        raise AssertionError("unpacked a ref")

    monkeypatch.setitem(sys.modules, "bench_pairs", types.SimpleNamespace(unpack=unpack))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
