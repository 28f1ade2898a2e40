"""The per-metric verdict and report of ``tools/bench_pairs.py``, loaded by path."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()
verdict = tool.verdict
#: Ten parent runs: median 100, quartiles 99.125 and 100.875.
REF = [98.0, 99.0, 99.0, 99.5, 100.0, 100.0, 100.5, 101.0, 101.0, 102.0]


def test_clear_gain_is_met_in_either_direction():
    assert verdict(REF, [x + 5 for x in REF], "higher", 0.25) == "met"
    assert verdict(REF, [x - 5 for x in REF], "lower", 0.25) == "met"


def test_gain_needs_nine_wins_in_ten():
    new = [x + 5 for x in REF]
    new[0] = new[1] = REF[1] - 1    # two pairs lost
    assert verdict(REF, new, "higher", 0.25) == "same"
    new[0] = REF[0]                 # a tie counts for neither side
    assert verdict(REF, new, "higher", 0.25) == "same"
    new = [x + 5 for x in REF]
    new[0] = REF[0]                 # one tie, nine wins
    assert verdict(REF, new, "higher", 0.25) == "met"


def test_gain_needs_ten_pairs():
    assert verdict(REF[:9], [x + 5 for x in REF[:9]], "higher", 0.25) == "same"


def test_gain_needs_median_gap_beyond_parent_iqr():
    assert verdict(REF, [x + 1 for x in REF], "higher", 0.25) == "same"


def test_worse_beyond_bound():
    assert verdict(REF, [x * 0.7 for x in REF], "higher", 0.25) == "worse"
    assert verdict(REF, [x * 0.8 for x in REF], "higher", 0.25) == "same"
    assert verdict(REF, [x * 1.3 for x in REF], "lower", 0.25) == "worse"


def test_wide_parent_spread_is_unresolved_unless_every_run_beats():
    wide = [50.0, 60.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 140.0, 150.0]
    assert verdict(wide, [x + 5 for x in wide], "higher", 0.25) == "unresolved"
    assert verdict(wide, [x * 0.5 for x in wide], "higher", 0.25) == "unresolved"
    assert verdict(wide, [151.0 + i for i in range(10)], "higher", 0.25) == "met"
    assert verdict(wide, [49.0 - i for i in range(10)], "lower", 0.25) == "met"


def test_report_pairs_runs_by_seed(capsys):
    """A run that lacks a metric drops its pair, not one side's value: the
    change's 90s meet the parent's 100s of the same seeds, and the change's
    200 at seed 0 counts nowhere."""
    def run(value):
        metrics = {} if value is None else {"m": {"value": value}}
        return {"metrics": metrics, "failed": 0, "env": {}}

    results = {"ref": [run(None), run(100.0), run(100.0), run(100.0)],
               "change": [run(200.0), run(90.0), run(90.0), run(90.0)]}
    tool.report(results, {"end_to_end": [{"name": "m", "better": "higher", "bound": 0.25}]})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[1:] for row in rows if row[0] == "m"] == [
        ["100", "100", "100", "90", "90", "90", "0.900", "0/3", "1", "same"]]


def test_a_ref_that_git_cannot_archive_exits_1_with_its_name(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.unpack("no-such-ref", tmp_path / "tree")
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: git archive no-such-ref: ")


def test_report_names_the_allocator_settings_the_runs_inherit(capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    results = {"ref": [], "change": []}
    tool.report(results, {"end_to_end": []})
    assert "allocator (both sides): none set" in capsys.readouterr().out.splitlines()
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.arena_max=2")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "4")
    monkeypatch.setenv("NOT_MALLOC_X", "1")
    tool.report(results, {"end_to_end": []})
    assert capsys.readouterr().out.splitlines()[-1] == (
        "allocator (both sides): GLIBC_TUNABLES=glibc.malloc.arena_max=2 "
        "MALLOC_ARENA_MAX=4 MALLOC_TRIM_THRESHOLD_=131072")
