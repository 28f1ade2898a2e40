"""The file comparison of ``tools/cli_identity.py``, loaded by path."""

import importlib.util
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_identity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


def test_identical_trees_have_no_problems():
    files = {"a.log": b"exit 0\n", "out/model.json": b"{}"}
    assert tool.compare(files, dict(files)) == []


def test_differences_and_missing_files_sorted_by_path():
    ref = {"a": b"1", "b": b"2", "c": b"3"}
    new = {"b": b"2", "c": b"4", "d": b"5"}
    assert tool.compare(ref, new) == [
        "missing in change: a", "differs: c", "missing in ref: d"]


def test_roots_and_trees_masked_in_contents(tmp_path):
    sides = []
    for side in ("ref", "change"):
        root, tree = tmp_path / side, tmp_path / f"{side}-tree"
        (root / "out").mkdir(parents=True)
        (root / "out" / "run.log").write_text(f"wrote {root}/out/x from {tree}/src\n")
        sides.append(tool.read_tree(root, tree))
    assert sides[0] == {"out/run.log": b"wrote <root>/out/x from <tree>/src\n"}
    assert tool.compare(*sides) == []


def test_json_differences_sized():
    ref = {"p.ndjson": b'{"pred": "true", "probs": [0.25, 0.75]}\n{"pred": "false"}\n',
           "m.json": b'{"f": 0.5, "ok": true}', "r.csv": b"a,1\n"}
    new = {"p.ndjson": b'{"pred": "true", "probs": [0.25, 0.7500001]}\n{"pred": "true"}\n',
           "m.json": b'{"f": 0.5, "ok": false, "extra": 1}', "r.csv": b"a,2\n"}
    assert tool.compare(ref, new) == [
        "differs: m.json (largest numeric difference 0, 2 other values differ)",
        "differs: p.ndjson (largest numeric difference 1e-07, 1 other values differ)",
        "differs: r.csv"]


def test_a_number_nan_on_one_side_differs():
    nan = float("nan")
    assert tool.value_differences([1.0, 2.0], [1.0, nan]) == (0.0, 1)
    assert tool.value_differences([nan, 2.0], [nan, 2.5]) == (0.5, 0)


def test_one_ulp_in_one_block_reported_with_its_size(tmp_path):
    from rumourmtl.neural import save_params

    params = {"lstm0/Wx": np.linspace(-1.0, 1.0, 24).reshape(3, 8), "veracity/out/b": np.zeros(3)}
    save_params(params, tmp_path / "ref.json")
    step = np.nextafter(params["lstm0/Wx"][1, 2], np.inf) - params["lstm0/Wx"][1, 2]
    params["lstm0/Wx"][1, 2] += step
    save_params(params, tmp_path / "new.json")
    ref, new = ({"out/model.json": (tmp_path / f"{side}.json").read_bytes()}
                for side in ("ref", "new"))
    assert step > 0 and tool.compare(ref, new) == [
        f"differs: out/model.json (largest numeric difference {step:.3g}, 0 other values differ)"]


def test_fit_inputs_give_each_workload_its_corpus_and_run_config(tmp_path):
    from rumourmtl.cli import _RUN_KEYS, RunConfig, dispatch, load_config_file
    from rumourmtl.corpus import generate_synthetic, save_corpus

    runs = dict(tool.fit_commands(tmp_path, [11]))
    workloads = tool.bench_workloads()
    for w in workloads.WORKLOADS.values():
        (_, synth), (_, train), _ = runs[f"{w.name}-11"]
        assert dispatch(synth) == 0
        save_corpus(generate_synthetic(w.spec, 11), tmp_path / "expected.ndjson")
        assert Path(synth[-1]).read_bytes() == (tmp_path / "expected.ndjson").read_bytes()
        cfg = RunConfig.from_values(load_config_file(train[1], _RUN_KEYS))
        assert (cfg.corpus, cfg.hp, cfg.tasks, cfg.embedding_dim, cfg.seed) == (
            synth[-1], replace(w.hp, epochs=w.epochs), w.tasks, w.dim, workloads.MODEL_SEED)


def test_embedding_file_leaves_posts_out_of_vocabulary(tmp_path):
    from rumourmtl.cli import dispatch
    from rumourmtl.corpus import load_corpus
    from rumourmtl.text import load_embeddings, preprocess

    spec, corpus = tmp_path / "small.spec", tmp_path / "small.ndjson"
    spec.write_text(tool.CORPORA[tool.OOV_CORPUS])
    assert dispatch(["synth", str(spec), "-o", str(corpus)]) == 0
    text = tool.embedding_file(corpus)
    assert tool.embedding_file(corpus) == text
    (tmp_path / "oov.vec").write_text(text)
    table = load_embeddings(tmp_path / "oov.vec")
    posts = [preprocess(p.text) for t in load_corpus(corpus).threads for p in t.posts]
    tokens = sorted({tok for toks in posts for tok in toks})
    assert table.dimension == tool.OOV_DIM and len(table) == len(tokens) // 2
    assert all((tok in table) == (i % 2 == 1) for i, tok in enumerate(tokens))
    assert any(not any(tok in table for tok in toks) for toks in posts)


def test_a_search_reaches_tpe_and_the_accuracy_objective(tmp_path):
    from rumourmtl.search import TPE_STARTUP

    searches = [argv for _, argv in tool.model_commands(tmp_path / "run.cfg", tmp_path)
                if argv[0] == "search"]
    assert any(int(argv[argv.index("--trials") + 1]) > TPE_STARTUP for argv in searches)
    assert any(argv[argv.index("--objective") + 1] == "accuracy"
               for argv in searches if "--objective" in argv)


@pytest.mark.parametrize("seeds", [",", "", "11..12", "11,x"])
def test_bad_seeds_refused_before_any_ref_is_unpacked(monkeypatch, capsys, seeds):
    def unpack(ref, target):
        raise AssertionError("unpacked a ref")

    monkeypatch.setitem(sys.modules, "bench_pairs", types.SimpleNamespace(unpack=unpack))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
