import csv
import dataclasses
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourmtl import cli, evaluation, mtl
from rumourmtl.cli import RunConfig, UsageError, dispatch, parse_config_text
from rumourmtl.corpus import VERACITY_CLASSES, Corpus, load_corpus, save_corpus, split_loeo
from rumourmtl.text import preprocess


@pytest.fixture()
def corpus_path(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text("events = 3\nthreads_per_event = 6\nseed = 5\n")
    out = tmp_path / "corpus.ndjson"
    assert dispatch(["synth", str(spec), "-o", str(out)]) == 0
    return out


def run_config(tmp_path, corpus_path, name="run.cfg", **overrides):
    values = {
        "corpus": str(corpus_path),
        "output_dir": str(tmp_path / "out"),
        "seed": "1",
        "tasks": "veracity,stance,detection",
        "embedding_dim": "8",
        "num_dense_layers": "1",
        "num_lstm_layers": "1",
        "dense_width": "8",
        "lstm_width": "6",
        "epochs": "2",
        "dropout": "0.0",
        "batch_size": "16",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return path


def count_builds(monkeypatch):
    """The corpora that ``mtl.build_instances`` is called on, one per call."""
    built = []
    build = mtl.build_instances

    def counting_build(corpus, *args, **kwargs):
        built.append(corpus)
        return build(corpus, *args, **kwargs)

    monkeypatch.setattr(mtl, "build_instances", counting_build)
    return built


class TestConfigParsing:
    def test_comments_and_blanks_skipped(self):
        values = parse_config_text("# top\n\nseed = 3\n corpus = c.ndjson \n")
        assert values == {"seed": "3", "corpus": "c.ndjson"}

    def test_missing_equals(self):
        with pytest.raises(UsageError, match="expected 'key = value'"):
            parse_config_text("seed 3\n")

    def test_missing_corpus_key(self):
        with pytest.raises(UsageError, match="missing required key 'corpus'"):
            RunConfig.from_values({"seed": "1"})

    def test_bad_hyperparameter_value(self):
        with pytest.raises(UsageError, match="bad value"):
            RunConfig.from_values({"corpus": "c", "epochs": "many"})

    def test_empty_embeddings_means_hash_embeddings(self):
        cfg = RunConfig.from_values({"corpus": "c", "embeddings": ""})
        assert cfg.embeddings is None and cfg.output_dir == "out"

    def test_tasks_must_include_veracity(self):
        with pytest.raises(UsageError, match="must include veracity"):
            RunConfig.from_values({"corpus": "c", "tasks": "stance"})

    def test_readme_minimal_run_config_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("A minimal run config:", 1)[1].split("```")[1]
        cfg = RunConfig.from_values(parse_config_text(block))
        assert cfg.corpus == "corpus.ndjson" and cfg.embedding_dim == 300


class TestValidate:
    def test_ok(self, corpus_path, capsys):
        assert dispatch(["validate", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 18 threads, 3 events")

    def test_corrupt_corpus_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{broken\n")
        assert dispatch(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_json_errors_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{broken\n")
        assert dispatch(["--json-errors", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert set(json.loads(err)) == {"error"}

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert dispatch(["validate", str(tmp_path / "nope.ndjson")]) == 1


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text("events = 2\nthreads_per_event = 4\nseed = 9\n")
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert dispatch(["synth", str(spec), "-o", str(a)]) == 0
        assert dispatch(["synth", str(spec), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text("events = 2\nthreads_per_event = 4\nseed = 9\n")
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        dispatch(["synth", str(spec), "-o", str(a)])
        dispatch(["synth", str(spec), "-o", str(b), "--seed", "10"])
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_spec_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        spec.write_text("coupling = 2.0\n")
        assert dispatch(["synth", str(spec), "-o", str(tmp_path / "x.ndjson")]) == 1


class TestAnalyze:
    def test_stdout_csv(self, corpus_path, capsys):
        assert dispatch(["analyze", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("event,stance_entropy")
        assert len(out.splitlines()) == 4  # header + 3 events

    def test_output_file(self, corpus_path, tmp_path, capsys):
        target = tmp_path / "stats.csv"
        assert dispatch(["analyze", str(corpus_path), "-o", str(target)]) == 0
        assert target.read_text().startswith("event,")


class TestTrainEvaluate:
    def test_round_trip(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["train", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "model.json").is_file()
        history = json.loads((out_dir / "loss_history.json").read_text())
        assert len(history["epoch_loss"]) == 2

        assert dispatch(["evaluate", str(cfg), "--model",
                         str(out_dir / "model.json")]) == 0
        lines = (out_dir / "predictions.ndjson").read_text().splitlines()
        assert len(lines) == 18
        first = json.loads(lines[0])
        assert set(first) == {"thread", "event", "veracity", "detection", "stance"}
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert set(metrics) == {"accuracy", "macro_f", "per_class_f1"}

    def test_epochs_flag_overrides_config(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["train", str(cfg), "--epochs", "1"]) == 0
        history = json.loads((tmp_path / "out" / "loss_history.json").read_text())
        assert len(history["epoch_loss"]) == 1

    def test_tasks_flag_overrides_config(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path, epochs=1, tasks="veracity")
        assert dispatch(["train", str(cfg), "--tasks", "veracity,detection"]) == 0
        meta = json.loads((tmp_path / "out" / "model.json").read_text())["meta"]
        assert meta["tasks"] == ["veracity", "detection"]
        capsys.readouterr()
        assert dispatch(["train", str(cfg), "--tasks", "stance"]) == 1
        assert "tasks" in capsys.readouterr().err

    def test_train_deterministic(self, tmp_path, corpus_path, capsys):
        # same config except output_dir, same seed
        cfg_a = run_config(tmp_path, corpus_path, name="a.cfg", output_dir=tmp_path / "a")
        cfg_b = run_config(tmp_path, corpus_path, name="b.cfg", output_dir=tmp_path / "b")
        assert dispatch(["train", str(cfg_a)]) == 0
        assert dispatch(["train", str(cfg_b)]) == 0
        assert ((tmp_path / "a" / "model.json").read_bytes()
                == (tmp_path / "b" / "model.json").read_bytes())

    def test_missing_checkpoint_exit_1(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["train", str(cfg), "--epochs", "1"]) == 0
        payload = json.loads((tmp_path / "out" / "model.json").read_text())
        payload["params"]["veracity/out/b"] = {"shape": [1], "data": [0.0]}
        reshaped = tmp_path / "reshaped.json"
        reshaped.write_text(json.dumps(payload))
        for bad in (tmp_path / "nope.json", reshaped):
            assert dispatch(["evaluate", str(cfg), "--model", str(bad)]) == 1
            assert "bad checkpoint" in capsys.readouterr().err


    def test_evaluate_without_veracity_labels_drops_stale_metrics(self, tmp_path, corpus_path,
                                                                   capsys):
        cfg = run_config(tmp_path, corpus_path, epochs=1)
        assert dispatch(["train", str(cfg)]) == 0
        model = str(tmp_path / "out" / "model.json")
        assert dispatch(["evaluate", str(cfg), "--model", model]) == 0
        assert (tmp_path / "out" / "metrics.json").is_file()
        unlabeled = TestLoeo.unlabel(corpus_path, tmp_path, {"event00", "event01", "event02"})
        cfg = run_config(tmp_path, unlabeled, name="unlabeled.cfg", epochs=1)
        assert dispatch(["evaluate", str(cfg), "--model", model]) == 0
        assert not (tmp_path / "out" / "metrics.json").exists()
        assert len((tmp_path / "out" / "predictions.ndjson").read_text().splitlines()) == 18


class TestLoeo:
    def test_baseline_report(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["loeo", str(cfg), "--models", "majority,nile"]) == 0
        out_dir = tmp_path / "out"
        report = (out_dir / "report.csv").read_text()
        assert report.splitlines()[0] == "model,macro_f,accuracy"
        assert {ln.split(",")[0] for ln in report.splitlines()[1:3]} \
            == {"majority", "nile"}
        for name in ("majority", "nile"):
            for event in ("event00", "event01", "event02"):
                assert (out_dir / f"predictions_{name}_{event}.ndjson").is_file()
        assert (out_dir / "report.txt").is_file()

    def test_rerun_byte_identical(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        dispatch(["loeo", str(cfg), "--models", "majority"])
        first = (tmp_path / "out" / "report.csv").read_bytes()
        dispatch(["loeo", str(cfg), "--models", "majority"])
        assert (tmp_path / "out" / "report.csv").read_bytes() == first

    def test_neural_model_fold(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path, epochs=1)
        assert dispatch(["loeo", str(cfg), "--models", "single"]) == 0
        lines = (tmp_path / "out" / "predictions_single_event00.ndjson").read_text()
        first = json.loads(lines.splitlines()[0])
        assert len(first["veracity"]["probs"]) == 3

    def test_unknown_model_exit_1(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["loeo", str(cfg), "--models", "resnet"]) == 1
        assert "unknown model" in capsys.readouterr().err

    @staticmethod
    def unlabel(corpus_path, tmp_path, events):
        """Copy of the corpus whose threads in ``events`` are non-rumours."""
        threads = tuple(
            dataclasses.replace(t, detection_label="non-rumour", veracity_label=None)
            if t.event in events else t
            for t in load_corpus(corpus_path).threads)
        out = tmp_path / "unlabeled.ndjson"
        save_corpus(Corpus(threads), out)
        return out

    def test_event_without_veracity_labels_gets_no_fold(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, self.unlabel(corpus_path, tmp_path, {"event02"}))
        assert dispatch(["loeo", str(cfg), "--models", "majority"]) == 0
        out_dir = tmp_path / "out"
        assert sorted(f.name for f in out_dir.glob("predictions_*")) == [
            "predictions_majority_event00.ndjson", "predictions_majority_event01.ndjson"]
        assert "event02" not in (out_dir / "report.csv").read_text()

    def test_no_labeled_thread_exit_1(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, self.unlabel(
            corpus_path, tmp_path, {"event00", "event01", "event02"}))
        assert dispatch(["loeo", str(cfg), "--models", "majority"]) == 1
        assert "no held-out event has a labeled thread" in capsys.readouterr().err

    def test_fold_without_labeled_training_thread_exit_1(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, self.unlabel(corpus_path, tmp_path, {"event01", "event02"}))
        for jobs in ("1", "2"):
            assert dispatch(["loeo", str(cfg), "--models", "majority", "--jobs", jobs]) == 1
            assert ("fold event00: no labeled thread outside the held-out event"
                    in capsys.readouterr().err)

    def test_process_pool_matches_serial(self, tmp_path, corpus_path, capsys):
        outputs = {}
        for jobs in ("1", "2"):
            cfg = run_config(tmp_path, corpus_path, name=f"jobs{jobs}.cfg",
                             output_dir=tmp_path / f"jobs{jobs}", epochs=1)
            assert dispatch(["loeo", str(cfg), "--models", "majority,nile,single",
                             "--jobs", jobs]) == 0
            outputs[jobs] = {f.name: f.read_bytes()
                             for f in sorted((tmp_path / f"jobs{jobs}").iterdir())}
        assert len(outputs["1"]) == 11  # 3 models x 3 events + report.csv/txt
        assert outputs["1"] == outputs["2"]

    @staticmethod
    def in_process_pool(monkeypatch):
        """Replace ``loeo``'s process pool by one that runs its initializer and
        its tasks in this process; returns the list of what each pool was
        given: ``max_workers`` and the (function, arguments) of every task."""
        pools = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append({"max_workers": max_workers, "tasks": []})
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                pools[-1]["tasks"] += [(fn, *args) for args in zip(*iterables)]
                return map(fn, *iterables)

        # The initializer installs the worker's state in the module.
        monkeypatch.setattr(cli, "_worker_fold", None)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        return pools

    def test_pool_capped_at_task_count(self, tmp_path, corpus_path, capsys, monkeypatch):
        pools = self.in_process_pool(monkeypatch)
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["loeo", str(cfg), "--models", "majority", "--jobs", "8"]) == 0
        assert [pool["max_workers"] for pool in pools] == [3]  # one (model, event) task per event

    def test_pool_task_sends_only_model_and_event(self, tmp_path, corpus_path, capsys,
                                                  monkeypatch):
        """The config, corpus and table reach each worker once, through the
        pool's initializer; a task pickles to under 1 KB."""
        pools = self.in_process_pool(monkeypatch)
        cfg = run_config(tmp_path, corpus_path, epochs=1)
        assert dispatch(["loeo", str(cfg), "--models", "majority,nile,single", "--jobs", "2"]) == 0
        tasks = pools[0]["tasks"]
        assert [task[1:] for task in tasks] == [
            (model, event) for model in ("majority", "nile", "single")
            for event in ("event00", "event01", "event02")]
        assert max(len(pickle.dumps(task)) for task in tasks) < 1024

    def test_corpus_loaded_once(self, tmp_path, corpus_path, capsys, monkeypatch):
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_corpus(path)

        monkeypatch.setattr(cli, "load_corpus", counting_load)
        cfg = run_config(tmp_path, corpus_path)
        assert dispatch(["loeo", str(cfg), "--models", "majority"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("models, builds", [("majority,nile", 0), ("single", 1),
                                                ("majority,nile,single,mtl2vs", 1)])
    def test_instances_built_once_per_command(self, models, builds, tmp_path, corpus_path,
                                              capsys, monkeypatch):
        built = count_builds(monkeypatch)
        cfg = run_config(tmp_path, corpus_path, epochs=1)
        assert dispatch(["loeo", str(cfg), "--models", models]) == 0
        assert len(built) == builds

    def test_fold_trains_on_the_build_of_its_training_split(self, tmp_path, corpus_path,
                                                           capsys, monkeypatch):
        """Each fold's share of the command's one build equals, instance by
        instance, ``build_instances`` of that fold's training split."""
        trained = []
        train = mtl.train

        def recording_train(model, instances, *args):
            trained.append(instances)
            return train(model, instances, *args)

        monkeypatch.setattr(mtl, "train", recording_train)
        cfg_path = run_config(tmp_path, corpus_path, epochs=1)
        assert dispatch(["loeo", str(cfg_path), "--models", "single"]) == 0
        cfg = cli._load_run_config(cli.build_parser().parse_args(["loeo", str(cfg_path)]))
        corpus, table = load_corpus(corpus_path), cli._embedding_table(cfg)
        assert len(trained) == len(corpus.events) == 3
        for event, got in zip(corpus.events, trained):
            train_split, _ = split_loeo(corpus, event)
            want = mtl.build_instances(train_split, table, max_branch_len=cfg.max_branch_len)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.x[a.rows].tobytes() == b.x[b.rows].tobytes()
                assert (a.true_length, a.detection_label, a.veracity_label, a.thread_id,
                        a.event, a.post_ids) == (b.true_length, b.detection_label,
                                                 b.veracity_label, b.thread_id, b.event,
                                                 b.post_ids)
                assert (a.stance_labels is None) == (b.stance_labels is None)
                if a.stance_labels is not None:
                    assert a.stance_labels.tolist() == b.stance_labels.tolist()


class TestSearch:
    def test_trials_logged_and_best_written(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, corpus_path, epochs=1, tasks="veracity")
        assert dispatch(["search", str(cfg), "--trials", "2"]) == 0
        out_dir = tmp_path / "out"
        lines = (out_dir / "trials.ndjson").read_text().splitlines()
        assert len(lines) == 2
        best = json.loads((out_dir / "best_config.json").read_text())
        assert best["status"] == "ok"
        assert {"num_dense_layers", "num_lstm_layers", "dense_width",
                "lstm_width", "l2"} <= set(best["config"])

    def test_tasks_flag_overrides_config(self, tmp_path, corpus_path, capsys, monkeypatch):
        trained = []
        train = mtl.train

        def recording_train(model, *args):
            trained.append(model.tasks)
            return train(model, *args)

        monkeypatch.setattr(mtl, "train", recording_train)
        cfg = run_config(tmp_path, corpus_path, epochs=1, tasks="veracity")
        assert dispatch(["search", str(cfg), "--trials", "1", "--tasks", "veracity,stance"]) == 0
        assert trained == [("veracity", "stance")]

    def test_instances_built_once_per_command(self, tmp_path, corpus_path, capsys,
                                              monkeypatch):
        built = count_builds(monkeypatch)
        cfg = run_config(tmp_path, corpus_path, epochs=1, tasks="veracity")
        assert dispatch(["search", str(cfg), "--trials", "3"]) == 0
        assert len(built) == 1

    def test_trial_scores_the_dev_event_fold(self, tmp_path, corpus_path, capsys):
        """A trial's scores are those of a model with its hyperparameters and
        seed, trained on the training split and scored on the dev event's
        labelled threads."""
        cfg_path = run_config(tmp_path, corpus_path, epochs=1, tasks="veracity,stance")
        assert dispatch(["search", str(cfg_path), "--trials", "2"]) == 0
        cfg = cli._load_run_config(cli.build_parser().parse_args(["search", str(cfg_path)]))
        corpus, table = load_corpus(corpus_path), cli._embedding_table(cfg)
        train_split, held_out = split_loeo(corpus, evaluation.dev_event(corpus))
        dev = [t for t in held_out.threads if t.veracity_label is not None]
        instances = mtl.build_instances(train_split, table, max_branch_len=cfg.max_branch_len)
        for line in (tmp_path / "out" / "trials.ndjson").read_text().splitlines():
            trial = json.loads(line)
            model = mtl.MTLModel(dataclasses.replace(cfg.hp, **trial["config"]), cfg.tasks,
                                 table.dimension, trial["seed"])
            mtl.train(model, instances, trial["seed"])
            preds = mtl.predict_threads(model, dev, table, max_branch_len=cfg.max_branch_len)
            metrics = evaluation.compute_metrics(
                [p.veracity for p in preds], [t.veracity_label for t in dev], VERACITY_CLASSES)
            assert (trial["macro_f"], trial["dev_accuracy"]) == (
                {"veracity": metrics.macro_f}, metrics.accuracy)

    def test_unlabeled_dev_or_training_split_exit_1(self, tmp_path, corpus_path, capsys):
        # event02 is the dev event: all events have 6 threads, ties go to the later name
        for unlabeled in ({"event02"}, {"event00", "event01"}):
            cfg = run_config(tmp_path, TestLoeo.unlabel(corpus_path, tmp_path, unlabeled),
                             epochs=1, tasks="veracity")
            assert dispatch(["search", str(cfg), "--trials", "2"]) == 1
            assert "dev event 'event02'" in capsys.readouterr().err
            assert not (tmp_path / "out" / "trials.ndjson").exists()


class TestDispatch:
    def test_help_exit_0(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_unknown_flag_exit_1(self, capsys):
        assert dispatch(["validate", "--bogus"]) == 1

    def test_no_command_exit_1(self, capsys):
        assert dispatch([]) == 1

    @pytest.mark.parametrize("command, flag, value", [("evaluate", "--tasks", "veracity"),
                                                      ("evaluate", "--epochs", "1"),
                                                      ("loeo", "--tasks", "veracity")])
    def test_flag_the_command_does_not_read_exit_1(self, command, flag, value, tmp_path,
                                                   corpus_path, capsys):
        """evaluate takes its model from the checkpoint, and loeo each
        model's tasks from ``MODEL_TASKS``."""
        model = ["--model", str(tmp_path / "model.json")] if command == "evaluate" else []
        args = [command, str(run_config(tmp_path, corpus_path)), *model, flag, value]
        assert dispatch(args) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _write(path, text):
    path.write_text(text)
    return path


def _write_bytes(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _corpus_dir_with_subdir(tmp_path):
    (tmp_path / "subdir" / "x.json").mkdir(parents=True)
    return tmp_path / "subdir"


#: Bytes that are not UTF-8 text.
NOT_UTF8 = b'{"event": "\xff\xfe"}\n'


def _evaluate_other_dim(tmp_path, corpus_path):
    assert dispatch(["train", str(run_config(tmp_path, corpus_path))]) == 0
    cfg = run_config(tmp_path, corpus_path, name="dim16.cfg", embedding_dim=16)
    return ["evaluate", cfg, "--model", tmp_path / "out" / "model.json"], "model.json"


def _bad_checkpoint(tmp_path, corpus_path, value):
    """``evaluate`` with a trained checkpoint whose first ``veracity/out/b``
    value is ``value``."""
    cfg = run_config(tmp_path, corpus_path, epochs=1)
    assert dispatch(["train", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "model.json").read_text())
    payload["params"]["veracity/out/b"]["data"][0] = value
    return ["evaluate", cfg, "--model", _write(tmp_path / "bad.json", json.dumps(payload))], \
        "veracity/out/b"


def _evaluate_nan_embeddings(tmp_path, corpus_path):
    assert dispatch(["train", str(run_config(tmp_path, corpus_path, epochs=1))]) == 0
    vec = _write(tmp_path / "nan.vec", "a 0 0 0 0 0 0 0 0\nb 0 0 nan 0 0 0 0 0\n")
    cfg = run_config(tmp_path, corpus_path, name="nan.cfg", embeddings=vec)
    return ["evaluate", cfg, "--model", tmp_path / "out" / "model.json"], "nan.vec:2"


def _corpus_tokens(corpus_path):
    return sorted({tok for thread in load_corpus(corpus_path).threads for post in thread.posts
                   for tok in preprocess(post.text)})


def _huge_embeddings(tmp_path, corpus_path):
    """Finite float64 values beyond the float32 range, refused at load."""
    return _write(tmp_path / "huge.vec",
                  "".join(f"{tok} 1e308 -1e308\n" for tok in _corpus_tokens(corpus_path)))


def _evaluate_huge_embeddings(tmp_path, corpus_path):
    cfg = run_config(tmp_path, corpus_path, epochs=1, embedding_dim=2)
    assert dispatch(["train", str(cfg)]) == 0
    cfg = run_config(tmp_path, corpus_path, name="huge.cfg",
                     embeddings=_huge_embeddings(tmp_path, corpus_path))
    return ["evaluate", cfg, "--model", tmp_path / "out" / "model.json"], "huge.vec:1"


def _overflowing_config(tmp_path, corpus_path):
    """A run whose first optimizer step moves every weight by about 1e30, so
    that the next batch's float32 logits overflow."""
    return run_config(tmp_path, corpus_path, learning_rate=1e30)


def _evaluate_overflowing_checkpoint(tmp_path, corpus_path):
    """A checkpoint whose veracity logits overflow in float32, although
    every value in it is within that range: each unit of the last dense
    layer outputs 3e38 and each output weight is 3e38."""
    cfg = run_config(tmp_path, corpus_path, epochs=1)
    assert dispatch(["train", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "model.json").read_text())
    for block in ("veracity/dense0/b", "veracity/out/W"):
        data = payload["params"][block]["data"]
        data[:] = [3e38] * len(data)
    return ["evaluate", cfg, "--model", _write(tmp_path / "huge.json", json.dumps(payload))], \
        "numerical overflow"


def _one_class_corpus(tmp_path):
    """A corpus whose every veracity label is 'true'."""
    spec = _write(tmp_path / "true.cfg", "events = 3\nthreads_per_event = 6\nseed = 5\n"
                  "prior_true = 1\nprior_false = 0\nprior_unverified = 0\n")
    out = tmp_path / "true.ndjson"
    assert dispatch(["synth", str(spec), "-o", str(out)]) == 0
    return out


def _blocker(tmp_path):
    """A regular file where an output path needs a directory."""
    return _write(tmp_path / "blocker", "")


def _rename_event(corpus_path, tmp_path, event):
    """Copy of the corpus whose event00 is called ``event``."""
    threads = tuple(dataclasses.replace(t, event=event) if t.event == "event00" else t
                    for t in load_corpus(corpus_path).threads)
    out = tmp_path / "renamed.ndjson"
    save_corpus(Corpus(threads), out)
    return out


def _loeo_event(tmp_path, corpus_path, event):
    """``loeo`` of the corpus with event00 called ``event``, into
    ``tmp_path/a/b/out``, so that a file name that climbs three directories
    out of it still lands inside ``tmp_path``."""
    cfg = run_config(tmp_path, _rename_event(corpus_path, tmp_path, event),
                     output_dir=tmp_path / "a" / "b" / "out")
    return ["loeo", cfg, "--models", "majority"], repr(event)


#: Bad input at the config and loader boundary: (argv, the key or file the
#: error line must name), built from a temporary directory and a corpus.
BAD_INPUTS = {
    "missing embeddings file": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=tmp / "nope.vec")], "nope.vec"),
    "malformed embeddings file": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=_write(tmp / "bad.vec", "a 1 2 3\nb 1 2\n"))],
        "bad.vec"),
    "embedding_dim 0": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embedding_dim=0)], "embedding_dim"),
    "max_branch_len 0": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, max_branch_len=0)], "max_branch_len"),
    "learning_rate nan": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, learning_rate="nan")], "learning_rate"),
    "non-integer synth spec value": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "events = three\n"), "-o", tmp / "x.ndjson"],
        "spec.cfg"),
    "non-integer synth events": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.txt", "events = abc\n"), "-o", tmp / "x.ndjson"],
        "config key 'events'"),
    "non-integer synth seed": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.txt", "seed = x\n"), "-o", tmp / "x.ndjson"],
        "config key 'seed'"),
    "repeated run config key": lambda tmp, corpus: (
        ["train", _write(tmp / "twice.cfg", run_config(tmp, corpus).read_text() + "epochs = 5\n")],
        "twice.cfg:13: key 'epochs' already set on line 10"),
    "repeated synth spec key": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "events = 2\nseed = 1\nevents = 3\n"),
         "-o", tmp / "x.ndjson"], "spec.cfg:3: key 'events' already set on line 1"),
    "evaluate with another embedding dim": _evaluate_other_dim,
    "loeo --jobs 0": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus), "--models", "majority", "--jobs", "0"], "--jobs"),
    "unknown task": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, tasks="veracity,bogus")], "tasks"),
    "negative config seed": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, seed=-1)], "seed"),
    "train --seed -3": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus), "--seed", "-3"], "seed"),
    "search --trials 0": lambda tmp, corpus: (
        ["search", run_config(tmp, corpus), "--trials", "0"], "--trials"),
    "search --trials -2": lambda tmp, corpus: (
        ["search", run_config(tmp, corpus), "--trials", "-2"], "--trials"),
    "synth tokens_per_post 0": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "tokens_per_post = 0\n"), "-o", tmp / "x.ndjson"],
        "tokens_per_post"),
    "synth tokens_per_post -2": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "tokens_per_post = -2\n"), "-o", tmp / "x.ndjson"],
        "tokens_per_post"),
    "synth of a corpus too large to hold": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "events = 99999999999999999999\n"), "-o",
         tmp / "x.ndjson"], "(1 + max replies) * tokens_per_post is 41999999999999999999580"),
    "nan synth prior": lambda tmp, corpus: (
        ["synth", _write(tmp / "nan.cfg", "prior_false = nan\n"), "-o", tmp / "x.ndjson"],
        "veracity_priors"),
    "non-UTF-8 corpus file in a directory": lambda tmp, corpus: (
        ["validate", _write_bytes(tmp / "dir" / "a.json", NOT_UTF8).parent], "a.json"),
    "directory named like a corpus file": lambda tmp, corpus: (
        ["validate", _corpus_dir_with_subdir(tmp)], "x.json"),
    "non-UTF-8 ndjson corpus": lambda tmp, corpus: (
        ["validate", _write_bytes(tmp / "latin.ndjson", NOT_UTF8)], "latin.ndjson"),
    "non-UTF-8 run config": lambda tmp, corpus: (
        ["train", _write_bytes(tmp / "latin.cfg", b"corpus = \xff\n")], "latin.cfg"),
    "train without a veracity-labeled thread": lambda tmp, corpus: (
        ["train", run_config(tmp, TestLoeo.unlabel(
            corpus, tmp, {"event00", "event01", "event02"}))], "unlabeled.ndjson"),
    "loeo --models empty": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus), "--models", ""], "--models"),
    "loeo --models ,": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus), "--models", ","], "--models"),
    "loeo --models majority,majority": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus), "--models", "majority,majority"], "--models"),
    "checkpoint block set to NaN": lambda tmp, corpus: _bad_checkpoint(tmp, corpus, float("nan")),
    "checkpoint value beyond float32": lambda tmp, corpus: _bad_checkpoint(tmp, corpus, 1e39),
    "train with a nan embedding": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=_write(tmp / "nan.vec", "a 1 nan\n"))],
        "nan.vec:1"),
    "train with a 1e400 embedding": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=_write(tmp / "big.vec", "a 1e400 1\n"))],
        "big.vec:1"),
    "evaluate with a nan embedding": _evaluate_nan_embeddings,
    "train with a 1e39 embedding": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=_write(tmp / "big.vec", "a 1e39 1\n"))],
        "big.vec:1"),
    "train with overflowing embeddings": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embeddings=_huge_embeddings(tmp, corpus))],
        "huge.vec:1"),
    "evaluate with overflowing embeddings": _evaluate_huge_embeddings,
    "train whose learning_rate overflows": lambda tmp, corpus: (
        ["train", _overflowing_config(tmp, corpus)], "numerical overflow"),
    "evaluate with an overflowing checkpoint": _evaluate_overflowing_checkpoint,
    "non-integer config seed": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, seed="abc")], "config key 'seed'"),
    "non-integer embedding_dim": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, embedding_dim="2.5")], "config key 'embedding_dim'"),
    "non-integer max_branch_len": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, max_branch_len="x")], "config key 'max_branch_len'"),
    "search whose every trial fails": lambda tmp, corpus: (
        ["search", _overflowing_config(tmp, corpus), "--trials", "2", "--epochs", "1"],
        "all trials failed; trial 0 error:"),
    "loeo nile on one veracity class": lambda tmp, corpus: (
        ["loeo", run_config(tmp, _one_class_corpus(tmp)), "--models", "nile"],
        "fold event00: nile"),
    "loeo nile on one veracity class, --jobs 2": lambda tmp, corpus: (
        ["loeo", run_config(tmp, _one_class_corpus(tmp)), "--models", "nile", "--jobs", "2"],
        "fold event00: nile"),
    "synth into a path under a file": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "events = 1\n"), "-o", _blocker(tmp) / "c.ndjson"],
        "blocker"),
    "analyze into a path under a file": lambda tmp, corpus: (
        ["analyze", corpus, "-o", _blocker(tmp) / "s.csv"], "blocker"),
    "train into an output_dir under a file": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, output_dir=_blocker(tmp) / "out")], "blocker"),
    "unknown run config key": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, epoch=1)], "unknown config key 'epoch'"),
    "unknown synth spec key": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.txt", "event = 2\n"), "-o", tmp / "x.ndjson"],
        "unknown config key 'event'"),
    "loeo event escaping the output dir": lambda tmp, corpus: _loeo_event(
        tmp, corpus, "/../../../escaped"),
    "loeo event with a NUL byte": lambda tmp, corpus: _loeo_event(tmp, corpus, "bad\0event"),
    "loeo event with a newline": lambda tmp, corpus: _loeo_event(tmp, corpus, "new\nline"),
    "validate event with a newline": lambda tmp, corpus: (
        ["validate", _rename_event(corpus, tmp, "new\nline")], "renamed.ndjson:1"),
    "validate event with a control character": lambda tmp, corpus: (
        ["validate", _rename_event(corpus, tmp, "bell\x07")], "renamed.ndjson:1"),
    "empty corpus key": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus, corpus=""), "--models", "majority"], "'corpus'"),
    "empty output_dir key": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus, output_dir="")], "'output_dir'"),
    "train --output-dir empty": lambda tmp, corpus: (
        ["train", run_config(tmp, corpus), "--output-dir", ""], "--output-dir"),
    "synth -o empty": lambda tmp, corpus: (
        ["synth", _write(tmp / "spec.cfg", "events = 1\n"), "-o", ""], "--output"),
    # Every command checks every run-config key, so loeo rejects tasks it never reads.
    "loeo with tasks lacking veracity": lambda tmp, corpus: (
        ["loeo", run_config(tmp, corpus, tasks="stance"), "--models", "majority"], "tasks"),
}


@pytest.mark.parametrize("event", ["paris, attack", "Zürich, Île-de-France & Ελλάδα"])
def test_event_names_with_punctuation_and_non_ascii_work(event, tmp_path, corpus_path, capsys):
    renamed = _rename_event(corpus_path, tmp_path, event)
    capsys.readouterr()
    assert dispatch(["validate", str(renamed)]) == 0
    assert f"  {event}: 6 threads" in capsys.readouterr().out.splitlines()
    assert dispatch(["loeo", str(run_config(tmp_path, renamed)), "--models", "majority"]) == 0
    assert (tmp_path / "out" / f"predictions_majority_{event}.ndjson").is_file()


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exit_1(case, tmp_path, corpus_path, capsys, monkeypatch):
    argv, named = BAD_INPUTS[case](tmp_path, corpus_path)
    capsys.readouterr()
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert dispatch([str(a) for a in argv]) == 1
    assert list(workdir.iterdir()) == []
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize("case", ["loeo event escaping the output dir",
                                  "loeo event with a NUL byte"])
def test_bad_event_writes_nothing_outside_output_dir(case, tmp_path, corpus_path, capsys):
    argv, _ = BAD_INPUTS[case](tmp_path, corpus_path)
    before = set(tmp_path.rglob("*"))
    assert dispatch([str(a) for a in argv]) == 1
    out_dir = tmp_path / "a" / "b" / "out"
    assert [p for p in set(tmp_path.rglob("*")) - before if out_dir not in p.parents] == []


class TestCsvQuoting:
    """An event name holding a comma stays one CSV cell."""

    EVENTS = ["event01", "event02", "paris, attack"]

    def test_stats_csv(self, tmp_path, corpus_path, capsys):
        target = tmp_path / "stats.csv"
        corpus = _rename_event(corpus_path, tmp_path, "paris, attack")
        assert dispatch(["analyze", str(corpus), "-o", str(target)]) == 0
        with target.open(newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == self.EVENTS

    def test_report_csv(self, tmp_path, corpus_path, capsys):
        cfg = run_config(tmp_path, _rename_event(corpus_path, tmp_path, "paris, attack"))
        assert dispatch(["loeo", str(cfg), "--models", "majority"]) == 0
        text = (tmp_path / "out" / "report.csv").read_text(encoding="utf-8")
        # The comparison, per-event and per-class tables, one blank line apart.
        tables = [list(csv.reader(io.StringIO(block))) for block in text.split("\n\n")]
        for header, *rows in tables:
            assert all(len(row) == len(header) for row in rows)
        assert tables[1][0] == ["model", *self.EVENTS]
        assert [row[0] for row in tables[2][1:]] == self.EVENTS


def test_failed_rename_leaves_no_temp_file(tmp_path, corpus_path, capsys):
    target = tmp_path / "stats"
    target.mkdir()
    capsys.readouterr()
    assert dispatch(["analyze", str(corpus_path), "-o", str(target)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "cannot write output" in errors[0]
    assert target.is_dir() and not (tmp_path / "stats.tmp").exists()


#: Any JSON value, nested a little, with integers small enough that no layer
#: width or dimension read from a checkpoint allocates a large array.
SMALL_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def checkpoint_case(tmp_path_factory):
    """A run config over a small corpus and a valid checkpoint payload for it."""
    tmp = tmp_path_factory.mktemp("checkpoint-fuzz")
    spec = _write(tmp / "gen.cfg", "events = 2\nthreads_per_event = 2\nseed = 3\n")
    corpus = tmp / "corpus.ndjson"
    assert dispatch(["synth", str(spec), "-o", str(corpus)]) == 0
    cfg = run_config(tmp, corpus, epochs=1)
    assert dispatch(["train", str(cfg)]) == 0
    return cfg, json.loads((tmp / "out" / "model.json").read_text())


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_evaluate_exits_0_or_1(self, checkpoint_case, data):
        """Up to two of a checkpoint's fields (top-level, in ``meta``, in
        ``meta.hyperparams`` or one ``params`` entry) replaced by arbitrary
        JSON values: ``evaluate`` succeeds or reports bad input."""
        cfg, valid = checkpoint_case
        payload = json.loads(json.dumps(valid))
        fields = [(payload, key) for key in payload]
        fields += [(payload["meta"], key) for key in payload["meta"]]
        fields += [(payload["meta"]["hyperparams"], key) for key in payload["meta"]["hyperparams"]]
        fields += [(payload["params"], key) for key in sorted(payload["params"])]
        for target, key in data.draw(st.lists(st.sampled_from(fields), max_size=2)):
            target[key] = data.draw(SMALL_JSON_VALUES)
        path = cfg.parent / "fuzzed.json"
        path.write_text(json.dumps(payload))
        assert dispatch(["evaluate", str(cfg), "--model", str(path)]) in (0, 1)


@pytest.fixture(scope="module")
def train_case(tmp_path_factory):
    """A directory holding the 3 x 6 synthetic corpus, and the corpus's tokens."""
    tmp = tmp_path_factory.mktemp("train-fuzz")
    spec = _write(tmp / "gen.cfg", "events = 3\nthreads_per_event = 6\nseed = 5\n")
    corpus = tmp / "corpus.ndjson"
    assert dispatch(["synth", str(spec), "-o", str(corpus)]) == 0
    return tmp, corpus, _corpus_tokens(corpus)


#: Config keys the fuzz test replaces: every hyperparameter and the run keys
#: that shape the model input.
FUZZED_KEYS = (*cli._HP_KEYS, "tasks", "seed", "embedding_dim", "max_branch_len")
#: Short text without digits, so that no text value parses as a large number.
SHORT_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6)
SPECIAL_TEXT = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "veracity",
                                "veracity,stance", "stance,detection", "true"])


def small_numbers(high):
    return (st.integers(-64, high).map(str)
            | st.floats(-64, high, allow_nan=False).map(repr))


#: Numbers for an embedding file, finite or not.
EMBEDDING_NUMBERS = (st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "0",
                                      "1e308", "-1.7e308"])
                     | st.floats(allow_nan=True, allow_infinity=True).map(repr)
                     | st.floats(-8, 8).map(repr))


class TestTrainLoaderFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_config_fields_exit_0_or_1(self, train_case, data):
        """Up to two hyperparameters or run keys of a valid one-epoch config
        replaced by short text or small numbers: ``train`` succeeds or
        reports bad input."""
        tmp, corpus, _ = train_case
        overrides = {"epochs": 1}
        for key in data.draw(st.lists(st.sampled_from(FUZZED_KEYS), max_size=2, unique=True)):
            numbers = small_numbers(1 if key == "epochs" else 64)
            overrides[key] = data.draw(numbers | SHORT_TEXT | SPECIAL_TEXT)
        cfg = run_config(tmp, corpus, name="fuzz.cfg", **overrides)
        assert dispatch(["train", str(cfg)]) in (0, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_embedding_files_exit_0_or_1(self, train_case, data):
        """Embedding files of corpus tokens with ragged rows of numbers, some
        non-finite, and a header-like first line: ``train`` succeeds or
        reports bad input."""
        tmp, corpus, tokens = train_case
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from(tokens) | SHORT_TEXT.filter(str.strip),
                      st.lists(EMBEDDING_NUMBERS, max_size=4)),
            max_size=6))
        lines = [" ".join([token.split()[0], *values]) for token, values in rows]
        header = data.draw(st.none() | st.tuples(st.integers(-2, 8), st.integers(-2, 8)))
        if header is not None:
            lines.insert(0, f"{header[0]} {header[1]}")
        vec = _write(tmp / "fuzz.vec", "\n".join(lines) + "\n")
        cfg = run_config(tmp, corpus, name="fuzz-vec.cfg", epochs=1, embeddings=vec)
        assert dispatch(["train", str(cfg)]) in (0, 1)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd, python_flags=(), start_method=None, **env):
    """``python -m rumourmtl.cli`` in a subprocess, with the repository's
    ``src`` on its path and ``env`` added to the environment; with a
    ``start_method``, ``cli.main`` through ``python -c`` after
    ``multiprocessing.set_start_method(start_method)``."""
    entry = ["-m", "rumourmtl.cli"] if start_method is None else [
        "-c", f"import multiprocessing; multiprocessing.set_start_method({start_method!r}); "
              "from rumourmtl.cli import main; main()"]
    return subprocess.run(
        [sys.executable, *python_flags, *entry, *map(str, args)], cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC), **env}, capture_output=True, text=True)


class TestUtf8Files:
    def test_no_file_opened_with_the_locale_encoding(self, tmp_path, corpus_path):
        vec = _write(tmp_path / "words.vec", "".join(
            f"{tok} {k % 3} 0.5 -1\n" for k, tok in enumerate(_corpus_tokens(corpus_path))))
        cfg = run_config(tmp_path, corpus_path, epochs=1, embeddings=vec)
        strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        for args in (["train", cfg],
                     ["evaluate", cfg, "--model", tmp_path / "out" / "model.json"],
                     ["analyze", corpus_path, "-o", tmp_path / "s.csv"]):
            proc = run_cli(args, tmp_path, strict)
            assert proc.returncode == 0, (args[0], proc.stderr)

    def test_non_ascii_corpus_under_the_c_locale(self, tmp_path, corpus_path):
        threads = [json.loads(line) for line in corpus_path.read_text().splitlines()]
        for thread in threads:
            thread["event"] = f"événement-{thread['event']}"
            for post in thread["posts"]:
                post["text"] += " café"
        corpus = _write_bytes(tmp_path / "accents.ndjson", "".join(
            json.dumps(t, ensure_ascii=False) + "\n" for t in threads).encode("utf-8"))
        proc = run_cli(["analyze", corpus, "-o", "s.csv"], tmp_path,
                       PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert proc.returncode == 0, proc.stderr
        assert threads[0]["event"] in (tmp_path / "s.csv").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("kind", ["run config", "synth spec", "ndjson corpus", "embeddings",
                                      "checkpoint"])
    def test_leading_byte_order_mark_is_skipped(self, kind, tmp_path, corpus_path):
        """The command's output is the same with a byte-order mark at the
        start of the file read."""
        tokens = _corpus_tokens(corpus_path)
        vec = _write(tmp_path / "words.vec", "".join(
            f"{tok} {k % 3} 0.5 -1\n" for k, tok in enumerate(tokens)))
        cfg = run_config(tmp_path, corpus_path, epochs=1)
        out = tmp_path / "out"
        args, read, written = {
            "run config": (["train", cfg], cfg, out / "model.json"),
            "synth spec": (["synth", _write(tmp_path / "gen.cfg", "events = 2\nseed = 3\n"),
                            "-o", tmp_path / "c.ndjson"], tmp_path / "gen.cfg",
                           tmp_path / "c.ndjson"),
            "ndjson corpus": (["analyze", corpus_path, "-o", tmp_path / "s.csv"], corpus_path,
                              tmp_path / "s.csv"),
            "embeddings": (["train", run_config(tmp_path, corpus_path, name="vec.cfg", epochs=1,
                                                embeddings=vec)], vec, out / "model.json"),
            "checkpoint": (["evaluate", cfg, "--model", tmp_path / "model.json"],
                           tmp_path / "model.json", out / "predictions.ndjson"),
        }[kind]
        if kind == "checkpoint":
            assert dispatch(["train", str(cfg)]) == 0
            (out / "model.json").replace(read)
        outputs = []
        for _ in range(2):
            assert dispatch([str(a) for a in args]) == 0
            outputs.append(written.read_bytes())
            written.unlink()
            read.write_bytes(b"\xef\xbb\xbf" + read.read_bytes())
        assert outputs[0] == outputs[1]


LOEO_JOBS = ["loeo", "--models", "majority,mtl2vs", "--jobs", "2"]


@pytest.mark.parametrize("args, start_method", [(["train"], None), (LOEO_JOBS, None),
                                                (LOEO_JOBS, "spawn")],
                         ids=["args0", "args1", "spawn"])
def test_json_errors_overflow_is_one_stderr_line(args, start_method, tmp_path, corpus_path):
    """Numpy's overflow warnings stay off stderr, pool workers' included,
    whether they are forked (Linux's default before Python 3.14) or spawned."""
    cfg = _overflowing_config(tmp_path, corpus_path)
    proc = run_cli(["--json-errors", args[0], cfg, *args[1:]], tmp_path,
                   start_method=start_method)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "overflow" in json.loads(proc.stderr)["error"]
