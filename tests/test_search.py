import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from rumourmtl import search
from rumourmtl.search import (
    SearchSpace,
    TPEConfig,
    Trial,
    objective,
    run_search,
    tpe_suggest,
)

TINY = SearchSpace.from_dict({"a": (1, 2, 3), "b": (10, 20)})


def make_trial(n, config, obj, status="ok"):
    return Trial(number=n, config=config, objective=obj, macro_f={},
                 dev_accuracy=None, seed=0, status=status)


class TestSearchSpace:
    def test_contains(self):
        assert TINY.contains({"a": 2, "b": 10})
        assert not TINY.contains({"a": 4, "b": 10})
        assert not TINY.contains({"a": 2})

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SearchSpace.from_dict({"a": ()})


class TestObjective:
    def test_single_task(self):
        assert objective({"veracity": 0.4}) == pytest.approx(0.6)

    def test_product_of_complements(self):
        assert objective({"veracity": 0.5, "stance": 0.2, "detection": 0.9}) \
            == pytest.approx(0.5 * 0.8 * 0.1)

    def test_perfect_scores_give_zero(self):
        assert objective({"veracity": 1.0, "stance": 0.3}) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            objective({"veracity": 1.2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            objective({})


class TestTpeSuggest:
    def test_startup_suggestions_in_space(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = tpe_suggest([], TINY, rng)
            assert TINY.contains(config)

    def test_startup_counts_error_trials_as_unscored(self):
        history = [make_trial(i, {"a": 1, "b": 10}, math.inf, status="error: x")
                   for i in range(15)]
        rng = np.random.default_rng(1)
        seen = {tuple(sorted(tpe_suggest(history, TINY, rng).items()))
                for _ in range(40)}
        assert len(seen) > 1  # still uniform exploration, not stuck modeling

    def test_model_phase_prefers_good_region(self):
        # dimension "a": value 1 always good, value 3 always bad
        history = []
        for i in range(20):
            val = 1 if i < 5 else 3
            history.append(make_trial(i, {"a": val, "b": 10 if i % 2 else 20},
                                      0.1 if val == 1 else 0.9))
        rng = np.random.default_rng(2)
        picks = [tpe_suggest(history, TINY, rng)["a"] for _ in range(30)]
        assert picks.count(1) > picks.count(3)

    def test_suggestion_always_in_space(self):
        rng = np.random.default_rng(3)
        history = [make_trial(i, {"a": 1 + i % 3, "b": 10}, rng.random())
                   for i in range(25)]
        for _ in range(20):
            assert TINY.contains(tpe_suggest(history, TINY, rng))

    def test_equal_objectives_degenerate_history(self):
        history = [make_trial(i, {"a": 2, "b": 20}, 0.5) for i in range(12)]
        rng = np.random.default_rng(4)
        config = tpe_suggest(history, TINY, rng)
        assert TINY.contains(config)

    def test_prefers_unseen_over_repeat(self, monkeypatch):
        # every config except one has been tried; plenty of candidates should
        # surface the remaining one at least sometimes
        all_configs = [{"a": a, "b": b} for a, b in itertools.product((1, 2, 3), (10, 20))]
        missing = all_configs.pop()
        history = [make_trial(i, c, 0.2 + 0.1 * i) for i, c in enumerate(all_configs)]
        rng = np.random.default_rng(5)
        monkeypatch.setattr(search, "TPE_CANDIDATES", 200)
        hits = sum(tpe_suggest(history, TINY, rng) == missing
                   for _ in range(20))
        assert hits >= 1

    def test_huge_prior_approaches_uniform(self, monkeypatch):
        history = [make_trial(i, {"a": 1, "b": 10}, 0.1) for i in range(12)]
        monkeypatch.setattr(search, "TPE_PRIOR_WEIGHT", 1e9)
        monkeypatch.setattr(search, "TPE_CANDIDATES", 1)
        rng = np.random.default_rng(6)
        draws = [tpe_suggest(history, TINY, rng)["a"] for _ in range(5000)]
        counts = [draws.count(v) for v in (1, 2, 3)]
        _, p_value = chisquare(counts)
        assert p_value > 0.01

    def test_deterministic_given_rng_state(self):
        history = [make_trial(i, {"a": 1 + i % 3, "b": 10 * (1 + i % 2)}, i / 20)
                   for i in range(20)]
        a = tpe_suggest(history, TINY, np.random.default_rng(7))
        b = tpe_suggest(history, TINY, np.random.default_rng(7))
        assert a == b


class TestRunSearch:
    def test_trial_count_and_numbering(self):
        best, history = run_search(TINY, lambda c, s: ({"veracity": 0.5}, None),
                                   n_trials=7, seed=0)
        assert [t.number for t in history] == list(range(7))

    def test_constant_objective_best_is_first(self):
        best, _ = run_search(TINY, lambda c, s: ({"veracity": 0.5}, None),
                             n_trials=5, seed=1)
        assert best.number == 0

    def test_finds_planted_optimum(self):
        def evaluate(config, seed):
            f = 0.9 if (config["a"], config["b"]) == (2, 20) else 0.3
            return {"veracity": f}, None

        best, _ = run_search(TINY, evaluate, n_trials=15, seed=2)
        assert (best.config["a"], best.config["b"]) == (2, 20)

    def test_failures_recorded_and_search_continues(self):
        def evaluate(config, seed):
            if config["a"] == 1:
                raise RuntimeError("boom")
            return {"veracity": 0.4}, None

        best, history = run_search(TINY, evaluate, n_trials=12, seed=3)
        errors = [t for t in history if t.status.startswith("error")]
        assert errors and all(t.objective == math.inf for t in errors)
        assert best.status == "ok"

    def test_all_failures_raise(self):
        def evaluate(config, seed):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="all trials failed"):
            run_search(TINY, evaluate, n_trials=3, seed=4)

    def test_accuracy_mode(self):
        def evaluate(config, seed):
            acc = 0.9 if config["a"] == 3 else 0.5
            return {"veracity": 0.0}, acc

        cfg = TPEConfig(objective_mode="accuracy")
        best, _ = run_search(TINY, evaluate, n_trials=15, cfg=cfg, seed=5)
        assert best.config["a"] == 3

    def test_deterministic(self):
        def evaluate(config, seed):
            return {"veracity": (config["a"] * config["b"] % 7) / 10}, None

        runs = [run_search(TINY, evaluate, n_trials=10, seed=6) for _ in range(2)]
        assert [t.to_json_obj() for t in runs[0][1]] == [t.to_json_obj() for t in runs[1][1]]

    def test_log_file(self, tmp_path):
        path = tmp_path / "trials.ndjson"
        _, history = run_search(TINY, lambda c, s: ({"veracity": 0.5}, None),
                                n_trials=4, seed=7, log_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        obj = json.loads(lines[0])
        assert set(obj) == {"trial", "config", "objective", "macro_f",
                            "dev_accuracy", "seed", "status"}

    def test_interrupted_search_keeps_finished_trials(self, tmp_path):
        path = tmp_path / "trials.ndjson"
        calls = []

        def evaluate(config, seed):
            calls.append(config)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return {"veracity": 0.5}, None

        with pytest.raises(KeyboardInterrupt):
            run_search(TINY, evaluate, n_trials=5, seed=8, log_path=path)
        assert [json.loads(line)["trial"] for line in path.read_text().splitlines()] == [0, 1]
