"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line on the terminal, bypassing output capture, so the full gate status is
visible in any run of the suite.
"""

import filecmp
import time
from contextlib import contextmanager

import numpy as np
import pytest

from corpora import (
    EVENT_COUNTS,
    RUMOUREVAL_TEST,
    RUMOUREVAL_TRAIN,
    corpus_from_veracity_counts,
    random_tree_thread,
)
from rumourmtl import mtl
from rumourmtl.analysis import LabelDistribution, entropy, kurtosis
from rumourmtl.baselines import majority_fit, majority_predict
from rumourmtl.cli import dispatch
from rumourmtl.corpus import (
    VERACITY_CLASSES,
    GeneratorSpec,
    decompose_branches,
    generate_synthetic,
    split_loeo,
)
from rumourmtl.evaluation import compute_metrics, loeo_evaluate
from rumourmtl.mtl import (
    VALID_TASK_SETS,
    HyperParams,
    MTLModel,
    TrainingInstance,
    _majority_vote,
    branch_accuracy,
    build_instances,
    check_gradients,
    instance_outputs,
    joint_loss,
)
from rumourmtl.search import TPEConfig, default_space, run_search
from rumourmtl.text import hash_embeddings


@pytest.fixture()
def gate(capsys):
    @contextmanager
    def _gate(number, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}",
                      flush=True)
    return _gate


def test_1_majority_baseline_reproduction(gate):
    with gate(1, "majority baseline reproduction"):
        start = time.monotonic()
        train = corpus_from_veracity_counts(RUMOUREVAL_TRAIN)
        test = corpus_from_veracity_counts(RUMOUREVAL_TEST)
        cls = majority_fit(train)
        assert cls == "true"
        preds = majority_predict(cls, test)
        gold = [t.veracity_label for t in test.threads]
        m = compute_metrics(preds, gold, VERACITY_CLASSES)
        assert m.accuracy == pytest.approx(0.286, abs=1e-3)
        assert m.macro_f == pytest.approx(0.148, abs=1e-3)
        assert time.monotonic() - start < 1.0


def test_2_distribution_stats_cross_derivation(gate):
    def v_dist(event):
        n_true, n_false, n_unv = EVENT_COUNTS[event][3:]
        return LabelDistribution(task="veracity", event=event,
                                 counts=(n_false, n_true, n_unv))

    def d_dist(event):
        _, n_rum, n_non, *_ = EVENT_COUNTS[event]
        return LabelDistribution(task="detection", event=event, counts=(n_non, n_rum))

    cells = [
        (v_dist("charliehebdo"), 1.08, -1.25),
        (v_dist("sydneysiege"), 0.76, 0.71),
        (v_dist("ferguson"), 0.28, 17.44),
        (d_dist("ottawashooting"), 0.69, -1.99),
        (d_dist("charliehebdo"), 0.53, -0.18),
        (d_dist("germanwings-crash"), 0.69, -1.99),
    ]
    with gate(2, "entropy/kurtosis cross-derivation"):
        start = time.monotonic()
        for dist, want_entropy, want_kurtosis in cells:
            label = f"{dist.event}/{dist.task}"
            assert entropy(dist) == pytest.approx(want_entropy, abs=5e-3), label
            assert kurtosis(dist) == pytest.approx(want_kurtosis, abs=5e-3), label
        assert time.monotonic() - start < 1.0


def test_3_gradient_correctness_all_architectures(gate):
    with gate(3, "gradient checks across the architecture grid"):
        start = time.monotonic()
        worst = 0.0
        for n_lstm in (1, 2):
            for n_dense in (1, 2, 3, 4):
                for task_set in VALID_TASK_SETS:
                    hp = HyperParams(num_dense_layers=n_dense, num_lstm_layers=n_lstm,
                                     dense_width=4, lstm_width=4, dropout=0.5)
                    report = check_gradients(hp, tuple(task_set), input_dim=3,
                                             seed=n_lstm * 10 + n_dense, eps=1e-5)
                    worst = max(worst, max(report.values()))
        assert worst < 1e-4, f"worst per-block error {worst}"
        assert time.monotonic() - start < 120.0


def test_4_masked_loss_exactness(gate):
    dim = 4
    rng = np.random.default_rng(40)

    def instance(stance=True, detection=0, veracity=1, steps=3):
        mask = np.ones(steps, dtype=bool)
        return TrainingInstance(
            x=rng.standard_normal((steps, dim)), mask=mask, true_length=steps,
            stance_labels=rng.integers(0, 4, size=steps) if stance else None,
            detection_label=detection, veracity_label=veracity,
            thread_id="t", event="e")

    with gate(4, "masked loss exactness"):
        model = MTLModel(
            HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                        lstm_width=5, dropout=0.0),
            ("veracity", "stance", "detection"), dim, 0)

        def summed_stance_loss(instances):
            return sum(
                joint_loss({"stance": instance_outputs(model, i)["stance"]}, i)
                for i in instances)

        base = [instance() for _ in range(5)]
        extra = [instance(stance=False) for _ in range(7)]
        assert summed_stance_loss(base + extra) - summed_stance_loss(base) == 0.0

        single = MTLModel(
            HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                        lstm_width=5, dropout=0.0), ("veracity",), dim, 3)
        mtl3 = MTLModel(
            HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                        lstm_width=5, dropout=0.0),
            ("veracity", "stance", "detection"), dim, 3)
        for name in single.params:
            np.testing.assert_array_equal(single.params[name], mtl3.params[name])
        inst = instance(stance=False, detection=None, veracity=2)
        diff = abs(joint_loss(instance_outputs(mtl3, inst), inst)
                   - joint_loss(instance_outputs(single, inst), inst))
        assert diff <= 1e-12


def test_5_structural_invariants(gate):
    with gate(5, "structural invariants over random inputs"):
        rng = np.random.default_rng(50)

        # branch count = leaf count and branch union = post set, 1000 trees
        for _ in range(1000):
            thread = random_tree_thread(rng, int(rng.integers(1, 30)))
            branches = decompose_branches(thread)
            non_leaves = {r.parent_id for r in thread.replies}
            n_leaves = sum(1 for p in thread.posts if p.id not in non_leaves)
            assert len(branches) == n_leaves
            assert ({pid for b in branches for pid in b.post_ids}
                    == {p.id for p in thread.posts})

        # majority vote invariant under branch permutation, 1000 matrices
        for _ in range(1000):
            k = int(rng.integers(1, 8))
            probs = rng.dirichlet(np.ones(3), size=k)
            base = _majority_vote(probs, VERACITY_CLASSES)[0]
            perm = rng.permutation(k)
            assert _majority_vote(probs[perm], VERACITY_CLASSES)[0] == base

        # macro-F equals the brute-force per-class computation, 1000 vectors
        classes = ("a", "b", "c")
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            gold = [classes[i] for i in rng.integers(0, 3, size=n)]
            preds = [classes[i] for i in rng.integers(0, 3, size=n)]
            m = compute_metrics(preds, gold, classes)
            f1s = []
            for c in classes:
                tp = sum(1 for g, p in zip(gold, preds) if g == p == c)
                fp = sum(1 for g, p in zip(gold, preds) if g != c and p == c)
                fn = sum(1 for g, p in zip(gold, preds) if g == c and p != c)
                precision = tp / (tp + fp) if tp + fp else 0.0
                recall = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * precision * recall / (precision + recall)
                           if precision + recall else 0.0)
                assert m.per_class_f1[c] == f1s[-1]
            assert m.macro_f == float(np.mean(f1s))

        # LOEO partition exactness over >= 1000 event splits
        splits = 0
        corpus_seed = 0
        while splits < 1000:
            corpus = generate_synthetic(
                GeneratorSpec(events=10, threads_per_event=2), corpus_seed)
            corpus_seed += 1
            for event in corpus.events:
                train, test = split_loeo(corpus, event)
                assert set(t.id for t in train).isdisjoint(t.id for t in test)
                assert len(train) + len(test) == len(corpus)
                assert all(t.event == event for t in test)
                assert all(t.event != event for t in train)
                splits += 1


LEARN_HP = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=32,
                       lstm_width=24, dropout=0.5, epochs=60, learning_rate=3e-3,
                       batch_size=32, l2=1e-4)
LEARN_SPEC = GeneratorSpec(events=5, threads_per_event=40, coupling=1.0)


def test_6a_learnability_training_accuracy(gate):
    with gate(6, "a: multi-task training accuracy on synthetic data"):
        start = time.monotonic()
        corpus = generate_synthetic(LEARN_SPEC, 60)
        table = hash_embeddings(32, seed=0)
        instances = build_instances(corpus, table)
        for seed in range(5):
            model = MTLModel(LEARN_HP, ("veracity", "stance", "detection"), 32, seed)
            mtl.train(model, instances, seed)
            acc = branch_accuracy(model, instances)
            assert all(v >= 0.99 for v in acc.values()), f"seed {seed}: {acc}"
        assert time.monotonic() - start < 120.0


def test_6b_learnability_loeo_margin(gate):
    with gate(6, "b: held-out-event margin over the majority baseline"):
        start = time.monotonic()
        corpus = generate_synthetic(LEARN_SPEC, 60)
        table = hash_embeddings(32, seed=0)

        def majority_trainer(train, seed, dev_event):
            cls = majority_fit(train)
            return lambda test: majority_predict(cls, test)

        _, majority_pooled = loeo_evaluate(corpus, majority_trainer, VERACITY_CLASSES)

        def mtl_trainer(train, seed, dev_event):
            instances = build_instances(train, table)
            model = MTLModel(LEARN_HP, ("veracity", "stance"), 32, seed)
            mtl.train(model, instances, seed)

            def predict(test):
                return [mtl.predict_thread(model, t, table).veracity
                        for t in test.threads]
            return predict

        scores = []
        for seed in range(5):
            _, pooled = loeo_evaluate(corpus, mtl_trainer, VERACITY_CLASSES, seed=seed)
            scores.append(pooled.macro_f)
        median = float(np.median(scores))
        assert median >= majority_pooled.macro_f + 0.15, \
            f"median {median:.3f} vs majority {majority_pooled.macro_f:.3f}"
        assert time.monotonic() - start < 600.0


def test_7_tpe_beats_random_on_planted_objective(gate):
    with gate(7, "model-based search finds the planted optimum"):
        start = time.monotonic()
        space = default_space()
        optimum = {"num_dense_layers": 3, "num_lstm_layers": 2,
                   "dense_width": 500, "lstm_width": 200, "l2": 1e-3}

        def planted(config):
            mismatches = sum(1 for k, v in optimum.items() if config[k] != v)
            return 0.0 if mismatches == 0 else 0.3 + 0.05 * (mismatches - 1)

        def evaluate(config, trial_seed):
            return {"veracity": 0.0}, 1.0 - planted(config)

        cfg = TPEConfig(objective_mode="accuracy")
        tpe_hits = 0
        for seed in range(25):
            best, _ = run_search(space, evaluate, n_trials=30, cfg=cfg, seed=seed)
            tpe_hits += best.objective == 0.0

        random_hits = 0
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            draws = [{name: values[rng.integers(len(values))]
                      for name, values in space.dimensions}
                     for _ in range(30)]
            random_hits += any(planted(c) == 0.0 for c in draws)

        with_rate = tpe_hits / 25
        random_rate = random_hits / 25
        assert with_rate >= 0.8, f"hit rate {with_rate:.2f} (random {random_rate:.2f})"
        assert with_rate > random_rate
        assert time.monotonic() - start < 60.0


def test_8_cli_determinism(gate, tmp_path):
    with gate(8, "byte-identical reruns of every command"):
        spec = tmp_path / "gen.cfg"
        spec.write_text("events = 3\nthreads_per_event = 6\nseed = 4\n")

        def run_all(root):
            root.mkdir()
            corpus = root / "corpus.ndjson"
            assert dispatch(["synth", str(spec), "-o", str(corpus)]) == 0
            assert dispatch(["analyze", str(corpus), "-o", str(root / "stats.csv")]) == 0
            cfg = root / "run.cfg"
            cfg.write_text("\n".join([
                f"corpus = {corpus}",
                f"output_dir = {root / 'out'}",
                "seed = 2",
                "tasks = veracity,stance",
                "embedding_dim = 8",
                "num_dense_layers = 1",
                "num_lstm_layers = 1",
                "dense_width = 8",
                "lstm_width = 6",
                "epochs = 2",
                "batch_size = 16",
            ]) + "\n")
            assert dispatch(["train", str(cfg)]) == 0
            assert dispatch(["evaluate", str(cfg), "--model",
                             str(root / "out" / "model.json")]) == 0
            assert dispatch(["loeo", str(cfg), "--models", "majority,single"]) == 0
            assert dispatch(["search", str(cfg), "--trials", "2", "--epochs", "1"]) == 0

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")

        # compare every produced artifact; run.cfg is an input and embeds
        # the (different) absolute output paths
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*")
                         if p.is_file() and p.name != "run.cfg")
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*")
                         if p.is_file() and p.name != "run.cfg")
        assert files_a == files_b and files_a
        for rel in files_a:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel,
                               shallow=False), f"artifact differs: {rel}"
