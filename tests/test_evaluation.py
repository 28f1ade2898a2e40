import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import bare_thread
from rumourmtl.baselines import majority_fit, majority_predict
from rumourmtl.corpus import VERACITY_CLASSES, Corpus, GeneratorSpec, generate_synthetic
from rumourmtl.evaluation import (
    DEFAULT_DEV_EVENT,
    FoldResult,
    Metrics,
    comparison_table,
    compute_metrics,
    confusion_matrix,
    emit_report,
    loeo_evaluate,
    metrics_from_confusion,
    per_class_table,
    per_event_table,
)


def brute_force_f1(gold, preds, cls):
    tp = sum(1 for g, p in zip(gold, preds) if g == cls and p == cls)
    fp = sum(1 for g, p in zip(gold, preds) if g != cls and p == cls)
    fn = sum(1 for g, p in zip(gold, preds) if g == cls and p != cls)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


class TestConfusionMatrix:
    def test_example(self):
        gold = ["a", "a", "b", "b"]
        preds = ["a", "b", "b", "b"]
        m = confusion_matrix(gold, preds, ("a", "b"))
        np.testing.assert_array_equal(m, [[1, 1], [0, 2]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_matrix(["a"], [], ("a",))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics_from_confusion(np.zeros((2, 2), dtype=int), ("a", "b"))


class TestMacroF:
    def test_all_true_on_competition_test_split(self):
        # 8 true, 12 false, 8 unverified; predict the training majority "true"
        gold = (["true"] * 8 + ["false"] * 12 + ["unverified"] * 8)
        preds = ["true"] * 28
        m = compute_metrics(preds, gold, VERACITY_CLASSES)
        assert m.accuracy == pytest.approx(8 / 28, abs=5e-4)
        assert m.accuracy == pytest.approx(0.286, abs=5e-4)
        assert m.macro_f == pytest.approx(0.148, abs=5e-4)

    def test_absent_class_still_counts_in_mean(self):
        gold = ["a", "a", "b", "b"]
        preds = ["a", "a", "b", "b"]
        two = compute_metrics(preds, gold, ("a", "b"))
        three = compute_metrics(preds, gold, ("a", "b", "c"))
        assert two.macro_f == pytest.approx(1.0)
        assert three.macro_f == pytest.approx(2 / 3)

    def test_perfect(self):
        gold = ["x", "y", "z"]
        m = compute_metrics(gold, gold, ("x", "y", "z"))
        assert m.accuracy == 1.0 and m.macro_f == 1.0
        assert all(v == 1.0 for v in m.per_class_f1.values())

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                    min_size=1, max_size=40))
    def test_matches_brute_force(self, pairs):
        gold = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        classes = ("a", "b", "c")
        m = compute_metrics(preds, gold, classes)
        expected = {c: brute_force_f1(gold, preds, c) for c in classes}
        for c in classes:
            assert m.per_class_f1[c] == pytest.approx(expected[c], abs=1e-12)
        assert m.macro_f == pytest.approx(sum(expected.values()) / 3, abs=1e-12)
        assert m.accuracy == pytest.approx(
            sum(g == p for g, p in pairs) / len(pairs), abs=1e-12)


def majority_trainer(train, seed, dev_event):
    cls = majority_fit(train)
    return lambda test: majority_predict(cls, test)


class TestLoeo:
    def corpus(self):
        return generate_synthetic(GeneratorSpec(events=4, threads_per_event=15), 2)

    def test_one_fold_per_event_with_rumours(self):
        corpus = self.corpus()
        folds, pooled = loeo_evaluate(corpus, majority_trainer, VERACITY_CLASSES)
        assert [f.event for f in folds] == list(corpus.events)
        for f in folds:
            held_out = {t.id for t in corpus if t.event == f.event
                        and t.veracity_label is not None}
            assert set(f.thread_ids) == held_out

    def test_pooled_equals_concatenation(self):
        folds, pooled = loeo_evaluate(self.corpus(), majority_trainer, VERACITY_CLASSES)
        gold = [g for f in folds for g in f.gold]
        preds = [p for f in folds for p in f.preds]
        direct = compute_metrics(preds, gold, VERACITY_CLASSES)
        assert pooled == direct

    def test_training_split_excludes_held_out_event(self):
        seen = {}

        def spy_trainer(train, seed, dev_event):
            events = train.events
            predictor = majority_trainer(train, seed, dev_event)

            def predict(test):
                seen[test.threads[0].event] = events
                return predictor(test)
            return predict

        corpus = self.corpus()
        loeo_evaluate(corpus, spy_trainer, VERACITY_CLASSES)
        for event, train_events in seen.items():
            assert event not in train_events

    def test_dev_event_defaults_to_largest(self):
        captured = []

        def trainer(train, seed, dev_event):
            captured.append(dev_event)
            return majority_trainer(train, seed, dev_event)

        threads = []
        for event, n in (("big", 6), ("mid", 4), ("small", 2)):
            for i in range(n):
                threads.append(bare_thread(f"{event}{i}", event, "rumour", "true"))
        loeo_evaluate(Corpus(tuple(threads)), trainer, VERACITY_CLASSES)
        # folds run in event order: big, mid, small
        assert captured == ["mid", "big", "big"]

    def test_named_dev_event_preferred(self):
        captured = []

        def trainer(train, seed, dev_event):
            captured.append(dev_event)
            return majority_trainer(train, seed, dev_event)

        threads = [bare_thread(f"{e}{i}", e, "rumour", "true")
                   for e in (DEFAULT_DEV_EVENT, "other", "third") for i in range(2)]
        loeo_evaluate(Corpus(tuple(threads)), trainer, VERACITY_CLASSES)
        assert captured[1] == DEFAULT_DEV_EVENT
        assert captured[2] == DEFAULT_DEV_EVENT

    def test_single_event_rejected(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=4), 0)
        with pytest.raises(ValueError, match="two events"):
            loeo_evaluate(corpus, majority_trainer, VERACITY_CLASSES)

    def test_prediction_count_mismatch_flagged(self):
        def bad_trainer(train, seed, dev_event):
            return lambda test: ["true"]

        with pytest.raises(ValueError, match="fold"):
            loeo_evaluate(self.corpus(), bad_trainer, VERACITY_CLASSES)


class TestReports:
    def metrics(self, macro, acc):
        return Metrics(accuracy=acc, macro_f=macro,
                       per_class_f1={c: macro for c in VERACITY_CLASSES})

    def fold(self, event, macro=0.5):
        return FoldResult(event=event, thread_ids=("t",), gold=("true",),
                          preds=("true",), metrics=self.metrics(macro, 0.5))

    def test_comparison_table_shape(self):
        csv_doc, txt_doc = comparison_table({"majority": self.metrics(0.148, 0.286),
                                             "mtl3": self.metrics(0.405, 0.492)})
        lines = csv_doc.strip().splitlines()
        assert lines[0] == "model,macro_f,accuracy"
        assert lines[1] == "majority,0.148,0.286"
        assert len(lines) == 3
        assert "mtl3" in txt_doc

    def test_per_event_table_missing_cell(self):
        csv_doc, _ = per_event_table({
            "a": [self.fold("e1"), self.fold("e2")],
            "b": [self.fold("e1")],
        })
        lines = csv_doc.strip().splitlines()
        assert lines[0] == "model,e1,e2"
        assert lines[2] == "b,0.500,-"

    def test_per_class_table_columns(self):
        csv_doc, txt_doc = per_class_table([self.fold("e1")], VERACITY_CLASSES)
        header = csv_doc.splitlines()[0].split(",")
        assert header == ["event", "macro_f", "accuracy",
                          "f1_false", "f1_true", "f1_unverified"]
        assert txt_doc.startswith("event")

    def test_empty_report(self):
        csv_doc, txt_doc = comparison_table({})
        assert csv_doc == "no results\n" and txt_doc == "no results\n"

    def test_bit_stable(self):
        results = {"m": self.metrics(0.3, 0.4)}
        folds = {"m": [self.fold("e1"), self.fold("e2", 0.7)]}
        a = emit_report(results, folds, VERACITY_CLASSES, detail_model="m")
        b = emit_report(results, folds, VERACITY_CLASSES, detail_model="m")
        assert a == b
