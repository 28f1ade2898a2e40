from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import RUMOUREVAL_TEST, RUMOUREVAL_TRAIN, bare_thread, corpus_from_veracity_counts
from rumourmtl.baselines import (
    VOCABULARY_CAP,
    bow_vocabulary,
    extract_features,
    majority_fit,
    majority_predict,
    nile_fit,
    nile_predict,
    stance_proportions,
    svm_fit,
    svm_predict,
)
from rumourmtl.corpus import (
    VERACITY_CLASSES,
    Corpus,
    GeneratorSpec,
    Post,
    Thread,
    generate_synthetic,
    split_loeo,
)
from rumourmtl.text import preprocess


def thread_with_stances(stances, text="some claim", veracity="true", event="ev",
                        source_id="s"):
    replies = tuple(
        Post(id=f"{source_id}-r{i}", text="a reply", parent_id=source_id,
             stance_label=s)
        for i, s in enumerate(stances))
    return Thread(source=Post(id=source_id, text=text), replies=replies,
                  event=event, detection_label="rumour", veracity_label=veracity)


class TestMajority:
    def test_competition_training_majority_is_true(self):
        corpus = corpus_from_veracity_counts(RUMOUREVAL_TRAIN)
        assert majority_fit(corpus) == "true"

    def test_competition_test_accuracy(self):
        train = corpus_from_veracity_counts(RUMOUREVAL_TEST)
        assert majority_fit(train) == "false"
        preds = majority_predict("false", train)
        gold = [t.veracity_label for t in train.threads]
        acc = sum(p == g for p, g in zip(preds, gold)) / len(gold)
        assert acc == pytest.approx(12 / 28)

    def test_tie_breaks_alphabetically(self):
        corpus = corpus_from_veracity_counts((3, 3, 1))
        assert majority_fit(corpus) == "false"

    def test_no_labels_raises(self):
        corpus = Corpus((bare_thread("t0", "ev", "non-rumour", None),))
        with pytest.raises(ValueError, match="no veracity labels"):
            majority_fit(corpus)


class TestStanceProportions:
    def test_example(self):
        thread = thread_with_stances(["support", "deny", "deny", "comment"])
        assert stance_proportions(thread) == (0.25, 0.5, 0.0)

    def test_no_replies(self):
        thread = thread_with_stances([])
        assert stance_proportions(thread) == (0.0, 0.0, 0.0)


class TestFeatures:
    def test_bow_counts_and_flags(self):
        train = Corpus((thread_with_stances([], text="fire fire alarm"),))
        vocab = bow_vocabulary(train)
        assert set(vocab) == {"fire", "alarm"}
        thread = thread_with_stances(["support", "deny"],
                                     text="fire! see http://x.co #fire")
        vec = extract_features(thread, vocab)
        assert vec[vocab["fire"]] == 2.0  # "#fire" tokenizes to "fire"
        assert vec[len(vocab)] == 1.0      # URL flag
        assert vec[len(vocab) + 1] == 1.0  # hashtag flag
        np.testing.assert_allclose(vec[len(vocab) + 2:], [0.5, 0.5, 0.0])

    def test_vocabulary_cap_keeps_most_frequent(self):
        # Base-26 a-z tokens, since ``preprocess`` drops digits.
        tokens = ["".join(chr(97 + i // 26 ** k % 26) for k in range(3))
                  for i in range(VOCABULARY_CAP + 2)]
        text = " ".join(tokens + tokens[:VOCABULARY_CAP])
        vocab = bow_vocabulary(Corpus((thread_with_stances([], text=text),)))
        assert set(vocab) == set(tokens[:VOCABULARY_CAP])

    def test_vocabulary_deterministic_order(self):
        train = Corpus((thread_with_stances([], text="zebra apple zebra apple"),))
        vocab = bow_vocabulary(train)
        # equal counts: token-ascending
        assert vocab == {"apple": 0, "zebra": 1}

    def test_out_of_vocabulary_ignored(self):
        train = Corpus((thread_with_stances([], text="known words"),))
        vocab = bow_vocabulary(train)
        vec = extract_features(thread_with_stances([], text="unknown tokens"), vocab)
        assert np.all(vec[:len(vocab)] == 0.0)


def separable_data(n=30, seed=0):
    """``n`` examples of each class around three well-separated centres."""
    rng = np.random.default_rng(seed)
    centers = {"false": [4.0, 0.0], "true": [-4.0, 0.0], "unverified": [0.0, 4.0]}
    feats, labels = [], []
    for label, center in centers.items():
        feats.append(rng.standard_normal((n, 2)) * 0.3 + center)
        labels.extend([label] * n)
    return np.vstack(feats), labels


class TestLinearClassifier:
    def test_separable_data_learned(self):
        feats, labels = separable_data()
        preds = svm_predict(*svm_fit(feats, labels, epochs=30), feats)
        acc = sum(p == g for p, g in zip(preds, labels)) / len(labels)
        assert acc > 0.95

    def test_identical_features_predict_single_class(self):
        feats = np.ones((12, 3))
        labels = ["true"] * 8 + ["false"] * 4
        preds = svm_predict(*svm_fit(feats, labels, epochs=50), feats)
        assert len(set(preds)) == 1

    def test_large_l2_shrinks_weights(self):
        feats, labels = separable_data()
        small, _ = svm_fit(feats, labels, l2=1e-4, epochs=20)
        large, _ = svm_fit(feats, labels, l2=10.0, epochs=20)
        assert np.linalg.norm(large) < np.linalg.norm(small)

    def test_deterministic(self):
        feats, labels = separable_data()
        weights_a, biases_a = svm_fit(feats, labels, seed=3, epochs=5)
        weights_b, biases_b = svm_fit(feats, labels, seed=3, epochs=5)
        np.testing.assert_array_equal(weights_a, weights_b)
        np.testing.assert_array_equal(biases_a, biases_b)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="two classes"):
            svm_fit(np.ones((4, 2)), ["true"] * 4)

    def test_zero_weights_tie_is_alphabetical(self):
        model = svm_fit(np.zeros((4, 2)), ["true", "false", "true", "false"],
                        epochs=0)
        assert svm_predict(*model, np.zeros((1, 2))) == ["false"]


def textbook_svm_fit(features, labels, l2=1e-3, epochs=100, seed=0):
    """Reference per-step hinge-loss SGD: one class at a time, by fancy index.

    Returns the weights and biases that ``svm_fit`` must reproduce bit for bit.
    """
    n, d = features.shape
    weights = np.zeros((len(VERACITY_CLASSES), d))
    biases = np.zeros(len(VERACITY_CLASSES))
    rng = np.random.default_rng(seed)
    y = np.array([[1.0 if lbl == c else -1.0 for lbl in labels] for c in VERACITY_CLASSES])
    step = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            step += 1
            lr = 1.0 / np.sqrt(step)
            xi = features[i]
            margins = (weights @ xi + biases) * y[:, i]
            violated = margins < 1.0
            weights *= 1.0 - lr * l2
            weights[violated] += lr * np.outer(y[violated, i], xi)
            biases[violated] += lr * y[violated, i]
    return weights, biases


class TestSvmMatchesTextbook:
    def assert_matches(self, features, labels, **kwargs):
        weights, biases = svm_fit(features, labels, **kwargs)
        ref_weights, ref_biases = textbook_svm_fit(features, labels, **kwargs)
        np.testing.assert_array_equal(weights, ref_weights)
        np.testing.assert_array_equal(biases, ref_biases)

    def random_labels(self, rng, n):
        return [str(lbl) for lbl in rng.choice(VERACITY_CLASSES, size=n)]

    def test_random_dense_features(self):
        rng = np.random.default_rng(0)
        for n, d, seed in ((40, 6, 0), (25, 30, 4), (7, 1, 9)):
            self.assert_matches(rng.standard_normal((n, d)) * 3.0,
                                self.random_labels(rng, n), epochs=20, seed=seed)

    def test_nile_features_of_a_loeo_fold(self):
        corpus = generate_synthetic(GeneratorSpec(events=3, threads_per_event=30), 12)
        held_out = corpus.threads[0].event
        train = Corpus(tuple(t for t in corpus.threads if t.event != held_out))
        vocab = bow_vocabulary(train)
        labeled = [t for t in train.threads if t.veracity_label is not None]
        features = np.stack([extract_features(t, vocab) for t in labeled])
        self.assert_matches(features, [t.veracity_label for t in labeled], epochs=100, seed=3)

    def test_no_epochs(self):
        weights, biases = svm_fit(np.ones((4, 3)), ["true", "false", "true", "false"], epochs=0)
        assert not weights.any() and not biases.any()
        self.assert_matches(np.ones((4, 3)), ["true", "false", "true", "false"], epochs=0)

    def test_large_l2_negative_early_decays(self):
        rng = np.random.default_rng(1)
        self.assert_matches(rng.standard_normal((20, 4)), self.random_labels(rng, 20),
                            l2=10.0, epochs=5, seed=2)

    def test_zero_feature_row(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((12, 5))
        features[[0, 7]] = 0.0
        self.assert_matches(features, self.random_labels(rng, 12), epochs=10, seed=1)

    def test_two_classes_present(self):
        rng = np.random.default_rng(3)
        labels = [str(lbl) for lbl in rng.choice(["false", "unverified"], size=15)]
        self.assert_matches(rng.standard_normal((15, 3)), labels, epochs=10, seed=5)

    # ``svm_fit`` runs its steps in blocks that end at a margin violation; the
    # cases below reach each edge of that schedule.
    def test_wide_features_cap_the_block(self):
        # 3 x 3000 weights: the chain holds at most 13 steps.
        rng = np.random.default_rng(5)
        self.assert_matches(rng.standard_normal((40, 3000)), self.random_labels(rng, 40),
                            epochs=20, seed=5)

    def test_long_clean_stretches(self):
        # 10 violations in 9000 steps; the longest clean block runs 4096 steps.
        feats, labels = separable_data(n=10)
        self.assert_matches(feats, labels, epochs=300)

    def test_violation_on_the_first_and_on_a_block_last_step(self):
        # Zero weights violate every margin at step 1. With these seeds a
        # violation also ends a block of 8 (seed 3) and two blocks of 4 (seed 6)
        # on its last step.
        for seed in (3, 6):
            feats, labels = separable_data(n=5, seed=seed)
            self.assert_matches(feats, labels, epochs=30, seed=seed)

    def test_fortran_ordered_and_column_sliced_features(self):
        rng = np.random.default_rng(6)
        wide = rng.standard_normal((25, 30)) * 2.0
        labels = self.random_labels(rng, 25)
        for features in (np.asfortranarray(wide[:, :7]), wide[:, 3:11], wide[:, ::4]):
            self.assert_matches(features, labels, epochs=15, seed=2)

    def test_no_features(self):
        labels = ["true", "false", "unverified", "true", "false", "false"]
        weights, biases = svm_fit(np.zeros((6, 0)), labels, epochs=50)
        assert weights.shape == (3, 0)
        # The biases of the step-by-step loop that ``svm_fit`` replaced.
        assert biases.tolist() == [0.17309036939588762, -1.0000641597726596, -1.0088623176694853]
        self.assert_matches(np.zeros((6, 0)), labels, epochs=50)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(2, 30), d=st.integers(0, 40), epochs=st.integers(0, 30),
           l2=st.sampled_from([0.0, 1e-4, 1e-3, 0.1, 10.0]), seed=st.integers(0, 2 ** 16),
           classes=st.sampled_from([VERACITY_CLASSES, VERACITY_CLASSES[:2],
                                    VERACITY_CLASSES[1:], VERACITY_CLASSES[::2]]),
           zero_rows=st.integers(0, 3), scale=st.sampled_from([0.1, 1.0, 5.0]))
    def test_matches_textbook_on_drawn_fits(self, n, d, epochs, l2, seed, classes,
                                            zero_rows, scale):
        rng = np.random.default_rng(seed)
        labels = [classes[0], classes[1]] + [str(c) for c in rng.choice(classes, size=n - 2)]
        features = rng.standard_normal((n, d)) * scale
        features[rng.choice(n, size=min(zero_rows, n), replace=False)] = 0.0
        self.assert_matches(features, labels, l2=l2, epochs=epochs, seed=seed)


class TestNilePipeline:
    def test_beats_majority_on_synthetic(self):
        from rumourmtl.evaluation import compute_metrics

        spec = GeneratorSpec(events=3, threads_per_event=60, coupling=0.9,
                             nonrumour_fraction=0.0)
        corpus = generate_synthetic(spec, 31)
        threads = corpus.threads
        train, test = Corpus(threads[:120]), Corpus(threads[120:])
        gold = [t.veracity_label for t in test.threads]

        nile = nile_fit(train, seed=0)
        nile_f = compute_metrics(gold, nile_predict(nile, test), VERACITY_CLASSES).macro_f
        maj_f = compute_metrics(gold, majority_predict(majority_fit(train), test),
                                VERACITY_CLASSES).macro_f
        assert nile_f > maj_f

    def test_unlabeled_threads_excluded_from_fit(self):
        labeled = thread_with_stances(["support"], text="claim one", source_id="a")
        unlabeled = Thread(source=Post(id="u", text="claim two"),
                           replies=(), event="ev", detection_label="non-rumour",
                           veracity_label=None)
        other = thread_with_stances([], text="claim three", veracity="false",
                                    source_id="b")
        model = nile_fit(Corpus((labeled, unlabeled, other)))
        preds = nile_predict(model, Corpus((labeled, unlabeled, other)))
        assert len(preds) == 3
        assert all(p in ("false", "true", "unverified") for p in preds)

    def test_matches_textbook_pipeline_on_a_loeo_fold(self):
        corpus = generate_synthetic(GeneratorSpec(events=3, threads_per_event=20), 7)
        train, test = split_loeo(corpus, corpus.events[0])
        counts = Counter(tok for t in train.threads for tok in preprocess(t.source.text))
        ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
        vocab = {tok: i for i, tok in enumerate(ranked)}
        labeled = [t for t in train.threads if t.veracity_label is not None]
        assert len(labeled) < len(train.threads)
        features = np.stack([extract_features(t, vocab) for t in labeled])
        test_features = np.stack([extract_features(t, vocab) for t in test.threads])
        for seed in (0, 5):
            weights, biases = textbook_svm_fit(
                features, [t.veracity_label for t in labeled], seed=seed)
            nile = nile_fit(train, seed=seed)
            assert nile.vocab == vocab
            np.testing.assert_array_equal(nile.weights, weights)
            np.testing.assert_array_equal(nile.biases, biases)
            expected = svm_predict(weights, biases, test_features)
            assert nile_predict(nile, test) == expected
