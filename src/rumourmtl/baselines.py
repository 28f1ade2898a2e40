"""Veracity baselines: majority class and a linear bag-of-words classifier.

The linear baseline mirrors the NileTMRG recipe: bag-of-words over the
source tweet plus URL/hashtag presence and the proportions of supporting,
denying and querying replies, fed to a one-vs-rest linear classifier
trained with hinge loss.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rumourmtl.corpus import VERACITY_CLASSES, Corpus, Thread
from rumourmtl.text import preprocess


# ---------------------------------------------------------------------------
# Majority baseline

def majority_fit(train: Corpus) -> str:
    """Most frequent veracity class in training, ties broken alphabetically."""
    counts = Counter(t.veracity_label for t in train.threads if t.veracity_label is not None)
    if not counts:
        raise ValueError("no veracity labels in the training corpus")
    best = max(counts.values())
    return min(c for c, n in counts.items() if n == best)


def majority_predict(majority_class: str, test: Corpus) -> list[str]:
    return [majority_class for _ in test.threads]


# ---------------------------------------------------------------------------
# Features

VOCABULARY_CAP = 5000


def bow_vocabulary(train: Corpus) -> dict[str, int]:
    """Token -> column index over the training source tweets: the
    ``VOCABULARY_CAP`` most frequent tokens, frequency-descending and
    token-ascending, so the column order is deterministic."""
    counts: Counter = Counter()
    for thread in train.threads:
        counts.update(preprocess(thread.source.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:VOCABULARY_CAP]
    return {token: i for i, (token, _) in enumerate(ranked)}


def stance_proportions(thread: Thread) -> tuple[float, float, float]:
    """Proportions of (support, deny, query) among the thread's replies, by
    their gold stance annotations. Threads without replies get (0, 0, 0)."""
    n = len(thread.replies)
    if n == 0:
        return (0.0, 0.0, 0.0)
    counts = Counter(p.stance_label for p in thread.replies)
    return (counts["support"] / n, counts["deny"] / n, counts["query"] / n)


def extract_features(thread: Thread, vocab: dict[str, int]) -> np.ndarray:
    """BOW counts over the source tweet + URL/hashtag flags + SDQ proportions."""
    vec = np.zeros(len(vocab) + 5)
    for token in preprocess(thread.source.text):
        col = vocab.get(token)
        if col is not None:
            vec[col] += 1.0
    vec[len(vocab)] = float(thread.source.has_url)
    vec[len(vocab) + 1] = float(thread.source.has_hashtag)
    vec[len(vocab) + 2:] = stance_proportions(thread)
    return vec


# ---------------------------------------------------------------------------
# One-vs-rest linear classifier (hinge loss, stochastic subgradient descent)

def svm_fit(features: np.ndarray, labels: Sequence[str], l2: float = 1e-3,
            epochs: int = 100, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Train one hinge-loss separator per veracity class against the rest:
    (n_classes, n_features) weights and (n_classes,) biases, with rows in
    ``VERACITY_CLASSES`` order.

    Step ``s`` (from 1) visits one example of a fresh permutation per epoch
    with rate ``1 / sqrt(s)``: it decays the weights by ``1 - rate * l2``
    and moves each class whose margin is below 1 towards the example. The
    classes move together, by one broadcast update of +-rate times the
    example; a class without a violation adds an exact zero, and a step
    without any skips the update.
    """
    if len({lbl for lbl in labels}) < 2:
        raise ValueError("need at least two classes in the training labels")
    n, d = features.shape
    weights = np.zeros((len(VERACITY_CLASSES), d))
    biases = np.zeros(len(VERACITY_CLASSES))
    rng = np.random.default_rng(seed)
    order = [i for _ in range(epochs) for i in rng.permutation(n).tolist()]
    lrs = 1.0 / np.sqrt(np.arange(1, len(order) + 1))
    y = np.array([[1.0 if lbl == c else -1.0 for c in VERACITY_CLASSES] for lbl in labels])
    xs, ys = list(features), list(y)  # row views, cheaper to pick from a list
    for i, lr, decay in zip(order, lrs.tolist(), (1.0 - lrs * l2).tolist()):
        xi, yi = xs[i], ys[i]
        violated = (weights @ xi + biases) * yi < 1.0
        weights *= decay
        if True in violated.tolist():
            ly = violated * (lr * yi)
            weights += ly[:, None] * xi
            biases += ly
    return weights, biases


def svm_predict(weights: np.ndarray, biases: np.ndarray, features: np.ndarray) -> list[str]:
    """Argmax margin; exact ties resolve to the alphabetically first class."""
    scores = np.atleast_2d(features) @ weights.T + biases
    # ``VERACITY_CLASSES`` is in alphabetical order, and argmax takes the first maximum.
    return [VERACITY_CLASSES[i] for i in np.argmax(scores, axis=1).tolist()]


# ---------------------------------------------------------------------------
# Full NileTMRG*-style pipeline over a corpus

@dataclass
class NileModel:
    vocab: dict[str, int]
    weights: np.ndarray
    biases: np.ndarray


def nile_fit(train: Corpus, seed: int = 0) -> NileModel:
    """Fit the linear baseline on every veracity-labeled training thread."""
    vocab = bow_vocabulary(train)
    labeled = [t for t in train.threads if t.veracity_label is not None]
    if not labeled:
        raise ValueError("no veracity labels in the training corpus")
    feats = np.stack([extract_features(t, vocab) for t in labeled])
    labels = [t.veracity_label for t in labeled]
    return NileModel(vocab, *svm_fit(feats, labels, seed=seed))


def nile_predict(model: NileModel, test: Corpus) -> list[str]:
    feats = np.stack([extract_features(t, model.vocab) for t in test.threads])
    return svm_predict(model.weights, model.biases, feats)
