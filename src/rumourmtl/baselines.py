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

# The decay chain of ``svm_fit`` holds at most this many float64 values (1 MB),
# or two rows when one row of weights is more than half of it.
CHAIN_VALUES = 2 ** 17


def svm_fit(features: np.ndarray, labels: Sequence[str], l2: float = 1e-3,
            epochs: int = 100, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Train one hinge-loss separator per veracity class against the rest:
    (n_classes, n_features) weights and (n_classes,) biases, with rows in
    ``VERACITY_CLASSES`` order.

    Step ``s`` (from 1) visits one example of a fresh permutation per epoch
    with rate ``1 / sqrt(s)``: it decays the weights by ``1 - rate * l2``
    and moves each class whose margin is below 1 towards the example, by
    +-rate times the example (the biases by +-rate).

    Most steps violate no margin and only decay, so the steps run in
    blocks. A block's chain (the weights, then one row per step's decay,
    multiplied up by ``np.multiply.accumulate``) holds the weights before
    each of its steps, and one stacked gemv gives every step's margins.
    The block ends at its first step with a violation, whose update runs
    on its own; the next block starts after it, twice as long after a
    clean block and half as long after a violation, and the chain holds
    at most ``CHAIN_VALUES``. Each product and margin is the one a
    step-by-step loop computes, so the result is the same bit for bit.
    """
    if len({lbl for lbl in labels}) < 2:
        raise ValueError("need at least two classes in the training labels")
    n, d = features.shape
    classes = len(VERACITY_CLASSES)
    weights = np.zeros((classes, d))
    biases = np.zeros(classes)
    rng = np.random.default_rng(seed)
    order = np.array([rng.permutation(n) for _ in range(epochs)], dtype=np.intp).reshape(-1)
    lrs = 1.0 / np.sqrt(np.arange(1, len(order) + 1))
    decays = 1.0 - lrs * l2
    y = np.array([[1.0 if lbl == c else -1.0 for c in VERACITY_CLASSES] for lbl in labels])
    longest = max(1, CHAIN_VALUES // max(classes * d, 1) - 1)
    chain = np.empty((longest + 1, classes * d))
    step, size = 0, 1
    while step < len(order):
        k = min(size, longest, len(order) - step)
        rows, block = order[step:step + k], chain[:k + 1]
        block[0] = weights.ravel()
        block[1:] = decays[step:step + k, None]
        np.multiply.accumulate(block, axis=0, out=block)
        xs = features[rows]
        margins = np.matmul(block[:k].reshape(k, classes, d), xs[:, :, None])[:, :, 0]
        violated = (margins + biases) * y[rows] < 1.0
        hit = int(violated.any(axis=1).argmax())
        if not violated[hit].any():
            weights = block[k].reshape(classes, d).copy()
            step, size = step + k, 2 * size
            continue
        weights = block[hit + 1].reshape(classes, d).copy()
        ly = violated[hit] * (lrs[step + hit] * y[rows[hit]])
        weights += ly[:, None] * xs[hit]
        biases += ly
        step, size = step + hit + 1, max(1, size // 2)
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
