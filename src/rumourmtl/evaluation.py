"""Metrics and leave-one-event-out evaluation.

Macro-F is the unweighted mean of per-class F1 over the task's fixed class
set, so classes absent from both gold and predictions still contribute a
zero term. LOEO folds are pooled by concatenating predictions before
computing metrics (micro-averaging across events).
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from rumourmtl.corpus import Corpus, CorpusError, split_loeo

#: Development event used for tuning when present in the training split.
DEFAULT_DEV_EVENT = "charliehebdo"


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    per_class_f1: dict[str, float]
    macro_f: float


def confusion_matrix(gold: Sequence[str], preds: Sequence[str],
                     classes: Sequence[str]) -> np.ndarray:
    """K x K counts, gold rows and predicted columns."""
    if len(gold) != len(preds):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(preds)} predictions")
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=int)
    for g, p in zip(gold, preds):
        matrix[index[g], index[p]] += 1
    return matrix


def metrics_from_confusion(matrix: np.ndarray, classes: Sequence[str]) -> Metrics:
    total = int(matrix.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = float(np.trace(matrix)) / total
    per_class = {}
    for i, c in enumerate(classes):
        tp = float(matrix[i, i])
        gold_n = float(matrix[i, :].sum())
        pred_n = float(matrix[:, i].sum())
        precision = tp / pred_n if pred_n else 0.0
        recall = tp / gold_n if gold_n else 0.0
        per_class[c] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    macro = float(np.mean([per_class[c] for c in classes]))
    return Metrics(accuracy=accuracy, per_class_f1=per_class, macro_f=macro)


def compute_metrics(preds: Sequence[str], gold: Sequence[str],
                    classes: Sequence[str]) -> Metrics:
    return metrics_from_confusion(confusion_matrix(gold, preds, classes), classes)


@dataclass(frozen=True)
class FoldResult:
    event: str
    thread_ids: tuple[str, ...]
    gold: tuple[str, ...]
    preds: tuple[str, ...]
    metrics: Metrics
    probs: Optional[Sequence] = None  # per-thread class probabilities, if the model gives them


def dev_event(corpus: Corpus) -> str:
    """The tuning event: ``DEFAULT_DEV_EVENT`` when present, else the event
    with the most threads (ties go to the later name)."""
    counts = Counter(t.event for t in corpus.threads)
    if DEFAULT_DEV_EVENT in counts:
        return DEFAULT_DEV_EVENT
    return max(counts, key=lambda e: (counts[e], e))


def held_out_split(corpus: Corpus, event: str) -> tuple[Corpus, Corpus]:
    """The training split without ``event`` and its veracity-labeled threads."""
    train, test = split_loeo(corpus, event)
    return train, Corpus(tuple(t for t in test.threads if t.veracity_label is not None))


def loeo_fold(corpus: Corpus, event: str,
              fit_predict: Callable[[Corpus, Corpus], tuple[Sequence[str], Optional[Sequence]]],
              classes: Sequence[str]) -> Optional[FoldResult]:
    """Hold ``event`` out, train on the rest and score its labeled threads.

    ``fit_predict(train_corpus, labeled)`` returns one class per labeled
    thread and their probabilities (or None). Returns None, without
    training, when the event has no labeled thread; raises ``CorpusError``
    when no other event has one.
    """
    train, labeled = held_out_split(corpus, event)
    if not labeled.threads:
        return None
    if all(t.veracity_label is None for t in train.threads):
        raise CorpusError(f"fold {event}: no labeled thread outside the held-out event")
    preds, probs = fit_predict(train, labeled)
    preds = tuple(preds)
    gold = tuple(t.veracity_label for t in labeled.threads)
    if len(preds) != len(gold):
        raise ValueError(f"fold {event}: predictor returned {len(preds)} predictions "
                         f"for {len(gold)} labeled threads")
    return FoldResult(event=event, thread_ids=tuple(t.id for t in labeled.threads),
                      gold=gold, preds=preds, metrics=compute_metrics(preds, gold, classes),
                      probs=probs)


def pool_folds(folds: Sequence[FoldResult], classes: Sequence[str]) -> Metrics:
    """Metrics over all folds' concatenated predictions."""
    if not folds:
        raise CorpusError("no held-out event has a labeled thread")
    return compute_metrics([p for f in folds for p in f.preds],
                           [g for f in folds for g in f.gold], classes)


def loeo_evaluate(corpus: Corpus,
                  trainer_factory: Callable[[Corpus, int, Optional[str]],
                                            Callable[[Corpus], Sequence[str]]],
                  classes: Sequence[str], seed: int = 0
                  ) -> tuple[list[FoldResult], Metrics]:
    """One fold per event: train on the rest, predict the held-out threads.

    ``trainer_factory(train_corpus, seed, dev_event)`` returns a predictor
    mapping a corpus to one veracity class per labeled thread. Threads
    without a veracity label are excluded and events without any are
    skipped. Pooled metrics are computed over all folds' concatenated
    predictions.
    """
    if len(corpus.events) < 2:
        raise ValueError("LOEO needs at least two events")

    def fit_predict(train: Corpus, labeled: Corpus) -> tuple[Sequence[str], None]:
        return trainer_factory(train, seed, dev_event(train))(labeled), None

    folds = [f for f in (loeo_fold(corpus, event, fit_predict, classes)
                         for event in corpus.events) if f is not None]
    return folds, pool_folds(folds, classes)


# ---------------------------------------------------------------------------
# Report emission

def _fmt(x: float) -> str:
    return f"{x:.3f}"


def comparison_table(results: dict[str, Metrics]) -> tuple[str, str]:
    """Model-comparison table (one row per model): CSV and aligned text."""
    return render_table([("model", "macro_f", "accuracy")] + [
        (name, _fmt(m.macro_f), _fmt(m.accuracy)) for name, m in results.items()])


def per_event_table(fold_results: dict[str, list[FoldResult]]) -> tuple[str, str]:
    """Per-event macro-F for each model (events as columns)."""
    events = sorted({f.event for folds in fold_results.values() for f in folds})
    rows = [("model", *events)]
    for name, folds in fold_results.items():
        by_event = {f.event: f for f in folds}
        rows.append((name, *(_fmt(by_event[e].metrics.macro_f) if e in by_event else "-"
                             for e in events)))
    return render_table(rows)


def per_class_table(folds: list[FoldResult], classes: Sequence[str]) -> tuple[str, str]:
    """Per-event rows with macro-F, accuracy and one F1 column per class."""
    rows = [("event", "macro_f", "accuracy", *(f"f1_{c}" for c in classes))]
    for f in sorted(folds, key=lambda f: f.event):
        rows.append((f.event, _fmt(f.metrics.macro_f), _fmt(f.metrics.accuracy),
                     *(_fmt(f.metrics.per_class_f1[c]) for c in classes)))
    return render_table(rows)


def render_table(rows: list[tuple[str, ...]]) -> tuple[str, str]:
    """A header row plus data rows as ``csv``-module CSV and as space-aligned
    text; "no results" for both when there is no data row."""
    if len(rows) < 2:
        return "no results\n", "no results\n"
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    csv_doc = io.StringIO()
    csv.writer(csv_doc, lineterminator="\n").writerows(rows)
    txt_doc = "".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
                      for r in rows)
    return csv_doc.getvalue(), txt_doc


def emit_report(results: dict[str, Metrics], fold_results: dict[str, list[FoldResult]],
                classes: Sequence[str], detail_model: str) -> tuple[str, str]:
    """Full report: comparison, per-event and ``detail_model``'s per-class tables.

    Returns (csv document, text document); output is bit-stable for
    identical inputs.
    """
    tables = (comparison_table(results), per_event_table(fold_results),
              per_class_table(fold_results[detail_model], classes))
    return "\n".join(csv for csv, _ in tables), "\n".join(txt for _, txt in tables)
