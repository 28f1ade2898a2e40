"""Label-distribution diagnostics per event and per task.

Shannon entropy (nats) and Fisher excess kurtosis of each event's label
counts, plus the token-type ratio of the task subset's preprocessed text.
Kurtosis codes labels as integers 0..K-1 in alphabetical label order and
uses population (biased) central moments; it is coding-dependent by
construction, entropy is not.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from rumourmtl.corpus import TASK_CLASSES, Corpus, Thread
from rumourmtl.evaluation import render_table
from rumourmtl.text import preprocess

#: The tasks of the stats table, in column order.
TASKS = ("stance", "veracity", "detection")


@dataclass(frozen=True)
class LabelDistribution:
    """Per-event, per-task label counts in alphabetical label order."""

    task: str
    event: str
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("negative label count")
        if sum(self.counts) == 0:
            raise ValueError(f"all-zero counts for {self.task}/{self.event}")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def frequencies(self) -> tuple[float, ...]:
        total = self.total
        return tuple(c / total for c in self.counts)


def entropy(dist: LabelDistribution) -> float:
    """Shannon entropy in nats: +0.0 (not -0.0) for a single class, ln K when uniform."""
    return 0.0 - sum(p * math.log(p) for p in dist.frequencies if p > 0.0)


def kurtosis(dist: LabelDistribution) -> Optional[float]:
    """Fisher excess kurtosis of the integer-coded label variable.

    Returns None for single-class distributions, where the ratio of moments
    is undefined (reported downstream as degenerate, -3 by convention).
    """
    freqs = dist.frequencies
    if sum(1 for p in freqs if p > 0.0) < 2:
        return None
    mean = sum(i * p for i, p in enumerate(freqs))
    m2 = sum(p * (i - mean) ** 2 for i, p in enumerate(freqs))
    m4 = sum(p * (i - mean) ** 4 for i, p in enumerate(freqs))
    return m4 / (m2 * m2) - 3.0


def ttr(texts: Sequence[Sequence[str]]) -> float:
    """Token-type ratio: distinct tokens over total tokens."""
    total = sum(len(tokens) for tokens in texts)
    if total == 0:
        raise ValueError("no tokens in the text collection")
    distinct = len({t for tokens in texts for t in tokens})
    return distinct / total


@dataclass(frozen=True)
class DatasetStats:
    entropy: float
    kurtosis: Optional[float]  # None marks the degenerate single-class case
    ttr: float


def _task_labels(thread: Thread, task: str) -> list[str]:
    """The thread's labels for ``task``: one per annotated post for stance,
    the thread label, if any, for detection and veracity."""
    if task == "stance":
        return [p.stance_label for p in thread.posts if p.stance_label is not None]
    label = getattr(thread, f"{task}_label")
    return [] if label is None else [label]


def analyze_corpus(corpus: Corpus) -> dict[str, dict[str, Optional[DatasetStats]]]:
    """Per-event, per-task stats table; tasks without labels in an event
    get None cells (like stance for events that carry no stance annotation)."""
    by_event: dict[str, list[Thread]] = {}
    for t in corpus.threads:
        by_event.setdefault(t.event, []).append(t)
    table: dict[str, dict[str, Optional[DatasetStats]]] = {}
    for event, threads in sorted(by_event.items()):
        row: dict[str, Optional[DatasetStats]] = {}
        for task in TASKS:
            labeled = [(t, labels) for t in threads if (labels := _task_labels(t, task))]
            if not labeled:
                row[task] = None
                continue
            counts = Counter(label for _, labels in labeled for label in labels)
            dist = LabelDistribution(task=task, event=event,
                                     counts=tuple(counts[c] for c in TASK_CLASSES[task]))
            texts = [preprocess(p.text) for t, _ in labeled for p in t.posts]
            row[task] = DatasetStats(
                entropy=entropy(dist),
                kurtosis=kurtosis(dist),
                ttr=ttr(texts) if any(texts) else float("nan"),
            )
        table[event] = row
    return table


def stats_csv(table: dict[str, dict[str, Optional[DatasetStats]]]) -> str:
    """Render the stats table as CSV: rows = events, columns = task metrics.

    Degenerate kurtosis cells are marked ``-3 (degenerate)``; an empty
    table renders as ``no results``, like every report table.
    """
    rows = [("event", *(f"{task}_{m}" for task in TASKS for m in ("entropy", "kurtosis", "ttr")))]
    for event in sorted(table):
        cells = [event]
        for task in TASKS:
            stats = table[event][task]
            if stats is None:
                cells += ["-", "-", "-"]
            else:
                kurt = ("-3 (degenerate)" if stats.kurtosis is None
                        else f"{stats.kurtosis:.2f}")
                cells += [f"{stats.entropy:.2f}", kurt, f"{stats.ttr:.2f}"]
        rows.append(tuple(cells))
    return render_table(rows)[0]
