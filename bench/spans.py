"""In-memory span tracing of rumourmtl, installed from outside the package.

``instrument(tracer)`` wraps the public functions of each module (corpus,
text, neural, mtl, baselines, evaluation, search, cli) for the duration of a
``with`` block. Several modules import functions by name (``mtl`` imports
``embed_tweet``, ``pad_and_mask``, ``preprocess`` and ``decompose_branches``;
``cli`` imports ``load_corpus`` and ``hash_embeddings``), so every module
attribute that refers to a wrapped function is replaced, not only the one in
the defining module. ``MTLModel`` methods are patched on the class.

Each span records its name, start, end and parent span. Spans stay in memory
until ``Tracer.summary`` aggregates them. Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

# (module, attribute, span name); span names are "<module>.<function>".
FUNCTIONS = (
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("corpus", "decompose_branches", "corpus.decompose_branches"),
    ("corpus", "split_loeo", "corpus.split_loeo"),
    ("text", "preprocess", "text.preprocess"),
    ("text", "embed_tweet", "text.embed_tweet"),
    ("text", "pad_and_mask", "text.pad_and_mask"),
    ("text", "hash_embeddings", "text.hash_embeddings"),
    ("neural", "lstm_forward", "neural.lstm_forward"),
    ("neural", "lstm_backward", "neural.lstm_backward"),
    ("neural", "dense_forward", "neural.dense_forward"),
    ("neural", "dense_backward", "neural.dense_backward"),
    ("neural", "optimizer_step", "neural.optimizer_step"),
    ("neural", "l2_penalty", "neural.l2_penalty"),
    ("neural", "add_l2_grads", "neural.add_l2_grads"),
    ("mtl", "build_instances", "mtl.build_instances"),
    ("mtl", "train", "mtl.train"),
    ("mtl", "predict_thread", "mtl.predict_thread"),
    ("baselines", "nile_fit", "baselines.nile_fit"),
    ("baselines", "nile_predict", "baselines.nile_predict"),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics"),
    ("evaluation", "emit_report", "evaluation.emit_report"),
    ("search", "run_search", "search.run_search"),
    ("search", "tpe_suggest", "search.tpe_suggest"),
    ("cli", "cmd_loeo", "cli.loeo"),
    ("cli", "cmd_search", "cli.search"),
)
METHODS = (
    ("forward", "mtl.forward"),
    ("loss_and_grads", "mtl.loss_and_grads"),
    ("batch_data_loss", "mtl.batch_data_loss"),
)


def _count_lstm_steps(counts: dict, params, x, mask, *args, **kwargs) -> None:
    counts["lstm_steps"] += x.shape[0] * x.shape[1]
    counts["lstm_valid"] += int(mask.sum())


COUNTERS = {"neural.lstm_forward": _count_lstm_steps}


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_end is not None and s <= cur_end:
            cur_end = max(cur_end, e)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = s, e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span recorder: one span list per tracer, appended in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self.counts, *args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - covered(start, end, children.get(index, []))
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Route every call to the traced rumourmtl functions through ``tracer``."""
    from rumourmtl import mtl

    package = [m for n, m in sys.modules.items()
               if n == "rumourmtl" or n.startswith("rumourmtl.")]
    patched: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"rumourmtl.{module_name}"], attr)
            traced = tracer.wrap(span, original, COUNTERS.get(span))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, value))
                        setattr(module, key, traced)
        for attr, span in METHODS:
            original = mtl.MTLModel.__dict__[attr]
            patched.append((mtl.MTLModel, attr, original))
            setattr(mtl.MTLModel, attr, tracer.wrap(span, original))
        yield
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer, rounds: int, shape: dict) -> dict[str, float]:
    """Per-layer metrics, per round of the workload, from a traced run."""
    agg = tracer.summary()

    def total(name: str) -> float:
        return agg.get(name, {}).get("total_s", 0.0) / rounds

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0) / rounds

    def calls(name: str) -> float:
        return agg.get(name, {}).get("calls", 0) / rounds

    steps = tracer.counts["lstm_steps"]
    trials = calls("search.tpe_suggest")
    return {
        "neural.lstm_forward.s": total("neural.lstm_forward"),
        "neural.lstm_backward.s": total("neural.lstm_backward"),
        "neural.lstm_forward.steps": steps / rounds,
        "neural.lstm_forward.useful": tracer.counts["lstm_valid"] / steps if steps else 0.0,
        "neural.optimizer_step.s": total("neural.optimizer_step"),
        "neural.optimizer_step.calls": calls("neural.optimizer_step"),
        "neural.l2.s": total("neural.l2_penalty") + total("neural.add_l2_grads"),
        "neural.dense_forward.s": total("neural.dense_forward"),
        "neural.dense_backward.s": total("neural.dense_backward"),
        "mtl.batch_data_loss.s": total("mtl.batch_data_loss"),
        "mtl.loss_and_grads.self_s": self_s("mtl.loss_and_grads"),
        "mtl.forward.self_s": self_s("mtl.forward"),
        "mtl.predict_thread.s": total("mtl.predict_thread"),
        "mtl.predict_thread.calls": calls("mtl.predict_thread"),
        "mtl.forward.calls": calls("mtl.forward"),
        "mtl.build_instances.s": total("mtl.build_instances"),
        "mtl.build_instances.calls": calls("mtl.build_instances"),
        "mtl.train.s": total("mtl.train"),
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.load_corpus.calls": calls("corpus.load_corpus"),
        "corpus.decompose_branches.s": total("corpus.decompose_branches"),
        "corpus.posts": shape["posts"],
        "corpus.branches": shape["branches"],
        "corpus.branch_steps": shape["branch_steps"],
        "corpus.prefix_redundancy": shape["prefix_redundancy"],
        "text.embed_tweet.s": total("text.embed_tweet"),
        "text.embed_tweet.calls": calls("text.embed_tweet"),
        "text.embed_per_post": calls("text.embed_tweet") / shape["posts"],
        "text.hash_embeddings.calls": calls("text.hash_embeddings"),
        "baselines.nile_fit.s": total("baselines.nile_fit"),
        "baselines.nile_predict.s": total("baselines.nile_predict"),
        "evaluation.compute_metrics.s": total("evaluation.compute_metrics"),
        "search.tpe_suggest.s": total("search.tpe_suggest"),
        "search.trials": trials,
        "search.build_per_trial": (tracer.count_under("mtl.build_instances", "cli.search")
                                   / rounds / trials if trials else 0.0),
        "cli.loeo.s": total("cli.loeo"),
        "cli.search.s": total("cli.search"),
        "cli.self_s": self_s("cli.loeo") + self_s("cli.search"),
    }
