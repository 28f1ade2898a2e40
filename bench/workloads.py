"""Workloads, phases and correctness checks of the rumourmtl benchmark.

A workload is a generated corpus plus the models run on it. Every workload
runs the same user pipeline, so that each reports every end-to-end metric;
the shapes decide which layer does most of the work.

Set-up generates and writes the corpus, writes the run config, makes the
hash table and builds the instances once. It runs ``SETUP_REPS`` times
before the rounds and once after each round; ``setup_s`` is the median. The
first ``build_instances`` with a table fills its lazy ``HashEmbeddings``
cache, so that cost is counted in ``setup_s`` and the build phase runs warm.
The CLI commands make a fresh table for every fold and trial, as users pay
it, so their cache is always cold.

The fit, once before the rounds, trains a fresh model for ``epochs`` epochs
on every instance and predicts every thread with it. It gives ``train_loss``
(the joint objective averaged over the fitted epochs) and, on ``paper`` and
``tiny``, ``veracity_macro_f`` over the predicted threads.

A measured round runs ``passes`` passes of the three short phases, then the
two CLI commands:

  build    ``mtl.build_instances`` on each chunk of CHUNK_THREADS threads
  train    ``mtl.train`` for one epoch on each unit of ``unit_batches``
           batches, from the same parameters every time
  predict  ``mtl.predict_thread`` on every thread, one at a time, with the
           fitted model
  loeo     ``cli.dispatch(["loeo", ..., "--models", "majority,nile,mtl2vs"])``
  search   ``cli.dispatch(["search", ..., "--trials", k, "--epochs", "1"])``

Rounds start while the budget allows another, and at least ``MIN_ROUNDS``
run. Each input of a short phase (a chunk, a unit, a thread) is timed once
per pass, and its fastest time counts: rates are the work over the sum of
those minima, and the p95 latency is taken over threads of their fastest
prediction. The CLI metrics divide the mean time of a command by its folds
or trials.

On a shared host the speed of a core varies by up to 1.6x within a fraction
of a second, and for whole runs, as other tenants load it. So every time is
divided by a slowdown: how much longer than on an idle core a fixed
``Reference`` computation took in the same run. It runs after every input
of a short phase. A short phase is divided by the mean over its inputs of
the fastest slowdown after each, and the CLI commands and set-up by the mean
of all slowdowns; the metrics are then the times of an idle core. The raw
times and the slowdowns are printed with the corpus shape.

The workload seed feeds the corpus generator only. Model and run-config seeds
are fixed, so that the search suggests the same trial configuration (whose
cost differs by up to 4x between configurations) for every corpus.
``train_loss`` and ``veracity_macro_f`` are deterministic for a seed; they
vary only with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from rumourmtl import cli, corpus as corpus_mod, mtl, text
from rumourmtl.corpus import (DEFAULT_MAX_BRANCH_LEN, STANCE_CLASSES, VERACITY_CLASSES,
                              Corpus, GeneratorSpec)
from rumourmtl.mtl import HyperParams

import spans

MODEL_SEED = 0
SETUP_REPS = 3  # before the rounds, and one more after each
MIN_ROUNDS = 2
CHUNK_THREADS = 10  # threads per timed build_instances call
SHORT_PHASES = ("build", "train", "predict")
SMALL_S = 65e-6  # of a warm Reference.small call on an idle 2.1 GHz Xeon core
LOEO_MODELS = ("majority", "nile", "mtl2vs")

# The loeo model: one small LSTM and one small dense layer per head.
SMALL = dict(num_dense_layers=1, num_lstm_layers=1, dense_width=32, lstm_width=24,
             learning_rate=3e-3, batch_size=32)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: GeneratorSpec
    dim: int                  # hash embedding dimension
    tasks: tuple[str, ...]    # task set of the trained model
    hp: HyperParams           # trained and used for prediction
    epochs: int               # of the fit
    passes: int               # of the short phases per round
    unit_batches: int         # batches per timed training unit
    train_units: Optional[int]  # timed training units; None for all instances
    loeo_epochs: int          # of the mtl2vs model in every LOEO fold
    trials: int               # search trials per command
    macro_f_source: str       # "predict" or "loeo"
    model_s: float            # of a warm Reference.model call, as SMALL_S

    @property
    def pad_to(self) -> int:
        # The longest branch the spec can generate, so the padded length and
        # with it the work per branch do not change with the seed.
        return min(self.spec.depth_range[1] + 1, DEFAULT_MAX_BRANCH_LEN)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper",
        why="the paper's corpus and model shape (mtl3, 2xLSTM-200, 2xdense-500); "
            "numpy GEMMs in LSTM, heads and optimizer do most of the work",
        spec=GeneratorSpec(events=5, threads_per_event=40, replies_range=(5, 30),
                           depth_range=(2, 10)),
        dim=300, tasks=("veracity", "stance", "detection"),
        hp=HyperParams(num_dense_layers=2, num_lstm_layers=2, dense_width=500,
                       lstm_width=200, batch_size=32),
        epochs=1, passes=2, unit_batches=1, train_units=6, loeo_epochs=1, trials=1,
        macro_f_source="predict", model_s=1.22e-3),
    Workload(
        name="tiny",
        why="the learnability-test shape (mtl3, LSTM-24, dense-32, dim 32); Python "
            "per-call overhead does most of the work, GEMMs almost none",
        spec=GeneratorSpec(events=5, threads_per_event=40, coupling=1.0),
        dim=32, tasks=("veracity", "stance", "detection"),
        hp=HyperParams(**SMALL),
        epochs=60, passes=4, unit_batches=2, train_units=None, loeo_epochs=2, trials=1,
        macro_f_source="predict", model_s=90e-6),
    Workload(
        name="cli-loeo",
        why="a bushy corpus through cli loeo and search: corpus loads, per-fold "
            "tables, the nile SVM, per-trial builds and one-thread-at-a-time mtl",
        spec=GeneratorSpec(events=4, threads_per_event=50, replies_range=(5, 20),
                           depth_range=(1, 6)),
        dim=32, tasks=("veracity", "stance"),
        hp=HyperParams(**SMALL),
        epochs=3, passes=4, unit_batches=2, train_units=None, loeo_epochs=5, trials=1,
        macro_f_source="loeo", model_s=90e-6),
)}


class Checks:
    """Counts correctness checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def macro_f(gold: list[str], preds: list[str]) -> float:
    """Unweighted mean over the veracity classes of per-class F1."""
    f1s = []
    for c in VERACITY_CLASSES:
        tp = sum(1 for g, p in zip(gold, preds) if g == c and p == c)
        n_pred = sum(1 for p in preds if p == c)
        n_gold = sum(1 for g in gold if g == c)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / len(f1s)


def majority_loeo_macro_f(corpus) -> float:
    """Pooled LOEO macro-F of the training-majority class, from the labels."""
    gold, preds = [], []
    for event in sorted({t.event for t in corpus.threads}):
        counts = Counter(t.veracity_label for t in corpus.threads
                         if t.event != event and t.veracity_label is not None)
        top = max(counts.values())
        majority = min(c for c, n in counts.items() if n == top)
        held_out = [t.veracity_label for t in corpus.threads
                    if t.event == event and t.veracity_label is not None]
        gold += held_out
        preds += [majority] * len(held_out)
    return macro_f(gold, preds)


def corpus_shape(corpus, pad_to: int) -> dict:
    branches = [b for t in corpus.threads
                for b in corpus_mod.decompose_branches(t, max_len=DEFAULT_MAX_BRANCH_LEN)]
    posts = sum(len(t.posts) for t in corpus.threads)
    steps = sum(len(b) for b in branches)
    return {
        "threads": len(corpus.threads),
        "labeled_threads": sum(t.veracity_label is not None for t in corpus.threads),
        "events": len({t.event for t in corpus.threads}),
        "posts": posts,
        "branches": len(branches),
        "branch_steps": steps,
        "prefix_redundancy": steps / posts,
        "longest_branch": max(len(b) for b in branches),
        "padded_length": pad_to,
        "padding_use": steps / (len(branches) * pad_to),
    }


def run_config(w: Workload, corpus_path: Path) -> str:
    values = {
        "corpus": corpus_path, "seed": MODEL_SEED, "tasks": "veracity,stance",
        "embedding_dim": w.dim, "epochs": w.loeo_epochs, **SMALL,
    }
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@dataclass
class State:
    corpus: object
    table: object
    instances: list
    config: Path
    shape: dict


def setup(w: Workload, seed: int, tmp: Path) -> State:
    corpus = corpus_mod.generate_synthetic(w.spec, seed)
    corpus_mod.save_corpus(corpus, tmp / "corpus.ndjson")
    config = tmp / "run.cfg"
    config.write_text(run_config(w, tmp / "corpus.ndjson"))
    table = text.hash_embeddings(w.dim, seed=0)
    instances = mtl.build_instances(corpus, table, pad_to=w.pad_to)
    return State(corpus, table, instances, config, {})


def _dispatch(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def _check_prediction(checks: Checks, pred, tasks) -> None:
    ok = pred.veracity in VERACITY_CLASSES and abs(sum(pred.veracity_probs) - 1.0) < 1e-9
    if "detection" in tasks:
        ok = ok and pred.detection is not None and abs(sum(pred.detection_probs) - 1.0) < 1e-9
    if "stance" in tasks:
        ok = ok and pred.stance is not None and all(s in STANCE_CLASSES
                                                    for _, s in pred.stance)
    checks.check(ok, f"prediction for {pred.thread_id} has a valid class and probabilities")


def _read_predictions(checks: Checks, path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    for row in rows:
        probs = row["veracity"]["probs"]
        checks.check(row["veracity"]["pred"] in VERACITY_CLASSES
                     and abs(sum(probs) - 1.0) < 1e-9,
                     f"{path.name}: {row['thread']} has a valid class and probabilities")
    return rows




class Reference:
    """Fixed computations, timed to track the speed of the core.

    ``small`` is a chain of small GEMMs with tanh: of the kernels tried, its
    slowdown under other tenants' load correlated best with that of the
    build, train and predict phases of the small models. Large GEMMs slow
    down less, so ``model`` adds a few LSTM-like steps at the workload's
    input and LSTM widths; for the small models they add little. Build is compared
    with ``small`` and the model phases with ``model``. Each returns its own
    run time.
    """

    def __init__(self, dim: int, width: int) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 64))
        self.w = rng.standard_normal((64, 64)) * 0.1
        self.step_x = rng.standard_normal((8, dim))
        self.step_h = rng.standard_normal((8, width))
        self.wx = rng.standard_normal((dim, 4 * width)) * 0.05
        self.wh = rng.standard_normal((width, 4 * width)) * 0.05

    def small(self) -> float:
        start = time.perf_counter()
        h = self.x
        for _ in range(20):
            h = np.tanh(h @ self.w)
        return time.perf_counter() - start

    def model(self) -> float:
        start = time.perf_counter()
        self.small()
        for _ in range(4):
            np.tanh(self.step_x @ self.wx + self.step_h @ self.wh)
        return time.perf_counter() - start


class Rounds:
    """Fits the model, runs the measured rounds, keeps every input's times."""

    def __init__(self, w: Workload, state: State, tmp: Path, checks: Checks):
        self.w, self.state, self.tmp, self.checks = w, state, tmp, checks
        threads = state.corpus.threads
        self.chunks = [Corpus(tuple(threads[i:i + CHUNK_THREADS]))
                       for i in range(0, len(threads), CHUNK_THREADS)]
        # Full units that mix threads, so that each holds veracity-labelled
        # instances (mtl.train needs one).
        order = np.random.default_rng(MODEL_SEED).permutation(len(state.instances))
        size = w.hp.batch_size * w.unit_batches
        self.units = [[state.instances[i] for i in order[start:start + size]]
                      for start in range(0, len(order) - size + 1, size)][:w.train_units]
        self.unit_model = mtl.MTLModel(w.hp, w.tasks, w.dim, MODEL_SEED)
        self.start_params = {k: v.copy() for k, v in self.unit_model.params.items()}
        self.unit_losses: dict[int, float] = {}
        # phase -> one list of times per input
        self.times: dict[str, list[list[float]]] = {
            "build": [[] for _ in self.chunks],
            "train": [[] for _ in self.units],
            "predict": [[] for _ in threads],
            "loeo": [[]],
            "search": [[]],
        }
        # short phase -> per input, the reference times taken after it over
        # their idle-core time
        self.reference = Reference(w.dim, w.hp.lstm_width)
        self.ref_times = {p: [[] for _ in self.times[p]] for p in SHORT_PHASES}
        self.macro_fs: list[float] = []
        self.count = 0
        self.fit()

    def fit(self) -> None:
        w, state = self.w, self.state
        self.model = mtl.MTLModel(w.hp, w.tasks, w.dim, MODEL_SEED)
        history = mtl.train(self.model, state.instances, MODEL_SEED, epochs=w.epochs)
        for loss in history:
            self.checks.check(math.isfinite(loss), "every epoch loss is finite")
        # The mean over all epochs: late epochs alone vary 15-20% with the seed
        # once the tiny model has fitted its corpus.
        self.train_loss = sum(history) / len(history)
        self.preds = [mtl.predict_thread(self.model, t, state.table)
                      for t in state.corpus.threads]
        for pred in self.preds:
            _check_prediction(self.checks, pred, w.tasks)
        if w.macro_f_source == "predict":
            labeled = [(t.veracity_label, p.veracity)
                       for t, p in zip(state.corpus.threads, self.preds)
                       if t.veracity_label is not None]
            self.macro_fs.append(macro_f([g for g, _ in labeled], [p for _, p in labeled]))

    def run(self) -> None:
        for _ in range(self.w.passes):
            self.build()
            self.train()
            self.predict()
        self.loeo()
        self.search()
        self.count += 1

    def slowdown(self, phase: Optional[str] = None) -> float:
        """How much slower than on an idle core the reference ran in the short phases.

        For ``phase``: the mean over its inputs of the fastest reference call
        after each, as its inputs are timed by their fastest call. Without:
        the mean of every reference call, as the CLI commands are timed by
        their mean.
        """
        if phase is not None:
            fastest = [min(times) for times in self.ref_times[phase] if times]
            return sum(fastest) / len(fastest)
        every = [t for inputs in self.ref_times.values() for times in inputs for t in times]
        return sum(every) / len(every)

    def metrics(self, scaled: bool = True) -> dict[str, Optional[float]]:
        """End-to-end metrics over all rounds so far; None where a phase failed.

        ``scaled`` divides every time by the matching slowdown.
        """
        def fastest(phase: str) -> list[float]:
            slow = self.slowdown(phase) if scaled else 1.0
            return [min(times) / slow for times in self.times[phase] if times]

        def mean_command(phase: str) -> Optional[float]:
            times = self.times[phase][0]
            if not times:
                return None
            return statistics.mean(times) / (self.slowdown() if scaled else 1.0)

        shape = self.state.shape
        predict = sorted(fastest("predict"))
        loeo, search = mean_command("loeo"), mean_command("search")
        return {
            "build_branches_per_s": shape["branches"] / sum(fastest("build")),
            "train_branches_per_s": (sum(len(u) for u in self.units)
                                     / sum(fastest("train"))),
            "predict_threads_per_s": len(predict) / sum(predict),
            # 200 threads leave 10 above the 95th percentile.
            "predict_thread_p95_ms": predict[math.ceil(0.95 * len(predict)) - 1] * 1e3,
            "loeo_fold_s": loeo / shape["events"] if loeo else None,
            "search_trial_s": search / self.w.trials if search else None,
            "train_loss": self.train_loss,
            "veracity_macro_f": self.macro_fs[-1] if self.macro_fs else None,
        }

    def _timed(self, phase: str, index: int, fn, *args, **kwargs):
        """Call ``fn`` and record its time as input ``index`` of ``phase``.

        After each input of a short phase the reference runs twice; the
        second, warm call is timed.
        """
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[phase][index].append(time.perf_counter() - start)
        if phase in SHORT_PHASES:
            if phase == "build":
                reference, idle = self.reference.small, SMALL_S
            else:
                reference, idle = self.reference.model, self.w.model_s
            reference()
            self.ref_times[phase][index].append(reference() / idle)
        return out

    def build(self) -> None:
        count = 0
        for i, chunk in enumerate(self.chunks):
            count += len(self._timed("build", i, mtl.build_instances, chunk,
                                     self.state.table, pad_to=self.w.pad_to))
        self.checks.check(count == self.state.shape["branches"],
                          "instance count equals the decompose_branches total")

    def train(self) -> None:
        params = self.unit_model.params
        for i, unit in enumerate(self.units):
            for key, value in self.start_params.items():
                np.copyto(params[key], value)
            history = self._timed("train", i, mtl.train, self.unit_model, unit, MODEL_SEED,
                                  epochs=1)
            self.checks.check(math.isfinite(history[0]), "every epoch loss is finite")
            self.checks.check(self.unit_losses.setdefault(i, history[0]) == history[0],
                              f"training unit {i} has the same loss in every pass")

    def predict(self) -> None:
        threads = self.state.corpus.threads
        for i, (thread, fitted) in enumerate(zip(threads, self.preds)):
            pred = self._timed("predict", i, mtl.predict_thread, self.model, thread,
                               self.state.table)
            self.checks.check(pred.to_json_obj() == fitted.to_json_obj(),
                              f"prediction for {thread.id} is the same in every pass")

    def loeo(self) -> None:
        out = self.tmp / f"loeo{self.count}"
        rc = self._timed("loeo", 0, _dispatch, [
            "loeo", str(self.state.config), "--models", ",".join(LOEO_MODELS),
            "--jobs", "1", "--output-dir", str(out)])
        self.checks.check(rc == 0, f"loeo exit status {rc} is 0")
        if rc != 0:
            return
        table = (out / "report.csv").read_text().split("\n\n")[0].splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in table[1:]}
        self.checks.check(len(table) - 1 == len(LOEO_MODELS) and set(rows) == set(LOEO_MODELS),
                          "report.csv has one row per model")
        own = majority_loeo_macro_f(self.state.corpus)
        self.checks.check(rows.get("majority", [None, None])[1] == f"{own:.3f}",
                          "majority macro-F equals the one computed from the labels")
        gold = {t.id: t.veracity_label for t in self.state.corpus.threads}
        pooled: list[tuple[str, str]] = []
        for event in sorted({t.event for t in self.state.corpus.threads}):
            for model in LOEO_MODELS:
                rows_m = _read_predictions(self.checks, out / f"predictions_{model}_{event}.ndjson")
                if model == "mtl2vs":
                    pooled += [(gold[r["thread"]], r["veracity"]["pred"]) for r in rows_m]
        self.checks.check(len(pooled) == self.state.shape["labeled_threads"],
                          "mtl2vs predicted every labeled thread once")
        pooled_f = macro_f([g for g, _ in pooled], [p for _, p in pooled])
        self.checks.check(rows.get("mtl2vs", [None, None])[1] == f"{pooled_f:.3f}",
                          "mtl2vs macro-F equals the one computed from its predictions")
        if self.w.macro_f_source == "loeo":
            self.macro_fs.append(pooled_f)
        shutil.rmtree(out)

    def search(self) -> None:
        out = self.tmp / f"search{self.count}"
        rc = self._timed("search", 0, _dispatch, [
            "search", str(self.state.config), "--trials", str(self.w.trials),
            "--epochs", "1", "--output-dir", str(out)])
        self.checks.check(rc == 0, f"search exit status {rc} is 0")
        if rc != 0:
            return
        trials = [json.loads(line) for line in
                  (out / "trials.ndjson").read_text().splitlines() if line]
        self.checks.check(len(trials) == self.w.trials
                          and all(t["status"] == "ok" for t in trials),
                          "trials.ndjson holds every trial with status ok")
        shutil.rmtree(out)


def timed_round(rnd: Rounds) -> float:
    start = time.perf_counter()
    rnd.run()
    return time.perf_counter() - start


def _same(values: list[float], checks: Checks, what: str) -> None:
    for v in values[1:]:
        checks.check(v == values[0], f"{what} is identical in every round")


def run(w: Workload, seed: int, seconds: float, trace: bool, tmp: Path,
        checks: Checks) -> tuple[dict, dict, Optional[dict]]:
    """Set up and measure ``w``; return (metrics, shape, span summary or None)."""
    setup_times = []

    def timed_setup() -> State:
        start = time.perf_counter()
        state = setup(w, seed, tmp)
        setup_times.append(time.perf_counter() - start)
        return state

    for _ in range(SETUP_REPS):
        state = timed_setup()
    state.shape = corpus_shape(state.corpus, w.pad_to)
    rnd = Rounds(w, state, tmp, checks)
    if not trace:
        start = time.perf_counter()
        elapsed = 0.0
        # Start another round while it is expected to end within the budget.
        while rnd.count < MIN_ROUNDS or elapsed * (rnd.count + 1) / rnd.count <= seconds:
            timed_round(rnd)
            timed_setup()  # more set-up samples, spread over the run
            elapsed = time.perf_counter() - start
        state.shape.update(measured_s=elapsed, rounds=rnd.count)
        _same(rnd.macro_fs, checks, "veracity_macro_f")
        metrics = {k: v for k, v in rnd.metrics().items() if v is not None}
        metrics["setup_s"] = statistics.median(setup_times) / rnd.slowdown()
        state.shape.update(
            slowdown={"mean": rnd.slowdown(), **{p: rnd.slowdown(p) for p in SHORT_PHASES}},
            raw={**rnd.metrics(scaled=False), "setup_s": statistics.median(setup_times)})
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, state.shape, None
    # Traced run: one warm-up round pays the one-time costs, then untraced and
    # traced rounds alternate, so that drift affects both sides alike.
    rnd.run()
    tracer = spans.Tracer()
    untraced = traced = 0.0
    pairs = 0
    while pairs < 1 or (untraced + traced) * (pairs + 1) / pairs <= seconds:
        untraced += timed_round(rnd)
        with spans.instrument(tracer):
            traced += timed_round(rnd)
        pairs += 1
    state.shape.update(measured_s=untraced + traced, rounds=rnd.count)
    _same(rnd.macro_fs, checks, "veracity_macro_f")
    metrics = spans.layer_metrics(tracer, pairs, state.shape)
    metrics["trace.overhead"] = traced / untraced - 1.0
    return metrics, state.shape, tracer.summary()
