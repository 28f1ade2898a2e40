"""Shared-LSTM multi-task models over branch instances.

One or two shared LSTM layers feed task-specific dense-ReLU stacks with
softmax heads (hard parameter sharing). Stance is predicted per step,
detection and veracity from the final valid step. The joint loss sums the
active tasks' cross-entropies; instances lacking a task's label contribute
exactly zero to that task's term. Thread-level answers come from majority
voting over branch predictions. One node table (``Forest``) numbers each
post that a branch reaches and embeds it once, in float32; a command builds
one of its corpus. A training instance is its branch's rows of the table
(``forest_instances``), and a held-out set is a selection of its threads
(``Forest.select``), equal to the table built of those threads alone.
Training and prediction share one forward over node rows: a batch runs as
the node table of its instances' chains, and ``predict_threads`` walks a
``Forest`` top-down, so each post goes through the LSTM once and gets one
stance, and each branch's end node gives its veracity and detection votes.
``neural.lstm_forward``/``lstm_backward``, the masked-batch layer API, are
kept for the tests and the bench tracer.

A model computes in the dtype of its parameters: single precision as built
or loaded. Each head's softmax, the loss and the thread probabilities are
double; ``check_gradients`` runs its miniature model in double.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from rumourmtl import neural
from rumourmtl.artifacts import write_ndjson
from rumourmtl.corpus import (
    DEFAULT_MAX_BRANCH_LEN,
    DETECTION_CLASSES,
    STANCE_CLASSES,
    TASK_CLASSES,
    VERACITY_CLASSES,
    Branch,
    Corpus,
    Post,
    Thread,
    decompose_branches,
)
from rumourmtl.neural import Params
from rumourmtl.text import EmbeddingTable, embed_tweets, preprocess

#: stance is annotated per tweet; detection/veracity per thread.
PER_STEP_TASKS = frozenset({"stance"})
ALL_TASKS = ("veracity", "stance", "detection")
#: The neural models of the paper and their task sets.
MODEL_TASKS = {
    "single": ("veracity",),
    "mtl2vs": ("veracity", "stance"),
    "mtl2vd": ("veracity", "detection"),
    "mtl3": ("veracity", "stance", "detection"),
}
VALID_TASK_SETS = tuple(frozenset(tasks) for tasks in MODEL_TASKS.values())

#: Parameter keys of one layer, as ``neural.init_lstm_layer`` and
#: ``neural.init_dense_layer`` create them.
_LSTM_KEYS = ("Wx", "Wh", "b")
_DENSE_KEYS = ("W", "b")


def derive_rng(seed: int, name: str) -> np.random.Generator:
    """Named RNG stream derived from a single global seed."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


@dataclass(frozen=True)
class HyperParams:
    num_dense_layers: int = 2
    num_lstm_layers: int = 1
    dense_width: int = 300
    lstm_width: int = 100
    l2: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    dropout: float = 0.5
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        if self.num_dense_layers < 1 or self.num_lstm_layers < 1:
            raise ValueError("layer counts must be positive")
        if self.dense_width < 1 or self.lstm_width < 1:
            raise ValueError("layer widths must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (0.0 <= self.l2 < np.inf and 0.0 < self.learning_rate < np.inf):
            raise ValueError(f"l2 must be finite and >= 0 and learning_rate finite and > 0, "
                             f"got l2={self.l2}, learning_rate={self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


@dataclass(frozen=True)
class TrainingInstance:
    """One branch as a model input, with whatever labels the thread carries.

    Its inputs are ``x[rows]``, root first: rows of a ``Forest``'s table,
    shared by every instance ``forest_instances`` makes, or, by default, the first
    ``true_length`` rows of a hand-built instance's own steps. ``stance_labels``
    has length ``true_length`` with -1 marking steps whose post has no stance
    annotation; it is None when no step is annotated.
    """

    x: np.ndarray                 # (N, dim) input rows
    mask: Optional[np.ndarray]    # unread: a hand-built instance's (T,) prefix mask
    true_length: int
    stance_labels: Optional[np.ndarray]
    detection_label: Optional[int]
    veracity_label: Optional[int]
    thread_id: str
    event: str
    rows: Optional[np.ndarray] = None   # (true_length,) rows of x; None: the first ones

    def __post_init__(self) -> None:
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(self.true_length))


def normalize_tasks(tasks: Iterable[str]) -> tuple[str, ...]:
    """The task set in ``ALL_TASKS`` order; ValueError unless it is one of
    ``VALID_TASK_SETS``."""
    task_set = frozenset(tasks)
    if task_set not in VALID_TASK_SETS:
        raise ValueError(
            f"invalid tasks {sorted(task_set)}: veracity is required (a task set must "
            f"include veracity) and only stance and detection may be added")
    return tuple(t for t in ALL_TASKS if t in task_set)


def _prefixed(prefix: str, layer: Params) -> Params:
    """A layer's blocks under the model-level names ``prefix/key``."""
    return {f"{prefix}/{key}": value for key, value in layer.items()}


class MTLModel:
    """Shared LSTM stack plus one dense-ReLU/softmax head per task."""

    def __init__(self, hp: HyperParams, tasks: Iterable[str], input_dim: int, seed: int):
        if not isinstance(input_dim, numbers.Integral) or input_dim < 1:
            raise ValueError(f"input_dim must be a positive integer, got {input_dim!r}")
        self.hp = hp
        self.tasks = normalize_tasks(tasks)
        self.input_dim = input_dim
        self.seed = seed
        self.params: Params = {}
        rng = derive_rng(seed, "init")
        in_dim = input_dim
        for l in range(hp.num_lstm_layers):
            layer = neural.init_lstm_layer(rng, in_dim, hp.lstm_width)
            self.params.update(_prefixed(f"lstm{l}", layer))
            in_dim = hp.lstm_width
        for task in self.tasks:
            width_in = hp.lstm_width
            for i in range(hp.num_dense_layers):
                layer = neural.init_dense_layer(rng, width_in, hp.dense_width)
                self.params.update(_prefixed(f"{task}/dense{i}", layer))
                width_in = hp.dense_width
            out = neural.init_dense_layer(rng, width_in, len(TASK_CLASSES[task]))
            self.params.update(_prefixed(f"{task}/out", out))
        self.params = {name: p.astype(np.float32) for name, p in self.params.items()}

    @property
    def dtype(self) -> np.dtype:
        """The compute precision: the dtype of the parameters."""
        return self.params["lstm0/Wx"].dtype

    # -- forward ---------------------------------------------------------

    def _layer(self, prefix: str, keys: tuple[str, ...]) -> Params:
        return {key: self.params[f"{prefix}/{key}"] for key in keys}

    def forward(self, batch: Sequence[TrainingInstance],
                dropout_rng: Optional[np.random.Generator] = None) -> tuple[dict, dict]:
        """Run the full model on a batch as the forest of its instances'
        chains (``neural.chains``; step t of every instance is level t, and
        the inputs are gathered in that order): stance reads every step,
        instance after instance, and the thread tasks each instance's last step.

        Returns each head's probability rows, laid out as ``_head_labels``
        describes, and the cache for backward, which only this forward keeps.
        Given ``dropout_rng`` (in training), dropout masks are drawn from it
        and recorded in the cache.
        """
        lengths = np.array([inst.true_length for inst in batch])
        live = np.arange(lengths.max()) < lengths[:, None]
        (b, t), parent, levels, last = neural.chains(live)
        steps = np.cumsum(lengths)[b] - lengths[b] + t  # into the instances' rows, concatenated
        if all(inst.x is batch[0].x for inst in batch):  # one shared table: one gather
            x = batch[0].x[np.concatenate([inst.rows for inst in batch])[steps]]
        else:  # hand-built instances, each with its own x
            x = np.concatenate([inst.x[inst.rows] for inst in batch])[steps]
        cache: dict = {"lstm": [], "heads": {}}
        return self._forward(x, parent, levels, last[live], last[:, -1], dropout_rng,
                             cache), cache

    def _forward(self, x: np.ndarray, parent: np.ndarray, levels: Sequence[int],
                 stance_rows: np.ndarray | slice, end_rows: np.ndarray,
                 dropout_rng: Optional[np.random.Generator] = None,
                 cache: Optional[dict] = None) -> dict:
        """The LSTM stack top-down over a forest of nodes (as
        ``neural.lstm_tree_forward`` takes it), then each task's dense-ReLU
        stack, dropout (only given ``dropout_rng``) and softmax over its node
        rows: ``stance_rows`` for stance, ``end_rows`` for the thread tasks.
        Returns the head probabilities. Only given ``cache`` (as ``forward``
        makes it) are the layer and head caches of backward recorded into it;
        without it a layer's state is dropped when the next layer starts.
        The inputs are cast to the parameters' dtype, the logits to double."""
        H = x.astype(self.dtype, copy=False)
        for l in range(self.hp.num_lstm_layers):
            H, layer_cache = neural.lstm_tree_forward(self._layer(f"lstm{l}", _LSTM_KEYS), H,
                                                      parent, levels)
            if cache is not None:
                cache["lstm"].append(layer_cache)
            del layer_cache
        p = self.hp.dropout if dropout_rng is not None else 0.0
        outputs: dict = {}
        for task in self.tasks:
            rows = stance_rows if task in PER_STEP_TASKS else end_rows
            a, dense_caches = H[rows], []
            for i in range(self.hp.num_dense_layers):
                a, dc = neural.dense_forward(self._layer(f"{task}/dense{i}", _DENSE_KEYS), a)
                dense_caches.append(dc)
            a_drop, dmask = neural.dropout_forward(a, p, rng=dropout_rng)
            logits = a_drop @ self.params[f"{task}/out/W"] + self.params[f"{task}/out/b"]
            outputs[task] = neural.softmax(logits.astype(np.float64, copy=False), axis=-1)
            if cache is not None:
                cache["heads"][task] = dict(rows=rows, dense_caches=dense_caches, a_drop=a_drop,
                                            dropout_mask=dmask, probs=outputs[task])
        return outputs

    # -- loss ------------------------------------------------------------

    def batch_data_loss(self, batch: Sequence[TrainingInstance], probs: dict
                        ) -> tuple[float, dict]:
        """Batch-mean masked data loss and its gradient w.r.t. each head's
        logits, from the head probabilities of ``forward``'s cache."""
        return _masked_loss(batch, probs)

    def batch_loss(self, batch: Sequence[TrainingInstance],
                   dropout_rng: Optional[np.random.Generator] = None) -> float:
        """Forward-only batch-mean data loss (used by the finite-difference oracle)."""
        outputs, _ = self.forward(batch, dropout_rng=dropout_rng)
        return self.batch_data_loss(batch, outputs)[0]

    def loss_and_grads(self, batch: Sequence[TrainingInstance],
                       dropout_rng: Optional[np.random.Generator] = None
                       ) -> tuple[float, Params]:
        """Batch-mean data loss and its exact gradients for one mini-batch,
        in the parameters' dtype; ``train`` adds the L2 term."""
        outputs, cache = self.forward(batch, dropout_rng=dropout_rng)
        loss, dlogits = self.batch_data_loss(batch, outputs)
        dlogits = {task: d.astype(self.dtype, copy=False) for task, d in dlogits.items()}

        dH = np.zeros_like(cache["lstm"][-1]["h"][:-1])  # of the top layer's node states
        grads: Params = {}
        for task in self.tasks:
            head = cache["heads"][task]
            d_a_drop = dlogits[task] @ self.params[f"{task}/out/W"].T
            grads[f"{task}/out/W"] = head["a_drop"].T @ dlogits[task]
            grads[f"{task}/out/b"] = dlogits[task].sum(axis=0)
            d_a = neural.dropout_backward(d_a_drop, head["dropout_mask"])
            for i in reversed(range(self.hp.num_dense_layers)):
                d_a, layer_grads = neural.dense_backward(
                    self._layer(f"{task}/dense{i}", _DENSE_KEYS), head["dense_caches"][i], d_a)
                grads.update(_prefixed(f"{task}/dense{i}", layer_grads))
            # One head's rows are distinct nodes.
            dH[head["rows"]] += d_a
        d_up = dH
        for l in reversed(range(self.hp.num_lstm_layers)):
            # The first layer's inputs are data: no gradient w.r.t. them.
            d_up, layer_grads = neural.lstm_tree_backward(
                self._layer(f"lstm{l}", _LSTM_KEYS), cache["lstm"][l], d_up, input_grad=l > 0)
            grads.update(_prefixed(f"lstm{l}", layer_grads))
        return loss, grads

    # -- persistence -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        meta = {"hyperparams": asdict(self.hp), "tasks": list(self.tasks),
                "input_dim": self.input_dim, "seed": self.seed}
        neural.save_params(self.params, path, meta=meta)

    @classmethod
    def load(cls, path: str | Path) -> "MTLModel":
        params, meta = neural.load_params(path)
        hp = HyperParams(**meta["hyperparams"])
        model = cls(hp, meta["tasks"], meta["input_dim"], meta["seed"])
        for name in model.params:
            if name not in params:
                raise ValueError(f"checkpoint missing parameter block {name!r}")
            if params[name].shape != model.params[name].shape:
                raise ValueError(f"checkpoint shape mismatch in block {name!r}")
        for name in params:
            if name not in model.params:
                raise ValueError(f"checkpoint has unknown parameter block {name!r}")
        # Cast to the fresh model's dtype: a value beyond its range becomes
        # infinite there and is refused as a NaN is.
        with np.errstate(over="ignore"):
            model.params = {name: params[name].astype(p.dtype) for name, p in model.params.items()}
        for name, p in model.params.items():
            if not np.isfinite(p).all():
                raise ValueError(f"{path}: parameter block {name!r} has a value that is "
                                 f"not finite in {p.dtype}")
        return model


# ---------------------------------------------------------------------------
# Joint loss (data term; ``train`` adds L2)

def _head_labels(batch: Sequence[TrainingInstance], task: str
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gold class of each row of ``task``'s head (-1 where unlabeled) and
    the row's weight in the batch-mean loss.

    Thread tasks have one row per instance, stance one per valid step,
    instance after instance. An instance's n labeled rows weigh (1/n)/B
    each: 1/B for a thread label, a mean over its labeled steps for stance.
    """
    B = len(batch)
    if task in PER_STEP_TASKS:
        labels = np.concatenate([np.full(inst.true_length, -1) if inst.stance_labels is None
                                 else inst.stance_labels for inst in batch])
        owner = np.repeat(np.arange(B), [inst.true_length for inst in batch])
    else:
        labels = np.array([-1 if (y := getattr(inst, f"{task}_label")) is None else y
                           for inst in batch])
        owner = np.arange(B)
    live = labels >= 0
    n_labeled = np.bincount(owner, weights=live, minlength=B)
    weights = np.zeros(len(labels))
    weights[live] = (1.0 / n_labeled[owner[live]]) / B
    return labels, weights


def _masked_loss(batch: Sequence[TrainingInstance], probs: dict) -> tuple[float, dict]:
    """Batch-mean masked joint data loss and its gradient w.r.t. the logits.

    ``probs`` maps each task to its head's probability rows, laid out as
    ``_head_labels`` describes. Unlabeled rows add exactly zero to the loss
    and get zero gradient.
    """
    loss = 0.0
    dlogits = {}
    for task, p in probs.items():
        labels, weights = _head_labels(batch, task)
        rows = np.flatnonzero(labels >= 0)
        gold = labels[rows]
        loss += float(weights[rows] @ neural.cross_entropy(p[rows], gold))
        # d/dlogits of -log p[gold] through softmax, zero where the clip is
        # active (loss is locally constant there).
        active = p[rows, gold] > neural.PROB_CLIP
        rows, gold = rows[active], gold[active]
        g = p[rows]
        g[np.arange(len(rows)), gold] -= 1.0
        d = np.zeros_like(p)
        d[rows] = g * weights[rows, None]
        dlogits[task] = d
    return loss, dlogits


def joint_loss(outputs: dict, inst: TrainingInstance) -> float:
    """Summed masked loss for one instance given its forward outputs.

    ``outputs`` maps task name to probabilities, as ``instance_outputs``
    gives them: (K,) for detection and veracity, (true_length, K) rows for
    stance. Tasks whose label is absent contribute exactly zero.
    """
    probs = {task: p if task in PER_STEP_TASKS else p[None] for task, p in outputs.items()}
    return _masked_loss([inst], probs)[0]


def instance_outputs(model: MTLModel, inst: TrainingInstance) -> dict:
    """Eval-mode head rows of a single instance; a thread task's one row as a vector."""
    outputs, _ = model.forward([inst])
    return {t: p if t in PER_STEP_TASKS else p[0] for t, p in outputs.items()}


# ---------------------------------------------------------------------------
# Instance construction

def build_instances(corpus: Corpus, table: EmbeddingTable,
                    max_branch_len: int = DEFAULT_MAX_BRANCH_LEN,
                    pad_to: Optional[int] = None) -> list[TrainingInstance]:
    """``forest_instances`` of the corpus's ``Forest``. Nothing is padded;
    ``pad_to`` must not be shorter than the longest branch."""
    forest = build_forest(corpus.threads, table, max_branch_len)
    longest = max(map(len, forest.branches), default=0)
    if pad_to is not None and pad_to < longest:
        raise ValueError(f"pad_to {pad_to} is shorter than the longest branch ({longest} posts)")
    return forest_instances(forest)


def forest_instances(forest: Forest) -> list[TrainingInstance]:
    """Each branch of the forest as a training instance, which holds the
    forest's table and its rows; thread labels are replicated to each branch."""
    lengths = [len(branch) for branch in forest.branches]
    # Every branch's rows and stance labels, branch after branch.
    rows = np.array([ids[pid] for ids, span in zip(forest.rows, forest.spans)
                     for branch in forest.branches[span] for pid in branch.post_ids], dtype=np.intp)
    stance = np.array([-1 if (y := post.stance_label) is None else STANCE_CLASSES.index(y)
                       for post in forest.posts], dtype=np.int64)[rows]
    bounds = [0, *itertools.accumulate(lengths)]
    labelled = np.logical_or.reduceat(stance >= 0, bounds[:-1]).tolist()
    instances = []
    for thread, span in zip(forest.threads, forest.spans):
        det = None if (y := thread.detection_label) is None else DETECTION_CLASSES.index(y)
        ver = None if (y := thread.veracity_label) is None else VERACITY_CLASSES.index(y)
        for i in range(span.start, span.stop):
            steps = slice(bounds[i], bounds[i + 1])
            instances.append(TrainingInstance(
                x=forest.x, mask=None, true_length=lengths[i],
                stance_labels=stance[steps] if labelled[i] else None,
                detection_label=det, veracity_label=ver, thread_id=thread.id,
                event=thread.event, rows=rows[steps]))
    return instances


# ---------------------------------------------------------------------------
# Training

def train(model: MTLModel, instances: Sequence[TrainingInstance], seed: int,
          epochs: Optional[int] = None) -> list[float]:
    """Mini-batch training with the adaptive-moment optimizer.

    Shuffling, dropout and initialization all draw from named streams of
    the given seed, so identical (model, data, seed) reproduce identical
    parameters. A batch's objective is its data loss plus ``l2_penalty`` of
    the parameters before its step; returns the per-epoch mean objective
    history. The L2 gradient and the step run over ``neural.pack_slabs`` of
    ``model.params``, each element's arithmetic that of a block-wise step.
    """
    if not any(inst.veracity_label is not None for inst in instances):
        raise ValueError("training needs at least one veracity-labeled instance")
    hp = model.hp
    n_epochs = hp.epochs if epochs is None else epochs
    rng_shuffle = derive_rng(seed, "shuffle")
    rng_dropout = derive_rng(seed, "dropout")
    slabs, packed = neural.pack_slabs(model.params)
    slab_grads = {name: np.empty_like(slabs[name]) for name in packed}
    state = neural.optimizer_init(slabs, lr=hp.learning_rate)
    history = []
    n = len(instances)
    for epoch in range(n_epochs):
        perm = rng_shuffle.permutation(n)
        epoch_losses = []
        for start in range(0, n, hp.batch_size):
            batch = [instances[i] for i in perm[start:start + hp.batch_size]]
            loss, grads = model.loss_and_grads(batch, dropout_rng=rng_dropout)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {start // hp.batch_size}")
            loss += neural.l2_penalty(model.params, hp.l2)
            for name, blocks in packed.items():
                grads[name] = np.concatenate([grads.pop(b) for b in blocks], axis=None,
                                             out=slab_grads[name])
            neural.add_l2_grads(slabs, grads, hp.l2)
            neural.optimizer_step(slabs, grads, state)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return history


def branch_accuracy(model: MTLModel, instances: Sequence[TrainingInstance]) -> dict[str, float]:
    """Eval-mode accuracy per task over labeled branches (steps for stance)."""
    hits = dict.fromkeys(model.tasks, 0)
    totals = dict.fromkeys(model.tasks, 0)
    for start in range(0, len(instances), 256):
        batch = instances[start:start + 256]
        outputs, _ = model.forward(batch)
        for task, p in outputs.items():
            labels, _ = _head_labels(batch, task)
            live = labels >= 0
            hits[task] += int(np.sum(np.argmax(p[live], axis=1) == labels[live]))
            totals[task] += int(np.sum(live))
    return {t: (hits[t] / totals[t] if totals[t] else float("nan")) for t in model.tasks}


# ---------------------------------------------------------------------------
# Thread-level prediction

@dataclass(frozen=True)
class ThreadPrediction:
    thread_id: str
    event: str
    veracity: str
    veracity_probs: np.ndarray
    detection: Optional[str] = None
    detection_probs: Optional[np.ndarray] = None
    stance: Optional[tuple[tuple[str, str], ...]] = None  # (post id, predicted stance)

    def to_json_obj(self) -> dict:
        def head(pred, probs):
            return None if pred is None else {"pred": pred, "probs": [float(p) for p in probs]}
        return {"thread": self.thread_id, "event": self.event,
                "veracity": head(self.veracity, self.veracity_probs),
                "detection": head(self.detection, self.detection_probs),
                "stance": None if self.stance is None else [
                    {"post": pid, "pred": s} for pid, s in self.stance]}


def _majority_vote(branch_probs: np.ndarray, classes: Sequence[str]) -> tuple[str, np.ndarray]:
    """Majority over branch argmaxes; ties break by summed class probability,
    then by class order (alphabetical for every task's class set)."""
    votes = np.argmax(branch_probs, axis=1)
    counts = np.bincount(votes, minlength=len(classes))
    tied = np.nonzero(counts == counts.max())[0]
    summed = branch_probs.sum(axis=0)
    best = summed[tied].max()
    winner = int(min(c for c in tied if summed[c] >= best - 1e-15))
    return classes[winner], summed / len(branch_probs)


@dataclass(frozen=True)
class Forest:
    """The reply trees of several threads as one node table.

    A node is a (thread, post) pair that some branch of ``decompose_branches``
    reaches. Rows are nodes sorted by depth, so the nodes of depth k are the
    rows ``levels[k]:levels[k + 1]`` and every parent lies in the level
    before its child, as ``neural.lstm_tree_forward`` takes them.
    ``forest_instances``' instances refer to the same rows.
    """

    x: np.ndarray                       # (N, dim) float32: each node's post, embedded once
    posts: tuple[Post, ...]             # (N,): each node's post
    parent: np.ndarray                  # (N,): the parent's row, -1 at a root
    levels: list[int]
    branches: tuple[Branch, ...]        # every branch, thread after thread
    ends: np.ndarray                    # end row of each of ``branches``
    rows: tuple[dict[str, int], ...]    # per thread: post id -> row
    spans: tuple[slice, ...]            # per thread: its slice of ``branches`` and ``ends``
    threads: tuple[Thread, ...]

    def select(self, keep: Sequence[int]) -> Forest:
        """The ``Forest`` of the threads at the ascending indices ``keep``,
        equal to ``build_forest`` of them: the stable depth sort keeps each
        level's rows in thread order, so the kept rows keep theirs."""
        taken = np.zeros(len(self.posts), dtype=bool)
        for k in keep:
            taken[list(self.rows[k].values())] = True
        old = np.flatnonzero(taken)
        rank = np.append(np.cumsum(taken) - 1, -1)  # rank[-1] = -1 keeps a root's parent at -1
        depth = np.repeat(np.arange(len(self.levels) - 1), np.diff(self.levels))
        spans = [self.spans[k] for k in keep]
        branch_ids = [i for span in spans for i in range(span.start, span.stop)]
        starts = [0, *itertools.accumulate(span.stop - span.start for span in spans)]
        return Forest(
            x=self.x[old],
            posts=tuple(self.posts[r] for r in old.tolist()),
            parent=rank[self.parent[old]],
            levels=[0, *itertools.accumulate(np.bincount(depth[old]).tolist())],
            branches=tuple(self.branches[i] for i in branch_ids),
            ends=rank[self.ends[branch_ids]],
            rows=tuple({pid: int(rank[r]) for pid, r in self.rows[k].items()} for k in keep),
            spans=tuple(map(slice, starts, starts[1:])),
            threads=tuple(self.threads[k] for k in keep),
        )


def build_forest(threads: Sequence[Thread], table: EmbeddingTable,
                 max_branch_len: int = DEFAULT_MAX_BRANCH_LEN) -> Forest:
    """The ``Forest`` of ``threads``' branches cut to ``max_branch_len``."""
    depth: list[int] = []
    parent: list[int] = []
    posts: list[Post] = []              # per node
    branches: list[Branch] = []
    ends: list[int] = []
    spans: list[slice] = []
    found: list[dict[str, int]] = []    # per thread: post id -> node, in order found
    for thread in threads:
        post_of = {p.id: p for p in thread.posts}
        nodes: dict[str, int] = {}
        thread_branches = decompose_branches(thread, max_len=max_branch_len)
        for branch in thread_branches:
            up = -1
            for t, pid in enumerate(branch.post_ids):
                node = nodes.get(pid)
                if node is None:
                    node = nodes[pid] = len(depth)
                    depth.append(t)
                    parent.append(up)
                    posts.append(post_of[pid])
                up = node
            ends.append(up)
        spans.append(slice(len(branches), len(branches) + len(thread_branches)))
        branches += thread_branches
        found.append(nodes)
    # A stable sort by depth; rank[node] is the node's row, and rank[-1] = -1
    # keeps a root's parent at -1.
    order = np.argsort(depth, kind="stable")
    rank = np.empty(len(order) + 1, dtype=np.intp)
    rank[order] = np.arange(len(order))
    rank[-1] = -1
    row_of = rank.tolist()
    row_posts = tuple(posts[n] for n in order.tolist())
    return Forest(
        x=embed_tweets([preprocess(post.text) for post in row_posts], table),
        posts=row_posts,
        parent=rank[np.asarray(parent, dtype=np.intp)[order]],
        levels=[0, *itertools.accumulate(np.bincount(depth).tolist())],
        branches=tuple(branches),
        ends=rank[ends],
        rows=tuple({pid: row_of[n] for pid, n in nodes.items()} for nodes in found),
        spans=tuple(spans),
        threads=tuple(threads),
    )


def predict_threads(model: MTLModel, forest: Forest) -> list[ThreadPrediction]:
    """Predict thread-level classes by majority vote over each thread's
    branches, and per-tweet stance, in one top-down pass over the forest.

    Each node goes through the LSTM once, one depth level of every thread at
    a time, so a post that several branches share is computed once. Stance
    reads every node; veracity and detection read each branch's end node,
    so a truncated branch that appears twice keeps both votes. No backward
    cache is kept: one layer's state is held at a time.
    """
    outputs = model._forward(forest.x, forest.parent, forest.levels, slice(None), forest.ends)
    if not math.isfinite(sum(p.sum() for p in outputs.values())):
        # Name the first thread with a non-finite row in any head: stance
        # rows are its nodes, the other heads' rows its branches.
        for thread, rows, span in zip(forest.threads, forest.rows, forest.spans):
            if not all(np.isfinite(p[list(rows.values()) if task in PER_STEP_TASKS else span]).all()
                       for task, p in outputs.items()):
                raise FloatingPointError(f"thread {thread.id}: non-finite model output")

    stance_of = None  # per row
    if "stance" in model.tasks:
        stance_of = [STANCE_CLASSES[v] for v in np.argmax(outputs["stance"], axis=1).tolist()]
    predictions = []
    for thread, rows, span in zip(forest.threads, forest.rows, forest.spans):
        veracity, v_probs = _majority_vote(outputs["veracity"][span], VERACITY_CLASSES)
        detection = d_probs = None
        if "detection" in model.tasks:
            detection, d_probs = _majority_vote(outputs["detection"][span], DETECTION_CLASSES)
        stance = None
        if stance_of is not None:
            stance = tuple(sorted((pid, stance_of[row]) for pid, row in rows.items()))
        predictions.append(ThreadPrediction(
            thread_id=thread.id,
            event=thread.event,
            veracity=veracity,
            veracity_probs=v_probs,
            detection=detection,
            detection_probs=d_probs,
            stance=stance,
        ))
    return predictions


def predict_thread(model: MTLModel, thread: Thread, table: EmbeddingTable,
                   max_branch_len: int = DEFAULT_MAX_BRANCH_LEN) -> ThreadPrediction:
    """``predict_threads`` of one thread's ``Forest``."""
    return predict_threads(model, build_forest([thread], table, max_branch_len))[0]


def dump_predictions(predictions: Sequence[ThreadPrediction], path: str | Path,
                     model_name: Optional[str] = None) -> None:
    """Write newline-delimited JSON predictions."""
    extra = {} if model_name is None else {"model": model_name}
    write_ndjson(path, [{**pred.to_json_obj(), **extra} for pred in predictions])


# ---------------------------------------------------------------------------
# Gradient checking at miniature sizes

def check_gradients(hp: HyperParams, tasks: Iterable[str], input_dim: int, seed: int,
                    with_dropout: bool = False, eps: float = 1e-5) -> dict[str, float]:
    """Finite-difference check of the analytic gradients of data loss plus L2.

    Builds a miniature model, two random labeled instances of up to three
    steps (the second with its stance and detection labels left out, to
    exercise the masking), and compares against central differences. With
    dropout, the analytic call and every finite-difference evaluation get
    their own fresh ``gradcheck-drop`` stream, which draws the same masks,
    so both sides compute the same function.

    The model runs in double precision. All parameters get a small random
    jitter first. Zero-initialized biases can leave ReLU pre-activations
    exactly at the kink, where central differences disagree with any
    subgradient choice.
    """
    model = MTLModel(hp, tasks, input_dim, seed)
    model.params = {name: p.astype(np.float64) for name, p in model.params.items()}
    jitter_rng = derive_rng(seed, "gradcheck-jitter")
    for p in model.params.values():
        p += 0.05 * jitter_rng.standard_normal(p.shape)
    rng = derive_rng(seed, "gradcheck-data")
    steps = 3
    batch = []
    for i in range(2):
        length = int(rng.integers(1, steps + 1)) if i > 0 else steps
        drop_task = i == 1
        batch.append(TrainingInstance(
            x=rng.standard_normal((length, input_dim)), mask=None, true_length=length,
            stance_labels=(None if drop_task else
                           rng.integers(0, len(STANCE_CLASSES), size=length)),
            detection_label=None if drop_task else int(rng.integers(0, 2)),
            veracity_label=int(rng.integers(0, 3)),
            thread_id=f"gc{i}", event="gc",
        ))
    _, analytic = model.loss_and_grads(
        batch, dropout_rng=derive_rng(seed, "gradcheck-drop") if with_dropout else None)
    neural.add_l2_grads(model.params, analytic, hp.l2)

    def loss_fn(params: Params) -> float:
        model.params = params
        drop_rng = derive_rng(seed, "gradcheck-drop") if with_dropout else None
        return model.batch_loss(batch, dropout_rng=drop_rng) + neural.l2_penalty(params, hp.l2)

    return neural.grad_check(loss_fn, model.params, analytic, eps=eps)
