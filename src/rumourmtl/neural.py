"""Minimal differentiable core for the branch models.

One LSTM recurrence (a top-down pass over a forest of nodes; ``chains``
makes a masked branch batch one) and dense-ReLU layers, each with
hand-written reverse-mode gradients; softmax/cross-entropy, inverted
dropout, L2 regularization, an adaptive-moment optimizer, slabs that pack
runs of small parameter blocks into one buffer for it, and
finite-difference gradient checking. Every layer, its backward and the
optimizer compute in the dtype of their inputs (the model's parameters are
single precision; the gradient checks run in double); parameter sets are
flat ``{name: array}`` dicts so optimizer state, checkpoints and gradient
reports share one naming scheme.

LSTM gate packing along the last axis is [input, forget, output, candidate].
Training and prediction share one model forward over node rows; the
padded (B, T, h) layer API ``lstm_forward``/``lstm_backward`` is kept for
the tests and the bench tracer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from rumourmtl.artifacts import atomic_write

Params = dict[str, np.ndarray]

CHECKPOINT_FORMAT = "rumourmtl-checkpoint"
CHECKPOINT_VERSION = 1

#: Probabilities are clipped here inside cross-entropy, bounding the loss.
PROB_CLIP = 1e-12


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; ``exp`` only ever sees ``-|x|``, so it cannot
    overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax; safe for large logits."""
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def cross_entropy(probs: np.ndarray, gold: int | np.ndarray) -> float | np.ndarray:
    """-log p[gold] with probability clipping, row by row: ``probs`` is
    (..., K) and ``gold`` one class index per row."""
    gold = np.asarray(gold)
    if np.any((gold < 0) | (gold >= probs.shape[-1])):
        raise IndexError(f"gold class {gold} out of range for {probs.shape[-1]} classes")
    picked = np.take_along_axis(probs, gold[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, PROB_CLIP))


# ---------------------------------------------------------------------------
# Initialization

def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Optional[tuple[int, ...]] = None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def init_lstm_layer(rng: np.random.Generator, input_dim: int, hidden: int) -> Params:
    """Gate-packed LSTM weights; forget-gate bias starts at 1."""
    b = np.zeros(4 * hidden)
    b[hidden:2 * hidden] = 1.0
    return {
        "Wx": glorot_uniform(rng, input_dim, hidden, (input_dim, 4 * hidden)),
        "Wh": glorot_uniform(rng, hidden, hidden, (hidden, 4 * hidden)),
        "b": b,
    }


def init_dense_layer(rng: np.random.Generator, in_dim: int, out_dim: int) -> Params:
    return {
        "W": glorot_uniform(rng, in_dim, out_dim),
        "b": np.zeros(out_dim),
    }


# ---------------------------------------------------------------------------
# LSTM layer

def chains(mask: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray,
                                      np.ndarray, np.ndarray]:
    """A masked batch (B, T) as a forest for ``lstm_tree_forward``: the live
    cells ``(rows, steps)``, step by step, are the nodes, each the child of
    the last live cell before it in its row. Returns the cells, parents and
    level bounds, and ``last``: ``last[b, t]`` is the node of row b's last
    live cell up to step t (-1, the zero state, before the first)."""
    B, T = mask.shape
    steps, rows = np.nonzero(mask.T)
    node = np.full((B, T), -1)
    node[rows, steps] = np.arange(len(rows))
    last = np.maximum.accumulate(node, axis=1)
    parent = np.where(steps > 0, last[rows, steps - 1], -1)
    return (rows, steps), parent, np.searchsorted(steps, np.arange(T + 1)), last


def lstm_forward(params: Params, x: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, dict]:
    """Run the LSTM over a batch: ``x`` is (B, T, d), ``mask`` (B, T)
    boolean. Returns hidden states (B, T, h) and the backward cache. A
    masked step repeats the state of the last live cell before it
    (``chains``), so padding never influences the outputs and is not
    computed."""
    cells, parent, levels, last = chains(mask)
    _, tree = lstm_tree_forward(params, x[cells], parent, levels)
    return tree["h"][last], {"tree": tree, "cells": cells, "last": last}


def lstm_tree_forward(params: Params, x: np.ndarray, parent: np.ndarray,
                      levels: Sequence[int]) -> tuple[np.ndarray, dict]:
    """Run the LSTM top-down over a forest of nodes; returns their hidden
    states (N, h) and the cache for ``lstm_tree_backward``.

    ``x`` is (N, d), one row per node, sorted by depth: the nodes of depth
    k are the rows ``levels[k]:levels[k + 1]``, and ``parent[n]`` is node
    n's parent row, -1 for a root. Each level is one step, computed in place
    in the cache's arrays, and each node once however many branches share it.
    """
    n, d = x.shape
    h_dim = params["Wh"].shape[0]
    if params["Wx"].shape[0] != d:
        raise ValueError(f"input dim {d} does not match Wx {params['Wx'].shape}")
    xw = x @ params["Wx"]
    # The extra last row stays zero: the state a root gathers through -1.
    h, c = np.zeros((2, n + 1, h_dim), xw.dtype)
    ifo = np.empty((n, 3 * h_dim), xw.dtype)
    g, tanh_c = np.empty((2, n, h_dim), xw.dtype)
    for start, stop in zip(levels[:-1], levels[1:]):
        s, up = slice(start, stop), parent[start:stop]
        z = h[up] @ params["Wh"]
        z += xw[s]
        z += params["b"]
        ifo[s] = sigmoid(z[:, :3 * h_dim])
        np.tanh(z[:, 3 * h_dim:], out=g[s])
        c[s] = ifo[s, h_dim:2 * h_dim] * c[up] + ifo[s, :h_dim] * g[s]
        np.tanh(c[s], out=tanh_c[s])
        np.multiply(ifo[s, 2 * h_dim:], tanh_c[s], out=h[s])
    return h[:-1], {"x": x, "parent": parent, "levels": levels, "h": h, "c": c,
                    "ifo": ifo, "g": g, "tanh_c": tanh_c}


def lstm_tree_backward(params: Params, cache: dict, d_h: np.ndarray, input_grad: bool = True
                       ) -> tuple[Optional[np.ndarray], Params]:
    """Backprop through ``lstm_tree_forward`` given gradients w.r.t. every
    node's hidden state (N, h). Returns gradients w.r.t. the inputs (None
    when ``input_grad`` is false, as for a first layer whose inputs are
    data) and the parameters.

    The levels run in reverse, each adding its nodes' ``dh`` and ``dc`` into
    their parents' rows (row N, the zero state of the roots, is dropped) and
    keeping their gate gradients ``dz``: ``Wx``, ``Wh``, ``b`` and ``dx`` are
    then one GEMM or sum each over all the nodes.
    """
    n, h_dim = d_h.shape
    parent, levels, c, ifo, g, tanh_c = (
        cache[k] for k in ("parent", "levels", "c", "ifo", "g", "tanh_c"))
    dh = np.vstack([d_h, np.zeros((1, h_dim), d_h.dtype)])
    dc = np.zeros((n + 1, h_dim), d_h.dtype)
    dz = np.empty((n, 4 * h_dim), d_h.dtype)
    # Flat views with element indices scatter faster; a root's parent -1 is row N.
    up_rows, cols = np.where(parent < 0, n, parent), np.arange(h_dim)
    dh_flat, dc_flat = dh.reshape(-1), dc.reshape(-1)
    for start, stop in reversed(list(zip(levels[:-1], levels[1:]))):
        s, up = slice(start, stop), up_rows[start:stop]
        dc_s = dc[s] + dh[s] * ifo[s, 2 * h_dim:] * (1.0 - tanh_c[s] ** 2)
        dz_s = dz[s]
        # d(i, f, o) through the packed sigmoid, then d(g) through tanh.
        dz_s[:, :h_dim] = dc_s * g[s]
        dz_s[:, h_dim:2 * h_dim] = dc_s * c[up]
        dz_s[:, 2 * h_dim:3 * h_dim] = dh[s] * tanh_c[s]
        dz_s[:, :3 * h_dim] *= ifo[s]
        dz_s[:, :3 * h_dim] *= 1.0 - ifo[s]
        dz_s[:, 3 * h_dim:] = dc_s * ifo[s, :h_dim] * (1.0 - g[s] ** 2)
        at = (up[:, None] * h_dim + cols).ravel()
        np.add.at(dh_flat, at, (dz_s @ params["Wh"].T).ravel())
        np.add.at(dc_flat, at, (dc_s * ifo[s, h_dim:2 * h_dim]).ravel())
    grads = {"Wx": cache["x"].T @ dz, "Wh": cache["h"][parent].T @ dz, "b": dz.sum(axis=0)}
    if not input_grad:
        return None, grads
    return dz @ params["Wx"].T, grads


def lstm_backward(params: Params, cache: dict, d_hs: np.ndarray, input_grad: bool = True
                  ) -> tuple[Optional[np.ndarray], Params]:
    """Backprop through ``lstm_forward`` given gradients w.r.t. all hidden
    states (B, T, h). Returns gradients w.r.t. the inputs (None when
    ``input_grad`` is false) and the parameters.

    Each cell's gradient goes to the node whose state it shows (a masked
    cell's to the live cell it repeats), and each node's ``dx`` to its cell.
    """
    rows, steps = cache["cells"]
    d_h = np.zeros((len(rows) + 1, d_hs.shape[2]), d_hs.dtype)
    np.add.at(d_h, cache["last"], d_hs)
    dx_nodes, grads = lstm_tree_backward(params, cache["tree"], d_h[:-1], input_grad)
    if dx_nodes is None:
        return None, grads
    dx = np.zeros(d_hs.shape[:2] + (params["Wx"].shape[0],), dx_nodes.dtype)
    dx[rows, steps] = dx_nodes
    return dx, grads


# ---------------------------------------------------------------------------
# Dense-ReLU stack

def dense_forward(params: Params, x: np.ndarray) -> tuple[np.ndarray, dict]:
    z = x @ params["W"] + params["b"]
    return relu(z), {"x": x, "z": z}


def dense_backward(params: Params, cache: dict, d_out: np.ndarray
                   ) -> tuple[np.ndarray, Params]:
    dz = d_out * (cache["z"] > 0)
    grads = {"W": cache["x"].T @ dz, "b": dz.sum(axis=0)}
    return dz @ params["W"].T, grads


# ---------------------------------------------------------------------------
# Dropout (inverted scaling; the mask is recorded so backward matches forward)

def dropout_forward(x: np.ndarray, p: float, rng: Optional[np.random.Generator] = None
                    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    if p <= 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout needs an rng")
    # The draws are double; the mask takes x's dtype, so it promotes nothing.
    mask = ((rng.random(x.shape) >= p) / (1.0 - p)).astype(x.dtype, copy=False)
    return x * mask, mask


def dropout_backward(d_out: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    return d_out if mask is None else d_out * mask


# ---------------------------------------------------------------------------
# L2 regularization: the penalty lam * sum(p**2) and its gradient 2 * lam * p

def l2_penalty(params: Params, lam: float) -> float:
    return lam * sum(float(np.sum(v * v)) for v in params.values())


def add_l2_grads(params: Params, grads: Params, lam: float) -> None:
    """Add the L2 gradient into ``grads`` in place; a block missing from
    ``grads`` gets the L2 term alone."""
    for name, v in params.items():
        l2 = 2.0 * lam * v
        if name in grads:
            grads[name] += l2
        else:
            grads[name] = l2


# ---------------------------------------------------------------------------
# Adaptive-moment optimizer

#: Moment decay rates and denominator offset of the adaptive-moment update.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Bias-corrected first/second moment accumulators per parameter block or slab."""

    lr: float = 1e-3
    t: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)


def optimizer_init(params: Params, lr: float = 1e-3) -> OptimizerState:
    return OptimizerState(lr=lr, m={name: np.zeros_like(p) for name, p in params.items()},
                          v={name: np.zeros_like(p) for name, p in params.items()})


def optimizer_step(params: Params, grads: Params, state: OptimizerState) -> None:
    """One in-place adaptive-moment (Adam, Kingma & Ba 2015) update of the
    parameters by ``grads``.

    Every gradient is checked before anything is written. Then, block by
    block, ``m``, ``v`` and the parameters are updated in place; elementwise,
    the arithmetic is the textbook update's, in its order.
    """
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise FloatingPointError(f"non-finite gradient in parameter block {name!r}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        tmp = (1.0 - b1) * g
        m *= b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = m / bc1
        step *= state.lr
        step /= tmp
        p -= step


#: A parameter block of at least this many elements is a slab of its own.
SLAB = 65536


def pack_slabs(params: Params) -> tuple[Params, dict[str, list[str]]]:
    """The parameters as slabs, which ``add_l2_grads`` and ``optimizer_step``
    update in a few numpy calls where each block would take its own.

    Runs of consecutive blocks are cut before they would reach ``SLAB``
    elements. A run of several blocks is copied into one new 1-D buffer, and
    its blocks in ``params`` (the dict itself) are rebound to views of it,
    with their names, shapes and values; any other block is its own slab, in
    place. Returns the slabs by name, a packed one's ``first..last``, and
    each packed slab's blocks, in the order their gradients concatenate.
    """
    runs: list[list[str]] = []
    fill = SLAB  # elements in the last run; SLAB or more closes it
    for name, p in params.items():
        if fill + p.size < SLAB:
            runs[-1].append(name)
        else:
            runs.append([name])
            fill = 0
        fill += p.size
    slabs: Params = {}
    packed: dict[str, list[str]] = {}
    for run in runs:
        if len(run) == 1:
            slabs[run[0]] = params[run[0]]
            continue
        name = f"{run[0]}..{run[-1]}"
        slabs[name] = buf = np.concatenate([params[b] for b in run], axis=None)
        packed[name] = run
        for b, view in zip(run, np.split(buf, np.cumsum([params[b].size for b in run[:-1]]))):
            params[b] = view.reshape(params[b].shape)
    return slabs, packed


# ---------------------------------------------------------------------------
# Gradient checking

def finite_difference_grads(loss_fn: Callable[[Params], float], params: Params,
                            eps: float = 1e-5) -> Params:
    """Central finite differences of ``loss_fn`` w.r.t. every entry."""
    numeric: Params = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for idx in range(flat_p.size):
            orig = flat_p[idx]
            flat_p[idx] = orig + eps
            hi = loss_fn(params)
            flat_p[idx] = orig - eps
            lo = loss_fn(params)
            flat_p[idx] = orig
            flat_g[idx] = (hi - lo) / (2.0 * eps)
        numeric[name] = g
    return numeric


def grad_check(loss_fn: Callable[[Params], float], params: Params,
               analytic: Params, eps: float = 1e-5) -> dict[str, float]:
    """Relative error per parameter block between analytic gradients and a
    central finite-difference oracle: ||ga - gn|| / (||ga|| + ||gn|| + tiny)."""
    numeric = finite_difference_grads(loss_fn, params, eps=eps)
    report = {}
    for name in params:
        ga, gn = analytic[name], numeric[name]
        denom = np.linalg.norm(ga) + np.linalg.norm(gn) + 1e-12
        report[name] = float(np.linalg.norm(ga - gn) / denom)
    return report


# ---------------------------------------------------------------------------
# Checkpoints (JSON container; Python float repr round-trips doubles, and so
# float32 values, exactly)

def save_params(params: Params, path: str | Path, meta: Optional[dict] = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "params": {
            name: {"shape": list(p.shape), "data": p.ravel().tolist()}
            for name, p in sorted(params.items())
        },
    }
    atomic_write(path, json.dumps(payload, sort_keys=True))


def load_params(path: str | Path) -> tuple[Params, dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    blocks = payload.get("params")
    if not isinstance(blocks, dict) or not all(isinstance(e, dict) for e in blocks.values()):
        raise ValueError(f"{path}: 'params' must map block names to objects")
    return {name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
            for name, entry in blocks.items()}, payload["meta"]
