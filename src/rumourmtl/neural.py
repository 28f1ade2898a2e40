"""Minimal differentiable core for the branch models.

Batched LSTM and dense-ReLU layers with hand-written reverse-mode
gradients, softmax/cross-entropy, inverted dropout, L2 regularization, an
adaptive-moment optimizer and finite-difference gradient checking. All
arithmetic is double precision; parameter sets are flat ``{name: array}``
dicts so optimizer state, checkpoints and gradient reports share one
naming scheme.

LSTM gate packing along the last axis is [input, forget, output, candidate].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

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
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


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
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


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

def lstm_forward(params: Params, x: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, list[dict]]:
    """Run the LSTM recurrence over a batch.

    ``x`` is (B, T, d), ``mask`` is (B, T) boolean. At masked steps the
    cell and hidden state carry through unchanged, so padding never
    influences the outputs. Returns hidden states (B, T, h) and the cache
    needed for the backward pass.

    The input projection ``x @ Wx`` does not depend on the recurrence, so
    it is one (B*T, d) GEMM ahead of the loop.
    """
    B, T, d = x.shape
    h_dim = params["Wh"].shape[0]
    if params["Wx"].shape[0] != d:
        raise ValueError(f"input dim {d} does not match Wx {params['Wx'].shape}")
    xw = (x.reshape(B * T, d) @ params["Wx"]).reshape(B, T, 4 * h_dim)
    h = np.zeros((B, h_dim))
    c = np.zeros((B, h_dim))
    hs = np.empty((B, T, h_dim))
    cache = []
    for t in range(T):
        z = xw[:, t] + h @ params["Wh"] + params["b"]
        ifo = sigmoid(z[:, :3 * h_dim])
        i, f, o = ifo[:, :h_dim], ifo[:, h_dim:2 * h_dim], ifo[:, 2 * h_dim:]
        g = np.tanh(z[:, 3 * h_dim:])
        c_hat = f * c + i * g
        tanh_c = np.tanh(c_hat)
        h_hat = o * tanh_c
        m = mask[:, t].astype(float)[:, None]
        cache.append({"x": x[:, t], "h_prev": h, "c_prev": c, "ifo": ifo, "g": g,
                      "tanh_c": tanh_c, "m": m})
        c = m * c_hat + (1.0 - m) * c
        h = m * h_hat + (1.0 - m) * h
        hs[:, t, :] = h
    return hs, cache


def lstm_backward(params: Params, cache: list[dict], d_hs: np.ndarray
                  ) -> tuple[np.ndarray, Params]:
    """Backprop through ``lstm_forward`` given gradients w.r.t. all hidden
    states. Returns gradients w.r.t. the inputs and the parameters.

    Each step's gate gradient ``dz`` is kept, so ``dx`` is one GEMM after
    the loop. The weight gradients still accumulate step by step: one
    (B*T)-row GEMM for ``Wx`` sums in another order and moves the trained
    parameters in the last bits.
    """
    B, T, h_dim = d_hs.shape
    d = params["Wx"].shape[0]
    grads = {"Wx": np.zeros_like(params["Wx"]),
             "Wh": np.zeros_like(params["Wh"]),
             "b": np.zeros_like(params["b"])}
    dz_all = np.empty((B, T, 4 * h_dim))
    dh = np.zeros((B, h_dim))
    dc = np.zeros((B, h_dim))
    for t in reversed(range(T)):
        step = cache[t]
        m, ifo, g, tanh_c = step["m"], step["ifo"], step["g"], step["tanh_c"]
        dh = dh + d_hs[:, t, :]
        dh_hat = m * dh
        dc_carry = (1.0 - m) * dc
        dh_carry = (1.0 - m) * dh
        dc_hat = m * dc + dh_hat * ifo[:, 2 * h_dim:] * (1.0 - tanh_c ** 2)
        dc = dc_hat * ifo[:, h_dim:2 * h_dim] + dc_carry
        dz = dz_all[:, t]
        # d(i, f, o) through the packed sigmoid, then d(g) through tanh.
        dz[:, :h_dim] = dc_hat * g
        dz[:, h_dim:2 * h_dim] = dc_hat * step["c_prev"]
        dz[:, 2 * h_dim:3 * h_dim] = dh_hat * tanh_c
        dz[:, :3 * h_dim] *= ifo
        dz[:, :3 * h_dim] *= 1.0 - ifo
        dz[:, 3 * h_dim:] = dc_hat * ifo[:, :h_dim] * (1.0 - g ** 2)
        grads["Wx"] += step["x"].T @ dz
        grads["Wh"] += step["h_prev"].T @ dz
        grads["b"] += dz.sum(axis=0)
        dh = dz @ params["Wh"].T + dh_carry
    dx = (dz_all.reshape(B * T, 4 * h_dim) @ params["Wx"].T).reshape(B, T, d)
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
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(d_out: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    if mask is None:
        return d_out
    return d_out * mask


# ---------------------------------------------------------------------------
# L2 regularization over the full parameter set

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
    """Bias-corrected first/second moment accumulators per parameter block."""

    lr: float = 1e-3
    t: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)


def optimizer_init(params: Params, lr: float = 1e-3) -> OptimizerState:
    state = OptimizerState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros(p.shape)
        state.v[name] = np.zeros(p.shape)
    return state


#: Elements per slab of the in-place update, so its temporaries stay in cache.
OPTIMIZER_BLOCK = 1 << 14


def optimizer_step(params: Params, grads: Params, state: OptimizerState) -> Params:
    """One in-place adaptive-moment update; returns ``params``.

    Every gradient is checked before anything is written. ``m``, ``v`` and
    the parameters are then updated in place, a slab of leading-axis rows
    at a time. A basic slice is a view whatever the block's layout, so the
    writes reach the caller's arrays even when a block is not C-contiguous.
    Elementwise, the arithmetic is the textbook update's, in its order.
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
        rows = max(1, OPTIMIZER_BLOCK * len(p) // max(p.size, 1))
        for r in range(0, len(p), rows):
            pr, gr, mr, vr = (a[r:r + rows] for a in (p, g, m, v))
            tmp = (1.0 - b1) * gr
            mr *= b1
            mr += tmp
            np.multiply(gr, gr, out=tmp)
            tmp *= 1.0 - b2
            vr *= b2
            vr += tmp
            np.divide(vr, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            step = mr / bc1
            step *= state.lr
            step /= tmp
            pr -= step
    return params


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
# Checkpoints (JSON container; Python float repr round-trips doubles exactly)

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
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    params = {
        name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    return params, payload["meta"]
