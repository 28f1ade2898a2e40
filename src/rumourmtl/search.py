"""Hyperparameter search over a discrete space with Tree-of-Parzen-Estimators.

On a fully discrete space the Parzen densities reduce to smoothed
categorical distributions. Trials below the good-fraction quantile define
the "good" density l, the rest the "bad" density g; candidates are sampled
from l and ranked by the ratio l/g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from rumourmtl.artifacts import write_ndjson


@dataclass(frozen=True)
class SearchSpace:
    """Ordered named discrete dimensions."""

    dimensions: tuple[tuple[str, tuple, ...], ...]

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("search space has no dimensions")
        for name, values in self.dimensions:
            if not values:
                raise ValueError(f"dimension {name!r} is empty")

    @classmethod
    def from_dict(cls, dims: Mapping[str, Sequence]) -> "SearchSpace":
        return cls(tuple((name, tuple(values)) for name, values in dims.items()))

    def contains(self, config: Mapping) -> bool:
        return all(config.get(name) in values for name, values in self.dimensions)


def default_space() -> SearchSpace:
    """The model's hyperparameter grid: 4 * 2 * 4 * 3 * 2 = 192 points."""
    return SearchSpace.from_dict({
        "num_dense_layers": (1, 2, 3, 4),
        "num_lstm_layers": (1, 2),
        "dense_width": (300, 400, 500, 600),
        "lstm_width": (100, 200, 300),
        "l2": (1e-4, 1e-3),
    })


#: Good-fraction quantile: the best quarter of scored trials defines l.
TPE_GAMMA = 0.25
#: Uniform random trials before the densities are modelled.
TPE_STARTUP = 10
#: Candidates sampled from l per suggestion.
TPE_CANDIDATES = 24
#: Uniform smoothing mass per dimension.
TPE_PRIOR_WEIGHT = 1.0


@dataclass(frozen=True)
class TPEConfig:
    objective_mode: str = "product"  # "product" of (1 - macroF), or "accuracy"

    def __post_init__(self) -> None:
        if self.objective_mode not in ("product", "accuracy"):
            raise ValueError(f"unknown objective_mode {self.objective_mode!r}")


@dataclass(frozen=True)
class Trial:
    number: int
    config: dict
    objective: float
    macro_f: dict
    dev_accuracy: Optional[float]
    seed: int
    status: str = "ok"

    def to_json_obj(self) -> dict:
        return {
            "trial": self.number,
            "config": self.config,
            "objective": self.objective if math.isfinite(self.objective) else None,
            "macro_f": self.macro_f,
            "dev_accuracy": self.dev_accuracy,
            "seed": self.seed,
            "status": self.status,
        }


def objective(macro_f_per_task: Mapping[str, float]) -> float:
    """Product of (1 - macro F) over the active tasks; lower is better."""
    if not macro_f_per_task:
        raise ValueError("no task scores given")
    result = 1.0
    for task, score in macro_f_per_task.items():
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"macro F for {task!r} outside [0, 1]: {score}")
        result *= 1.0 - score
    return result


def _smoothed_density(values: Sequence, observed: Sequence) -> np.ndarray:
    counts = np.array([sum(1 for o in observed if o == v) for v in values], dtype=float)
    counts += TPE_PRIOR_WEIGHT / len(values)
    return counts / counts.sum()


def tpe_suggest(history: Sequence[Trial], space: SearchSpace, rng: np.random.Generator) -> dict:
    """Suggest the next configuration.

    Below ``TPE_STARTUP`` evaluated trials the suggestion is uniform random.
    Afterwards candidates are drawn per dimension from the good density and
    ranked by the product of per-dimension l/g ratios.
    """
    scored = [t for t in history if t.status == "ok" and math.isfinite(t.objective)]
    if len(scored) < TPE_STARTUP:
        return {name: values[rng.integers(len(values))]
                for name, values in space.dimensions}
    ordered = sorted(scored, key=lambda t: (t.objective, t.number))
    n_good = max(1, math.ceil(TPE_GAMMA * len(ordered)))
    good, bad = ordered[:n_good], ordered[n_good:]
    densities = []
    for name, values in space.dimensions:
        l = _smoothed_density(values, [t.config[name] for t in good])
        g = _smoothed_density(values, [t.config[name] for t in bad])
        densities.append((name, values, l, g))
    # Prefer the best-scoring candidate that has not been evaluated yet;
    # resampling an already-tried configuration wastes a trial on a small
    # discrete space. Fall back to the overall best if every candidate is a
    # repeat. Ties go to the earliest candidate.
    tried = [t.config for t in history]
    candidates = []
    for _ in range(TPE_CANDIDATES):
        config = {}
        score = 0.0
        for name, values, l, g in densities:
            idx = rng.choice(len(values), p=l)
            config[name] = values[idx]
            score += np.log(l[idx]) - np.log(g[idx])
        candidates.append((config not in tried, score, config))
    return max(candidates, key=lambda c: c[:2])[2]


def run_search(space: SearchSpace,
               evaluate: Callable[[dict, int], tuple[dict, Optional[float]]],
               n_trials: int = 30, cfg: TPEConfig = TPEConfig(), seed: int = 0,
               log_path: Optional[str | Path] = None) -> tuple[Trial, list[Trial]]:
    """Sequential suggest/evaluate/record loop.

    ``evaluate(config, trial_seed)`` returns (macro F per task, development
    accuracy or None). Failures are recorded with status "error" and the
    search continues. With ``log_path``, the log is rewritten atomically
    after every trial, so an interrupted search keeps the trials it
    finished. Returns the best trial (lowest objective, earliest on ties)
    and the full history.
    """
    rng = np.random.default_rng(seed)
    history: list[Trial] = []
    for n in range(n_trials):
        config = tpe_suggest(history, space, rng)
        trial_seed = int(rng.integers(2 ** 31))
        try:
            macro_f, dev_accuracy = evaluate(config, trial_seed)
            if cfg.objective_mode == "accuracy":
                if dev_accuracy is None:
                    raise ValueError("objective_mode 'accuracy' needs a dev accuracy")
                obj = 1.0 - dev_accuracy
            else:
                obj = objective(macro_f)
            trial = Trial(number=n, config=config, objective=obj, macro_f=dict(macro_f),
                          dev_accuracy=dev_accuracy, seed=trial_seed)
        except Exception as exc:  # noqa: BLE001 - failure is a recorded outcome
            trial = Trial(number=n, config=config, objective=math.inf, macro_f={},
                          dev_accuracy=None, seed=trial_seed, status=f"error: {exc}")
        history.append(trial)
        if log_path is not None:
            write_ndjson(log_path, [t.to_json_obj() for t in history])
    ok = [t for t in history if t.status == "ok"]
    if not ok:
        raise RuntimeError(f"all trials failed; trial 0 {history[0].status}")
    return min(ok, key=lambda t: (t.objective, t.number)), history
