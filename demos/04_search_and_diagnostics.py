"""Hyperparameter search and dataset diagnostics.

Part 1 runs the Tree-of-Parzen-Estimators search on its 192-point
hyperparameter grid against a planted objective with a unique optimum, and
compares its hit rate with uniform random sampling at the same budget.

Part 2 computes the label-distribution diagnostics (Shannon entropy,
excess kurtosis of the integer-coded labels, token-type ratio) per event
and task.

Run:  python3 demos/04_search_and_diagnostics.py
"""

import math

import numpy as np

from rumourmtl.analysis import analyze_corpus, stats_csv
from rumourmtl.corpus import GeneratorSpec, generate_synthetic
from rumourmtl.search import TPEConfig, default_space, run_search

# -- 1. model-based search vs random sampling --------------------------------

space = default_space()
optimum = {"num_dense_layers": 2, "num_lstm_layers": 1,
           "dense_width": 400, "lstm_width": 100, "l2": 1e-4}


def planted(config):
    mismatches = sum(1 for k, v in optimum.items() if config[k] != v)
    return 0.0 if mismatches == 0 else 0.3 + 0.05 * (mismatches - 1)


def evaluate(config, trial_seed):
    # accuracy mode: objective = 1 - dev accuracy
    return {"veracity": 0.0}, 1.0 - planted(config)


cfg = TPEConfig(objective_mode="accuracy")
tpe_hits = 0
random_hits = 0
n_seeds, budget = 10, 30
for seed in range(n_seeds):
    best, _ = run_search(space, evaluate, n_trials=budget, cfg=cfg, seed=seed)
    tpe_hits += best.objective == 0.0
    rng = np.random.default_rng(100 + seed)
    draws = [{name: values[rng.integers(len(values))] for name, values in space.dimensions}
             for _ in range(budget)]
    random_hits += any(planted(c) == 0.0 for c in draws)

size = math.prod(len(values) for _, values in space.dimensions)
print(f"search space: {size} configurations, budget {budget} trials")
print(f"guided search found the optimum in {tpe_hits}/{n_seeds} seeds")
print(f"random sampling found it in {random_hits}/{n_seeds} seeds")

# -- 2. per-event label diagnostics ------------------------------------------

corpus = generate_synthetic(GeneratorSpec(events=3, threads_per_event=40), seed=11)
table = analyze_corpus(corpus)
print("\nper-event label diagnostics (entropy / kurtosis / token-type ratio):")
print(stats_csv(table))
