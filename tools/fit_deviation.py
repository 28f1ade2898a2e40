"""Numerical deviation of the benchmark's fits between a git ref and the working tree.

Run from the repository root:

    python3 tools/fit_deviation.py --ref HEAD --seeds 11

The committed files of ``--ref`` are unpacked as ``tools/bench_pairs.py``
does; the other side is the working tree, uncommitted edits included. Each
side runs, in a subprocess with its own ``src`` and ``bench`` first on the
path, the fit of every workload of ``bench/workloads.py`` for each corpus
seed: the workload's set-up (``workloads.setup``), ``mtl.train`` of a fresh
model for the workload's epochs from ``MODEL_SEED``, then the head
probabilities of every post and branch (``MTLModel.tree_forward``) and the
predicted labels of every thread (``mtl.predict_threads``).

For each fit the script prints the largest absolute difference in each
parameter block that differs, in the loss history and in the head
probabilities, and the count of changed labels (veracity and detection per
thread, stance per post). It exits 0 only if every array of both sides is
``np.array_equal`` and no label changed. ``cli train`` is compared byte for
byte by ``tools/cli_identity.py``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Label kinds, as ``fit`` records them.
LABELS = ("veracity", "detection", "stance")


def fit(workload: str, seed: int) -> dict:
    """One fit with the importable ``rumourmtl`` and ``workloads``: the
    trained parameters, the loss history, the head probabilities over the
    corpus forest by task, and the predicted labels by kind."""
    import workloads
    from rumourmtl import mtl

    w = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="fit-deviation-") as tmp:
        state = workloads.setup(w, seed, Path(tmp))
    model = mtl.MTLModel(w.hp, w.tasks, w.dim, workloads.MODEL_SEED)
    history = mtl.train(model, state.instances, workloads.MODEL_SEED, epochs=w.epochs)
    threads = state.corpus.threads
    preds = mtl.predict_threads(model, threads, state.table)
    return {
        "params": model.params,
        "history": np.array(history),
        "probs": model.tree_forward(mtl.build_forest(threads, state.table)),
        "labels": {
            "veracity": [p.veracity for p in preds],
            "detection": [p.detection for p in preds],
            "stance": [s for p in preds for s in (p.stance or ())],
        },
    }


def largest(a: np.ndarray | None, b: np.ndarray | None) -> float:
    """The largest absolute difference of two arrays; NaN when one is
    missing or their shapes differ."""
    if a is None or b is None or a.shape != b.shape:
        return float("nan")
    return float(np.max(np.abs(a - b), initial=0.0))


def arrays(a: dict, b: dict) -> list[tuple[str, str, np.ndarray | None, np.ndarray | None]]:
    """(kind, name, ref array, change array) of every array of two fits."""
    pairs = [("parameters", f"parameter block {k}", a["params"].get(k), b["params"].get(k))
             for k in sorted(a["params"].keys() | b["params"].keys())]
    pairs.append(("loss history", "loss history", a["history"], b["history"]))
    return pairs + [("probabilities", f"{task} probabilities", a["probs"].get(task),
                     b["probs"].get(task))
                    for task in sorted(a["probs"].keys() | b["probs"].keys())]


def changed_labels(a: dict, b: dict) -> dict[str, int]:
    """Per label kind, the labels of two fits that differ; a label on one
    side only counts as changed."""
    return {kind: sum(p != q for p, q in zip(a["labels"][kind], b["labels"][kind]))
            + abs(len(a["labels"][kind]) - len(b["labels"][kind])) for kind in LABELS}


def compare(ref: dict, new: dict) -> list[str]:
    """One line per array of a fit that is not ``np.array_equal`` on both
    sides, with its largest absolute difference, and one per fit whose labels
    changed, with their count by kind; fits are keyed by name, each as
    ``fit`` returns it."""
    lines = []
    for name in sorted(ref.keys() | new.keys()):
        if name not in ref or name not in new:
            lines.append(f"{name}: missing in {'change' if name in ref else 'ref'}")
            continue
        for _, what, x, y in arrays(ref[name], new[name]):
            if x is None or y is None or not np.array_equal(x, y):
                lines.append(f"{name}: {what} largest difference {largest(x, y):.3g}")
        changed = changed_labels(ref[name], new[name])
        if any(changed.values()):
            lines.append(f"{name}: {sum(changed.values())} labels changed ("
                         + ", ".join(f"{kind} {n}" for kind, n in changed.items()) + ")")
    return lines


def summary(name: str, a: dict, b: dict) -> str:
    """A fit's largest differences by kind and its changed labels, zeros included."""
    worst = dict.fromkeys(("parameters", "loss history", "probabilities"), 0.0)
    for kind, _, x, y in arrays(a, b):
        worst[kind] = max(worst[kind], largest(x, y))
    n_labels = sum(len(a["labels"][kind]) for kind in LABELS)
    return (f"{name}: " + ", ".join(f"{k} {v:.3g}" for k, v in worst.items())
            + f", {sum(changed_labels(a, b).values())} of {n_labels} labels changed")


def run_side(tree: Path, seeds: list[int], out: Path) -> None:
    """The fits of ``tree``, in a subprocess, pickled to ``out``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--write", str(out),
            "--seeds", ",".join(map(str, seeds))]
    subprocess.run(argv, cwd=tree, env=env, check=True)


def write_fits(path: Path, seeds: list[int]) -> None:
    """Every workload's fit for each seed, pickled to ``path``."""
    import workloads

    fits = {f"{w} seed {s}": fit(w, s) for w in workloads.WORKLOADS for s in seeds}
    path.write_bytes(pickle.dumps(fits))


def seed_list(text: str) -> list[int]:
    """The value of ``--seeds``: one or more comma-separated integers."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--seeds", type=seed_list, default="11",
                        help="comma-separated corpus seeds")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write is not None:
        write_fits(args.write, args.seeds)
        return 0
    from bench_pairs import unpack

    with tempfile.TemporaryDirectory(prefix="fit-deviation-") as tmp:
        ref_tree = Path(tmp) / "tree"
        try:
            unpack(args.ref, ref_tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.ref}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        sides = []
        for side, tree in (("ref", ref_tree), ("change", ROOT)):
            out = Path(tmp) / f"{side}.pickle"
            try:
                run_side(tree, args.seeds, out)
            except subprocess.CalledProcessError as exc:
                print(f"error: the {side} fits exited {exc.returncode}", file=sys.stderr)
                return 1
            sides.append(pickle.loads(out.read_bytes()))
    ref, new = sides
    problems = compare(ref, new)
    for line in problems:
        print(line)
    for name in sorted(ref.keys() & new.keys()):
        print(summary(name, ref[name], new[name]))
    print(f"ref {args.ref}: {len(ref.keys() | new.keys())} fits compared, "
          f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
