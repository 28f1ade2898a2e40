"""Byte-identity of the command-line artifacts of a git ref and the working tree.

Run from the repository root:

    python3 tools/cli_identity.py --ref HEAD --seeds 11

The committed files of ``--ref`` are unpacked as ``tools/bench_pairs.py``
does; the other side is the working tree, uncommitted edits included. Each
side runs ``python -m rumourmtl.cli`` from its own ``src`` (by ``PYTHONPATH``)
in its own temporary root: ``synth``, ``validate``, ``analyze`` (to a file and
to stdout), ``train``, ``evaluate``, ``loeo`` over every model, ``loeo`` of
four models, two of them neural, over a two-process pool, a three-trial ``search`` and an
eleven-trial ``search`` of the accuracy objective (past
``search.TPE_STARTUP``, so TPE's modelled suggestions run), on two synthetic
corpora. Those runs use hash embeddings, which hold every token; so ``train``,
``evaluate``, ``loeo`` and ``search`` run once more on the small corpus with
an embedding file that the script writes and that leaves out every other token
(see ``embedding_file``). Last come the benchmark's fits: for each workload of
the working tree's ``bench/workloads.py`` and each corpus seed of ``--seeds``
(11 by default), ``synth`` of the workload's corpus, then ``train`` and
``evaluate`` with its hyperparameters, epochs, tasks and dimension from
``MODEL_SEED`` (see ``fit_commands``). Both sides get the same input files.
Every command's exit status, stdout and stderr are kept in a ``.log`` file
beside the artifacts.

Inside file contents, each root's path becomes ``<root>`` and its source
tree's path ``<tree>``; then the two roots are compared file by file. The
script prints the files that differ or exist on one side only, and exits 0
only if there are none. For a ``.json`` or ``.ndjson`` file that differs, its
line also gives the largest absolute difference between numbers at the same
place of the whole file (every block of a checkpoint) and the count of other
values that differ (labels, say, or a number that is NaN on one side only), so
a last-bit change of a parameter or a probability is told apart from a changed
prediction."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Synthetic corpora: the 3 x 6 corpus of the command-line tests and a bushier one.
CORPORA = {
    "small": "events = 3\nthreads_per_event = 6\nseed = 5\n",
    "bushy": ("events = 4\nthreads_per_event = 12\nreplies_min = 6\nreplies_max = 14\n"
              "depth_min = 1\ndepth_max = 3\nseed = 7\n"),
}
RUN_CONFIG = """\
corpus = {corpus}
output_dir = {out}
seed = 1
tasks = veracity,stance,detection
embedding_dim = 8
num_dense_layers = 1
num_lstm_layers = 2
dense_width = 8
lstm_width = 6
dropout = 0.5
l2 = 1e-3
epochs = 2
batch_size = 16
"""


#: Corpus of the out-of-vocabulary runs, and the dimension of their vectors.
OOV_CORPUS = "small"
OOV_DIM = 8


def model_commands(cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(log name, cli arguments) of ``train``, ``evaluate``, ``loeo`` (serial,
    and on a two-process pool) and ``search`` (three trials, and eleven of
    the accuracy objective) with the run config ``cfg``, whose output
    directory is ``out / "train"``."""
    return [
        ("train", ["train", str(cfg)]),
        ("evaluate", ["evaluate", str(cfg), "--model", str(out / "train" / "model.json"),
                      "--output-dir", str(out / "evaluate")]),
        ("loeo", ["loeo", str(cfg), "--models", "majority,nile,single,mtl2vs,mtl2vd,mtl3",
                  "--jobs", "1", "--output-dir", str(out / "loeo")]),
        ("loeo-jobs2", ["loeo", str(cfg), "--models", "majority,nile,mtl2vs,mtl3", "--jobs", "2",
                        "--output-dir", str(out / "loeo-jobs2")]),
        ("search", ["search", str(cfg), "--trials", "3", "--epochs", "1",
                    "--output-dir", str(out / "search")]),
        ("search-tpe", ["search", str(cfg), "--trials", "11", "--epochs", "1",
                        "--objective", "accuracy", "--output-dir", str(out / "search-tpe")]),
    ]


def commands(root: Path, name: str) -> list[tuple[str, list[str]]]:
    """(log name, cli arguments) of one corpus's runs, writing under ``root``;
    writes the corpus's spec and run config first."""
    spec = root / f"{name}.spec"
    spec.write_text(CORPORA[name])
    corpus = root / f"{name}.ndjson"
    out = root / f"{name}-out"
    cfg = root / f"{name}.cfg"
    cfg.write_text(RUN_CONFIG.format(corpus=corpus, out=out / "train"))
    return [
        ("synth", ["synth", str(spec), "-o", str(corpus)]),
        ("validate", ["validate", str(corpus)]),
        ("analyze-file", ["analyze", str(corpus), "-o", str(out / "stats.csv")]),
        ("analyze-stdout", ["analyze", str(corpus)]),
        *model_commands(cfg, out),
    ]


def embedding_file(corpus: Path) -> str:
    """An embedding file over the ndjson ``corpus``: the runs of a-z in its
    lowercased post texts, sorted, and every other one of them from the
    second kept, each with a vector that depends only on its rank. Some
    posts of the small corpus then have no token in the file at all."""
    tokens: set[str] = set()
    for line in corpus.read_text().splitlines():
        for post in json.loads(line)["posts"]:
            tokens.update(re.findall("[a-z]+", post["text"].lower()))
    return "".join(
        token + "".join(f" {((5 * k + 3 * j) % 17 - 8) / 8:g}" for j in range(OOV_DIM)) + "\n"
        for k, token in enumerate(sorted(tokens)[1::2]))


def oov_commands(root: Path) -> list[tuple[str, list[str]]]:
    """(log name, cli arguments) of the out-of-vocabulary runs; writes their
    embedding file and run config first, from the synthesized corpus."""
    corpus = root / f"{OOV_CORPUS}.ndjson"
    vectors = root / "oov.vec"
    vectors.write_text(embedding_file(corpus))
    out = root / "oov-out"
    cfg = root / "oov.cfg"
    cfg.write_text(RUN_CONFIG.format(corpus=corpus, out=out / "train")
                   + f"embeddings = {vectors}\n")
    return model_commands(cfg, out)


def bench_workloads():
    """The working tree's ``bench/workloads.py`` module."""
    sys.path[:0] = [d for d in (str(ROOT / "src"), str(ROOT / "bench")) if d not in sys.path]
    import workloads

    return workloads


def key_values(values: dict) -> str:
    """``key = value`` lines; a number is written by ``repr``, so it reads back equal."""
    return "".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in values.items())


def fit_spec(spec, seed: int) -> str:
    """The ``synth`` spec of the ``GeneratorSpec`` ``spec`` at corpus ``seed``."""
    from rumourmtl.corpus import VERACITY_CLASSES

    values = {"seed": seed}
    for key, value in asdict(spec).items():
        if key == "veracity_priors":
            values.update((f"prior_{c}", p) for c, p in zip(VERACITY_CLASSES, value))
        elif key.endswith("_range"):
            values[key[:-5] + "min"], values[key[:-5] + "max"] = value
        else:
            values[key] = value
    return key_values(values)


def fit_commands(root: Path, seeds: list[int]) -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """(log prefix, its (log name, cli arguments)) of the benchmark's fit of
    each workload at each corpus seed: ``synth``, ``train`` and
    ``evaluate``; writes their spec and run config under ``root`` first."""
    workloads = bench_workloads()
    runs = []
    for w in workloads.WORKLOADS.values():
        for seed in seeds:
            name = f"{w.name}-{seed}"
            spec, corpus, cfg = (root / f"{name}.{ext}" for ext in ("spec", "ndjson", "cfg"))
            out = root / f"{name}-out"
            spec.write_text(fit_spec(w.spec, seed))
            cfg.write_text(key_values({
                "corpus": str(corpus), "output_dir": str(out / "train"),
                "seed": workloads.MODEL_SEED, "tasks": ",".join(w.tasks),
                "embedding_dim": w.dim, **asdict(replace(w.hp, epochs=w.epochs))}))
            runs.append((name, [("synth", ["synth", str(spec), "-o", str(corpus)]),
                                *model_commands(cfg, out)[:2]]))
    return runs


def run_tree(tree: Path, root: Path, seeds: list[int]) -> None:
    """Every command of every corpus, the out-of-vocabulary runs, then the
    benchmark's fits at ``seeds``, with ``tree/src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def run(name: str, steps: list[tuple[str, list[str]]]) -> None:
        for step, argv in steps:
            proc = subprocess.run([sys.executable, "-m", "rumourmtl.cli", *argv], cwd=root,
                                  env=env, capture_output=True, text=True)
            (root / f"{name}-{step}.log").write_text(
                f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")

    for name in CORPORA:
        run(name, commands(root, name))
    run("oov", oov_commands(root))
    for name, steps in fit_commands(root, seeds):
        run(name, steps)


def read_tree(root: Path, tree: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with the paths of ``root``
    and of the source ``tree`` replaced by ``<root>`` and ``<tree>``."""
    # The longer path first, in case the other is its prefix.
    marks = sorted([(str(root).encode(), b"<root>"), (str(tree).encode(), b"<tree>")],
                   key=lambda mark: -len(mark[0]))
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            for old, new in marks:
                data = data.replace(old, new)
            files[str(path.relative_to(root))] = data
    return files


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_differences(ref, new) -> tuple[float, int]:
    """The largest absolute difference between numbers at the same place of
    two JSON values, and the count of other values that differ; a place on
    one side only, or a number that is NaN on one side only, counts as one
    such value."""
    largest, other = 0.0, 0
    stack = [(ref, new)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, dict) and isinstance(b, dict):
            stack.extend((a[key], b[key]) for key in a.keys() & b.keys())
            other += len(a.keys() ^ b.keys())
        elif isinstance(a, list) and isinstance(b, list):
            stack.extend(zip(a, b))
            other += abs(len(a) - len(b))
        elif _is_number(a) and _is_number(b):
            if (a != a) != (b != b):  # NaN on one side only
                other += 1
            elif a != b and a == a:  # NaN matches NaN
                largest = max(largest, abs(a - b))
        elif a != b:
            other += 1
    return largest, other


def json_values(path: str, data: bytes) -> list | None:
    """A ``.json`` file's value, or an ``.ndjson`` file's lines, as one list;
    None for any other file or one that does not parse."""
    try:
        if path.endswith(".json"):
            return [json.loads(data)]
        if path.endswith(".ndjson"):
            return [json.loads(line) for line in data.splitlines() if line.strip()]
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        pass
    return None


def compare(ref: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per file that differs or exists on one side only, sorted by path."""
    lines = []
    for path in sorted(ref.keys() | new.keys()):
        if path not in new:
            lines.append(f"missing in change: {path}")
        elif path not in ref:
            lines.append(f"missing in ref: {path}")
        elif ref[path] != new[path]:
            line = f"differs: {path}"
            values = json_values(path, ref[path]), json_values(path, new[path])
            if None not in values:
                largest, other = value_differences(*values)
                line += (f" (largest numeric difference {largest:.3g}, "
                         f"{other} other values differ)")
            lines.append(line)
    return lines


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
                        help="comma-separated corpus seeds of the benchmark's fits")
    args = parser.parse_args(argv)
    from bench_pairs import unpack

    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        ref_tree = Path(tmp) / "tree"
        unpack(args.ref, ref_tree)
        sides = []
        for side, tree in (("ref", ref_tree), ("change", ROOT)):
            root = Path(tmp) / side
            root.mkdir()
            run_tree(tree, root, args.seeds)
            sides.append(read_tree(root, tree))
        ref, new = sides
    problems = compare(ref, new)
    for line in problems:
        print(line)
    print(f"ref {args.ref}: {len(ref.keys() | new.keys())} files compared, {len(problems)} differ "
          f"or are missing")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
