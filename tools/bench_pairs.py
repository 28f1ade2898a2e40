"""Parent-versus-change runs of the benchmark, in alternating pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --ref HEAD --workload paper --pairs 5 --first-seed 11

The committed files of ``--ref`` are unpacked with ``git archive``, a
checkout such as a fresh clone would give; the other side is a copy of the
working tree, uncommitted edits and untracked files that git does not ignore
included (see ``copy_worktree``). Both sides run from sibling directories of
one temporary directory (under ``$TMPDIR``), with names of one length,
because the path a tree runs from moves its timings by a few percent. For
each seed ``first-seed .. first-seed + pairs - 1`` the script runs
``python3 bench/run.py --workload W --seed S`` once on each side, the ref
first on even pairs and the working tree first on odd ones, so drift of a
shared host falls on both sides alike.

It prints, per end-to-end metric of the working tree's BENCHMARK.json and
over the same pairs (see ``paired``): each side's median and quartiles, the
ratio of the medians (change over ref), how many pairs the change won in
the metric's better direction, how many pairs were skipped, and a verdict
(see ``verdict``). Then the failed-check counts of every run, the numpy,
BLAS and thread settings each side reported, and the allocator settings
both sides inherit (see ``allocator_settings``). Exit status 1 when git
cannot archive the ref or a run fails to produce its result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(ref: str, target: Path) -> None:
    """The committed files of ``ref`` under ``target``; when git cannot
    archive ``ref``, its message is printed and the process exits 1."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        print(f"error: git archive {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
        sys.exit(1)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target, filter="data")


def copy_worktree(root: Path, target: Path) -> None:
    """The working tree of the git repository ``root`` under ``target``: its
    tracked files as they are on disk and its untracked files that git does
    not ignore. A tracked file deleted from the disk is left out."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                              "--exclude-standard"], cwd=root, capture_output=True, check=True)
    for name in map(os.fsdecode, listing.stdout.split(b"\0")):
        source = root / name
        if name and source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run: its environment line and its final JSON result."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return {"env": env, **json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(ref: list[float], new: list[float], better: str, bound: float) -> str:
    """One metric's outcome over paired runs (``ref[i]`` against ``new[i]``).

    - ``unresolved``: the parent's interquartile range, relative to its
      median, is wider than ``bound``, and not every change run beats every
      parent run;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound``, relative to the parent's median;
    - ``met``: over at least ten pairs, the change wins at least nine in ten
      (ties count for neither side) and its median is better by more than
      the parent's interquartile range;
    - ``same`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    (r1, r2, r3), (_, n2, _) = quartiles(ref), quartiles(new)
    beats_all = min(sign * b for b in new) > max(sign * a for a in ref)
    if r3 - r1 > bound * abs(r2) and not beats_all:
        return "unresolved"
    if sign * (n2 - r2) < -bound * abs(r2):
        return "worse"
    wins = sum(sign * (b - a) > 0 for a, b in zip(ref, new))
    if len(ref) >= 10 and 10 * wins >= 9 * len(ref) and sign * (n2 - r2) > r3 - r1:
        return "met"
    return "same"


def paired(ref_runs: list[dict], new_runs: list[dict], name: str
           ) -> tuple[list[float], list[float], int]:
    """Metric ``name`` of the two sides' runs, paired by run index (one
    seed); an index where either side lacks the metric is skipped. Returns
    the ref values, the change values and the count of skipped pairs."""
    pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
             for a, b in zip(ref_runs, new_runs, strict=True)
             if name in a["metrics"] and name in b["metrics"]]
    return [a for a, _ in pairs], [b for _, b in pairs], len(ref_runs) - len(pairs)


def allocator_settings() -> str:
    """The glibc allocator settings of this process's environment, which
    every run inherits: each ``MALLOC_*`` variable and ``GLIBC_TUNABLES``,
    or ``none set``."""
    names = sorted(k for k in os.environ if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")
    return " ".join(f"{k}={os.environ[k]}" for k in names) or "none set"


def report(results: dict[str, list[dict]], definition: dict) -> None:
    ref_runs, new_runs = results["ref"], results["change"]
    print(f"{'metric':24s} {'ref median':>12s} {'q1':>12s} {'q3':>12s} {'change median':>14s}"
          f" {'q1':>12s} {'q3':>12s} {'ratio':>7s} {'wins':>6s} {'skipped':>7s} verdict")
    for spec in definition["end_to_end"]:
        name = spec["name"]
        ref, new, skipped = paired(ref_runs, new_runs, name)
        if not ref:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(ref, new))
        (r1, r2, r3), (n1, n2, n3) = quartiles(ref), quartiles(new)
        ratio = n2 / r2 if r2 else float("nan")
        outcome = verdict(ref, new, spec["better"], spec["bound"])
        print(f"{name:24s} {r2:>12.6g} {r1:>12.6g} {r3:>12.6g} {n2:>14.6g} {n1:>12.6g}"
              f" {n3:>12.6g} {ratio:>7.3f} {f'{wins}/{len(ref)}':>6s} {skipped:>7d} {outcome}")
    for side, runs in results.items():
        print(f"{side}: failed checks per run {[r['failed'] for r in runs]}")
        envs = {json.dumps({k: r["env"].get(k) for k in ("numpy", "blas", "threads", "nproc")},
                           sort_keys=True) for r in runs}
        for env in sorted(envs):
            print(f"{side}: {env}")
    print(f"allocator (both sides): {allocator_settings()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {"ref": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"ref": Path(tmp, "ref"), "change": Path(tmp, "new")}
        unpack(args.ref, trees["ref"])
        copy_worktree(ROOT, trees["change"])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for side in order:
                try:
                    result = run_bench(trees[side], args.workload, seed)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                results[side].append(result)
                value = result["metrics"].get("train_branches_per_s", {}).get("value")
                print(f"pair {i} seed {seed} {side}: failed {result['failed']}, "
                      f"train_branches_per_s {value}", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, ref {args.ref}, {args.pairs} pairs from seed "
          f"{args.first_seed}")
    report(results, definition)
    return 0


if __name__ == "__main__":
    sys.exit(main())
