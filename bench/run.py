"""Benchmark of rumourmtl: named workloads through the package's public API.

Run from the repository root:

    python3 bench/run.py --workload paper|tiny|cli-loeo [--seed N] [--seconds S] [--trace 0|1]

``--seed`` makes the generated corpus; ``--seconds`` is the time budget of
the measured rounds (see workloads.py). With ``--trace 0`` the last line of
standard output is a JSON object whose ``metrics`` hold every end-to-end
metric of BENCHMARK.json. With ``--trace 1`` one warm-up round is followed by
pairs of rounds, one untraced and one with every rumourmtl module
instrumented (see spans.py), until the budget is spent; ``metrics`` then
hold every per-layer metric, per traced round, and ``trace.overhead``: the
traced over the untraced wall time, minus one. Earlier lines record the
environment, the corpus shape, a metric table and, when traced, the span
summary (calls, total and self seconds per span name). End-to-end timing
metrics are the times of an idle core: each is divided by how much slower
than on an idle core a fixed reference computation ran in the same run,
because the speed of a shared host's core drifts within and between runs
(see workloads.py); the shape line also gives the raw values.

The code under test is the ``src/`` next to this directory; the benchmark
exits with status 2, printing no result, when it is missing. OpenBLAS runs
one thread, so results do not depend on core count and ``train_loss`` is
bit-identical between runs of the same seed.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pools before numpy is imported.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    try:
        import rumourmtl
    except ImportError as exc:
        print(f"error: cannot import rumourmtl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(rumourmtl.__file__).resolve().parent.parent != ROOT / "src":
        print(f"error: rumourmtl was imported from {rumourmtl.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import check_spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=60)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in definition[section]}

    checks = workloads.Checks()
    problems = check_spans.failures()
    checks.check(not problems, f"span self-check: {problems}")
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    w = workloads.WORKLOADS[args.workload]
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        metrics, shape, span_summary = workloads.run(
            w, args.seed, args.seconds, bool(args.trace), Path(tmp), checks)
    shape = {"workload": w.name, "seed": args.seed, **shape}
    print("shape " + json.dumps(shape, sort_keys=True))
    if span_summary is not None:
        print("spans " + json.dumps(span_summary, sort_keys=True))
    checks.check(set(metrics) == set(units),
                 f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for name in units:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
