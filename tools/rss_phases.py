"""Resident memory after each phase of one benchmark round.

Run from the repository root:

    python3 tools/rss_phases.py --workload paper --seed 11

It runs one round of a workload through the functions of
``bench/workloads.py``, in the benchmark's order: ``SETUP_REPS`` set-ups, each
kept until the next one replaces it (as ``workloads.run`` keeps them), the
fit, one pass of each short phase (build, train, predict), ``loeo``,
``search``, and the set-up that follows every round. After each phase it
prints the process's current resident set (``VmRSS`` of
``/proc/self/status``) and its peak so far (``ru_maxrss``), in MB, so that a
memory claim can say which phase holds the peak of ``peak_rss_mb``, and its
minor page faults so far (``ru_minflt``), which count the fresh pages the
allocator took from the kernel. BLAS runs one thread, as in
``bench/run.py``. Exit status 1 when a benchmark check fails.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pools before numpy is imported, as bench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def memory() -> tuple[float, float, int]:
    """The current resident set (``VmRSS``) and the peak so far
    (``ru_maxrss``) of this process, in MB, and its minor page faults so far
    (``ru_minflt``)."""
    status = Path("/proc/self/status").read_text().splitlines()
    current_kb = next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return current_kb / 1024, usage.ru_maxrss / 1024, usage.ru_minflt


def report(phase: str) -> None:
    current, peak, faults = memory()
    print(f"{phase:10s} rss {current:8.1f} MB  peak {peak:8.1f} MB  minflt {faults:9d}",
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=60)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    report("start")
    with tempfile.TemporaryDirectory(prefix="rss-phases-") as tmp:
        for i in range(workloads.SETUP_REPS):
            state = workloads.setup(w, args.seed, Path(tmp))
            report(f"setup {i + 1}")
        state.shape = workloads.corpus_shape(state.corpus, w.pad_to)
        rnd = workloads.Rounds(w, state, Path(tmp), checks)
        report("fit")
        for phase in ("build", "train", "predict", "loeo", "search"):
            getattr(rnd, phase)()
            report(phase)
        workloads.setup(w, args.seed, Path(tmp))
        report("setup")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
