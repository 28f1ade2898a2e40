"""The benchmark calls rumourmtl by name, so a rename in ``src/`` must be
caught here.

The tracer wraps functions and methods by name: ``bench/run.py --trace 1``
fails with ``KeyError`` or ``AttributeError`` when one of them disappears.
The workloads call public functions with keyword arguments, so the tiny
workload is run once, untraced.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from rumourmtl import mtl
from rumourmtl.corpus import GeneratorSpec, generate_synthetic
from rumourmtl.mtl import HyperParams, MTLModel
from rumourmtl.text import hash_embeddings

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for module_name, attr, _ in spans.FUNCTIONS:
        module = importlib.import_module(f"rumourmtl.{module_name}")
        assert callable(getattr(module, attr, None)), f"rumourmtl.{module_name}.{attr}"


def test_traced_methods_defined_on_model():
    spans = load_spans()
    for attr, _ in spans.METHODS:
        assert attr in MTLModel.__dict__, f"MTLModel.{attr}"


def test_tiny_workload_runs_and_reports_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "11",
                           "--seconds", "0"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(result["metrics"])


def test_tracer_sees_l2_on_the_training_path():
    """``neural.l2.s`` times the L2 calls of ``mtl.train``: one of each
    per batch, beside the optimizer step."""
    spans = load_spans()
    for module_name, _, _ in spans.FUNCTIONS:  # instrument patches each one
        importlib.import_module(f"rumourmtl.{module_name}")
    corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=3), 0)
    instances = [i for i in mtl.build_instances(corpus, hash_embeddings(8, 0))
                 if i.veracity_label is not None][:6]
    hp = HyperParams(num_dense_layers=1, dense_width=4, lstm_width=4, batch_size=2, epochs=1)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        mtl.train(MTLModel(hp, ("veracity",), 8, 0), instances, 0)
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    for name in ("neural.l2_penalty", "neural.add_l2_grads", "neural.optimizer_step"):
        assert calls.get(name) == 3, name
