"""The benchmark tracer wraps rumourmtl functions and methods by name.

``bench/run.py --trace 1`` fails with ``KeyError`` or ``AttributeError`` when
one of those names disappears, so a rename in ``src/`` must be caught here.
"""

import importlib
import importlib.util
from pathlib import Path

from rumourmtl.mtl import MTLModel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
