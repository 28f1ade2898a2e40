"""What byte-identity holds across: one fit under one and two OpenBLAS threads.

The README promises identical bytes for one numpy, one BLAS build and one
thread count, and only rounding across thread counts. A paper-width fit is
GEMM-heavy enough for OpenBLAS to split its products differently at two
threads; smaller widths show no difference at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

#: Largest parameter difference allowed between the two fits. One epoch of
#: this fit measured 1.44e-6 to 2.08e-6 on its largest block.
PARAM_BOUND = 2e-5

FIT = """
import json, sys
import numpy as np
from rumourmtl import mtl
from rumourmtl.corpus import GeneratorSpec, generate_synthetic
from rumourmtl.text import hash_embeddings

corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=20, replies_range=(5, 30),
                                          depth_range=(2, 10)), 11)
table = hash_embeddings(300, seed=11)
hp = mtl.HyperParams(num_dense_layers=2, num_lstm_layers=2, dense_width=500, lstm_width=200,
                     batch_size=32, epochs=1)
model = mtl.MTLModel(hp, mtl.ALL_TASKS, table.dimension, 11)
mtl.train(model, mtl.build_instances(corpus, table), 11)
np.savez(sys.argv[1] + ".npz", **model.params)
with open(sys.argv[1] + ".json", "w") as fh:
    json.dump([(p.veracity, p.detection, p.stance)
               for p in mtl.predict_threads(model, mtl.build_forest(corpus.threads, table))], fh)
"""


def fit(out: Path, threads: str) -> tuple[dict, list]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", FIT, str(out)], env=env, check=True)
    with np.load(f"{out}.npz") as params:
        return dict(params), json.loads(Path(f"{out}.json").read_text())


def test_one_and_two_blas_threads_agree_within_rounding(tmp_path):
    params_1, preds_1 = fit(tmp_path / "one", "1")
    params_2, preds_2 = fit(tmp_path / "two", "2")
    assert params_1.keys() == params_2.keys()
    deviation = {k: float(np.max(np.abs(params_1[k] - params_2[k]))) for k in params_1}
    assert max(deviation.values()) <= PARAM_BOUND, deviation
    assert preds_1 == preds_2
