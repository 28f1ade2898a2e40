"""Training the shared-LSTM multi-task classifier.

Each tweet is embedded once (averaged word vectors) into one table, a
branch is its tweets' rows of that table, and a batch of branches is fed
through one shared LSTM with a task-specific dense/softmax head per task.
Veracity is the main task; stance (per step) and rumour detection (per
branch) are auxiliary. Labels a branch does not carry contribute exactly
zero loss.

Run:  python3 demos/02_multitask_training.py        (about 20 seconds)
"""

import numpy as np

from rumourmtl.corpus import GeneratorSpec, generate_synthetic
from rumourmtl.mtl import HyperParams, MTLModel, branch_accuracy, build_instances, predict_thread, train
from rumourmtl.text import hash_embeddings

# -- 1. corpus and instances -------------------------------------------------

corpus = generate_synthetic(GeneratorSpec(events=3, threads_per_event=25, coupling=1.0), seed=1)
table = hash_embeddings(dimension=32, seed=0)
instances = build_instances(corpus, table)
print(f"{len(corpus)} threads -> {len(instances)} branch instances, "
      f"the longest {max(inst.true_length for inst in instances)} tweets")

# -- 2. train a three-task model --------------------------------------------
# Miniature widths keep this fast; the full-scale defaults (300-wide dense,
# 100-wide LSTM) are what the hyperparameter search explores.

hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=32,
                 lstm_width=24, dropout=0.5, epochs=40, learning_rate=3e-3)
model = MTLModel(hp, ("veracity", "stance", "detection"), table.dimension, seed=0)
history = train(model, instances, seed=0)
print(f"loss: {history[0]:.3f} (epoch 1) -> {history[-1]:.3f} (epoch {len(history)})")

acc = branch_accuracy(model, instances)
for task, value in acc.items():
    print(f"  training accuracy, {task}: {value:.3f}")

# -- 3. thread-level predictions via majority vote ---------------------------
# Each branch votes with its argmax class; ties break by summed probability.

thread = corpus.threads[0]
pred = predict_thread(model, thread, table)
print(f"\nthread {thread.id}: gold veracity={thread.veracity_label}, "
      f"predicted={pred.veracity} (mean probs {np.round(pred.veracity_probs, 3)})")
print(f"  detection: gold={thread.detection_label}, predicted={pred.detection}")
print("  per-tweet stance:", dict(pred.stance[:4]), "...")
