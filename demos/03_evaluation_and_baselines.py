"""Leave-one-event-out evaluation against the baselines.

Each fold holds out every thread of one event, trains on the rest, and
predicts the held-out threads. Folds are pooled by concatenating
predictions before computing accuracy and macro-F over the fixed
three-class veracity set. Compared here: the majority-class baseline, a
linear bag-of-words classifier with URL/hashtag flags and reply-stance
proportions, and the multi-task LSTM.

Run:  python3 demos/03_evaluation_and_baselines.py   (about a minute)
"""

from rumourmtl.baselines import majority_fit, majority_predict, nile_fit, nile_predict
from rumourmtl.corpus import VERACITY_CLASSES, GeneratorSpec, generate_synthetic
from rumourmtl.evaluation import emit_report, loeo_evaluate
from rumourmtl.mtl import (HyperParams, MTLModel, build_forest, build_instances, predict_threads,
                           train)
from rumourmtl.text import hash_embeddings

corpus = generate_synthetic(GeneratorSpec(events=4, threads_per_event=30, coupling=1.0), seed=3)
table = hash_embeddings(dimension=32, seed=0)
hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=32,
                 lstm_width=24, dropout=0.5, epochs=40, learning_rate=3e-3)

# -- trainer factories: (train corpus, seed, dev event) -> predictor ---------


def majority_trainer(train_corpus, seed, dev_event):
    cls = majority_fit(train_corpus)
    return lambda test: majority_predict(cls, test)


def linear_trainer(train_corpus, seed, dev_event):
    model = nile_fit(train_corpus, seed=seed)
    return lambda test: nile_predict(model, test)


def mtl_trainer(train_corpus, seed, dev_event):
    instances = build_instances(train_corpus, table)
    model = MTLModel(hp, ("veracity", "stance"), table.dimension, seed)
    train(model, instances, seed)
    return lambda test: [p.veracity
                         for p in predict_threads(model, build_forest(test.threads, table))]


# -- run all three and emit the comparison report ----------------------------

pooled = {}
folds = {}
for name, trainer in (("majority", majority_trainer),
                      ("linear-bow", linear_trainer),
                      ("mtl2-vs", mtl_trainer)):
    fold_results, pooled_metrics = loeo_evaluate(corpus, trainer, VERACITY_CLASSES, seed=0)
    pooled[name] = pooled_metrics
    folds[name] = fold_results
    print(f"{name}: macro-F {pooled_metrics.macro_f:.3f}, "
          f"accuracy {pooled_metrics.accuracy:.3f}")

_, text_report = emit_report(pooled, folds, VERACITY_CLASSES, detail_model="mtl2-vs")
print("\n" + text_report)
