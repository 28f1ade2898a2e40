import collections
import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import random_tree_thread
from rumourmtl import mtl as mtl_module
from rumourmtl import neural
from rumourmtl.corpus import (
    DETECTION_CLASSES,
    STANCE_CLASSES,
    VERACITY_CLASSES,
    Corpus,
    GeneratorSpec,
    Post,
    Thread,
    decompose_branches,
    generate_synthetic,
)
from rumourmtl.mtl import (
    MODEL_TASKS,
    Forest,
    HyperParams,
    MTLModel,
    TrainingInstance,
    _majority_vote,
    branch_accuracy,
    build_forest,
    build_instances,
    check_gradients,
    dump_predictions,
    instance_outputs,
    joint_loss,
    predict_thread,
    predict_threads,
    train,
)
from rumourmtl.neural import PROB_CLIP
from rumourmtl.search import default_space
from rumourmtl.text import (
    EMBED_BLOCK,
    EmbeddingTable,
    embed_tweet,
    embed_tweets,
    hash_embeddings,
    load_embeddings,
    preprocess,
)

MINI = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                   lstm_width=5, dropout=0.0, epochs=3, learning_rate=1e-2)
DIM = 4


def make_instance(rng, length=3, steps=3, stance=True, detection=0, veracity=1):
    mask = np.zeros(steps, dtype=bool)
    mask[:length] = True
    x = np.zeros((steps, DIM))
    x[:length] = rng.standard_normal((length, DIM))
    return TrainingInstance(
        x=x, mask=mask, true_length=length,
        stance_labels=rng.integers(0, 4, size=length) if stance else None,
        detection_label=detection, veracity_label=veracity,
        thread_id="t", event="e")


class TestBuildModel:
    def test_single_task_one_head(self):
        model = MTLModel(MINI, ("veracity",), DIM, 0)
        heads = {name.split("/")[0] for name in model.params if not name.startswith("lstm")}
        assert heads == {"veracity"}

    def test_three_heads_share_lstm(self):
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 0)
        rng = np.random.default_rng(0)
        inst = make_instance(rng)
        before = instance_outputs(model, inst)
        model.params["lstm0/Wx"][0, 0] += 0.5
        after = instance_outputs(model, inst)
        assert not np.allclose(before["veracity"], after["veracity"])
        assert not np.allclose(before["detection"], after["detection"])
        assert not np.allclose(before["stance"][:inst.true_length],
                               after["stance"][:inst.true_length])

    def test_two_lstm_layers_same_output_shape(self):
        hp = HyperParams(num_lstm_layers=2, num_dense_layers=1, dense_width=6,
                         lstm_width=5, dropout=0.0)
        model = MTLModel(hp, ("veracity",), DIM, 0)
        inst = make_instance(np.random.default_rng(1))
        out = instance_outputs(model, inst)
        assert out["veracity"].shape == (3,)

    def test_invalid_task_set(self):
        with pytest.raises(ValueError, match="veracity is required"):
            MTLModel(MINI, ("stance",), DIM, 0)

    @pytest.mark.parametrize("input_dim", [0, -6, -6.0, 8.0, "8"])
    def test_invalid_input_dim(self, input_dim):
        with pytest.raises(ValueError, match="input_dim must be a positive integer"):
            MTLModel(MINI, ("veracity",), input_dim, 0)

    def test_invalid_hp(self):
        with pytest.raises(ValueError):
            MTLModel(HyperParams(dropout=1.5), ("veracity",), DIM, 0)

    def test_search_space_holds_defaults_not_miniatures(self):
        space = default_space()
        assert not space.contains(dataclasses.asdict(MINI))
        assert space.contains(dataclasses.asdict(HyperParams()))

    def test_seed_deterministic_init(self):
        a = MTLModel(MINI, ("veracity", "stance"), DIM, 7)
        b = MTLModel(MINI, ("veracity", "stance"), DIM, 7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])


class TestJointLoss:
    def test_veracity_only_instance(self):
        rng = np.random.default_rng(2)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 3)
        inst = make_instance(rng, stance=False, detection=None, veracity=2)
        outputs = instance_outputs(model, inst)
        expected = -math.log(outputs["veracity"][2])
        assert joint_loss(outputs, inst) == pytest.approx(expected, abs=1e-15)

    def test_hand_computed_example(self):
        outputs = {"veracity": np.array([0.25, 0.75]),
                   "detection": np.array([0.5, 0.5])}
        inst = TrainingInstance(
            x=np.zeros((1, DIM)), mask=np.ones(1, dtype=bool), true_length=1,
            stance_labels=None, detection_label=0, veracity_label=1,
            thread_id="t", event="e")
        loss = joint_loss(outputs, inst)
        assert loss == pytest.approx(-math.log(0.75) - math.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.9808, abs=5e-4)

    def test_all_correct_near_zero(self):
        outputs = {"veracity": np.array([0.0, 1.0, 0.0]),
                   "detection": np.array([1.0, 0.0]),
                   "stance": np.array([[1.0, 0.0, 0.0, 0.0]])}
        inst = TrainingInstance(
            x=np.zeros((1, DIM)), mask=np.ones(1, dtype=bool), true_length=1,
            stance_labels=np.array([0]), detection_label=0, veracity_label=1,
            thread_id="t", event="e")
        assert joint_loss(outputs, inst) < 1e-10

    def test_stance_averaged_over_steps(self):
        outputs = {"stance": np.array([[0.5, 0.5, 0.0, 0.0],
                                       [0.25, 0.75, 0.0, 0.0]])}
        inst = TrainingInstance(
            x=np.zeros((2, DIM)), mask=np.ones(2, dtype=bool), true_length=2,
            stance_labels=np.array([0, 1]), detection_label=None,
            veracity_label=None, thread_id="t", event="e")
        expected = (-math.log(0.5) - math.log(0.75)) / 2
        assert joint_loss(outputs, inst) == pytest.approx(expected, abs=1e-12)


class TestMaskedLossExactness:
    def test_unlabeled_instances_add_exactly_zero_stance_loss(self):
        rng = np.random.default_rng(4)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 5)

        def summed_stance_loss(instances):
            total = 0.0
            for inst in instances:
                outputs = instance_outputs(model, inst)
                total += joint_loss({"stance": outputs["stance"]}, inst)
            return total

        base = [make_instance(rng) for _ in range(4)]
        extra = [make_instance(rng, stance=False) for _ in range(6)]
        assert summed_stance_loss(base + extra) == summed_stance_loss(base)

    def test_mtl3_equals_single_task_on_veracity_only_instance(self):
        rng = np.random.default_rng(5)
        single = MTLModel(MINI, ("veracity",), DIM, 11)
        mtl3 = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 11)
        # identical init streams: shared LSTM and veracity head coincide
        for name in single.params:
            np.testing.assert_array_equal(single.params[name], mtl3.params[name])
        inst = make_instance(rng, stance=False, detection=None)
        single_loss = joint_loss(instance_outputs(single, inst), inst)
        mtl3_loss = joint_loss(instance_outputs(mtl3, inst), inst)
        assert abs(single_loss - mtl3_loss) < 1e-12


class TestSingleLoss:
    """The loss value and its gradient come from one masked computation."""

    @staticmethod
    def mixed_batch():
        rng = np.random.default_rng(12)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 3)
        # Class 0 is almost impossible, so the last instance's gold
        # veracity probability falls below the clip.
        model.params["veracity/out/b"][0] = -60.0
        partly = dataclasses.replace(make_instance(rng, detection=None),
                                     stance_labels=np.array([2, -1, 0]))
        batch = [make_instance(rng), partly,
                 make_instance(rng, length=2, stance=False, detection=1, veracity=0)]
        return model, batch

    def test_loss_and_grads_batch_loss_and_joint_loss_agree(self):
        model, batch = self.mixed_batch()
        loss, _ = model.loss_and_grads(batch)
        assert loss == pytest.approx(model.batch_loss(batch), abs=1e-12)
        per_instance = [joint_loss(instance_outputs(model, inst), inst) for inst in batch]
        assert loss == pytest.approx(np.mean(per_instance), abs=1e-12)

        def nll(p):
            return -math.log(max(p, PROB_CLIP))

        # Reference: the per-instance loop over tasks and labeled steps.
        reference = 0.0
        for inst in batch:
            out = instance_outputs(model, inst)
            reference += nll(out["veracity"][inst.veracity_label])
            if inst.detection_label is not None:
                reference += nll(out["detection"][inst.detection_label])
            if inst.stance_labels is not None:
                reference += np.mean([nll(out["stance"][t, y])
                                      for t, y in enumerate(inst.stance_labels) if y >= 0])
        assert loss == pytest.approx(reference / len(batch), abs=1e-12)

    def test_clipped_row_gets_zero_dlogits(self):
        model, batch = self.mixed_batch()
        outputs, cache = model.forward(batch)
        assert outputs["veracity"][2, 0] <= PROB_CLIP
        _, dlogits = model.batch_data_loss(
            batch, {t: cache["heads"][t]["probs"] for t in model.tasks})
        np.testing.assert_array_equal(dlogits["veracity"][2], 0.0)
        assert np.all(dlogits["veracity"][:2] != 0.0)
        np.testing.assert_array_equal(dlogits["detection"][1], 0.0)  # unlabeled
        # stance rows: 3 + 3 valid steps, then 2 of the unlabeled instance
        np.testing.assert_array_equal(dlogits["stance"][4], 0.0)
        np.testing.assert_array_equal(dlogits["stance"][6:], 0.0)
        assert np.all(dlogits["stance"][[0, 1, 2, 3, 5]] != 0.0)


class TestHardSharing:
    def test_stance_only_step_moves_shared_but_not_veracity_head(self):
        rng = np.random.default_rng(6)
        model = MTLModel(MINI, ("veracity", "stance"), DIM, 13)
        probe = make_instance(rng)
        before = instance_outputs(model, probe)["veracity"].copy()
        stance_only = [make_instance(rng, detection=None, veracity=None)
                       for _ in range(3)]
        _, grads = model.loss_and_grads(stance_only)
        for name, g in grads.items():
            if name.startswith("veracity/"):
                np.testing.assert_array_equal(g, 0.0)
        assert any(np.any(grads[n] != 0.0) for n in grads if n.startswith("lstm"))
        for name in model.params:
            model.params[name] -= 0.05 * grads[name]
        after = instance_outputs(model, probe)["veracity"]
        assert not np.allclose(before, after)


class TestTraining:
    def corpus_instances(self, seed=0, dim=DIM):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=8), seed)
        table = hash_embeddings(dim, 0)
        return build_instances(corpus, table)

    def test_loss_decreases(self):
        instances = self.corpus_instances()
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=8,
                         lstm_width=8, dropout=0.0, epochs=15, learning_rate=5e-3)
        model = MTLModel(hp, ("veracity", "stance", "detection"), DIM, 1)
        history = train(model, instances, 1)
        assert history[-1] < history[0]

    def test_identical_seed_identical_parameters(self):
        instances = self.corpus_instances()
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                         lstm_width=5, dropout=0.5, epochs=2)
        runs = []
        for _ in range(2):
            model = MTLModel(hp, ("veracity", "stance"), DIM, 9)
            train(model, instances, 9)
            runs.append(model.params)
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_zero_dropout_bitwise_identical_loss_trajectory(self):
        instances = self.corpus_instances()
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                         lstm_width=5, dropout=0.0, epochs=3)
        histories = []
        for _ in range(2):
            model = MTLModel(hp, ("veracity", "stance", "detection"), DIM, 2)
            histories.append(train(model, instances, 2))
        assert histories[0] == histories[1]

    def test_zero_epochs_keeps_initialization(self):
        instances = self.corpus_instances()
        model = MTLModel(MINI, ("veracity",), DIM, 3)
        init = {name: p.copy() for name, p in model.params.items()}
        history = train(model, instances, 3, epochs=0)
        assert history == []
        for name in init:
            np.testing.assert_array_equal(model.params[name], init[name])

    def test_requires_veracity_label(self):
        rng = np.random.default_rng(7)
        instances = [make_instance(rng, veracity=None, detection=None)]
        model = MTLModel(MINI, ("veracity", "stance"), DIM, 0)
        with pytest.raises(ValueError, match="veracity-labeled"):
            train(model, instances, 0)

    def test_non_finite_loss_names_epoch_and_batch(self):
        rng = np.random.default_rng(7)
        instances = [make_instance(rng) for _ in range(4)]
        x = instances[1].x.copy()
        x[0] = [np.inf, -np.inf, np.inf, -np.inf]
        instances[1] = dataclasses.replace(instances[1], x=x)
        model = MTLModel(dataclasses.replace(MINI, batch_size=len(instances)),
                         ("veracity", "stance", "detection"), DIM, 0)
        with pytest.raises(FloatingPointError, match="non-finite loss at epoch 0, batch 0"):
            train(model, instances, 0)

    def test_single_task_and_stripped_mtl3_share_veracity_trajectory(self):
        instances = self.corpus_instances()
        stripped = [dataclasses.replace(i, stance_labels=None, detection_label=None)
                    for i in instances]
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=6,
                         lstm_width=5, dropout=0.0, epochs=3, l2=0.0)
        single = MTLModel(hp, ("veracity",), DIM, 21)
        mtl3 = MTLModel(hp, ("veracity", "stance", "detection"), DIM, 21)
        h1 = train(single, stripped, 21)
        h2 = train(mtl3, stripped, 21)
        assert h1 == h2
        for name in single.params:
            np.testing.assert_array_equal(single.params[name], mtl3.params[name])

    def test_train_matches_l2_reference_loop(self):
        """``train`` against a written-out loop over the same shuffles and
        dropout draws: each batch's data loss plus ``l2_penalty`` of the
        parameters before the step, ``add_l2_grads``, then the step, block
        by block. In the second shape, blocks of ``neural.SLAB`` or more
        elements (``lstm0/Wx`` and ``Wh``, each head's ``dense0/W``) stand
        between runs of small blocks, so ``train`` steps both kinds of slab."""
        shapes = [
            (DIM, HyperParams(num_dense_layers=1, num_lstm_layers=2, dense_width=6,
                              lstm_width=5, dropout=0.5, epochs=3, batch_size=8, l2=1e-3)),
            (64, HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=256,
                             lstm_width=256, dropout=0.5, epochs=2, batch_size=8, l2=1e-3)),
        ]
        for dim, hp in shapes:
            params = self.check_l2_reference_loop(self.corpus_instances(dim=dim), hp, dim)
        # The large blocks stayed as they were; the small ones after them share a buffer.
        assert params["lstm0/Wx"].size == neural.SLAB and params["lstm0/Wx"].base is None
        assert params["veracity/dense0/b"].base is params["veracity/out/b"].base is not None

    @staticmethod
    def check_l2_reference_loop(instances, hp, dim):
        """``train``'s parameters, after checking them against the loop."""
        tasks = ("veracity", "stance", "detection")
        model = MTLModel(hp, tasks, dim, 5)
        history = train(model, instances, 5)

        ref = MTLModel(hp, tasks, dim, 5)
        rng_shuffle = mtl_module.derive_rng(5, "shuffle")
        rng_dropout = mtl_module.derive_rng(5, "dropout")
        state = neural.optimizer_init(ref.params, lr=hp.learning_rate)
        ref_history = []
        for _ in range(hp.epochs):
            perm = rng_shuffle.permutation(len(instances))
            losses = []
            for start in range(0, len(instances), hp.batch_size):
                batch = [instances[i] for i in perm[start:start + hp.batch_size]]
                loss, grads = ref.loss_and_grads(batch, dropout_rng=rng_dropout)
                loss += neural.l2_penalty(ref.params, hp.l2)
                neural.add_l2_grads(ref.params, grads, hp.l2)
                neural.optimizer_step(ref.params, grads, state)
                losses.append(loss)
            ref_history.append(float(np.mean(losses)))
        for name in ref.params:
            assert np.array_equal(model.params[name], ref.params[name]), name
        assert history == ref_history
        return model.params


class TestPaddingInvariance:
    """Padding past a batch's longest branch changes nothing, to the bit."""

    def test_extra_padding_bit_identical(self):
        """Built instances, which refer to rows of one shared table, against
        hand-built copies of them padded with zero rows and ``False`` mask
        cells to four steps past the longest branch."""
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=5), 3)
        table = hash_embeddings(DIM, 0)
        tight = build_instances(corpus, table)
        T = max(inst.true_length for inst in tight) + 4
        padded = []
        for inst in tight:
            x = np.zeros((T, DIM), np.float32)
            x[:inst.true_length] = inst.x[inst.rows]
            padded.append(dataclasses.replace(inst, x=x, mask=np.arange(T) < inst.true_length,
                                              rows=None))
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=2, dense_width=6,
                         lstm_width=5, dropout=0.5, epochs=2, batch_size=8)
        tasks = ("veracity", "stance", "detection")
        results = []
        for instances in (tight, padded):
            model = MTLModel(hp, tasks, DIM, 4)
            loss, grads = model.loss_and_grads(
                instances[:8], dropout_rng=np.random.default_rng(0))
            history = train(model, instances, 4)
            results.append((loss, grads, history, model.params))
        (loss_a, grads_a, hist_a, params_a), (loss_b, grads_b, hist_b, params_b) = results
        assert loss_a == loss_b and hist_a == hist_b
        for name in params_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])
            np.testing.assert_array_equal(params_a[name], params_b[name])

    def test_padding_below_longest_branch_refused(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=3), 3)
        with pytest.raises(ValueError, match="pad_to 1"):
            build_instances(corpus, hash_embeddings(DIM, 0), pad_to=1)


def masked_layer_loss_and_grads(model, batch, dropout_rng):
    """``loss_and_grads`` composed of the masked-batch layer API: every LSTM
    layer on the padded (B, T, h) layout (``neural.lstm_forward`` and
    ``lstm_backward``), stance read at ``np.nonzero(mask)`` and the thread
    tasks at each row's last valid step, and the head gradients scattered
    into the layout by ``np.add.at``."""
    hp, params = model.hp, model.params

    def layer(prefix, keys):
        return {k: params[f"{prefix}/{k}"] for k in keys}

    T = max(inst.true_length for inst in batch)
    x = np.zeros((len(batch), T, batch[0].x.shape[1]), batch[0].x.dtype)
    for row, inst in zip(x, batch):
        row[:inst.true_length] = inst.x[inst.rows]
    mask = np.arange(T) < np.array([[inst.true_length] for inst in batch])
    caches, H = [], x
    for l in range(hp.num_lstm_layers):
        H, cache = neural.lstm_forward(layer(f"lstm{l}", ("Wx", "Wh", "b")), H, mask)
        caches.append(cache)
    probs, heads = {}, {}
    for task in model.tasks:
        rows = (np.nonzero(mask) if task == "stance"
                else (np.arange(len(batch)), mask.sum(axis=1) - 1))
        a, dense = H[rows], []
        for i in range(hp.num_dense_layers):
            a, dc = neural.dense_forward(layer(f"{task}/dense{i}", ("W", "b")), a)
            dense.append(dc)
        a_drop, dmask = neural.dropout_forward(a, hp.dropout, rng=dropout_rng)
        probs[task] = neural.softmax(a_drop @ params[f"{task}/out/W"] + params[f"{task}/out/b"])
        heads[task] = rows, dense, a_drop, dmask
    loss, dlogits = model.batch_data_loss(batch, probs)
    dH, grads = np.zeros_like(H), {}
    for task in model.tasks:
        rows, dense, a_drop, dmask = heads[task]
        grads[f"{task}/out/W"] = a_drop.T @ dlogits[task]
        grads[f"{task}/out/b"] = dlogits[task].sum(axis=0)
        d_a = neural.dropout_backward(dlogits[task] @ params[f"{task}/out/W"].T, dmask)
        for i in reversed(range(hp.num_dense_layers)):
            d_a, g = neural.dense_backward(layer(f"{task}/dense{i}", ("W", "b")), dense[i], d_a)
            grads.update({f"{task}/dense{i}/{k}": v for k, v in g.items()})
        np.add.at(dH, rows, d_a)
    for l in reversed(range(hp.num_lstm_layers)):
        dH, g = neural.lstm_backward(layer(f"lstm{l}", ("Wx", "Wh", "b")), caches[l], dH,
                                     input_grad=l > 0)
        grads.update({f"lstm{l}/{k}": v for k, v in g.items()})
    return loss, grads


class TestNodeForwardMatchesMaskedLayers:
    """The model runs batches as node tables; the masked-batch layers give
    the same loss and gradients, array for array."""

    def test_two_layer_mtl3_with_dropout(self):
        rng = np.random.default_rng(21)
        hp = HyperParams(num_dense_layers=2, num_lstm_layers=2, dense_width=6,
                         lstm_width=5, dropout=0.5)
        model = MTLModel(hp, ("veracity", "stance", "detection"), DIM, 8)
        # Double, as the inputs and the reference's softmax are.
        model.params = {name: p.astype(np.float64) for name, p in model.params.items()}
        T = 5
        batch = [make_instance(rng, length=n, steps=T, veracity=n % 3) for n in range(1, T + 1)]
        batch[1] = make_instance(rng, length=2, steps=T, stance=False)
        batch[3] = make_instance(rng, length=4, steps=T, detection=None)
        loss, grads = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(4))
        ref_loss, ref_grads = masked_layer_loss_and_grads(model, batch, np.random.default_rng(4))
        assert loss == ref_loss
        assert grads.keys() == ref_grads.keys() == model.params.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestMajorityVote:
    def probs(self, rows):
        return np.array(rows)

    def test_strict_majority(self):
        classes = ("false", "true", "unverified")
        p = self.probs([[0.1, 0.8, 0.1], [0.2, 0.7, 0.1], [0.9, 0.05, 0.05]])
        assert _majority_vote(p, classes)[0] == "true"

    def test_single_branch(self):
        classes = ("false", "true", "unverified")
        assert _majority_vote(self.probs([[0.2, 0.1, 0.7]]), classes)[0] == "unverified"

    def test_tie_break_by_summed_probability(self):
        classes = ("false", "true", "unverified")
        p = self.probs([[0.1, 0.7, 0.2], [0.6, 0.3, 0.1]])  # votes true, false
        # summed: false 0.7, true 1.0 -> true wins
        assert _majority_vote(p, classes)[0] == "true"

    def test_tie_break_alphabetical_last(self):
        classes = ("false", "true", "unverified")
        p = self.probs([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0]])  # equal counts and sums
        assert _majority_vote(p, classes)[0] == "false"

    def test_permutation_invariance(self):
        classes = ("false", "true", "unverified")
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3), size=5)
            base = _majority_vote(p, classes)[0]
            perm = rng.permutation(5)
            assert _majority_vote(p[perm], classes)[0] == base


class TestPredictThread:
    def test_prediction_covers_all_posts(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=3), 4)
        thread = corpus.threads[0]
        table = hash_embeddings(DIM, 0)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 1)
        pred = predict_thread(model, thread, table)
        assert pred.veracity in ("false", "true", "unverified")
        assert pred.detection in ("non-rumour", "rumour")
        assert {pid for pid, _ in pred.stance} == {p.id for p in thread.posts}

    @pytest.mark.parametrize("max_branch_len", [25, 3])
    def test_stance_from_first_branch_containing_post(self, max_branch_len):
        # Branches p0-p1-p2-p3, p0-p1-p2-p4, p0-p1-p5 and p0-p6 share
        # prefixes; cut to 3 steps, the first two become duplicates.
        parents = {"p1": "p0", "p2": "p1", "p3": "p2", "p4": "p2", "p5": "p1", "p6": "p0"}
        words = iter(["bravo", "charlie", "delta", "echo", "foxtrot", "golf"])
        thread = Thread(Post("p0", "alpha"),
                        tuple(Post(pid, next(words), parent_id=parent)
                              for pid, parent in parents.items()),
                        event="e", detection_label="rumour", veracity_label="true")
        table = hash_embeddings(DIM, 0)
        model = MTLModel(MINI, ("veracity", "stance"), DIM, 6)
        model.params["stance/out/W"] *= 20.0  # spread the posts over several classes
        expected = {}
        for inst, branch in zip(build_instances(Corpus((thread,)), table, max_branch_len),
                                decompose_branches(thread, max_branch_len)):
            rows = instance_outputs(model, inst)["stance"]
            for t, pid in enumerate(branch.post_ids):
                expected.setdefault(pid, STANCE_CLASSES[int(np.argmax(rows[t]))])
        pred = predict_thread(model, thread, table, max_branch_len=max_branch_len)
        assert dict(pred.stance) == expected
        assert [pid for pid, _ in pred.stance] == sorted(expected)
        assert len(set(expected.values())) >= 3

    def test_dump_format(self, tmp_path):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=2), 4)
        table = hash_embeddings(DIM, 0)
        model = MTLModel(MINI, ("veracity",), DIM, 1)
        preds = [predict_thread(model, t, table) for t in corpus.threads]
        path = tmp_path / "preds.ndjson"
        dump_predictions(preds, path, model_name="single")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        obj = json.loads(lines[0])
        assert set(obj) == {"thread", "event", "veracity", "detection", "stance", "model"}
        assert set(obj["veracity"]) == {"pred", "probs"}
        assert obj["detection"] is None and obj["stance"] is None


WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")


def worded_trees(seed, sizes):
    """``random_tree_thread`` trees whose posts carry random words, so that
    posts at one depth differ (the generator's texts differ only in digits)."""
    rng = np.random.default_rng(seed)

    def reword(post):
        return dataclasses.replace(post, text=" ".join(rng.choice(WORDS, size=2)))

    threads = []
    for i, n_posts in enumerate(sizes):
        thread = random_tree_thread(rng, n_posts, thread_id=f"t{i}")
        threads.append(dataclasses.replace(thread, source=reword(thread.source),
                                           replies=tuple(map(reword, thread.replies))))
    return threads


def tree_heads(model, forest):
    """Eval-mode head rows over a forest, as ``predict_threads`` reads them:
    stance one row per node, the thread tasks one per branch end."""
    return model._forward(forest.x, forest.parent, forest.levels, slice(None), forest.ends)


class TestTreePass:
    SIZES = (1, 2, 6, 15, 30, 12)

    def model(self, model_name):
        hp = dataclasses.replace(MINI, num_lstm_layers=2)
        model = MTLModel(hp, MODEL_TASKS[model_name], DIM, 12)
        for name in model.params:
            if name.endswith("out/W"):
                model.params[name] *= 20.0  # spread the rows over several classes
        return model

    @pytest.mark.parametrize("max_branch_len", [25, 3])
    @pytest.mark.parametrize("model_name", ["single", "mtl2vs", "mtl3"])
    def test_matches_branch_path(self, model_name, max_branch_len):
        threads = worded_trees(8, self.SIZES)
        table = hash_embeddings(DIM, 0)
        model = self.model(model_name)
        forest = build_forest(threads, table, max_branch_len)
        tree_rows = tree_heads(model, forest)
        preds = predict_threads(model, forest)
        start = 0
        labels_seen = set()
        for k, (thread, pred) in enumerate(zip(threads, preds)):
            instances = build_instances(Corpus((thread,)), table, max_branch_len=max_branch_len)
            outputs, _ = model.forward(instances)
            branches = slice(start, start + len(instances))
            start += len(instances)
            for task, classes in (("veracity", VERACITY_CLASSES),
                                  ("detection", DETECTION_CLASSES)):
                if task not in model.tasks:
                    assert getattr(pred, task) is None
                    continue
                np.testing.assert_allclose(tree_rows[task][branches], outputs[task],
                                           rtol=0, atol=1e-12)
                label, probs = _majority_vote(outputs[task], classes)
                assert getattr(pred, task) == label
                np.testing.assert_allclose(getattr(pred, f"{task}_probs"), probs,
                                           rtol=0, atol=1e-12)
                labels_seen.add((task, label))
            if "stance" not in model.tasks:
                assert pred.stance is None
                continue
            step_ids = [pid for branch in forest.branches[forest.spans[k]]
                        for pid in branch.post_ids]
            post_rows = [forest.rows[k][pid] for pid in step_ids]
            np.testing.assert_allclose(tree_rows["stance"][post_rows], outputs["stance"],
                                       rtol=0, atol=1e-12)
            expected = {pid: STANCE_CLASSES[int(np.argmax(row))]
                        for pid, row in zip(step_ids, outputs["stance"])}
            assert pred.stance == tuple(sorted(expected.items()))
            labels_seen.update(("stance", label) for label in expected.values())
        assert start == len(forest.ends)
        assert len({label for task, label in labels_seen if task == "veracity"}) >= 2

    @pytest.mark.parametrize("max_branch_len", [25, 3])
    def test_batch_equals_alone(self, max_branch_len):
        threads = worded_trees(6, self.SIZES)
        table = hash_embeddings(DIM, 0)
        model = self.model("mtl3")
        batch = predict_threads(model, build_forest(threads, table, max_branch_len))
        for thread, together in zip(threads, batch):
            alone = predict_thread(model, thread, table, max_branch_len)
            assert (alone.thread_id, alone.veracity, alone.detection, alone.stance) == (
                together.thread_id, together.veracity, together.detection, together.stance)
            np.testing.assert_allclose(alone.veracity_probs, together.veracity_probs,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(alone.detection_probs, together.detection_probs,
                                       rtol=0, atol=1e-12)

    def test_prediction_keeps_no_layer_state(self, monkeypatch):
        """``predict_threads`` lets each LSTM layer's cache go before the next
        layer starts; ``forward`` returns one live cache per layer."""
        hp = dataclasses.replace(MINI, num_lstm_layers=3)
        model = MTLModel(hp, MODEL_TASKS["mtl3"], DIM, 12)
        real = neural.lstm_tree_forward
        gates, alive = [], []

        def lstm_tree_forward(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in gates))
            h, cache = real(*args)
            gates.append(weakref.ref(cache["ifo"]))
            return h, cache

        monkeypatch.setattr(neural, "lstm_tree_forward", lstm_tree_forward)
        predict_threads(model, build_forest(worded_trees(10, self.SIZES), hash_embeddings(DIM, 0)))
        assert alive == [0, 0, 0]
        gates.clear()
        rng = np.random.default_rng(3)
        batch = [make_instance(rng, length=int(n), steps=6) for n in rng.integers(1, 7, size=5)]
        _, cache = model.forward(batch)
        gc.collect()
        assert len(gates) == len(cache["lstm"]) == 3
        assert all(ref() is layer["ifo"] for ref, layer in zip(gates, cache["lstm"]))

    def test_forest_levels_and_parents(self):
        threads = worded_trees(7, self.SIZES)
        forest = build_forest(threads, hash_embeddings(DIM, 0), max_branch_len=3)
        assert forest.levels[0] == 0 and forest.levels[-1] == len(forest.x)
        for depth, (lo, hi) in enumerate(zip(forest.levels, forest.levels[1:])):
            parents = forest.parent[lo:hi]
            if depth == 0:
                assert (parents == -1).all() and hi - lo == len(threads)
            else:
                assert ((parents >= forest.levels[depth - 1]) & (parents < lo)).all()
        assert len(forest.x) == sum(len(rows) for rows in forest.rows)
        assert len(forest.ends) == forest.spans[-1].stop

    @staticmethod
    def vocabulary_case():
        """Threads whose posts have zero to four words, the last three of
        ``WORDS`` out of the table's vocabulary, and a star thread whose
        replies have two in-vocabulary words each, more than ``EMBED_BLOCK``
        of them."""
        rng = np.random.default_rng(8)
        table = EmbeddingTable(DIM, {w: rng.standard_normal(DIM) for w in WORDS[:5]})

        def reword(post):
            return dataclasses.replace(post, text=" ".join(rng.choice(WORDS, size=rng.integers(5))))

        threads = [dataclasses.replace(t, source=reword(t.source),
                                       replies=tuple(map(reword, t.replies)))
                   for t in worded_trees(7, TestTreePass.SIZES)]
        star = Post(id="star-p000", text="alpha")
        threads.append(Thread(source=star, event="ev", replies=tuple(
            Post(id=f"star-p{i:03d}", text="bravo foxtrot charlie", parent_id=star.id)
            for i in range(1, EMBED_BLOCK + 40))))
        return threads, table

    @pytest.mark.parametrize("max_branch_len, vocabulary",
                             [(25, False), (3, False), (25, True), (3, True)],
                             ids=["25", "3", "vocabulary-25", "vocabulary-3"])
    def test_forest_posts_branches_and_vectors(self, max_branch_len, vocabulary):
        if vocabulary:
            threads, table = self.vocabulary_case()
        else:
            threads, table = worded_trees(7, self.SIZES), hash_embeddings(DIM, 0)
        forest = build_forest(threads, table, max_branch_len)
        if vocabulary:
            known = collections.Counter(sum(t in table for t in preprocess(post.text))
                                        for post in forest.posts)
            assert known[0] > 0 and len(known) >= 4 and max(known.values()) > EMBED_BLOCK
        assert forest.branches == tuple(branch for thread in threads
                                        for branch in decompose_branches(thread, max_branch_len))
        assert len(forest.branches) == len(forest.ends) == forest.spans[-1].stop
        for branch, end in zip(forest.branches, forest.ends):
            assert forest.posts[end].id == branch.post_ids[-1]
        assert len(forest.posts) == len(forest.x)
        for thread, rows in zip(threads, forest.rows):
            post_of = {post.id: post for post in thread.posts}
            for pid, r in rows.items():
                assert forest.posts[r].id == pid and forest.posts[r] == post_of[pid]
        for r, post in enumerate(forest.posts):
            want = embed_tweet(preprocess(post.text), table).astype(np.float32)
            assert forest.x[r].tobytes() == want.tobytes()
        assert forest.threads == tuple(threads)

    @pytest.mark.parametrize("max_branch_len", [25, 3])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_select_equals_build_of_the_subset(self, max_branch_len, data):
        """``select`` of ascending thread indices gives, field for field, the
        ``build_forest`` of those threads alone."""
        sizes = data.draw(st.lists(st.integers(1, 20), min_size=1, max_size=7))
        threads = worded_trees(data.draw(st.integers(0, 1000)), sizes)
        keep = sorted(data.draw(st.sets(st.integers(0, len(threads) - 1), min_size=1)))
        table = hash_embeddings(DIM, 0)
        got = build_forest(threads, table, max_branch_len).select(keep)
        want = build_forest([threads[k] for k in keep], table, max_branch_len)
        for field in dataclasses.fields(Forest):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
            else:
                assert a == b, field

    def test_empty(self):
        forest = build_forest([], hash_embeddings(DIM, 0))
        assert predict_threads(self.model("mtl3"), forest) == []
        assert forest.x.shape == (0, DIM) and forest.levels == [0] and forest.branches == ()

    def test_non_finite_output_names_its_thread(self):
        threads = worded_trees(8, (3, 5, 4, 6))
        bad = threads[2]
        boom = Post(f"{bad.id}-boom", "boom boom", parent_id=bad.replies[-1].id)
        threads[2] = dataclasses.replace(bad, replies=(*bad.replies, boom))
        # Two huge tokens overflow the mean of one post's vectors: that post's
        # node and every branch through it turn non-finite, nothing else.
        table = EmbeddingTable(DIM, {"boom": np.array([1e308, -1e308, 1e308, -1e308]),
                                     **{w: np.full(DIM, 0.1 * i) for i, w in enumerate(WORDS)}})
        model = self.model("mtl3")
        predict_threads(model, build_forest(threads[:2] + threads[3:], table))
        with pytest.raises(FloatingPointError, match=f"thread {bad.id}: non-finite"):
            predict_threads(model, build_forest(threads, table))

    # Each poisoned head and thread: stance NaNs one node of the thread,
    # veracity every branch row of it, detection its last branch row.
    @pytest.mark.parametrize("poison, named", [({"stance": 1, "veracity": 2}, 1),
                                               ({"detection": 2}, 2)])
    def test_non_finite_row_names_first_thread_across_heads(self, monkeypatch, poison, named):
        threads = worded_trees(9, (3, 4, 5))
        table = hash_embeddings(DIM, 0)
        model = self.model("mtl3")
        forest = build_forest(threads, table)
        predict_threads(model, forest)
        real = model._forward

        def poisoned_forward(*args):
            outputs = real(*args)
            for task, k in poison.items():
                rows = {"stance": max(forest.rows[k].values()),
                        "veracity": forest.spans[k],
                        "detection": forest.spans[k].stop - 1}[task]
                outputs[task][rows] = np.nan
            return outputs

        monkeypatch.setattr(model, "_forward", poisoned_forward)
        with pytest.raises(FloatingPointError, match=f"thread {threads[named].id}: non-finite"):
            predict_threads(model, forest)


class TestInstances:
    def test_thread_labels_replicated_to_branches(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=4), 6)
        table = hash_embeddings(DIM, 0)
        instances = build_instances(corpus, table)
        by_thread = {}
        for inst in instances:
            by_thread.setdefault(inst.thread_id, []).append(inst)
        for thread in corpus.threads:
            insts = by_thread[thread.id]
            for inst in insts:
                if thread.veracity_label is None:
                    assert inst.veracity_label is None
                else:
                    assert inst.veracity_label is not None
                assert inst.detection_label is not None

    def test_each_post_embedded_once(self, monkeypatch):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=4), 6)
        table = hash_embeddings(DIM, 0)
        embedded = []

        def counting_embed(token_lists, table):
            embedded.extend(token_lists)
            return embed_tweets(token_lists, table)

        reference = per_branch_instances(corpus, table, 25, None)
        monkeypatch.setattr(mtl_module, "embed_tweets", counting_embed)
        instances = build_instances(corpus, table)
        n_posts = sum(len(t.posts) for t in corpus.threads)
        assert len(embedded) == n_posts < sum(inst.true_length for inst in instances)
        assert len(instances) == len(reference)
        for inst, (x, _, n, *_) in zip(instances, reference):
            assert inst.x[inst.rows].tobytes() == x[:n].astype(np.float32).tobytes()
        embedded.clear()
        model = MTLModel(MINI, ("veracity",), DIM, 1)
        predict_thread(model, corpus.threads[0], table)
        assert len(embedded) == len(corpus.threads[0].posts)

    def test_empty_corpus(self):
        assert build_instances(Corpus(()), hash_embeddings(DIM, 0)) == []

    def test_inputs_held_once_in_float32(self):
        """The instances' inputs take no more than the node table in float32:
        each distinct array they hold counts once, a view as its base."""
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=6), 6)
        table = hash_embeddings(DIM, 0)
        instances = build_instances(corpus, table, pad_to=20)
        held = {}
        for inst in instances:
            array = inst.x if inst.x.base is None else inst.x.base
            held[id(array)] = array
        nodes = len(build_forest(corpus.threads, table).posts)
        assert sum(inst.true_length for inst in instances) > nodes
        assert sum(a.nbytes for a in held.values()) <= nodes * DIM * 4
        assert {a.dtype for a in held.values()} == {inst.x.dtype for inst in instances} == {
            np.dtype(np.float32)}

    def test_stance_alignment(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=4), 6)
        instances = build_instances(corpus, hash_embeddings(DIM, 0))
        for inst in instances:
            if inst.stance_labels is not None:
                assert len(inst.stance_labels) == inst.true_length


def labelled_trees(seed, sizes):
    """``worded_trees`` with random stance labels (None for about a third of
    the posts, every post of some threads) and mixed thread labels."""
    rng = np.random.default_rng(seed)
    threads = []
    for i, thread in enumerate(worded_trees(seed, sizes)):
        def label(post, none_share=(1.0 if i % 3 == 2 else 0.35)):
            stance = None if rng.random() < none_share else str(rng.choice(STANCE_CLASSES))
            return dataclasses.replace(post, stance_label=stance)

        rumour = i % 4 != 3
        threads.append(dataclasses.replace(
            thread, source=label(thread.source), replies=tuple(map(label, thread.replies)),
            detection_label="rumour" if rumour else "non-rumour",
            veracity_label=VERACITY_CLASSES[i % 3] if rumour else None))
    return threads


def per_branch_instances(corpus, table, max_branch_len, pad_to):
    """Reference ``build_instances``: every step of every branch embeds its post."""
    per_thread = [(thread, decompose_branches(thread, max_len=max_branch_len))
                  for thread in corpus.threads]
    T = pad_to or max(len(b) for _, branches in per_thread for b in branches)
    rows = []
    for thread, branches in per_thread:
        posts = {p.id: p for p in thread.posts}
        for branch in branches:
            x = np.zeros((T, table.dimension))
            for t, pid in enumerate(branch.post_ids):
                x[t] = embed_tweet(preprocess(posts[pid].text), table)
            stances = np.array([-1 if posts[pid].stance_label is None
                                else STANCE_CLASSES.index(posts[pid].stance_label)
                                for pid in branch.post_ids])
            labels = (
                None if thread.detection_label is None
                else DETECTION_CLASSES.index(thread.detection_label),
                None if thread.veracity_label is None
                else VERACITY_CLASSES.index(thread.veracity_label))
            rows.append((x, np.arange(T) < len(branch), len(branch),
                         stances if (stances >= 0).any() else None, labels,
                         thread.id, thread.event, branch.post_ids))
    return rows


class TestInstancesMatchPerBranch:
    SIZES = (1, 2, 6, 15, 30, 12, 9, 4)

    def assert_matches(self, corpus, table, max_branch_len=25, pad_to=None):
        got = build_instances(corpus, table, max_branch_len=max_branch_len, pad_to=pad_to)
        want = per_branch_instances(corpus, table, max_branch_len, pad_to)
        posts = build_forest(corpus.threads, table, max_branch_len).posts
        assert len(got) == len(want)
        for inst, (x, _, n, stances, labels, thread_id, event, post_ids) in zip(got, want):
            assert inst.true_length == len(inst.rows) == n
            assert inst.x[inst.rows].tobytes() == x[:n].astype(np.float32).tobytes()
            if stances is None:
                assert inst.stance_labels is None
            else:
                assert inst.stance_labels.dtype == stances.dtype
                np.testing.assert_array_equal(inst.stance_labels, stances)
            assert (inst.detection_label, inst.veracity_label) == labels
            assert (inst.thread_id, inst.event) == (thread_id, event)
            assert tuple(posts[r].id for r in inst.rows) == post_ids
        return got

    @pytest.mark.parametrize("max_branch_len, pad_to", [(25, None), (3, None), (25, 40)])
    def test_random_trees(self, max_branch_len, pad_to):
        corpus = Corpus(tuple(labelled_trees(5, self.SIZES)))
        got = self.assert_matches(corpus, hash_embeddings(DIM, 3), max_branch_len, pad_to)
        assert any(inst.stance_labels is None for inst in got)
        assert any(inst.stance_labels is not None and (inst.stance_labels < 0).any()
                   for inst in got)

    def test_loaded_table_missing_tokens(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("".join(f"{w} " + " ".join(f"{0.25 * i - 0.5 * j:g}" for j in range(DIM))
                                + "\n" for i, w in enumerate(WORDS[::2])))
        table = load_embeddings(path)
        corpus = Corpus(tuple(labelled_trees(6, self.SIZES)))
        got = self.assert_matches(corpus, table)
        self.assert_matches(corpus, table, max_branch_len=3, pad_to=9)
        zero_steps = sum(int((~inst.x[inst.rows].any(axis=1)).sum()) for inst in got)
        assert zero_steps > 0


class TestGradientCheck:
    def test_miniature_mtl3_passes(self):
        hp = HyperParams(num_dense_layers=2, num_lstm_layers=1, dense_width=4,
                         lstm_width=4, dropout=0.5)
        report = check_gradients(hp, ("veracity", "stance", "detection"), 3, seed=0)
        assert max(report.values()) < 1e-4

    def test_with_dropout_masks_replayed(self):
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=2, dense_width=4,
                         lstm_width=4, dropout=0.5)
        report = check_gradients(hp, ("veracity", "stance"), 3, seed=1,
                                 with_dropout=True)
        assert max(report.values()) < 1e-4

    def test_unused_head_gets_only_l2_gradient(self):
        rng = np.random.default_rng(9)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 2)
        inst = make_instance(rng, stance=False, detection=None)
        _, grads = model.loss_and_grads([inst])
        for name, g in grads.items():
            if name.startswith(("stance/", "detection/")):
                np.testing.assert_array_equal(g, 0.0)


class TestPrecision:
    """Models compute in float32; the softmax, the loss and the gradient
    oracles in float64."""

    LAYERS = ("lstm_tree_forward", "lstm_tree_backward", "dense_forward", "dense_backward",
              "dropout_forward", "dropout_backward")

    @staticmethod
    def float_dtypes(value):
        """The dtype of every float array in ``value``, through its tuples,
        lists and dicts."""
        if isinstance(value, np.ndarray):
            return {value.dtype} if value.dtype.kind == "f" else set()
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return set().union(*map(TestPrecision.float_dtypes, value))
        return set()

    def test_layers_gradients_and_optimizer_state_are_float32(self, monkeypatch):
        returned = {name: [] for name in self.LAYERS}
        for name in self.LAYERS:
            def recorded(*args, _layer=getattr(neural, name), _out=returned[name], **kwargs):
                _out.append(_layer(*args, **kwargs))
                return _out[-1]
            monkeypatch.setattr(neural, name, recorded)
        hp = HyperParams(num_dense_layers=2, num_lstm_layers=2, dense_width=6, lstm_width=5,
                         dropout=0.5)
        model = MTLModel(hp, ("veracity", "stance", "detection"), DIM, 3)
        rng = np.random.default_rng(5)
        batch = [make_instance(rng, length=n, steps=4, veracity=n % 3) for n in range(1, 5)]
        _, grads = model.loss_and_grads(batch, dropout_rng=np.random.default_rng(6))
        state = neural.optimizer_init(model.params)
        neural.add_l2_grads(model.params, grads, 1e-3)
        neural.optimizer_step(model.params, grads, state)
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=2), 4)
        predict_threads(model, build_forest(corpus.threads, hash_embeddings(DIM, 0)))
        for name, outputs in returned.items():
            assert outputs and self.float_dtypes(outputs) == {np.dtype(np.float32)}, name
        for arrays in (grads, state.m, state.v, model.params):
            assert self.float_dtypes(arrays) == {np.dtype(np.float32)}

    def test_thread_probabilities_sum_to_one(self):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=5), 7)
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 4)
        model.params["veracity/out/W"] *= 30.0  # far from uniform
        assert model.dtype == np.float32
        for pred in predict_threads(model, build_forest(corpus.threads, hash_embeddings(DIM, 0))):
            for probs in (pred.veracity_probs, pred.detection_probs):
                assert probs.dtype == np.float64
                assert abs(probs.sum() - 1.0) < 1e-9

    def test_check_gradients_runs_in_double(self, monkeypatch):
        seen, grad_check = [], neural.grad_check

        def recorded(loss_fn, params, analytic, eps):
            seen.append(self.float_dtypes([params, analytic]))
            return grad_check(loss_fn, params, analytic, eps)
        monkeypatch.setattr(neural, "grad_check", recorded)
        hp = HyperParams(num_dense_layers=1, num_lstm_layers=1, dense_width=3, lstm_width=3)
        report = check_gradients(hp, ("veracity",), 2, seed=0)
        assert seen == [{np.dtype(np.float64)}]
        assert max(report.values()) < 1e-6


class TestCheckpointRoundTrip:
    def test_save_load(self, tmp_path):
        model = MTLModel(MINI, ("veracity", "stance"), DIM, 17)
        path = tmp_path / "m.json"
        model.save(path)
        loaded = MTLModel.load(path)
        assert loaded.tasks == model.tasks
        assert loaded.hp == model.hp
        for name in model.params:
            assert loaded.params[name].dtype == model.params[name].dtype == np.float32
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_double_checkpoint_loads_rounded_to_float32(self, tmp_path):
        model = MTLModel(MINI, ("veracity",), DIM, 17)
        double = {name: p.astype(np.float64) + 1e-9 for name, p in model.params.items()}
        model.params = double
        path = tmp_path / "m.json"
        model.save(path)
        loaded = MTLModel.load(path)
        for name, p in double.items():
            assert np.array_equal(loaded.params[name], p.astype(np.float32)), name

    def tampered_checkpoint(self, tmp_path, edit):
        path = tmp_path / "m.json"
        MTLModel(MINI, ("veracity",), DIM, 17).save(path)
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        return path

    def test_missing_block_rejected(self, tmp_path):
        path = self.tampered_checkpoint(tmp_path, lambda p: p.pop("veracity/out/b"))
        with pytest.raises(ValueError, match="missing parameter block 'veracity/out/b'"):
            MTLModel.load(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = self.tampered_checkpoint(tmp_path, lambda p: p.update(
            {"veracity/out/b": {"shape": [1], "data": [0.0]}}))
        with pytest.raises(ValueError, match="shape mismatch in block 'veracity/out/b'"):
            MTLModel.load(path)

    def test_unknown_block_rejected(self, tmp_path):
        path = self.tampered_checkpoint(tmp_path, lambda p: p.update(
            {"bogus/W": {"shape": [1], "data": [0.0]}}))
        with pytest.raises(ValueError, match="unknown parameter block 'bogus/W'"):
            MTLModel.load(path)

    def test_branch_accuracy_hand_computed(self):
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 0)
        # Zero output weights: every row predicts the argmax of its bias.
        for task, favoured in (("veracity", 1), ("stance", 2), ("detection", 0)):
            model.params[f"{task}/out/W"][:] = 0.0
            model.params[f"{task}/out/b"][favoured] = 1.0
        rng = np.random.default_rng(11)
        instances = [
            dataclasses.replace(make_instance(rng, detection=0, veracity=1),
                                stance_labels=np.array([2, 0, 2])),
            dataclasses.replace(make_instance(rng, detection=1, veracity=1),
                                stance_labels=np.array([2, -1, 1])),
            make_instance(rng, stance=False, detection=None, veracity=0),
            dataclasses.replace(make_instance(rng, length=2, detection=1, veracity=2),
                                stance_labels=np.array([-1, 0])),
        ]
        # veracity 1 of [1, 1, 0, 2]; detection 0 of [0, 1, 1];
        # stance 2 of [2, 0, 2, 2, 1, 0]
        assert branch_accuracy(model, instances) == {
            "veracity": 2 / 4, "stance": 3 / 6, "detection": 1 / 3}

    def test_branch_accuracy_runs(self):
        instances = [make_instance(np.random.default_rng(10)) for _ in range(3)]
        model = MTLModel(MINI, ("veracity", "stance", "detection"), DIM, 0)
        acc = branch_accuracy(model, instances)
        assert set(acc) == {"veracity", "stance", "detection"}
        assert all(0.0 <= v <= 1.0 for v in acc.values())
