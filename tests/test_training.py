"""Tests for splits, folds, adam, L2, and the training loop."""

import copy
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import voxcnn.models
import voxcnn.training
from helpers import ArrayDataset
from voxcnn.errors import NumericError, ValidationError
from voxcnn.kernels import softmax_xent
from voxcnn.models import build_model, forward, model_backward
from voxcnn.presets import arch_preset
from voxcnn.training import (
    LR_FACTOR,
    LR_PERIOD_EPOCHS,
    AdamState,
    SplitPlan,
    TrainConfig,
    adam_step,
    evaluate,
    init_adam_state,
    l2_term,
    lr_at_epoch,
    make_kfold,
    run_cross_validation,
    split_dataset,
    train,
)
from voxcnn.volumes import config_fields, config_from_fields, parse_json


def from_text(text):
    """TrainConfig from the JSON text of a --train-config file."""
    return config_from_fields(TrainConfig, parse_json(text, "config"),
                              "training config")


def micro_dataset(n_per_class=3, seed=0, shape=(3, 9, 9, 9)):
    """Random micro volumes with class-dependent mean shifts."""
    rng = np.random.default_rng(seed)
    examples = {}
    for c in range(3):
        for i in range(n_per_class):
            x = rng.normal(size=shape) * 0.3 + 0.4 * c
            examples[f"c{c}s{i}"] = (x, c)
    return ArrayDataset(examples)


def quick_config(**overrides):
    base = dict(epochs=2, lr0=1e-3, batch_size=4, l2_lambda=0.0,
                dropout_rate=0.0, validation_freq_iters=4, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_default_recipe_values(self):
        """The defaults and the decay constants encode the full training
        recipe."""
        c = TrainConfig()
        assert c.epochs == 1024
        assert c.lr0 == 1e-5
        assert LR_FACTOR == 0.75
        assert LR_PERIOD_EPOCHS == 256
        assert c.batch_size == 32
        assert c.l2_lambda == 0.1
        assert c.dropout_rate == 0.5
        assert c.validation_freq_iters == 128

    def test_text_round_trip(self):
        c = TrainConfig(epochs=30, lr0=1e-3, seed=7)
        assert from_text(json.dumps(config_fields(c))) == c

    def test_from_text_omitted_fields_take_defaults(self):
        c = from_text('{\n  "epochs": 12,\n  "lr0": 0.001\n}\n')
        assert c == TrainConfig(epochs=12, lr0=0.001)

    def test_from_text_rejects_unknown_key(self):
        with pytest.raises(ValidationError, match="momentum"):
            from_text('{"momentum": 0.9}')

    @pytest.mark.parametrize("key, value", [
        ("lr_factor", "0.75"), ("lr_period_epochs", "256"),
        ("adam_beta1", "0.9"), ("adam_beta2", "0.999"), ("adam_eps", "1e-8"),
    ])
    def test_from_text_rejects_recipe_constant(self, key, value):
        """The decay and adam settings are constants of the recipe, not
        config fields: naming one, even at its fixed value, is refused."""
        with pytest.raises(ValidationError,
                           match=f"unknown training config field {key!r}"):
            from_text(f'{{"{key}": {value}}}')

    def test_from_text_rejects_bad_value(self):
        with pytest.raises(ValidationError, match="epochs"):
            from_text('{"epochs": "twelve"}')

    def test_from_text_rejects_non_integral_int(self):
        with pytest.raises(ValidationError, match="epochs"):
            from_text('{"epochs": 12.5}')

    def test_invalid_settings_rejected(self):
        for kwargs in (dict(epochs=-1), dict(batch_size=0),
                       dict(dropout_rate=1.0), dict(l2_lambda=-0.1),
                       dict(lr0=0.0), dict(validation_freq_iters=0)):
            with pytest.raises(ValidationError):
                TrainConfig(**kwargs)

    @pytest.mark.parametrize("key", ["lr0", "dropout_rate", "l2_lambda"])
    def test_nonfinite_float_rejected(self, key):
        """NaN and inf are refused, also where a range check alone would
        let NaN through (`lr0 <= 0` is false for NaN)."""
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=key):
                TrainConfig(**{key: value})
        with pytest.raises(ValidationError,
                           match=f"field '{key}' must be finite"):
            from_text(f'{{"epochs": 3, "{key}": NaN}}')


class TestSplitDataset:
    def test_full_size_split_counts(self):
        """1502 subjects at 70/15/15 give 1052/225/225."""
        ids = [f"s{i}" for i in range(1502)]
        plan = split_dataset(ids)
        assert (len(plan.train_ids), len(plan.val_ids),
                len(plan.test_ids)) == (1052, 225, 225)

    def test_small_split_counts(self):
        """Floor-sized val/test leave the remainder in train."""
        plan = split_dataset([f"s{i}" for i in range(10)])
        assert (len(plan.train_ids), len(plan.val_ids),
                len(plan.test_ids)) == (8, 1, 1)

    def test_split_is_a_partition(self):
        ids = [f"s{i}" for i in range(57)]
        plan = split_dataset(ids, seed=3)
        combined = plan.train_ids + plan.val_ids + plan.test_ids
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(ids)

    def test_split_seed_determinism(self):
        ids = [f"s{i}" for i in range(30)]
        assert split_dataset(ids, seed=1) == split_dataset(ids, seed=1)
        assert split_dataset(ids, seed=1) != split_dataset(ids, seed=2)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            split_dataset(["a", "a", "b"])

    def test_overlapping_plan_rejected(self):
        with pytest.raises(ValidationError):
            SplitPlan(train_ids=("a", "b"), val_ids=("b",), test_ids=("c",))


class TestMakeKfold:
    def test_full_size_fold_sizes(self):
        """1502 samples over 5 folds differ in size by at most one."""
        ids = [f"s{i}" for i in range(1502)]
        labels = [("AD", "MCI", "CN")[i % 3] for i in range(1502)]
        plan = make_kfold(ids, labels, k=5)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [300, 300, 300, 301, 301]

    def test_folds_partition_dataset(self):
        """Every sample lands in exactly one fold."""
        ids = [f"s{i}" for i in range(47)]
        labels = [i % 3 for i in range(47)]
        plan = make_kfold(ids, labels, k=5, seed=2)
        combined = [sid for fold in plan.folds for sid in fold]
        assert sorted(combined) == sorted(ids)

    def test_folds_are_stratified(self):
        """Per-class counts across folds differ by at most one."""
        ids = [f"s{i}" for i in range(100)]
        labels = ["AD"] * 40 + ["MCI"] * 35 + ["CN"] * 25
        plan = make_kfold(ids, labels, k=5, seed=0)
        by_id = dict(zip(ids, labels))
        for cls in ("AD", "MCI", "CN"):
            counts = [sum(by_id[sid] == cls for sid in fold)
                      for fold in plan.folds]
            assert max(counts) - min(counts) <= 1

    def test_eval_and_train_ids_complement(self):
        ids = [f"s{i}" for i in range(12)]
        labels = [i % 3 for i in range(12)]
        plan = make_kfold(ids, labels, k=4)
        for i in range(plan.k):
            assert sorted(plan.eval_ids(i) + plan.train_ids(i)) == sorted(ids)

    def test_class_smaller_than_k_rejected(self):
        ids = ["a", "b", "c", "d", "e", "f"]
        labels = ["AD", "AD", "AD", "AD", "AD", "MCI"]
        with pytest.raises(ValidationError, match="MCI"):
            make_kfold(ids, labels, k=3)

    def test_kfold_seed_determinism(self):
        ids = [f"s{i}" for i in range(30)]
        labels = [i % 3 for i in range(30)]
        assert make_kfold(ids, labels, seed=5) == make_kfold(ids, labels, seed=5)


class TestLrSchedule:
    def test_schedule_anchor_values(self):
        """lr stays at 1e-5 through epoch 255 and decays by 0.75 each 256."""
        c = TrainConfig()
        assert lr_at_epoch(c, 0) == 1e-5
        assert lr_at_epoch(c, 255) == 1e-5
        assert_allclose(lr_at_epoch(c, 256), 7.5e-6, rtol=1e-15)
        assert_allclose(lr_at_epoch(c, 512), 5.625e-6, rtol=1e-15)

    def test_schedule_is_non_increasing_and_piecewise_constant(self):
        c = TrainConfig()
        values = [lr_at_epoch(c, e) for e in range(0, 1024)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert len(set(values)) == 4

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValidationError):
            lr_at_epoch(TrainConfig(), -1)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        """Fresh state and zero gradient is a no-op update."""
        params = {"a.w": np.arange(6.0).reshape(2, 3)}
        grads = {"a.w": np.zeros((2, 3))}
        state = init_adam_state(params)
        before = params["a.w"].copy()
        adam_step(params, grads, state, lr=0.1)
        assert (params["a.w"] == before).all()
        assert state.t == 1

    def test_first_step_closed_form(self):
        """At t=1 the bias-corrected update is lr*g/(|g|+eps)."""
        g = 0.37
        lr, eps = 1e-3, 1e-8
        params = {"p.w": np.array([2.0])}
        grads = {"p.w": np.array([g])}
        adam_step(params, grads, init_adam_state(params), lr=lr, eps=eps)
        expected = 2.0 - lr * g / (abs(g) + eps)
        assert_allclose(params["p.w"][0], expected, rtol=1e-12)

    def test_five_step_scalar_trajectory(self):
        """Alternating gradients reproduce a hand-iterated trajectory."""
        seq = [1.0, -1.0, 1.0, -1.0, 1.0]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        # independent scalar iteration of the update rule
        theta_ref, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(seq, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        params = {"x.w": np.array([0.5])}
        state = init_adam_state(params)
        for g in seq:
            adam_step(params, {"x.w": np.array([g])}, state, lr=lr,
                      beta1=b1, beta2=b2, eps=eps)
        assert_allclose(params["x.w"][0], theta_ref, rtol=1e-12)
        assert state.t == 5

    def test_key_mismatch_rejected(self):
        params = {"a.w": np.zeros(2)}
        with pytest.raises(ValidationError, match="keys"):
            adam_step(params, {"b.w": np.zeros(2)},
                      init_adam_state(params), lr=0.1)

    def test_nonfinite_gradient_rejected(self):
        params = {"a.w": np.zeros(2)}
        grads = {"a.w": np.array([1.0, np.nan])}
        with pytest.raises(NumericError, match="a.w"):
            adam_step(params, grads, init_adam_state(params), lr=0.1)

    @pytest.mark.parametrize("bad, error", [
        (np.array([1.0, np.nan]), NumericError),
        (np.ones(3), ValidationError),
    ], ids=["nan", "shape"])
    def test_rejected_gradient_changes_nothing(self, bad, error):
        """A gradient rejected after a good one leaves every parameter,
        moment and the step count as they were before the call."""
        params = {"a.w": np.ones(2), "b.w": np.ones(2)}
        state = init_adam_state(params)
        adam_step(params, {"a.w": np.ones(2), "b.w": np.ones(2)}, state, lr=0.1)
        before = copy.deepcopy((params, state))
        with pytest.raises(error, match="b.w"):
            adam_step(params, {"a.w": np.ones(2), "b.w": bad}, state, lr=0.1)
        for got, want in zip((params, state.m, state.v),
                             (before[0], before[1].m, before[1].v)):
            assert got.keys() == want.keys()
            for name in want:
                assert_array_equal(got[name], want[name])
        assert state.t == before[1].t == 1

    def test_l2_folds_into_gradient(self):
        """Applying l2_term's contribution equals adding lam*w by hand."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 5))
        g = rng.normal(size=(4, 5))
        lam, lr = 0.1, 1e-2
        p1 = {"a.w": w.copy()}
        _, contrib = l2_term(p1, lam)
        adam_step(p1, {"a.w": g + contrib["a.w"]}, init_adam_state(p1), lr)
        p2 = {"a.w": w.copy()}
        adam_step(p2, {"a.w": g + lam * w}, init_adam_state(p2), lr)
        assert (p1["a.w"] == p2["a.w"]).all()


class TestL2Term:
    def test_zero_lambda_is_free(self):
        penalty, contrib = l2_term({"a.w": np.ones(4)}, 0.0)
        assert penalty == 0.0
        assert contrib == {}

    def test_single_weight_example(self):
        """w = 2, lam = 0.1 gives penalty 0.2 and gradient 0.2."""
        penalty, contrib = l2_term({"a.w": np.array([2.0])}, 0.1)
        assert_allclose(penalty, 0.2, rtol=1e-15)
        assert_allclose(contrib["a.w"], [0.2], rtol=1e-15)

    def test_biases_exempt(self):
        params = {"a.w": np.full(3, 2.0), "a.b": np.full(3, 5.0)}
        penalty, contrib = l2_term(params, 0.1)
        assert set(contrib) == {"a.w"}
        assert_allclose(penalty, 0.5 * 0.1 * 12.0)

    def test_gradient_matches_finite_differences(self):
        """Central differences of the penalty match lam*w within 1e-8."""
        rng = np.random.default_rng(4)
        params = {"c.w": rng.normal(size=(3, 2)), "c.b": rng.normal(size=3)}
        lam = 0.07
        _, contrib = l2_term(params, lam)
        step = 1e-6
        for idx in ((0, 0), (1, 1), (2, 0)):
            orig = params["c.w"][idx]
            params["c.w"][idx] = orig + step
            up, _ = l2_term(params, lam)
            params["c.w"][idx] = orig - step
            down, _ = l2_term(params, lam)
            params["c.w"][idx] = orig
            assert abs((up - down) / (2 * step) - contrib["c.w"][idx]) < 1e-8

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            l2_term({"a.w": np.ones(1)}, -0.5)


class TestEvaluate:
    def test_uniform_model_statistics(self):
        """Zero weights predict class 0 everywhere with loss ln(3)."""
        model = build_model(arch_preset("alexnet3d-micro"))
        for k in model.params:
            model.params[k][...] = 0.0
        ds = micro_dataset(n_per_class=2)
        res = evaluate(model, ds, ds.ids)
        assert res.predictions == (0,) * 6
        assert_allclose(res.accuracy, 2 / 6)
        assert_allclose(res.mean_loss, np.log(3.0), rtol=1e-12)
        assert res.probs.shape == (6, 3)
        assert_allclose(res.probs.sum(axis=1), np.ones(6), atol=1e-12)

    def test_empty_id_list_rejected(self):
        model = build_model(arch_preset("alexnet3d-micro"))
        with pytest.raises(ValidationError):
            evaluate(model, micro_dataset(), ())

    def test_equals_recording_forward(self):
        """Probabilities and mean loss equal those of recording forwards bit
        for bit, so history.csv's val_loss does not depend on evaluate
        keeping no backward state."""
        model = build_model(arch_preset("googlenet3d-micro"), seed=2)
        ds = micro_dataset(n_per_class=2)
        res = evaluate(model, ds, ds.ids)
        probs, loss_sum = [], 0.0
        for sid in ds.ids:
            x, y = ds.example(sid)
            p, cache = forward(model, x, mode="eval", record="all")
            probs.append(p)
            loss_sum += softmax_xent(cache.logits, y)[1]
        assert np.array_equal(res.probs, np.stack(probs))
        assert res.mean_loss == loss_sum / len(ds.ids)

    def test_forward_lookup_sites(self, monkeypatch):
        """evaluate calls voxcnn.training.forward with record="none", and its
        pools reach voxcnn.models.maxpool3d with argmax=False: a wrapper set
        at either global sees every call, as the benchmark's tracer needs."""
        records, argmaxes = [], []
        real_forward = voxcnn.training.forward
        real_pool = voxcnn.models.maxpool3d

        def forward_spy(*args, **kwargs):
            records.append(kwargs.get("record", "all"))
            return real_forward(*args, **kwargs)

        def pool_spy(x, spec, argmax=True):
            argmaxes.append(argmax)
            return real_pool(x, spec, argmax)

        monkeypatch.setattr(voxcnn.training, "forward", forward_spy)
        monkeypatch.setattr(voxcnn.models, "maxpool3d", pool_spy)
        model = build_model(arch_preset("googlenet3d-micro"))
        ds = micro_dataset(n_per_class=1)
        evaluate(model, ds, ds.ids)
        assert records == ["none"] * 3
        assert argmaxes and not any(argmaxes)


class TestTrain:
    def test_zero_epochs_is_identity(self):
        """epochs = 0 returns unchanged parameters and no history."""
        model = build_model(arch_preset("alexnet3d-micro"), seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        ds = micro_dataset()
        plan = SplitPlan(train_ids=ds.ids[:6], val_ids=ds.ids[6:8],
                         test_ids=ds.ids[8:])
        model, history = train(model, ds, plan, quick_config(epochs=0))
        assert history.records == []
        for k in before:
            assert (model.params[k] == before[k]).all()

    def test_training_is_deterministic(self):
        """Same seed and data give bit-identical parameters and history."""
        ds = micro_dataset()
        plan = SplitPlan(train_ids=ds.ids[:6], val_ids=ds.ids[6:8],
                         test_ids=ds.ids[8:])
        outs = []
        for _ in range(2):
            model = build_model(arch_preset("alexnet3d-micro"), seed=3)
            model, history = train(model, ds, plan,
                                   quick_config(dropout_rate=0.3))
            outs.append((model.params, history.to_csv()))
        p1, h1 = outs[0]
        p2, h2 = outs[1]
        assert h1 == h2
        for k in p1:
            assert (p1[k] == p2[k]).all()

    def test_checkpoint_spacing(self):
        """Checkpoints appear exactly every validation_freq_iters steps."""
        ds = micro_dataset()
        plan = SplitPlan(train_ids=ds.ids[:8], val_ids=(ds.ids[8],),
                         test_ids=())
        config = quick_config(epochs=3, batch_size=2,
                              validation_freq_iters=2)
        model = build_model(arch_preset("alexnet3d-micro"))
        _, history = train(model, ds, plan, config)
        # 8 samples / batch 2 = 4 iterations per epoch, 12 total
        assert [r.iteration for r in history.records] == [2, 4, 6, 8, 10, 12]
        for r in history.records:
            assert np.isfinite(r.train_loss)
            assert np.isfinite(r.val_loss)
            assert 0.0 <= r.val_acc <= 1.0

    def test_empty_validation_checkpoints_are_nan(self):
        ds = micro_dataset()
        plan = SplitPlan(train_ids=ds.ids[:4], val_ids=(), test_ids=())
        config = quick_config(epochs=1, batch_size=2,
                              validation_freq_iters=1)
        model = build_model(arch_preset("alexnet3d-micro"))
        _, history = train(model, ds, plan, config)
        assert history.records
        assert all(np.isnan(r.val_loss) for r in history.records)

    def test_empty_training_split_rejected(self):
        ds = micro_dataset()
        model = build_model(arch_preset("alexnet3d-micro"))
        plan = SplitPlan(train_ids=(), val_ids=ds.ids[:2], test_ids=())
        with pytest.raises(ValidationError, match="empty"):
            train(model, ds, plan, quick_config())

    def test_nonfinite_input_aborts_with_iteration(self):
        """A numerically broken sample names the failing iteration."""
        ds = ArrayDataset({"bad": (np.full((3, 9, 9, 9), np.nan), 0),
                           "ok": (np.zeros((3, 9, 9, 9)), 1)})
        model = build_model(arch_preset("alexnet3d-micro"))
        plan = SplitPlan(train_ids=("bad", "ok"), val_ids=(), test_ids=())
        with pytest.raises((NumericError, ValidationError),
                           match="iteration 1|finite"):
            train(model, ds, plan, quick_config(epochs=1, batch_size=2))

    def test_nonfinite_gradient_names_iteration(self, monkeypatch):
        """A non-finite gradient found by adam_step names the iteration as
        well as the tensor."""
        real = voxcnn.training.model_backward

        def poisoned(model, cache, true_class):
            grads, loss = real(model, cache, true_class)
            grads["conv3.w"][0, 0, 0, 0, 0] = np.nan
            return grads, loss

        monkeypatch.setattr(voxcnn.training, "model_backward", poisoned)
        ds = micro_dataset()
        model = build_model(arch_preset("alexnet3d-micro"))
        plan = SplitPlan(train_ids=ds.ids[:2], val_ids=(), test_ids=())
        with pytest.raises(NumericError, match=r"^iteration 1: non-finite "
                                               r"gradient for 'conv3.w'$"):
            train(model, ds, plan, quick_config(epochs=1, batch_size=2))

    def test_loss_decreases_on_tiny_memorization(self):
        """A few dozen steps on 4 samples already shrink the loss."""
        rng = np.random.default_rng(9)
        examples = {f"m{i}": (rng.normal(size=(3, 9, 9, 9)) + i % 3, i % 3)
                    for i in range(4)}
        ds = ArrayDataset(examples)
        plan = SplitPlan(train_ids=ds.ids, val_ids=(), test_ids=())
        config = TrainConfig(epochs=40, lr0=1e-2, batch_size=4,
                             l2_lambda=0.0, dropout_rate=0.0,
                             validation_freq_iters=1000, seed=0)
        model = build_model(arch_preset("alexnet3d-micro"), seed=0)
        losses = []
        train(model, ds, plan, config,
              iteration_hook=lambda it, ep, loss: losses.append(loss))
        assert len(losses) == 40
        assert min(losses[-5:]) < losses[0] * 0.5

    def test_l2_gradient_is_lambda_w_on_weights(self):
        """One step with l2_lambda > 0 equals an adam step on the batch's
        mean model_backward gradients plus lam*w on every weight, biases
        exempt, and differs from the step without the L2 term."""
        ds = micro_dataset(n_per_class=1)
        plan = SplitPlan(train_ids=ds.ids[:2], val_ids=(), test_ids=())
        lam, lr = 0.1, 1e-3
        config = quick_config(epochs=1, batch_size=2, l2_lambda=lam, lr0=lr)
        model = build_model(arch_preset("alexnet3d-micro"), seed=4)
        start = {k: v.copy() for k, v in model.params.items()}
        train(model, ds, plan, config)

        by_hand = build_model(arch_preset("alexnet3d-micro"), seed=4)
        data = {}
        for sid in plan.train_ids:
            x, y = ds.example(sid)
            _, cache = forward(by_hand, x, mode="train", dropout_rate=0.0)
            grads, _ = model_backward(by_hand, cache, y)
            for name, g in grads.items():
                data[name] = data[name] + g if name in data else g
        data = {name: g * 0.5 for name, g in data.items()}
        with_l2 = {name: g + lam * start[name] if name.endswith(".w") else g
                   for name, g in data.items()}
        adam_step(by_hand.params, with_l2, init_adam_state(start), lr)
        for name in start:
            assert_array_equal(model.params[name], by_hand.params[name])

        without = {k: v.copy() for k, v in start.items()}
        adam_step(without, data, init_adam_state(start), lr)
        changed = [name for name in start
                   if not np.array_equal(without[name], model.params[name])]
        assert changed and all(name.endswith(".w") for name in changed)

    def test_nonfinite_loss_is_numeric_error(self):
        """A weight whose square overflows, behind a ReLU that zeroes its
        input, leaves the forward and the gradients finite; the L2 penalty
        is inf, and train reports it as the loss, with no warning first."""
        ds = micro_dataset(n_per_class=1)
        plan = SplitPlan(train_ids=ds.ids[:2], val_ids=(), test_ids=())
        model = build_model(arch_preset("alexnet3d-micro"))
        model.params["fc1.b"][...] = -1e3
        model.params["fc2.w"][0, 0] = 1e200
        with pytest.raises(NumericError,
                           match="^iteration 1: non-finite loss$"):
            train(model, ds, plan,
                  quick_config(epochs=1, batch_size=2, l2_lambda=0.1))

    def test_iteration_hook_sees_every_step(self):
        ds = micro_dataset()
        plan = SplitPlan(train_ids=ds.ids[:6], val_ids=(), test_ids=())
        seen = []
        model = build_model(arch_preset("alexnet3d-micro"))
        train(model, ds, plan, quick_config(epochs=2, batch_size=3),
              iteration_hook=lambda it, ep, loss: seen.append((it, ep)))
        assert seen == [(1, 0), (2, 0), (3, 1), (4, 1)]


class TestCrossValidation:
    def _tiny_setup(self):
        ds = micro_dataset(n_per_class=3, seed=1)
        labels = [int(sid[1]) for sid in ds.ids]
        fold_plan = make_kfold(ds.ids, labels, k=3, seed=0)
        arch = arch_preset("alexnet3d-micro")
        config = quick_config(epochs=1, batch_size=3)
        return ds, fold_plan, arch, config

    def test_returns_one_result_per_fold(self):
        ds, fold_plan, arch, config = self._tiny_setup()
        results = run_cross_validation(ds, fold_plan, arch, config)
        assert [r.fold_index for r in results] == [0, 1, 2]
        assert all(r.n_eval == 3 for r in results)
        assert all(0.0 <= r.accuracy <= 1.0 for r in results)
        assert all(r.confusion.sum() == r.n_eval for r in results)

    def test_each_sample_evaluated_exactly_once(self):
        ds, fold_plan, arch, config = self._tiny_setup()
        evaluated = [sid for i in range(fold_plan.k)
                     for sid in fold_plan.eval_ids(i)]
        assert sorted(evaluated) == sorted(ds.ids)

    def test_parallel_folds_match_serial(self):
        """Worker count does not change fold results."""
        ds, fold_plan, arch, config = self._tiny_setup()
        serial = run_cross_validation(ds, fold_plan, arch, config, workers=1)
        parallel = run_cross_validation(ds, fold_plan, arch, config, workers=3)
        for a, b in zip(serial, parallel):
            assert a.fold_index == b.fold_index
            assert (a.confusion == b.confusion).all()
            assert a.accuracy == b.accuracy


class TestHistoryCsv:
    def test_csv_shape(self):
        from voxcnn.training import HistoryRecord, TrainHistory
        h = TrainHistory(records=[HistoryRecord(1, 0, 1e-5, 1.0, 2.0, 0.5)])
        text = h.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,epoch,lr,train_loss,val_loss,val_acc"
        assert lines[1].startswith("1,0,1e-05,")

    def test_numpy_scalars_render_as_plain_floats(self):
        """Records built from numpy scalars must not leak type wrappers
        into the csv text."""
        from voxcnn.training import HistoryRecord, TrainHistory
        h = TrainHistory(records=[HistoryRecord(
            1, 0, np.float64(1e-5), np.float64(0.25), np.float64(0.5),
            np.float64(0.75))])
        text = h.to_csv()
        assert "np.float64" not in text
        for cell in text.strip().split("\n")[1].split(","):
            float(cell)


# (id, call, message of its ValidationError): one row per guard of the
# split and fold builders that no test above reaches
GUARDS = [
    ("split-size", lambda: split_dataset(["a", "b"]),
     "need at least 3 ids to split"),
    ("kfold-labels", lambda: make_kfold(["a", "b"], ["AD"], k=2),
     "ids and labels must have equal length"),
    ("kfold-unique", lambda: make_kfold(["a", "a", "b"], [0, 0, 1], k=2),
     "dataset ids must be unique"),
    ("kfold-k", lambda: make_kfold(["a", "b"], [0, 1], k=1),
     "k must be at least 2"),
    ("kfold-size", lambda: make_kfold(["a", "b"], [0, 1], k=3),
     "k=3 exceeds dataset size 2"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in GUARDS])
def test_guard_refuses(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
