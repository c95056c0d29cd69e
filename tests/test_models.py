"""Tests for architecture builders, whole-model execution, and model files."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import voxcnn.models
from voxcnn.errors import NumericError, ValidationError
from voxcnn.kernels import ConvSpec, PoolSpec, conv3d, maxpool3d, softmax_xent
from voxcnn.models import (
    AlexNetConfig,
    ConvLayer,
    DenseLayer,
    FlattenLayer,
    GoogleNetConfig,
    InceptionLayer,
    InceptionSpec,
    Model,
    PoolLayer,
    ReluLayer,
    SoftmaxLayer,
    VggConfig,
    backpropagate,
    build_layers,
    build_model,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    count_parameters,
    forward,
    infer_shapes,
    layer_census,
    load_model,
    load_model_file,
    model_backward,
    parameter_shapes,
    save_model,
    save_model_file,
)
from voxcnn.presets import arch_preset
from voxcnn.volumes import VolumeRecord, read_volume, write_volume

# Sizing targets for the full-size networks at 3x157x189x156 input, and the
# exact counts the default width tables produce.
SIZING_TARGETS = {
    "alexnet3d": 16_800_000,
    "vgg16-3d": 46_200_000,
    "googlenet3d": 11_100_000,
}
EXACT_COUNTS = {
    "alexnet3d": 16_406_147,
    "vgg16-3d": 46_594_403,
    "googlenet3d": 10_962_595,
}
FULL_CONFIGS = {
    "alexnet3d": AlexNetConfig,
    "vgg16-3d": VggConfig,
    "googlenet3d": GoogleNetConfig,
}
MICRO_PRESETS = ("alexnet3d-micro", "vgg16-3d-micro", "googlenet3d-micro")


def micro_model(name, seed=0):
    return build_model(arch_preset(name), seed=seed)


def manual_inception(layer, x, params):
    """Recompose an inception module from bare kernel calls."""
    cin = layer.in_channels
    s = layer.spec
    pool = PoolSpec((3, 3, 3), (1, 1, 1), (1, 1, 1))

    def conv_relu(tag, inp, spec):
        out, _ = conv3d(inp, params[f"{layer.name}.{tag}.w"],
                        params[f"{layer.name}.{tag}.b"], spec)
        return np.maximum(out, 0.0)

    b1 = conv_relu("b1", x, ConvSpec(cin, s.branch1, 1))
    b2 = conv_relu("b2r", x, ConvSpec(cin, s.branch2_reduce, 1))
    b2 = conv_relu("b2", b2, ConvSpec(s.branch2_reduce, s.branch2, 3,
                                      padding=1))
    b3 = conv_relu("b3r", x, ConvSpec(cin, s.branch3_reduce, 1))
    b3 = conv_relu("b3", b3, ConvSpec(s.branch3_reduce, s.branch3, 5,
                                      padding=2))
    b4, _, _ = maxpool3d(x, pool)
    b4 = conv_relu("b4p", b4, ConvSpec(cin, s.branch4_proj, 1))
    return np.concatenate([b1, b2, b3, b4], axis=0)


def manual_forward(model, x):
    """Eval-mode forward recomposed layer by layer from the kernel module."""
    cur = np.asarray(x, dtype=np.float64)
    for l in model.layers:
        if isinstance(l, ConvLayer):
            cur, _ = conv3d(cur, model.params[f"{l.name}.w"],
                            model.params[f"{l.name}.b"], l.spec)
        elif isinstance(l, PoolLayer):
            cur, _, _ = maxpool3d(cur, l.spec)
        elif isinstance(l, ReluLayer):
            cur = np.maximum(cur, 0.0)
        elif isinstance(l, FlattenLayer):
            cur = cur.reshape(-1)
        elif isinstance(l, DenseLayer):
            cur = model.params[f"{l.name}.w"] @ cur + model.params[f"{l.name}.b"]
        elif isinstance(l, InceptionLayer):
            cur = manual_inception(l, cur, model.params)
        elif isinstance(l, SoftmaxLayer):
            e = np.exp(cur - cur.max())
            cur = e / e.sum()
        # dropout is the identity in eval mode
    return cur


def sample_loss(model, x, true_class):
    _, cache = forward(model, x)
    _, loss, _ = softmax_xent(cache.logits, true_class)
    return loss


class TestConfigs:
    def test_json_round_trip_defaults(self):
        """Every architecture config survives JSON serialization unchanged."""
        for cls in FULL_CONFIGS.values():
            cfg = cls()
            again = config_from_json(config_to_json(cfg))
            assert again == cfg

    def test_json_round_trip_customized(self):
        """Non-default fields survive the round trip."""
        cfg = AlexNetConfig(input_shape=(3, 32, 40, 32),
                            conv_widths=(8, 16, 24, 24, 16),
                            dense_widths=(64, 64), stem_kernel=5,
                            stem_stride=2, stem_padding=2, pool_padding=1,
                            dropout_rate=0.25)
        again = config_from_json(config_to_json(cfg))
        assert again == cfg
        assert again.stem_kernel == 5

    def test_canonical_json_is_stable(self):
        """Serializing the same config twice gives identical text."""
        cfg = GoogleNetConfig()
        assert config_to_json(cfg) == config_to_json(cfg)

    def test_unknown_key_rejected(self):
        """A config dict with an unrecognized field fails loudly."""
        d = config_to_dict(AlexNetConfig())
        d["weight_decay"] = 0.1
        with pytest.raises(ValidationError, match="weight_decay"):
            config_from_dict(d)

    def test_format_version_mismatch_rejected(self):
        """A config from a different format version is refused."""
        d = config_to_dict(VggConfig())
        d["format_version"] = 99
        with pytest.raises(ValidationError, match="version"):
            config_from_dict(d)

    def test_unknown_architecture_rejected(self):
        d = config_to_dict(AlexNetConfig())
        d["architecture"] = "resnet3d"
        with pytest.raises(ValidationError, match="resnet3d"):
            config_from_dict(d)

    def test_bad_dropout_rejected(self):
        with pytest.raises(ValidationError):
            AlexNetConfig(dropout_rate=1.0)
        with pytest.raises(ValidationError):
            AlexNetConfig(dropout_rate=-0.1)

    def test_bad_width_counts_rejected(self):
        with pytest.raises(ValidationError):
            AlexNetConfig(conv_widths=(8, 8, 8))
        with pytest.raises(ValidationError):
            VggConfig(block_widths=(8, 8, 8, 8))

    def test_inception_stage_size_bounded(self):
        """Modules are lettered a-j, so a stage holds at most ten."""
        stages = list(GoogleNetConfig().inception)
        stages[0] = stages[0][:1] * 11
        with pytest.raises(ValidationError, match="10 modules"):
            GoogleNetConfig(inception=tuple(stages))

    def test_input_shape_must_have_three_channels(self):
        with pytest.raises(ValidationError):
            AlexNetConfig(input_shape=(1, 32, 32, 32))

    def test_inception_tuples_coerced(self):
        """Plain 6-tuples in the inception table become InceptionSpec."""
        cfg = GoogleNetConfig(inception=(((4, 4, 6, 2, 3, 3),),
                                         ((4, 4, 6, 2, 3, 3),),
                                         ((4, 4, 6, 2, 3, 3),)),
                              input_shape=(3, 32, 32, 32))
        spec = cfg.inception[0][0]
        assert isinstance(spec, InceptionSpec)
        assert spec.out_channels == 4 + 6 + 3 + 3


class TestArchitectures:
    def test_alexnet_census(self):
        """AlexNet3D has exactly 5 conv layers and 3 dense layers."""
        census = layer_census(build_layers(AlexNetConfig()))
        assert census == {"conv": 5, "dense": 3, "inception": 0}

    def test_vgg_census(self):
        """VGG16-3D has 13 conv + 3 dense = 16 learnable layers."""
        census = layer_census(build_layers(VggConfig()))
        assert census == {"conv": 13, "dense": 3, "inception": 0}
        assert census["conv"] + census["dense"] == 16

    def test_vgg_block_structure(self):
        """VGG conv layers come in cascaded blocks of (2, 2, 3, 3, 3)."""
        layers = build_layers(VggConfig())
        blocks = []
        run = 0
        for l in layers:
            if isinstance(l, ConvLayer):
                run += 1
            elif isinstance(l, PoolLayer):
                blocks.append(run)
                run = 0
        assert tuple(b for b in blocks if b) == (2, 2, 3, 3, 3)

    def test_googlenet_census(self):
        """GoogleNet3D: 3 stem convs, 9 inception modules, a single head."""
        census = layer_census(build_layers(GoogleNetConfig()))
        assert census == {"conv": 3, "dense": 1, "inception": 9}

    def test_googlenet_has_no_auxiliary_heads(self):
        """The only classifier output is the final dense layer to 3 nodes."""
        layers = build_layers(GoogleNetConfig())
        dense = [l for l in layers if isinstance(l, DenseLayer)]
        assert len(dense) == 1
        assert dense[0].out_nodes == 3
        assert isinstance(layers[-1], SoftmaxLayer)

    def test_googlenet_stage_module_counts(self):
        cfg = GoogleNetConfig()
        assert tuple(len(s) for s in cfg.inception) == (2, 5, 2)

    def test_inception_out_channels_is_branch_sum(self):
        """Concat width equals the sum of the four branch widths."""
        spec = InceptionSpec(56, 80, 112, 14, 28, 28)
        assert spec.out_channels == 56 + 112 + 28 + 28

    def test_full_size_shape_walks_end_at_three(self):
        """All three full-size networks map 3x157x189x156 down to (3,)."""
        for cls in FULL_CONFIGS.values():
            layers = build_layers(cls())
            walk = infer_shapes(layers, cls().input_shape)
            assert walk[-1][1] == (3,)

    def test_alexnet_stem_shape(self):
        """7^3 stride-2 pad-3 stem halves each extent (rounding up)."""
        layers = build_layers(AlexNetConfig())
        walk = dict(infer_shapes(layers, AlexNetConfig().input_shape))
        assert walk["conv1"] == (64, 79, 95, 78)

    def test_parameter_budgets(self):
        """Full-size parameter counts match the sizing targets within 10%."""
        for name, cls in FULL_CONFIGS.items():
            shapes = parameter_shapes(build_layers(cls()))
            total = sum(int(np.prod(s)) for s in shapes.values())
            assert total == EXACT_COUNTS[name]
            target = SIZING_TARGETS[name]
            assert abs(total - target) / target < 0.10

    def test_count_parameters_matches_shapes(self):
        """Allocated parameter store agrees with the declared shapes."""
        model = micro_model("googlenet3d-micro")
        shapes = parameter_shapes(model.layers)
        assert set(shapes) == set(model.params)
        for name, shape in shapes.items():
            assert model.params[name].shape == shape
        assert count_parameters(model) == sum(
            int(np.prod(s)) for s in shapes.values())

    def test_count_parameters_formula_examples(self):
        """Single-layer counts follow C_out*C_in*k^3 + C_out and m*n + m."""
        conv = ConvLayer("c", ConvSpec(3, 8, 3))
        shapes = parameter_shapes([conv])
        assert sum(int(np.prod(s)) for s in shapes.values()) == 3 * 8 * 27 + 8
        fc = DenseLayer("f", in_nodes=10, out_nodes=3)
        shapes = parameter_shapes([fc])
        assert sum(int(np.prod(s)) for s in shapes.values()) == 33

    def test_degenerate_2d_alexnet_parameter_count(self):
        """Collapsing the third axis and restoring the classic 2D widths
        reproduces the well-known roughly 61M parameter count."""
        widths = (96, 256, 384, 384, 256)
        layers = [
            ConvLayer("conv1", ConvSpec(3, widths[0], (11, 11, 1),
                                        (4, 4, 1), (0, 0, 0))),
            PoolLayer("pool1", PoolSpec((3, 3, 1), (2, 2, 1), (0, 0, 0))),
            ConvLayer("conv2", ConvSpec(widths[0], widths[1], (5, 5, 1),
                                        (1, 1, 1), (2, 2, 0))),
            PoolLayer("pool2", PoolSpec((3, 3, 1), (2, 2, 1), (0, 0, 0))),
            ConvLayer("conv3", ConvSpec(widths[1], widths[2], (3, 3, 1),
                                        (1, 1, 1), (1, 1, 0))),
            ConvLayer("conv4", ConvSpec(widths[2], widths[3], (3, 3, 1),
                                        (1, 1, 1), (1, 1, 0))),
            ConvLayer("conv5", ConvSpec(widths[3], widths[4], (3, 3, 1),
                                        (1, 1, 1), (1, 1, 0))),
            PoolLayer("pool5", PoolSpec((3, 3, 1), (2, 2, 1), (0, 0, 0))),
            FlattenLayer("flatten"),
        ]
        walk = infer_shapes(layers, (3, 227, 227, 1))
        flat = walk[-1][1][0]
        assert flat == 256 * 6 * 6
        layers += [DenseLayer("fc1", flat, 4096),
                   DenseLayer("fc2", 4096, 4096),
                   DenseLayer("fc3", 4096, 1000)]
        shapes = parameter_shapes(layers)
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert abs(total - 61_000_000) / 61_000_000 < 0.05

    def test_extent_collapse_rejected_with_layer_name(self):
        """A config whose pooling drives an extent below 1 names the layer."""
        cfg = AlexNetConfig(input_shape=(3, 9, 9, 9))
        with pytest.raises(ValidationError, match="pool2"):
            build_model(cfg)

    def test_layer_names_unique(self):
        for name in MICRO_PRESETS:
            layers = build_layers(arch_preset(name))
            names = [l.name for l in layers]
            assert len(names) == len(set(names))

    def test_micro_presets_build_and_classify(self):
        """Each micro preset builds and emits a 3-way distribution."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 9, 9, 9))
        for name in MICRO_PRESETS:
            model = micro_model(name)
            probs, _ = forward(model, x)
            assert probs.shape == (3,)
            assert_allclose(probs.sum(), 1.0, atol=1e-12)
            assert (probs > 0).all()


class TestForward:
    def test_zero_weights_give_uniform_probs(self):
        """With every parameter zero the logits vanish and probs are 1/3."""
        model = micro_model("alexnet3d-micro")
        for k in model.params:
            model.params[k][...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, 9, 9, 9))
        probs, _ = forward(model, x)
        assert_allclose(probs, np.full(3, 1.0 / 3.0), rtol=1e-14)

    def test_eval_forward_is_deterministic(self):
        """Two eval passes on the same input agree bit for bit."""
        model = micro_model("vgg16-3d-micro")
        x = np.random.default_rng(1).normal(size=(3, 9, 9, 9))
        p1, _ = forward(model, x)
        p2, _ = forward(model, x)
        assert (p1 == p2).all()

    def test_eval_ignores_rng(self):
        """Eval-mode output does not depend on any seed."""
        model = micro_model("alexnet3d-micro")
        x = np.random.default_rng(2).normal(size=(3, 9, 9, 9))
        p1, _ = forward(model, x, mode="eval", rng=1)
        p2, _ = forward(model, x, mode="eval", rng=99)
        assert (p1 == p2).all()

    def test_forward_does_not_mutate_params(self):
        model = micro_model("alexnet3d-micro")
        before = {k: v.copy() for k, v in model.params.items()}
        x = np.random.default_rng(3).normal(size=(3, 9, 9, 9))
        probs, cache = forward(model, x, mode="train", rng=0)
        model_backward(model, cache, 1)
        for k, v in model.params.items():
            assert (v == before[k]).all()

    @pytest.mark.parametrize("preset", MICRO_PRESETS)
    def test_forward_matches_manual_composition(self, preset):
        """The model walk reproduces a hand-composed chain of kernel calls."""
        model = micro_model(preset, seed=11)
        x = np.random.default_rng(4).normal(size=(3, 9, 9, 9))
        probs, _ = forward(model, x)
        assert_allclose(probs, manual_forward(model, x), rtol=1e-12, atol=0)

    def test_train_with_zero_dropout_matches_eval(self):
        model = micro_model("alexnet3d-micro")
        x = np.random.default_rng(5).normal(size=(3, 9, 9, 9))
        p_eval, _ = forward(model, x)
        p_train, _ = forward(model, x, mode="train", rng=0, dropout_rate=0.0)
        assert_allclose(p_train, p_eval, rtol=1e-14)

    def test_train_dropout_is_seed_reproducible(self):
        model = micro_model("alexnet3d-micro")
        x = np.random.default_rng(6).normal(size=(3, 9, 9, 9))
        p1, _ = forward(model, x, mode="train", rng=42, dropout_rate=0.5)
        p2, _ = forward(model, x, mode="train", rng=42, dropout_rate=0.5)
        p3, _ = forward(model, x, mode="train", rng=43, dropout_rate=0.5)
        assert (p1 == p2).all()
        assert not (p1 == p3).all()

    def test_shape_mismatch_rejected(self):
        model = micro_model("alexnet3d-micro")
        with pytest.raises(ValidationError, match="shape"):
            forward(model, np.zeros((3, 8, 9, 9)))

    def test_bad_mode_rejected(self):
        model = micro_model("alexnet3d-micro")
        with pytest.raises(ValidationError, match="mode"):
            forward(model, np.zeros((3, 9, 9, 9)), mode="test")

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_nonfinite_activation_names_layer(self):
        """Poisoned weights surface as a numeric failure naming the layer."""
        model = micro_model("alexnet3d-micro")
        model.params["conv2.w"][0, 0, 0, 0, 0] = np.inf
        x = np.abs(np.random.default_rng(7).normal(size=(3, 9, 9, 9)))
        with pytest.raises(NumericError, match="conv2"):
            forward(model, x)

    def test_nan_input_rejected(self):
        """The model input is scanned once, before the first layer."""
        model = micro_model("alexnet3d-micro")
        x = np.zeros((3, 9, 9, 9))
        x[1, 4, 4, 4] = np.nan
        with pytest.raises(NumericError, match="model input"):
            forward(model, x)

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_nonfinite_inside_inception_names_child_layer(self):
        """The walk runs every inception branch, so an inf weight of a branch
        conv is reported under the child's name, not only the module's."""
        model = micro_model("googlenet3d-micro")
        model.params["inc3a.b3.w"][0, 0, 0, 0, 0] = np.inf
        x = np.random.default_rng(8).random((3, 9, 9, 9))
        with pytest.raises(NumericError, match=r"'inc3a\.b3'"):
            forward(model, x)

    def test_overflow_to_minus_inf_caught_at_conv(self):
        """A -inf that the following ReLU would turn into 0 is caught at the
        conv that produced it."""
        model = micro_model("alexnet3d-micro")
        model.params["conv2.w"][0] = -1e308
        x = np.random.default_rng(9).random((3, 9, 9, 9))
        with np.errstate(over="ignore"), pytest.raises(NumericError) as info:
            forward(model, x)
        assert str(info.value) == "layer 'conv2': non-finite activations"


class TestBackward:
    def test_gradient_keys_equal_param_keys(self):
        """Every learnable tensor receives a gradient, nothing else."""
        x = np.random.default_rng(8).normal(size=(3, 9, 9, 9))
        for name in MICRO_PRESETS:
            model = micro_model(name)
            _, cache = forward(model, x, mode="train", rng=0)
            grads, loss = model_backward(model, cache, 2)
            assert set(grads) == set(model.params)
            assert np.isfinite(loss)
            for k in grads:
                assert grads[k].shape == model.params[k].shape

    def test_saturated_loss_has_vanishing_gradient(self):
        """Probability 1 on the true class is a stationary point."""
        model = micro_model("alexnet3d-micro", seed=3)
        model.params["fc3.b"][...] = (60.0, 0.0, 0.0)
        x = np.random.default_rng(9).normal(size=(3, 9, 9, 9))
        _, cache = forward(model, x)
        grads, loss = model_backward(model, cache, 0)
        assert loss < 1e-8
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-8

    def test_full_model_finite_difference(self):
        """Analytic gradients match central differences across all tensors."""
        model = micro_model("alexnet3d-micro", seed=5)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 9, 9, 9)) * 0.5
        true_class = 1
        _, cache = forward(model, x)
        grads, _ = model_backward(model, cache, true_class)
        step = 1e-5
        checked = 0
        for key in sorted(model.params):
            p = model.params[key]
            for _ in range(2):
                idx = tuple(rng.integers(0, s) for s in p.shape)
                orig = p[idx]
                p[idx] = orig + step
                up = sample_loss(model, x, true_class)
                p[idx] = orig - step
                down = sample_loss(model, x, true_class)
                p[idx] = orig
                numeric = (up - down) / (2 * step)
                analytic = grads[key][idx]
                err = abs(numeric - analytic) / max(abs(numeric),
                                                    abs(analytic), 1e-8)
                assert err < 1e-4, (key, idx, numeric, analytic)
                checked += 1
        assert checked == 2 * len(model.params)

    def test_input_gradient_finite_difference(self):
        """The gradient returned for the input itself is also exact."""
        model = micro_model("alexnet3d-micro", seed=6)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 9, 9, 9)) * 0.5
        _, cache = forward(model, x)
        _, _, grad_logits = softmax_xent(cache.logits, 0)
        _, grad_x = backpropagate(model, cache, grad_logits)
        step = 1e-5
        for _ in range(5):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            xp = x.copy()
            xp[idx] += step
            up = sample_loss(model, xp, 0)
            xp[idx] -= 2 * step
            down = sample_loss(model, xp, 0)
            numeric = (up - down) / (2 * step)
            err = abs(numeric - grad_x[idx]) / max(abs(numeric),
                                                   abs(grad_x[idx]), 1e-8)
            assert err < 1e-4

    def test_training_gradients_equal_backpropagate(self, monkeypatch):
        """model_backward skips the input gradient of the first conv only,
        and yields the same parameter gradients as backpropagate, bit for
        bit."""
        flags = []
        real = voxcnn.models.conv3d_backward

        def recording(cache, g, input_grad=True):
            flags.append(input_grad)
            return real(cache, g, input_grad)

        monkeypatch.setattr(voxcnn.models, "conv3d_backward", recording)
        x = np.random.default_rng(14).normal(size=(3, 9, 9, 9))
        for name in MICRO_PRESETS:
            model = micro_model(name)
            _, cache = forward(model, x, mode="train", rng=0)
            flags.clear()
            grads, _ = model_backward(model, cache, 1)
            assert flags.count(False) == 1 and flags[-1] is False
            _, _, grad_logits = softmax_xent(cache.logits, 1)
            flags.clear()
            full, grad_x = backpropagate(model, cache, grad_logits)
            assert False not in flags
            assert grad_x.shape == x.shape
            assert set(grads) == set(full)
            for k in grads:
                assert np.array_equal(grads[k], full[k]), (name, k)

    def test_stale_cache_rejected(self):
        """A cache recorded by one model cannot drive another's backward."""
        x = np.random.default_rng(12).normal(size=(3, 9, 9, 9))
        m1 = micro_model("alexnet3d-micro", seed=0)
        m2 = micro_model("alexnet3d-micro", seed=1)
        _, cache = forward(m1, x)
        with pytest.raises(ValidationError, match="stale"):
            model_backward(m2, cache, 0)

    def test_cross_architecture_cache_rejected(self):
        x = np.random.default_rng(13).normal(size=(3, 9, 9, 9))
        m1 = micro_model("alexnet3d-micro")
        m2 = micro_model("vgg16-3d-micro")
        _, cache = forward(m1, x)
        with pytest.raises(ValidationError, match="stale"):
            model_backward(m2, cache, 0)


def _sealed(body: bytes) -> bytes:
    """A version-2 model file: `body` plus the CRC-32 trailer over it."""
    return body + struct.pack("<I", zlib.crc32(body))


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self):
        """save -> load -> save yields identical bytes and identical params."""
        model = micro_model("googlenet3d-micro", seed=9)
        blob = save_model(model)
        again = load_model(blob)
        assert again.config == model.config
        assert set(again.params) == set(model.params)
        for k in model.params:
            assert (again.params[k] == model.params[k]).all()
        assert save_model(again) == blob

    def test_file_round_trip(self, tmp_path):
        model = micro_model("alexnet3d-micro", seed=2)
        path = tmp_path / "m.v0xn"
        save_model_file(model, str(path))
        again = load_model_file(str(path))
        assert count_parameters(again) == count_parameters(model)
        for k in model.params:
            assert (again.params[k] == model.params[k]).all()

    def test_full_size_round_trip_preserves_count(self):
        """The default AlexNet3D survives serialization with its 16.4M
        parameters intact."""
        model = build_model(AlexNetConfig(), seed=0)
        n = count_parameters(model)
        again = load_model(save_model(model))
        assert count_parameters(again) == n == EXACT_COUNTS["alexnet3d"]

    def test_corrupted_magic_rejected(self):
        blob = bytearray(save_model(micro_model("alexnet3d-micro")))
        blob[0] ^= 0xFF
        with pytest.raises(ValidationError, match="magic"):
            load_model(bytes(blob))

    def test_truncated_payload_rejected(self):
        body = save_model(micro_model("alexnet3d-micro"))[:-4]
        with pytest.raises(ValidationError, match="truncated"):
            load_model(_sealed(body[:-16]))

    def test_trailing_garbage_rejected(self):
        body = save_model(micro_model("alexnet3d-micro"))[:-4]
        with pytest.raises(ValidationError, match="trailing"):
            load_model(_sealed(body + b"\x00\x00"))

    def test_non_utf8_config_rejected(self):
        blob = bytearray(save_model(micro_model("alexnet3d-micro")))
        blob[12] = 0xFF
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(ValidationError, match="UTF-8"):
            load_model(bytes(blob))

    def test_nonfinite_tensor_rejected(self):
        """A NaN in the payload is refused where weights enter, naming the
        tensor."""
        model = micro_model("alexnet3d-micro")
        weight = struct.pack("<d", model.params["conv3.w"][0, 0, 1, 1, 1])
        body = save_model(model)[:-4]
        assert body.count(weight) == 1
        body = body.replace(weight, struct.pack("<d", np.nan))
        with pytest.raises(ValidationError, match="'conv3.w'.*non-finite"):
            load_model(_sealed(body))

    def test_save_refuses_nonfinite_tensor(self, tmp_path):
        """No code path writes a model file that load_model refuses: a NaN
        tensor raises NumericError naming it, and save_model_file leaves no
        file and no temporary behind."""
        model = micro_model("alexnet3d-micro")
        model.params["conv3.w"][0, 0, 1, 1, 1] = np.nan
        with pytest.raises(NumericError, match="'conv3.w'.*non-finite"):
            save_model(model)
        with pytest.raises(NumericError, match="'conv3.w'"):
            save_model_file(model, str(tmp_path / "nan.v0xn"))
        assert list(tmp_path.iterdir()) == []

    def test_version_1_still_loads(self):
        """A version-1 file, the same layout without the CRC trailer, loads
        to the same parameters."""
        model = micro_model("alexnet3d-micro", seed=5)
        blob = save_model(model)
        v1 = blob[:4] + struct.pack("<I", 1) + blob[8:-4]
        again = load_model(v1)
        for k in model.params:
            assert (again.params[k] == model.params[k]).all()
        with pytest.raises(ValidationError, match="trailing"):
            load_model(v1[:4] + struct.pack("<I", 1) + blob[8:])

    @pytest.mark.parametrize("container", ["vvol", "v0xn"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_byte_flip_or_truncation_rejected(self, container, data):
        """Every single-byte flip or truncation of a volume or a version-2
        model file is a ValidationError."""
        if container == "vvol":
            rng = np.random.default_rng(1)
            blob = write_volume(VolumeRecord(id="v1", label="AD",
                                             data=rng.random((3, 4, 5, 6))))
            read = read_volume
        else:
            blob, read = save_model(micro_model("alexnet3d-micro")), load_model
        pos = data.draw(st.integers(0, len(blob) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            bad = blob[:pos]
        else:
            flipped = bytearray(blob)
            flipped[pos] ^= data.draw(st.integers(1, 255), label="xor")
            bad = bytes(flipped)
        with pytest.raises(ValidationError):
            read(bad)

    def test_version_mismatch_rejected(self):
        blob = bytearray(save_model(micro_model("alexnet3d-micro")))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ValidationError, match="version"):
            load_model(bytes(blob))

    def test_tampered_tensor_name_rejected(self):
        """Renaming a tensor in the directory breaks directory validation."""
        body = save_model(micro_model("alexnet3d-micro"))[:-4]
        bad = _sealed(body.replace(b"conv1.w", b"convX.w", 1))
        with pytest.raises(ValidationError, match="unexpected tensor"):
            load_model(bad)

    def test_save_is_deterministic(self):
        """Two saves of equal models produce identical byte strings."""
        m1 = micro_model("vgg16-3d-micro", seed=4)
        m2 = micro_model("vgg16-3d-micro", seed=4)
        assert save_model(m1) == save_model(m2)
