"""Tests for architecture builders, whole-model execution, and model files."""

import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import voxcnn.models
from helpers import count_parameters
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
TOY_PRESETS = ("alexnet3d-toy", "vgg16-3d-toy", "googlenet3d-toy")


def micro_model(name, seed=0):
    return build_model(arch_preset(name), seed=seed)


def conv_caches(layers, entries) -> set:
    """The id of every conv's cache in a forward's entries, inception
    children included."""
    ids = set()
    for l, c in zip(layers, entries):
        if l.kind == "conv3d":
            ids.add(id(c))
        elif l.kind == "concat-group":
            for branch, sub in zip(l.branches, c[0]):
                ids |= conv_caches(branch, sub)
    return ids


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
                            stem_stride=2, stem_padding=2, pool_padding=1)
        again = config_from_json(config_to_json(cfg))
        assert again == cfg
        assert again.stem_kernel == 5

    def test_canonical_json_is_stable(self):
        """Serializing the same config twice gives identical text."""
        cfg = GoogleNetConfig()
        assert config_to_json(cfg) == config_to_json(cfg)

    def test_canonical_json_text_is_pinned(self):
        """The canonical text of a config with a nested inception table is
        fixed: model files embed it, so any change to it changes their
        bytes."""
        assert config_to_json(arch_preset("googlenet3d-toy")) == (
            '{"architecture":"googlenet3d","class_count":3,"format_version":2,'
            '"inception":[[[4,4,6,2,3,3],[6,6,8,2,4,4]],[[6,6,8,2,4,4],'
            '[6,6,8,2,4,4],[6,6,8,2,4,4],[6,6,8,2,4,4],[8,8,12,2,6,6]],'
            '[[8,8,12,2,6,6],[8,8,12,2,6,6]]],"input_shape":[3,32,40,32],'
            '"stem_kernel":5,"stem_padding":2,"stem_stride":2,'
            '"stem_widths":[8,8,16]}')

    @pytest.mark.parametrize("text, match", [
        ('{"architecture":"alexnet3d","class_count":' + "1" * 5000 + "}",
         "malformed"),
    ], ids=["int-too-long"])
    def test_out_of_range_json_number_rejected(self, text, match):
        """An integer too long to read is a validation error, not a
        traceback."""
        with pytest.raises(ValidationError, match=match):
            config_from_json(text)

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

    @pytest.mark.parametrize("preset", MICRO_PRESETS + TOY_PRESETS)
    def test_unrecorded_forward_matches_recorded(self, preset):
        """record="none" gives the same probabilities and logits bit for
        bit, in eval mode and in train mode with the same dropout masks."""
        model = micro_model(preset, seed=12)
        x = np.random.default_rng(15).normal(size=model.input_shape)
        for kw in (dict(mode="eval"),
                   dict(mode="train", rng=4, dropout_rate=0.5)):
            p1, c1 = forward(model, x, record="all", **kw)
            p2, c2 = forward(model, x, record="none", **kw)
            assert np.array_equal(p1, p2), kw
            assert np.array_equal(c1.logits, c2.logits), kw

    def test_unrecorded_cache_holds_only_logits(self):
        """A record="none" cache keeps no array but the logits (besides the
        model's own layers and parameters), and the call peaks lower than a
        recording one.  A recording forward plus backpropagate, the path
        that training and the benchmark's saliency check take, peaks under
        28 MiB: convs that held a whole depth phase's panel of in-plane
        shifts, not one column block of it, took that path to 37.8 MiB."""
        model = micro_model("vgg16-3d-toy", seed=1)
        x = np.random.default_rng(16).random(model.input_shape)
        peaks = {}
        for record in ("all", "none"):
            tracemalloc.start()
            try:
                probs, cache = forward(model, x, record=record)
                peaks[record] = tracemalloc.get_traced_memory()[1]
                if record == "all":
                    backpropagate(model, cache, probs)
                    peaks["all+backward"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        held = {k: v for k, v in vars(cache).items()
                if k not in ("layers", "params")}
        assert held["entries"] is None and held["record"] == "none"
        assert set(held) == {"record", "entries", "logits"}
        assert held["logits"].shape == (model.class_count,)
        assert peaks["none"] < peaks["all"]
        assert peaks["all+backward"] < 28 * 2**20

    def test_input_only_cache_holds_no_parameter_gradient_state(self):
        """A record="input" vgg16-3d-toy cache holds no conv stride phases
        and no dense inputs, and retains less after the call than a
        record="all" cache."""
        model = micro_model("vgg16-3d-toy", seed=1)
        x = np.random.default_rng(16).random(model.input_shape)
        held = {}
        for record in ("all", "input"):
            tracemalloc.start()
            try:
                _, cache = forward(model, x, record=record)
                held[record] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        kinds = {"conv3d": 0, "dense": 0}
        for layer, entry in zip(model.layers, cache.entries):
            if layer.kind in kinds:
                assert entry[0] is None, layer.name
                kinds[layer.kind] += 1
        assert kinds == {"conv3d": 13, "dense": 3}
        assert held["input"] < held["all"]

    def test_record_must_be_a_known_value(self):
        model = micro_model("alexnet3d-micro")
        x = np.zeros(model.input_shape)
        for bad in (True, False, "inputs"):
            with pytest.raises(ValidationError, match="record"):
                forward(model, x, record=bad)

    def test_train_with_zero_dropout_matches_eval(self):
        model = micro_model("alexnet3d-micro")
        x = np.random.default_rng(5).normal(size=(3, 9, 9, 9))
        p_eval, _ = forward(model, x)
        p_train, _ = forward(model, x, mode="train", rng=0, dropout_rate=0.0)
        assert_allclose(p_train, p_eval, rtol=1e-14)
        p_no_rate, _ = forward(model, x, mode="train", rng=0)
        assert_allclose(p_no_rate, p_eval, rtol=1e-14)

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
        """model_backward runs conv3d_param_grads on every conv and
        conv3d_backward on every conv but the first, whose input gradient
        training never reads; backpropagate runs both on every conv.  Both
        yield the same parameter gradients, bit for bit."""
        calls = []

        def spy(name):
            real = getattr(voxcnn.models, name)

            def recording(cache, g):
                calls.append((name, id(cache)))
                return real(cache, g)

            monkeypatch.setattr(voxcnn.models, name, recording)

        spy("conv3d_backward")
        spy("conv3d_param_grads")
        x = np.random.default_rng(14).normal(size=(3, 9, 9, 9))
        for name in MICRO_PRESETS:
            model = micro_model(name)
            _, cache = forward(model, x, mode="train", rng=0)
            convs = conv_caches(model.layers, cache.entries)
            assert model.layers[0].kind == "conv3d"
            first = id(cache.entries[0])
            calls.clear()
            grads, _ = model_backward(model, cache, 1)
            assert sorted(c for n, c in calls if n == "conv3d_param_grads") \
                == sorted(convs)
            assert sorted(c for n, c in calls if n == "conv3d_backward") \
                == sorted(convs - {first})
            _, _, grad_logits = softmax_xent(cache.logits, 1)
            calls.clear()
            full, grad_x = backpropagate(model, cache, grad_logits)
            for kernel in ("conv3d_param_grads", "conv3d_backward"):
                assert sorted(c for n, c in calls if n == kernel) \
                    == sorted(convs)
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

    def test_unrecorded_cache_rejected(self):
        """Neither backward entry point accepts a cache that recorded no
        backward state."""
        model = micro_model("alexnet3d-micro")
        x = np.random.default_rng(17).normal(size=(3, 9, 9, 9))
        _, cache = forward(model, x, record="none")
        with pytest.raises(ValidationError, match="recorded no backward state"):
            model_backward(model, cache, 0)
        with pytest.raises(ValidationError, match="recorded no backward state"):
            backpropagate(model, cache, np.ones(3))

    @pytest.mark.parametrize("preset", MICRO_PRESETS + TOY_PRESETS)
    def test_input_only_gradient_equals_full(self, preset):
        """A record="input" cache gives the same input gradient as a
        record="all" one, bit for bit, and no parameter gradient."""
        model = micro_model(preset, seed=8)
        x = np.random.default_rng(18).normal(size=model.input_shape)
        onehot = np.eye(model.class_count)[1]
        _, full = backpropagate(model, forward(model, x)[1], onehot)
        grads, only = backpropagate(model, forward(model, x, record="input")[1],
                                    onehot)
        assert grads == {}
        assert np.array_equal(only, full)

    def test_input_only_cache_rejected_by_model_backward(self):
        """model_backward refuses a record="input" cache before any layer
        runs, naming the missing parameter-gradient state."""
        model = micro_model("googlenet3d-micro")
        x = np.random.default_rng(19).normal(size=model.input_shape)
        _, cache = forward(model, x, record="input")
        with pytest.raises(ValidationError,
                           match="recorded no parameter-gradient state"):
            model_backward(model, cache, 0)

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

    def test_version_1_refused(self):
        """A version-1 file, the layout without the CRC trailer, is refused
        by its version, whether or not a trailer is added."""
        blob = save_model(micro_model("alexnet3d-micro", seed=5))
        v1 = blob[:4] + struct.pack("<I", 1) + blob[8:-4]
        for bad in (v1, _sealed(v1)):
            with pytest.raises(ValidationError,
                               match="^unsupported model format version 1$"):
                load_model(bad)

    @pytest.mark.parametrize("preset", MICRO_PRESETS)
    def test_config_format_1_refused(self, preset):
        """A sealed model file whose config JSON is format 1, with or
        without the dropout rate that format held, is refused; so is a
        format-2 config that sets a dropout rate."""
        model = micro_model(preset, seed=6)
        blob = save_model(model)
        (cfg_len,) = struct.unpack("<I", blob[8:12])
        cfg = json.loads(blob[12:12 + cfg_len])
        assert cfg["format_version"] == 2 and "dropout_rate" not in cfg

        def with_config(**fields):
            text = json.dumps(dict(cfg, **fields), sort_keys=True,
                              separators=(",", ":")).encode()
            return _sealed(blob[:8] + struct.pack("<I", len(text)) + text
                           + blob[12 + cfg_len:-4])

        assert with_config() == blob
        for fields in (dict(format_version=1),
                       dict(format_version=1, dropout_rate=0.5)):
            with pytest.raises(ValidationError, match="^unsupported config "
                                                      "format version 1$"):
                load_model(with_config(**fields))
        with pytest.raises(ValidationError, match="unknown architecture config "
                                                  "field 'dropout_rate'"):
            load_model(with_config(dropout_rate=0.5))

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

    @pytest.mark.parametrize("container", ["vvol", "v0xn"])
    def test_resealed_trailing_bytes_rejected(self, container):
        """Both containers refuse a correctly sealed body with two bytes
        appended, with the same message."""
        if container == "vvol":
            blob = write_volume(VolumeRecord(id="v1", label="AD",
                                             data=np.zeros((3, 2, 2, 2))))
            read = read_volume
        else:
            blob, read = save_model(micro_model("alexnet3d-micro")), load_model
        with pytest.raises(ValidationError,
                           match="^trailing bytes after (volume|model) payload$"):
            read(_sealed(blob[:-4] + b"\x00\x00"))

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


def _redirected(edit) -> bytes:
    """A sealed alexnet3d-micro model file whose tensor directory went
    through edit(entries) -> (tensor count, entries), each entry the bytes
    of one tensor's name, rank and shape."""
    body = save_model(micro_model("alexnet3d-micro"))[:-4]
    (cfg_len,) = struct.unpack_from("<I", body, 8)
    at = 12 + cfg_len
    (count,) = struct.unpack_from("<I", body, at)
    entries, pos = [], at + 4
    for _ in range(count):
        (n,) = struct.unpack_from("<H", body, pos)
        end = pos + 3 + n + 4 * body[pos + 2 + n]
        entries.append(body[pos:end])
        pos = end
    count, entries = edit(entries)
    return _sealed(body[:at] + struct.pack("<I", count) + b"".join(entries)
                   + body[pos:])


def _grown_first_dim(entries):
    """conv1.b, the first entry, with its one extent grown by 1."""
    (n,) = struct.unpack("<I", entries[0][-4:])
    return len(entries), [entries[0][:-4] + struct.pack("<I", n + 1)] + entries[1:]


def _backpropagate_two_logits():
    model = micro_model("alexnet3d-micro")
    _, cache = forward(model, np.zeros((3, 9, 9, 9)))
    backpropagate(model, cache, np.zeros(2))


# (id, call, message of its ValidationError): one row per reachable guard of
# configs, backward and model files that no test above reaches
GUARDS = [
    ("class-count", lambda: AlexNetConfig(class_count=1),
     "class count must be at least 2"),
    ("width", lambda: AlexNetConfig(conv_widths=(0, 8, 8, 8, 8)),
     "conv_widths entries must be positive"),
    ("inception-widths", lambda: config_from_dict({
        "architecture": "googlenet3d",
        "inception": [[[1, 2, 3, 4, 5]], [[1] * 6], [[1] * 6]]}),
     "an inception module needs 6 widths, got (1, 2, 3, 4, 5)"),
    ("non-object", lambda: config_from_dict(["alexnet3d"]),
     "architecture config must be a JSON object"),
    ("grad-logits", _backpropagate_two_logits,
     "grad_logits shape (2,) != (3,)"),
    ("tensor-count", lambda: load_model(_redirected(
        lambda e: (len(e) - 1, e[:-1]))),
     "model file has 15 tensors, architecture needs 16"),
    ("tensor-shape", lambda: load_model(_redirected(_grown_first_dim)),
     "tensor 'conv1.b' shape (5,) != expected (4,)"),
    ("directory-order", lambda: load_model(_redirected(
        lambda e: (len(e), [e[1], e[0]] + e[2:]))),
     "model file tensor directory incomplete or unsorted"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in GUARDS])
def test_guard_refuses(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
