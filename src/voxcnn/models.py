"""Volumetric network builders, whole-model execution, and model files.

Three architectures are provided: an AlexNet-style stack (5 conv + 3 dense),
a VGG16-style stack (13 conv + 3 dense), and a GoogleNet-style network built
from inception modules with a single classification head.  A model is an
ordered layer list plus a flat named parameter store; execution walks the
list forward (recording per-layer caches) and backward (producing a gradient
for every parameter and for the input).

Each layer class owns its kind: `out_shape`, `param_shapes`, `forward(x,
params, run)`, `backward(cache, g, grads)` and `convs(shape)`; shape walks,
parameter tables, execution and op counts are loops over those methods.  An
inception module is a composite of four branches of plain child layers named
"<module>.<tag>".  Layers call kernels by their module-global name at call
time, so a wrapper set on e.g. `voxcnn.models.conv3d` sees every call.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .errors import NumericError, ValidationError, VoxcnnError
from .kernels import (
    ConvSpec,
    PoolSpec,
    concat_channels,
    concat_channels_backward,
    conv3d,
    conv3d_backward,
    dense,
    dense_backward,
    dropout,
    dropout_backward,
    maxpool3d,
    maxpool3d_backward,
    out_extents,
    relu,
    relu_backward,
    softmax_xent,
)
from .seeding import derive_seed

CONFIG_FORMAT_VERSION = 1
MODEL_MAGIC = b"V0XN"
MODEL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Per-call state a layer forward may read: the forward mode, the dropout
    generator (train mode only) and an optional override of dropout rates."""

    mode: str
    gen: np.random.Generator | None
    dropout_rate: float | None


@dataclass(frozen=True)
class Layer:
    """Base of every layer kind; defaults suit a parameter-free identity."""

    kind: ClassVar[str]
    name: str

    def out_shape(self, shape: tuple) -> tuple:
        return shape

    def param_shapes(self) -> dict:
        return {}

    def forward(self, x, params, run: Run):
        """Return (output, cache) for one input."""
        raise NotImplementedError

    def backward(self, cache, g, grads: dict):
        """Return the input gradient; store parameter gradients in grads."""
        return g

    def convs(self, shape: tuple) -> list:
        """(name, ConvSpec, input extents) for each conv this layer runs."""
        return []


@dataclass(frozen=True)
class ConvLayer(Layer):
    kind: ClassVar[str] = "conv3d"
    spec: ConvSpec

    def out_shape(self, shape):
        s = self.spec
        if len(shape) != 4:
            raise ValidationError(f"{self.name}: expects a volume input")
        if shape[0] != s.in_channels:
            raise ValidationError(
                f"{self.name}: expects {s.in_channels} channels, gets {shape[0]}"
            )
        return (s.out_channels,) + out_extents(
            shape[1:], s.kernel, s.stride, s.padding, what=self.name)

    def param_shapes(self):
        s = self.spec
        return {f"{self.name}.w": (s.out_channels, s.in_channels) + s.kernel,
                f"{self.name}.b": (s.out_channels,)}

    def forward(self, x, params, run):
        return conv3d(x, params[f"{self.name}.w"], params[f"{self.name}.b"],
                      self.spec)

    def backward(self, cache, g, grads):
        g, grads[f"{self.name}.w"], grads[f"{self.name}.b"] = conv3d_backward(
            cache, g)
        return g

    def convs(self, shape):
        return [(self.name, self.spec, shape[1:])]


@dataclass(frozen=True)
class PoolLayer(Layer):
    kind: ClassVar[str] = "maxpool3d"
    spec: PoolSpec

    def out_shape(self, shape):
        s = self.spec
        if len(shape) != 4:
            raise ValidationError(f"{self.name}: expects a volume input")
        return (shape[0],) + out_extents(
            shape[1:], s.kernel, s.stride, s.padding, what=self.name)

    def forward(self, x, params, run):
        out, _, cache = maxpool3d(x, self.spec)
        return out, cache

    def backward(self, cache, g, grads):
        return maxpool3d_backward(cache, g)


@dataclass(frozen=True)
class ReluLayer(Layer):
    kind: ClassVar[str] = "relu"

    def forward(self, x, params, run):
        return relu(x)

    def backward(self, cache, g, grads):
        return relu_backward(cache, g)


@dataclass(frozen=True)
class DropoutLayer(Layer):
    kind: ClassVar[str] = "dropout"
    rate: float

    def forward(self, x, params, run):
        rate = self.rate if run.dropout_rate is None else run.dropout_rate
        return dropout(x, rate, run.mode, run.gen)

    def backward(self, cache, g, grads):
        return dropout_backward(cache, g)


@dataclass(frozen=True)
class FlattenLayer(Layer):
    kind: ClassVar[str] = "flatten"

    def out_shape(self, shape):
        if len(shape) != 4:
            raise ValidationError(f"{self.name}: expects a volume input")
        return (int(np.prod(shape)),)

    def forward(self, x, params, run):
        return x.reshape(-1), x.shape

    def backward(self, cache, g, grads):
        return g.reshape(cache)


@dataclass(frozen=True)
class DenseLayer(Layer):
    kind: ClassVar[str] = "dense"
    in_nodes: int
    out_nodes: int

    def out_shape(self, shape):
        if shape != (self.in_nodes,):
            raise ValidationError(
                f"{self.name}: expects ({self.in_nodes},), gets {shape}"
            )
        return (self.out_nodes,)

    def param_shapes(self):
        return {f"{self.name}.w": (self.out_nodes, self.in_nodes),
                f"{self.name}.b": (self.out_nodes,)}

    def forward(self, x, params, run):
        return dense(x, params[f"{self.name}.w"], params[f"{self.name}.b"])

    def backward(self, cache, g, grads):
        g, grads[f"{self.name}.w"], grads[f"{self.name}.b"] = dense_backward(
            cache, g)
        return g


@dataclass(frozen=True)
class SoftmaxLayer(Layer):
    """Probabilities from logits.  The cache is the logits; backward is the
    identity because gradients enter the net at the logits."""

    kind: ClassVar[str] = "softmax"

    def forward(self, x, params, run):
        probs, _, _ = softmax_xent(x)
        return probs, x


@dataclass(frozen=True)
class InceptionSpec:
    """Branch widths of one inception module.

    Four parallel branches, all stride 1 with extent-preserving padding:
    a 1x1x1 conv, a 1x1x1 reduction feeding a 3x3x3 conv, a 1x1x1 reduction
    feeding a 5x5x5 conv, and a 3x3x3 stride-1 max pool feeding a 1x1x1
    projection.  Outputs are channel-concatenated.
    """

    branch1: int
    branch2_reduce: int
    branch2: int
    branch3_reduce: int
    branch3: int
    branch4_proj: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValidationError(f"inception width {f.name} must be positive")

    @property
    def out_channels(self) -> int:
        return self.branch1 + self.branch2 + self.branch3 + self.branch4_proj

    def to_tuple(self):
        return (self.branch1, self.branch2_reduce, self.branch2,
                self.branch3_reduce, self.branch3, self.branch4_proj)


def _forward_walk(layers, x, params, run: Run):
    entries = []
    for l in layers:
        x, c = l.forward(x, params, run)
        entries.append(c)
    return x, entries


def _backward_walk(layers, entries, g, grads: dict):
    for l, c in zip(reversed(layers), reversed(entries)):
        g = l.backward(c, g, grads)
    return g


@dataclass(frozen=True)
class InceptionLayer(Layer):
    """An inception module: four branches of plain layers, concatenated.

    Children are named "<module>.<tag>" for a conv (parameters
    "<module>.<tag>.w" and ".b"), "<module>.<tag>.relu" and "<module>.pool".
    """

    kind: ClassVar[str] = "concat-group"
    spec: InceptionSpec
    in_channels: int
    branches: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, cin, s = self.name, self.in_channels, self.spec

        def conv_relu(tag, spec):
            return (ConvLayer(f"{n}.{tag}", spec), ReluLayer(f"{n}.{tag}.relu"))

        object.__setattr__(self, "branches", (
            conv_relu("b1", ConvSpec(cin, s.branch1, 1)),
            conv_relu("b2r", ConvSpec(cin, s.branch2_reduce, 1))
            + conv_relu("b2", ConvSpec(s.branch2_reduce, s.branch2, 3, 1, 1)),
            conv_relu("b3r", ConvSpec(cin, s.branch3_reduce, 1))
            + conv_relu("b3", ConvSpec(s.branch3_reduce, s.branch3, 5, 1, 2)),
            (PoolLayer(f"{n}.pool", PoolSpec(3, 1, 1)),)
            + conv_relu("b4p", ConvSpec(cin, s.branch4_proj, 1)),
        ))

    def out_shape(self, shape):
        if len(shape) != 4 or shape[0] != self.in_channels:
            raise ValidationError(
                f"{self.name}: expects ({self.in_channels}, D, H, W), gets {shape}"
            )
        return (self.spec.out_channels,) + shape[1:]

    def param_shapes(self):
        return parameter_shapes(l for branch in self.branches for l in branch)

    def forward(self, x, params, run):
        walks = [_forward_walk(branch, x, params, run) for branch in self.branches]
        out, widths = concat_channels([out for out, _ in walks])
        return out, ([entries for _, entries in walks], widths)

    def backward(self, cache, g, grads):
        caches, widths = cache
        gs = [_backward_walk(branch, entries, gb, grads) for branch, entries, gb
              in zip(self.branches, caches, concat_channels_backward(widths, g))]
        return sum(gs[1:], gs[0])

    def convs(self, shape):
        return [c for branch in self.branches
                for l, (_, s) in zip(branch, infer_shapes(branch, shape))
                for c in l.convs(s)]


# ---------------------------------------------------------------------------
# architecture configs
# ---------------------------------------------------------------------------


def _tup(v):
    return tuple(int(x) for x in v)


@dataclass(frozen=True)
class AlexNetConfig:
    """Five conv stages and a three-layer dense head.

    The stem kernel/stride and the second-stage kernel are configurable so
    reduced-extent variants stay cheap; later convs are fixed 3x3x3 stride 1
    with extent-preserving padding.
    """

    architecture: ClassVar[str] = "alexnet3d"
    input_shape: tuple = (3, 157, 189, 156)
    conv_widths: tuple = (64, 128, 192, 192, 128)
    dense_widths: tuple = (128, 128)
    stem_kernel: int = 7
    stem_stride: int = 2
    stem_padding: int = 3
    mid_kernel: int = 5
    pool_padding: int = 0
    dropout_rate: float = 0.5
    class_count: int = 3

    def __post_init__(self):
        object.__setattr__(self, "input_shape", _tup(self.input_shape))
        object.__setattr__(self, "conv_widths", _tup(self.conv_widths))
        object.__setattr__(self, "dense_widths", _tup(self.dense_widths))
        _validate_common(self)
        if len(self.conv_widths) != 5:
            raise ValidationError("alexnet3d needs exactly 5 conv widths")
        if len(self.dense_widths) != 2:
            raise ValidationError("alexnet3d needs exactly 2 hidden dense widths")


@dataclass(frozen=True)
class VggConfig:
    """Thirteen 3x3x3 convs in blocks of (2, 2, 3, 3, 3) plus 3 dense layers."""

    architecture: ClassVar[str] = "vgg16-3d"
    block_sizes: ClassVar[tuple] = (2, 2, 3, 3, 3)
    input_shape: tuple = (3, 157, 189, 156)
    block_widths: tuple = (64, 128, 256, 512, 512)
    dense_widths: tuple = (32, 32)
    pool_padding: int = 1
    dropout_rate: float = 0.5
    class_count: int = 3

    def __post_init__(self):
        object.__setattr__(self, "input_shape", _tup(self.input_shape))
        object.__setattr__(self, "block_widths", _tup(self.block_widths))
        object.__setattr__(self, "dense_widths", _tup(self.dense_widths))
        _validate_common(self)
        if len(self.block_widths) != 5:
            raise ValidationError("vgg16-3d needs exactly 5 block widths")
        if len(self.dense_widths) != 2:
            raise ValidationError("vgg16-3d needs exactly 2 hidden dense widths")


@dataclass(frozen=True)
class GoogleNetConfig:
    """Conv/pool stem, three inception stages, one dense classification head."""

    architecture: ClassVar[str] = "googlenet3d"
    input_shape: tuple = (3, 157, 189, 156)
    stem_widths: tuple = (64, 64, 192)
    stem_kernel: int = 7
    stem_stride: int = 2
    stem_padding: int = 3
    # stage -> module -> (b1, b2reduce, b2, b3reduce, b3, b4proj)
    inception: tuple = (
        ((56, 80, 112, 14, 28, 28), (112, 112, 164, 28, 80, 56)),
        ((164, 80, 180, 14, 40, 56), (136, 96, 192, 20, 56, 56),
         (112, 112, 220, 20, 56, 56), (96, 124, 248, 28, 56, 56),
         (220, 136, 274, 28, 112, 112)),
        ((220, 136, 274, 28, 112, 112), (328, 164, 328, 40, 112, 112)),
    )
    dropout_rate: float = 0.5
    class_count: int = 3

    def __post_init__(self):
        object.__setattr__(self, "input_shape", _tup(self.input_shape))
        object.__setattr__(self, "stem_widths", _tup(self.stem_widths))
        stages = tuple(
            tuple(t if isinstance(t, InceptionSpec) else InceptionSpec(*_tup(t))
                  for t in stage)
            for stage in self.inception
        )
        object.__setattr__(self, "inception", stages)
        _validate_common(self)
        if len(self.stem_widths) != 3:
            raise ValidationError("googlenet3d needs exactly 3 stem widths")
        if len(stages) != 3 or any(not 1 <= len(s) <= 10 for s in stages):
            raise ValidationError(
                "googlenet3d needs 3 inception stages of 1 to 10 modules")


ArchConfig = Union[AlexNetConfig, VggConfig, GoogleNetConfig]

_CONFIG_CLASSES = {c.architecture: c for c in
                   (AlexNetConfig, VggConfig, GoogleNetConfig)}


def _validate_common(cfg) -> None:
    shape = cfg.input_shape
    if len(shape) != 4 or shape[0] != 3:
        raise ValidationError(
            f"input shape must be (3, D, H, W), got {shape}"
        )
    if min(shape[1:]) < 1:
        raise ValidationError(f"input extents must be positive, got {shape}")
    if not 0.0 <= cfg.dropout_rate < 1.0:
        raise ValidationError(f"dropout rate must be in [0, 1), got {cfg.dropout_rate}")
    if cfg.class_count < 2:
        raise ValidationError("class count must be at least 2")
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple) and f.name != "input_shape" and f.name != "inception":
            if any(isinstance(x, int) and x < 1 for x in v):
                raise ValidationError(f"{f.name} entries must be positive")


def config_to_dict(cfg: ArchConfig) -> dict:
    d = {"architecture": cfg.architecture, "format_version": CONFIG_FORMAT_VERSION}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "inception":
            v = [[list(t.to_tuple()) for t in stage] for stage in v]
        elif isinstance(v, tuple):
            v = list(v)
        d[f.name] = v
    return d


def config_from_dict(d: dict) -> ArchConfig:
    if not isinstance(d, dict):
        raise ValidationError("architecture config must be a mapping")
    arch = d.get("architecture")
    if arch not in _CONFIG_CLASSES:
        raise ValidationError(f"unknown architecture {arch!r}")
    version = d.get("format_version", CONFIG_FORMAT_VERSION)
    if version != CONFIG_FORMAT_VERSION:
        raise ValidationError(f"unsupported config format version {version}")
    cls = _CONFIG_CLASSES[arch]
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for k, v in d.items():
        if k in ("architecture", "format_version"):
            continue
        if k not in known:
            raise ValidationError(f"unknown config field {k!r} for {arch}")
        kwargs[k] = v
    return cls(**kwargs)


def config_to_json(cfg: ArchConfig) -> str:
    """Canonical single-line JSON; stable across runs for byte-exact files."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_from_json(text: str) -> ArchConfig:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed architecture config JSON: {e}") from e
    return config_from_dict(d)


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass
class Model:
    config: ArchConfig
    layers: tuple
    params: dict
    input_shape: tuple
    class_count: int

    @property
    def architecture(self) -> str:
        return self.config.architecture


def _validate_layers(layers) -> None:
    names = [l.name for l in layers]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ValidationError(f"duplicate layer name {dup!r}")
    seen_flatten = False
    for l in layers:
        seen_flatten = seen_flatten or l.kind == "flatten"
        if l.kind == "dense" and not seen_flatten:
            raise ValidationError(f"dense layer {l.name!r} appears before flatten")


def infer_shapes(layers, input_shape) -> list:
    """Walk the layer list, returning [(name, shape), ...] starting at input.

    Volume shapes are (C, D, H, W); after flatten, shapes are (n,).  Raises
    with the offending layer's name when any extent collapses below 1.
    """
    shape = tuple(int(x) for x in input_shape)
    walk = [("input", shape)]
    for l in layers:
        shape = l.out_shape(shape)
        walk.append((l.name, shape))
    return walk


def parameter_shapes(layers) -> dict:
    """Name -> shape for every learnable tensor, in layer order."""
    return {k: v for l in layers for k, v in l.param_shapes().items()}


def _init_params(shapes: dict, seed: int) -> dict:
    """He-scaled normal weights (variance 2/fan-in), zero biases."""
    rng = np.random.default_rng(derive_seed(seed, "init"))
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
    return params


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _dense_head(layers, config) -> list:
    """fc1-relu-dropout-fc2-relu-dropout-fc3-softmax on the flattened stack."""
    feat = infer_shapes(layers, config.input_shape)[-1][1][0]
    dw = config.dense_widths
    return layers + [
        DenseLayer("fc1", feat, dw[0]),
        ReluLayer("relu_fc1"),
        DropoutLayer("drop1", config.dropout_rate),
        DenseLayer("fc2", dw[0], dw[1]),
        ReluLayer("relu_fc2"),
        DropoutLayer("drop2", config.dropout_rate),
        DenseLayer("fc3", dw[1], config.class_count),
        SoftmaxLayer("softmax"),
    ]


def build_alexnet3d_layers(config: AlexNetConfig) -> tuple:
    cw = config.conv_widths
    k2 = config.mid_kernel
    pool = PoolSpec(3, 2, config.pool_padding)
    return tuple(_dense_head([
        ConvLayer("conv1", ConvSpec(3, cw[0], config.stem_kernel,
                                    config.stem_stride, config.stem_padding)),
        ReluLayer("relu1"),
        PoolLayer("pool1", pool),
        ConvLayer("conv2", ConvSpec(cw[0], cw[1], k2, 1, k2 // 2)),
        ReluLayer("relu2"),
        PoolLayer("pool2", pool),
        ConvLayer("conv3", ConvSpec(cw[1], cw[2], 3, 1, 1)),
        ReluLayer("relu3"),
        ConvLayer("conv4", ConvSpec(cw[2], cw[3], 3, 1, 1)),
        ReluLayer("relu4"),
        ConvLayer("conv5", ConvSpec(cw[3], cw[4], 3, 1, 1)),
        ReluLayer("relu5"),
        PoolLayer("pool5", pool),
        FlattenLayer("flatten"),
    ], config))


def build_vgg16_3d_layers(config: VggConfig) -> tuple:
    layers = []
    cin = 3
    for b, (width, size) in enumerate(zip(config.block_widths,
                                          config.block_sizes), start=1):
        for j in range(1, size + 1):
            layers.append(ConvLayer(f"conv{b}_{j}", ConvSpec(cin, width, 3, 1, 1)))
            layers.append(ReluLayer(f"relu{b}_{j}"))
            cin = width
        layers.append(PoolLayer(f"pool{b}", PoolSpec(3, 2, config.pool_padding)))
    layers.append(FlattenLayer("flatten"))
    return tuple(_dense_head(layers, config))


def build_googlenet3d_layers(config: GoogleNetConfig) -> tuple:
    sw = config.stem_widths
    between = PoolSpec(3, 2, 1)
    layers = [
        ConvLayer("stem1", ConvSpec(3, sw[0], config.stem_kernel,
                                    config.stem_stride, config.stem_padding)),
        ReluLayer("relu_stem1"),
        PoolLayer("pool_stem1", between),
        ConvLayer("stem2", ConvSpec(sw[0], sw[1], 1)),
        ReluLayer("relu_stem2"),
        ConvLayer("stem3", ConvSpec(sw[1], sw[2], 3, 1, 1)),
        ReluLayer("relu_stem3"),
        PoolLayer("pool_stem2", between),
    ]
    cin = sw[2]
    for stage_idx, stage in enumerate(config.inception, start=3):
        for mod_idx, spec in enumerate(stage):
            letter = "abcdefghij"[mod_idx]
            layers.append(InceptionLayer(f"inc{stage_idx}{letter}", spec, cin))
            cin = spec.out_channels
        if stage_idx < 5:
            layers.append(PoolLayer(f"pool{stage_idx}", between))
    layers.append(PoolLayer("pool_final", between))
    layers.append(FlattenLayer("flatten"))
    feat = infer_shapes(layers, config.input_shape)[-1][1][0]
    layers += [
        DropoutLayer("drop_head", config.dropout_rate),
        DenseLayer("head", feat, config.class_count),
        SoftmaxLayer("softmax"),
    ]
    return tuple(layers)


_LAYER_BUILDERS = {
    "alexnet3d": build_alexnet3d_layers,
    "vgg16-3d": build_vgg16_3d_layers,
    "googlenet3d": build_googlenet3d_layers,
}


def build_layers(config: ArchConfig) -> tuple:
    builder = _LAYER_BUILDERS.get(config.architecture)
    if builder is None:
        raise ValidationError(f"unknown architecture {config.architecture!r}")
    layers = builder(config)
    _validate_layers(layers)
    return layers


def build_model(config: ArchConfig, seed: int = 0) -> Model:
    layers = build_layers(config)
    params = _init_params(parameter_shapes(layers), seed)
    return Model(config=config, layers=layers, params=params,
                 input_shape=tuple(config.input_shape),
                 class_count=config.class_count)


def count_parameters(model: Model) -> int:
    return sum(p.size for p in model.params.values())


def layer_census(model) -> dict:
    """Counts of top-level conv layers, dense layers, and inception modules.

    Accepts a built model or a bare layer sequence.
    """
    layers = model.layers if isinstance(model, Model) else model
    kinds = [l.kind for l in layers]
    return {"conv": kinds.count("conv3d"), "dense": kinds.count("dense"),
            "inception": kinds.count("concat-group")}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    layer_names: tuple
    entries: list
    logits: np.ndarray
    probs: np.ndarray
    mode: str
    params_ref: dict | None = None


def forward(model: Model, x, mode: str = "eval", rng=None,
            dropout_rate: float | None = None):
    """Run the model on one volume; returns (probs, ForwardCache).

    Eval mode is deterministic and ignores rng; train mode draws dropout
    masks from rng (an int seed or a numpy Generator).  When dropout_rate is
    given it overrides every dropout layer's configured rate for this call.
    A cache is always recorded so gradients are available in either mode.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.input_shape:
        raise ValidationError(
            f"input shape {x.shape} does not match model input {model.input_shape}"
        )
    run = Run(mode, np.random.default_rng(rng) if mode == "train" else None,
              dropout_rate)
    entries = []
    cur = x
    for l in model.layers:
        try:
            cur, c = l.forward(cur, model.params, run)
        except VoxcnnError as e:
            raise type(e)(f"layer {l.name!r}: {e}") from e
        if not np.isfinite(cur).all():
            raise NumericError(f"layer {l.name!r}: non-finite activations")
        entries.append(c)
    softmax = [c for l, c in zip(model.layers, entries) if l.kind == "softmax"]
    if not softmax:
        raise ValidationError("model has no softmax layer")
    logits = softmax[-1]
    cache = ForwardCache(
        layer_names=tuple(l.name for l in model.layers),
        entries=entries, logits=logits, probs=cur, mode=mode,
        params_ref=model.params)
    return cur, cache


def _check_cache(model: Model, cache: ForwardCache) -> None:
    if cache.layer_names != tuple(l.name for l in model.layers):
        raise ValidationError("cache does not belong to this model (stale cache)")
    if cache.params_ref is not model.params:
        raise ValidationError("cache was produced by a different model (stale cache)")
    if len(cache.entries) != len(model.layers):
        raise ValidationError("cache entry count mismatch (stale cache)")


def backpropagate(model: Model, cache: ForwardCache, grad_logits):
    """Push a gradient at the logits back through the net.

    Returns (grads, grad_input): a gradient for every parameter tensor plus
    the gradient with respect to the model input.
    """
    _check_cache(model, cache)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.logits.shape:
        raise ValidationError(
            f"grad_logits shape {grad_logits.shape} != {cache.logits.shape}"
        )
    grads: dict[str, np.ndarray] = {}
    g = _backward_walk(model.layers, cache.entries, grad_logits, grads)
    return grads, g


def model_backward(model: Model, cache: ForwardCache, true_class: int):
    """Cross-entropy gradients for every parameter; returns (grads, loss)."""
    _, loss, grad_logits = softmax_xent(cache.logits, true_class)
    grads, _ = backpropagate(model, cache, grad_logits)
    missing = set(model.params) - set(grads)
    if missing:
        raise ValidationError(f"gradients missing for {sorted(missing)}")
    return grads, loss


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def save_model(model: Model) -> bytes:
    """Serialize to the container layout below; round trips are bit-exact.

    magic "V0XN" | u32 format version | u32 config length | config JSON |
    u32 tensor count | directory (u16 name length, name, u8 ndim, u32 dims),
    sorted by tensor name | payload: float64 little-endian tensor data in
    directory order.
    """
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<I", MODEL_FORMAT_VERSION)
    cfg = config_to_json(model.config).encode()
    out += struct.pack("<I", len(cfg))
    out += cfg
    names = sorted(model.params)
    out += struct.pack("<I", len(names))
    for name in names:
        nb = name.encode()
        arr = model.params[name]
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    for name in names:
        out += np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValidationError("model file truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as e:
            raise ValidationError(f"model file text is not UTF-8: {e}") from None


def load_model(data: bytes) -> Model:
    r = _Reader(data)
    if r.take(4) != MODEL_MAGIC:
        raise ValidationError("not a model file (bad magic)")
    (version,) = r.unpack("<I")
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {version}")
    (cfg_len,) = r.unpack("<I")
    config = config_from_json(r.text(cfg_len))
    layers = build_layers(config)
    expected = parameter_shapes(layers)
    (count,) = r.unpack("<I")
    if count != len(expected):
        raise ValidationError(
            f"model file has {count} tensors, architecture needs {len(expected)}"
        )
    directory = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if name not in expected:
            raise ValidationError(f"unexpected tensor {name!r} in model file")
        if shape != expected[name]:
            raise ValidationError(
                f"tensor {name!r} shape {shape} != expected {expected[name]}"
            )
        directory.append((name, shape))
    if [n for n, _ in directory] != sorted(expected):
        raise ValidationError("model file tensor directory incomplete or unsorted")
    params = {}
    for name, shape in directory:
        n_items = int(np.prod(shape))
        raw = r.take(8 * n_items)
        params[name] = np.frombuffer(raw, dtype="<f8").astype(
            np.float64).reshape(shape)
    if r.pos != len(data):
        raise ValidationError("trailing bytes after model payload")
    return Model(config=config, layers=layers, params=params,
                 input_shape=tuple(config.input_shape),
                 class_count=config.class_count)


def save_model_file(model: Model, path) -> None:
    from .volumes import atomic_write_bytes
    atomic_write_bytes(path, save_model(model))


def load_model_file(path) -> Model:
    with open(path, "rb") as f:
        return load_model(f.read())
