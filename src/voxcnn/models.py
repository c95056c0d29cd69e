"""Volumetric network builders, whole-model execution, and model files.

Three architectures are provided: an AlexNet-style stack (5 conv + 3 dense),
a VGG16-style stack (13 conv + 3 dense), and a GoogleNet-style network built
from inception modules with a single classification head.  A model is its
architecture config (which fixes its input shape and class count), the
ordered layer list built from it, and a flat named parameter store;
execution walks the list forward and backward (producing a gradient for
every parameter and for the input).  A forward records what its backward
will compute, as one of three values (RECORD): "all" keeps every layer's
cache, for training and for backpropagate's parameter and input gradients;
"input" keeps what the input gradient needs and no parameter-gradient state
(no conv stride phases, no dense inputs), so a saliency backward runs no
weight GEMM; "none" keeps no cache past the next layer, and its pooling and
ReLUs skip their argmax and mask, for evaluation, which never
back-propagates.  _backpropagate alone picks the gradients: in training
the first layer runs `param_grads`, and no input gradient is computed.

Each layer class owns its kind: `out_shape`, `param_shapes`, `forward(x,
params, run)`, `backward` and `convs(shape)`, and a layer with parameters
`param_grads`; shape walks, parameter tables, execution and op counts are
loops over those methods.  `out_shape` checks extents only (out_extents):
the builders wire every layer's channels and widths, and the config fixes
the (3, D, H, W) input.  An inception module is a composite of four
branches of plain child layers named "<module>.<tag>".  A config holds the
architecture only: the dropout rate is part of the training recipe and
reaches the dropout layers through the forward call.  Every config
type-checks its fields when built, from Python or JSON alike, through
`volumes.check_fields`: a wrongly typed value is a ValidationError naming
the field, never truncated.  Its JSON (an `--arch-config` file, or inside a
model file) is the object of its fields, as every config file is
(`volumes.config_fields`), plus "architecture" and "format_version".
Layers call kernels by their module-global name at call time, so a wrapper
set on e.g. `voxcnn.models.conv3d` sees every call.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .errors import NumericError, ValidationError, VoxcnnError
from .kernels import (
    ConvSpec,
    PoolSpec,
    concat_channels,
    concat_channels_backward,
    conv3d,
    conv3d_backward,
    conv3d_param_grads,
    dense,
    dense_backward,
    dense_param_grads,
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
from .volumes import (
    Reader,
    atomic_write_bytes,
    check_fields,
    config_fields,
    config_from_fields,
    parse_json,
    seal,
)

CONFIG_FORMAT_VERSION = 2
MODEL_MAGIC = b"V0XN"
MODEL_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Per-call state a layer forward may read: the dropout generator and
    the rate of every dropout layer (None and 0 in eval mode), and which
    backward state is recorded (one of RECORD)."""

    gen: np.random.Generator | None
    dropout_rate: float
    record: str


# what a forward records: every gradient's state, the input gradient's, none
RECORD = ("all", "input", "none")


def quiet_fp():
    """np.errstate with no warning for overflow, invalid or divide-by-zero.

    A forward, a backward and a training step each run under it once: a
    non-finite value such an operation makes is then reported only as the
    NumericError of the forward walk's activation scan, adam_step's
    gradient check or train's loss check, also where warnings are errors
    (python -W error).  It changes no value.
    """
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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

    def backward(self, cache, g, grads: dict | None):
        """Return the input gradient; store parameter gradients in grads
        unless it is None (a cache recorded for the input gradient only)."""
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
        return (s.out_channels,) + out_extents(
            shape[1:], s.kernel, s.stride, s.padding, what=self.name)

    def param_shapes(self):
        s = self.spec
        return {f"{self.name}.w": (s.out_channels, s.in_channels) + s.kernel,
                f"{self.name}.b": (s.out_channels,)}

    def forward(self, x, params, run):
        out, cache = conv3d(x, params[f"{self.name}.w"],
                            params[f"{self.name}.b"], self.spec)
        if run.record == "input":
            cache = (None,) + cache[1:]  # the phases feed only the weight GEMMs
        return out, cache

    def backward(self, cache, g, grads):
        if grads is not None:
            self.param_grads(cache, g, grads)
        return conv3d_backward(cache, g)

    def param_grads(self, cache, g, grads):
        """Store the weight and bias gradients in grads; returns no input
        gradient."""
        grads[f"{self.name}.w"], grads[f"{self.name}.b"] = conv3d_param_grads(cache, g)

    def convs(self, shape):
        return [(self.name, self.spec, shape[1:])]


@dataclass(frozen=True)
class PoolLayer(Layer):
    kind: ClassVar[str] = "maxpool3d"
    spec: PoolSpec

    def out_shape(self, shape):
        s = self.spec
        return (shape[0],) + out_extents(
            shape[1:], s.kernel, s.stride, s.padding, what=self.name)

    def forward(self, x, params, run):
        out, _, cache = maxpool3d(x, self.spec, argmax=run.record != "none")
        return out, cache

    def backward(self, cache, g, grads):
        return maxpool3d_backward(cache, g)


@dataclass(frozen=True)
class ReluLayer(Layer):
    kind: ClassVar[str] = "relu"

    def forward(self, x, params, run):
        return relu(x, mask=run.record != "none")

    def backward(self, cache, g, grads):
        return relu_backward(cache, g)


@dataclass(frozen=True)
class DropoutLayer(Layer):
    kind: ClassVar[str] = "dropout"

    def forward(self, x, params, run):
        return dropout(x, run.dropout_rate, run.gen)

    def backward(self, cache, g, grads):
        return dropout_backward(cache, g)


@dataclass(frozen=True)
class FlattenLayer(Layer):
    kind: ClassVar[str] = "flatten"

    def out_shape(self, shape):
        return (math.prod(shape),)

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
        return (self.out_nodes,)

    def param_shapes(self):
        return {f"{self.name}.w": (self.out_nodes, self.in_nodes),
                f"{self.name}.b": (self.out_nodes,)}

    def forward(self, x, params, run):
        out, cache = dense(x, params[f"{self.name}.w"], params[f"{self.name}.b"])
        if run.record == "input":
            cache = (None, cache[1])  # the input feeds only the outer product
        return out, cache

    def backward(self, cache, g, grads):
        if grads is not None:
            self.param_grads(cache, g, grads)
        return dense_backward(cache, g)

    def param_grads(self, cache, g, grads):
        grads[f"{self.name}.w"], grads[f"{self.name}.b"] = dense_param_grads(cache, g)


@dataclass(frozen=True)
class SoftmaxLayer(Layer):
    """Probabilities from logits.  The cache is the logits; backward is the
    identity because gradients enter the net at the logits."""

    kind: ClassVar[str] = "softmax"

    def forward(self, x, params, run):
        probs, _, _ = softmax_xent(x)
        return probs, x


class InceptionSpec(NamedTuple):
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

    @property
    def out_channels(self) -> int:
        return self.branch1 + self.branch2 + self.branch3 + self.branch4_proj


def _forward_walk(layers, x, params, run: Run):
    """Run the layers in order; returns (output, per-layer caches).

    The one forward loop, for the top-level list and every inception branch:
    a layer's error gains its name, and a non-finite output raises
    NumericError naming the innermost layer that produced it.  When
    run.record is "none", only the last layer's cache is kept, each one
    dropped once the layer after it has run.
    """
    entries = []
    for l in layers:
        try:
            x, c = l.forward(x, params, run)
        except VoxcnnError as e:
            raise type(e)(f"layer {l.name!r}: {e}") from e
        if not np.isfinite(x).all():
            raise NumericError(f"layer {l.name!r}: non-finite activations")
        if run.record != "none":
            entries.append(c)
        else:
            entries = [c]
    return x, entries


def _backward_walk(layers, entries, g, grads: dict | None):
    """Walk the layers in reverse; returns the first layer's input gradient."""
    for n in range(len(layers) - 1, -1, -1):
        g = layers[n].backward(entries[n], g, grads)
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
        return (self.spec.out_channels,) + shape[1:]

    def param_shapes(self):
        return parameter_shapes(l for branch in self.branches for l in branch)

    def forward(self, x, params, run):
        walks = [_forward_walk(branch, x, params, run) for branch in self.branches]
        out, widths = concat_channels([out for out, _ in walks])
        if run.record == "none":
            return out, None
        return out, ([entries for _, entries in walks], widths)

    def backward(self, cache, g, grads):
        caches, widths = cache
        gs = [_backward_walk(branch, entries, gb, grads)
              for branch, entries, gb
              in zip(self.branches, caches, concat_channels_backward(widths, g))]
        return sum(gs[1:], gs[0])

    def convs(self, shape):
        return [c for branch in self.branches
                for l, (_, s) in zip(branch, infer_shapes(branch, shape))
                for c in l.convs(s)]


# ---------------------------------------------------------------------------
# architecture configs
# ---------------------------------------------------------------------------


def _entries(v) -> list:
    """The numbers of a tuple field, nested ones included."""
    return [x for e in v for x in _entries(e)] if isinstance(v, tuple) else [v]


@dataclass(frozen=True)
class _ArchConfig:
    """Base of the architecture configs; subclasses declare the fields.

    Building one checks every field's type (volumes.check_fields), the
    (3, D, H, W) input shape, the class count, the length of each tuple
    field named in `lengths`, and that every tuple entry is positive.
    """

    architecture: ClassVar[str]
    # tuple field -> (required length, what its entries are)
    lengths: ClassVar[dict]

    def __post_init__(self):
        check_fields(self, "architecture config")
        shape = self.input_shape
        if len(shape) != 4 or shape[0] != 3:
            raise ValidationError(
                f"input shape must be (3, D, H, W), got {shape}"
            )
        if self.class_count < 2:
            raise ValidationError("class count must be at least 2")
        for name, (n, what) in self.lengths.items():
            if len(getattr(self, name)) != n:
                raise ValidationError(
                    f"{self.architecture} needs exactly {n} {what}")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple) and any(x < 1 for x in _entries(v)):
                raise ValidationError(f"{f.name} entries must be positive")


@dataclass(frozen=True)
class AlexNetConfig(_ArchConfig):
    """Five conv stages and a three-layer dense head.

    The stem kernel/stride and the second-stage kernel are configurable so
    reduced-extent variants stay cheap; later convs are fixed 3x3x3 stride 1
    with extent-preserving padding.
    """

    architecture: ClassVar[str] = "alexnet3d"
    lengths: ClassVar[dict] = {"conv_widths": (5, "conv widths"),
                               "dense_widths": (2, "hidden dense widths")}
    input_shape: tuple = (3, 157, 189, 156)
    conv_widths: tuple = (64, 128, 192, 192, 128)
    dense_widths: tuple = (128, 128)
    stem_kernel: int = 7
    stem_stride: int = 2
    stem_padding: int = 3
    mid_kernel: int = 5
    pool_padding: int = 0
    class_count: int = 3


@dataclass(frozen=True)
class VggConfig(_ArchConfig):
    """Thirteen 3x3x3 convs in blocks of (2, 2, 3, 3, 3) plus 3 dense layers."""

    architecture: ClassVar[str] = "vgg16-3d"
    lengths: ClassVar[dict] = {"block_widths": (5, "block widths"),
                               "dense_widths": (2, "hidden dense widths")}
    block_sizes: ClassVar[tuple] = (2, 2, 3, 3, 3)
    input_shape: tuple = (3, 157, 189, 156)
    block_widths: tuple = (64, 128, 256, 512, 512)
    dense_widths: tuple = (32, 32)
    pool_padding: int = 1
    class_count: int = 3


@dataclass(frozen=True)
class GoogleNetConfig(_ArchConfig):
    """Conv/pool stem, three inception stages, one dense classification head."""

    architecture: ClassVar[str] = "googlenet3d"
    lengths: ClassVar[dict] = {"stem_widths": (3, "stem widths")}
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
    class_count: int = 3

    def __post_init__(self):
        super().__post_init__()
        stages = self.inception
        if len(stages) != 3 or any(not 1 <= len(s) <= 10 for s in stages):
            raise ValidationError(
                "googlenet3d needs 3 inception stages of 1 to 10 modules")
        for t in (t for stage in stages for t in stage):
            if len(t) != 6:
                raise ValidationError(
                    f"an inception module needs 6 widths, got {t}")
        object.__setattr__(self, "inception", tuple(
            tuple(InceptionSpec(*t) for t in stage) for stage in stages))


ArchConfig = Union[AlexNetConfig, VggConfig, GoogleNetConfig]


def config_to_dict(cfg: ArchConfig) -> dict:
    return {"architecture": cfg.architecture,
            "format_version": CONFIG_FORMAT_VERSION, **config_fields(cfg)}


def config_from_dict(d: dict) -> ArchConfig:
    if not isinstance(d, dict):
        raise ValidationError("architecture config must be a JSON object")
    arch = d.get("architecture")
    if arch not in _ARCHITECTURES:
        raise ValidationError(f"unknown architecture {arch!r}")
    version = d.get("format_version", CONFIG_FORMAT_VERSION)
    if version != CONFIG_FORMAT_VERSION:
        raise ValidationError(f"unsupported config format version {version}")
    cls, _ = _ARCHITECTURES[arch]
    return config_from_fields(
        cls, {k: v for k, v in d.items()
              if k not in ("architecture", "format_version")},
        "architecture config")


def config_to_json(cfg: ArchConfig) -> str:
    """Canonical single-line JSON; stable across runs for byte-exact files."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_from_json(text: str) -> ArchConfig:
    return config_from_dict(parse_json(text, "malformed architecture config JSON"))


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass
class Model:
    config: ArchConfig
    layers: tuple
    params: dict

    @property
    def architecture(self) -> str:
        return self.config.architecture

    @property
    def input_shape(self) -> tuple:
        return self.config.input_shape

    @property
    def class_count(self) -> int:
        return self.config.class_count


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
            fan_in = math.prod(shape[1:])
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
        DropoutLayer("drop1"),
        DenseLayer("fc2", dw[0], dw[1]),
        ReluLayer("relu_fc2"),
        DropoutLayer("drop2"),
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
        DropoutLayer("drop_head"),
        DenseLayer("head", feat, config.class_count),
        SoftmaxLayer("softmax"),
    ]
    return tuple(layers)


# architecture name -> (config class, layer builder)
_ARCHITECTURES = {cls.architecture: (cls, builder) for cls, builder in (
    (AlexNetConfig, build_alexnet3d_layers),
    (VggConfig, build_vgg16_3d_layers),
    (GoogleNetConfig, build_googlenet3d_layers),
)}


def build_layers(config: ArchConfig) -> tuple:
    _, builder = _ARCHITECTURES[config.architecture]
    return builder(config)


def build_model(config: ArchConfig, seed: int = 0) -> Model:
    layers = build_layers(config)
    params = _init_params(parameter_shapes(layers), seed)
    return Model(config=config, layers=layers, params=params)


def layer_census(layers) -> dict:
    """Counts of top-level conv layers, dense layers, and inception modules."""
    kinds = [l.kind for l in layers]
    return {"conv": kinds.count("conv3d"), "dense": kinds.count("dense"),
            "inception": kinds.count("concat-group")}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    """What backward reads; layers and params identify the model, record is
    the forward's (one of RECORD), and entries is None for record="none"."""

    layers: tuple
    params: dict
    record: str
    entries: list | None
    logits: np.ndarray


def forward(model: Model, x, mode: str = "eval", rng=None,
            dropout_rate: float = 0.0, record: str = "all"):
    """Run the model on one volume; returns (probs, ForwardCache).

    Eval mode is deterministic and ignores rng and dropout_rate; train mode
    drops activations at every dropout layer at dropout_rate (the training
    recipe's rate; 0 applies none), drawing masks from rng (an int seed or a
    numpy Generator).  record (one of RECORD) matters only to what the cache
    can do, in either mode:
    - "all" keeps every layer's cache, for model_backward and for
      backpropagate's parameter and input gradients;
    - "input" keeps what the input gradient needs: convs drop their stride
      phases and dense layers their input, so backpropagate returns the
      input gradient alone and model_backward refuses the cache;
    - "none" suits a caller that reads only the probabilities or
      cache.logits: no layer's cache outlives the layer after it, pooling
      skips its argmax and ReLUs their mask, and the returned cache holds
      only the logits, which both backward entry points refuse.
    The probabilities and logits are the same bit for bit for every value.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    if record not in RECORD:
        raise ValidationError(f"forward record must be one of {RECORD}, got {record!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.input_shape:
        raise ValidationError(
            f"input shape {x.shape} does not match model input {model.input_shape}"
        )
    if not np.isfinite(x).all():
        raise NumericError("model input: non-finite values")
    run = (Run(np.random.default_rng(rng), dropout_rate, record)
           if mode == "train" else Run(None, 0.0, record))
    with quiet_fp():
        probs, entries = _forward_walk(model.layers, x, model.params, run)
    kept = None if record == "none" else entries
    return probs, ForwardCache(model.layers, model.params, record, kept, entries[-1])


def backpropagate(model: Model, cache: ForwardCache, grad_logits):
    """Push a gradient at the logits back through the net.

    Returns (grads, grad_input): the gradient with respect to the model
    input, and a gradient for every parameter tensor from a record="all"
    cache or none ({}) from a record="input" one.  A record="none" cache is
    refused.
    """
    return _backpropagate(model, cache, grad_logits, training=False)


def _backpropagate(model: Model, cache: ForwardCache, grad_logits,
                   training: bool):
    if cache.layers is not model.layers or cache.params is not model.params:
        raise ValidationError("cache was recorded by a different model (stale cache)")
    record = cache.record
    if record == "none":
        raise ValidationError(
            "the forward recorded no backward state (record='none'); "
            "run forward with record='all' to back-propagate")
    if training and record == "input":
        raise ValidationError(
            "the forward recorded no parameter-gradient state "
            "(record='input'); run forward with record='all' for parameter "
            "gradients")
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.logits.shape:
        raise ValidationError(
            f"grad_logits shape {grad_logits.shape} != {cache.logits.shape}"
        )
    grads = {} if record == "all" else None
    with quiet_fp():
        if training:
            g = _backward_walk(model.layers[1:], cache.entries[1:], grad_logits,
                               grads)
            model.layers[0].param_grads(cache.entries[0], g, grads)
            return grads, None
        g = _backward_walk(model.layers, cache.entries, grad_logits, grads)
    return grads or {}, g


def model_backward(model: Model, cache: ForwardCache, true_class: int):
    """Cross-entropy gradients for every parameter; returns (grads, loss).

    Training never reads the model-input gradient, so it is not computed.
    The cache must come from a record="all" forward.
    """
    _, loss, grad_logits = softmax_xent(cache.logits, true_class)
    grads, _ = _backpropagate(model, cache, grad_logits, training=True)
    return grads, loss


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def save_model(model: Model) -> bytes:
    """Serialize to the container layout below; round trips are bit-exact.

    magic "V0XN" | u32 format version | u32 config length | config JSON |
    u32 tensor count | directory (u16 name length, name, u8 ndim, u32 dims),
    sorted by tensor name | payload: float64 little-endian tensor data in
    directory order | u32 CRC-32 (zlib) of every preceding byte: the
    framing of volumes.seal and volumes.Reader.  load_model reads this
    version only.

    A non-finite tensor raises NumericError, as load_model would refuse it.
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
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor {name!r} holds non-finite values")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    for name in names:
        out += np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
    return seal(out)


def load_model(data: bytes) -> Model:
    r = Reader(data, "model")
    r.open(MODEL_MAGIC, MODEL_FORMAT_VERSION)
    config = config_from_json(r.text("<I"))
    layers = build_layers(config)
    expected = parameter_shapes(layers)
    (count,) = r.unpack("<I")
    if count != len(expected):
        raise ValidationError(
            f"model file has {count} tensors, architecture needs {len(expected)}"
        )
    directory = []
    for _ in range(count):
        name = r.text("<H")
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
        raw = r.take(8 * math.prod(shape))
        params[name] = np.frombuffer(raw, dtype="<f8").astype(
            np.float64).reshape(shape)
        if not np.isfinite(params[name]).all():
            raise ValidationError(f"tensor {name!r} holds non-finite values")
    r.done()
    return Model(config=config, layers=layers, params=params)


def save_model_file(model: Model, path) -> None:
    atomic_write_bytes(path, save_model(model))


def load_model_file(path) -> Model:
    with open(path, "rb") as f:
        return load_model(f.read())
