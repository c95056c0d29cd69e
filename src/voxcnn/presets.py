"""Shipped architecture and training configurations.

Three tiers per architecture: the full-size default at the canonical
3x157x189x156 input (used for shape and parameter-budget checks; the tests
and demos run none of it forward, though one alexnet3d or googlenet3d eval
forward takes about 6-8 s and 1.1 GiB with one BLAS thread), a toy tier at
3x32x40x32 for end-to-end phantom experiments, and a micro tier at 3x9x9x9
for gradient checks and optimizer sanity runs.  Reduced tiers shrink stem
kernels and channel widths but keep each architecture's layer census
identical to its full-size default.

Presets are config values, not factories: every config class is a frozen
dataclass with tuple fields, so one shared instance cannot be changed by a
caller (`dataclasses.replace` makes a new one).
"""

from __future__ import annotations

from .errors import ValidationError
from .models import AlexNetConfig, ArchConfig, GoogleNetConfig, VggConfig
from .training import TrainConfig

TOY_SHAPE = (3, 32, 40, 32)
MICRO_SHAPE = (3, 9, 9, 9)

ARCH_PRESETS = {
    "alexnet3d": AlexNetConfig(),
    "alexnet3d-toy": AlexNetConfig(
        input_shape=TOY_SHAPE,
        conv_widths=(8, 16, 24, 24, 16),
        dense_widths=(64, 64),
        stem_kernel=5, stem_stride=2, stem_padding=2,
        mid_kernel=3, pool_padding=1,
    ),
    "alexnet3d-micro": AlexNetConfig(
        input_shape=MICRO_SHAPE,
        conv_widths=(4, 8, 8, 8, 8),
        dense_widths=(16, 16),
        stem_kernel=3, stem_stride=1, stem_padding=1,
        mid_kernel=3, pool_padding=1,
    ),
    "vgg16-3d": VggConfig(),
    "vgg16-3d-toy": VggConfig(
        input_shape=TOY_SHAPE,
        block_widths=(8, 16, 24, 32, 32),
        dense_widths=(32, 32),
    ),
    "vgg16-3d-micro": VggConfig(
        input_shape=MICRO_SHAPE,
        block_widths=(4, 8, 8, 16, 16),
        dense_widths=(16, 16),
    ),
    "googlenet3d": GoogleNetConfig(),
    "googlenet3d-toy": GoogleNetConfig(
        input_shape=TOY_SHAPE,
        stem_widths=(8, 8, 16),
        stem_kernel=5, stem_stride=2, stem_padding=2,
        inception=(
            ((4, 4, 6, 2, 3, 3), (6, 6, 8, 2, 4, 4)),
            ((6, 6, 8, 2, 4, 4), (6, 6, 8, 2, 4, 4), (6, 6, 8, 2, 4, 4),
             (6, 6, 8, 2, 4, 4), (8, 8, 12, 2, 6, 6)),
            ((8, 8, 12, 2, 6, 6), (8, 8, 12, 2, 6, 6)),
        ),
    ),
    "googlenet3d-micro": GoogleNetConfig(
        input_shape=MICRO_SHAPE,
        stem_widths=(4, 4, 8),
        stem_kernel=3, stem_stride=1, stem_padding=1,
        inception=(
            ((3, 3, 4, 2, 2, 2), (4, 4, 6, 2, 3, 3)),
            ((4, 4, 6, 2, 3, 3), (4, 4, 6, 2, 3, 3), (4, 4, 6, 2, 3, 3),
             (4, 4, 6, 2, 3, 3), (4, 4, 6, 2, 3, 3)),
            ((4, 4, 6, 2, 3, 3), (4, 4, 6, 2, 3, 3)),
        ),
    ),
}

TRAIN_PRESETS = {
    "default": TrainConfig(),
    # The default schedule (lr 1e-5 over 1024 epochs) is far too slow for a
    # 30-epoch desk run; these values reach high accuracy on toy phantoms.
    # Light dropout keeps the learned evidence spatially compact, which the
    # saliency enrichment check depends on.
    "phantom-toy": TrainConfig(
        epochs=30, lr0=1e-3, l2_lambda=1e-4, dropout_rate=0.1,
    ),
    # Overfit-on-purpose settings for the 4-sample optimizer sanity run.
    # GoogleNet3D at micro widths needs a smaller step (around 1e-3).
    "memorize-micro": TrainConfig(
        epochs=500, lr0=3e-3, l2_lambda=0.0, dropout_rate=0.0, batch_size=4,
    ),
}


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValidationError(
            f"unknown {what} preset {name!r} (known: {known})"
        ) from None


def arch_preset(name: str) -> ArchConfig:
    return _lookup(ARCH_PRESETS, name, "architecture")


def train_preset(name: str) -> TrainConfig:
    return _lookup(TRAIN_PRESETS, name, "training")
