"""Gradient saliency volumes and region-enrichment scoring.

A saliency map is the gradient of a class's pre-softmax score with respect
to the input, reduced over the 3 channels by the maximum absolute value and
normalized to [0, 1].  Working at the logit rather than the probability
keeps gradients alive when the softmax saturates.  Its forward records for
the input gradient only (record="input"), so the backward runs no weight
GEMM and builds no parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import CLASSES
from .models import Model, backpropagate, forward


@dataclass
class SaliencyVolume:
    data: np.ndarray  # (D, H, W), values in [0, 1]
    class_id: int
    peak: float  # maximum magnitude before normalization


def saliency_map(model: Model, x, class_id: int) -> SaliencyVolume:
    """Per-voxel input attribution for `class_id` on one volume."""
    if not 0 <= class_id < model.class_count:
        raise ValidationError(
            f"class id {class_id} out of range for {model.class_count} classes"
        )
    _, cache = forward(model, x, mode="eval", record="input")
    grad_logits = np.zeros(model.class_count)
    grad_logits[class_id] = 1.0
    _, grad_input = backpropagate(model, cache, grad_logits)
    mag = np.abs(grad_input).max(axis=0)
    peak = float(mag.max())
    if peak > 0:
        mag = mag / peak
    return SaliencyVolume(data=mag, class_id=class_id, peak=peak)


def class_mean_saliency(model: Model, dataset, class_id: int,
                        ids=None) -> SaliencyVolume:
    """Voxelwise mean of per-sample maps over samples labeled `class_id`.

    `ids` restricts the pool (defaults to the whole dataset); the mean map
    is renormalized to peak 1.  Samples are chosen by `dataset.label_of`,
    the class name (metrics.CLASSES) of a sample's label, so only the
    chosen volumes are loaded; an unlabeled sample in the pool is refused.
    """
    if not 0 <= class_id < len(CLASSES):
        raise ValidationError(f"class id {class_id} names no class")
    pool = dataset.ids if ids is None else tuple(ids)
    name = CLASSES[class_id]
    chosen = [sid for sid in pool if dataset.label_of(sid) == name]
    if not chosen:
        raise ValidationError(f"no samples labeled {name}")
    acc = None
    for sid in chosen:
        x, _ = dataset.example(sid)
        m = saliency_map(model, x, class_id).data
        acc = m if acc is None else acc + m
    mean = acc / len(chosen)
    peak = float(mean.max())
    if peak > 0:
        mean = mean / peak
    return SaliencyVolume(data=mean, class_id=class_id, peak=peak)


def region_enrichment(saliency: SaliencyVolume, mask) -> float:
    """Saliency mass concentration inside `mask`, relative to its volume.

    (mass inside / total mass) ÷ (mask voxels / total voxels); 1.0 means no
    preference, larger means the map concentrates in the region.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != saliency.data.shape:
        raise ValidationError(
            f"mask shape {mask.shape} != saliency shape {saliency.data.shape}"
        )
    n_in = int(mask.sum())
    if n_in == 0:
        raise ValidationError("region mask is empty")
    total = float(saliency.data.sum())
    if total <= 0:
        raise ValidationError("saliency map has zero total mass")
    mass_frac = float(saliency.data[mask].sum()) / total
    vox_frac = n_in / mask.size
    return mass_frac / vox_frac
