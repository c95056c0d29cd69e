"""Gradient saliency: where in the volume a trained model looks, and how
strongly that overlaps the generator's planted region.

Run: python3 demos/06_saliency.py  (about a minute)
"""

import os
import tempfile

import numpy as np

from voxcnn.models import AlexNetConfig, build_model
from voxcnn.saliency import (
    class_mean_saliency,
    region_enrichment,
    saliency_map,
)
from voxcnn.training import SplitPlan, TrainConfig, train
from voxcnn.volumes import (
    PhantomParams,
    VolumeDataset,
    generate_phantoms,
    load_mask,
)

root = os.path.join(tempfile.mkdtemp(), "phantoms")
params = PhantomParams(
    extents=(20, 22, 20),
    samples_per_class=8,
    region_radii=(1.6, 2.2, 2.8),
    noise_amplitude=0.05,
    jitter=0.8,
    seed=11,
)
generate_phantoms(params, root)
dataset = VolumeDataset.from_manifest(os.path.join(root, "manifest.vman"))
plan = SplitPlan(
    train_ids=dataset.split_ids("train"),
    val_ids=dataset.split_ids("val"),
    test_ids=dataset.split_ids("test"),
)

arch = AlexNetConfig(
    input_shape=(3, 20, 22, 20),
    conv_widths=(4, 8, 8, 8, 8),
    dense_widths=(16, 16),
    stem_kernel=3, stem_stride=1, stem_padding=1,
    pool_padding=1,
)
config = TrainConfig(epochs=60, lr0=3e-3, batch_size=6, l2_lambda=1e-4,
                     dropout_rate=0.0, validation_freq_iters=1000, seed=0)
print(f"training a small alexnet3d on {len(plan.train_ids)} phantoms ...")
model = build_model(arch, seed=config.seed)
model, _ = train(model, dataset, plan, config)

print()
print("== single-sample saliency ==")
sample_id = plan.train_ids[0]
x, y = dataset.example(sample_id)
smap = saliency_map(model, x, class_id=y)
print(f"sample {sample_id} (class {y}): map shape {smap.data.shape}, "
      f"peak {smap.data.max():.1f}, mean {smap.data.mean():.4f}")

print()
print("== class-mean saliency vs the generator's region mask ==")
for ci, cname in enumerate(("AD", "MCI", "CN")):
    mean_map = class_mean_saliency(model, dataset, ci)
    mask = load_mask(os.path.join(root, "masks", f"mask_{cname}.vvol"))
    score = region_enrichment(mean_map, mask)
    print(f"{cname}: enrichment {score:5.2f} "
          f"(mask covers {mask.mean():.2%} of voxels)")
print("values above 1 mean saliency mass concentrates inside the region")
