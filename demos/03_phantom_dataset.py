"""Synthetic brain-phantom volumes: generation, the binary volume format,
and what makes the three classes separable.

Run: python3 demos/03_phantom_dataset.py
"""

import os
import tempfile

import numpy as np

from voxcnn.volumes import (
    PhantomParams,
    VolumeDataset,
    generate_phantoms,
    load_mask,
    load_volume,
)

params = PhantomParams(
    extents=(20, 22, 20),
    samples_per_class=4,
    region_radii=(1.6, 2.2, 2.8),
    noise_amplitude=0.05,
    jitter=0.8,
    seed=11,
)
with tempfile.TemporaryDirectory() as tmp:
    root = os.path.join(tmp, "phantoms")
    manifest = generate_phantoms(params, root)
    print(f"wrote {len(manifest.records)} volumes to {root}")

    dataset = VolumeDataset.from_manifest(os.path.join(root, "manifest.vman"))
    print(f"extents {dataset.extents}, splits: "
          f"{len(dataset.split_ids('train'))} train / "
          f"{len(dataset.split_ids('val'))} val / "
          f"{len(dataset.split_ids('test'))} test")

    print()
    print("== one volume, read back from disk ==")
    rec = load_volume(os.path.join(root, manifest.records[0].path))
    print(f"id {rec.id!r}, label {rec.label!r}, data {rec.data.shape} "
          f"{rec.data.dtype}, range [{rec.data.min():.3f}, {rec.data.max():.3f}]")

    print()
    print("== class separation: gray-matter mass inside the region mask ==")
    # The generator plants a GM blob whose radius grows from AD to CN; the
    # per-class region mask marks where that blob can appear.
    for cname in ("AD", "MCI", "CN"):
        mask = load_mask(os.path.join(root, "masks", f"mask_{cname}.vvol"))
        ids = [i for i in dataset.ids if dataset.label_of(i) == cname]
        gm_mass = float(np.mean(
            [dataset.example(i)[0][0][mask].sum() for i in ids]))
        print(f"{cname}: mask {mask.mean():6.2%} of voxels, "
              f"mean in-mask GM mass {gm_mass:8.2f} over {len(ids)} samples")
    print("mass rises from AD to CN: blob size and density carry the class")
