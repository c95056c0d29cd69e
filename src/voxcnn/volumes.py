"""Volume container format, dataset manifests, and the phantom generator.

Volume files hold one 3-channel volume (GM, WM, CSF order) as 32-bit floats;
computation elsewhere in the package is 64-bit, so 32-bit is purely a storage
format.  Byte layout, all integers little-endian:

    offset  size  field
    0       4     magic "VVOL"
    4       4     u32 format version (currently 1)
    8       4     u32 depth D
    12      4     u32 height H
    16      4     u32 width W
    20      4     u32 channel count (always 3)
    24      2     u16 id byte length
    26      -     id, utf-8
    -       2     u16 label byte length (0 = unlabeled)
    -       -     label, utf-8
    -       12*D*H*W  float32 payload, channel-major, row-major per channel
    -       4     u32 CRC-32 (zlib) of every preceding byte

A manifest is a text file whose first line is "#VMAN1 <json metadata>"
followed by one CSV record per volume: path,label,subject,split,fold
(path relative to the manifest's directory; split and fold may be empty).

The phantom generator stands in for preprocessed MRI: an ellipsoidal head
with a CSF rim, GM shell and WM core, plus two class-dependent features --
an off-center GM blob whose radius and GM density grow from AD to MCI to CN,
and a central CSF cavity that shrinks in the same order.  A binary region
mask around the blob site is emitted per class so saliency localization can
be scored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .metrics import CLASSES
from .seeding import derive_seed

VOLUME_MAGIC = b"VVOL"
VOLUME_FORMAT_VERSION = 1
MANIFEST_TAG = "#VMAN1"


def atomic_write_bytes(path, data: bytes) -> None:
    """Write-then-rename so failures never leave partial files behind.

    The tmp name is unique per process and thread; it is removed when the
    write fails.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def parse_key_values(text: str, types: dict, what: str) -> dict:
    """Typed values from `key = value` lines; '#' starts a comment.

    `types` maps each allowed key to int or float.  Unknown keys, lines
    without '=' and values that do not parse as the key's type (an int key
    rejects "32.7") raise ValidationError naming `what` and the line.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValidationError(f"{what} line {lineno}: expected 'key = value'")
        if key not in types:
            raise ValidationError(f"{what} line {lineno}: unknown key {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise ValidationError(
                f"{what} line {lineno}: bad value {value!r} for {key}"
            ) from None
    return values


# ---------------------------------------------------------------------------
# volume records and files
# ---------------------------------------------------------------------------


@dataclass
class VolumeRecord:
    id: str
    data: np.ndarray  # float32, (3, D, H, W), values in [0, 1]
    label: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("volume id must be non-empty")
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 4 or data.shape[0] != 3:
            raise ValidationError(
                f"volume data must be (3, D, H, W), got {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValidationError(f"volume {self.id!r}: non-finite values")
        if data.min() < 0.0 or data.max() > 1.0:
            raise ValidationError(
                f"volume {self.id!r}: values must lie in [0, 1]"
            )
        if self.label is not None and self.label not in CLASSES:
            raise ValidationError(
                f"volume {self.id!r}: unknown label {self.label!r}"
            )
        self.data = data

    @property
    def extents(self) -> tuple:
        return self.data.shape[1:]


def stack_input(record: VolumeRecord) -> np.ndarray:
    """Channel-major float64 tensor in GM, WM, CSF order; values untouched."""
    if record.data.shape[0] != 3:
        raise ValidationError("record must carry exactly 3 channels")
    return record.data.astype(np.float64)


def write_volume(record: VolumeRecord) -> bytes:
    d, h, w = record.extents
    out = bytearray()
    out += VOLUME_MAGIC
    out += struct.pack("<IIIII", VOLUME_FORMAT_VERSION, d, h, w, 3)
    idb = record.id.encode()
    out += struct.pack("<H", len(idb))
    out += idb
    labelb = (record.label or "").encode()
    out += struct.pack("<H", len(labelb))
    out += labelb
    out += np.ascontiguousarray(record.data, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def read_volume(data: bytes) -> VolumeRecord:
    if len(data) < 28:
        raise ValidationError("volume file truncated")
    if data[:4] != VOLUME_MAGIC:
        raise ValidationError("not a volume file (bad magic)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ValidationError("volume file checksum mismatch")
    version, d, h, w, channels = struct.unpack_from("<IIIII", data, 4)
    if version != VOLUME_FORMAT_VERSION:
        raise ValidationError(f"unsupported volume format version {version}")
    if channels != 3:
        raise ValidationError(f"expected 3 channels, file has {channels}")
    pos = 24
    try:
        (id_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        vol_id = data[pos:pos + id_len].decode()
        pos += id_len
        (label_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        label = data[pos:pos + label_len].decode() or None
    except (UnicodeDecodeError, struct.error) as e:
        raise ValidationError(f"volume id or label is malformed: {e}") from None
    pos += label_len
    n_bytes = 4 * 3 * d * h * w
    if len(data) != pos + n_bytes + 4:
        raise ValidationError("volume payload length mismatch")
    payload = np.frombuffer(data, dtype="<f4", count=3 * d * h * w, offset=pos)
    return VolumeRecord(id=vol_id, label=label,
                        data=payload.reshape(3, d, h, w).copy())


def save_volume(record: VolumeRecord, path) -> None:
    atomic_write_bytes(path, write_volume(record))


def load_volume(path) -> VolumeRecord:
    with open(path, "rb") as f:
        return read_volume(f.read())


def peek_extents(path) -> tuple:
    """Read (D, H, W) from the header without checksumming the payload."""
    with open(path, "rb") as f:
        head = f.read(24)
    if len(head) < 24 or head[:4] != VOLUME_MAGIC:
        raise ValidationError(f"{path}: not a volume file")
    version, d, h, w, channels = struct.unpack_from("<IIIII", head, 4)
    if version != VOLUME_FORMAT_VERSION or channels != 3:
        raise ValidationError(f"{path}: unsupported volume header")
    return (d, h, w)


def load_mask(path) -> np.ndarray:
    """Binary (D, H, W) mask from a mask volume (channel 0 thresholded)."""
    return load_volume(path).data[0] > 0.5


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str | None
    subject: str
    split: str | None = None
    fold: int | None = None


@dataclass
class Manifest:
    records: tuple
    metadata: dict
    base_dir: str = "."

    def resolve(self, rec: ManifestRecord) -> str:
        return os.path.join(self.base_dir, rec.path)


def write_manifest(manifest: Manifest, path) -> None:
    buf = io.StringIO()
    buf.write(f"{MANIFEST_TAG} "
              f"{json.dumps(manifest.metadata, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in manifest.records:
        writer.writerow([
            r.path, r.label or "", r.subject,
            r.split or "", "" if r.fold is None else r.fold,
        ])
    atomic_write_text(path, buf.getvalue())


def load_manifest(path) -> Manifest:
    """Parse and validate: unique subjects/paths, volumes present, extents equal."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith(MANIFEST_TAG + " "):
        raise ValidationError(f"{path}: missing {MANIFEST_TAG} header line")
    try:
        metadata = json.loads(lines[0][len(MANIFEST_TAG) + 1:])
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: malformed metadata JSON: {e}") from e
    base_dir = os.path.dirname(os.path.abspath(path))
    records = []
    for row in csv.reader(lines[1:]):
        if not row:
            continue
        if len(row) != 5:
            raise ValidationError(
                f"{path}: manifest rows need 5 fields, got {row!r}"
            )
        vol_path, label, subject, split, fold = (c.strip() for c in row)
        if label and label not in CLASSES:
            raise ValidationError(f"{path}: unknown label {label!r}")
        records.append(ManifestRecord(
            path=vol_path, label=label or None, subject=subject,
            split=split or None, fold=int(fold) if fold else None))
    subjects = [r.subject for r in records]
    if len(set(subjects)) != len(subjects):
        dup = next(s for s in subjects if subjects.count(s) > 1)
        raise ValidationError(f"duplicate subject id {dup!r} in manifest")
    paths = [r.path for r in records]
    if len(set(paths)) != len(paths):
        dup = next(p for p in paths if paths.count(p) > 1)
        raise ValidationError(f"duplicate volume path {dup!r} in manifest")
    manifest = Manifest(records=tuple(records), metadata=metadata,
                        base_dir=base_dir)
    extents = None
    for r in records:
        full = manifest.resolve(r)
        if not os.path.exists(full):
            raise ValidationError(f"manifest references missing volume {r.path!r}")
        e = peek_extents(full)
        if extents is None:
            extents = e
        elif e != extents:
            raise ValidationError(
                f"volume {r.path!r} extents {e} differ from {extents}"
            )
    return manifest


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


class VolumeDataset:
    """All manifest volumes loaded into memory, keyed by subject id."""

    def __init__(self, manifest: Manifest, records: dict, splits: dict):
        self.manifest = manifest
        self._records = records
        self._splits = splits

    @classmethod
    def from_manifest(cls, path) -> "VolumeDataset":
        manifest = load_manifest(path)
        records: dict = {}
        splits: dict = {}
        for mrec in manifest.records:
            vol = load_volume(manifest.resolve(mrec))
            if vol.id != mrec.subject:
                raise ValidationError(
                    f"volume {mrec.path!r} carries id {vol.id!r}, manifest "
                    f"says {mrec.subject!r}"
                )
            if mrec.label is not None and vol.label is not None \
                    and mrec.label != vol.label:
                raise ValidationError(
                    f"volume {mrec.path!r}: label disagrees with manifest"
                )
            records[mrec.subject] = vol
            splits[mrec.subject] = mrec.split
        return cls(manifest=manifest, records=records, splits=splits)

    @property
    def ids(self) -> tuple:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def extents(self) -> tuple:
        if not self._records:
            raise ValidationError("dataset holds no volumes")
        first = next(iter(self._records.values()))
        return first.extents

    def record(self, sample_id) -> VolumeRecord:
        try:
            return self._records[sample_id]
        except KeyError:
            raise ValidationError(f"unknown sample id {sample_id!r}") from None

    def label_of(self, sample_id) -> str:
        label = self.record(sample_id).label
        if label is None:
            raise ValidationError(f"sample {sample_id!r} is unlabeled")
        return label

    def example(self, sample_id):
        rec = self.record(sample_id)
        if rec.label is None:
            raise ValidationError(f"sample {sample_id!r} is unlabeled")
        return stack_input(rec), CLASSES.index(rec.label)

    def split_ids(self, split: str) -> tuple:
        """Ids tagged with `split`; "heldout" = val + test, "all" = everything."""
        if split == "all":
            return self.ids
        if split == "heldout":
            return tuple(i for i in self.ids
                         if self._splits[i] in ("val", "test"))
        ids = tuple(i for i in self.ids if self._splits[i] == split)
        return ids

    def ids_of_class(self, label: str) -> tuple:
        return tuple(i for i in self.ids if self._records[i].label == label)


# ---------------------------------------------------------------------------
# phantom generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhantomParams:
    """Knobs for the synthetic class-conditional head phantoms.

    region_radii and cavity_scales are ordered (AD, MCI, CN): the GM blob
    radius must increase strictly (healthy largest) while the CSF cavity
    scale must decrease strictly (disease dilates it).
    """

    extents: tuple = (32, 40, 32)
    samples_per_class: int = 200
    # radii and jitter are sized so each class mask stays near 2% of voxels
    region_radii: tuple = (3.6, 3.8, 4.0)
    # near-flat by default: a strong cavity signal competes with the blob
    # and smears saliency away from the masked region
    cavity_scales: tuple = (1.02, 1.01, 1.00)
    noise_amplitude: float = 0.05
    jitter: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(x) for x in self.extents))
        object.__setattr__(self, "region_radii",
                           tuple(float(x) for x in self.region_radii))
        object.__setattr__(self, "cavity_scales",
                           tuple(float(x) for x in self.cavity_scales))
        if len(self.extents) != 3 or min(self.extents) < 16:
            raise ValidationError(
                "phantom extents must be 3 values of at least 16 voxels"
            )
        if self.samples_per_class < 1:
            raise ValidationError("samples_per_class must be positive")
        if len(self.region_radii) != 3 or not (
                self.region_radii[0] < self.region_radii[1] < self.region_radii[2]):
            raise ValidationError(
                "region radii must increase strictly from AD to MCI to CN"
            )
        if len(self.cavity_scales) != 3 or not (
                self.cavity_scales[0] > self.cavity_scales[1] > self.cavity_scales[2]):
            raise ValidationError(
                "cavity scales must decrease strictly from AD to MCI to CN"
            )
        if self.noise_amplitude < 0:
            raise ValidationError("noise amplitude must be non-negative")
        if self.jitter < 0:
            raise ValidationError("jitter must be non-negative")
        max_blob = self.region_radii[2] + 1.2 * self.jitter
        if max_blob >= min(self.extents) / 4:
            raise ValidationError(
                "extents too small for the region template "
                f"(blob radius up to {max_blob:.1f} voxels)"
            )

    _KEYS = ("extent_depth", "extent_height", "extent_width",
             "samples_per_class",
             "region_radius_ad", "region_radius_mci", "region_radius_cn",
             "cavity_scale_ad", "cavity_scale_mci", "cavity_scale_cn",
             "noise_amplitude", "jitter", "seed")

    def to_text(self) -> str:
        d, h, w = self.extents
        r_ad, r_mci, r_cn = self.region_radii
        c_ad, c_mci, c_cn = self.cavity_scales
        values = (d, h, w, self.samples_per_class, r_ad, r_mci, r_cn,
                  c_ad, c_mci, c_cn, self.noise_amplitude, self.jitter,
                  self.seed)
        return "".join(f"{k} = {v!r}\n" for k, v in zip(self._KEYS, values))

    # file keys that together give one tuple field, in tuple order
    _GROUPS = {"extents": _KEYS[0:3], "region_radii": _KEYS[4:7],
               "cavity_scales": _KEYS[7:10]}

    @classmethod
    def from_text(cls, text: str) -> "PhantomParams":
        ints = cls._GROUPS["extents"] + ("samples_per_class", "seed")
        kwargs = parse_key_values(
            text, {k: int if k in ints else float for k in cls._KEYS},
            "phantom params")
        for name, keys in cls._GROUPS.items():
            given = [k for k in keys if k in kwargs]
            if given and len(given) < len(keys):
                raise ValidationError(
                    f"phantom params: {name} needs all of {', '.join(keys)}")
            if given:
                kwargs[name] = tuple(kwargs.pop(k) for k in keys)
        return cls(**kwargs)


# GM density inside the blob, per class: atrophy thins the region, so the
# disease end of the scale is dim and the healthy end bright
REGION_GM = {"AD": 0.35, "MCI": 0.65, "CN": 0.95}


def _ellipsoid_distance(extents, center, semi_axes):
    grids = np.ogrid[tuple(slice(0, e) for e in extents)]
    acc = np.zeros(extents)
    for g, c, s in zip(grids, center, semi_axes):
        acc = acc + ((g - c) / s) ** 2
    return np.sqrt(acc)


def _blob_center(extents) -> tuple:
    d, h, w = extents
    # off-center site standing in for a hippocampus-like structure
    return ((d - 1) / 2 + 0.15 * d, (h - 1) / 2 + 0.10 * h, (w - 1) / 2)


def make_phantom(params: PhantomParams, label: str, rng) -> VolumeRecord:
    """One 3-channel phantom for `label`, fully driven by `rng`."""
    if label not in CLASSES:
        raise ValidationError(f"unknown class {label!r}")
    c = CLASSES.index(label)
    extents = params.extents
    center = tuple((e - 1) / 2 for e in extents)
    head = _ellipsoid_distance(extents, center,
                               tuple(0.46 * e for e in extents))

    gm = np.where((head > 0.55) & (head <= 0.82), 0.9, 0.0)
    wm = np.where(head <= 0.55, 0.9, 0.0)
    csf = np.where((head > 0.82) & (head <= 1.0), 0.9, 0.0)

    # class-conditional GM blob: radius from the class mean, jittered in
    # size and position; replaces WM locally.  Density drops with disease
    # (atrophy), so both the size and the brightness of the blob carry the
    # class, and the evidence stays local to the masked region.
    radius = params.region_radii[c] + rng.uniform(-0.3, 0.3) * params.jitter
    radius = max(radius, 1.0)
    blob_center = tuple(b + rng.uniform(-params.jitter, params.jitter)
                        for b in _blob_center(extents))
    blob = _ellipsoid_distance(extents, blob_center, (radius,) * 3) <= 1.0
    gm[blob] = REGION_GM[label]
    wm[blob] = 0.05

    # class-conditional CSF cavity at the head center
    scale = params.cavity_scales[c]
    cavity = _ellipsoid_distance(
        extents, center, tuple(0.16 * e * scale for e in extents)) <= 1.0
    csf[cavity] = 0.9
    wm[cavity] = 0.05

    data = np.stack([gm, wm, csf])
    if params.noise_amplitude > 0:
        data = data + rng.normal(0.0, params.noise_amplitude, data.shape)
    data = np.clip(data, 0.0, 1.0)
    return VolumeRecord(id="unnamed", data=data.astype(np.float32),
                        label=label)


def region_mask(params: PhantomParams, label: str) -> np.ndarray:
    """Ground-truth blob neighborhood for `label`: mean radius + jitter + 1."""
    if label not in CLASSES:
        raise ValidationError(f"unknown class {label!r}")
    c = CLASSES.index(label)
    radius = params.region_radii[c] + params.jitter + 1.0
    return _ellipsoid_distance(params.extents, _blob_center(params.extents),
                               (radius,) * 3) <= 1.0


def generate_phantoms(params: PhantomParams, out_dir) -> Manifest:
    """Write volumes/, masks/, and manifest.vman under out_dir.

    Sample rngs derive from (seed, class, index), so regeneration with the
    same params is byte-identical.  Split tags (train/val/test, 70/15/15)
    are assigned up front so every consumer shares one split.
    """
    from .training import split_dataset

    out_dir = os.fspath(out_dir)
    vol_dir = os.path.join(out_dir, "volumes")
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(vol_dir, exist_ok=True)
    os.makedirs(mask_dir, exist_ok=True)

    ids, labels, rel_paths = [], {}, {}
    for label in CLASSES:
        for i in range(params.samples_per_class):
            sid = f"{label}{i:04d}"
            ids.append(sid)
            labels[sid] = label
            rel_paths[sid] = os.path.join("volumes", f"{sid}.vvol")

    plan = split_dataset(ids, seed=params.seed)
    split_of = {}
    for name, group in (("train", plan.train_ids), ("val", plan.val_ids),
                        ("test", plan.test_ids)):
        for sid in group:
            split_of[sid] = name

    for sid in ids:
        label = labels[sid]
        i = int(sid[len(label):])
        rng = np.random.default_rng(
            derive_seed(params.seed, f"sample:{label}:{i}"))
        rec = make_phantom(params, label, rng)
        rec.id = sid
        save_volume(rec, os.path.join(out_dir, rel_paths[sid]))

    mask_paths = {}
    for label in CLASSES:
        mask = region_mask(params, label).astype(np.float32)
        rec = VolumeRecord(id=f"mask_{label}",
                           data=np.stack([mask, mask, mask]), label=label)
        rel = os.path.join("masks", f"mask_{label}.vvol")
        save_volume(rec, os.path.join(out_dir, rel))
        mask_paths[label] = rel

    d, h, w = params.extents
    metadata = {
        "kind": "phantom",
        "extents": [d, h, w],
        "seed": params.seed,
        "samples_per_class": params.samples_per_class,
        "masks": mask_paths,
        "params": {k: v for k, v in zip(
            PhantomParams._KEYS,
            (d, h, w, params.samples_per_class, *params.region_radii,
             *params.cavity_scales, params.noise_amplitude, params.jitter,
             params.seed))},
    }
    records = tuple(
        ManifestRecord(path=rel_paths[sid], label=labels[sid], subject=sid,
                       split=split_of[sid], fold=None)
        for sid in ids
    )
    manifest = Manifest(records=records, metadata=metadata, base_dir=out_dir)
    write_manifest(manifest, os.path.join(out_dir, "manifest.vman"))
    return manifest
