"""Binary containers, volume files, dataset manifests, and the phantom generator.

The volume (`.vvol`) and model (`.v0xn`, voxcnn.models) containers share
one framing, written by `seal` and read by `Reader`: magic, u32 version,
fields, and a u32 CRC-32 of every preceding byte.  Each reader accepts
only the one version the library writes.

Volume files hold one 3-channel volume (GM, WM, CSF order) as 32-bit floats;
computation elsewhere in the package is 64-bit, so 32-bit is purely a storage
format.  Byte layout, all integers little-endian:

    offset  size  field
    0       4     magic "VVOL"
    4       4     u32 format version (currently 1, sealed)
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

A manifest is a text file whose first line is "#VMAN2 <json metadata>"
followed by one CSV record per volume: path,label,subject,split (path
relative to the manifest's directory; label and split may be empty).

load_manifest reads the manifest alone and opens no volume.  VolumeDataset
is built from a Manifest (from_manifest: from its file) and holds each
volume encoded, never decoded: it opens each listed file once, reads and
fully checks it, then keeps a read-only map of it and no open descriptor;
a missing file is a FileNotFoundError.  `record`/`example` copy the mapped
bytes once, drop the map's resident pages and decode and re-check the copy,
on every call.
Resident memory so follows the volume being read, not the dataset's size
(1,500 full-size volumes of 3x157x189x156 float32 are 83 GB).
A mapped file stays readable after it is unlinked and keeps its contents
when replaced by rename, as every writer here replaces files.  Bytes
written into it in place are read, and refused unless they are a whole valid
volume with the same id, label and extents; truncating it in place makes
reading the lost pages a SIGBUS, as with any mapped file.

The phantom generator stands in for preprocessed MRI: an ellipsoidal head
with a CSF rim, GM shell and WM core, plus two class-dependent features --
an off-center GM blob whose radius and GM density grow from AD to MCI to CN,
and a central CSF cavity that shrinks in the same order.  A binary region
mask around the blob site is emitted per class so saliency localization can
be scored.

Every config file (architecture, training, phantom params) is one JSON
object of its dataclass's fields: config_fields writes that object and
config_from_fields reads it back; check_fields type-checks the fields of
every config dataclass, however it was built.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import math
import mmap
import numbers
import os
import struct
import threading
import weakref
import zlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .metrics import CLASSES, class_index
from .seeding import derive_seed

VOLUME_MAGIC = b"VVOL"
VOLUME_FORMAT_VERSION = 1
MANIFEST_TAG = "#VMAN2"


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


def read_text(path) -> str:
    """A UTF-8 text file's content; other bytes raise ValidationError."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: not UTF-8 text: {e}") from None


def parse_json(text: str, what: str):
    """json.loads; malformed text, a repeated object key, an int too long
    to read and nesting too deep to parse raise ValidationError, its message
    opened by `what`."""
    def unique(pairs):
        keys = [k for k, _ in pairs]
        if len(set(keys)) != len(keys):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise ValueError(f"repeated key {dup!r}")
        return dict(pairs)

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (ValueError, RecursionError) as e:
        raise ValidationError(f"{what}: {e}") from e


def config_fields(config) -> dict:
    """{field name: value} of dataclass `config`: the JSON object that
    config_from_fields reads back (json.dumps writes tuples as arrays)."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_fields(cls, obj, what: str):
    """Dataclass `cls` built from `obj`, a parsed JSON object holding some
    of its fields (the rest take their defaults).  Anything but an object,
    or a key that is not a field, raises ValidationError naming `what`;
    `cls` checks each value (check_fields)."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    names = {f.name for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise ValidationError(f"unknown {what} field {key!r}")
    return cls(**obj)


def check_fields(config, what: str) -> None:
    """Check every dataclass field of `config` against its default's type
    and store the checked value (frozen dataclasses included).

    An int default takes an integer but not a bool, stored as int (numpy
    integers too); a float default takes a finite real, stored as float; a
    tuple default takes a list or tuple, each entry checked like the
    default's first entry, stored as a tuple.  Anything else raises
    ValidationError naming `what` and the field.
    """
    for f in fields(config):
        value = check_value(getattr(config, f.name), f.default,
                            f"{what} field {f.name!r}")
        object.__setattr__(config, f.name, value)


def check_value(value, like, what: str):
    """`value` checked and converted as check_fields does for a field whose
    default is `like`; errors name `what`."""
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{what} must be a list, got {value!r}")
        return tuple(check_value(v, like[0], what) for v in value)
    if isinstance(like, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(f"{what} must be finite, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
        try:
            id_size = len(self.id.encode())
        except UnicodeEncodeError as e:
            raise ValidationError(f"volume id is not UTF-8: {e}") from None
        if id_size > 0xFFFF:  # write_volume's u16 length
            raise ValidationError(
                f"volume id is {id_size} UTF-8 bytes, more than the 65,535 "
                "a volume file holds")
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 4 or data.shape[0] != 3 or 0 in data.shape:
            raise ValidationError(
                f"volume data must be (3, D, H, W) with positive extents, "
                f"got {data.shape}"
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
    """Channel-major float64 tensor in GM, WM, CSF order; values untouched
    (a VolumeRecord always holds 3 channels)."""
    return record.data.astype(np.float64)


def seal(body: bytearray) -> bytes:
    """`body` with its CRC-32 trailer appended (in place), as bytes."""
    body += struct.pack("<I", zlib.crc32(body))
    return bytes(body)


class Reader:
    """Reads one container's fields in order; errors name the container
    (`what`, e.g. "volume").  Call `open` first and `done` last."""

    def __init__(self, data, what: str):
        self.data = memoryview(data)
        self.what = what
        self.pos = 0
        self.end = len(self.data)

    def open(self, magic: bytes, version: int) -> None:
        """Check the magic, the u32 version (it must be `version`) and the
        checksum, and put the CRC trailer outside the readable range."""
        if self.take(len(magic)) != magic:
            raise ValidationError(f"not a {self.what} file (bad magic)")
        (found,) = self.unpack("<I")
        if found != version:
            raise ValidationError(
                f"unsupported {self.what} format version {found}")
        self.end -= 4
        body, crc = self.data[:self.end], self.data[self.end:]
        if self.end < self.pos or zlib.crc32(body) != int.from_bytes(crc, "little"):
            raise ValidationError(f"{self.what} file checksum mismatch")

    def take(self, n: int) -> memoryview:
        """The next n bytes, as a view: no copy is made."""
        if self.pos + n > self.end:
            raise ValidationError(
                f"{self.what} file truncated or malformed: {n} bytes needed "
                f"at offset {self.pos}, {self.end - self.pos} left")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, length_fmt: str) -> str:
        """UTF-8 text after its byte length, a `length_fmt` integer."""
        (n,) = self.unpack(length_fmt)
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise ValidationError(
                f"{self.what} file text is malformed, not UTF-8: {e}") from None

    def done(self) -> None:
        if self.pos != self.end:
            raise ValidationError(f"trailing bytes after {self.what} payload")


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
    return seal(out)


def read_volume(data: bytes) -> VolumeRecord:
    """The volume encoded in `data`; the record shares its payload,
    read-only."""
    r = Reader(data, "volume")
    r.open(VOLUME_MAGIC, VOLUME_FORMAT_VERSION)
    d, h, w, channels = r.unpack("<IIII")
    if channels != 3:
        raise ValidationError(f"expected 3 channels, file has {channels}")
    vol_id = r.text("<H")
    label = r.text("<H") or None
    payload = np.frombuffer(r.take(12 * d * h * w), dtype="<f4")
    r.done()
    return VolumeRecord(id=vol_id, label=label,
                        data=payload.reshape(3, d, h, w))


def save_volume(record: VolumeRecord, path) -> None:
    atomic_write_bytes(path, write_volume(record))


def load_volume(path) -> VolumeRecord:
    with open(path, "rb") as f:
        return read_volume(f.read())


try:
    _libc = ctypes.CDLL(None, use_errno=True)
    _libc.mmap.restype = ctypes.c_void_p
    _libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                           ctypes.c_int, ctypes.c_int, ctypes.c_long)
    _libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    _libc.munmap.restype = ctypes.c_int
    _libc.madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    _libc.madvise.restype = ctypes.c_int
except (OSError, TypeError, AttributeError):  # no C library mmap
    _libc = None


def _map_file(f):
    """A read-only shared map of open file `f`, unmapped when the last
    reference to it goes.

    mmap.mmap keeps a duplicate of the descriptor for as long as the map
    lives (before Python 3.13), one descriptor per volume, and 1,500
    volumes would pass the common limit of 1,024 open files.  libc's mmap
    keeps none; mmap.mmap serves only where there is no libc mmap.

    Pages read through a map count as resident until `_drop_pages` drops
    them.  Unlike munmap, that is safe while another thread reads the same
    range (as `crossval --workers` threads do): the pages stay in the page
    cache and the map keeps the file, unlinked or not, so the next read
    faults the same bytes back in.
    """
    if _libc is None:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    size = os.fstat(f.fileno()).st_size
    addr = _libc.mmap(None, size, mmap.PROT_READ, mmap.MAP_SHARED,
                      f.fileno(), 0)
    if addr in (None, ctypes.c_void_p(-1).value):
        err = ctypes.get_errno()
        raise OSError(err, f"mmap failed: {os.strerror(err)}", f.name)
    view = (ctypes.c_ubyte * size).from_address(addr)
    # at exit the process unmaps it; unmapping earlier could pull the
    # pages from under a thread still reading them
    weakref.finalize(view, _libc.munmap, addr, size).atexit = False
    return view


def _drop_pages(view) -> None:
    """Take the pages of `view`, a `_map_file` map, out of resident memory
    (MADV_DONTNEED); where the platform has no madvise, do nothing."""
    dontneed = getattr(mmap, "MADV_DONTNEED", None)
    if dontneed is None:
        return
    if isinstance(view, mmap.mmap):
        view.madvise(dontneed)
    else:  # unchecked: a failure only leaves the pages resident
        _libc.madvise(ctypes.addressof(view), ctypes.sizeof(view), dontneed)


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
        writer.writerow([r.path, r.label or "", r.subject, r.split or ""])
    atomic_write_text(path, buf.getvalue())


def load_manifest(path) -> Manifest:
    """Parse and validate the manifest alone: its header, unique subjects
    and paths, known labels and split tags.

    No volume file is opened or checked: VolumeDataset opens each once.
    """
    lines = read_text(path).splitlines()
    tag, space, header = (lines[0] if lines else "").partition(" ")
    if tag != MANIFEST_TAG or not space:
        raise ValidationError(f"{path}: missing {MANIFEST_TAG} header line")
    metadata = parse_json(header, f"{path}: malformed metadata JSON")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        rows = list(csv.reader(lines[1:]))
    except csv.Error as e:  # e.g. a cell over csv's field size limit
        raise ValidationError(f"{path}: unreadable manifest row: {e}") from e
    records = []
    for row in rows:
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(
                f"{path}: {MANIFEST_TAG} manifest rows need 4 fields, got {row!r}"
            )
        vol_path, label, subject, split = (c.strip() for c in row)
        for name, cell in (("path", vol_path), ("subject", subject)):
            if not cell:
                raise ValidationError(
                    f"{path}: empty {name} cell in manifest row {row!r}")
        if label and label not in CLASSES:
            raise ValidationError(f"{path}: unknown label {label!r}")
        if split not in ("", "train", "val", "test"):
            raise ValidationError(f"{path}: unknown split tag {split!r}")
        records.append(ManifestRecord(
            path=vol_path, label=label or None, subject=subject,
            split=split or None))
    for what, field in (("subject id", "subject"), ("volume path", "path")):
        values = [getattr(r, field) for r in records]
        if len(set(values)) != len(values):
            dup = next(v for v in values if values.count(v) > 1)
            raise ValidationError(f"duplicate {what} {dup!r} in manifest")
    return Manifest(records=tuple(records), metadata=metadata,
                    base_dir=base_dir)


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


class _Held(NamedTuple):
    """One dataset sample: its volume file's map and what loading read of it."""

    data: object  # a `_map_file` map of the volume file
    label: str | None
    extents: tuple
    split: str | None  # the manifest's split tag


class VolumeDataset:
    """A manifest's volumes keyed by subject id, all of one extent, each
    held as a read-only map of its file.

    A volume is decoded and fully checked (CRC-32, header, values) on
    every `record` or `example` call, and refused if its id, label or
    extents differ from those read when the dataset was built; `ids`,
    `label_of`, `extents` and `split_ids` decode nothing.  So the process
    holds no decoded volume between calls, and no page of a map.
    """

    def __init__(self, manifest: Manifest):
        """Open each file `manifest` lists once, read and fully check it,
        then hold a map of it with no descriptor left open (see the module
        docstring).  A repeated subject, a volume whose id is not its
        subject, whose extents differ from the first's or whose label
        disagrees with the manifest raise ValidationError; a missing file
        raises FileNotFoundError."""
        self._held = {}
        for mrec in manifest.records:
            what = f"volume {mrec.path!r}"
            if mrec.subject in self._held:
                raise ValidationError(
                    f"duplicate subject id {mrec.subject!r} in manifest")
            with open(manifest.resolve(mrec), "rb") as f:
                vol = read_volume(f.read())
                data = _map_file(f)
            if vol.id != mrec.subject:
                raise ValidationError(
                    f"{what} carries id {vol.id!r}, listed as {mrec.subject!r}")
            if self._held and vol.extents != self.extents:
                raise ValidationError(
                    f"{what} extents {vol.extents} differ from {self.extents}")
            if mrec.label is not None and vol.label is not None \
                    and mrec.label != vol.label:
                raise ValidationError(f"{what}: label disagrees with manifest")
            self._held[mrec.subject] = _Held(data, vol.label, vol.extents,
                                             mrec.split)

    @classmethod
    def from_manifest(cls, path) -> "VolumeDataset":
        """The dataset of the manifest file at `path`."""
        return cls(load_manifest(path))

    @property
    def ids(self) -> tuple:
        return tuple(self._held)

    def __len__(self) -> int:
        return len(self._held)

    @property
    def extents(self) -> tuple:
        if not self._held:
            raise ValidationError("dataset holds no volumes")
        return next(iter(self._held.values())).extents

    def _entry(self, sample_id) -> _Held:
        try:
            return self._held[sample_id]
        except KeyError:
            raise ValidationError(f"unknown sample id {sample_id!r}") from None

    def record(self, sample_id) -> VolumeRecord:
        """The sample's volume, decoded and checked from one copy of its
        map (whose pages are then dropped), so the checksum covers exactly
        the values decoded, however the file changes meanwhile."""
        held = self._entry(sample_id)
        data = bytes(held.data)
        _drop_pages(held.data)
        vol = read_volume(data)
        if (vol.id, vol.label, vol.extents) != (sample_id, held.label,
                                                 held.extents):
            raise ValidationError(
                f"sample {sample_id!r}: its volume bytes changed since loading")
        return vol

    def label_of(self, sample_id) -> str:
        label = self._entry(sample_id).label
        if label is None:
            raise ValidationError(f"sample {sample_id!r} is unlabeled")
        return label

    def example(self, sample_id):
        label = self.label_of(sample_id)
        return stack_input(self.record(sample_id)), CLASSES.index(label)

    def split_ids(self, split: str) -> tuple:
        """Ids tagged with `split`; "heldout" = val + test."""
        tags = ("val", "test") if split == "heldout" else (split,)
        return tuple(i for i, h in self._held.items() if h.split in tags)


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
        check_fields(self, "phantom params")
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
    c = class_index(label)
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
    c = class_index(label)
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

    samples = [(label, i, f"{label}{i:04d}") for label in CLASSES
               for i in range(params.samples_per_class)]
    plan = split_dataset([sid for _, _, sid in samples], seed=params.seed)
    split_of = {sid: name
                for name, group in (("train", plan.train_ids),
                                    ("val", plan.val_ids),
                                    ("test", plan.test_ids))
                for sid in group}

    records = []
    for label, i, sid in samples:
        rng = np.random.default_rng(
            derive_seed(params.seed, f"sample:{label}:{i}"))
        rec = make_phantom(params, label, rng)
        rec.id = sid
        rel = os.path.join("volumes", f"{sid}.vvol")
        save_volume(rec, os.path.join(out_dir, rel))
        records.append(ManifestRecord(path=rel, label=label, subject=sid,
                                      split=split_of[sid]))

    mask_paths = {}
    for label in CLASSES:
        mask = region_mask(params, label).astype(np.float32)
        rec = VolumeRecord(id=f"mask_{label}",
                           data=np.stack([mask, mask, mask]), label=label)
        rel = os.path.join("masks", f"mask_{label}.vvol")
        save_volume(rec, os.path.join(out_dir, rel))
        mask_paths[label] = rel

    metadata = {"kind": "phantom", "masks": mask_paths,
                "params": config_fields(params)}
    manifest = Manifest(records=tuple(records), metadata=metadata,
                        base_dir=out_dir)
    write_manifest(manifest, os.path.join(out_dir, "manifest.vman"))
    return manifest
