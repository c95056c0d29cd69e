"""Tests for the volume file format, manifests, and the phantom generator."""

import dataclasses
import json
import mmap
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
import types
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import voxcnn.volumes
from voxcnn.errors import ValidationError
from voxcnn.metrics import CLASSES
from voxcnn.models import AlexNetConfig, GoogleNetConfig, VggConfig
from voxcnn.presets import ARCH_PRESETS, TRAIN_PRESETS, arch_preset
from voxcnn.seeding import derive_seed
from voxcnn.training import TrainConfig
from voxcnn.volumes import (
    Manifest,
    ManifestRecord,
    PhantomParams,
    REGION_GM,
    VolumeDataset,
    VolumeRecord,
    atomic_write_bytes,
    config_fields,
    config_from_fields,
    generate_phantoms,
    load_manifest,
    load_mask,
    load_volume,
    make_phantom,
    parse_json,
    read_volume,
    region_mask,
    save_volume,
    stack_input,
    write_manifest,
    write_volume,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def read_params(text):
    """PhantomParams from the JSON text of a --params file."""
    return config_from_fields(PhantomParams, parse_json(text, "params"),
                              "phantom params")


def tiny_record(seed=0, label="AD", vol_id="t1", extents=(2, 2, 2)):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(3,) + extents).astype(np.float32)
    return VolumeRecord(id=vol_id, data=data, label=label)


def flip_byte(path, from_end):
    """Invert, in place, the byte `from_end` bytes before the end of the
    file at `path`."""
    with open(path, "r+b") as f:
        f.seek(-from_end, os.SEEK_END)
        flipped = f.read(1)[0] ^ 0xFF
        f.seek(-from_end, os.SEEK_END)
        f.write(bytes([flipped]))


class TestVolumeFormat:
    @pytest.mark.parametrize("vol_id, match", [
        ("a" * 65536, "65,535"), ("\u00e9" * 32768, "65,535"),
        ("s\ud800", "not UTF-8"),
    ], ids=["one-byte", "two-byte", "surrogate"])
    def test_unwritable_id_rejected(self, vol_id, match):
        """An id that write_volume cannot store, more UTF-8 bytes than the
        u16 length field holds or none at all, is refused when the record
        is built, not by struct or the codec in write_volume; 65,535 bytes
        still round trip."""
        with pytest.raises(ValidationError, match=match):
            tiny_record(vol_id=vol_id)
        longest = "a" * 65535
        assert read_volume(write_volume(tiny_record(vol_id=longest))).id \
            == longest

    def test_round_trip_is_field_identical(self):
        rec = tiny_record(extents=(4, 5, 6))
        again = read_volume(write_volume(rec))
        assert again.id == rec.id
        assert again.label == rec.label
        assert again.data.dtype == np.float32
        assert (again.data == rec.data).all()

    def test_unlabeled_round_trip(self):
        rec = tiny_record(label=None)
        again = read_volume(write_volume(rec))
        assert again.label is None

    def test_byte_layout_matches_offset_table(self):
        """A 3x2x2x2 record serializes exactly per the documented layout."""
        rec = tiny_record(seed=3, label="AD", vol_id="t1")
        payload = np.ascontiguousarray(rec.data, dtype="<f4").tobytes()
        expected = (b"VVOL"
                    + struct.pack("<IIIII", 1, 2, 2, 2, 3)
                    + struct.pack("<H", 2) + b"t1"
                    + struct.pack("<H", 2) + b"AD"
                    + payload)
        expected += struct.pack("<I", zlib.crc32(expected))
        assert write_volume(rec) == expected
        # sanity on the table itself: payload starts at byte 32 here
        # (4 magic + 20 fixed header + 2+2 id + 2+2 label)
        assert expected[32:36] == rec.data[0, 0, 0, 0].tobytes()

    def test_flipped_payload_byte_rejected(self):
        """The trailing checksum catches single-byte corruption."""
        blob = bytearray(write_volume(tiny_record()))
        blob[40] ^= 0x01
        with pytest.raises(ValidationError, match="checksum"):
            read_volume(bytes(blob))

    def test_flipped_checksum_byte_rejected(self):
        blob = bytearray(write_volume(tiny_record()))
        blob[-1] ^= 0xFF
        with pytest.raises(ValidationError, match="checksum"):
            read_volume(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + write_volume(tiny_record())[4:]
        with pytest.raises(ValidationError, match="magic"):
            read_volume(blob)

    @pytest.mark.parametrize("offset,value", [(26, b"\xff"),
                                              (24, b"\xff\xff")])
    def test_malformed_id_rejected(self, offset, value):
        """A non-UTF-8 id, or an id length running past the end, is
        rejected even when the checksum matches."""
        blob = bytearray(write_volume(tiny_record(vol_id="t1")))
        blob[offset:offset + len(value)] = value
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(ValidationError, match="malformed"):
            read_volume(bytes(blob))

    def test_truncation_rejected(self):
        blob = write_volume(tiny_record())
        with pytest.raises(ValidationError):
            read_volume(blob[:10])

    def test_file_round_trip_and_peek(self, tmp_path):
        rec = tiny_record(extents=(3, 4, 5))
        path = tmp_path / "v.vvol"
        save_volume(rec, path)
        again = load_volume(path)
        assert (again.data == rec.data).all()

    def test_load_mask_thresholds_channel_zero(self, tmp_path):
        mask = (np.arange(8).reshape(2, 2, 2) % 2).astype(np.float32)
        rec = VolumeRecord(id="m", data=np.stack([mask] * 3))
        path = tmp_path / "m.vvol"
        save_volume(rec, path)
        assert (load_mask(path) == (mask > 0.5)).all()

    def test_record_validation(self):
        with pytest.raises(ValidationError, match="3, D, H, W"):
            VolumeRecord(id="x", data=np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValidationError, match="0, 1"):
            VolumeRecord(id="x", data=np.full((3, 2, 2, 2), 1.5))
        with pytest.raises(ValidationError, match="label"):
            VolumeRecord(id="x", data=np.zeros((3, 2, 2, 2)), label="HC")
        with pytest.raises(ValidationError, match="finite"):
            VolumeRecord(id="x", data=np.full((3, 2, 2, 2), np.nan))


class TestAtomicWrite:
    def test_failed_write_leaves_directory_unchanged(self, tmp_path):
        (tmp_path / "keep.bin").write_bytes(b"kept")
        with pytest.raises(TypeError):
            atomic_write_bytes(tmp_path / "out.bin", "not bytes")
        assert os.listdir(tmp_path) == ["keep.bin"]

    def test_concurrent_writers_to_one_path(self, tmp_path):
        """Threads writing one path each land a whole payload; none fails
        and no tmp file is left."""
        path = tmp_path / "out.bin"
        payloads = [bytes([i]) * 65536 for i in range(8)]
        errors = []

        def writer(data):
            try:
                for _ in range(20):
                    atomic_write_bytes(path, data)
            except OSError as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,))
                       for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert os.listdir(tmp_path) == ["out.bin"]


class TestStackInput:
    def test_all_ones_channel_passes_through(self):
        data = np.zeros((3, 2, 2, 2), dtype=np.float32)
        data[0] = 1.0
        x = stack_input(VolumeRecord(id="a", data=data))
        assert x.dtype == np.float64
        assert (x[0] == 1.0).all()
        assert (x[1:] == 0.0).all()

    def test_matches_index_arithmetic_oracle(self):
        """Every stacked value equals the record value at the same index."""
        rec = tiny_record(seed=7, extents=(3, 4, 2))
        x = stack_input(rec)
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(0, 3))
            d = int(rng.integers(0, 3))
            h = int(rng.integers(0, 4))
            w = int(rng.integers(0, 2))
            assert x[c, d, h, w] == np.float64(rec.data[c, d, h, w])


class TestManifest:
    def _write_volumes(self, tmp_path, n=3, extents=(2, 2, 2)):
        records = []
        for i in range(n):
            rec = tiny_record(seed=i, vol_id=f"s{i}",
                              label=CLASSES[i % 3], extents=extents)
            save_volume(rec, tmp_path / f"s{i}.vvol")
            records.append(ManifestRecord(path=f"s{i}.vvol",
                                          label=rec.label, subject=rec.id,
                                          split="train" if i else "test"))
        return records

    def test_round_trip_preserves_records(self, tmp_path):
        records = self._write_volumes(tmp_path)
        m = Manifest(records=tuple(records), metadata={"kind": "test"},
                     base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        again = load_manifest(tmp_path / "m.vman")
        assert again.records == tuple(records)
        assert again.metadata == {"kind": "test"}

    def test_empty_manifest_is_valid(self, tmp_path):
        m = Manifest(records=(), metadata={}, base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        again = load_manifest(tmp_path / "m.vman")
        assert again.records == ()

    def test_duplicate_subject_rejected_by_name(self, tmp_path):
        records = self._write_volumes(tmp_path, n=2)
        dup = ManifestRecord(path="other.vvol", label="AD", subject="s0")
        m = Manifest(records=tuple(records) + (dup,), metadata={},
                     base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        with pytest.raises(ValidationError, match="s0"):
            load_manifest(tmp_path / "m.vman")

    def test_missing_volume_rejected(self, tmp_path):
        """load_manifest opens no volume, so it reads a manifest listing a
        missing one; building the dataset opens it and fails."""
        rec = ManifestRecord(path="ghost.vvol", label="AD", subject="g")
        m = Manifest(records=(rec,), metadata={}, base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        assert load_manifest(tmp_path / "m.vman").records == (rec,)
        with pytest.raises(FileNotFoundError, match="ghost"):
            VolumeDataset.from_manifest(tmp_path / "m.vman")

    def test_extent_mismatch_rejected(self, tmp_path):
        records = self._write_volumes(tmp_path, n=2)
        odd = tiny_record(vol_id="odd", extents=(3, 3, 3))
        save_volume(odd, tmp_path / "odd.vvol")
        records.append(ManifestRecord(path="odd.vvol", label="CN",
                                      subject="odd"))
        m = Manifest(records=tuple(records), metadata={},
                     base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        with pytest.raises(ValidationError, match="extents"):
            VolumeDataset.from_manifest(tmp_path / "m.vman")

    def test_from_manifest_opens_each_volume_once(self, tmp_path, monkeypatch):
        """Loading a dataset opens its manifest once and each volume file
        once: the manifest check reads no volume header of its own."""
        records = self._write_volumes(tmp_path, n=3)
        write_manifest(Manifest(records=tuple(records), metadata={},
                                base_dir=str(tmp_path)), tmp_path / "m.vman")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(voxcnn.volumes, "open", counting_open,
                            raising=False)
        assert len(VolumeDataset.from_manifest(tmp_path / "m.vman")) == 3
        assert sorted(opened) == ["m.vman", "s0.vvol", "s1.vvol", "s2.vvol"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.vman"
        path.write_text("a.vvol,AD,s0,,\n")
        with pytest.raises(ValidationError,
                           match="missing #VMAN2 header line$"):
            load_manifest(path)

    def test_vman1_manifest_refused(self, tmp_path):
        """A #VMAN1 manifest, whose rows carried a fifth cell (a fold), is
        refused for its header line, whatever its rows hold."""
        self._write_volumes(tmp_path, n=2)
        path = tmp_path / "old.vman"
        path.write_text("#VMAN1 {}\ns0.vvol,AD,s0,test,3\n"
                        "s1.vvol,MCI,s1,train,x\n")
        with pytest.raises(ValidationError,
                           match="missing #VMAN2 header line$"):
            load_manifest(path)

    @pytest.mark.parametrize("row, cell", [(",AD,s0,train", "path"),
                                           ("s0.vvol,AD,,train", "subject")])
    def test_empty_cell_rejected(self, tmp_path, row, cell):
        """An empty path would resolve to the manifest's own directory and
        an empty subject would name no sample: both are refused, naming
        the manifest."""
        self._write_volumes(tmp_path, n=1)
        path = tmp_path / "m.vman"
        path.write_text(f"#VMAN2 {{}}\n{row}\n")
        with pytest.raises(ValidationError,
                           match=f"^{path}: empty {cell} cell"):
            load_manifest(path)

    def test_blank_rows_skipped(self, tmp_path):
        records = self._write_volumes(tmp_path, n=2)
        path = tmp_path / "m.vman"
        path.write_text("#VMAN2 {}\n\ns0.vvol,AD,s0,test\n\n"
                        "s1.vvol,MCI,s1,train\n\n")
        assert load_manifest(path).records == tuple(records)

    @pytest.mark.parametrize("row", ["s0.vvol,AD,s0", "s0.vvol,AD,s0,test,3"])
    def test_row_needs_four_fields(self, tmp_path, row):
        self._write_volumes(tmp_path, n=1)
        path = tmp_path / "m.vman"
        path.write_text(f"#VMAN2 {{}}\n{row}\n")
        with pytest.raises(ValidationError, match="rows need 4 fields"):
            load_manifest(path)


class TestPhantomParams:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError,
                           match="unknown phantom params field 'contrast'"):
            read_params('{"contrast": 2}')

    @pytest.mark.parametrize("text", ['{"extents": [32.7, 40, 32]}',
                                      '{"seed": 1.9}'],
                             ids=["extents", "seed"])
    def test_non_integral_int_rejected(self, text):
        with pytest.raises(ValidationError, match="must be an integer"):
            read_params(text)

    def test_wrong_length_extents_rejected(self):
        with pytest.raises(ValidationError, match="extents must be 3 values"):
            read_params('{"extents": [32, 40]}')

    def test_radius_ordering_enforced(self):
        with pytest.raises(ValidationError, match="increase"):
            PhantomParams(region_radii=(5.0, 3.9, 2.8))

    def test_cavity_ordering_enforced(self):
        with pytest.raises(ValidationError, match="decrease"):
            PhantomParams(cavity_scales=(1.0, 1.06, 1.12))

    def test_small_extents_rejected(self):
        with pytest.raises(ValidationError, match="16"):
            PhantomParams(extents=(8, 8, 8))

    def test_blob_must_fit(self):
        with pytest.raises(ValidationError, match="too small"):
            PhantomParams(extents=(16, 16, 16))  # default radii too big

    @pytest.mark.parametrize("kwargs,name", [
        (dict(noise_amplitude=float("nan")), "noise_amplitude"),
        (dict(jitter=float("nan")), "jitter"),
        (dict(cavity_scales=(float("inf"), 1.01, 1.0)), "cavity_scales"),
        (dict(region_radii=(3.6, 3.8, float("inf"))), "region_radii"),
    ])
    def test_nonfinite_value_rejected(self, kwargs, name):
        with pytest.raises(ValidationError, match=name):
            PhantomParams(**kwargs)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_json_value_names_field(self, value):
        with pytest.raises(ValidationError,
                           match="field 'jitter' must be finite"):
            read_params(f'{{"seed": 1, "jitter": {value}}}')


class TestPhantomSamples:
    def test_same_rng_stream_reproduces(self):
        params = PhantomParams()
        a = make_phantom(params, "MCI", np.random.default_rng(5))
        b = make_phantom(params, "MCI", np.random.default_rng(5))
        assert (a.data == b.data).all()

    def test_zero_noise_zero_jitter_is_class_deterministic(self):
        """Without randomness every sample of a class is the template."""
        params = PhantomParams(noise_amplitude=0.0, jitter=0.0)
        a = make_phantom(params, "CN", np.random.default_rng(1))
        b = make_phantom(params, "CN", np.random.default_rng(999))
        assert (a.data == b.data).all()

    def test_class_templates_pairwise_distinct(self):
        params = PhantomParams(noise_amplitude=0.0, jitter=0.0)
        vols = {c: make_phantom(params, c, np.random.default_rng(0)).data
                for c in CLASSES}
        assert not (vols["AD"] == vols["MCI"]).all()
        assert not (vols["MCI"] == vols["CN"]).all()
        assert not (vols["AD"] == vols["CN"]).all()

    def test_gm_mass_ordering_over_fifty_samples(self):
        """Mean GM mass increases from AD to MCI to CN (blob grows)."""
        params = PhantomParams(noise_amplitude=0.05)
        means = {}
        for label in CLASSES:
            masses = []
            for i in range(50):
                rng = np.random.default_rng(derive_seed(7, f"{label}:{i}"))
                masses.append(float(make_phantom(params, label,
                                                 rng).data[0].sum()))
            means[label] = np.mean(masses)
        assert means["CN"] > means["MCI"] > means["AD"]

    def test_blob_lands_inside_region_mask(self):
        """The class mask (mean radius + jitter + 1) covers the GM blob."""
        params = PhantomParams(noise_amplitude=0.0)
        mask = region_mask(params, "AD")
        for trial in range(5):
            vol = make_phantom(params, "AD", np.random.default_rng(trial))
            blob = vol.data[0] == np.float32(REGION_GM["AD"])
            assert blob.any()
            assert (mask | ~blob).all()  # blob implies mask

    def test_mask_is_small_fraction(self):
        params = PhantomParams()
        for label in CLASSES:
            mask = region_mask(params, label)
            frac = mask.mean()
            assert 0.0 < frac < 0.1

    def test_values_in_unit_range(self):
        vol = make_phantom(PhantomParams(), "CN", np.random.default_rng(3))
        assert vol.data.min() >= 0.0
        assert vol.data.max() <= 1.0


class TestGeneratePhantoms:
    def _params(self, n=4):
        return PhantomParams(extents=(20, 22, 20), samples_per_class=n,
                             region_radii=(1.6, 2.2, 2.8),
                             cavity_scales=(1.12, 1.06, 1.00),
                             noise_amplitude=0.05, jitter=0.8, seed=11)

    def test_dataset_shape_and_splits(self, tmp_path):
        params = self._params(n=4)
        manifest = generate_phantoms(params, tmp_path / "data")
        assert len(manifest.records) == 12
        ds = VolumeDataset.from_manifest(tmp_path / "data" / "manifest.vman")
        assert len(ds) == 12
        assert ds.extents == (20, 22, 20)
        train = ds.split_ids("train")
        val = ds.split_ids("val")
        test = ds.split_ids("test")
        assert len(train) + len(val) + len(test) == 12
        assert (len(val), len(test)) == (1, 1)
        assert set(ds.split_ids("heldout")) == set(val) | set(test)
        for label in CLASSES:
            assert sum(ds.label_of(i) == label for i in ds.ids) == 4

    def test_manifest_rows_have_four_fields(self, tmp_path):
        generate_phantoms(self._params(n=2), tmp_path / "d")
        head, *rows = (tmp_path / "d" / "manifest.vman").read_text().splitlines()
        assert head.startswith("#VMAN2 ")
        assert len(rows) == 6
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_example_returns_class_index(self, tmp_path):
        params = self._params(n=2)
        generate_phantoms(params, tmp_path / "d")
        ds = VolumeDataset.from_manifest(tmp_path / "d" / "manifest.vman")
        x, y = ds.example("MCI0001")
        assert x.shape == (3, 20, 22, 20)
        assert y == 1
        assert ds.label_of("CN0000") == "CN"

    def test_generation_is_byte_deterministic(self, tmp_path):
        """Two runs with the same params write identical files."""
        params = self._params(n=2)
        generate_phantoms(params, tmp_path / "a")
        generate_phantoms(params, tmp_path / "b")
        for root, _, files in os.walk(tmp_path / "a"):
            for fname in files:
                p1 = os.path.join(root, fname)
                p2 = p1.replace(str(tmp_path / "a"), str(tmp_path / "b"), 1)
                with open(p1, "rb") as f1, open(p2, "rb") as f2:
                    assert f1.read() == f2.read(), fname

    def test_masks_written_per_class(self, tmp_path):
        params = self._params(n=2)
        manifest = generate_phantoms(params, tmp_path / "d")
        for label in CLASSES:
            path = tmp_path / "d" / manifest.metadata["masks"][label]
            mask = load_mask(path)
            assert mask.shape == (20, 22, 20)
            assert mask.any()

    def test_metadata_reproduces_params(self, tmp_path):
        params = self._params(n=2)
        generate_phantoms(params, tmp_path / "d")
        manifest = load_manifest(tmp_path / "d" / "manifest.vman")
        assert config_from_fields(PhantomParams, manifest.metadata["params"],
                                  "phantom params") == params


class TestVolumeDataset:
    """A dataset holds each volume encoded and decodes it on every access."""

    def _file_dataset(self, tmp_path, n=3):
        """(dataset, records, {id: volume file}) of n small volumes, each
        written to its own file under tmp_path."""
        recs = [tiny_record(seed=i, vol_id=f"s{i}", label=CLASSES[i % 3],
                            extents=(2, 3, 4)) for i in range(n)]
        return self._dataset_of(tmp_path, recs), recs, {
            r.id: tmp_path / f"{r.id}.vvol" for r in recs}

    @staticmethod
    def _dataset_of(tmp_path, recs, subjects=None):
        """A dataset of `recs` written to files under tmp_path, listed as
        `subjects` (default: their ids), every one tagged "train"."""
        rows = []
        for rec, subject in zip(recs, subjects or [r.id for r in recs]):
            save_volume(rec, tmp_path / f"{rec.id}.vvol")
            rows.append(ManifestRecord(path=f"{rec.id}.vvol", label=None,
                                       subject=subject, split="train"))
        return VolumeDataset(Manifest(records=tuple(rows), metadata={},
                                      base_dir=str(tmp_path)))

    def _phantom_manifest(self, tmp_path):
        """Six phantom volumes under tmp_path/d; the manifest's path."""
        params = PhantomParams(extents=(20, 22, 20), samples_per_class=2,
                               region_radii=(1.6, 2.2, 2.8), jitter=0.8,
                               seed=5)
        generate_phantoms(params, tmp_path / "d")
        return tmp_path / "d" / "manifest.vman"

    def _phantom_dataset(self, tmp_path):
        return VolumeDataset.from_manifest(self._phantom_manifest(tmp_path))

    def test_decodes_each_access(self, tmp_path):
        ds, recs, _ = self._file_dataset(tmp_path)
        assert ds.ids == ("s0", "s1", "s2")
        assert ds.extents == (2, 3, 4)
        for r in recs:
            x, y = ds.example(r.id)
            assert np.array_equal(x, stack_input(r))
            assert y == CLASSES.index(r.label)
            assert ds.record(r.id).data.tobytes() == r.data.tobytes()

    def test_constructor_checks_id_and_extents(self, tmp_path):
        rec = tiny_record(vol_id="a")
        with pytest.raises(ValidationError, match="carries id 'a'"):
            self._dataset_of(tmp_path, [rec], subjects=["b"])
        odd = tiny_record(vol_id="b", extents=(3, 3, 3))
        with pytest.raises(ValidationError, match="extents"):
            self._dataset_of(tmp_path, [rec, odd])

    def test_repeated_subject_refused(self, tmp_path):
        """A Manifest built in code is not checked by load_manifest, so the
        dataset refuses a subject listed twice, even as the same file
        (whose id check would pass)."""
        rec = tiny_record(vol_id="s0")
        with pytest.raises(ValidationError,
                           match="duplicate subject id 's0'"):
            self._dataset_of(tmp_path, [rec, rec])

    def test_metadata_decodes_nothing(self, tmp_path, monkeypatch):
        """ids, labels, extents and split tags come from loading time."""
        ds, recs, _ = self._file_dataset(tmp_path)

        def refuse(data):
            raise AssertionError("a volume was decoded")

        monkeypatch.setattr(voxcnn.volumes, "read_volume", refuse)
        assert ds.ids == tuple(r.id for r in recs)
        assert ds.extents == (2, 3, 4)
        assert [ds.label_of(r.id) for r in recs] == [r.label for r in recs]
        assert ds.split_ids("train") == ds.ids

    def test_changed_bytes_refused(self, tmp_path):
        """A payload byte flipped in a mapped file fails the checksum; a
        valid volume with another label written over the same bytes is
        refused as well."""
        ds, recs, paths = self._file_dataset(tmp_path)
        flip_byte(paths["s0"], 10)
        with pytest.raises(ValidationError, match="checksum"):
            ds.example("s0")
        relabeled = write_volume(
            VolumeRecord(id="s2", data=recs[2].data, label="AD"))
        assert len(relabeled) == paths["s2"].stat().st_size
        with open(paths["s2"], "r+b") as f:
            f.write(relabeled)
        with pytest.raises(ValidationError, match="changed since loading"):
            ds.example("s2")

    def test_examples_survive_deleted_files(self, tmp_path):
        ds = self._phantom_dataset(tmp_path)
        before = {i: ds.example(i)[0] for i in ds.ids}
        shutil.rmtree(tmp_path / "d")
        for i in ds.ids:
            assert np.array_equal(ds.example(i)[0], before[i])

    def test_file_replaced_by_rename_keeps_old_contents(self, tmp_path):
        ds = self._phantom_dataset(tmp_path)
        before = ds.example("AD0000")[0]
        path = tmp_path / "d" / "volumes" / "AD0000.vvol"
        rec = load_volume(path)
        save_volume(VolumeRecord(id=rec.id, data=rec.data * 0.5,
                                 label=rec.label), path)
        assert np.array_equal(ds.example("AD0000")[0], before)

    def test_payload_overwritten_in_place_refused(self, tmp_path):
        """Bytes written into a mapped file after loading make `example`
        raise, never return other data."""
        ds = self._phantom_dataset(tmp_path)
        path = tmp_path / "d" / "volumes" / "CN0001.vvol"
        with open(path, "r+b") as f:
            f.seek(-1000, os.SEEK_END)
            flipped = bytes(b ^ 0xFF for b in f.read(8))
            f.seek(-1000, os.SEEK_END)
            f.write(flipped)
        with pytest.raises(ValidationError, match="checksum"):
            ds.example("CN0001")
        ds.example("CN0000")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_from_manifest_leaves_no_descriptor_open(self, tmp_path):
        manifest = self._phantom_manifest(tmp_path)
        before = len(os.listdir("/proc/self/fd"))
        ds = VolumeDataset.from_manifest(manifest)
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(ds) == 6

    def test_record_reads_a_changing_buffer_once(self, tmp_path):
        """While another thread rewrites a mapped file in place between two
        valid encodings of one sample, `record` returns one of the two
        volumes bit for bit or raises, never a mix of them."""
        a, b = (tiny_record(seed=s, vol_id="s0", extents=(16, 20, 16))
                for s in (0, 1))
        encodings = (write_volume(a), write_volume(b))
        ds = self._dataset_of(tmp_path, [a])
        stop = threading.Event()

        def rewrite():
            k = 0
            with open(tmp_path / "s0.vvol", "r+b", buffering=0) as f:
                while not stop.is_set():
                    k ^= 1
                    os.pwrite(f.fileno(), encodings[k], 0)
                    time.sleep(0)  # let the reader run between rewrites

        writer = threading.Thread(target=rewrite)
        writer.start()
        seen = []
        try:
            for _ in range(2000):
                try:
                    seen.append(ds.record("s0").data.tobytes())
                except ValidationError:
                    pass
        finally:
            stop.set()
            writer.join()
        assert set(seen) <= {a.data.tobytes(), b.data.tobytes()}

    def test_bytes_written_after_the_check_are_not_decoded(self, tmp_path,
                                                           monkeypatch):
        """A payload byte flipped in the mapped file just after its checksum
        was computed (the low byte of a float, so the value stays in range)
        does not reach the decoded volume."""
        ds, recs, paths = self._file_dataset(tmp_path)

        def check_then_flip(data):
            crc = zlib.crc32(data)
            flip_byte(paths["s0"], 12)
            return crc

        monkeypatch.setattr(voxcnn.volumes, "zlib",
                            types.SimpleNamespace(crc32=check_then_flip))
        assert ds.record("s0").data.tobytes() == recs[0].data.tobytes()

    @staticmethod
    def _decoded_from_files(manifest):
        """The manifest's examples, each file decoded by load_volume."""
        m = load_manifest(manifest)
        return {r.subject: (stack_input(load_volume(m.resolve(r))),
                            CLASSES.index(r.label)) for r in m.records}

    @staticmethod
    def _read_all(ds, expected, passes):
        for _ in range(passes):
            for i in ds.ids:
                x, y = ds.example(i)
                assert np.array_equal(x, expected[i][0])
                assert y == expected[i][1]

    def test_threads_read_the_same_maps(self, tmp_path):
        """Two threads reading the same samples, each read dropping the
        map's pages, get exactly the values load_volume reads."""
        manifest = self._phantom_manifest(tmp_path)
        ds = VolumeDataset.from_manifest(manifest)
        expected = self._decoded_from_files(manifest)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for done in [pool.submit(self._read_all, ds, expected, 8)
                         for _ in range(2)]:
                done.result()

    def test_mmap_fallback_reads_the_same_values(self, tmp_path, monkeypatch):
        """Without libc's mmap the dataset holds mmap.mmap maps, and they
        decode to the same values, again after their pages are dropped."""
        manifest = self._phantom_manifest(tmp_path)
        monkeypatch.setattr(voxcnn.volumes, "_libc", None)
        ds = VolumeDataset.from_manifest(manifest)
        assert all(isinstance(ds._held[i].data, mmap.mmap) for i in ds.ids)
        self._read_all(ds, self._decoded_from_files(manifest), 2)

    def _resident_growth(self, tmp_path, code, setup=""):
        """Bytes of resident memory gained when a fresh process runs
        `setup`, loads 90 toy volumes (42 MiB decoded, 44 MB of files) into
        `ds` and then runs `code`."""
        generate_phantoms(PhantomParams(samples_per_class=30, seed=1),
                          tmp_path / "d")
        script = (
            "import os, sys\n"
            "import voxcnn.volumes\n"
            "from voxcnn.volumes import VolumeDataset\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as f:\n"
            "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            f"{setup}\n"
            "before = rss()\n"
            "ds = VolumeDataset.from_manifest(sys.argv[1])\n"
            f"{code}\n"
            "print(len(ds), rss() - before)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script,
             str(tmp_path / "d" / "manifest.vman")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        count, grown = (int(v) for v in done.stdout.split())
        assert count == 90
        return grown

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_loading_holds_no_decoded_volume(self, tmp_path):
        """Loading 90 toy volumes raises resident memory by under 5 MiB."""
        assert self._resident_growth(tmp_path, "") < 5 * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    @pytest.mark.parametrize("maps", [
        "libc",
        pytest.param("mmap.mmap", marks=pytest.mark.skipif(
            not hasattr(mmap, "MADV_DONTNEED"), reason="needs madvise")),
    ])
    def test_reading_holds_no_map_page(self, tmp_path, maps):
        """Reading every one of 90 toy volumes twice through its map
        raises resident memory by under 5 MiB, not by the 44 MB of pages
        read, with libc's maps and with the mmap.mmap fallback."""
        grown = self._resident_growth(
            tmp_path,
            "for _ in range(2):\n"
            "    for i in ds.ids:\n"
            "        ds.example(i)",
            setup="voxcnn.volumes._libc = None" if maps != "libc" else "")
        assert grown < 5 * 2**20


# (build a config, the field it gets wrong): each value is truncated,
# accepted or a TypeError unless the config checks its field types
WRONGLY_TYPED = [
    (lambda: AlexNetConfig(conv_widths=(8.7, 16, 24, 24, 16)),
     "conv_widths"),
    (lambda: AlexNetConfig(class_count=2.5), "class_count"),
    (lambda: dataclasses.replace(arch_preset("alexnet3d-toy"),
                                 stem_kernel=5.5), "stem_kernel"),
    (lambda: VggConfig(pool_padding=True), "pool_padding"),
    (lambda: GoogleNetConfig(inception=(((4, 4, 6.5, 2, 3, 3),),) * 3),
     "inception"),
    (lambda: TrainConfig(epochs=2.5), "epochs"),
    (lambda: TrainConfig(lr0=True), "lr0"),
    (lambda: TrainConfig(batch_size="32"), "batch_size"),
    (lambda: TrainConfig(seed=None), "seed"),
    (lambda: PhantomParams(samples_per_class=2.5), "samples_per_class"),
    (lambda: PhantomParams(extents=(20.5, 22, 20)), "extents"),
]


# every config the library ships, and phantom params off every default
ROUND_TRIP = {**ARCH_PRESETS, **{f"train-{k}": v for k, v in
                                 TRAIN_PRESETS.items()},
              "phantom": PhantomParams(extents=(20, 24, 20),
                                       samples_per_class=5,
                                       region_radii=(2.0, 2.8, 3.6),
                                       cavity_scales=(1.2, 1.1, 1.0),
                                       noise_amplitude=0.04, jitter=0.5,
                                       seed=3)}


class TestConfigFieldTypes:
    """Architecture, training and phantom configs type-check their fields
    through volumes.check_fields, however they are built."""

    @pytest.mark.parametrize("config", ROUND_TRIP.values(), ids=ROUND_TRIP)
    def test_json_round_trip(self, config):
        """Each config file is the JSON object of its fields: written by
        config_fields, read by config_from_fields into an equal config."""
        text = json.dumps(config_fields(config))
        assert config_from_fields(type(config), parse_json(text, "config"),
                                  "config") == config

    @pytest.mark.parametrize("build, field", WRONGLY_TYPED,
                             ids=[f for _, f in WRONGLY_TYPED])
    def test_wrongly_typed_python_field(self, build, field):
        """A wrongly typed value is refused naming its field, not truncated,
        accepted, or left to fail later with a TypeError."""
        with pytest.raises(ValidationError, match=f"'{field}'"):
            build()

    def test_checked_values_are_stored(self):
        """Numpy integers are stored as int, lists as tuples, and an int
        given for a float field as a float."""
        cfg = AlexNetConfig(input_shape=[3, np.int64(9), 9, 9],
                            stem_kernel=np.int32(3))
        assert cfg.input_shape == (3, 9, 9, 9)
        assert type(cfg.input_shape[1]) is int
        assert type(cfg.stem_kernel) is int
        assert TrainConfig(lr0=1).lr0 == 1.0
        assert '"lr0": 1.0,' in json.dumps(config_fields(TrainConfig(lr0=1)))
        assert PhantomParams(region_radii=(3, 4, 5)).region_radii == \
            (3.0, 4.0, 5.0)


def _listed(tmp, row):
    """The dataset of a manifest under `tmp` whose one row is `row`, next
    to s0.vvol, an AD volume with id s0."""
    save_volume(tiny_record(vol_id="s0", label="AD"), tmp / "s0.vvol")
    (tmp / "m.vman").write_text(f"#VMAN2 {{}}\n{row}\n")
    return VolumeDataset.from_manifest(tmp / "m.vman")


def _read_with_channels(n):
    """read_volume of a sealed volume file whose channel count reads n."""
    body = bytearray(write_volume(tiny_record())[:-4])
    body[20:24] = struct.pack("<I", n)
    return read_volume(bytes(body) + struct.pack("<I", zlib.crc32(body)))


# (id, call on a fresh directory, end of its ValidationError's message): one
# row per guard of configs, volume files, manifests, datasets and phantom
# params that no test above reaches
GUARDS = [
    ("non-object", lambda tmp: config_from_fields(PhantomParams, [],
                                                  "phantom params"),
     "phantom params must be a JSON object"),
    ("int-beyond-float", lambda tmp: config_from_fields(
        TrainConfig, parse_json('{"lr0": 1' + "0" * 400 + "}", "config"),
        "training config"),
     "training config field 'lr0' must be finite, got inf"),
    ("empty-id", lambda tmp: tiny_record(vol_id=""),
     "volume id must be non-empty"),
    ("channels", lambda tmp: _read_with_channels(2),
     "expected 3 channels, file has 2"),
    ("unknown-label", lambda tmp: _listed(tmp, "s0.vvol,XY,s0,"),
     "m.vman: unknown label 'XY'"),
    ("label-disagrees", lambda tmp: _listed(tmp, "s0.vvol,CN,s0,"),
     "volume 's0.vvol': label disagrees with manifest"),
    ("no-volumes", lambda tmp: VolumeDataset(Manifest((), {})).extents,
     "dataset holds no volumes"),
    ("unknown-id", lambda tmp: _listed(tmp, "s0.vvol,AD,s0,").example("s1"),
     "unknown sample id 's1'"),
    ("samples", lambda tmp: PhantomParams(samples_per_class=0),
     "samples_per_class must be positive"),
    ("noise", lambda tmp: PhantomParams(noise_amplitude=-0.1),
     "noise amplitude must be non-negative"),
    ("jitter", lambda tmp: PhantomParams(jitter=-1.0),
     "jitter must be non-negative"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in GUARDS])
def test_guard_refuses(call, message, tmp_path):
    with pytest.raises(ValidationError, match=f"{re.escape(message)}$"):
        call(tmp_path)
