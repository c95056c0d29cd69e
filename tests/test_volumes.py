"""Tests for the volume file format, manifests, and the phantom generator."""

import os
import struct
import sys
import threading
import zlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from voxcnn.errors import ValidationError
from voxcnn.metrics import CLASSES
from voxcnn.seeding import derive_seed
from voxcnn.volumes import (
    Manifest,
    ManifestRecord,
    PhantomParams,
    REGION_GM,
    VolumeDataset,
    VolumeRecord,
    atomic_write_bytes,
    generate_phantoms,
    load_manifest,
    load_mask,
    load_volume,
    make_phantom,
    peek_extents,
    read_volume,
    region_mask,
    save_volume,
    stack_input,
    write_manifest,
    write_volume,
)


def tiny_record(seed=0, label="AD", vol_id="t1", extents=(2, 2, 2)):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(3,) + extents).astype(np.float32)
    return VolumeRecord(id=vol_id, data=data, label=label)


class TestVolumeFormat:
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
        assert peek_extents(path) == (3, 4, 5)
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
        rec = ManifestRecord(path="ghost.vvol", label="AD", subject="g")
        m = Manifest(records=(rec,), metadata={}, base_dir=str(tmp_path))
        write_manifest(m, tmp_path / "m.vman")
        with pytest.raises(ValidationError, match="ghost"):
            load_manifest(tmp_path / "m.vman")

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
            load_manifest(tmp_path / "m.vman")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.vman"
        path.write_text("a.vvol,AD,s0,,\n")
        with pytest.raises(ValidationError, match="VMAN1"):
            load_manifest(path)


class TestPhantomParams:
    def test_text_round_trip(self):
        params = PhantomParams(extents=(20, 24, 20), samples_per_class=5,
                               region_radii=(2.0, 2.8, 3.6),
                               cavity_scales=(1.2, 1.1, 1.0),
                               noise_amplitude=0.05, jitter=0.5, seed=3)
        again = PhantomParams.from_text(params.to_text())
        assert again == params

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="contrast"):
            PhantomParams.from_text("contrast = 2\n")

    @pytest.mark.parametrize("text", [
        "extent_depth = 32.7\nextent_height = 40\nextent_width = 32\n",
        "seed = 1.9\n",
    ])
    def test_non_integral_int_rejected(self, text):
        with pytest.raises(ValidationError, match="bad value"):
            PhantomParams.from_text(text)

    def test_incomplete_group_rejected(self):
        with pytest.raises(ValidationError, match="extent_height"):
            PhantomParams.from_text("extent_depth = 32\n")

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
            assert len(ds.ids_of_class(label)) == 4

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
        manifest = generate_phantoms(params, tmp_path / "d")
        text = "".join(f"{k} = {v!r}\n"
                       for k, v in manifest.metadata["params"].items())
        assert PhantomParams.from_text(text) == params
