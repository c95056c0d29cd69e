"""Tests for gradient saliency maps and region enrichment."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import voxcnn.models
import voxcnn.saliency
from helpers import ArrayDataset
from voxcnn.errors import ValidationError
from voxcnn.models import build_model, forward
from voxcnn.presets import arch_preset
from voxcnn.saliency import (
    SaliencyVolume,
    class_mean_saliency,
    region_enrichment,
    saliency_map,
)
from voxcnn.volumes import (
    Manifest,
    ManifestRecord,
    VolumeDataset,
    VolumeRecord,
    save_volume,
)


def micro(seed=0):
    return build_model(arch_preset("alexnet3d-micro"), seed=seed)


def logit_score(model, x, class_id):
    _, cache = forward(model, x)
    return cache.logits[class_id]


class TestSaliencyMap:
    def test_output_shape_and_range(self):
        model = micro()
        x = np.random.default_rng(0).normal(size=(3, 9, 9, 9))
        m = saliency_map(model, x, class_id=1)
        assert m.data.shape == (9, 9, 9)
        assert m.data.min() >= 0.0
        assert m.data.max() == 1.0
        assert m.peak > 0
        assert m.class_id == 1

    def test_linear_model_saliency_proportional_to_weights(self):
        """For flatten -> dense the class-c map is |w_c| (channel-maxed)."""
        from voxcnn.models import (AlexNetConfig, DenseLayer, FlattenLayer,
                                   Model, SoftmaxLayer)
        shape = (3, 4, 4, 4)
        n = int(np.prod(shape))
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, n))
        model = Model(
            config=AlexNetConfig(input_shape=shape),
            layers=(FlattenLayer("flatten"), DenseLayer("fc", n, 3),
                    SoftmaxLayer("softmax")),
            params={"fc.w": w, "fc.b": np.zeros(3)})
        x = rng.normal(size=shape)
        for c in range(3):
            m = saliency_map(model, x, c)
            expected = np.abs(w[c].reshape(shape)).max(axis=0)
            assert_allclose(m.data, expected / expected.max(), rtol=1e-12)

    def test_matches_finite_differences_on_sampled_voxels(self):
        """Unnormalized map values (data * peak) match the channel-max of
        central differences of the class logit at 20 random voxels."""
        model = micro(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 9, 9, 9)) * 0.5
        class_id = 2
        m = saliency_map(model, x, class_id)
        raw = m.data * m.peak
        step = 1e-5
        for _ in range(20):
            voxel = tuple(int(rng.integers(0, 9)) for _ in range(3))
            grads = []
            for c in range(3):
                xp = x.copy()
                xp[(c,) + voxel] += step
                up = logit_score(model, xp, class_id)
                xp[(c,) + voxel] -= 2 * step
                down = logit_score(model, xp, class_id)
                grads.append(abs((up - down) / (2 * step)))
            numeric = max(grads)
            err = abs(numeric - raw[voxel]) / max(numeric, raw[voxel], 1e-8)
            assert err < 1e-4, (voxel, numeric, raw[voxel])

    def test_saliency_invariant_to_logit_shift(self):
        """Adding a constant to every logit via the head bias changes
        nothing about the map."""
        model = micro(seed=5)
        x = np.random.default_rng(6).normal(size=(3, 9, 9, 9))
        base = saliency_map(model, x, 1)
        model.params["fc3.b"][...] += 7.5
        shifted = saliency_map(model, x, 1)
        assert_allclose(shifted.data, base.data, rtol=0, atol=0)
        assert shifted.peak == base.peak

    def test_normalization_preserves_argmax_voxel(self):
        model = micro(seed=7)
        x = np.random.default_rng(8).normal(size=(3, 9, 9, 9))
        m = saliency_map(model, x, 0)
        raw = m.data * m.peak
        assert np.unravel_index(np.argmax(raw), raw.shape) == \
            np.unravel_index(np.argmax(m.data), m.data.shape)

    def test_all_zero_gradient_stays_zero(self):
        """A dead model (zero weights) produces an all-zero map, not NaN."""
        model = micro()
        for k in model.params:
            model.params[k][...] = 0.0
        x = np.random.default_rng(9).normal(size=(3, 9, 9, 9))
        m = saliency_map(model, x, 0)
        assert (m.data == 0.0).all()
        assert m.peak == 0.0

    def test_bad_class_rejected(self):
        model = micro()
        with pytest.raises(ValidationError):
            saliency_map(model, np.zeros((3, 9, 9, 9)), 3)

    def test_lookup_sites(self, monkeypatch):
        """saliency_map calls voxcnn.saliency.forward with record="input" and
        then voxcnn.saliency.backpropagate, and its convs reach
        voxcnn.models.conv3d_backward and never conv3d_param_grads: a
        wrapper set at each of these globals sees every call, as the
        benchmark's tracer needs."""
        calls = []

        def spy(owner, name, note=lambda args, kwargs: None):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append((name, note(args, kwargs)))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(voxcnn.saliency, "forward", lambda a, kw: kw.get("record", "all"))
        spy(voxcnn.saliency, "backpropagate")
        spy(voxcnn.models, "conv3d_backward")
        spy(voxcnn.models, "conv3d_param_grads")
        saliency_map(micro(), np.zeros((3, 9, 9, 9)), 1)
        assert calls == ([("forward", "input"), ("backpropagate", None)]
                         + [("conv3d_backward", None)] * 5)


class TestClassMeanSaliency:
    def _dataset(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        examples = {}
        for i in range(n):
            examples[f"a{i}"] = (rng.normal(size=(3, 9, 9, 9)), 0)
            examples[f"b{i}"] = (rng.normal(size=(3, 9, 9, 9)), 1)
        return ArrayDataset(examples)

    def test_single_sample_class_equals_its_map(self):
        model = micro(seed=1)
        x = np.random.default_rng(1).normal(size=(3, 9, 9, 9))
        ds = ArrayDataset({"only": (x, 2)})
        mean = class_mean_saliency(model, ds, 2)
        single = saliency_map(model, x, 2)
        assert_allclose(mean.data, single.data, rtol=1e-12, atol=1e-15)

    def test_two_identical_samples_average_to_the_same_map(self):
        model = micro(seed=2)
        x = np.random.default_rng(2).normal(size=(3, 9, 9, 9))
        ds = ArrayDataset({"one": (x, 1), "two": (x.copy(), 1)})
        mean = class_mean_saliency(model, ds, 1)
        single = saliency_map(model, x, 1)
        assert_allclose(mean.data, single.data, rtol=1e-12, atol=1e-15)

    def test_matches_accumulate_then_divide_oracle(self):
        """The class mean equals summing normalized maps and renormalizing."""
        model = micro(seed=3)
        ds = self._dataset(n=5, seed=4)
        mean = class_mean_saliency(model, ds, 0)
        acc = np.zeros((9, 9, 9))
        n = 0
        for sid in ds.ids:
            x, y = ds.example(sid)
            if y != 0:
                continue
            acc += saliency_map(model, x, 0).data
            n += 1
        expected = acc / n
        expected = expected / expected.max()
        assert_allclose(mean.data, expected, atol=1e-12)

    def test_ids_restriction(self):
        model = micro(seed=4)
        ds = self._dataset(n=3, seed=5)
        only_a0 = class_mean_saliency(model, ds, 0, ids=("a0",))
        x, _ = ds.example("a0")
        assert_allclose(only_a0.data, saliency_map(model, x, 0).data,
                        atol=1e-15)

    def _volumes(self, labels, directory):
        """A VolumeDataset of 9x9x9 volume files under `directory`, one per
        label (None: unlabeled)."""
        rng = np.random.default_rng(3)
        rows = []
        for i, label in enumerate(labels):
            save_volume(VolumeRecord(id=f"v{i}", data=rng.random((3, 9, 9, 9)),
                                     label=label), directory / f"v{i}.vvol")
            rows.append(ManifestRecord(path=f"v{i}.vvol", label=label,
                                       subject=f"v{i}"))
        return VolumeDataset(Manifest(records=tuple(rows), metadata={},
                                      base_dir=str(directory)))

    def test_loads_only_the_class_volumes(self, tmp_path, monkeypatch):
        """Samples are chosen by label first; only the chosen volumes are
        loaded."""
        ds = self._volumes(["AD", "CN", "AD", "MCI", "CN"], tmp_path)
        loaded = []
        real = VolumeDataset.example

        def example(self, sample_id):
            loaded.append(sample_id)
            return real(self, sample_id)

        monkeypatch.setattr(VolumeDataset, "example", example)
        class_mean_saliency(micro(), ds, 2)
        assert loaded == ["v1", "v4"]

    def test_unlabeled_sample_rejected(self, tmp_path):
        ds = self._volumes(["AD", None], tmp_path)
        with pytest.raises(ValidationError, match="unlabeled"):
            class_mean_saliency(micro(), ds, 0)
        assert class_mean_saliency(micro(), ds, 0, ids=["v0"]).peak > 0

    def test_absent_class_rejected(self):
        model = micro()
        ds = self._dataset(n=2)
        with pytest.raises(ValidationError, match="no samples labeled CN$"):
            class_mean_saliency(model, ds, 2)
        with pytest.raises(ValidationError, match="class id 3 names no class"):
            class_mean_saliency(model, ds, 3)


class TestRegionEnrichment:
    def test_uniform_map_scores_one(self):
        """A flat map has no regional preference."""
        sal = SaliencyVolume(data=np.full((4, 4, 4), 0.5), class_id=0,
                             peak=1.0)
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:2, :2, :2] = True
        assert_allclose(region_enrichment(sal, mask), 1.0, rtol=1e-12)

    def test_all_mass_in_two_percent_mask_scores_fifty(self):
        """Total concentration in a 2% region gives 1/0.02 = 50."""
        data = np.zeros((10, 10, 10))
        mask = np.zeros((10, 10, 10), dtype=bool)
        mask.flat[:20] = True  # 20 of 1000 voxels = 2%
        data[mask] = 1.0
        sal = SaliencyVolume(data=data, class_id=0, peak=1.0)
        assert_allclose(region_enrichment(sal, mask), 50.0, rtol=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            data = rng.uniform(size=(6, 5, 4))
            mask = rng.uniform(size=(6, 5, 4)) < 0.3
            if not mask.any():
                continue
            sal = SaliencyVolume(data=data, class_id=0, peak=1.0)
            expected = (data[mask].sum() / data.sum()) / (mask.sum() / data.size)
            assert_allclose(region_enrichment(sal, mask), expected,
                            atol=1e-12)

    def test_empty_mask_rejected(self):
        sal = SaliencyVolume(data=np.ones((3, 3, 3)), class_id=0, peak=1.0)
        with pytest.raises(ValidationError, match="empty"):
            region_enrichment(sal, np.zeros((3, 3, 3), dtype=bool))

    def test_zero_mass_rejected(self):
        sal = SaliencyVolume(data=np.zeros((3, 3, 3)), class_id=0, peak=0.0)
        mask = np.ones((3, 3, 3), dtype=bool)
        with pytest.raises(ValidationError, match="mass"):
            region_enrichment(sal, mask)

    def test_shape_mismatch_rejected(self):
        sal = SaliencyVolume(data=np.ones((3, 3, 3)), class_id=0, peak=1.0)
        with pytest.raises(ValidationError, match="shape"):
            region_enrichment(sal, np.ones((4, 3, 3), dtype=bool))
