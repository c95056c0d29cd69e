"""The benchmark's own tests: every check passes on the program as it is and
reports a failure when one output is slightly wrong.

    python3 -m pytest bench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import voxcnn.ensemble  # noqa: E402
import voxcnn.models  # noqa: E402
import voxcnn.training  # noqa: E402
from voxcnn.models import backpropagate, build_model, forward, model_backward  # noqa: E402
from voxcnn.presets import arch_preset  # noqa: E402

MICRO = ("alexnet3d-micro", "vgg16-3d-micro", "googlenet3d-micro")


def _volume(seed=0):
    return np.random.default_rng(seed).random((3, 9, 9, 9))


def _model(preset):
    """A seeded model with small nonzero biases.

    At 9^3 a whole inception branch can go dead; its zero bias then sits
    exactly on the ReLU kink, where a central difference sees half a slope.
    """
    model = build_model(arch_preset(preset), seed=0)
    rng = np.random.default_rng(1)
    for name, p in model.params.items():
        if name.endswith(".b"):
            p += 0.1 * rng.standard_normal(p.shape)
    return model


@pytest.mark.parametrize("preset", MICRO)
def test_parameter_gradient_check(preset):
    model = _model(preset)
    x = _volume()
    _, cache = forward(model, x, mode="train", rng=0, dropout_rate=0.0)
    grads, _ = model_backward(model, cache, 1)
    rng = np.random.default_rng
    assert checks.check_param_gradient(model, x, 1, grads, rng(0), "g") == []
    scaled = {k: 1.01 * g for k, g in grads.items()}
    assert checks.check_param_gradient(model, x, 1, scaled, rng(0), "g")


@pytest.mark.parametrize("preset", MICRO)
def test_input_gradient_check(preset):
    model = _model(preset)
    x = _volume()
    _, cache = forward(model, x)
    _, grad_input = backpropagate(model, cache, np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng
    assert checks.check_input_gradient(model, x, 2, grad_input, rng(0), "i") == []
    assert checks.check_input_gradient(model, x, 2, 1.01 * grad_input,
                                       rng(0), "i")


@pytest.mark.parametrize("preset", MICRO)
def test_reference_pass_and_perturbed_logit(preset):
    model = build_model(arch_preset(preset), seed=0)
    x = _volume()
    probs, cache = forward(model, x)
    ref = checks.reference_logits(model, x)
    assert checks.check_probs(probs, ref, preset) == []
    bumped = cache.logits.copy()
    bumped[1] += 1e-6 * np.abs(bumped).max()
    bumped_probs = np.exp(bumped - bumped.max())
    assert checks.check_probs(bumped_probs / bumped_probs.sum(), ref, preset)


def test_swapped_vote_and_average_fail():
    prob_set = [np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.5, 0.1]),
                np.array([0.6, 0.1, 0.3])]
    avg = voxcnn.ensemble.ensemble_average(prob_set).class_id
    vote = voxcnn.ensemble.ensemble_vote(prob_set).class_id
    assert checks.check_volume(prob_set, avg, vote) == []
    assert checks.check_volume(prob_set, avg, (vote + 1) % 3)
    assert checks.check_volume(prob_set, (avg + 1) % 3, vote)
    # all votes differ: the highest single entry decides
    split = [np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.8, 0.1]),
             np.array([0.2, 0.1, 0.7])]
    assert checks.own_vote(split) == 1
    assert checks.own_vote(split) == voxcnn.ensemble.ensemble_vote(split).class_id


def test_probability_rows_must_sum_to_one():
    prob_set = [np.array([0.5, 0.3, 0.2])] * 2 + [np.array([0.5, 0.3, 0.3])]
    assert checks.check_volume(prob_set, 0, 0)


def test_confusion_and_auc_references():
    preds, labels = [0, 1, 2, 2, 1], [0, 1, 1, 2, 0]
    cm = voxcnn.metrics.confusion_matrix(preds, labels)
    assert np.array_equal(cm, checks.own_confusion(preds, labels))
    scores = [0.9, 0.4, 0.4, 0.1, 0.7]
    curve = voxcnn.metrics.roc_curve(scores, labels, 0)
    assert abs(voxcnn.metrics.auc(curve) - checks.own_auc(scores, labels, 0)) < 1e-12


def test_saliency_volume_checks():
    good = np.array([[[0.0, 0.5], [1.0, 0.25]]])
    assert checks.check_saliency_volume(good, "m") == []
    assert checks.check_saliency_volume(good * 0.9, "m")
    assert checks.check_saliency_volume(good - 0.1, "m")
    maps = [good, good[:, ::-1]]
    mean = checks.own_class_mean(maps)
    assert mean.max() == 1.0


def test_tracer_restores_and_nests():
    model = build_model(arch_preset("googlenet3d-micro"), seed=0)
    original = voxcnn.models.conv3d
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, cache = voxcnn.training.forward(model, _volume())
        voxcnn.saliency.backpropagate(model, cache, np.array([1.0, 0.0, 0.0]))
    finally:
        tracer.uninstall()
    assert voxcnn.models.conv3d is original
    roots = [s[0] for s in tracer.spans if s[3] < 0]
    assert roots == ["models.forward", "models.backward"]
    assert all(s[0].startswith("kernels.") for s in tracer.spans if s[3] >= 0)
    m = tracing.layer_metrics(tracer.spans, rounds=1)
    assert m["kernels.conv3d.ms"] > 0 and m["kernels.conv3d_backward.gflops"] > 0
    assert m["models.forward.googlenet3d-toy.ms"] > 0
    assert m["models.forward.self_ms"] > 0
    assert m["training.step.ms"] == 0.0


# -- the workloads report a failed operation when one output is wrong ------


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "SAMPLES_PER_CLASS", 5)


def test_train_reports_scaled_gradient(small, monkeypatch, tmp_path):
    w = run.TrainAlexnet(seed=3)
    w.setup(tmp_path)
    assert w.check() == []
    real = voxcnn.models.model_backward

    def scaled(model, cache, label):
        grads, loss = real(model, cache, label)
        return {k: 1.01 * g for k, g in grads.items()}, loss

    monkeypatch.setattr(voxcnn.models, "model_backward", scaled)
    assert w.check()


def test_eval_reports_swapped_vote_and_perturbed_logit(small, monkeypatch,
                                                      tmp_path):
    w = run.EnsembleEval(seed=3)
    w.setup(tmp_path)
    r = w.round(None)
    assert (r.failed, r.fails, w.check()) == (0, [], [])

    real_vote = voxcnn.ensemble.ensemble_vote

    def swapped(prob_set):
        d = real_vote(prob_set)
        return dataclasses.replace(d, class_id=(d.class_id + 1) % 3)

    monkeypatch.setattr(voxcnn.ensemble, "ensemble_vote", swapped)
    r = w.round(None)
    assert r.failed == r.ops > 0
    monkeypatch.setattr(voxcnn.ensemble, "ensemble_vote", real_vote)

    real_forward = voxcnn.training.forward

    def bumped(model, x, **kw):
        _, cache = real_forward(model, x, **kw)
        z = cache.logits.copy()
        z[0] += 1e-6 * np.abs(z).max()
        e = np.exp(z - z.max())
        return e / e.sum(), dataclasses.replace(cache, logits=z)

    monkeypatch.setattr(voxcnn.training, "forward", bumped)
    w.first_probs = None
    w.round(None)
    assert w.check()


def test_saliency_reports_scaled_input_gradient(small, monkeypatch, tmp_path):
    w = run.Saliency(seed=3)
    w.setup(tmp_path)
    r = w.round(None)
    assert (r.failed, r.fails, w.check()) == (0, [], [])
    real = voxcnn.models.backpropagate

    def scaled(model, cache, grad_logits):
        grads, grad_input = real(model, cache, grad_logits)
        return grads, 1.01 * grad_input

    monkeypatch.setattr(voxcnn.models, "backpropagate", scaled)
    assert w.check()
