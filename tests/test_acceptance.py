"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s, or
in the captured output on failure) and asserts the same condition, so a
verbose pytest run reads as a per-criterion checklist.  The expensive
phantom-training fixtures in conftest.py are shared by criteria 8, 11 and 12.
"""

import json
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from helpers import ArrayDataset, count_parameters
from oracles import (
    concordance_auc,
    conv3d_loops,
    dense_loops,
    maxpool3d_loops,
    numeric_gradient,
    relative_error,
)
from voxcnn.cli import main as cli_main
from voxcnn.ensemble import ensemble_average, ensemble_vote
from voxcnn.kernels import (
    ConvSpec,
    PoolSpec,
    conv3d,
    conv3d_backward,
    conv3d_param_grads,
    dense,
    dense_backward,
    dense_param_grads,
    dropout,
    dropout_backward,
    maxpool3d,
    maxpool3d_backward,
    op_count,
    softmax_xent,
)
from voxcnn.metrics import (
    CLASSES,
    auc,
    classwise_metrics,
    misclassification_histogram,
    roc_curve,
)
from voxcnn.models import (
    AlexNetConfig,
    GoogleNetConfig,
    VggConfig,
    build_layers,
    build_model,
    config_to_json,
    forward,
    infer_shapes,
    layer_census,
    model_backward,
)
from voxcnn.presets import arch_preset, train_preset
from voxcnn.saliency import class_mean_saliency, region_enrichment
from voxcnn.training import (
    SplitPlan,
    TrainConfig,
    evaluate,
    lr_at_epoch,
    make_kfold,
    split_dataset,
    train,
)
from voxcnn.volumes import (
    PhantomParams,
    VolumeRecord,
    config_fields,
    load_mask,
    read_volume,
    write_volume,
)

FULL_INPUT = (3, 157, 189, 156)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def sample_loss(model, x, true_class):
    _, cache = forward(model, x)
    _, loss, _ = softmax_xent(cache.logits, true_class)
    return float(loss)


def test_criterion_01_op_counts_exact():
    """Planar and cubic kernel tallies match their frozen reference values."""
    oc2 = op_count(ConvSpec(1, 1, (3, 3, 1)), (64, 64, 1), "paper-convention")
    oc3 = op_count(ConvSpec(1, 1, (3, 3, 3)), (64, 64, 64), "paper-convention")
    got = (oc2.multiplications, oc2.additions,
           oc3.multiplications, oc3.additions)
    want = (34596, 3844, 6434856, 238328)
    report(1, got == want, f"op counts {got} == {want}, zero tolerance")


def test_criterion_02_gradients_match_finite_differences():
    """Every layer beats 1e-5; a full toy model beats 1e-4 (64-bit)."""
    rng = np.random.default_rng(20)
    worst_layer = 0.0

    spec = ConvSpec(2, 3, (3, 3, 3), (2, 2, 2), (1, 1, 1))
    x = rng.standard_normal((2, 6, 7, 6))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    out, cache = conv3d(x, w, b, spec)
    g = rng.standard_normal(out.shape)
    gx = conv3d_backward(cache, g)
    gw, gb = conv3d_param_grads(cache, g)
    for analytic, arr, f in (
            (gx, x, lambda v: float((conv3d(v, w, b, spec)[0] * g).sum())),
            (gw, w, lambda v: float((conv3d(x, v, b, spec)[0] * g).sum())),
            (gb, b, lambda v: float((conv3d(x, w, v, spec)[0] * g).sum()))):
        worst_layer = max(worst_layer,
                          relative_error(analytic, numeric_gradient(f, arr)))

    pspec = PoolSpec((3, 3, 3), (2, 2, 2), (0, 0, 0))
    xp = rng.standard_normal((2, 7, 7, 7))
    pout, _, pcache = maxpool3d(xp, pspec)
    gp = rng.standard_normal(pout.shape)
    ganalytic = maxpool3d_backward(pcache, gp)
    worst_layer = max(worst_layer, relative_error(
        ganalytic,
        numeric_gradient(lambda v: float((maxpool3d(v, pspec)[0] * gp).sum()),
                         xp)))

    xd = rng.standard_normal(24)
    wd = rng.standard_normal((5, 24))
    bd = rng.standard_normal(5)
    dout, dcache = dense(xd, wd, bd)
    gd = rng.standard_normal(5)
    dgx = dense_backward(dcache, gd)
    dgw, dgb = dense_param_grads(dcache, gd)
    for analytic, arr, f in (
            (dgx, xd, lambda v: float((dense(v, wd, bd)[0] * gd).sum())),
            (dgw, wd, lambda v: float((dense(xd, v, bd)[0] * gd).sum())),
            (dgb, bd, lambda v: float((dense(xd, wd, v)[0] * gd).sum()))):
        worst_layer = max(worst_layer,
                          relative_error(analytic, numeric_gradient(f, arr)))

    xr = rng.standard_normal(40)
    _, mask = dropout(xr, 0.3, rng=5)
    gr = rng.standard_normal(40)
    worst_layer = max(worst_layer, relative_error(
        dropout_backward(mask, gr),
        numeric_gradient(
            lambda v: float((dropout(v, 0.3, rng=5)[0] * gr).sum()),
            xr)))

    logits = rng.standard_normal(3)
    _, _, grad_logits = softmax_xent(logits, 1)
    worst_layer = max(worst_layer, relative_error(
        grad_logits,
        numeric_gradient(lambda v: float(softmax_xent(v, 1)[1]), logits)))

    model = build_model(arch_preset("alexnet3d-micro"), seed=5)
    xm = rng.standard_normal((3, 9, 9, 9)) * 0.5
    _, mcache = forward(model, xm)
    grads, _ = model_backward(model, mcache, 1)
    step = 1e-5
    worst_model = 0.0
    for key in sorted(model.params):
        p = model.params[key]
        for _ in range(2):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + step
            up = sample_loss(model, xm, 1)
            p[idx] = orig - step
            down = sample_loss(model, xm, 1)
            p[idx] = orig
            numeric = (up - down) / (2 * step)
            analytic = grads[key][idx]
            worst_model = max(worst_model,
                              abs(numeric - analytic) / max(abs(numeric),
                                                            abs(analytic),
                                                            1e-8))
    ok = worst_layer < 1e-5 and worst_model < 1e-4
    report(2, ok, f"layer rel err {worst_layer:.2e} < 1e-5, "
                  f"model rel err {worst_model:.2e} < 1e-4")


def test_criterion_03_kernels_match_loop_oracles():
    """conv3d and maxpool3d agree with naive loops on 200 random cases."""
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(100):
        c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
        kernel = tuple(int(k) for k in rng.integers(1, 4, size=3))
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        padding = tuple(int(rng.integers(0, k)) for k in kernel)
        out_sp = rng.integers(1, 4, size=3)
        spatial = tuple(int((o - 1) * s + k - 2 * p)
                        for o, s, k, p in zip(out_sp, stride, kernel, padding))
        if min(spatial) < 1:
            spatial = tuple(max(s, 1) for s in spatial)
        x = rng.standard_normal((c_in,) + spatial)
        w = rng.standard_normal((c_out, c_in) + kernel)
        b = rng.standard_normal(c_out)
        spec = ConvSpec(c_in, c_out, kernel, stride, padding)
        got, _ = conv3d(x, w, b, spec)
        want = conv3d_loops(x, w, b, stride, padding)
        worst = max(worst, relative_error(got, want))
    for _ in range(100):
        c = rng.integers(1, 4)
        kernel = tuple(int(k) for k in rng.integers(1, 4, size=3))
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        padding = tuple(int(rng.integers(0, k)) for k in kernel)
        out_sp = rng.integers(1, 4, size=3)
        spatial = tuple(int((o - 1) * s + k - 2 * p)
                        for o, s, k, p in zip(out_sp, stride, kernel, padding))
        spatial = tuple(max(s, 1) for s in spatial)
        x = rng.standard_normal((c,) + spatial)
        spec = PoolSpec(kernel, stride, padding)
        got, arg, _ = maxpool3d(x, spec)
        want, want_arg = maxpool3d_loops(x, kernel, stride, padding)
        worst = max(worst, relative_error(got, want))
        assert (arg == want_arg).all()
    report(3, worst < 1e-12, f"200 instances, worst rel err {worst:.2e}"
                             " < 1e-12")


def test_criterion_04_censuses_and_full_size_shapes():
    """Layer counts match the published designs; full-size shapes close."""
    alex = layer_census(build_layers(AlexNetConfig()))
    vgg = layer_census(build_layers(VggConfig()))
    goog = layer_census(build_layers(GoogleNetConfig()))
    census_ok = (
        alex["conv"] == 5 and alex["dense"] == 3
        and vgg["conv"] + vgg["dense"] == 16 and vgg["dense"] == 3
        and goog["dense"] == 1 and goog["inception"] == 9
    )
    shapes_ok = all(
        infer_shapes(build_layers(cfg), FULL_INPUT)[-1][1] == (3,)
        for cfg in (AlexNetConfig(), VggConfig(), GoogleNetConfig()))
    report(4, census_ok and shapes_ok,
           f"alexnet {alex}, vgg {vgg}, googlenet {goog}; "
           f"all shape-infer at {FULL_INPUT} to (3,)")


def test_criterion_05_parameter_budgets():
    """Default configs land within 10% of the published budgets."""
    budgets = {
        AlexNetConfig: 16.8e6,
        GoogleNetConfig: 11.1e6,
        VggConfig: 46.2e6,
    }
    detail = []
    ok = True
    for cfg_cls, target in budgets.items():
        model = build_model(cfg_cls(), seed=0)
        n = count_parameters(model)
        del model
        rel = abs(n - target) / target
        ok = ok and rel <= 0.10
        detail.append(f"{cfg_cls.__name__} {n:,} ({rel:+.1%} of "
                      f"{target / 1e6:.1f}M)")
    report(5, ok, "; ".join(detail))


def test_criterion_06_training_recipe_fidelity():
    """Schedule anchors, split sizes, checkpoint cadence, fold sizes."""
    c = TrainConfig()
    assert lr_at_epoch(c, 0) == 1e-5
    assert_allclose(lr_at_epoch(c, 256), 7.5e-6, rtol=1e-15)
    assert_allclose(lr_at_epoch(c, 512), 5.625e-6, rtol=1e-15)

    ids = [f"s{i}" for i in range(1502)]
    plan = split_dataset(ids)
    sizes = (len(plan.train_ids), len(plan.val_ids), len(plan.test_ids))
    assert sizes == (1052, 225, 225)

    rng = np.random.default_rng(6)
    examples = {f"c{i}": (rng.normal(size=(3, 9, 9, 9)), i % 3)
                for i in range(8)}
    ds = ArrayDataset(examples)
    split = SplitPlan(train_ids=ds.ids[:6], val_ids=ds.ids[6:], test_ids=())
    config = TrainConfig(epochs=135, lr0=1e-4, batch_size=3, l2_lambda=0.0,
                         dropout_rate=0.0, validation_freq_iters=128, seed=0)
    model = build_model(arch_preset("alexnet3d-micro"), seed=0)
    _, history = train(model, ds, split, config)
    iters = [r.iteration for r in history.records]
    assert iters == [128, 256], iters

    labels = [f"L{i % 3}" for i in range(1502)]
    folds = make_kfold(ids, labels, k=5, seed=0)
    fold_sizes = sorted(len(f) for f in folds.folds)
    assert fold_sizes == [300, 300, 300, 301, 301]
    assert sorted(i for f in folds.folds for i in f) == sorted(ids)
    for f in folds.folds:
        for lab in ("L0", "L1", "L2"):
            per = sum(1 for i in f if labels[int(i[1:])] == lab)
            assert abs(per - 1502 / 3 / 5) < 1.0
    report(6, True, f"lr anchors exact, split {sizes}, checkpoints {iters}, "
                    f"fold sizes {fold_sizes}")


class _Memorized(Exception):
    pass


def test_criterion_07_each_architecture_memorizes_four_samples():
    """Micro builds drive training loss under 0.01 within 500 iterations."""
    rng = np.random.default_rng(0)
    examples = {}
    for i in range(4):
        c = i % 3
        examples[f"m{i}"] = (rng.normal(size=(3, 9, 9, 9)) * 0.5 + 0.8 * c, c)
    ds = ArrayDataset(examples)
    plan = SplitPlan(train_ids=ds.ids, val_ids=(), test_ids=())
    base = train_preset("memorize-micro")
    detail = []
    ok = True
    for name in ("alexnet3d-micro", "vgg16-3d-micro", "googlenet3d-micro"):
        # GoogleNet3D at micro widths diverges at the shared preset step
        config = base if not name.startswith("googlenet") else \
            replace(base, lr0=1e-3)
        model = build_model(arch_preset(name), seed=0)
        losses = []

        def hook(it, ep, loss, losses=losses):
            losses.append(loss)
            if loss < 0.01:
                raise _Memorized

        try:
            train(model, ds, plan, config, iteration_hook=hook)
        except _Memorized:
            pass
        hit = next((i + 1 for i, l in enumerate(losses) if l < 0.01), None)
        ok = ok and hit is not None and hit <= 500
        detail.append(f"{name.split('-')[0]} at iter {hit}")
    report(7, ok, "loss < 0.01 within 500: " + ", ".join(detail))


def test_criterion_08_phantom_classification_accuracy(
        phantom_dataset, phantom_split, phantom_model):
    """600-sample set, toy AlexNet3D, 30 epochs, test accuracy >= 90%."""
    model, _ = phantom_model
    result = evaluate(model, phantom_dataset, phantom_split.test_ids)
    report(8, result.accuracy >= 0.90,
           f"test accuracy {result.accuracy:.4f} >= 0.90 on "
           f"{len(result.ids)} held-out samples")


def test_criterion_09_ensembles_match_brute_force():
    """10,000 random triples agree exactly; ties go to the top probability."""
    rng = np.random.default_rng(9)
    agree = True
    for _ in range(10_000):
        probs = rng.dirichlet(np.ones(3), size=3)
        avg = ensemble_average(probs)
        vote = ensemble_vote(probs)

        mean = probs.mean(axis=0)
        agree = agree and avg.class_id == int(np.argmax(mean))

        votes = [int(np.argmax(p)) for p in probs]
        counts = [votes.count(c) for c in range(3)]
        if max(counts) >= 2:
            want = int(np.argmax(counts))
            agree = agree and vote.class_id == want and not vote.by_probability
        else:
            flat = int(np.unravel_index(np.argmax(probs), probs.shape)[1])
            agree = agree and vote.class_id == flat and vote.by_probability

    t1 = ensemble_vote([(0.5, 0.3, 0.2), (0.2, 0.45, 0.35), (0.1, 0.2, 0.7)])
    t2 = ensemble_vote([(0.84, 0.08, 0.08), (0.1, 0.6, 0.3), (0.2, 0.2, 0.6)])
    ties_ok = (t1.class_id == 2 and t1.by_probability
               and t2.class_id == 0 and t2.by_probability)
    report(9, agree and ties_ok,
           "10,000 triples match oracles exactly; constructed 3-way ties "
           "resolve to the single highest probability")


def test_criterion_10_metric_oracles():
    """AUC concordance, hand-checked classwise values, histogram row sums."""
    rng = np.random.default_rng(10)
    worst_auc = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 60))
        scores = rng.uniform(size=n)
        if trial % 2:
            scores = np.round(scores, 1)  # force threshold ties
        labels = rng.integers(0, 3, size=n)
        if (labels == 0).all() or not (labels == 0).any():
            labels[0], labels[1] = 0, 1
        curve = roc_curve(scores, labels, 0)
        want = concordance_auc(scores, labels == 0)
        worst_auc = max(worst_auc, abs(auc(curve) - want))

    cm = np.array([[5, 2, 0], [1, 6, 1], [0, 2, 8]])
    m = classwise_metrics(cm)
    hand = {
        "AD": dict(accuracy=22 / 25, precision=5 / 7, sensitivity=5 / 6,
                   specificity=17 / 19, f1=10 / 13),
        "MCI": dict(accuracy=19 / 25, precision=6 / 8, sensitivity=6 / 10,
                    specificity=13 / 15, f1=2 / 3),
        "CN": dict(accuracy=22 / 25, precision=8 / 10, sensitivity=8 / 9,
                   specificity=14 / 16, f1=16 / 19),
    }
    for cname, row in hand.items():
        for metric, value in row.items():
            assert_allclose(m[cname][metric], value, rtol=1e-12)

    preds = rng.integers(0, 3, size=500)
    labels = rng.integers(0, 3, size=500)
    hist = misclassification_histogram(preds, labels)
    rows_ok = all(abs(sum(row.values()) - 100.0) < 1e-9
                  for row in hist.values() if row)
    report(10, worst_auc < 1e-9 and rows_ok,
           f"AUC vs concordance worst {worst_auc:.2e} < 1e-9; classwise "
           "matches hand computation; histogram rows sum to 100")


def test_criterion_11_saliency_concentrates_in_planted_region(
        phantom_root, phantom_dataset, phantom_split, phantom_model):
    """Class-mean saliency is > 3x enriched inside each generator mask."""
    model, _ = phantom_model
    detail = []
    ok = True
    for ci, cname in enumerate(CLASSES):
        ids = [i for i in phantom_split.test_ids
               if phantom_dataset.label_of(i) == cname]
        smap = class_mean_saliency(model, phantom_dataset, ci, ids=ids)
        mask = load_mask(str(phantom_root / "masks" / f"mask_{cname}.vvol"))
        score = region_enrichment(smap, mask)
        frac = float(mask.mean())
        ok = ok and score > 3.0 and 0.01 < frac < 0.035
        detail.append(f"{cname} {score:.2f} (mask {frac:.1%})")
    report(11, ok, "enrichment > 3 per class: " + ", ".join(detail))


def test_criterion_12_training_is_deterministic(tmp_path):
    """Identical seed and spec give bit-identical models; IO is bit-exact."""
    data = tmp_path / "data"
    params = tmp_path / "phantom.json"
    params.write_text(json.dumps(config_fields(PhantomParams(
        extents=(20, 22, 20), samples_per_class=4,
        region_radii=(1.6, 2.2, 2.8), noise_amplitude=0.05, jitter=0.8,
        seed=3))))
    assert cli_main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
    arch = tmp_path / "arch.json"
    arch.write_text(config_to_json(AlexNetConfig(
        input_shape=(3, 20, 22, 20), conv_widths=(4, 8, 8, 8, 8),
        dense_widths=(16, 16), stem_kernel=3, stem_stride=1, stem_padding=1,
        pool_padding=1)))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config_fields(TrainConfig(
        epochs=2, lr0=1e-3, batch_size=4, l2_lambda=0.0, dropout_rate=0.0,
        validation_freq_iters=4, seed=0))))
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli_main(["train", "--manifest", str(data / "manifest.vman"),
                         "--arch-config", str(arch), "--train-config",
                         str(cfg), "--out", str(out)]) == 0
        outs.append((out / "model.v0xn").read_bytes())
    models_identical = outs[0] == outs[1]

    rng = np.random.default_rng(12)
    rec = VolumeRecord(id="rt", data=rng.random((3, 4, 5, 6),
                                                dtype=np.float32),
                       label="CN")
    back = read_volume(write_volume(rec))
    round_trip = (back.data.tobytes() == rec.data.tobytes()
                  and back.id == rec.id and back.label == rec.label)
    report(12, models_identical and round_trip,
           f"model bytes identical across reruns ({len(outs[0])} bytes); "
           "volume round trip bit-exact")
