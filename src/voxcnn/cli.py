"""Command-line surface: generate, train, eval, crossval, saliency, info.

Exit codes: 0 success, 2 usage error, 3 validation/data error, 4 numeric
failure.  All output files go through write-then-rename, so a failing
command leaves no partial artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .ensemble import ensemble_average, ensemble_vote
from .errors import NumericError, ValidationError
from .kernels import ConvSpec, op_count
from .metrics import (
    CLASSES,
    auc,
    classwise_csv,
    classwise_metrics,
    confusion_matrix,
    histogram_csv,
    misclassification_histogram,
    overall_accuracy,
    render_confusion,
    roc_csv,
    roc_curve,
)
from .models import (
    build_layers,
    build_model,
    config_from_json,
    infer_shapes,
    layer_census,
    load_model_file,
    parameter_shapes,
    save_model_file,
)
from .presets import ARCH_PRESETS, TRAIN_PRESETS, arch_preset, train_preset
from .saliency import class_mean_saliency, region_enrichment
from .training import (
    TrainConfig,
    evaluate,
    make_kfold,
    run_cross_validation,
    split_dataset,
    train,
)
from .volumes import (
    PhantomParams,
    VolumeDataset,
    VolumeRecord,
    atomic_write_text,
    generate_phantoms,
    load_mask,
    save_volume,
)

SPLIT_CHOICES = ("train", "val", "test", "heldout", "all")


def _load_arch_config(value: str):
    if os.path.exists(value):
        with open(value, encoding="utf-8") as f:
            return config_from_json(f.read())
    return arch_preset(value)


def _load_train_config(value: str | None, seed: int | None) -> TrainConfig:
    if value is None:
        config = TrainConfig()
    elif os.path.exists(value):
        with open(value, encoding="utf-8") as f:
            config = TrainConfig.from_text(f.read())
    else:
        config = train_preset(value)
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def _select_ids(dataset: VolumeDataset, split: str, seed: int | None):
    """Resolve a split name against manifest tags, or derive one by seed."""
    if split == "all":
        return dataset.ids
    tagged = dataset.split_ids(split)
    if tagged:
        return tagged
    if seed is None:
        raise ValidationError(
            f"manifest has no {split!r} split tags; pass --seed to derive a "
            "split or use --split all"
        )
    plan = split_dataset(dataset.ids, seed=seed)
    groups = {"train": plan.train_ids, "val": plan.val_ids,
              "test": plan.test_ids,
              "heldout": plan.val_ids + plan.test_ids}
    return groups[split]


def _check_extents(dataset: VolumeDataset, input_shape) -> None:
    expected = (3,) + tuple(dataset.extents)
    if tuple(input_shape) != expected:
        raise ValidationError(
            f"model input shape {tuple(input_shape)} does not match dataset "
            f"volumes {expected}"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    with open(args.params, encoding="utf-8") as f:
        params = PhantomParams.from_text(f.read())
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    manifest = generate_phantoms(params, args.out)
    counts: dict = {}
    for r in manifest.records:
        counts[r.label] = counts.get(r.label, 0) + 1
    d, h, w = params.extents
    print(f"wrote {len(manifest.records)} volumes at {d}x{h}x{w} "
          f"to {args.out}")
    for name in CLASSES:
        print(f"  {name}: {counts.get(name, 0)}")
    print(f"manifest: {os.path.join(args.out, 'manifest.vman')}")
    return 0


def _resolve_split_plan(dataset: VolumeDataset, config: TrainConfig):
    tagged = {s: dataset.split_ids(s) for s in ("train", "val", "test")}
    if any(tagged.values()):
        if not tagged["train"]:
            raise ValidationError("manifest tags contain no training samples")
        from .training import SplitPlan
        return SplitPlan(train_ids=tagged["train"], val_ids=tagged["val"],
                         test_ids=tagged["test"])
    return split_dataset(dataset.ids, seed=config.seed)


def cmd_train(args) -> int:
    arch = _load_arch_config(args.arch_config)
    config = _load_train_config(args.train_config, args.seed)
    dataset = VolumeDataset.from_manifest(args.manifest)
    _check_extents(dataset, arch.input_shape)
    plan = _resolve_split_plan(dataset, config)
    model = build_model(arch, seed=config.seed)
    model, history = train(model, dataset, plan, config)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.v0xn")
    save_model_file(model, model_path)
    atomic_write_text(os.path.join(args.out, "history.csv"), history.to_csv())
    split_lines = ["id,split"]
    for name, group in (("train", plan.train_ids), ("val", plan.val_ids),
                        ("test", plan.test_ids)):
        split_lines.extend(f"{sid},{name}" for sid in group)
    atomic_write_text(os.path.join(args.out, "split.csv"),
                      "\n".join(split_lines) + "\n")
    print(f"trained {arch.architecture} for {config.epochs} epochs "
          f"({len(plan.train_ids)} train / {len(plan.val_ids)} val / "
          f"{len(plan.test_ids)} test)")
    print(f"model: {model_path}")
    print(f"history checkpoints: {len(history.records)}")
    if history.records:
        last = history.records[-1]
        print(f"final checkpoint: iteration {last.iteration}, "
              f"val_acc {last.val_acc!r}")
    return 0


def _eval_one(name, result, lines, out_files):
    cm = confusion_matrix(result.predictions, result.labels)
    lines.append(f"== {name} ==")
    lines.append(render_confusion(cm))
    metrics = classwise_metrics(cm)
    lines.append(classwise_csv(metrics).rstrip())
    for c, cname in enumerate(CLASSES):
        try:
            curve = roc_curve(result.probs[:, c], result.labels, c)
        except ValidationError:
            lines.append(f"roc {cname}: NA (single-class split)")
            continue
        lines.append(f"auc {cname}: {auc(curve):.4f}")
        out_files[f"roc_{name}_{cname}.csv"] = roc_csv(curve)
    hist = misclassification_histogram(result.predictions, result.labels)
    lines.append(histogram_csv(hist).rstrip())
    out_files[f"classwise_{name}.csv"] = classwise_csv(metrics)
    return overall_accuracy(cm)


def cmd_eval(args) -> int:
    models = [load_model_file(p) for p in args.model]
    if len(models) not in (1, 2, 3):
        raise ValidationError("eval accepts between 1 and 3 --model files")
    dataset = VolumeDataset.from_manifest(args.manifest)
    for m in models:
        _check_extents(dataset, m.input_shape)
    ids = _select_ids(dataset, args.split, args.seed)
    if not ids:
        raise ValidationError(f"split {args.split!r} selects no samples")

    names = []
    for m in models:
        base = m.architecture
        seen = sum(1 for n in names if n == base or n.startswith(base + "#"))
        names.append(base if seen == 0 else f"{base}#{seen + 1}")

    lines: list = []
    out_files: dict = {}
    summary = []  # (name, n, accuracy)
    results = []
    for name, m in zip(names, models):
        result = evaluate(m, dataset, ids)
        results.append(result)
        acc = _eval_one(name, result, lines, out_files)
        summary.append((name, len(ids), acc))

    pred_header = ["id", "true"]
    for name in names:
        pred_header += [f"{name}_{c}" for c in CLASSES]
    pred_rows = []
    for i, sid in enumerate(ids):
        row = [sid, CLASSES[results[0].labels[i]]]
        for r in results:
            row += [repr(float(p)) for p in r.probs[i]]
        pred_rows.append(row)

    if len(models) == 3:
        avg_preds, vote_preds = [], []
        for i in range(len(ids)):
            pset = [r.probs[i] for r in results]
            avg_preds.append(ensemble_average(pset).class_id)
            vote_preds.append(ensemble_vote(pset).class_id)
        labels = results[0].labels
        for ens_name, preds in (("ensemble-average", avg_preds),
                                ("ensemble-vote", vote_preds)):
            cm = confusion_matrix(preds, labels)
            lines.append(f"== {ens_name} ==")
            lines.append(render_confusion(cm))
            metrics = classwise_metrics(cm)
            lines.append(classwise_csv(metrics).rstrip())
            out_files[f"classwise_{ens_name}.csv"] = classwise_csv(metrics)
            summary.append((ens_name, len(ids), overall_accuracy(cm)))
        pred_header += ["ensemble_average", "ensemble_vote"]
        for i, row in enumerate(pred_rows):
            row += [CLASSES[avg_preds[i]], CLASSES[vote_preds[i]]]

    lines.append("== summary ==")
    lines.append("result,n,accuracy")
    for name, n, acc in summary:
        lines.append(f"{name},{n},{acc:.4f}")
    report = "\n".join(lines) + "\n"
    print(report, end="")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_files["summary.csv"] = "result,n,accuracy\n" + "".join(
            f"{name},{n},{acc!r}\n" for name, n, acc in summary)
        out_files["predictions.csv"] = "\n".join(
            [",".join(pred_header)] + [",".join(r) for r in pred_rows]) + "\n"
        out_files["report.txt"] = report
        for fname, text in out_files.items():
            atomic_write_text(os.path.join(args.out, fname), text)
        print(f"wrote {len(out_files)} files to {args.out}")
    return 0


def _agg(values):
    defined = [v for v in values if v is not None]
    if not defined:
        return ("NA", "NA", "NA")
    return (f"{min(defined):.4f}", f"{float(np.median(defined)):.4f}",
            f"{max(defined):.4f}")


def cmd_crossval(args) -> int:
    arch = _load_arch_config(args.arch_config)
    config = _load_train_config(args.train_config, args.seed)
    dataset = VolumeDataset.from_manifest(args.manifest)
    _check_extents(dataset, arch.input_shape)
    labels = [dataset.label_of(i) for i in dataset.ids]
    fold_plan = make_kfold(dataset.ids, labels, k=args.k, seed=config.seed)
    results = run_cross_validation(dataset, fold_plan, arch, config,
                                   workers=args.workers)
    lines = ["fold,n,accuracy"]
    for r in results:
        lines.append(f"{r.fold_index},{r.n_eval},{r.accuracy:.4f}")
    lo, med, hi = _agg([r.accuracy for r in results])
    lines.append(f"aggregate,min={lo},median={med},max={hi}")
    lines.append("class,metric,min,median,max")
    from .metrics import METRIC_NAMES
    for cname in CLASSES:
        for metric in METRIC_NAMES:
            lo, med, hi = _agg([r.classwise[cname][metric] for r in results])
            lines.append(f"{cname},{metric},{lo},{med},{hi}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "crossval.csv"), report)
        fold_lines = ["id,fold"]
        for i in range(fold_plan.k):
            fold_lines.extend(f"{sid},{i}" for sid in fold_plan.eval_ids(i))
        atomic_write_text(os.path.join(args.out, "folds.csv"),
                          "\n".join(fold_lines) + "\n")
        print(f"wrote crossval.csv and folds.csv to {args.out}")
    return 0


def cmd_saliency(args) -> int:
    model = load_model_file(args.model)
    dataset = VolumeDataset.from_manifest(args.manifest)
    _check_extents(dataset, model.input_shape)
    ids = _select_ids(dataset, args.split, args.seed)
    class_names = [c.strip() for c in args.classes.split(",") if c.strip()]
    for cname in class_names:
        if cname not in CLASSES:
            raise ValidationError(f"unknown class {cname!r}")
    mask = load_mask(args.mask) if args.mask else None
    os.makedirs(args.out, exist_ok=True)
    for cname in class_names:
        vol = class_mean_saliency(model, dataset, CLASSES.index(cname),
                                  ids=ids)
        data = np.stack([vol.data] * 3).astype(np.float32)
        rec = VolumeRecord(id=f"saliency_{cname}", data=data, label=cname)
        path = os.path.join(args.out, f"saliency_{cname}.vvol")
        save_volume(rec, path)
        print(f"saliency {cname}: {path}")
        if mask is not None:
            score = region_enrichment(vol, mask)
            print(f"enrichment {cname}: {score:.4f}")
    return 0


def cmd_info(args) -> int:
    if args.probe_conv:
        try:
            kd, kh, kw = (int(x) for x in args.probe_conv.split(","))
            d, h, w = (int(x) for x in args.probe_input.split(","))
            cin, cout = (int(x) for x in args.probe_channels.split(","))
        except (ValueError, AttributeError):
            raise ValidationError(
                "probe flags need --probe-conv KD,KH,KW --probe-input D,H,W "
                "[--probe-channels CIN,COUT]"
            ) from None
        spec = ConvSpec(cin, cout, (kd, kh, kw))
        for mode in ("paper-convention", "standard"):
            oc = op_count(spec, (d, h, w), mode=mode)
            print(f"probe conv {kd}x{kh}x{kw} on {d}x{h}x{w} [{mode}]: "
                  f"{oc.multiplications} multiplications, "
                  f"{oc.additions} additions")
        if not args.arch_config:
            return 0
    if not args.arch_config:
        raise ValidationError("pass --arch-config or probe flags")
    arch = _load_arch_config(args.arch_config)
    if args.input_shape:
        try:
            d, h, w = (int(x) for x in args.input_shape.split(","))
        except ValueError:
            raise ValidationError("--input-shape must be D,H,W") from None
        arch = replace(arch, input_shape=(3, d, h, w))
    layers = build_layers(arch)
    walk = infer_shapes(layers, arch.input_shape)
    print(f"architecture: {arch.architecture}")
    print(f"input shape: {tuple(arch.input_shape)}")
    print("layer,output_shape")
    for name, shape in walk[1:]:
        print(f"{name},{tuple(shape)}")
    shapes = parameter_shapes(layers)
    total = sum(int(np.prod(s)) for s in shapes.values())
    print(f"parameters: {total}")
    census = layer_census(layers)
    print(f"census: {census['conv']} conv, {census['dense']} dense, "
          f"{census['inception']} inception modules")
    if arch.architecture == "googlenet3d":
        print(f"classification heads: {census['dense']} "
              "(no auxiliary heads)")
    print("conv layer,mode,multiplications,additions")
    for l, (_, shape) in zip(layers, walk):
        for name, spec, extents in l.convs(shape):
            for mode in ("paper-convention", "standard"):
                oc = op_count(spec, extents, mode=mode)
                print(f"{name},{mode},{oc.multiplications},{oc.additions}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxcnn",
        description="3D CNN experiments on volumetric data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a phantom dataset")
    p.add_argument("--params", required=True,
                   help="phantom parameter file (key = value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the params seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arch-config", required=True,
                   help=f"config JSON path or preset: {', '.join(ARCH_PRESETS)}")
    p.add_argument("--train-config",
                   help=f"config path or preset: {', '.join(TRAIN_PRESETS)}")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate 1-3 trained models")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat up to 3 times for an ensemble")
    p.add_argument("--split", choices=SPLIT_CHOICES, default="test")
    p.add_argument("--seed", type=int,
                   help="derive the split when the manifest has no tags")
    p.add_argument("--out", help="directory for CSV reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arch-config", required=True)
    p.add_argument("--train-config")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel fold training threads")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="directory for CSV reports")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("saliency", help="class-mean saliency volumes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--classes", default=",".join(CLASSES),
                   help="comma-separated class names (default: all)")
    p.add_argument("--split", choices=SPLIT_CHOICES, default="all")
    p.add_argument("--seed", type=int)
    p.add_argument("--mask", help="region mask volume; prints enrichment")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("info", help="shape walk, parameters, op counts")
    p.add_argument("--arch-config")
    p.add_argument("--input-shape", help="override extents as D,H,W")
    p.add_argument("--probe-conv", help="probe a single conv: KD,KH,KW")
    p.add_argument("--probe-input", help="probe input extents: D,H,W")
    p.add_argument("--probe-channels", default="1,1",
                   help="probe channels: CIN,COUT (default 1,1)")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
