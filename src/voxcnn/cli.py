"""Command-line surface: generate, train, eval, crossval, saliency, info.

Exit codes: 0 success, 2 usage error, 3 validation/data error, 4 numeric
failure.  All output files go through write-then-rename, so a failing
command leaves no partial artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .ensemble import ensemble_average, ensemble_vote
from .errors import NumericError, ValidationError
from .kernels import ConvSpec, op_count
from .metrics import (
    CLASSES,
    METRIC_NAMES,
    auc,
    class_index,
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
    SplitPlan,
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
    config_from_fields,
    generate_phantoms,
    load_mask,
    parse_json,
    read_text,
    save_volume,
)

SPLIT_CHOICES = ("train", "val", "test", "heldout", "all")


def _read_config(cls, path: str, what: str):
    """The `cls` config held in JSON file `path`."""
    return config_from_fields(cls, parse_json(
        read_text(path), f"{path}: malformed {what} JSON"), what)


def _load_arch_config(value: str):
    if os.path.exists(value):
        return config_from_json(read_text(value))
    return arch_preset(value)


def _load_train_config(value: str | None, seed: int | None) -> TrainConfig:
    if value is None:
        config = TrainConfig()
    elif os.path.exists(value):
        config = _read_config(TrainConfig, value, "training config")
    else:
        config = train_preset(value)
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def _split_plan(dataset: VolumeDataset, seed: int | None) -> tuple:
    """(plan, tagged): the manifest's split tags when any record is tagged,
    otherwise a split derived from seed."""
    plan = SplitPlan(*(dataset.split_ids(s) for s in ("train", "val", "test")))
    if plan.train_ids or plan.val_ids or plan.test_ids:
        return plan, True
    if seed is None:
        raise ValidationError(
            "manifest has no split tags; pass --seed to derive a split or "
            "use --split all"
        )
    return split_dataset(dataset.ids, seed=seed), False


def _select_ids(dataset: VolumeDataset, split: str, seed: int | None):
    """Ids of a SPLIT_CHOICES name: "all" is every id, "heldout" is val +
    test."""
    if split == "all":
        return dataset.ids
    plan, tagged = _split_plan(dataset, seed)
    ids = (plan.val_ids + plan.test_ids if split == "heldout"
           else getattr(plan, f"{split}_ids"))
    if not ids:
        source = (f"the manifest has no {split!r} split tags" if tagged else
                  "the manifest has no split tags and the split derived "
                  f"from --seed {seed} leaves it empty")
        raise ValidationError(f"split {split!r} selects no samples: {source}")
    return ids


def _check_model(dataset: VolumeDataset, config, source: str) -> None:
    """Refuse, before any forward, a model config (from the model file or
    arch config named by source) whose input shape or class count does not
    fit the dataset."""
    expected = (3,) + tuple(dataset.extents)
    if tuple(config.input_shape) != expected:
        raise ValidationError(
            f"{source}: model input shape {tuple(config.input_shape)} does not "
            f"match dataset volumes {expected}"
        )
    if config.class_count != len(CLASSES):
        raise ValidationError(
            f"{source}: model has {config.class_count} classes, the dataset "
            f"has {len(CLASSES)} ({', '.join(CLASSES)})"
        )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    params = _read_config(PhantomParams, args.params, "phantom params")
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


def cmd_train(args) -> int:
    arch = _load_arch_config(args.arch_config)
    config = _load_train_config(args.train_config, args.seed)
    dataset = VolumeDataset.from_manifest(args.manifest)
    _check_model(dataset, arch, args.arch_config)
    plan, _ = _split_plan(dataset, config.seed)
    if not plan.train_ids:
        raise ValidationError("manifest tags contain no training samples")
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


def _report_block(name, predictions, labels, lines, out_files) -> float:
    """Append one result's confusion matrix and class-wise metrics to the
    report lines, add its class-wise CSV file; returns its accuracy."""
    cm = confusion_matrix(predictions, labels)
    metrics = classwise_metrics(cm)
    lines += [f"== {name} ==", render_confusion(cm),
              classwise_csv(metrics).rstrip()]
    out_files[f"classwise_{name}.csv"] = classwise_csv(metrics)
    return overall_accuracy(cm)


def _eval_one(name, result, lines, out_files):
    acc = _report_block(name, result.predictions, result.labels, lines,
                        out_files)
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
    return acc


def cmd_eval(args) -> int:
    if len(args.model) not in (1, 2, 3):
        raise ValidationError("eval accepts between 1 and 3 --model files")
    models = [load_model_file(p) for p in args.model]
    dataset = VolumeDataset.from_manifest(args.manifest)
    for path, m in zip(args.model, models):
        _check_model(dataset, m.config, path)
    ids = _select_ids(dataset, args.split, args.seed)

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
            acc = _report_block(ens_name, preds, labels, lines, out_files)
            summary.append((ens_name, len(ids), acc))
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
    _check_model(dataset, arch, args.arch_config)
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
    class_names = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not class_names:
        raise ValidationError(f"--classes {args.classes!r} names no class")
    if len(set(class_names)) != len(class_names):
        raise ValidationError(f"--classes {args.classes!r} repeats a class")
    class_ids = [class_index(cname) for cname in class_names]
    model = load_model_file(args.model)
    dataset = VolumeDataset.from_manifest(args.manifest)
    _check_model(dataset, model.config, args.model)
    ids = _select_ids(dataset, args.split, args.seed)
    mask = load_mask(args.mask) if args.mask else None
    # every map and score is made before --out is created, so a class
    # without samples or a mask of the wrong shape leaves no output
    vols = [class_mean_saliency(model, dataset, c, ids=ids)
            for c in class_ids]
    scores = [None if mask is None else region_enrichment(vol, mask)
              for vol in vols]
    os.makedirs(args.out, exist_ok=True)
    for cname, vol, score in zip(class_names, vols, scores):
        data = np.stack([vol.data] * 3).astype(np.float32)
        rec = VolumeRecord(id=f"saliency_{cname}", data=data, label=cname)
        path = os.path.join(args.out, f"saliency_{cname}.vvol")
        save_volume(rec, path)
        print(f"saliency {cname}: {path}")
        if score is not None:
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
    total = sum(math.prod(s) for s in shapes.values())
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
                   help="phantom params JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the params seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arch-config", required=True,
                   help=f"config JSON path or preset: {', '.join(ARCH_PRESETS)}")
    p.add_argument("--train-config",
                   help=f"config JSON path or preset: {', '.join(TRAIN_PRESETS)}")
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
