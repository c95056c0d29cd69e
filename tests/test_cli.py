"""End-to-end checks of the command-line interface.

Every test drives main() in-process and inspects stdout, exit codes, and
the files each command leaves behind.  Datasets and models are kept tiny
(20x22x20 extents, a few samples per class) so the whole module runs in
well under a minute.
"""

import hashlib
import io
import json
import os
import shutil
import struct
import zlib
from contextlib import redirect_stdout

import numpy as np
import pytest

from voxcnn.cli import main
from voxcnn.metrics import CLASSES, confusion_matrix, overall_accuracy
from voxcnn.models import (
    AlexNetConfig,
    GoogleNetConfig,
    build_layers,
    build_model,
    config_to_dict,
    config_to_json,
    load_model_file,
    parameter_shapes,
    save_model_file,
)
from voxcnn.presets import arch_preset
from voxcnn.training import TrainConfig
from voxcnn.volumes import (
    PhantomParams,
    VolumeRecord,
    load_manifest,
    load_volume,
    save_volume,
)

EXTENTS = (20, 22, 20)


def tiny_params(samples_per_class=4, seed=11):
    return PhantomParams(
        extents=EXTENTS,
        samples_per_class=samples_per_class,
        region_radii=(1.6, 2.2, 2.8),
        noise_amplitude=0.05,
        jitter=0.8,
        seed=seed,
    )


def tiny_arch():
    return AlexNetConfig(
        input_shape=(3,) + EXTENTS,
        conv_widths=(4, 8, 8, 8, 8),
        dense_widths=(16, 16),
        stem_kernel=3,
        stem_stride=1,
        stem_padding=1,
        pool_padding=1,
        dropout_rate=0.0,
    )


def quick_train_config(**overrides):
    base = dict(epochs=2, lr0=1e-3, batch_size=5, l2_lambda=0.0,
                dropout_rate=0.0, validation_freq_iters=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def tree_bytes(root):
    """Map of relative path -> content hash for every file under root."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            rel = os.path.relpath(path, root)
            out[rel] = hashlib.sha256(file_bytes(path)).hexdigest()
    return out


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def params_path(work):
    path = work / "params.txt"
    path.write_text(tiny_params().to_text())
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(work, params_path):
    """A 12-sample phantom dataset written through the generate command."""
    out = work / "phantoms"
    assert main(["generate", "--params", params_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def manifest_path(dataset_dir):
    return str(dataset_dir / "manifest.vman")


@pytest.fixture(scope="module")
def arch_path(work):
    path = work / "arch.json"
    path.write_text(config_to_json(tiny_arch()))
    return str(path)


@pytest.fixture(scope="module")
def train_cfg_path(work):
    path = work / "train.cfg"
    path.write_text(quick_train_config().to_text())
    return str(path)


@pytest.fixture(scope="module")
def model_dir(work, manifest_path, arch_path, train_cfg_path):
    """Output directory of one short training run on the tiny dataset."""
    out = work / "run"
    rc = main(["train", "--manifest", manifest_path, "--arch-config",
               arch_path, "--train-config", train_cfg_path, "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_trio(work):
    """Three differently initialized (untrained) models for ensemble runs."""
    paths = []
    for seed in (1, 2, 3):
        model = build_model(tiny_arch(), seed=seed)
        path = work / f"member{seed}.v0xn"
        save_model_file(model, str(path))
        paths.append(str(path))
    return paths


class TestGenerate:
    def test_counts_and_manifest(self, tmp_path, capsys):
        """Ten samples per class produce a manifest with thirty records."""
        params = tmp_path / "p.txt"
        params.write_text(tiny_params(samples_per_class=10).to_text())
        out = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wrote 30 volumes at 20x22x20" in text
        for name in CLASSES:
            assert f"{name}: 10" in text
        manifest = load_manifest(str(out / "manifest.vman"))
        assert len(manifest.records) == 30

    def test_rerun_is_byte_identical(self, params_path, dataset_dir,
                                     tmp_path):
        """Re-running generate with the same parameters reproduces every
        file bit for bit."""
        again = tmp_path / "again"
        assert main(["generate", "--params", params_path,
                     "--out", str(again)]) == 0
        assert tree_bytes(str(again)) == tree_bytes(str(dataset_dir))

    def test_missing_params_flag_is_usage_error(self):
        """Omitting the required --params flag exits with code 2."""
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", "/tmp/nowhere"])
        assert exc.value.code == 2

    def test_bad_params_file(self, tmp_path, capsys):
        """An unknown key in the parameter file is a validation failure."""
        params = tmp_path / "p.txt"
        params.write_text("contrast = 2.0\n")
        assert main(["generate", "--params", str(params),
                     "--out", str(tmp_path / "d")]) == 3
        assert "contrast" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("extent_depth = 20.5\nextent_height = 22\nextent_width = 20\n",
         "extent_depth"),
        ("seed = 1.9\n", "seed"),
        ("extent_depth = 20\n", "extent_height"),
    ])
    def test_malformed_params_value(self, tmp_path, capsys, text, key):
        """A non-integral integer or an incomplete extent group is a
        validation failure that writes nothing."""
        params = tmp_path / "p.txt"
        params.write_text(text)
        out = tmp_path / "d"
        assert main(["generate", "--params", str(params),
                     "--out", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, params_path, tmp_path):
        """--seed replaces the seed stored in the parameter file."""
        out = tmp_path / "seeded"
        assert main(["generate", "--params", params_path, "--out", str(out),
                     "--seed", "99"]) == 0
        manifest = load_manifest(str(out / "manifest.vman"))
        assert manifest.metadata["seed"] == 99


class TestTrain:
    def test_epochs_zero_writes_initialization(self, manifest_path, arch_path,
                                               tmp_path, capsys):
        """Training for zero epochs saves the freshly initialized weights
        and an empty history."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text(quick_train_config(epochs=0).to_text())
        out = tmp_path / "run0"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch_path, "--train-config", str(cfg),
                     "--out", str(out)]) == 0
        assert "history checkpoints: 0" in capsys.readouterr().out
        saved = load_model_file(str(out / "model.v0xn"))
        fresh = build_model(tiny_arch(), seed=0)
        assert saved.params.keys() == fresh.params.keys()
        for key in fresh.params:
            assert np.array_equal(saved.params[key], fresh.params[key])
        history = (out / "history.csv").read_text().strip().splitlines()
        assert len(history) == 1 and history[0].startswith("iteration,")

    def test_history_rows_at_validation_freq(self, model_dir):
        """Checkpoints land every validation_freq_iters iterations: with 10
        train samples, batch 5, 2 epochs and freq 2 that is iterations 2, 4."""
        rows = (model_dir / "history.csv").read_text().strip().splitlines()
        iters = [int(r.split(",")[0]) for r in rows[1:]]
        assert iters == [2, 4]

    def test_rerun_gives_identical_model_file(self, manifest_path, arch_path,
                                              train_cfg_path, model_dir,
                                              tmp_path):
        """Two runs with the same spec and seed write byte-identical model
        files."""
        out = tmp_path / "rerun"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch_path, "--train-config", train_cfg_path,
                     "--out", str(out)]) == 0
        assert file_bytes(str(out / "model.v0xn")) == \
            file_bytes(str(model_dir / "model.v0xn"))

    def test_split_csv_matches_manifest_tags(self, model_dir, manifest_path):
        """The exported split assignment mirrors the manifest tags."""
        manifest = load_manifest(manifest_path)
        tagged = {r.subject: r.split for r in manifest.records}
        rows = (model_dir / "split.csv").read_text().strip().splitlines()[1:]
        exported = dict(row.split(",") for row in rows)
        assert exported == tagged

    def test_extent_mismatch_leaves_no_output(self, manifest_path,
                                              train_cfg_path, tmp_path,
                                              capsys):
        """A model/dataset shape clash fails before anything is written."""
        out = tmp_path / "never"
        rc = main(["train", "--manifest", manifest_path, "--arch-config",
                   "alexnet3d-micro", "--train-config", train_cfg_path,
                   "--out", str(out)])
        assert rc == 3
        assert "does not match dataset" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_memorized_model_diagonal_confusion(self, tmp_path, capsys):
        """A model that memorized its three training samples evaluates to a
        diagonal confusion matrix (accuracy 1) on that split."""
        params = tmp_path / "p.txt"
        params.write_text(tiny_params(samples_per_class=1, seed=5).to_text())
        data = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
        arch = tmp_path / "arch.json"
        arch.write_text(config_to_json(tiny_arch()))
        cfg = tmp_path / "t.cfg"
        cfg.write_text(quick_train_config(
            epochs=150, lr0=1e-2, batch_size=3,
            validation_freq_iters=1000).to_text())
        run = tmp_path / "run"
        manifest = str(data / "manifest.vman")
        assert main(["train", "--manifest", manifest, "--arch-config",
                     str(arch), "--train-config", str(cfg),
                     "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["eval", "--manifest", manifest, "--model",
                     str(run / "model.v0xn"), "--split", "train"]) == 0
        out = capsys.readouterr().out
        assert "alexnet3d,3,1.0000" in out

    def test_three_models_give_five_summary_rows(self, manifest_path,
                                                 model_trio, tmp_path,
                                                 capsys):
        """An ensemble report covers each member plus both combiners."""
        out = tmp_path / "report"
        argv = ["eval", "--manifest", manifest_path, "--split", "all",
                "--out", str(out)]
        for path in model_trio:
            argv += ["--model", path]
        assert main(argv) == 0
        text = capsys.readouterr().out
        summary = text.split("== summary ==")[1].strip().splitlines()
        assert summary[0] == "result,n,accuracy"
        rows = summary[1:6]
        names = [r.split(",")[0] for r in rows]
        assert names == ["alexnet3d", "alexnet3d#2", "alexnet3d#3",
                         "ensemble-average", "ensemble-vote"]
        assert all(r.split(",")[1] == "12" for r in rows)
        for fname in ("report.txt", "summary.csv", "predictions.csv",
                      "classwise_ensemble-average.csv",
                      "classwise_ensemble-vote.csv"):
            assert (out / fname).exists()

    def test_summary_matches_metrics_module(self, manifest_path, model_trio,
                                            tmp_path, capsys):
        """Accuracies in summary.csv equal metrics recomputed from the
        exported per-sample probabilities."""
        out = tmp_path / "report"
        argv = ["eval", "--manifest", manifest_path, "--split", "all",
                "--out", str(out)]
        for path in model_trio:
            argv += ["--model", path]
        assert main(argv) == 0
        capsys.readouterr()
        rows = (out / "predictions.csv").read_text().strip().splitlines()
        labels = []
        probs = {0: [], 1: [], 2: []}
        for row in rows[1:]:
            cells = row.split(",")
            labels.append(CLASSES.index(cells[1]))
            for m in range(3):
                start = 2 + 3 * m
                probs[m].append([float(x) for x in cells[start:start + 3]])
        summary = {}
        for line in (out / "summary.csv").read_text().strip().splitlines()[1:]:
            name, _, acc = line.split(",")
            summary[name] = float(acc)
        for m, name in enumerate(("alexnet3d", "alexnet3d#2", "alexnet3d#3")):
            preds = [int(np.argmax(p)) for p in probs[m]]
            acc = overall_accuracy(confusion_matrix(preds, labels))
            assert acc == summary[name]

    def test_two_models_numbered_sections(self, manifest_path, model_trio,
                                          capsys):
        """Same-architecture members get numbered section headings and no
        ensemble rows are emitted for fewer than three models."""
        assert main(["eval", "--manifest", manifest_path, "--split", "all",
                     "--model", model_trio[0], "--model", model_trio[1]]) == 0
        text = capsys.readouterr().out
        assert "== alexnet3d ==" in text
        assert "== alexnet3d#2 ==" in text
        assert "ensemble" not in text

    def test_missing_model_file(self, manifest_path, capsys):
        """A nonexistent model path is reported as a data error."""
        assert main(["eval", "--manifest", manifest_path, "--model",
                     "/no/such/model.v0xn"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_model_config(self, manifest_path, model_trio, tmp_path,
                                   capsys):
        """A model file whose config bytes are not UTF-8 is a data error."""
        blob = bytearray(file_bytes(model_trio[0]))
        blob[12] = 0xFF
        bad = tmp_path / "bad.v0xn"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--manifest", manifest_path, "--model",
                     str(bad)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_non_utf8_volume_id(self, dataset_dir, model_trio, tmp_path,
                                capsys):
        """A volume whose id is not UTF-8 is a data error even when its
        checksum matches."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        victim = sorted((data / "volumes").iterdir())[0]
        blob = bytearray(victim.read_bytes())
        blob[26] = 0xFF
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        victim.write_bytes(bytes(blob))
        assert main(["eval", "--manifest", str(data / "manifest.vman"),
                     "--model", model_trio[0], "--split", "all"]) == 3
        assert "malformed" in capsys.readouterr().err

    def test_empty_split_without_seed(self, tmp_path, model_trio, capsys):
        """Asking for an untagged split with no --seed fails cleanly."""
        params = tmp_path / "p.txt"
        params.write_text(tiny_params(samples_per_class=1, seed=3).to_text())
        data = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(data / "manifest.vman"),
                   "--model", model_trio[0], "--split", "test"])
        assert rc == 3
        assert "no 'test' split tags" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cv_case(work, arch_path, train_cfg_path):
    """A 15-sample dataset plus one captured k=5 cross-validation report."""
    params = work / "cv_params.txt"
    params.write_text(tiny_params(samples_per_class=5, seed=7).to_text())
    data = work / "cv_data"
    assert main(["generate", "--params", str(params), "--out", str(data)]) == 0
    manifest = str(data / "manifest.vman")
    out = work / "cv"
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["crossval", "--manifest", manifest, "--arch-config",
                   arch_path, "--train-config", train_cfg_path, "--k", "5",
                   "--out", str(out)])
    assert rc == 0
    # drop the trailing "wrote ... to ..." status line; keep the report
    report = buf.getvalue().split("wrote crossval")[0]
    return report, out, manifest


class TestCrossval:
    def test_five_fold_rows_and_aggregate(self, cv_case):
        """k=5 yields five fold rows followed by an aggregate row."""
        text, _, _ = cv_case
        lines = text.strip().splitlines()
        assert lines[0] == "fold,n,accuracy"
        folds = [l for l in lines if l[:1].isdigit()]
        assert len(folds) == 5
        assert sum(int(f.split(",")[1]) for f in folds) == 15
        assert lines[6].startswith("aggregate,min=")

    def test_aggregate_median_is_fold_median(self, cv_case):
        """The aggregate row's median equals the median of fold values."""
        text, _, _ = cv_case
        lines = text.strip().splitlines()
        accs = [float(l.split(",")[2]) for l in lines[1:6]]
        med = float(lines[6].split("median=")[1].split(",")[0])
        assert med == pytest.approx(float(np.median(accs)), abs=5e-5)

    def test_classwise_aggregate_rows(self, cv_case):
        """One min/median/max row appears for every class/metric pair."""
        text, _, _ = cv_case
        lines = text.strip().splitlines()
        start = lines.index("class,metric,min,median,max")
        assert len(lines[start + 1:]) == 15
        assert all(l.split(",")[0] in CLASSES for l in lines[start + 1:])

    def test_deterministic_rerun(self, cv_case, arch_path, train_cfg_path,
                                 capsys):
        """A second run with the same seed reproduces the report exactly."""
        text, _, manifest = cv_case
        assert main(["crossval", "--manifest", manifest, "--arch-config",
                     arch_path, "--train-config", train_cfg_path,
                     "--k", "5"]) == 0
        assert capsys.readouterr().out == text

    def test_parallel_workers_match(self, cv_case, arch_path, train_cfg_path,
                                    capsys):
        """workers=2 produces the same report as serial execution."""
        text, _, manifest = cv_case
        assert main(["crossval", "--manifest", manifest, "--arch-config",
                     arch_path, "--train-config", train_cfg_path, "--k", "5",
                     "--workers", "2"]) == 0
        assert capsys.readouterr().out == text

    def test_too_few_class_members(self, manifest_path, arch_path,
                                   train_cfg_path, capsys):
        """k larger than the smallest class is rejected up front."""
        rc = main(["crossval", "--manifest", manifest_path, "--arch-config",
                   arch_path, "--train-config", train_cfg_path, "--k", "5"])
        assert rc == 3
        assert "fewer than k" in capsys.readouterr().err

    def test_output_files(self, cv_case):
        """crossval.csv carries the report and folds.csv partitions the ids."""
        text, out, manifest = cv_case
        assert (out / "crossval.csv").read_text() == text
        rows = (out / "folds.csv").read_text().strip().splitlines()[1:]
        ids = sorted(r.split(",")[0] for r in rows)
        records = load_manifest(manifest).records
        assert ids == sorted(r.subject for r in records)


class TestSaliency:
    def test_writes_volume_per_class(self, manifest_path, model_dir,
                                     tmp_path, capsys):
        """Each requested class yields a saliency volume with the dataset's
        extents, three identical channels, and the class name as label."""
        out = tmp_path / "sal"
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     str(model_dir / "model.v0xn"), "--classes", "AD,CN",
                     "--split", "train", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "saliency AD:" in text and "saliency CN:" in text
        rec = load_volume(str(out / "saliency_AD.vvol"))
        assert rec.data.shape == (3,) + EXTENTS
        assert rec.label == "AD"
        assert np.array_equal(rec.data[0], rec.data[1])
        assert np.array_equal(rec.data[0], rec.data[2])
        assert not (out / "saliency_MCI.vvol").exists()

    def test_full_mask_enrichment_is_one(self, manifest_path, model_dir,
                                         tmp_path, capsys):
        """Against a mask covering the whole volume, enrichment is exactly
        1 regardless of the saliency distribution."""
        mask_path = tmp_path / "full.vvol"
        ones = np.ones((3,) + EXTENTS, dtype=np.float32)
        save_volume(VolumeRecord(id="full", data=ones), str(mask_path))
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     str(model_dir / "model.v0xn"), "--classes", "AD",
                     "--split", "train", "--mask", str(mask_path),
                     "--out", str(tmp_path / "sal")]) == 0
        assert "enrichment AD: 1.0000" in capsys.readouterr().out

    def test_generator_mask_enrichment_printed(self, manifest_path,
                                               dataset_dir, model_dir,
                                               tmp_path, capsys):
        """With the generator's region mask a finite enrichment score is
        reported."""
        mask = str(dataset_dir / "masks" / "mask_AD.vvol")
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     str(model_dir / "model.v0xn"), "--classes", "AD",
                     "--split", "train", "--mask", mask,
                     "--out", str(tmp_path / "sal")]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("enrichment AD:")]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) > 0

    def test_unknown_class_rejected(self, manifest_path, model_dir, tmp_path,
                                    capsys):
        """A class name outside AD/MCI/CN is a validation error."""
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     str(model_dir / "model.v0xn"), "--classes", "XX",
                     "--out", str(tmp_path / "sal")]) == 3
        assert "unknown class" in capsys.readouterr().err


class TestInfo:
    def test_probe_conv_counts(self, capsys):
        """The probe prints both counting modes for a 3x3x3 kernel on a
        64-voxel cube."""
        assert main(["info", "--probe-conv", "3,3,3", "--probe-input",
                     "64,64,64"]) == 0
        text = capsys.readouterr().out
        assert ("probe conv 3x3x3 on 64x64x64 [paper-convention]: "
                "6434856 multiplications, 238328 additions") in text
        assert "[standard]:" in text

    def test_alexnet_parameters_and_census(self, capsys):
        """The default alexnet3d reports its parameter count (within 10% of
        16.8M) and a 5 conv / 3 dense census."""
        assert main(["info", "--arch-config", "alexnet3d"]) == 0
        text = capsys.readouterr().out
        count = int([l for l in text.splitlines()
                     if l.startswith("parameters:")][0].split()[1])
        assert abs(count - 16_800_000) <= 1_680_000
        assert "census: 5 conv, 3 dense, 0 inception modules" in text

    def test_googlenet_single_head(self, capsys):
        """googlenet3d reports exactly one classification head."""
        assert main(["info", "--arch-config", "googlenet3d"]) == 0
        text = capsys.readouterr().out
        assert "classification heads: 1 (no auxiliary heads)" in text
        assert "census: 3 conv, 1 dense, 9 inception modules" in text

    def test_shape_collapse_names_layer(self, capsys):
        """Extents too small for the full network fail naming the layer."""
        assert main(["info", "--arch-config", "alexnet3d",
                     "--input-shape", "9,9,9"]) == 3
        assert "pool" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["alexnet3d-toy", "vgg16-3d-toy",
                                        "googlenet3d-toy"])
    def test_op_count_rows_match_conv_weights(self, preset, capsys):
        """One row per counting mode for each 5-d weight tensor, named as
        that tensor without ".w"."""
        assert main(["info", "--arch-config", preset]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("conv layer,mode,multiplications,additions")
        rows = sorted(tuple(l.split(",")[:2]) for l in lines[header + 1:])
        shapes = parameter_shapes(build_layers(arch_preset(preset)))
        convs = [n[:-2] for n, s in shapes.items()
                 if n.endswith(".w") and len(s) == 5]
        assert rows == sorted((c, m) for c in convs
                              for m in ("paper-convention", "standard"))

    def test_more_than_ten_inception_modules(self, tmp_path, capsys):
        """A stage of eleven modules is a validation error, not a crash."""
        cfg = config_to_dict(GoogleNetConfig())
        cfg["inception"][0] = cfg["inception"][0][:1] * 11
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(cfg))
        assert main(["info", "--arch-config", str(path)]) == 3
        assert "10 modules" in capsys.readouterr().err

    def test_info_without_flags(self, capsys):
        """info needs either an architecture or probe flags."""
        assert main(["info"]) == 3
        assert "arch-config" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        """Calling the tool without a subcommand exits with code 2."""
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
