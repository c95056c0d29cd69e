"""End-to-end checks of the command-line interface.

Every test drives main() in-process and inspects stdout, exit codes, and
the files each command leaves behind.  Datasets and models are kept tiny
(20x22x20 extents, a few samples per class) so the whole module runs in
well under a minute.
"""

import ast
import hashlib
import io
import json
import math
import os
import shutil
import struct
import types
import zlib
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import voxcnn.cli
import voxcnn.saliency
import voxcnn.training
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
from voxcnn.training import TrainConfig, TrainHistory
from voxcnn.volumes import (
    PhantomParams,
    VolumeRecord,
    config_fields,
    generate_phantoms,
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
    )


def quick_train_config(**overrides):
    base = dict(epochs=2, lr0=1e-3, batch_size=5, l2_lambda=0.0,
                dropout_rate=0.0, validation_freq_iters=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def config_json(config, **overrides):
    """The config file of `config`: the JSON object of its fields, with
    `overrides` set."""
    return json.dumps(dict(config_fields(config), **overrides))


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


def edited_manifest(dataset_dir, tmp_path, edit):
    """Copy the dataset and pass its manifest rows through edit(rows)."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    path = data / "manifest.vman"
    head, *rows = path.read_text().splitlines()
    path.write_text("\n".join([head] + edit(rows)) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def params_path(work):
    path = work / "params.json"
    path.write_text(config_json(tiny_params()))
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
    path = work / "train.json"
    path.write_text(config_json(quick_train_config()))
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


@pytest.fixture(scope="module")
def class_mismatch(work):
    """Arch config files and untrained model files for 2 and 4 classes,
    against the dataset's 3: {class_count: (arch path, model path)}."""
    out = {}
    for count in (2, 4):
        arch = replace(tiny_arch(), class_count=count)
        arch_file = work / f"arch{count}.json"
        arch_file.write_text(config_to_json(arch))
        model_file = work / f"model{count}.v0xn"
        save_model_file(build_model(arch), str(model_file))
        out[count] = (str(arch_file), str(model_file))
    return out


@pytest.fixture
def no_forward(monkeypatch):
    """Fail the test if a command runs any model forward."""
    def refuse(*args, **kwargs):
        raise AssertionError("a forward ran before the config was checked")

    monkeypatch.setattr(voxcnn.training, "forward", refuse)
    monkeypatch.setattr(voxcnn.saliency, "forward", refuse)


class TestGenerate:
    def test_counts_and_manifest(self, tmp_path, capsys):
        """Ten samples per class produce a manifest with thirty records."""
        params = tmp_path / "p.json"
        params.write_text(config_json(tiny_params(samples_per_class=10)))
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

    def test_manifest_params_regenerate_the_dataset(self, manifest_path,
                                                    dataset_dir, tmp_path):
        """A manifest's "params" object is a --params file: generating from
        it rewrites every file of the dataset byte for byte."""
        params = tmp_path / "p.json"
        params.write_text(json.dumps(load_manifest(manifest_path)
                                     .metadata["params"]))
        again = tmp_path / "again"
        assert main(["generate", "--params", str(params),
                     "--out", str(again)]) == 0
        assert tree_bytes(str(again)) == tree_bytes(str(dataset_dir))

    def test_missing_params_flag_is_usage_error(self):
        """Omitting the required --params flag exits with code 2."""
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", "/tmp/nowhere"])
        assert exc.value.code == 2

    def test_bad_params_file(self, tmp_path, capsys):
        """An unknown key in the parameter file is a validation failure."""
        params = tmp_path / "p.json"
        params.write_text('{"contrast": 2.0}')
        assert main(["generate", "--params", str(params),
                     "--out", str(tmp_path / "d")]) == 3
        assert "contrast" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ('{"extents": [20.5, 22, 20]}', "extents"),
        ('{"seed": 1.9}', "seed"),
        ('{"extents": [20, 22]}', "extents"),
    ], ids=["non-integral-extent", "non-integral-seed", "two-extents"])
    def test_malformed_params_value(self, tmp_path, capsys, text, key):
        """A non-integral integer or extents of the wrong length is a
        validation failure that writes nothing."""
        params = tmp_path / "p.json"
        params.write_text(text)
        out = tmp_path / "d"
        assert main(["generate", "--params", str(params),
                     "--out", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["noise_amplitude", "jitter"])
    def test_nonfinite_params_value(self, tmp_path, capsys, key):
        """A NaN phantom parameter is a validation failure naming its key,
        and writes nothing."""
        params = tmp_path / "p.json"
        params.write_text(config_json(tiny_params(), **{key: math.nan}))
        out = tmp_path / "d"
        assert main(["generate", "--params", str(params),
                     "--out", str(out)]) == 3
        assert f"{key}' must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, params_path, tmp_path):
        """--seed replaces the seed stored in the parameter file."""
        out = tmp_path / "seeded"
        assert main(["generate", "--params", params_path, "--out", str(out),
                     "--seed", "99"]) == 0
        manifest = load_manifest(str(out / "manifest.vman"))
        assert manifest.metadata["params"]["seed"] == 99


class TestTrain:
    def test_epochs_zero_writes_initialization(self, manifest_path, arch_path,
                                               tmp_path, capsys):
        """Training for zero epochs saves the freshly initialized weights
        and an empty history."""
        cfg = tmp_path / "t.json"
        cfg.write_text(config_json(quick_train_config(epochs=0)))
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

    def test_config_default_and_seed_override(self, manifest_path, arch_path,
                                              train_cfg_path, tmp_path,
                                              monkeypatch):
        """Without --train-config, train runs the default recipe; --seed
        replaces the seed of the default and of a config file alike."""
        seen = []

        def spy(model, dataset, plan, config):
            seen.append(config)
            return model, TrainHistory(records=[])

        monkeypatch.setattr(voxcnn.cli, "train", spy)
        for i, extra in enumerate(([], ["--seed", "9"],
                                   ["--train-config", train_cfg_path,
                                    "--seed", "9"])):
            assert main(["train", "--manifest", manifest_path, "--arch-config",
                         arch_path, "--out", str(tmp_path / f"run{i}")]
                        + extra) == 0
        assert seen == [TrainConfig(), TrainConfig(seed=9),
                        quick_train_config(seed=9)]

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

    @pytest.mark.parametrize("key,value", [
        ("lr0", "nan"), ("dropout_rate", "nan"), ("l2_lambda", "inf"),
    ])
    def test_nonfinite_config_value(self, manifest_path, arch_path, tmp_path,
                                    capsys, key, value):
        """A NaN or infinite float in the training config is a validation
        failure naming its key, before anything is written."""
        cfg = tmp_path / "t.json"
        cfg.write_text(config_json(quick_train_config(),
                                   **{key: float(value)}))
        out = tmp_path / "run"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch_path, "--train-config", str(cfg),
                     "--out", str(out)]) == 3
        assert f"{key}' must be finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_class_count_mismatch_leaves_no_output(
            self, manifest_path, train_cfg_path, class_mismatch, no_forward,
            tmp_path, capsys):
        """An arch config with 4 classes against the dataset's 3 is refused
        before any forward, naming the config."""
        arch4 = class_mismatch[4][0]
        out = tmp_path / "never"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch4, "--train-config", train_cfg_path,
                     "--out", str(out)]) == 3
        assert (f"{arch4}: model has 4 classes, the dataset has 3"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_train_preset(self, manifest_path, arch_path, tmp_path,
                                  capsys):
        """A training config that is neither a file nor a preset name is a
        validation error listing the known presets."""
        out = tmp_path / "never"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch_path, "--train-config", "no-such-preset",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "unknown training preset 'no-such-preset'" in err
        assert "known: default, memorize-micro, phantom-toy" in err
        assert not out.exists()


class TestEval:
    def test_memorized_model_diagonal_confusion(self, tmp_path, capsys):
        """A model that memorized its three training samples evaluates to a
        diagonal confusion matrix (accuracy 1) on that split."""
        params = tmp_path / "p.json"
        params.write_text(config_json(tiny_params(samples_per_class=1, seed=5)))
        data = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
        arch = tmp_path / "arch.json"
        arch.write_text(config_to_json(tiny_arch()))
        cfg = tmp_path / "t.json"
        cfg.write_text(config_json(quick_train_config(
            epochs=150, lr0=1e-2, batch_size=3, validation_freq_iters=1000)))
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

    @pytest.mark.parametrize("count", [2, 4])
    def test_class_count_mismatch(self, manifest_path, model_trio,
                                  class_mismatch, no_forward, count, tmp_path,
                                  capsys):
        """A model whose class count is not the dataset's 3 is refused
        before any model is evaluated, naming its file, even after a good
        one."""
        bad = class_mismatch[count][1]
        out = tmp_path / "never"
        assert main(["eval", "--manifest", manifest_path, "--model",
                     model_trio[0], "--model", bad, "--out", str(out)]) == 3
        assert (f"{bad}: model has {count} classes, the dataset has 3"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_model_count_checked_before_loading(self, manifest_path,
                                                model_trio, tmp_path, capsys):
        """Four --model paths are refused for their count before any is
        read, so a missing fourth file is not what is reported."""
        out = tmp_path / "never"
        argv = ["eval", "--manifest", manifest_path, "--out", str(out)]
        for path in model_trio + [str(tmp_path / "missing.v0xn")]:
            argv += ["--model", path]
        assert main(argv) == 3
        assert ("eval accepts between 1 and 3 --model files"
                in capsys.readouterr().err)
        assert not out.exists()

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
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        bad = tmp_path / "bad.v0xn"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--manifest", manifest_path, "--model",
                     str(bad)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_wrongly_typed_model_config(self, manifest_path, model_trio,
                                        tmp_path, capsys):
        """A model file whose config JSON has a wrongly typed field is a data
        error, like the same JSON given to --arch-config."""
        blob = file_bytes(model_trio[0])
        (cfg_len,) = struct.unpack("<I", blob[8:12])
        cfg = json.loads(blob[12:12 + cfg_len])
        cfg["conv_widths"] = "abc"
        text = json.dumps(cfg).encode()
        bad = tmp_path / "typed.v0xn"
        body = (blob[:8] + struct.pack("<I", len(text)) + text
                + blob[12 + cfg_len:-4])
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--manifest", manifest_path, "--model",
                     str(bad)]) == 3
        assert "conv_widths" in capsys.readouterr().err

    def test_flipped_model_payload_byte(self, manifest_path, model_trio,
                                        tmp_path, capsys):
        """A model file with one flipped payload byte is a data error."""
        blob = bytearray(file_bytes(model_trio[0]))
        blob[-6] ^= 0x01
        bad = tmp_path / "flipped.v0xn"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--manifest", manifest_path, "--model",
                     str(bad)]) == 3
        assert "checksum" in capsys.readouterr().err

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

    def test_missing_volume_leaves_no_output(self, dataset_dir, model_trio,
                                             tmp_path, capsys):
        """A volume that the manifest lists but the disk lacks is an exit 3
        naming the file, and --out is not created."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        victim = sorted((data / "volumes").iterdir())[0]
        victim.unlink()
        out = tmp_path / "out"
        assert main(["eval", "--manifest", str(data / "manifest.vman"),
                     "--model", model_trio[0], "--split", "all",
                     "--out", str(out)]) == 3
        assert victim.name in capsys.readouterr().err
        assert not out.exists()

    def test_empty_split_without_seed(self, tmp_path, model_trio, capsys):
        """Asking for an untagged split with no --seed fails cleanly."""
        params = tmp_path / "p.json"
        params.write_text(config_json(tiny_params(samples_per_class=1, seed=3)))
        data = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--manifest", str(data / "manifest.vman"),
                   "--model", model_trio[0], "--split", "test"])
        assert rc == 3
        assert "no 'test' split tags" in capsys.readouterr().err

    def test_empty_derived_split_names_the_seed(self, tmp_path, model_trio,
                                                capsys):
        """An untagged 6-volume manifest derives its split from --seed, and
        that split has no val samples (floor(0.15 * 6) = 0): the error says
        so instead of blaming missing val tags."""
        params = tmp_path / "p.json"
        params.write_text(config_json(tiny_params(samples_per_class=2, seed=3)))
        data = tmp_path / "data"
        assert main(["generate", "--params", str(params),
                     "--out", str(data)]) == 0
        manifest = edited_manifest(data, tmp_path / "untagged", lambda rows: [
            r.rsplit(",", 1)[0] + "," for r in rows])
        capsys.readouterr()
        assert main(["eval", "--manifest", manifest, "--model",
                     model_trio[0], "--split", "val", "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert "selects no samples" in err
        assert "derived from --seed 1" in err
        assert "no 'val' split tags" not in err

    def test_partially_tagged_manifest_uses_tags(self, dataset_dir,
                                                 model_trio, tmp_path, capsys):
        """With train/test tags but no val tags, --seed does not derive a
        val split from tagged volumes: the tagged val split is empty."""
        manifest = edited_manifest(dataset_dir, tmp_path, lambda rows: [
            r[:-len(",val")] + ",train" if r.endswith(",val") else r
            for r in rows])
        assert main(["eval", "--manifest", manifest, "--model",
                     model_trio[0], "--split", "val", "--seed", "1"]) == 3
        assert "selects no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, message", [
        (3, "unknown split tag 'holdout'")])
    def test_bad_manifest_cell(self, dataset_dir, model_trio, tmp_path,
                               capsys, cell, message):
        """A split tag other than train/val/test is a data error."""
        def edit(rows):
            fields = rows[0].split(",")
            fields[cell] = "holdout"
            return [",".join(fields)] + rows[1:]
        manifest = edited_manifest(dataset_dir, tmp_path, edit)
        assert main(["eval", "--manifest", manifest, "--model",
                     model_trio[0], "--split", "all"]) == 3
        assert message in capsys.readouterr().err

    def test_manifest_header_with_huge_integer(self, dataset_dir, model_trio,
                                               tmp_path, capsys):
        """Header metadata holding an integer too long to read (5000 digits)
        is a data error, not a traceback."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        path = data / "manifest.vman"
        _, rows = path.read_text().split("\n", 1)
        path.write_text('#VMAN2 {"seed": ' + "1" * 5000 + "}\n" + rows)
        assert main(["eval", "--manifest", str(path), "--model",
                     model_trio[0], "--split", "all"]) == 3
        assert "malformed metadata JSON" in capsys.readouterr().err

    def test_single_class_split_has_no_roc(self, dataset_dir, model_trio,
                                           tmp_path, capsys):
        """A split holding one class has no ROC curve for any class: each
        reads NA in the report, and no roc file is written."""
        manifest = edited_manifest(dataset_dir, tmp_path, lambda rows: [
            r for r in rows if ",AD," in r])
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest, "--model", model_trio[0],
                     "--split", "all", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for cname in CLASSES:
            assert f"roc {cname}: NA (single-class split)" in text
        assert not list(out.glob("roc_*"))

    def test_nonfinite_model_tensor(self, manifest_path, tmp_path, capsys):
        """A model file with a NaN weight is refused at load time, naming the
        tensor, before any forward pass."""
        model = build_model(tiny_arch(), seed=1)
        weight = struct.pack("<d", model.params["conv3.w"][0, 0, 1, 1, 1])
        bad = tmp_path / "nan.v0xn"
        save_model_file(model, str(bad))
        body = bad.read_bytes()[:-4]
        assert body.count(weight) == 1
        body = body.replace(weight, struct.pack("<d", np.nan))
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["eval", "--manifest", manifest_path, "--model",
                     str(bad)]) == 3
        assert "'conv3.w' holds non-finite values" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cv_case(work, arch_path, train_cfg_path):
    """A 15-sample dataset plus one captured k=5 cross-validation report."""
    params = work / "cv_params.json"
    params.write_text(config_json(tiny_params(samples_per_class=5, seed=7)))
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

    def test_class_count_mismatch(self, manifest_path, train_cfg_path,
                                  class_mismatch, no_forward, tmp_path,
                                  capsys):
        """An arch config with 2 classes is refused before any fold trains."""
        arch2 = class_mismatch[2][0]
        out = tmp_path / "never"
        assert main(["crossval", "--manifest", manifest_path, "--arch-config",
                     arch2, "--train-config", train_cfg_path, "--k", "3",
                     "--out", str(out)]) == 3
        assert (f"{arch2}: model has 2 classes, the dataset has 3"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_empty_class_list_rejected(self, manifest_path, model_trio,
                                       tmp_path, capsys):
        """A --classes list that names no class is a validation error, and
        no output directory is created."""
        out = tmp_path / "sal"
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     model_trio[0], "--classes", ",", "--out", str(out)]) == 3
        assert "names no class" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_class_rejected(self, manifest_path, model_trio,
                                     no_forward, tmp_path, capsys):
        """A --classes list naming a class twice is a validation error
        before any map is computed or written."""
        out = tmp_path / "sal"
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     model_trio[0], "--classes", "AD,AD",
                     "--out", str(out)]) == 3
        assert "repeats a class" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["AD,MCI", "MCI,AD"])
    def test_class_without_samples_leaves_no_output(
            self, classes, dataset_dir, model_trio, tmp_path, capsys):
        """A requested class with no sample in the split fails the command
        naming the class, before --out is created or any map written,
        whether it comes first or after a class that has samples."""
        def ad_only_heldout(rows):
            tagged = []
            for row in rows:
                path, label, subject, split = row.split(",")
                split = "val" if subject == "AD0000" else (
                    "train" if split in ("val", "test") else split)
                tagged.append(",".join((path, label, subject, split)))
            return tagged

        manifest = edited_manifest(dataset_dir, tmp_path, ad_only_heldout)
        out = tmp_path / "sal"
        assert main(["saliency", "--manifest", manifest, "--model",
                     model_trio[0], "--classes", classes, "--split",
                     "heldout", "--out", str(out)]) == 3
        assert "no samples labeled MCI" in capsys.readouterr().err
        assert not out.exists()

    def test_class_count_mismatch(self, manifest_path, class_mismatch,
                                  no_forward, tmp_path, capsys):
        """A 4-class model is refused before any saliency map is made."""
        bad = class_mismatch[4][1]
        out = tmp_path / "sal"
        assert main(["saliency", "--manifest", manifest_path, "--model", bad,
                     "--out", str(out)]) == 3
        assert (f"{bad}: model has 4 classes, the dataset has 3"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_extent_mask(self, manifest_path, model_trio, tmp_path,
                              capsys):
        """A mask volume with a valid checksum and depth 0 is a data error."""
        blob = (b"VVOL" + struct.pack("<IIIII", 1, 0, 22, 20, 3)
                + struct.pack("<H", 4) + b"mask" + struct.pack("<H", 0))
        mask = tmp_path / "empty.vvol"
        mask.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        assert main(["saliency", "--manifest", manifest_path, "--model",
                     model_trio[0], "--mask", str(mask),
                     "--out", str(tmp_path / "sal")]) == 3
        assert "positive extents" in capsys.readouterr().err


class TestTextFiles:
    @pytest.mark.parametrize("site", ["generate --params",
                                      "train --train-config",
                                      "info --arch-config", "eval --manifest"])
    def test_non_utf8_text_file(self, site, params_path, manifest_path,
                                arch_path, train_cfg_path, model_trio,
                                tmp_path, capsys):
        """A text input holding a byte that is not UTF-8 is a data error
        naming the file."""
        good = {"generate --params": params_path,
                "train --train-config": train_cfg_path,
                "info --arch-config": arch_path,
                "eval --manifest": manifest_path}[site]
        bad = str(tmp_path / "bad.txt")
        with open(bad, "wb") as f:
            f.write(file_bytes(good) + b"\xff\n")
        out = str(tmp_path / "out")
        argv = {
            "generate --params": ["generate", "--params", bad, "--out", out],
            "train --train-config": ["train", "--manifest", manifest_path,
                                     "--arch-config", arch_path,
                                     "--train-config", bad, "--out", out],
            "info --arch-config": ["info", "--arch-config", bad],
            "eval --manifest": ["eval", "--manifest", bad,
                                "--model", model_trio[0]],
        }[site]
        assert main(argv) == 3
        assert f"{bad}: not UTF-8" in capsys.readouterr().err
        assert not os.path.exists(out)


    @pytest.mark.parametrize("site", ["info --arch-config", "eval --model",
                                      "train --manifest"])
    def test_deeply_nested_json(self, site, dataset_dir, manifest_path,
                                arch_path, train_cfg_path, model_trio,
                                tmp_path, capsys):
        """JSON nested too deep for the parser to read (200,000 levels in an
        arch config or a manifest header, 100,000 in a sealed model file's
        config) is a data error, not a RecursionError traceback."""
        out = tmp_path / "out"
        if site == "info --arch-config":
            bad = tmp_path / "nested.json"
            bad.write_text("[" * 200_000 + "]" * 200_000)
            argv = ["info", "--arch-config", str(bad)]
        elif site == "eval --model":
            blob = file_bytes(model_trio[0])
            (cfg_len,) = struct.unpack("<I", blob[8:12])
            text = b"[" * 100_000 + b"]" * 100_000
            body = (blob[:8] + struct.pack("<I", len(text)) + text
                    + blob[12 + cfg_len:-4])
            bad = tmp_path / "nested.v0xn"
            bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
            argv = ["eval", "--manifest", manifest_path, "--model", str(bad)]
        else:
            data = tmp_path / "data"
            shutil.copytree(dataset_dir, data)
            bad = data / "manifest.vman"
            _, rows = bad.read_text().split("\n", 1)
            bad.write_text("#VMAN2 " + "[" * 200_000 + "]" * 200_000 + "\n"
                           + rows)
            argv = ["train", "--manifest", str(bad), "--arch-config",
                    arch_path, "--train-config", train_cfg_path,
                    "--out", str(out)]
        assert main(argv) == 3
        assert "malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_cell_over_csv_field_limit(self, dataset_dir, arch_path,
                                                train_cfg_path, tmp_path,
                                                capsys):
        """A manifest cell longer than csv's default field limit (131,072
        characters) is a data error naming the manifest."""
        def edit(rows):
            cells = rows[0].split(",")
            cells[2] = "s" * 200_000
            return [",".join(cells)] + rows[1:]
        manifest = edited_manifest(dataset_dir, tmp_path, edit)
        out = tmp_path / "out"
        assert main(["train", "--manifest", manifest, "--arch-config",
                     arch_path, "--train-config", train_cfg_path,
                     "--out", str(out)]) == 3
        assert f"{manifest}: unreadable manifest row" in capsys.readouterr().err
        assert not out.exists()


class TestOldFormats:
    """Each reader accepts only the version the library writes: an older
    file is a data error, and the command writes nothing."""

    @pytest.mark.parametrize("site", ["model v1", "arch config v1",
                                      "manifest v1", "train config adam_eps",
                                      "train config key = value",
                                      "phantom params extent_depth"])
    def test_refused(self, site, dataset_dir, manifest_path, arch_path,
                     train_cfg_path, model_trio, tmp_path, capsys):
        out = tmp_path / "out"
        command = "train"
        inputs = {"--manifest": manifest_path, "--arch-config": arch_path,
                  "--train-config": train_cfg_path}
        if site == "model v1":
            blob = file_bytes(model_trio[0])
            bad = tmp_path / "v1.v0xn"
            bad.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:-4])
            command = "eval"
            inputs = {"--manifest": manifest_path, "--model": str(bad)}
            message = "unsupported model format version 1"
        elif site == "arch config v1":
            bad = tmp_path / "arch.json"
            bad.write_text(json.dumps(dict(config_to_dict(tiny_arch()),
                                           format_version=1)))
            inputs["--arch-config"] = str(bad)
            message = "unsupported config format version 1"
        elif site == "manifest v1":
            data = tmp_path / "data"
            shutil.copytree(dataset_dir, data)
            bad = data / "manifest.vman"
            head, *rows = bad.read_text().splitlines()
            bad.write_text("\n".join(["#VMAN1" + head[len("#VMAN2"):]]
                                     + [f"{r},0" for r in rows]) + "\n")
            inputs["--manifest"] = str(bad)
            message = "missing #VMAN2 header line"
        elif site == "train config adam_eps":
            bad = tmp_path / "t.json"
            bad.write_text(config_json(quick_train_config(), adam_eps=1e-8))
            inputs["--train-config"] = str(bad)
            message = "unknown training config field 'adam_eps'"
        elif site == "train config key = value":
            bad = tmp_path / "t.cfg"
            bad.write_text("".join(
                f"{k} = {v!r}\n"
                for k, v in config_fields(quick_train_config()).items()))
            inputs["--train-config"] = str(bad)
            message = f"{bad}: malformed training config JSON"
        else:
            bad = tmp_path / "p.json"
            bad.write_text('{"extent_depth": 20, "extent_height": 22, '
                           '"extent_width": 20}')
            command = "generate"
            inputs = {"--params": str(bad)}
            message = "unknown phantom params field 'extent_depth'"
        argv = [command] + [a for pair in inputs.items() for a in pair]
        assert main(argv + ["--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedKey:
    """Every JSON reader refuses an object that repeats a key, naming it,
    rather than keeping the last value; the command writes nothing."""

    @pytest.mark.parametrize("site", ["arch config", "manifest header",
                                      "train config", "phantom params"])
    def test_refused(self, site, dataset_dir, manifest_path, arch_path,
                     train_cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        command = "train"
        inputs = {"--manifest": manifest_path, "--arch-config": arch_path,
                  "--train-config": train_cfg_path}
        if site == "arch config":
            bad = tmp_path / "arch.json"
            bad.write_text(config_to_json(tiny_arch())[:-1]
                           + ',"class_count":3}')
            inputs["--arch-config"] = str(bad)
            key = "class_count"
        elif site == "manifest header":
            data = tmp_path / "data"
            shutil.copytree(dataset_dir, data)
            bad = data / "manifest.vman"
            head, rest = bad.read_text().split("\n", 1)
            bad.write_text(head[:-1] + ', "kind": "phantom"}\n' + rest)
            inputs["--manifest"] = str(bad)
            key = "kind"
        elif site == "train config":
            bad = tmp_path / "t.json"
            bad.write_text(config_json(quick_train_config())[:-1]
                           + ', "seed": 2}')
            inputs["--train-config"] = str(bad)
            key = "seed"
        else:
            bad = tmp_path / "p.json"
            bad.write_text(config_json(tiny_params())[:-1] + ', "seed": 2}')
            command = "generate"
            inputs = {"--params": str(bad)}
            key = "seed"
        argv = [command] + [a for pair in inputs.items() for a in pair]
        assert main(argv + ["--out", str(out)]) == 3
        assert f"repeated key {key!r}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_sizes_beyond_int64_are_exact(self, capsys):
        """A flatten width and a parameter total past 2**63 print exactly,
        not wrapped to 64 bits."""
        extent = 40_000_000
        assert main(["info", "--arch-config", "alexnet3d", "--input-shape",
                     f"{extent},{extent},{extent}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("flatten,"))
        width = math.prod(ast.literal_eval(lines[i - 1].split(",", 1)[1]))
        assert width > 2 ** 63
        assert lines[i] == f"flatten,({width},)"
        shapes = parameter_shapes(build_layers(replace(
            arch_preset("alexnet3d"), input_shape=(3, extent, extent, extent))))
        assert shapes["fc1.w"][1] == width
        total = sum(math.prod(s) for s in shapes.values())
        assert f"parameters: {total}" in lines

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
        cfg = json.loads(config_to_json(GoogleNetConfig()))
        cfg["inception"][0] = cfg["inception"][0][:1] * 11
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(cfg))
        assert main(["info", "--arch-config", str(path)]) == 3
        assert "10 modules" in capsys.readouterr().err

    @pytest.mark.parametrize("arch, field, value", [
        ("alexnet3d", "conv_widths", "abc"),
        ("alexnet3d", "input_shape", 5),
        ("alexnet3d", "dropout_rate", "x"),
        ("googlenet3d", "inception", [[1]]),
        ("alexnet3d", "stem_kernel", 2.5),
        ("alexnet3d", "class_count", None),
        ("googlenet3d", "inception", [[[1, 2]]]),
        ("alexnet3d", "dropout_rate", 0.2),
    ])
    def test_wrongly_typed_config_field(self, arch, field, value, tmp_path,
                                        capsys):
        """A config field of the wrong type is a validation error naming the
        field, not a traceback.  So is a dropout rate, which belongs to the
        training config and is refused here rather than ignored."""
        path = tmp_path / "arch.json"
        path.write_text(json.dumps({"architecture": arch, field: value}))
        assert main(["info", "--arch-config", str(path)]) == 3
        assert field in capsys.readouterr().err

    def test_unknown_arch_preset(self, capsys):
        """An architecture config that is neither a file nor a preset name
        is a validation error listing the known presets."""
        assert main(["info", "--arch-config", "no-such-preset"]) == 3
        err = capsys.readouterr().err
        assert "unknown architecture preset 'no-such-preset'" in err
        assert ("known: alexnet3d, alexnet3d-micro, alexnet3d-toy, "
                "googlenet3d, googlenet3d-micro, googlenet3d-toy, vgg16-3d, "
                "vgg16-3d-micro, vgg16-3d-toy") in err

    def test_info_without_flags(self, capsys):
        """info needs either an architecture or probe flags."""
        assert main(["info"]) == 3
        assert "arch-config" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        """Calling the tool without a subcommand exits with code 2."""
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.fixture
def guard_case(dataset_dir, manifest_path, model_trio, arch_path,
               train_cfg_path, tmp_path):
    """Paths the refusal table builds its commands from: the tiny dataset's
    manifest, one with no split tags and one with no training tags, a model,
    the config files and an --out directory."""
    return types.SimpleNamespace(
        manifest=manifest_path,
        untagged=edited_manifest(dataset_dir, tmp_path / "untagged",
                                 lambda rows: [r.rsplit(",", 1)[0] + ","
                                               for r in rows]),
        no_train=edited_manifest(dataset_dir, tmp_path / "no_train",
                                 lambda rows: [r.replace(",train", ",test")
                                               for r in rows]),
        model=model_trio[0], arch=arch_path, train_cfg=train_cfg_path,
        out=str(tmp_path / "out"))


PROBE_USAGE = ("probe flags need --probe-conv KD,KH,KW --probe-input D,H,W "
               "[--probe-channels CIN,COUT]")

# (id, argv from guard_case's paths, its error message): one row per refusal
# of the command line that no test above reaches; each exits 3, printing
# "error: <message>", and leaves no --out directory
GUARDS = [
    ("untagged-without-seed", lambda f: [
        "eval", "--manifest", f.untagged, "--model", f.model,
        "--split", "test", "--out", f.out],
     "manifest has no split tags; pass --seed to derive a split or use "
     "--split all"),
    ("no-training-tags", lambda f: [
        "train", "--manifest", f.no_train, "--arch-config", f.arch,
        "--train-config", f.train_cfg, "--out", f.out],
     "manifest tags contain no training samples"),
    ("no-workers", lambda f: [
        "crossval", "--manifest", f.manifest, "--arch-config", f.arch,
        "--train-config", f.train_cfg, "--k", "2", "--workers", "0",
        "--out", f.out],
     "workers must be at least 1"),
    ("probe-conv", lambda f: [
        "info", "--probe-conv", "3,3", "--probe-input", "8,8,8"], PROBE_USAGE),
    ("probe-input", lambda f: ["info", "--probe-conv", "3,3,3"], PROBE_USAGE),
    ("probe-channels", lambda f: [
        "info", "--probe-conv", "3,3,3", "--probe-input", "8,8,8",
        "--probe-channels", "1,x"], PROBE_USAGE),
    ("input-shape", lambda f: [
        "info", "--arch-config", "alexnet3d-toy", "--input-shape", "9,9"],
     "--input-shape must be D,H,W"),
]


@pytest.mark.parametrize("argv, message",
                         [pytest.param(a, m, id=i) for i, a, m in GUARDS])
def test_guard_refuses(argv, message, guard_case, capsys):
    assert main(argv(guard_case)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(guard_case.out)


class TestNumericFailure:
    """A computation that turns non-finite exits 4 with one "numeric
    failure" line and no --out directory.  pytest here turns warnings into
    errors, as `python -W error` does, so a numpy warning on the way would
    end the command in a traceback instead."""

    def test_eval_with_overflowing_weights(self, manifest_path, tmp_path,
                                           capsys):
        model = build_model(tiny_arch(), seed=1)
        for name, p in model.params.items():
            if name.endswith(".w"):
                p *= 1e100
        path = tmp_path / "huge.v0xn"
        save_model_file(model, str(path))
        out = tmp_path / "out"
        assert main(["eval", "--manifest", manifest_path, "--model", str(path),
                     "--split", "all", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: layer 'conv4': non-finite activations\n")
        assert not out.exists()

    def test_train_with_overflowing_learning_rate(self, manifest_path,
                                                  arch_path, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(config_json(quick_train_config(lr0=1e300)))
        out = tmp_path / "out"
        assert main(["train", "--manifest", manifest_path, "--arch-config",
                     arch_path, "--train-config", str(cfg),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: iteration 2: layer ")
        assert err.endswith(": non-finite activations\n")
        assert not out.exists()


def _flip(blob, pos, rng):
    return blob[:pos] + bytes([blob[pos] ^ 1 << int(rng.integers(8))]) + \
        blob[pos + 1:]


def _truncate(blob, pos, rng):
    return blob[:pos]


def _insert(blob, pos, rng):
    return blob[:pos] + bytes([int(rng.integers(256))]) + blob[pos:]


def _delete(blob, pos, rng):
    return blob[:pos] + blob[pos + 1:]


def _replace(blob, pos, rng):
    return blob[:pos] + bytes([(blob[pos] + int(rng.integers(1, 256))) % 256]) \
        + blob[pos + 1:]


EDITS = (_flip, _truncate, _insert, _delete, _replace)


class TestCorruptionSweep:
    """Seeded single-byte edits of every file kind the command line reads,
    each run through main() in-process: every edit ends in exit 0 or 3,
    with no traceback, no temporary file left behind and, on failure, no
    --out directory.  The tests above each assert the message of one
    hand-made corruption; this one holds the state for random ones."""

    EDITS_PER_TARGET = 40

    @pytest.fixture(scope="class")
    def sweep_root(self, tmp_path_factory):
        """Three 16-voxel phantoms, a model of 2-channel convs for them, and
        the architecture, training and phantom config files."""
        root = tmp_path_factory.mktemp("sweep")
        params = replace(tiny_params(samples_per_class=1, seed=5),
                         extents=(16, 16, 16))
        (root / "params.json").write_text(config_json(params))
        generate_phantoms(params, root / "data")
        arch = replace(tiny_arch(), input_shape=(3, 16, 16, 16),
                       conv_widths=(2, 2, 2, 2, 2), dense_widths=(4, 4))
        (root / "arch.json").write_text(config_to_json(arch))
        (root / "train.json").write_text(
            config_json(quick_train_config(epochs=0)))
        save_model_file(build_model(arch, seed=1), str(root / "model.v0xn"))
        return root

    def test_single_byte_edits(self, sweep_root, capsys):
        root = sweep_root
        out = root / "out"
        data = root / "data"
        manifest = str(data / "manifest.vman")
        evaluate = ["eval", "--manifest", manifest, "--model",
                    str(root / "model.v0xn"), "--split", "all",
                    "--out", str(out)]
        train = ["train", "--manifest", manifest, "--arch-config",
                 str(root / "arch.json"), "--train-config",
                 str(root / "train.json"), "--out", str(out)]
        # edited file -> the command that reads it
        targets = {
            data / "manifest.vman": evaluate,
            root / "model.v0xn": evaluate,
            data / "volumes" / "MCI0000.vvol": evaluate,
            data / "masks" / "mask_AD.vvol": [
                "saliency", "--manifest", manifest, "--model",
                str(root / "model.v0xn"), "--classes", "AD", "--mask",
                str(data / "masks" / "mask_AD.vvol"), "--out", str(out)],
            root / "arch.json": train,
            root / "train.json": train,
            root / "params.json": ["generate", "--params",
                                   str(root / "params.json"),
                                   "--out", str(out)],
        }
        rng = np.random.default_rng(26)
        faults, codes = [], []
        for path, argv in targets.items():
            original = path.read_bytes()
            for _ in range(self.EDITS_PER_TARGET):
                edit = EDITS[rng.integers(len(EDITS))]
                pos = int(rng.integers(len(original)))
                path.write_bytes(edit(original, pos, rng))
                case = f"{path.name} {edit.__name__[1:]} at {pos}"
                try:
                    rc = main(argv)
                except Exception as e:
                    faults.append(f"{case}: {type(e).__name__}: {e}")
                    rc = None
                codes.append(rc)
                capsys.readouterr()
                if rc not in (0, 3, None):
                    faults.append(f"{case}: exit {rc}")
                if list(root.rglob("*.tmp.*")):
                    faults.append(f"{case}: temporary files left")
                if rc != 0 and out.exists():
                    faults.append(f"{case}: --out left after exit {rc}")
                shutil.rmtree(out, ignore_errors=True)
            path.write_bytes(original)
        assert faults == []
        assert codes.count(3) > codes.count(0) > 0
