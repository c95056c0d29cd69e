"""Benchmark of voxcnn's three workflows: training, ensemble evaluation and
gradient saliency, on toy-sized phantom volumes (3, 32, 40, 32).

    python3 bench/run.py --workload {train-alexnet,ensemble-eval,saliency}
                         --seed N --seconds S --trace {0,1}

The phantom inputs are generated from --seed; everything else (model
weights, shuffling, dropout) uses fixed seeds.  Each run sets up several
times and reports the median set-up time, then repeats whole rounds of its
workload for --seconds, checks every round's outputs against computations
made apart from the program (see checks.py), and prints one JSON object as
the last line of standard output.  With --trace 0 it carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 the per-layer metrics, from
traced rounds alternating with untraced ones (see tracing.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "voxcnn" / "__init__.py").is_file():
    sys.exit(f"run.py: no voxcnn sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread: on a shared 2-core machine a second BLAS thread that
# loses its core makes every GEMM wait for it, and throughput fell to a
# third in such runs.  Set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from voxcnn import ensemble, metrics, models, saliency, training, volumes  # noqa: E402
from voxcnn.errors import VoxcnnError  # noqa: E402
from voxcnn.metrics import CLASSES  # noqa: E402
from voxcnn.presets import arch_preset, train_preset  # noqa: E402

# 90 volumes; the generator's 70/15/15 split gives 64 train, 13 val and
# 13 test volumes for every seed
SAMPLES_PER_CLASS = 30
TRAIN_EPOCHS = 4
SALIENCY_POOL = 9  # held-out volumes mapped per round, dealt across classes
SETUPS = 7
MODEL_SEED = 0
CHECK_SEED = 0
PRESETS = tracing.PRESETS

# Module attributes are looked up at call time (training.evaluate, not a
# name imported from training) so that the traced run sees every call.


def balanced_loss(results) -> float:
    """Cross-entropy averaged per class, then over classes and models.

    Untrained models favour one class, so a plain mean would follow the
    class mix of a seed's held-out set rather than the program's numerics.
    """
    per_model = []
    for r in results:
        per_class = [[-math.log(r.probs[i, y]) for i, y in enumerate(r.labels)
                      if y == c] for c in range(len(CLASSES))]
        per_class = [statistics.fmean(v) for v in per_class if v]
        per_model.append(statistics.fmean(per_class))
    return statistics.fmean(per_model)


def make_phantoms(seed: int, out_dir: Path):
    params = volumes.PhantomParams(samples_per_class=SAMPLES_PER_CLASS,
                                   seed=seed)
    volumes.generate_phantoms(params, out_dir)
    return volumes.VolumeDataset.from_manifest(out_dir / "manifest.vman")


@dataclasses.dataclass
class Round:
    ops: int  # operations attempted
    failed: int
    rates: list  # work items per second, one or more per round
    fails: list  # failure messages


class TrainAlexnet:
    """train() on alexnet3d-toy with the phantom-toy recipe, cut to a few
    epochs.  One operation is one optimizer step of 32 samples."""

    name = "train-alexnet"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = dataclasses.replace(train_preset("phantom-toy"),
                                          epochs=TRAIN_EPOCHS)
        self.first_losses = None
        self.loss = None

    def setup(self, out_dir: Path) -> None:
        self.ds = make_phantoms(self.seed, out_dir)
        self.plan = training.SplitPlan(train_ids=self.ds.split_ids("train"),
                                       val_ids=self.ds.split_ids("val"),
                                       test_ids=self.ds.split_ids("test"))
        self.model = models.build_model(arch_preset("alexnet3d-toy"),
                                        seed=MODEL_SEED)

    def check(self) -> list:
        m = self.model
        x, y = self.ds.example(self.plan.train_ids[0])
        _, cache = models.forward(m, x, mode="train", rng=0, dropout_rate=0.0)
        grads, _ = models.model_backward(m, cache, y)
        return checks.check_param_gradient(
            m, x, y, grads, np.random.default_rng(CHECK_SEED),
            "alexnet3d-toy parameter gradient")

    def round(self, tracer) -> Round:
        n_train = len(self.plan.train_ids)
        batch = self.config.batch_size
        sizes = [min(batch, n_train - s)
                 for s in range(0, n_train, batch)] * self.config.epochs
        steps = len(sizes)
        model = dataclasses.replace(
            self.model, params={k: v.copy() for k, v in self.model.params.items()})
        marks, losses = [], []

        def hook(iteration, epoch, loss):
            marks.append(time.perf_counter())
            losses.append((epoch, loss))
            if tracer:
                tracer.close()
                tracer.open("training.step")

        if tracer:
            tracer.open("training.step")
        start = time.perf_counter()
        try:
            training.train(model, self.ds, self.plan, self.config,
                           iteration_hook=hook)
        except VoxcnnError as e:
            if tracer:
                tracer.close()
            return Round(steps, steps, [], [f"train raised {e!r}"])
        if tracer:
            tracer.discard()
        fails = []
        if len(marks) != steps:
            fails.append(f"{len(marks)} optimizer steps, expected {steps}")
        final = [loss for epoch, loss in losses if epoch == self.config.epochs - 1]
        self.loss = sum(final) / len(final) if final else math.nan
        if not self.loss < losses[0][1]:
            fails.append(f"final-epoch loss {self.loss!r} is not below the "
                         f"first step's {losses[0][1]!r}")
        if self.first_losses is None:
            self.first_losses = losses
        elif losses != self.first_losses:
            fails.append("same-seed training did not repeat its losses")
        durations = np.diff([start] + marks)
        rates = [n / d for n, d in zip(sizes, durations)]
        return Round(steps, steps if fails else 0, rates, fails)


class EnsembleEval:
    """evaluate() with three saved and reloaded toy models on the held-out
    volumes, both ensemble combiners per volume, then the confusion,
    classwise and ROC reports.  One operation is one volume classified by
    all three models and both combiners."""

    name = "ensemble-eval"

    def __init__(self, seed: int):
        self.seed = seed
        self.first_probs = None

    def setup(self, out_dir: Path) -> None:
        self.ds = make_phantoms(self.seed, out_dir)
        self.ids = self.ds.split_ids("heldout")
        self.built, self.models = [], []
        for preset in PRESETS:
            built = models.build_model(arch_preset(preset), seed=MODEL_SEED)
            path = out_dir / f"{preset}.v0xn"
            models.save_model_file(built, path)
            self.built.append(built)
            self.models.append(models.load_model_file(path))

    def check(self) -> list:
        fails = []
        x, _ = self.ds.example(self.ids[0])
        for preset, built, loaded, probs in zip(PRESETS, self.built,
                                                self.models, self.first_probs):
            if loaded.config != built.config or \
                    built.params.keys() != loaded.params.keys() or any(
                        built.params[k].tobytes() != loaded.params[k].tobytes()
                        for k in built.params):
                fails.append(f"{preset}: .v0xn round trip is not bit-exact")
            fails += checks.check_probs(
                probs[0], checks.reference_logits(loaded, x), preset)
        return fails

    def round(self, tracer) -> Round:
        start = time.perf_counter()
        try:
            results = [training.evaluate(m, self.ds, self.ids)
                       for m in self.models]
            labels = results[0].labels
            sets = [[r.probs[i] for r in results] for i in range(len(self.ids))]
            averaged = [ensemble.ensemble_average(s) for s in sets]
            voted = [ensemble.ensemble_vote(s) for s in sets]
            predictions = [r.predictions for r in results] + [
                [d.class_id for d in averaged], [d.class_id for d in voted]]
            matrices = []
            for preds in predictions:
                cm = metrics.confusion_matrix(preds, labels)
                metrics.classwise_metrics(cm)
                metrics.overall_accuracy(cm)
                matrices.append(cm)
            avg_probs = np.stack([d.probs for d in averaged])
            aucs = {}
            for c in range(len(CLASSES)):
                if 0 < labels.count(c) < len(labels):
                    curve = metrics.roc_curve(avg_probs[:, c], labels, c)
                    aucs[c] = metrics.auc(curve)
        except VoxcnnError as e:
            return Round(len(self.ids), len(self.ids), [], [f"eval raised {e!r}"])
        rate = len(self.ids) / (time.perf_counter() - start)

        failed = 0
        fails = []
        for i, s in enumerate(sets):
            f = checks.check_volume(s, averaged[i].class_id, voted[i].class_id)
            if f:
                failed += 1
                fails += [f"{self.ids[i]}: {m}" for m in f]
        # a failure in the reports or in repeatability fails every volume
        whole = []
        for preds, cm in zip(predictions, matrices):
            if not np.array_equal(cm, checks.own_confusion(preds, labels)):
                whole.append("confusion matrix disagrees with a recount")
        for c, value in aucs.items():
            own = checks.own_auc(avg_probs[:, c], labels, c)
            if not abs(value - own) <= 1e-12:
                whole.append(f"class {c}: AUC {value!r}, concordance {own!r}")
        probs = [r.probs for r in results]
        if self.first_probs is None:
            self.first_probs = probs
        elif any(not np.array_equal(a, b) for a, b in zip(probs, self.first_probs)):
            whole.append("evaluation did not repeat its probabilities")
        self.loss = balanced_loss(results)
        return Round(len(self.ids), len(self.ids) if whole else failed,
                     [rate], fails + whole)


class Saliency:
    """class_mean_saliency and region_enrichment for each class and each of
    the three seeded toy networks on held-out volumes.  One operation is
    one per-sample map."""

    name = "saliency"

    def __init__(self, seed: int):
        self.seed = seed
        self.means = {}

    def setup(self, out_dir: Path) -> None:
        self.ds = make_phantoms(self.seed, out_dir)
        by_class = [[i for i in self.ds.split_ids("heldout")
                     if self.ds.label_of(i) == c] for c in CLASSES]
        pool = []
        while len(pool) < SALIENCY_POOL and any(by_class):
            for members in by_class:
                if members and len(pool) < SALIENCY_POOL:
                    pool.append(members.pop(0))
        self.pool = tuple(pool)
        self.classes = sorted({CLASSES.index(self.ds.label_of(i)) for i in pool})
        self.masks = {c: volumes.load_mask(out_dir / "masks" / f"mask_{c}.vvol")
                      for c in CLASSES}
        self.models = [models.build_model(arch_preset(p), seed=MODEL_SEED)
                       for p in PRESETS]

    def check(self) -> list:
        fails = []
        rng = np.random.default_rng(CHECK_SEED)
        x, y = self.ds.example(self.pool[0])
        results = []
        for n, (preset, model) in enumerate(zip(PRESETS, self.models)):
            _, cache = models.forward(model, x)
            onehot = np.zeros(model.class_count)
            onehot[y] = 1.0
            _, grad_input = models.backpropagate(model, cache, onehot)
            fails += checks.check_input_gradient(
                model, x, y, grad_input, rng, f"{preset} input gradient")
            c = self.classes[n % len(self.classes)]
            maps = [saliency.saliency_map(model, self.ds.example(i)[0], c).data
                    for i in self.pool if CLASSES.index(self.ds.label_of(i)) == c]
            for m in maps:
                fails += checks.check_saliency_volume(m, f"{preset} map")
            if not np.allclose(checks.own_class_mean(maps),
                               self.means[preset, c], rtol=1e-12, atol=0):
                fails.append(f"{preset} class {c}: class mean disagrees with "
                             "the mean of its per-sample maps")
            results.append(training.evaluate(model, self.ds, self.pool))
        self.loss = balanced_loss(results)
        return fails

    def round(self, tracer) -> Round:
        ops = len(self.pool) * len(PRESETS)
        start = time.perf_counter()
        outputs = []
        try:
            for preset, model in zip(PRESETS, self.models):
                for c in self.classes:
                    vol = saliency.class_mean_saliency(model, self.ds, c,
                                                       ids=self.pool)
                    mask = self.masks[CLASSES[c]]
                    outputs.append((preset, c, vol,
                                    saliency.region_enrichment(vol, mask)))
        except VoxcnnError as e:
            return Round(ops, ops, [], [f"saliency raised {e!r}"])
        rate = ops / (time.perf_counter() - start)

        failed = 0
        fails = []
        n_of = {c: sum(CLASSES.index(self.ds.label_of(i)) == c for i in self.pool)
                for c in self.classes}
        for preset, c, vol, score in outputs:
            what = f"{preset} class {c}"
            f = checks.check_saliency_volume(vol.data, what)
            own = checks.own_enrichment(vol.data, self.masks[CLASSES[c]])
            if not abs(score - own) <= 1e-12 * own:
                f.append(f"{what}: enrichment {score!r}, recomputed {own!r}")
            if f:
                failed += n_of[c]
                fails += f
            self.means[preset, c] = vol.data
        return Round(ops, failed, [rate], fails)


WORKLOADS = {w.name: w for w in (TrainAlexnet, EnsembleEval, Saliency)}


def run_rounds(workload, seconds: float):
    """Whole rounds, at least one, for as near `seconds` as they allow.

    A round starts only if it would end nearer the deadline than stopping
    now, judged by the length of the round before it.
    """
    rounds = []
    end = time.perf_counter() + seconds
    last = 0.0
    while not rounds or time.perf_counter() + last / 2 < end:
        start = time.perf_counter()
        rounds.append(workload.round(None))
        last = time.perf_counter() - start
    return rounds


def run_alternating(workload, seconds: float, tracer):
    """Untraced and traced rounds in turn, as `run_rounds` does plain ones.

    Alternating puts drift in machine speed on both halves alike, so their
    difference is the tracing overhead.  Returns (untraced rounds, traced
    rounds, seconds spent in traced rounds).
    """
    plain, traced = [], []
    traced_s = 0.0
    end = time.perf_counter() + seconds
    last = 0.0
    while not traced or time.perf_counter() + last / 2 < end:
        start = time.perf_counter()
        if len(plain) <= len(traced):
            plain.append(workload.round(None))
        else:
            tracer.install()
            try:
                traced.append(workload.round(tracer))
            finally:
                tracer.uninstall()
            traced_s += time.perf_counter() - start
        last = time.perf_counter() - start
    return plain, traced, traced_s


def median_rate(rounds) -> float:
    return statistics.median(r for rd in rounds for r in rd.rates)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed)
    work = BENCH / "work" / f"{args.workload}-seed{args.seed}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_s = []
        for i in range(SETUPS):
            if tracer:
                tracer.install()
            start = time.perf_counter()
            workload.setup(work / f"setup{i}")
            setup_s.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
            shutil.rmtree(work / f"setup{i}")
        if tracer:
            n_setup_spans = len(tracer.spans)
            plain, traced, traced_s = run_alternating(workload, args.seconds,
                                                      tracer)
            rounds = plain + traced
        else:
            rounds = run_rounds(workload, args.seconds)
        run_fails = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    # a check on the whole run fails every operation
    failed = attempted if run_fails else sum(r.failed for r in rounds)
    fails = run_fails + [m for r in rounds for m in r.fails]
    if tracer:
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_pct"] = 100.0 * (
            median_rate(plain) / median_rate(traced) - 1.0)
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
        shares = tracing.kernel_shares(tracer.spans[n_setup_spans:], traced_s)
        print("kernel share of traced time: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in shares.items()), file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "throughput_per_s": median_rate(rounds),
            "loss": workload.loss,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for m in fails:
        print(f"FAILED {m}", file=sys.stderr)
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match {names}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    line = json.dumps(result)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
