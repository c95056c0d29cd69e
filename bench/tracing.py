"""Span tracing for the benchmark, applied from outside the library.

voxcnn modules import functions by name (models imports conv3d, training
imports forward, saliency imports backpropagate), so a wrapper has to
replace the name where its caller looks it up.  `TARGETS` lists each lookup
site with the span name it records.  Spans stay in memory as
[name, start, end, parent, extra] and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import voxcnn.ensemble
import voxcnn.metrics
import voxcnn.models
import voxcnn.saliency
import voxcnn.training
import voxcnn.volumes
from voxcnn.kernels import op_count

KERNELS = ("conv3d", "conv3d_backward", "maxpool3d", "maxpool3d_backward")
OTHER_KERNELS = ("relu", "relu_backward", "dense", "dense_backward", "dropout",
                 "dropout_backward", "concat_channels",
                 "concat_channels_backward", "softmax_xent")
PRESETS = ("alexnet3d-toy", "vgg16-3d-toy", "googlenet3d-toy")


def _conv_extra(args):
    x, _, _, spec = args[:4]
    return (spec, x.shape[1:])


def _conv_backward_extra(args):
    cache = args[0]
    return (cache[3], cache[1][1:])


def _model_extra(args):
    # every model the benchmark runs is a "-toy" preset
    return args[0].config.architecture + "-toy"


# (module, attribute, span name, extra-from-args)
TARGETS = (
    [(voxcnn.models, "conv3d", "kernels.conv3d", _conv_extra),
     (voxcnn.models, "conv3d_backward", "kernels.conv3d_backward",
      _conv_backward_extra),
     (voxcnn.models, "maxpool3d", "kernels.maxpool3d", None),
     (voxcnn.models, "maxpool3d_backward", "kernels.maxpool3d_backward", None)]
    + [(voxcnn.models, k, "kernels.other", None) for k in OTHER_KERNELS]
    + [(voxcnn.training, "softmax_xent", "kernels.other", None),
       (voxcnn.training, "forward", "models.forward", _model_extra),
       (voxcnn.saliency, "forward", "models.forward", _model_extra),
       (voxcnn.training, "model_backward", "models.backward", _model_extra),
       (voxcnn.saliency, "backpropagate", "models.backward", _model_extra),
       (voxcnn.models, "load_model", "models.load_model", None),
       (voxcnn.training, "adam_step", "training.adam_step", None),
       (voxcnn.training, "l2_term", "training.l2_term", None),
       (voxcnn.training, "evaluate", "training.evaluate", None),
       (voxcnn.volumes, "generate_phantoms", "volumes.generate_phantoms", None),
       (voxcnn.volumes.VolumeDataset, "from_manifest", "volumes.from_manifest",
        None),
       (voxcnn.volumes.VolumeDataset, "example", "volumes.example", None),
       (voxcnn.saliency, "saliency_map", "saliency.saliency_map", None),
       (voxcnn.saliency, "class_mean_saliency", "saliency.class_mean", None),
       (voxcnn.saliency, "region_enrichment", "saliency.region_enrichment",
        None),
       (voxcnn.ensemble, "ensemble_average", "ensemble.combine", None),
       (voxcnn.ensemble, "ensemble_vote", "ensemble.combine", None)]
    + [(voxcnn.metrics, f, "metrics.report", None)
       for f in ("confusion_matrix", "classwise_metrics", "overall_accuracy",
                 "roc_curve", "auc")]
)


class Tracer:
    """Records nested spans while installed; installs no code otherwise."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def open(self, name: str, extra=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, extra])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def discard(self) -> None:
        """Drop the innermost open span; it must be the last one recorded."""
        idx = self._stack.pop()
        if idx != len(self.spans) - 1:
            raise RuntimeError("discarded span has children")
        self.spans.pop()

    def _wrap(self, fn, name, extra_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, None, stack[-1] if stack else -1,
                          extra_of(args) if extra_of else None])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, extra_of in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if isinstance(fn, classmethod):
                wrapped = classmethod(self._wrap(fn.__func__, name, extra_of))
            else:
                wrapped = self._wrap(fn, name, extra_of)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, extra in self.spans:
                if not isinstance(extra, str):
                    extra = None
                f.write(json.dumps([name, t0, t1, parent, extra]) + "\n")


def layer_metrics(spans: list, rounds: int) -> dict:
    """Per-layer figures from spans recorded over `rounds` timed rounds.

    Kernel figures are per sample (one model forward pass), other spans
    per call; self times subtract the spans directly below.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total = defaultdict(float)
    count = defaultdict(int)
    self_total = defaultdict(float)
    ops = defaultdict(int)
    op_cache: dict = {}
    for i, (name, _, _, _, extra) in enumerate(spans):
        key = name
        if name in ("models.forward", "models.backward"):
            key = f"{name}.{extra}"
            self_total[name] += dur[i] - child[i]
            count[name] += 1
        elif name in ("kernels.conv3d", "kernels.conv3d_backward"):
            if extra not in op_cache:
                oc = op_count(extra[0], extra[1], "standard")
                op_cache[extra] = oc.multiplications + oc.additions
            # backward computes the weight and the input gradient
            ops[name] += op_cache[extra] * (2 if name.endswith("backward") else 1)
        elif name == "training.step":
            self_total[name] += dur[i] - child[i]
        total[key] += dur[i]
        count[key] += 1

    def mean(key, scale):
        return total[key] / count[key] * scale if count[key] else 0.0

    samples = count["models.forward"]
    per_sample = 1e3 / samples if samples else 0.0
    out = {}
    for k in KERNELS:
        out[f"kernels.{k}.ms"] = total[f"kernels.{k}"] * per_sample
    out["kernels.other.ms"] = total["kernels.other"] * per_sample
    for k in ("conv3d", "conv3d_backward"):
        t = total[f"kernels.{k}"]
        out[f"kernels.{k}.gflops"] = ops[f"kernels.{k}"] / t / 1e9 if t else 0.0
    n_kernel = sum(count[f"kernels.{k}"] for k in KERNELS + ("other",))
    out["kernels.calls"] = n_kernel / samples if samples else 0.0
    for phase in ("forward", "backward"):
        for p in PRESETS:
            out[f"models.{phase}.{p}.ms"] = mean(f"models.{phase}.{p}", 1e3)
        n = count[f"models.{phase}"]
        out[f"models.{phase}.self_ms"] = (
            self_total[f"models.{phase}"] / n * 1e3 if n else 0.0)
    out["models.load_model.ms"] = mean("models.load_model", 1e3)
    out["training.step.ms"] = mean("training.step", 1e3)
    out["training.adam_step.ms"] = mean("training.adam_step", 1e3)
    out["training.l2_term.ms"] = mean("training.l2_term", 1e3)
    out["training.evaluate.ms"] = mean("training.evaluate", 1e3)
    n_step = count["training.step"]
    out["training.self_ms"] = (
        self_total["training.step"] / n_step * 1e3 if n_step else 0.0)
    out["volumes.generate_phantoms.s"] = mean("volumes.generate_phantoms", 1.0)
    out["volumes.from_manifest.s"] = mean("volumes.from_manifest", 1.0)
    out["volumes.example.us"] = mean("volumes.example", 1e6)
    out["saliency.saliency_map.ms"] = mean("saliency.saliency_map", 1e3)
    out["ensemble.combine.us"] = mean("ensemble.combine", 1e6)
    out["metrics.report.ms"] = total["metrics.report"] / rounds * 1e3
    return out


def kernel_shares(spans: list, wall: float) -> dict:
    """Percent of `wall` seconds spent in each kernel group."""
    total = defaultdict(float)
    for name, t0, t1, _, _ in spans:
        if name.startswith("kernels."):
            total[name] += t1 - t0
    return {k: 100.0 * v / wall for k, v in sorted(total.items())}
