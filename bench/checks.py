"""Checks of voxcnn's outputs against computations made apart from it.

Nothing here calls voxcnn.kernels: the reference forward pass sums over
kernel offsets and takes a max over each pool window directly, and the
ensemble, confusion and AUC references are written from their definitions.
The finite differences evaluate the program's forward pass; what they check
is its backward pass.  Each check returns a list of failure messages; an
empty list is a pass.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from voxcnn.models import forward

# tolerances, fixed before measuring: a central difference with step 1e-6
# in float64 agrees to about 1e-7 relative, and a 1% error must fail
FD_EPS = 1e-6
FD_RTOL = 1e-4
LOGIT_RTOL = 1e-9
SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# reference forward pass
# ---------------------------------------------------------------------------


def _pad(x, padding, value):
    pd, ph, pw = padding
    return np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)),
                  constant_values=value)


def _windows(xp, kernel, stride):
    """(offset, strided slice of xp) for every kernel offset."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    od = (xp.shape[1] - kd) // sd + 1
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                yield (i, j, k), xp[:, i:i + sd * (od - 1) + 1:sd,
                                    j:j + sh * (oh - 1) + 1:sh,
                                    k:k + sw * (ow - 1) + 1:sw]


def ref_conv(x, w, b, stride, padding):
    out = None
    for (i, j, k), win in _windows(_pad(x, padding, 0.0), w.shape[2:], stride):
        term = np.einsum("oc,czyx->ozyx", w[:, :, i, j, k], win)
        out = term if out is None else out + term
    return out + b[:, None, None, None]


def ref_pool(x, kernel, stride, padding):
    out = None
    for _, win in _windows(_pad(x, padding, -np.inf), kernel, stride):
        out = win.copy() if out is None else np.maximum(out, win)
    return out


def _ref_inception(name, x, params):
    def conv_relu(tag, inp):
        w = params[f"{name}.{tag}.w"]
        p = (w.shape[2] - 1) // 2  # every branch conv preserves extents
        return np.maximum(ref_conv(inp, w, params[f"{name}.{tag}.b"],
                                   (1, 1, 1), (p, p, p)), 0.0)

    pooled = ref_pool(x, (3, 3, 3), (1, 1, 1), (1, 1, 1))
    return np.concatenate([
        conv_relu("b1", x),
        conv_relu("b2", conv_relu("b2r", x)),
        conv_relu("b3", conv_relu("b3r", x)),
        conv_relu("b4p", pooled),
    ])


def reference_logits(model, x) -> np.ndarray:
    """Eval-mode logits of `model` on one volume, without voxcnn.kernels."""
    p = model.params
    cur = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        kind = layer.kind
        if kind == "conv3d":
            cur = ref_conv(cur, p[f"{layer.name}.w"], p[f"{layer.name}.b"],
                           layer.spec.stride, layer.spec.padding)
        elif kind == "maxpool3d":
            cur = ref_pool(cur, layer.spec.kernel, layer.spec.stride,
                           layer.spec.padding)
        elif kind == "relu":
            cur = np.maximum(cur, 0.0)
        elif kind == "flatten":
            cur = cur.reshape(-1)
        elif kind == "dense":
            cur = p[f"{layer.name}.w"] @ cur + p[f"{layer.name}.b"]
        elif kind == "concat-group":
            cur = _ref_inception(layer.name, cur, p)
        elif kind not in ("dropout", "softmax"):  # both identities here
            raise ValueError(f"no reference for layer kind {kind!r}")
    return cur


def xent(logits, label: int) -> float:
    z = np.asarray(logits, dtype=np.float64)
    top = z.max()
    return float(top + math.log(np.exp(z - top).sum()) - z[label])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def tilted_direction(grads, rng) -> list:
    """A random unit direction at 45 degrees to the gradient `grads`.

    Along a purely random direction the derivative can come out near zero,
    where roundoff in the finite difference would swamp a relative check.
    """
    def normed(vs):
        norm = math.sqrt(sum(float(np.sum(v * v)) for v in vs))
        return [v / norm for v in vs]

    toward = normed(grads)
    away = normed([rng.standard_normal(g.shape) for g in grads])
    return normed([a + b for a, b in zip(toward, away)])


def check_directional(f, analytic: float, what: str) -> list:
    """Central difference (f(+eps) - f(-eps)) / 2eps against `analytic`.

    f(t) evaluates the function at the base point plus t times the same
    direction along which `analytic` was taken.
    """
    numeric = (f(FD_EPS) - f(-FD_EPS)) / (2 * FD_EPS)
    err = abs(numeric - analytic)
    if not err <= FD_RTOL * abs(numeric):
        return [f"{what}: analytic {analytic!r} vs finite difference "
                f"{numeric!r} (error {err:.2e})"]
    return []


def check_param_gradient(model, x, label: int, grads, rng, what: str) -> list:
    """`grads` (d loss / d params, dropout off) along one random direction."""
    names = sorted(model.params)
    dirs = tilted_direction([grads[n] for n in names], rng)
    analytic = sum(float(np.sum(grads[n] * v)) for n, v in zip(names, dirs))

    def loss_at(t):
        params = {n: model.params[n] + t * v for n, v in zip(names, dirs)}
        _, cache = forward(dataclasses.replace(model, params=params), x)
        return xent(cache.logits, label)

    return check_directional(loss_at, analytic, what)


def check_input_gradient(model, x, class_id: int, grad_input, rng,
                         what: str) -> list:
    """`grad_input` (d logit[class_id] / d x) along one random direction."""
    (v,) = tilted_direction([grad_input], rng)
    analytic = float(np.sum(grad_input * v))

    def logit_at(t):
        _, cache = forward(model, x + t * v)
        return float(cache.logits[class_id])

    return check_directional(logit_at, analytic, what)


def check_probs(probs, ref_logits, what: str) -> list:
    """Probabilities against a reference pass, compared as centred logits."""
    probs = np.asarray(probs, dtype=np.float64)
    fails = []
    if not abs(float(probs.sum()) - 1.0) <= SUM_TOL:
        fails.append(f"{what}: probabilities sum to {probs.sum()!r}")
    with np.errstate(divide="ignore"):
        got = np.log(probs)
    got = got - got.mean()
    ref = ref_logits - ref_logits.mean()
    err = float(np.max(np.abs(got - ref)))
    if not err <= LOGIT_RTOL * float(np.max(np.abs(ref))):
        fails.append(f"{what}: logits differ from the reference pass by {err:.3e}")
    return fails


def _first_argmax(v) -> int:
    best = 0
    for i in range(1, len(v)):
        if v[i] > v[best]:
            best = i
    return best


def own_average(prob_set) -> int:
    return _first_argmax([sum(p[c] for p in prob_set) / 3 for c in range(3)])


def own_vote(prob_set) -> int:
    votes = [_first_argmax(p) for p in prob_set]
    counts = [votes.count(c) for c in range(3)]
    if max(counts) >= 2:
        return counts.index(max(counts))
    return _first_argmax([max(p[c] for p in prob_set) for c in range(3)])


def check_volume(prob_set, average_class: int, vote_class: int) -> list:
    """One volume: each row sums to 1, both combiners match their definitions."""
    fails = []
    for m, p in enumerate(prob_set):
        if not abs(float(np.sum(p)) - 1.0) <= SUM_TOL:
            fails.append(f"model {m}: probabilities sum to {np.sum(p)!r}")
    if average_class != own_average(prob_set):
        fails.append(f"averaging chose {average_class}, "
                     f"expected {own_average(prob_set)}")
    if vote_class != own_vote(prob_set):
        fails.append(f"voting chose {vote_class}, expected {own_vote(prob_set)}")
    return fails


def own_confusion(predictions, labels) -> np.ndarray:
    cm = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(predictions, labels):
        cm[p][t] += 1
    return cm


def own_auc(scores, labels, class_id: int) -> float:
    """Pairwise concordance, ties counting one half."""
    pos = [s for s, y in zip(scores, labels) if y == class_id]
    neg = [s for s, y in zip(scores, labels) if y != class_id]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def check_saliency_volume(data, what: str) -> list:
    data = np.asarray(data)
    if data.min() < 0.0 or data.max() > 1.0:
        return [f"{what}: values outside [0, 1]"]
    if data.max() != 1.0:
        return [f"{what}: peak is {data.max()!r}, not 1"]
    return []


def own_class_mean(maps) -> np.ndarray:
    mean = np.mean(np.stack(maps), axis=0)
    return mean / mean.max()


def own_enrichment(data, mask) -> float:
    inside = float(data[mask].sum()) / float(data.sum())
    return inside / (mask.sum() / mask.size)
