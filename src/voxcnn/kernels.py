"""Forward and backward numeric kernels for volumetric networks.

All kernels operate on single samples in channels-first layout: a volume is
a float64 array of shape (C, D, H, W).  Every forward kernel returns the
output together with whatever the matching backward kernel needs (the
"cache"); backward kernels return exact analytic gradients.  Computation is
64-bit throughout; 32-bit is a storage format only (see voxcnn.volumes).

conv3d splits the padded input into its stride phases once (_phase_split
describes the layout) and caches them for conv3d_backward.  The forward runs
one GEMM per depth offset against a panel of the in-plane shifts; the
backward runs one GEMM per kernel offset for the weight gradient and one for
the input gradient.  Every GEMM reads or writes a contiguous column range of
a phase, so no per-voxel window tensor is copied, and both kernels run their
offsets inside L2-sized column blocks (_column_blocks).  conv3d_backward's
input_grad=False skips the input gradient, which a network's first layer in
training never needs.

maxpool3d takes a separable max and recovers its argmax from output-sized
candidates, so it copies no k^3 window either.

Kernels check shapes, not values: a NaN or inf passes through them.  The
model's forward walk (voxcnn.models) scans each layer's output once, and
model files reject non-finite tensors when they are loaded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

Triple = tuple[int, int, int]

AXIS_NAMES = ("depth", "height", "width")


def _as_triple(v) -> Triple:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValidationError(f"expected 3 extents, got {v!r}")
    return t


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 3D convolution: channel counts, kernel, stride, padding."""

    in_channels: int
    out_channels: int
    kernel: Triple
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_triple(self.kernel))
        object.__setattr__(self, "stride", _as_triple(self.stride))
        object.__setattr__(self, "padding", _as_triple(self.padding))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValidationError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise ValidationError("kernel and stride extents must be positive")
        if min(self.padding) < 0:
            raise ValidationError("padding must be non-negative")

    def out_spatial(self, spatial: Triple) -> Triple:
        return out_extents(spatial, self.kernel, self.stride, self.padding)


@dataclass(frozen=True)
class PoolSpec:
    """Geometry of a 3D max-pooling window."""

    kernel: Triple
    stride: Triple
    padding: Triple = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_triple(self.kernel))
        object.__setattr__(self, "stride", _as_triple(self.stride))
        object.__setattr__(self, "padding", _as_triple(self.padding))
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise ValidationError("kernel and stride extents must be positive")
        if min(self.padding) < 0:
            raise ValidationError("padding must be non-negative")
        for p, k in zip(self.padding, self.kernel):
            if p >= k:
                # a window could then fall entirely inside the padding
                raise ValidationError(
                    f"pool padding {p} must be smaller than kernel extent {k}"
                )

    def out_spatial(self, spatial: Triple) -> Triple:
        return out_extents(spatial, self.kernel, self.stride, self.padding)


@dataclass(frozen=True)
class OpCount:
    """Multiplication/addition tally for one convolution layer."""

    multiplications: int
    additions: int
    mode: str


def out_extents(spatial, kernel, stride, padding, *, what: str = "layer") -> Triple:
    """floor((in + 2p - k)/s) + 1 per axis; rejects collapse below 1."""
    out = []
    for axis, (n, k, s, p) in enumerate(zip(spatial, kernel, stride, padding)):
        if n < 1:
            raise ValidationError(f"{what}: input {AXIS_NAMES[axis]} extent {n} < 1")
        e = (n + 2 * p - k) // s + 1
        if e < 1:
            raise ValidationError(
                f"{what}: output {AXIS_NAMES[axis]} extent would be {e} "
                f"(input {n}, kernel {k}, stride {s}, padding {p})"
            )
        out.append(e)
    return tuple(out)


def _check_volume(x: np.ndarray, what: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValidationError(f"{what} must be 4-d (C, D, H, W), got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------


def _phase_windows(spatial, spec: ConvSpec):
    """Yields (r, phase slices, input slices) for each stride phase r of
    _phase_split's layout: the phase positions that hold input voxels, and
    those input voxels.  Every input voxel lies in exactly one phase.
    """
    axes = []
    for e, p, t in zip(spatial, spec.padding, spec.stride):
        axis = []
        for r in range(t):
            # position a of phase r is input voxel t*a + r - p
            first = -(-(p - r) // t)
            xs = range(t * first + r - p, e, t)
            axis.append((r, slice(first, first + len(xs)),
                         slice(xs.start, e, t)))
        axes.append(axis)
    for (rd, ad, xd), (rh, ah, xh), (rw, aw, xw) in itertools.product(*axes):
        yield (rd, rh, rw), (slice(None), ad, ah, aw), (slice(None), xd, xh, xw)


def _phase_split(x, spec: ConvSpec):
    """Zero-pads x and splits it into its stride phases.

    Per axis, padded voxel s*a + r goes to position a of phase r, so kernel
    offset s*a + r reads phase r from position a on with unit stride.  Zeros
    round each padded extent up to a multiple of the stride, giving the phase
    extents q = (Dq, Hq, Wq).  Returns (phases, q) with phases of shape
    (sd, sh, sw, C_in, Dq*Hq*Wq); for stride 1 that is the padded input
    itself.

    conv3d and conv3d_backward both work on this layout.  Flattened, an
    output voxel (a', b', c') sits at column p = (a'*Hq + b')*Wq + c' of a
    (C_out, D'*Hq*Wq) grid whose columns with b' >= H' or c' >= W' are
    padding, and kernel offset (i, j, k) = (sd*a + rd, sh*b + rj, sw*c + rk)
    meets it at column p + o of phase (rd, rj, rk), o = (a*Hq + b)*Wq + c.
    Each offset therefore touches the contiguous column range [o, o + n) of
    one phase, with n the grid columns up to the last output voxel.
    """
    s = spec.stride
    c_in, *spatial = x.shape
    q = tuple(-(-(e + 2 * p) // t) for e, p, t in zip(spatial, spec.padding, s))
    phases = np.zeros(s + (c_in,) + q)
    for r, dst, src in _phase_windows(spatial, spec):
        phases[r][dst] = x[src]
    return phases.reshape(s + (c_in, -1)), q


# Values (float64, 1 MiB) that one column block of the conv GEMMs keeps in
# L2: half of the 2 MiB per-core L2 of the Xeon the kernels were tuned on.
# On vgg16-3d-toy's backward (one BLAS thread) twice this budget took 40 ms
# per sample against 29, and half of it was no faster.  Blocks are never
# narrower than _MIN_COLUMNS: googlenet3d-toy's convs of about 6,300 columns,
# split into 2-4 narrower blocks, ran up to 20% slower than in one.  Both are
# constants, not options: the width changes speed, and the results only in
# the order of the sums across blocks.
_BLOCK_VALUES = 131_072
_MIN_COLUMNS = 8192


def _column_blocks(n, rows):
    """[c0, c1) blocks of n grid columns, each at most _BLOCK_VALUES values
    across the `rows` rows of the block-wide arrays that every kernel offset
    of a block reuses, or _MIN_COLUMNS columns if that is wider.

    conv3d and conv3d_backward run their kernel-offset loop inside each
    block, so those arrays (the output or upstream-gradient block, and the
    GEMM result that is added to it) stay in L2 across the offsets, instead
    of every offset streaming all n columns from memory again.  The panel
    and phase columns that each offset reads once are not counted.
    """
    width = max(_MIN_COLUMNS, _BLOCK_VALUES // rows)
    return [(c0, min(c0 + width, n)) for c0 in range(0, n, width)]


def conv3d(x, weights, bias, spec: ConvSpec):
    """3D cross-correlation with symmetric zero padding.

    x: (C_in, D, H, W); weights: (C_out, C_in, kd, kh, kw); bias: (C_out,).
    Returns (output, cache) with output (C_out, D', H', W'), C-contiguous.

    For each depth phase rd, the kh*kw in-plane shifts of that phase are
    stacked into one (kh*kw*C_in, m) panel; each depth offset i = sd*a + rd
    is then one GEMM with K = kh*kw*C_in over panel columns
    [a*Hq*Wq, a*Hq*Wq + n), accumulated into the output grid (see
    _phase_split) block by block (see _column_blocks).  The cache is
    (phases, input shape, weights, spec, output extents, q);
    bench/tracing.py reads the input shape (index 1) and the spec (index 3).
    """
    x = _check_volume(x)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    expected_w = (spec.out_channels, spec.in_channels) + spec.kernel
    if x.shape[0] != spec.in_channels:
        raise ValidationError(
            f"conv3d: input has {x.shape[0]} channels, spec expects {spec.in_channels}"
        )
    if weights.shape != expected_w:
        raise ValidationError(
            f"conv3d: weights shape {weights.shape} != expected {expected_w}"
        )
    if bias.shape != (spec.out_channels,):
        raise ValidationError(
            f"conv3d: bias shape {bias.shape} != ({spec.out_channels},)"
        )

    out_sp = spec.out_spatial(x.shape[1:])
    od, oh, ow = out_sp
    c_out, c_in = spec.out_channels, spec.in_channels
    kd, kh, kw = spec.kernel
    sd, sh, sw = spec.stride
    xf, q = _phase_split(x, spec)
    _, qh, qw = q
    plane = qh * qw
    n = (od - 1) * plane + (oh - 1) * qw + ow

    # (kd, C_out, kh*kw*C_in): depth slice i of the weights, rows in panel order
    wt = np.ascontiguousarray(weights.transpose(2, 0, 3, 4, 1)).reshape(kd, c_out, -1)
    grid = np.zeros((c_out, od * plane))
    blocks = _column_blocks(n, 2 * c_out)  # a grid block and its GEMM product
    for rd in range(min(sd, kd)):
        depths = range(rd, kd, sd)
        m = (len(depths) - 1) * plane + n
        panel = np.empty((kh, kw, c_in, m))
        for j, k in np.ndindex(kh, kw):
            (b, rj), (c, rk) = divmod(j, sh), divmod(k, sw)
            o = b * qw + c
            panel[j, k] = xf[rd, rj, rk, :, o : o + m]
        panel = panel.reshape(-1, m)
        for c0, c1 in blocks:
            for a, i in enumerate(depths):
                o = a * plane
                grid[:, c0:c1] += wt[i] @ panel[:, o + c0 : o + c1]
        del panel  # free it before the next depth phase's panel is built
    out = grid.reshape(c_out, od, qh, qw)[:, :, :oh, :ow] + bias[:, None, None, None]
    cache = (xf, x.shape, weights, spec, out_sp, q)
    return out, cache


def conv3d_backward(cache, grad_out, input_grad=True):
    """Gradients of conv3d: returns (grad_input, grad_weights, grad_bias).

    Inside each column block (see _column_blocks), one loop over the kernel
    offsets (i, j, k) runs one GEMM per offset for the weight gradient and,
    unless input_grad is False, one for the input gradient; with input_grad
    False, grad_input is None.  Both work on the stride phases that conv3d
    cached (see _phase_split): grad_out sits in a zero (C_out, D'*Hq*Wq)
    grid, so each offset reads or accumulates one contiguous column range of
    a phase, and the grid's zero columns contribute nothing.  The first
    block assigns each offset's weight gradient and later blocks add to it.
    """
    xf, x_shape, weights, spec, out_sp, q = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    expected = (spec.out_channels,) + out_sp
    if grad_out.shape != expected:
        raise ValidationError(
            f"conv3d backward: upstream shape {grad_out.shape} != {expected}"
        )
    c_out, c_in = spec.out_channels, spec.in_channels
    s = spec.stride
    od, oh, ow = out_sp

    grad_bias = grad_out.sum(axis=(1, 2, 3))

    _, qh, qw = q
    n = (od - 1) * qh * qw + (oh - 1) * qw + ow
    grid = np.zeros((c_out, od, qh, qw))
    grid[:, :, :oh, :ow] = grad_out
    gf = grid.reshape(c_out, -1)[:, :n]

    # (kd, kh, kw, C_in, C_out): each offset's transposed weights contiguous
    wt = np.ascontiguousarray(weights.transpose(2, 3, 4, 1, 0))
    gw = np.empty(spec.kernel + (c_out, c_in))
    gxf = np.zeros_like(xf) if input_grad else None
    taps = []  # per kernel offset (i, j, k): its phase and its column shift
    for i, j, k in np.ndindex(*spec.kernel):
        (a, ri), (b, rj), (c, rk) = divmod(i, s[0]), divmod(j, s[1]), divmod(k, s[2])
        taps.append(((i, j, k), (ri, rj, rk), (a * qh + b) * qw + c))
    blocks = _column_blocks(n, c_out + c_in)  # a gradient block and t
    buf = np.empty(c_in * (blocks[0][1] - blocks[0][0]))
    for c0, c1 in blocks:
        g = gf[:, c0:c1]
        t = buf[: c_in * (c1 - c0)].reshape(c_in, -1)
        for f, r, o in taps:
            xb = xf[r][:, o + c0 : o + c1]
            if c0 == 0:
                gw[f] = g @ xb.T
            else:
                gw[f] += g @ xb.T
            if input_grad:
                np.matmul(wt[f], g, out=t)
                gxf[r][:, o + c0 : o + c1] += t
    grad_weights = np.ascontiguousarray(gw.transpose(3, 4, 0, 1, 2))
    if not input_grad:
        return None, grad_weights, grad_bias

    gxf = gxf.reshape(s + (c_in,) + q)
    grad_x = np.empty(x_shape)
    for r, dst, src in _phase_windows(x_shape[1:], spec):
        grad_x[src] = gxf[r][dst]
    return grad_x, grad_weights, grad_bias


# ---------------------------------------------------------------------------
# maxpool3d
# ---------------------------------------------------------------------------


def _running_max(taps):
    """Elementwise max of equally shaped views, as a new C-contiguous array."""
    out = np.maximum(taps[0], taps[1]) if len(taps) > 1 else taps[0].copy()
    for t in taps[2:]:
        np.maximum(out, t, out=out)
    return out


def _first_match(candidate, k, target):
    """Per element, the first t < k whose candidate(t) equals target.

    target is the max of the k candidates, so an element that misses the
    first k - 1 matches the last one, which is therefore never built.  A
    NaN candidate counts as a match: np.maximum propagates NaN, so NaN
    candidates only meet NaN targets, and the first of them is the one
    np.argmax would pick.
    """
    first = np.zeros(target.shape, dtype=np.intp)
    miss = np.ones(target.shape, dtype=bool)
    for t in range(k - 1):
        c = candidate(t)
        miss &= c != target
        miss &= c == c
        first += miss
    return first


def maxpool3d(x, spec: PoolSpec):
    """Max pooling over 3D windows, as a separable max.

    Returns (output, argmax, cache); argmax holds, per output element, the
    flat index into the *unpadded* input of the chosen element (first
    occurrence in row-major window order wins ties, and the first NaN wins
    when the window holds one).  Padding is -inf, so it never beats a real
    voxel, and a window whose real voxels are all -inf names its first real
    voxel.

    The input is padded once, into rows rounded up to a multiple of the
    width stride, so the width pass is one long strided max over the flat
    buffer: a = max over the kw width taps.  Then b = max of a over the kh
    height taps, and the output = max of b over the kd depth taps.  The
    argmax is recovered in the same order from output-sized candidates: the
    first depth tap whose b equals the output, at that depth the first row
    tap whose a equals it, and in that row the first column of the padded
    input that does.  That is the row-major first occurrence, and no
    kd*kh*kw window is ever copied.
    """
    x = _check_volume(x)
    c, d, h, w = x.shape
    od, oh, ow = out_extents(x.shape[1:], spec.kernel, spec.stride, spec.padding,
                             what="maxpool3d")
    kd, kh, kw = spec.kernel
    sd, sh, sw = spec.stride
    pd, ph, pw = spec.padding

    # padded extents that the windows reach; a row of a holds wa columns
    du, hu, wu = (od - 1) * sd + kd, (oh - 1) * sh + kh, (ow - 1) * sw + kw
    wa = -(-wu // sw)
    n = c * du * hu * wa
    flat = np.full(n * sw + kw, -np.inf)
    xp = flat[: n * sw].reshape(c, du, hu, wa * sw)
    xp[..., :wu][:, pd : pd + d, ph : ph + h, pw : pw + w] = (
        x[:, : du - pd, : hu - ph, : wu - pw])

    # columns v >= ow of a span row ends; they are never read
    a = _running_max([flat[k : k + n * sw : sw] for k in range(kw)])
    a = a.reshape(c, du, hu, wa)
    b = _running_max([a[:, :, j : j + (oh - 1) * sh + 1 : sh, :ow]
                      for j in range(kh)])
    depth_taps = [b[:, i : i + (od - 1) * sd + 1 : sd] for i in range(kd)]
    out = _running_max(depth_taps)

    ci = np.arange(c)[:, None, None, None]
    zi = np.arange(od)[:, None, None] * sd
    yi = np.arange(oh)[:, None] * sh
    ox = np.arange(ow)
    # A window whose real voxels are all -inf matches its -inf padding
    # first, so each step is clamped to the window's first real position;
    # anywhere else the matched tap is already real and the clamp is a no-op.
    di = np.maximum(_first_match(depth_taps.__getitem__, kd, out), pd - zi)
    del depth_taps, b
    # flat index into a of each window's first row at depth tap di
    ia = ((ci * du + zi) * hu + yi) * wa + ox
    ia += di * (hu * wa)
    dj = np.maximum(_first_match(lambda j: a.take(ia + j * wa), kh, out), ph - yi)
    del a
    # flat index into xp of each window's first column in row dj
    ia += dj * wa
    ia *= sw
    dk = np.maximum(_first_match(lambda k: flat.take(ia + k), kw, out),
                    pw - ox * sw)

    argmax = ((ci * d + zi - pd) * h + yi - ph) * w + ox * sw - pw
    argmax += (di * h + dj) * w + dk
    cache = (x.shape, argmax)
    return out, argmax, cache


def maxpool3d_backward(cache, grad_out):
    """Routes each upstream gradient to its argmax position; zeros elsewhere."""
    x_shape, argmax = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != argmax.shape:
        raise ValidationError(
            f"maxpool3d backward: upstream shape {grad_out.shape} != {argmax.shape}"
        )
    grad_x = np.zeros(int(np.prod(x_shape)))
    np.add.at(grad_x, argmax.ravel(), grad_out.ravel())
    return grad_x.reshape(x_shape)


# ---------------------------------------------------------------------------
# relu / dense / dropout / concat
# ---------------------------------------------------------------------------


def relu(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(cache, grad_out):
    return np.asarray(grad_out, dtype=np.float64) * cache


def dense(x, weights, bias):
    """Affine map: out = W @ x + b with W of shape (m, n) and x of shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"dense: input must be 1-d, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ValidationError(
            f"dense: weights shape {weights.shape} incompatible with input {x.shape}"
        )
    if bias.shape != (weights.shape[0],):
        raise ValidationError(
            f"dense: bias shape {bias.shape} != ({weights.shape[0]},)"
        )
    out = weights @ x + bias
    return out, (x, weights)


def dense_backward(cache, grad_out):
    x, weights = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (weights.shape[0],):
        raise ValidationError(
            f"dense backward: upstream shape {grad_out.shape} != ({weights.shape[0]},)"
        )
    grad_x = weights.T @ grad_out
    grad_w = np.outer(grad_out, x)
    return grad_x, grad_w, grad_out.copy()


def dropout(x, rate: float, mode: str, rng=None):
    """Inverted dropout: zero with probability `rate`, scale survivors.

    Eval mode is a pure identity.  Returns (output, mask); the mask already
    includes the 1/(1-rate) survivor scaling so backward is a plain product.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValidationError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        mask = np.ones_like(x)
        return x.copy(), mask
    gen = np.random.default_rng(rng)
    keep = gen.random(x.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * mask, mask


def dropout_backward(mask, grad_out):
    return np.asarray(grad_out, dtype=np.float64) * mask


def concat_channels(inputs):
    """Channel-axis concatenation of volumes with equal spatial extents."""
    vols = [_check_volume(v, f"concat input {i}") for i, v in enumerate(inputs)]
    if not vols:
        raise ValidationError("concat_channels: need at least one input")
    spatial = vols[0].shape[1:]
    for i, v in enumerate(vols[1:], start=1):
        if v.shape[1:] != spatial:
            raise ValidationError(
                f"concat_channels: input {i} spatial extents {v.shape[1:]} "
                f"!= {spatial}"
            )
    widths = tuple(v.shape[0] for v in vols)
    return np.concatenate(vols, axis=0), widths


def concat_channels_backward(widths, grad_out):
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape[0] != sum(widths):
        raise ValidationError(
            f"concat backward: upstream has {grad_out.shape[0]} channels, "
            f"expected {sum(widths)}"
        )
    splits = np.cumsum(widths)[:-1]
    return [np.ascontiguousarray(g) for g in np.split(grad_out, splits, axis=0)]


# ---------------------------------------------------------------------------
# softmax + cross-entropy
# ---------------------------------------------------------------------------


def softmax_xent(logits, true_class: int | None = None):
    """Stabilised softmax with optional cross-entropy loss and logit gradient.

    Returns (probs, loss, grad_logits); loss and grad_logits are None when no
    true class is given.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValidationError(f"softmax: logits must be 1-d, got {logits.shape}")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    total = exp.sum()
    probs = exp / total
    if true_class is None:
        return probs, None, None
    if not 0 <= true_class < logits.size:
        raise ValidationError(
            f"softmax: class {true_class} out of range for {logits.size} logits"
        )
    loss = math.log(total) - shifted[true_class]
    grad = probs.copy()
    grad[true_class] -= 1.0
    return probs, loss, grad


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------


def op_count(spec: ConvSpec, input_spatial, mode: str = "paper-convention") -> OpCount:
    """Multiplication/addition tally for one conv3d layer.

    "paper-convention" counts one addition per output voxel (it ignores
    accumulation adds), scaling multiplications by in*out channels and
    additions by out channels.  "standard" counts the full accumulation
    chain plus the bias add.
    """
    if mode not in ("paper-convention", "standard"):
        raise ValidationError(f"op_count: unknown mode {mode!r}")
    out_sp = spec.out_spatial(_as_triple(input_spatial))
    out_vox = int(np.prod(out_sp))
    kvol = int(np.prod(spec.kernel))
    mults = out_vox * kvol * spec.in_channels * spec.out_channels
    if mode == "paper-convention":
        adds = out_vox * spec.out_channels
    else:
        adds = spec.out_channels * (out_vox * (spec.in_channels * kvol - 1) + out_vox)
    return OpCount(multiplications=mults, additions=adds, mode=mode)
