"""Deliberately naive reference implementations used to cross-check the library.

Everything here trades speed for obviousness: plain Python loops, no
vectorisation, no code shared with the package under test.
"""

import numpy as np


def conv3d_loops(x, w, b, stride, padding):
    """Seven-nested-loop 3D cross-correlation with zero padding."""
    c_out, c_in, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    _, d, h, wd = x.shape
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, od, oh, ow))
    for o in range(c_out):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    acc = b[o]
                    for c in range(c_in):
                        for i in range(kd):
                            for j in range(kh):
                                for k in range(kw):
                                    zi = z * sd - pd + i
                                    yi = y * sh - ph + j
                                    xi = xx * sw - pw + k
                                    if 0 <= zi < d and 0 <= yi < h and 0 <= xi < wd:
                                        acc += x[c, zi, yi, xi] * w[o, c, i, j, k]
                    out[o, z, y, xx] = acc
    return out


def conv3d_backward_loops(x, w, grad_out, stride, padding):
    """Input, weight and bias gradients of conv3d_loops for an upstream
    gradient, accumulated over every (output voxel, input channel, kernel
    offset) that conv3d_loops multiplies."""
    c_out, c_in, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    _, d, h, wd = x.shape
    _, od, oh, ow = grad_out.shape
    grad_x = np.zeros(x.shape)
    grad_w = np.zeros(w.shape)
    grad_b = np.zeros(c_out)
    for o in range(c_out):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    g = grad_out[o, z, y, xx]
                    grad_b[o] += g
                    for c in range(c_in):
                        for i in range(kd):
                            for j in range(kh):
                                for k in range(kw):
                                    zi = z * sd - pd + i
                                    yi = y * sh - ph + j
                                    xi = xx * sw - pw + k
                                    if 0 <= zi < d and 0 <= yi < h and 0 <= xi < wd:
                                        grad_x[c, zi, yi, xi] += g * w[o, c, i, j, k]
                                        grad_w[o, c, i, j, k] += g * x[c, zi, yi, xi]
    return grad_x, grad_w, grad_b


def maxpool3d_loops(x, kernel, stride, padding):
    """Exhaustive window scan; padded positions never participate."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    pd, ph, pw = padding
    c, d, h, w = x.shape
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.empty((c, od, oh, ow))
    arg = np.empty((c, od, oh, ow), dtype=np.int64)
    for ci in range(c):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    best = -np.inf
                    best_idx = -1
                    for i in range(kd):
                        for j in range(kh):
                            for k in range(kw):
                                zi = z * sd - pd + i
                                yi = y * sh - ph + j
                                xi = xx * sw - pw + k
                                if 0 <= zi < d and 0 <= yi < h and 0 <= xi < w:
                                    v = x[ci, zi, yi, xi]
                                    if v > best:
                                        best = v
                                        best_idx = ((ci * d + zi) * h + yi) * w + xi
                    out[ci, z, y, xx] = best
                    arg[ci, z, y, xx] = best_idx
    return out, arg


def dense_loops(x, w, b):
    m, n = w.shape
    out = np.zeros(m)
    for i in range(m):
        acc = b[i]
        for j in range(n):
            acc += w[i, j] * x[j]
        out[i] = acc
    return out


def numeric_gradient(f, x, step=1e-5):
    """Central finite differences of a scalar function, elementwise.

    The step is scaled by each coordinate's magnitude so large and small
    parameters are probed at comparable relative resolution.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        h = step * max(1.0, abs(orig))
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a, b):
    """Norm-based relative discrepancy between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def concordance_auc(scores, positives):
    """Mann-Whitney pairwise concordance with half-credit for ties."""
    pos = [s for s, p in zip(scores, positives) if p]
    neg = [s for s, p in zip(scores, positives) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))
