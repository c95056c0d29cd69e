"""Convolution and pooling primitives, operation counts, and a finite
difference check of the hand-derived backward pass.

Run: python3 demos/01_kernels_and_gradients.py
"""

import numpy as np

from voxcnn.kernels import ConvSpec, PoolSpec, conv3d, conv3d_param_grads, \
    maxpool3d, op_count

rng = np.random.default_rng(0)

print("== forward pass on a random 1x8x8x8 volume ==")
spec = ConvSpec(in_channels=1, out_channels=4, kernel=(3, 3, 3),
                stride=(1, 1, 1), padding=(1, 1, 1))
x = rng.normal(size=(1, 8, 8, 8))
w = rng.normal(size=(4, 1, 3, 3, 3)) * 0.1
b = np.zeros(4)
y, cache = conv3d(x, w, b, spec)
print(f"conv3d: {x.shape} -> {y.shape}")

pool = PoolSpec(kernel=(2, 2, 2), stride=(2, 2, 2))
p, argmax, _ = maxpool3d(y, pool)
print(f"maxpool3d: {y.shape} -> {p.shape}")

print()
print("== operation counts for a 3x3x3 conv on a 64-voxel cube ==")
probe = ConvSpec(in_channels=1, out_channels=1, kernel=(3, 3, 3))
for mode in ("paper-convention", "standard"):
    oc = op_count(probe, (64, 64, 64), mode=mode)
    print(f"{mode}: {oc.multiplications} multiplications, "
          f"{oc.additions} additions")

print()
print("== finite-difference check of conv3d_param_grads ==")
grad_out = rng.normal(size=y.shape)
grad_w, _ = conv3d_param_grads(cache, grad_out)
eps = 1e-6
worst = 0.0
for _ in range(10):
    idx = tuple(rng.integers(0, s) for s in w.shape)
    w_hi, w_lo = w.copy(), w.copy()
    w_hi[idx] += eps
    w_lo[idx] -= eps
    numeric = (np.sum(conv3d(x, w_hi, b, spec)[0] * grad_out)
               - np.sum(conv3d(x, w_lo, b, spec)[0] * grad_out)) / (2 * eps)
    err = abs(numeric - grad_w[idx]) / max(1.0, abs(numeric))
    worst = max(worst, err)
print(f"worst relative error over 10 random weight coordinates: {worst:.2e}")
assert worst < 1e-6
print("backward pass agrees with central differences")
