"""Kernel-level checks against naive reference implementations."""

import os
import re
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from voxcnn import kernels
from voxcnn.errors import ValidationError
from voxcnn.kernels import (
    ConvSpec,
    PoolSpec,
    concat_channels,
    concat_channels_backward,
    conv3d,
    conv3d_backward,
    conv3d_param_grads,
    dense,
    dense_backward,
    dense_param_grads,
    dropout,
    dropout_backward,
    maxpool3d,
    maxpool3d_backward,
    op_count,
    out_extents,
    relu,
    relu_backward,
    softmax_xent,
)
from voxcnn.models import build_model, forward
from voxcnn.presets import arch_preset

from oracles import (
    conv3d_backward_loops,
    conv3d_loops,
    dense_loops,
    maxpool3d_loops,
    numeric_gradient,
    relative_error,
)


# (C_in, C_out, input extents, kernel, stride, padding): unit and mixed
# strides, non-cubic kernels, padded extents with Hp != Wp, one input
# channel, 1x1x1 kernels, strides larger than the kernel, and padded extents
# that are not multiples of the stride
CONV_CASES = [
    (1, 2, (5, 5, 5), (3, 3, 3), (1, 1, 1), (0, 0, 0)),
    (2, 3, (6, 7, 5), (3, 3, 3), (1, 1, 1), (1, 1, 1)),
    (3, 2, (5, 6, 4), (2, 3, 1), (1, 1, 1), (0, 2, 1)),
    (3, 2, (8, 9, 7), (3, 2, 4), (2, 2, 1), (1, 0, 2)),
    (2, 4, (9, 8, 9), (5, 5, 5), (2, 2, 2), (2, 2, 2)),
    (2, 3, (5, 7, 6), (2, 3, 1), (1, 3, 2), (0, 1, 0)),
    (4, 2, (4, 4, 4), (1, 1, 1), (1, 1, 1), (0, 0, 0)),
    (1, 1, (7, 6, 5), (1, 1, 1), (2, 2, 2), (1, 1, 1)),
    (3, 2, (6, 8, 7), (2, 3, 1), (3, 1, 2), (1, 1, 0)),
    (2, 3, (7, 9, 8), (1, 2, 3), (3, 2, 2), (0, 1, 1)),
]


def shrink_blocks(monkeypatch):
    """Makes every conv GEMM run in column blocks of (n - 1) // 3 of the n
    columns that the kernel blocks (the widest depth phase's panel columns in
    the forward, the grid columns in the backward), through the real block
    helper with a shrunken budget and no minimum width: at least three
    blocks, the last one partial.  Returns the list of every call's blocks."""
    real = kernels._column_blocks
    seen = []
    monkeypatch.setattr(kernels, "_MIN_COLUMNS", 1)

    def blocks(n, rows):
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", (n - 1) // 3 * rows)
        seen.append(real(n, rows))
        return seen[-1]

    monkeypatch.setattr(kernels, "_column_blocks", blocks)
    return seen


class TestOutExtents:
    def test_basic_formula(self):
        """floor((n + 2p - k)/s) + 1 on a hand-checked case."""
        assert out_extents((64, 64, 64), (3, 3, 3), (1, 1, 1), (0, 0, 0)) == (62, 62, 62)
        assert out_extents((157, 189, 156), (7, 7, 7), (2, 2, 2), (3, 3, 3)) == (79, 95, 78)

    def test_stride_floors(self):
        assert out_extents((5, 5, 5), (2, 2, 2), (2, 2, 2), (0, 0, 0)) == (2, 2, 2)

    def test_collapse_rejected(self):
        with pytest.raises(ValidationError):
            out_extents((2, 8, 8), (3, 3, 3), (1, 1, 1), (0, 0, 0))


class TestConv3d:
    def test_matches_loop_reference(self):
        """Vectorised conv equals the seven-loop reference on every case of
        CONV_CASES, and its output is C-contiguous."""
        for cin, cout, sp, k, s, p in CONV_CASES:
            rng = np.random.default_rng(sum(sp) + 7 * cin)
            x = rng.standard_normal((cin,) + sp)
            w = rng.standard_normal((cout, cin) + k)
            b = rng.standard_normal(cout)
            out, _ = conv3d(x, w, b, ConvSpec(cin, cout, k, s, p))
            assert out.flags["C_CONTIGUOUS"]
            assert_allclose(out, conv3d_loops(x, w, b, s, p),
                            rtol=1e-12, atol=1e-12)

    def test_unit_kernel_identity(self):
        """A 1x1x1 kernel with weight one and zero bias reproduces the input."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 5, 6))
        spec = ConvSpec(1, 1, (1, 1, 1))
        out, _ = conv3d(x, np.ones((1, 1, 1, 1, 1)), np.zeros(1), spec)
        assert_allclose(out, x, rtol=0, atol=0)

    def test_gradients_match_finite_differences(self):
        """Analytic input/weight/bias gradients agree with central differences."""
        rng = np.random.default_rng(29)
        spec = ConvSpec(2, 3, (3, 3, 3), (2, 2, 2), (1, 1, 1))
        x = rng.standard_normal((2, 6, 7, 6))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        out, cache = conv3d(x, w, b, spec)
        g = rng.standard_normal(out.shape)
        gx = conv3d_backward(cache, g)
        gw, gb = conv3d_param_grads(cache, g)

        def loss_x(xv):
            o, _ = conv3d(xv, w, b, spec)
            return float((o * g).sum())

        def loss_w(wv):
            o, _ = conv3d(x, wv, b, spec)
            return float((o * g).sum())

        def loss_b(bv):
            o, _ = conv3d(x, w, bv, spec)
            return float((o * g).sum())

        assert relative_error(gx, numeric_gradient(loss_x, x)) < 1e-5
        assert relative_error(gw, numeric_gradient(loss_w, w)) < 1e-5
        assert relative_error(gb, numeric_gradient(loss_b, b)) < 1e-5

    def test_gradients_overlapping_windows(self):
        """Stride below kernel extent makes windows overlap; scatter must add."""
        rng = np.random.default_rng(31)
        spec = ConvSpec(1, 2, (3, 3, 3), (1, 1, 1), (1, 1, 1))
        x = rng.standard_normal((1, 5, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3, 3))
        b = rng.standard_normal(2)
        out, cache = conv3d(x, w, b, spec)
        g = rng.standard_normal(out.shape)
        gx = conv3d_backward(cache, g)

        def loss_x(xv):
            o, _ = conv3d(xv, w, b, spec)
            return float((o * g).sum())

        assert relative_error(gx, numeric_gradient(loss_x, x)) < 1e-5

    @pytest.mark.parametrize("cin, cout, sp, k, s, p", CONV_CASES)
    def test_backward_matches_loop_reference(self, cin, cout, sp, k, s, p):
        """Input, weight and bias gradients equal the loop reference on every
        case of CONV_CASES."""
        rng = np.random.default_rng(sum(sp) + 7 * cin)
        x = rng.standard_normal((cin,) + sp)
        w = rng.standard_normal((cout, cin) + k)
        out, cache = conv3d(x, w, rng.standard_normal(cout),
                            ConvSpec(cin, cout, k, s, p))
        g = rng.standard_normal(out.shape)
        for got, ref in zip((conv3d_backward(cache, g),)
                            + conv3d_param_grads(cache, g),
                            conv3d_backward_loops(x, w, g, s, p)):
            assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cin, cout, sp, k, s, p", CONV_CASES)
    def test_multi_block_matches_loop_reference(self, monkeypatch,
                                                cin, cout, sp, k, s, p):
        """With the column blocks shrunk to at least three per GEMM, the
        last one partial, forward and backward still equal the loop
        references on every case of CONV_CASES: each block reads and writes
        its own column range, and the weight gradient adds up across
        blocks."""
        seen = shrink_blocks(monkeypatch)
        rng = np.random.default_rng(sum(sp) + 7 * cin)
        x = rng.standard_normal((cin,) + sp)
        w = rng.standard_normal((cout, cin) + k)
        b = rng.standard_normal(cout)
        out, cache = conv3d(x, w, b, ConvSpec(cin, cout, k, s, p))
        assert_allclose(out, conv3d_loops(x, w, b, s, p), rtol=1e-12, atol=1e-12)
        g = rng.standard_normal(out.shape)
        for got, ref in zip((conv3d_backward(cache, g),)
                            + conv3d_param_grads(cache, g),
                            conv3d_backward_loops(x, w, g, s, p)):
            assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        assert len(seen) == 3  # the forward, then each backward kernel
        for blocks in seen:
            assert len(blocks) >= 3
            assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]

    @pytest.mark.parametrize("cin, cout, sp, k, s, p", CONV_CASES)
    def test_blocks_below_one_depth_plane(self, monkeypatch,
                                          cin, cout, sp, k, s, p):
        """With the forward's column blocks one column narrower than a depth
        plane (Hq*Wq columns), the forward still equals the loop reference
        on every case of CONV_CASES.  Where a depth phase stacks several
        depth offsets, a block then meets some row group of the product in
        a clipped column range and misses others entirely."""
        rng = np.random.default_rng(sum(sp) + 7 * cin)
        x = rng.standard_normal((cin,) + sp)
        w = rng.standard_normal((cout, cin) + k)
        b = rng.standard_normal(cout)
        spec = ConvSpec(cin, cout, k, s, p)
        _, qh, qw = conv3d(x, w, b, spec)[1][-1]  # the phase extents q
        plane = qh * qw
        real = kernels._column_blocks
        seen = []
        monkeypatch.setattr(kernels, "_MIN_COLUMNS", 1)

        def blocks(n, rows):
            monkeypatch.setattr(kernels, "_BLOCK_VALUES", (plane - 1) * rows)
            seen.append(real(n, rows))
            return seen[-1]

        monkeypatch.setattr(kernels, "_column_blocks", blocks)
        out, _ = conv3d(x, w, b, spec)
        assert_allclose(out, conv3d_loops(x, w, b, s, p), rtol=1e-12, atol=1e-12)
        assert len(seen) == 1
        assert seen[0][0] == (0, plane - 1)

    @pytest.mark.parametrize("shrunk", [False, True], ids=["one-block", "multi-block"])
    @pytest.mark.parametrize("cin, cout, sp, k, s, p", CONV_CASES)
    def test_phase_less_backward_matches_loop_reference(self, monkeypatch, shrunk,
                                                        cin, cout, sp, k, s, p):
        """conv3d_backward, the input-gradient kernel, never reads the stride
        phases: a cache without them gives the loop reference's input
        gradient on every case of CONV_CASES, in one column block and in at
        least three."""
        if shrunk:
            shrink_blocks(monkeypatch)
        rng = np.random.default_rng(sum(sp) + 7 * cin)
        x = rng.standard_normal((cin,) + sp)
        w = rng.standard_normal((cout, cin) + k)
        out, cache = conv3d(x, w, rng.standard_normal(cout),
                            ConvSpec(cin, cout, k, s, p))
        g = rng.standard_normal(out.shape)
        gx = conv3d_backward((None,) + cache[1:], g)
        assert_allclose(gx, conv3d_backward_loops(x, w, g, s, p)[0],
                        rtol=1e-12, atol=1e-12)

    def test_backward_without_input_gradient(self, monkeypatch):
        """conv3d_param_grads, the backward without the input gradient, gives
        the loop reference's weight and bias gradients on every case of
        CONV_CASES, in one column block and in at least three."""
        for shrunk in (False, True):
            with monkeypatch.context() as mp:
                seen = shrink_blocks(mp) if shrunk else []
                for cin, cout, sp, k, s, p in CONV_CASES:
                    rng = np.random.default_rng(sum(sp) + 7 * cin)
                    x = rng.standard_normal((cin,) + sp)
                    w = rng.standard_normal((cout, cin) + k)
                    out, cache = conv3d(x, w, rng.standard_normal(cout),
                                        ConvSpec(cin, cout, k, s, p))
                    g = rng.standard_normal(out.shape)
                    gw, gb = conv3d_param_grads(cache, g)
                    _, rw, rb = conv3d_backward_loops(x, w, g, s, p)
                    assert_allclose(gw, rw, rtol=1e-12, atol=1e-12)
                    assert_allclose(gb, rb, rtol=1e-12, atol=1e-12)
                    if shrunk:
                        assert len(seen[-1]) >= 3

    @pytest.mark.parametrize("spec, sp", [
        (ConvSpec(8, 8, 3, 1, 1), (32, 40, 32)),
        (ConvSpec(3, 8, 5, 2, 2), (32, 40, 32)),
    ], ids=["vgg-toy-conv1_2", "alexnet-toy-stem"])
    def test_peak_memory_below_window_copy(self, spec, sp):
        """One call allocates less than a copy of the C_in*k^3 window of
        every output voxel would take."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((spec.in_channels,) + sp)
        w = rng.standard_normal((spec.out_channels, spec.in_channels)
                                + spec.kernel)
        b = np.zeros(spec.out_channels)
        window = (spec.in_channels * np.prod(spec.kernel)
                  * np.prod(spec.out_spatial(sp)) * 8)
        tracemalloc.start()
        try:
            conv3d(x, w, b, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < window

    def test_peak_memory_holds_one_stacked_block(self):
        """An 8->8 k3 conv at (32, 40, 32) allocates at most its stride
        phases, its output grid, its output, one column block of the panel
        and one of the depth-stacked product, plus 1 MiB for small
        temporaries: a panel over all of a depth phase's columns would
        overshoot that by about 20 MB, a product by about 8 MB."""
        spec, sp = ConvSpec(8, 8, 3, 1, 1), (32, 40, 32)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8,) + sp)
        w = rng.standard_normal((8, 8, 3, 3, 3))
        b = np.zeros(8)
        od, oh, ow = spec.out_spatial(sp)
        qd, qh, qw = (e + 2 for e in sp)
        plane = qh * qw
        width = max(kernels._MIN_COLUMNS, kernels._BLOCK_VALUES // (4 * 8))
        budget = 8 * (8 * qd * plane     # phases
                      + 8 * od * plane   # output grid
                      + 8 * od * oh * ow  # output
                      + 9 * 8 * width    # one panel block
                      + 3 * 8 * width)   # one stacked product block
        tracemalloc.start()
        try:
            conv3d(x, w, b, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget + 2**20

    def test_shape_mismatch_rejected(self):
        spec = ConvSpec(2, 3, (3, 3, 3))
        x = np.zeros((1, 5, 5, 5))
        with pytest.raises(ValidationError):
            conv3d(x, np.zeros((3, 2, 3, 3, 3)), np.zeros(3), spec)

    def test_backward_upstream_shape_checked(self):
        """Both conv backward kernels refuse an upstream gradient that does
        not match the output."""
        spec = ConvSpec(2, 3, (3, 3, 3))
        _, cache = conv3d(np.zeros((2, 5, 5, 5)), np.zeros((3, 2, 3, 3, 3)),
                          np.zeros(3), spec)
        for kernel in (conv3d_backward, conv3d_param_grads):
            with pytest.raises(ValidationError, match="upstream shape"):
                kernel(cache, np.zeros((3, 3, 3, 2)))

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(-3.0, 3.0, allow_nan=False), seed=st.integers(0, 2**16))
    def test_linearity_in_input(self, scale, seed):
        """With zero bias the map is linear: conv(a*x) == a*conv(x)."""
        rng = np.random.default_rng(seed)
        spec = ConvSpec(2, 2, (2, 2, 2))
        x = rng.standard_normal((2, 4, 4, 4))
        w = rng.standard_normal((2, 2, 2, 2, 2))
        b = np.zeros(2)
        out1, _ = conv3d(scale * x, w, b, spec)
        out2, _ = conv3d(x, w, b, spec)
        assert_allclose(out1, scale * out2, rtol=1e-9, atol=1e-9)


class TestMaxPool3d:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        cases = [
            dict(c=1, sp=(6, 6, 6), k=(2, 2, 2), s=(2, 2, 2), p=(0, 0, 0)),
            dict(c=3, sp=(7, 8, 9), k=(3, 3, 3), s=(2, 2, 2), p=(0, 0, 0)),
            dict(c=2, sp=(5, 6, 7), k=(3, 3, 3), s=(2, 2, 2), p=(1, 1, 1)),
            dict(c=2, sp=(6, 5, 4), k=(3, 2, 2), s=(1, 2, 1), p=(1, 0, 1)),
        ]
        for c in cases:
            x = rng.standard_normal((c["c"],) + c["sp"])
            spec = PoolSpec(c["k"], c["s"], c["p"])
            out, argmax, _ = maxpool3d(x, spec)
            ref_out, ref_arg = maxpool3d_loops(x, c["k"], c["s"], c["p"])
            assert_array_equal(out, ref_out)
            assert_array_equal(argmax, ref_arg)

    def test_tie_takes_first_in_window_order(self):
        """Equal maxima resolve to the earliest row-major window position."""
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[7.0, 7.0], [7.0, 7.0]]
        _, argmax, _ = maxpool3d(x, PoolSpec((1, 2, 2), (1, 1, 1)))
        assert argmax[0, 0, 0, 0] == 0

    def test_padding_never_wins(self):
        """All-negative input: -inf padding must not be selected as a max."""
        x = -np.abs(np.random.default_rng(5).standard_normal((1, 4, 4, 4))) - 1.0
        out, argmax, _ = maxpool3d(x, PoolSpec((3, 3, 3), (2, 2, 2), (1, 1, 1)))
        assert np.isfinite(out).all()
        assert argmax.min() >= 0
        assert argmax.max() < x.size

    def test_backward_routes_to_argmax(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 6, 7, 6))
        spec = PoolSpec((3, 3, 3), (2, 2, 2), (1, 1, 1))
        out, argmax, cache = maxpool3d(x, spec)
        g = rng.standard_normal(out.shape)
        gx = maxpool3d_backward(cache, g)
        ref = np.zeros(x.size)
        np.add.at(ref, argmax.ravel(), g.ravel())
        assert_allclose(gx, ref.reshape(x.shape), rtol=0, atol=0)
        assert gx.sum() == pytest.approx(g.sum())

    def test_padding_must_stay_below_kernel(self):
        with pytest.raises(ValidationError):
            PoolSpec((2, 2, 2), (2, 2, 2), (2, 2, 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_output_bounded_by_input_max(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 5, 5, 5))
        out, _, _ = maxpool3d(x, PoolSpec((3, 3, 3), (2, 2, 2), (1, 1, 1)))
        assert out.max() <= x.max()
        assert out.min() >= x.min()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_tie_heavy_inputs_match_loop_reference(self, data):
        """Integer-valued and ReLU-style inputs, full of ties, give the loop
        oracle's output and first-occurrence argmax exactly, for kernels
        1-3, strides 1-3 (also larger than the kernel) and padding below the
        kernel.  The backward equals np.add.at over the oracle's argmax;
        integer gradients keep the sums exact."""
        k = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="kernel")
        s = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="stride")
        p = tuple(data.draw(st.integers(0, kk - 1), label="padding") for kk in k)
        sp = tuple(data.draw(st.integers(max(1, kk - 2 * pp), 8), label="extent")
                   for kk, pp in zip(k, p))
        shape = (data.draw(st.integers(1, 2), label="channels"),) + sp
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        if data.draw(st.booleans(), label="relu"):
            x = np.maximum(rng.standard_normal(shape), 0.0)
        else:
            x = rng.integers(-2, 3, shape).astype(np.float64)
        out, argmax, cache = maxpool3d(x, PoolSpec(k, s, p))
        ref_out, ref_arg = maxpool3d_loops(x, k, s, p)
        assert_array_equal(out, ref_out)
        assert_array_equal(argmax, ref_arg)
        bare = maxpool3d(x, PoolSpec(k, s, p), argmax=False)
        assert np.array_equal(bare[0], out) and bare[1:] == (None, None)
        g = rng.integers(-3, 4, out.shape).astype(np.float64)
        ref = np.zeros(x.size)
        np.add.at(ref, ref_arg.ravel(), g.ravel())
        assert_array_equal(maxpool3d_backward(cache, g), ref.reshape(x.shape))

    @pytest.mark.parametrize("spec", [
        PoolSpec(3, 2, 1),
        PoolSpec(3, 1, 1),
        PoolSpec((2, 3, 1), (3, 1, 2), (1, 2, 0)),
    ])
    def test_nan_window_takes_first_nan(self, spec):
        """A window holding NaN outputs NaN, and its argmax names the
        window's first NaN in row-major order, a real voxel; other windows
        match the loop oracle."""
        rng = np.random.default_rng(3)
        x = rng.integers(-2, 3, (2, 7, 6, 5)).astype(np.float64)
        x[rng.random(x.shape) < 0.08] = np.nan
        out, argmax, _ = maxpool3d(x, spec)
        ref_out, ref_arg = maxpool3d_loops(x, spec.kernel, spec.stride,
                                           spec.padding)
        assert argmax.min() >= 0 and argmax.max() < x.size
        bare = maxpool3d(x, spec, argmax=False)
        assert np.array_equal(bare[0], out, equal_nan=True)
        assert bare[1:] == (None, None)
        for at in np.ndindex(out.shape):
            corner = [o * t - q for o, t, q in
                      zip(at[1:], spec.stride, spec.padding)]
            window = []
            for offset in np.ndindex(spec.kernel):
                pos = tuple(c + o for c, o in zip(corner, offset))
                if all(0 <= v < e for v, e in zip(pos, x.shape[1:])):
                    window.append(np.ravel_multi_index((at[0],) + pos, x.shape))
            nans = [f for f in window if np.isnan(x.flat[f])]
            if nans:
                assert np.isnan(out[at]) and argmax[at] == nans[0]
            else:
                assert out[at] == ref_out[at] and argmax[at] == ref_arg[at]
        assert np.isnan(out).any() and not np.isnan(out).all()

    @pytest.mark.parametrize("spec", [
        PoolSpec(2, 1, 1),
        PoolSpec(3, 2, 1),
        PoolSpec((2, 3, 2), (1, 2, 3), (1, 2, 1)),
    ])
    def test_all_minus_inf_window_names_first_real_voxel(self, spec):
        """A window whose real voxels are all -inf names its first real
        voxel in row-major order, never a padded position, and the backward
        routes each gradient there."""
        x = np.full((2, 3, 4, 3), -np.inf)
        x[1, 2, 3, 2] = 1.0
        out, argmax, cache = maxpool3d(x, spec)
        ref_out, _ = maxpool3d_loops(x, spec.kernel, spec.stride, spec.padding)
        assert_array_equal(out, ref_out)
        for at in np.ndindex(out.shape):
            first = [max(o * t - q, 0) for o, t, q in
                     zip(at[1:], spec.stride, spec.padding)]
            if out[at] == -np.inf:
                assert argmax[at] == np.ravel_multi_index([at[0]] + first,
                                                          x.shape)
        assert_array_equal(x.flat[argmax], out)
        g = np.ones(out.shape)
        ref = np.zeros(x.size)
        np.add.at(ref, argmax.ravel(), g.ravel())
        assert_array_equal(maxpool3d_backward(cache, g), ref.reshape(x.shape))
        assert argmax.min() >= 0 and argmax.max() < x.size

    @pytest.mark.parametrize("shape,stride", [
        ((16, 8, 10, 8), 1),    # an inception pool
        ((8, 32, 40, 32), 2),   # vgg16-3d-toy pool1
    ])
    def test_peak_memory_below_window_copy(self, shape, stride):
        """One call peaks below the k^3*|output|*8 bytes that a copy of every
        pooling window would take."""
        x = np.maximum(np.random.default_rng(7).standard_normal(shape), 0.0)
        spec = PoolSpec(3, stride, 1)
        window = 27 * shape[0] * np.prod(spec.out_spatial(shape[1:])) * 8
        tracemalloc.start()
        try:
            maxpool3d(x, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < window


class TestDense:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(11)
        w = rng.standard_normal((4, 11))
        b = rng.standard_normal(4)
        out, _ = dense(x, w, b)
        assert_allclose(out, dense_loops(x, w, b), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(7)
        w = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        out, cache = dense(x, w, b)
        g = rng.standard_normal(3)
        gx = dense_backward(cache, g)
        gw, gb = dense_param_grads(cache, g)

        assert relative_error(gx, numeric_gradient(
            lambda xv: float((dense(xv, w, b)[0] * g).sum()), x)) < 1e-5
        assert relative_error(gw, numeric_gradient(
            lambda wv: float((dense(x, wv, b)[0] * g).sum()), w)) < 1e-5
        assert relative_error(gb, numeric_gradient(
            lambda bv: float((dense(x, w, bv)[0] * g).sum()), b)) < 1e-5

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValidationError):
            dense(np.zeros(5), np.zeros((3, 4)), np.zeros(3))

    def test_backward_without_input(self):
        """dense_backward, the input-gradient kernel, never reads the input:
        a cache without it gives W^T g, and dense_param_grads gives the
        outer product g x^T and g, each bit for bit."""
        rng = np.random.default_rng(41)
        x, w, g = rng.standard_normal(6), rng.standard_normal((2, 6)), rng.standard_normal(2)
        _, cache = dense(x, w, np.zeros(2))
        assert_array_equal(dense_backward((None, cache[1]), g), w.T @ g)
        gw, gb = dense_param_grads(cache, g)
        assert_array_equal(gw, np.outer(g, x))
        assert_array_equal(gb, g)

    def test_upstream_shape_checked(self):
        """Both dense backward kernels refuse an upstream gradient that does
        not match the output."""
        _, cache = dense(np.zeros(6), np.zeros((2, 6)), np.zeros(2))
        for kernel in (dense_backward, dense_param_grads):
            with pytest.raises(ValidationError, match="upstream shape"):
                kernel(cache, np.zeros(3))


class TestRelu:
    def test_forward_and_backward(self):
        x = np.array([-2.0, -0.0, 0.0, 1.5, 3.0])
        out, cache = relu(x)
        assert_array_equal(out, [0.0, 0.0, 0.0, 1.5, 3.0])
        g = np.ones_like(x)
        assert_array_equal(relu_backward(cache, g), [0.0, 0.0, 0.0, 1.0, 1.0])


    def test_without_mask(self):
        """mask=False gives the same output bit for bit and no mask."""
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
        out, mask = relu(x, mask=False)
        assert mask is None
        assert_array_equal(out, relu(x)[0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        """An eval-mode forward hands every dropout layer rate 0, whatever
        rate and generator it is given: each returns its input and records
        no mask, and the output is the default forward's bit for bit."""
        model = build_model(arch_preset("alexnet3d-micro"), seed=0)
        x = np.random.default_rng(2).standard_normal((3, 9, 9, 9))
        probs, cache = forward(model, x, mode="eval", rng=7, dropout_rate=0.5)
        assert_array_equal(probs, forward(model, x)[0])
        drops = [c for l, c in zip(model.layers, cache.entries)
                 if l.kind == "dropout"]
        assert drops and all(c is None for c in drops)

    def test_zero_rate_passes_through(self):
        """Rate 0 returns its input and no mask, and the backward hands
        the upstream gradient on unchanged."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4))
        out, mask = dropout(x, 0.0, rng=7)
        assert out is x and mask is None
        g = rng.standard_normal((3, 4))
        assert dropout_backward(mask, g) is g

    def test_train_scaling_preserves_expectation(self):
        """Survivors are scaled by 1/(1-rate); sample mean stays near the raw mean."""
        x = np.ones(200_000)
        out, mask = dropout(x, 0.4, rng=123)
        kept = mask > 0
        assert abs(kept.mean() - 0.6) < 0.01
        assert_allclose(out[kept], 1.0 / 0.6, rtol=1e-12)
        assert abs(out.mean() - 1.0) < 0.01

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64)
        out, mask = dropout(x, 0.3, rng=5)
        g = rng.standard_normal(64)
        assert_allclose(dropout_backward(mask, g), g * mask, rtol=0, atol=0)

    def test_rate_one_rejected(self):
        with pytest.raises(ValidationError):
            dropout(np.zeros(3), 1.0)


class TestConcat:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal((4, 3, 3, 3))
        c = rng.standard_normal((1, 3, 3, 3))
        out, widths = concat_channels([a, b, c])
        assert out.shape == (7, 3, 3, 3)
        assert widths == (2, 4, 1)
        parts = concat_channels_backward(widths, out)
        assert_array_equal(parts[0], a)
        assert_array_equal(parts[1], b)
        assert_array_equal(parts[2], c)

    def test_mismatched_spatial_rejected(self):
        with pytest.raises(ValidationError):
            concat_channels([np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2, 2))])


class TestSoftmaxXent:
    def test_probabilities_and_loss(self):
        """p = exp(z)/sum(exp(z)); loss = -ln(p_true); grad = p - onehot."""
        logits = np.array([1.0, 2.0, 3.0])
        probs, loss, grad = softmax_xent(logits, 2)
        e = np.exp(logits - 3.0)
        assert_allclose(probs, e / e.sum(), rtol=1e-12)
        assert loss == pytest.approx(-np.log(probs[2]), rel=1e-12)
        expected = probs.copy()
        expected[2] -= 1.0
        assert_allclose(grad, expected, rtol=1e-12)

    def test_large_logits_stay_finite(self):
        probs, loss, _ = softmax_xent(np.array([1000.0, 1001.0, 999.0]), 0)
        assert np.isfinite(probs).all()
        assert np.isfinite(loss)
        assert probs.sum() == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        logits = rng.standard_normal(5)
        _, _, grad = softmax_xent(logits, 3)
        num = numeric_gradient(lambda z: softmax_xent(z, 3)[1], logits)
        assert relative_error(grad, num) < 1e-7

    def test_probs_only_mode(self):
        probs, loss, grad = softmax_xent(np.array([0.5, -0.5]))
        assert loss is None and grad is None
        assert probs.sum() == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-50, 50, allow_nan=False), seed=st.integers(0, 2**16))
    def test_shift_invariance(self, shift, seed):
        """Adding a constant to every logit leaves the distribution unchanged."""
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(4)
        p1, _, _ = softmax_xent(z)
        p2, _, _ = softmax_xent(z + shift)
        assert_allclose(p1, p2, rtol=1e-9, atol=1e-12)


class TestOpCount:
    def test_planar_kernel_tally(self):
        """3x3x1 kernel over a 64x64x1 volume: 34596 mults, 3844 adds."""
        spec = ConvSpec(1, 1, (3, 3, 1))
        oc = op_count(spec, (64, 64, 1))
        assert oc.multiplications == 34596
        assert oc.additions == 3844

    def test_cubic_kernel_tally(self):
        """3x3x3 kernel over a 64x64x64 volume: 6434856 mults, 238328 adds."""
        spec = ConvSpec(1, 1, (3, 3, 3))
        oc = op_count(spec, (64, 64, 64))
        assert oc.multiplications == 6434856
        assert oc.additions == 238328

    def test_channels_scale_multiplications(self):
        base = op_count(ConvSpec(1, 1, (3, 3, 3)), (8, 8, 8))
        wide = op_count(ConvSpec(4, 5, (3, 3, 3)), (8, 8, 8))
        assert wide.multiplications == base.multiplications * 20
        assert wide.additions == base.additions * 5

    def test_standard_mode_counts_accumulation(self):
        """Full-chain count: C_out*(outVox*(C_in*kvol - 1) + outVox) additions."""
        spec = ConvSpec(2, 3, (2, 2, 2))
        oc = op_count(spec, (4, 4, 4), mode="standard")
        out_vox = 27
        assert oc.multiplications == out_vox * 8 * 2 * 3
        assert oc.additions == 3 * (out_vox * (2 * 8 - 1) + out_vox)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            op_count(ConvSpec(1, 1, (3, 3, 3)), (8, 8, 8), mode="exact")

    def test_counts_beyond_int64_are_exact(self):
        """Counts past 2**63 are exact integers, not wrapped to 64 bits."""
        n = 3_000_000
        oc = op_count(ConvSpec(64, 64, 3, 1, 1), (n,) * 3, "standard")
        assert oc.multiplications == n ** 3 * 27 * 64 * 64
        assert oc.additions == 64 * (n ** 3 * (64 * 27 - 1) + n ** 3)


# Four vgg16-3d-toy eval forwards in a fresh process; prints the minor page
# faults each one took.
FORWARD_FAULTS = """
import resource
import numpy as np
import voxcnn
from voxcnn.models import build_model, forward
from voxcnn.presets import arch_preset
model = build_model(arch_preset("vgg16-3d-toy"), seed=0)
x = np.random.default_rng(0).random(model.config.input_shape)
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    forward(model, x, mode="eval", record="none")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are set on glibc only")
def test_repeated_forwards_reuse_freed_memory():
    """With the allocator thresholds voxcnn.kernels sets, a forward's
    temporaries reuse memory freed by the forward before: every forward
    after the first takes under 100 minor page faults (about 2,900 each
    under glibc's own dynamic thresholds)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", FORWARD_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = [int(v) for v in done.stdout.split()]
    assert len(faults) == 4
    assert max(faults[1:]) < 100, faults


# (id, call, message of its ValidationError): one row per guard of the
# geometry types and the kernels that no test above reaches
GUARDS = [
    ("triple", lambda: ConvSpec(1, 1, (3, 3)), "expected 3 extents, got (3, 3)"),
    ("conv-channels", lambda: ConvSpec(0, 1, 3),
     "channel counts must be positive"),
    ("conv-kernel", lambda: ConvSpec(1, 1, 0),
     "kernel and stride extents must be positive"),
    ("conv-padding", lambda: ConvSpec(1, 1, 3, 1, -1),
     "padding must be non-negative"),
    ("pool-stride", lambda: PoolSpec(3, 0),
     "kernel and stride extents must be positive"),
    ("pool-padding", lambda: PoolSpec(3, 1, -1), "padding must be non-negative"),
    ("empty-input", lambda: out_extents((4, 0, 4), (1, 1, 1), (1, 1, 1),
                                        (0, 0, 0)),
     "layer: input height extent 0 < 1"),
    ("conv-rank", lambda: conv3d(np.zeros((2, 4, 4)), np.zeros((3, 2, 1, 1, 1)),
                                 np.zeros(3), ConvSpec(2, 3, 1)),
     "input must be 4-d (C, D, H, W), got shape (2, 4, 4)"),
    ("conv-weights", lambda: conv3d(np.zeros((2, 4, 4, 4)),
                                    np.zeros((3, 2, 3, 3, 3)), np.zeros(3),
                                    ConvSpec(2, 3, 1)),
     "conv3d: weights shape (3, 2, 3, 3, 3) != expected (3, 2, 1, 1, 1)"),
    ("conv-bias", lambda: conv3d(np.zeros((2, 4, 4, 4)),
                                 np.zeros((3, 2, 1, 1, 1)), np.zeros(2),
                                 ConvSpec(2, 3, 1)),
     "conv3d: bias shape (2,) != (3,)"),
    ("dense-rank", lambda: dense(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(3)),
     "dense: input must be 1-d, got shape (2, 2)"),
    ("dense-bias", lambda: dense(np.zeros(2), np.zeros((3, 2)), np.zeros(2)),
     "dense: bias shape (2,) != (3,)"),
    ("concat-none", lambda: concat_channels([]),
     "concat_channels: need at least one input"),
    ("concat-upstream", lambda: concat_channels_backward(
        (1, 2), np.zeros((4, 2, 2, 2))),
     "concat backward: upstream has 4 channels, expected 3"),
    ("softmax-rank", lambda: softmax_xent(np.zeros((2, 2))),
     "softmax: logits must be 1-d, got (2, 2)"),
    ("softmax-class", lambda: softmax_xent(np.zeros(3), 3),
     "softmax: class 3 out of range for 3 logits"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in GUARDS])
def test_guard_refuses(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
