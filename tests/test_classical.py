"""Layer-by-layer and end-to-end finite-difference checks of the NN stack."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import hqnnbench.classical as classical
from hqnnbench.classical import (
    BatchNormReLUPool,
    Conv,
    FullyConnected,
    Param,
    ReLU,
    Reshape,
    TanhPi,
    adam_init,
    adam_step,
    bce_with_logits,
    build_head,
    build_preprocessor,
    stack_backward,
    stack_forward,
    stack_params,
)
from hqnnbench.qnn import build_ang_ry
from hqnnbench.harness import Model, ModelConfig, QnnArch

from oracles import (
    batchnorm_reference,
    conv_direct,
    conv_direct_grads,
    fd_scalar_grad,
    maxpool_argmax,
    maxpool_argmax_backward,
)

RTOL = 1e-4
ATOL = 1e-7
POOL_INPUT_KINDS = ("normal", "ties", "int", "nan")


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def conv_fwd_bwd(conv, x, grad_out):
    """(y, grad_w, grad_b, grad_x) of one forward/backward pass from zero grads."""
    for p in conv.params():
        p.zero_grad()
    y = conv.forward(x)
    grad_x = conv.backward(grad_out)
    return y, conv.weight.grad.copy(), conv.bias.grad.copy(), grad_x


def stack_param_count(stack):
    return sum(p.value.size for p in stack_params(stack))


def fd_check_stack(stack, x, rng, n_probe=25):
    """Compare analytic grads of sum(tanh(out)) against central differences.

    tanh keeps the scalar loss bounded and smooth; a random subset of
    parameter coordinates is probed to keep runtime down.
    """

    def loss_fn(xv):
        out = stack_forward(stack, xv, training=True)
        return float(np.tanh(out).sum())

    out = stack_forward(stack, x, training=True)
    grad_out = 1.0 - np.tanh(out) ** 2
    for p in stack_params(stack):
        p.zero_grad()
    grad_x = stack_backward(stack, grad_out)

    fd_x = fd_scalar_grad(loss_fn, x, 1e-4)
    assert np.allclose(grad_x, fd_x, rtol=RTOL, atol=1e-6), "input gradient mismatch"

    for p in stack_params(stack):
        flat = p.value.reshape(-1)
        idxs = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + 1e-4
            lp = loss_fn(x)
            flat[j] = orig - 1e-4
            lm = loss_fn(x)
            flat[j] = orig
            fd = (lp - lm) / 2e-4
            got = p.grad.reshape(-1)[j]
            assert math.isclose(got, fd, rel_tol=RTOL, abs_tol=1e-6), (
                f"param gradient mismatch: {got} vs {fd}"
            )


class TestFullyConnected:
    def test_forward_and_grad(self):
        rng = np.random.default_rng(1)
        fc = FullyConnected(5, 3, rng)
        x = rng.normal(size=(4, 5))
        y = fc.forward(x)
        assert np.allclose(y, x @ fc.weight.value.T + fc.bias.value)
        # grad_W = upstream^T x for a linear layer
        up = rng.normal(size=(4, 3))
        fc.backward(up)
        assert np.allclose(fc.weight.grad, up.T @ x)
        assert np.allclose(fc.bias.grad, up.sum(axis=0))

    def test_fd(self):
        rng = np.random.default_rng(2)
        stack = [FullyConnected(6, 4, rng)]
        fd_check_stack(stack, rng.normal(size=(3, 6)), rng)


class TestConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        conv = Conv(1, 1, 1, rng)
        conv.weight.value[:] = np.array([[[0.0, 1.0, 0.0]]])
        conv.bias.value[:] = 0.0
        x = rng.normal(size=(2, 1, 9))
        assert np.allclose(conv.forward(x), x)

    def test_matches_direct_convolution_2d(self):
        rng = np.random.default_rng(4)
        conv = Conv(2, 3, 2, rng)
        x = rng.normal(size=(1, 2, 5, 5))
        y = conv.forward(x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for o in range(3):
            for i_ in range(5):
                for j in range(5):
                    ref = (xp[0, :, i_ : i_ + 3, j : j + 3] * conv.weight.value[o]).sum()
                    assert abs(y[0, o, i_, j] - ref - conv.bias.value[o]) < 1e-12

    def test_fd_all_dims(self):
        rng = np.random.default_rng(6)
        for ndim, spatial in ((1, (8,)), (2, (5, 5)), (3, (4, 4, 4))):
            conv = Conv(2, 2, ndim, rng)
            stack = [conv]
            fd_check_stack(stack, rng.normal(size=(2, 2) + spatial), rng, n_probe=10)

    # ``Conv``'s one geometry, spelled out for the oracle.
    @pytest.mark.parametrize("kernel_size, padding", [(3, 1)])
    # The last shape has axes of length 1 and 2, which only the padding lets the kernel fit.
    @pytest.mark.parametrize("spatial", [(10,), (6, 7), (5, 4, 6), (1, 2, 1)])
    # One input channel, as in every preprocessor's lowest Conv, and more than one.
    @pytest.mark.parametrize("in_ch", [1, 2])
    def test_matches_direct_oracle(self, in_ch, spatial, kernel_size, padding):
        rng = np.random.default_rng([len(spatial), kernel_size, padding])
        conv = Conv(in_ch, 3, len(spatial), rng)
        assert conv.weight.value.shape[2:] == (kernel_size,) * len(spatial)
        x = rng.normal(size=(2, in_ch) + spatial)
        ref_y = conv_direct(x, conv.weight.value, conv.bias.value, 1, padding)
        grad_out = rng.normal(size=ref_y.shape)
        y, grad_w, grad_b, grad_x = conv_fwd_bwd(conv, x, grad_out)
        ref_w, ref_b, ref_x = conv_direct_grads(x, conv.weight.value, grad_out, 1, padding)
        for got, ref in ((y, ref_y), (grad_w, ref_w), (grad_b, ref_b), (grad_x, ref_x)):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert y.flags.c_contiguous

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_chunked_matches_single_chunk(self, monkeypatch, per_chunk):
        rng = np.random.default_rng(16)
        conv = Conv(2, 3, 2, rng)
        x = rng.normal(size=(5, 2, 7, 6))
        grad_out = rng.normal(size=conv.forward(x).shape)
        whole = conv_fwd_bwd(conv, x, grad_out)
        # room for ``per_chunk`` samples' columns: 5 chunks of 1, or chunks of 2, 2 and 1
        sample_bytes = 2 * 9 * math.prod(grad_out.shape[2:]) * 8
        monkeypatch.setattr(classical, "_CONV_COLS_BYTES", per_chunk * sample_bytes + 8)
        assert len(conv._columns(np.zeros((5, 2, 9, 8)))[1]) == -(-5 // per_chunk)
        chunked = conv_fwd_bwd(conv, x, grad_out)
        for got, ref in zip(chunked, whole):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_chunked_volumetric_peak_is_bounded(self):
        # One sample's columns are 27 * 24**3 doubles (~3 MB), so the batch
        # needs ~36 MB unchunked and runs in chunks of 5 samples.
        rng = np.random.default_rng(17)
        conv = Conv(1, 4, 3, rng)
        x = rng.normal(size=(12, 1, 24, 24, 24))
        grad_out = rng.normal(size=(12, 4, 24, 24, 24))
        assert 12 * 27 * 24**3 * 8 > 2 * classical._CONV_COLS_BYTES
        padded = 12 * 26**3 * 8
        # the padded input, the output, the padded input gradient, and the columns
        limit = classical._CONV_COLS_BYTES + 2 * padded + grad_out.nbytes + (1 << 16)
        tracemalloc.start()
        try:
            conv.forward(x, training=True)
            conv.backward(grad_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"peaked at {peak / 2**20:.2f} MiB, limit {limit / 2**20:.2f} MiB"


def identity_tail(channels=1):
    """The conv-block tail with γ = 1, β = -0 and eval-mode x̂ = x: MaxPool(2) then ReLU."""
    tail = BatchNormReLUPool(channels)
    tail.running_var[:] = 1.0 - tail.EPS  # 1/sqrt(var + eps) is exactly 1
    tail.beta.value[:] = -0.0  # x + -0 is x, signed zeros included
    return tail


class TestBatchNorm:
    """Batch normalization as the conv-block tail computes it."""

    def test_constant_batch_normalizes_to_zero(self):
        tail = BatchNormReLUPool(3)
        tail.gamma.value[:] = [1.0, -1.0, 2.0]  # x̂ != 0 of either sign would show
        y = tail.forward(np.full((8, 3, 4), 2.5), training=True)
        assert np.abs(y).max() < 1e-12

    def test_running_stats_used_in_eval(self):
        rng = np.random.default_rng(8)
        tail = BatchNormReLUPool(2)
        for _ in range(200):
            tail.forward(rng.normal(loc=3.0, scale=2.0, size=(16, 2, 6)), training=True)
        np.testing.assert_allclose(tail.running_mean, 3.0, atol=0.2)
        np.testing.assert_allclose(tail.running_var, 4.0, atol=0.8)
        mean, var = tail.running_mean.copy(), tail.running_var.copy()
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 2, 6))
        y = tail.forward(x, training=False)
        assert_same_bits(tail.running_mean, mean)
        assert_same_bits(tail.running_var, var)
        xhat = (x - mean[:, None]) / np.sqrt(var[:, None] + tail.EPS)
        np.testing.assert_allclose(y, np.maximum(xhat[..., ::2], xhat[..., 1::2]).clip(min=0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(16, 3, 20), (4, 2, 5, 6), (3, 2, 3, 4, 5)])
    def test_bit_identical_to_reference(self, shape, training):
        rng = np.random.default_rng(18)
        tail = BatchNormReLUPool(shape[1])
        tail.gamma.value[:] = rng.normal(1.0, 0.2, size=shape[1])
        tail.beta.value[:] = rng.normal(size=shape[1])
        tail.running_mean[:] = rng.normal(size=shape[1])
        tail.running_var[:] = rng.uniform(0.5, 2.0, size=shape[1])
        x = rng.normal(loc=3.0, scale=2.0, size=shape)
        axes = (0,) + tuple(range(2, x.ndim))
        running = tail.running_mean.copy(), tail.running_var.copy()
        mean, var = (x.mean(axis=axes), x.var(axis=axes)) if training else running

        def batchnorm(grad_out):
            return batchnorm_reference(
                x, tail.gamma.value, tail.beta.value, mean, var, tail.EPS, grad_out, training
            )

        relu = ReLU()
        want, arg = maxpool_argmax(relu.forward(batchnorm(np.zeros(shape))[0]), 2, x.ndim - 2)
        assert_same_bits(tail.forward(x, training=training), want)
        if training:
            running = tuple(r + tail.MOMENTUM * (stat - r) for r, stat in zip(running, (mean, var)))
        assert_same_bits(tail.running_mean, running[0])
        assert_same_bits(tail.running_var, running[1])

        # The tail sums over the pooled elements only, so its gradients differ
        # from the full-size reference sums in the last bits.
        grad_out = rng.normal(size=want.shape)
        _, want_x, want_gamma, want_beta = batchnorm(
            relu.backward(maxpool_argmax_backward(shape, arg, grad_out, 2, x.ndim - 2))
        )
        close = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail.backward(grad_out), want_x, **close)
        np.testing.assert_allclose(tail.gamma.grad, want_gamma, **close)
        np.testing.assert_allclose(tail.beta.grad, want_beta, **close)

    def fd_tail(self, rng):
        tail = BatchNormReLUPool(3)
        tail.gamma.value[:] = [1.3, -0.7, 0.9]
        tail.beta.value[:] = [0.1, -0.2, 0.05]
        tail.forward(rng.normal(size=(16, 3, 8)), training=True)  # running statistics for eval mode
        # distinct values keep each window's selection stable under the FD probe
        return tail, rng.permutation(96).astype(float).reshape(4, 3, 8) * 0.1

    def test_fd_training_mode(self):
        rng = np.random.default_rng(9)
        tail, x = self.fd_tail(rng)
        fd_check_stack([tail], x, rng)

    def test_fd_eval_mode(self):
        rng = np.random.default_rng(10)
        tail, x = self.fd_tail(rng)
        grad_x = tail.backward(np.ones_like(tail.forward(x)))

        def loss_fn(xv):
            return float(tail.forward(xv).sum())

        assert np.allclose(grad_x, fd_scalar_grad(loss_fn, x, 1e-5), rtol=RTOL, atol=ATOL)


class TestActivationsAndPooling:
    def test_relu_masks_negative_gradients(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0, -3.0]])
        assert np.allclose(r.forward(x), [[0.0, 2.0, 0.0]])
        assert np.allclose(r.backward(np.ones((1, 3))), [[0.0, 1.0, 0.0]])

    def test_tanh_pi_saturation_and_range(self):
        t = TanhPi()
        assert abs(t.forward(np.array([1e6]))[0] - math.pi) < 1e-9
        x = np.linspace(-18.0, 18.0, 1001)
        y = t.forward(x)
        assert np.all(y > -math.pi) and np.all(y < math.pi)

    def test_tanh_pi_fd(self):
        rng = np.random.default_rng(11)
        stack = [TanhPi()]
        fd_check_stack(stack, rng.normal(size=(3, 6)), rng)

    def test_maxpool_worked_example(self):
        y = identity_tail().forward(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
        assert np.array_equal(y, [[[3.0, 2.0]]])

    def test_maxpool_floor_semantics(self):
        y = identity_tail().forward(np.arange(7.0).reshape(1, 1, 7))
        assert y.shape == (1, 1, 3)
        assert np.array_equal(y, [[[1.0, 3.0, 5.0]]])

    def test_maxpool_backward_routes_to_argmax(self):
        tail = identity_tail()
        tail.forward(np.array([[[[1.0, 2.0], [4.0, 3.0]]]]))
        g = tail.backward(np.array([[[[5.0]]]]))
        assert np.array_equal(g, [[[[0.0, 0.0], [5.0, 0.0]]]])

    def test_maxpool_fd_away_from_ties(self):
        rng = np.random.default_rng(12)
        # distinct values keep the max selection stable under the FD probe
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8) * 0.1
        stack = [BatchNormReLUPool(1)]
        fd_check_stack(stack, x, rng)

    @pytest.mark.parametrize("kind", POOL_INPUT_KINDS)
    @pytest.mark.parametrize("k", [2])  # the only window the conv-block tail pools by
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_maxpool_matches_argmax_reference_bitwise(self, ndim, k, kind):
        rng = np.random.default_rng([ndim, k, POOL_INPUT_KINDS.index(kind)])
        # every spatial size leaves a remainder that does not fill a window
        spatial = {1: (4 * k + 1,), 2: (2 * k + 1, 3 * k - 1), 3: (k + 1, 2 * k + 1, k + 2)}[ndim]
        shape = (3, 2) + spatial
        if kind == "normal":
            x = rng.normal(size=shape)
        elif kind == "int":
            x = rng.integers(-2, 3, size=shape)
        else:
            x = rng.integers(-2, 3, size=shape).astype(float)
            zeros = x == 0
            x[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())  # ties between signed zeros
            if kind == "nan":
                nans = rng.random(shape) < 0.2
                x[nans] = rng.choice([np.nan, -np.nan], size=nans.sum())
        tail = identity_tail(2)
        y = tail.forward(x)
        pooled, arg = maxpool_argmax(x.astype(float), k, ndim)
        relu = ReLU()
        assert_same_bits(y, relu.forward(pooled))
        grad_out = rng.normal(size=y.shape)
        grad_out[rng.random(y.shape) < 0.2] = -0.0
        want = maxpool_argmax_backward(x.shape, arg, relu.backward(grad_out), k, ndim)
        # The tail adds each gradient to a zeroed buffer, so a -0 arrives as +0.
        assert_same_bits(tail.backward(grad_out), want + 0.0)

    def test_flatten_reshape_roundtrip(self):
        rng = np.random.default_rng(13)
        fl, rs = Reshape((-1,)), Reshape((2, 6))
        x = rng.normal(size=(4, 2, 6))
        flat = fl.forward(x)
        assert flat.shape == (4, 12)
        assert np.array_equal(fl.backward(flat), x)
        assert rs.forward(flat).shape == (4, 2, 6)
        with pytest.raises(ValueError):
            rs.forward(np.zeros((4, 13)))


class TestBatchNormReLUPool:
    """The fused conv-block tail against the three steps it replaces, each
    from outside the layer: ``batchnorm_reference``, ReLU, and max pooling by
    ``maxpool_argmax``/``maxpool_argmax_backward``."""

    # One channel each for γ > 0 and γ < 0, then γ = +0 and -0 with β > 0 and
    # with β < 0. β = -0 keeps a signed zero x̂ signed through the affine map.
    # With γ = ±0 and β > 0 every window ties after the affine map, so which
    # element γ's gradient reads is a free choice there.
    GAMMA = np.array([1.3, -0.7, 0.0, -0.0, 0.0, -0.0])
    BETA = np.array([-0.0, 0.1, 0.4, 0.4, -0.4, -0.4])
    KINDS = ("normal", "ties", "signed_zeros", "nan")
    UNTIED = [0, 1, 4, 5]
    # every spatial size leaves a remainder that does not fill a window
    SPATIAL = {1: (9,), 2: (5, 7), 3: (3, 5, 5)}

    def tail(self, rng, zero_mean):
        c = self.GAMMA.size
        layer = BatchNormReLUPool(c)
        layer.gamma.value[:], layer.beta.value[:] = self.GAMMA, self.BETA
        layer.running_mean[:] = np.zeros(c) if zero_mean else rng.normal(size=c)
        layer.running_var[:] = rng.uniform(0.5, 2.0, size=c)
        return layer

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_the_unfused_stack(self, ndim, training, kind):
        rng = np.random.default_rng([ndim, int(training), self.KINDS.index(kind)])
        shape = (4, self.GAMMA.size) + self.SPATIAL[ndim]
        if kind == "normal":
            x = rng.normal(size=shape)
        else:
            x = rng.integers(-2, 3, size=shape).astype(float)
            if kind != "ties":
                zeros = x == 0
                x[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
            if kind == "nan":
                nans = rng.random(shape) < 0.2
                x[nans] = rng.choice([np.nan, -np.nan], size=nans.sum())
        # A zero running mean keeps the signed zeros signed in eval mode's x̂.
        layer = self.tail(rng, zero_mean=kind == "signed_zeros")
        axes = (0,) + tuple(range(2, x.ndim))
        running = layer.running_mean.copy(), layer.running_var.copy()
        mean, var = (x.mean(axis=axes), x.var(axis=axes)) if training else running

        def batchnorm(grad_out):
            return batchnorm_reference(
                x, self.GAMMA, self.BETA, mean, var, BatchNormReLUPool.EPS, grad_out, training
            )

        relu = ReLU()
        activated = relu.forward(batchnorm(np.zeros(shape))[0])
        want, arg = maxpool_argmax(activated, 2, ndim)
        got = layer.forward(x, training=training)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)  # == elementwise, NaN in the same places
        if training:
            running = tuple(r + 0.1 * (stat - r) for r, stat in zip(running, (mean, var)))
        assert_same_bits(layer.running_mean, running[0])
        assert_same_bits(layer.running_var, running[1])

        grad_out = rng.normal(size=want.shape)
        _, want_x, want_gamma, want_beta = batchnorm(
            relu.backward(maxpool_argmax_backward(shape, arg, grad_out, 2, ndim))
        )
        got_x = layer.backward(grad_out)
        close = dict(rtol=0, atol=1e-12, equal_nan=True)
        np.testing.assert_allclose(got_x, want_x, **close)
        np.testing.assert_allclose(layer.beta.grad, want_beta, **close)
        np.testing.assert_allclose(layer.gamma.grad[self.UNTIED], want_gamma[self.UNTIED], **close)


class TestPreprocessorBuilders:
    def test_conv0_is_flatten_plus_projection(self):
        rng = np.random.default_rng(14)
        stack = build_preprocessor("conv0", (360,), 16, tanh_pi=False, rng=rng)
        assert [type(l).__name__ for l in stack] == ["Reshape", "FullyConnected"]
        assert stack[0].target == (-1,)
        assert stack_forward(stack, np.zeros((2, 360))).shape == (2, 16)
        assert stack_param_count(stack) == 360 * 16 + 16

    def test_conv3_structure_2d(self):
        rng = np.random.default_rng(15)
        stack = build_preprocessor("conv3", (1, 28, 28), 16, tanh_pi=True, rng=rng)
        names = [type(l).__name__ for l in stack]
        assert names == (
            ["Conv", "BatchNormReLUPool"] * 3 + ["Reshape", "FullyConnected", "TanhPi"]
        )
        # 28 -> 14 -> 7 -> 3 spatial, channels 8/16/32
        assert stack[-2].weight.value.shape[1] == 32 * 9
        assert stack_forward(stack, np.zeros((2, 1, 28, 28))).shape == (2, 16)

    def test_conv1_3d(self):
        rng = np.random.default_rng(16)
        stack = build_preprocessor("conv1", (1, 8, 8, 8), 256, tanh_pi=False, rng=rng)
        assert stack[-1].weight.value.shape[1] == 8 * 4**3
        y = stack_forward(stack, rng.normal(size=(2, 1, 8, 8, 8)), training=True)
        assert y.shape == (2, 256)

    def test_unchanneled_1d_input_gets_channel_axis(self):
        rng = np.random.default_rng(17)
        stack = build_preprocessor("conv1", (360,), 16, tanh_pi=False, rng=rng)
        y = stack_forward(stack, rng.normal(size=(3, 360)), training=True)
        assert y.shape == (3, 16)

    def test_too_small_for_three_halvings(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            build_preprocessor("conv3", (1, 6, 6), 16, tanh_pi=False, rng=rng)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_preprocessor("conv2", (360,), 16, tanh_pi=False, rng=np.random.default_rng(0))

    def test_conv3_fd_end_to_end(self):
        rng = np.random.default_rng(19)
        stack = build_preprocessor("conv3", (1, 8, 8), 4, tanh_pi=True, rng=rng)
        fd_check_stack(stack, rng.normal(size=(3, 1, 8, 8)), rng, n_probe=6)


class TestParameterOnlyBackward:
    """``input_grad=False`` stops at the lowest layer with parameters and asks it for
    parameter gradients only; the parameter gradients stay bit-identical."""

    @pytest.mark.parametrize(
        "variant, in_shape",
        [
            ("conv0", (40,)),
            ("conv1", (40,)),
            ("conv3", (1, 12, 12)),
            ("conv3", (2, 8, 8, 8)),
        ],
    )
    def test_parameter_gradients_are_bit_identical(self, variant, in_shape):
        rng = np.random.default_rng(63)
        stack = build_preprocessor(variant, in_shape, 16, tanh_pi=True, rng=rng)
        x = rng.normal(size=(5,) + in_shape)
        grad_out = rng.normal(size=(5, 16))
        grads = []
        for input_grad in (True, False):
            for p in stack_params(stack):
                p.zero_grad()
            stack_forward(stack, x, training=True)
            got = stack_backward(stack, grad_out, input_grad=input_grad)
            assert (got is None) != input_grad
            grads.append([p.grad.copy() for p in stack_params(stack)])
        for full, params_only in zip(*grads):
            assert_same_bits(full, params_only)

    def test_training_step_computes_no_gradient_of_the_samples(self, monkeypatch):
        conv_calls, fc_returns = [], []
        conv_backward, fc_backward = Conv.backward, FullyConnected.backward

        def recording_conv_backward(self, grad_out, input_grad=True):
            conv_calls.append((self, input_grad))
            return conv_backward(self, grad_out, input_grad)

        def recording_fc_backward(self, *args, **kwargs):
            fc_returns.append((self, fc_backward(self, *args, **kwargs)))
            return fc_returns[-1][1]

        monkeypatch.setattr(Conv, "backward", recording_conv_backward)
        monkeypatch.setattr(FullyConnected, "backward", recording_fc_backward)
        rng = np.random.default_rng(64)
        x = rng.normal(size=(4, 1, 12, 12))

        model = Model(ModelConfig("classical", "conv3", 16, head="mlp"), x.shape[1:], rng)
        model.forward(x, training=True)
        model.backward(rng.normal(size=4))
        convs = [layer for layer in model.pre if isinstance(layer, Conv)]
        # only the lowest Conv is asked for its parameter gradients alone
        assert [(id(c), input_grad) for c, input_grad in conv_calls] == [
            (id(c), c is not convs[0]) for c in reversed(convs)
        ]

        fc_returns.clear()
        hybrid = Model(ModelConfig("hybrid", "conv0", 16, qnn=QnnArch("ang_arb", True, "global")), (30,), rng)
        hybrid.forward(rng.normal(size=(4, 30)), training=True)
        hybrid.backward(rng.normal(size=4))
        returned = {id(layer): g for layer, g in fc_returns}
        assert returned[id(hybrid.pre[-1])] is None  # the conv0 projection
        assert returned[id(hybrid.head[0])] is not None  # the head feeds the circuit


class TestHeadBuilders:
    def test_none_head_is_single_affine_map(self):
        stack = build_head("none", 16, rng=np.random.default_rng(20))
        assert stack_param_count(stack) == 17
        assert len(stack) == 1

    def test_fcrelu_param_count(self):
        stack = build_head("fcrelu", 16, rng=np.random.default_rng(21))
        assert stack_param_count(stack) == 16 * 16 + 16 + 16 * 1 + 1  # 289

    def test_fcnone_has_no_activation(self):
        stack = build_head("fcnone", 8, rng=np.random.default_rng(22))
        assert [type(l).__name__ for l in stack] == ["FullyConnected", "FullyConnected"]

    def test_mlp_has_three_hidden_layers(self):
        stack = build_head("mlp", 8, rng=np.random.default_rng(23))
        names = [type(l).__name__ for l in stack]
        assert names == ["FullyConnected", "ReLU"] * 3 + ["FullyConnected"]
        assert stack_forward(stack, np.zeros((3, 8))).shape == (3, 1)

    def test_invalid_variant_and_dim(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError):
            build_head("conv", 4, rng)
        with pytest.raises(ValueError):
            build_head("none", 0, rng)


class TestBceWithLogits:
    def test_worked_example(self):
        loss, grad = bce_with_logits(np.array([0.0]), np.array([1.0]))
        assert abs(loss - math.log(2.0)) < 1e-12
        assert abs(grad[0] + 0.5) < 1e-12

    def test_large_logits_no_overflow(self):
        loss, _ = bce_with_logits(np.array([50.0]), np.array([1.0]))
        assert 0.0 <= loss < 1e-20
        loss, _ = bce_with_logits(np.array([-50.0]), np.array([0.0]))
        assert 0.0 <= loss < 1e-20
        loss, grad = bce_with_logits(np.array([1000.0, -1000.0]), np.array([0.0, 1.0]))
        assert math.isfinite(loss) and np.all(np.isfinite(grad))

    @pytest.mark.parametrize(
        "z, y, loss, grad",
        [
            (0.0, 1.0, math.log(2.0), -0.5),
            (-0.0, 1.0, math.log(2.0), -0.5),
            (0.0, 0.0, math.log(2.0), 0.5),
            (-0.0, 0.0, math.log(2.0), 0.5),
            # exp(-745) is the smallest subnormal: log1p(e) = e and sigmoid(-745) = e
            (745.0, 1.0, math.exp(-745.0), 0.0),
            (745.0, 0.0, 745.0, 1.0),
            (-745.0, 0.0, math.exp(-745.0), math.exp(-745.0)),
            (-745.0, 1.0, 745.0, -1.0),
            (1000.0, 1.0, 0.0, 0.0),
            (-1000.0, 1.0, 1000.0, -1.0),
        ],
    )
    def test_closed_form_at_signed_zero_and_subnormal_exponentials(self, z, y, loss, grad):
        got_loss, got_grad = bce_with_logits(np.array([z]), np.array([y]))
        assert got_loss == loss and got_grad[0] == grad

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(25)
        z = rng.normal(scale=3.0, size=200)
        y = rng.integers(0, 2, size=200).astype(float)
        sig = 1.0 / (1.0 + np.exp(-z))
        naive = float(np.mean(-(y * np.log(sig) + (1 - y) * np.log(1 - sig))))
        loss, grad = bce_with_logits(z, y)
        assert abs(loss - naive) < 1e-9
        assert np.allclose(grad, (sig - y) / 200, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            bce_with_logits(np.zeros(0), np.zeros(0))


class TestAdam:
    def test_first_step_magnitude(self):
        p = Param(np.array([1.0, -2.0]))
        state = adam_init([p])
        p.grad[:] = [0.5, -3.0]
        before = p.value.copy()
        adam_step(state)
        delta = p.value - before
        assert np.allclose(np.abs(delta), 0.001, rtol=1e-6)
        assert np.all(np.sign(delta) == [-1.0, 1.0])

    def test_zero_grad_never_moves(self):
        p = Param(np.array([3.0]))
        state = adam_init([p])
        for _ in range(10):
            adam_step(state)
        assert p.value[0] == 3.0

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(77)
            p = Param(rng.normal(size=4))
            state = adam_init([p])
            for _ in range(20):
                p.grad[:] = rng.normal(size=4)
                adam_step(state)
            return p.value.copy()

        assert np.array_equal(run(), run())

    def test_step_moves_exactly_the_initial_params_and_clears_their_grads(self):
        given, other = [Param(np.zeros(3)), Param(np.ones((2, 2)))], Param(np.zeros(2))
        state = adam_init(given)
        for p in (*given, other):
            p.grad[...] = 1.0
        adam_step(state)
        # a first step moves each element by the learning rate against its grad's sign
        assert np.allclose(given[0].value, -0.001) and np.allclose(given[1].value, 0.999)
        assert all(not p.grad.any() for p in given)
        assert not other.value.any() and other.grad.all()


class TestHybridSeam:
    """Finite differences through preprocessor -> circuit -> head -> loss."""

    def test_chain_rule_across_the_quantum_boundary(self):
        rng = np.random.default_rng(26)
        config = ModelConfig(
            family="hybrid",
            preproc="conv0",
            latent_dim=16,
            qnn=QnnArch("ang_ry", True, "global"),
        )
        model = Model(config, (6,), rng)
        # swap in a small 2-qubit circuit to keep the FD sweep cheap
        model.circuit = build_ang_ry(2, 16, entangle=True)
        model.theta = Param(0.3 * rng.normal(size=model.circuit.n_params))
        x = rng.normal(size=(4, 6))
        y = np.array([0.0, 1.0, 1.0, 0.0])

        def loss_fn():
            return bce_with_logits(model.forward(x, training=False), y)[0]

        loss, grad = bce_with_logits(model.forward(x, training=False), y)
        for p in model.parameters():
            p.zero_grad()
        model.backward(grad)
        checked = 0
        for p in model.parameters():
            flat = p.value.reshape(-1)
            for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + 1e-4
                lp = loss_fn()
                flat[j] = orig - 1e-4
                lm = loss_fn()
                flat[j] = orig
                fd = (lp - lm) / 2e-4
                got = p.grad.reshape(-1)[j]
                assert math.isclose(got, fd, rel_tol=1e-4, abs_tol=1e-7)
                checked += 1
        assert checked >= 24
