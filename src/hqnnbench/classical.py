"""Classical neural layers with explicit reverse-mode gradients.

Everything here is plain numpy. Each layer stores its parameters as
``Param`` objects (value + accumulated gradient) and implements

* ``forward(x, training)``  -> output, caching whatever backward needs,
* ``backward(grad_out)``    -> grad wrt input, accumulating into ``p.grad``;
  ``Conv`` and ``FullyConnected`` take ``input_grad=False`` to accumulate only,
* ``params()``              -> list of trainable ``Param``s.

Arrays use shape (batch, channels, *spatial). A conv block is
Conv -> BatchNorm -> ReLU -> MaxPool(2), built from two layers: ``Conv`` and
``BatchNormReLUPool``.

``Conv`` is dimension-agnostic (1-D/2-D/3-D) with a 3-wide kernel, stride 1
and one zero of padding per side, so it keeps the spatial shape. It is
lowered to BLAS matrix products (im2col + GEMM): a window view of the padded
input is copied into per-sample (C_in * 3**ndim, positions) column matrices;
batched matmuls with the (C_out, C_in * 3**ndim) weight matrix give the
output and the weight gradient. The input gradient needs no columns: it is
one product per kernel tap, the tap's transposed weights times the output
gradient, added onto the padded grid where the tap reads. The column copy
is bounded by ``_CONV_COLS_BYTES``; a batch whose columns would exceed it is
processed in chunks of samples.

``BatchNormReLUPool`` pools before it activates. It computes the batch
statistics and x̂ at full size; only the pooled x̂ goes through γ·x̂ + β and
the ReLU. This gives the values of the three-step stack: per channel,
a ↦ ReLU(γ·a + β) with each step rounded is monotone, non-decreasing for
γ >= 0 and non-increasing for γ < 0, so the largest output of a window is
the output of its largest x̂ where γ >= 0 and of its smallest x̂ where γ < 0.
The layer takes both at once as the first maximum of s·x̂, s = ±1 per
channel, folded into the normalisation's scale (negation is exact). Max
pooling's argmax tie rule holds for s·x̂: the first maximum wins and the
first NaN wins. The values never differ from the stack's, though a zero may
differ in sign. The element a window routes its gradient to can differ only
where distinct x̂ of the window map to the same positive output (γ = 0, or
two x̂ within rounding); a window whose output is 0 passes no gradient either
way. The backward pass takes the ReLU mask and the γ/β gradients at pooled
size, and writes batch normalization's input gradient into the cached
full-size x̂.

The grid's variants are two tables that the builders read: ``PREPROC_CHANNELS``
(each preprocessor's conv-block channels) and ``HEAD_LAYERS`` (each head's
hidden layers and whether a ReLU follows each). ``harness.Model`` chains a
preprocessor, a hybrid's circuit, and a head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class Param:
    """A trainable array paired with its accumulated gradient."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def _uniform_fan_in(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class; subclasses override forward/backward/params."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class FullyConnected(Layer):
    """Affine map on flattened-feature inputs: y = x W^T + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Param(_uniform_fan_in(rng, in_dim, (out_dim, in_dim)))
        self.bias = Param(_uniform_fan_in(rng, in_dim, (out_dim,)))
        self._x: np.ndarray | None = None

    def forward(self, x, training=False):
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad_out, input_grad=True):
        self.weight.grad += grad_out.T @ self._x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value if input_grad else None

    def params(self):
        return [self.weight, self.bias]


# Bytes of im2col columns one ``Conv`` matmul may copy out of the window
# view; larger batches are processed in chunks of samples. The 1-D beats
# layers need at most ~8.8 MB, so they run in one chunk, while a volumetric
# batch would otherwise copy hundreds of MB per layer.
_CONV_COLS_BYTES = 1 << 24


class Conv(Layer):
    """N-dimensional convolution (cross-correlation) with a 3-wide kernel at
    stride 1 and one zero of padding along every spatial axis, so the output
    keeps the input's spatial shape.

    Weight shape is (out_ch, in_ch, 3, 3, ...)."""

    def __init__(self, in_ch: int, out_ch: int, ndim: int, rng: np.random.Generator):
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.ndim = ndim
        fan_in = in_ch * 3**ndim
        self.weight = Param(_uniform_fan_in(rng, fan_in, (out_ch, in_ch) + (3,) * ndim))
        self.bias = Param(_uniform_fan_in(rng, fan_in, (out_ch,)))
        self._xp: np.ndarray | None = None

    def _columns(self, xp: np.ndarray) -> tuple[np.ndarray, list[slice]]:
        """Window view of ``xp`` as (B, C_in, *k, *out) and its batch chunks.

        Reshaping a chunk to (b, C_in * 3**ndim, prod(out)) copies its im2col
        columns; each chunk's copy stays within ``_CONV_COLS_BYTES``.
        """
        nd = self.ndim
        win = sliding_window_view(xp, (3,) * nd, axis=tuple(range(2, 2 + nd)))
        win = win.transpose((0, 1) + tuple(range(2 + nd, 2 + 2 * nd)) + tuple(range(2, 2 + nd)))
        step = max(1, _CONV_COLS_BYTES // (math.prod(win.shape[1:]) * win.itemsize))
        return win, [slice(b, b + step) for b in range(0, xp.shape[0], step)]

    def forward(self, x, training=False):
        if x.ndim != self.ndim + 2 or x.shape[1] != self.in_ch:
            raise ValueError(f"expected (B, {self.in_ch}, {'x'.join('*' * self.ndim)}), got {x.shape}")
        xp = self._xp = np.pad(x, [(0, 0), (0, 0)] + [(1, 1)] * self.ndim)
        win, chunks = self._columns(xp)
        out_sp = x.shape[2:]
        w2 = self.weight.value.reshape(self.out_ch, -1)
        y = np.empty(x.shape[:1] + (self.out_ch,) + out_sp)
        y3 = y.reshape(x.shape[0], self.out_ch, math.prod(out_sp))
        # Each chunk's columns are a temporary of one statement, so two
        # chunks' copies are never alive at once.
        for sl in chunks:
            np.matmul(w2, win[sl].reshape(-1, w2.shape[1], y3.shape[2]), out=y3[sl])
        y += self.bias.value.reshape((1, -1) + (1,) * self.ndim)
        return y

    def backward(self, grad_out, input_grad=True):
        out_sp = grad_out.shape[2:]
        g3 = grad_out.reshape(grad_out.shape[0], self.out_ch, math.prod(out_sp))
        win, chunks = self._columns(self._xp)
        w2 = self.weight.value.reshape(self.out_ch, -1)
        gw2 = self.weight.grad.reshape(w2.shape)
        # As in forward, each chunk's columns are a temporary of one statement,
        # so none is alive beside the input gradient below.
        for sl in chunks:
            gw2 += np.matmul(g3[sl], win[sl].reshape(-1, w2.shape[1], g3.shape[2]).transpose(0, 2, 1)).sum(axis=0)
        self.bias.grad += grad_out.sum(axis=tuple(i for i in range(grad_out.ndim) if i != 1))
        if not input_grad:
            return None
        # One product per kernel tap, added where the tap reads: the tap's
        # (C_out, C_in) weights, transposed, times each sample's grad_out.
        # The taps are copied out contiguous; strided slices multiply slower.
        taps = w2.reshape(self.out_ch, self.in_ch, -1).transpose(2, 0, 1).copy()
        per_tap = grad_out.shape[:1] + (self.in_ch,) + out_sp
        grad_xp = np.zeros_like(self._xp)
        for tap, offset in zip(taps, np.ndindex(*(3,) * self.ndim)):
            sl = tuple(slice(o, o + d) for o, d in zip(offset, out_sp))
            grad_xp[(slice(None), slice(None)) + sl] += np.matmul(tap.T, g3).reshape(per_tap)
        return grad_xp[(slice(None), slice(None)) + (slice(1, -1),) * self.ndim]

    def params(self):
        return [self.weight, self.bias]


class ReLU(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x, training=False):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask


class TanhPi(Layer):
    """pi * tanh(x): squashes preprocessor outputs into (-pi, pi)."""

    def __init__(self):
        self._t: np.ndarray | None = None

    def forward(self, x, training=False):
        self._t = np.tanh(x)
        return math.pi * self._t

    def backward(self, grad_out):
        return grad_out * math.pi * (1.0 - self._t**2)


def _copy_where(dst: np.ndarray, src, where: np.ndarray) -> None:
    """``np.copyto(dst, src, where=where)`` bit for bit, as integer ops on the bits.

    A masked copy branches per element; on the random masks of max pooling it
    measured about 3x slower than these whole-array passes.
    """
    bits = dst.view(np.dtype(f"u{dst.itemsize}"))
    diff = bits ^ np.asarray(src, dtype=dst.dtype).view(bits.dtype)
    diff *= where  # zero where ``where`` does not hold
    bits ^= diff


def _pool_windows(shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """Index of each of the 2**ndim offsets of the non-overlapping 2-windows
    that fit in ``shape`` (batch, channels, *spatial), in row-major order.

    Trailing remainders that do not fill a window are left out, so every
    index selects an array of the pooled shape (batch, channels, *floor(d/2)).
    """
    spatial = shape[2:]
    if any(d < 2 for d in spatial):
        raise ValueError(f"spatial shape {spatial} too small to pool by 2")
    return [
        (slice(None), slice(None)) + tuple(slice(o, o + 2 * (d // 2), 2) for o, d in zip(offset, spatial))
        for offset in np.ndindex(*(2,) * len(spatial))
    ]


def _first_max(x: np.ndarray, windows: list[tuple[slice, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Max over the windows and the offset it came from, with argmax semantics:
    ties keep the first maximum, and the first NaN wins."""
    y = x[windows[0]].copy()
    arg = np.zeros(y.shape, dtype=np.min_scalar_type(len(windows) - 1))
    for j, idx in enumerate(windows[1:], 1):
        # A NaN in y is never replaced; one in xs replaces y.
        xs = x[idx]
        take = ~(xs <= y)
        take &= y == y
        _copy_where(y, xs, take)
        _copy_where(arg, j, take)
    return y, arg


class BatchNormReLUPool(Layer):
    """BatchNorm -> ReLU -> MaxPool(2) as one layer that pools before it activates.

    Batch normalization is per channel, with the biased batch variance in
    training; the running statistics are updated with momentum 0.1 and used
    verbatim in eval mode. eps = 1e-5. Statistics and x̂ are computed at full
    size; only the pooled x̂ goes through γ·x̂ + β and the ReLU. See the module
    docstring for why the outputs are those of the three-step stack.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, channels: int):
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x, training=False):
        windows = _pool_windows(x.shape)
        axes = (0,) + tuple(range(2, x.ndim))
        shape = (1, -1) + (1,) * (x.ndim - 2)
        if training:
            # The same operations as x.mean() and x.var(), sharing x - mean.
            mean = x.mean(axis=axes)
            z = x - mean.reshape(shape)
            var = np.multiply(z, z).sum(axis=axes) / (x.size // x.shape[1])
            self.running_mean += self.MOMENTUM * (mean - self.running_mean)
            self.running_var += self.MOMENTUM * (var - self.running_var)
        else:
            z = x - self.running_mean.reshape(shape)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        gamma = self.gamma.value
        # z = s·x̂: its first max is x̂'s first max where γ >= 0 and its first
        # min where γ < 0. s = ±1 is folded into the scale; negation is exact.
        sign = np.where(gamma < 0, -1.0, 1.0)
        z *= (sign * inv_std).reshape(shape)
        xhat, arg = _first_max(z, windows)
        xhat *= sign.reshape(shape)
        y = gamma.reshape(shape) * xhat
        y += self.beta.value.reshape(shape)
        mask = y > 0
        y *= mask
        self._cache = (z, xhat, mask, windows, arg, sign, inv_std, shape, training)
        return y

    def backward(self, grad_out):
        z, xhat, mask, windows, arg, sign, inv_std, shape, training = self._cache
        self._cache = None  # z and xhat are overwritten below
        g = grad_out * mask
        per_channel = (g.shape[0], g.shape[1], -1)
        sum_g = np.einsum("bcn->c", g.reshape(per_channel))
        sum_gx = np.einsum("bcn,bcn->c", g.reshape(per_channel), xhat.reshape(per_channel))
        self.gamma.grad += sum_gx
        self.beta.grad += sum_g
        # Batch normalization's input gradient is inv_std·(scatter(γ·g) - Σγg/m - x̂·Σ(γg·x̂)/m).
        # The scattered gradient is zero off the selected elements, so both
        # sums are the pooled ones above times γ. It is written into z.
        scale = self.gamma.value * inv_std
        grad_x = z
        if training:
            m = z.size // z.shape[1]
            # z·(s·c1) is c1·x̂, since s = ±1.
            c1 = -(scale * sum_gx) / m
            grad_x *= (sign * c1).reshape(shape)
            grad_x += (-(scale * sum_g) / m).reshape(shape)
        else:
            grad_x.fill(0.0)
        g *= scale.reshape(shape)
        # Add g at the selected elements, one window offset at a time, with
        # xhat as scratch. A NaN in g also reaches the rest of its window; in
        # training mode the sums above spread it to every element anyway.
        for j, idx in enumerate(windows):
            np.multiply(g, arg == j, out=xhat)
            dst = grad_x[idx]
            dst += xhat
        return grad_x

    def params(self):
        return [self.gamma, self.beta]


class Reshape(Layer):
    """Static per-sample reshape, e.g. a flat vector to (1, length), or ``(-1,)`` to flatten."""

    def __init__(self, target: tuple[int, ...]):
        self.target = tuple(target)
        self._shape: tuple[int, ...] | None = None

    def forward(self, x, training=False):
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


def stack_forward(layers: list[Layer], x: np.ndarray, training: bool = False) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x, training=training)
    return x


def stack_backward(layers: list[Layer], grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
    """Accumulate parameter gradients and return the gradient wrt the input.

    With ``input_grad=False`` the pass stops at the lowest layer with
    parameters, which accumulates its parameter gradients only; nothing is
    returned. In every stack the builders make that layer is a ``Conv`` or a
    ``FullyConnected``. Training needs no gradient of the raw samples.
    """
    if input_grad:
        for layer in reversed(layers):
            grad_out = layer.backward(grad_out)
        return grad_out
    lowest = next(i for i, layer in enumerate(layers) if layer.params())
    for layer in reversed(layers[lowest + 1 :]):
        grad_out = layer.backward(grad_out)
    layers[lowest].backward(grad_out, input_grad=False)
    return None


def stack_params(layers: list[Layer]) -> list[Param]:
    return [p for layer in layers for p in layer.params()]


# ---------------------------------------------------------------------------
# Model builders used by the experiment grid.
# ---------------------------------------------------------------------------

# Each preprocessor variant by the output channels of its conv blocks.
PREPROC_CHANNELS = {"conv3": (8, 16, 32), "conv1": (8,), "conv0": ()}
# Each head variant by its number of hidden ``in_dim``-wide affine layers and
# whether a ReLU follows each.
HEAD_LAYERS = {"none": (0, False), "fcnone": (1, False), "fcrelu": (1, True), "mlp": (3, True)}


def build_preprocessor(
    variant: str,
    input_shape: tuple[int, ...],
    latent_dim: int,
    tanh_pi: bool,
    rng: np.random.Generator,
) -> list[Layer]:
    """Feature-extractor builder.

    ``variant`` names a row of ``PREPROC_CHANNELS``: one conv block per
    listed channel count, each Conv -> BatchNorm -> ReLU -> MaxPool(2) (the
    last three as one ``BatchNormReLUPool``). Every variant then flattens
    each sample with ``Reshape((-1,))``, projects it to ``latent_dim`` with a
    fully-connected layer, and applies pi*tanh when requested. Unchanneled
    1-D inputs of shape (length,) are treated as one channel.
    """
    input_shape = tuple(int(d) for d in input_shape)
    if latent_dim <= 0:
        raise ValueError("latent_dim must be positive")
    if variant not in PREPROC_CHANNELS:
        raise ValueError(f"unknown preprocessor variant {variant!r}")
    channels = PREPROC_CHANNELS[variant]
    layers: list[Layer] = []
    shape = input_shape
    if channels and len(shape) == 1:
        layers.append(Reshape((1,) + shape))
        shape = (1,) + shape
    # A block takes the sample's channels, or the previous block's.
    for in_ch, out_ch in zip(shape[:1] + channels, channels):
        layers += [Conv(in_ch, out_ch, len(shape) - 1, rng), BatchNormReLUPool(out_ch)]
    layers.append(Reshape((-1,)))
    # One zero sample through the layers so far gives the projection's width
    # and rejects inputs too small to pool. An eval-mode forward pass draws
    # nothing from ``rng`` and leaves the running statistics alone.
    flat = stack_forward(layers, np.zeros((1,) + input_shape))
    layers.append(FullyConnected(flat.shape[1], latent_dim, rng))
    if tanh_pi:
        layers.append(TanhPi())
    return layers


def build_head(variant: str, in_dim: int, rng: np.random.Generator) -> list[Layer]:
    """Classifier-head builder mapping a feature vector to a single logit.

    ``variant`` names a row of ``HEAD_LAYERS``: that many hidden affine
    layers ``in_dim`` wide, each followed by a ReLU where the row says so,
    then one affine layer to the logit. The head with no hidden layer is
    also the hybrid model's map from circuit outputs to the logit.
    """
    if in_dim < 1:
        raise ValueError("in_dim must be >= 1")
    if variant not in HEAD_LAYERS:
        raise ValueError(f"unknown head variant {variant!r}")
    n_hidden, relu = HEAD_LAYERS[variant]
    layers: list[Layer] = []
    for _ in range(n_hidden):
        layers.append(FullyConnected(in_dim, in_dim, rng))
        if relu:
            layers.append(ReLU())
    layers.append(FullyConnected(in_dim, 1, rng))
    return layers


# ---------------------------------------------------------------------------
# Loss and optimizer.
# ---------------------------------------------------------------------------


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on raw logits; returns (loss, dloss/dlogits).

    Uses the overflow-safe form max(z,0) - z*y + log1p(exp(-|z|)) so large
    positive or negative logits never exponentiate upward.
    """
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs targets {y.shape}")
    n = z.size
    if n == 0:
        raise ValueError("empty batch")
    e = np.exp(-np.abs(z))
    loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(e)))
    # sigmoid without overflow: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below.
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
    grad = (sig - y) / n
    return loss, grad.reshape(np.asarray(logits).shape)


# Adam's hyper-parameters (Kingma & Ba's defaults), the same for every run.
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The parameters one optimizer updates, their first/second moment buffers and the step counter."""

    params: list[Param]
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


def adam_init(params: list[Param]) -> AdamState:
    return AdamState(params, m=[np.zeros_like(p.value) for p in params], v=[np.zeros_like(p.value) for p in params])


def adam_step(state: AdamState) -> None:
    """One Adam update of ``state.params`` from each one's accumulated grad; grads are cleared."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, m, v in zip(state.params, state.m, state.v):
        m += (1.0 - b1) * (p.grad - m)
        v += (1.0 - b2) * (p.grad**2 - v)
        p.value -= ADAM_LR * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.zero_grad()
