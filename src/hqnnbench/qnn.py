"""Variational circuit construction, evaluation and differentiation.

Four circuit families are provided:

* ``build_ang_ry``   -- RY angle encoding, segment by segment, interleaved
  with variational layers of arbitrary rotations and an optional circular
  CNOT entangler.
* ``build_ang_arb``  -- arbitrary-rotation angle encoding (three features
  per qubit per layer) with alternating nearest-neighbor CZ entanglers.
* ``build_amp_gen``  -- amplitude encoding followed by the same variational
  stack as ``build_ang_ry`` at matching register/feature size, so the
  trainable parameter counts are identical.
* ``build_qcnn``     -- amplitude encoding followed by alternating two-qubit
  convolution and pooling stages that halve the active register until one
  qubit remains.

Gradients are computed in adjoint mode: one forward pass, then a single
reverse sweep that un-applies each elementary gate while accumulating
``2 Re <lambda| dG |psi>`` terms. This is exact for noiseless statevector
simulation; the parameter-shift rule is kept around only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    Angle,
    Elem,
    EncodingError,
    Gate,
    MAX_QUBITS,
    Observable,
    apply_cnot,
    apply_cz,
    apply_ry,
    apply_rz,
    elementary_ops,
    expval_batch,
    measurement_diagonals,
)

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class Circuit:
    """An immutable gate program with input/parameter slots and an observable.

    ``encoding`` is ``"angle"`` (inputs consumed by gate slots, register
    starts in |0...0>) or ``"amplitude"`` (register starts as the normalized
    input vector; gates may not read input slots).
    """

    n_qubits: int
    encoding: str
    ops: tuple[Gate, ...]
    n_params: int
    n_inputs: int
    observable: Observable
    _elems: tuple[Elem, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if self.encoding not in ("angle", "amplitude"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.encoding == "amplitude" and self.n_inputs != 1 << self.n_qubits:
            raise ValueError("amplitude-encoded circuits must consume 2**n_qubits inputs")
        elems = []
        for gate in self.ops:
            if any(q >= self.n_qubits for q in gate.targets):
                raise ValueError(f"gate target out of range: {gate}")
            for elem in elementary_ops(gate):
                ang = elem.angle
                if ang is not None:
                    if ang.source == "param" and ang.index >= self.n_params:
                        raise ValueError(f"param slot {ang.index} >= n_params {self.n_params}")
                    if ang.source == "input":
                        if self.encoding == "amplitude":
                            raise ValueError("amplitude-encoded circuits take no input slots")
                        if ang.index >= self.n_inputs:
                            raise ValueError(f"input slot {ang.index} >= n_inputs {self.n_inputs}")
                elems.append(elem)
        if self.observable.kind == "single_z" and self.observable.qubit >= self.n_qubits:
            raise ValueError("observable qubit out of range")
        object.__setattr__(self, "_elems", tuple(elems))

    @property
    def out_dim(self) -> int:
        return self.observable.out_dim(self.n_qubits)


def init_params(n_params: int, rng: np.random.Generator) -> np.ndarray:
    """Draw initial variational parameters, i.i.d. normal with std 0.01*pi."""
    return rng.normal(0.0, 0.01 * math.pi, size=n_params)


# ---------------------------------------------------------------------------
# Circuit builders.
# ---------------------------------------------------------------------------


def _input_or_pad(index: int, n_features: int) -> Angle:
    return Angle.input(index) if index < n_features else Angle.const(0.0)


def _variational_layer(ops: list[Gate], n_qubits: int, p0: int, entangle: bool) -> int:
    """One arbitrary-rotation layer plus optional circular CNOT entangler."""
    p = p0
    for q in range(n_qubits):
        ops.append(Gate.arb(q, Angle.param(p), Angle.param(p + 1), Angle.param(p + 2)))
        p += 3
    if entangle and n_qubits >= 2:
        for q in range(n_qubits):
            ops.append(Gate.cnot(q, (q + 1) % n_qubits))
    return p


def build_ang_ry(
    n_qubits: int,
    latent_dim: int,
    entangle: bool,
    observable: Observable | None = None,
) -> Circuit:
    """RY-encoding circuit: k = ceil(latent/n) embedding+variational layers."""
    if latent_dim <= 0:
        raise ValueError("latent_dim must be positive")
    k = -(-latent_dim // n_qubits)
    ops: list[Gate] = []
    p = 0
    for s in range(k):
        for q in range(n_qubits):
            ops.append(Gate.ry(q, _input_or_pad(s * n_qubits + q, latent_dim)))
        p = _variational_layer(ops, n_qubits, p, entangle)
    return Circuit(
        n_qubits=n_qubits,
        encoding="angle",
        ops=tuple(ops),
        n_params=p,
        n_inputs=latent_dim,
        observable=observable or Observable.global_z(),
    )


def build_ang_arb(
    n_qubits: int,
    latent_dim: int,
    entangle: bool,
    observable: Observable | None = None,
) -> Circuit:
    """Arbitrary-rotation encoding, three features per qubit per layer.

    CZ entanglers alternate between even-start pairs (0,1),(2,3),... and
    odd-start pairs (1,2),(3,4),... from one variational layer to the next;
    the final variational layer applies rotations only.
    """
    if latent_dim <= 0:
        raise ValueError("latent_dim must be positive")
    seg = 3 * n_qubits
    k = -(-latent_dim // seg)
    ops: list[Gate] = []
    p = 0
    for s in range(k):
        for q in range(n_qubits):
            base = s * seg + 3 * q
            ops.append(
                Gate.arb(
                    q,
                    _input_or_pad(base, latent_dim),
                    _input_or_pad(base + 1, latent_dim),
                    _input_or_pad(base + 2, latent_dim),
                )
            )
        for q in range(n_qubits):
            ops.append(Gate.arb(q, Angle.param(p), Angle.param(p + 1), Angle.param(p + 2)))
            p += 3
        if entangle and n_qubits >= 2 and s < k - 1:
            start = 0 if s % 2 == 0 else 1
            for q in range(start, n_qubits - 1, 2):
                ops.append(Gate.cz(q, q + 1))
    return Circuit(
        n_qubits=n_qubits,
        encoding="angle",
        ops=tuple(ops),
        n_params=p,
        n_inputs=latent_dim,
        observable=observable or Observable.global_z(),
    )


def build_amp_gen(
    n_qubits: int,
    entangle: bool,
    observable: Observable | None = None,
) -> Circuit:
    """Amplitude encoding plus the RY-architecture variational stack.

    Layer count equals what ``build_ang_ry`` uses for 2**n features on the
    same register, so both families train the same number of parameters.
    """
    if n_qubits not in (4, 8):
        raise ValueError("amplitude-encoded general circuit supports 4 or 8 qubits")
    latent_dim = 1 << n_qubits
    k = latent_dim // n_qubits
    ops: list[Gate] = []
    p = 0
    for _ in range(k):
        p = _variational_layer(ops, n_qubits, p, entangle)
    return Circuit(
        n_qubits=n_qubits,
        encoding="amplitude",
        ops=tuple(ops),
        n_params=p,
        n_inputs=latent_dim,
        observable=observable or Observable.global_z(),
    )


def build_qcnn(n_qubits: int) -> Circuit:
    """Quantum convolution/pooling stack ending in one measured qubit.

    Each stage applies two-qubit blocks on even-adjacent active pairs, then
    odd-adjacent pairs with wrap-around (skipped when it would repeat the
    even pairing on two remaining qubits), then pools each even-adjacent
    pair into its second qubit, dropping the first from the active set.
    """
    if n_qubits not in (4, 8):
        raise ValueError("qcnn circuit supports 4 or 8 qubits")
    active = list(range(n_qubits))
    ops: list[Gate] = []
    p = 0

    def block(a: int, b: int) -> None:
        nonlocal p
        ops.append(Gate.block(a, b, Angle.param(p), Angle.param(p + 1), Angle.param(p + 2)))
        p += 3

    while len(active) > 1:
        m = len(active)
        for i in range(0, m - 1, 2):
            block(active[i], active[i + 1])
        if m > 2:
            for i in range(1, m, 2):
                block(active[i], active[(i + 1) % m])
        kept = []
        for i in range(0, m, 2):
            block(active[i], active[i + 1])
            kept.append(active[i + 1])
        active = kept
    return Circuit(
        n_qubits=n_qubits,
        encoding="amplitude",
        ops=tuple(ops),
        n_params=p,
        n_inputs=1 << n_qubits,
        observable=Observable.single_z(active[0]),
    )


# ---------------------------------------------------------------------------
# Forward evaluation and adjoint-mode differentiation. The core works on
# batches (inputs shaped (B, n_inputs)); single-sample wrappers squeeze.
# ---------------------------------------------------------------------------


def _check_shapes(circuit: Circuit, x: np.ndarray, params: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != circuit.n_inputs:
        raise ValueError(f"inputs must have {circuit.n_inputs} features, got shape {x.shape}")
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} params, got {params.shape}")


def _encode_batch(circuit: Circuit, x: np.ndarray) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    if circuit.encoding == "amplitude":
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms <= _NORM_EPS):
            bad = int(np.argmin(norms))
            raise EncodingError(f"batch row {bad} has norm {norms[bad]:.3e}, cannot amplitude-encode")
        return (x / norms[:, None]).astype(np.complex128)
    amps = np.zeros((x.shape[0], dim), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def _run_forward(circuit: Circuit, amps: np.ndarray, x: np.ndarray, params: np.ndarray) -> np.ndarray:
    for e in circuit._elems:
        if e.kind == "ry":
            apply_ry(amps, e.q0, e.angle.resolve(x, params))
        elif e.kind == "rz":
            apply_rz(amps, e.q0, e.angle.resolve(x, params))
        elif e.kind == "cnot":
            apply_cnot(amps, e.q0, e.q1)
        else:
            apply_cz(amps, e.q0, e.q1)
    return amps


def qnn_forward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    return_state: bool = False,
):
    """Evaluate the circuit on a batch, returning (B, out_dim) expectations."""
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    _check_shapes(circuit, x, p)
    amps = _run_forward(circuit, _encode_batch(circuit, x), x, p)
    out = expval_batch(amps, circuit.n_qubits, circuit.observable)
    return (out, amps) if return_state else out


def qnn_forward(circuit: Circuit, inputs, params) -> np.ndarray:
    """Single-sample circuit evaluation; returns a 1-D output vector."""
    out = qnn_forward_batch(circuit, np.atleast_2d(np.asarray(inputs, dtype=np.float64)), params)
    return out[0]


def qnn_backward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    upstream: np.ndarray,
    final_amps: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-mode gradients of ``sum_b upstream_b . outputs_b``.

    Returns per-sample input gradients (B, n_inputs) and batch-summed
    parameter gradients (n_params,). ``final_amps`` may pass the state
    from a ``return_state=True`` forward call to skip re-simulation.
    """
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    _check_shapes(circuit, x, p)
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != (x.shape[0], circuit.out_dim):
        raise ValueError(f"upstream must have shape {(x.shape[0], circuit.out_dim)}, got {up.shape}")

    if final_amps is None:
        psi = _run_forward(circuit, _encode_batch(circuit, x), x, p)
    else:
        psi = final_amps.copy()
    diags = measurement_diagonals(circuit.n_qubits, circuit.observable)
    lam = (up @ diags) * psi

    grad_inputs = np.zeros_like(x)
    grad_params = np.zeros(circuit.n_params)
    for e in reversed(circuit._elems):
        if e.kind == "cnot":
            apply_cnot(psi, e.q0, e.q1)
            apply_cnot(lam, e.q0, e.q1)
            continue
        if e.kind == "cz":
            apply_cz(psi, e.q0, e.q1)
            apply_cz(lam, e.q0, e.q1)
            continue
        theta = e.angle.resolve(x, p)
        rot = apply_ry if e.kind == "ry" else apply_rz
        rot(psi, e.q0, np.negative(theta))  # psi is now the pre-gate state
        if e.angle.source != "const":
            # dR(t)/dt = R(t + pi) / 2, which cancels the 2 of 2 Re <lam|dR|psi>
            mu = rot(psi.copy(), e.q0, theta + math.pi)
            g = np.sum(np.conj(lam) * mu, axis=1).real
            if e.angle.source == "param":
                grad_params[e.angle.index] += g.sum()
            else:
                grad_inputs[:, e.angle.index] += g
        rot(lam, e.q0, np.negative(theta))

    if circuit.encoding == "amplitude":
        # lam is now (U^dag M U) psi0; real-direction gradient on the encoded
        # state is 2 Re(lam), chained through x -> x/||x||.
        g0 = 2.0 * lam.real
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        xhat = x / norms
        grad_inputs += (g0 - np.sum(g0 * xhat, axis=1, keepdims=True) * xhat) / norms
    return grad_inputs, grad_params


def qnn_backward(circuit: Circuit, inputs, params, upstream_grad) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample adjoint gradients of ``upstream_grad . outputs``."""
    gx, gp = qnn_backward_batch(
        circuit,
        np.atleast_2d(np.asarray(inputs, dtype=np.float64)),
        params,
        np.atleast_2d(np.asarray(upstream_grad, dtype=np.float64)),
    )
    return gx[0], gp
