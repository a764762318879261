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
  qubit remains; each two-qubit block is RZ/RY rotations around three CNOTs.

Each ``Circuit`` is compiled once, when it is built, into a program of
fused gates (Jones & Gacon, arXiv:2009.02823; the fusion follows qsim):

* every run of RY/RZ rotations on one qubit becomes one 2x2 unitary. The
  run reaches across gates on other qubits, so an encoding rotation and the
  variational ARB after it on the same qubit fuse into one gate;
* every maximal run of CNOT/CZ gates becomes one signed basis permutation,
  ``out[i] = sign[i] * a[perm[i]]``.

The fused gates between two permutations form a ``Stage``: one ``(G, L)``
table of RY and RZ steps, gate by step, whose ``(2, 2, L, G, Bx)`` step
matrices are built in one pass and multiplied along the step axis. The
batch extent ``Bx`` belongs to the circuit, not to a gate: it is B when the
circuit reads input slots, so every gate of such a circuit is per-sample,
and 1 when it reads none.

The state's layout is fixed per circuit, from what it reads. A circuit that
reads input slots (Ang-RY, Ang-Arb: data re-uploading in every layer) keeps
its state as ``(B, 2**n)`` rows from encoding to readout
(``statevec.apply_rows``): sample-major storage when its blocks may span
``_SAMPLE_MAJOR_QUBITS`` or more qubits, else the transposed view of
``(2**n, B)`` storage. A circuit that reads none (Amp-Gen, QCNN: the data
enter once, as the start state) keeps ``(2**n, B)`` columns
(``statevec.apply_gate``). Signed permutations act along the basis axis of
the storage.

Every stage is a *Kronecker layer*: its gates act on distinct qubits and
commute. They are applied as blocks of adjacent qubits, each one d x d
unitary (d <= 16), the Kronecker product of its members' ``(2, 2, Bx)``
matrices with the identity on any qubit in the block's run that no member
occupies: one matrix per sample in a circuit on rows, one for the batch in a
circuit on columns. Blocks of a circuit on columns span up to ``_KRON_QUBITS``
qubits; blocks of a circuit on rows at most half the register, so at n = 8 a
data re-uploading layer is two 16x16 blocks per sample, which the stage
applies to each sample's 16x16 amplitude matrix ``Psi_b`` as
``U_b Psi_b V_b^T``.

Gradients are computed in adjoint mode: one forward pass, then a single
reverse sweep that un-applies each fused gate ``U`` on the state ``psi``
and on ``mu = conj(lambda)`` (with ``U^T``, so no conjugate copies are
made). Before un-applying, it takes one reduced overlap per gate,
``G_ij = sum_rest conj(lambda_i) psi_j`` on the gate's qubit, with the
circuit's batch extent: per sample on rows, summed over the batch on
columns. With ``U = S_k R_k P_k`` for rotation ``k``, every angle gradient
of the gate follows from ``G`` alone::

    g_k = Re tr(W_k Gamma_k),   W_k = S_k^H G^T S_k,   Gamma_k = 2 dR_k/dt R_k^-1

where ``Gamma_k`` is the constant RY(pi) or RZ(pi), so an RY step's
gradient is ``Re(W_01 - W_10)`` and an RZ step's ``Im(W_00 - W_11)``. Every
overlap of a stage is taken at its output, before any un-apply, and a stage
with no parameter or input slot takes none: one d x d overlap per block
(for per-sample blocks ``M_b P_b^T`` and ``M_b^T P_b`` on the sample
matrices of ``mu`` and ``psi``), from which each member's 2x2 overlap is the
partial trace over the block's other qubits (un-applying a unitary on
another qubit from both states cancels in ``sum_rest``). A per-sample block
is un-applied as ``U_b^H P_b conj(V_b)`` from ``psi`` and ``U_b^T M_b V_b``
from ``mu``. The sweep does not un-apply a circuit's first op when it is a
stage: nothing reads ``psi`` afterwards, and ``mu`` is only read for the
input gradient of an amplitude-encoded circuit. All of this is exact for
noiseless statevector simulation; the parameter-shift rule is kept around
only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    Angle,
    EncodingError,
    Gate,
    GateKind,
    MAX_QUBITS,
    Observable,
    apply_gate,
    apply_rows,
    apply_signed_perm,
    expval_batch,
    gate_overlap,
    measurement_diagonals,
    rows_overlap,
)

_NORM_EPS = 1e-12

# ---------------------------------------------------------------------------
# Compilation into fused gates.
# ---------------------------------------------------------------------------

# A fused gate is a product of "ry" and "rz" steps on one qubit, each reading one angle.
_ROTATION_STEPS = {GateKind.RY: ("ry",), GateKind.RZ: ("rz",), GateKind.ARB: ("rz", "ry", "rz")}


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix-major product: ``(d, d, ...) @ (d, d, ...)`` over the leading axes."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, a.shape[0]):
        out += a[:, j, None] * b[None, j]
    return out


def _product(mats: np.ndarray) -> np.ndarray:
    """Each gate's unitary ``(2, 2, G, Bx)`` from step matrices ``(2, 2, L, G, Bx)``, steps in application order."""
    u = mats[:, :, 0]
    for r in range(1, mats.shape[2]):
        u = _mm(mats[:, :, r], u)
    return u


@dataclass(frozen=True)
class FusedGate:
    """One compiled gate: the product of the rotation ``steps`` on ``qubit``."""

    qubit: int
    steps: tuple[str, ...]
    angles: tuple[Angle, ...]  # one per step, in application order


# Qubits per Kronecker block. Amp-Gen 8 fwd+bwd at B=256 on 2 cores, median
# of 12 interleaved rounds: 284 ms with 1 (every gate its own pass), 173 ms
# with 2, 150 ms with 3, 145 ms with 4 and 137 ms with 5, the last three
# within each other's quartiles; all 8 qubits in one 256x256 block took
# 293 ms. Four qubits split an 8-qubit register into two 16x16 blocks.
_KRON_QUBITS = 4
_I2 = np.eye(2, dtype=np.complex128)[:, :, None]


# A circuit that reads inputs keeps sample-major rows when its blocks may
# span this many qubits or more, and runs them as stacked BLAS matmuls;
# smaller blocks run elementwise on the batch-contiguous (2**n, B) storage.
# One block product at B=256 on 2 cores: d=4 took 70 us stacked against 40 us
# elementwise, d=8 100-170 us against 140-300 us.
_SAMPLE_MAJOR_QUBITS = 3


def _block_width(n_qubits: int, rows: bool) -> int:
    """Qubits per Kronecker block of a stage.

    In a circuit that reads inputs every block is per-sample and costs a
    ``(B, d, d)`` Kronecker product per stage, so it spans at most half the
    register: at n = 4 one 16x16 block per sample costs more to build than
    the four gates it replaces.
    """
    return min(_KRON_QUBITS, (n_qubits + 1) // 2) if rows else _KRON_QUBITS


def _storage(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A ``shape`` array in the storage of the C-contiguous ``buf`` when it fits, else a new one."""
    size = math.prod(shape)
    return buf.reshape(-1)[:size].reshape(shape) if size <= buf.size else np.empty(shape, dtype=buf.dtype)


def _kron(factors: list[np.ndarray], scratch: np.ndarray | None = None) -> np.ndarray:
    """``factors[0] (x) factors[1] (x) ...`` of matrix-major ``(2, 2, Bx)`` 2x2s.

    Wire 0 is the most significant. The result is ``(d, d, Bx)``, where
    ``Bx`` is 1 unless some factor is per-sample; the last product is
    written into ``scratch``'s storage when it is given.
    """
    u = factors[0]
    bx = max(f.shape[2] for f in factors)
    for k, f in enumerate(factors[1:], 2):
        h = u.shape[0]
        out = None if scratch is None or k < len(factors) else _storage(scratch, (h, 2, h, 2, bx))
        u = np.multiply(u[:, None, :, None], f[None, :, None, :], out=out).reshape(2 * h, 2 * h, -1)
    return u


def _wire_overlaps(g: np.ndarray) -> list[np.ndarray]:
    """Each wire's 2x2 overlap, matrix-major ``(2, 2, Bx)``, from a block overlap ``g`` (Bx, d, d).

    A wire's overlap is the trace of ``g`` over the block's other wires. The
    traces halve the block recursively, so the full-size ``g`` is read twice
    rather than once per wire.
    """
    k = g.shape[1].bit_length() - 1
    if k == 1:
        return [g.transpose(1, 2, 0)]
    h = k // 2
    v = g.reshape(-1, 1 << h, 1 << (k - h), 1 << h, 1 << (k - h))
    return _wire_overlaps(np.einsum("zacbc->zab", v)) + _wire_overlaps(np.einsum("zcacb->zab", v))


@dataclass(frozen=True)
class _Apply:
    """One kernel call of a stage: a Kronecker block.

    ``members`` are ``(slot, wire)``: the gate in row ``slot`` of the stage's
    table sits on wire ``wire`` of the descending run ``qubits``. The block is
    the Kronecker product of its members, with the identity on any wire that
    no member occupies.
    """

    qubits: tuple[int, ...]
    members: tuple[tuple[int, int], ...]

    def unitary(self, us: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """The call's matrix, batch-first ``(Bx, d, d)``, from the gate unitaries ``us`` ``(2, 2, G, Bx)``.

        Without ``out`` it is a view of matrix-major storage, which the
        elementwise row kernel reads with the batch contiguous. With it, it
        is a C-contiguous copy in ``out``'s storage, and the last Kronecker
        product is built in ``scratch``'s.
        """
        factors = [_I2] * len(self.qubits)
        for slot, wire in self.members:
            factors[wire] = us[:, :, slot]
        u = _kron(factors, scratch)
        if out is None:
            return u.transpose(2, 0, 1)
        t = _storage(out, (u.shape[2],) + u.shape[:2])
        np.copyto(t, u.transpose(2, 0, 1))
        return t

    def take_overlaps(self, circuit: Circuit, mu: np.ndarray, psi: np.ndarray, spare: np.ndarray, overlaps: np.ndarray) -> None:
        """Write each member's overlap into its slot of ``overlaps`` ``(2, 2, G, Bx)``; the states are in ``circuit``'s storage."""
        per_wire = _wire_overlaps(_overlap(circuit, mu, psi, spare, self.qubits))
        for slot, wire in self.members:
            overlaps[:, :, slot] = per_wire[wire]


class Stage:
    """Fused gates between two entangler runs, as one table of rotations.

    Gate ``g`` is row ``g`` of a ``(G, L)`` table (``shape``); each entry is
    an RY or RZ step and its angle, in application order. A gate of fewer
    than ``L`` steps is padded at its front with constant RZ(0), an exact
    identity. The arrays below run over the table step by step, so one
    step's matrices for all gates are contiguous.

    The gates act on distinct qubits and commute: they are applied as
    Kronecker blocks of ``width`` adjacent qubits (``q // width``), and the
    adjoint sweep takes every overlap at the stage output.
    """

    def __init__(self, gates: list[FusedGate], width: int):
        self.gates = tuple(gates)
        n_steps = max(len(g.steps) for g in gates)
        pad = [n_steps - len(g.steps) for g in gates]
        self.table = tuple(
            tuple(zip(("rz",) * k + g.steps, (Angle.const(0.0),) * k + g.angles)) for g, k in zip(gates, pad)
        )
        self.shape = (len(gates), n_steps)
        flat = [row[r] for r in range(n_steps) for row in self.table]  # step-major
        self.ry = np.array([kind == "ry" for kind, _ in flat]).reshape(n_steps, -1, 1)
        self.rz = ~self.ry
        self.const = np.array([a.value for _, a in flat])
        pos = {src: np.array([k for k, (_, a) in enumerate(flat) if a.source == src], dtype=np.intp) for src in ("param", "input")}
        self.param_pos, self.input_pos = pos["param"], pos["input"]
        self.param_idx = np.array([flat[k][1].index for k in self.param_pos], dtype=np.intp)
        self.input_idx = np.array([flat[k][1].index for k in self.input_pos], dtype=np.intp)
        live = np.zeros(len(flat), dtype=bool)
        live[self.param_pos] = live[self.input_pos] = True
        self.live = live.reshape(n_steps, -1).any(axis=1)  # steps with a gradient to find
        self.first_live = int(np.argmax(self.live))
        blocks: dict[int, dict[int, int]] = {}
        for slot, g in enumerate(self.gates):
            blocks.setdefault(g.qubit // width, {})[g.qubit] = slot
        apps = []
        for _, block in sorted(blocks.items()):
            hi, lo = max(block), min(block)
            apps.append(_Apply(tuple(range(hi, lo - 1, -1)), tuple((slot, hi - q) for q, slot in block.items())))
        self.apps = tuple(apps)

    def step_matrices(self, x: np.ndarray, params: np.ndarray, bx: int) -> np.ndarray:
        """Every entry's 2x2, matrix-major ``(2, 2, L, G, Bx)``; ``Bx`` is the circuit's batch extent."""
        angles = np.empty((self.const.size, bx))
        angles[:] = self.const[:, None]
        angles[self.param_pos] = params[self.param_idx, None]
        if self.input_pos.size:
            angles[self.input_pos] = x[:, self.input_idx].T
        half = np.multiply(angles, 0.5, out=angles).reshape(self.ry.shape[:2] + (bx,))
        # RY is [[c, -s], [s, c]] and RZ diag(c - 1j s, c + 1j s). The masked
        # writes need no temporaries: s sits in m[0, 1]'s storage until that
        # entry is written last, and 0 -/+ s signs a zero imaginary part as
        # c -/+ 1j s does.
        m = np.empty((2, 2) + half.shape, dtype=np.complex128)
        re, im = m.real, m.imag
        s = np.sin(half, out=_storage(m[0, 1].view(np.float64), half.shape))
        c = np.cos(half, out=half)
        m[0, 0] = m[1, 1] = c
        m[1, 0] = 0.0
        np.copyto(re[1, 0], s, where=self.ry)
        np.subtract(0.0, s, out=im[0, 0], where=self.rz)
        np.add(0.0, s, out=im[1, 1], where=self.rz)
        m[0, 1] = 0.0
        np.negative(re[1, 0], out=re[0, 1], where=self.ry)
        return m

    def add_gradients(self, overlaps: np.ndarray, mats: np.ndarray, grad_inputs: np.ndarray, grad_params: np.ndarray) -> None:
        """Add the angle gradients from the overlaps ``(2, 2, G, Bx)`` and the step matrices.

        With ``W = S^H G^T S``, where ``S`` is the product of the steps after
        step ``r``, an RY step's gradient is ``Re(W01 - W10)`` and an RZ
        step's ``Im(W00 - W11)``.
        """
        w = overlaps.swapaxes(0, 1)
        grads = np.zeros(mats.shape[2:])
        for r in range(self.shape[1] - 1, self.first_live - 1, -1):
            if self.live[r]:
                grads[r] = np.where(self.ry[r], w[0, 1].real - w[1, 0].real, w[0, 0].imag - w[1, 1].imag)
            if r > self.first_live:
                m = mats[:, :, r]
                w = _mm(_mm(m.conj().swapaxes(0, 1), w), m)
        flat = grads.reshape(self.const.size, -1)
        if self.param_pos.size:
            np.add.at(grad_params, self.param_idx, flat[self.param_pos].sum(axis=1))
        if self.input_pos.size:
            np.add.at(grad_inputs, (slice(None), self.input_idx), flat[self.input_pos].T)


class SignedPerm:
    """A run of CNOT/CZ gates as one map ``out[i] = sign[i] * a[perm[i]]``.

    ``perm`` is None when the run moves no amplitude (CZ gates only, or
    CNOTs that cancel), ``sign`` when it flips none.
    """

    def __init__(self, gates: list[Gate], n_qubits: int):
        idx = np.arange(1 << n_qubits)
        perm, sign = idx, np.ones(1 << n_qubits)
        for g in gates:
            a, b = g.targets
            if g.kind is GateKind.CNOT:
                step, step_sign = idx ^ (((idx >> a) & 1) << b), 1.0
            else:
                step, step_sign = idx, 1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1)
            perm, sign = perm[step], step_sign * sign[step]
        inverse = np.argsort(perm)
        moves = not np.array_equal(perm, idx)
        self.perm, self.sign = (perm if moves else None), (sign if np.any(sign < 0) else None)
        self.inv_perm = inverse if moves else None
        self.inv_sign = sign[inverse] if self.sign is not None else None


def _compile_program(ops: tuple[Gate, ...], n_qubits: int, width: int) -> tuple:
    """Fuse a gate list into a tuple of ``Stage`` and ``SignedPerm`` ops, with ``width``-qubit Kronecker blocks."""
    program: list = []
    stage: list[FusedGate] = []
    pending: dict[int, tuple[list, list]] = {}  # qubit -> (steps, angles) of its open rotation run
    run: list[Gate] = []

    def close(qubits) -> None:
        for q in [q for q in pending if q in qubits]:
            steps, angles = pending.pop(q)
            stage.append(FusedGate(q, tuple(steps), tuple(angles)))

    for gate in ops:
        if gate.kind in (GateKind.CNOT, GateKind.CZ):
            close(tuple(pending))
            if stage:
                program.append(Stage(stage, width))
                stage = []
            run.append(gate)
            continue
        if run:
            program.append(SignedPerm(run, n_qubits))
            run = []
        steps, angles = pending.setdefault(gate.targets[0], ([], []))
        steps.extend(_ROTATION_STEPS[gate.kind])
        angles.extend(gate.angles)
    close(tuple(pending))
    if stage:
        program.append(Stage(stage, width))
    if run:
        program.append(SignedPerm(run, n_qubits))
    return tuple(program)


@dataclass(frozen=True)
class Circuit:
    """An immutable gate program with input/parameter slots and an observable.

    ``encoding`` is ``"angle"`` (inputs consumed by gate slots, register
    starts in |0...0>) or ``"amplitude"`` (register starts as the normalized
    input vector; gates may not read input slots). ``program`` is the fused
    form that the simulator runs.

    The state's layout is fixed here, from what the circuit reads. ``rows``
    is set when a gate reads an input slot: the state is then ``(B, 2**n)``
    rows from encoding to readout. ``sample_major`` says that those rows are
    C-contiguous; otherwise they are the transposed view of ``(2**n, B)``
    storage, which is also the storage of a circuit without ``rows``.
    """

    n_qubits: int
    encoding: str
    ops: tuple[Gate, ...]
    n_params: int
    n_inputs: int
    observable: Observable
    program: tuple = field(init=False, repr=False, compare=False)
    rows: bool = field(init=False, repr=False, compare=False)
    sample_major: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if self.encoding not in ("angle", "amplitude"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.encoding == "amplitude" and self.n_inputs != 1 << self.n_qubits:
            raise ValueError("amplitude-encoded circuits must consume 2**n_qubits inputs")
        for gate in self.ops:
            if any(q >= self.n_qubits for q in gate.targets):
                raise ValueError(f"gate target out of range: {gate}")
            for ang in gate.angles:
                if ang.source == "param" and ang.index >= self.n_params:
                    raise ValueError(f"param slot {ang.index} >= n_params {self.n_params}")
                if ang.source == "input":
                    if self.encoding == "amplitude":
                        raise ValueError("amplitude-encoded circuits take no input slots")
                    if ang.index >= self.n_inputs:
                        raise ValueError(f"input slot {ang.index} >= n_inputs {self.n_inputs}")
        if self.observable.kind == "single_z" and self.observable.qubit >= self.n_qubits:
            raise ValueError("observable qubit out of range")
        rows = any(a.source == "input" for gate in self.ops for a in gate.angles)
        width = _block_width(self.n_qubits, rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "sample_major", rows and width >= _SAMPLE_MAJOR_QUBITS)
        object.__setattr__(self, "program", _compile_program(self.ops, self.n_qubits, width))

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


def _qcnn_block(a: int, b: int, p0: Angle, p1: Angle, p2: Angle) -> tuple[Gate, ...]:
    """One QCNN block on the pair ``(a, b)``, in application order (see ``build_qcnn``)."""
    return (
        Gate.rz(b, -math.pi / 2),
        Gate.cnot(b, a),
        Gate.rz(a, p0),
        Gate.ry(b, p1),
        Gate.cnot(a, b),
        Gate.ry(b, p2),
        Gate.cnot(b, a),
        Gate.rz(a, math.pi / 2),
    )


def build_qcnn(n_qubits: int) -> Circuit:
    """Quantum convolution/pooling stack ending in one measured qubit.

    Each stage applies two-qubit blocks on even-adjacent active pairs, then
    odd-adjacent pairs with wrap-around (skipped when it would repeat the
    even pairing on two remaining qubits), then pools each even-adjacent
    pair into its second qubit, dropping the first from the active set.

    A block ``(p0, p1, p2)`` on the pair ``(a, b)`` is the three-CNOT circuit
    of Vatan & Williams (arXiv:quant-ph/0308006), in this fixed order:
    RZ(-pi/2) on b; CNOT b->a; RZ(p0) on a; RY(p1) on b; CNOT a->b;
    RY(p2) on b; CNOT b->a; RZ(pi/2) on a. The blocks of one layer act on
    disjoint pairs, so they are emitted step by step across the layer: the
    compiled program then has one stage or one permutation per step of the
    layer rather than per step of each block, 49 ops instead of 121 at
    n = 8.
    """
    if n_qubits not in (4, 8):
        raise ValueError("qcnn circuit supports 4 or 8 qubits")
    active = list(range(n_qubits))
    ops: list[Gate] = []
    p = 0

    def layer(pairs: list[tuple[int, int]]) -> None:
        nonlocal p
        blocks = []
        for a, b in pairs:
            blocks.append(_qcnn_block(a, b, Angle.param(p), Angle.param(p + 1), Angle.param(p + 2)))
            p += 3
        for step in zip(*blocks):  # one step of every block, then the next step
            ops.extend(step)

    while len(active) > 1:
        m = len(active)
        layer([(active[i], active[i + 1]) for i in range(0, m - 1, 2)])
        if m > 2:
            layer([(active[i], active[(i + 1) % m]) for i in range(1, m, 2)])
        layer([(active[i], active[i + 1]) for i in range(0, m, 2)])
        active = active[1::2]
    return Circuit(
        n_qubits=n_qubits,
        encoding="amplitude",
        ops=tuple(ops),
        n_params=p,
        n_inputs=1 << n_qubits,
        observable=Observable.single_z(active[0]),
    )


# ---------------------------------------------------------------------------
# Forward evaluation and adjoint-mode differentiation on batches (inputs
# shaped (B, n_inputs)).
# ---------------------------------------------------------------------------


def _check_shapes(circuit: Circuit, x: np.ndarray, params: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != circuit.n_inputs:
        raise ValueError(f"inputs must have {circuit.n_inputs} features, got shape {x.shape}")
    if params.shape != (circuit.n_params,):
        raise ValueError(f"expected {circuit.n_params} params, got {params.shape}")


def _encode_batch(circuit: Circuit, x: np.ndarray) -> np.ndarray:
    """Initial states in ``circuit``'s storage: ``(B, 2**n)`` when sample-major, else ``(2**n, B)``."""
    if circuit.encoding == "amplitude":
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms <= _NORM_EPS):
            bad = int(np.argmin(norms))
            raise EncodingError(f"batch row {bad} has norm {norms[bad]:.3e}, cannot amplitude-encode")
        return np.ascontiguousarray((x / norms[:, None]).T, dtype=np.complex128)
    dim = 1 << circuit.n_qubits
    amps = np.zeros((x.shape[0], dim) if circuit.sample_major else (dim, x.shape[0]), dtype=np.complex128)
    _rows(circuit, amps)[:, 0] = 1.0
    return amps


def _rows(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """The ``(B, 2**n)`` view of a state in ``circuit``'s storage."""
    return amps if circuit.sample_major else amps.T


def _permute(circuit: Circuit, amps: np.ndarray, perm, sign, out: np.ndarray) -> np.ndarray:
    """A signed permutation along the basis axis of ``circuit``'s storage."""
    return apply_signed_perm(amps, perm, sign, out, 1 if circuit.sample_major else 0)


def _apply(circuit: Circuit, amps: np.ndarray, qubits: tuple[int, ...], u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply a call's batch-first matrix ``u`` to a state in ``circuit``'s storage, into ``out``."""
    if not circuit.rows:
        return apply_gate(amps, qubits, u[0], out)
    apply_rows(_rows(circuit, amps), qubits, u, _rows(circuit, out))
    return out


def _overlap(circuit: Circuit, mu: np.ndarray, psi: np.ndarray, spare: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """The batch-first overlap on ``qubits`` of two states in ``circuit``'s storage; a sample-major one goes into ``spare``."""
    if not circuit.rows:
        return gate_overlap(mu, psi, qubits)[None]
    d = 1 << len(qubits)
    out = _storage(spare, (len(mu), d, d)) if circuit.sample_major else None
    return rows_overlap(_rows(circuit, mu), _rows(circuit, psi), qubits, out)


def qnn_forward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    return_state: bool = False,
):
    """Evaluate the circuit on a batch, returning (B, out_dim) expectations.

    With ``return_state`` the final amplitudes come back too, shaped (B, 2**n).
    """
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    _check_shapes(circuit, x, p)
    state = _encode_batch(circuit, x)
    bx = x.shape[0] if circuit.rows else 1
    # The spare state, and room for the contiguous per-sample matrices of a
    # sample-major circuit. One allocation: as two, they raised the peak RSS
    # of the 8-qubit hybrid benchmark by ~4 MB.
    buf, work = np.empty((2,) + state.shape, dtype=state.dtype)
    for op in circuit.program:
        if isinstance(op, SignedPerm):
            state, buf = _permute(circuit, state, op.perm, op.sign, buf), state
            continue
        us = _product(op.step_matrices(x, p, bx))
        for app in op.apps:
            u = app.unitary(us, work, buf) if circuit.sample_major else app.unitary(us)
            state, buf = _apply(circuit, state, app.qubits, u, buf), state
    rows = _rows(circuit, state)
    out = expval_batch(rows, circuit.n_qubits, circuit.observable)
    return (out, rows) if return_state else out


def qnn_backward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    upstream: np.ndarray,
    final_amps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-mode gradients of ``sum_b upstream_b . outputs_b``.

    Returns per-sample input gradients (B, n_inputs) and batch-summed
    parameter gradients (n_params,). ``final_amps`` is the state from the
    ``return_state=True`` forward call on the same inputs and parameters.
    """
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    _check_shapes(circuit, x, p)
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != (x.shape[0], circuit.out_dim):
        raise ValueError(f"upstream must have shape {(x.shape[0], circuit.out_dim)}, got {up.shape}")

    psi = np.array(_rows(circuit, final_amps), dtype=np.complex128, order="C")  # circuit's storage
    mu = np.conj(psi)  # conj(lambda), lambda = M psi
    mu_rows = _rows(circuit, mu)
    mu_rows *= up @ measurement_diagonals(circuit.n_qubits, circuit.observable)
    psi_buf, mu_buf = np.empty_like(psi), np.empty_like(mu)

    grad_inputs = np.zeros_like(x)
    grad_params = np.zeros(circuit.n_params)
    bx = x.shape[0] if circuit.rows else 1
    for op in reversed(circuit.program):
        if isinstance(op, SignedPerm):
            psi, psi_buf = _permute(circuit, psi, op.inv_perm, op.inv_sign, psi_buf), psi
            mu, mu_buf = _permute(circuit, mu, op.inv_perm, op.inv_sign, mu_buf), mu
            continue
        mats = op.step_matrices(x, p, bx)
        us = _product(mats)
        live = op.live.any()
        if live:  # every overlap is taken at the stage output, before any un-apply
            overlaps = np.empty((2, 2, op.shape[0], bx), dtype=np.complex128)
            for app in op.apps:
                app.take_overlaps(circuit, mu, psi, psi_buf, overlaps)

        # Nothing reads psi after the last op of the sweep, and mu only for
        # an amplitude-encoded input gradient.
        last = op is circuit.program[0]
        keep_psi, keep_mu = not last, not last or circuit.encoding == "amplitude"
        for app in reversed(op.apps):
            # U^T un-applies a call from mu, then conj(U^T) = U^H from psi. A
            # contiguous U sits in mu_buf, so mu goes into psi's spare storage
            # and psi into mu's old one.
            ut = (app.unitary(us, mu_buf, psi_buf) if circuit.sample_major else app.unitary(us)).swapaxes(1, 2)
            if keep_mu:
                mu, psi_buf = _apply(circuit, mu, app.qubits, ut, psi_buf), mu
            if keep_psi:
                uh = np.conjugate(ut, out=ut) if circuit.sample_major else ut.conj()
                psi, psi_buf = _apply(circuit, psi, app.qubits, uh, psi_buf), psi
        if live:
            op.add_gradients(overlaps, mats, grad_inputs, grad_params)

    if circuit.encoding == "amplitude":
        # mu is now conj((U^dag M U) psi0); the real-direction gradient on the
        # encoded state is 2 Re(lambda), chained through x -> x/||x||.
        g0 = 2.0 * _rows(circuit, mu).real
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        xhat = x / norms
        grad_inputs += (g0 - np.sum(g0 * xhat, axis=1, keepdims=True) * xhat) / norms
    return grad_inputs, grad_params
