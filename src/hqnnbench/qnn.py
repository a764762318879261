"""Variational circuit construction, evaluation and differentiation.

Four circuit families are provided:

* ``build_ang_ry``   -- RY angle encoding, segment by segment, interleaved
  with variational layers of arbitrary rotations and an optional circular
  CNOT entangler. An arbitrary rotation is three gates, RZ, RY and RZ
  (``_arb``).
* ``build_ang_arb``  -- arbitrary-rotation angle encoding (three features
  per qubit per layer) with alternating nearest-neighbor CZ entanglers.
* ``build_amp_gen``  -- amplitude encoding followed by the same variational
  stack as ``build_ang_ry`` at matching register/feature size, so the
  trainable parameter counts are identical.
* ``build_qcnn``     -- amplitude encoding followed by alternating two-qubit
  convolution and pooling stages that halve the active register until one
  qubit remains; each two-qubit block is RZ/RY rotations around three CNOTs.

Each ``Circuit`` is compiled once, when it is built, into one op per
maximal run of its gate list (gate fusion as in Jones & Gacon,
arXiv:2009.02823, and qsim):

* a run of RY/RZ rotations becomes a ``Stage``. Each qubit's rotations in
  the run fuse into one 2x2 unitary, across gates on other qubits, so an
  encoding rotation and the three rotations of the variational arbitrary
  rotation after it on the same qubit fuse into one gate;
* a run of CNOT/CZ gates becomes one phased basis permutation,
  ``out[i] = phase[i] * a[perm[i]]`` (``PhasedPerm``). A run of constant
  RZ rotations is a diagonal phase, so it is not a stage: it joins the
  permutations next to it, and adjacent maps merge into one. QCNN's
  constant RZ(-pi/2) and RZ(pi/2) block steps fold this way, which leaves
  QCNN 4 with 21 ops and QCNN 8 with 33.

Stages and permutations therefore alternate. A stage is one ``(G, L)``
table of RY and RZ steps, gate by step, whose ``(2, 2, L, G, Bx)`` step
matrices are multiplied along the step axis. The table splits after its
last column that reads an input slot: the head's steps are per-sample
(``Bx = B``), and the tail's (parameter and constant steps) are shared by
the batch (``Bx = 1``). A table whose last column reads an input gets one
more column of constant RZ(0), an exact identity, so every stage has a
tail. The tails of all the stages are built in one call per pass and
multiplied once per batch into each stage's ``T``, and each gate is ``T H``
for its per-sample head product ``H``. A stage that reads no input (every
stage of Amp-Gen and QCNN) is all tail, so its gates are shared.

The state's storage is fixed per circuit, from what it reads, and after
encoding both passes hold the state only as ``(B, 2**n)`` rows. A circuit
that reads input slots (Ang-RY, Ang-Arb: data re-uploading in every layer)
keeps sample-major storage when its blocks may span ``_SAMPLE_MAJOR_QUBITS``
or more qubits. Any other circuit, and so every one that reads none
(Amp-Gen, QCNN: the data enter once, as the start state), keeps its rows as
the transposed view of ``(2**n, B)`` storage. The passes hand every block to
``statevec.apply_rows`` and ``statevec.rows_overlap`` and every permutation
to ``statevec.apply_phased_perm``, which pick their kernel from the storage
order and from whether the matrix is shared by the batch.

Every stage is a *Kronecker layer*: its gates act on distinct qubits and
commute. They are applied as blocks of adjacent qubits, each one d x d
unitary (d <= 16), the Kronecker product of its members' ``(2, 2, Bx)``
matrices with the identity on any qubit in the block's run that no member
occupies: one matrix per sample in a stage that reads inputs, one for the
batch in a stage that reads none. Blocks of a circuit that reads no input
span up to ``_KRON_QUBITS`` qubits; blocks of one that reads inputs at most
half the register, so at n = 8 a data re-uploading layer is two 16x16
blocks per sample, which the stage applies to each sample's 16x16 amplitude
matrix ``Psi_b`` as ``U_b Psi_b V_b^T``.

Gradients are computed in adjoint mode: one forward pass, then a single
reverse sweep that un-applies each fused gate ``U`` on the state ``psi``
and on ``mu = conj(lambda)`` (with ``U^T``, so no conjugate copies are
made; a phased permutation un-applies with ``conj(phase)`` from ``psi`` and
``phase`` from ``mu``). The forward pass hands the sweep what it built
(``ForwardState``), and the sweep reads nothing else: the inputs and
parameters the pass ran on, the matrices of every stage's tail steps (one
table for the circuit), and each stage's gate unitaries and Kronecker
blocks, unless they are per-sample blocks on sample-major rows, which
would cost a state's memory per stage; those are built again from the kept
gate unitaries. Before un-applying, the sweep takes one
reduced overlap per gate, ``G_ij = sum_rest conj(lambda_i) psi_j`` on the
gate's qubit: per sample for a per-sample gate, summed over the batch for a
shared one. With ``U = S_k R_k P_k`` for rotation ``k``, every angle
gradient of the gate follows from ``G`` alone::

    g_k = Re tr(W_k Gamma_k),   W_k = S_k^H G^T S_k,   Gamma_k = 2 dR_k/dt R_k^-1

where ``Gamma_k`` is the constant RY(pi) or RZ(pi), so an RY step's
gradient is ``Re(W_01 - W_10)`` and an RZ step's ``Im(W_00 - W_11)``. A
tail step's ``S_k`` is shared, so its batch-summed gradient comes from the
batch-summed ``G``; a head step's ``S_k`` is ``T`` times the head steps
after it, so the sweep multiplies ``T`` again from the kept tail steps and
builds the head's steps again from the state's inputs and parameters.
Every overlap of a stage is taken at its output, before any un-apply: one
d x d overlap per block (for per-sample blocks ``M_b P_b^T`` and
``M_b^T P_b`` on the sample matrices of ``mu`` and ``psi``), from which
each member's 2x2 overlap is the partial trace over the block's other
qubits (un-applying a unitary on another qubit from both states cancels in
``sum_rest``). A per-sample block is un-applied as ``U_b^H P_b conj(V_b)``
from ``psi`` and ``U_b^T M_b V_b`` from ``mu``. The sweep does not
un-apply a circuit's first op from ``psi``: nothing reads ``psi``
afterwards, and ``mu`` is only read for the input gradient of an
amplitude-encoded circuit. All of this is exact for noiseless statevector
simulation; the parameter-shift rule is kept around only as a test oracle.
"""

from __future__ import annotations

import itertools
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
    apply_rows,
    apply_phased_perm,
    expval_batch,
    rows_overlap,
)

_NORM_EPS = 1e-12

# ---------------------------------------------------------------------------
# Compilation into runs of rotations and of entanglers.
# ---------------------------------------------------------------------------

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


def _block_width(n_qubits: int, reads_inputs: bool) -> int:
    """Qubits per Kronecker block of a stage.

    In a circuit that reads inputs every block is per-sample and costs a
    ``(B, d, d)`` Kronecker product per stage, so it spans at most half the
    register: at n = 4 one 16x16 block per sample costs more to build than
    the four gates it replaces.
    """
    return min(_KRON_QUBITS, (n_qubits + 1) // 2) if reads_inputs else _KRON_QUBITS


def _storage(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous ``shape`` array in the storage of the C- or F-contiguous ``buf`` when it fits, else a new one."""
    size = math.prod(shape)
    return buf.reshape(-1, order="A")[:size].reshape(shape) if size <= buf.size else np.empty(shape, dtype=buf.dtype)


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
    """Each wire's 2x2 overlap, matrix-major ``(2, 2, Bx)``, from a matrix-major block overlap ``g`` (d, d, Bx).

    A wire's overlap is the trace of ``g`` over the block's other wires. The
    traces halve the block recursively, so the full-size ``g`` is read twice
    rather than once per wire; on ``(d, d, B)`` storage they run along the
    contiguous batch.
    """
    k = g.shape[0].bit_length() - 1
    if k == 1:
        return [g]
    h = k // 2
    v = g.reshape(1 << h, 1 << (k - h), 1 << h, 1 << (k - h), -1)
    return _wire_overlaps(np.einsum("acbcz->abz", v)) + _wire_overlaps(np.einsum("cacbz->abz", v))


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

    def take_overlaps(self, mu: np.ndarray, psi: np.ndarray, spare: np.ndarray, overlaps: np.ndarray) -> None:
        """Write each member's overlap into its slot of ``overlaps`` ``(2, 2, G, Bx)``.

        The overlaps are per-sample, or summed over the batch when ``Bx`` is
        1. ``mu`` and ``psi`` are ``(B, 2**n)`` rows; per-sample overlaps
        are built in ``spare``'s storage when the kernel needs room for them.
        """
        bx, d = overlaps.shape[3], 1 << len(self.qubits)
        room = _storage(spare, (bx, d, d)) if bx > 1 else None
        per_wire = _wire_overlaps(rows_overlap(mu, psi, self.qubits, bx == 1, room).transpose(1, 2, 0))
        for slot, wire in self.members:
            overlaps[:, :, slot] = per_wire[wire]


def _angle_gradients(w: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Steps' angle gradients from their ``W`` (matrix-major): ``Re(W01 - W10)`` for RY, ``Im(W00 - W11)`` for RZ."""
    return np.where(ry, w[0, 1].real - w[1, 0].real, w[0, 0].imag - w[1, 1].imag)


class _Steps:
    """Step-table entries, flat: each entry's kind (``ry``, else RZ), constant angle and slot.

    One ``_Steps`` holds the head of a stage, built whole in each pass, and
    one the tails of all the stages of a circuit (``Circuit.tails``), built
    in one call by the forward pass, which hands the matrices on to the
    backward pass; the tails' gradients are added in one call too.
    """

    def __init__(self, entries: list[tuple[str, Angle]]):
        self.ry = np.array([kind == "ry" for kind, _ in entries], dtype=bool)[:, None]
        self.rz = ~self.ry
        self.const = np.array([a.value for _, a in entries], dtype=np.float64)
        pos = {src: np.array([k for k, (_, a) in enumerate(entries) if a.source == src], dtype=np.intp) for src in ("param", "input")}
        self.param_pos, self.input_pos = pos["param"], pos["input"]
        self.param_idx = np.array([entries[k][1].index for k in self.param_pos], dtype=np.intp)
        self.input_idx = np.array([entries[k][1].index for k in self.input_pos], dtype=np.intp)

    def matrices(self, x: np.ndarray, params: np.ndarray, bx: int) -> np.ndarray:
        """The entries' 2x2s, matrix-major ``(2, 2, K, bx)``."""
        angles = np.empty((self.const.size, bx))
        angles[:] = self.const[:, None]
        angles[self.param_pos] = params[self.param_idx, None]
        if self.input_pos.size:
            angles[self.input_pos] = x[:, self.input_idx].T
        half = np.multiply(angles, 0.5, out=angles)
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

    def add_gradients(self, grads: np.ndarray, grad_inputs: np.ndarray, grad_params: np.ndarray) -> None:
        """Add every entry's angle gradients ``(K, Bx)`` to their slots: summed over the batch for a param."""
        np.add.at(grad_params, self.param_idx, grads[self.param_pos].sum(axis=1))
        np.add.at(grad_inputs, (slice(None), self.input_idx), grads[self.input_pos].T)


class Stage:
    """A maximal run of rotations in the gate list, as one table of steps.

    Each qubit the run touches fuses its rotations into one gate: gate ``g``
    acts on ``qubits[g]`` (in order of first appearance in the run) and is
    row ``g`` of a ``(G, L)`` table (``shape``); each entry is an RY or RZ
    step and its angle, in application order. A gate of fewer than ``L``
    steps is padded at its front with constant RZ(0), an exact identity.
    Step matrices are ``(2, 2, L, G, Bx)``, column by column.

    The table splits after its last column that reads an input slot. The
    ``head`` (``n_head`` columns, up to and including that one) is
    per-sample. The tail (the other ``n_tail`` columns: parameter and
    constant steps only) is shared by the batch: its matrices and their
    product ``T`` are built once per batch, and each gate is ``T H`` for its
    head product ``H``. Every stage has a tail: when the last column reads
    an input, one column of constant RZ(0) is appended. A stage that reads
    no input is all tail. The tail's entries sit in the circuit's ``tails``
    from ``tail_at`` on; ``_tail`` views them in any table laid out like
    ``tails``: the forward pass's matrices and the backward pass's ``W``.
    The backward pass builds ``T`` and the whole head again, from what the
    forward pass hands it (``ForwardState``).

    The gates act on distinct qubits and commute: they are applied as
    Kronecker blocks of ``width`` adjacent qubits (``q // width``), and the
    adjoint sweep takes every overlap at the stage output.
    """

    def __init__(self, run: list[Gate], width: int, tail_at: int):
        rows: dict[int, list[tuple[str, Angle]]] = {}
        for gate in run:
            rows.setdefault(gate.targets[0], []).append((gate.kind.value, gate.angles[0]))
        self.qubits = tuple(rows)
        n_steps = max(map(len, rows.values()))
        identity = ("rz", Angle.const(0.0))
        table = [(identity,) * (n_steps - len(row)) + tuple(row) for row in rows.values()]
        self.n_head = max((r + 1 for r, column in enumerate(zip(*table)) if any(a.source == "input" for _, a in column)), default=0)
        if self.n_head == n_steps:  # the last column reads an input: an identity column is the tail
            table = [row + (identity,) for row in table]
        self.table = tuple(table)
        self.shape = (len(table), len(table[0]))
        self.n_tail = self.shape[1] - self.n_head
        columns = list(zip(*table))
        self.head = _Steps([entry for column in columns[: self.n_head] for entry in column])
        self.tail_entries = [entry for column in columns[self.n_head :] for entry in column]
        self.tail_at = tail_at
        blocks: dict[int, dict[int, int]] = {}
        for slot, q in enumerate(self.qubits):
            blocks.setdefault(q // width, {})[q] = slot
        apps = []
        for _, block in sorted(blocks.items()):
            hi, lo = max(block), min(block)
            apps.append(_Apply(tuple(range(hi, lo - 1, -1)), tuple((slot, hi - q) for q, slot in block.items())))
        self.apps = tuple(apps)

    def _tail(self, table: np.ndarray) -> np.ndarray:
        """A view of this stage's entries of a circuit-wide tail table ``(2, 2, K, 1)``, as ``(2, 2, n_tail, G, 1)``."""
        return table[:, :, self.tail_at : self.tail_at + self.n_tail * self.shape[0]].reshape(2, 2, self.n_tail, self.shape[0], 1)

    def _head(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        """The head's step matrices for the batch ``x``, ``(2, 2, n_head, G, B)``."""
        return self.head.matrices(x, params, x.shape[0]).reshape(2, 2, self.n_head, self.shape[0], -1)

    def build(self, x: np.ndarray, params: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """The stage's gate unitaries ``(2, 2, G, Bx)`` for the batch ``x``.

        ``tails`` holds the 2x2s of every tail of the circuit (``Bx = 1``).
        """
        t = _product(self._tail(tails))
        return _mm(t, _product(self._head(x, params))) if self.n_head else t

    def add_gradients(
        self,
        overlaps: np.ndarray,
        fwd: ForwardState,
        tail_w: np.ndarray,
        grad_inputs: np.ndarray,
        grad_params: np.ndarray,
    ) -> None:
        """Find the angle gradients from the overlaps ``(2, 2, G, Bx)`` at the stage output.

        With ``W = S^H G^T S``, where ``S`` is the product of the steps after
        step ``r``, the step's gradient follows from ``W`` (``_angle_gradients``).
        The tail's ``W`` come from the overlaps summed over the batch, which
        its shared steps (viewed in ``fwd.tails``) carry to every earlier step
        unchanged; they go into the tail's place in ``tail_w``, the ``W`` of
        all the circuit's tails. The head's start from ``W = T^H G^T T`` per
        sample; ``T`` and the head's matrices are built again here from
        ``fwd``, and the head's gradients are added to the slots at once.
        """
        g = self.shape[0]
        tail, mine = self._tail(fwd.tails), self._tail(tail_w)
        w = overlaps.sum(axis=3, keepdims=True).swapaxes(0, 1)
        for r in range(self.n_tail - 1, -1, -1):
            mine[:, :, r] = w
            if r:  # einsum beats two _mm products on the shared 2x2s
                m = tail[:, :, r]
                w = np.einsum("jigz,jkgz,klgz->ilgz", m.conj(), w, m)
        if self.n_head:
            t = _product(tail)
            w = _mm(_mm(t.conj().swapaxes(0, 1), overlaps.swapaxes(0, 1)), t)
            ry = self.head.ry.reshape(self.n_head, g, 1)
            head = self._head(fwd.inputs, fwd.params)
            grads = np.empty((self.n_head, g, w.shape[3]))
            for r in range(self.n_head - 1, -1, -1):
                grads[r] = _angle_gradients(w, ry[r])
                if r:
                    m = head[:, :, r]
                    w = _mm(_mm(m.conj().swapaxes(0, 1), w), m)
            self.head.add_gradients(grads.reshape(self.n_head * g, -1), grad_inputs, grad_params)


class PhasedPerm:
    """A run of CNOT/CZ gates and constant RZ phases as one map ``out[i] = phase[i] * a[perm[i]]``.

    ``perm`` is None when the run moves no amplitude (CZ gates and phases
    only, or CNOTs that cancel), ``phase`` when it changes none; a phase
    that only flips signs is real. ``inv_perm`` and ``inv_phase`` are the
    inverse map, which un-applies the run from ``psi``; ``mu`` takes the
    transpose, the same gather with ``conj(inv_phase)``
    (``inv_phase_conj``).
    """

    def __init__(self, run: list[Gate], n_qubits: int):
        idx = np.arange(1 << n_qubits)
        perm, phase = idx, np.ones(1 << n_qubits, dtype=np.complex128)
        for g in run:
            if g.kind is GateKind.CNOT:
                a, b = g.targets
                step, step_phase = idx ^ (((idx >> a) & 1) << b), 1.0
            elif g.kind is GateKind.CZ:
                a, b = g.targets
                step, step_phase = idx, 1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1)
            else:  # RZ(t) = diag(c - 1j s, c + 1j s), as a stage builds it
                half = 0.5 * g.angles[0].value
                c, s = math.cos(half), math.sin(half)
                step, step_phase = idx, np.where((idx >> g.targets[0]) & 1, c + 1j * s, c - 1j * s)
            perm, phase = perm[step], step_phase * phase[step]
        if not phase.imag.any():
            phase = phase.real
        inverse = np.argsort(perm)
        moves = not np.array_equal(perm, idx)
        self.perm, self.inv_perm = (perm, inverse) if moves else (None, None)
        self.phase, self.inv_phase, self.inv_phase_conj = None, None, None
        if np.any(phase != 1.0):
            self.phase, self.inv_phase_conj = phase, phase[inverse]
            self.inv_phase = self.inv_phase_conj.conj()


def _is_phase(run: list[Gate]) -> bool:
    """Whether a run of rotations is a constant diagonal: constant RZ gates only."""
    return all(g.kind is GateKind.RZ and g.angles[0].source == "const" for g in run)


def _compile_program(ops: tuple[Gate, ...], n_qubits: int, width: int) -> tuple[tuple, _Steps]:
    """One op per maximal run of ``ops`` that is a ``Stage`` or a ``PhasedPerm``, and the stages' tails.

    A run of CNOT/CZ gates is a permutation, and so is a run of constant RZ
    rotations: it joins the permutations next to it as their phase. Every
    other run of rotations is a stage, which applies its gates as
    ``width``-qubit Kronecker blocks.
    """
    runs = [list(run) for _, run in itertools.groupby(ops, key=lambda gate: gate.kind in (GateKind.CNOT, GateKind.CZ))]
    program, tails = [], []
    for is_perm, group in itertools.groupby(runs, key=lambda run: run[0].kind in (GateKind.CNOT, GateKind.CZ) or _is_phase(run)):
        gates = [gate for run in group for gate in run]
        if is_perm:
            program.append(PhasedPerm(gates, n_qubits))
            continue
        stage = Stage(gates, width, len(tails))
        tails += stage.tail_entries
        program.append(stage)
    return tuple(program), _Steps(tails)


@dataclass(frozen=True)
class Circuit:
    """An immutable gate program with input/parameter slots and an observable.

    ``encoding`` is ``"angle"`` (inputs consumed by gate slots, register
    starts in |0...0>) or ``"amplitude"`` (register starts as the normalized
    input vector; gates may not read input slots). ``program`` is the fused
    form that the simulator runs, ``tails`` the batch-shared steps of all its
    stages (see ``Stage``), and ``diagonals`` the observable's
    (``Observable.diagonals``), which both passes read.

    The slot counts come from the gates. ``n_params`` is one more than the
    largest parameter slot a gate reads (0 if none reads one), so a slot no
    gate reads below it gets a zero gradient. ``n_inputs`` is ``2**n`` for
    amplitude encoding, and otherwise one more than the largest input slot
    read (0 if none).

    The state's storage is fixed here, from what the circuit reads: the
    passes work on ``(B, 2**n)`` rows, and ``sample_major`` says that they
    are C-contiguous. It is set when a gate reads an input slot and the
    blocks may span ``_SAMPLE_MAJOR_QUBITS`` qubits; otherwise the rows are
    the transposed view of ``(2**n, B)`` storage.
    """

    n_qubits: int
    encoding: str
    ops: tuple[Gate, ...]
    observable: Observable
    n_params: int = field(init=False)
    n_inputs: int = field(init=False)
    program: tuple = field(init=False, repr=False, compare=False)
    tails: _Steps = field(init=False, repr=False, compare=False)
    diagonals: np.ndarray = field(init=False, repr=False, compare=False)
    sample_major: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        if self.encoding not in ("angle", "amplitude"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        largest = {"param": -1, "input": -1, "const": -1}  # the largest slot each source reads
        for gate in self.ops:
            if any(q >= self.n_qubits for q in gate.targets):
                raise ValueError(f"gate target out of range: {gate}")
            for ang in gate.angles:
                largest[ang.source] = max(largest[ang.source], ang.index)
        reads_inputs = largest["input"] >= 0
        if self.encoding == "amplitude" and reads_inputs:
            raise ValueError("amplitude-encoded circuits take no input slots")
        object.__setattr__(self, "n_params", largest["param"] + 1)
        object.__setattr__(self, "n_inputs", 1 << self.n_qubits if self.encoding == "amplitude" else largest["input"] + 1)
        object.__setattr__(self, "diagonals", self.observable.diagonals(self.n_qubits))
        width = _block_width(self.n_qubits, reads_inputs)
        object.__setattr__(self, "sample_major", reads_inputs and width >= _SAMPLE_MAJOR_QUBITS)
        program, tails = _compile_program(self.ops, self.n_qubits, width)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "tails", tails)

    @property
    def out_dim(self) -> int:
        return len(self.diagonals)


def init_params(n_params: int, rng: np.random.Generator) -> np.ndarray:
    """Draw initial variational parameters, i.i.d. normal with std 0.01*pi."""
    return rng.normal(0.0, 0.01 * math.pi, size=n_params)


# ---------------------------------------------------------------------------
# Circuit builders.
# ---------------------------------------------------------------------------


def _input_or_pad(index: int, n_features: int) -> Angle:
    return Angle.input(index) if index < n_features else Angle.const(0.0)


def _arb(q: int, phi, theta, omega) -> tuple[Gate, Gate, Gate]:
    """The arbitrary rotation on qubit ``q`` as its three gates, in application order.

    ``ARB(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi)``: RZ(phi) acts
    first. Every arbitrary rotation of the circuit families is built here.
    """
    return (Gate.rz(q, phi), Gate.ry(q, theta), Gate.rz(q, omega))


def _variational_layer(ops: list[Gate], n_qubits: int, slots: itertools.count, entangle: bool) -> None:
    """One arbitrary-rotation layer, on the next parameter slots, plus optional circular CNOT entangler."""
    for q in range(n_qubits):
        ops.extend(_arb(q, *(Angle.param(next(slots)) for _ in range(3))))
    if entangle and n_qubits >= 2:
        for q in range(n_qubits):
            ops.append(Gate.cnot(q, (q + 1) % n_qubits))


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
    slots = itertools.count()
    for s in range(k):
        for q in range(n_qubits):
            ops.append(Gate.ry(q, _input_or_pad(s * n_qubits + q, latent_dim)))
        _variational_layer(ops, n_qubits, slots, entangle)
    return Circuit(
        n_qubits=n_qubits,
        encoding="angle",
        ops=tuple(ops),
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
    slots = itertools.count()
    for s in range(k):
        for q in range(n_qubits):
            ops.extend(_arb(q, *(_input_or_pad(s * seg + 3 * q + j, latent_dim) for j in range(3))))
        _variational_layer(ops, n_qubits, slots, entangle=False)
        if entangle and n_qubits >= 2 and s < k - 1:
            start = 0 if s % 2 == 0 else 1
            for q in range(start, n_qubits - 1, 2):
                ops.append(Gate.cz(q, q + 1))
    return Circuit(
        n_qubits=n_qubits,
        encoding="angle",
        ops=tuple(ops),
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
    slots = itertools.count()
    for _ in range(k):
        _variational_layer(ops, n_qubits, slots, entangle)
    return Circuit(
        n_qubits=n_qubits,
        encoding="amplitude",
        ops=tuple(ops),
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
    slots = itertools.count()

    def layer(pairs: list[tuple[int, int]]) -> None:
        blocks = [_qcnn_block(a, b, *(Angle.param(next(slots)) for _ in range(3))) for a, b in pairs]
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


def _states(circuit: Circuit, batch: int, count: int, new=np.empty) -> np.ndarray:
    """``count`` new ``(B, 2**n)`` states in ``circuit``'s storage, ``(count, B, 2**n)``.

    Each is sample-major rows or the transposed view of ``(2**n, B)``
    storage; ``new`` is ``np.empty`` or ``np.zeros``.
    """
    dim = 1 << circuit.n_qubits
    if circuit.sample_major:
        return new((count, batch, dim), dtype=np.complex128)
    return new((count, dim, batch), dtype=np.complex128).transpose(0, 2, 1)


def _encode_batch(circuit: Circuit, x: np.ndarray) -> np.ndarray:
    """Initial states, ``(B, 2**n)`` rows in ``circuit``'s storage."""
    amps = _states(circuit, x.shape[0], 1, np.zeros)[0]
    if circuit.encoding == "amplitude":
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms <= _NORM_EPS):
            bad = int(np.argmin(norms))
            raise EncodingError(f"batch row {bad} has norm {norms[bad]:.3e}, cannot amplitude-encode")
        amps[:] = x / norms[:, None]
    else:
        amps[:, 0] = 1.0
    return amps


@dataclass(frozen=True)
class ForwardState:
    """What a forward pass hands to the backward pass on the same batch.

    ``amps`` is the final state, ``(B, 2**n)`` rows in the circuit's
    storage. ``tails`` holds the ``(2, 2, K, 1)`` matrices of every stage's
    batch-shared steps (``Circuit.tails``). ``built`` holds, per op of the
    program, a stage's gate unitaries ``(2, 2, G, Bx)`` and its Kronecker
    blocks, batch-first, or None for blocks that are per-sample on
    sample-major rows: the backward pass builds those again rather than keep
    a state's worth of memory per stage. A permutation's entry is None.
    ``inputs`` and ``params`` are copies of what the pass ran on, which the
    backward pass checks and then reads.
    """

    circuit: Circuit
    inputs: np.ndarray
    params: np.ndarray
    amps: np.ndarray = field(repr=False)
    tails: np.ndarray = field(repr=False)
    built: tuple = field(repr=False)


def qnn_forward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    return_state: bool = False,
):
    """Evaluate the circuit on a batch, returning (B, out_dim) expectations.

    With ``return_state`` a ``ForwardState`` comes back too: the final
    amplitudes (``.amps``, (B, 2**n)) and the matrices that the backward
    pass (``final_amps=``) reads instead of building them again.
    """
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    _check_shapes(circuit, x, p)
    state = _encode_batch(circuit, x)
    # The spare state, and room for the contiguous per-sample matrices of a
    # sample-major circuit. One allocation: as two, they raised the peak RSS
    # of the 8-qubit hybrid benchmark by ~4 MB.
    buf, work = _states(circuit, x.shape[0], 2)
    built: list = []
    tails = circuit.tails.matrices(x, p, 1)  # every stage's shared steps, in one call
    for op in circuit.program:
        if isinstance(op, PhasedPerm):
            state, buf = apply_phased_perm(state, op.perm, op.phase, buf), state
            built.append(None)
            continue
        us = op.build(x, p, tails)
        # A block is a view of its Kronecker product, kept for the backward
        # pass, except a per-sample one on sample-major rows: that one is
        # copied into the spare storage, batch-first.
        blocks = None if circuit.sample_major and us.shape[3] > 1 else tuple(app.unitary(us) for app in op.apps)
        for i, app in enumerate(op.apps):
            u = app.unitary(us, work, buf) if blocks is None else blocks[i]
            state, buf = apply_rows(state, app.qubits, u, buf), state
        built.append((us, blocks))
    out = expval_batch(state, circuit.diagonals)
    if not return_state:
        return out
    return out, ForwardState(circuit, x.copy(), p.copy(), state, tails, tuple(built))


def qnn_backward_batch(
    circuit: Circuit,
    inputs: np.ndarray,
    params: np.ndarray,
    upstream: np.ndarray,
    final_amps: ForwardState,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-mode gradients of ``sum_b upstream_b . outputs_b``.

    Returns per-sample input gradients (B, n_inputs) and batch-summed
    parameter gradients (n_params,). ``final_amps`` is the ``ForwardState``
    from the ``return_state=True`` forward call on the same circuit, inputs
    and parameters; one from another call is refused.
    """
    fwd = final_amps
    x = np.asarray(inputs, dtype=np.float64)
    p = np.asarray(params, dtype=np.float64)
    same = fwd.circuit is circuit and fwd.inputs.shape == x.shape and fwd.params.shape == p.shape
    if not (same and np.array_equal(fwd.inputs, x, equal_nan=True) and np.array_equal(fwd.params, p, equal_nan=True)):
        raise ValueError("final_amps comes from a forward pass on another circuit, inputs or params")
    x = fwd.inputs  # from here on the sweep reads only the state
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != (x.shape[0], circuit.out_dim):
        raise ValueError(f"upstream must have shape {(x.shape[0], circuit.out_dim)}, got {up.shape}")

    psi = fwd.amps.copy(order="K")  # in the circuit's storage, as every state below
    mu = np.conj(psi)  # conj(lambda), lambda = M psi
    mu *= up @ circuit.diagonals
    psi_buf, mu_buf = np.empty_like(psi), np.empty_like(mu)

    grad_inputs = np.zeros_like(x)
    grad_params = np.zeros(circuit.n_params)
    tail_w = np.zeros_like(fwd.tails)
    for op, built in zip(reversed(circuit.program), reversed(fwd.built)):
        # Nothing reads psi after the last op of the sweep, and mu only for
        # an amplitude-encoded input gradient.
        last = op is circuit.program[0]
        keep_psi, keep_mu = not last, not last or circuit.encoding == "amplitude"
        if isinstance(op, PhasedPerm):
            if keep_psi:
                psi, psi_buf = apply_phased_perm(psi, op.inv_perm, op.inv_phase, psi_buf), psi
            if keep_mu:
                mu, mu_buf = apply_phased_perm(mu, op.inv_perm, op.inv_phase_conj, mu_buf), mu
            continue
        us, blocks = built
        # per-sample overlaps for per-sample gates, batch-summed ones for shared gates
        overlaps = np.empty((2, 2, op.shape[0], us.shape[3]), dtype=np.complex128)
        for app in op.apps:  # every overlap is taken at the stage output, before any un-apply
            app.take_overlaps(mu, psi, psi_buf, overlaps)
        for i, app in reversed(list(enumerate(op.apps))):
            # U^T un-applies a call from mu, then conj(U^T) = U^H from psi. A
            # contiguous per-sample U sits in mu_buf, so mu goes into psi's
            # spare storage and psi into mu's old one.
            ut = (app.unitary(us, mu_buf, psi_buf) if blocks is None else blocks[i]).swapaxes(1, 2)
            if keep_mu:
                mu, psi_buf = apply_rows(mu, app.qubits, ut, psi_buf), mu
            if keep_psi:
                uh = np.conjugate(ut, out=ut) if blocks is None else ut.conj()
                psi, psi_buf = apply_rows(psi, app.qubits, uh, psi_buf), psi
        op.add_gradients(overlaps, fwd, tail_w, grad_inputs, grad_params)
    circuit.tails.add_gradients(_angle_gradients(tail_w, circuit.tails.ry), grad_inputs, grad_params)

    if circuit.encoding == "amplitude":
        # mu is now conj((U^dag M U) psi0); the real-direction gradient on the
        # encoded state is 2 Re(lambda), chained through x -> x/||x||.
        g0 = 2.0 * mu.real
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        xhat = x / norms
        grad_inputs += (g0 - np.sum(g0 * xhat, axis=1, keepdims=True) * xhat) / norms
    return grad_inputs, grad_params
