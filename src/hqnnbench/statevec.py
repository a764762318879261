"""Complex statevector simulation of small qubit registers.

Conventions (fixed, used everywhere in this package):

* Qubit ``q`` is the q-th least significant bit of the basis-state integer,
  i.e. basis state ``|b_{n-1} ... b_1 b_0>`` has amplitude ``amps[i]`` with
  ``i = sum_q b_q * 2**q``.
* ``RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]``
* ``RZ(t) = diag(exp(-i t/2), exp(+i t/2))``

The gate set is RY, RZ, CNOT and CZ. The arbitrary rotation of the circuit
families is not a gate: ``hqnnbench.qnn._arb`` writes it as three rotations.

A circuit's state keeps one storage from encoding to readout, fixed when
the circuit is compiled (``hqnnbench.qnn``), and the circuit passes it to
the kernels as ``(B, 2**n)`` rows. The kernels alone pick their path, from
two facts about their arguments: the storage order of the rows
(``flags.c_contiguous``) and the batch extent ``Bx`` of the matrix, 1 for
one matrix shared by the batch, B for one per sample.

Every circuit is made of one-qubit rotations and CNOT/CZ gates, so every
matrix the simulator applies acts on a contiguous descending qubit run
``(lo + k - 1, ..., lo)``: one qubit, or a Kronecker block of adjacent
qubits. The run's local index puts its first qubit in the most significant
bit. Every kernel refuses a qubit tuple that is not such a run.

``apply_rows`` applies ``u[b]`` to sample ``b``, with ``u`` batch-first
``(Bx, d, d)``; ``rows_overlap`` takes the reduced overlaps on a run, per
sample or summed over the batch. There are three paths:

* sample-major (C-contiguous) rows: each sample's amplitudes on a run form
  an ``(R, d, C)`` block, and each kernel is one stacked BLAS matmul. At
  n = 8 a sample is a 16 x 16 matrix, so a 4-qubit block on qubits 7-4
  multiplies it from the left and one on qubits 3-0 from the right;
* the transposed view of ``(2**n, B)`` storage with a shared matrix: the
  basis index is the storage's first axis and the batch its last, so the
  local index is the middle axis of ``amps.reshape(-1, 2**k, B << lo)``,
  and the gate is one BLAS matmul into the caller's ``out`` and the
  overlap, summed over the batch, one more;
* the same view with per-sample matrices: elementwise over the contiguous
  batch, which is faster for 4 x 4 blocks and smaller.

At B = 1 both storages are C-contiguous, and every kernel takes the
sample-major path. ``apply_phased_perm`` applies a run of CNOT/CZ gates and
constant RZ phases, ``out[:, i] = phase[i] * rows[:, perm[i]]``, as one
gather along the basis axis of either storage and one multiply.

The small matrices that ``hqnnbench.qnn`` builds for the kernels are
matrix-major, ``(d, d, ...)``, so their batch axes stay contiguous too.
``expval_batch`` takes a ``(B, 2**n)`` view of the state, which is also what
the forward pass returns as its state, and the observable's diagonals
(``Observable.diagonals``), which each circuit computes once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_QUBITS = 10


class EncodingError(ValueError):
    """Raised when a feature vector cannot be amplitude-encoded."""


class GateKind(Enum):
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CZ = "cz"


@dataclass(frozen=True)
class Angle:
    """A gate angle: a constant, or a reference to an input/parameter slot.

    Slot references are what make circuits differentiable: ``input`` slots
    carry encoded data, ``param`` slots carry trainable values.
    """

    source: str  # "const" | "input" | "param"
    index: int = 0
    value: float = 0.0

    def __post_init__(self):
        if self.source not in ("const", "input", "param"):
            raise ValueError(f"unknown angle source {self.source!r}")
        if self.source != "const" and self.index < 0:
            raise ValueError("slot index must be non-negative")

    @staticmethod
    def const(value: float) -> "Angle":
        return Angle("const", value=float(value))

    @staticmethod
    def input(index: int) -> "Angle":
        return Angle("input", index=index)

    @staticmethod
    def param(index: int) -> "Angle":
        return Angle("param", index=index)


def _as_angle(a) -> Angle:
    return a if isinstance(a, Angle) else Angle.const(a)


@dataclass(frozen=True)
class Gate:
    """One gate of the supported set: a rotation takes one target and one angle, an entangler two targets and none."""

    kind: GateKind
    targets: tuple[int, ...]
    angles: tuple[Angle, ...] = ()

    def __post_init__(self):
        rotation = self.kind in (GateKind.RY, GateKind.RZ)
        if (len(self.targets), len(self.angles)) != ((1, 1) if rotation else (2, 0)):
            arity = "one target and one angle" if rotation else "two targets and no angle"
            raise ValueError(f"{self.kind.value} takes {arity}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate qubit indices in {self.kind.value} gate")
        if any(q < 0 for q in self.targets):
            raise ValueError("negative qubit index")

    @staticmethod
    def ry(qubit: int, angle) -> "Gate":
        return Gate(GateKind.RY, (qubit,), (_as_angle(angle),))

    @staticmethod
    def rz(qubit: int, angle) -> "Gate":
        return Gate(GateKind.RZ, (qubit,), (_as_angle(angle),))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate(GateKind.CNOT, (control, target))

    @staticmethod
    def cz(a: int, b: int) -> "Gate":
        return Gate(GateKind.CZ, (a, b))


# ---------------------------------------------------------------------------
# Kernels on (B, 2**n) rows. On the transposed view of (2**n, B) storage the
# basis index is the storage's first axis and the batch its last, so every
# view a kernel takes there keeps the batch axis contiguous, whichever qubit
# it targets.
# ---------------------------------------------------------------------------


def _run_low(dim: int, qubits: tuple[int, ...]) -> int:
    """The low qubit ``lo`` of the contiguous descending run ``qubits = (lo + k - 1, ..., lo)``.

    On such a run the gate's local index is axis 2 of
    ``rows.reshape(B, -1, 2**k, 2**lo)`` on sample-major rows, and the
    middle axis of ``amps.reshape(-1, 2**k, B << lo)`` on ``(2**n, B)``
    storage, so a gate on it is one matmul on either.
    """
    lo = qubits[-1]
    if qubits != tuple(range(lo + len(qubits) - 1, lo - 1, -1)):
        raise ValueError(f"qubits {qubits} are not a contiguous descending run")
    if 1 << (lo + len(qubits)) > dim:
        raise ValueError(f"qubit {qubits[0]} out of range for dim-{dim} register")
    return lo


def _run_view(rows: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """``rows`` (B, 2**n) as ``(B, R, d, C)``: each sample's local index on the run ``qubits`` on axis 2."""
    lo = _run_low(rows.shape[1], qubits)
    return rows.reshape(rows.shape[0], -1, 1 << len(qubits), 1 << lo)


def apply_rows(rows: np.ndarray, qubits: tuple[int, ...], u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``u[b]`` applied to the run ``qubits`` of each sample ``rows[b]`` into ``out`` and return it.

    ``rows`` and ``out`` are ``(B, 2**n)`` in one storage and must not
    overlap; ``u`` is batch-first ``(Bx, d, d)``, shared when ``Bx`` is 1.
    On sample-major (C-contiguous) storage this is one stacked BLAS matmul,
    which needs a BLAS-able ``u``: on a run that ends at qubit 0 each
    sample's block is multiplied from the right by ``u[b]^T``, elsewhere
    from the left. On the transposed view of ``(2**n, B)`` storage a shared
    ``u`` is one BLAS product on the storage's ``(R, d, B << lo)`` blocks,
    and a per-sample one is elementwise over the contiguous batch axis, d
    multiplies, which is faster for d <= 4.
    """
    if not rows.flags.c_contiguous and len(u) == 1:
        d, cols = u.shape[1], len(rows) << _run_low(rows.shape[1], qubits)
        np.matmul(u[0], rows.T.reshape(-1, d, cols), out=out.T.reshape(-1, d, cols))
        return out
    src, dst = _run_view(rows, qubits), _run_view(out, qubits)
    if not rows.flags.c_contiguous:
        tmp = np.empty_like(dst)
        np.multiply(u[:, None, :, 0, None], src[:, :, None, 0], out=dst)
        for j in range(1, src.shape[2]):
            dst += np.multiply(u[:, None, :, j, None], src[:, :, None, j], out=tmp)
    elif src.shape[3] == 1:
        np.matmul(src[..., 0], u.swapaxes(1, 2), out=dst[..., 0])
    else:
        np.matmul(u[:, None], src, out=dst)
    return out


def rows_overlap(
    mu: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...], summed: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Reduced overlaps ``G[b, i, j] = sum_rest mu_i psi_j`` on the run ``qubits``, batch-first ``(Bx, d, d)``.

    ``mu`` and ``psi`` are ``(B, 2**n)``, stored as in ``apply_rows``. They
    are per-sample (``Bx = B``), or with ``summed`` summed over the batch
    (``Bx = 1``), as a shared matrix's gradient needs. On sample-major
    storage a run that ends at qubit 0 gives ``M_b^T P_b`` and one that
    starts at the top qubit ``M_b P_b^T``, each one stacked BLAS matmul,
    and the per-sample overlaps go into ``out`` when it is given. On the
    transposed view of ``(2**n, B)`` storage a summed overlap is one BLAS
    product on the storage's ``(R, d, B << lo)`` blocks, summed over ``R``,
    and per-sample ones are one elementwise product and one sum, a view of
    ``(d, d, B)`` storage.
    """
    if not mu.flags.c_contiguous:
        lo, d = _run_low(mu.shape[1], qubits), 1 << len(qubits)
        if summed:
            m, p = mu.T.reshape(-1, d, len(mu) << lo), psi.T.reshape(-1, d, len(mu) << lo)
            return np.matmul(m, p.transpose(0, 2, 1)).sum(axis=0)[None]
        # (R, d, C, B) blocks of the (2**n, B) storage; the products keep the batch contiguous
        m, p = mu.T.reshape(-1, d, 1, 1 << lo, len(mu)), psi.T.reshape(-1, 1, d, 1 << lo, len(mu))
        return np.sum(m * p, axis=(0, 3)).transpose(2, 0, 1)
    m, p = _run_view(mu, qubits), _run_view(psi, qubits)
    if m.shape[3] == 1:
        g = np.matmul(m[..., 0].swapaxes(1, 2), p[..., 0], out=out)
    elif m.shape[1] == 1:
        g = np.matmul(m[:, 0], p[:, 0].swapaxes(1, 2), out=out)
    else:
        g = np.sum(np.matmul(m, p.swapaxes(2, 3)), axis=1, out=out)
    return g.sum(axis=0, keepdims=True) if summed else g


def apply_phased_perm(amps: np.ndarray, perm: np.ndarray | None, phase: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """``out[:, i] = phase[i] * amps[:, perm[i]]`` on ``(B, 2**n)`` rows, written into ``out`` and returned.

    ``perm=None`` is the identity and ``phase=None`` all 1; a real ``phase``
    only flips signs. ``amps`` and ``out`` share a storage, and the map runs
    along its basis axis: axis 1 of sample-major (C-contiguous) rows, axis 0
    of the ``(2**n, B)`` storage behind a transposed view. A phase-only map
    (CZ gates and constant RZ rotations) is one multiply, with no gather.
    ``perm`` indexes ``amps`` by construction, so the gather runs with
    ``mode="clip"``: under the default ``"raise"`` NumPy gathers into a
    temporary buffer and copies it to ``out``.
    """
    result, axis = out, 1
    if not amps.flags.c_contiguous:
        amps, out, axis = amps.T, out.T, 0
        phase = None if phase is None else phase[:, None]
    if perm is not None:
        np.take(amps, perm, axis=axis, out=out, mode="clip")
        if phase is not None:
            out *= phase
    elif phase is not None:
        np.multiply(amps, phase, out=out)
    else:
        np.copyto(out, amps)
    return result


@dataclass(frozen=True)
class Observable:
    """Pauli-Z measurement: per-qubit vector, all-qubit product, or one qubit."""

    kind: str  # "local_z" | "global_z" | "single_z"
    qubit: int | None = None

    def __post_init__(self):
        if self.kind not in ("local_z", "global_z", "single_z"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "single_z" and (self.qubit is None or self.qubit < 0):
            raise ValueError("single_z requires a qubit index")

    @staticmethod
    def local_z() -> "Observable":
        return Observable("local_z")

    @staticmethod
    def global_z() -> "Observable":
        return Observable("global_z")

    @staticmethod
    def single_z(qubit: int) -> "Observable":
        return Observable("single_z", qubit=qubit)

    def diagonals(self, n_qubits: int) -> np.ndarray:
        """Diagonals of the measured operator(s) on ``n_qubits``, ``(out_dim, 2**n)``: +1 or -1 per basis state."""
        if self.kind == "single_z" and self.qubit >= n_qubits:
            raise ValueError(f"observable qubit {self.qubit} out of range")
        bits = (np.arange(1 << n_qubits) >> np.arange(n_qubits)[:, None]) & 1  # bits[q, i] is qubit q of state i
        if self.kind == "global_z":
            bits = np.bitwise_xor.reduce(bits, axis=0, keepdims=True)
        elif self.kind == "single_z":
            bits = bits[self.qubit, None]
        return 1.0 - 2.0 * bits


def expval_batch(amps: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Expectation values for amplitudes shaped (B, 2**n) or (2**n,) -> (B, out_dim) or (out_dim,).

    ``diagonals`` are the observable's, ``(out_dim, 2**n)``. The product runs
    on batch-contiguous probabilities whatever the storage of ``amps``: BLAS
    sums in an order that depends on the layout, so this gives every
    circuit's readout the same rounding.
    """
    probs = np.asfortranarray(amps.real**2 + amps.imag**2)
    return probs @ diagonals.T
