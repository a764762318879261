"""Complex statevector simulation of small qubit registers.

Conventions (fixed, used everywhere in this package):

* Qubit ``q`` is the q-th least significant bit of the basis-state integer,
  i.e. basis state ``|b_{n-1} ... b_1 b_0>`` has amplitude ``amps[i]`` with
  ``i = sum_q b_q * 2**q``.
* ``RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]``
* ``RZ(t) = diag(exp(-i t/2), exp(+i t/2))``
* ``ArbRot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)`` (RZ(phi)
  acts first).

A circuit's state has one layout from encoding to readout, fixed when the
circuit is compiled (``hqnnbench.qnn``), and each layout has its kernels.

Every circuit is made of one-qubit rotations and CNOT/CZ gates, so every
matrix the simulator applies acts on a contiguous descending qubit run
``(lo + k - 1, ..., lo)``: one qubit, or a Kronecker block of adjacent
qubits. The run's local index puts its first qubit in the most significant
bit. Every kernel refuses a qubit tuple that is not such a run.

A circuit that reads no input slots keeps ``(2**n, B)`` columns: the basis
index is the *first* axis and the batch the last, so each view a kernel
takes keeps the batch contiguous whichever qubit it targets.
``apply_gate`` applies a batch-shared d x d unitary on a run, out of place
into a caller-owned buffer; ``gate_overlap`` reduces two states onto a run,
summed over the batch. The local index is the middle axis of
``amps.reshape(-1, 2**k, B << lo)``, and both kernels take the gate there as
one BLAS matmul per column chunk.

A circuit that reads input slots keeps its state as ``(B, 2**n)`` rows, in
which each sample's amplitudes on a run form a ``(R, d, C)`` block.
``apply_rows`` applies ``u[b]`` to sample ``b`` and ``rows_overlap`` takes
the per-sample overlaps. Their matrices are batch-first, ``(Bx, d, d)``
with ``Bx`` 1 (one matrix for the batch) or B; ``hqnnbench.qnn`` passes B,
since every block of a circuit on rows is per-sample. On sample-major
storage each is one stacked BLAS matmul. At n = 8 a sample is a 16 x 16
matrix, so a 4-qubit block on qubits 7-4 multiplies it from the left and
one on qubits 3-0 from the right. On the transposed view of ``(2**n, B)``
storage they are elementwise over the contiguous batch, which is faster for
4 x 4 blocks and smaller. ``apply_signed_perm`` gathers along the basis
axis of either storage.

The small matrices that ``hqnnbench.qnn`` builds for the kernels are
matrix-major, ``(d, d, ...)``, so their batch axes stay contiguous too.
``expval_batch`` takes a ``(B, 2**n)`` view of the state, which is also what
the forward pass returns as its state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

MAX_QUBITS = 10


class EncodingError(ValueError):
    """Raised when a feature vector cannot be amplitude-encoded."""


class GateKind(Enum):
    RY = "ry"
    RZ = "rz"
    ARB = "arb"
    CNOT = "cnot"
    CZ = "cz"


_N_ANGLES = {
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ARB: 3,
    GateKind.CNOT: 0,
    GateKind.CZ: 0,
}
_N_TARGETS = {
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ARB: 1,
    GateKind.CNOT: 2,
    GateKind.CZ: 2,
}


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
    """One gate of the supported set, with angle slots where parameterized."""

    kind: GateKind
    targets: tuple[int, ...]
    angles: tuple[Angle, ...] = ()

    def __post_init__(self):
        if len(self.targets) != _N_TARGETS[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_N_TARGETS[self.kind]} targets")
        if len(self.angles) != _N_ANGLES[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_N_ANGLES[self.kind]} angles")
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
    def arb(qubit: int, phi, theta, omega) -> "Gate":
        return Gate(GateKind.ARB, (qubit,), (_as_angle(phi), _as_angle(theta), _as_angle(omega)))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate(GateKind.CNOT, (control, target))

    @staticmethod
    def cz(a: int, b: int) -> "Gate":
        return Gate(GateKind.CZ, (a, b))


# ---------------------------------------------------------------------------
# Kernels on raw amplitude arrays shaped (2**n, B): the basis index is the
# first axis and the batch the last, so every view a kernel takes keeps the
# batch axis contiguous, whichever qubit it targets.
# ---------------------------------------------------------------------------

# Columns per BLAS call in ``apply_gate``, for every d.
# On 2 cores, (d x d) @ (d x 4096) products cost about 5, 9, 17 and 40 ns
# per column for d = 2, 4, 8, 16. A 2x2 product this narrow stays on one
# OpenBLAS thread; wider ones save at most ~20% per column, and in some
# processes every (2 x 2) @ (2 x 16384) call took 5-16 ms instead of
# ~0.07 ms. Products with d >= 4 run on two threads and have rare multi-ms
# outliers (d=4 on qubits 4-5: 8-37 ms once in 300 calls, median 0.15 ms),
# but narrower calls cost up to twice as much per column at d = 16.
_BLAS_COLS = 4096


def _run_low(dim: int, qubits: tuple[int, ...]) -> int:
    """The low qubit ``lo`` of the contiguous descending run ``qubits = (lo + k - 1, ..., lo)``.

    On such a run the gate's local index is the middle axis of
    ``amps.reshape(-1, 2**k, B << lo)``, so a gate on it is one matmul.
    """
    lo = qubits[-1]
    if qubits != tuple(range(lo + len(qubits) - 1, lo - 1, -1)):
        raise ValueError(f"qubits {qubits} are not a contiguous descending run")
    if 1 << (lo + len(qubits)) > dim:
        raise ValueError(f"qubit {qubits[0]} out of range for dim-{dim} register")
    return lo


def apply_gate(amps: np.ndarray, qubits: tuple[int, ...], u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the batch-shared ``U`` (d x d) applied to the run ``qubits`` of ``amps`` into ``out`` and return it.

    ``out`` must not overlap ``amps``.
    """
    lo = _run_low(amps.shape[0], qubits)
    cols = amps.shape[1] << lo
    src = amps.reshape(-1, u.shape[0], cols)
    dst = out.reshape(-1, u.shape[0], cols)
    for s in range(0, cols, _BLAS_COLS):
        np.matmul(u, src[..., s : s + _BLAS_COLS], out=dst[..., s : s + _BLAS_COLS])
    return out


def gate_overlap(mu: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Reduced overlap ``G[i, j] = sum_rest mu_i psi_j`` on the run ``qubits``, summed over the batch."""
    cols, d = mu.shape[1] << _run_low(mu.shape[0], qubits), 1 << len(qubits)
    m = mu.reshape(-1, d, cols)
    p = psi.reshape(-1, d, cols)
    return np.matmul(m, p.transpose(0, 2, 1)).sum(axis=0)


def _run_view(rows: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """``rows`` (B, 2**n) as ``(B, R, d, C)``: each sample's local index on the run ``qubits`` on axis 2."""
    lo = _run_low(rows.shape[1], qubits)
    return rows.reshape(rows.shape[0], -1, 1 << len(qubits), 1 << lo)


def apply_rows(rows: np.ndarray, qubits: tuple[int, ...], u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``u[b]`` applied to the run ``qubits`` of each sample ``rows[b]`` into ``out`` and return it.

    ``rows`` and ``out`` are ``(B, 2**n)`` and must not overlap; ``u`` is
    batch-first ``(Bx, d, d)``, shared when ``Bx`` is 1. On sample-major
    (C-contiguous) storage this is one stacked BLAS matmul, which needs a
    BLAS-able ``u``: on a run that ends at qubit 0 each sample's block is
    multiplied from the right by ``u[b]^T``, elsewhere from the left. On the
    transposed view of ``(2**n, B)`` storage it is elementwise over the
    contiguous batch axis, d multiplies, which is faster for d <= 4.
    """
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


def rows_overlap(mu: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample reduced overlaps ``G[b, i, j] = sum_rest mu_i psi_j`` on the run ``qubits``, batch-first.

    ``mu`` and ``psi`` are ``(B, 2**n)``, stored as in ``apply_rows``. On
    sample-major storage a run that ends at qubit 0 gives ``M_b^T P_b`` and
    one that starts at the top qubit ``M_b P_b^T``, each one stacked BLAS
    matmul. The result goes into ``out`` when it is given.
    """
    m, p = _run_view(mu, qubits), _run_view(psi, qubits)
    if not mu.flags.c_contiguous:
        return np.sum(m[:, :, :, None] * p[:, :, None], axis=(1, 4), out=out)
    if m.shape[3] == 1:
        return np.matmul(m[..., 0].swapaxes(1, 2), p[..., 0], out=out)
    if m.shape[1] == 1:
        return np.matmul(m[:, 0], p[:, 0].swapaxes(1, 2), out=out)
    return np.sum(np.matmul(m, p.swapaxes(2, 3)), axis=1, out=out)


def apply_signed_perm(
    amps: np.ndarray, perm: np.ndarray | None, sign: np.ndarray | None, out: np.ndarray, axis: int
) -> np.ndarray:
    """``out[i] = sign[i] * amps[perm[i]]`` along the basis axis ``axis`` of a 2-D state.

    ``perm=None`` is the identity and ``sign=None`` all +1. The basis axis
    is 0 of ``(2**n, B)`` storage and 1 of sample-major ``(B, 2**n)`` rows.
    A sign-only map (a run of CZ gates) is one multiply, with no gather.
    ``perm`` indexes ``amps`` by construction, so the gather runs with
    ``mode="clip"``: under the default ``"raise"`` NumPy gathers into a
    temporary buffer and copies it to ``out``.
    """
    if sign is not None and axis == 0:
        sign = sign[:, None]
    if perm is not None:
        np.take(amps, perm, axis=axis, out=out, mode="clip")
        if sign is not None:
            out *= sign
    elif sign is not None:
        np.multiply(amps, sign, out=out)
    else:
        np.copyto(out, amps)
    return out


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

    def out_dim(self, n_qubits: int) -> int:
        return n_qubits if self.kind == "local_z" else 1


@lru_cache(maxsize=None)
def _z_sign(n_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    s = 1.0 - 2.0 * ((idx >> qubit) & 1)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _parity_sign(n_qubits: int) -> np.ndarray:
    par = np.zeros(1 << n_qubits, dtype=np.int64)
    idx = np.arange(1 << n_qubits)
    for q in range(n_qubits):
        par ^= (idx >> q) & 1
    s = 1.0 - 2.0 * par
    s.setflags(write=False)
    return s


def measurement_diagonals(n_qubits: int, obs: Observable) -> np.ndarray:
    """Diagonals of the measured operator(s), shape (out_dim, 2**n)."""
    if obs.kind == "local_z":
        return np.stack([_z_sign(n_qubits, q) for q in range(n_qubits)])
    if obs.kind == "global_z":
        return _parity_sign(n_qubits)[None, :]
    if obs.qubit >= n_qubits:
        raise ValueError(f"observable qubit {obs.qubit} out of range")
    return _z_sign(n_qubits, obs.qubit)[None, :]


def expval_batch(amps: np.ndarray, n_qubits: int, obs: Observable) -> np.ndarray:
    """Expectation values for amplitudes shaped (B, 2**n) or (2**n,) -> (B, out_dim) or (out_dim,).

    The product runs on batch-contiguous probabilities whatever the storage
    of ``amps``: BLAS sums in an order that depends on the layout, so this
    gives every circuit's readout the same rounding.
    """
    probs = np.asfortranarray(amps.real**2 + amps.imag**2)
    return probs @ measurement_diagonals(n_qubits, obs).T
