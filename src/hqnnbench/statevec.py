"""Complex statevector simulation of small qubit registers.

Conventions (fixed, used everywhere in this package):

* Qubit ``q`` is the q-th least significant bit of the basis-state integer,
  i.e. basis state ``|b_{n-1} ... b_1 b_0>`` has amplitude ``amps[i]`` with
  ``i = sum_q b_q * 2**q``.
* ``RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]``
* ``RZ(t) = diag(exp(-i t/2), exp(+i t/2))``
* ``ArbRot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)`` (RZ(phi)
  acts first).
* ``TwoQubitBlock(p0, p1, p2)`` on targets ``(a, b)`` is the fixed sequence
  RZ(-pi/2) on b; CNOT b->a; RZ(p0) on a; RY(p1) on b; CNOT a->b;
  RY(p2) on b; CNOT b->a; RZ(pi/2) on a.

The low-level kernels (``apply_ry`` etc.) operate on raw complex amplitude
arrays whose *last* axis enumerates basis states; leading axes are treated
as batch dimensions and rotation angles may be scalars or arrays matching
the batch shape. All kernels mutate in place and return the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

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
    BLOCK = "block"


_N_ANGLES = {
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ARB: 3,
    GateKind.CNOT: 0,
    GateKind.CZ: 0,
    GateKind.BLOCK: 3,
}
_N_TARGETS = {
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ARB: 1,
    GateKind.CNOT: 2,
    GateKind.CZ: 2,
    GateKind.BLOCK: 2,
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

    def resolve(self, inputs: np.ndarray, params: np.ndarray):
        """Concrete angle value(s). Batched inputs yield one angle per row."""
        if self.source == "const":
            return self.value
        if self.source == "input":
            return inputs[..., self.index]
        return params[..., self.index]


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

    @staticmethod
    def block(a: int, b: int, p0, p1, p2) -> "Gate":
        return Gate(GateKind.BLOCK, (a, b), (_as_angle(p0), _as_angle(p1), _as_angle(p2)))


class Elem(NamedTuple):
    """An elementary operation: ry/rz rotation or cnot/cz entangler.

    Composite gates (ARB, BLOCK) expand to these; the simulation and the
    adjoint differentiation sweep only ever see elementary operations.
    """

    kind: str  # "ry" | "rz" | "cnot" | "cz"
    q0: int
    q1: int = -1  # cnot target / second cz qubit
    angle: Angle | None = None


_HALF_PI = math.pi / 2


def elementary_ops(gate: Gate) -> tuple[Elem, ...]:
    """Expand a gate into its elementary rotation/entangler sequence."""
    k = gate.kind
    if k is GateKind.RY:
        return (Elem("ry", gate.targets[0], angle=gate.angles[0]),)
    if k is GateKind.RZ:
        return (Elem("rz", gate.targets[0], angle=gate.angles[0]),)
    if k is GateKind.ARB:
        q = gate.targets[0]
        phi, theta, omega = gate.angles
        return (
            Elem("rz", q, angle=phi),
            Elem("ry", q, angle=theta),
            Elem("rz", q, angle=omega),
        )
    if k is GateKind.CNOT:
        return (Elem("cnot", gate.targets[0], gate.targets[1]),)
    if k is GateKind.CZ:
        return (Elem("cz", gate.targets[0], gate.targets[1]),)
    # TwoQubitBlock
    a, b = gate.targets
    p0, p1, p2 = gate.angles
    return (
        Elem("rz", b, angle=Angle.const(-_HALF_PI)),
        Elem("cnot", b, a),
        Elem("rz", a, angle=p0),
        Elem("ry", b, angle=p1),
        Elem("cnot", a, b),
        Elem("ry", b, angle=p2),
        Elem("cnot", b, a),
        Elem("rz", a, angle=Angle.const(_HALF_PI)),
    )


# ---------------------------------------------------------------------------
# Low-level kernels on raw amplitude arrays (last axis = basis index).
# ---------------------------------------------------------------------------


def _pair_view(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Reshape so axis -2 is the target qubit's bit (stride-pair layout)."""
    dim = amps.shape[-1]
    low = 1 << qubit
    if low >= dim:
        raise ValueError(f"qubit {qubit} out of range for dim-{dim} register")
    return amps.reshape(amps.shape[:-1] + (dim // (2 * low), 2, low))


def _bc(x, ndim_tail: int = 2):
    """Append singleton axes so a batch-shaped angle broadcasts over a view."""
    x = np.asarray(x)
    if x.ndim == 0:
        return x
    return x.reshape(x.shape + (1,) * ndim_tail)


def apply_ry(amps: np.ndarray, qubit: int, theta) -> np.ndarray:
    v = _pair_view(amps, qubit)
    c = _bc(np.cos(np.multiply(theta, 0.5)))
    s = _bc(np.sin(np.multiply(theta, 0.5)))
    a0 = v[..., 0, :].copy()
    a1 = v[..., 1, :]
    v[..., 0, :] = c * a0 - s * a1
    v[..., 1, :] = s * a0 + c * a1
    return amps

def apply_rz(amps: np.ndarray, qubit: int, theta) -> np.ndarray:
    v = _pair_view(amps, qubit)
    half = np.multiply(theta, 0.5)
    ph = _bc(np.cos(half) - 1j * np.sin(half))
    v[..., 0, :] *= ph
    v[..., 1, :] *= np.conj(ph)
    return amps


def _bit_axis_view(amps: np.ndarray) -> np.ndarray:
    n = amps.shape[-1].bit_length() - 1
    return amps.reshape(amps.shape[:-1] + (2,) * n)


def _bit_index(view: np.ndarray, **bits: int):
    # qubit q lives on axis (ndim - 1 - q); kwargs like q0=..., q1=...
    idx = [slice(None)] * view.ndim
    for name, val in bits.items():
        idx[view.ndim - 1 - int(name[1:])] = val
    return tuple(idx)


def apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    v = _bit_axis_view(amps)
    i10 = {f"q{control}": 1, f"q{target}": 0}
    i11 = {f"q{control}": 1, f"q{target}": 1}
    a = _bit_index(v, **i10)
    b = _bit_index(v, **i11)
    tmp = v[a].copy()
    v[a] = v[b]
    v[b] = tmp
    return amps


def apply_cz(amps: np.ndarray, qa: int, qb: int) -> np.ndarray:
    v = _bit_axis_view(amps)
    v[_bit_index(v, **{f"q{qa}": 1, f"q{qb}": 1})] *= -1
    return amps


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
    """Expectation values for amplitudes shaped (..., 2**n) -> (..., out_dim)."""
    probs = amps.real**2 + amps.imag**2
    return probs @ measurement_diagonals(n_qubits, obs).T
