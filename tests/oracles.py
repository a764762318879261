"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (dense
Kronecker products, O(n^2) pair counting, exhaustive enumerations, explicit
finite differences) so agreement with the fast implementations is evidence
of correctness rather than shared code paths.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from hqnnbench.qnn import Circuit, qnn_backward_batch, qnn_forward_batch
from hqnnbench.statevec import Angle, Gate, GateKind, Observable

# ---------------------------------------------------------------------------
# Dense statevector / expectation route. Gates are expanded here from the
# conventions in the ``hqnnbench.statevec`` docstring, not by the package;
# ``arb`` writes out the arbitrary rotation that the docstring of
# ``hqnnbench.qnn._arb`` defines, and ``block_gates`` the QCNN block that
# the docstring of ``hqnnbench.qnn.build_qcnn`` defines.
# ---------------------------------------------------------------------------

_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def arb_matrix(phi: float, theta: float, omega: float) -> np.ndarray:
    """Dense ``ARB(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi)``: RZ(phi) acts first."""
    return _rz(omega) @ _ry(theta) @ _rz(phi)


def _on_qubit(u: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(1 << (n_qubits - 1 - qubit)), u), np.eye(1 << qubit))


def _cnot_matrix(control: int, target: int, n_qubits: int) -> np.ndarray:
    """Basis permutation: flip the target bit where the control bit is set."""
    dim = 1 << n_qubits
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        m[i ^ (1 << target) if (i >> control) & 1 else i, i] = 1.0
    return m


def _cz_matrix(a: int, b: int, n_qubits: int) -> np.ndarray:
    """Sign diagonal: -1 where both bits are set."""
    idx = np.arange(1 << n_qubits)
    return np.diag(1.0 - 2.0 * ((idx >> a) & (idx >> b) & 1)).astype(np.complex128)


def _angle_value(angle: Angle, inputs, params) -> float:
    if angle.source == "const":
        return angle.value
    return float(np.asarray(inputs if angle.source == "input" else params)[angle.index])


def gate_matrix(gate: Gate, n_qubits: int, inputs=None, params=None) -> np.ndarray:
    """Full 2**n x 2**n unitary of ``gate``, built by Kronecker products."""
    t = [_angle_value(a, inputs, params) for a in gate.angles]
    kind, n = gate.kind, n_qubits
    if kind is GateKind.RY:
        return _on_qubit(_ry(t[0]), gate.targets[0], n)
    if kind is GateKind.RZ:
        return _on_qubit(_rz(t[0]), gate.targets[0], n)
    if kind is GateKind.CNOT:
        return _cnot_matrix(*gate.targets, n)
    return _cz_matrix(*gate.targets, n)


def arb(q: int, phi, theta, omega) -> list[Gate]:
    """The arbitrary rotation on qubit ``q`` as its three primitives, in application order."""
    return [Gate.rz(q, phi), Gate.ry(q, theta), Gate.rz(q, omega)]


def block_gates(a: int, b: int, p0, p1, p2) -> list[Gate]:
    """The QCNN two-qubit block on ``(a, b)`` as its eight primitives, in application order."""
    return [
        Gate.rz(b, -math.pi / 2),
        Gate.cnot(b, a),
        Gate.rz(a, p0),
        Gate.ry(b, p1),
        Gate.cnot(a, b),
        Gate.ry(b, p2),
        Gate.cnot(b, a),
        Gate.rz(a, math.pi / 2),
    ]


def qcnn_reference_unitary(n_qubits: int, params) -> np.ndarray:
    """Dense unitary of the QCNN, one block after another in the paper's order.

    While more than one qubit is active: blocks on the even pairs, then on
    the odd pairs with wrap-around (only while more than two qubits are
    active), then pooling blocks on the even pairs, which keep each pair's
    second qubit. Each block takes the next three parameters.
    """
    active = list(range(n_qubits))
    pairs = []
    while len(active) > 1:
        m = len(active)
        even = [(active[i], active[i + 1]) for i in range(0, m, 2)]
        odd = [(active[i], active[(i + 1) % m]) for i in range(1, m, 2)] if m > 2 else []
        pairs += even + odd + even
        active = [b for _, b in even]
    mat = np.eye(1 << n_qubits, dtype=np.complex128)
    for k, (a, b) in enumerate(pairs):
        for gate in block_gates(a, b, *params[3 * k : 3 * k + 3]):
            mat = gate_matrix(gate, n_qubits) @ mat
    return mat


def circuit_unitary(circuit: Circuit, inputs=None, params=None) -> np.ndarray:
    """Dense unitary of the whole gate program (excludes state preparation)."""
    mat = np.eye(1 << circuit.n_qubits, dtype=np.complex128)
    for gate in circuit.ops:
        mat = gate_matrix(gate, circuit.n_qubits, inputs, params) @ mat
    return mat


def dense_observable_matrices(n_qubits: int, obs: Observable) -> list[np.ndarray]:
    """Observable(s) as explicit kron chains (qubit 0 = least significant)."""

    def z_on(qubit: int) -> np.ndarray:
        mat = np.eye(1, dtype=np.complex128)
        for q in range(n_qubits - 1, -1, -1):
            mat = np.kron(mat, _Z if q == qubit else _I2)
        return mat

    if obs.kind == "local_z":
        return [z_on(q) for q in range(n_qubits)]
    if obs.kind == "global_z":
        mat = np.eye(1, dtype=np.complex128)
        for _ in range(n_qubits):
            mat = np.kron(mat, _Z)
        return [mat]
    return [z_on(obs.qubit)]


def dense_circuit_state(circuit: Circuit, inputs, params) -> np.ndarray:
    """Final statevector via dense matrix products only."""
    psi = np.zeros(1 << circuit.n_qubits, dtype=np.complex128)
    if circuit.encoding == "amplitude":
        x = np.asarray(inputs, dtype=np.float64)
        psi[: x.size] = x / np.linalg.norm(x)
    else:
        psi[0] = 1.0
    for gate in circuit.ops:
        psi = gate_matrix(gate, circuit.n_qubits, inputs, params) @ psi
    return psi


def dense_expectations(circuit: Circuit, inputs, params) -> np.ndarray:
    psi = dense_circuit_state(circuit, inputs, params)
    mats = dense_observable_matrices(circuit.n_qubits, circuit.observable)
    return np.array([float((psi.conj() @ (m @ psi)).real) for m in mats])


# ---------------------------------------------------------------------------
# The package's batched circuit passes on one sample (or a fresh batch).
# ---------------------------------------------------------------------------


def qnn_forward(circuit: Circuit, inputs, params) -> np.ndarray:
    """One sample's outputs (out_dim,) from the batched forward pass."""
    return qnn_forward_batch(circuit, np.atleast_2d(np.asarray(inputs, dtype=np.float64)), params)[0]


def qnn_backward(circuit: Circuit, inputs, params, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint gradients of ``upstream . outputs`` after a fresh forward pass.

    ``inputs`` is one sample (n_inputs,) with ``upstream`` (out_dim,), or a
    batch (B, n_inputs) with ``upstream`` (B, out_dim). The input gradient
    has the shape of ``inputs``; the parameter gradient is summed over rows.
    """
    x = np.asarray(inputs, dtype=np.float64)
    xs = np.atleast_2d(x)
    _, amps = qnn_forward_batch(circuit, xs, params, return_state=True)
    gx, gp = qnn_backward_batch(circuit, xs, params, np.atleast_2d(upstream), final_amps=amps)
    return gx.reshape(x.shape), gp


# ---------------------------------------------------------------------------
# Gradient oracles.
# ---------------------------------------------------------------------------


def param_shift_jacobian(circuit: Circuit, inputs, params) -> np.ndarray:
    """d(outputs)/d(params) via the +/- pi/2 shift rule; shape (out, n_params)."""
    p = np.asarray(params, dtype=np.float64)
    jac = np.zeros((circuit.out_dim, p.size))
    for j in range(p.size):
        shift = np.zeros_like(p)
        shift[j] = math.pi / 2.0
        jac[:, j] = (qnn_forward(circuit, inputs, p + shift) - qnn_forward(circuit, inputs, p - shift)) / 2.0
    return jac


def fd_jacobian(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian of vector-valued f; shape (out, x.size)."""
    x = np.asarray(x, dtype=np.float64)
    jac = np.zeros(np.shape(f(x)) + (x.size,))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        jac[..., j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


def fd_scalar_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of scalar f wrt every element of x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[j] += h
        xm.flat[j] -= h
        g.flat[j] = (f(xp) - f(xm)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Random circuit generator for oracle sweeps.
# ---------------------------------------------------------------------------


def random_circuit(rng: np.random.Generator, max_qubits: int = 4, encoding: str = "angle"):
    """A random mixed-gate circuit plus matching random inputs/params.

    Each parameter slot is bound to at most one gate angle (as the real
    builders do), which keeps the plain two-term parameter-shift rule valid
    as a gradient oracle. Input slots may be reused. A drawn arbitrary
    rotation counts as one gate and adds its three primitives, and a drawn
    QCNN block its eight. The slots are drawn from fixed ranges, so the
    circuit's counts (which come from the slots its gates read) may leave
    unread parameter and input slots below the largest one.
    """
    n = int(rng.integers(1, max_qubits + 1))
    input_slots = int(rng.integers(1, 6))
    n_gates = int(rng.integers(3, 10))
    free_params = list(rng.permutation(int(rng.integers(1, 13))))

    def slot() -> Angle:
        kind = rng.integers(0, 3)
        if kind == 1 and encoding != "amplitude":
            return Angle.input(int(rng.integers(0, input_slots)))
        if kind != 0 and free_params:
            return Angle.param(int(free_params.pop()))
        return Angle.const(float(rng.normal()))

    ops = []
    kinds_1q = ["ry", "rz", "arb"]
    kinds_2q = ["cnot", "cz", "block"]
    for _ in range(n_gates):
        if n >= 2 and rng.integers(0, 2):
            kind = kinds_2q[int(rng.integers(0, len(kinds_2q)))]
            a, b = rng.choice(n, size=2, replace=False)
            if kind == "cnot":
                ops.append(Gate.cnot(int(a), int(b)))
            elif kind == "cz":
                ops.append(Gate.cz(int(a), int(b)))
            else:
                ops.extend(block_gates(int(a), int(b), slot(), slot(), slot()))
        else:
            kind = kinds_1q[int(rng.integers(0, 3))]
            q = int(rng.integers(0, n))
            if kind == "ry":
                ops.append(Gate.ry(q, slot()))
            elif kind == "rz":
                ops.append(Gate.rz(q, slot()))
            else:
                ops.extend(arb(q, slot(), slot(), slot()))
    obs_kind = int(rng.integers(0, 3))
    if obs_kind == 0:
        obs = Observable.local_z()
    elif obs_kind == 1:
        obs = Observable.global_z()
    else:
        obs = Observable.single_z(int(rng.integers(0, n)))
    circuit = Circuit(n_qubits=n, encoding=encoding, ops=tuple(ops), observable=obs)
    inputs = rng.normal(size=circuit.n_inputs)
    if encoding == "amplitude":
        # keep the norm comfortably away from the degenerate-input cutoff
        while np.linalg.norm(inputs) < 0.5:
            inputs = rng.normal(size=circuit.n_inputs)
    params = rng.normal(size=circuit.n_params)
    return circuit, inputs, params


def one_qubit_stage_circuit(rng: np.random.Generator, n: int, encoding: str = "angle", n_stages: int = 3):
    """A random circuit whose stages hold only one-qubit gates, with inputs/params.

    Stages are separated by random CNOT/CZ runs. In each stage every qubit
    is left out, gets batch-shared rotations (param and constant angles) or,
    under angle encoding, per-sample rotations (at least one input angle), so
    Kronecker blocks of one to four qubits, blocks with qubits left out and
    stages mixing both kinds all occur. Every param and input slot feeds one
    rotation, so the two-term shift rule is exact for both.
    """
    slots = {"param": itertools.count(), "input": itertools.count()}

    def fresh(source: str) -> Angle:
        return Angle(source, index=next(slots[source]))

    ops = []
    for s in range(n_stages):
        if s and n >= 2:
            for _ in range(int(rng.integers(1, 3))):
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                ops.append(Gate.cnot(a, b) if rng.integers(0, 2) else Gate.cz(a, b))
        for q in range(n):
            role = int(rng.integers(0, 3 if encoding == "angle" else 2))  # 0 none, 1 shared, 2 per-sample
            if role == 0:
                continue
            for r in range(int(rng.integers(1, 3))):
                make = (arb, Gate.ry, Gate.rz)[int(rng.integers(0, 3))]
                angles = []
                for k in range(3 if make is arb else 1):
                    if role == 2 and r == 0 and (k == 0 or rng.integers(0, 2)):
                        angles.append(fresh("input"))
                    else:
                        angles.append(fresh("param") if rng.integers(0, 3) else Angle.const(float(rng.normal())))
                ops.extend(arb(q, *angles) if make is arb else [make(q, *angles)])
    obs = (Observable.local_z(), Observable.global_z(), Observable.single_z(int(rng.integers(0, n))))
    circuit = Circuit(n, encoding, tuple(ops), obs[int(rng.integers(0, 3))])
    return circuit, rng.normal(size=circuit.n_inputs), rng.normal(size=circuit.n_params)


def phased_perm_circuit(rng: np.random.Generator, n: int, encoding: str = "angle", n_stages: int = 3):
    """A random circuit whose runs of constant RZ gates sit between CNOT/CZ runs.

    The circuit starts and ends with such a run, and between them alternates
    a CNOT/CZ run, a constant RZ run, another CNOT/CZ run and a stage of
    rotations on random qubits (param angles, and under angle encoding input
    angles). Every param and input slot feeds one rotation, so the two-term
    shift rule is exact for both. Needs ``n >= 2``.
    """
    slots = {"param": itertools.count(), "input": itertools.count()}

    def fresh(source: str) -> Angle:
        return Angle(source, index=next(slots[source]))

    ops: list[Gate] = []

    def phases() -> None:
        for _ in range(int(rng.integers(1, 4))):
            ops.append(Gate.rz(int(rng.integers(0, n)), float(rng.normal())))

    def entangle() -> None:
        for _ in range(int(rng.integers(1, 3))):
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append(Gate.cnot(a, b) if rng.integers(0, 2) else Gate.cz(a, b))

    phases()
    for _ in range(n_stages):
        entangle()
        phases()
        entangle()
        for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            source = "input" if encoding == "angle" and rng.integers(0, 2) else "param"
            ops.append((Gate.ry, Gate.rz)[int(rng.integers(0, 2))](int(q), fresh(source)))
    entangle()
    phases()
    circuit = Circuit(n, encoding, tuple(ops), Observable.local_z())
    return circuit, rng.normal(size=circuit.n_inputs), rng.normal(size=circuit.n_params)


# ---------------------------------------------------------------------------
# Metric / statistics oracles.
# ---------------------------------------------------------------------------


def pair_counting_auc(scores, labels) -> float:
    """O(n^2) concordant/tied pair count."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def ap_curve_enumeration(scores, labels) -> float:
    """Average precision by walking the full precision/recall curve."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(y.sum())
    thresholds = sorted(set(s.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        sel = s >= th
        tp = int(y[sel].sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def _midranks_ref(v: np.ndarray) -> np.ndarray:
    out = np.empty(v.size)
    for i, x in enumerate(v):
        less = float((v < x).sum())
        equal = float((v == x).sum())
        out[i] = less + (equal + 1.0) / 2.0
    return out


def wilcoxon_bruteforce(x, y) -> float:
    """Two-sided exact p by enumerating every sign pattern."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    ranks = _midranks_ref(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_total = ranks.sum()
    w_obs = min(w_plus, w_total - w_plus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_obs + 1e-9 or w >= w_total - w_obs - 1e-9:
            count += 1
    return min(count / 2.0**n, 1.0)


def mwu_bruteforce(a, b) -> float:
    """Two-sided exact p by enumerating every group assignment."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    n_a, n_b = av.size, bv.size
    pooled = np.concatenate([av, bv])
    ranks = _midranks_ref(pooled)
    center = n_a * n_b / 2.0
    u_obs = ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0
    dev = abs(u_obs - center)
    count = 0
    total = 0
    for combo in itertools.combinations(range(n_a + n_b), n_a):
        u = ranks[list(combo)].sum() - n_a * (n_a + 1) / 2.0
        total += 1
        if abs(u - center) >= dev - 1e-9:
            count += 1
    return count / total


# Null counts in Python integers for samples too large to enumerate. Each
# returns a Counter from a statistic's value to the number of equally likely
# null outcomes that give it; ``two_sided_p`` turns one into a p-value.


def mwu_u_counts(n_a: int, n_b: int) -> Counter:
    """Orderings of n_a + n_b untied values by U of the first sample.

    Mann & Whitney's recursion on the largest value: it belongs to the
    first sample, which then beats all n_b of the second, or to the second:
    f(m, n; u) = f(m - 1, n; u - n) + f(m, n - 1; u).
    """
    prev = [[1]] * (n_b + 1)  # m = 0: U = 0 in one way, for every n
    for m in range(1, n_a + 1):
        cur = [[1]]  # n = 0: U = 0 in one way
        for n in range(1, n_b + 1):
            row = [0] * (m * n + 1)
            for u, c in enumerate(prev[n]):
                row[u + n] += c
            for u, c in enumerate(cur[n - 1]):
                row[u] += c
            cur.append(row)
        prev = cur
    return Counter(dict(enumerate(prev[n_b])))


def signed_rank_counts(n: int) -> Counter:
    """Sign patterns of n untied differences by W+, the sum of the positive ranks 1..n."""
    counts = [1]  # no rank yet: W+ = 0 in one way
    for r in range(1, n + 1):
        nxt = counts + [0] * r
        for w, c in enumerate(counts):
            nxt[w + r] += c  # rank r positive
        counts = nxt
    return Counter(dict(enumerate(counts)))


def tied_subset_counts(doubled, size: int | None = None) -> Counter:
    """Subsets of the integers ``doubled`` by sum: of ``size`` elements, or of any size when None.

    Equal values are taken together: j of a group of t equal values can be
    picked in C(t, j) ways. The pass runs over the distinct values, so it is
    quick when few are distinct, as under heavy ties.
    """
    by_size_sum = Counter({(0, 0): 1})
    for value, t in Counter(doubled).items():
        nxt = Counter()
        for (k, s), c in by_size_sum.items():
            for j in range(t + 1 if size is None else min(t, size - k) + 1):
                nxt[k + j, s + j * value] += c * math.comb(t, j)
        by_size_sum = nxt
    out = Counter()
    for (k, s), c in by_size_sum.items():
        if size is None or k == size:
            out[s] += c
    return out


def doubled_midranks(v) -> list[int]:
    """Twice the midranks of ``v``, as Python integers."""
    return [round(2 * r) for r in _midranks_ref(np.asarray(v, dtype=np.float64))]


def two_sided_p(counts: Counter, mean, observed) -> float:
    """Share of the null outcomes at least as far from ``mean`` as ``observed``, rounded once."""
    mean, observed = Fraction(mean), Fraction(observed)
    tail = sum(c for v, c in counts.items() if abs(v - mean) >= abs(observed - mean))
    return tail / sum(counts.values())


def lda_scores(train_x, train_y, test_x) -> np.ndarray:
    """Closed-form linear discriminant scores (pooled covariance)."""
    x0 = train_x[train_y == 0]
    x1 = train_x[train_y == 1]
    mu0, mu1 = x0.mean(axis=0), x1.mean(axis=0)
    cov = ((x0 - mu0).T @ (x0 - mu0) + (x1 - mu1).T @ (x1 - mu1)) / (len(train_x) - 2)
    cov += np.eye(cov.shape[0]) * 1e-6
    w = np.linalg.solve(cov, mu1 - mu0)
    return test_x @ w


# ---------------------------------------------------------------------------
# Classical layers: direct convolution, argmax max pooling, and the batch
# normalization formulas written as single expressions.
# ---------------------------------------------------------------------------


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    return np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * (x.ndim - 2))


def _conv_positions(xp: np.ndarray, k: int, stride: int):
    """Yield (output position, window index into one padded sample)."""
    out_sp = tuple((d - k) // stride + 1 for d in xp.shape[2:])
    for pos in itertools.product(*(range(d) for d in out_sp)):
        yield pos, (slice(None),) + tuple(slice(p * stride, p * stride + k) for p in pos)


def conv_direct(x, weight, bias, stride: int, padding: int) -> np.ndarray:
    """Cross-correlation by direct summation, one output element at a time:
    y[b, o, p] = bias[o] + sum_{i, off} weight[o, i, off] * xp[b, i, p * stride + off]."""
    k = weight.shape[2]
    xp = _pad(x, padding)
    out_sp = tuple((d - k) // stride + 1 for d in xp.shape[2:])
    y = np.empty((x.shape[0], weight.shape[0]) + out_sp)
    for b in range(x.shape[0]):
        for pos, win in _conv_positions(xp, k, stride):
            for o in range(weight.shape[0]):
                y[(b, o) + pos] = bias[o] + (xp[b][win] * weight[o]).sum()
    return y


def conv_direct_grads(x, weight, grad_out, stride: int, padding: int):
    """(grad_weight, grad_bias, grad_x) of ``conv_direct`` by scattering each
    output element's upstream gradient back over its window."""
    k = weight.shape[2]
    xp = _pad(x, padding)
    grad_w = np.zeros_like(weight)
    grad_xp = np.zeros_like(xp)
    for b in range(x.shape[0]):
        for pos, win in _conv_positions(xp, k, stride):
            for o in range(weight.shape[0]):
                g = grad_out[(b, o) + pos]
                grad_w[o] += g * xp[b][win]
                grad_xp[b][win] += g * weight[o]
    core = tuple(slice(padding, padding + d) for d in x.shape[2:])
    grad_b = grad_out.sum(axis=(0,) + tuple(range(2, grad_out.ndim)))
    return grad_w, grad_b, grad_xp[(slice(None), slice(None)) + core]


def maxpool_argmax(x: np.ndarray, k: int, ndim: int):
    """Non-overlapping max pooling through ``argmax`` over flattened windows.

    Returns (y, arg) with arg the flat in-window index of the selected element:
    the first maximum, or the first NaN.
    """
    win = np.lib.stride_tricks.sliding_window_view(x, (k,) * ndim, axis=tuple(range(2, x.ndim)))
    strided = win[(slice(None), slice(None)) + tuple(slice(None, None, k) for _ in range(ndim))]
    flat = strided.reshape(strided.shape[: 2 + ndim] + (k**ndim,))
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def maxpool_argmax_backward(x_shape, arg: np.ndarray, grad_out: np.ndarray, k: int, ndim: int):
    """Scatter ``grad_out`` to the input element ``maxpool_argmax`` selected."""
    grad_x = np.zeros(x_shape)
    offs = np.unravel_index(arg, (k,) * ndim)
    grids = np.meshgrid(*[np.arange(d) for d in grad_out.shape], indexing="ij", sparse=True)
    idx = tuple(grids[:2]) + tuple(grids[2 + a] * k + offs[a] for a in range(ndim))
    grad_x[idx] = grad_out
    return grad_x


def batchnorm_reference(x, gamma, beta, mean, var, eps: float, grad_out, training: bool):
    """(y, grad_x, grad_gamma, grad_beta) of batch normalization, each as one
    expression in the operation order of ``BatchNormReLUPool``. ``mean``/``var``
    are the statistics to normalize with (batch ones when ``training``)."""
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, -1) + (1,) * (x.ndim - 2)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    y = gamma.reshape(shape) * xhat + beta.reshape(shape)
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    g = grad_out * gamma.reshape(shape)
    if not training:
        return y, g * inv_std.reshape(shape), grad_gamma, grad_beta
    m = np.prod([x.shape[a] for a in axes])
    gs = g.sum(axis=axes, keepdims=True)
    gxs = (g * xhat).sum(axis=axes, keepdims=True)
    grad_x = inv_std.reshape(shape) * (g - gs / m - xhat * gxs / m)
    return y, grad_x, grad_gamma, grad_beta
