"""Statevector kernels against dense Kronecker-product references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hqnnbench.qnn import Circuit, _arb, qnn_forward_batch
from hqnnbench.statevec import (
    Angle,
    EncodingError,
    Gate,
    GateKind,
    Observable,
    apply_gate,
    apply_rows,
    apply_phased_perm,
    expval_batch,
    gate_overlap,
    rows_overlap,
)

from oracles import arb, arb_matrix, block_gates, circuit_unitary, dense_circuit_state, dense_observable_matrices, gate_matrix


def random_gates(rng, n_qubits):
    """One random gate, or the eight primitives of a QCNN block."""
    choice = rng.integers(0, 6 if n_qubits >= 2 else 3)
    q = int(rng.integers(0, n_qubits))
    ang = lambda: float(rng.uniform(-2 * math.pi, 2 * math.pi))  # noqa: E731
    if choice == 0:
        return [Gate.ry(q, ang())]
    if choice == 1:
        return [Gate.rz(q, ang())]
    if choice == 2:
        return arb(q, ang(), ang(), ang())
    a, b = rng.choice(n_qubits, size=2, replace=False)
    if choice == 3:
        return [Gate.cnot(int(a), int(b))]
    if choice == 4:
        return [Gate.cz(int(a), int(b))]
    return block_gates(int(a), int(b), ang(), ang(), ang())


def random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


def final_state(n_qubits, ops, x=None):
    """Run ``ops`` through the batched forward pass (B=1) and return the state.

    With ``x`` the register starts amplitude-encoded from the real vector
    ``x``; without it the register starts in |0...0>.
    """
    if x is None:
        circuit = Circuit(n_qubits, "angle", tuple(ops), Observable.global_z())
        x = np.zeros(circuit.n_inputs)
    else:
        circuit = Circuit(n_qubits, "amplitude", tuple(ops), Observable.global_z())
    _, state = qnn_forward_batch(circuit, np.atleast_2d(x), np.zeros(0), return_state=True)
    return state.amps[0]


def simulated_matrix(n_qubits, ops):
    """The unitary the simulator applies: its action on each basis state."""
    basis = np.eye(1 << n_qubits)
    return np.stack([final_state(n_qubits, ops, x=e) for e in basis], axis=1)


class TestZeroState:
    def test_one_qubit(self):
        assert np.array_equal(final_state(1, ()), [1.0 + 0.0j, 0.0 + 0.0j])

    def test_two_qubits(self):
        assert np.array_equal(final_state(2, ()), [1, 0, 0, 0])

    def test_rejects_empty_and_oversized_register(self):
        with pytest.raises(ValueError):
            Circuit(0, "angle", (), Observable.global_z())
        with pytest.raises(ValueError):
            Circuit(11, "angle", (), Observable.global_z())


class TestSingleGates:
    def test_ry_pi_flips_zero(self):
        s = final_state(1, (Gate.ry(0, math.pi),))
        assert np.allclose(s, [0.0, 1.0], atol=1e-15)

    def test_ry_matrix_convention(self):
        # RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
        t = 0.731
        m = gate_matrix(Gate.ry(0, t), 1)
        expect = np.array(
            [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]]
        )
        assert np.allclose(m, expect, atol=1e-15)
        assert np.allclose(simulated_matrix(1, (Gate.ry(0, t),)), m, atol=1e-15)

    def test_rz_matrix_convention(self):
        t = -1.234
        m = gate_matrix(Gate.rz(0, t), 1)
        assert np.allclose(m, np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]), atol=1e-15)
        assert np.allclose(simulated_matrix(1, (Gate.rz(0, t),)), m, atol=1e-15)

    def test_arbrot_applies_phi_first(self):
        # the builders' arbitrary rotation is the dense RZ(omega) RY(theta) RZ(phi)
        phi, theta, omega = 0.3, 1.1, -0.7
        m = arb_matrix(phi, theta, omega)
        assert np.abs(simulated_matrix(1, _arb(0, phi, theta, omega)) - m).max() < 1e-14
        x = np.array([0.6, -0.8])
        s = final_state(1, _arb(0, phi, theta, omega), x=x)
        assert np.abs(s - m @ x).max() < 1e-14
        # and so is the oracle's own three-gate form
        c = Circuit(1, "angle", tuple(arb(0, phi, theta, omega)), Observable.global_z())
        assert np.abs(circuit_unitary(c) - m).max() < 1e-15

    def test_cnot_truth_table(self):
        # qubit 0 is the least significant bit: flipping the target (qubit 1)
        # when control (qubit 0) is set maps index 1 -> 3 and 3 -> 1.
        e1 = np.eye(4)[1]
        assert np.argmax(np.abs(final_state(2, (Gate.cnot(0, 1),), x=e1))) == 3
        assert np.argmax(np.abs(final_state(2, (Gate.cnot(0, 1),) * 2, x=e1))) == 1
        assert np.array_equal(simulated_matrix(2, (Gate.cnot(0, 1),)), gate_matrix(Gate.cnot(0, 1), 2))

    def test_cnot_control_clear_is_identity(self):
        assert np.array_equal(final_state(2, (Gate.cnot(0, 1),)), [1, 0, 0, 0])

    def test_two_qubit_gate_rejects_duplicate_targets(self):
        with pytest.raises(ValueError):
            Gate.cnot(1, 1)

    def test_rotations_take_one_target_and_one_angle_entanglers_two_and_none(self):
        for kind in (GateKind.RY, GateKind.RZ):
            for targets, angles in (((0,), ()), ((0, 1), (Angle.const(0.1),)), ((0,), (Angle.const(0.1),) * 3)):
                with pytest.raises(ValueError, match="one target and one angle"):
                    Gate(kind, targets, angles)
        for kind in (GateKind.CNOT, GateKind.CZ):
            for targets, angles in (((0, 1), (Angle.const(0.1),)), ((0,), ())):
                with pytest.raises(ValueError, match="two targets and no angle"):
                    Gate(kind, targets, angles)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, "angle", (Gate.ry(2, 0.1),), Observable.global_z())
        amps = np.zeros((4, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            apply_gate(amps, (2,), np.eye(2), np.empty_like(amps))


class TestGateInverses:
    def test_ry_inverse(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=8)
        s = final_state(3, (Gate.ry(1, 0.813), Gate.ry(1, -0.813)), x=x)
        assert np.abs(s - x / np.linalg.norm(x)).max() < 1e-12

    def test_cnot_cz_involutions(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=8)
        ops = (Gate.cnot(2, 0), Gate.cnot(2, 0), Gate.cz(0, 1), Gate.cz(0, 1))
        assert np.abs(final_state(3, ops, x=x) - x / np.linalg.norm(x)).max() < 1e-15
        # a lone CZ is the oracle's sign diagonal
        assert np.array_equal(simulated_matrix(3, (Gate.cz(0, 1),)), gate_matrix(Gate.cz(0, 1), 3))


class TestAmplitudeEncode:
    def test_normalizes(self):
        assert np.allclose(final_state(1, (), x=[3.0, 4.0]), [0.6, 0.8])

    def test_basis_vector_padded(self):
        f = np.zeros(16)
        f[0] = 1.0
        assert np.array_equal(final_state(4, (), x=f), f)

    def test_zero_norm_rejected(self):
        c = Circuit(1, "amplitude", (), Observable.global_z())
        with pytest.raises(EncodingError, match="row 1"):
            qnn_forward_batch(c, np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(0))

    def test_capacity_exceeded_rejected(self):
        c = Circuit(2, "amplitude", (), Observable.global_z())
        with pytest.raises(ValueError):
            qnn_forward_batch(c, np.ones((1, 5)), np.zeros(0))


class TestExpectations:
    def test_single_z_on_zero_state(self):
        assert expval_batch(final_state(1, ()), Observable.single_z(0).diagonals(1))[0] == 1.0

    def test_bell_state_global_and_local(self):
        s = np.zeros(4, dtype=np.complex128)
        s[0] = s[3] = 1 / math.sqrt(2)
        assert abs(expval_batch(s, Observable.global_z().diagonals(2))[0] - 1.0) < 1e-15
        assert np.abs(expval_batch(s, Observable.local_z().diagonals(2))).max() < 1e-15

    def test_global_z_matches_popcount_sum_and_dense(self):
        rng = np.random.default_rng(9)
        amps = random_state(rng, 4)
        got = expval_batch(amps, Observable.global_z().diagonals(4))[0]
        direct = sum(
            abs(amps[i]) ** 2 * (-1) ** bin(i).count("1") for i in range(16)
        )
        dense = dense_observable_matrices(4, Observable.global_z())[0]
        assert abs(got - direct) < 1e-12
        assert abs(got - (amps.conj() @ dense @ amps).real) < 1e-12

    def test_local_z_matches_dense(self):
        rng = np.random.default_rng(10)
        amps = random_state(rng, 3)
        got = expval_batch(amps, Observable.local_z().diagonals(3))
        for q, mat in enumerate(dense_observable_matrices(3, Observable.local_z())):
            assert abs(got[q] - (amps.conj() @ mat @ amps).real) < 1e-12

    def test_measurement_diagonals_match_dense_diagonals(self):
        for n in range(1, 6):
            for obs in (Observable.local_z(), Observable.global_z(), Observable.single_z(n - 1)):
                diags = obs.diagonals(n)
                mats = dense_observable_matrices(n, obs)
                assert diags.shape == (len(mats), 1 << n)
                for row, mat in zip(diags, mats):
                    assert np.array_equal(row, np.diag(mat).real)
                # a circuit computes its observable's diagonals once, when it is built
                c = Circuit(n, "angle", (), obs)
                assert np.array_equal(c.diagonals, diags) and c.out_dim == len(mats)

    def test_single_z_qubit_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="observable qubit 3 out of range"):
            Observable.single_z(3).diagonals(3)
        with pytest.raises(ValueError, match="observable qubit 3 out of range"):
            Circuit(3, "angle", (), Observable.single_z(3))


class TestDenseOracle:
    def test_random_sequences_match_dense_products(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            x = rng.normal(size=1 << n)
            gates = [g for _ in range(int(rng.integers(1, 8))) for g in random_gates(rng, n)]
            ref = x / np.linalg.norm(x)
            for g in gates:
                ref = gate_matrix(g, n) @ ref
            state = final_state(n, gates, x=x)
            assert np.abs(state - ref).max() < 1e-10
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_block_expansion_is_unitary_and_consistent(self):
        rng = np.random.default_rng(12)
        gates = block_gates(0, 2, 0.4, -1.2, 2.2)
        m = np.eye(8)
        for g in gates:
            m = gate_matrix(g, 3) @ m
        assert np.allclose(m @ m.conj().T, np.eye(8), atol=1e-12)
        x = rng.normal(size=8)
        ref = m @ (x / np.linalg.norm(x))
        assert np.abs(final_state(3, gates, x=x) - ref).max() < 1e-12


class TestBatchedKernels:
    """Per-row angles in one batch against the dense oracle row by row."""

    def rows_match_dense(self, c, xs):
        _, state = qnn_forward_batch(c, xs, np.zeros(0), return_state=True)
        for row, x in zip(state.amps, xs):
            assert np.abs(row - dense_circuit_state(c, x, np.zeros(0))).max() < 1e-13

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(13)
        c = Circuit(3, "angle", (Gate.ry(1, Angle.input(0)), Gate.ry(0, 0.4)), Observable.global_z())
        self.rows_match_dense(c, rng.normal(size=(5, 1)))

    def test_batched_rz_and_entanglers(self):
        rng = np.random.default_rng(14)
        ops = (
            Gate.ry(1, Angle.input(0)),
            Gate.rz(0, Angle.input(1)),
            Gate.cnot(0, 1),
            Gate.cz(1, 2),
            *arb(2, Angle.input(1), 0.4, Angle.input(0)),
            Gate.rz(2, Angle.input(0)),
            Gate.ry(0, -0.3),
            *arb(0, Angle.input(1), Angle.input(0), 0.7),
        )
        self.rows_match_dense(Circuit(3, "angle", ops, Observable.global_z()), rng.normal(size=(5, 2)))


class TestSharedRunKernels:
    """A batch-shared d x d gate on a contiguous descending qubit run is one BLAS product."""

    @staticmethod
    def runs(n):
        for k in range(1, 5):
            for lo in range(n - k + 1):
                yield k, lo, tuple(range(lo + k - 1, lo - 1, -1))

    def test_apply_gate_matches_the_dense_kronecker_embedding(self):
        rng = np.random.default_rng(15)
        for n in (4, 6):
            amps = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            for k, lo, run in self.runs(n):
                u = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
                dense = np.kron(np.kron(np.eye(1 << (n - lo - k)), u), np.eye(1 << lo))
                got = apply_gate(amps, run, u, np.empty_like(amps))
                assert np.abs(got - dense @ amps).max() < 1e-12

    def test_overlap_matches_the_direct_sum(self):
        rng = np.random.default_rng(16)
        for n in (4, 6):
            mu, psi = (rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3)) for _ in range(2))
            for k, lo, run in self.runs(n):
                shape = (1 << (n - lo - k), 1 << k, 1 << lo, 3)
                ref = np.einsum("aibc,ajbc->ij", mu.reshape(shape), psi.reshape(shape))
                assert np.abs(gate_overlap(mu, psi, run) - ref).max() < 1e-12

    def test_run_out_of_range_rejected(self):
        amps = np.zeros((16, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            apply_gate(amps, (4, 3), np.eye(4), np.empty_like(amps))
        with pytest.raises(ValueError):
            gate_overlap(amps, amps, (4, 3))


class TestRowKernels:
    """Per-sample d x d gates on (B, 2**n) rows, on sample-major storage and on
    the transposed view of (2**n, B) storage, against the dense embedding:
    descending runs, shared and per-sample."""

    N, B = 5, 3
    QUBITS = [(0,), (3,), (4, 3, 2, 1), (2, 1, 0), (4, 3)]

    @classmethod
    def local(cls, qubits):
        """Each basis state's local index on ``qubits`` (first target most significant) and the rest."""
        idx = np.arange(1 << cls.N)
        loc = sum(((idx >> q) & 1) << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
        return loc, idx & ~sum(1 << q for q in qubits)

    def storages(self, rng):
        """Two random (B, 2**n) states, sample-major, then as views of (2**n, B) storage."""
        a, b = (rng.normal(size=(self.B, 1 << self.N)) + 1j * rng.normal(size=(self.B, 1 << self.N)) for _ in range(2))
        yield a, b
        yield np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T

    def test_apply_rows_matches_the_dense_embedding(self):
        rng = np.random.default_rng(18)
        for qubits in self.QUBITS:
            loc, rest = self.local(qubits)
            d = 1 << len(qubits)
            for bx in (1, self.B):
                u = rng.normal(size=(bx, d, d)) + 1j * rng.normal(size=(bx, d, d))
                for rows, out in self.storages(rng):
                    got = apply_rows(rows, qubits, u, out)
                    for b in range(self.B):
                        dense = u[b % bx][loc[:, None], loc[None, :]] * (rest[:, None] == rest[None, :])
                        assert np.abs(got[b] - dense @ rows[b]).max() < 1e-12

    def test_rows_overlap_matches_the_direct_sum(self):
        # per-sample, and summed over the batch, on both storages
        rng = np.random.default_rng(19)
        for qubits in self.QUBITS:
            loc, rest = self.local(qubits)
            d = 1 << len(qubits)
            for mu, psi in self.storages(rng):
                refs = np.zeros((self.B, d, d), dtype=np.complex128)
                for b in range(self.B):
                    pairs = mu[b][:, None] * psi[b][None, :] * (rest[:, None] == rest[None, :])
                    np.add.at(refs[b], (loc[:, None], loc[None, :]), pairs)
                per_sample, summed = rows_overlap(mu, psi, qubits, False), rows_overlap(mu, psi, qubits, True)
                assert per_sample.shape == refs.shape and np.abs(per_sample - refs).max() < 1e-12
                assert summed.shape == (1, d, d) and np.abs(summed[0] - refs.sum(axis=0)).max() < 1e-12

    def test_a_shared_matrix_on_the_transposed_view_is_the_column_product(self):
        # wide enough that the column kernel splits the run's columns over several BLAS calls
        rng = np.random.default_rng(21)
        batch = 300
        storage = rng.normal(size=(1 << self.N, batch)) + 1j * rng.normal(size=(1 << self.N, batch))
        rows, out = storage.T, np.empty_like(storage).T
        for qubits in self.QUBITS:
            loc, rest = self.local(qubits)
            d = 1 << len(qubits)
            u = rng.normal(size=(1, d, d)) + 1j * rng.normal(size=(1, d, d))
            assert apply_rows(rows, qubits, u, out) is out
            dense = u[0][loc[:, None], loc[None, :]] * (rest[:, None] == rest[None, :])
            assert np.abs(out - rows @ dense.T).max() < 1e-12
            assert np.array_equal(out.T, apply_gate(storage, qubits, u[0], np.empty_like(storage)))

    def test_kernels_refuse_qubits_off_a_descending_run(self):
        # the column kernels too, on the (2**n, B) view of each storage
        rng = np.random.default_rng(20)
        for rows, out in self.storages(rng):
            for qubits in ((1, 3), (4, 0), (0, 2)):
                u = np.eye(1 << len(qubits), dtype=np.complex128)[None]
                with pytest.raises(ValueError, match="descending run"):
                    apply_rows(rows, qubits, u, out)
                for summed in (False, True):
                    with pytest.raises(ValueError, match="descending run"):
                        rows_overlap(rows, out, qubits, summed)
                with pytest.raises(ValueError, match="descending run"):
                    apply_gate(rows.T, qubits, u[0], out.T)
                with pytest.raises(ValueError, match="descending run"):
                    gate_overlap(rows.T, out.T, qubits)


class TestSignedPermutation:
    """``apply_phased_perm`` is ``phase * rows[:, perm]`` on (B, 2**n) rows, written
    into ``out``, on sample-major storage and on the transposed view of
    (2**n, B) storage; a sign is a real phase. B != 2**n, so a swapped axis
    cannot pass."""

    @staticmethod
    def storages(rng, n, batch):
        """One random (B, 2**n) state, sample-major, then as a view of (2**n, B) storage."""
        rows = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
        yield rows
        yield np.ascontiguousarray(rows.T).T

    @pytest.mark.parametrize("with_perm, with_sign", [(True, True), (True, False), (False, True), (False, False)])
    def test_matches_the_fancy_index(self, with_perm, with_sign):
        rng = np.random.default_rng(17)
        n, batch = 5, 3
        perm = rng.permutation(1 << n) if with_perm else None
        sign = rng.choice([-1.0, 1.0], size=1 << n) if with_sign else None
        for rows in self.storages(rng, n, batch):
            want = (np.ones(1 << n) if sign is None else sign) * rows[:, np.arange(1 << n) if perm is None else perm]
            out = np.empty_like(rows)
            assert out.flags.c_contiguous is rows.flags.c_contiguous
            assert apply_phased_perm(rows, perm, sign, out) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("with_perm", [True, False])
    def test_complex_phase_matches_the_fancy_index(self, with_perm):
        rng = np.random.default_rng(18)
        n, batch = 4, 3
        perm = rng.permutation(1 << n) if with_perm else None
        phase = np.exp(1j * rng.normal(size=1 << n))
        for rows in self.storages(rng, n, batch):
            want = phase * rows[:, np.arange(1 << n) if perm is None else perm]
            out = np.empty_like(rows)
            assert apply_phased_perm(rows, perm, phase, out) is out
            assert np.abs(out - want).max() < 1e-15  # complex products may round apart in the last bit


class TestFusion:
    def test_fused_gates_keep_the_rotation_order(self):
        ops = (Gate.ry(0, 0.3), Gate.rz(1, 0.2), *arb(0, 0.1, -0.5, 0.9), Gate.rz(0, 1.3))
        c = Circuit(2, "angle", ops, Observable.global_z())
        (stage,) = c.program
        # one fused gate per qubit: 5 steps on qubit 0, and 1 on qubit 1 behind 4 steps of padding
        assert stage.qubits == (0, 1) and stage.shape == (2, 5)
        assert [kind for kind, _ in stage.table[0]] == ["ry", "rz", "ry", "rz", "rz"]
        assert stage.table[1][:4] == (("rz", Angle.const(0.0)),) * 4
        ref = np.eye(4)
        for g in ops:
            ref = gate_matrix(g, 2) @ ref
        assert np.abs(simulated_matrix(2, ops) - ref).max() < 1e-14


class TestAngleSlots:
    def test_slot_resolution(self):
        c = Circuit(1, "angle", (Gate.ry(0, Angle.input(1)),), Observable.global_z())
        _, state = qnn_forward_batch(c, np.array([[0.0, math.pi]]), np.zeros(0), return_state=True)
        assert np.allclose(state.amps[0], [0.0, 1.0], atol=1e-15)

    def test_angle_source_validation(self):
        with pytest.raises(ValueError):
            Angle("bogus")
        with pytest.raises(ValueError):
            Angle.param(-1)
