"""Circuit builders and adjoint gradients vs independent oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hqnnbench.qnn import (
    Circuit,
    build_amp_gen,
    build_ang_arb,
    build_ang_ry,
    build_qcnn,
    init_params,
    qnn_backward,
    qnn_backward_batch,
    qnn_forward,
    qnn_forward_batch,
)
from hqnnbench.statevec import Angle, EncodingError, Gate, GateKind, Observable

from oracles import (
    circuit_unitary,
    dense_expectations,
    fd_jacobian,
    param_shift_jacobian,
    random_circuit,
)


def gate_count(circuit, kind):
    return sum(1 for g in circuit.ops if g.kind is kind)


class TestAngRyBuilder:
    def test_structure_4_16(self):
        c = build_ang_ry(4, 16, entangle=True)
        assert c.n_params == 48
        assert c.n_inputs == 16
        assert gate_count(c, GateKind.RY) == 16  # four embedding layers
        assert gate_count(c, GateKind.ARB) == 16  # four variational layers
        assert gate_count(c, GateKind.CNOT) == 16  # ring of 4, four times

    def test_structure_8_256(self):
        c = build_ang_ry(8, 256, entangle=True)
        assert c.n_params == 768
        assert gate_count(c, GateKind.RY) == 256

    def test_entangle_toggle_removes_cnots(self):
        c = build_ang_ry(4, 16, entangle=False)
        assert gate_count(c, GateKind.CNOT) == 0
        assert c.n_params == 48

    def test_zero_latent_rejected(self):
        with pytest.raises(ValueError):
            build_ang_ry(4, 0, entangle=True)

    def test_non_divisible_latent_zero_pads(self):
        c = build_ang_ry(4, 15, entangle=False)
        assert c.n_inputs == 15
        assert gate_count(c, GateKind.RY) == 16
        consts = [
            g for g in c.ops if g.kind is GateKind.RY and g.angles[0].source == "const"
        ]
        assert len(consts) == 1 and consts[0].angles[0].value == 0.0

    def test_single_ry_circuit_is_cosine(self):
        c = Circuit(
            n_qubits=1,
            encoding="angle",
            ops=(Gate.ry(0, Angle.input(0)),),
            n_params=0,
            n_inputs=1,
            observable=Observable.single_z(0),
        )
        for t in np.linspace(-3, 3, 7):
            assert abs(qnn_forward(c, [t], np.zeros(0))[0] - math.cos(t)) < 1e-12

    def test_unentangled_zero_params_is_product_of_cosines(self):
        c = build_ang_ry(3, 6, entangle=False)
        x = np.array([0.3, -1.2, 0.5, 0.9, 0.1, -0.4])
        out = qnn_forward(c, x, np.zeros(c.n_params))
        # each qubit accumulates the sum of its per-segment angles
        per_qubit = x.reshape(2, 3).sum(axis=0)
        assert abs(out[0] - np.prod(np.cos(per_qubit))) < 1e-12
        assert np.allclose(out, dense_expectations(c, x, np.zeros(c.n_params)), atol=1e-12)


class TestAngArbBuilder:
    def test_structure_4_16(self):
        c = build_ang_arb(4, 16, entangle=True)
        assert c.n_params == 24  # two embedding layers (16 padded to 24)
        assert c.n_inputs == 16
        assert gate_count(c, GateKind.ARB) == 16  # 2 layers x (4 embed + 4 var)

    def test_structure_8_256(self):
        c = build_ang_arb(8, 256, entangle=True)
        assert c.n_params == 264  # ceil(256/24) = 11 layers

    def test_cz_pairs_alternate_and_skip_final_layer(self):
        c = build_ang_arb(4, 36, entangle=True)  # k = 3 layers
        czs = [g.targets for g in c.ops if g.kind is GateKind.CZ]
        # layer 0: even pairs; layer 1: odd pairs; layer 2 (final): none
        assert czs == [(0, 1), (2, 3), (1, 2)]

    def test_no_cz_without_entanglement(self):
        c = build_ang_arb(4, 16, entangle=False)
        assert gate_count(c, GateKind.CZ) == 0


class TestAmpGenBuilder:
    def test_parameter_parity_with_ang_ry(self):
        assert build_amp_gen(4, True).n_params == build_ang_ry(4, 16, True).n_params == 48
        assert build_amp_gen(8, True).n_params == build_ang_ry(8, 256, True).n_params == 768

    def test_amplitude_contract(self):
        c = build_amp_gen(4, True)
        assert c.encoding == "amplitude"
        assert c.n_inputs == 16

    def test_unsupported_register_rejected(self):
        with pytest.raises(ValueError):
            build_amp_gen(5, True)

    def test_zero_params_on_basis_vector_gives_unit_global_z(self):
        c = build_amp_gen(4, True)
        x = np.zeros(16)
        x[0] = 1.0
        out = qnn_forward(c, x, np.zeros(c.n_params))
        assert abs(out[0] - 1.0) < 1e-12


class TestQcnnBuilder:
    def test_structure_4(self):
        c = build_qcnn(4)
        assert c.n_params == 24  # 8 two-qubit blocks
        assert gate_count(c, GateKind.BLOCK) == 8
        assert c.observable.kind == "single_z" and c.observable.qubit == 3
        assert c.out_dim == 1

    def test_structure_8(self):
        c = build_qcnn(8)
        assert c.n_params == 60  # (8+4) + (4+2) + (1+1) blocks, 3 params each
        assert gate_count(c, GateKind.BLOCK) == 20
        assert c.observable.qubit == 7

    def test_unsupported_sizes_rejected(self):
        for n in (2, 3, 6, 16):
            with pytest.raises(ValueError):
                build_qcnn(n)


class TestInitParams:
    def test_distribution(self):
        rng = np.random.default_rng(0)
        draws = init_params(100_000, rng)
        assert abs(draws.std() - 0.01 * math.pi) < 0.05 * 0.01 * math.pi
        assert abs(draws.mean()) < 1e-3

    def test_deterministic_and_empty(self):
        a = init_params(10, np.random.default_rng(42))
        b = init_params(10, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert init_params(0, np.random.default_rng(1)).shape == (0,)


class TestCircuitValidation:
    def test_param_slot_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1, "angle", (Gate.ry(0, Angle.param(3)),), 2, 1, Observable.single_z(0))

    def test_input_slot_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1, "angle", (Gate.ry(0, Angle.input(1)),), 0, 1, Observable.single_z(0))

    def test_amplitude_refuses_input_slots(self):
        with pytest.raises(ValueError):
            Circuit(1, "amplitude", (Gate.ry(0, Angle.input(0)),), 0, 2, Observable.single_z(0))

    def test_amplitude_requires_full_register_inputs(self):
        with pytest.raises(ValueError):
            Circuit(2, "amplitude", (), 0, 3, Observable.global_z())

    def test_gate_target_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1, "angle", (Gate.ry(1, 0.1),), 0, 1, Observable.single_z(0))


class TestForward:
    def test_outputs_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            c, x, p = random_circuit(rng)
            out = qnn_forward(c, x, p)
            assert out.shape == (c.out_dim,)
            assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            c, x, p = random_circuit(rng)
            assert np.allclose(qnn_forward(c, x, p), dense_expectations(c, x, p), atol=1e-10)

    def test_amplitude_circuits_match_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            c, x, p = random_circuit(rng, encoding="amplitude")
            assert np.allclose(qnn_forward(c, x, p), dense_expectations(c, x, p), atol=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(24)
        c = build_ang_ry(3, 6, entangle=True)
        xs = rng.normal(size=(5, 6))
        p = rng.normal(size=c.n_params)
        batch = qnn_forward_batch(c, xs, p)
        for i in range(5):
            assert np.allclose(batch[i], qnn_forward(c, xs[i], p), atol=1e-14)

    def test_shape_errors(self):
        c = build_ang_ry(2, 4, entangle=True)
        with pytest.raises(ValueError):
            qnn_forward(c, np.zeros(3), np.zeros(c.n_params))
        with pytest.raises(ValueError):
            qnn_forward(c, np.zeros(4), np.zeros(c.n_params + 1))

    def test_amplitude_zero_norm_raises(self):
        c = build_amp_gen(4, True)
        with pytest.raises(EncodingError):
            qnn_forward(c, np.zeros(16), np.zeros(c.n_params))

    def test_unitary_oracle_helper(self):
        rng = np.random.default_rng(25)
        c = build_qcnn(4)
        u = circuit_unitary(c, params=rng.normal(size=c.n_params))
        assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


class TestAdjointGradients:
    def test_ry_analytic_derivative(self):
        c = Circuit(
            n_qubits=1,
            encoding="angle",
            ops=(Gate.ry(0, Angle.input(0)),),
            n_params=0,
            n_inputs=1,
            observable=Observable.single_z(0),
        )
        gx, _ = qnn_backward(c, [math.pi / 2], np.zeros(0), [1.0])
        assert abs(gx[0] + 1.0) < 1e-12

    def test_matches_parameter_shift_and_fd(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            c, x, p = random_circuit(rng)
            jac_ps = param_shift_jacobian(c, x, p)
            jac_fd_p = fd_jacobian(lambda q: qnn_forward(c, x, q), p, 1e-5)
            jac_fd_x = fd_jacobian(lambda z: qnn_forward(c, z, p), x, 1e-5)
            for k in range(c.out_dim):
                up = np.zeros(c.out_dim)
                up[k] = 1.0
                gx, gp = qnn_backward(c, x, p, up)
                assert np.abs(gp - jac_ps[k]).max() < 1e-10
                assert np.allclose(gp, jac_fd_p[k], rtol=1e-5, atol=1e-7)
                assert np.allclose(gx, jac_fd_x[k], rtol=1e-5, atol=1e-7)

    def test_amplitude_input_gradients_match_fd(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            c, x, p = random_circuit(rng, encoding="amplitude")
            jac_fd = fd_jacobian(lambda z: qnn_forward(c, z, p), x, 1e-5)
            jac_ps = param_shift_jacobian(c, x, p)
            for k in range(c.out_dim):
                up = np.zeros(c.out_dim)
                up[k] = 1.0
                gx, gp = qnn_backward(c, x, p, up)
                assert np.allclose(gx, jac_fd[k], rtol=1e-5, atol=1e-7)
                assert np.abs(gp - jac_ps[k]).max() < 1e-10

    def test_amplitude_gradient_has_no_radial_component(self):
        rng = np.random.default_rng(33)
        c, x, p = random_circuit(rng, encoding="amplitude")
        gx, _ = qnn_backward(c, x, p, np.ones(c.out_dim))
        assert abs(float(gx @ x)) < 1e-10  # scale invariance of x/||x||

    def test_batch_backward_matches_single(self):
        rng = np.random.default_rng(34)
        c = build_ang_arb(3, 9, entangle=True)
        xs = rng.normal(size=(4, 9))
        p = rng.normal(size=c.n_params)
        ups = rng.normal(size=(4, c.out_dim))
        gx_b, gp_b = qnn_backward_batch(c, xs, p, ups)
        gp_sum = np.zeros(c.n_params)
        for i in range(4):
            gx_i, gp_i = qnn_backward(c, xs[i], p, ups[i])
            assert np.allclose(gx_b[i], gx_i, atol=1e-12)
            gp_sum += gp_i
        assert np.allclose(gp_b, gp_sum, atol=1e-12)

    def test_final_amps_shortcut_is_exact(self):
        rng = np.random.default_rng(35)
        c = build_amp_gen(4, True)
        xs = rng.normal(size=(3, 16))
        p = rng.normal(size=c.n_params)
        _, amps = qnn_forward_batch(c, xs, p, return_state=True)
        up = rng.normal(size=(3, 1))
        g1 = qnn_backward_batch(c, xs, p, up, final_amps=amps)
        g2 = qnn_backward_batch(c, xs, p, up)
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])
