"""Circuit builders and adjoint gradients vs independent oracles."""

from __future__ import annotations

import collections
import functools
import math
import tracemalloc

import numpy as np
import pytest

import hqnnbench.qnn as qnn_module
from hqnnbench.qnn import (
    Circuit,
    SignedPerm,
    Stage,
    build_amp_gen,
    build_ang_arb,
    build_ang_ry,
    build_qcnn,
    init_params,
    qnn_backward_batch,
    qnn_forward_batch,
)
from hqnnbench.statevec import Angle, EncodingError, Gate, GateKind, Observable

from oracles import (
    circuit_unitary,
    dense_expectations,
    fd_jacobian,
    fd_scalar_grad,
    one_qubit_stage_circuit,
    param_shift_jacobian,
    qcnn_reference_unitary,
    qnn_backward,
    qnn_forward,
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
        assert c.n_params == 24  # 8 two-qubit blocks, 3 params each
        assert gate_count(c, GateKind.CNOT) == 24  # 3 per block
        assert c.observable.kind == "single_z" and c.observable.qubit == 3
        assert c.out_dim == 1

    def test_structure_8(self):
        c = build_qcnn(8)
        assert c.n_params == 60  # (8+4) + (4+2) + (1+1) blocks, 3 params each
        assert gate_count(c, GateKind.CNOT) == 60  # 3 per block
        assert c.observable.qubit == 7

    def test_unsupported_sizes_rejected(self):
        for n in (2, 3, 6, 16):
            with pytest.raises(ValueError):
                build_qcnn(n)

    def test_unitary_matches_block_by_block_reference(self):
        # the builder's gates against the oracle's own block, emitted block after block
        rng = np.random.default_rng(60)
        for n in (4, 8):
            c = build_qcnn(n)
            p = rng.normal(size=c.n_params)
            assert np.abs(circuit_unitary(c, params=p) - qcnn_reference_unitary(n, p)).max() < 1e-12


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
        gx_b, gp_b = qnn_backward(c, xs, p, ups)
        gp_sum = np.zeros(c.n_params)
        for i in range(4):
            gx_i, gp_i = qnn_backward(c, xs[i], p, ups[i])
            assert np.allclose(gx_b[i], gx_i, atol=1e-12)
            gp_sum += gp_i
        assert np.allclose(gp_b, gp_sum, atol=1e-12)


def _reads_input(angles) -> bool:
    return any(a.source == "input" for a in angles)


class TestCompiledProgram:
    """The fusion read off the builders; a fallback to per-rotation gates shows here."""

    @staticmethod
    def layout(c):
        """Each op as ("perm",) or ("stage", ((qubit, reads an input slot), ...))."""
        return [
            ("perm",) if isinstance(op, SignedPerm) else ("stage", tuple((g.qubit, _reads_input(g.angles)) for g in op.gates))
            for op in c.program
        ]

    def test_amp_gen_8_is_32_shared_stages_and_32_permutations(self):
        layout = self.layout(build_amp_gen(8, True))
        assert layout == [("stage", tuple((q, False) for q in range(8))), ("perm",)] * 32

    def test_ang_ry_8_is_32_per_sample_stages_and_32_permutations(self):
        c = build_ang_ry(8, 256, True)
        assert self.layout(c) == [("stage", tuple((q, True) for q in range(8))), ("perm",)] * 32
        # RY encoding then ARB: four rotations per fused gate
        assert {len(g.angles) for op in c.program if isinstance(op, Stage) for g in op.gates} == {4}

    def test_unentangled_ang_arb_8_is_one_per_sample_stage(self):
        c = build_ang_arb(8, 256, False)
        assert self.layout(c) == [("stage", tuple((q, True) for q in range(8)))]
        (stage,) = c.program
        assert {len(g.angles) for g in stage.gates} == {6 * 11}
        assert stage.shape == (8, 66)  # one table: 8 gates by 66 steps

    def test_entangled_ang_arb_cz_layers_are_sign_only_permutations(self):
        perms = [op for op in build_ang_arb(4, 36, True).program if isinstance(op, SignedPerm)]
        assert len(perms) == 2
        for op in perms:
            # the identity permutation is dropped, so the kernel only multiplies
            assert op.perm is None and op.inv_perm is None and op.sign is not None

    def test_qcnn_is_one_op_per_layer_step(self):
        # The blocks of a layer are disjoint, so one step of every block fuses into
        # one op: per layer three CNOT permutations and four rotation stages, the
        # last stage shared with the next layer's first (5 layers at n=4, 8 at n=8).
        for n, n_perms in ((4, 15), (8, 24)):
            c = build_qcnn(n)
            assert [isinstance(op, SignedPerm) for op in c.program] == [False, True] * n_perms + [False]
            assert not any(_reads_input(g.angles) for op in c.program if isinstance(op, Stage) for g in op.gates)

    def test_amp_gen_8_stages_are_two_4_qubit_kronecker_blocks(self):
        for op in build_amp_gen(8, True).program:
            if isinstance(op, Stage):
                assert [app.qubits for app in op.apps] == [(3, 2, 1, 0), (7, 6, 5, 4)]
                # (wire, qubit) of each member: wire 0 is the block's top qubit
                assert [sorted((w, op.gates[slot].qubit) for slot, w in app.members) for app in op.apps] == [
                    [(0, 3), (1, 2), (2, 1), (3, 0)],
                    [(0, 7), (1, 6), (2, 5), (3, 4)],
                ]

    def test_ang_arb_8_l20_tail_is_two_per_sample_blocks(self):
        # 20 features fill qubits 0-5 and two slots of qubit 6; qubit 7 reads only padding
        c = build_ang_arb(8, 20, True)
        (stage,) = c.program
        assert c.rows and c.sample_major  # every block is per-sample
        assert [(app.qubits, len(app.members)) for app in stage.apps] == [((3, 2, 1, 0), 4), ((7, 6, 5, 4), 4)]
        # qubit 7 (wire 0 of the upper block) reads no input slot in any entry of its table row
        reads = {stage.gates[slot].qubit: (w, _reads_input(a for _, a in stage.table[slot])) for slot, w in stage.apps[1].members}
        assert reads == {7: (0, False), 6: (1, True), 5: (2, True), 4: (3, True)}

    def test_per_sample_blocks_span_half_the_register(self):
        for n, runs, sample_major in ((4, [(1, 0), (3, 2)], False), (5, [(2, 1, 0), (4, 3)], True)):
            c = build_ang_arb(n, 3 * n, False)
            (stage,) = c.program
            assert [app.qubits for app in stage.apps] == runs
            assert c.rows and c.sample_major is sample_major

    def test_qcnn_8_live_stages_mix_ry_and_rz_in_one_table(self):
        # RZ(p0) on a and RY(p1) on b of every block of a layer form one one-step
        # table, and RY(p2) on b the next; 8 layers at n=8
        live = [op for op in build_qcnn(8).program if isinstance(op, Stage) and op.live.any()]
        assert [sorted({kind for row in op.table for kind, _ in row}) for op in live] == [["ry", "rz"], ["ry"]] * 8
        assert {op.shape[1] for op in live} == {1}

    def test_short_runs_are_padded_at_the_front_with_const_rz0(self):
        stage = _fused_slot_reuse_circuit().program[0]
        # qubit 0 fuses 6 steps and qubit 1 fuses 7, so qubit 0's row starts with one RZ(0)
        assert [g.qubit for g in stage.gates] == [0, 1] and stage.shape == (2, 7)
        assert [len(g.steps) for g in stage.gates] == [6, 7]
        assert stage.table[0][0] == ("rz", Angle.const(0.0))
        assert stage.table[0][1:] == tuple(zip(stage.gates[0].steps, stage.gates[0].angles))
        assert stage.table[1] == tuple(zip(stage.gates[1].steps, stage.gates[1].angles))

    def test_layout_is_decided_per_circuit_by_its_input_slots(self):
        # angle circuits read inputs in every layer and keep (B, 2**n) rows, sample-major
        # from 5 qubits on; amplitude circuits read none and keep (2**n, B) columns
        for n in (4, 8):
            for c in (build_ang_ry(n, 2 * n, True), build_ang_arb(n, 3 * n, True)):
                assert (c.rows, c.sample_major) == (True, n == 8)
            for c in (build_amp_gen(n, True), build_qcnn(n)):
                assert (c.rows, c.sample_major) == (False, False)


def _fused_slot_reuse_circuit():
    """One input slot feeding several rotations of one fused gate and of its stage."""
    ops = (
        Gate.ry(0, Angle.input(0)),
        Gate.rz(0, Angle.input(0)),
        Gate.arb(0, Angle.input(1), Angle.input(0), Angle.param(0)),
        Gate.arb(1, Angle.input(1), Angle.input(0), Angle.param(1)),
        Gate.rz(0, Angle.input(1)),
        Gate.ry(1, Angle.param(2)),
        Gate.arb(1, Angle.input(1), Angle.input(1), Angle.const(0.3)),
        Gate.cnot(1, 0),
        Gate.ry(1, Angle.input(0)),
    )
    return Circuit(2, "angle", ops, 3, 2, Observable.local_z())


class TestBatchedAdjoint:
    """B=5 distinct rows: per-sample overlaps must not mix rows, shared ones must sum them."""

    B = 5

    def cases(self):
        rng = np.random.default_rng(41)
        out = []
        for encoding in ("angle", "amplitude"):
            for _ in range(8):
                c, _, p = random_circuit(rng, max_qubits=6, encoding=encoding)
                xs = rng.normal(size=(self.B, c.n_inputs))
                if encoding == "amplitude":
                    xs += np.sign(xs) * 0.1  # keep every row's norm away from zero
                out.append((c, xs, p, rng.normal(size=(self.B, c.out_dim))))
        c = _fused_slot_reuse_circuit()
        out.append((c, rng.normal(size=(self.B, 2)), rng.normal(size=3), rng.normal(size=(self.B, 2))))
        return out

    def test_forward_rows_match_dense_oracle(self):
        for c, xs, p, _ in self.cases():
            batch = qnn_forward_batch(c, xs, p)
            for row, x in zip(batch, xs):
                assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10

    def test_param_gradients_match_row_summed_parameter_shift(self):
        for c, xs, p, ups in self.cases():
            _, gp = qnn_backward(c, xs, p, ups)
            expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
            assert np.abs(gp - expect).max() < 1e-10

    def test_input_gradients_match_per_row_fd(self):
        for c, xs, p, ups in self.cases():
            gx, _ = qnn_backward(c, xs, p, ups)
            for row, x, up in zip(gx, xs, ups):
                fd = fd_scalar_grad(lambda z: float(up @ qnn_forward(c, z, p)), x, 1e-5)
                assert np.allclose(row, fd, rtol=1e-5, atol=1e-7)

    def test_batch_rows_match_single_sample_backward(self):
        for c, xs, p, ups in self.cases():
            gx, gp = qnn_backward(c, xs, p, ups)
            gp_sum = np.zeros(c.n_params)
            for row, x, up in zip(gx, xs, ups):
                gx_i, gp_i = qnn_backward(c, x, p, up)
                assert np.abs(row - gx_i).max() < 1e-12
                gp_sum += gp_i
            assert np.abs(gp - gp_sum).max() < 1e-12


class TestBackwardMemory:
    def test_peak_stays_within_eight_states(self):
        # n=8, B=256: one state is 256 * 2**8 complex128 = 1 MiB
        rng = np.random.default_rng(42)
        limit = 8 * 256 * (1 << 8) * 16
        for c in (build_amp_gen(8, True), build_ang_arb(8, 256, True), build_ang_ry(8, 256, True)):
            xs = rng.normal(size=(256, c.n_inputs))
            p = init_params(c.n_params, rng)
            out, amps = qnn_forward_batch(c, xs, p, return_state=True)
            up = np.ones_like(out)
            tracemalloc.start()
            try:
                qnn_backward_batch(c, xs, p, up, final_amps=amps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, f"{c.n_inputs}-input circuit peaked at {peak / 2**20:.2f} MiB"


@functools.lru_cache(maxsize=None)
def _one_qubit_stage_cases():
    """Random one-qubit-stage circuits for n = 1..10 (B=3 distinct rows), plus the
    Ang-Arb 8/l20 tail and QCNN 4 and 8."""
    rng = np.random.default_rng(51)
    out = []
    for n in range(1, 11):
        for encoding in ("angle", "angle", "amplitude"):
            c, _, p = one_qubit_stage_circuit(rng, n, encoding, n_stages=3 if n < 9 else 2)
            xs = rng.normal(size=(3, c.n_inputs))
            out.append((c, xs, p, rng.normal(size=(3, c.out_dim))))
    c = build_ang_arb(8, 20, True)
    out.append((c, rng.normal(size=(3, 20)), rng.normal(size=c.n_params), rng.normal(size=(3, 1))))
    for c in (build_qcnn(4), build_qcnn(8)):
        out.append((c, rng.normal(size=(3, c.n_inputs)), rng.normal(size=c.n_params), rng.normal(size=(3, 1))))
    return out


def _input_shift_jacobian(circuit, x, params):
    """d(outputs)/d(inputs) by the two-term shift rule: exact when each input feeds one rotation."""
    jac = np.zeros((circuit.out_dim, x.size))
    for j in range(x.size):
        shift = np.zeros_like(x)
        shift[j] = math.pi / 2.0
        jac[:, j] = (qnn_forward(circuit, x + shift, params) - qnn_forward(circuit, x - shift, params)) / 2.0
    return jac


class TestKroneckerBlocks:
    """One-qubit-only stages: batch-shared gates run as Kronecker blocks of up to
    four qubits, and the adjoint sweep takes every overlap at the stage output."""

    def test_cases_cover_the_block_layouts(self):
        widths, holes, blocks_per_stage, shared = set(), False, set(), False
        for c, *_ in _one_qubit_stage_cases():
            for op in c.program:
                if not isinstance(op, Stage):
                    continue
                widths |= {len(app.qubits) for app in op.apps}
                holes |= any(len(app.members) < len(app.qubits) for app in op.apps)
                blocks_per_stage.add(len(op.apps))
                # a gate that reads no input slot, in a block of a circuit that reads them
                shared |= c.rows and not all(_reads_input(a for _, a in row) for row in op.table)
        assert widths == {1, 2, 3, 4} and holes and shared and 3 in blocks_per_stage

    def test_forward_rows_match_dense_oracle(self):
        for c, xs, p, _ in _one_qubit_stage_cases():
            for row, x in zip(qnn_forward_batch(c, xs, p), xs):
                assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10

    def test_param_gradients_match_row_summed_parameter_shift(self):
        for c, xs, p, ups in _one_qubit_stage_cases():
            _, gp = qnn_backward(c, xs, p, ups)
            expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
            assert np.abs(gp - expect).max() < 1e-10

    def test_input_gradients_match_shift_rule_or_fd(self):
        for c, xs, p, ups in _one_qubit_stage_cases():
            gx, _ = qnn_backward(c, xs, p, ups)
            for row, x, up in zip(gx, xs, ups):
                if c.encoding == "angle":
                    assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max() < 1e-10
                else:  # directional central differences: up to 1024 inputs per row
                    for v in np.random.default_rng(52).normal(size=(3, x.size)):
                        f = lambda t: float(up @ qnn_forward(c, x + t * v, p))  # noqa: E731
                        assert math.isclose(row @ v, (f(1e-5) - f(-1e-5)) / 2e-5, rel_tol=1e-5, abs_tol=1e-7)


class TestBackwardKernelCalls:
    """Every stage but the first un-applies each kernel call on psi and on mu.
    The first stage is processed last: nothing reads psi afterwards, and mu only
    for the input gradient of an amplitude-encoded circuit. A circuit that reads
    inputs runs every call on rows, one that reads none on columns."""

    KERNELS = ("apply_gate", "gate_overlap", "apply_rows", "rows_overlap")

    @classmethod
    def count_calls(cls, monkeypatch, c):
        calls = collections.Counter()

        def counting(name):
            real = getattr(qnn_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        rng = np.random.default_rng(44)
        xs = rng.normal(size=(4, c.n_inputs))
        p = rng.normal(size=c.n_params)
        out, amps = qnn_forward_batch(c, xs, p, return_state=True)
        for name in cls.KERNELS:
            monkeypatch.setattr(qnn_module, name, counting(name))
        qnn_backward_batch(c, xs, p, np.ones_like(out), final_amps=amps)
        return calls

    def test_amp_gen_8_two_blocks_per_stage(self, monkeypatch):
        calls = self.count_calls(monkeypatch, build_amp_gen(8, True))
        assert calls == {"apply_gate": 31 * 2 * 2 + 2, "gate_overlap": 32 * 2}

    def test_ang_arb_8_first_stage_is_not_unapplied(self, monkeypatch):
        # 11 stages of two per-sample blocks; in the last, qubits 6 and 7 read only padding
        calls = self.count_calls(monkeypatch, build_ang_arb(8, 256, True))
        assert calls == {"apply_rows": 10 * 2 * 2, "rows_overlap": 11 * 2}

    def test_ang_ry_8_first_stage_is_not_unapplied(self, monkeypatch):
        calls = self.count_calls(monkeypatch, build_ang_ry(8, 256, True))
        assert calls == {"apply_rows": 31 * 2 * 2, "rows_overlap": 32 * 2}

    def test_qcnn_unapplies_every_gate(self, monkeypatch):
        # 16 stages of one 4-qubit block; 10 of them hold parameters
        calls = self.count_calls(monkeypatch, build_qcnn(4))
        assert calls == {"apply_gate": 15 * 2 + 1, "gate_overlap": 10}


@functools.lru_cache(maxsize=None)
def _single_sample_calls(kind):
    """An entangled 8-qubit l256 circuit, 256 rows, and each row's B=1 outputs and gradients."""
    c = (build_ang_ry if kind == "ang_ry" else build_ang_arb)(8, 256, True)
    rng = np.random.default_rng(53)
    xs = rng.normal(size=(256, 256))
    p = rng.normal(size=c.n_params)
    ups = rng.normal(size=(256, c.out_dim))
    rows = []
    for x, up in zip(xs, ups):
        out, amps = qnn_forward_batch(c, x[None], p, return_state=True)
        gx, gp = qnn_backward_batch(c, x[None], p, up[None], final_amps=amps)
        rows.append((out[0], gx[0], gp))
    outs, gxs, gps = (np.array(col) for col in zip(*rows))
    return c, xs, p, ups, outs, gxs, gps


class TestBatchInvariance:
    """Per-sample blocks in a batch against B=1 calls. At B=16 the sample-major
    (B, 16, 16) view of an 8-qubit state has three equal axes, so a swapped
    axis raises no shape error and shows only here."""

    @pytest.mark.parametrize("batch", [16, 256])
    @pytest.mark.parametrize("kind", ["ang_ry", "ang_arb"])
    def test_rows_match_single_sample_calls(self, kind, batch):
        c, xs, p, ups, outs, gxs, gps = _single_sample_calls(kind)
        out, amps = qnn_forward_batch(c, xs[:batch], p, return_state=True)
        gx, gp = qnn_backward_batch(c, xs[:batch], p, ups[:batch], final_amps=amps)
        assert np.abs(out - outs[:batch]).max() < 1e-12
        assert np.abs(gx - gxs[:batch]).max() < 1e-12
        assert np.abs(gp - gps[:batch].sum(axis=0)).max() < 1e-12
