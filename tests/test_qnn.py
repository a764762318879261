"""Circuit builders and adjoint gradients vs independent oracles."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import hqnnbench.qnn as qnn_module
from hqnnbench.config import FAMILIES, QUBITS_FOR_LATENT, QnnArch
from hqnnbench.qnn import (
    Circuit,
    PhasedPerm,
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
    arb,
    circuit_unitary,
    dense_expectations,
    fd_jacobian,
    fd_scalar_grad,
    gate_matrix,
    one_qubit_stage_circuit,
    param_shift_jacobian,
    phased_perm_circuit,
    qcnn_reference_unitary,
    qnn_backward,
    qnn_forward,
    random_circuit,
)


def gate_count(circuit, kind):
    return sum(1 for g in circuit.ops if g.kind is kind)


def encoding_rys(circuit):
    """The encoding RYs: the RY gates that read no param slot."""
    return [g for g in circuit.ops if g.kind is GateKind.RY and g.angles[0].source != "param"]


def variational_kinds(circuit):
    """The kinds of the rotations that read a param slot, in order."""
    return [g.kind for g in circuit.ops if any(a.source == "param" for a in g.angles)]


ARB_KINDS = [GateKind.RZ, GateKind.RY, GateKind.RZ]  # an arbitrary rotation's gates, in application order


class TestAngRyBuilder:
    def test_structure_4_16(self):
        c = build_ang_ry(4, 16, entangle=True)
        assert c.n_params == 48
        assert c.n_inputs == 16
        assert len(encoding_rys(c)) == 16  # four embedding layers
        assert variational_kinds(c) == ARB_KINDS * 16  # four variational layers of arbitrary rotations
        assert gate_count(c, GateKind.CNOT) == 16  # ring of 4, four times

    def test_structure_8_256(self):
        c = build_ang_ry(8, 256, entangle=True)
        assert c.n_params == 768
        assert len(encoding_rys(c)) == 256

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
        assert len(encoding_rys(c)) == 16
        consts = [g for g in encoding_rys(c) if g.angles[0].source == "const"]
        assert len(consts) == 1 and consts[0].angles[0].value == 0.0

    def test_single_ry_circuit_is_cosine(self):
        c = Circuit(
            n_qubits=1,
            encoding="angle",
            ops=(Gate.ry(0, Angle.input(0)),),
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
        # 2 layers x (4 embed + 4 var) arbitrary rotations
        assert [g.kind for g in c.ops if g.kind is not GateKind.CZ] == ARB_KINDS * 16
        assert variational_kinds(c) == ARB_KINDS * 8

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
    def test_amplitude_refuses_input_slots(self):
        with pytest.raises(ValueError):
            Circuit(1, "amplitude", (Gate.ry(0, Angle.input(0)),), Observable.single_z(0))

    def test_gate_target_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1, "angle", (Gate.ry(1, 0.1),), Observable.single_z(0))


def _grid_circuits():
    """Every circuit of the grid, with its latent: each family at each latent and each value of its switches."""
    for kind, family in FAMILIES.items():
        for latent, entangle, observable in itertools.product(
            QUBITS_FOR_LATENT, family.takes("entangle"), family.takes("observable")
        ):
            yield latent, QnnArch(kind, entangle, observable).build(latent)


class TestSlotCounts:
    """A circuit's ``n_params`` and ``n_inputs`` come from the slots its gates read."""

    def test_grid_circuits_read_each_param_slot_once(self):
        # The parameter-shift oracles need each slot on one rotation, and
        # criterion 04's parity compares the slots the gates read.
        circuits = list(_grid_circuits())
        assert len(circuits) == 26
        for latent, c in circuits:
            reads = collections.Counter(a.index for g in c.ops for a in g.angles if a.source == "param")
            assert sorted(reads) == list(range(c.n_params)) and set(reads.values()) == {1}
            assert c.n_inputs == (1 << c.n_qubits if c.encoding == "amplitude" else latent)

    def test_unread_param_slot_below_the_largest(self):
        # Slots 0 and 2 are read and slot 1 is not: n_params is 3, and the
        # unread slot's gradient is exactly zero.
        ops = (Gate.ry(0, Angle.param(0)), Gate.cnot(0, 1), Gate.rz(1, Angle.input(1)), Gate.ry(1, Angle.param(2)))
        c = Circuit(2, "angle", ops, Observable.local_z())
        assert (c.n_params, c.n_inputs) == (3, 2)
        rng = np.random.default_rng(61)
        xs, p, ups = rng.normal(size=(4, 2)), rng.normal(size=3), rng.normal(size=(4, 2))
        gx, gp = qnn_backward(c, xs, p, ups)
        assert gp[1] == 0.0 and np.all(gx[:, 0] == 0.0)
        expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
        assert np.abs(gp - expect).max() < 1e-10


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
                assert np.abs(gp - jac_ps[k]).max(initial=0.0) < 1e-10
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
            ("perm",)
            if isinstance(op, PhasedPerm)
            else ("stage", tuple((q, _reads_input(a for _, a in row)) for q, row in zip(op.qubits, op.table)))
            for op in c.program
        ]

    def test_amp_gen_8_is_32_shared_stages_and_32_permutations(self):
        layout = self.layout(build_amp_gen(8, True))
        assert layout == [("stage", tuple((q, False) for q in range(8))), ("perm",)] * 32

    def test_ang_ry_8_is_32_per_sample_stages_and_32_permutations(self):
        c = build_ang_ry(8, 256, True)
        assert self.layout(c) == [("stage", tuple((q, True) for q in range(8))), ("perm",)] * 32
        # RY encoding then an arbitrary rotation: four rotations per fused gate, none of them padding
        rows = {tuple((kind, a.source) for kind, a in row) for op in c.program if isinstance(op, Stage) for row in op.table}
        assert rows == {(("ry", "input"), ("rz", "param"), ("ry", "param"), ("rz", "param"))}

    def test_unentangled_ang_arb_8_is_one_per_sample_stage(self):
        c = build_ang_arb(8, 256, False)
        assert self.layout(c) == [("stage", tuple((q, True) for q in range(8)))]
        (stage,) = c.program
        # 11 layers of two arbitrary rotations: 66 steps per fused gate, none of them padding
        assert {tuple(kind for kind, _ in row) for row in stage.table} == {("rz", "ry", "rz") * 22}
        assert stage.shape == (8, 66)  # one table: 8 gates by 66 steps

    def test_entangled_ang_arb_cz_layers_are_sign_only_permutations(self):
        perms = [op for op in build_ang_arb(4, 36, True).program if isinstance(op, PhasedPerm)]
        assert len(perms) == 2
        for op in perms:
            # the identity permutation is dropped, so the kernel only multiplies, by a real sign
            assert op.perm is None and op.inv_perm is None and op.phase.dtype == np.float64
            assert set(op.phase) == {1.0, -1.0}

    def test_qcnn_is_one_op_per_layer_step(self):
        # The blocks of a layer are disjoint, so one step of every block fuses into
        # one op. The constant RZ(-pi/2) and RZ(pi/2) steps fold into the CNOT
        # permutations around them as phases, so each layer is two stages
        # between three permutations, and a layer's last permutation is the next
        # one's first (5 layers at n=4, 8 at n=8): 21 and 33 ops.
        rng = np.random.default_rng(54)
        for n, n_stages in ((4, 10), (8, 16)):
            c = build_qcnn(n)
            assert len(c.program) == 2 * n_stages + 1
            assert [isinstance(op, PhasedPerm) for op in c.program] == [True, False] * n_stages + [True]
            stages = [op for op in c.program if isinstance(op, Stage)]
            # no input slot: every stage is all tail, shared by the batch
            assert all(op.n_head == 0 and op.n_tail == op.shape[1] >= 1 for op in stages)
            # the first map carries the layer's RZ(-pi/2) phases, the last the final RZ(pi/2)
            assert c.program[0].phase.dtype == np.complex128 and c.program[-1].phase.dtype == np.complex128
            x = rng.normal(size=(3, c.n_inputs))
            p = rng.normal(size=c.n_params)
            for row, xi in zip(qnn_forward_batch(c, x, p), x):
                assert np.abs(row - dense_expectations(c, xi, p)).max() < 1e-10

    def test_amp_gen_8_stages_are_two_4_qubit_kronecker_blocks(self):
        for op in build_amp_gen(8, True).program:
            if isinstance(op, Stage):
                assert [app.qubits for app in op.apps] == [(3, 2, 1, 0), (7, 6, 5, 4)]
                # (wire, qubit) of each member: wire 0 is the block's top qubit
                assert [sorted((w, op.qubits[slot]) for slot, w in app.members) for app in op.apps] == [
                    [(0, 3), (1, 2), (2, 1), (3, 0)],
                    [(0, 7), (1, 6), (2, 5), (3, 4)],
                ]

    def test_ang_arb_8_l20_tail_is_two_per_sample_blocks(self):
        # 20 features fill qubits 0-5 and two slots of qubit 6; qubit 7 reads only padding
        c = build_ang_arb(8, 20, True)
        (stage,) = c.program
        assert c.sample_major  # every block is per-sample
        assert [(app.qubits, len(app.members)) for app in stage.apps] == [((3, 2, 1, 0), 4), ((7, 6, 5, 4), 4)]
        # qubit 7 (wire 0 of the upper block) reads no input slot in any entry of its table row
        reads = {stage.qubits[slot]: (w, _reads_input(a for _, a in stage.table[slot])) for slot, w in stage.apps[1].members}
        assert reads == {7: (0, False), 6: (1, True), 5: (2, True), 4: (3, True)}

    def test_per_sample_blocks_span_half_the_register(self):
        for n, runs, sample_major in ((4, [(1, 0), (3, 2)], False), (5, [(2, 1, 0), (4, 3)], True)):
            c = build_ang_arb(n, 3 * n, False)
            (stage,) = c.program
            assert [app.qubits for app in stage.apps] == runs
            assert c.sample_major is sample_major

    def test_qcnn_8_stages_mix_ry_and_rz_in_one_table(self):
        # RZ(p0) on a and RY(p1) on b of every block of a layer form one one-step
        # table, and RY(p2) on b the next; 8 layers at n=8
        stages = [op for op in build_qcnn(8).program if isinstance(op, Stage)]
        assert [sorted({kind for row in op.table for kind, _ in row}) for op in stages] == [["ry", "rz"], ["ry"]] * 8
        assert {(op.n_head, op.n_tail) for op in stages} == {(0, 1)}
        assert all(a.source == "param" for op in stages for row in op.table for _, a in row)

    def test_short_runs_are_padded_at_the_front_with_const_rz0(self):
        stage = _fused_slot_reuse_circuit().program[0]
        # qubit 0 fuses 6 steps and qubit 1 fuses 7, so qubit 0's row starts with one RZ(0);
        # the last column reads input 1, so one column of RZ(0) follows as the stage's tail
        i0, i1, p0, p1, p2 = Angle.input(0), Angle.input(1), Angle.param(0), Angle.param(1), Angle.param(2)
        rz0 = ("rz", Angle.const(0.0))
        assert stage.qubits == (0, 1) and stage.shape == (2, 8)
        assert (stage.n_head, stage.n_tail) == (7, 1)
        assert stage.table[0] == (rz0, ("ry", i0), ("rz", i0), ("rz", i1), ("ry", i0), ("rz", p0), ("rz", i1), rz0)
        assert stage.table[1] == (("rz", i1), ("ry", i0), ("rz", p1), ("ry", p2), ("rz", i1), ("ry", i1), ("rz", Angle.const(0.3)), rz0)

    def test_random_circuits_compile_to_one_op_per_maximal_run(self):
        rng = np.random.default_rng(53)
        for k in range(80):
            encoding = "amplitude" if k % 4 == 3 else "angle"
            if k % 2:
                c, _, _ = random_circuit(rng, max_qubits=5, encoding=encoding)
            else:
                c, _, _ = phased_perm_circuit(rng, int(rng.integers(2, 6)), encoding)
            runs: list[tuple[bool, list[Gate]]] = []
            for gate in c.ops:
                entangles = gate.kind in (GateKind.CNOT, GateKind.CZ)
                if runs and runs[-1][0] == entangles:
                    runs[-1][1].append(gate)
                else:
                    runs.append((entangles, [gate]))
            # a run of constant RZ gates is a phase and joins the permutations around it
            merged: list[tuple[bool, list[Gate]]] = []
            for entangles, run in runs:
                is_perm = entangles or all(g.kind is GateKind.RZ and g.angles[0].source == "const" for g in run)
                if merged and merged[-1][0] and is_perm:
                    merged[-1][1].extend(run)
                else:
                    merged.append((is_perm, run))
            # stages and permutations alternate, one op per maximal run
            kinds = [isinstance(op, PhasedPerm) for op in c.program]
            assert kinds == [is_perm for is_perm, _ in merged] and all(a != b for a, b in zip(kinds, kinds[1:]))
            for op, (is_perm, run) in zip(c.program, merged):
                if is_perm:
                    # out[i] = phase[i] * a[perm[i]] is the dense product of the run's gates
                    dense = functools.reduce(lambda acc, g: gate_matrix(g, c.n_qubits) @ acc, run, np.eye(1 << c.n_qubits))
                    mapped = np.zeros_like(dense)
                    idx = np.arange(1 << c.n_qubits)
                    mapped[idx, idx if op.perm is None else op.perm] = 1.0 if op.phase is None else op.phase
                    assert np.abs(mapped - dense).max() < 1e-12
                    continue
                # one row per qubit, in order of first appearance in the run
                assert op.qubits == tuple(dict.fromkeys(g.targets[0] for g in run))
                wants = [tuple((g.kind.value, g.angles[0]) for g in run if g.targets[0] == q) for q in op.qubits]
                n_steps = max(map(len, wants))
                rz0 = ("rz", Angle.const(0.0))
                # a short row starts with constant RZ(0) steps
                padded = [(rz0,) * (n_steps - len(want)) + want for want in wants]
                # the head ends at the last column that reads an input slot
                reads = [any(a.source == "input" for _, a in column) for column in zip(*padded)]
                n_head = max((r + 1 for r, read in enumerate(reads) if read), default=0)
                assert op.n_head == n_head
                # every stage has a shared tail: a last column that reads an input is followed by RZ(0)
                assert op.table == tuple(row + (rz0,) * (n_head == n_steps) for row in padded)
                assert op.n_tail >= 1 and op.n_head + op.n_tail == op.shape[1]

    def test_layout_is_decided_per_circuit_by_its_input_slots(self):
        # angle circuits read inputs in every layer and keep sample-major rows from
        # 5 qubits on; amplitude circuits read none and keep (2**n, B) storage. The
        # forward pass hands back (B, 2**n) rows of that storage.
        rng = np.random.default_rng(61)
        for n in (4, 8):
            for c, sample_major in (
                (build_ang_ry(n, 2 * n, True), n == 8),
                (build_ang_arb(n, 3 * n, True), n == 8),
                (build_amp_gen(n, True), False),
                (build_qcnn(n), False),
            ):
                assert c.sample_major is sample_major
                _, state = qnn_forward_batch(c, rng.normal(size=(3, c.n_inputs)), np.zeros(c.n_params), return_state=True)
                assert state.amps.shape == (3, 1 << n)
                assert (state.amps if sample_major else state.amps.T).flags.c_contiguous


def _fused_slot_reuse_circuit():
    """One input slot feeding several rotations of one fused gate and of its stage."""
    ops = (
        Gate.ry(0, Angle.input(0)),
        Gate.rz(0, Angle.input(0)),
        *arb(0, Angle.input(1), Angle.input(0), Angle.param(0)),
        *arb(1, Angle.input(1), Angle.input(0), Angle.param(1)),
        Gate.rz(0, Angle.input(1)),
        Gate.ry(1, Angle.param(2)),
        *arb(1, Angle.input(1), Angle.input(1), Angle.const(0.3)),
        Gate.cnot(1, 0),
        Gate.ry(1, Angle.input(0)),
    )
    return Circuit(2, "angle", ops, Observable.local_z())


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
            reads = _reads_input(a for gate in c.ops for a in gate.angles)
            for op in c.program:
                if not isinstance(op, Stage):
                    continue
                widths |= {len(app.qubits) for app in op.apps}
                holes |= any(len(app.members) < len(app.qubits) for app in op.apps)
                blocks_per_stage.add(len(op.apps))
                # a gate that reads no input slot, in a block of a circuit that reads them
                shared |= reads and not all(_reads_input(a for _, a in row) for row in op.table)
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
                    assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max(initial=0.0) < 1e-10
                else:  # directional central differences: up to 1024 inputs per row
                    for v in np.random.default_rng(52).normal(size=(3, x.size)):
                        f = lambda t: float(up @ qnn_forward(c, x + t * v, p))  # noqa: E731
                        assert math.isclose(row @ v, (f(1e-5) - f(-1e-5)) / 2e-5, rel_tol=1e-5, abs_tol=1e-7)


@functools.lru_cache(maxsize=None)
def _phased_perm_cases():
    """Random circuits with constant RZ runs between CNOT/CZ runs, n = 2..6 (B=3 distinct rows)."""
    rng = np.random.default_rng(55)
    out = []
    for n in range(2, 7):
        for encoding in ("angle", "angle", "amplitude"):
            c, _, p = phased_perm_circuit(rng, n, encoding)
            xs = rng.normal(size=(3, c.n_inputs))
            out.append((c, xs, p, rng.normal(size=(3, c.out_dim))))
    return out


class TestPhasedPermutations:
    """Constant RZ runs fold into the permutations around them as complex phases."""

    def test_cases_fold_complex_phases_at_both_ends(self):
        for c, *_ in _phased_perm_cases():
            assert isinstance(c.program[0], PhasedPerm) and isinstance(c.program[-1], PhasedPerm)
            assert len(c.program) == 7  # four maps around three stages
            assert any(op.phase is not None and op.phase.dtype == np.complex128 for op in c.program[::2])

    def test_forward_rows_match_dense_oracle(self):
        for c, xs, p, _ in _phased_perm_cases():
            for row, x in zip(qnn_forward_batch(c, xs, p), xs):
                assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10

    def test_param_gradients_match_row_summed_parameter_shift(self):
        for c, xs, p, ups in _phased_perm_cases():
            _, gp = qnn_backward(c, xs, p, ups)
            expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
            assert np.abs(gp - expect).max() < 1e-10

    def test_input_gradients_match_shift_rule_or_fd(self):
        for c, xs, p, ups in _phased_perm_cases():
            gx, _ = qnn_backward(c, xs, p, ups)
            for row, x, up in zip(gx, xs, ups):
                if c.encoding == "angle":
                    assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max(initial=0.0) < 1e-10
                else:
                    fd = fd_scalar_grad(lambda z: float(up @ qnn_forward(c, z, p)), x, 1e-5)
                    assert np.allclose(row, fd, rtol=1e-5, atol=1e-7)


def _head_and_tail_circuit():
    """Two stages on three qubits whose heads hold param and constant steps between input steps.

    In the first, qubit 1's row is padded, qubit 2's reads no input, and the
    head (columns 0-3) is followed by a one-column tail; the second stage ends
    with an input step, so it is all head.
    """
    i = [Angle.input(k) for k in range(4)]
    p = [Angle.param(k) for k in range(12)]
    ops = (
        Gate.ry(0, i[0]), Gate.rz(0, p[0]), Gate.ry(0, i[1]), Gate.rz(0, p[1]), Gate.ry(0, p[2]),
        Gate.rz(1, 0.3), Gate.ry(1, p[3]), Gate.rz(1, i[2]), Gate.ry(1, p[4]),
        Gate.ry(2, p[5]), Gate.rz(2, -0.7), Gate.ry(2, p[6]), Gate.rz(2, p[7]), Gate.ry(2, p[8]),
        Gate.cnot(0, 1), Gate.cz(1, 2),
        Gate.rz(2, p[9]), Gate.ry(2, i[3]), Gate.ry(1, p[10]), Gate.rz(1, p[11]),
    )
    return Circuit(3, "angle", ops, Observable.local_z())


class TestHeadAndTail:
    """A stage's per-sample head and batch-shared tail, split at its last input column."""

    B = 5

    def case(self):
        rng = np.random.default_rng(56)
        c = _head_and_tail_circuit()
        return c, rng.normal(size=(self.B, 4)), rng.normal(size=12), rng.normal(size=(self.B, 3))

    def test_split_at_the_last_input_column(self):
        first, _, second = _head_and_tail_circuit().program
        assert (first.n_head, first.n_tail) == (4, 1) and (second.n_head, second.n_tail) == (2, 1)
        assert first.table[1][0] == ("rz", Angle.const(0.0))  # qubit 1's row is padded
        # the second stage ends with an input step, so a column of RZ(0) is its tail
        assert [row[-1] for row in second.table] == [("rz", Angle.const(0.0))] * 2
        # the head's columns hold param and constant steps too
        sources = {a.source for row in first.table for _, a in row[: first.n_head]}
        assert sources == {"input", "param", "const"}

    def test_matches_the_oracles(self):
        c, xs, p, ups = self.case()
        for row, x in zip(qnn_forward_batch(c, xs, p), xs):
            assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10
        gx, gp = qnn_backward(c, xs, p, ups)
        expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
        assert np.abs(gp - expect).max() < 1e-10
        for row, x, up in zip(gx, xs, ups):
            assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    def test_stages_ending_in_an_input_get_an_identity_tail(self, n):
        # The first and last stages end with input steps and the middle one holds
        # only a constant RY, on columns of (2**n, B) storage (n = 3) and on
        # sample-major rows (n = 5). Every stage has a tail; the oracles hold.
        ops = (
            *(Gate.ry(q, Angle.input(q)) for q in range(n)),
            *(Gate.cnot(q, q + 1) for q in range(n - 1)),
            Gate.ry(1, 0.4),
            Gate.cz(0, 1),
            Gate.rz(0, Angle.param(0)), Gate.ry(0, Angle.input(n)),
            Gate.ry(n - 1, Angle.param(1)), Gate.rz(n - 1, Angle.input(n + 1)),
        )
        c = Circuit(n, "angle", ops, Observable.local_z())
        assert c.sample_major is (n == 5)
        first, _, middle, _, last = c.program
        rz0 = ("rz", Angle.const(0.0))
        assert (first.n_head, first.n_tail, middle.n_head, middle.n_tail, last.n_head, last.n_tail) == (1, 1, 0, 1, 2, 1)
        assert all(row[-1] == rz0 for op in (first, last) for row in op.table)
        rng = np.random.default_rng(60)
        xs, p, ups = rng.normal(size=(4, n + 2)), rng.normal(size=2), rng.normal(size=(4, n))
        for row, x in zip(qnn_forward_batch(c, xs, p), xs):
            assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10
        gx, gp = qnn_backward(c, xs, p, ups)
        expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
        assert np.abs(gp - expect).max() < 1e-10
        for row, x, up in zip(gx, xs, ups):
            assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max() < 1e-10

    def test_shared_stage_of_a_circuit_on_rows(self):
        # A stage that reads no input, in a circuit that does, is all tail and
        # runs its blocks once for the batch. On sample-major rows the forward
        # pass keeps those blocks and builds the per-sample ones again.
        ops = (Gate.ry(0, Angle.input(0)), Gate.cnot(0, 1), Gate.ry(1, Angle.param(0)), Gate.rz(4, Angle.param(1)))
        c = Circuit(5, "angle", ops, Observable.global_z())
        assert c.sample_major and not c.program[-1].n_head
        rng = np.random.default_rng(57)
        xs, p, ups = rng.normal(size=(4, 1)), rng.normal(size=2), rng.normal(size=(4, 1))
        _, state = qnn_forward_batch(c, xs, p, return_state=True)
        (_, per_sample), (_, shared) = state.built[0], state.built[-1]  # each stage's (gate unitaries, kept blocks)
        assert per_sample is None and [u.shape for u in shared] == [(1, 2, 2), (1, 2, 2)]
        for row, x in zip(qnn_forward_batch(c, xs, p), xs):
            assert np.abs(row - dense_expectations(c, x, p)).max() < 1e-10
        gx, gp = qnn_backward(c, xs, p, ups)
        expect = sum(up @ param_shift_jacobian(c, x, p) for x, up in zip(xs, ups))
        assert np.abs(gp - expect).max() < 1e-10
        for row, x, up in zip(gx, xs, ups):
            assert np.abs(row - up @ _input_shift_jacobian(c, x, p)).max() < 1e-10


class TestForwardState:
    def test_backward_refuses_a_state_from_other_inputs_or_params(self):
        rng = np.random.default_rng(58)
        c = build_ang_ry(4, 16, True)
        xs, p = rng.normal(size=(3, 16)), rng.normal(size=c.n_params)
        out, state = qnn_forward_batch(c, xs, p, return_state=True)
        up = np.ones_like(out)
        qnn_backward_batch(c, xs.copy(), p.copy(), up, final_amps=state)  # equal values pass
        other_x = xs.copy()
        other_x[1, 3] += 1e-9
        other_p = p.copy()
        other_p[0] = -other_p[0]
        # A batch of the wrong width is refused by the same check: the state's
        # inputs passed the forward pass's shape check.
        for args in ((c, other_x, p), (c, xs, other_p), (c, xs[:2], p), (c, xs[:, :15], p), (build_ang_ry(4, 16, True), xs, p)):
            with pytest.raises(ValueError, match="final_amps comes from a forward pass on another"):
                qnn_backward_batch(*args, np.ones((len(args[1]), 1)), final_amps=state)

    def test_backward_leaves_the_state_as_it_was(self):
        rng = np.random.default_rng(59)
        c = build_ang_arb(4, 16, True)
        xs, p = rng.normal(size=(3, 16)), rng.normal(size=c.n_params)
        out, state = qnn_forward_batch(c, xs, p, return_state=True)
        amps = state.amps.copy()
        first = qnn_backward_batch(c, xs, p, np.ones_like(out), final_amps=state)
        assert np.array_equal(state.amps, amps)
        second = qnn_backward_batch(c, xs, p, np.ones_like(out), final_amps=state)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestBackwardKernelCalls:
    """Every op but the first un-applies each kernel call on psi and on mu.
    The first op is processed last: nothing reads psi afterwards, and mu only
    for the input gradient of an amplitude-encoded circuit. The backward pass
    runs every call on rows (``apply_rows``, ``rows_overlap``); a call counts
    again as ``"<kernel> shared"`` when it takes a batch-shared matrix (or a
    batch-summed overlap) on (2**n, B) storage, statevec's one-BLAS-product
    path: every call of a circuit that reads no input, and none of one whose
    every stage reads inputs."""

    @staticmethod
    def count_calls(monkeypatch, c):
        calls = collections.Counter()

        def counting(name, shared):
            real = getattr(qnn_module, name)

            def wrapper(*args):
                calls[name] += 1
                calls[name + " shared"] += shared(*args) and not args[0].flags.c_contiguous
                return real(*args)

            monkeypatch.setattr(qnn_module, name, wrapper)

        rng = np.random.default_rng(44)
        xs = rng.normal(size=(4, c.n_inputs))
        p = rng.normal(size=c.n_params)
        out, amps = qnn_forward_batch(c, xs, p, return_state=True)
        counting("apply_rows", lambda rows, qubits, u, out: len(u) == 1)
        counting("rows_overlap", lambda mu, psi, qubits, summed, out=None: summed)
        qnn_backward_batch(c, xs, p, np.ones_like(out), final_amps=amps)
        return calls

    @staticmethod
    def expected(applies, overlaps, shared_applies, shared_overlaps):
        return {
            "apply_rows": applies, "rows_overlap": overlaps,
            "apply_rows shared": shared_applies, "rows_overlap shared": shared_overlaps,
        }

    def test_amp_gen_8_two_blocks_per_stage(self, monkeypatch):
        calls = self.count_calls(monkeypatch, build_amp_gen(8, True))
        applies, overlaps = 31 * 2 * 2 + 2, 32 * 2
        assert calls == self.expected(applies, overlaps, applies, overlaps)

    def test_ang_arb_8_first_stage_is_not_unapplied(self, monkeypatch):
        # 11 stages of two per-sample blocks; in the last, qubits 6 and 7 read only padding
        calls = self.count_calls(monkeypatch, build_ang_arb(8, 256, True))
        assert calls == self.expected(10 * 2 * 2, 11 * 2, 0, 0)

    def test_ang_ry_8_first_stage_is_not_unapplied(self, monkeypatch):
        calls = self.count_calls(monkeypatch, build_ang_ry(8, 256, True))
        assert calls == self.expected(31 * 2 * 2, 32 * 2, 0, 0)

    def test_qcnn_unapplies_every_gate(self, monkeypatch):
        # 10 stages of one 4-qubit block, all holding parameters; the program starts
        # with a permutation, so every stage is un-applied from both states
        calls = self.count_calls(monkeypatch, build_qcnn(4))
        assert calls == self.expected(10 * 2, 10, 10 * 2, 10)

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_shared_stage_of_a_circuit_on_rows_takes_a_summed_overlap(self, n, monkeypatch):
        # per-sample stage, CNOTs, a shared RY on qubit 1, per-sample stage: the
        # shared one takes one BLAS product on (2**n, B) storage (n = 3) and the
        # row kernels' batch-summed overlap on sample-major rows (n = 5)
        ops = (
            *(Gate.ry(q, Angle.input(q)) for q in range(n)),
            *(Gate.cnot(q, q + 1) for q in range(n - 1)),
            Gate.ry(1, 0.4),
            Gate.cz(0, 1),
            Gate.ry(0, Angle.input(0)),
        )
        c = Circuit(n, "angle", ops, Observable.local_z())
        summed = []
        real = qnn_module.rows_overlap
        monkeypatch.setattr(qnn_module, "rows_overlap", lambda *args: summed.append(args[3]) or real(*args))
        calls = self.count_calls(monkeypatch, c)
        blocks = 2  # the first stage: two blocks, overlaps only
        shared = (2, 1) if n == 3 else (0, 0)
        assert calls == self.expected(2 + 2, 1 + 1 + blocks, *shared)
        assert summed == [False, True] + [False] * blocks


@functools.lru_cache(maxsize=None)
def _single_sample_calls(kind):
    """An entangled 8-qubit l256 circuit, 256 rows, and each row's B=1 outputs and gradients."""
    build = {
        "ang_ry": lambda: build_ang_ry(8, 256, True),
        "ang_arb": lambda: build_ang_arb(8, 256, True),
        "amp_gen": lambda: build_amp_gen(8, True),
        "qcnn": lambda: build_qcnn(8),
    }
    c = build[kind]()
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
    """A batch against B=1 calls. Per-sample blocks: at B=16 the sample-major
    (B, 16, 16) view of an 8-qubit state has three equal axes, so a swapped
    axis raises no shape error and shows only here. Batch-shared blocks
    (Amp-Gen, QCNN): at B=256 they run on (2**n, B) storage, where QCNN 8's
    widest product has 32,768 columns in one BLAS call, and at B=1 on the
    sample-major path."""

    @pytest.mark.parametrize("batch", [16, 256])
    @pytest.mark.parametrize("kind", ["ang_ry", "ang_arb", "amp_gen", "qcnn"])
    def test_rows_match_single_sample_calls(self, kind, batch):
        c, xs, p, ups, outs, gxs, gps = _single_sample_calls(kind)
        out, amps = qnn_forward_batch(c, xs[:batch], p, return_state=True)
        gx, gp = qnn_backward_batch(c, xs[:batch], p, ups[:batch], final_amps=amps)
        assert np.abs(out - outs[:batch]).max() < 1e-12
        assert np.abs(gx - gxs[:batch]).max() < 1e-12
        assert np.abs(gp - gps[:batch].sum(axis=0)).max() < 1e-12
