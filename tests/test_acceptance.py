"""Top-level acceptance suite.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to see
them all) and enforces the corresponding numeric gate:

 1. statevector vs dense-matrix oracle, 200 circuits, 1e-10, < 10 s
 2. adjoint vs parameter-shift (1e-10) and finite differences (1e-5 rel)
 3. analytic single-qubit RY case at 1e-12
 4. Amp-Gen / Ang-RY trainable-parameter parity (48 and 768)
 5. classical layers, conv3 stack, and hybrid chain vs finite differences
 6. metric worked examples + pair-counting and rank-statistic identities
 7. exact test p-values vs brute-force enumeration + null calibration
 8. smoke trainability of the flagship hybrid on separable blobs
 9. scaled-down reproduction on ~2,000 beats (best-effort, clearly labeled)
10. bit-identical results.jsonl on repeated runs

Criterion 9 trains on a synthetic beats corpus by default; point the
HQNN_BEATS_CSV environment variable at a real pre-extracted beats CSV
(360 features, label, subject id per row) to reproduce against it instead.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from statistics import median

import numpy as np

from hqnnbench.classical import (
    BatchNormReLUPool,
    Conv,
    FullyConnected,
    Param,
    ReLU,
    Reshape,
    TanhPi,
    bce_with_logits,
    build_preprocessor,
    stack_backward,
    stack_forward,
    stack_params,
)
from hqnnbench.harness import Model, ModelConfig, QnnArch, run_grid
from hqnnbench.metrics import average_precision, balanced_accuracy, roc_auc
from hqnnbench.qnn import (
    Circuit,
    build_amp_gen,
    build_ang_ry,
    qnn_forward_batch,
)
from hqnnbench.statevec import Angle, Gate, Observable
from hqnnbench.stats import mann_whitney_u, wilcoxon_signed_rank

from oracles import (
    dense_circuit_state,
    dense_expectations,
    fd_jacobian,
    mwu_bruteforce,
    pair_counting_auc,
    param_shift_jacobian,
    qnn_backward,
    qnn_forward,
    random_circuit,
    wilcoxon_bruteforce,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_statevector_matches_dense_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        encoding = "amplitude" if i % 3 == 0 else "angle"
        circuit, x, theta = random_circuit(rng, max_qubits=4, encoding=encoding)
        _, state = qnn_forward_batch(circuit, x[None, :], theta, return_state=True)
        ref = dense_circuit_state(circuit, x, theta)
        worst = max(worst, float(np.abs(state.amps[0] - ref).max()))
        ref_ev = dense_expectations(circuit, x, theta)
        worst = max(worst, float(np.abs(qnn_forward(circuit, x, theta) - ref_ev).max()))
    took = time.perf_counter() - t0
    ok = worst < 1e-10 and took < 10.0
    _report(1, ok, f"200 circuits, max |diff| {worst:.2e}, {took:.2f}s (< 10s)")


def test_criterion_02_gradient_triple_check():
    rng = np.random.default_rng(102)
    worst_ps, worst_fd, worst_amp = 0.0, 0.0, 0.0
    for _ in range(100):
        circuit, x, theta = random_circuit(rng, max_qubits=4, encoding="angle")
        upstream = np.ones(circuit.out_dim)
        _, gp = qnn_backward(circuit, x, theta, upstream)
        ps = param_shift_jacobian(circuit, x, theta).sum(axis=0)
        worst_ps = max(worst_ps, float(np.abs(gp - ps).max(initial=0.0)))
        fd = fd_jacobian(lambda p: qnn_forward(circuit, x, p), theta, 1e-5).sum(axis=0)
        if not np.allclose(gp, fd, rtol=1e-5, atol=1e-7):
            worst_fd = max(worst_fd, float(np.abs(gp - fd).max()))
    for _ in range(40):
        circuit, x, theta = random_circuit(rng, max_qubits=3, encoding="amplitude")
        upstream = np.ones(circuit.out_dim)
        gx, _ = qnn_backward(circuit, x, theta, upstream)
        fd = fd_jacobian(lambda v: qnn_forward(circuit, v, theta), x, 1e-5).sum(axis=0)
        if not np.allclose(gx, fd, rtol=1e-5, atol=1e-7):
            worst_amp = max(worst_amp, float(np.abs(gx - fd).max()))
    ok = worst_ps < 1e-10 and worst_fd == 0.0 and worst_amp == 0.0
    _report(
        2,
        ok,
        f"100 angle circuits: |adjoint-shift| {worst_ps:.2e}; finite differences "
        f"within 1e-5 rel ({'yes' if worst_fd == 0.0 else worst_fd}); "
        f"40 amplitude circuits input-grads within 1e-5 rel "
        f"({'yes' if worst_amp == 0.0 else worst_amp})",
    )


def test_criterion_03_analytic_ry_case():
    circuit = Circuit(
        n_qubits=1,
        encoding="angle",
        ops=(Gate.ry(0, Angle.param(0)),),
        observable=Observable.single_z(0),
    )
    x = np.zeros(0)
    worst_v, worst_g = 0.0, 0.0
    for theta in np.linspace(-3.0, 3.0, 20):
        p = np.array([theta])
        val = qnn_forward(circuit, x, p)[0]
        _, grad = qnn_backward(circuit, x, p, np.ones(1))
        worst_v = max(worst_v, abs(val - math.cos(theta)))
        worst_g = max(worst_g, abs(grad[0] + math.sin(theta)))
    ok = worst_v < 1e-12 and worst_g < 1e-12
    _report(3, ok, f"<Z> = cos(theta) to {worst_v:.2e}, d<Z>/dtheta = -sin(theta) to {worst_g:.2e}")


def test_criterion_04_parameter_parity():
    p4_amp = build_amp_gen(4, entangle=True).n_params
    p4_ang = build_ang_ry(4, 16, entangle=True).n_params
    p8_amp = build_amp_gen(8, entangle=True).n_params
    p8_ang = build_ang_ry(8, 256, entangle=True).n_params
    ok = p4_amp == p4_ang == 48 and p8_amp == p8_ang == 768
    _report(4, ok, f"4 qubits: {p4_amp} == {p4_ang} == 48; 8 qubits: {p8_amp} == {p8_ang} == 768")


def _stack_fd_ok(stack: list, x: np.ndarray, rng: np.random.Generator, n_probe=8) -> bool:
    def loss_fn(xv):
        out = stack_forward(stack, xv, training=True)
        return float(np.tanh(out).sum())

    out = stack_forward(stack, x, training=True)
    for p in stack_params(stack):
        p.zero_grad()
    grad_x = stack_backward(stack, 1.0 - np.tanh(out) ** 2)

    fd_x = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[j] += 1e-4
        xm.flat[j] -= 1e-4
        fd_x.flat[j] = (loss_fn(xp) - loss_fn(xm)) / 2e-4
    if not np.allclose(grad_x, fd_x, rtol=1e-4, atol=1e-6):
        return False
    for p in stack_params(stack):
        flat = p.value.reshape(-1)
        for j in rng.choice(flat.size, size=min(n_probe, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + 1e-4
            lp = loss_fn(x)
            flat[j] = orig - 1e-4
            lm = loss_fn(x)
            flat[j] = orig
            fd = (lp - lm) / 2e-4
            if not math.isclose(p.grad.reshape(-1)[j], fd, rel_tol=1e-4, abs_tol=1e-6):
                return False
    return True


def test_criterion_05_classical_and_hybrid_autodiff():
    rng = np.random.default_rng(105)
    checks: list[tuple[str, bool]] = []

    layer_cases = [
        ("fully_connected", [FullyConnected(6, 4, rng)], (3, 6)),
        ("conv1d", [Conv(2, 2, 1, rng)], (2, 2, 8)),
        ("conv2d", [Conv(2, 2, 2, rng)], (2, 2, 5, 5)),
        ("conv3d", [Conv(1, 2, 3, rng)], (2, 1, 4, 4, 4)),
        ("relu", [ReLU()], (4, 7)),
        ("tanh_pi", [TanhPi()], (4, 7)),
        ("flatten", [Reshape((-1,))], (4, 2, 3)),
        ("reshape", [Reshape((3, 2))], (4, 6)),
    ]
    for name, stack, shape in layer_cases:
        checks.append((name, _stack_fd_ok(stack, rng.normal(size=shape), rng)))
    # The conv-block tail (BatchNorm -> ReLU -> MaxPool(2)) with γ of both
    # signs; distinct values keep each window's selection FD-stable.
    tail = BatchNormReLUPool(3)
    tail.gamma.value[:], tail.beta.value[:] = [1.3, -0.7, 0.9], [0.1, -0.2, 0.05]
    tail_x = rng.permutation(72).astype(float).reshape(4, 3, 6) * 0.1
    checks.append(("batchnorm_relu_pool", _stack_fd_ok([tail], tail_x, rng)))
    conv3 = build_preprocessor("conv3", (1, 8, 8), 4, tanh_pi=True, rng=rng)
    checks.append(("conv3_stack", _stack_fd_ok(conv3, rng.normal(size=(3, 1, 8, 8)), rng, n_probe=4)))

    # hybrid chain: conv0 -> QNN -> linear head -> BCE, gradient vs FD
    config = ModelConfig(
        family="hybrid", preproc="conv0", latent_dim=16, qnn=QnnArch("ang_ry", True, "global")
    )
    model = Model(config, (6,), rng)
    model.circuit = build_ang_ry(2, 16, entangle=True)
    model.theta = Param(0.3 * rng.normal(size=model.circuit.n_params))
    x = rng.normal(size=(4, 6))
    y = np.array([0.0, 1.0, 1.0, 0.0])
    loss, grad = bce_with_logits(model.forward(x, training=False), y)
    for p in model.parameters():
        p.zero_grad()
    model.backward(grad)
    hybrid_ok = True
    for p in model.parameters():
        flat = p.value.reshape(-1)
        for j in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + 1e-4
            lp = bce_with_logits(model.forward(x, training=False), y)[0]
            flat[j] = orig - 1e-4
            lm = bce_with_logits(model.forward(x, training=False), y)[0]
            flat[j] = orig
            if not math.isclose(p.grad.reshape(-1)[j], (lp - lm) / 2e-4, rel_tol=1e-4, abs_tol=1e-7):
                hybrid_ok = False
    checks.append(("hybrid_chain", hybrid_ok))

    failed = [name for name, ok in checks if not ok]
    _report(5, not failed, f"{len(checks)} finite-difference gates" + (f"; failed: {failed}" if failed else " all within 1e-4 relative"))


def test_criterion_06_metric_oracles():
    ex1 = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    ex2 = abs(average_precision([0.8, 0.4, 0.35, 0.1], [1, 0, 1, 0]) - 5.0 / 6.0) < 1e-15
    ex3 = balanced_accuracy([2.0, -1.0], [1, 0]) == 1.0

    rng = np.random.default_rng(106)
    worst = 0.0
    identity_ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        s = rng.integers(0, 7, size=n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
        auc = roc_auc(s, y)
        worst = max(worst, abs(auc - pair_counting_auc(s, y)))
        pos, neg = s[y == 1], s[y == 0]
        u_pos = mann_whitney_u(pos, neg).statistic
        u_neg = mann_whitney_u(neg, pos).statistic
        n_pairs = pos.size * neg.size
        # certifies 1 - roc_auc == U(neg)/ (n_pos*n_neg) exactly, at the level
        # of the exactly-representable half-integer U statistics
        if u_pos + u_neg != n_pairs or auc != u_pos / n_pairs:
            identity_ok = False
    ok = ex1 and ex2 and ex3 and worst < 1e-12 and identity_ok
    _report(
        6,
        ok,
        f"worked examples {'ok' if ex1 and ex2 and ex3 else 'BROKEN'}; 1000 random sets: "
        f"pair counting |diff| {worst:.2e}, rank-statistic identity exact: {identity_ok}",
    )


def test_criterion_07_statistics_oracles():
    rng = np.random.default_rng(107)
    worst_w, worst_u = 0.0, 0.0
    for trial in range(150):
        n = int(rng.integers(2, 11))
        x = rng.normal(size=n)
        y = x - (rng.integers(-2, 3, size=n) if trial % 2 else rng.normal(size=n))
        if np.all(x == y):
            continue
        worst_w = max(worst_w, abs(wilcoxon_signed_rank(x, y).p_value - wilcoxon_bruteforce(x, y)))
    for trial in range(150):
        n_a = int(rng.integers(2, 9))
        n_b = int(rng.integers(2, 11 - n_a))
        if trial % 2:
            a = rng.integers(0, 4, size=n_a).astype(float)
            b = rng.integers(0, 4, size=n_b).astype(float)
        else:
            a, b = rng.normal(size=n_a), rng.normal(size=n_b)
        worst_u = max(worst_u, abs(mann_whitney_u(a, b).p_value - mwu_bruteforce(a, b)))

    n_trials = 10_000
    rej_w = sum(
        wilcoxon_signed_rank(rng.normal(size=12), rng.normal(size=12)).p_value <= 0.05
        for _ in range(n_trials)
    )
    rej_u = sum(
        mann_whitney_u(rng.normal(size=12), rng.normal(size=12)).p_value <= 0.05
        for _ in range(n_trials)
    )
    rate_w, rate_u = rej_w / n_trials, rej_u / n_trials
    ok = (
        worst_w < 1e-12
        and worst_u < 1e-12
        and 0.03 <= rate_w <= 0.07
        and 0.03 <= rate_u <= 0.07
    )
    _report(
        7,
        ok,
        f"brute-force |diff| wilcoxon {worst_w:.2e}, mwu {worst_u:.2e}; null rejection "
        f"rates over {n_trials} trials: wilcoxon {rate_w:.4f}, mwu {rate_u:.4f} (need [0.03, 0.07])",
    )


SMOKE_RUN = {
    "dataset": "blobs",
    "blobs_n": 512,
    "blobs_dim": 16,
    "blobs_separation": 10.0,
    "families": "hybrid",
    "qnn": "amp_gen",
    "preproc": "conv0",
    "latent": 16,
    "entangle": True,
    "observable": "global",
    "folds": 5,
    "epochs": 50,
    "batch_size": 256,
    "seed": 0,
}


def test_criterion_08_smoke_trainability(tmp_path):
    t0 = time.perf_counter()
    rows = run_grid(dict(SMOKE_RUN), tmp_path, tmp_path / "out")
    took = time.perf_counter() - t0
    assert len(rows) == 1
    auc = rows[0]["aggregate"]["roc_auc"]
    ok = auc >= 0.95 and took < 120.0
    _report(
        8,
        ok,
        f"Amp-Gen/conv0/l16/ent/global on blobs(512, 16, sep 10): aggregate "
        f"ROC-AUC {auc:.4f} (need >= 0.95) in {took:.1f}s (< 120s)",
    )


def test_criterion_09_scaled_down_reproduction(tmp_path):
    """Best-effort scaled-down reproduction, clearly labeled as such.

    Runs the flagship hybrid and the full Ang-Arb axis on ~2,000 beats with
    5 subject-disjoint folds. Uses the synthetic beats surrogate unless
    HQNN_BEATS_CSV points at a real pre-extracted beats CSV.
    """
    run_cfg = {
        "dataset": "synth_beats",
        "beats_n": 2000,
        "families": "hybrid",
        "qnn": ["amp_gen", "ang_arb"],
        "preproc": "conv0",
        "latent": 16,
        "tanh": False,
        "entangle": [True, False],
        "observable": ["local", "global"],
        "folds": 5,
        "epochs": 15,
        "batch_size": 256,
        "seed": 0,
    }
    data_dir = tmp_path
    real_csv = os.environ.get("HQNN_BEATS_CSV")
    corpus = "synthetic surrogate beats"
    if real_csv:
        del run_cfg["beats_n"]  # beats_csv does not read it
        run_cfg["dataset"] = "beats_csv"
        run_cfg["beats_file"] = Path(real_csv).name
        data_dir = Path(real_csv).parent
        corpus = f"real beats from {real_csv}"

    out = tmp_path / "out"
    rows = run_grid(run_cfg, data_dir, out)
    assert len(rows) == 8

    flagship = [r for r in rows if r["label"] == "hybrid-amp_gen-conv0-l16-ent-global"]
    assert len(flagship) == 1
    auc = flagship[0]["aggregate"]["roc_auc"]

    amp = [r["aggregate"]["roc_auc"] for r in rows if r["group"] == "Amp-Gen"]
    arb = [r["aggregate"]["roc_auc"] for r in rows if r["group"] == "Ang-Arb"]
    amp_med, arb_med = median(amp), median(arb)

    tables_ok = all(
        (out / name).exists() for name in ("table1.csv", "comparisons.csv", "boxplot_data.csv")
    )
    comp_text = (out / "comparisons.csv").read_text()
    pipeline_ok = (
        tables_ok
        and "corrected_p" in comp_text
        and "entanglement," in comp_text
        and "group,Ang-Arb,Amp-Gen," in comp_text
    )

    in_band = 0.88 <= auc <= 0.98
    ordered = arb_med < amp_med
    ok = in_band and ordered and pipeline_ok
    _report(
        9,
        ok,
        f"SCALED-DOWN BEST-EFFORT reproduction on {corpus}: flagship aggregate "
        f"ROC-AUC {auc:.4f} (need 0.93 +/- 0.05); group medians Amp-Gen {amp_med:.4f} "
        f"> Ang-Arb {arb_med:.4f}: {ordered}; comparison pipeline emitted: {pipeline_ok}",
    )


def test_criterion_10_bit_identical_results(tmp_path):
    run_grid(dict(SMOKE_RUN), tmp_path, tmp_path / "a")
    run_grid(dict(SMOKE_RUN), tmp_path, tmp_path / "b")
    a = (tmp_path / "a/results.jsonl").read_bytes()
    b = (tmp_path / "b/results.jsonl").read_bytes()
    ok = a == b and len(a) > 0
    _report(10, ok, f"two fresh smoke runs: results.jsonl identical ({len(a)} bytes)")
