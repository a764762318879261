"""hqnnbench benchmark: three training workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload hybrid8|conv3|grid4 --seed N --seconds S --trace 0|1

Run from the repository root. After a warm-up, ``--trace 0`` repeats the
workload's unit of work for about S seconds and reports the end-to-end
metrics (medians over units). ``--trace 1`` runs the unit once untraced and once with span
wrappers installed on ``hqnnbench.harness`` (see spans.py), then runs the
circuit and preprocessor microbenchmarks, and reports the per-layer metrics.
The last line of standard output is the JSON result; the line before it
records the environment. See README.md for the workloads and metrics.

The inputs are ``synth_beats(n=2000)`` drawn from input variant
``seed % 16``; every fold's best validation ROC-AUC must match the value
stored for that variant in reference_auc.json within AUC_TOL. The
benchmark sets no BLAS thread variables: it records them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference_auc.json"

WORKLOADS = ("hybrid8", "conv3", "grid4")
N_VARIANTS = 16
# One ROC-AUC step on the 384-sample balanced validation fold is
# 1/192**2 ~ 2.7e-5; the tolerance admits float-reordering drift of a few
# dozen steps and nothing larger.
AUC_TOL = 1e-3
K_FOLDS = 5
SETUP_REPEATS = 5
MICRO_BATCH = 256
MICRO_REPEATS = {4: 5, 8: 1}
PRE_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60

FOLD_ZERO_EPOCHS = 1
DATA_CFG = {"dataset": "synth_beats", "beats_n": 2000}
GRID4_CFG = """\
dataset    = synth_beats
beats_n    = 2000
families   = hybrid, classical
qnn        = ang_ry, ang_arb, amp_gen, qcnn
preproc    = conv0
latent     = 16
tanh       = false
entangle   = true
observable = local, global
heads      = fcnone, fcrelu, mlp
folds      = 5
epochs     = 2
seed       = {variant}
"""
CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from hqnnbench.harness import main; sys.exit(main())"


@dataclass
class Unit:
    """One execution of a workload's unit of work."""

    wall_s: float
    train_s: float  # training-loop time summed over fold-epochs
    fold_epochs: int
    folds: list[tuple[str, int, float | None]]  # (config label, fold, best ROC-AUC or None if aborted)
    output: bytes  # the results, for the byte-identity checks
    outputs_ok: bool = True


def _import_harness():
    sys.path.insert(0, str(SRC))
    from hqnnbench import harness

    if Path(harness.__file__).resolve().parent != SRC / "hqnnbench":
        raise RuntimeError(f"imported hqnnbench from {harness.__file__}, not from {SRC}")
    return harness


def load_inputs(harness, variant: int):
    """The fold-0 workloads' set-up: the dataset and fold 0 as a one-fold plan."""
    dataset = harness.load_run_dataset(dict(DATA_CFG, seed=variant), WORK)
    plan = harness.make_folds(dataset, K_FOLDS, variant)
    return dataset, harness.FoldPlan(k=1, assignments=plan.assignments, folds=plan.folds[:1])


def probe_setup(variant: int) -> None:
    """Entry point of the fold-0 workloads' set-up probe (a fresh interpreter)."""
    load_inputs(_import_harness(), variant)


class Workload:
    """A unit of work run in this process."""

    def __init__(self, harness, variant: int):
        self.harness, self.variant = harness, variant

    def warm_up(self) -> None:
        """Train every config on one batch of fold 0.

        A ``hqnnbench run`` process trains many configs, so allocator growth
        and lazy imports are paid once per run; this keeps them out of the
        timed units.
        """
        h = self.harness
        dataset, fold0 = load_inputs(h, self.variant)
        train, val = fold0.folds[0]
        batch = h.default_batch_size(dataset)
        plan = h.FoldPlan(k=1, assignments=fold0.assignments, folds=[(train[:batch], val[:batch])])
        for c in self.configs:
            h.run_experiment(c, dataset, plan, 1, batch)

    def unit(self) -> Unit:
        return self._unit(traced=False)

    def traced_unit(self) -> tuple[Unit, list[list]]:
        with spans.traced(self.harness) as tracer:
            return self._unit(traced=True), tracer.spans

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def cpu_s(self) -> float:
        r = resource.getrusage(resource.RUSAGE_SELF)
        return r.ru_utime + r.ru_stime


class FoldZero(Workload):
    """hybrid8 and conv3: fold 0 of two configs trained through run_experiment."""

    def __init__(self, harness, workload: str, variant: int):
        super().__init__(harness, variant)
        M, Q = harness.ModelConfig, harness.QnnArch
        self.configs = {
            "hybrid8": [
                M("hybrid", "conv0", 256, qnn=Q("amp_gen", True, "global"), seed=variant),
                M("hybrid", "conv0", 256, qnn=Q("ang_arb", True, "global"), seed=variant),
            ],
            "conv3": [
                M("classical", "conv3", 256, head="mlp", seed=variant),
                M("hybrid", "conv3", 16, qnn=Q("qcnn", True, "single"), seed=variant),
            ],
        }[workload]
        self.inputs = load_inputs(harness, variant)

    def _unit(self, traced: bool) -> Unit:
        h = self.harness
        # the traced unit repeats the set-up so that the data layer is traced too
        dataset, folds = load_inputs(h, self.variant) if traced else self.inputs
        t0 = time.perf_counter()
        results = [
            h.run_experiment(c, dataset, folds, FOLD_ZERO_EPOCHS, h.default_batch_size(dataset))
            for c in self.configs
        ]
        rows = [r.to_json_dict() for r in results]
        h.aggregate_tables(rows)
        return Unit(
            wall_s=time.perf_counter() - t0,
            train_s=sum(sum(r.wall_times) for r in results),
            fold_epochs=len(self.configs) * FOLD_ZERO_EPOCHS,
            folds=fold_bests(rows),
            output=json.dumps(rows, sort_keys=True).encode(),
        )

    def setup_s(self) -> float:
        code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; run.probe_setup({self.variant})"
        t0 = time.perf_counter()
        run_quiet([sys.executable, "-c", code])
        return time.perf_counter() - t0


class Grid4(Workload):
    """grid4: the ten-config conv0/l16 grid x 5 folds through run_grid, as ``hqnnbench run`` does."""

    def __init__(self, harness, variant: int, work: Path):
        super().__init__(harness, variant)
        self.work = work
        self.config = work / "grid4.cfg"
        self.config.write_text(GRID4_CFG.format(variant=variant))
        self.run_cfg = harness.parse_run_config(self.config)
        self.configs = harness.expand_grid(self.run_cfg)
        self.n_units = 0
        self.last_out: Path | None = None

    def _unit(self, traced: bool) -> Unit:
        self.n_units += 1
        out = self.work / f"out{self.n_units}"
        t0 = time.perf_counter()
        self.harness.run_grid(self.run_cfg, self.work, out)
        wall = time.perf_counter() - t0
        self.last_out = out
        results = (out / "results.jsonl").read_bytes()
        rows = [json.loads(line) for line in results.splitlines()]
        timings = [json.loads(line) for line in (out / "timings.jsonl").read_text().splitlines()]
        return Unit(
            wall_s=wall,
            train_s=sum(sum(t["wall_times"]) for t in timings),
            fold_epochs=len(rows) * int(self.run_cfg["folds"]) * int(self.run_cfg["epochs"]),
            folds=fold_bests(rows),
            output=results,
            outputs_ok=len(rows) == len(self.configs)
            and all(csv_has_rows(out / name) for name in ("table1.csv", "comparisons.csv", "boxplot_data.csv")),
        )

    def setup_s(self) -> float:
        """``hqnnbench run`` into the finished output directory: it resumes and skips every config."""
        cmd = [sys.executable, "-c", CLI, str(SRC), "run", "--config", str(self.config),
               "--data-dir", str(self.work), "--out", str(self.last_out)]
        t0 = time.perf_counter()
        run_quiet(cmd)
        return time.perf_counter() - t0


def run_quiet(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")


def csv_has_rows(path: Path) -> bool:
    return path.is_file() and len(path.read_text().splitlines()) >= 2


def fold_bests(rows: list[dict]) -> list[tuple[str, int, float | None]]:
    return [
        (row["label"], f["fold"], None if f["best"] is None else f["best"]["roc_auc"])
        for row in rows
        for f in row["per_fold"]
    ]


def count_failed(units: list[Unit], refs: dict) -> tuple[int, int]:
    """(attempted, failed) folds; a fold fails if it aborted or missed its reference AUC."""
    attempted = failed = 0
    for u in units:
        for label, fold, auc in u.folds:
            attempted += 1
            ref = refs.get(f"{label}/{fold}")
            if auc is None or ref is None or abs(auc - ref) > AUC_TOL:
                failed += 1
    return attempted, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, seconds: float) -> tuple[list[Unit], dict]:
    """Untraced: repeat the unit while the next one is expected to end within ``seconds``."""
    wl.warm_up()
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        units.append(wl.unit())
        if time.perf_counter() + units[-1].wall_s > deadline:
            break
    setup = [wl.setup_s() for _ in range(SETUP_REPEATS)]
    return units, {
        "setup_s": metric(median(setup), "s"),
        "wall_s": metric(median(u.wall_s for u in units), "s"),
        "fold_epoch_s": metric(median(u.train_s / u.fold_epochs for u in units), "s"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
    }


def microbench(harness, seed: int) -> dict:
    """Circuit and preprocessor forward/backward at B=256, outside training."""
    import numpy as np
    from hqnnbench import classical, qnn

    rng = np.random.default_rng(seed)
    out = {}

    def timed(fn):
        t0 = time.perf_counter()
        res = fn()
        return res, 1e3 * (time.perf_counter() - t0)

    for kind in harness.QNN_KINDS:
        arch = harness.QnnArch(kind, True, "single" if kind == "qcnn" else "global")
        for latent, n in sorted(harness.QUBITS_FOR_LATENT.items()):
            circuit = arch.build(latent)
            z = rng.normal(size=(MICRO_BATCH, latent))
            theta = qnn.init_params(circuit.n_params, rng)
            fwd, bwd = [], []
            for _ in range(MICRO_REPEATS[n]):
                (q, amps), ms = timed(lambda: qnn.qnn_forward_batch(circuit, z, theta, return_state=True))
                fwd.append(ms)
                bwd.append(timed(lambda: qnn.qnn_backward_batch(circuit, z, theta, np.ones_like(q), final_amps=amps))[1])
            out[f"qnn.{kind}.n{n}.fwd_ms"] = median(fwd)
            out[f"qnn.{kind}.n{n}.bwd_ms"] = median(bwd)

    x = rng.normal(size=(MICRO_BATCH, 360))
    for variant in harness.PREPROCS:
        for latent in sorted(harness.QUBITS_FOR_LATENT):
            pre = classical.build_preprocessor(variant, (360,), latent, False, rng)
            fwd, bwd = [], []
            for _ in range(PRE_REPEATS):
                fwd.append(timed(lambda: classical.stack_forward(pre, x, training=True))[1])
                bwd.append(timed(lambda: classical.stack_backward(pre, np.ones((MICRO_BATCH, latent))))[1])
            out[f"pre.{variant}.l{latent}.fwd_ms"] = median(fwd)
            out[f"pre.{variant}.l{latent}.bwd_ms"] = median(bwd)
    return out


def extrapolate_default_grid_h(harness, micro: dict, n_train: int, n_val: int) -> float:
    """Default grid (150 configs x 5 folds x 50 epochs) cost from the microbenchmarks.

    Per fold-epoch: n_train/B training batches of preprocessor + circuit
    forward and backward, and n_val/B evaluation forwards. Heads, Adam and
    metrics are left out. Extrapolated, not run.
    """
    total_ms = 0.0
    for c in harness.expand_grid({}):
        pf = micro[f"pre.{c.preproc}.l{c.latent_dim}.fwd_ms"]
        pb = micro[f"pre.{c.preproc}.l{c.latent_dim}.bwd_ms"]
        cf = cb = 0.0
        if c.family == "hybrid":
            n = harness.QUBITS_FOR_LATENT[c.latent_dim]
            cf, cb = micro[f"qnn.{c.qnn.kind}.n{n}.fwd_ms"], micro[f"qnn.{c.qnn.kind}.n{n}.bwd_ms"]
        total_ms += (n_train * (pf + pb + cf + cb) + n_val * (pf + cf)) / MICRO_BATCH
    return total_ms * 5 * 50 / 3.6e6


def trace_run(harness, wl, variant: int) -> tuple[list[Unit], dict, bool]:
    wl.warm_up()
    plain = wl.unit()
    cpu0 = wl.cpu_s()
    traced, records = wl.traced_unit()
    cpu_s = wl.cpu_s() - cpu0
    summary = spans.summarize(records)
    run_s = summary["harness.run_experiment"]["total_s"]

    def share(*names):
        return sum(summary[n]["total_s"] for n in names) / run_s

    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_ms"] = metric(summary[name]["p50_ms"], "ms")
        metrics[f"{name}.calls"] = metric(summary[name]["calls"], "count")
    metrics["qnn.share"] = metric(share("qnn.fwd", "qnn.bwd"), "frac")
    metrics["pre.share"] = metric(share("pre.fwd", "pre.bwd"), "frac")
    metrics["head.share"] = metric(share("head.fwd", "head.bwd"), "frac")
    metrics["metrics.share"] = metric(share("metrics.compute"), "frac")
    metrics["harness.self_share"] = metric(summary["harness.run_experiment"]["self_s"] / run_s, "frac")
    metrics["harness.cpu_s"] = metric(cpu_s, "s")
    metrics["trace.overhead_frac"] = metric(traced.wall_s / plain.wall_s - 1, "frac")

    micro = microbench(harness, variant)
    train_idx, val_idx = load_inputs(harness, variant)[1].folds[0]
    grid_h = extrapolate_default_grid_h(harness, micro, train_idx.size, val_idx.size)
    print(
        f"default grid, 150 configs x 5 folds x 50 epochs: {grid_h:.1f} h on one process "
        "(extrapolated, not run; the ROADMAP estimates 2-3 days)",
        file=sys.stderr,
    )
    metrics.update({name: metric(v, "ms") for name, v in micro.items()})
    metrics["extrapolated.default_grid_h"] = metric(grid_h, "h")
    return [plain, traced], metrics, plain.output == traced.output


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hqnnbench" / "__init__.py").is_file():
        print(f"perfbench: no hqnnbench sources under {SRC}", file=sys.stderr)
        return 2
    harness = _import_harness()
    refs = json.loads(REFERENCE.read_text())
    variant = args.seed % N_VARIANTS
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "grid4":
            wl = Grid4(harness, variant, work)
        else:
            wl = FoldZero(harness, args.workload, variant)
        if args.trace:
            units, metrics, identical = trace_run(harness, wl, variant)
        else:
            units, metrics = measure(wl, args.seconds)
            identical = all(u.output == units[0].output for u in units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = count_failed(units, refs[args.workload][str(variant)])
    correct = failed == 0 and identical and all(u.outputs_ok for u in units)
    print(f"{args.workload} seed {args.seed} (input variant {variant}): "
          f"{len(units)} units, failed_frac = {failed / attempted:g} ({failed} of {attempted} folds)",
          file=sys.stderr)
    print("unit walls, s: " + " ".join(f"{u.wall_s:.2f}" for u in units), file=sys.stderr)
    if not identical:
        print("results differ between units of this run", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
