"""Experiment orchestration: config grid, training runs, aggregation, CLI.

The default grid crosses pre-processing depth (conv3/conv1/conv0), latent
dimension (16/256), the pi*tanh activation toggle (angle-encoded hybrids
only), four circuit families (Ang-RY, Ang-Arb, Amp-Gen, QCNN) with their
entanglement/observable axes, and four classical heads -- 150 configurations.
Every configuration trains over k folds with Adam on BCE-with-logits,
records the best value of each validation metric per fold, and aggregates
fold bests (mean by default).

Persistence: ``results.jsonl`` holds one JSON object per configuration with
sorted keys and no timing information, so identical runs produce
byte-identical files; wall-clock timings go to ``timings.jsonl``. Completed
configurations (keyed by config hash) are skipped on re-run; a re-run whose
epochs, folds, seed, batch size, aggregate, dataset name or data digest
differ from the stored ``run_meta.json`` is refused.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Iterable

import numpy as np

from .classical import (
    Param,
    adam_init,
    adam_step,
    bce_with_logits,
    build_head,
    build_preprocessor,
    stack_backward,
    stack_forward,
    stack_params,
)
from .data import Dataset, FoldPlan, load_beats_csv, load_npz, make_folds, synth_beats, synth_blobs
from .metrics import MetricReport
from .qnn import (
    Circuit,
    build_amp_gen,
    build_ang_arb,
    build_ang_ry,
    build_qcnn,
    init_params,
    qnn_backward_batch,
    qnn_forward_batch,
)
from .statevec import EncodingError, Observable
from .stats import bonferroni, mann_whitney_u, wilcoxon_signed_rank

QUBITS_FOR_LATENT = {16: 4, 256: 8}
PREPROCS = ("conv3", "conv1", "conv0")
HEADS = ("none", "fcnone", "fcrelu", "mlp")
QNN_KINDS = ("ang_ry", "ang_arb", "amp_gen", "qcnn")
ANGLE_KINDS = ("ang_ry", "ang_arb")
GROUP_NAMES = {"ang_ry": "Ang-RY", "ang_arb": "Ang-Arb", "amp_gen": "Amp-Gen", "qcnn": "QCNN"}
METRIC_NAMES = ("roc_auc", "avg_precision", "balanced_acc")


@dataclass(frozen=True)
class QnnArch:
    """One circuit family plus its entanglement/observable switches."""

    kind: str
    entangle: bool = True
    observable: str = "global"  # "local" | "global" | "single"

    def __post_init__(self):
        if self.kind not in QNN_KINDS:
            raise ValueError(f"unknown qnn kind {self.kind!r}")
        if self.kind == "qcnn":
            if not self.entangle or self.observable != "single":
                raise ValueError("qcnn always entangles and measures a single final qubit")
        elif self.observable not in ("local", "global"):
            raise ValueError(f"observable must be local or global, got {self.observable!r}")

    def build(self, latent_dim: int) -> Circuit:
        if latent_dim not in QUBITS_FOR_LATENT:
            raise ValueError(f"latent_dim must be one of {sorted(QUBITS_FOR_LATENT)}")
        n = QUBITS_FOR_LATENT[latent_dim]
        obs = Observable.local_z() if self.observable == "local" else Observable.global_z()
        if self.kind == "ang_ry":
            return build_ang_ry(n, latent_dim, self.entangle, obs)
        if self.kind == "ang_arb":
            return build_ang_arb(n, latent_dim, self.entangle, obs)
        if self.kind == "amp_gen":
            return build_amp_gen(n, self.entangle, obs)
        return build_qcnn(n)


@dataclass(frozen=True)
class ModelConfig:
    """One point of the experiment grid."""

    family: str  # "hybrid" | "classical"
    preproc: str
    latent_dim: int
    tanh_pi: bool = False
    qnn: QnnArch | None = None
    head: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.preproc not in PREPROCS:
            raise ValueError(f"unknown preproc {self.preproc!r}")
        if self.latent_dim not in QUBITS_FOR_LATENT:
            raise ValueError(f"latent_dim must be one of {sorted(QUBITS_FOR_LATENT)}")
        if self.family == "hybrid":
            if self.qnn is None or self.head is not None:
                raise ValueError("hybrid configs carry a qnn and no classical head")
            if self.tanh_pi and self.qnn.kind not in ANGLE_KINDS:
                raise ValueError("tanh_pi applies only to angle-encoded circuits")
        elif self.family == "classical":
            if self.head not in HEADS or self.qnn is not None:
                raise ValueError("classical configs carry a head and no qnn")
            if self.tanh_pi:
                raise ValueError("tanh_pi applies only to angle-encoded circuits")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def group(self) -> str:
        return "classical" if self.family == "classical" else GROUP_NAMES[self.qnn.kind]

    @property
    def label(self) -> str:
        if self.family == "classical":
            return f"classical-{self.preproc}-l{self.latent_dim}-{self.head}"
        q = self.qnn
        ent = "ent" if q.entangle else "noent"
        tanh = "-tanh" if self.tanh_pi else ""
        return f"hybrid-{q.kind}-{self.preproc}-l{self.latent_dim}-{ent}-{q.observable}{tanh}"

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "preproc": self.preproc,
            "latent_dim": self.latent_dim,
            "tanh_pi": self.tanh_pi,
            "qnn": None
            if self.qnn is None
            else {
                "kind": self.qnn.kind,
                "entangle": self.qnn.entangle,
                "observable": self.qnn.observable,
            },
            "head": self.head,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        q = d.get("qnn")
        return ModelConfig(
            family=d["family"],
            preproc=d["preproc"],
            latent_dim=int(d["latent_dim"]),
            tanh_pi=bool(d.get("tanh_pi", False)),
            qnn=None if q is None else QnnArch(q["kind"], bool(q["entangle"]), q["observable"]),
            head=d.get("head"),
            seed=int(d.get("seed", 0)),
        )

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Grid expansion and the run-configuration file.
# ---------------------------------------------------------------------------


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def expand_grid(run_cfg: dict) -> list[ModelConfig]:
    """Enumerate ModelConfigs for the axes in ``run_cfg`` (defaults = full grid)."""
    families = _as_list(run_cfg.get("families", ["hybrid", "classical"]))
    preprocs = _as_list(run_cfg.get("preproc", list(PREPROCS)))
    latents = [int(v) for v in _as_list(run_cfg.get("latent", [16, 256]))]
    kinds = _as_list(run_cfg.get("qnn", list(QNN_KINDS)))
    entangles = [bool(v) for v in _as_list(run_cfg.get("entangle", [True, False]))]
    observables = _as_list(run_cfg.get("observable", ["local", "global"]))
    heads = _as_list(run_cfg.get("heads", list(HEADS)))
    tanhs = [bool(v) for v in _as_list(run_cfg.get("tanh", [True, False]))]
    seed = int(run_cfg.get("seed", 0))
    for name, axis in {
        "families": families,
        "preproc": preprocs,
        "latent": latents,
        "qnn": kinds,
        "entangle": entangles,
        "observable": observables,
        "heads": heads,
        "tanh": tanhs,
    }.items():
        if not axis:
            raise ValueError(f"empty axis {name!r}")

    configs: list[ModelConfig] = []
    if "hybrid" in families:
        for kind in kinds:
            for preproc in preprocs:
                for latent in latents:
                    base = dict(family="hybrid", preproc=preproc, latent_dim=latent, seed=seed)
                    if kind in ANGLE_KINDS:
                        for tanh in tanhs:
                            for ent in entangles:
                                for obs in observables:
                                    configs.append(
                                        ModelConfig(
                                            tanh_pi=tanh, qnn=QnnArch(kind, ent, obs), **base
                                        )
                                    )
                    elif kind == "amp_gen":
                        for ent in entangles:
                            for obs in observables:
                                configs.append(ModelConfig(qnn=QnnArch(kind, ent, obs), **base))
                    else:  # qcnn
                        configs.append(ModelConfig(qnn=QnnArch(kind, True, "single"), **base))
    if "classical" in families:
        for preproc in preprocs:
            for latent in latents:
                for head in heads:
                    configs.append(
                        ModelConfig(
                            family="classical",
                            preproc=preproc,
                            latent_dim=latent,
                            head=head,
                            seed=seed,
                        )
                    )
    if not configs:
        raise ValueError("grid expansion produced no configurations")
    return configs


def _coerce(token: str):
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def parse_run_config(path) -> dict:
    """Read a flat ``key = value`` run configuration.

    ``#`` starts a comment; comma-separated values become lists; tokens are
    coerced to int/float/bool when they parse as such.
    """
    cfg: dict = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not key or not val:
                raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            if "," in val:
                cfg[key] = [_coerce(tok.strip()) for tok in val.split(",") if tok.strip()]
            else:
                cfg[key] = _coerce(val)
    return cfg


def load_run_dataset(run_cfg: dict, data_dir: Path) -> Dataset:
    """Materialize the dataset named by the run configuration."""
    name = run_cfg.get("dataset", "blobs")
    seed = int(run_cfg.get("seed", 0))
    if name == "blobs":
        return synth_blobs(
            n=int(run_cfg.get("blobs_n", 512)),
            dim=int(run_cfg.get("blobs_dim", 16)),
            separation=float(run_cfg.get("blobs_separation", 10.0)),
            seed=seed,
        )
    if name == "synth_beats":
        return synth_beats(
            n=int(run_cfg.get("beats_n", 2000)),
            seed=seed,
            n_subjects=int(run_cfg.get("beats_subjects", 20)),
            noise=float(run_cfg.get("beats_noise", 0.35)),
            ambiguity=float(run_cfg.get("beats_ambiguity", 0.065)),
        )
    if name == "beats_csv":
        return load_beats_csv(Path(data_dir) / run_cfg.get("beats_file", "beats.csv"))
    if name == "npz":
        if "npz_file" not in run_cfg:
            raise ValueError("dataset npz requires npz_file")
        return load_npz(
            Path(data_dir) / run_cfg["npz_file"],
            run_cfg.get("images_key", "images"),
            run_cfg.get("labels_key", "labels"),
        )
    raise ValueError(f"unknown dataset {name!r}")


def default_batch_size(dataset: Dataset) -> int:
    """256 for flat 1-D samples, 64 for image/volume samples."""
    return 256 if len(dataset.sample_shape) == 1 else 64


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------


class HybridModel:
    """Classical preprocessor -> circuit -> linear logit map."""

    def __init__(self, config: ModelConfig, input_shape: tuple[int, ...], rng: np.random.Generator):
        self.pre = build_preprocessor(
            config.preproc, input_shape, config.latent_dim, config.tanh_pi, rng
        )
        self.circuit = config.qnn.build(config.latent_dim)
        self.theta = Param(init_params(self.circuit.n_params, rng))
        self.head = build_head("linear_out", self.circuit.out_dim, rng=rng)
        self._cache = None

    def parameters(self) -> list[Param]:
        return stack_params(self.pre) + [self.theta] + stack_params(self.head)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = stack_forward(self.pre, x, training=training)
        q, amps = qnn_forward_batch(self.circuit, z, self.theta.value, return_state=True)
        logits = stack_forward(self.head, q, training=training)[:, 0]
        self._cache = (z, amps)
        return logits

    def backward(self, grad_logits: np.ndarray) -> None:
        z, amps = self._cache
        gq = stack_backward(self.head, grad_logits[:, None])
        gz, gp = qnn_backward_batch(self.circuit, z, self.theta.value, gq, final_amps=amps)
        self.theta.grad += gp
        stack_backward(self.pre, gz, input_grad=False)


class ClassicalModel:
    """Preprocessor -> classical head, no circuit."""

    def __init__(self, config: ModelConfig, input_shape: tuple[int, ...], rng: np.random.Generator):
        self.pre = build_preprocessor(config.preproc, input_shape, config.latent_dim, False, rng)
        self.head = build_head(config.head, config.latent_dim, rng=rng)

    def parameters(self) -> list[Param]:
        return stack_params(self.pre) + stack_params(self.head)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = stack_forward(self.pre, x, training=training)
        return stack_forward(self.head, z, training=training)[:, 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        stack_backward(self.pre, stack_backward(self.head, grad_logits[:, None]), input_grad=False)


def build_model(config: ModelConfig, input_shape: tuple[int, ...], rng: np.random.Generator):
    if config.family == "hybrid":
        return HybridModel(config, input_shape, rng)
    return ClassicalModel(config, input_shape, rng)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """Per-fold epoch metrics, fold bests, and their cross-fold aggregate."""

    config: ModelConfig
    per_fold: list[dict]
    aggregate: dict | None
    wall_times: list[float]

    def to_json_dict(self) -> dict:
        # wall_times are intentionally excluded so result files are
        # byte-identical across repeated runs.
        return {
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "label": self.config.label,
            "group": self.config.group,
            "per_fold": self.per_fold,
            "aggregate": self.aggregate,
        }


def _predict(model, x: np.ndarray, batch_size: int) -> np.ndarray:
    out = [model.forward(x[i : i + batch_size], training=False) for i in range(0, len(x), batch_size)]
    return np.concatenate(out)


def _train_fold(
    config: ModelConfig,
    dataset: Dataset,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> dict:
    model = build_model(config, dataset.sample_shape, rng)
    params = model.parameters()
    opt = adam_init(params)
    x, y = dataset.samples, dataset.labels
    epoch_reports: list[dict] = []
    best = {m: -math.inf for m in METRIC_NAMES}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            perm = rng.permutation(train_idx)
            for i in range(0, perm.size, batch_size):
                idx = perm[i : i + batch_size]
                logits = model.forward(x[idx], training=True)
                loss, grad = bce_with_logits(logits, y[idx])
                if not math.isfinite(loss):
                    raise FloatingPointError(f"non-finite loss in epoch {epoch}")
                model.backward(grad)
                adam_step(params, opt)
            val_logits = _predict(model, x[val_idx], batch_size)
            if not np.isfinite(val_logits).all():
                raise FloatingPointError(f"non-finite validation logits in epoch {epoch}")
            report = MetricReport.compute(val_logits, y[val_idx])
            epoch_reports.append(report.as_dict())
            for m, v in report.as_dict().items():
                best[m] = max(best[m], v)
    return {"epochs": epoch_reports, "best": best, "aborted": None}


def run_experiment(
    config: ModelConfig,
    dataset: Dataset,
    folds: FoldPlan,
    epochs: int,
    batch_size: int,
    aggregate: str = "mean",
    fold_order: Iterable[int] | None = None,
) -> ExperimentResult:
    """Train ``config`` over every fold and aggregate fold-best metrics.

    Numerical failures (degenerate amplitude encodings, overflow,
    non-finite losses) abort the affected fold with a diagnostic record
    instead of raising.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if aggregate not in ("mean", "median"):
        raise ValueError("aggregate must be 'mean' or 'median'")
    hash_int = int(config.config_hash()[:16], 16)
    per_fold: list[dict | None] = [None] * folds.k
    wall: list[float] = [0.0] * folds.k
    order = list(fold_order) if fold_order is not None else list(range(folds.k))
    if sorted(order) != list(range(folds.k)):
        raise ValueError("fold_order must permute all folds")
    for f in order:
        train_idx, val_idx = folds.folds[f]
        rng = np.random.default_rng([config.seed, hash_int, f])
        t0 = time.perf_counter()
        try:
            entry = _train_fold(config, dataset, train_idx, val_idx, epochs, batch_size, rng)
        except (EncodingError, FloatingPointError, OverflowError) as exc:
            entry = {"epochs": [], "best": None, "aborted": f"{type(exc).__name__}: {exc}"}
        wall[f] = time.perf_counter() - t0
        entry["fold"] = f
        per_fold[f] = entry

    combine = {"mean": lambda v: sum(v) / len(v), "median": median}[aggregate]
    bests = [e["best"] for e in per_fold if e["best"] is not None]
    agg = {m: combine([b[m] for b in bests]) for m in METRIC_NAMES} if bests else None
    return ExperimentResult(config=config, per_fold=per_fold, aggregate=agg, wall_times=wall)


# ---------------------------------------------------------------------------
# Aggregation tables and comparisons.
# ---------------------------------------------------------------------------

GROUP_ORDER = ("classical", "Ang-RY", "Ang-Arb", "Amp-Gen", "QCNN")
COMPARE_METRIC = "roc_auc"


def _row_group(row: dict) -> str:
    cfg = row["config"]
    return "classical" if cfg["family"] == "classical" else GROUP_NAMES[cfg["qnn"]["kind"]]


def _match_key(cfg: dict, drop: str) -> str:
    redacted = json.loads(json.dumps(cfg))
    if drop in redacted:
        redacted[drop] = None
    else:
        redacted["qnn"][drop] = None
    redacted.pop("seed", None)
    return json.dumps(redacted, sort_keys=True)


def _paired_scores(rows: list[dict], drop: str, val_a, val_b, keep=None):
    """Aggregate scores paired across configs equal except in one field."""
    buckets: dict[str, dict] = {}
    for row in rows:
        cfg = row["config"]
        if keep is not None and not keep(cfg):
            continue
        axis_value = cfg[drop] if drop in cfg else cfg["qnn"][drop]
        buckets.setdefault(_match_key(cfg, drop), {})[axis_value] = row["aggregate"][COMPARE_METRIC]
    xs, ys = [], []
    for _, pair in sorted(buckets.items()):
        if val_a in pair and val_b in pair:
            xs.append(pair[val_a])
            ys.append(pair[val_b])
    return xs, ys


def _paired_test(xs: list[float], ys: list[float]):
    try:
        res = wilcoxon_signed_rank(xs, ys)
        return res.statistic, res.p_value, res.method
    except ValueError:
        # identical lists: no evidence of any difference
        return 0.0, 1.0, "WilcoxonExact"


def aggregate_tables(rows: list[dict], alpha: float = 0.05):
    """Summaries over completed runs.

    Returns ``(table1, comparisons, boxplot)`` where table1 rows are
    group/metric median-min-max, comparisons pair axis values (paired
    signed-rank tests) and groups (unpaired U tests) on the ROC-AUC
    aggregate with Bonferroni correction over the whole table, and boxplot
    rows are per-config (group, score) points.
    """
    if not rows:
        raise ValueError("no results to aggregate")
    done = [r for r in rows if r.get("aggregate")]
    groups_all = {_row_group(r) for r in rows}
    by_group: dict[str, list[dict]] = {}
    for r in done:
        by_group.setdefault(_row_group(r), []).append(r)
    for g in sorted(groups_all):
        if g not in by_group:
            raise ValueError(f"group {g!r} has zero completed runs")

    table1 = []
    for g in GROUP_ORDER:
        if g not in by_group:
            continue
        for m in METRIC_NAMES:
            scores = [r["aggregate"][m] for r in by_group[g]]
            table1.append(
                {
                    "group": g,
                    "metric": m,
                    "median": median(scores),
                    "min": min(scores),
                    "max": max(scores),
                }
            )

    is_hybrid = lambda c: c["family"] == "hybrid"  # noqa: E731
    of_kinds = lambda *kinds: (lambda c: is_hybrid(c) and c["qnn"]["kind"] in kinds)  # noqa: E731
    comparisons = []

    def add_paired(axis: str, drop: str, val_a, val_b, name_a: str, name_b: str, keep=None):
        xs, ys = _paired_scores(done, drop, val_a, val_b, keep)
        if not xs:
            return
        stat, p, method = _paired_test(xs, ys)
        comparisons.append(
            {
                "axis": axis,
                "group_a": name_a,
                "group_b": name_b,
                "test": method,
                "n_a": len(xs),
                "n_b": len(ys),
                "statistic": stat,
                "raw_p": p,
            }
        )

    for a, b in (("conv3", "conv1"), ("conv3", "conv0"), ("conv1", "conv0")):
        add_paired("preproc", "preproc", a, b, a, b)
    add_paired("latent_dim", "latent_dim", 16, 256, "latent16", "latent256")
    add_paired(
        "activation", "tanh_pi", True, False, "tanh_pi", "identity", keep=of_kinds(*ANGLE_KINDS)
    )
    add_paired(
        "entanglement",
        "entangle",
        True,
        False,
        "entangled",
        "unentangled",
        keep=of_kinds("ang_ry", "ang_arb", "amp_gen"),
    )
    for kind in ("ang_ry", "ang_arb", "amp_gen"):
        add_paired(
            f"observable[{GROUP_NAMES[kind]}]",
            "observable",
            "local",
            "global",
            "local",
            "global",
            keep=of_kinds(kind),
        )
    present = [g for g in GROUP_ORDER if g in by_group]
    for i, ga in enumerate(present):
        for gb in present[i + 1 :]:
            a_scores = [r["aggregate"][COMPARE_METRIC] for r in by_group[ga]]
            b_scores = [r["aggregate"][COMPARE_METRIC] for r in by_group[gb]]
            res = mann_whitney_u(a_scores, b_scores)
            comparisons.append(
                {
                    "axis": "group",
                    "group_a": ga,
                    "group_b": gb,
                    "test": res.method,
                    "n_a": len(a_scores),
                    "n_b": len(b_scores),
                    "statistic": res.statistic,
                    "raw_p": res.p_value,
                }
            )

    corrected = bonferroni([c["raw_p"] for c in comparisons]) if comparisons else []
    for c, cp in zip(comparisons, corrected):
        c["corrected_p"] = float(cp)
        c["significant_at_0.05"] = bool(cp < alpha)

    boxplot = [
        {"group": _row_group(r), "aggregate_score": r["aggregate"][COMPARE_METRIC]} for r in done
    ]
    return table1, comparisons, boxplot


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})


def write_tables(out_dir: Path, rows: list[dict]) -> None:
    table1, comparisons, boxplot = aggregate_tables(rows)
    _write_csv(out_dir / "table1.csv", table1, ["group", "metric", "median", "min", "max"])
    _write_csv(
        out_dir / "comparisons.csv",
        comparisons,
        [
            "axis",
            "group_a",
            "group_b",
            "test",
            "n_a",
            "n_b",
            "statistic",
            "raw_p",
            "corrected_p",
            "significant_at_0.05",
        ],
    )
    _write_csv(out_dir / "boxplot_data.csv", boxplot, ["group", "aggregate_score"])


# ---------------------------------------------------------------------------
# Run command plumbing (sequential or process-parallel over configs).
# ---------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _init_worker(dataset, folds, epochs, batch_size, aggregate):
    _WORKER_STATE.update(
        dataset=dataset, folds=folds, epochs=epochs, batch_size=batch_size, aggregate=aggregate
    )


def _run_one(config_dict: dict):
    config = ModelConfig.from_dict(config_dict)
    result = run_experiment(
        config,
        _WORKER_STATE["dataset"],
        _WORKER_STATE["folds"],
        _WORKER_STATE["epochs"],
        _WORKER_STATE["batch_size"],
        _WORKER_STATE["aggregate"],
    )
    return result.to_json_dict(), result.wall_times


def _load_existing(results_path: Path) -> list[dict]:
    if not results_path.exists():
        return []
    rows = []
    with open(results_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _drop_truncated_tail(results_path: Path) -> None:
    """Cut an unterminated, unparseable last line (a crash mid-write) from the file."""
    if not results_path.exists():
        return
    data = results_path.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        print(f"warning: dropping truncated last line of {results_path}", file=sys.stderr)
        with open(results_path, "r+b") as fh:
            fh.truncate(start)
    else:
        with open(results_path, "ab") as fh:
            fh.write(b"\n")


class ProtocolMismatchError(ValueError):
    """An output directory holds results trained under a different protocol."""


def _check_same_protocol(stored: dict, protocol: dict, out_dir: Path) -> None:
    """Refuse to resume into rows whose ``run_meta.json`` records another protocol."""
    changed = [f"{key} {stored[key]!r} -> {value!r}" for key, value in protocol.items() if key in stored and stored[key] != value]
    if changed:
        raise ProtocolMismatchError(
            f"{out_dir} holds results from a different protocol ({', '.join(changed)}); "
            "use a new --out directory"
        )


def _data_digest(dataset: Dataset) -> str:
    """SHA-256 over the shape and bytes of the samples, labels and subject ids."""
    h = hashlib.sha256()
    for arr in (dataset.samples, dataset.labels, dataset.subject_ids):
        if arr is not None:
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


def run_grid(
    run_cfg: dict,
    data_dir: Path,
    out_dir: Path,
    jobs: int = 1,
    progress=None,
) -> list[dict]:
    """Execute the configured grid, append results, and write tables."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_run_dataset(run_cfg, Path(data_dir))
    seed = int(run_cfg.get("seed", 0))
    k = int(run_cfg.get("folds", 5))
    epochs = int(run_cfg.get("epochs", 50))
    batch_size = int(run_cfg.get("batch_size", default_batch_size(dataset)))
    aggregate = run_cfg.get("aggregate", "mean")
    folds = make_folds(dataset, k, seed)
    configs = expand_grid(run_cfg)

    protocol = {
        "epochs": epochs,
        "batch_size": batch_size,
        "folds": k,
        "seed": seed,
        "aggregate": aggregate,
        "dataset": run_cfg.get("dataset", "blobs"),
        "data_digest": _data_digest(dataset),
    }
    results_path = out_dir / "results.jsonl"
    meta_path = out_dir / "run_meta.json"
    if meta_path.exists() and results_path.exists() and results_path.read_bytes().strip():
        _check_same_protocol(json.loads(meta_path.read_text()), protocol, out_dir)
    _drop_truncated_tail(results_path)
    rows = _load_existing(results_path)
    done_hashes = {r["config_hash"] for r in rows}
    todo = [c for c in configs if c.config_hash() not in done_hashes]

    meta = {
        "n_configs": len(configs),
        "n_skipped": len(configs) - len(todo),
        **protocol,
        "groups": sorted({c.group for c in configs}),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    def emit(json_dict: dict, wall_times: list[float]) -> None:
        with open(results_path, "a") as fh:
            fh.write(json.dumps(json_dict, sort_keys=True) + "\n")
        with open(out_dir / "timings.jsonl", "a") as fh:
            fh.write(
                json.dumps(
                    {"config_hash": json_dict["config_hash"], "wall_times": wall_times},
                    sort_keys=True,
                )
                + "\n"
            )
        rows.append(json_dict)
        if progress is not None:
            progress(json_dict)

    if jobs > 1 and len(todo) > 1:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(dataset, folds, epochs, batch_size, aggregate),
        ) as pool:
            for json_dict, wall_times in pool.map(_run_one, [c.to_dict() for c in todo]):
                emit(json_dict, wall_times)
    else:
        _init_worker(dataset, folds, epochs, batch_size, aggregate)
        for config in todo:
            emit(*_run_one(config.to_dict()))

    if rows:
        write_tables(out_dir, rows)
    return rows


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hqnnbench",
        description="Hybrid quantum-classical benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train the configured grid")
    p_run.add_argument("--config", required=True, help="run configuration file")
    p_run.add_argument("--data-dir", required=True, help="directory with input data files")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--epochs", type=int, default=None, help="override epoch count")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")

    p_rep = sub.add_parser("report", help="regenerate tables from stored results")
    p_rep.add_argument("--out", required=True, help="directory with results.jsonl")

    args = parser.parse_args(argv)
    if args.command == "report":
        out_dir = Path(args.out)
        rows = _load_existing(out_dir / "results.jsonl")
        if not rows:
            print(f"no results found in {out_dir}", file=sys.stderr)
            return 1
        write_tables(out_dir, rows)
        print(f"wrote table1.csv, comparisons.csv, boxplot_data.csv to {out_dir}")
        return 0

    run_cfg = parse_run_config(args.config)
    if args.epochs is not None:
        run_cfg["epochs"] = args.epochs
    if args.seed is not None:
        run_cfg["seed"] = args.seed
    n_done = 0

    def progress(json_dict: dict) -> None:
        nonlocal n_done
        n_done += 1
        agg = json_dict["aggregate"]
        score = "aborted" if not agg else f"roc_auc={agg['roc_auc']:.4f}"
        print(f"[{n_done}] {json_dict['label']}: {score}", flush=True)

    try:
        rows = run_grid(run_cfg, Path(args.data_dir), Path(args.out), jobs=args.jobs, progress=progress)
    except ProtocolMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(rows)} results in {Path(args.out) / 'results.jsonl'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
