"""Training runs: the model, k-fold training, the grid runner and the CLI.

Every configuration (see ``config``) trains as one ``Model`` (preprocessor,
circuit if any, head) over k folds with Adam on BCE-with-logits, records the
best value of each validation metric per fold, and aggregates fold bests
(mean by default). ``run_grid`` trains a grid and writes its comparison
tables (see ``tables``), or removes them when they are refused.

Persistence: ``results.jsonl`` holds one JSON object per configuration with
sorted keys and no timing information, so identical runs produce
byte-identical files; wall-clock timings go to ``timings.jsonl``. Completed
configurations (keyed by config hash) are skipped on re-run; a re-run whose
epochs, folds, seed, batch size, aggregate, dataset name, data digest or
package version (``hqnnbench.__version__``) differ from the stored,
atomically replaced ``run_meta.json``, or whose ``run_meta.json`` does not
parse, is refused.

Training and run code call the layers through this module's globals, where
``perfbench/spans.py`` wraps them for its traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from . import __version__
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
from .config import (
    ModelConfig,
    RunConfigError,
    check_run_config,
    default_batch_size,
    expand_grid,
    load_run_dataset,
    parse_run_config,
)

# Not used here: perfbench and tests/test_acceptance.py read them as harness attributes.
from .config import PREPROCS, QNN_KINDS, QUBITS_FOR_LATENT, QnnArch  # noqa: F401
from .data import Dataset, FoldPlan, make_folds
from .metrics import METRIC_NAMES, MetricReport
from .qnn import init_params, qnn_backward_batch, qnn_forward_batch
from .statevec import EncodingError
from .tables import TABLE_COLUMNS, NoCompletedRunsError, aggregate_tables, write_tables

# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------


class Model:
    """Preprocessor -> circuit (hybrids only) -> head; a hybrid's head is one affine map.
    Parameters are drawn from ``rng`` and listed in one order: preprocessor, circuit θ, head."""

    def __init__(self, config: ModelConfig, input_shape: tuple[int, ...], rng: np.random.Generator):
        self.pre = build_preprocessor(
            config.preproc, input_shape, config.latent_dim, config.tanh_pi, rng
        )
        self.circuit = self.theta = None
        if config.qnn is not None:
            self.circuit = config.qnn.build(config.latent_dim)
            self.theta = Param(init_params(self.circuit.n_params, rng))
        width = config.latent_dim if self.circuit is None else self.circuit.out_dim
        self.head = build_head(config.head or "none", width, rng=rng)
        self._cache = None

    def parameters(self) -> list[Param]:
        theta = [] if self.theta is None else [self.theta]
        return stack_params(self.pre) + theta + stack_params(self.head)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = stack_forward(self.pre, x, training=training)
        if self.circuit is not None:
            q, amps = qnn_forward_batch(self.circuit, z, self.theta.value, return_state=True)
            self._cache = (z, amps)
            z = q
        return stack_forward(self.head, z, training=training)[:, 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        g = stack_backward(self.head, grad_logits[:, None])
        if self.circuit is not None:
            z, amps = self._cache
            g, gp = qnn_backward_batch(self.circuit, z, self.theta.value, g, final_amps=amps)
            self.theta.grad += gp
        stack_backward(self.pre, g, input_grad=False)


build_model = Model  # the name training calls


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
) -> ExperimentResult:
    """Train ``config`` over every fold and aggregate fold-best metrics.

    Numerical failures (degenerate amplitude encodings, overflow,
    non-finite losses) abort the affected fold with a diagnostic record
    instead of raising.
    """
    check_run_config({"epochs": epochs, "batch_size": batch_size, "aggregate": aggregate})
    hash_int = int(config.config_hash()[:16], 16)
    per_fold: list[dict] = []
    wall: list[float] = []
    for f, (train_idx, val_idx) in enumerate(folds.folds):
        rng = np.random.default_rng([config.seed, hash_int, f])
        t0 = time.perf_counter()
        try:
            entry = _train_fold(config, dataset, train_idx, val_idx, epochs, batch_size, rng)
        except (EncodingError, FloatingPointError, OverflowError) as exc:
            entry = {"epochs": [], "best": None, "aborted": f"{type(exc).__name__}: {exc}"}
        wall.append(time.perf_counter() - t0)
        entry["fold"] = f
        per_fold.append(entry)

    combine = {"mean": lambda v: sum(v) / len(v), "median": median}[aggregate]
    bests = [e["best"] for e in per_fold if e["best"] is not None]
    agg = {m: combine([b[m] for b in bests]) for m in METRIC_NAMES} if bests else None
    return ExperimentResult(config=config, per_fold=per_fold, aggregate=agg, wall_times=wall)


# ---------------------------------------------------------------------------
# Run command plumbing (sequential or process-parallel over configs).
# ---------------------------------------------------------------------------

_WORKER_ARGS: tuple = ()  # a pool worker's (dataset, folds, epochs, batch_size, aggregate)


def _init_worker(*args) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = args


def _run_one(config: ModelConfig) -> ExperimentResult:
    return run_experiment(config, *_WORKER_ARGS)


class ResultsFileError(ValueError):
    """A line of ``results.jsonl`` other than an unterminated last one is not a JSON object."""


def _parse_row(results_path: Path, number: int, line: bytes) -> dict:
    try:
        row = json.loads(line)
        if not isinstance(row, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ResultsFileError(
            f"{results_path} line {number} cannot be read ({exc}); repair or remove it, or use a new --out directory"
        ) from None
    return row


def _load_existing(results_path: Path) -> list[dict]:
    """The rows of ``results.jsonl``, none if it does not exist.

    An unterminated, unparseable last line (a crash mid-write) is cut from
    the file with a warning; a parseable one gets its newline. Any other
    line that does not parse raises ``ResultsFileError`` before the file is
    touched.
    """
    if not results_path.exists():
        return []
    data = results_path.read_bytes()
    lines = data.split(b"\n")
    rows = [_parse_row(results_path, k, line) for k, line in enumerate(lines[:-1], 1) if line.strip()]
    if lines[-1].strip():
        try:
            json.loads(lines[-1])
        except ValueError:
            print(f"warning: dropping truncated last line of {results_path}", file=sys.stderr)
            with open(results_path, "r+b") as fh:
                fh.truncate(len(data) - len(lines[-1]))
        else:
            rows.append(_parse_row(results_path, len(lines), lines[-1]))
            with open(results_path, "ab") as fh:
                fh.write(b"\n")
    return rows


class ProtocolMismatchError(ValueError):
    """An output directory holds results trained under a different protocol."""


def _check_same_protocol(meta_path: Path, protocol: dict) -> None:
    """Refuse to resume into rows whose ``run_meta.json`` records another protocol or does not parse."""
    try:
        stored = json.loads(meta_path.read_text())
        if not isinstance(stored, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ProtocolMismatchError(f"{meta_path} cannot be read ({exc}); use a new --out directory") from None
    changed = [f"{key} {stored[key]!r} -> {value!r}" for key, value in protocol.items() if key in stored and stored[key] != value]
    if changed:
        raise ProtocolMismatchError(
            f"{meta_path.parent} holds results from a different protocol ({', '.join(changed)}); "
            "use a new --out directory"
        )


def _write_tables(out_dir: Path, rows: list[dict]) -> None:
    """Write the tables of ``rows``, removing an earlier run's first so that a refusal leaves none."""
    for name in TABLE_COLUMNS:
        (out_dir / name).unlink(missing_ok=True)
    write_tables(out_dir, *aggregate_tables(rows))


def _data_digest(dataset: Dataset) -> str:
    """SHA-256 over the shape and bytes of the samples, labels and subject ids."""
    h = hashlib.sha256()
    for arr in (dataset.samples, dataset.labels, dataset.subject_ids):
        if arr is not None:
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


def _check_preprocessors(configs: list[ModelConfig], sample_shape: tuple[int, ...]) -> None:
    """Refuse a grid with a preprocessor that cannot take ``sample_shape``.

    Each distinct preprocessor variant is built once, on a throwaway RNG so
    that no training stream moves, and with a one-wide projection: the
    projection does not change which shapes a variant takes.
    """
    for variant in sorted({c.preproc for c in configs}):
        try:
            build_preprocessor(variant, sample_shape, 1, False, np.random.default_rng(0))
        except ValueError as exc:
            raise RunConfigError(f"preproc {variant} cannot take samples of shape {sample_shape}: {exc}") from exc


def run_grid(
    run_cfg: dict,
    data_dir: Path,
    out_dir: Path,
    jobs: int = 1,
    progress=None,
) -> list[dict]:
    """Execute the configured grid, append results, and write tables."""
    check_run_config(run_cfg)
    seed = int(run_cfg.get("seed", 0))
    k = run_cfg.get("folds", 5)
    try:
        dataset = load_run_dataset(run_cfg, Path(data_dir))
        folds = make_folds(dataset, k, seed)
        configs = expand_grid(run_cfg)
    except (OSError, ValueError) as exc:
        # A data file that cannot be read, or a dataset, fold plan or grid
        # that cannot be built, is a bad configuration.
        raise RunConfigError(str(exc)) from exc
    _check_preprocessors(configs, dataset.sample_shape)
    epochs = run_cfg.get("epochs", 50)
    batch_size = run_cfg.get("batch_size", default_batch_size(dataset))
    aggregate = run_cfg.get("aggregate", "mean")
    # Only a configuration that loads, splits, expands and builds gets an output directory.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    protocol = {
        "epochs": epochs,
        "batch_size": batch_size,
        "folds": k,
        "seed": seed,
        "aggregate": aggregate,
        "dataset": run_cfg.get("dataset", "blobs"),
        "data_digest": _data_digest(dataset),
        "version": __version__,
    }
    results_path = out_dir / "results.jsonl"
    meta_path = out_dir / "run_meta.json"
    if meta_path.exists() and results_path.exists() and results_path.read_bytes().strip():
        _check_same_protocol(meta_path, protocol)
    rows = _load_existing(results_path)
    done_hashes = {r["config_hash"] for r in rows}
    todo = [c for c in configs if c.config_hash() not in done_hashes]

    meta = {
        "n_configs": len(configs),
        "n_skipped": len(configs) - len(todo),
        **protocol,
        "groups": sorted({c.group for c in configs}),
    }
    # Renamed over the old file, so a kill mid-write leaves the previous meta whole.
    tmp_path = out_dir / "run_meta.json.tmp"
    tmp_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    os.replace(tmp_path, meta_path)

    def emit(result: ExperimentResult) -> None:
        json_dict = result.to_json_dict()
        with open(results_path, "a") as fh:
            fh.write(json.dumps(json_dict, sort_keys=True) + "\n")
        with open(out_dir / "timings.jsonl", "a") as fh:
            fh.write(
                json.dumps(
                    {"config_hash": json_dict["config_hash"], "wall_times": result.wall_times},
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
            for result in pool.map(_run_one, todo):
                emit(result)
    else:
        for config in todo:
            emit(run_experiment(config, dataset, folds, epochs, batch_size, aggregate))

    if rows:
        _write_tables(out_dir, rows)
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
    if args.command == "run" and args.jobs < 1:
        p_run.error(f"--jobs must be at least 1, got {args.jobs}")
    out_dir = Path(args.out)
    n_done = 0

    def progress(json_dict: dict) -> None:
        nonlocal n_done
        n_done += 1
        agg = json_dict["aggregate"]
        score = "aborted" if not agg else f"roc_auc={agg['roc_auc']:.4f}"
        print(f"[{n_done}] {json_dict['label']}: {score}", flush=True)

    try:
        if args.command == "report":
            rows = _load_existing(out_dir / "results.jsonl")
            if not rows:
                print(f"no results found in {out_dir}", file=sys.stderr)
                return 1
            _write_tables(out_dir, rows)
            print(f"wrote {', '.join(TABLE_COLUMNS)} to {out_dir}")
            return 0
        run_cfg = parse_run_config(args.config)
        if args.epochs is not None:
            run_cfg["epochs"] = args.epochs
        if args.seed is not None:
            run_cfg["seed"] = args.seed
        rows = run_grid(run_cfg, Path(args.data_dir), out_dir, jobs=args.jobs, progress=progress)
    except (ProtocolMismatchError, ResultsFileError, RunConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoCompletedRunsError as exc:  # results.jsonl and run_meta.json stay; the tables are removed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(rows)} results in {out_dir / 'results.jsonl'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
