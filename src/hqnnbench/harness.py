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
protocol (``config.PROTOCOL_KEYS``: epochs, folds, seed, batch size,
aggregate, dataset name), data digest or package version
(``hqnnbench.__version__``) differ from the stored, atomically replaced
``run_meta.json``, or whose ``run_meta.json`` is missing, does not parse or
lacks a protocol key, is refused. ``report`` only reads ``results.jsonl``; a
re-run alone cuts an unterminated last line from it.

Training and run code call the layers through this module's globals, where
``perfbench/spans.py`` wraps them for its traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
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
    PROTOCOL_KEYS,
    RUN_CONFIG,
    ModelConfig,
    QnnArch,
    RunConfigError,
    check_run_config,
    default_batch_size,
    expand_grid,
    load_run_dataset,
    parse_run_config,
    resolve_run_config,
)

# Not used here: perfbench and tests/test_acceptance.py read them as harness attributes.
from .config import PREPROCS, QNN_KINDS, QUBITS_FOR_LATENT  # noqa: F401
from .data import Dataset, FoldPlan, make_folds
from .metrics import METRIC_NAMES, MetricReport
from .qnn import init_params, qnn_backward_batch, qnn_forward_batch
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
        self._cache = None  # the last pass's circuit state goes before this pass builds its own
        z = stack_forward(self.pre, x, training=training)
        if self.circuit is not None:
            z, self._cache = qnn_forward_batch(self.circuit, z, self.theta.value, return_state=True)
        return stack_forward(self.head, z, training=training)[:, 0]

    def backward(self, grad_logits: np.ndarray) -> None:
        g = stack_backward(self.head, grad_logits[:, None])
        if self.circuit is not None:
            state = self._cache  # it holds copies of the inputs and parameters the forward pass ran on
            g, gp = qnn_backward_batch(self.circuit, state.inputs, state.params, g, final_amps=state)
            self.theta.grad += gp
        stack_backward(self.pre, g, input_grad=False)


build_model = Model  # the name training calls


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def _identity(config: ModelConfig) -> dict:
    """The fields of a result row that its model configuration determines."""
    return {"config": config.to_dict(), "config_hash": config.config_hash(), "label": config.label, "group": config.group}


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
        return {**_identity(self.config), "per_fold": self.per_fold, "aggregate": self.aggregate}


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
    opt = adam_init(model.parameters())
    x, y = dataset.samples, dataset.labels
    epoch_reports: list[dict] = []
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
                adam_step(opt)
            val_logits = _predict(model, x[val_idx], batch_size)
            if not np.isfinite(val_logits).all():
                raise FloatingPointError(f"non-finite validation logits in epoch {epoch}")
            epoch_reports.append(MetricReport.compute(val_logits, y[val_idx]).as_dict())
    best = {m: max(report[m] for report in epoch_reports) for m in METRIC_NAMES}
    return {"epochs": epoch_reports, "best": best, "aborted": None}


def run_experiment(
    config: ModelConfig,
    dataset: Dataset,
    folds: FoldPlan,
    epochs: int,
    batch_size: int,
    aggregate: str = RUN_CONFIG["aggregate"].default,
) -> ExperimentResult:
    """Train ``config`` over every fold and aggregate fold-best metrics.

    An exception in training (a degenerate amplitude encoding, overflow, a
    non-finite loss, or any other error) aborts the affected fold with a
    diagnostic record instead of raising, so the other folds and configs
    still train.
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
        except Exception as exc:
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
    """A line of ``results.jsonl`` other than an unterminated last one is not a result row, or repeats a configuration."""


def _check_row(row) -> None:
    """Raise ``ValueError`` unless ``row`` has the fields that resuming and the tables read.

    Its ``config`` must rebuild into a model configuration whose fields
    (``_identity``: config, hash, label and group) are the row's.
    """
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    cfg = row.get("config")
    try:
        qnn = cfg.get("qnn")
        config = ModelConfig(**{**cfg, "qnn": qnn if qnn is None else QnnArch(**qnn)})
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"config is not a model configuration ({exc})") from None
    stale = [key for key, value in _identity(config).items() if row.get(key) != value]
    if stale:
        raise ValueError(f"the configuration that config rebuilds into has another {', '.join(stale)}")
    if "aggregate" not in row:
        raise ValueError("no aggregate")
    agg = row["aggregate"]
    # abs(v) < inf refuses the NaN and Infinity that json.loads reads, and compares an int of any size exactly
    finite = isinstance(agg, dict) and all(type(agg.get(m)) in (int, float) and abs(agg[m]) < math.inf for m in METRIC_NAMES)
    if agg is not None and not finite:
        raise ValueError(f"aggregate is neither null nor an object with finite numbers {', '.join(METRIC_NAMES)}")


def _parse_row(results_path: Path, number: int, line: bytes, seen: dict[str, int]) -> dict:
    """Line ``number`` as a result row; ``seen`` maps each configuration hash read so far to its line."""
    try:
        row = json.loads(line)
        _check_row(row)
        first = seen.setdefault(row["config_hash"], number)
        if first != number:
            raise ValueError(f"it repeats the configuration of line {first}")
    except ValueError as exc:
        raise ResultsFileError(
            f"{results_path} line {number} cannot be read ({exc}); repair or remove it, or use a new --out directory"
        ) from None
    return row


def _load_existing(results_path: Path) -> list[dict]:
    """The rows of ``results.jsonl``, none if it does not exist; the file is only read.

    An unterminated last line (a crash mid-write) is skipped with a warning.
    ``run_grid`` writes the file again without it, so its configuration
    trains again; training is deterministic, so the file ends as it would
    have. Any other line that does not parse, is not a result row, or
    repeats the configuration of an earlier line (as two runs into one
    ``--out`` at once would write) raises ``ResultsFileError``.
    """
    if not results_path.exists():
        return []
    lines = results_path.read_bytes().split(b"\n")
    seen: dict[str, int] = {}
    rows = [_parse_row(results_path, k, line, seen) for k, line in enumerate(lines[:-1], 1) if line.strip()]
    if lines[-1].strip():
        print(f"warning: dropping truncated last line of {results_path}", file=sys.stderr)
    return rows


def _write_atomically(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a file renamed over it, so a kill mid-write leaves the old file whole."""
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(text)
    os.replace(tmp_path, path)


class ProtocolMismatchError(ValueError):
    """An output directory holds results trained under a different protocol."""


def _check_same_protocol(meta_path: Path, protocol: dict) -> None:
    """Refuse to resume into rows unless ``run_meta.json`` parses and records each key of ``protocol`` as is."""
    try:
        stored = json.loads(meta_path.read_text())
        if not isinstance(stored, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc  # an OSError's str() names the file again
        raise ProtocolMismatchError(f"{meta_path} cannot be read ({reason}); use a new --out directory") from None
    changed = [
        f"{key} {stored[key]!r} -> {value!r}" if key in stored else f"{key} missing"
        for key, value in protocol.items()
        if key not in stored or stored[key] != value
    ]
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
    cfg = resolve_run_config(run_cfg)
    try:
        dataset = load_run_dataset(cfg, Path(data_dir))
        folds = make_folds(dataset, cfg["folds"], cfg["seed"])
        configs = expand_grid(cfg)
    except (OSError, ValueError) as exc:
        # A data file that cannot be read, or a dataset, fold plan or grid
        # that cannot be built, is a bad configuration.
        raise RunConfigError(str(exc)) from exc
    _check_preprocessors(configs, dataset.sample_shape)
    cfg.setdefault("batch_size", default_batch_size(dataset))
    # Only a configuration that loads, splits, expands and builds gets an output directory.
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at --out or above it
        raise RunConfigError(f"--out {out_dir} cannot be made a directory ({exc.strerror})") from None

    protocol = {key: cfg[key] for key in PROTOCOL_KEYS}
    protocol.update(data_digest=_data_digest(dataset), version=__version__)
    results_path = out_dir / "results.jsonl"
    meta_path = out_dir / "run_meta.json"
    rows = _load_existing(results_path)
    if rows:
        _check_same_protocol(meta_path, protocol)
    # the same bytes, less an unterminated last line
    _write_atomically(results_path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    done_hashes = {r["config_hash"] for r in rows}
    todo = [c for c in configs if c.config_hash() not in done_hashes]

    meta = {
        "n_configs": len(configs),
        "n_skipped": len(configs) - len(todo),
        **protocol,
        "groups": sorted({c.group for c in configs}),
    }
    _write_atomically(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")

    def emit(result: ExperimentResult) -> None:
        json_dict = result.to_json_dict()
        timings = {"config_hash": json_dict["config_hash"], "wall_times": result.wall_times}
        for name, record in (("results.jsonl", json_dict), ("timings.jsonl", timings)):
            with open(out_dir / name, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        rows.append(json_dict)
        if progress is not None:
            progress(json_dict)

    train_args = (dataset, folds, cfg["epochs"], cfg["batch_size"], cfg["aggregate"])
    if jobs > 1 and len(todo) > 1:
        # Imported here, so a sequential run never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # Spawned workers start their own OpenBLAS, with one thread unless the
        # user chose a count; forked ones would inherit this process's, already
        # started with a thread per core, and jobs would contend for the cores.
        pinned = "OPENBLAS_NUM_THREADS" not in os.environ
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        try:
            with ProcessPoolExecutor(jobs, get_context("spawn"), initializer=_init_worker, initargs=train_args) as pool:
                for result in pool.map(_run_one, todo):
                    emit(result)
        finally:
            if pinned:
                del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        for config in todo:
            emit(run_experiment(config, *train_args))

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
    n_done = itertools.count(1)

    def progress(json_dict: dict) -> None:
        agg = json_dict["aggregate"]
        score = "aborted" if not agg else f"roc_auc={agg['roc_auc']:.4f}"
        print(f"[{next(n_done)}] {json_dict['label']}: {score}", flush=True)

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
        overrides = {"epochs": args.epochs, "seed": args.seed}
        run_cfg.update({key: value for key, value in overrides.items() if value is not None})
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
