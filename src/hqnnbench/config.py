"""The experiment grid's schema and the run-configuration file.

A ``ModelConfig`` is one point of the grid: a hybrid (preprocessor, circuit,
linear readout) or a classical (preprocessor, head) model. The default grid
crosses pre-processing depth (``classical.PREPROC_CHANNELS``), latent
dimension (16/256), the pi*tanh activation toggle (angle-encoded hybrids
only), four circuit families (Ang-RY, Ang-Arb, Amp-Gen, QCNN) with their
entanglement/observable axes, and four classical heads
(``classical.HEAD_LAYERS``) -- 150 configurations.

Three tables declare the run configuration: ``RUN_CONFIG`` holds every key a
run-configuration file may set, with the values or the type it takes and its
default, ``DATASETS`` holds each dataset's loader and the keys it reads, and
``FAMILIES`` holds each circuit family's group name, the switches it varies
and its builder. ``parse_run_config`` reads the flat ``key = value`` file
that holds a run configuration, ``check_run_config`` refuses keys that
nothing reads and protocol or dataset values that no run accepts, and
``resolve_run_config`` fills in the defaults and refuses keys that the chosen
dataset does not read. ``expand_grid`` enumerates the points a run
configuration selects, and ``ModelConfig`` and ``QnnArch`` check their fields
against the same tables. ``load_run_dataset`` and ``default_batch_size`` turn
the dataset keys into a ``Dataset``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

from .classical import HEAD_LAYERS, PREPROC_CHANNELS
from .data import Dataset, load_beats_csv, load_npz, synth_beats, synth_blobs
from .qnn import Circuit, build_amp_gen, build_ang_arb, build_ang_ry, build_qcnn
from .statevec import Observable

QUBITS_FOR_LATENT = {16: 4, 256: 8}
PREPROCS = tuple(PREPROC_CHANNELS)
HEADS = tuple(HEAD_LAYERS)


@dataclass(frozen=True)
class Family:
    """A circuit family: its group in the tables, the switches it varies, and its builder."""

    group: str
    varies: tuple[str, ...]
    build: Callable[[int, int, bool, Observable], Circuit]  # (qubits, latent_dim, entangle, observable)

    def takes(self, switch: str) -> tuple:
        """The values of ``switch`` that this family's models hold."""
        axis = AXES[switch]
        return axis.default if switch in self.varies else (axis.fixed,)


FAMILIES = {
    "ang_ry": Family("Ang-RY", ("tanh", "entangle", "observable"), build_ang_ry),
    "ang_arb": Family("Ang-Arb", ("tanh", "entangle", "observable"), build_ang_arb),
    "amp_gen": Family("Amp-Gen", ("entangle", "observable"), lambda n, _, ent, obs: build_amp_gen(n, ent, obs)),
    "qcnn": Family("QCNN", (), lambda n, *_: build_qcnn(n)),
}
QNN_KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class Axis:
    """A grid axis: a list of values, expanded to ``default`` when the configuration leaves it out.

    A switch also has the ``fixed`` value that every circuit family which does
    not vary it holds; a family that varies it takes the ``default`` values.
    """

    default: tuple
    fixed: object = None

    @property
    def values(self) -> tuple:
        """Every value some model accepts on this axis."""
        return self.default if self.fixed is None or self.fixed in self.default else (*self.default, self.fixed)


@dataclass(frozen=True)
class Value:
    """A key that holds one value: one of the ``accepts`` values, or a value of type ``accepts``.

    A number key may also have a ``least`` value. A key without a ``default``
    is derived (``batch_size``) or required by the dataset that reads it.
    """

    accepts: tuple | type
    least: float | None = None
    default: object = None


@dataclass(frozen=True)
class Source:
    """A dataset: its loader and the run-config keys it reads, each with the loader argument it fills.

    A ``path`` argument is a file name under the data directory.
    """

    load: Callable[..., Dataset]
    reads: dict[str, str]


DATASETS = {
    "blobs": Source(synth_blobs, {"blobs_n": "n", "blobs_dim": "dim", "blobs_separation": "separation", "seed": "seed"}),
    "synth_beats": Source(synth_beats, {"beats_n": "n", "beats_subjects": "n_subjects", "beats_noise": "noise",
                                        "beats_ambiguity": "ambiguity", "seed": "seed"}),
    "beats_csv": Source(load_beats_csv, {"beats_file": "path"}),
    "npz": Source(load_npz, {"npz_file": "path", "images_key": "images_key", "labels_key": "labels_key"}),
}
# The keys that only a dataset reads; the synthetic datasets also read the run's seed.
DATASET_KEYS = frozenset(key for source in DATASETS.values() for key in source.reads) - {"seed"}
# The beats keys default to synth_beats' own keyword defaults.
_BEATS = {name: arg.default for name, arg in inspect.signature(synth_beats).parameters.items()}

# Every key a run configuration may hold, with its default; the README's
# run-configuration section lists the same keys.
RUN_CONFIG = {
    # The grid axes.
    "families": Axis(("hybrid", "classical")),
    "qnn": Axis(QNN_KINDS),
    "preproc": Axis(PREPROCS),
    "latent": Axis(tuple(QUBITS_FOR_LATENT)),
    "tanh": Axis((True, False), fixed=False),
    "entangle": Axis((True, False), fixed=True),
    "observable": Axis(("local", "global"), fixed="single"),
    "heads": Axis(HEADS),
    # The training protocol.
    "folds": Value(int, 2, default=5), "epochs": Value(int, 1, default=50), "batch_size": Value(int, 1),
    "seed": Value(int, 0, default=0), "aggregate": Value(("mean", "median"), default="mean"),
    # The dataset, then each dataset's own keys.
    "dataset": Value(tuple(DATASETS), default="blobs"),
    "blobs_n": Value(int, 2, default=512), "blobs_dim": Value(int, 1, default=16),
    "blobs_separation": Value(float, default=10.0),
    "beats_n": Value(int, 4, default=_BEATS["n"]), "beats_subjects": Value(int, 1, default=_BEATS["n_subjects"]),
    "beats_noise": Value(float, 0, default=_BEATS["noise"]), "beats_ambiguity": Value(float, default=_BEATS["ambiguity"]),
    "beats_file": Value(str, default="beats.csv"),
    "npz_file": Value(str), "images_key": Value(str, default="images"), "labels_key": Value(str, default="labels"),
}
RUN_KEYS = frozenset(RUN_CONFIG)
# The protocol that ``run_meta.json`` records and a resume must match: every
# one-value key but the dataset's own, whose data the run's data digest covers.
PROTOCOL_KEYS = tuple(key for key, row in RUN_CONFIG.items() if isinstance(row, Value) and key not in DATASET_KEYS)
AXES = {name: row for name, row in RUN_CONFIG.items() if isinstance(row, Axis)}
SWITCHES = tuple(name for name, axis in AXES.items() if axis.fixed is not None)

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


class RunConfigError(ValueError):
    """A run or model configuration holds a key that nothing reads or a value that no run accepts."""


def _check(what: str, value, accepts: tuple | type, least: float | None = None) -> None:
    """Refuse ``value`` unless it is one of ``accepts`` or of exactly that type.

    Values compare by type as well as by ==, so 1 does not pass for true nor
    16.0 for 16. A float also takes an int, but not a bool.
    """
    if isinstance(accepts, type):
        ok = type(value) is accepts or (accepts is float and type(value) is int)
        ok = ok and (least is None or value >= least)
        spelt = _TYPE_NAMES[accepts] + ("" if least is None else f" of at least {least}")
    else:
        ok = any(type(value) is type(a) and value == a for a in accepts)
        spelt = " or ".join(str(a).lower() for a in accepts)
    if not ok:
        raise RunConfigError(f"{what} {spelt}, got {value!r}")


@dataclass(frozen=True)
class QnnArch:
    """One circuit family plus its entanglement/observable switches."""

    kind: str
    entangle: bool = True
    observable: str = "global"  # "local" | "global" | "single"

    def __post_init__(self):
        _check("qnn takes", self.kind, AXES["qnn"].values)
        for switch in ("entangle", "observable"):
            _check(f"{self.kind} takes {switch}", getattr(self, switch), FAMILIES[self.kind].takes(switch))

    def build(self, latent_dim: int) -> Circuit:
        _check("latent takes", latent_dim, AXES["latent"].values)
        obs = Observable.local_z() if self.observable == "local" else Observable.global_z()
        return FAMILIES[self.kind].build(QUBITS_FOR_LATENT[latent_dim], latent_dim, self.entangle, obs)


@dataclass(frozen=True)
class ModelConfig:
    """One point of the experiment grid."""

    family: str  # "hybrid" | "classical"
    preproc: str
    latent_dim: int
    tanh_pi: bool = False
    qnn: QnnArch | None = None
    head: str | None = None
    seed: int = RUN_CONFIG["seed"].default

    def __post_init__(self):
        for name, value in (("families", self.family), ("preproc", self.preproc), ("latent", self.latent_dim)):
            _check(f"{name} takes", value, AXES[name].values)
        _check("seed must be", self.seed, int, RUN_CONFIG["seed"].least)
        if self.family == "hybrid":
            if not isinstance(self.qnn, QnnArch) or self.head is not None:
                raise RunConfigError(f"hybrid configs carry a QnnArch as qnn and no classical head, got qnn={self.qnn!r}")
            _check(f"{self.qnn.kind} takes tanh", self.tanh_pi, FAMILIES[self.qnn.kind].takes("tanh"))
        else:
            if self.qnn is not None:
                raise RunConfigError("classical configs carry a head and no qnn")
            _check("heads takes", self.head, AXES["heads"].values)
            _check("classical takes tanh", self.tanh_pi, (False,))

    @property
    def group(self) -> str:
        return "classical" if self.family == "classical" else FAMILIES[self.qnn.kind].group

    @property
    def label(self) -> str:
        if self.family == "classical":
            return f"classical-{self.preproc}-l{self.latent_dim}-{self.head}"
        q = self.qnn
        ent = "ent" if q.entangle else "noent"
        tanh = "-tanh" if self.tanh_pi else ""
        return f"hybrid-{q.kind}-{self.preproc}-l{self.latent_dim}-{ent}-{q.observable}{tanh}"

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Grid expansion and the run-configuration file.
# ---------------------------------------------------------------------------


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def expand_grid(run_cfg: dict) -> list[ModelConfig]:
    """Enumerate ModelConfigs for the axes of ``run_cfg`` once resolved (defaults = full grid).

    A circuit family takes the requested values of the switches it varies
    (``FAMILIES``) and its fixed value of every other switch. An empty axis, a
    value that no model accepts (``RUN_CONFIG``), whether or not a selected
    family reads its axis, and a value listed twice in one axis are refused
    with ``RunConfigError``.
    """
    run_cfg = resolve_run_config(run_cfg)
    axes = {}
    for name, axis in AXES.items():
        axes[name] = listed = _as_list(run_cfg[name])
        if not listed:
            raise RunConfigError(f"empty axis {name!r}")
        for i, value in enumerate(listed):
            _check(f"{name} takes", value, axis.values)
            if value in listed[:i]:
                raise RunConfigError(f"{name} lists {value!r} twice")

    configs: list[ModelConfig] = []
    if "hybrid" in axes["families"]:
        for kind in axes["qnn"]:
            values = [axes[s] if s in FAMILIES[kind].varies else [AXES[s].fixed] for s in SWITCHES]
            for preproc, latent, (tanh, ent, obs) in product(axes["preproc"], axes["latent"], product(*values)):
                qnn = QnnArch(kind, ent, obs)
                configs.append(ModelConfig("hybrid", preproc, latent, tanh, qnn, seed=run_cfg["seed"]))
    if "classical" in axes["families"]:
        for preproc, latent, head in product(axes["preproc"], axes["latent"], axes["heads"]):
            configs.append(ModelConfig("classical", preproc, latent, head=head, seed=run_cfg["seed"]))
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
    coerced to int/float/bool when they parse as such. A file that cannot be
    opened, a line that is not ``key = value`` and a key set twice are a
    ``RunConfigError`` (the last two name the file and line).
    """
    cfg: dict = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise RunConfigError(f"cannot read run config: {exc}") from None
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not key or not val:
                raise RunConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.rstrip()!r}")
            if key in cfg:
                raise RunConfigError(f"{path}:{line_no}: {key} is set twice")
            if "," in val:
                cfg[key] = [_coerce(tok.strip()) for tok in val.split(",") if tok.strip()]
            else:
                cfg[key] = _coerce(val)
    return cfg


def check_run_config(run_cfg: dict) -> None:
    """Refuse unknown keys and bad protocol or dataset values before any work starts.

    A misspelt key would silently leave its default in force, and a bad
    protocol value would fail only once training or data generation had
    started. Dataset values are checked, not cast: ``beats_n = 12.7`` is
    refused rather than read as 12 samples. The grid axes are
    ``expand_grid``'s to check.
    """
    unknown = sorted(set(run_cfg) - RUN_KEYS)
    if unknown:
        raise RunConfigError(
            f"unknown run-config key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(RUN_KEYS))}"
        )
    for key, row in RUN_CONFIG.items():
        if isinstance(row, Value) and key in run_cfg:
            _check(f"{key} must be", run_cfg[key], row.accepts, row.least)


def resolve_run_config(run_cfg: dict) -> dict:
    """``run_cfg`` with every default of ``RUN_CONFIG`` filled in, after ``check_run_config``.

    Only the chosen dataset's keys are filled in, and a key that another
    dataset reads is refused, as is a key that the chosen dataset requires
    and the configuration leaves out. Resolving a resolved configuration
    returns it unchanged.
    """
    check_run_config(run_cfg)
    name = run_cfg.get("dataset", RUN_CONFIG["dataset"].default)
    reads = DATASETS[name].reads
    foreign = sorted(run_cfg.keys() & DATASET_KEYS - reads.keys())
    if foreign:
        raise RunConfigError(f"dataset {name} does not read {', '.join(foreign)}")
    cfg = {key: row.default for key, row in RUN_CONFIG.items() if key in reads or key not in DATASET_KEYS}
    cfg = {key: value for key, value in cfg.items() if value is not None} | run_cfg
    missing = [key for key in reads if key not in cfg]
    if missing:
        raise RunConfigError(f"dataset {name} requires {', '.join(missing)}")
    return cfg


def load_run_dataset(run_cfg: dict, data_dir: Path) -> Dataset:
    """Materialize the dataset named by the run configuration, after ``resolve_run_config``."""
    cfg = resolve_run_config(run_cfg)
    source = DATASETS[cfg["dataset"]]
    args = {arg: Path(data_dir) / cfg[key] if arg == "path" else cfg[key] for key, arg in source.reads.items()}
    return source.load(**args)


def default_batch_size(dataset: Dataset) -> int:
    """256 for flat 1-D samples, 64 for image/volume samples."""
    return 256 if len(dataset.sample_shape) == 1 else 64
