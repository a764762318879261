"""The experiment grid's schema and the run-configuration file.

A ``ModelConfig`` is one point of the grid: a hybrid (preprocessor, circuit,
linear readout) or a classical (preprocessor, head) model. The default grid
crosses pre-processing depth (``classical.PREPROC_CHANNELS``), latent
dimension (16/256), the pi*tanh activation toggle (angle-encoded hybrids
only), four circuit families (Ang-RY, Ang-Arb, Amp-Gen, QCNN) with their
entanglement/observable axes, and four classical heads
(``classical.HEAD_LAYERS``) -- 150 configurations.

``expand_grid`` enumerates the points a run configuration selects,
``parse_run_config`` reads the flat ``key = value`` file that holds it, and
``check_run_config`` rejects keys that nothing reads and training-protocol
values that no run accepts. ``load_run_dataset`` and ``default_batch_size``
turn its dataset keys into a ``Dataset``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
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
# The switches a circuit family may vary: the values a family that varies one
# takes, in the grid's default order, and the one value every other family holds.
SWITCHES = {
    "tanh": ((True, False), False),
    "entangle": ((True, False), True),
    "observable": (("local", "global"), "single"),
}
# Which switches each circuit family varies; the grid, config validation and
# the paired comparisons all read it from here.
FAMILY_AXES = {
    "ang_ry": ("tanh", "entangle", "observable"),
    "ang_arb": ("tanh", "entangle", "observable"),
    "amp_gen": ("entangle", "observable"),
    "qcnn": (),
}
QNN_KINDS = tuple(FAMILY_AXES)
GROUP_NAMES = {"ang_ry": "Ang-RY", "ang_arb": "Ang-Arb", "amp_gen": "Amp-Gen", "qcnn": "QCNN"}
AGGREGATES = ("mean", "median")

# Every key a run configuration may hold: the grid axes, the training
# protocol, and the dataset keys of the README's run-configuration table.
RUN_KEYS = frozenset(
    (
        "families qnn preproc latent tanh entangle observable heads "
        "folds epochs batch_size aggregate seed "
        "dataset blobs_n blobs_dim blobs_separation "
        "beats_n beats_subjects beats_noise beats_ambiguity beats_file "
        "npz_file images_key labels_key"
    ).split()
)


def _check_switch(kind: str, switch: str, value) -> None:
    varied, fixed = SWITCHES[switch]
    allowed = varied if switch in FAMILY_AXES[kind] else (fixed,)
    if value not in allowed:
        raise ValueError(f"{kind} takes {switch} {' or '.join(map(repr, allowed))}, got {value!r}")


@dataclass(frozen=True)
class QnnArch:
    """One circuit family plus its entanglement/observable switches."""

    kind: str
    entangle: bool = True
    observable: str = "global"  # "local" | "global" | "single"

    def __post_init__(self):
        if self.kind not in FAMILY_AXES:
            raise ValueError(f"unknown qnn kind {self.kind!r}")
        _check_switch(self.kind, "entangle", self.entangle)
        _check_switch(self.kind, "observable", self.observable)

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
            _check_switch(self.qnn.kind, "tanh", self.tanh_pi)
        elif self.family == "classical":
            if self.head not in HEADS or self.qnn is not None or self.tanh_pi:
                raise ValueError("classical configs carry a head, no qnn and no tanh_pi")
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
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Grid expansion and the run-configuration file.
# ---------------------------------------------------------------------------


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


# What the values of a grid axis must be where no model would refuse a wrong
# one: a family that no branch of the grid reads, and switches and latent
# sizes, which the models compare by ==, so 1 would pass for true and 16.0
# for 16.
_AXIS_VALUES = {
    "families": ("hybrid or classical", lambda v: v in ("hybrid", "classical")),
    "latent": ("an integer", lambda v: type(v) is int),
    "tanh": ("true or false", lambda v: isinstance(v, bool)),
    "entangle": ("true or false", lambda v: isinstance(v, bool)),
}


def expand_grid(run_cfg: dict) -> list[ModelConfig]:
    """Enumerate ModelConfigs for the axes in ``run_cfg`` (defaults = full grid).

    A circuit family takes the requested values of the switches it varies
    (``FAMILY_AXES``) and its fixed value of every other switch. An empty
    axis, a value of the wrong kind (``_AXIS_VALUES``) and a value listed
    twice in one axis are refused.
    """
    families = _as_list(run_cfg.get("families", ["hybrid", "classical"]))
    preprocs = _as_list(run_cfg.get("preproc", list(PREPROCS)))
    latents = _as_list(run_cfg.get("latent", [16, 256]))
    kinds = _as_list(run_cfg.get("qnn", list(QNN_KINDS)))
    heads = _as_list(run_cfg.get("heads", list(HEADS)))
    switches = {s: _as_list(run_cfg.get(s, list(varied))) for s, (varied, _) in SWITCHES.items()}
    seed = int(run_cfg.get("seed", 0))
    axes = {"families": families, "preproc": preprocs, "latent": latents, "qnn": kinds, "heads": heads, **switches}
    for name, axis in axes.items():
        if not axis:
            raise ValueError(f"empty axis {name!r}")
        for i, value in enumerate(axis):
            if name in _AXIS_VALUES and not _AXIS_VALUES[name][1](value):
                raise RunConfigError(f"{name} takes {_AXIS_VALUES[name][0]}, got {value!r}")
            if value in axis[:i]:
                raise RunConfigError(f"{name} lists {value!r} twice")

    configs: list[ModelConfig] = []
    if "hybrid" in families:
        for kind in kinds:
            # An unknown kind varies nothing here and is refused by QnnArch.
            varies = FAMILY_AXES.get(kind, ())
            values = [switches[s] if s in varies else [fixed] for s, (_, fixed) in SWITCHES.items()]
            for preproc, latent, (tanh, ent, obs) in product(preprocs, latents, product(*values)):
                qnn = QnnArch(kind, ent, obs)
                configs.append(ModelConfig("hybrid", preproc, latent, tanh, qnn, seed=seed))
    if "classical" in families:
        for preproc, latent, head in product(preprocs, latents, heads):
            configs.append(ModelConfig("classical", preproc, latent, head=head, seed=seed))
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
    coerced to int/float/bool when they parse as such. A file that cannot be
    opened is a ``RunConfigError``.
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
            if "," in val:
                cfg[key] = [_coerce(tok.strip()) for tok in val.split(",") if tok.strip()]
            else:
                cfg[key] = _coerce(val)
    return cfg


class RunConfigError(ValueError):
    """A run configuration holds a key that nothing reads or a value that no run accepts."""


# Least value of each integer training-protocol key.
_LEAST = {"folds": 2, "epochs": 1, "batch_size": 1, "seed": 0}


def check_run_config(run_cfg: dict) -> None:
    """Refuse unknown keys and out-of-range protocol values before any work starts.

    A misspelt key would silently leave its default in force, and a bad
    ``folds``, ``epochs``, ``batch_size``, ``seed`` or ``aggregate`` would
    fail only once training or data generation had started.
    """
    unknown = sorted(set(run_cfg) - RUN_KEYS)
    if unknown:
        raise RunConfigError(
            f"unknown run-config key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(sorted(RUN_KEYS))}"
        )
    for key, least in _LEAST.items():
        value = run_cfg.get(key, least)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise RunConfigError(f"{key} must be an integer of at least {least}, got {value!r}")
    if run_cfg.get("aggregate", "mean") not in AGGREGATES:
        raise RunConfigError(f"aggregate must be {' or '.join(AGGREGATES)}, got {run_cfg['aggregate']!r}")


_BEATS_ARGS = {
    "beats_n": ("n", int),
    "beats_subjects": ("n_subjects", int),
    "beats_noise": ("noise", float),
    "beats_ambiguity": ("ambiguity", float),
}


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
        # Keys the configuration leaves out keep synth_beats' own defaults.
        args = {arg: cast(run_cfg[key]) for key, (arg, cast) in _BEATS_ARGS.items() if key in run_cfg}
        return synth_beats(seed=seed, **args)
    if name == "beats_csv":
        return load_beats_csv(Path(data_dir) / run_cfg.get("beats_file", "beats.csv"))
    if name == "npz":
        if "npz_file" not in run_cfg:
            raise RunConfigError("dataset npz requires npz_file")
        return load_npz(
            Path(data_dir) / run_cfg["npz_file"],
            run_cfg.get("images_key", "images"),
            run_cfg.get("labels_key", "labels"),
        )
    raise RunConfigError(f"unknown dataset {name!r}")


def default_batch_size(dataset: Dataset) -> int:
    """256 for flat 1-D samples, 64 for image/volume samples."""
    return 256 if len(dataset.sample_shape) == 1 else 64
