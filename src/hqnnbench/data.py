"""Dataset ingestion, synthetic data, and balanced subject-disjoint folds.

Two on-disk formats are supported:

* Beats CSV: one row per sample, exactly 362 comma-separated columns --
  360 real-valued features, then a 0/1 label, then an integer subject id.
  Values are used as parsed (no normalization).
* NPZ: a ZIP archive of NPY arrays, as ``np.savez`` writes it, read with
  ``np.load(..., allow_pickle=False)``: any NPY version, byte order or
  memory order loads, and pickled (object) entries are refused.
  Unsigned-byte images are mapped to reals in [-1, 1] via v/127.5 - 1;
  other numeric types are kept as-is. Images are made channel-first: with
  three or more axes per sample, a leading axis of size 1 or 3 is already
  channels, else a trailing one of size 1 or 3 is moved to the front; any
  other array with two or more axes per sample gains a singleton channel
  axis.
"""

from __future__ import annotations

import csv
import zipfile
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    """Raised when an input file violates its documented contract."""


@dataclass
class Dataset:
    """Finite samples with binary labels and optional per-sample subject ids."""

    samples: np.ndarray
    labels: np.ndarray
    subject_ids: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite, not NaN or infinite")
        if self.labels.shape != (self.samples.shape[0],):
            raise ValueError("labels length must match number of samples")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        if self.subject_ids is not None:
            self.subject_ids = np.asarray(self.subject_ids, dtype=np.int64)
            if self.subject_ids.shape != (self.labels.shape[0],):
                raise ValueError("subject_ids length must match number of samples")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.samples.shape[1:]


N_BEAT_FEATURES = 360


def load_beats_csv(path) -> Dataset:
    """Read the 362-column beats CSV (360 features, label, subject id)."""
    feats: list[list[float]] = []
    labels: list[int] = []
    subjects: list[int] = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != N_BEAT_FEATURES + 2:
                raise DataFormatError(
                    f"row {row_no}: expected {N_BEAT_FEATURES + 2} columns "
                    f"(features, label, subject), got {len(row)}"
                )
            values = []
            for col_no, tok in enumerate(row[:N_BEAT_FEATURES], start=1):
                try:
                    values.append(float(tok))
                except ValueError:
                    raise DataFormatError(
                        f"row {row_no}, column {col_no}: cannot parse {tok.strip()!r} as a number"
                    ) from None
            lab = row[N_BEAT_FEATURES].strip()
            if lab not in ("0", "1"):
                raise DataFormatError(f"row {row_no}: label must be 0 or 1, got {lab!r}")
            try:
                subj = int(row[N_BEAT_FEATURES + 1])
            except ValueError:
                raise DataFormatError(
                    f"row {row_no}, column {N_BEAT_FEATURES + 2}: "
                    f"cannot parse subject id {row[N_BEAT_FEATURES + 1].strip()!r}"
                ) from None
            feats.append(values)
            labels.append(int(lab))
            subjects.append(subj)
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(np.array(feats), np.array(labels), np.array(subjects))


def _canonical_images(images: np.ndarray) -> np.ndarray:
    """Map images to channel-first float64 with byte values scaled to [-1, 1]."""
    images = np.ascontiguousarray(images)  # so a Fortran-order entry trains exactly as its C-order twin
    if images.dtype == np.uint8:
        images = images.astype(np.float64) / 127.5 - 1.0
    else:
        images = images.astype(np.float64)
    per_sample = images.ndim - 1
    if per_sample >= 3 and images.shape[1] in (1, 3):
        return images  # already channel-first
    if per_sample >= 3 and images.shape[-1] in (1, 3):
        images = np.moveaxis(images, -1, 1)
    elif per_sample >= 2:
        images = images[:, None]
    return images


def _npz_entry(archive: np.lib.npyio.NpzFile, key: str, path) -> np.ndarray:
    if key not in archive:
        raise DataFormatError(f"{path}: no entry named {key!r} (have {sorted(archive.files)})")
    try:
        value = archive[key]
    except ValueError as exc:
        raise DataFormatError(f"{key}: cannot read NPY entry (truncated, malformed or pickled): {exc}") from None
    if not isinstance(value, np.ndarray):  # NpzFile hands back raw bytes for a non-NPY member
        raise DataFormatError(f"{key}: bad NPY magic {value[:6]!r}")
    return value


def load_npz(path, images_key: str, labels_key: str) -> Dataset:
    """Read images and labels arrays from an NPZ archive, refusing pickles."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            raise DataFormatError(f"{path}: not an NPZ archive (a ZIP of NPY entries)") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataFormatError(f"{path}: holds one bare NPY array, not an NPZ archive")
        with archive:
            images = _npz_entry(archive, images_key, path)
            labels = _npz_entry(archive, labels_key, path)
    if not np.issubdtype(images.dtype, np.number):
        raise DataFormatError(f"{images_key}: non-numeric dtype {images.dtype}")
    if images.ndim < 2:
        raise DataFormatError(f"{images_key}: expected shape [n, ...], got {images.shape}")
    if labels.ndim == 2 and labels.shape[1] == 1:
        labels = labels[:, 0]
    if labels.ndim != 1:
        raise DataFormatError(f"{labels_key}: expected shape [n] or [n,1], got {labels.shape}")
    if labels.shape[0] != images.shape[0]:
        raise DataFormatError(f"{labels_key}: {labels.shape[0]} labels for {images.shape[0]} images")
    if labels.dtype.kind not in "biuf":
        raise DataFormatError(f"{labels_key}: labels need a bool, integer or float dtype, got {labels.dtype}")
    # the raw values, before the cast: casting truncates 0.7 to 0 and warns on NaN
    if not np.isin(labels, (0, 1)).all():
        raise DataFormatError(f"{labels_key}: labels must be 0/1")
    return Dataset(_canonical_images(images), labels.astype(np.int64))


# ---------------------------------------------------------------------------
# Fold construction.
# ---------------------------------------------------------------------------


@dataclass
class FoldPlan:
    """K-fold split: raw per-sample fold assignment plus balanced index lists.

    ``assignments[i]`` is the validation fold of sample ``i`` before class
    balancing; ``folds[f] = (train_idx, val_idx)`` are the post-balancing
    sorted index arrays actually used for training.
    """

    k: int
    assignments: np.ndarray
    folds: list[tuple[np.ndarray, np.ndarray]]


def _balance(indices: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Down-sample the majority class within ``indices`` to equal counts."""
    idx0 = indices[labels[indices] == 0]
    idx1 = indices[labels[indices] == 1]
    m = min(idx0.size, idx1.size)
    keep0 = rng.choice(idx0, size=m, replace=False) if idx0.size > m else idx0
    keep1 = rng.choice(idx1, size=m, replace=False) if idx1.size > m else idx1
    return np.sort(np.concatenate([keep0, keep1]))


def make_folds(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Build a balanced k-fold plan, subject-disjoint when subject ids exist.

    With subject ids, whole subjects are dealt greedily (largest first,
    seeded tie-break) onto the currently smallest fold, so no subject spans
    a train/val boundary. Within every fold, train and validation sets are
    separately balanced by down-sampling the majority class.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    labels = dataset.labels
    n = dataset.n
    for c in (0, 1):
        if int((labels == c).sum()) < k:
            raise ValueError(f"class {c} has fewer than k={k} samples")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=np.int64)

    if dataset.subject_ids is not None:
        subjects = np.unique(dataset.subject_ids)
        sizes = {int(s): int((dataset.subject_ids == s).sum()) for s in subjects}
        tiebreak = rng.permutation(subjects.size)
        order = sorted(
            range(subjects.size), key=lambda i: (-sizes[int(subjects[i])], tiebreak[i])
        )
        load = [0] * k
        for i in order:
            f = min(range(k), key=lambda j: (load[j], j))
            assignments[dataset.subject_ids == subjects[i]] = f
            load[f] += sizes[int(subjects[i])]
    else:
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            idx = rng.permutation(idx)
            for pos, sample in enumerate(idx):
                assignments[sample] = pos % k

    folds = []
    for f in range(k):
        val = np.flatnonzero(assignments == f)
        train = np.flatnonzero(assignments != f)
        for name, part in (("validation", val), ("train", train)):
            present = np.unique(labels[part])
            if present.size < 2:
                raise ValueError(f"fold {f}: a class is absent from its {name} set")
        folds.append((_balance(train, labels, rng), _balance(val, labels, rng)))
    return FoldPlan(k=k, assignments=assignments, folds=folds)


# ---------------------------------------------------------------------------
# Synthetic generators.
# ---------------------------------------------------------------------------


def synth_blobs(n: int, dim: int, separation: float, seed: int) -> Dataset:
    """Two isotropic unit-variance Gaussians with means ``separation`` apart."""
    if n % 2:
        raise ValueError("n must be even for balanced classes")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.standard_normal((n, dim))
    x[:half, 0] -= separation / 2.0
    x[half:, 0] += separation / 2.0
    labels = np.repeat([0, 1], half)
    return Dataset(x, labels)


def synth_beats(
    n: int = 2000,
    seed: int = 0,
    n_subjects: int = 20,
    noise: float = 0.35,
    ambiguity: float = 0.065,
) -> Dataset:
    """Synthetic 360-sample heartbeat-like waveforms for two classes.

    This is a stand-in corpus with the same tensor contract as the beats
    CSV (360 features, binary label, subject ids): class 1 beats have a
    widened, damped main deflection, a suppressed leading bump and a
    variable late bump, with per-subject amplitude/timing idiosyncrasies,
    baseline wander and white noise. A fraction ``ambiguity`` of beats is
    drawn with the other class's morphology while keeping its label, which
    caps the attainable ROC-AUC near ``1 - ambiguity`` and keeps the task
    non-trivial for any model. It is NOT clinical data and absolute scores
    only loosely track results on real recordings.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if not 0.0 <= ambiguity < 0.5:
        raise ValueError("ambiguity must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, N_BEAT_FEATURES)
    labels = np.arange(n) % 2
    subj = rng.integers(0, n_subjects, size=n)
    # Per-subject idiosyncrasies, shared across that subject's beats.
    s_scale = 1.0 + 0.15 * rng.standard_normal(n_subjects)
    s_shift = 0.02 * rng.standard_normal(n_subjects)
    s_noise = noise * (1.0 + 0.3 * rng.standard_normal(n_subjects)).clip(0.4, 2.0)

    def bump(center, width, height):
        return height * np.exp(-0.5 * ((t[None, :] - center) / width) ** 2)

    col = lambda v: np.asarray(v)[:, None]  # noqa: E731 - tiny shaping helper

    flip = rng.random(n) < ambiguity
    sick = (labels == 1) ^ flip  # morphology class; labels stay untouched
    jitter = lambda w: col(rng.normal(1.0, w, size=n))  # noqa: E731

    center_main = 0.45 + col(s_shift[subj]) + rng.normal(0.0, 0.01, size=(n, 1))
    width_main = col(np.where(sick, 0.030, 0.016)) * jitter(0.15)
    height_main = col(np.where(sick, 0.75, 1.15)) * jitter(0.12)
    x = bump(center_main, width_main, height_main)
    x -= bump(center_main - 0.035, 0.012, 0.25 * jitter(0.2))

    height_p = col(np.where(sick, 0.04, 0.14)) * jitter(0.25)
    x += bump(0.20 + col(s_shift[subj]), 0.035, height_p)

    height_t = col(np.where(sick, 0.30, 0.22)) * jitter(0.3)
    center_t = col(np.where(sick, 0.74, 0.70))
    x += bump(center_t, 0.05, height_t)

    x *= col(s_scale[subj])
    phase = rng.uniform(0.0, 2 * np.pi, size=(n, 1))
    x += 0.08 * np.sin(2 * np.pi * t[None, :] * rng.uniform(0.5, 1.5, (n, 1)) + phase)
    x += col(s_noise[subj]) * rng.standard_normal((n, N_BEAT_FEATURES)) * 0.2
    return Dataset(x, labels, subject_ids=subj)
