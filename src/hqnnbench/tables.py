"""Comparison tables over a run's ``results.jsonl`` rows, and their CSV files.

``aggregate_tables`` computes Table 1 (median/min/max of each metric per
model group), the comparisons (paired Wilcoxon signed-rank tests along each
design axis and unpaired Mann–Whitney U tests between groups on the ROC-AUC
aggregate, Bonferroni-corrected over the whole table) and the box-plot
points. Every test is exact at every size the grid forms; ``stats`` states
the cost, ~0.2 s for Mann–Whitney at 48 vs 48. A paired row's ``n_a`` and
``n_b`` count its pairs, tied pairs included; the signed-rank test drops
those, and its ``StatTestResult.n`` holds the pairs it kept.
``write_tables`` writes tables it is given to ``table1.csv``,
``comparisons.csv`` and ``boxplot_data.csv``.
"""

from __future__ import annotations

import csv
from itertools import combinations
from pathlib import Path
from statistics import median

from .config import FAMILIES, PREPROCS
from .metrics import METRIC_NAMES
from .stats import bonferroni, mann_whitney_u, wilcoxon_signed_rank

GROUP_ORDER = ("classical", *(family.group for family in FAMILIES.values()))
COMPARE_METRIC = "roc_auc"


def _varying(switch: str) -> tuple[str, ...]:
    return tuple(kind for kind, family in FAMILIES.items() if switch in family.varies)


# The paired comparisons in table order: the axis, the config field that
# differs within a pair, the two values compared with their column names, and
# the circuit kinds whose hybrids pair (None: every configuration pairs).
PAIRED = (
    *(("preproc", "preproc", (a, a), (b, b), None) for a, b in combinations(PREPROCS, 2)),
    ("latent_dim", "latent_dim", (16, "latent16"), (256, "latent256"), None),
    ("activation", "tanh_pi", (True, "tanh_pi"), (False, "identity"), _varying("tanh")),
    ("entanglement", "entangle", (True, "entangled"), (False, "unentangled"), _varying("entangle")),
    *(
        (f"observable[{FAMILIES[k].group}]", "observable", ("local", "local"), ("global", "global"), (k,))
        for k in _varying("observable")
    ),
)


def _paired_scores(scored: list[tuple[dict, float]], field: str, val_a, val_b, kinds):
    """Scores paired across configs equal, seed aside, except in ``field``.

    ``scored`` holds (flat config, score) pairs; a flat config has its
    circuit's fields beside the model's.
    """
    buckets: dict[frozenset, dict] = {}
    for flat, score in scored:
        if kinds is None or flat.get("kind") in kinds:
            key = frozenset((k, v) for k, v in flat.items() if k not in (field, "qnn", "seed"))
            buckets.setdefault(key, {})[flat[field]] = score
    pairs = [pair for pair in buckets.values() if val_a in pair and val_b in pair]
    return [pair[val_a] for pair in pairs], [pair[val_b] for pair in pairs]


def _comparison(axis: str, name_a: str, name_b: str, xs: list[float], ys: list[float], test) -> dict:
    res = test(xs, ys)
    return {
        "axis": axis,
        "group_a": name_a,
        "group_b": name_b,
        "test": res.method,
        "n_a": len(xs),
        "n_b": len(ys),
        "statistic": res.statistic,
        "raw_p": res.p_value,
    }


class NoCompletedRunsError(ValueError):
    """A model group in the results has no configuration with an aggregate."""


def aggregate_tables(rows: list[dict]):
    """Summaries over completed runs.

    Returns ``(table1, comparisons, boxplot)`` where table1 rows are
    group/metric median-min-max, comparisons pair axis values (paired
    signed-rank tests, in ``PAIRED`` order) and groups (unpaired U tests) on
    the ROC-AUC aggregate with Bonferroni correction over the whole table,
    and boxplot rows are per-config (group, score) points. A group whose
    every configuration aborted is a ``NoCompletedRunsError``.
    """
    if not rows:
        raise ValueError("no results to aggregate")
    done = [r for r in rows if r.get("aggregate")]
    by_group: dict[str, list[dict]] = {}
    for r in done:
        by_group.setdefault(r["group"], []).append(r)
    empty = {r["group"] for r in rows} - by_group.keys()
    if empty:
        raise NoCompletedRunsError(f"group {min(empty)!r} has zero completed runs")

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

    scored = [({**r["config"], **(r["config"]["qnn"] or {})}, r["aggregate"][COMPARE_METRIC]) for r in done]
    comparisons = []
    for axis, field, (val_a, name_a), (val_b, name_b), kinds in PAIRED:
        xs, ys = _paired_scores(scored, field, val_a, val_b, kinds)
        if xs:
            comparisons.append(_comparison(axis, name_a, name_b, xs, ys, wilcoxon_signed_rank))
    scores = {g: [r["aggregate"][COMPARE_METRIC] for r in by_group[g]] for g in GROUP_ORDER if g in by_group}
    for ga, gb in combinations(scores, 2):
        comparisons.append(_comparison("group", ga, gb, scores[ga], scores[gb], mann_whitney_u))

    corrected = bonferroni([c["raw_p"] for c in comparisons])
    for c, cp in zip(comparisons, corrected):
        c["corrected_p"] = float(cp)
        c["significant_at_0.05"] = bool(cp < 0.05)

    boxplot = [
        {"group": r["group"], "aggregate_score": r["aggregate"][COMPARE_METRIC]} for r in done
    ]
    return table1, comparisons, boxplot


# The file and the columns of each of ``aggregate_tables``'s tables, in its order.
TABLE_COLUMNS = {
    "table1.csv": ["group", "metric", "median", "min", "max"],
    "comparisons.csv": [
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
    "boxplot_data.csv": ["group", "aggregate_score"],
}


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_tables(out_dir: Path, table1: list[dict], comparisons: list[dict], boxplot: list[dict]) -> None:
    """Write ``aggregate_tables``'s three tables as CSV files in ``out_dir``."""
    for (name, columns), rows in zip(TABLE_COLUMNS.items(), (table1, comparisons, boxplot)):
        _write_csv(out_dir / name, rows, columns)
