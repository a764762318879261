"""Comparison tables over a run's ``results.jsonl`` rows, and their CSV files.

``aggregate_tables`` computes Table 1 (median/min/max of each metric per
model group), the comparisons (paired Wilcoxon signed-rank tests along each
design axis and unpaired Mann–Whitney U tests between groups on the ROC-AUC
aggregate, Bonferroni-corrected over the whole table) and the box-plot
points. ``write_tables`` writes tables it is given to ``table1.csv``,
``comparisons.csv`` and ``boxplot_data.csv``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from statistics import median

from .config import ANGLE_KINDS, GROUP_NAMES
from .metrics import METRIC_NAMES
from .stats import bonferroni, mann_whitney_u, wilcoxon_signed_rank

GROUP_ORDER = ("classical", *GROUP_NAMES.values())
COMPARE_METRIC = "roc_auc"


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


def aggregate_tables(rows: list[dict]):
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
    groups_all = {r["group"] for r in rows}
    by_group: dict[str, list[dict]] = {}
    for r in done:
        by_group.setdefault(r["group"], []).append(r)
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
        c["significant_at_0.05"] = bool(cp < 0.05)

    boxplot = [
        {"group": r["group"], "aggregate_score": r["aggregate"][COMPARE_METRIC]} for r in done
    ]
    return table1, comparisons, boxplot


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})


def write_tables(out_dir: Path, table1: list[dict], comparisons: list[dict], boxplot: list[dict]) -> None:
    """Write ``aggregate_tables``'s three tables as CSV files in ``out_dir``."""
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
