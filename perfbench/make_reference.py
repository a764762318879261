"""Regenerate reference_auc.json, the benchmark's correctness gate.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For every workload (or only those named) and input variant, runs the workload's unit once and
stores the best validation ROC-AUC of each (config, fold). The stored file
was measured at the seed commit; regenerate it only when a change is meant
to alter results, and say so.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    harness = run._import_harness()
    refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for workload in sys.argv[1:] or run.WORKLOADS:
        refs[workload] = {}
        for variant in range(run.N_VARIANTS):
            work = run.WORK / f"reference-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                if workload == "grid4":
                    wl = run.Grid4(harness, variant, work)
                else:
                    wl = run.FoldZero(harness, workload, variant)
                unit = wl.unit()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            aborted = [f"{label}/{fold}" for label, fold, auc in unit.folds if auc is None]
            if aborted or not unit.outputs_ok:
                raise RuntimeError(f"{workload} variant {variant}: aborted {aborted}")
            refs[workload][str(variant)] = {f"{label}/{fold}": auc for label, fold, auc in unit.folds}
            print(f"{workload} variant {variant}: {unit.wall_s:.1f} s", file=sys.stderr, flush=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
