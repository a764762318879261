"""One-off baseline measurements quoted in README.md; not run by the benchmark.

    python3 perfbench/baseline_probe.py jobs    # grid4: --jobs 1|2 x default|pinned BLAS threads
    python3 perfbench/baseline_probe.py angry   # Ang-RY/conv0/l256, fold 0, one epoch

``jobs`` is the only place that sets OPENBLAS_NUM_THREADS, and only for the
probed ``hqnnbench run`` processes.
"""

import os
import shutil
import subprocess
import sys
import time
from statistics import median

import run

REPEATS = 3


def jobs_table(work) -> None:
    config = work / "grid4.cfg"
    config.write_text(run.GRID4_CFG.format(variant=0))
    print("| --jobs | BLAS threads | wall s, median | range |")
    print("|---|---|---|---|")
    for jobs in ("1", "2"):
        for label, extra in (("default", {}), ("OPENBLAS_NUM_THREADS=1", {"OPENBLAS_NUM_THREADS": "1"})):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env.update(extra)
            walls = []
            for i in range(REPEATS):
                out = work / f"out-{jobs}-{len(extra)}-{i}"
                cmd = [sys.executable, "-c", run.CLI, str(run.SRC), "run", "--config", str(config),
                       "--data-dir", str(work), "--out", str(out), "--jobs", jobs]
                t0 = time.perf_counter()
                subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=run.SUBPROCESS_TIMEOUT_S)
                walls.append(time.perf_counter() - t0)
            print(f"| {jobs} | {label} | {median(walls):.1f} | {min(walls):.1f}-{max(walls):.1f} |", flush=True)


def angry(work) -> None:
    harness = run._import_harness()
    dataset, fold0 = run.load_inputs(harness, 0)
    config = harness.ModelConfig("hybrid", "conv0", 256, qnn=harness.QnnArch("ang_ry", True, "global"))
    for _ in range(2):
        res = harness.run_experiment(config, dataset, fold0, 1, harness.default_batch_size(dataset))
        print(f"Ang-RY/conv0/l256 fold-epoch: {res.wall_times[0]:.1f} s", flush=True)


def main() -> int:
    work = run.WORK / f"probe-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        {"jobs": jobs_table, "angry": angry}[sys.argv[1]](work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
