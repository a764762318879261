"""Tests of the benchmark's tracing; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import types

import pytest

import run
import spans

harness = run._import_harness()


@pytest.fixture
def work():
    path = run.WORK / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_missing_wrapped_name_fails_loudly():
    fake = types.SimpleNamespace(**{n: getattr(harness, n) for n in dir(harness) if not n.startswith("__")})
    del fake.qnn_backward_batch
    with pytest.raises(spans.MissingNameError, match="qnn_backward_batch"):
        with spans.traced(fake):
            pass


def test_layer_without_spans_fails_loudly():
    recs = [[name, 0.0, 1.0, -1, 1.0] for name in spans.SPAN_NAMES if name != "adam"]
    with pytest.raises(spans.MissingNameError, match="adam"):
        spans.summarize(recs)


def test_wrappers_are_removed_on_exit():
    before = {n: getattr(harness, n) for n in spans.SPAN_OF}
    compute = harness.MetricReport.__dict__["compute"]
    with spans.traced(harness):
        assert harness.run_experiment is not before["run_experiment"]
    assert {n: getattr(harness, n) for n in spans.SPAN_OF} == before
    assert harness.MetricReport.__dict__["compute"] is compute


def test_traced_and_untraced_grid4_give_identical_results(work):
    wl = run.Grid4(harness, 0, work)
    plain = wl.unit()
    traced, records = wl.traced_unit()
    assert traced.output == plain.output
    assert plain.outputs_ok and traced.outputs_ok
    summary = spans.summarize(records)
    assert summary["harness.run_experiment"]["calls"] == 10
    assert summary["metrics.compute"]["calls"] == plain.fold_epochs
