"""Grid expansion, training orchestration, aggregation, and CLI tests."""

from __future__ import annotations

import concurrent.futures
import errno
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hqnnbench.harness as harness
from hqnnbench.classical import build_head, build_preprocessor, stack_params
from hqnnbench.config import (
    AXES,
    DATASET_KEYS,
    DATASETS,
    HEADS,
    PROTOCOL_KEYS,
    QNN_KINDS,
    RUN_CONFIG,
    RUN_KEYS,
    ModelConfig,
    QnnArch,
    RunConfigError,
    Value,
    check_run_config,
    default_batch_size,
    expand_grid,
    load_run_dataset,
    parse_run_config,
    resolve_run_config,
)
from hqnnbench.data import synth_blobs, make_folds
from hqnnbench.harness import (
    Model,
    ProtocolMismatchError,
    ResultsFileError,
    build_model,
    main,
    run_experiment,
    run_grid,
)
from hqnnbench.qnn import init_params
from hqnnbench.statevec import EncodingError
from hqnnbench.tables import aggregate_tables, write_tables


class TestQnnArch:
    def test_builds_match_latent_qubits(self):
        c = QnnArch("ang_ry").build(16)
        assert c.n_qubits == 4 and c.n_params == 48
        c = QnnArch("amp_gen").build(256)
        assert c.n_qubits == 8 and c.n_inputs == 256
        c = QnnArch("qcnn", True, "single").build(16)
        assert c.out_dim == 1
        c = QnnArch("ang_arb", True, "local").build(16)
        assert c.out_dim == 4

    def test_qcnn_switches_are_fixed(self):
        with pytest.raises(ValueError):
            QnnArch("qcnn", entangle=False, observable="single")
        with pytest.raises(ValueError):
            QnnArch("qcnn", entangle=True, observable="local")
        with pytest.raises(ValueError):
            QnnArch("ang_ry", observable="single")
        with pytest.raises(ValueError):
            QnnArch("spaghetti")

    def test_unknown_latent(self):
        with pytest.raises(ValueError):
            QnnArch("ang_ry").build(64)

    def test_look_alike_switch_is_refused(self):
        # 1 == True, so a check by == would let it through and change the config hash.
        with pytest.raises(ValueError, match="^ang_ry takes entangle true or false, got 1$"):
            QnnArch("ang_ry", 1, "global")


class TestModelConfig:
    def test_hash_is_stable_and_discriminating(self):
        a = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="mlp")
        b = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="mlp")
        c = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 64
        int(a.config_hash(), 16)  # valid hex

    def test_labels(self):
        h = ModelConfig(
            family="hybrid",
            preproc="conv0",
            latent_dim=16,
            tanh_pi=True,
            qnn=QnnArch("ang_ry", False, "local"),
        )
        assert h.label == "hybrid-ang_ry-conv0-l16-noent-local-tanh"
        assert h.group == "Ang-RY"
        c = ModelConfig(family="classical", preproc="conv3", latent_dim=256, head="fcrelu")
        assert c.label == "classical-conv3-l256-fcrelu"
        assert c.group == "classical"

    def test_invariants(self):
        with pytest.raises(ValueError):
            ModelConfig(family="hybrid", preproc="conv0", latent_dim=16)  # no qnn
        with pytest.raises(ValueError):
            ModelConfig(
                family="hybrid", preproc="conv0", latent_dim=16, qnn=QnnArch("ang_ry"), head="mlp"
            )
        with pytest.raises(ValueError):
            ModelConfig(family="classical", preproc="conv0", latent_dim=16)  # no head
        with pytest.raises(ValueError):
            ModelConfig(
                family="classical", preproc="conv0", latent_dim=16, head="mlp", tanh_pi=True
            )
        with pytest.raises(ValueError):
            ModelConfig(
                family="hybrid",
                preproc="conv0",
                latent_dim=16,
                tanh_pi=True,
                qnn=QnnArch("amp_gen"),  # tanh_pi needs angle encoding
            )
        with pytest.raises(ValueError):
            ModelConfig(family="quantum", preproc="conv0", latent_dim=16, head="mlp")
        with pytest.raises(ValueError):
            ModelConfig(family="classical", preproc="vgg", latent_dim=16, head="mlp")
        with pytest.raises(ValueError):
            ModelConfig(family="classical", preproc="conv0", latent_dim=64, head="mlp")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(latent_dim=16.0), "latent takes 16 or 256, got 16.0"),
            (dict(tanh_pi=1), "ang_ry takes tanh true or false, got 1"),
            (dict(seed=1.0), "seed must be an integer of at least 0, got 1.0"),
            (dict(seed=True), "seed must be an integer of at least 0, got True"),
            (dict(seed=-1), "seed must be an integer of at least 0, got -1"),
        ],
        ids=["float_latent", "integer_tanh", "float_seed", "bool_seed", "negative_seed"],
    )
    def test_look_alike_values_are_refused(self, kwargs, message):
        fields = dict(family="hybrid", preproc="conv0", latent_dim=16, tanh_pi=True, qnn=QnnArch("ang_ry"))
        ModelConfig(**fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelConfig(**{**fields, **kwargs})

    def test_qnn_must_be_a_qnn_arch(self):
        # a kind name where a QnnArch belongs is refused with the field's name
        with pytest.raises(RunConfigError, match="qnn='ang_ry'"):
            ModelConfig("hybrid", "conv0", 16, qnn="ang_ry")

    def test_classical_tanh_is_exactly_false(self):
        with pytest.raises(ValueError, match="^classical takes tanh false, got 0$"):
            ModelConfig("classical", "conv0", 16, 0, head="mlp")


class TestExpandGrid:
    def test_default_grid_is_150(self):
        configs = expand_grid({})
        assert len(configs) == 150
        groups = {}
        for c in configs:
            groups[c.group] = groups.get(c.group, 0) + 1
        assert groups == {"Ang-RY": 48, "Ang-Arb": 48, "Amp-Gen": 24, "QCNN": 6, "classical": 24}
        hashes = {c.config_hash() for c in configs}
        labels = {c.label for c in configs}
        assert len(hashes) == 150 and len(labels) == 150

    def test_default_grid_hashes_are_pinned(self):
        # Resume skips configs by hash: if these hashes changed, every existing
        # output directory would retrain its configs and append duplicate rows.
        digest = hashlib.sha256("".join(c.config_hash() for c in expand_grid({})).encode())
        assert digest.hexdigest() == "1509eda71bee6d13efef0da7c7dba23ebc1c6791d87d12845f5a392712563770"

    def test_restricted_axes(self):
        assert len(expand_grid({"families": "hybrid", "qnn": "amp_gen"})) == 24
        assert len(expand_grid({"families": "hybrid", "qnn": "qcnn"})) == 6
        assert len(expand_grid({"families": "classical"})) == 24
        single = expand_grid(
            {
                "families": "hybrid",
                "qnn": "amp_gen",
                "preproc": "conv0",
                "latent": 16,
                "entangle": True,
                "observable": "global",
            }
        )
        assert len(single) == 1
        assert single[0].label == "hybrid-amp_gen-conv0-l16-ent-global"

    def test_seed_propagates(self):
        configs = expand_grid({"families": "classical", "seed": 9})
        assert all(c.seed == 9 for c in configs)

    @pytest.mark.parametrize(
        "run_cfg, message",
        [
            ({"families": "classical", "qnn": "bogus"}, "qnn takes ang_ry or ang_arb or amp_gen or qcnn, got 'bogus'"),
            ({"families": "classical", "observable": "sideways"},
             "observable takes local or global or single, got 'sideways'"),
            ({"families": "hybrid", "qnn": "qcnn", "heads": "nosuch"},
             "heads takes none or fcnone or fcrelu or mlp, got 'nosuch'"),
            ({"families": "hybrid", "qnn": "qcnn", "tanh": 1}, "tanh takes true or false, got 1"),
        ],
        ids=["qnn_of_classical_grid", "observable_of_classical_grid", "heads_of_hybrid_grid", "tanh_of_qcnn_grid"],
    )
    def test_values_that_no_selected_family_reads_are_checked(self, run_cfg, message):
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            expand_grid(run_cfg)

    @pytest.mark.parametrize(
        "run_cfg, message",
        [
            ({"qnn": "ang_ry", "observable": "single"}, "ang_ry takes observable local or global, got 'single'"),
            ({"seed": 1.0}, "seed must be an integer of at least 0, got 1.0"),
        ],
        ids=["single_observable", "float_seed"],
    )
    def test_model_refusals_are_run_config_errors(self, run_cfg, message):
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            expand_grid(run_cfg)

    def test_fixed_switch_value_expands_where_no_family_varies_it(self):
        configs = expand_grid({"families": "hybrid", "qnn": "qcnn", "observable": "single", "entangle": True})
        assert configs == expand_grid({"families": "hybrid", "qnn": "qcnn"})
        assert len(configs) == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(RunConfigError, match="^empty axis 'preproc'$"):
            expand_grid({"preproc": []})
        with pytest.raises(RunConfigError, match="^empty axis 'families'$"):
            expand_grid({"families": []})

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("entangle", 2, "entangle takes true or false, got 2"),
            ("tanh", "false", "tanh takes true or false, got 'false'"),
            ("latent", 16.5, "latent takes 16 or 256, got 16.5"),
            ("latent", True, "latent takes 16 or 256, got True"),
            ("families", ["hybrid", "quantum"], "families takes hybrid or classical, got 'quantum'"),
            ("qnn", ["ang_ry", "qcnn", "ang_ry"], "qnn lists 'ang_ry' twice"),
            ("entangle", [False, False], "entangle lists False twice"),
        ],
        ids=["integer_switch", "text_switch", "fractional_latent", "bool_latent", "unknown_family", "repeated_qnn",
             "repeated_switch"],
    )
    def test_values_are_checked_not_cast(self, axis, value, message):
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            expand_grid({axis: value})


class TestRunConfigParsing:
    def test_full_syntax(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# benchmark setup\n"
            "dataset = blobs\n"
            "latent = 16, 256   # both sizes\n"
            "entangle = true, false\n"
            "epochs = 40\n"
            "blobs_separation = 2.5\n"
            "preproc = conv0\n"
            "\n"
        )
        cfg = parse_run_config(p)
        assert cfg == {
            "dataset": "blobs",
            "latent": [16, 256],
            "entangle": [True, False],
            "epochs": 40,
            "blobs_separation": 2.5,
            "preproc": "conv0",
        }

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dataset blobs\n")
        with pytest.raises(ValueError, match="line" if False else "run.cfg:1"):
            parse_run_config(p)

    def test_dataset_dispatch(self, tmp_path):
        ds = load_run_dataset({"dataset": "blobs", "blobs_n": 10, "blobs_dim": 3}, tmp_path)
        assert ds.samples.shape == (10, 3)
        ds = load_run_dataset({"dataset": "synth_beats", "beats_n": 12}, tmp_path)
        assert ds.samples.shape == (12, 360)
        with pytest.raises(ValueError):
            load_run_dataset({"dataset": "imagenet"}, tmp_path)
        with pytest.raises(ValueError):
            load_run_dataset({"dataset": "npz"}, tmp_path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("beats_n", 12.7, "beats_n must be an integer of at least 4, got 12.7"),
            ("blobs_n", 10.9, "blobs_n must be an integer of at least 2, got 10.9"),
            ("blobs_dim", True, "blobs_dim must be an integer of at least 1, got True"),
            ("beats_subjects", 2.5, "beats_subjects must be an integer of at least 1, got 2.5"),
            ("beats_noise", True, "beats_noise must be a number of at least 0, got True"),
            ("beats_ambiguity", "low", "beats_ambiguity must be a number, got 'low'"),
            ("npz_file", 7, "npz_file must be a string, got 7"),
            ("beats_n", [100, 200], "beats_n must be an integer of at least 4, got [100, 200]"),
        ],
        ids=["fractional_beats_n", "fractional_blobs_n", "bool_blobs_dim", "fractional_beats_subjects",
             "bool_beats_noise", "text_beats_ambiguity", "integer_npz_file", "listed_beats_n"],
    )
    def test_dataset_values_are_checked_not_cast(self, tmp_path, key, value, message):
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            check_run_config({key: value})
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            load_run_dataset({key: value}, tmp_path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("blobs_n", 0, "blobs_n must be an integer of at least 2, got 0"),
            ("blobs_dim", 0, "blobs_dim must be an integer of at least 1, got 0"),
            ("beats_n", 3, "beats_n must be an integer of at least 4, got 3"),
            ("beats_subjects", 0, "beats_subjects must be an integer of at least 1, got 0"),
            ("beats_noise", -1, "beats_noise must be a number of at least 0, got -1"),
            ("beats_noise", -0.5, "beats_noise must be a number of at least 0, got -0.5"),
        ],
        ids=["empty_blobs_n", "zero_blobs_dim", "short_beats_n", "no_beats_subjects", "negative_beats_noise",
             "negative_fractional_beats_noise"],
    )
    def test_dataset_values_below_their_least_are_refused(self, tmp_path, key, value, message):
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            check_run_config({key: value})
        with pytest.raises(RunConfigError, match=f"^{re.escape(message)}$"):
            load_run_dataset({"dataset": "synth_beats" if key.startswith("beats") else "blobs", key: value}, tmp_path)

    def test_dataset_values_at_their_least_are_accepted(self):
        check_run_config({"blobs_n": 2, "blobs_dim": 1, "beats_n": 4, "beats_subjects": 1, "beats_noise": 0.0})

    def test_float_dataset_values_take_an_int(self, tmp_path):
        check_run_config({"blobs_separation": 2.5, "beats_noise": 0, "beats_ambiguity": 0.1})
        as_int = load_run_dataset({"blobs_n": 8, "blobs_dim": 2, "blobs_separation": 2}, tmp_path)
        as_float = load_run_dataset({"blobs_n": 8, "blobs_dim": 2, "blobs_separation": 2.0}, tmp_path)
        assert np.array_equal(as_int.samples, as_float.samples)

    def test_readme_lists_every_run_key(self):
        # README promises that a key it does not list is refused.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        keys = {line.split("=")[0].strip() for line in ini.splitlines() if "=" in line.split("#")[0]}
        table = readme[readme.index("| dataset ") :].split("\n\n")[0]
        for row in table.splitlines()[2:]:
            keys |= set(re.findall(r"`([a-z_]+)`", row.split("|")[2]))
        assert keys == RUN_KEYS

    def test_every_default_passes_its_own_check(self):
        for key, row in RUN_CONFIG.items():
            if isinstance(row, Value) and row.default is not None:
                check_run_config({key: row.default})
        assert expand_grid({name: list(axis.default) for name, axis in AXES.items()}) == expand_grid({})
        # batch_size is derived from the samples, and npz_file names the one file no default could
        assert {key for key, row in RUN_CONFIG.items() if row.default is None} == {"batch_size", "npz_file"}

    def test_resolve_fills_in_the_chosen_dataset_and_protocol_defaults(self):
        cfg = resolve_run_config({"dataset": "synth_beats", "beats_n": 40, "seed": 3})
        assert {key: cfg[key] for key in ("folds", "epochs", "seed", "aggregate", "beats_n")} == {
            "folds": 5, "epochs": 50, "seed": 3, "aggregate": "mean", "beats_n": 40}
        assert cfg["beats_subjects"] == 20 and cfg["beats_noise"] == 0.35 and cfg["beats_ambiguity"] == 0.065
        assert "batch_size" not in cfg and not cfg.keys() & DATASET_KEYS - set(DATASETS["synth_beats"].reads)
        assert resolve_run_config(cfg) == cfg
        assert resolve_run_config({})["dataset"] == "blobs"

    def test_a_key_of_another_dataset_is_refused(self, tmp_path):
        for name, source in DATASETS.items():
            own = {"npz_file": "d.npz"} if name == "npz" else {}
            for key in sorted(DATASET_KEYS - set(source.reads)):
                value = RUN_CONFIG[key].default or "d.npz"
                with pytest.raises(RunConfigError, match=f"^dataset {name} does not read {key}$"):
                    load_run_dataset({"dataset": name, **own, key: value}, tmp_path)
        with pytest.raises(RunConfigError, match="^dataset blobs does not read beats_n, beats_noise$"):
            resolve_run_config({"beats_noise": 0.1, "beats_n": 100})

    def test_default_batch_size(self):
        assert default_batch_size(synth_blobs(8, 5, 1.0, 0)) == 256
        from hqnnbench.data import Dataset

        ds = Dataset(np.zeros((4, 1, 8, 8)), np.array([0, 1, 0, 1]))
        assert default_batch_size(ds) == 64


class TestRunExperiment:
    def test_classical_separable_blobs(self):
        ds = synth_blobs(128, 8, 10.0, seed=0)
        folds = make_folds(ds, 2, seed=0)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        res = run_experiment(cfg, ds, folds, epochs=10, batch_size=32)
        assert res.aggregate is not None
        assert res.aggregate["roc_auc"] > 0.99
        assert len(res.per_fold) == 2
        assert all(e["aborted"] is None for e in res.per_fold)
        assert all(len(e["epochs"]) == 10 for e in res.per_fold)
        # fold bests dominate every epoch value
        for e in res.per_fold:
            for m in ("roc_auc", "avg_precision", "balanced_acc"):
                assert e["best"][m] == max(ep[m] for ep in e["epochs"])

    def test_hybrid_runs_and_improves(self):
        ds = synth_blobs(64, 16, 8.0, seed=1)
        folds = make_folds(ds, 2, seed=1)
        cfg = ModelConfig(
            family="hybrid",
            preproc="conv0",
            latent_dim=16,
            qnn=QnnArch("ang_ry", True, "global"),
        )
        res = run_experiment(cfg, ds, folds, epochs=15, batch_size=8)
        assert res.aggregate is not None
        assert res.aggregate["roc_auc"] > 0.6  # clearly beyond chance on a tiny budget
        assert all(t >= 0.0 for t in res.wall_times)

    def test_argument_validation(self):
        ds = synth_blobs(16, 4, 1.0, seed=2)
        folds = make_folds(ds, 2, seed=2)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        with pytest.raises(ValueError):
            run_experiment(cfg, ds, folds, epochs=0, batch_size=8)
        with pytest.raises(ValueError):
            run_experiment(cfg, ds, folds, epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            run_experiment(cfg, ds, folds, epochs=1, batch_size=8, aggregate="max")

    def test_median_aggregate(self):
        ds = synth_blobs(48, 6, 4.0, seed=4)
        folds = make_folds(ds, 3, seed=4)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        res = run_experiment(cfg, ds, folds, epochs=2, batch_size=16, aggregate="median")
        fold_bests = sorted(e["best"]["roc_auc"] for e in res.per_fold)
        assert res.aggregate["roc_auc"] == fold_bests[1]

    def test_aborted_fold_keeps_diagnostic_and_rest_aggregate(self, monkeypatch):
        ds = synth_blobs(32, 4, 6.0, seed=5)
        folds = make_folds(ds, 2, seed=5)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        real = harness._train_fold
        # A numerical failure, and an error of any other kind, abort only their fold.
        for error in (EncodingError("zero-norm latent vector"), RuntimeError("out of workspace")):
            calls = {"n": 0}

            def flaky(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise error
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, "_train_fold", flaky)
            res = run_experiment(cfg, ds, folds, epochs=2, batch_size=16)
            assert res.per_fold[0]["aborted"] == f"{type(error).__name__}: {error}"
            assert res.per_fold[0]["best"] is None
            assert res.per_fold[1]["aborted"] is None
            assert res.aggregate == res.per_fold[1]["best"]

    def test_non_finite_validation_logits_abort_the_fold(self, monkeypatch):
        ds = synth_blobs(32, 4, 6.0, seed=5)
        folds = make_folds(ds, 2, seed=5)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        real = harness._predict
        calls = {"n": 0}

        def nan_once(*args, **kwargs):
            calls["n"] += 1
            out = real(*args, **kwargs)
            return np.full_like(out, np.nan) if calls["n"] == 1 else out

        monkeypatch.setattr(harness, "_predict", nan_once)
        res = run_experiment(cfg, ds, folds, epochs=2, batch_size=16)
        assert res.per_fold[0]["aborted"].startswith("FloatingPointError")
        assert res.per_fold[0]["best"] is None
        assert res.per_fold[1]["aborted"] is None
        assert res.aggregate == res.per_fold[1]["best"]

    def test_all_folds_aborted_gives_null_aggregate(self, monkeypatch):
        ds = synth_blobs(32, 4, 6.0, seed=6)
        folds = make_folds(ds, 2, seed=6)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        monkeypatch.setattr(
            harness, "_train_fold", lambda *a, **k: (_ for _ in ()).throw(FloatingPointError("nan"))
        )
        res = run_experiment(cfg, ds, folds, epochs=2, batch_size=16)
        assert res.aggregate is None
        assert all(e["aborted"].startswith("FloatingPointError") for e in res.per_fold)

    def test_json_dict_shape(self):
        ds = synth_blobs(32, 4, 6.0, seed=7)
        folds = make_folds(ds, 2, seed=7)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="none")
        res = run_experiment(cfg, ds, folds, epochs=1, batch_size=16)
        d = res.to_json_dict()
        assert set(d) == {"config", "config_hash", "label", "group", "per_fold", "aggregate"}
        assert "wall_times" not in json.dumps(d)
        json.dumps(d)  # serializable
        assert d["config_hash"] == cfg.config_hash()


class TestHybridModelPlumbing:
    def test_parameters_cover_all_three_stages(self):
        rng = np.random.default_rng(0)
        cfg = ModelConfig(
            family="hybrid", preproc="conv0", latent_dim=16, qnn=QnnArch("ang_ry", True, "local")
        )
        model = build_model(cfg, (12,), rng)
        assert isinstance(model, Model) and model.circuit is not None
        n_pre = 12 * 16 + 16
        n_theta = 48
        n_head = 4 * 1 + 1  # local observable feeds a 4-wide linear map
        assert sum(p.value.size for p in model.parameters()) == n_pre + n_theta + n_head
        logits = model.forward(rng.normal(size=(5, 12)))
        assert logits.shape == (5,)

    def test_classical_model(self):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(family="classical", preproc="conv0", latent_dim=16, head="fcrelu")
        model = build_model(cfg, (12,), rng)
        logits = model.forward(rng.normal(size=(3, 12)))
        assert logits.shape == (3,)


class TestModelDrawOrder:
    """``results.jsonl`` stays byte-identical only while the model draws its
    parameters in this order: preprocessor, circuit θ, head."""

    # One config of each circuit family and one of each classical head.
    CONFIGS = expand_grid({"preproc": "conv1", "latent": 16, "tanh": False, "entangle": True, "observable": "local"})

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.label for c in CONFIGS])
    def test_parameters_are_drawn_preprocessor_theta_head(self, config):
        shape = (12,)
        got = build_model(config, shape, np.random.default_rng(5)).parameters()
        rng = np.random.default_rng(5)
        pre = build_preprocessor(config.preproc, shape, config.latent_dim, config.tanh_pi, rng)
        want = [p.value for p in stack_params(pre)]
        width = config.latent_dim
        if config.qnn is not None:
            circuit = config.qnn.build(config.latent_dim)
            want.append(init_params(circuit.n_params, rng))
            width = circuit.out_dim
        want += [p.value for p in stack_params(build_head(config.head or "none", width, rng))]
        assert [(p.value.shape, p.value.tobytes()) for p in got] == [(w.shape, w.tobytes()) for w in want]

    def test_every_family_and_head_is_covered(self):
        assert sorted({c.qnn.kind for c in self.CONFIGS if c.qnn}) == sorted(QNN_KINDS)
        assert sorted({c.head for c in self.CONFIGS if c.head}) == sorted(HEADS)


def fake_row(config: ModelConfig, score: float | None) -> dict:
    agg = (
        None
        if score is None
        else {"roc_auc": score, "avg_precision": score, "balanced_acc": score}
    )
    return {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "label": config.label,
        "group": config.group,
        "per_fold": [],
        "aggregate": agg,
    }


class TestAggregateTables:
    def grid_rows(self, scores):
        amp = expand_grid(
            {
                "families": "hybrid",
                "qnn": "amp_gen",
                "preproc": ["conv0", "conv1"],
                "latent": 16,
                "entangle": True,
                "observable": "global",
            }
        )
        cls = expand_grid(
            {"families": "classical", "preproc": ["conv0", "conv1"], "latent": 16, "heads": "none"}
        )
        configs = sorted(amp + cls, key=lambda c: c.label)
        assert len(configs) == 4
        return [fake_row(c, s) for c, s in zip(configs, scores)]

    def test_table_medians_and_groups(self):
        # labels sort classical first: cls-conv0, cls-conv1, amp-conv0, amp-conv1
        rows = self.grid_rows([0.80, 0.85, 0.95, 0.90])
        table1, comparisons, boxplot = aggregate_tables(rows)
        t = {(r["group"], r["metric"]): r for r in table1}
        assert t[("Amp-Gen", "roc_auc")]["median"] == 0.925
        assert t[("classical", "roc_auc")]["median"] == 0.825
        assert t[("Amp-Gen", "roc_auc")]["min"] == 0.90
        assert t[("Amp-Gen", "roc_auc")]["max"] == 0.95
        assert len(boxplot) == 4
        assert {b["group"] for b in boxplot} == {"Amp-Gen", "classical"}

    def test_comparisons_axes_and_bonferroni(self):
        rows = self.grid_rows([0.80, 0.85, 0.95, 0.90])
        _, comparisons, _ = aggregate_tables(rows)
        axes = [(c["axis"], c["group_a"], c["group_b"]) for c in comparisons]
        assert ("preproc", "conv1", "conv0") in axes
        assert ("group", "classical", "Amp-Gen") in axes
        assert len(comparisons) == 2
        for c in comparisons:
            assert c["corrected_p"] == min(1.0, c["raw_p"] * len(comparisons))
            assert c["significant_at_0.05"] == (c["corrected_p"] < 0.05)
        group_row = [c for c in comparisons if c["axis"] == "group"][0]
        # fully separated 2-vs-2 groups: exact p = 2 / C(4,2)
        assert abs(group_row["raw_p"] - 1.0 / 3.0) < 1e-12
        assert group_row["n_a"] == 2 and group_row["n_b"] == 2

    def test_identical_paired_scores_give_p_one(self, tmp_path):
        rows = self.grid_rows([0.9, 0.9, 0.7, 0.7])
        _, comparisons, _ = aggregate_tables(rows)
        pre = [c for c in comparisons if c["axis"] == "preproc"][0]
        assert pre["raw_p"] == 1.0
        assert pre["test"] == "WilcoxonExact"
        # Every preproc pair ties, so no difference is nonzero: the paired row is
        # an exact test over no sign pattern but the empty one.
        write_tables(tmp_path, *aggregate_tables(rows))
        assert (tmp_path / "comparisons.csv").read_bytes() == (
            b"axis,group_a,group_b,test,n_a,n_b,statistic,raw_p,corrected_p,significant_at_0.05\r\n"
            b"preproc,conv1,conv0,WilcoxonExact,2,2,0.0,1.0,1.0,False\r\n"
            b"group,classical,Amp-Gen,MannWhitneyExact,2,2,4.0,0.3333333333333333,0.6666666666666666,False\r\n"
        )
        assert (tmp_path / "table1.csv").read_bytes() == b"group,metric,median,min,max\r\n" + b"".join(
            f"{g},{m},{s},{s},{s}\r\n".encode()
            for g, s in (("classical", 0.9), ("Amp-Gen", 0.7))
            for m in ("roc_auc", "avg_precision", "balanced_acc")
        )

    def test_group_with_zero_completions_rejected(self):
        rows = self.grid_rows([0.9, 0.9, 0.7, 0.7])
        qcnn = expand_grid({"families": "hybrid", "qnn": "qcnn", "preproc": "conv0", "latent": 16})
        rows.append(fake_row(qcnn[0], None))
        with pytest.raises(ValueError, match="zero completed"):
            aggregate_tables(rows)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            aggregate_tables([])

    def test_default_grid_comparison_set_is_pinned(self):
        rng = np.random.default_rng(0)
        rows = [fake_row(c, float(rng.random())) for c in expand_grid({})]
        _, comparisons, _ = aggregate_tables(rows)
        got = [(c["axis"], c["group_a"], c["group_b"], c["test"], c["n_a"], c["n_b"]) for c in comparisons]
        paired = [
            ("preproc", "conv3", "conv1", "WilcoxonExact", 50, 50),
            ("preproc", "conv3", "conv0", "WilcoxonExact", 50, 50),
            ("preproc", "conv1", "conv0", "WilcoxonExact", 50, 50),
            ("latent_dim", "latent16", "latent256", "WilcoxonExact", 75, 75),
            ("activation", "tanh_pi", "identity", "WilcoxonExact", 48, 48),
            ("entanglement", "entangled", "unentangled", "WilcoxonExact", 60, 60),
            ("observable[Ang-RY]", "local", "global", "WilcoxonExact", 24, 24),
            ("observable[Ang-Arb]", "local", "global", "WilcoxonExact", 24, 24),
            ("observable[Amp-Gen]", "local", "global", "WilcoxonExact", 12, 12),
        ]
        sizes = {"classical": 24, "Ang-RY": 48, "Ang-Arb": 48, "Amp-Gen": 24, "QCNN": 6}
        groups = list(sizes)
        unpaired = [
            ("group", a, b, "MannWhitneyExact", sizes[a], sizes[b])
            for i, a in enumerate(groups)
            for b in groups[i + 1 :]
        ]
        assert got == paired + unpaired
        assert len(got) == 19


TABLES = ("table1.csv", "comparisons.csv", "boxplot_data.csv")
TINY_RUN = {
    "dataset": "blobs",
    "blobs_n": 32,
    "blobs_dim": 8,
    "blobs_separation": 10.0,
    "families": ["hybrid", "classical"],
    "qnn": "ang_ry",
    "preproc": "conv0",
    "latent": 16,
    "tanh": False,
    "entangle": True,
    "observable": "global",
    "heads": "none",
    "folds": 2,
    "epochs": 2,
    "batch_size": 16,
}


class TestRunGrid:
    def test_outputs_and_resume(self, tmp_path):
        out = tmp_path / "out"
        rows = run_grid(dict(TINY_RUN), tmp_path, out)
        assert len(rows) == 2
        for name in ("results.jsonl", "timings.jsonl", "run_meta.json", "table1.csv",
                     "comparisons.csv", "boxplot_data.csv"):
            assert (out / name).exists(), name
        first_bytes = (out / "results.jsonl").read_bytes()
        assert len(first_bytes.splitlines()) == 2

        rows2 = run_grid(dict(TINY_RUN), tmp_path, out)  # everything cached
        assert len(rows2) == 2
        assert (out / "results.jsonl").read_bytes() == first_bytes
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["n_skipped"] == 2

    def test_resume_drops_truncated_last_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        full = (out / "results.jsonl").read_bytes()
        first = full[: full.index(b"\n") + 1]
        (out / "results.jsonl").write_bytes(full[:-40])  # crash mid-way through row 2
        rows = run_grid(dict(TINY_RUN), tmp_path, out)
        assert "truncated" in capsys.readouterr().err
        assert len(rows) == 2
        assert json.loads(first) in rows
        assert (out / "results.jsonl").read_bytes() == full
        assert json.loads((out / "run_meta.json").read_text())["n_skipped"] == 1

        # A complete row that lost its newline is dropped too, and trained again
        # into the same bytes.
        (out / "results.jsonl").write_bytes(full[:-1])
        assert len(run_grid(dict(TINY_RUN), tmp_path, out)) == 2
        assert "truncated" in capsys.readouterr().err
        assert (out / "results.jsonl").read_bytes() == full
        assert json.loads((out / "run_meta.json").read_text())["n_skipped"] == 1

    def test_resume_rejects_malformed_inner_line(self, tmp_path):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        lines = (out / "results.jsonl").read_bytes().splitlines(keepends=True)
        # a cut inner row, with a truncated last row that alone would be dropped
        damaged = lines[0][:-40] + b"\n" + lines[1][:-40]
        (out / "results.jsonl").write_bytes(damaged)
        meta = (out / "run_meta.json").read_bytes()
        with pytest.raises(ResultsFileError, match=r"results\.jsonl line 1 cannot be read"):
            run_grid(dict(TINY_RUN), tmp_path, out)
        assert (out / "results.jsonl").read_bytes() == damaged
        assert (out / "run_meta.json").read_bytes() == meta

    def test_resume_refuses_a_different_protocol(self, tmp_path):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        results = (out / "results.jsonl").read_bytes()
        meta = (out / "run_meta.json").read_bytes()
        changes = (("epochs", 3), ("folds", 3), ("seed", 1), ("batch_size", 8),
                   ("aggregate", "median"), ("dataset", "synth_beats"))
        blobs_keys = ("blobs_n", "blobs_dim", "blobs_separation")
        for key, value in changes:
            run = dict(TINY_RUN, **{key: value})
            if key == "dataset":  # synth_beats does not read the blobs keys
                run = {k: v for k, v in run.items() if k not in blobs_keys} | {"beats_n": 40}
            with pytest.raises(ProtocolMismatchError, match=key):
                run_grid(run, tmp_path, out)
            assert (out / "results.jsonl").read_bytes() == results
            assert (out / "run_meta.json").read_bytes() == meta

    def test_resume_refuses_another_package_version(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        results = (out / "results.jsonl").read_bytes()
        meta = (out / "run_meta.json").read_bytes()
        version = harness.__version__
        monkeypatch.setattr(harness, "__version__", version + ".post1")
        with pytest.raises(ProtocolMismatchError, match=re.escape(f"version {version!r} -> '{version}.post1'")):
            run_grid(dict(TINY_RUN), tmp_path, out)
        assert (out / "results.jsonl").read_bytes() == results
        assert (out / "run_meta.json").read_bytes() == meta

    @pytest.mark.parametrize("lost", ["version", "epochs", "every key"])
    def test_resume_refuses_a_run_meta_without_a_protocol_key(self, tmp_path, lost):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        stored = json.loads((out / "run_meta.json").read_text())
        (out / "run_meta.json").write_text(json.dumps({k: v for k, v in stored.items() if lost not in (k, "every key")}))
        results, meta = ((out / name).read_bytes() for name in ("results.jsonl", "run_meta.json"))
        # the stored rows hold two epochs per fold; a resume must not mix them with three
        with pytest.raises(ProtocolMismatchError, match="epochs missing" if lost == "every key" else f"{lost} missing"):
            run_grid(dict(TINY_RUN, epochs=3), tmp_path, out)
        assert (out / "results.jsonl").read_bytes() == results
        assert (out / "run_meta.json").read_bytes() == meta

    def test_resume_refuses_changed_dataset_parameters(self, tmp_path):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        results = (out / "results.jsonl").read_bytes()
        for key, value in (("blobs_n", 64), ("blobs_separation", 5.0)):
            with pytest.raises(ProtocolMismatchError, match="data_digest"):
                run_grid(dict(TINY_RUN, **{key: value}), tmp_path, out)
            assert (out / "results.jsonl").read_bytes() == results
        # the same data resumes and skips the finished configs
        run_grid(dict(TINY_RUN), tmp_path, out)
        assert json.loads((out / "run_meta.json").read_text())["n_skipped"] == 2

    def test_bit_identical_reruns(self, tmp_path):
        a = run_grid(dict(TINY_RUN), tmp_path, tmp_path / "a")
        b = run_grid(dict(TINY_RUN), tmp_path, tmp_path / "b")
        assert (tmp_path / "a/results.jsonl").read_bytes() == (
            tmp_path / "b/results.jsonl"
        ).read_bytes()
        assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        run_grid(dict(TINY_RUN), tmp_path, tmp_path / "serial", jobs=1)
        run_grid(dict(TINY_RUN), tmp_path, tmp_path / "par", jobs=2)
        assert (tmp_path / "serial/results.jsonl").read_bytes() == (
            tmp_path / "par/results.jsonl"
        ).read_bytes()

    def test_unknown_key_is_refused(self, tmp_path):
        for key in ("epoch", "fold"):
            with pytest.raises(ValueError, match=f"'{key}'"):
                run_grid(dict(TINY_RUN, **{key: 1}), tmp_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("aggregate", "max"), ("epochs", 0), ("batch_size", 0), ("folds", 1), ("epochs", 2.5)],
    )
    def test_bad_protocol_value_is_refused_up_front(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=key):
            run_grid(dict(TINY_RUN, **{key: value}), tmp_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_channel_first_images_train_conv1(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = np.arange(60) % 2
        images = rng.integers(0, 128, size=(60, 1, 12, 12), dtype=np.uint8)
        images[labels == 1, :, 4:8, 4:8] += 127
        np.savez(tmp_path / "d.npz", images=images, labels=labels)
        run = {"dataset": "npz", "npz_file": "d.npz", "families": "classical", "preproc": "conv1",
               "latent": 16, "heads": "none", "folds": 2, "epochs": 1}
        rows = run_grid(run, tmp_path, tmp_path / "out")
        assert [r["config"]["preproc"] for r in rows] == ["conv1"]
        assert rows[0]["aggregate"] is not None

    def test_run_meta_records_the_table_protocol_defaults(self, tmp_path):
        run = {"families": "classical", "preproc": "conv0", "latent": 16, "heads": "none"}
        rows = run_grid(run, tmp_path, tmp_path / "out")
        meta = json.loads((tmp_path / "out/run_meta.json").read_text())
        for key in ("folds", "epochs", "seed", "aggregate", "dataset"):
            assert meta[key] == RUN_CONFIG[key].default, key
        assert meta["batch_size"] == 256
        assert len(rows[0]["per_fold"]) == 5 and len(rows[0]["per_fold"][0]["epochs"]) == 50

    def test_protocol_keys_are_the_one_value_keys_that_not_only_a_dataset_reads(self):
        assert PROTOCOL_KEYS == ("folds", "epochs", "batch_size", "seed", "aggregate", "dataset")

    def test_a_sequential_run_loads_no_process_pool_modules(self, tmp_path):
        # a fresh interpreter: this one may hold the modules from a --jobs test
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from hqnnbench.harness import run_grid; "
            f"run_grid({TINY_RUN!r}, sys.argv[2], sys.argv[2] + '/out'); "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
        )
        src = str(Path(harness.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("user_threads", [None, "3"], ids=["unset", "user_set"])
    def test_pool_workers_start_with_one_blas_thread_unless_the_user_set_it(self, tmp_path, monkeypatch, user_threads):
        if user_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_threads)
        seen = []

        class Probe(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables):
                seen.append(self.submit(os.getenv, "OPENBLAS_NUM_THREADS").result())
                return super().map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Probe)
        run_grid(dict(TINY_RUN), tmp_path, tmp_path / "out", jobs=2)
        assert seen == [user_threads or "1"]
        assert os.environ.get("OPENBLAS_NUM_THREADS") == user_threads  # this process's environment is as it was

    def test_progress_callback(self, tmp_path):
        seen = []
        run_grid(dict(TINY_RUN), tmp_path, tmp_path / "out", progress=seen.append)
        assert len(seen) == 2
        assert all("config_hash" in row for row in seen)


class TestCli:
    BASE_CFG = (
        "dataset = blobs\n"
        "blobs_n = 32\n"
        "blobs_dim = 8\n"
        "blobs_separation = 10.0\n"
        "families = classical\n"
        "preproc = conv0\n"
        "latent = 16\n"
        "heads = none\n"
        "folds = 2\n"
        "batch_size = 16\n"
    )

    def write_cfg(self, tmp_path, lines=""):
        """Write the base run config, where each line of ``lines`` replaces the base's line for its key.

        A key may be set only once in a run-config file, so ``lines`` cannot
        simply be appended to the base. A line that chooses a dataset other
        than blobs also drops the base's blobs keys, which that dataset would
        refuse.
        """
        own = lines.splitlines()
        keys = {line.split("=")[0].strip() for line in own}
        if any(line.replace(" ", "").startswith("dataset=") and "blobs" not in line for line in own):
            keys |= {"blobs_n", "blobs_dim", "blobs_separation"}  # another dataset does not read them
        base = [line for line in self.BASE_CFG.splitlines() if line.split("=")[0].strip() not in keys]
        p = tmp_path / "run.cfg"
        p.write_text("".join(line + "\n" for line in base + own))
        return p

    def test_run_and_report(self, tmp_path, capsys):
        # Two Ang-RY hybrids (an activation pair) and two classical heads: a paired
        # and a group comparison.
        cfg = self.write_cfg(tmp_path, (
            "families = hybrid, classical\nqnn = ang_ry\ntanh = true, false\nentangle = true\n"
            "observable = global\nheads = none, fcrelu\n"
        ))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out),
                   "--epochs", "2"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "roc_auc=" in captured
        assert (out / "results.jsonl").exists()
        written = {name: (out / name).read_bytes() for name in TABLES}
        assert [line.split(b",")[0] for line in written["comparisons.csv"].splitlines()[1:]] == [b"activation", b"group"]

        # report rebuilds the tables from the rows it reads back: the same bytes
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        assert "comparisons.csv" in capsys.readouterr().out
        assert {name: (out / name).read_bytes() for name in TABLES} == written

    def test_report_drops_a_truncated_last_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        full = (out / "results.jsonl").read_bytes()
        (out / "results.jsonl").write_bytes(full[:-40])  # crash mid-way through row 2
        assert main(["report", "--out", str(out)]) == 0
        assert "truncated" in capsys.readouterr().err
        # report only reads: the tables hold the first row, and the file keeps its cut line
        assert (out / "results.jsonl").read_bytes() == full[:-40]
        assert len((out / "boxplot_data.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize(
        "damage",
        [
            "cut", "not_an_object", "no_config_hash", "text_metric", "non_finite_metric", "infinite_metric",
            "no_preproc", "stale_hash", "stale_label", "repeated_config",
        ],
    )
    def test_malformed_inner_line_is_refused_untouched(self, tmp_path, capsys, command, damage):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]
        assert main(argv) == 0
        row = (out / "results.jsonl").read_bytes()
        text_metric, non_finite_metric, infinite_metric, no_preproc, stale_hash, stale_label = (
            json.loads(row) for _ in range(6)
        )
        text_metric["aggregate"]["roc_auc"] = "high"
        non_finite_metric["aggregate"]["roc_auc"] = float("nan")  # json writes NaN, which json.loads reads
        infinite_metric["aggregate"]["avg_precision"] = float("inf")  # and Infinity
        del no_preproc["config"]["preproc"]  # a config that no longer rebuilds
        stale_hash["config"]["seed"] += 1  # a config that rebuilds, but not into its config_hash
        stale_label["label"] = stale_label["label"].replace("conv0", "conv1")  # another preprocessor's label
        bad = {
            "cut": row[:-40] + b"\n",
            "not_an_object": b"[1, 2]\n",
            "no_config_hash": b'{"label": "x"}\n',
            "repeated_config": row,  # as two runs into one --out at once write
            **{name: json.dumps(damaged, sort_keys=True).encode() + b"\n" for name, damaged in
               (("text_metric", text_metric), ("non_finite_metric", non_finite_metric),
                ("infinite_metric", infinite_metric), ("no_preproc", no_preproc), ("stale_hash", stale_hash),
                ("stale_label", stale_label))},
        }[damage]
        (out / "results.jsonl").write_bytes(row + bad + row)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv if command == "run" else ["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'results.jsonl'} line 2 cannot be read") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_a_results_file_that_cannot_be_read_is_refused_untouched(self, tmp_path, capsys, command):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]
        assert main(argv) == 0
        results = out / "results.jsonl"
        results.unlink()
        results.mkdir()  # an unreadable file fails the same way, except for a superuser, who reads it anyway
        meta = (out / "run_meta.json").read_bytes()
        capsys.readouterr()
        assert main(argv if command == "run" else ["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {results} cannot be read ({os.strerror(errno.EISDIR)}); "
            "repair or remove it, or use a new --out directory\n"
        )
        assert results.is_dir() and not any(results.iterdir())
        assert (out / "run_meta.json").read_bytes() == meta

    @pytest.mark.parametrize("under_a_file", [False, True])
    def test_out_that_cannot_be_a_directory_is_refused(self, tmp_path, capsys, under_a_file):
        cfg = self.write_cfg(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "out" if under_a_file else taken
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} cannot be made a directory") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "not a directory\n"

    def test_report_without_results_fails(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "no results" in capsys.readouterr().err

    def test_report_on_a_group_without_completed_runs(self, tmp_path, capsys):
        grid = {"qnn": "qcnn", "preproc": "conv0", "latent": 16, "heads": ["none", "mlp"]}
        rows = [fake_row(c, None if c.family == "hybrid" else 0.9) for c in expand_grid(grid)]
        results = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        (tmp_path / "results.jsonl").write_text(results)
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: group 'QCNN' has zero completed runs\n"
        assert (tmp_path / "results.jsonl").read_text() == results
        assert not (tmp_path / "comparisons.csv").exists()

    def test_run_whose_every_fold_aborts_keeps_its_results(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            harness, "_train_fold", lambda *a, **k: (_ for _ in ()).throw(FloatingPointError("nan"))
        )
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "aborted" in captured.out
        assert captured.err == "error: group 'classical' has zero completed runs\n"
        row = json.loads((out / "results.jsonl").read_text())
        assert row["aggregate"] is None
        assert json.loads((out / "run_meta.json").read_text())["n_configs"] == 1
        assert not (out / "comparisons.csv").exists()

    def test_refused_resume_removes_the_earlier_tables(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        base = "dataset = blobs\nblobs_n = 64\npreproc = conv0\nlatent = 16\nheads = none\n"
        base += "tanh = false\nentangle = true\nobservable = global\nfolds = 2\nepochs = 1\n"
        cfg.write_text(base + "qnn = ang_ry\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]
        assert main(argv) == 0
        assert all((out / name).exists() for name in TABLES)

        train_fold = harness._train_fold

        def abort_qcnn(config, *args):
            if config.qnn is not None and config.qnn.kind == "qcnn":
                raise FloatingPointError("nan")
            return train_fold(config, *args)

        monkeypatch.setattr(harness, "_train_fold", abort_qcnn)
        cfg.write_text(base + "qnn = ang_ry, qcnn\n")
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: group 'QCNN' has zero completed runs\n"
        assert len((out / "results.jsonl").read_text().splitlines()) == 3
        assert not any((out / name).exists() for name in TABLES)

    def test_refused_report_removes_the_earlier_tables(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_grid(dict(TINY_RUN), tmp_path, out)
        assert all((out / name).exists() for name in TABLES)
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        for row in rows:
            if row["group"] == "Ang-RY":
                row["aggregate"] = None
        results = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        (out / "results.jsonl").write_text(results)
        assert main(["report", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: group 'Ang-RY' has zero completed runs\n"
        assert (out / "results.jsonl").read_text() == results
        assert not any((out / name).exists() for name in TABLES)

    @pytest.mark.parametrize("damage", ["truncated", "list", "number", "missing"])
    def test_run_refuses_an_unreadable_run_meta(self, tmp_path, capsys, damage):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]
        assert main(argv) == 0
        meta = out / "run_meta.json"
        # A kill mid-write, a file that parses to something other than an object,
        # or no file: then nothing records the protocol of the stored rows.
        damaged = {"truncated": meta.read_bytes()[:40], "list": b"[]\n", "number": b"1\n", "missing": None}[damage]
        meta.unlink()
        if damaged is not None:
            meta.write_bytes(damaged)
        argv[-1] = "2"  # a different protocol, which a list or a missing file would otherwise let through
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta} cannot be read") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

    def test_a_missing_run_meta_is_named_once(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]
        assert main(argv) == 0
        (out / "run_meta.json").unlink()
        capsys.readouterr()
        assert main(argv) == 2
        reason = os.strerror(errno.ENOENT)
        assert capsys.readouterr().err == (
            f"error: {out / 'run_meta.json'} cannot be read ({reason}); use a new --out directory\n"
        )

    @pytest.mark.parametrize("source", ["npz_image", "beats_cell", "blobs_separation"])
    def test_run_refuses_non_finite_samples_before_creating_out(self, tmp_path, capsys, source):
        if source == "npz_image":
            images = np.zeros((16, 8))
            images[3, 4] = np.nan
            np.savez(tmp_path / "d.npz", images=images, labels=np.arange(16) % 2)
            extra = "dataset = npz\nnpz_file = d.npz\n"
        elif source == "beats_cell":
            rows = [[0.5] * 360 + [i % 2, i // 2] for i in range(8)]
            rows[5][17] = "nan"
            (tmp_path / "beats.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
            extra = "dataset = beats_csv\n"
        else:
            extra = "blobs_separation = inf\n"
        cfg = self.write_cfg(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: samples must be finite, not NaN or infinite\n"
        assert not out.exists()

    def test_run_refuses_complex_images_before_creating_out(self, tmp_path, capsys):
        # a cast to float64 would train on the real parts alone
        rng = np.random.default_rng(3)
        images = rng.normal(size=(40, 1, 8, 8)) + 1j * rng.normal(size=(40, 1, 8, 8))
        np.savez(tmp_path / "d.npz", images=images, labels=np.arange(40) % 2)
        cfg = self.write_cfg(tmp_path, "dataset = npz\nnpz_file = d.npz\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: images: images need an integer or float dtype, got complex128\n"
        assert not out.exists()

    def test_seed_override_changes_hashes(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out",
              str(tmp_path / "s0"), "--epochs", "1"])
        main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out",
              str(tmp_path / "s1"), "--epochs", "1", "--seed", "1"])
        r0 = json.loads((tmp_path / "s0/results.jsonl").read_text())
        r1 = json.loads((tmp_path / "s1/results.jsonl").read_text())
        assert r0["config"]["seed"] == 0 and r1["config"]["seed"] == 1
        assert r0["config_hash"] != r1["config_hash"]

    def test_run_refuses_a_different_protocol(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", out, "--epochs", "1"]) == 0
        capsys.readouterr()
        rc = main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", out, "--epochs", "2"])
        assert rc != 0
        assert "different protocol" in capsys.readouterr().err

    def test_run_refuses_an_unknown_key(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "epoch = 1")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        assert "'epoch'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_a_bad_protocol_value(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "aggregate = max")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        assert "aggregate must be mean or median, got 'max'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("dataset = npz", "dataset npz requires npz_file"),
            ("dataset = nosuch", "dataset must be blobs or synth_beats or beats_csv or npz, got 'nosuch'"),
            ("seed = -1", "seed must be an integer of at least 0, got -1"),
            ("blobs_n = 7", "n must be even for balanced classes"),  # synth_blobs refuses an odd count
            ("dataset = synth_beats\nbeats_n = 12.7", "beats_n must be an integer of at least 4, got 12.7"),
            ("blobs_n = 10.9", "blobs_n must be an integer of at least 2, got 10.9"),
            ("blobs_dim = true", "blobs_dim must be an integer of at least 1, got True"),
            ("dataset = synth_beats\nbeats_noise = true", "beats_noise must be a number of at least 0, got True"),
            ("beats_n = 100", "dataset blobs does not read beats_n"),
            ("dataset = npz\nnpz_file = d.npz\nbeats_file = b.csv", "dataset npz does not read beats_file"),
        ],
        ids=["npz_without_file", "unknown_dataset", "negative_seed", "odd_blobs_n", "fractional_beats_n",
             "fractional_blobs_n", "bool_blobs_dim", "bool_beats_noise", "key_of_another_dataset",
             "file_of_another_dataset"],
    )
    def test_run_refuses_a_bad_dataset_key_before_creating_out(self, tmp_path, capsys, line, message):
        cfg = self.write_cfg(tmp_path, line)
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("blobs_n = 4\nfolds = 3", "error: class 0 has fewer than k=3 samples\n"),  # make_folds
            ("folds 2", "expected 'key = value', got 'folds 2'\n"),  # parse_run_config
            ("latent = 7", "error: latent takes 16 or 256, got 7\n"),  # expand_grid
            ("qnn = ang_ry\nqnn = qcnn", ":12: qnn is set twice\n"),  # parse_run_config
        ],
        ids=["too_few_per_class", "malformed_line", "bad_grid_axis", "repeated_key"],
    )
    def test_run_reports_a_config_that_cannot_split_or_expand(self, tmp_path, capsys, lines, message):
        cfg = self.write_cfg(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(message) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("families = hybrid, clasical\nqnn = ang_ry\ntanh = false", "families takes hybrid or classical, got 'clasical'"),
            ("families = hybrid\nqnn = ang_ry\ntanh = flase", "tanh takes true or false, got 'flase'"),
            ("families = hybrid\nqnn = amp_gen\nentangle = 2", "entangle takes true or false, got 2"),
            ("latent = 16.5", "latent takes 16 or 256, got 16.5"),
            ("heads = none, none", "heads lists 'none' twice"),
            ("families = hybrid\nqnn = ang_ry, ang_ry\ntanh = false", "qnn lists 'ang_ry' twice"),
            ("families = hybrid\nqnn = ang_arb\ntanh = true, TRUE", "tanh lists True twice"),
            ("qnn = bogus", "qnn takes ang_ry or ang_arb or amp_gen or qcnn, got 'bogus'"),
            ("observable = sideways", "observable takes local or global or single, got 'sideways'"),
            ("families = hybrid\nqnn = qcnn\nheads = nosuch", "heads takes none or fcnone or fcrelu or mlp, got 'nosuch'"),
        ],
        ids=["misspelt_family", "misspelt_switch", "integer_switch", "fractional_latent",
             "repeated_head", "repeated_qnn", "repeated_switch", "qnn_of_classical_grid",
             "observable_of_classical_grid", "heads_of_hybrid_grid"],
    )
    def test_run_refuses_a_grid_value_it_would_cast_ignore_or_repeat(self, tmp_path, capsys, lines, message):
        cfg = self.write_cfg(tmp_path, "epochs = 1\n" + lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("dataset = npz\nnpz_file = missing.npz", "No such file or directory"),
            ("dataset = beats_csv\nbeats_file = missing.csv", "No such file or directory"),
            ("blobs_dim = 4\npreproc = conv3", "preproc conv3 cannot take samples of shape (4,)"),
        ],
        ids=["missing_npz_file", "missing_beats_file", "unpoolable_samples"],
    )
    def test_run_refuses_unreadable_or_unbuildable_data_before_creating_out(self, tmp_path, capsys, lines, message):
        cfg = self.write_cfg(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_run_refuses_a_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", str(tmp_path / "nosuch.cfg"), "--data-dir", str(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read run config: ") and "nosuch.cfg" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--data-dir", str(tmp_path), "--out", str(out),
                  "--epochs", "1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_console_scripts_resolve(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            assert callable(getattr(importlib.import_module(module), attr, None)), name

    def test_version_has_one_source(self):
        # results resume only under the same hqnnbench.__version__, so the
        # distribution's version is read from it rather than repeated
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hqnnbench.__version__"}
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        with warnings.catch_warnings():
            # setuptools before 68 warns that [tool.setuptools] support is beta
            warnings.filterwarnings("ignore", message=r"Support for `\[tool\.setuptools\]`")
            expanded = pyprojecttoml.read_configuration(pyproject)
        assert expanded["project"]["version"] == importlib.import_module("hqnnbench").__version__

    def test_selftest_is_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
