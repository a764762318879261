"""File-format, fold-construction, and synthetic-generator tests."""

from __future__ import annotations

import csv
import hashlib
import io
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from hqnnbench.data import (
    DataFormatError,
    Dataset,
    FoldPlan,
    load_beats_csv,
    load_npz,
    make_folds,
    synth_beats,
    synth_blobs,
)
from hqnnbench.metrics import roc_auc

from oracles import lda_scores


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def beat_row(label, subject, fill=0.5):
    return [fill] * 360 + [label, subject]


class TestBeatsCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "beats.csv"
        rows = [beat_row(0, 7, fill=1.25), beat_row(1, 9, fill=-2.0)]
        write_csv(p, rows)
        ds = load_beats_csv(p)
        assert ds.samples.shape == (2, 360)
        assert ds.samples.dtype == np.float64
        assert np.all(ds.samples[0] == 1.25)
        assert np.all(ds.samples[1] == -2.0)
        assert ds.labels.tolist() == [0, 1]
        assert ds.subject_ids.tolist() == [7, 9]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "beats.csv"
        body = ",".join(str(v) for v in beat_row(0, 1))
        p.write_text(f"\n{body}\n\n{body}\n")
        assert load_beats_csv(p).n == 2

    def test_wrong_column_count_names_row(self, tmp_path):
        p = tmp_path / "beats.csv"
        write_csv(p, [beat_row(0, 1), beat_row(1, 2)[:-1]])
        with pytest.raises(DataFormatError, match="row 2"):
            load_beats_csv(p)

    def test_unparseable_feature_names_row_and_column(self, tmp_path):
        p = tmp_path / "beats.csv"
        row = beat_row(0, 1)
        row[4] = "oops"
        write_csv(p, [row])
        with pytest.raises(DataFormatError, match="row 1, column 5"):
            load_beats_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "beats.csv"
        bad = beat_row(1, 2)
        bad[5] = "nan"  # float() parses it, so only the finiteness check refuses it
        write_csv(p, [beat_row(0, 1), bad])
        with pytest.raises(ValueError, match="finite"):
            load_beats_csv(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "beats.csv"
        write_csv(p, [beat_row(2, 1)])
        with pytest.raises(DataFormatError, match="label"):
            load_beats_csv(p)

    def test_bad_subject_rejected(self, tmp_path):
        p = tmp_path / "beats.csv"
        write_csv(p, [beat_row(1, "abc")])
        with pytest.raises(DataFormatError, match="subject"):
            load_beats_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "beats.csv"
        p.write_text("\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_beats_csv(p)

    def test_synth_beats_round_trip_through_repr(self, tmp_path):
        ds = synth_beats(n=120, seed=4)
        p = tmp_path / "beats.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            for x, label, subject in zip(ds.samples, ds.labels, ds.subject_ids):
                writer.writerow([repr(v) for v in x.tolist()] + [label, subject])
        back = load_beats_csv(p)
        assert back.samples.tobytes() == ds.samples.tobytes()
        assert back.labels.tolist() == ds.labels.tolist()
        assert back.subject_ids.tolist() == ds.subject_ids.tolist()

    @pytest.mark.parametrize(
        "tok",
        [
            "1.25", " 1.25 ", "\t-3e-2", "\u00a02\u00a0", "+.5", "-0.0", "1E3", "1e999", "1_000", "1__0", "_1",
            "inf", "-Infinity", "nan", "NaN", "nan(123)", "\u0663.\u0665", "0x10", "1,5", "1.5.2", ".", "", " ", "--1",
        ],
    )
    def test_feature_tokens_parse_as_float_does(self, tmp_path, tok):
        p = tmp_path / "beats.csv"
        row = beat_row(0, 1)
        row[0] = tok
        with open(p, "w", newline="") as fh:
            csv.writer(fh).writerow(row)
        try:
            value = float(tok)
        except ValueError:
            with pytest.raises(DataFormatError, match="row 1, column 1: cannot parse"):
                load_beats_csv(p)
            return
        if np.isfinite(value):
            assert load_beats_csv(p).samples[0, 0].tobytes() == np.float64(value).tobytes()
        else:
            with pytest.raises(ValueError, match="finite"):
                load_beats_csv(p)


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def write_npz_raw(path, entries):
    with zipfile.ZipFile(path, "w") as zf:
        for name, payload in entries.items():
            zf.writestr(name, payload)


class TestNpz:
    def test_savez_round_trip_float(self, tmp_path):
        p = tmp_path / "d.npz"
        imgs = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        labs = np.array([0, 1], dtype=np.int64)
        np.savez(p, images=imgs, labels=labs)
        ds = load_npz(p, "images", "labels")
        # float payloads keep their values; 2 axes/sample gains a channel axis
        assert ds.samples.shape == (2, 1, 2, 3)
        assert np.array_equal(ds.samples[:, 0], imgs.astype(np.float64))
        assert ds.labels.tolist() == [0, 1]

    def test_uint8_scaling_endpoints(self, tmp_path):
        p = tmp_path / "d.npz"
        imgs = np.array([[[0, 255], [127, 128]]], dtype=np.uint8)
        np.savez(p, images=imgs, labels=np.array([1]))
        ds = load_npz(p, "images", "labels")
        flat = ds.samples[0, 0]
        assert flat[0, 0] == -1.0
        assert flat[0, 1] == 1.0
        assert abs(flat[1, 0] - (127 / 127.5 - 1.0)) < 1e-15
        assert ds.samples.min() >= -1.0 and ds.samples.max() <= 1.0

    def test_trailing_rgb_axis_moves_to_channel_first(self, tmp_path):
        p = tmp_path / "d.npz"
        imgs = np.zeros((4, 8, 8, 3), dtype=np.uint8)
        imgs[:, :, :, 1] = 255
        np.savez(p, images=imgs, labels=np.array([0, 1, 0, 1]))
        ds = load_npz(p, "images", "labels")
        assert ds.samples.shape == (4, 3, 8, 8)
        assert np.all(ds.samples[:, 1] == 1.0)
        assert np.all(ds.samples[:, 0] == -1.0)

    @pytest.mark.parametrize(
        "shape, sample_shape",
        [
            ((4, 1, 12, 12), (1, 12, 12)),  # channel-first stays as it is
            ((4, 3, 8, 8), (3, 8, 8)),
            ((4, 1, 8, 8, 8), (1, 8, 8, 8)),
            ((4, 8, 8, 8), (1, 8, 8, 8)),  # an unchanneled volume gains a channel axis
        ],
    )
    def test_channel_axis(self, tmp_path, shape, sample_shape):
        p = tmp_path / "d.npz"
        imgs = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        np.savez(p, images=imgs, labels=np.array([0, 1, 0, 1]))
        ds = load_npz(p, "images", "labels")
        assert ds.sample_shape == sample_shape
        assert np.array_equal(ds.samples, imgs.reshape(ds.samples.shape))

    def test_trailing_singleton_channel(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((2, 5, 6, 1)), labels=np.array([0, 1]))
        ds = load_npz(p, "images", "labels")
        assert ds.samples.shape == (2, 1, 5, 6)

    def test_column_vector_labels_accepted(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((3, 4, 4)), labels=np.array([[0], [1], [0]]))
        ds = load_npz(p, "images", "labels")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_flat_vectors_stay_flat(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((5, 360)), labels=np.array([0, 1, 0, 1, 0]))
        ds = load_npz(p, "images", "labels")
        assert ds.samples.shape == (5, 360)

    def test_nan_image_rejected(self, tmp_path):
        p = tmp_path / "d.npz"
        images = np.zeros((4, 6, 6))
        images[1, 2, 2] = np.nan
        np.savez(p, images=images, labels=np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="finite"):
            load_npz(p, "images", "labels")

    def test_label_count_mismatch(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((3, 4)), labels=np.array([0, 1]))
        with pytest.raises(DataFormatError, match="3 images"):
            load_npz(p, "images", "labels")

    def test_nonbinary_labels(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((3, 4)), labels=np.array([0, 1, 2]))
        with pytest.raises(DataFormatError, match="0/1"):
            load_npz(p, "images", "labels")

    @pytest.mark.parametrize(
        "labels", [np.array([0, 1, 0.7, 1, 0, -0.5]), np.array([0.0, 1.0, np.nan, 1.0, 0.0, 1.0])], ids=["fraction", "nan"]
    )
    def test_non_binary_float_labels_rejected_before_the_cast(self, tmp_path, labels):
        # a cast first would load 0.7 and -0.5 as 0, and warn on NaN
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((6, 4)), labels=labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="0/1"):
                load_npz(p, "images", "labels")

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 1.0, 0.0]), np.array([False, True, True, False])])
    def test_float_and_bool_labels_load(self, tmp_path, labels):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((4, 4)), labels=labels)
        ds = load_npz(p, "images", "labels")
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("labels", [np.array(["0", "1"]), np.array([0j, 1 + 0j])], ids=["str", "complex"])
    def test_label_dtype_must_be_bool_integer_or_float(self, tmp_path, labels):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((2, 4)), labels=labels)
        with pytest.raises(DataFormatError, match="dtype"):
            load_npz(p, "images", "labels")

    @pytest.mark.parametrize(
        "images", [np.full((2, 4), "0"), np.zeros((2, 4), dtype=complex), np.zeros((2, 4), dtype=bool)],
        ids=["str", "complex", "bool"],
    )
    def test_image_dtype_must_be_integer_or_float(self, tmp_path, images):
        p = tmp_path / "d.npz"
        np.savez(p, images=images, labels=np.array([0, 1]))
        with pytest.raises(DataFormatError, match="images need an integer or float dtype"):
            load_npz(p, "images", "labels")

    def test_missing_entry_lists_names(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, images=np.zeros((2, 4)), labels=np.array([0, 1]))
        with pytest.raises(DataFormatError, match="wrong_key"):
            load_npz(p, "wrong_key", "labels")

    def assert_loads_like(self, tmp_path, imgs, labs, want_imgs, want_labs):
        np.savez(tmp_path / "got.npz", images=imgs, labels=labs)
        np.savez(tmp_path / "want.npz", images=want_imgs, labels=want_labs)
        got = load_npz(tmp_path / "got.npz", "images", "labels")
        want = load_npz(tmp_path / "want.npz", "images", "labels")
        assert np.array_equal(got.samples, want.samples)
        assert got.samples.strides == want.samples.strides  # same layout, so same training arithmetic
        assert np.array_equal(got.labels, want.labels)

    def test_fortran_order_loads_as_c_order(self, tmp_path):
        imgs = np.arange(60, dtype=np.uint8).reshape(3, 4, 5)
        fortran = np.asfortranarray(imgs)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        labs = np.array([0, 1, 0])
        self.assert_loads_like(tmp_path, fortran, labs, imgs, labs)

    def test_big_endian_loads_as_little_endian(self, tmp_path):
        imgs = np.arange(8, dtype="<f8").reshape(2, 4) / 3.0
        labs = np.array([0, 1], dtype="<i8")
        self.assert_loads_like(tmp_path, imgs.astype(">f8"), labs.astype(">i8"), imgs, labs)

    def test_npy_version_2_entry_loads(self, tmp_path):
        imgs = np.arange(8.0).reshape(2, 4)
        buf = io.BytesIO()
        np.lib.format.write_array(buf, imgs, version=(2, 0))
        p = tmp_path / "d.npz"
        write_npz_raw(p, {"images.npy": buf.getvalue(), "labels.npy": npy_bytes(np.array([0, 1]))})
        assert np.array_equal(load_npz(p, "images", "labels").samples, imgs)

    def test_pickled_object_entry_rejected(self, tmp_path):
        p = tmp_path / "d.npz"
        imgs = np.array([[1.0, "a"], [None, 2.0]], dtype=object)
        np.savez(p, images=imgs, labels=np.array([0, 1]))
        with pytest.raises(DataFormatError, match="pickled"):
            load_npz(p, "images", "labels")

    def test_bare_npy_file_rejected(self, tmp_path):
        p = tmp_path / "d.npz"
        p.write_bytes(npy_bytes(np.zeros((2, 4))))
        with pytest.raises(DataFormatError, match="bare NPY array"):
            load_npz(p, "images", "labels")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "d.npz"
        write_npz_raw(
            p,
            {"images.npy": b"NOTANPY" + b"\x00" * 64, "labels.npy": npy_bytes(np.array([0]))},
        )
        with pytest.raises(DataFormatError, match="magic"):
            load_npz(p, "images", "labels")

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "d.npz"
        good = npy_bytes(np.zeros((4, 8)))
        write_npz_raw(
            p, {"images.npy": good[:-16], "labels.npy": npy_bytes(np.array([0, 1, 0, 1]))}
        )
        with pytest.raises(DataFormatError, match="truncated"):
            load_npz(p, "images", "labels")

    def test_not_a_zip(self, tmp_path):
        p = tmp_path / "d.npz"
        for payload in (b"garbage", b"", b"PK\x03\x04" + b"\x00" * 60):  # the last one is a corrupt ZIP
            p.write_bytes(payload)
            with pytest.raises(DataFormatError, match="ZIP"):
                load_npz(p, "images", "labels")


class TestDataset:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), subject_ids=np.array([1, 2]))

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [0.0, np.nan], [0, 2]])
    def test_non_binary_labels_rejected_before_the_cast(self, labels):
        with pytest.raises(ValueError, match="labels must be 0/1"):
            Dataset(np.zeros((2, 3)), labels)

    @pytest.mark.parametrize("ids", [[1.5, 2.9], [1.0, np.nan], [1.0, np.inf], ["a", "b"]])
    def test_non_integral_subject_ids_rejected_before_the_cast(self, ids):
        with pytest.raises(ValueError, match="subject_ids must be integers"):
            Dataset(np.zeros((2, 3)), [0, 1], subject_ids=ids)

    def test_integral_labels_and_subject_ids_of_any_numeric_dtype_load(self):
        ds = Dataset(np.zeros((3, 3)), [True, False, True], subject_ids=np.array([4.0, -1.0, 4.0]))
        assert ds.labels.dtype == ds.subject_ids.dtype == np.int64
        assert ds.labels.tolist() == [1, 0, 1] and ds.subject_ids.tolist() == [4, -1, 4]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, value):
        samples = np.zeros((4, 2, 5))
        samples[2, 1, 3] = value
        with pytest.raises(ValueError, match="samples must be finite, not NaN or infinite"):
            Dataset(samples, np.array([0, 1, 0, 1]))

    def test_properties(self):
        ds = Dataset(np.zeros((4, 2, 5)), np.array([0, 1, 0, 1]))
        assert ds.n == 4
        assert ds.sample_shape == (2, 5)


class TestMakeFolds:
    def test_round_robin_balanced_small(self):
        ds = Dataset(np.zeros((10, 3)), np.repeat([0, 1], 5))
        plan = make_folds(ds, 5, seed=0)
        assert isinstance(plan, FoldPlan)
        assert plan.k == 5
        for train, val in plan.folds:
            assert val.size == 2  # one of each class
            assert sorted(ds.labels[val].tolist()) == [0, 1]
            assert train.size == 8
            assert ds.labels[train].sum() == 4

    def test_partition_covers_everything_once(self):
        ds = synth_blobs(60, 4, 1.0, seed=1)
        plan = make_folds(ds, 4, seed=2)
        assert np.array_equal(np.sort(np.unique(plan.assignments)), np.arange(4))
        counts = np.bincount(plan.assignments, minlength=4)
        assert counts.sum() == 60
        for f, (train, val) in enumerate(plan.folds):
            assert np.intersect1d(train, val).size == 0
            assert np.all(plan.assignments[val] == f)
            assert np.all(plan.assignments[train] != f)

    def test_balancing_downsamples_majority(self):
        rng = np.random.default_rng(3)
        labels = np.concatenate([np.zeros(75, dtype=int), np.ones(25, dtype=int)])
        labels = labels[rng.permutation(100)]
        ds = Dataset(rng.normal(size=(100, 2)), labels)
        plan = make_folds(ds, 5, seed=4)
        for train, val in plan.folds:
            for part in (train, val):
                part_labels = ds.labels[part]
                assert (part_labels == 0).sum() == (part_labels == 1).sum()

    def test_subject_disjoint(self):
        ds = synth_beats(n=400, seed=5, n_subjects=12)
        plan = make_folds(ds, 4, seed=6)
        val_subjects = []
        for _, val in plan.folds:
            val_subjects.append(set(ds.subject_ids[val].tolist()))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (val_subjects[i] & val_subjects[j])
        # every sample of a subject shares one raw fold assignment
        for s in np.unique(ds.subject_ids):
            assert np.unique(plan.assignments[ds.subject_ids == s]).size == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_subjects_are_dealt_largest_first_onto_the_smallest_fold(self, seed):
        # Non-contiguous and negative ids of sizes 4, 3, 3, 2 and 1, the samples
        # interleaved: 4 -> fold 0, both 3s -> fold 1 (whichever of them comes
        # first), 2 and 1 -> fold 0, so the raw folds hold 7 and 6 samples.
        sizes = {-7: 4, 12: 3, 3: 3, -1: 2, 40: 1}
        subjects = np.random.default_rng(100 + seed).permutation(np.repeat(list(sizes), list(sizes.values())))
        ds = Dataset(np.zeros((13, 2)), np.arange(13) % 2, subject_ids=subjects)
        plan = make_folds(ds, 2, seed=seed)
        assert np.bincount(plan.assignments).tolist() == [7, 6]
        fold_of = {}
        for s in sizes:
            assert np.unique(plan.assignments[subjects == s]).size == 1  # no subject is split
            fold_of[s] = int(plan.assignments[subjects == s][0])
        assert fold_of == {-7: 0, 12: 1, 3: 1, -1: 0, 40: 0}

    def test_deterministic_by_seed(self):
        ds = synth_beats(n=300, seed=7, n_subjects=10)
        a = make_folds(ds, 3, seed=42)
        b = make_folds(ds, 3, seed=42)
        c = make_folds(ds, 3, seed=43)
        assert np.array_equal(a.assignments, b.assignments)
        for (ta, va), (tb, vb) in zip(a.folds, b.folds):
            assert np.array_equal(ta, tb) and np.array_equal(va, vb)
        assert any(
            not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a.folds, c.folds)
        )

    def test_k_too_small(self):
        ds = synth_blobs(10, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_folds(ds, 1, seed=0)

    def test_class_scarcer_than_k(self):
        ds = Dataset(np.zeros((8, 2)), np.array([0, 0, 0, 0, 0, 0, 1, 1]))
        with pytest.raises(ValueError):
            make_folds(ds, 3, seed=0)

    def test_single_class_subject_fold_rejected(self):
        # two pure-class subjects and k=2 forces a single-class validation fold
        labels = np.repeat([0, 1], 10)
        subjects = np.repeat([100, 200], 10)
        ds = Dataset(np.zeros((20, 2)), labels, subject_ids=subjects)
        with pytest.raises(ValueError, match="absent"):
            make_folds(ds, 2, seed=0)


class TestSynthBlobs:
    def test_shape_balance_determinism(self):
        ds = synth_blobs(100, 8, 2.0, seed=11)
        assert ds.samples.shape == (100, 8)
        assert ds.labels.sum() == 50
        assert ds.subject_ids is None
        again = synth_blobs(100, 8, 2.0, seed=11)
        assert np.array_equal(ds.samples, again.samples)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            synth_blobs(7, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(8, 0, 1.0, seed=0)

    def test_infinite_separation_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            synth_blobs(8, 3, np.inf, seed=0)

    def test_zero_separation_is_chance_level(self):
        ds = synth_blobs(800, 6, 0.0, seed=12)
        tr, te = np.arange(0, 800, 2), np.arange(1, 800, 2)
        scores = lda_scores(ds.samples[tr], ds.labels[tr], ds.samples[te])
        assert abs(roc_auc(scores, ds.labels[te]) - 0.5) < 0.12

    def test_wide_separation_is_trivially_separable(self):
        ds = synth_blobs(400, 16, 10.0, seed=13)
        tr, te = np.arange(0, 400, 2), np.arange(1, 400, 2)
        scores = lda_scores(ds.samples[tr], ds.labels[tr], ds.samples[te])
        assert roc_auc(scores, ds.labels[te]) > 0.99


class TestSynthBeats:
    def test_contract(self):
        ds = synth_beats(n=500, seed=14, n_subjects=9)
        assert ds.samples.shape == (500, 360)
        assert np.isfinite(ds.samples).all()
        assert set(ds.labels.tolist()) == {0, 1}
        assert abs(ds.labels.mean() - 0.5) < 0.01
        assert ds.subject_ids.min() >= 0 and ds.subject_ids.max() < 9

    def test_deterministic(self):
        a = synth_beats(n=64, seed=15)
        b = synth_beats(n=64, seed=15)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.subject_ids, b.subject_ids)

    # sha256 of samples, labels and subject ids, as float64/int64 C-order bytes;
    # run_meta.json's data_digest and perfbench's reference AUCs rest on them
    PINNED = [
        (
            dict(n=2000, seed=0),
            "bd5447408f6320118cc2e71246302e51813163a9dc19dc3a973569b62311a51f",
            "b409f4c492389c861e2234bc0eec2dcba20686f86bb6470594fe25b62e550577",
            "d399477e8741c91d5282a7e2e7e4d62d24da1aab14ae19ce63f5df3b76010761",
        ),
        (
            dict(n=2000, seed=1),
            "bb4c5f332e5e9822d993ba3e695eccbc3c390d58884995faa116775055c96585",
            "b409f4c492389c861e2234bc0eec2dcba20686f86bb6470594fe25b62e550577",
            "8ad6f2bb528f00298ad13ccccb5d6f6fc686662120c685a896cb67e9abec149f",
        ),
        (
            dict(n=257, seed=3, ambiguity=0.2, noise=0.0),
            "be7e09f36593f123d7b73958417b952e8fb92d6577993b1fbe459ae75a4c21b4",
            "8ae3f03730e3ee9f7cf7b9cef005af054a25521843c9de743202310eaed99f11",
            "cbf2e0c1c3b6b9ca5e32b482870556016885769071f8f9bc2d273b3ce0032918",
        ),
    ]

    @pytest.mark.parametrize("kwargs, samples, labels, subjects", PINNED)
    def test_bytes_are_pinned(self, kwargs, samples, labels, subjects):
        ds = synth_beats(**kwargs)
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (ds.samples, ds.labels, ds.subject_ids)]
        assert digests == [samples, labels, subjects]

    def test_peak_memory_is_the_output_plus_at_most_one_mib(self):
        synth_beats(n=8, seed=0)  # first-call costs outside the generator are not counted
        tracemalloc.start()
        try:
            ds = synth_beats(n=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ds.samples.nbytes + 2**20

    def test_classes_are_separable_but_not_trivially(self):
        ds = synth_beats(n=1200, seed=16)
        tr = np.arange(600)  # labels alternate, so halves hold both classes
        te = np.arange(600, 1200)
        scores = lda_scores(ds.samples[tr], ds.labels[tr], ds.samples[te])
        auc = roc_auc(scores, ds.labels[te])
        assert 0.85 < auc <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            synth_beats(n=2)

    def test_negative_noise_and_no_subjects_are_refused(self):
        with pytest.raises(ValueError, match="noise must be non-negative"):
            synth_beats(n=8, noise=-1.0)
        with pytest.raises(ValueError, match="n_subjects must be at least 1"):
            synth_beats(n=8, n_subjects=0)
