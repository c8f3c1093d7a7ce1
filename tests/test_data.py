"""CSV parsing, folds, standardization, windowing, splits, synthetic data."""

import io
import math
import re

import numpy as np
import pytest

import fedhar.data as D
from fedhar.errors import ConfigError, FormatError
from fedhar.training import compute_pos_weight

# row 2 misses a feature, row 3 misses a feature and the first label
CSV_3ROW = (
    "timestamp,acc:mean,gyro:mean,label:WALKING,label:SITTING,label_source\n"
    "1000,0.5,1.5,1,0,x\n"
    "1060,,2.5,0,1,x\n"
    "1120,1.0,,,1,x\n"
)


def parse(text, **kw):
    return D.parse_extrasensory_csv(io.StringIO(text), subject_id="t", **kw)


# --------------------------------------------------------------- parser

def test_parse_three_row_fixture():
    rec = parse(CSV_3ROW)
    assert rec.subject_id == "t"
    assert rec.feature_names == ["acc:mean", "gyro:mean"]
    assert rec.label_names == ["label:WALKING", "label:SITTING"]
    assert np.array_equal(rec.timestamps, [1000, 1060, 1120])
    assert rec.features[0, 0] == np.float32(0.5)
    assert np.isnan(rec.features[1, 0])      # empty feature -> NaN
    assert np.isnan(rec.features[2, 1])
    assert rec.labels[0, 0] == 1.0 and rec.labels[0, 1] == 0.0
    assert np.isnan(rec.labels[2, 0])        # empty label -> missing


def test_parse_sorts_rows_by_timestamp():
    text = ("timestamp,a,label:X\n"
            "3000,3.0,1\n"
            "1000,1.0,0\n"
            "2000,2.0,1\n")
    rec = parse(text)
    assert np.array_equal(rec.timestamps, [1000, 2000, 3000])
    assert np.array_equal(rec.features[:, 0], [1.0, 2.0, 3.0])


def test_parse_rejects_duplicate_timestamps():
    text = "timestamp,a,label:X\n1000,1.0,1\n1000,2.0,0\n"
    with pytest.raises(FormatError, match="duplicate"):
        parse(text)


def test_parse_rejects_ragged_row():
    text = "timestamp,a,label:X\n1000,1.0\n"
    with pytest.raises(FormatError, match="row 2"):
        parse(text)


def test_parse_rejects_bad_cells():
    # not a number, not finite, or outside int64
    for stamp in ["xyz", "nan", "inf", "-inf", "1e30", "-1e30", "9.3e18"]:
        with pytest.raises(FormatError, match=f"row 2: bad timestamp '{stamp}'"):
            parse(f"timestamp,a,label:X\n{stamp},1.0,1\n")
    with pytest.raises(FormatError, match="bad value"):
        parse("timestamp,a,label:X\n1000,oops,1\n")
    # infinite, or beyond float32 (3.4028236e38 rounds up to inf); NaN is missing
    for cell in ["inf", "-inf", "Infinity", "1e39", "-1e39", "3.4028236e38"]:
        with pytest.raises(FormatError,
                           match=f"row 3, column 'b': '{cell}' is not a finite float32"):
            parse(f"timestamp,a,b,label:X\n1000,1.0,2.0,1\n1001,1.0,{cell},1\n")
    rec = parse("timestamp,a,b,label:X\n1000,nan,,1\n1001,3.4028235e38,-0.0,1\n")
    assert np.isnan(rec.features[0]).all() and np.isfinite(rec.features[1]).all()
    with pytest.raises(FormatError, match="label must be 0/1"):
        parse("timestamp,a,label:X\n1000,1.0,0.7\n")


def test_parse_enforces_expected_column_counts(tmp_path):
    """A file of a corpus with fewer feature or label columns than the first
    file is refused at the first column it lacks."""
    (tmp_path / "a.csv").write_text(CSV_3ROW)
    for text, match in [
        ("timestamp,acc:mean,label:WALKING,label:SITTING\n1000,0.5,1,0\n",
         "b.csv: column 3 is 'label:WALKING', but a.csv has 'gyro:mean'"),
        ("timestamp,acc:mean,gyro:mean,label:WALKING\n1000,0.5,1.5,1\n",
         "b.csv: column 5 is missing, but a.csv has 'label:SITTING'"),
    ]:
        (tmp_path / "b.csv").write_text(text)
        with pytest.raises(FormatError, match=match):
            D.load_subject_dir(str(tmp_path))
    (tmp_path / "b.csv").write_text(CSV_3ROW)  # the same columns are fine
    assert len(D.load_subject_dir(str(tmp_path))) == 2


@pytest.mark.parametrize("header, match", [
    ("timestamp,gyro:mean,acc:mean,label:WALKING,label:SITTING",
     "column 2 is 'gyro:mean', but a.csv has 'acc:mean'"),
    ("timestamp,acc:mean,gyro:mean,label:SITTING,label:WALKING",
     "column 4 is 'label:SITTING', but a.csv has 'label:WALKING'"),
    ("timestamp,acc:mean,gyro:mean,mag:mean,label:WALKING,label:SITTING",
     "column 4 is 'mag:mean', but a.csv has 'label:WALKING'"),
    ("timestamp,acc:mean,gyro:mean,label:WALKING,label:SITTING,label:LYING",
     "column 6 is 'label:LYING', but a.csv has none"),
], ids=["features_swapped", "labels_swapped", "extra_feature", "extra_label"])
def test_load_subject_dir_refuses_columns_out_of_schema(tmp_path, header, match):
    """The counts match in the swapped cases; only the names tell them apart."""
    (tmp_path / "a.csv").write_text(CSV_3ROW)
    n_cells = header.count(",")
    (tmp_path / "b.csv").write_text(f"{header}\n1000{',1' * n_cells}\n")
    with pytest.raises(FormatError, match=f"b.csv: {match}"):
        D.load_subject_dir(str(tmp_path))


def test_parse_matches_a_per_cell_float32_oracle():
    """One conversion per row gives the bytes of float(cell) cast to float32."""
    cells = ["-0.0", "1e-45", "1.4e-40", "3.4028235e38", "1e-50", "nan", "",
             "0.12345678901234567890", "-98765432109876543210", "1e-38"]
    names = ",".join(f"f{i}" for i in range(len(cells)))
    rec = parse(f"timestamp,{names},label:X\n1000,{','.join(cells)},1\n")
    oracle = [np.float32(float(cell)) if cell else np.float32(np.nan) for cell in cells]
    assert rec.features[0].tobytes() == np.array(oracle, dtype=np.float32).tobytes()


def test_parse_structural_errors():
    with pytest.raises(FormatError, match="timestamp"):
        parse("time,a,label:X\n1,1,1\n")
    with pytest.raises(FormatError, match="no header"):
        parse("")
    with pytest.raises(FormatError, match="no data rows"):
        parse("timestamp,a,label:X\n")
    with pytest.raises(FormatError, match="after label columns"):
        parse("timestamp,label:X,a\n1000,1,1.0\n")
    with pytest.raises(FormatError, match="trailing"):
        parse("timestamp,a,label_source,label:X\n1000,1.0,x,1\n")


def test_write_then_parse_round_trip(tmp_path):
    rec = parse(CSV_3ROW)
    path = str(tmp_path / "t.csv")
    D.write_subject_csv(rec, path)
    back = D.parse_extrasensory_csv(path)
    assert back.subject_id == "t"
    assert np.array_equal(back.timestamps, rec.timestamps)
    assert np.array_equal(back.features, rec.features, equal_nan=True)
    assert np.array_equal(back.labels, rec.labels, equal_nan=True)
    assert back.feature_names == rec.feature_names


def test_write_subject_csv_golden(tmp_path):
    """NaN is an empty cell, -0.0 keeps its sign, a subnormal its shortest repr."""
    rec = D.SubjectRecord(
        "g", np.array([1000, 1060], dtype=np.int64),
        np.array([[np.nan, -0.0, 1e-45], [0.1, 3.4028235e38, -2.5]], dtype=np.float32),
        np.array([[1.0, np.nan], [0.0, 1.0]], dtype=np.float32),
        ["a", "b", "c"], ["label:X", "label:Y"])
    path = tmp_path / "g.csv"
    D.write_subject_csv(rec, str(path))
    assert path.read_bytes() == (
        b"timestamp,a,b,c,label:X,label:Y\r\n"
        b"1000,,-0.0,1.401298464324817e-45,1,\r\n"
        b"1060,0.10000000149011612,3.4028234663852886e+38,-2.5,0,1\r\n")


def test_load_subject_dir_sorted_and_consistent(tmp_path):
    rec = parse(CSV_3ROW)
    D.write_subject_csv(rec, str(tmp_path / "b.csv"))
    D.write_subject_csv(rec, str(tmp_path / "a.csv"))
    records = D.load_subject_dir(str(tmp_path))
    assert [r.subject_id for r in records] == ["a", "b"]
    # the first file by name sets the column names every other file must match
    (tmp_path / "c.csv").write_text("timestamp,a,label:X\n1000,1.0,1\n")
    with pytest.raises(FormatError, match="c.csv: column 2 is 'a', but a.csv has 'acc:mean'"):
        D.load_subject_dir(str(tmp_path))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FormatError, match="no subject CSVs"):
        D.load_subject_dir(str(empty))


def test_load_subject_dir_refuses_two_files_for_one_subject(tmp_path):
    """``x.csv`` and ``x.csv.gz`` both parse to subject ``x``; neither is kept."""
    rec = parse(CSV_3ROW)
    D.write_subject_csv(rec, str(tmp_path / "a.csv"))
    D.write_subject_csv(rec, str(tmp_path / "x.csv"))
    D.write_subject_csv(rec, str(tmp_path / "x.csv.gz"))
    with pytest.raises(FormatError, match=r"x\.csv and x\.csv\.gz are both subject x$"):
        D.load_subject_dir(str(tmp_path))


def test_load_subject_dir_parses_only_the_wanted_subjects(tmp_path):
    """Files of other subjects are not opened, so a broken one is no error;
    the records come in file-name order, and an id without a file is left
    out for the caller to refuse."""
    rec = parse(CSV_3ROW)
    for name in ("b", "c", "x"):
        D.write_subject_csv(rec, str(tmp_path / f"{name}.csv"))
    (tmp_path / "a.csv").write_text("not a subject CSV")
    records = D.load_subject_dir(str(tmp_path), ["c", "b", "z"])
    assert [r.subject_id for r in records] == ["b", "c"]
    assert D.load_subject_dir(str(tmp_path), []) == []
    D.write_subject_csv(rec, str(tmp_path / "x.csv.gz"))
    with pytest.raises(FormatError, match=r"x\.csv and x\.csv\.gz are both subject x$"):
        D.load_subject_dir(str(tmp_path), ["x"])


# ------------------------------------------------------------ fold plan

def test_fold_plan_60_subjects():
    ids = [f"s{i:02d}" for i in range(60)]
    plan = D.build_fold_plan(ids, seed=7)
    assert plan.n_folds == 5
    assert all(len(f) == 12 for f in plan.folds)
    assert all(len(b) == 48 for b in plan.base_subjects)
    seen = [s for f in plan.folds for s in f]
    assert sorted(seen) == sorted(ids)  # disjoint cover
    for f, b in zip(plan.folds, plan.base_subjects):
        assert set(f) | set(b) == set(ids)
        assert not set(f) & set(b)


def test_fold_plan_deterministic_and_seed_sensitive():
    ids = [f"s{i:02d}" for i in range(10)]
    a = D.build_fold_plan(ids, seed=1, n_folds=5)
    b = D.build_fold_plan(ids, seed=1, n_folds=5)
    c = D.build_fold_plan(ids, seed=2, n_folds=5)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_fold_plan_validation():
    with pytest.raises(ConfigError, match="cannot be split"):
        D.build_fold_plan([f"s{i}" for i in range(7)], seed=0, n_folds=5)
    with pytest.raises(ConfigError, match="duplicate"):
        D.build_fold_plan(["a", "a", "b", "c", "d"], seed=0, n_folds=5)


def test_fold_plan_refuses_a_fold_subject_among_its_base_subjects():
    d = {"n_folds": 2, "seed": 0, "folds": [["a"], ["b"]],
         "base_subjects": [["a", "b"], ["a"]]}
    with pytest.raises(FormatError, match="fold 0 lists subject 'a' among its base"):
        D.FoldPlan.from_json_dict(d)


@pytest.mark.parametrize("n_folds", [2.0, 0, -1, True, "2", None])
def test_fold_plan_refuses_an_n_folds_that_is_not_a_positive_int(n_folds):
    d = {"n_folds": n_folds, "seed": 0, "folds": [["a"], ["b"]],
         "base_subjects": [["b"], ["a"]]}
    with pytest.raises(FormatError, match=re.escape(f"positive integer, got {n_folds!r}")):
        D.FoldPlan.from_json_dict(d)


@pytest.mark.parametrize("folds, base", [
    ([["a", "a"], ["b"]], [["b"], []]),
    ([["a"], ["a"]], [["b"], ["b"]]),
    ([["a"], ["b"]], [["b"], ["a", "c", "a"]]),
], ids=["within-a-fold", "in-two-folds", "within-a-base-list"])
def test_fold_plan_refuses_a_subject_listed_twice(folds, base):
    d = {"n_folds": 2, "seed": 0, "folds": folds, "base_subjects": base}
    with pytest.raises(FormatError, match="^fold plan lists subject 'a' twice$"):
        D.FoldPlan.from_json_dict(d)


def test_a_fold_plan_file_that_lists_a_base_subject_twice_is_refused_by_name(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"n_folds": 1, "seed": 0, "folds": [["synth-000"]], '
                    '"base_subjects": [["synth-001", "synth-001"]]}')
    with pytest.raises(FormatError) as err:
        D.FoldPlan.load(str(path))
    assert str(err.value) == f"{path}: fold plan lists subject 'synth-001' twice"


def test_fold_plan_json_round_trip(tmp_path):
    plan = D.build_fold_plan([f"s{i}" for i in range(10)], seed=3, n_folds=2)
    path = str(tmp_path / "plan.json")
    plan.save(path)
    assert D.FoldPlan.load(path) == plan


# -------------------------------------------------------- standardizer

def test_standardizer_population_stats():
    # column values [2, 4]: mean 3, population std 1 -> standardized [-1, 1]
    rec = D.SubjectRecord("s", np.array([0, 60], dtype=np.int64),
                          np.array([[2.0], [4.0]], dtype=np.float32),
                          np.array([[1.0], [0.0]], dtype=np.float32))
    st = D.fit_standardizer([rec])
    assert st.mean[0] == 3.0 and st.std[0] == 1.0
    out = D.apply_standardizer(rec, st)
    assert np.array_equal(out.features[:, 0], [-1.0, 1.0])


def test_standardizer_skips_missing_and_fills_zero():
    feats = np.array([[1.0, np.nan], [3.0, np.nan]], dtype=np.float32)
    rec = D.SubjectRecord("s", np.array([0, 60], dtype=np.int64), feats,
                          np.zeros((2, 1), dtype=np.float32))
    st = D.fit_standardizer([rec])
    assert st.mean[1] == 0.0 and st.std[1] == 1.0  # all-missing column
    out = D.apply_standardizer(rec, st)
    assert np.array_equal(out.features[:, 1], [0.0, 0.0])  # missing -> 0
    assert not np.isnan(out.features).any()


def test_standardizer_constant_column_maps_to_zero():
    feats = np.full((4, 1), 7.5, dtype=np.float32)
    rec = D.SubjectRecord("s", np.arange(4, dtype=np.int64) * 60, feats,
                          np.zeros((4, 1), dtype=np.float32))
    st = D.fit_standardizer([rec])
    assert st.std[0] == D.STD_FLOOR
    out = D.apply_standardizer(rec, st)
    assert np.allclose(out.features, 0.0)


def test_standardizer_pools_multiple_records():
    a = D.SubjectRecord("a", np.array([0], dtype=np.int64),
                        np.array([[0.0]], dtype=np.float32),
                        np.zeros((1, 1), dtype=np.float32))
    b = D.SubjectRecord("b", np.array([0], dtype=np.int64),
                        np.array([[10.0]], dtype=np.float32),
                        np.zeros((1, 1), dtype=np.float32))
    st = D.fit_standardizer([a, b])
    assert st.mean[0] == 5.0 and st.std[0] == 5.0


def test_standardizer_json_round_trip(tmp_path):
    st = D.Standardizer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    path = str(tmp_path / "st.json")
    st.save(path)
    back = D.Standardizer.load(path)
    assert np.array_equal(back.mean, st.mean)
    assert np.array_equal(back.std, st.std)


# ------------------------------------------------------------- windows

def make_record(n, n_feat=3, n_lab=2, gap_at=None, sid="w", seed=0):
    ts = 1000 + 60 * np.arange(n, dtype=np.int64)
    if gap_at is not None:
        ts[gap_at:] += 3600  # one-hour hole
    rng = np.random.default_rng(seed)
    return D.SubjectRecord(
        sid, ts,
        rng.standard_normal((n, n_feat)).astype(np.float32),
        rng.integers(0, 2, (n, n_lab)).astype(np.float32))


def test_windows_lengths_and_padding():
    ws = D.make_windows(make_record(300), 128)
    assert ws.subject_ids.tolist() == ["w"] * 3
    assert ws.features.shape == (3, 128, 3) and ws.features.dtype == np.float32
    assert ws.targets.shape == ws.label_mask.shape == (3, 128, 2)
    assert ws.pad_mask.shape == (3, 128)
    assert ws.targets.dtype == ws.label_mask.dtype == ws.pad_mask.dtype == bool
    assert ws.pad_mask.sum(axis=1).tolist() == [128, 128, 44]
    assert np.array_equal(ws.pad_mask[-1], np.arange(128) < 44)
    assert np.all(ws.features[-1, 44:] == 0.0)
    assert not ws.label_mask[-1, 44:].any() and not ws.targets[-1, 44:].any()


def test_windows_break_at_gaps():
    ws = D.make_windows(make_record(20, gap_at=5), 16)
    # 5-minute chunk, then a 15-minute chunk
    assert ws.pad_mask.sum(axis=1).tolist() == [5, 15]


def test_windows_concatenate_back_to_record():
    rec = make_record(50, gap_at=20)
    ws = D.make_windows(rec, 16)
    assert np.allclose(ws.features[ws.pad_mask], np.nan_to_num(rec.features))
    assert np.array_equal(ws.targets[ws.pad_mask], rec.labels)


def test_windows_missing_labels_masked():
    rec = make_record(4)
    rec.labels[1, 0] = np.nan
    ws = D.make_windows(rec, 4)
    assert not ws.label_mask[0, 1, 0]
    assert not ws.targets[0, 1, 0]  # zero-filled, not NaN
    assert ws.label_mask[0, 1, 1]


def test_windows_empty_record():
    rec = D.SubjectRecord("e", np.array([], dtype=np.int64),
                          np.zeros((0, 2), dtype=np.float32),
                          np.zeros((0, 1), dtype=np.float32))
    ws = D.make_windows(rec, 8)
    assert len(ws) == 0 and not ws
    assert ws.features.shape == (0, 8, 2) and ws.targets.shape == (0, 8, 1)


def test_windows_index_like_a_sequence_of_one_window_sets():
    ws = D.make_windows(make_record(50, gap_at=20), 8)  # 3 + 4 windows
    assert len(ws) == 7
    last = ws[-1]
    assert len(last) == 1 and last.features.shape == (1, 8, 3)
    assert last.features.tobytes() == ws.features[6:].tobytes()
    assert ws[2:4].pad_mask.sum(axis=1).tolist() == [4, 8]
    picked = ws[np.array([5, 0])]
    assert picked.features.tobytes() == ws.features[[5, 0]].tobytes()
    assert len(ws[ws.pad_mask.sum(axis=1) < 8]) == 2
    with pytest.raises(IndexError):
        ws[7]
    # what list.extend and a for loop see: one-window sets, in order
    parts = []
    parts.extend(ws)
    assert [len(p) for p in parts] == [1] * 7
    assert D.Windows.concat(parts).features.tobytes() == ws.features.tobytes()
    with pytest.raises(ConfigError, match="no window sets"):
        D.Windows.concat([])


def test_windows_split_and_pos_weight_keep_the_per_window_bytes():
    """make_windows, split_train_test, carve_validation and compute_pos_weight
    against the per-window loops they replaced, byte for byte, on subjects
    with a gap, missing labels, NaN features and padded tails, given out of
    id order (0/1 masks then were float32)."""
    b = make_record(70, gap_at=23, sid="b", seed=1)  # chunks of 23 and 47 minutes
    b.features[5, 1] = np.nan
    b.features[40] = np.nan
    b.labels[3, 0] = np.nan
    b.labels[50:, 1] = np.nan
    recs = [b, make_record(20, sid="a", seed=2), make_record(5, sid="c", seed=3)]

    def old_windows(record, n_positions):
        gaps = np.diff(record.timestamps)
        breaks = np.flatnonzero(gaps > D.GAP_FACTOR * float(np.median(gaps))) + 1
        starts = [0, *breaks.tolist(), record.n_minutes]
        out = []
        for c0, c1 in zip(starts[:-1], starts[1:]):
            for w0 in range(c0, c1, n_positions):
                w1 = min(w0 + n_positions, c1)
                length = w1 - w0
                feats = np.zeros((n_positions, record.features.shape[1]), dtype=np.float32)
                targets = np.zeros((n_positions, record.labels.shape[1]), dtype=np.float32)
                mask = np.zeros_like(targets)
                pad = np.zeros(n_positions, dtype=np.float32)
                feats[:length] = np.nan_to_num(record.features[w0:w1], nan=0.0)
                raw = record.labels[w0:w1]
                present = ~np.isnan(raw)
                targets[:length] = np.where(present, raw, 0.0)
                mask[:length] = present.astype(np.float32)
                pad[:length] = 1.0
                out.append((record.subject_id, feats, targets, mask, pad))
        return out

    def by_subject(windows):
        groups = {}
        for i, w in enumerate(windows):
            groups.setdefault(w[0], []).append(i)
        return sorted(groups.items())

    def old_split(windows, ratio, seed):
        train, test = [], []
        for sid, idx in by_subject(windows):
            if len(idx) < 2:
                train.extend(idx)
                continue
            perm = np.random.default_rng(D.derive_seed(seed, "split", sid)).permutation(len(idx))
            n_train = min(max(int(round(ratio * len(idx))), 1), len(idx) - 1)
            train.extend(idx[j] for j in sorted(perm[:n_train]))
            test.extend(idx[j] for j in sorted(perm[n_train:]))
        return [windows[i] for i in train], [windows[i] for i in test]

    def old_carve(windows, frac):
        keep, val = [], []
        for _, idx in by_subject(windows):
            if len(idx) < 2:
                keep.extend(idx)
                continue
            n_val = max(1, int(round(frac * len(idx))))
            keep.extend(idx[:-n_val])
            val.extend(idx[-n_val:])
        return [windows[i] for i in sorted(keep)], [windows[i] for i in sorted(val)]

    def old_pos_weight(windows):
        pos = np.zeros(windows[0][2].shape[-1], dtype=np.float64)
        neg = np.zeros_like(pos)
        for _, _, targets, mask, _ in windows:
            m, t = mask > 0, targets > 0
            pos += (m & t).sum(axis=0)
            neg += (m & ~t).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pos > 0, neg / np.maximum(pos, 1e-300), 100.0)
        return np.clip(ratio, 0.1, 100.0).astype(np.float32)

    def assert_same(new, old):
        assert new.subject_ids.tolist() == [w[0] for w in old]
        for k, arr in enumerate((new.features, new.targets, new.label_mask, new.pad_mask), 1):
            assert arr.astype(np.float32).tobytes() == np.stack([w[k] for w in old]).tobytes()

    parts = [D.make_windows(r, 8) for r in recs]
    old = [w for r in recs for w in old_windows(r, 8)]
    assert [len(p) for p in parts] == [9, 3, 1]
    assert_same(D.Windows.concat(parts), old)
    with pytest.warns(D.SplitWarning, match="subject c has 1 window"):
        train, test = D.split_train_test(parts, 0.8, seed=3)
    old_train, old_test = old_split(old, 0.8, seed=3)
    assert_same(train, old_train)
    assert_same(test, old_test)
    fit, val = D.carve_validation(train)
    old_fit, old_val = old_carve(old_train, D.VALIDATION_FRAC)
    assert_same(fit, old_fit)
    assert_same(val, old_val)
    for new_set, old_set in ((train, old_train), (fit, old_fit), (D.Windows.concat(parts), old)):
        assert compute_pos_weight(new_set).tobytes() == old_pos_weight(old_set).tobytes()


# --------------------------------------------------------------- split

def test_split_80_20_counts_and_order():
    ws = D.make_windows(make_record(300), 32)  # 10 windows: 9 full + pad
    train, test = D.split_train_test(ws, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
    # each half keeps the windows' chronological order
    where = {w.features.tobytes(): i for i, w in enumerate(ws)}
    order = [where[w.features.tobytes()] for w in train]
    rest = [where[w.features.tobytes()] for w in test]
    assert order == sorted(order) and rest == sorted(rest)
    assert sorted(order + rest) == list(range(10))


def test_split_deterministic_and_per_subject():
    a = D.make_windows(make_record(300, sid="a", seed=1), 32)
    b = D.make_windows(make_record(300, sid="b", seed=2), 32)
    t1, e1 = D.split_train_test([b, a], 0.8, seed=5)
    t2, e2 = D.split_train_test(D.Windows.concat([a, b]), 0.8, seed=5)
    for x, y in ((t1, t2), (e1, e2)):
        assert x.subject_ids.tolist() == y.subject_ids.tolist()
        assert x.features.tobytes() == y.features.tobytes()
    t3, _ = D.split_train_test([a, b], 0.8, seed=6)
    assert t1.features.tobytes() != t3.features.tobytes()
    assert t1.subject_ids.tolist() == ["a"] * 8 + ["b"] * 8  # subjects in id order
    assert set(e1.subject_ids.tolist()) == {"a", "b"}  # both subjects held out


def test_split_single_window_subject_warns_all_train():
    ws = D.make_windows(make_record(10), 32)
    assert len(ws) == 1
    with pytest.warns(D.SplitWarning):
        train, test = D.split_train_test(ws, 0.8, seed=0)
    assert len(train) == 1 and len(test) == 0


def test_split_two_windows_always_one_each():
    ws = D.make_windows(make_record(64), 32)
    train, test = D.split_train_test(ws, 0.9, seed=0)
    assert len(train) == 1 and len(test) == 1  # clamp keeps test non-empty


def test_split_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        D.split_train_test([], 1.0, seed=0)


def test_carve_validation_takes_chronological_tail():
    ws = D.make_windows(make_record(320), 32)  # 10 windows
    fit, val = D.carve_validation(ws)
    assert len(fit) == 9 and len(val) == 1
    assert val.features.tobytes() == ws[-1].features.tobytes()
    assert fit.features.tobytes() == ws[:-1].features.tobytes()


# ----------------------------------------------------------- synthetic

def test_synthetic_shapes_and_determinism():
    spec = D.SyntheticSpec(n_subjects=4, minutes_per_subject=30, n_features=12,
                           n_labels=6, seed=9)
    a = D.gen_synthetic(spec)
    b = D.gen_synthetic(spec)
    assert len(a) == 4
    assert a[0].features.shape == (30, 12)
    assert a[0].labels.shape == (30, 6)
    assert set(np.unique(a[0].labels)) <= {0.0, 1.0}
    assert np.all(np.diff(a[0].timestamps) == 60)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.features, rb.features)
        assert np.array_equal(ra.labels, rb.labels)
    c = D.gen_synthetic(D.SyntheticSpec(n_subjects=4, minutes_per_subject=30,
                                        n_features=12, n_labels=6, seed=10))
    assert not np.array_equal(a[0].features, c[0].features)


def test_synthetic_subjects_are_non_iid():
    """Small alpha skews label rates differently per subject."""
    spec = D.SyntheticSpec(n_subjects=8, minutes_per_subject=400, n_features=4,
                           n_labels=10, alpha=0.1, seed=0)
    recs = D.gen_synthetic(spec)
    rates = np.stack([r.labels.mean(axis=0) for r in recs])
    dists = []
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            dists.append(0.5 * np.abs(rates[i] - rates[j]).sum())
    assert max(dists) > 0.3  # at least one clearly divergent pair


def test_synthetic_noise_free_features_equal_prototype_sums_plus_ar():
    spec = D.SyntheticSpec(n_subjects=1, minutes_per_subject=20, n_features=6,
                           n_labels=3, noise_std=0.0, seed=4)
    rec = D.gen_synthetic(spec)[0]
    # reproduce the generator's draws independently
    proto = np.random.default_rng(
        D.derive_seed(4, "prototypes")).normal(0.0, 1.0, (3, 6))
    rng = np.random.default_rng(D.derive_seed(4, "subject", 0))
    prior = rng.dirichlet(np.full(3, spec.alpha))
    p_active = np.minimum(0.9, 3 * prior * 0.3)
    labels = (rng.random((20, 3)) < p_active).astype(np.float32)
    innov = rng.normal(0.0, 0.1, (20, 6))
    drift = np.zeros(6)
    ar = np.zeros((20, 6))
    for t in range(20):
        drift = 0.5 * drift + innov[t]
        ar[t] = drift
    want = (labels @ proto + ar).astype(np.float32)
    assert np.array_equal(rec.labels, labels)
    assert np.allclose(rec.features, want, atol=1e-6)


def test_synthetic_labels_imbalanced():
    spec = D.SyntheticSpec(n_subjects=6, minutes_per_subject=300, n_features=4,
                           n_labels=12, alpha=0.2, seed=2)
    recs = D.gen_synthetic(spec)
    rates = np.concatenate([r.labels.mean(axis=0) for r in recs])
    rates = rates[rates > 0]
    assert rates.max() / rates.min() > 10.0


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        D.SyntheticSpec(n_subjects=0)
    with pytest.raises(ConfigError):
        D.SyntheticSpec(alpha=0.0)
    with pytest.raises(ConfigError):
        D.SyntheticSpec(noise_std=-0.1)
    # NaN passes a one-sided bound; as alpha it made every label 0
    for bad in [math.nan, math.inf]:
        with pytest.raises(ConfigError, match="alpha must be positive and finite"):
            D.SyntheticSpec(alpha=bad)
        with pytest.raises(ConfigError, match="noise_std must be >= 0 and finite"):
            D.SyntheticSpec(noise_std=bad)


def test_synthetic_round_trips_through_csv(tmp_path):
    spec = D.SyntheticSpec(n_subjects=2, minutes_per_subject=10, n_features=5,
                           n_labels=3, seed=1)
    recs = D.gen_synthetic(spec)
    for rec in recs:
        path = str(tmp_path / f"{rec.subject_id}.csv")
        D.write_subject_csv(rec, path)
        back = D.parse_extrasensory_csv(path)
        assert back.subject_id == rec.subject_id
        assert np.array_equal(back.features, rec.features)
        assert np.array_equal(back.labels, rec.labels)
