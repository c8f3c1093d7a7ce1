"""Subject data: ExtraSensory-format CSVs, folds, standardization, windows.

One subject is one CSV of per-minute rows: a unix-timestamp column, the
feature columns, then the "label:"-prefixed {0,1,empty} label columns and
an optional trailing label_source column. A non-IID synthetic generator
produces the same shape of data from per-subject Dirichlet label priors.
The model reads fixed-length windows of those rows, held as one ``Windows``
array set (features, bool targets and masks); splits, training batches and
evaluation index its arrays.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .util import atomic_write_json, derive_seed

__all__ = [
    "EXTRASENSORY_FEATURES",
    "EXTRASENSORY_LABELS",
    "SubjectRecord",
    "parse_extrasensory_csv",
    "write_subject_csv",
    "load_subject_dir",
    "FoldPlan",
    "build_fold_plan",
    "Standardizer",
    "fit_standardizer",
    "apply_standardizer",
    "Windows",
    "make_windows",
    "split_train_test",
    "carve_validation",
    "SplitWarning",
    "SyntheticSpec",
    "gen_synthetic",
]

EXTRASENSORY_FEATURES = 225
EXTRASENSORY_LABELS = 51

GAP_FACTOR = 5.0
STD_FLOOR = 1e-6
_INT64 = np.iinfo(np.int64)
_LABEL_VALUES = {"": math.nan, "0": 0.0, "1": 1.0, "0.0": 0.0, "1.0": 1.0}


class SplitWarning(UserWarning):
    """A subject had too few windows for a meaningful train/test split."""


@dataclass
class SubjectRecord:
    """Time-ordered per-minute rows for one subject. NaN marks missing."""

    subject_id: str
    timestamps: np.ndarray  # int64 [N] seconds, strictly increasing
    features: np.ndarray    # float32 [N, F], NaN = missing
    labels: np.ndarray      # float32 [N, L], values {0, 1, NaN}
    feature_names: list[str] = field(default_factory=list)
    label_names: list[str] = field(default_factory=list)

    @property
    def n_minutes(self) -> int:
        return len(self.timestamps)


def parse_extrasensory_csv(source, subject_id: str | None = None) -> SubjectRecord:
    """Parse one subject CSV (path, or text stream) into a SubjectRecord.

    Columns are classified by header name: "timestamp", "label:*" labels,
    optional trailing "label_source" (ignored), everything else a feature.
    Rows are sorted by timestamp. Empty and "nan" feature cells become NaN
    (missing); an infinite one, or one beyond float32's range, is a
    FormatError. Empty label cells become NaN (missing), other label cells
    must be 0 or 1.
    """
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if subject_id is None:
            subject_id = _subject_of(os.path.basename(path))
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            return parse_extrasensory_csv(fh, subject_id)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty file: no header row") from None
    if not header or header[0] != "timestamp":
        raise FormatError(f"first column must be 'timestamp', got {header[:1]!r}")

    feature_names, label_names = [], []
    for i, name in enumerate(header[1:], start=1):
        if name == "label_source":
            if i != len(header) - 1:
                raise FormatError("label_source must be the trailing column")
        elif name.startswith("label:"):
            label_names.append(name)
        elif label_names:
            raise FormatError(f"feature column {name!r} after label columns")
        else:
            feature_names.append(name)
    if not feature_names or not label_names:
        raise FormatError("need at least one feature and one label column")
    # features are columns 1..f_end-1, labels f_end..l_end-1
    f_end = 1 + len(feature_names)
    l_end = f_end + len(label_names)

    times, feats, labs = [], [], []
    # a cell beyond float32 casts to inf, which is refused below
    with np.errstate(over="ignore"):
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"row {row_no}: {len(row)} cells, header has {len(header)}")
            try:
                t = int(float(row[0]))  # OverflowError for +-inf
                if not _INT64.min <= t <= _INT64.max:
                    raise OverflowError
            except (ValueError, OverflowError):
                raise FormatError(f"row {row_no}: bad timestamp {row[0]!r}") from None
            times.append(t)
            try:
                frow = np.array([float(c or "nan") for c in row[1:f_end]], dtype=np.float32)
            except ValueError:
                _refuse_cell(row_no, header, row, 1, lambda c: float(c or "nan"), "bad value")
            if np.isinf(frow).any():
                col = 1 + int(np.isinf(frow).argmax())
                raise FormatError(f"row {row_no}, column {header[col]!r}: "
                                  f"{row[col]!r} is not a finite float32")
            try:
                labs.append([_LABEL_VALUES[c] for c in row[f_end:l_end]])
            except KeyError:
                _refuse_cell(row_no, header, row, f_end, _LABEL_VALUES.__getitem__,
                             "label must be 0/1/empty, got")
            feats.append(frow)

    if not times:
        raise FormatError("file has a header but no data rows")
    ts = np.asarray(times, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if len(ts) > 1 and (np.diff(ts) == 0).any():
        raise FormatError("duplicate timestamps")
    return SubjectRecord(
        subject_id=subject_id or "unknown",
        timestamps=ts,
        features=np.stack(feats)[order],
        labels=np.array(labs, dtype=np.float32)[order],
        feature_names=feature_names,
        label_names=label_names,
    )


def _refuse_cell(row_no: int, header: list[str], row: list[str], start: int,
                 convert, what: str):
    """Raise the FormatError naming the first cell from ``start`` that ``convert`` refuses."""
    for col in range(start, len(row)):
        try:
            convert(row[col])
        except (ValueError, KeyError):
            raise FormatError(
                f"row {row_no}, column {header[col]!r}: {what} {row[col]!r}") from None


def write_subject_csv(record: SubjectRecord, path: str) -> None:
    """Write a SubjectRecord in the same format parse_extrasensory_csv reads."""
    feature_names = record.feature_names or [f"f{i:03d}" for i in range(record.features.shape[1])]
    label_names = record.label_names or [f"label:L{i:02d}" for i in range(record.labels.shape[1])]
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *feature_names, *label_names])
        for t, frow, lrow in zip(record.timestamps.tolist(), record.features, record.labels):
            # csv writes a float as its repr; NaN (v != v) is an empty cell
            writer.writerow([t, *["" if v != v else v for v in frow.tolist()],
                             *["" if v != v else int(v) for v in lrow.tolist()]])


def _subject_of(file_name: str) -> str:
    """The subject a CSV's file name names: the name without ``.csv`` or ``.csv.gz``."""
    for ext in (".csv.gz", ".csv"):
        if file_name.endswith(ext):
            return file_name[: -len(ext)]
    return file_name


def load_subject_dir(path: str, subject_ids=None) -> list[SubjectRecord]:
    """Parse the *.csv / *.csv.gz files in a directory, sorted by filename.

    With ``subject_ids``, only the files of those subjects are parsed, and
    an id without a file is left for the caller to refuse. The first file
    parsed sets the feature and label names, in order, that every other
    parsed file must match; a FormatError names the first column that
    differs. So is a second file of one subject (``x.csv`` beside
    ``x.csv.gz``).
    """
    names = sorted(n for n in os.listdir(path)
                   if n.endswith(".csv") or n.endswith(".csv.gz"))
    if not names:
        raise FormatError(f"no subject CSVs found in {path}")
    if subject_ids is not None:
        wanted = set(subject_ids)
        names = [n for n in names if _subject_of(n) in wanted]
    records: list[SubjectRecord] = []
    files: dict[str, str] = {}
    schema = None
    for name in names:
        rec = parse_extrasensory_csv(os.path.join(path, name))
        first = files.setdefault(rec.subject_id, name)
        if first != name:
            raise FormatError(f"{path}: {first} and {name} are both subject {rec.subject_id}")
        columns = rec.feature_names + rec.label_names
        if schema is None:
            schema = columns
        elif columns != schema:
            k = next((k for k, (a, b) in enumerate(zip(columns, schema)) if a != b),
                     min(len(columns), len(schema)))
            got = repr(columns[k]) if k < len(columns) else "missing"
            want = repr(schema[k]) if k < len(schema) else "none"
            raise FormatError(f"{os.path.join(path, name)}: column {k + 2} is {got}, "
                              f"but {names[0]} has {want}")
        records.append(rec)
    return records


def _fields(d, keys, what: str) -> list:
    """The values of ``keys`` in the JSON object ``d``; a FormatError if one is missing."""
    if not isinstance(d, dict):
        raise FormatError(f"{what} is not a JSON object")
    for key in keys:
        if key not in d:
            raise FormatError(f"{what} has no {key!r} key")
    return [d[key] for key in keys]


def _read_json(path: str, from_json_dict):
    """``from_json_dict`` of a JSON file; any fault in it is a FormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return from_json_dict(json.load(fh))
        except (ValueError, FormatError) as exc:  # JSONDecodeError is a ValueError
            raise FormatError(f"{path}: {exc}") from None


@dataclass
class FoldPlan:
    """Disjoint client folds plus, per fold, the complement base subjects."""

    n_folds: int
    seed: int
    folds: list[list[str]]
    base_subjects: list[list[str]]

    def to_json_dict(self) -> dict:
        return {"n_folds": self.n_folds, "seed": self.seed,
                "folds": self.folds, "base_subjects": self.base_subjects}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FoldPlan":
        n_folds, seed, folds, base = _fields(
            d, ("n_folds", "seed", "folds", "base_subjects"), "fold plan")
        if type(n_folds) is not int or n_folds < 1:  # a bool is no count either
            raise FormatError(f"fold plan n_folds must be a positive integer, got {n_folds!r}")
        if not (isinstance(folds, list) and isinstance(base, list)
                and n_folds == len(folds) == len(base)):
            raise FormatError(f"fold plan has n_folds {n_folds!r} but does not list "
                              "that many folds and base-subject lists")
        if not all(isinstance(ids, list) and all(isinstance(s, str) for s in ids)
                   for ids in folds + base):
            raise FormatError("fold plan folds and base_subjects must be lists of subject ids")
        for ids in [[s for fold in folds for s in fold]] + base:  # all folds, each base list
            twice = [s for i, s in enumerate(ids) if s in ids[:i]]
            if twice:
                raise FormatError(f"fold plan lists subject {twice[0]!r} twice")
        for k, (fold, base_ids) in enumerate(zip(folds, base)):
            leaked = [s for s in base_ids if s in fold]
            if leaked:
                raise FormatError(f"fold plan fold {k} lists subject {leaked[0]!r} "
                                  "among its base subjects too")
        return cls(n_folds, seed, folds, base)

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "FoldPlan":
        return _read_json(path, cls.from_json_dict)


def build_fold_plan(subject_ids, seed: int, n_folds: int = 5) -> FoldPlan:
    """Shuffle subjects with the seed and cut them into n_folds equal folds."""
    ids = list(subject_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate subject ids in fold plan input")
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    if not ids or len(ids) % n_folds != 0:
        raise ConfigError(
            f"{len(ids)} subjects cannot be split into {n_folds} equal folds")
    per = len(ids) // n_folds
    rng = np.random.default_rng(derive_seed(seed, "fold-plan"))
    shuffled = [ids[i] for i in rng.permutation(len(ids))]
    folds = [sorted(shuffled[i * per:(i + 1) * per]) for i in range(n_folds)]
    all_sorted = sorted(ids)
    base = [[s for s in all_sorted if s not in set(f)] for f in folds]
    return FoldPlan(n_folds=n_folds, seed=seed, folds=folds, base_subjects=base)


@dataclass
class Standardizer:
    """Per-feature mean/std fitted on present values of the base subjects."""

    mean: np.ndarray  # float64 [F]
    std: np.ndarray   # float64 [F], floored at STD_FLOOR

    def to_json_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Standardizer":
        mean, std = _fields(d, ("mean", "std"), "standardizer")
        try:
            mean = np.asarray(mean, dtype=np.float64)
            std = np.asarray(std, dtype=np.float64)
        except (TypeError, ValueError):
            raise FormatError("standardizer mean and std must be lists of numbers") from None
        if mean.ndim != 1 or std.shape != mean.shape:
            raise FormatError("standardizer mean and std must be 1-D and of equal length, "
                              f"got shapes {mean.shape} and {std.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise FormatError("standardizer mean and std must be finite, with every std > 0")
        return cls(mean, std)

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "Standardizer":
        return _read_json(path, cls.from_json_dict)


def fit_standardizer(records: list[SubjectRecord]) -> Standardizer:
    """Population mean/std per feature over present values only.

    Features with no present value get mean 0 / std 1; stds are floored at
    STD_FLOOR so constant columns standardize to exactly 0.
    """
    if not records:
        raise ConfigError("cannot fit a standardizer on zero records")
    x = np.concatenate([r.features for r in records]).astype(np.float64)
    present = ~np.isnan(x)
    count = present.sum(axis=0)
    safe = np.where(present, x, 0.0)
    total = safe.sum(axis=0)
    mean = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    sq = np.where(present, (x - mean) ** 2, 0.0).sum(axis=0)
    var = np.divide(sq, count, out=np.ones_like(sq), where=count > 0)
    std = np.where(count > 0, np.maximum(np.sqrt(var), STD_FLOOR), 1.0)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(record: SubjectRecord, standardizer: Standardizer) -> SubjectRecord:
    """(x - mean) / std, then missing features -> 0."""
    if record.features.shape[1] != standardizer.mean.shape[0]:
        raise ConfigError(
            f"standardizer has {standardizer.mean.shape[0]} features, "
            f"record has {record.features.shape[1]}")
    z = (record.features.astype(np.float64) - standardizer.mean) / standardizer.std
    z = np.nan_to_num(z, nan=0.0).astype(np.float32)
    return SubjectRecord(
        subject_id=record.subject_id,
        timestamps=record.timestamps,
        features=z,
        labels=record.labels,
        feature_names=record.feature_names,
        label_names=record.label_names,
    )


@dataclass(eq=False)
class Windows:
    """Fixed-length model inputs, one row per window, zero-padded past each window's end.

    A sequence of one-window sets: ``len`` counts the windows, and an int, a
    slice or an index array picks windows out of every array at once.
    label_mask is False where the label was missing or the position is
    padding; padded positions also have pad_mask False and zero
    features/targets.
    """

    subject_ids: np.ndarray  # str [n]
    features: np.ndarray     # float32 [n, P, F]
    targets: np.ndarray      # bool [n, P, L]
    label_mask: np.ndarray   # bool [n, P, L]
    pad_mask: np.ndarray     # bool [n, P]

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __getitem__(self, idx) -> "Windows":
        if isinstance(idx, (int, np.integer)):
            i = range(len(self))[idx]  # IndexError past either end, which ends iteration
            idx = slice(i, i + 1)
        return Windows(*(a[idx] for a in vars(self).values()))

    @classmethod
    def concat(cls, parts) -> "Windows":
        """One set of every window in ``parts``, a sequence of Windows, in order."""
        parts = [vars(p).values() for p in parts]
        if not parts:
            raise ConfigError("no window sets to join")
        return cls(*(np.concatenate(a) for a in zip(*parts)))


def make_windows(record: SubjectRecord, n_positions: int) -> Windows:
    """Cut a record into non-overlapping windows of n_positions minutes.

    A gap greater than GAP_FACTOR x the median sampling interval starts a
    new chunk; each chunk is sliced into windows, the final short window is
    zero-padded. Concatenating the unpadded positions of all windows in
    order reproduces the record's rows.
    """
    if n_positions < 1:
        raise ConfigError(f"n_positions must be >= 1, got {n_positions}")
    n = record.n_minutes
    if n > 1:
        gaps = np.diff(record.timestamps)
        breaks = np.flatnonzero(gaps > GAP_FACTOR * float(np.median(gaps))) + 1
    else:
        breaks = np.array([], dtype=np.int64)
    # each row's window and position in it: a window starts at every
    # n_positions-th row of a chunk
    rows = np.arange(n)
    chunk_start = np.concatenate([[0], breaks])[np.searchsorted(breaks, rows, side="right")]
    pos = (rows - chunk_start) % n_positions
    win = np.cumsum(pos == 0) - 1
    shape = (int(np.count_nonzero(pos == 0)), n_positions)

    features = np.zeros((*shape, record.features.shape[1]), dtype=np.float32)
    targets = np.zeros((*shape, record.labels.shape[1]), dtype=bool)
    label_mask = np.zeros_like(targets)
    pad_mask = np.zeros(shape, dtype=bool)
    features[win, pos] = np.nan_to_num(record.features, nan=0.0)
    present = ~np.isnan(record.labels)
    targets[win, pos] = np.where(present, record.labels, 0.0) > 0
    label_mask[win, pos] = present
    pad_mask[win, pos] = True
    return Windows(np.full(shape[0], record.subject_id), features, targets, label_mask,
                   pad_mask)


def _by_subject(windows: Windows) -> list[tuple[str, np.ndarray]]:
    """(subject id, its window indices in order) per subject, sorted by id."""
    ids, inverse = np.unique(windows.subject_ids, return_inverse=True)
    return [(sid, np.flatnonzero(inverse == k)) for k, sid in enumerate(ids.tolist())]


def split_train_test(windows, ratio: float = 0.8, seed: int = 0) -> tuple[Windows, Windows]:
    """Seeded per-subject random split at window granularity.

    ``windows`` is a sequence of Windows (a Windows is one), joined in order.
    Each subject keeps round(ratio * n) windows for training; both halves
    hold the subjects in id order, each subject's windows in their order.
    Subjects with fewer than two windows put everything in train and emit a
    SplitWarning.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    windows = Windows.concat(windows)
    train = np.zeros(len(windows), dtype=bool)
    for sid, idx in _by_subject(windows):
        if len(idx) < 2:
            warnings.warn(f"subject {sid} has {len(idx)} window(s); all go to train",
                          SplitWarning, stacklevel=2)
            train[idx] = True
            continue
        rng = np.random.default_rng(derive_seed(seed, "split", sid))
        perm = rng.permutation(len(idx))
        n_train = int(round(ratio * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train[idx[perm[:n_train]]] = True
    order = np.argsort(windows.subject_ids, kind="stable")
    return windows[order[train[order]]], windows[order[~train[order]]]


def carve_validation(train_windows: Windows, frac: float = 0.1) -> tuple[Windows, Windows]:
    """Hold out the last ``frac`` of each subject's train windows for scoring."""
    if not 0.0 < frac < 1.0:
        raise ConfigError(f"validation fraction must be in (0, 1), got {frac}")
    val = np.zeros(len(train_windows), dtype=bool)
    for _, idx in _by_subject(train_windows):
        if len(idx) >= 2:
            val[idx[-max(1, int(round(frac * len(idx)))):]] = True
    return train_windows[~val], train_windows[val]


@dataclass
class SyntheticSpec:
    """Knobs for the non-IID synthetic generator."""

    n_subjects: int = 60
    minutes_per_subject: int = 240
    n_features: int = EXTRASENSORY_FEATURES
    n_labels: int = EXTRASENSORY_LABELS
    alpha: float = 0.2
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "minutes_per_subject", "n_features", "n_labels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be >= 0 and finite, got {self.noise_std}")


AR_COEF = 0.5
AR_STD = 0.1
ACTIVATION_RATE = 0.3
ACTIVATION_CAP = 0.9
_BASE_TIMESTAMP = 1_400_000_000


def gen_synthetic(spec: SyntheticSpec) -> list[SubjectRecord]:
    """Per-subject Dirichlet(alpha) label priors over shared label prototypes.

    Each label owns a global N(0,1) prototype vector. A minute's features
    are the sum of its active labels' prototypes plus an AR(1) drift
    (coefficient AR_COEF, innovation std AR_STD) plus white noise of
    spec.noise_std. Label l fires with probability
    min(ACTIVATION_CAP, n_labels * prior_l * ACTIVATION_RATE), so small
    alpha concentrates each subject on a few labels.
    """
    proto_rng = np.random.default_rng(derive_seed(spec.seed, "prototypes"))
    prototypes = proto_rng.normal(0.0, 1.0, size=(spec.n_labels, spec.n_features))
    feature_names = [f"f{i:03d}" for i in range(spec.n_features)]
    label_names = [f"label:SYN_{i:02d}" for i in range(spec.n_labels)]

    records = []
    minutes = spec.minutes_per_subject
    for s in range(spec.n_subjects):
        rng = np.random.default_rng(derive_seed(spec.seed, "subject", s))
        prior = rng.dirichlet(np.full(spec.n_labels, spec.alpha))
        p_active = np.minimum(ACTIVATION_CAP, spec.n_labels * prior * ACTIVATION_RATE)
        labels = (rng.random((minutes, spec.n_labels)) < p_active).astype(np.float32)

        innovations = rng.normal(0.0, AR_STD, size=(minutes, spec.n_features))
        ar = np.zeros((minutes, spec.n_features))
        drift = np.zeros(spec.n_features)
        for t in range(minutes):
            drift = AR_COEF * drift + innovations[t]
            ar[t] = drift
        feats = labels @ prototypes + ar
        if spec.noise_std > 0.0:
            feats = feats + rng.normal(0.0, spec.noise_std, size=feats.shape)

        records.append(SubjectRecord(
            subject_id=f"synth-{s:03d}",
            timestamps=_BASE_TIMESTAMP + 60 * np.arange(minutes, dtype=np.int64),
            features=feats.astype(np.float32),
            labels=labels,
            feature_names=feature_names,
            label_names=label_names,
        ))
    return records
