"""Balanced accuracy against brute-force recounts and hand-worked numbers."""

import json

import numpy as np
import pytest

from fedhar.errors import DegenerateReportError, ShapeError
from fedhar.metrics import (ClientReport, ConfusionCounts, accumulate_confusion,
                            balanced_accuracy, client_mean_ba, confusion_from_arrays,
                            fold_summary)


def test_worked_example():
    # sensitivity 30/40 = 0.75, specificity 40/60 = 2/3 -> mean 0.708333...
    ba = balanced_accuracy(ConfusionCounts(tp=30, tn=40, fp=20, fn=10))
    assert ba == pytest.approx(0.7083333333333333, abs=1e-12)


def test_perfect_and_inverted_classifiers():
    assert balanced_accuracy(ConfusionCounts(tp=5, tn=5, fp=0, fn=0)) == 1.0
    assert balanced_accuracy(ConfusionCounts(tp=0, tn=0, fp=5, fn=5)) == 0.0


def test_chance_level_is_half():
    # predicting all-positive: recall 1, specificity 0
    assert balanced_accuracy(ConfusionCounts(tp=90, tn=0, fp=10, fn=0)) == 0.5
    # predicting all-negative on the same data
    assert balanced_accuracy(ConfusionCounts(tp=0, tn=10, fp=0, fn=90)) == 0.5


def test_undefined_when_a_class_is_absent():
    assert balanced_accuracy(ConfusionCounts(tp=3, tn=0, fp=0, fn=1)) is None
    assert balanced_accuracy(ConfusionCounts(tp=0, tn=9, fp=2, fn=0)) is None
    assert balanced_accuracy(ConfusionCounts()) is None


def test_class_swap_symmetry():
    """Swapping positive/negative roles everywhere keeps BA unchanged."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        tp, tn, fp, fn = rng.integers(1, 40, 4)
        a = balanced_accuracy(ConfusionCounts(int(tp), int(tn), int(fp), int(fn)))
        b = balanced_accuracy(ConfusionCounts(int(tn), int(tp), int(fn), int(fp)))
        assert a == pytest.approx(b, abs=1e-15)


def test_oracle_1000_random_triples():
    """Module BA == brute-force recount BA for random pred/target/mask."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        pred = rng.integers(0, 2, n)
        target = rng.integers(0, 2, n)
        mask = rng.integers(0, 2, n)
        counts = accumulate_confusion(pred, target, mask, ConfusionCounts())

        # independent recount with plain loops
        tp = tn = fp = fn = 0
        for p, t, m in zip(pred, target, mask):
            if not m:
                continue
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)
        got = balanced_accuracy(counts)
        if tp + fn == 0 or tn + fp == 0:
            assert got is None
        else:
            want = 0.5 * (tp / (tp + fn) + tn / (tn + fp))
            assert got == pytest.approx(want, abs=1e-12)


def test_accumulate_is_additive():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 2, 100)
    target = rng.integers(0, 2, 100)
    mask = np.ones(100)
    whole = accumulate_confusion(pred, target, mask, ConfusionCounts())
    first = accumulate_confusion(pred[:60], target[:60], mask[:60], ConfusionCounts())
    both = accumulate_confusion(pred[60:], target[60:], mask[60:], first)
    assert both is first and both == whole


def test_accumulate_shape_mismatch():
    with pytest.raises(ShapeError):
        accumulate_confusion(np.ones(3), np.ones(4), np.ones(3), ConfusionCounts())
    # the same size in another shape is a mismatch too
    with pytest.raises(ShapeError):
        accumulate_confusion(np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 3)),
                             ConfusionCounts())


def test_confusion_from_arrays_matches_per_label_loop():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 2, (4, 6, 3))
    target = rng.integers(0, 2, (4, 6, 3))
    mask = rng.integers(0, 2, (4, 6, 3))
    fast = confusion_from_arrays(pred, target, mask)
    for l in range(3):
        slow = accumulate_confusion(pred[..., l], target[..., l], mask[..., l],
                                    ConfusionCounts())
        assert fast[l] == slow


def test_client_mean_skips_undefined_labels():
    bas = [0.8, None, 0.6, None]
    assert client_mean_ba(bas) == pytest.approx(0.7)
    with pytest.raises(DegenerateReportError):
        client_mean_ba([None, None])


def test_client_report_from_counts():
    counts = [ConfusionCounts(30, 40, 20, 10),   # 0.70833
              ConfusionCounts(5, 0, 0, 5),       # undefined
              ConfusionCounts(5, 5, 0, 0)]       # 1.0
    rep = ClientReport.from_counts("s1", counts, ["label:A", "label:B", "label:C"])
    assert rep.defined_labels == 2
    assert rep.mean_ba == pytest.approx((0.7083333333333333 + 1.0) / 2)
    assert rep.n_eval_instances == 100 + 10 + 10
    d = rep.to_json_dict()
    assert set(d["per_label"]) == {"label:A", "label:C"}  # undefined dropped
    assert d["mean_ba"] == rep.mean_ba and d["defined_labels"] == 2


def test_fold_summary_statistics():
    reports = []
    for i, ba in enumerate([0.5, 0.6, 0.7, 0.8]):
        counts = [ConfusionCounts(tp=int(ba * 100), tn=100, fp=0,
                                  fn=100 - int(ba * 100))]
        # force exact mean_ba by construction: recall = ba*100/100, spec = 1
        rep = ClientReport("c%d" % i, counts,
                           [0.5 * (1 + ba)], 0.5 * (1 + ba), 1, 200)
        reports.append(rep)
    fr = fold_summary(reports, fold=3)
    vals = [0.5 * (1 + b) for b in [0.5, 0.6, 0.7, 0.8]]
    assert fr.fold == 3
    assert fr.summary["mean"] == pytest.approx(np.mean(vals))
    assert fr.summary["median"] == pytest.approx(np.median(vals))
    assert fr.summary["q1"] == pytest.approx(np.percentile(vals, 25))
    assert fr.summary["q3"] == pytest.approx(np.percentile(vals, 75))
    assert fr.summary["min"] == min(vals) and fr.summary["max"] == max(vals)


def test_fold_summary_rejects_empty():
    with pytest.raises(DegenerateReportError):
        fold_summary([])


def test_fold_report_json_round_trip():
    rep = ClientReport.from_counts("s", [ConfusionCounts(3, 3, 1, 1)], ["label:X"])
    fr = fold_summary([rep], fold=1)
    back = json.loads(json.dumps(fr.to_json_dict()))
    assert back == fr.to_json_dict()
    assert back["fold"] == 1
    assert back["summary"] == fr.summary
    assert back["clients"][0]["subject_id"] == "s"
