"""Per-label confusion counts, balanced accuracy, and report containers.

Balanced accuracy for one label is the mean of specificity and recall:
0.5 * (tn / (tn + fp) + tp / (tp + fn)). A label is undefined for a client
when its test data lacks positives or lacks negatives; undefined labels
are excluded from that client's mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateReportError, ShapeError

__all__ = [
    "ConfusionCounts",
    "accumulate_confusion",
    "confusion_from_arrays",
    "balanced_accuracy",
    "client_mean_ba",
    "ClientReport",
    "FoldReport",
    "fold_summary",
]


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _count(pred, target, mask) -> list[ConfusionCounts]:
    """Per-label counts over same-shaped [..., L] arrays: the one confusion count."""
    p, t, m = (np.asarray(a, dtype=bool) for a in (pred, target, mask))
    if p.shape != t.shape or p.shape != m.shape:
        raise ShapeError(f"pred {p.shape}, target {t.shape}, mask {m.shape} must agree")
    axes = tuple(range(p.ndim - 1))
    tp = (p & t & m).sum(axis=axes)
    tn = (~p & ~t & m).sum(axis=axes)
    fp = (p & ~t & m).sum(axis=axes)
    fn = (~p & t & m).sum(axis=axes)
    return [ConfusionCounts(int(tp[l]), int(tn[l]), int(fp[l]), int(fn[l]))
            for l in range(p.shape[-1])]


def accumulate_confusion(pred, target, mask, counts: ConfusionCounts) -> ConfusionCounts:
    """Add masked {0,1} predictions against targets into counts (in place).

    Accepts scalars or same-shaped arrays; masked-out elements contribute
    nothing.
    """
    (c,) = _count(*(np.expand_dims(a, -1) for a in (pred, target, mask)))
    counts.tp += c.tp
    counts.tn += c.tn
    counts.fp += c.fp
    counts.fn += c.fn
    return counts


def confusion_from_arrays(pred, target, mask) -> list[ConfusionCounts]:
    """Per-label counts from [..., L] prediction/target/mask arrays."""
    return _count(pred, target, mask)


def balanced_accuracy(counts: ConfusionCounts) -> float | None:
    """0.5 * (specificity + recall); None when either class is absent."""
    neg = counts.tn + counts.fp
    pos = counts.tp + counts.fn
    if neg == 0 or pos == 0:
        return None
    return 0.5 * (counts.tn / neg + counts.tp / pos)


def client_mean_ba(per_label_ba) -> float:
    """Mean over defined labels; raises if every label is undefined."""
    defined = [b for b in per_label_ba if b is not None]
    if not defined:
        raise DegenerateReportError("no label has a defined balanced accuracy")
    return float(np.mean(defined))


@dataclass
class ClientReport:
    """One client's evaluation: per-label counts, BAs, and their mean."""

    subject_id: str
    counts: list[ConfusionCounts]
    per_label_ba: list[float | None]
    mean_ba: float
    defined_labels: int
    n_eval_instances: int
    label_names: list[str] = field(default_factory=list)

    @classmethod
    def from_counts(cls, subject_id: str, counts: list[ConfusionCounts],
                    label_names: list[str] | None = None) -> "ClientReport":
        bas = [balanced_accuracy(c) for c in counts]
        try:
            mean_ba = client_mean_ba(bas)
        except DegenerateReportError as exc:
            raise DegenerateReportError(f"subject {subject_id}: {exc}") from None
        return cls(
            subject_id=subject_id,
            counts=counts,
            per_label_ba=bas,
            mean_ba=mean_ba,
            defined_labels=sum(b is not None for b in bas),
            n_eval_instances=sum(c.total for c in counts),
            label_names=list(label_names) if label_names else [],
        )

    def _label_name(self, i: int) -> str:
        if self.label_names and i < len(self.label_names):
            return self.label_names[i]
        return f"label_{i}"

    def to_json_dict(self) -> dict:
        per_label = {self._label_name(i): b
                     for i, b in enumerate(self.per_label_ba) if b is not None}
        return {
            "subject_id": self.subject_id,
            "mean_ba": self.mean_ba,
            "defined_labels": self.defined_labels,
            "per_label": per_label,
            "n_eval_instances": self.n_eval_instances,
        }


@dataclass
class FoldReport:
    """Eval summary over one fold's clients."""

    fold: int
    clients: list[ClientReport]
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "fold": self.fold,
            "clients": [c.to_json_dict() for c in self.clients],
            "summary": self.summary,
        }


def fold_summary(clients: list[ClientReport], fold: int = 0) -> FoldReport:
    """Aggregate client mean-BAs into mean/median/quartiles/min/max."""
    if not clients:
        raise DegenerateReportError("fold summary over zero clients")
    vals = np.asarray([c.mean_ba for c in clients], dtype=np.float64)
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    summary = {
        "mean": float(vals.mean()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }
    return FoldReport(fold=fold, clients=list(clients), summary=summary)
