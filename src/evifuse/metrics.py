"""Evaluation: accuracy, binary AUC, calibration error, OOD protocol.

Reports are computed on (N,) columns of predictions, confidences and labels
(`report_from_arrays`); `metrics_report`, `ece` and `accuracy` take
EvalRecords and read the same columns out of them.

The calibration binning is upper-closed, ((m-1)/M, m/M], with confidence 0
assigned to the first bin. The OOD protocol pools validation and test
uncertainties, min-max scales the pool to [0, 1], and thresholds at a
percentile of the pooled scaled values; samples strictly above the threshold
are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._casts import _cast_fields, _integer, _integers, _numeric, _real

_UNIT_TOL = 1e-9

# Most calibration bins a report may ask for. Each bin costs one entry in
# the report, so a larger count buys no resolution on any realistic sample
# size and only time and memory.
MAX_BINS = 10_000


def check_unit_interval(name: str, values) -> None:
    """Raise ValueError unless every value lies in [0, 1], up to 1e-9."""
    values = _numeric(values, name)
    if not np.all((values >= -_UNIT_TOL) & (values <= 1.0 + _UNIT_TOL)):
        raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated sample: prediction, its confidence, uncertainty, truth."""

    predicted: int = field(metadata={"cast": _integer})
    confidence: float = field(metadata={"cast": _real})
    uncertainty: float = field(metadata={"cast": _real})
    label: int = field(metadata={"cast": _integer})
    id: str

    def __post_init__(self):
        _cast_fields(self)
        check_unit_interval("confidence", self.confidence)
        check_unit_interval("uncertainty", self.uncertainty)
        object.__setattr__(self, "id", str(self.id))

    @property
    def correct(self) -> bool:
        return self.predicted == self.label


def check_num_bins(num_bins: int) -> int:
    """The calibration bin count as an int; a ValueError unless it lies in [1, MAX_BINS]."""
    num_bins = _integer(num_bins, "num_bins")
    if num_bins < 1:
        raise ValueError("need at least one bin")
    if num_bins > MAX_BINS:
        raise ValueError(f"need at most {MAX_BINS} bins, not {num_bins}")
    return num_bins


def check_percentile(percentile: float) -> float:
    """The OOD threshold percentile as a float; a ValueError unless it lies in [0, 100]."""
    percentile = _real(percentile, "percentile")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    return percentile


def _bin_index(confidences: np.ndarray, num_bins: int) -> np.ndarray:
    # ((m-1)/M, m/M] binning: ceil(conf*M) - 1, with conf == 0 kept in bin 0.
    idx = np.ceil(confidences * num_bins).astype(int) - 1
    idx[confidences <= 0.0] = 0
    return np.clip(idx, 0, num_bins - 1)


def _columns(predicted, confidence, labels):
    """Checked (N,) columns: integer predictions, confidences in [0, 1], labels."""
    predicted, labels = _integers(predicted, "predicted"), _integers(labels, "labels")
    confidence = np.asarray(_numeric(confidence, "confidence"), dtype=float)
    if predicted.size == 0:
        raise ValueError("no records")
    if confidence.shape != predicted.shape or labels.shape != predicted.shape:
        raise ValueError("predicted, confidence and labels must be matching vectors")
    check_unit_interval("confidence", confidence)
    return predicted, confidence, labels


def _record_columns(records):
    records = list(records)
    return (
        [r.predicted for r in records],
        [r.confidence for r in records],
        [r.label for r in records],
    )


def _calibration(confidence: np.ndarray, correct: np.ndarray, num_bins: int):
    """(expected calibration error, per-bin stats) over upper-closed bins.

    A bin's accuracy and mean confidence are means over its members in
    sample order; the ECE weighs each nonempty bin's gap by its share.
    A bin count outside [1, MAX_BINS] is a ValueError.
    """
    num_bins = check_num_bins(num_bins)
    idx = _bin_index(confidence, num_bins)
    # a stable sort keeps each bin's members in sample order, so a bin's
    # slice holds the values its mask would pick, in the same order
    order = np.argsort(idx, kind="stable")
    correct, confidence = correct[order], confidence[order]
    counts = np.bincount(idx, minlength=num_bins)
    ends = np.cumsum(counts)
    bins = [{"lo": m / num_bins, "hi": (m + 1) / num_bins, "count": 0, "acc": None, "conf": None}
            for m in range(num_bins)]
    total = 0.0
    for m in np.flatnonzero(counts).tolist():
        count, end = int(counts[m]), int(ends[m])
        acc = float(correct[end - count:end].mean())
        conf = float(confidence[end - count:end].mean())
        total += count / confidence.size * abs(acc - conf)
        bins[m].update(count=count, acc=acc, conf=conf)
    return total, bins


def ece(records, num_bins: int) -> float:
    """Expected calibration error over upper-closed confidence bins."""
    predicted, confidence, labels = _columns(*_record_columns(records))
    return _calibration(confidence, predicted == labels, num_bins)[0]


def _accuracy(correct: np.ndarray) -> float:
    return np.count_nonzero(correct) / correct.size


def accuracy(records) -> float:
    predicted, _, labels = _columns(*_record_columns(records))
    return _accuracy(predicted == labels)


def auc_binary(scores, labels) -> float:
    """Rank-statistic AUC for binary labels, ties getting half credit; scores must be finite."""
    scores = np.asarray(_numeric(scores, "scores"), dtype=float)
    labels = _integers(labels, "labels")
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be matching nonempty vectors")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("labels must be 0/1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    # a tie group of n scores ending at rank e has mean rank e - (n - 1) / 2
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u_stat = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


@dataclass(frozen=True, eq=False)
class OodResult:
    """Flags for both pools, the shared scaled axis and threshold, and the
    share of samples detected correctly: validation samples left unflagged
    plus test samples flagged, over both pools."""

    flags: np.ndarray
    threshold: float
    scaled_val: np.ndarray
    scaled_test: np.ndarray
    val_flags: np.ndarray
    detection_accuracy: float


def ood_detect(val_uncertainties, test_uncertainties, percentile: float = 50.0) -> OodResult:
    """Pooled min-max scaling with a percentile threshold.

    Validation and test uncertainties are pooled, scaled together to [0, 1],
    and the threshold is the given percentile of the pooled scaled values.
    Samples of either pool strictly above the threshold are flagged. A
    non-finite uncertainty is a ValueError naming its pool.
    """
    val = np.asarray(_numeric(val_uncertainties, "validation uncertainties"), dtype=float)
    test = np.asarray(_numeric(test_uncertainties, "test uncertainties"), dtype=float)
    if val.size == 0 or test.size == 0:
        raise ValueError("both uncertainty pools must be nonempty")
    for values, name in ((val, "validation"), (test, "test")):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} uncertainties must be finite")
    percentile = check_percentile(percentile)
    pool = np.concatenate([val, test])
    lo, hi = float(pool.min()), float(pool.max())
    if hi - lo <= 0.0:
        raise ValueError("uncertainty pool is constant; nothing to scale")
    scaled_val = (val - lo) / (hi - lo)
    scaled_test = (test - lo) / (hi - lo)
    threshold = float(np.percentile(np.concatenate([scaled_val, scaled_test]), percentile))
    flags, val_flags = scaled_test > threshold, scaled_val > threshold
    correct = int((~val_flags).sum()) + int(flags.sum())
    return OodResult(flags, threshold, scaled_val, scaled_test, val_flags, correct / pool.size)


def report_from_arrays(predicted, confidence, labels, num_bins: int = 10) -> dict:
    """The standard JSON-shaped report from (N,) columns: acc, auc, ece, n, bins.

    AUC is binary-only; when more than two classes are seen it is reported
    as None, and so it is when only one label value occurs. The score for
    AUC is the confidence when class 1 is predicted, else its complement,
    which equals the class-1 expected probability for K = 2.
    """
    predicted, confidence, labels = _columns(predicted, confidence, labels)
    correct = predicted == labels
    ece_value, bins = _calibration(confidence, correct, num_bins)
    auc = None
    if max(labels.max(), predicted.max()) == 1 and np.unique(labels).size == 2:
        auc = auc_binary(np.where(predicted == 1, confidence, 1.0 - confidence), labels)
    return {
        "acc": _accuracy(correct),
        "auc": auc,
        "ece": ece_value,
        "n": correct.size,
        "bins": bins,
    }


def metrics_report(records, num_bins: int = 10) -> dict:
    """`report_from_arrays` of a sequence of EvalRecords."""
    return report_from_arrays(*_record_columns(records), num_bins)
