"""Recovery-quality and detection metrics.

Text fidelity: sentence-level BLEU-4 against a single reference and
exact-match rate.  Detection: ROC curve with a tie-aware trapezoid
AUC (equal to the Mann-Whitney statistic with half credit for ties)
and operating-point selection at a target false-positive rate, both
from one array sort (a tied group's threshold is its first occurrence,
the one of least input index).  Scores enter as a float64 array and a
bool label array, or as a ScoredSample list turned into those once.
Memorization: fraction of a sentence's 4-grams absent from a
training-corpus index.
"""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._fileio import atomic_write
from .errors import DegenerateLabelsError, DomainError

BLEU_EPS = 1e-9
NGRAM_ORDER = 4


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu4(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Sentence BLEU-4 on a 0..100 scale.

    Clipped modified precisions for orders 1..4, an epsilon floor on
    zero counts, and the usual brevity penalty exp(1 - r/c) when the
    candidate is shorter than the reference.
    """
    if len(candidate) == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, NGRAM_ORDER + 1):
        cand = Counter(_ngrams(candidate, n))
        ref = Counter(_ngrams(reference, n))
        total = sum(cand.values())
        clipped = sum(min(count, ref[gram]) for gram, count in cand.items())
        if total == 0:  # candidate shorter than n tokens
            p = BLEU_EPS
        else:
            p = max(clipped, BLEU_EPS) / total
        log_sum += math.log(p)
    bp = 1.0
    if len(candidate) < len(reference):
        bp = math.exp(1.0 - len(reference) / len(candidate))
    return 100.0 * bp * math.exp(log_sum / NGRAM_ORDER)


def exact_match(pairs: Sequence[tuple]) -> float:
    """Fraction of (recovered, original) pairs that compare equal."""
    if len(pairs) == 0:
        raise DomainError("exact_match needs at least one pair")
    return sum(a == b for a, b in pairs) / len(pairs)


@dataclass(frozen=True)
class ScoredSample:
    score: float
    label: bool  # True = watermarked (positive)

    def __post_init__(self):
        if not math.isfinite(float(self.score)):
            raise DomainError(f"score must be finite, got {self.score!r}")


@dataclass(frozen=True, eq=False)
class RocResult:
    """ROC curve as three read-only arrays of one row per point: a sample
    is predicted positive when its score >= cuts[i], which gives
    (fpr[i], tpr[i]).  cuts holds the distinct scores descending, led by
    the inf anchor at (0, 0)."""

    cuts: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def thresholds(self) -> tuple[float, ...]:
        """The cuts after the anchor, as Python floats."""
        return tuple(self.cuts[1:].tolist())

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """(fpr, tpr) pairs, anchor first, as Python floats."""
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist()))


def _arrays(samples, labels) -> tuple[np.ndarray, np.ndarray]:
    """float64 scores and bool positives, from a ScoredSample sequence
    (labels None) or from a score array and its label array; a
    non-finite score raises DomainError."""
    if labels is None:
        # struct packs Python floats and truth values about twice as fast
        # as numpy converts them one object at a time
        n = len(samples)
        scores = np.frombuffer(struct.pack(f"{n}d", *[s.score for s in samples]))
        positive = np.frombuffer(struct.pack(f"{n}?", *[s.label for s in samples]), bool)
    else:
        scores = np.asarray(samples, dtype=np.float64)
        positive = np.asarray(labels, dtype=bool)
        if scores.ndim != 1 or positive.shape != scores.shape:
            raise DomainError(f"want one label per score, got shapes {scores.shape} "
                              f"and {positive.shape}")
    finite = np.isfinite(scores)
    if not finite.all():
        raise DomainError(f"score must be finite, got {float(scores[~finite][0])!r}")
    return scores, positive


def _sweep(scores: np.ndarray, positive: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores descending, and int64 #pos and #neg at or above each,
    all three led by the (inf, 0, 0) anchor.

    One array sort, which need not be stable, groups tied scores; a
    group's threshold is its first occurrence (least input index), so a
    tied 0.0/-0.0 group keeps the sign seen first, whatever order the
    sort leaves the group in.
    """
    if not len(scores):
        return np.array([math.inf]), np.zeros(1, np.int64), np.zeros(1, np.int64)
    order = np.argsort(-scores)
    ranked = scores[order]
    # a group starts where the sorted score changes; 0.0 == -0.0, so they tie
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    # seen[i] samples score at or above cuts[i]: 0 at the anchor (starts[0]
    # is 0), then each next group's start, then all of them
    seen = np.append(starts, len(ranked))
    tp = np.concatenate([[0], np.cumsum(positive[order])[seen[1:] - 1]])
    first = np.minimum.reduceat(order, starts)
    return np.concatenate([[math.inf], scores[first]]), tp, seen - tp


def roc(samples: Sequence[ScoredSample] | np.ndarray, *,
        labels: np.ndarray | None = None) -> RocResult:
    """ROC by descending-threshold sweep; a sample is predicted
    positive when score >= threshold.  Tied scores move as one group.

    `samples` is a ScoredSample sequence, or, with `labels` (True for a
    positive), a float score array.

    The AUC accumulates in exact integer arithmetic (twice the
    Mann-Whitney count, ties worth half) and divides once, so equal
    inputs give bit-equal results regardless of group order.
    """
    return _roc(*_sweep(*_arrays(samples, labels)))


def _roc(cuts: np.ndarray, tp: np.ndarray, fp: np.ndarray) -> RocResult:
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives")
    # a negative loses to the positives above its group and ties those in it;
    # the int64 sum is at most n**2 / 2, so it is exact for n < 2**32 samples
    twice_u = int(np.diff(fp) @ (tp[:-1] + tp[1:]))
    fpr, tpr = fp / n_neg, tp / n_pos
    for column in (cuts, fpr, tpr):
        column.flags.writeable = False
    return RocResult(cuts=cuts, fpr=fpr, tpr=tpr, auc=twice_u / (2 * n_pos * n_neg))


@dataclass(frozen=True)
class OperatingPoint:
    target_fpr: float
    threshold: float
    achieved_tpr: float
    achieved_fpr: float

    def __post_init__(self):
        if self.achieved_fpr > self.target_fpr:
            raise DomainError(
                f"achieved fpr {self.achieved_fpr} exceeds target {self.target_fpr}")

    def to_json_dict(self) -> dict:
        return asdict(self)


def roc_with_operating_points(samples: Sequence[ScoredSample] | np.ndarray,
                              target_fprs: Sequence[float], *,
                              labels: np.ndarray | None = None
                              ) -> tuple[RocResult, list[OperatingPoint]]:
    """`roc` and then `threshold_at_fpr` for each target in turn, from
    one sweep.

    Results and errors are those of these calls, made in that order.
    """
    groups = _sweep(*_arrays(samples, labels))
    return _roc(*groups), _operating_points(*groups, target_fprs)


def _check_target(target_fpr: float) -> None:
    if not 0.0 < target_fpr <= 1.0:
        raise DomainError(f"target fpr {target_fpr} outside (0, 1]")


def _operating_points(cuts: np.ndarray, tps: np.ndarray, fps: np.ndarray,
                      target_fprs: Sequence[float]) -> list[OperatingPoint]:
    points: list[OperatingPoint] = []
    n_pos, n_neg = int(tps[-1]), int(fps[-1])
    if n_neg == 0:
        raise DegenerateLabelsError("need at least one negative sample")
    fprs = fps / n_neg
    for target_fpr in target_fprs:
        _check_target(target_fpr)
        # fp never falls along the sweep, so the passing groups are a prefix
        k = int(np.searchsorted(fprs, target_fpr, side="right")) - 1
        chosen = float(cuts[k])
        if k == 0:  # only the anchor passes: reject every sample
            chosen = float(cuts[1]) + 1.0
            if chosen == cuts[1]:
                raise DomainError(
                    f"max score {chosen!r} is at or beyond 2**53 in magnitude, where max "
                    "score + 1 rounds back to the max, so no threshold rejects every sample")
        tp, fp = int(tps[k]), int(fps[k])
        points.append(OperatingPoint(target_fpr=target_fpr, threshold=chosen,
                                     achieved_tpr=tp / n_pos if n_pos else 0.0,
                                     achieved_fpr=fp / n_neg))
    return points


def threshold_at_fpr(samples: Sequence[ScoredSample] | np.ndarray, target_fpr: float, *,
                     labels: np.ndarray | None = None) -> OperatingPoint:
    """Smallest observed score whose false-positive rate is within target.

    One O(n log n) descending sweep shared with `roc`: the threshold is
    the last distinct score in that order with fp / n_neg <= target_fpr,
    compared as that exact float division.  If even the largest score
    misses, the threshold is max score + 1 (rejects everything), or
    DomainError if that rounds back to the max (at or beyond 2**53).
    Positives are optional; with none, achieved_tpr is 0.  `samples`
    and `labels` are as in `roc`.
    """
    _check_target(target_fpr)
    return _operating_points(*_sweep(*_arrays(samples, labels)), [target_fpr])[0]


@dataclass(frozen=True)
class NgramIndex:
    """Set of NGRAM_ORDER-grams seen in a training corpus."""

    grams: frozenset

    @classmethod
    def from_lines(cls, lines: Sequence[str]) -> "NgramIndex":
        grams = set()
        for line in lines:
            grams.update(_ngrams(line.split(), NGRAM_ORDER))
        return cls(grams=frozenset(grams))


def novelty_score(tokens: Sequence[str], index: NgramIndex) -> float | None:
    """Fraction of the sentence's n-gram occurrences not in the index.

    Sentences shorter than NGRAM_ORDER tokens have no n-grams and return
    None (not applicable) rather than a misleading 0 or 1.
    """
    if len(tokens) < NGRAM_ORDER:
        return None
    grams = _ngrams(tokens, NGRAM_ORDER)
    novel = sum(g not in index.grams for g in grams)
    return novel / len(grams)


_CSV_BLOCK = 1 << 16  # rows formatted per write


def write_roc_csv(result: RocResult, path: str) -> None:
    """threshold,fpr,tpr rows; the (0,0) anchor gets threshold inf."""
    row = "{:.10g},{:.6f},{:.6f}\n".format
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fpr,tpr\n")
        for at in range(0, len(result.cuts), _CSV_BLOCK):
            block = slice(at, at + _CSV_BLOCK)
            fh.write("".join(map(row, result.cuts[block].tolist(),
                                 result.fpr[block].tolist(), result.tpr[block].tolist())))
