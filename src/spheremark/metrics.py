"""Recovery-quality and detection metrics.

Text fidelity: sentence-level BLEU-4 against a single reference and
exact-match rate.  Detection: ROC curve with a tie-aware trapezoid
AUC (equal to the Mann-Whitney statistic with half credit for ties)
and operating-point selection at a target false-positive rate.
Memorization: fraction of a sentence's 4-grams absent from a
training-corpus index.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateLabelsError, DomainError

BLEU_EPS = 1e-9
NGRAM_ORDER = 4


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


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
        cand = _ngram_counts(candidate, n)
        ref = _ngram_counts(reference, n)
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


@dataclass(frozen=True)
class RocResult:
    """ROC curve: thresholds[i] produced points[i+1]; points[0] is (0,0)."""

    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (fpr, tpr)
    auc: float


def _split_counts(samples: Sequence[ScoredSample]) -> tuple[int, int]:
    n_pos = sum(s.label for s in samples)
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives")
    return n_pos, n_neg


def roc(samples: Sequence[ScoredSample]) -> RocResult:
    """ROC by descending-threshold sweep; a sample is predicted
    positive when score >= threshold.  Tied scores move as one group.

    The AUC accumulates in exact integer arithmetic (twice the
    Mann-Whitney count, ties worth half) and divides once, so equal
    inputs give bit-equal results regardless of group order.
    """
    n_pos, n_neg = _split_counts(samples)
    by_score: dict[float, list[int]] = {}
    for s in samples:
        cell = by_score.setdefault(float(s.score), [0, 0])
        cell[0 if s.label else 1] += 1
    thresholds = sorted(by_score, reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    twice_u = 0
    for t in thresholds:
        dp, dn = by_score[t]
        twice_u += dn * (2 * tp + dp)
        tp += dp
        fp += dn
        points.append((fp / n_neg, tp / n_pos))
    auc = twice_u / (2 * n_pos * n_neg)
    return RocResult(thresholds=tuple(thresholds), points=tuple(points), auc=auc)


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
        return {
            "target_fpr": self.target_fpr,
            "threshold": self.threshold,
            "achieved_tpr": self.achieved_tpr,
            "achieved_fpr": self.achieved_fpr,
        }


def threshold_at_fpr(samples: Sequence[ScoredSample], target_fpr: float) -> OperatingPoint:
    """Smallest observed score whose false-positive rate is within target.

    When even the largest score misses the target, the returned
    threshold is max score + 1 (rejects everything).  Positives are
    optional; with none, achieved_tpr is 0.
    """
    if not 0.0 < target_fpr <= 1.0:
        raise DomainError(f"target fpr {target_fpr} outside (0, 1]")
    neg_scores = sorted(float(s.score) for s in samples if not s.label)
    if not neg_scores:
        raise DegenerateLabelsError("need at least one negative sample")
    pos_scores = [float(s.score) for s in samples if s.label]
    n_neg = len(neg_scores)

    def fpr_at(theta: float) -> float:
        return sum(s >= theta for s in neg_scores) / n_neg

    chosen = None
    for theta in sorted({float(s.score) for s in samples}):
        if fpr_at(theta) <= target_fpr:
            chosen = theta
            break
    if chosen is None:
        chosen = max(float(s.score) for s in samples) + 1.0
    tpr = (sum(s >= chosen for s in pos_scores) / len(pos_scores)) if pos_scores else 0.0
    return OperatingPoint(target_fpr=target_fpr, threshold=chosen,
                          achieved_tpr=tpr, achieved_fpr=fpr_at(chosen))


@dataclass(frozen=True)
class NgramIndex:
    """Set of n-grams seen in a training corpus."""

    n: int
    grams: frozenset

    @classmethod
    def from_lines(cls, lines: Sequence[str], n: int = NGRAM_ORDER) -> "NgramIndex":
        grams = set()
        for line in lines:
            tokens = line.split()
            grams.update(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
        return cls(n=n, grams=frozenset(grams))


def novelty_score(tokens: Sequence[str], index: NgramIndex) -> float | None:
    """Fraction of the sentence's n-gram occurrences not in the index.

    Sentences shorter than n tokens have no n-grams and return None
    (not applicable) rather than a misleading 0 or 1.
    """
    if len(tokens) < index.n:
        return None
    grams = [tuple(tokens[i:i + index.n]) for i in range(len(tokens) - index.n + 1)]
    novel = sum(g not in index.grams for g in grams)
    return novel / len(grams)


def write_roc_csv(result: RocResult, path: str) -> None:
    """threshold,fpr,tpr rows; the (0,0) anchor gets threshold inf."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fpr,tpr\n")
        fh.write("inf,0.000000,0.000000\n")
        for theta, (fpr, tpr) in zip(result.thresholds, result.points[1:]):
            fh.write(f"{theta:.10g},{fpr:.6f},{tpr:.6f}\n")
