import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremark import (DegenerateLabelsError, DomainError, NgramIndex,
                        OperatingPoint, RocResult, ScoredSample, bleu4,
                        exact_match, novelty_score, roc, threshold_at_fpr)
from spheremark.metrics import roc_with_operating_points, write_roc_csv

# brute-force oracle, frozen by hand:
# 100 * (5/6 * 3/5 * 1/2 * 1/3) ** 0.25
BLEU_HAND_CASE = 53.7285


def bleu4_oracle(candidate, reference):
    """List-scan BLEU with no shared helpers with the implementation."""
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_grams = [tuple(candidate[i:i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i:i + n]) for i in range(len(reference) - n + 1)]
        if not cand_grams:
            p = 1e-9
        else:
            remaining = list(ref_grams)
            clipped = 0
            for g in cand_grams:
                if g in remaining:
                    remaining.remove(g)
                    clipped += 1
            p = max(clipped, 1e-9) / len(cand_grams)
        log_sum += math.log(p)
    bp = 1.0
    if len(candidate) < len(reference):
        bp = math.exp(1.0 - len(reference) / len(candidate))
    return 100.0 * bp * math.exp(log_sum / 4.0)


def auc_oracle(samples):
    """Pairwise Mann-Whitney count; ties worth half."""
    pos = [s.score for s in samples if s.label]
    neg = [s.score for s in samples if not s.label]
    twice_wins = 0
    for p in pos:
        for q in neg:
            if p > q:
                twice_wins += 2
            elif p == q:
                twice_wins += 1
    return twice_wins / (2 * len(pos) * len(neg))


class TestBleu4:
    def test_identity_is_100(self):
        toks = "a small boat drifts past the quiet harbor".split()
        assert bleu4(toks, toks) == 100.0

    def test_disjoint_is_floor(self):
        assert bleu4("a b c d e".split(), "v w x y z".split()) < 1e-6

    def test_empty_candidate(self):
        assert bleu4([], "a b c d".split()) == 0.0

    def test_hand_case_pinned(self):
        cand = "the cat sat on a mat".split()
        ref = "the cat sat on the mat".split()
        got = bleu4(cand, ref)
        assert round(got, 4) == BLEU_HAND_CASE
        assert got == pytest.approx(bleu4_oracle(cand, ref), rel=1e-12)
        assert got == pytest.approx(
            100.0 * (5 / 6 * 3 / 5 * 1 / 2 * 1 / 3) ** 0.25, rel=1e-12)

    def test_brevity_penalty_case(self):
        cand = "the cat sat".split()
        ref = "the cat sat on the mat".split()
        got = bleu4(cand, ref)
        assert got == pytest.approx(bleu4_oracle(cand, ref), rel=1e-12)
        assert got == pytest.approx(0.20687381245863398, rel=1e-9)

    def test_three_token_candidate_uses_floor_for_4grams(self):
        # no 4-grams exist; the floor keeps the geometric mean finite
        got = bleu4("x y z".split(), "x y z w".split())
        assert 0.0 < got < 1.0

    def test_clipping_limits_repeats(self):
        # "the the the the" must not earn four unigram credits
        got = bleu4("the the the the".split(), "the cat sat on".split())
        assert got == pytest.approx(bleu4_oracle(
            "the the the the".split(), "the cat sat on".split()), rel=1e-12)

    def test_matches_oracle_on_grid(self):
        refs = ["the quick brown fox jumps over the lazy dog".split(),
                "a b a b a b a b".split()]
        cands = ["the quick brown fox leaps over a lazy dog".split(),
                 "a b a b".split(), ["a"], "b a b a b a b a".split()]
        for ref in refs:
            for cand in cands:
                assert bleu4(cand, ref) == pytest.approx(
                    bleu4_oracle(cand, ref), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), max_size=12),
       st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12))
def test_bleu4_tracks_oracle(cand, ref):
    assert bleu4(cand, ref) == pytest.approx(bleu4_oracle(cand, ref), rel=1e-12)


class TestExactMatch:
    def test_fixtures(self):
        assert exact_match([(b"a", b"a")]) == 1.0
        assert exact_match([(b"a", b"b")]) == 0.0
        pairs = [("x", "x"), ("y", "y"), ("z", "z"), ("w", "q")]
        assert exact_match(pairs) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            exact_match([])


def _mk(pos, neg):
    return ([ScoredSample(score=s, label=True) for s in pos]
            + [ScoredSample(score=s, label=False) for s in neg])


class TestRoc:
    def test_pinned_fixture_untied(self):
        # all pairwise comparisons by hand: 7 wins, 2 losses, no tie
        res = roc(_mk([3.0, 2.0, 1.0], [2.5, 0.5, 0.1]))
        assert res.auc == 7 / 9
        assert res.auc == auc_oracle(_mk([3.0, 2.0, 1.0], [2.5, 0.5, 0.1]))

    def test_pinned_fixture_tied(self):
        # moving that negative onto a positive's score turns one loss
        # into a half-credit tie: (7 + 0.5) / 9
        res = roc(_mk([3.0, 2.0, 1.0], [2.0, 0.5, 0.1]))
        assert res.auc == 7.5 / 9
        assert round(res.auc, 4) == 0.8333

    def test_perfect_separation(self):
        assert roc(_mk([5.0, 4.0], [1.0, 0.5])).auc == 1.0
        assert roc(_mk([1.0, 0.5], [5.0, 4.0])).auc == 0.0

    def test_identical_score_sets_are_chance(self):
        assert roc(_mk([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])).auc == 0.5

    def test_curve_endpoints_and_monotonicity(self):
        res = roc(_mk([3.0, 2.0, 1.0], [2.5, 0.5, 0.1]))
        assert res.points[0] == (0.0, 0.0)
        assert res.points[-1] == (1.0, 1.0)
        for (f0, t0), (f1, t1) in zip(res.points, res.points[1:]):
            assert f1 >= f0 and t1 >= t0

    def test_thresholds_descend(self):
        res = roc(_mk([3.0, 1.0], [2.0, 0.5]))
        assert list(res.thresholds) == sorted(res.thresholds, reverse=True)

    def test_auc_equals_trapezoid(self):
        res = roc(_mk([3.0, 2.0, 1.0, 2.0], [2.5, 0.5, 2.0, 0.1]))
        trap = 0.0
        for (f0, t0), (f1, t1) in zip(res.points, res.points[1:]):
            trap += (f1 - f0) * (t0 + t1) / 2.0
        assert res.auc == pytest.approx(trap, abs=1e-15)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            roc([ScoredSample(1.0, True)])
        with pytest.raises(DegenerateLabelsError):
            roc(_mk([1.0, 2.0], []))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=1, max_size=12),
       st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=1, max_size=12))
def test_roc_equals_pair_counting(pos, neg):
    samples = _mk(pos, neg)
    assert roc(samples).auc == auc_oracle(samples)


class TestThresholdAtFpr:
    def test_hundred_negatives(self):
        samples = _mk([150.0], [float(k) for k in range(1, 101)])
        op = threshold_at_fpr(samples, 0.1)
        assert op.threshold == 91.0
        assert op.achieved_fpr == pytest.approx(0.10)
        assert op.achieved_tpr == 1.0

    def test_rejects_all_when_unreachable(self):
        samples = _mk([5.0], [7.0, 7.0, 7.0])
        op = threshold_at_fpr(samples, 0.2)
        assert op.threshold == 8.0
        assert op.achieved_fpr == 0.0
        assert op.achieved_tpr == 0.0

    def test_target_one_accepts_everything(self):
        samples = _mk([5.0], [1.0, 2.0])
        op = threshold_at_fpr(samples, 1.0)
        assert op.threshold == 1.0
        assert op.achieved_fpr == 1.0
        assert op.achieved_tpr == 1.0

    def test_threshold_monotone_in_target(self):
        samples = _mk([5.0, 4.0, 2.0], [float(k) for k in range(1, 21)])
        thetas = [threshold_at_fpr(samples, t).threshold
                  for t in (0.05, 0.1, 0.25, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(thetas, thetas[1:]))

    def test_validates_target(self):
        samples = _mk([1.0], [0.5])
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                threshold_at_fpr(samples, bad)
        # the target is checked first, even where the sweep would fail
        with pytest.raises(DomainError, match="target fpr"):
            threshold_at_fpr([ScoredSample(1.0, True)], 1.5)

    def test_needs_negatives(self):
        with pytest.raises(DegenerateLabelsError):
            threshold_at_fpr([ScoredSample(1.0, True)], 0.1)


def roc_reference(samples):
    """The dict-of-groups ROC that the shared sweep replaced, kept as the
    reference for bit-equal results."""
    n_pos = sum(s.label for s in samples)
    n_neg = len(samples) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives")
    by_score = {}
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


def threshold_at_fpr_reference(samples, target_fpr):
    """The quadratic rescan that the shared sweep replaced, kept as the
    reference for bit-equal results."""
    if not 0.0 < target_fpr <= 1.0:
        raise DomainError(f"target fpr {target_fpr} outside (0, 1]")
    neg_scores = sorted(float(s.score) for s in samples if not s.label)
    if not neg_scores:
        raise DegenerateLabelsError("need at least one negative sample")
    pos_scores = [float(s.score) for s in samples if s.label]
    n_neg = len(neg_scores)

    def fpr_at(theta):
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


def _outcome(fn, *args):
    """repr of the result (bit-exact, sign of zero included) or the
    name of the error raised."""
    try:
        return repr(fn(*args))
    except (DomainError, DegenerateLabelsError) as exc:
        return type(exc).__name__


# quarter-integers in a small range tie often; both zeros test which
# representative a tied group keeps
TIED_SCORES = st.integers(-8, 8).map(lambda k: k / 4) | st.sampled_from([0.0, -0.0])
TIED_SAMPLES = st.lists(st.builds(ScoredSample, TIED_SCORES, st.booleans()), max_size=40)
TARGETS = (st.floats(min_value=0.0, max_value=1.0)
           | st.sampled_from([1.0, 5e-324, 1e-300, 0.1, -0.5, 1.5]))


def _draw_target(draw, samples):
    n_neg = sum(not s.label for s in samples)
    if n_neg and draw(st.booleans()):
        # an achievable rate or one ulp below it, where fp / n_neg <= t
        # and fp <= t * n_neg can disagree (fp=5, n_neg=6, t=5/6)
        t = draw(st.integers(1, n_neg)) / n_neg
        return draw(st.sampled_from([t, math.nextafter(t, 0.0)]))
    return draw(TARGETS)


@st.composite
def tied_samples_and_target(draw):
    samples = draw(TIED_SAMPLES)
    return samples, _draw_target(draw, samples)


@st.composite
def tied_samples_and_targets(draw):
    samples = draw(TIED_SAMPLES)
    return samples, [_draw_target(draw, samples) for _ in range(draw(st.integers(0, 4)))]


def operating_points_reference(samples, targets):
    """One reference call per target, in order: the first error wins."""
    return [threshold_at_fpr_reference(samples, t) for t in targets]


def roc_with_operating_points_reference(samples, targets):
    """The roc reference, then one threshold reference per target."""
    return roc_reference(samples), operating_points_reference(samples, targets)


def _zero_group_mid_list(first):
    """500 zeros whose first member, of sign ``first``, comes after 400
    other samples; the other 499 zeros, interleaved with 0.5s, have the
    other sign."""
    samples = [ScoredSample(1.5 if k % 2 else -1.5, k % 3 == 0) for k in range(400)]
    samples.append(ScoredSample(first, True))
    for k in range(499):
        samples += [ScoredSample(-first, k % 2 == 0), ScoredSample(0.5, k % 5 == 0)]
    return samples


class TestSweepMatchesReference:
    CASES = {
        "no positives": _mk([], [1.0, 2.0, 2.0, 3.0]),
        "single distinct score": _mk([2.0, 2.0], [2.0]),
        "unreachable target": _mk([5.0], [7.0, 7.0, 7.0]),
        "six distinct negatives": _mk([9.0, 2.5], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        "no negatives": _mk([1.0, 2.0], []),
        "empty": [],
        # max score + 1 rounds back to max: neither version may claim fpr 0
        "beyond 2**53": _mk([1.0], [2.0 ** 53, 2.0 ** 53]),
        # a tied group far longer than any sort's small-array cutoff
        "zero group led by -0.0 mid-list": _zero_group_mid_list(-0.0),
        "zero group led by 0.0 mid-list": _zero_group_mid_list(0.0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("target", [1.0, 5 / 6, math.nextafter(5 / 6, 0.0),
                                        0.5, 0.2, 1e-9])
    def test_named_cases(self, name, target):
        samples = self.CASES[name]
        assert (_outcome(threshold_at_fpr, samples, target)
                == _outcome(threshold_at_fpr_reference, samples, target))
        assert _outcome(roc, samples) == _outcome(roc_reference, samples)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("targets", [
        [1.0, 5 / 6, math.nextafter(5 / 6, 0.0), 0.5, 0.2, 1e-9],
        [0.2, 0.2], [0.5, 1.5], [1.5, 0.5], [0.0], []])
    def test_named_cases_several_targets(self, name, targets):
        samples = self.CASES[name]
        assert (_outcome(roc_with_operating_points, samples, targets)
                == _outcome(roc_with_operating_points_reference, samples, targets))

    def test_named_case_outcomes(self):
        assert threshold_at_fpr(self.CASES["no positives"], 0.5).achieved_tpr == 0.0
        op = threshold_at_fpr(self.CASES["unreachable target"], 0.2)
        assert (op.threshold, op.achieved_tpr, op.achieved_fpr) == (8.0, 0.0, 0.0)
        op = threshold_at_fpr(self.CASES["single distinct score"], 1.0)
        assert (op.threshold, op.achieved_tpr, op.achieved_fpr) == (2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            threshold_at_fpr(self.CASES["beyond 2**53"], 0.5)
        for first in (-0.0, 0.0):
            zero = roc(self.CASES[f"zero group led by {first} mid-list"]).thresholds[2]
            assert repr(zero) == repr(first)


@settings(max_examples=300, deadline=None)
@given(tied_samples_and_target())
@example(([ScoredSample(-0.0, False), ScoredSample(0.0, True)], 1.0))
@example(([ScoredSample(0.0, False), ScoredSample(-0.0, True)], 1.0))
def test_sweep_equals_reference_on_ties(samples_target):
    samples, target = samples_target
    assert (_outcome(threshold_at_fpr, samples, target)
            == _outcome(threshold_at_fpr_reference, samples, target))
    assert _outcome(roc, samples) == _outcome(roc_reference, samples)


@settings(max_examples=300, deadline=None)
@given(tied_samples_and_targets())
@example(([ScoredSample(1.0, True)], [0.5, 1.5]))
@example((_mk([1.0], [0.5]), [0.5, 1.5, 0.0]))
@example((_mk([1.0], [2.0 ** 53, 2.0 ** 53]), [1.0, 0.5, 2.0]))
def test_roc_with_operating_points_equal_reference_on_ties(samples_targets):
    samples, targets = samples_targets
    assert (_outcome(roc_with_operating_points, samples, targets)
            == _outcome(roc_with_operating_points_reference, samples, targets))


@st.composite
def long_tied_samples_and_targets(draw):
    """Up to 300 samples over at most four scores, both zeros among
    them, so tied groups run past the sort kernels' small-array
    cutoffs, where unstable kernels reorder ties."""
    pool = [0.0, -0.0] + draw(st.lists(TIED_SCORES, max_size=2))
    n = draw(st.integers(0, 300))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    samples = [ScoredSample(s, lab) for s, lab in zip(scores, labels)]
    return samples, [_draw_target(draw, samples) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=150, deadline=None)
@given(long_tied_samples_and_targets())
def test_long_tied_groups_equal_reference(samples_targets):
    samples, targets = samples_targets
    assert _outcome(roc, samples) == _outcome(roc_reference, samples)
    assert (_outcome(threshold_at_fpr, samples, targets[0])
            == _outcome(threshold_at_fpr_reference, samples, targets[0]))
    assert (_outcome(roc_with_operating_points, samples, targets)
            == _outcome(roc_with_operating_points_reference, samples, targets))


DENSE_TARGETS = (1e-3, 1e-2, 0.1, 1.0)


def _dense_tied_samples(zeros, label=int):
    """5000 seeded samples at the benchmark's tie density (scores rounded
    to 0.001), both zeros first in the given order, float32, float64 and
    a few Python ints beyond 2**53 among the scores."""
    rng = np.random.default_rng(20061)
    labels = rng.integers(0, 2, 5000)
    scores = [round(float(rng.normal(lab, 0.7)), 3) for lab in labels]
    scores[:2] = zeros
    scores[2::7] = [np.float32(s) for s in scores[2::7]]
    scores[3::7] = [np.float64(s) for s in scores[3::7]]
    scores[1000], scores[3000] = 2 ** 60 + 1, 10 ** 30
    return [ScoredSample(score=s, label=label(lab)) for s, lab in zip(scores, labels)]


def _assert_same_text(got, want):
    """got == want, failing with the first differing stretch: pytest's
    own diff of two long reprs can run for minutes."""
    at = max(len(os.path.commonprefix([got, want])) - 40, 0)
    assert (len(got), got[at:at + 80]) == (len(want), want[at:at + 80])


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_dense_ties_equal_reference(zeros):
    samples = _dense_tied_samples(zeros)
    _assert_same_text(repr(roc(samples)), repr(roc_reference(samples)))
    _assert_same_text(_outcome(roc_with_operating_points, samples, DENSE_TARGETS),
                      _outcome(roc_with_operating_points_reference, samples, DENSE_TARGETS))


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_dense_ties_numpy_bool_labels_equal_bool(zeros):
    # the references sum numpy labels into numpy floats, so compare
    # against the same samples with Python bool labels instead
    samples = _dense_tied_samples(zeros, label=bool)
    np_samples = _dense_tied_samples(zeros, label=np.bool_)
    _assert_same_text(repr(roc(np_samples)), repr(roc(samples)))
    _assert_same_text(_outcome(roc_with_operating_points, np_samples, DENSE_TARGETS),
                      _outcome(roc_with_operating_points, samples, DENSE_TARGETS))


def test_threshold_at_fpr_is_not_quadratic():
    # the quadratic rescan took tens of seconds here
    samples = [ScoredSample(score=k * 0.37, label=k % 3 == 0) for k in range(20000)]
    t0 = time.perf_counter()
    for target in (1e-3, 1e-2, 1e-1):
        threshold_at_fpr(samples, target)
    assert time.perf_counter() - t0 < 2.0


class TestScoredSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ScoredSample(score=bad, label=True)

    def test_finite_accepted(self):
        assert ScoredSample(score=-1e308, label=False).score == -1e308


class TestOperatingPoint:
    def test_guarantee_enforced(self):
        with pytest.raises(DomainError):
            OperatingPoint(target_fpr=0.01, threshold=1.0,
                           achieved_tpr=0.9, achieved_fpr=0.02)

    def test_report_rows(self):
        # deploy-style table: column thresholds grow as the allowed
        # false-positive budget shrinks
        rows = [
            OperatingPoint(1e-4, 170.16, 0.634, 1e-4),
            OperatingPoint(1e-2, 154.94, 0.779, 1e-2),
            OperatingPoint(1e-1, 120.66, 0.972, 1e-1),
        ]
        as_json = [r.to_json_dict() for r in rows]
        assert [r["threshold"] for r in as_json] == [170.16, 154.94, 120.66]
        assert all(set(r) == {"target_fpr", "threshold", "achieved_tpr",
                              "achieved_fpr"} for r in as_json)
        assert rows[0].achieved_tpr < rows[1].achieved_tpr < rows[2].achieved_tpr


class TestNovelty:
    INDEX = NgramIndex.from_lines(["a b c d e", "p q r s"])

    def test_all_grams_known(self):
        assert novelty_score("a b c d".split(), self.INDEX) == 0.0

    def test_no_grams_known(self):
        assert novelty_score("w x y z".split(), self.INDEX) == 1.0

    def test_half_known(self):
        assert novelty_score("a b c d x".split(), self.INDEX) == 0.5

    def test_short_sentence_not_applicable(self):
        assert novelty_score("a b c".split(), self.INDEX) is None

    def test_growing_index_lowers_novelty(self):
        sent = "a b c d x".split()
        small = NgramIndex.from_lines(["a b c d"])
        big = NgramIndex.from_lines(["a b c d", "b c d x"])
        assert novelty_score(sent, small) > novelty_score(sent, big)

    def test_index_counts_each_position(self):
        idx = NgramIndex.from_lines(["a b c d e f"])
        assert len(idx.grams) == 3


class TestRocOutputs:
    def test_csv_layout(self, tmp_path):
        res = roc(_mk([3.0, 2.0], [2.5, 0.5]))
        path = tmp_path / "roc.csv"
        write_roc_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1] == "inf,0.000000,0.000000"
        assert len(lines) == 2 + len(res.thresholds)
        assert lines[-1].endswith("1.000000,1.000000")
