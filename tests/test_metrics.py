import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremark import (DegenerateLabelsError, DomainError, NgramIndex,
                        OperatingPoint, ScoredSample, bleu4, exact_match,
                        novelty_score, roc, threshold_at_fpr)
from spheremark.metrics import write_roc_csv

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

    def test_needs_negatives(self):
        with pytest.raises(DegenerateLabelsError):
            threshold_at_fpr([ScoredSample(1.0, True)], 0.1)


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
        assert idx.n == 4


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
