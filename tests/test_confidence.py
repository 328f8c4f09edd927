import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremark import (ELL_CAP, DimensionError, DomainError, Message,
                        SignCodec, assess, ell_from_p, log_reg_inc_beta,
                        reg_inc_beta, sample_uniform, spherical_p_value)
from spheremark import confidence
from spheremark.confidence import (_COS_SLACK, _FPMIN, _LENTZ_EPS, _MAX_ITER,
                                   VERDICT_TRUSTED, VERDICT_UNTRUSTED,
                                   _beta_cf, _check_beta_args, _ln_beta,
                                   _log_reg_inc_betas, _p_values)
from spheremark.streams import stream
from conftest import DriftingCodec, assert_row_is_report, octets

mp.mp.dps = 50

# Smallest positive normal float64: below it p carries fewer than 53
# bits, so differences there are measured against this floor.
TINY = sys.float_info.min


# Verbatim copies of the two-path evaluation that the single log-space
# core replaced (renamed with an ``old_`` prefix), kept as references.
_LOG_SPACE_X = 1e-4


def old_tail_x(c: float, dim: int) -> float | None:
    if dim < 2:
        raise DimensionError(f"dimension {dim} < 2")
    if not math.isfinite(c) or abs(c) > 1.0 + _COS_SLACK:
        raise DomainError(f"cosine {c} outside [-1, 1]")
    c = min(1.0, max(-1.0, c))
    if c <= 0.0:
        return None
    return (1.0 - c) * (1.0 + c)  # 1 - c^2 without cancellation at c ~ 1


def old_beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _LENTZ_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def old_reg_inc_beta(x: float, a: float, b: float) -> float:
    _check_beta_args(x, a, b)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * old_beta_cf(a, b, x) / a
    # front factor is symmetric in (a <-> b, x <-> 1-x)
    return 1.0 - math.exp(ln_front) * old_beta_cf(b, a, 1.0 - x) / b


def old_spherical_p_value(c: float, dim: int) -> float:
    x = old_tail_x(c, dim)
    if x is None:
        return 1.0
    a = (dim - 1) / 2.0
    if x == 0.0:
        return 0.0
    if x < _LOG_SPACE_X:
        return math.exp(log_reg_inc_beta(x, a, 0.5))  # may underflow to 0.0
    return old_reg_inc_beta(x, a, 0.5)


def old_spherical_log10_p(c: float, dim: int) -> float:
    x = old_tail_x(c, dim)
    if x is None:
        return 0.0
    if x == 0.0:
        return -math.inf
    return log_reg_inc_beta(x, (dim - 1) / 2.0, 0.5) / math.log(10.0)


# Verbatim copies of the scalar evaluation that the array continued
# fraction replaced (renamed with a ``scalar_`` prefix): one Lentz loop
# per x, kept as references for the block p-values.
def scalar_beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # one Lentz update for the even, then the odd coefficient
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _LENTZ_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def scalar_log_reg_inc_beta(x: float, a: float, b: float) -> float:
    _check_beta_args(x, a, b)
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(scalar_beta_cf(a, b, x) / a)
    tail = math.exp(ln_front) * scalar_beta_cf(b, a, 1.0 - x) / b
    return math.log1p(-tail)


def scalar_spherical_p_value(c: float, dim: int) -> float:
    if dim < 2:
        raise DimensionError(f"dimension {dim} < 2")
    if not math.isfinite(c) or abs(c) > 1.0 + _COS_SLACK:
        raise DomainError(f"cosine {c} outside [-1, 1]")
    c = min(1.0, max(-1.0, c))
    if c <= 0.0:
        return 1.0
    x = (1.0 - c) * (1.0 + c)  # 1 - c^2 without cancellation at c ~ 1
    return math.exp(scalar_log_reg_inc_beta(x, (dim - 1) / 2.0, 0.5))


def one_beta_cf(a: float, b: float, x: float) -> float:
    """_beta_cf on a one-element array, as the scalar functions call it."""
    return _beta_cf(a, b, [x]).item()


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return f"stalled: {exc}"


def _cosine_grid() -> list[float]:
    near_one = [1.0 - k * 2.0 ** -53 for k in range(10)]  # within 1e-15 of 1
    return [float(c) for c in np.linspace(1e-3, 1.0, 3001)] + near_one


def quad_oracle(x: float, a: float, b: float) -> mp.mpf:
    """Regularized incomplete beta by adaptive quadrature, not by any
    series or continued fraction, so it shares no code path with the
    implementation under test."""
    am, bm, xm = mp.mpf(repr(a)), mp.mpf(repr(b)), mp.mpf(repr(x))
    density = lambda t: t ** (am - 1) * (1 - t) ** (bm - 1)
    return mp.quad(density, [0, xm]) / mp.beta(am, bm)


class TestRegIncBeta:
    def test_identity_parameters(self):
        for x in (0.0, 1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0):
            assert abs(reg_inc_beta(x, 1.0, 1.0) - x) <= 1e-12

    def test_arcsine_median(self):
        assert abs(reg_inc_beta(0.5, 0.5, 0.5) - 0.5) <= 1e-12

    def test_against_quadrature(self):
        for a in (0.5, 2.5, 127.5):
            for b in (0.5, 2.0):
                for x in (0.05, 0.3, 0.91, 0.999):
                    want = float(quad_oracle(x, a, b))
                    got = reg_inc_beta(x, a, b)
                    assert got == pytest.approx(want, rel=1e-12), (a, b, x)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)

    def test_log_variant_matches_linear(self):
        for a, b, x in ((127.5, 0.5, 0.3), (2.0, 3.0, 0.1), (0.5, 0.5, 0.7)):
            lin = reg_inc_beta(x, a, b)
            assert log_reg_inc_beta(x, a, b) == pytest.approx(math.log(lin), rel=1e-10)

    def test_log_variant_deep_tail(self):
        # linear evaluation underflows long before these; mpmath carries
        # the tail exactly
        for x in (1e-8, 1e-5, 1e-4):
            want = mp.log(mp.betainc(mp.mpf("127.5"), mp.mpf("0.5"),
                                     0, mp.mpf(repr(x)), regularized=True))
            got = log_reg_inc_beta(x, 127.5, 0.5)
            assert got == pytest.approx(float(want), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_reg_inc_beta_tracks_mpmath(a, b, x):
    want = float(mp.betainc(mp.mpf(repr(a)), mp.mpf(repr(b)),
                            0, mp.mpf(repr(x)), regularized=True))
    assert reg_inc_beta(x, a, b) == pytest.approx(want, rel=1e-10)


class TestSingleLogSpaceCore:
    """The log-space core against verbatim copies of the two-path code."""

    @settings(max_examples=400, deadline=None)
    @given(st.floats(min_value=0.5, max_value=300.0),
           st.one_of(st.just(0.5), st.floats(min_value=0.5, max_value=300.0)),
           st.floats(min_value=0.0, max_value=1.0))
    def test_beta_cf_bit_equal(self, a, b, x):
        assert _outcome(one_beta_cf, a, b, x) == _outcome(old_beta_cf, a, b, x)

    def test_beta_cf_bit_equal_seeded(self):
        rng = stream(4096)
        for a, b, x in zip(rng.uniform(0.5, 300.0, 3000),
                           rng.uniform(0.5, 300.0, 3000), rng.uniform(size=3000)):
            a, b, x = float(a), float(b), float(x)
            assert _outcome(one_beta_cf, a, b, x) == _outcome(old_beta_cf, a, b, x)
            assert (_outcome(one_beta_cf, a, 0.5, x)
                    == _outcome(old_beta_cf, a, 0.5, x))

    @pytest.mark.parametrize("dim", [64, 256, 512])
    def test_p_value_matches_two_path_code(self, dim):
        for c in _cosine_grid():
            got, want = spherical_p_value(c, dim), old_spherical_p_value(c, dim)
            assert (got == 0.0) == (want == 0.0), c
            assert abs(got - want) <= 2e-13 * max(want, TINY), c

    @pytest.mark.parametrize("dim", [64, 256, 512])
    def test_log10_p_bit_equal(self, dim):
        # the deep tail through the log core alone, c = 1 (x = 0) included
        for c in _cosine_grid():
            x = (1.0 - c) * (1.0 + c)
            got = log_reg_inc_beta(x, (dim - 1) / 2.0, 0.5) / math.log(10.0)
            assert repr(got) == repr(old_spherical_log10_p(c, dim)), c

    def test_reg_inc_beta_matches_linear_code(self):
        for a in (0.5, 2.5, 31.5, 127.5, 255.5):
            for b in (0.5, 2.0, 40.0):
                for x in np.linspace(0.0, 1.0, 201):
                    x = float(x)
                    got, want = reg_inc_beta(x, a, b), old_reg_inc_beta(x, a, b)
                    assert abs(got - want) <= 2e-13 * max(want, TINY), (a, b, x)


DIMS = [2, 3, 64, 256, 512]


def _branch_edge_cosines(dim: int) -> list[float]:
    """Cosines whose x = 1 - c^2 falls at and around (a + 1)/(a + b + 2),
    where the symmetry relation switches branch."""
    a = (dim - 1) / 2.0
    c = math.sqrt(1.0 - (a + 1.0) / (a + 2.5))
    out = [c]
    for _ in range(4):
        out = [math.nextafter(out[0], 0.0)] + out + [math.nextafter(out[-1], 1.0)]
    return out


def _special_cosines() -> list[float]:
    near_one = [1.0 - k * 2.0 ** -53 for k in range(10)]  # within 1e-15 of 1
    return [-1.0, -0.5, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1.0, 1.0 + 5e-13] + near_one


class TestBlockPValues:
    """A block's p-values and ells against the scalar loop they replaced."""

    def _assert_block_equal(self, cosines: list[float], dim: int) -> None:
        got = _p_values(cosines, dim)
        want = [scalar_spherical_p_value(c, dim) for c in cosines]
        assert [repr(p) for p in got] == [repr(p) for p in want]
        assert [repr(ell_from_p(p)) for p in got] == [repr(ell_from_p(p)) for p in want]

    @pytest.mark.parametrize("dim", DIMS)
    def test_seeded_grid(self, dim):
        # one block mixing both branches, the special cosines and the
        # branch edge, in a seeded order
        cosines = (_cosine_grid() + [-c for c in _cosine_grid()[::7]]
                   + _special_cosines() + _branch_edge_cosines(dim))
        order = stream(4097, dim).permutation(len(cosines))
        block = [cosines[i] for i in order]
        a = (dim - 1) / 2.0
        xs = [(1.0 - c) * (1.0 + c) for c in block if c > 0.0]
        edge = (a + 1.0) / (a + 2.5)
        assert any(x < edge for x in xs) and any(edge <= x < 1.0 for x in xs)
        self._assert_block_equal(block, dim)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(DIMS),
           st.lists(st.one_of(st.floats(min_value=-1.0, max_value=1.0),
                              st.floats(min_value=1.0 - 1e-15, max_value=1.0),
                              st.sampled_from(_special_cosines())),
                    min_size=1, max_size=40))
    def test_any_block(self, dim, cosines):
        self._assert_block_equal(cosines, dim)

    @pytest.mark.parametrize("dim", DIMS)
    def test_log_core_at_branch_edge(self, dim):
        # x exactly at (a + 1)/(a + b + 2) takes the symmetry branch
        a = (dim - 1) / 2.0
        edge = (a + 1.0) / (a + 2.5)
        xs = [0.0, 1.0, edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0),
              0.5 * edge, 0.5 + 0.5 * edge]
        got = _log_reg_inc_betas(xs, a, 0.5)
        assert [repr(v) for v in got] == [repr(scalar_log_reg_inc_beta(x, a, 0.5))
                                          for x in xs]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.5, max_value=300.0),
           st.one_of(st.just(0.5), st.floats(min_value=0.5, max_value=300.0)),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_log_core_block(self, a, b, xs):
        want = [_outcome(scalar_log_reg_inc_beta, x, a, b) for x in xs]
        if any(w.startswith("stalled") for w in want):
            return  # a stalled element fails the whole block
        assert [repr(v) for v in _log_reg_inc_betas(xs, a, b)] == want

    def test_block_stalls_on_its_first_unconverged_element(self, monkeypatch):
        # one iteration converges x = 1e-12 but neither 0.5 nor 0.25
        monkeypatch.setattr(confidence, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match=r"a=127.5, b=0.5, x=0.5$"):
            _beta_cf(127.5, 0.5, [1e-12, 0.5, 0.25])

    def test_empty_block(self):
        assert _beta_cf(127.5, 0.5, []).shape == (0,)
        assert _p_values([], 256) == []

    @pytest.mark.parametrize("dim", [64, 256, 512])
    def test_assess_block_matches_scalar_loop(self, dim):
        codec = SignCodec(dim)
        rng = stream(4098, dim)
        noisy = [codec.encode(Message(bytes([k + 1]) * (dim // 16))).components
                 + 0.05 * k * rng.standard_normal(dim) for k in range(20)]
        rows = np.stack([v / np.linalg.norm(v) for v in noisy]
                        + [sample_uniform(dim, rng).components for _ in range(20)])
        block = assess(codec, rows, 100.0)
        assert len(set((block.p_value == 0.0).tolist())) == 2  # p underflows at c = 1
        for c, p_value, ell in zip(block.cosine.tolist(), block.p_value.tolist(),
                                   block.ell.tolist()):
            p = scalar_spherical_p_value(c, dim)
            assert (repr(p_value), repr(ell)) == (repr(p), repr(ell_from_p(p)))


class TestSphericalPValue:
    def test_nonpositive_cosine_is_certain(self):
        assert spherical_p_value(0.0, 256) == 1.0
        assert spherical_p_value(-0.7, 256) == 1.0

    def test_perfect_alignment(self):
        assert spherical_p_value(1.0, 256) == 0.0

    def test_clamp_slack(self):
        assert spherical_p_value(1.0 + 5e-13, 256) == 0.0
        for bad in (1.01, -1.01, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                spherical_p_value(bad, 256)

    def test_dim_validation(self):
        with pytest.raises(DimensionError):
            spherical_p_value(0.5, 1)

    def test_dim3_closed_form(self):
        # on S^2 the two-sided tail is exactly 1 - c
        for c in (0.01, 0.1, 0.5, 0.9, 0.999):
            assert spherical_p_value(c, 3) == pytest.approx(1.0 - c, abs=1e-12)

    def test_dim2_closed_form(self):
        # on the circle: 2*arccos(c)/pi
        for c in (0.05, 0.3, 0.7, 0.95):
            want = 2.0 * math.acos(c) / math.pi
            assert spherical_p_value(c, 2) == pytest.approx(want, rel=1e-12)

    def test_dim256_anchors(self):
        # frozen from the quadrature oracle at 50 digits
        anchors = {
            0.1: 0.10974985405009599,
            0.2: 0.0012674855227439696,
            0.3: 9.6211454591911684e-07,
        }
        for c, want in anchors.items():
            assert spherical_p_value(c, 256) == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing_in_cosine(self):
        for d in (3, 8, 256):
            grid = np.linspace(1e-3, 0.99, 500)
            vals = [spherical_p_value(float(c), d) for c in grid]
            assert all(x > y for x, y in zip(vals, vals[1:])), d

    def test_decreasing_in_dim(self):
        # the same alignment is more surprising in higher dimension
        for c in (0.1, 0.3, 0.6):
            vals = [spherical_p_value(c, d) for d in (3, 8, 32, 128, 512)]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_monte_carlo_two_sided(self):
        rng = stream(314, 256)
        n = 200_000
        hits = 0
        for _ in range(4):
            g = rng.standard_normal((n // 4, 256))
            c = np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
            hits += int((c >= 0.2).sum())
        p = spherical_p_value(0.2, 256)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) <= 3.0 * se

    def test_log_core_matches_p_value(self):
        for c in (0.1, 0.3):
            want = math.log10(spherical_p_value(c, 256))
            got = log_reg_inc_beta((1.0 - c) * (1.0 + c), 127.5, 0.5) / math.log(10.0)
            assert got == pytest.approx(want, rel=1e-10)

    def test_log10_survives_underflow(self):
        # p underflows float64 near c = 1; the log core keeps going
        want = mp.log10(mp.betainc(mp.mpf("127.5"), mp.mpf("0.5"), 0,
                                   (1 - mp.mpf("0.999")) * (1 + mp.mpf("0.999")),
                                   regularized=True))
        got = log_reg_inc_beta((1.0 - 0.999) * (1.0 + 0.999), 127.5, 0.5) / math.log(10.0)
        assert got == pytest.approx(float(want), rel=1e-9)
        assert spherical_p_value(0.999, 256) == 0.0


class TestEll:
    def test_cap_on_underflow(self):
        assert ell_from_p(0.0) == ELL_CAP == 700.0

    def test_certain_is_zero(self):
        assert ell_from_p(1.0) == 0.0

    def test_decades(self):
        assert ell_from_p(1e-10) == pytest.approx(10.0, rel=1e-12)
        assert ell_from_p(0.1) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, -0.5])
    def test_refuses_p_outside_unit_interval(self, p):
        with pytest.raises(DomainError, match="outside"):
            ell_from_p(p)


class TestAssess:
    def test_clean_vector_trusted(self):
        codec = SignCodec(256)
        v = codec.encode(Message(b"attested payload"))
        rep = assess(codec, v, ell_threshold=100.0)
        assert rep.idempotent
        assert rep.cosine == 1.0
        assert rep.p_value == 0.0
        assert rep.ell == ELL_CAP
        assert rep.verdict == VERDICT_TRUSTED

    def test_null_vectors_stay_untrusted(self):
        # decode->re-encode of an unrelated vector aligns near
        # sqrt(2/pi) (every component's sign matches by construction),
        # so the null ell sits in the mid-50s; frozen band from a 1e4
        # trial run: min 46.3, median 57.5, max 70.8
        codec = SignCodec(256)
        rng = stream(20260819)
        ells = np.empty(2000)
        for i in range(2000):
            rep = assess(codec, sample_uniform(256, rng), ell_threshold=100.0)
            assert rep.verdict == VERDICT_UNTRUSTED
            ells[i] = rep.ell
        assert 40.0 <= ells.min() and ells.max() <= 80.0
        assert 52.0 <= float(np.median(ells)) <= 62.0

    def test_threshold_boundary(self):
        codec = SignCodec(256)
        v = codec.encode(Message(b"x"))
        assert assess(codec, v, ell_threshold=700.0).verdict == VERDICT_TRUSTED
        assert assess(codec, v, ell_threshold=700.1).verdict == VERDICT_UNTRUSTED

    def test_idempotence_failure_short_circuits(self):
        v = sample_uniform(256, stream(16))
        rep = assess(DriftingCodec(256), v, ell_threshold=10.0)
        assert not rep.idempotent
        assert rep.p_value == 1.0
        assert rep.ell == 0.0
        assert rep.verdict == VERDICT_UNTRUSTED
        want = DriftingCodec(256).decode(v.components[None, :])[0]
        assert rep.message.data == want.tobytes().rstrip(b"\x00")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_threshold(self, bad):
        # nan trusted nothing and -inf trusted everything, unmarked vectors too
        codec = SignCodec(256)
        for v in (codec.encode(Message(b"x")), sample_uniform(256, stream(3))):
            with pytest.raises(DomainError, match="finite"):
                assess(codec, v, ell_threshold=bad)

    def test_message_is_the_decode(self):
        codec = SignCodec(256)
        for v in (codec.encode(Message(b"payload")), sample_uniform(256, stream(4))):
            assert assess(codec, v, 100.0).message == codec.decode(v)

    @pytest.mark.parametrize("threshold", [5.0, 100.0])
    def test_block_equals_assess(self, threshold):
        # a block's cosines carry cosine's bits, so every field is equal
        codec = SignCodec(256)
        rng = stream(21)
        vs = [codec.encode(Message(b"row one")), sample_uniform(256, rng),
              codec.encode(Message(b"\xff" * 32)), sample_uniform(256, rng)]
        block = assess(codec, np.stack([v.components for v in vs]), threshold)
        for k, v in enumerate(vs):
            assert_row_is_report(block, k, assess(codec, v, threshold))
        assert [a.shape for a in (block.cosine, block.p_value, block.ell, block.idempotent,
                                  block.trusted, block.decoded)] == [(4,)] * 5 + [(4, 32)]
        assert (block.idempotent.dtype, block.trusted.dtype, block.decoded.dtype) == \
            (np.bool_, np.bool_, np.uint8)

    def test_block_honours_decode_only_subclass(self):
        codec = DriftingCodec(256)
        rng = stream(22)
        vs = [sample_uniform(256, rng) for _ in range(3)] + [codec.encode(Message(b"x"))]
        block = assess(codec, np.stack([v.components for v in vs]), 1.0)
        for k, v in enumerate(vs):
            assert_row_is_report(block, k, assess(codec, v, 1.0))
        assert block.idempotent.tolist() == [False] * 4
        assert block.decoded[3].tobytes() == b"x" + bytes(30) + b"\x01"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_block_refuses_non_finite_threshold(self, bad):
        codec = SignCodec(256)
        with pytest.raises(DomainError, match="finite"):
            assess(codec, codec.encode(octets([b"x"])), bad)

    def test_report_serialization(self):
        codec = SignCodec(256)
        rep = assess(codec, codec.encode(Message(b"row")), ell_threshold=5.0)
        d = rep.to_json_dict()
        assert set(d) == {"cosine", "p_value", "ell", "idempotent", "verdict"}
        assert d["idempotent"] is True
