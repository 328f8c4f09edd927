"""Spherical confidence scoring for recovered payload vectors.

Under the null hypothesis that a recovered vector is a uniformly
random direction, the cosine c between it and any fixed unit vector
in dimension d has the two-sided tail

    Pr(|cos| >= c) = I_{1-c^2}((d-1)/2, 1/2),        c > 0,

where I_x(a, b) is the regularized incomplete beta function.  The
score is reported as ell = -log10(p): the number of decimal orders
of magnitude by which chance alignment is ruled out.

The incomplete beta is evaluated one way, in log space: a modified
Lentz continued fraction times a prefactor, with the symmetry
I_x(a,b) = 1 - I_{1-x}(b,a) for the upper range (Press et al.,
Numerical Recipes, 3rd ed., section 6.4).  Payload cosines near 1 drive
p below the smallest positive float; log_reg_inc_beta stays finite
there, so the log value still tells genuine detections apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Codec, Message, idempotence_check
from .errors import DimensionError, DomainError
from .sphere import UnitVector, _from_rows, _to_rows, cosine

# Reported ell when p underflows to exactly 0 (below ~1e-323).  The
# cap exceeds every representable -log10(p), so capped scores still
# order above all finite-p scores.
ELL_CAP = 700.0

# Lentz continued-fraction controls.
_MAX_ITER = 500
_LENTZ_EPS = 1e-15
_FPMIN = 1e-300

# Tolerance for cosines that exceed |1| through upstream rounding.
_COS_SLACK = 1e-12

VERDICT_TRUSTED = "trusted"
VERDICT_UNTRUSTED = "untrusted"


def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz.

    Converges for x < (a + 1)/(a + b + 2); the caller routes the
    complementary range through the symmetry relation.
    """
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


def _check_beta_args(x: float, a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x} outside [0, 1]")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    x : float
        Integration limit in [0, 1].
    a, b : float
        Positive shape parameters.

    Returns
    -------
    float
        I_x(a, b) to about 1e-12 relative accuracy over the tested
        parameter range (a, b up to a few hundred); exp of
        log_reg_inc_beta, so it underflows to 0.0 in the deep tail.
    """
    return math.exp(log_reg_inc_beta(x, a, b))


def log_reg_inc_beta(x: float, a: float, b: float) -> float:
    """Natural log of I_x(a, b); finite even where the value underflows."""
    _check_beta_args(x, a, b)
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return 0.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(_beta_cf(a, b, x) / a)
    tail = math.exp(ln_front) * _beta_cf(b, a, 1.0 - x) / b
    return math.log1p(-tail)


def spherical_p_value(c: float, dim: int) -> float:
    """Chance probability of cosine alignment at least |c| in dimension d.

    Non-positive cosines carry no alignment evidence and map to 1.
    Cosines beyond |1| by more than a rounding tolerance are domain
    errors; within it they are clamped.
    """
    if dim < 2:
        raise DimensionError(f"dimension {dim} < 2")
    if not math.isfinite(c) or abs(c) > 1.0 + _COS_SLACK:
        raise DomainError(f"cosine {c} outside [-1, 1]")
    c = min(1.0, max(-1.0, c))
    if c <= 0.0:
        return 1.0
    x = (1.0 - c) * (1.0 + c)  # 1 - c^2 without cancellation at c ~ 1
    return reg_inc_beta(x, (dim - 1) / 2.0, 0.5)  # may underflow to 0.0


@dataclass(frozen=True)
class ConfidenceReport:
    """Outcome of scoring one recovered vector against a codec."""

    cosine: float
    p_value: float
    ell: float
    idempotent: bool
    verdict: str
    message: Message  # the decode of the scored vector; not serialized

    def to_json_dict(self) -> dict:
        return {
            "cosine": self.cosine,
            "p_value": self.p_value,
            "ell": self.ell,
            "idempotent": self.idempotent,
            "verdict": self.verdict,
        }


def ell_from_p(p_value: float) -> float:
    """-log10(p), with underflowed p reported as the documented cap."""
    if not 0.0 <= p_value <= 1.0:
        raise DomainError(f"p_value {p_value} outside [0, 1]")
    if p_value == 0.0:
        return ELL_CAP
    return -math.log10(p_value)


def check_ell_threshold(ell_threshold: float) -> None:
    """Refuse a threshold that is not finite: nan would trust nothing
    and -inf everything."""
    if not math.isfinite(ell_threshold):
        raise DomainError(f"ell threshold {ell_threshold} must be finite")


def assess(codec: Codec, v: UnitVector | np.ndarray,
           ell_threshold: float) -> ConfidenceReport | list[ConfidenceReport]:
    """Score a recovered vector: self-consistency, then tail probability.

    The vector is decoded and re-encoded; failure of byte-exact
    idempotence is an immediate rejection.  Otherwise the cosine to
    the re-encoded vector is converted to a p-value and the verdict
    compares ell = -log10(p) against the caller's finite threshold.

    v may also be a block, an (n, dim) array of unit rows: decode,
    re-encode and the cosines then run on the whole block, the p-value
    row by row, and the result is one report per row.  One vector is
    scored as a block of one row.
    """
    check_ell_threshold(ell_threshold)
    rows, one = _to_rows(v)
    passes, reencoded, decoded = idempotence_check(codec, rows)
    reports = []
    for c, ok, message in zip(cosine(rows, reencoded).tolist(), passes, decoded):
        p = spherical_p_value(c, rows.shape[1]) if ok else 1.0
        ell = ell_from_p(p) if ok else 0.0
        verdict = VERDICT_TRUSTED if ok and ell >= ell_threshold else VERDICT_UNTRUSTED
        reports.append(ConfidenceReport(cosine=c, p_value=p, ell=ell, idempotent=ok,
                                        verdict=verdict, message=message))
    return _from_rows(reports, one)
