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

A block of rows is scored in one pass: the continued fractions of
each branch run as one masked Lentz recurrence over an array of x,
each element stopping at its own convergence step.  The recurrence
uses only + - * /, abs and compares, which numpy rounds as Python
does, so every element carries the bits of a one-element call.  The
prefactor and ell stay per row on math.log, log1p, exp, lgamma and
log10: numpy's vectorised log, log1p, exp and log10 can differ from
the C library's in the last bit, and a p-value must not depend on
the block it was scored in.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .codec import Codec, Message, _message
from .errors import DimensionError, DomainError
from .sphere import UnitVector, _to_rows, cosine

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


def _beta_cf(a: float, b: float, x: list[float]) -> np.ndarray:
    """Continued fraction for the incomplete beta, by modified Lentz, at
    each element of an array of x.

    Converges for x < (a + 1)/(a + b + 2); the caller routes the
    complementary range through the symmetry relation.  Every element
    runs the scalar recurrence, with the same operations in the same
    order, and leaves the array at its own convergence step.
    """
    x = np.asarray(x, dtype=np.float64)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    live = np.arange(x.size)  # where each element still iterating goes in out
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d
    m = 0
    while live.size:
        if m == _MAX_ITER:
            raise ArithmeticError(f"incomplete beta continued fraction stalled at "
                                  f"a={a}, b={b}, x={float(x[0])}")
        m += 1
        m2 = 2 * m
        # one Lentz update for the even, then the odd coefficient
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d[np.abs(d) < _FPMIN] = _FPMIN
            c = 1.0 + aa / c
            c[np.abs(c) < _FPMIN] = _FPMIN
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) <= _LENTZ_EPS
        if done.any():
            out[live[done]] = h[done]
            going = ~done
            live, x, c, d, h = live[going], x[going], c[going], d[going], h[going]
    return out


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
    return _log_reg_inc_betas([x], a, b)[0]


def _log_reg_inc_betas(xs: list[float], a: float, b: float) -> list[float]:
    """log I_x(a, b) at each checked x of a list: each branch of the
    symmetry relation runs its continued fractions as one array."""
    edge = (a + 1.0) / (a + b + 2.0)
    lower = iter(_beta_cf(a, b, [x for x in xs if 0.0 < x < edge]).tolist())
    upper = iter(_beta_cf(b, a, [1.0 - x for x in xs if edge <= x < 1.0]).tolist())
    ln_beta = _ln_beta(a, b)
    out = []
    for x in xs:
        if x == 0.0:
            out.append(-math.inf)
        elif x == 1.0:
            out.append(0.0)
        else:
            ln_front = a * math.log(x) + b * math.log1p(-x) - ln_beta
            if x < edge:
                out.append(ln_front + math.log(next(lower) / a))
            else:
                out.append(math.log1p(-(math.exp(ln_front) * next(upper) / b)))
    return out


def spherical_p_value(c: float, dim: int) -> float:
    """Chance probability of cosine alignment at least |c| in dimension d.

    Non-positive cosines carry no alignment evidence and map to 1.
    Cosines beyond |1| by more than a rounding tolerance are domain
    errors; within it they are clamped.
    """
    return _p_values([c], dim)[0]


def _p_values(cosines: list[float], dim: int) -> list[float]:
    """spherical_p_value at each cosine of a list, the continued
    fractions in one pass."""
    if dim < 2:
        raise DimensionError(f"dimension {dim} < 2")
    xs = []
    for c in cosines:
        if not math.isfinite(c) or abs(c) > 1.0 + _COS_SLACK:
            raise DomainError(f"cosine {c} outside [-1, 1]")
        c = min(1.0, max(-1.0, c))
        # 1 - c^2 without cancellation at c ~ 1; None marks p = 1
        xs.append((1.0 - c) * (1.0 + c) if c > 0.0 else None)
    logs = iter(_log_reg_inc_betas([x for x in xs if x is not None], (dim - 1) / 2.0, 0.5))
    # exp may underflow to 0.0
    return [1.0 if x is None else math.exp(next(logs)) for x in xs]


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
        out = asdict(self)
        del out["message"]
        return out


@dataclass(frozen=True, eq=False)
class BlockReport:
    """Outcome of scoring n recovered rows: entry k of each (n,) array,
    and row k of decoded, score row k as a ConfidenceReport would."""

    cosine: np.ndarray
    p_value: np.ndarray
    ell: np.ndarray
    idempotent: np.ndarray  # bool
    trusted: np.ndarray  # bool: the verdict is VERDICT_TRUSTED
    decoded: np.ndarray  # (n, capacity_bytes) uint8, zero-padded


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
           ell_threshold: float) -> ConfidenceReport | BlockReport:
    """Score a recovered vector: self-consistency, then tail probability.

    The vector is decoded, re-encoded and decoded again; a second decode
    that differs from the first in any byte is an immediate rejection.
    Otherwise the cosine to the re-encoded vector is converted to a
    p-value and the verdict compares ell = -log10(p) against the
    caller's finite threshold.

    v may also be a block, an (n, dim) array of unit rows: decode,
    re-encode, the cosines and the p-values' continued fractions then
    run on the whole block, and the result is a BlockReport.  One
    vector is scored as a block of one row.
    """
    check_ell_threshold(ell_threshold)
    rows, one = _to_rows(v)
    decoded = codec.decode(rows)
    reencoded = codec.encode(decoded)
    idempotent = (codec.decode(reencoded) == decoded).all(axis=1)
    cosines = cosine(rows, reencoded)
    p_values = np.ones(len(rows))
    p_values[idempotent] = _p_values(cosines[idempotent].tolist(), rows.shape[1])
    ells = np.zeros(len(rows))
    ells[idempotent] = [ell_from_p(p) for p in p_values[idempotent].tolist()]
    trusted = idempotent & (ells >= ell_threshold)
    if not one:
        return BlockReport(cosine=cosines, p_value=p_values, ell=ells,
                           idempotent=idempotent, trusted=trusted, decoded=decoded)
    return ConfidenceReport(
        cosine=float(cosines[0]), p_value=float(p_values[0]), ell=float(ells[0]),
        idempotent=bool(idempotent[0]),
        verdict=VERDICT_TRUSTED if trusted[0] else VERDICT_UNTRUSTED,
        message=_message(decoded[0]))
