"""Decay-exponent analytics: theoretical diversity orders, empirical
log-log slope fits, bit-scaling of the noiseless error floor (the 4-PAM
optimum in closed form), and the vanishing-floor schedules.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .montecarlo import SimSpec, simulate
from .optimizer import DesignProblem, lemma7_rho_star, optimize_sweep, xg_design
from .sep import floor_geometric
from .system import (ChannelModel, Constellation, Quantizer, _boundary_count, _check_count,
                     _family_levels, _schedule_q1)

__all__ = [
    "DvoEstimate",
    "dvo_theory",
    "dvo_fit",
    "dvo_experiment",
    "dq_metric",
    "dq_successive_slopes",
    "optimal_floor_log2",
    "floor_schedule",
]

SEP_NUMERICAL_FLOOR = 1e-12
MIN_MC_ERRORS = 100
MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class DvoEstimate:
    slope: float
    window: tuple  # (lo_db, hi_db)
    r2: float
    points_used: int


def dvo_theory(m, b, M, *, uniform=False, n_r=1):
    """Exact decay exponent of the geometric design family as a rational number:
    m * n_r * (L - M + 2) / L with L = 2^b levels (non-uniform), or L = 4 for the
    uniform step (uniform=True; M = 4, single antenna only), where it is m / 2.
    The shape m is held to ChannelModel's domain, finite m >= 1/2.
    """
    ChannelModel(m)
    _check_count(n_r, "n_r", 1)
    if uniform and n_r != 1:
        raise ValueError("uniform decay exponent is single-antenna only")
    levels = _family_levels(M, b, uniform)
    return Fraction(m) * n_r * Fraction(levels - M + 2, levels)


def dvo_fit(curve, window):
    """Least-squares slope of -log10(sep) against log10(linear snr).

    curve: iterable of (snr_db, sep); only points inside the dB window and
    above the numerical floor participate.
    """
    pts = [
        (sdb, sep)
        for sdb, sep in curve
        if window[0] <= sdb <= window[1] and sep >= SEP_NUMERICAL_FLOOR
    ]
    if len(pts) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} usable points in the window")
    x = np.array([sdb / 10.0 for sdb, _ in pts])  # log10 of linear snr
    y = np.array([-math.log10(sep) for _, sep in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DvoEstimate(float(slope), tuple(window), r2, len(pts))


def _warm_start(m, bits, M, snr, uniform):
    """Analytic geometric-schedule design used to seed the joint optimizer."""
    sigma = math.sqrt((2.0 / M) / snr)
    levels = _family_levels(M, bits, uniform)
    rho = lemma7_rho_star(A=float(m * (levels - M + 2)), B=float(M - 2), C=float(m), sigma=sigma)
    rho = min(rho, 0.9)
    q1 = _schedule_q1(rho, M, 0.5 * (M - 2 + levels))
    if uniform:
        return Constellation.geometric(rho, M), Quantizer.uniform(q1, bits)
    return xg_design(rho, q1, M, bits)


def dvo_experiment(m, b, M, n_r, snr_db_grid, *, uniform=False, budget=10**6, seed=0):
    """Empirical decay exponent of jointly-optimized designs, with a non-uniform
    quantizer or with the uniform step (uniform=True).

    Per SNR point the constellation and quantizer are re-optimized with a
    continuation warm start. The SEP is the design's recorded objective value
    (n_r = 1: the closed form for integer m, quadrature otherwise), or by Monte
    Carlo with the optimized single-antenna design (n_r > 1).
    Returns (DvoEstimate, theory_value).
    """
    theory = dvo_theory(m, b, M, uniform=uniform, n_r=n_r)
    ch = ChannelModel(m, 1.0)
    snr_db_grid = list(snr_db_grid)
    # the fit can only drop points, so a short grid fails before any design
    if len(snr_db_grid) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} usable points in the window")
    if n_r > 1:
        _check_count(budget, "budget", 1)
    designs = optimize_sweep(DesignProblem(
        channel=ch, M=M, bits=b, uniform=uniform, n_starts=6, seed=seed,
        init=_warm_start(m, b, M, 10.0 ** (snr_db_grid[0] / 10.0), uniform),
    ), snr_db_grid)

    window = (min(snr_db_grid), max(snr_db_grid))
    if n_r == 1:
        curve = [(sdb, r.sep) for sdb, r in zip(snr_db_grid, designs)]
        return dvo_fit(curve, window), theory

    estimates = []
    for point, (sdb, r) in enumerate(zip(snr_db_grid, designs)):
        spec = SimSpec(
            constellation=r.constellation, quantizer=r.quantizer, channel=ch,
            snr_db=(sdb,), trials=budget, n_r=n_r, seed=seed + point,
        )
        estimates.extend(simulate(spec))
    curve = [(e.snr_db, e.sep_hat) for e in estimates if e.errors >= MIN_MC_ERRORS]
    return dvo_fit(curve, window), theory


def dq_metric(log2_floor_fn, b_range):
    """Least-squares slope of -log2(floor) against the bit count, from log2 floors."""
    bs = list(b_range)
    y = [-log2_floor_fn(b) for b in bs]
    slope = np.polyfit(np.asarray(bs, dtype=float), np.asarray(y), 1)[0]
    return float(slope)


def dq_successive_slopes(log2_floor_fn, b_range):
    """Per-bit increments of -log2(floor); strictly increasing increments
    are the double-exponential signature."""
    bs = list(b_range)
    vals = [-log2_floor_fn(b) for b in bs]
    return [
        (v1 - v0) / (b1 - b0)
        for (b0, v0), (b1, v1) in zip(zip(bs, vals), zip(bs[1:], vals[1:]))
    ]


def optimal_floor_log2(m, bits, *, uniform=False):
    """log2 of the minimum noiseless SEP of a 4-PAM receiver with
    constellation {+-1, +-3}, optimized over the single free quantizer
    parameter (q_1 with ratio-3 boundaries, or with uniform=True the step).

    For M = 4 both structures make the floor 0.5 * [P(W < x/9) + P(W > r^2 x)],
    W = Z / omega ~ Gamma(m, 1/m), with x = q_1^2 / omega and r = q_K / q_1
    (3^(K-1), or K for the uniform step). Its one stationary point,
    x* = ln(9 r^2) / (r^2 - 1/9), is its minimum for every m and omega, so the
    floor depends on m and b alone. The two tails are evaluated once at x*, in
    high precision, so double-exponentially small floors stay representable at
    any b. m is held to ChannelModel's domain.
    """
    import mpmath  # loaded by the first call, not by import pamq

    ChannelModel(m)
    k = _boundary_count(bits, max_bits=math.inf)
    with mpmath.workdps(60):
        r2 = (mpmath.mpf(k) if uniform else mpmath.mpf(3) ** (k - 1)) ** 2
        x = mpmath.log(9 * r2) / (r2 - mpmath.mpf(1) / 9)
        mp_m = mpmath.mpf(m)
        low = mpmath.gammainc(mp_m, 0, mp_m * x / 9, regularized=True)
        high = mpmath.gammainc(mp_m, mp_m * r2 * x, mpmath.inf, regularized=True)
        return float(mpmath.log((low + high) / 2, 2))


def floor_schedule(rho_grid, a, b, M, ch, *, uniform=False):
    """Vanishing-floor construction: evaluate the geometric floor bound
    along q_1(rho) = sqrt(C^2 rho^a).

    The exponent must satisfy M - 2 < a < L, with L = 2^b levels
    (non-uniform) or L = 4 for the uniform step at M = 4.
    """
    levels = _family_levels(M, b, uniform)
    if not (M - 2 < a < levels):
        raise ValueError(f"exponent a must lie in the open interval ({M - 2}, {levels})")
    return [(rho, floor_geometric(rho, M, _schedule_q1(rho, M, a), ch, b, uniform=uniform))
            for rho in rho_grid]
