"""Holds the float64 SEP reference to a 30-digit mpmath evaluation of the
same integral, and its decision regions to the midpoint rule itself.

Run with:  python3 -m pytest perfbench/test_reference.py
"""
import math

import mpmath
import numpy as np
import pytest

from reference import decision_regions, decode, sep_reference, split_points

# (amplitudes, boundaries, m, snr_db): integer and non-integer shapes, 2-4 bits,
# 4- and 8-PAM, from 0 to 60 dB
POINTS = [
    ((1.0, 3.0), (1.5,), 1.0, 0.0),
    ((1.0, 3.0), (1.5,), 1.0, 60.0),
    ((1.0, 3.0), (0.5, 1.0, 1.5), 2.0, 30.0),
    ((0.9, 3.2), (1.4,), 0.5, 20.0),
    ((1.0, 3.0, 5.0, 7.0), (2.0, 4.0, 6.0), 1.0, 45.0),
    ((1.0, 3.0, 5.0, 7.0), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), 2.5, 10.0),
]


def sep_mpmath(amps, bounds, m, omega, snr):
    """The defining integral at 30 digits, over the same decision regions."""
    with mpmath.workdps(30):
        m, omega = mpmath.mpf(m), mpmath.mpf(omega)
        es = mpmath.fsum(mpmath.mpf(a) ** 2 for a in amps) / len(amps)
        s = mpmath.sqrt(es / snr / 2)
        edges = (0.0,) + tuple(bounds) + (math.inf,)
        lead = m * mpmath.log(m / omega) - mpmath.loggamma(m)

        def tail(t):  # Q(t) = P(N(0,1) > t)
            return mpmath.erfc(t / mpmath.sqrt(2)) / 2

        def bin_prob(lo, hi, x):
            a = (lo - x) / s
            b = mpmath.inf if math.isinf(hi) else (hi - x) / s
            if a >= 0:
                return tail(a) - tail(b)
            return 1 - tail(-a) - tail(b)

        total = []
        for y, i, z_lo, z_hi in decision_regions(amps, bounds):
            rho = mpmath.mpf(amps[i])
            lo, hi = mpmath.mpf(edges[y - 1]), edges[y]
            hi = hi if math.isinf(hi) else mpmath.mpf(hi)

            def f(z, rho=rho, lo=lo, hi=hi):
                if z <= 0:
                    return mpmath.mpf(0)
                dens = mpmath.exp(lead + (m - 1) * mpmath.log(z) - m * z / omega)
                return bin_prob(lo, hi, rho * mpmath.sqrt(z)) * dens

            cuts = split_points(z_lo, z_hi, amps[i], (edges[y - 1], edges[y]),
                                float(s), float(m), float(omega))
            pts = [mpmath.inf if math.isinf(c) else mpmath.mpf(c) for c in cuts]
            total.append(mpmath.quad(f, pts))
        return 1 - 2 * mpmath.fsum(total) / (2 * len(amps))


@pytest.mark.parametrize("amps,bounds,m,snr_db", POINTS)
def test_reference_matches_mpmath(amps, bounds, m, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    ref = sep_reference(amps, bounds, m, 1.0, snr)
    exact = float(sep_mpmath(amps, bounds, m, 1.0, snr))
    assert abs(ref - exact) <= 1e-11 * exact


@pytest.mark.parametrize("amps,bounds", [((1.0, 3.0), (0.5, 1.0, 1.5)),
                                         ((0.7, 2.0, 3.1, 5.5), (1.0, 2.5, 4.0))])
def test_regions_follow_midpoint_rule(amps, bounds):
    edges = (0.0,) + bounds + (math.inf,)
    regions = list(decision_regions(amps, bounds))
    rng = np.random.default_rng(1)
    for z in rng.exponential(2.0, size=200):
        for y in range(1, len(edges)):
            owners = [i for yy, i, lo, hi in regions if yy == y and lo < z < hi]
            assert owners == [decode(amps, edges, y, z)]
