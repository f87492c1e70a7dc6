"""Independent float64 reference for the SEP of quantized M-PAM over
Nakagami-m fading.

It evaluates the defining integral

    SEP = 1 - (2/M) * sum_{y,i} integral over D_(y,i) of P(y | sqrt(z) rho_i) f_Z(z) dz

with scipy.integrate.quad, where Z = |h|^2 ~ Gamma(m, omega/m), P(y | x) is
the probability that x + N(0, sigma^2/2) falls in quantizer bin y, and
D_(y,i) is the set of fading gains z on which the midpoint rule decodes
output y to amplitude rho_i. The regions are derived here from the rule
itself; nothing in this file imports pamq.

Every region is split at the knees ((q +- k*s)/rho)^2, k in {0, 1, 2, 4, 8},
of both bin edges q (s is the noise standard deviation), where the
Gaussian factor turns from ~0 to ~1, and around the bulk of the Gamma
density. Without the knee splits the Gauss-Kronrod nodes can step over a
transition only a few s wide at high SNR and return a wrong value with a
tiny error estimate.
"""
import math

import numpy as np
from scipy import integrate, special

KNEE_STEPS = (0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 8.0, -8.0)
DENSITY_STEPS = (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
QUAD_OPTS = dict(epsabs=1e-16, epsrel=1e-13, limit=200)


def symbol_energy(amps):
    """E_s = (2/M) * sum(rho_i^2) with M = 2 * len(amps)."""
    return sum(a * a for a in amps) / len(amps)


def decode(amps, edges, y, z):
    """Midpoint rule for positive output y at gain z: index of the amplitude
    closest to (q_(y-1) + q_y) / (2 sqrt(z)); the saturated bin decodes to
    the largest amplitude."""
    if math.isinf(edges[y]):
        return len(amps) - 1
    target = 0.5 * (edges[y - 1] + edges[y]) / math.sqrt(z)
    return int(np.argmin([abs(target - a) for a in amps]))


def decision_regions(amps, bounds):
    """Yield (y, i, z_lo, z_hi) for every non-empty D_(y,i), y >= 1.

    For a finite bin, output y decodes to rho_i while its midpoint over
    sqrt(z) lies between the midpoints of rho_i and its neighbours, so the
    region ends where (q_(y-1) + q_y) / sqrt(z) = rho_i + rho_(i+-1).
    """
    edges = (0.0,) + tuple(bounds) + (math.inf,)
    half = len(amps)
    for y in range(1, len(edges)):
        if math.isinf(edges[y]):
            yield y, half - 1, 0.0, math.inf
            continue
        qsum = edges[y - 1] + edges[y]
        for i in range(half):
            lo = 0.0 if i == half - 1 else (qsum / (amps[i] + amps[i + 1])) ** 2
            hi = math.inf if i == 0 else (qsum / (amps[i] + amps[i - 1])) ** 2
            if lo < hi:
                yield y, i, lo, hi


def bin_probability(lo, hi, x, s):
    """P(lo <= x + N(0, s^2) < hi), summed from the two small tails so
    that neither side cancels."""
    a, b = (lo - x) / s, (hi - x) / s
    if a >= 0.0:
        return special.ndtr(-a) - special.ndtr(-b)
    if b <= 0.0:
        return special.ndtr(b) - special.ndtr(a)
    return 1.0 - special.ndtr(a) - special.ndtr(-b)


def split_points(z_lo, z_hi, rho, q_edges, s, m, omega):
    """Sorted cut points inside (z_lo, z_hi), both ends included."""
    cuts = {z_lo, z_hi}
    for q in q_edges:
        if math.isinf(q):
            continue
        for k in KNEE_STEPS:
            v = q + k * s
            if v > 0.0:
                cuts.add((v / rho) ** 2)
    for k in DENSITY_STEPS:
        v = omega * (1.0 + k / math.sqrt(m))
        if v > 0.0:
            cuts.add(v)
    return sorted(c for c in cuts if z_lo <= c <= z_hi)


def sep_reference(amps, bounds, m, omega, snr):
    """SEP at linear SNR E_s / sigma^2 by adaptive quadrature."""
    amps, bounds = tuple(map(float, amps)), tuple(map(float, bounds))
    s = math.sqrt(symbol_energy(amps) / snr / 2.0)
    edges = (0.0,) + bounds + (math.inf,)
    lead = m * math.log(m / omega) - special.gammaln(m)

    def density(z):
        if z <= 0.0:
            return 0.0
        return math.exp(lead + (m - 1.0) * math.log(z) - m * z / omega)

    total = []
    for y, i, z_lo, z_hi in decision_regions(amps, bounds):
        rho, lo, hi = amps[i], edges[y - 1], edges[y]

        def integrand(z, rho=rho, lo=lo, hi=hi):
            return bin_probability(lo, hi, rho * math.sqrt(z), s) * density(z)

        cuts = split_points(z_lo, z_hi, rho, (lo, hi), s, m, omega)
        for a, b in zip(cuts, cuts[1:]):
            total.append(integrate.quad(integrand, a, b, **QUAD_OPTS)[0])
    return 1.0 - 2.0 / (2 * len(amps)) * math.fsum(total)


def dvo_exponent(m, bits, M, n_r=1):
    """Decay exponent m * n_r * (2^b - M + 2) / 2^b of jointly optimized
    non-uniform designs."""
    return m * n_r * (2**bits - M + 2) / 2**bits


def noiseless_q1_star():
    """Optimal noiseless boundary sqrt(9/8 ln 9) of 2-bit {1,3} 4-PAM, Rayleigh."""
    return math.sqrt(9.0 / 8.0 * math.log(9.0))


def noiseless_floor_star():
    """Floor 0.5 (1 + 9^-1.125 - 9^-0.125) reached at q1*."""
    return 0.5 * (1.0 + 9.0**-1.125 - 9.0**-0.125)


def simo_monte_carlo(amps, bounds, m, omega, snr, n_r, trials, rng, chunk=50_000):
    """Error count of product-likelihood ML detection over n_r antennas.

    Each antenna sees sqrt(z_n) x + N(0, sigma^2/2) through the quantizer;
    the detector picks the signed symbol maximizing the sum over antennas of
    log P(y_n | sqrt(z_n) x), with log-probabilities from log_ndtr so that
    no factor underflows.
    """
    amps = np.asarray(amps, dtype=float)
    edges = np.concatenate([[-np.inf], -np.asarray(bounds)[::-1], [0.0],
                            np.asarray(bounds), [np.inf]])
    symbols = np.concatenate([-amps[::-1], amps])
    s = math.sqrt(symbol_energy(tuple(amps)) / snr / 2.0)
    errors, done = 0, 0
    while done < trials:
        n = min(chunk, trials - done)
        tx = rng.integers(0, len(symbols), size=n)
        gain = np.sqrt(rng.gamma(m, omega / m, size=(n, n_r)))
        r = gain * symbols[tx][:, None] + rng.normal(0.0, s, size=(n, n_r))
        k = np.searchsorted(edges, r, side="right") - 1
        lo, hi = edges[k], edges[k + 1]
        ll = np.empty((n, len(symbols)))
        for j, sym in enumerate(symbols):
            a, b = (lo - gain * sym) / s, (hi - gain * sym) / s
            ll[:, j] = _log_interval(a, b).sum(axis=1)
        errors += int(np.count_nonzero(np.argmax(ll, axis=1) != tx))
        done += n
    return errors


def _log_interval(a, b):
    """log(Phi(b) - Phi(a)) for a < b, computed on the side of the smaller tail."""
    flip = a + b > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    lb, la = special.log_ndtr(b), special.log_ndtr(a)
    with np.errstate(divide="ignore"):
        return lb + np.log1p(-np.exp(la - lb))
