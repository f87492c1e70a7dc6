"""Symbol error probability engines.

Three routes to the same quantity: an exact finite series (integer m), an
adaptive-quadrature evaluation of the defining integral (any m >= 1/2),
and the closed-form noiseless limit, plus error-floor bounds and the AQNM
linearized baseline. Every engine runs one walk (_regions) of the decision
regions that can be non-empty, planned once per (M/2, K), on float tuples of
the amplitudes and the quantizer's edges (0, q_1, ..., q_K, inf), which the
design objective passes straight in; it takes the law of Z at each region end
once from the channel, which owns that law. The series SEP and its gradient
share one series (_h_series), and the noiseless SEP is its gradient routine's
value. The gradient's integer-m constants are built once per (m, omega); the
quadrature's integrand is one closure per call on the channel's constants.

Throughout, the quantized observation of symbol rho_i over fading gain z
is governed by the integrand Q(-c + sqrt(b*z)) with c = sqrt(2) q_y / sigma
and b = 2 rho_i^2 / sigma^2, where sigma^2 = E_s / SNR.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .detector import _region_bounds
from .specfun import SQRT2, SQRT_2PI, _q_float, moment_primitive
from .system import (ChannelModel, Constellation, _boundary_count, _family_levels,
                     _geometric_boundary, _sigma2, sigma2_from_snr, symbol_energy)

__all__ = [
    "SepResult",
    "h_function",
    "h_function_quad",
    "sep_closed_form",
    "sep_quadrature",
    "sep_noiseless",
    "sep_and_grad",
    "floor_bounds",
    "floor_geometric",
    "sep_aqnm",
    "lloyd_max_gaussian",
    "default_alpha",
]

CLAMP_SLACK = 1e-12
QUAD_TOL = 1e-12  # absolute and relative, on each quadrature subinterval
LLOYD_MAX_ITERS = 500
LLOYD_MAX_TOL = 1e-14  # stop once no level moves by this much


@dataclass(frozen=True)
class SepResult:
    value: float  # in [0, 1]: every engine passes it through _clamp_probability
    method: str  # closed_form | quadrature | noiseless | bound_upper | bound_lower | aqnm
    abs_error_est: float = 0.0


def _clamp_probability(p):
    if not -CLAMP_SLACK <= p <= 1.0 + CLAMP_SLACK:
        raise ArithmeticError(f"probability {p} outside [0,1] beyond slack")
    return min(max(p, 0.0), 1.0)


def _square(x):
    """x ** 2, or +inf where that overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def h_function(m, omega, b, c, z_lo, z_hi):
    """Exact finite-series value of the integral of Q(-c + sqrt(b z)) f_Z(z) over
    (z_lo, z_hi), for integer m >= 1, b, c >= 0, 0 <= z_lo <= z_hi and ChannelModel(m, omega).

    c = +inf reduces to the plain Gamma measure of the interval; b = 0
    reduces to Q(-c) times that measure.
    """
    if m < 1 or not float(m).is_integer():
        raise ValueError("closed form requires integer m >= 1")
    g_lo, g_hi = _end_survivals(ChannelModel(m, omega), b, c, z_lo, z_hi)
    return 0.0 if z_lo == z_hi else _h_series(int(m), omega, b, c, z_lo, z_hi, g_lo, g_hi)[0]


def _end_survivals(ch, b, c, z_lo, z_hi):
    """(P(Z > z_lo), P(Z > z_hi)) of ch, once b, c >= 0 and 0 <= z_lo <= z_hi are checked."""
    if not (b >= 0 and c >= 0):  # NaN fails too
        raise ValueError("b and c must be nonnegative")
    if not 0.0 <= z_lo <= z_hi:
        raise ValueError("need 0 <= z_lo <= z_hi")
    return ch.survival(z_lo), ch.survival(z_hi)


def _h_series(m, omega, b, c, z_lo, z_hi, g_lo, g_hi):
    """h_function's series for checked z_lo < z_hi, given the survivals g_lo, g_hi:
    (value, parts), with parts = (u_lo, u_hi, s, expo, f) of the series, or None for
    c = inf and b = 0, which need none. No gradient needs the Q factors at the ends:
    ML regions meet where the likelihoods tie (see sep_and_grad)."""
    if math.isinf(c):
        return g_lo - g_hi, None
    if b == 0.0:
        return _q_float(-c) * (g_lo - g_hi), None

    t_lo = math.sqrt(b * z_lo)
    boundary = _q_float(-c + t_lo) * g_lo
    alpha = 2.0 * m / (omega * b)
    s = alpha + 1.0
    root_s = math.sqrt(s)
    u_lo = (-c + s * t_lo) / root_s
    if math.isinf(z_hi):
        u_hi = math.inf
    else:
        t_hi = math.sqrt(b * z_hi)
        boundary -= _q_float(-c + t_hi) * g_hi
        u_hi = (-c + s * t_hi) / root_s
    # f[l]: integral of u^l exp(-u^2/2) over (u_lo, u_hi)
    f = [moment_primitive(u_hi, l) - moment_primitive(u_lo, l) for l in range(2 * m - 1)]
    expo = math.exp(-0.5 * c * c * alpha / s)
    terms = []
    if c > 0.0:
        for r in range(m):
            base = (m / (omega * b)) ** r / (SQRT_2PI * math.factorial(r))
            for l in range(2 * r + 1):
                terms.append(
                    base
                    * math.comb(2 * r, l)
                    * expo
                    * c ** (2 * r - l)
                    * f[l]
                    / s ** (2 * r - 0.5 * (l - 1))
                )
    else:
        scale = math.sqrt(omega * b / (omega * b + 2.0 * m)) / SQRT_2PI
        for r in range(m):
            terms.append(
                (m / (omega * b + 2.0 * m)) ** r
                * scale
                * f[2 * r]
                / math.factorial(r)
            )
    # fsum is correctly rounded, so the order of the terms does not matter
    return boundary - math.fsum(terms), (u_lo, u_hi, s, expo, f)


def h_function_quad(m, omega, b, c, z_lo, z_hi):
    """Adaptive-quadrature value of the same integral, for any ChannelModel(m, omega).

    Returns (value, abs_error_estimate). The integration interval is split
    at the transition point z = c^2 / b of the Q factor.
    """
    ch = ChannelModel(m, omega)
    g_lo, g_hi = _end_survivals(ch, b, c, z_lo, z_hi)
    return (0.0, 0.0) if z_lo == z_hi else _h_quad(ch, b, c, z_lo, z_hi, g_lo, g_hi)


def _h_quad(ch, b, c, z_lo, z_hi, g_lo, g_hi):
    """h_function_quad for checked z_lo < z_hi, given the survivals g_lo, g_hi."""
    if math.isinf(c):
        return g_lo - g_hi, 0.0
    from scipy.integrate import quad  # loaded by the first quadrature, not by import pamq

    # ChannelModel.density and the Q factor inlined: one Python call per node and
    # no NumPy scalar in the arithmetic
    m, omega = ch.m, ch.omega
    lead, m1, lg = ch._density_terms

    def integrand(z):
        if z <= 0.0:
            return 0.0
        return (0.5 * float(special.erfc((-c + math.sqrt(b * z)) / SQRT2))
                * math.exp(lead + m1 * math.log(z) - m * z / omega - lg))

    cuts = [z_lo]
    if b > 0.0:
        knee = c * c / b
        if z_lo < knee < z_hi:
            cuts.append(knee)
    # keep one finite split before an infinite tail
    tail_start = max(cuts[-1], omega * (1.0 + 10.0 / math.sqrt(m)))
    if math.isinf(z_hi) and tail_start > cuts[-1]:
        cuts.append(tail_start)
    cuts.append(z_hi)

    total, err = 0.0, 0.0
    for a, bnd in zip(cuts, cuts[1:]):
        v, e = quad(integrand, a, bnd, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        total += v
        err += e
    return total, err


@functools.lru_cache(maxsize=None)
def _region_plan(half, k):
    """(y, i) pairs that can be non-empty, in sum order: all i for y <= K, the last at K+1."""
    return tuple((y, i) for y in range(1, k + 1) for i in range(half)) + ((k + 1, half - 1),)


def _regions(amps, edges, reach, measure):
    """(y, i, lower, upper, measure(lower), measure(upper)) of each non-empty decision region
    (noiseless one, for reach) of the amplitudes amps and the edges (0, q_1, ..., q_K, inf),
    with measure evaluated once per endpoint, which neighbouring regions share."""
    memo = {}
    for y, i in _region_plan(len(amps), len(edges) - 2):
        lower, upper = _region_bounds(amps, edges, y, i, reach)
        if not lower < upper:
            continue
        for z in (lower, upper):
            if z not in memo:
                memo[z] = measure(z)
        yield y, i, lower, upper, memo[lower], memo[upper]


def _series_regions(amps, edges, ch, sigma2):
    """(y, i, lower, upper, b_i, c_hi, c_lo, g_lo, g_hi) of each non-empty decision region at
    noise variance sigma2: the series' b and its c at the output's two boundaries, and the
    survivals of Z at the region's ends."""
    sigma = math.sqrt(sigma2)
    b = [2.0 * a ** 2 / sigma2 for a in amps]
    cs = [math.sqrt(2.0) * e / sigma for e in edges]
    for y, i, lower, upper, g_lo, g_hi in _regions(amps, edges, False, ch.survival):
        yield y, i, lower, upper, b[i], cs[y], cs[y - 1], g_lo, g_hi


def sep_closed_form(c, q, ch, snr):
    """Average SEP by the exact finite series; requires integer m."""
    if not ch.integer_m:
        raise ValueError("closed form requires integer m; use sep_quadrature")
    m, omega, amps = int(ch.m), ch.omega, c.amplitudes
    terms = [_h_series(m, omega, b_i, c_hi, lower, upper, g_lo, g_hi)[0]
             - _h_series(m, omega, b_i, c_lo, lower, upper, g_lo, g_hi)[0]
             for _, _, lower, upper, b_i, c_hi, c_lo, g_lo, g_hi
             in _series_regions(amps, q.edges, ch, _sigma2(amps, snr))]
    return SepResult(_clamp_probability(1.0 - 2.0 / c.M * math.fsum(terms)), "closed_form")


def sep_quadrature(c, q, ch, snr):
    """Average SEP by numerical integration of the defining expression;
    valid for any m >= 1/2."""
    value, err = _sep_quadrature(c.amplitudes, q.edges, ch, snr)
    return SepResult(value, "quadrature", abs_error_est=err)


def _sep_quadrature(amps, edges, ch, snr):
    """sep_quadrature's (value, abs_error_est) of the float tuples amps and edges."""
    terms, errs, sigma2 = [], [], _sigma2(amps, snr)
    for _, _, lower, upper, b_i, c_hi, c_lo, *g in _series_regions(amps, edges, ch, sigma2):
        v_hi, e_hi = _h_quad(ch, b_i, c_hi, lower, upper, *g)
        v_lo, e_lo = _h_quad(ch, b_i, c_lo, lower, upper, *g)
        terms.append(v_hi - v_lo)
        errs.append(e_hi + e_lo)
    weight = 2.0 / (2 * len(amps))  # 2 / M
    return _clamp_probability(1.0 - weight * math.fsum(terms)), weight * math.fsum(errs)


def sep_exact(c, q, ch, snr):
    """Average SEP: noiseless for snr None, else by the closed form for integer m and by
    quadrature otherwise."""
    if snr is None:
        return sep_noiseless(c, q, ch)
    if ch.integer_m:
        return sep_closed_form(c, q, ch, snr)
    return sep_quadrature(c, q, ch, snr)


@functools.lru_cache(maxsize=64)
def _grad_plan(m, omega):
    """_h_series_grad's constants for integer m and omega: (m, omega, 2 (m/omega)^m,
    (m-1)! sqrt(2 pi), and the binomial rows of 2m - 1 and 2m)."""
    return (m, omega, 2.0 * (m / omega) ** m, math.factorial(m - 1) * SQRT_2PI,
            tuple(math.comb(2 * m - 1, l) for l in range(2 * m)),
            tuple(math.comb(2 * m, l) for l in range(2 * m + 1)))


def _h_series_grad(plan, b, c, z_lo, z_hi, g_lo, g_hi):
    """_h_series' value with dH/dc and dH/db: (value, d_c, d_b), with m and omega
    from plan = _grad_plan(m, omega). In t = sqrt(z), dH/dc = A T_(2m-1) and
    dH/db = -A T_(2m) / (2 sqrt(b)), with T_k the integral of t^k exp(-u^2/2) du over
    the u interval of the series, summed from its moment differences f. No dH/dz
    terms: ML regions meet where the likelihoods tie."""
    m, omega, lead_num, lead_den, odd_row, even_row = plan
    value, parts = _h_series(m, omega, b, c, z_lo, z_hi, g_lo, g_hi)
    if parts is None:  # c = inf: no dependence; b = 0: Q(-c) times the mass
        d_c = 0.0 if math.isinf(c) else math.exp(-0.5 * c * c) / SQRT_2PI * (g_lo - g_hi)
        return value, d_c, 0.0
    u_lo, u_hi, s, expo, f = parts
    f = list(map(float, f))  # moment_primitive's NumPy scalars: the same floats

    # the two orders above the series, by parts: F_l = [-u^(l-1) e^(-u^2/2)] + (l-1) F_(l-2)
    e_lo = math.exp(-0.5 * u_lo * u_lo)
    e_hi = 0.0 if math.isinf(u_hi) else math.exp(-0.5 * u_hi * u_hi)
    for k in (2 * m - 2, 2 * m - 1):
        edges = u_lo ** k * e_lo - (u_hi ** k * e_hi if e_hi else 0.0)
        f.append(edges + k * f[k - 1] if k else edges)
    # T_k: t^k against exp(-u^2/2) du, where t = sqrt(z) = r_c + r_u u
    root_b, root_bs = math.sqrt(b), math.sqrt(b * s)
    r_c, r_u = c / (s * root_b), 1.0 / root_bs
    t_odd = t_even = 0.0
    top = 2 * m - 1
    for l, n in enumerate(odd_row):
        t_odd += n * r_c ** (top - l) * r_u ** l * f[l]
    top += 1
    for l, n in enumerate(even_row):
        t_even += n * r_c ** (top - l) * r_u ** l * f[l]
    lead = lead_num * expo / (lead_den * root_bs)
    return value, lead * t_odd, -lead * t_even / (2.0 * root_b)


def _add_endpoint_grad(grad_q, grad_rho, weight, z, amps, edges, y, i, upper):
    """Add weight * dz/d(q, rho) for the endpoint z in (0, inf) of the noiseless region
    (y, i): the square of q_y (upper) or q_(y-1) (lower) over rho_i where the reach bound
    binds, else of q_(y-1) + q_y over rho_i + rho_(i-1) (upper) or rho_i + rho_(i+1)
    (lower). The ends 0 and inf move with nothing. The noisy SEP has none: ML regions
    meet where the likelihoods tie."""
    if weight == 0.0:
        return
    k = y if upper else y - 1
    if z == (edges[k] / amps[i]) ** 2:
        ks, js = (k,), (i,)
    else:
        ks, js = (y - 1, y), (i, i - 1 if upper else i + 1)
    num = sum(edges[x] for x in ks)
    den = sum(amps[x] for x in js)
    for x in ks:
        if 1 <= x < len(edges) - 1:
            grad_q[x - 1] += weight * 2.0 * z / num
    for x in js:
        grad_rho[x] -= weight * 2.0 * z / den


def sep_and_grad(c, q, ch, snr):
    """SEP and its gradient: (value, dSEP/dq_y for y = 1..K, dSEP/drho_i for
    i = 0..M/2-1), the amplitude derivatives at fixed sigma. At finite SNR (integer m
    only) it walks sep_closed_form's regions and series, so the value is bit for bit
    sep_closed_form's; with snr None it is the noiseless SEP (any m), which
    sep_noiseless returns. The finite-SNR gradient has no region-endpoint terms: where
    D_(y,i) meets D_(y,i-1), rho_i sqrt(z) and rho_(i-1) sqrt(z) lie symmetrically about
    bin y's midpoint, so the ML likelihoods tie and the two regions' terms cancel."""
    return _sep_and_grad(c.amplitudes, q.edges, ch, snr)


def _sep_and_grad(amps, edges, ch, snr):
    """sep_and_grad of the float tuples amps and edges = (0, q_1, ..., q_K, inf)."""
    k = len(edges) - 2
    grad_q, grad_rho = [0.0] * k, [0.0] * len(amps)
    weight = -2.0 / (2 * len(amps))  # dSEP / dP(correct), -2 / M
    if snr is None:
        total, density = 0.0, ch.density
        for y, i, lower, upper, cdf_lo, cdf_hi in _regions(amps, edges, True, ch.cdf):
            total += cdf_hi - cdf_lo
            if upper < math.inf:
                _add_endpoint_grad(grad_q, grad_rho, weight * density(upper), upper, amps,
                                   edges, y, i, True)
            if lower > 0.0:
                _add_endpoint_grad(grad_q, grad_rho, -weight * density(lower), lower, amps,
                                   edges, y, i, False)
        return _clamp_probability(1.0 + weight * total), grad_q, grad_rho

    if not ch.integer_m:
        raise ValueError("the noisy gradient requires integer m")
    plan = _grad_plan(int(ch.m), ch.omega)
    sigma2 = _sigma2(amps, snr)
    dc_dq = math.sqrt(2.0) / math.sqrt(sigma2)
    terms = []
    for y, i, lower, upper, b_i, c_hi, c_lo, g_lo, g_hi in _series_regions(amps, edges, ch,
                                                                            sigma2):
        h_hi, dc_hi, db_hi = _h_series_grad(plan, b_i, c_hi, lower, upper, g_lo, g_hi)
        h_lo, dc_lo, db_lo = _h_series_grad(plan, b_i, c_lo, lower, upper, g_lo, g_hi)
        terms.append(h_hi - h_lo)
        if y <= k:
            grad_q[y - 1] += weight * dc_hi * dc_dq
        if y >= 2:
            grad_q[y - 2] -= weight * dc_lo * dc_dq
        grad_rho[i] += weight * (db_hi - db_lo) * 4.0 * amps[i] / sigma2
    return _clamp_probability(1.0 + weight * math.fsum(terms)), grad_q, grad_rho


def sep_noiseless(c, q, ch):
    """Infinite-SNR SEP: Gamma measure of the noiseless decision regions."""
    return SepResult(sep_and_grad(c, q, ch, None)[0], "noiseless")


def floor_bounds(c, q, ch):
    """(f_L, f_U) bracket on the optimal noiseless SEP.

    The upper bound assumes adjacent boundary ratios equal the minimum
    adjacent amplitude ratio; both collapse to the exact floor at M = 4.
    """
    f_l, f_u = _floor_bracket(c, q.boundary(1), q.boundary(q.K), ch)
    return SepResult(f_l, "bound_lower"), SepResult(f_u, "bound_upper")


def _floor_bracket(c, q1, qk, ch):
    """floor_bounds' (f_L, f_U) from q_1 and q_K alone; qk may be +inf."""
    amps = c.amplitudes
    bracket = ch.cdf(_square(q1 / amps[1])) + ch.survival(_square(qk / amps[-2]))
    f_l = _clamp_probability(2.0 / c.M * bracket)
    # the raw upper bound can exceed 1 (vacuous); 1 is still a valid bound
    return f_l, _clamp_probability(min(1.0, (c.M / 4.0 - 0.5) * bracket))


def floor_geometric(rho, M, q1, ch, bits, *, uniform=False):
    """floor_bounds' upper bound on the noiseless SEP of Constellation.geometric(rho, M)
    with boundaries q_y = q_1 / rho^(y-1), the noiseless optimality condition, or with
    the uniform step q1. It forms only q_1 and q_K, so b is not held to MAX_BITS."""
    if not 0 < q1 < math.inf:
        raise ValueError("q1 must be positive and finite")
    _family_levels(M, bits, uniform)
    k = _boundary_count(bits, max_bits=math.inf)
    try:
        qk = k * q1 if uniform else _geometric_boundary(q1, rho, k)
    except OverflowError:  # k is past float64 (b > 1024), so q_K is too
        qk = math.inf
    return _floor_bracket(Constellation.geometric(rho, M), q1, qk, ch)[1]


def sep_aqnm(c, snr, alpha):
    """Linearized quantization-noise baseline SEP. Its noise variance is
    sigma2_from_snr's, so snr must be positive and finite as in every noisy engine."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    es = symbol_energy(c)
    sigma2 = sigma2_from_snr(c, snr)
    sinr = alpha * es / (sigma2 + (1.0 - alpha) * es)
    val = (c.M - 1.0) / c.M * (1.0 - math.sqrt(sinr / (es + sinr)))
    return SepResult(_clamp_probability(val), "aqnm")


def lloyd_max_gaussian(bits):
    """Minimum-distortion scalar quantizer of a unit Gaussian.

    Returns (boundaries, levels, distortion) with 2^bits symmetric levels.
    Boundaries are the midpoints of neighboring levels; levels are the
    conditional means of their cells.
    """
    n = 2**bits
    levels = np.linspace(-2.0, 2.0, n) + 1e-3
    prev = None
    for _ in range(LLOYD_MAX_ITERS):
        bounds = 0.5 * (levels[:-1] + levels[1:])
        edges = np.concatenate([[-np.inf], bounds, [np.inf]])
        phi = np.exp(-0.5 * edges**2) / SQRT_2PI
        phi[~np.isfinite(edges)] = 0.0
        cdf = special.ndtr(edges)
        mass = np.diff(cdf)
        levels = (phi[:-1] - phi[1:]) / mass
        if prev is not None and np.max(np.abs(levels - prev)) < LLOYD_MAX_TOL:
            break
        prev = levels.copy()
    bounds = 0.5 * (levels[:-1] + levels[1:])
    distortion = 1.0 - float(np.sum(mass * levels**2))
    return bounds, levels, distortion


def default_alpha(bits):
    """Distortion factor 1 - D of the Lloyd-Max quantizer at this resolution."""
    _, _, d = lloyd_max_gaussian(bits)
    return 1.0 - d
