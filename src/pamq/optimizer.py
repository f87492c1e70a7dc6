"""Minimum-SEP design of quantizers and constellations.

A DesignProblem designs the quantizer for the constellation it is given, or
jointly with the amplitudes when it is given none. With uniform=True the
quantizer is one uniform step, q_y = y * step; otherwise its boundaries are free.
Its init, a checked (Constellation, Quantizer) pair, is one more start, run first.
Its snr (linear; None for noiseless) is stored as a Python float, also by replace(),
so every design runs the SEP series on Python floats, whatever grid it comes from.

Multi-start L-BFGS-B over an unconstrained parameterization: ordered
boundaries (and amplitudes) are running sums of softplus increments, and joint
designs renormalize to unit energy. The gradient is exact (sep_and_grad pulled
back through the decode) for integer m and for noiseless designs; at finite SNR
with non-integer m it is scipy's finite difference of the quadrature SEP. Each
start runs at most 1000*dim iterations and 4000*dim objective calls. The objective
works out which of the two it runs from the problem, and records the SEP it returns
at each theta; starts are compared by the value recorded at their end points, and
the reported SEP is the winner's, not a re-evaluation.

The objective is planned once per DesignProblem: the variable split and K are
cached on the problem, its channel and SNR bound once, and sep_and_grad keeps
its constants per (m, omega). Each call decodes theta to float tuples with
NumPy's rounding and runs only the checks a candidate can fail, the one rule
of Quantizer and Constellation (positive, finite, strictly increasing); a
softplus increment that underflows or a running sum that overflows breaks it,
and the candidate scores 1.0 with a zero gradient and is counted as failed.
A passing candidate's tuples go to the SEP engines' tuple entries as they are:
only the reported design is built into a Quantizer and a Constellation.
"""
import math
from dataclasses import KW_ONLY, dataclass, replace
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from .sep import _sep_and_grad, _sep_quadrature
from .system import (Constellation, Quantizer, _boundary_count, _check_count, _check_levels,
                     _check_size, _geometric_boundary, _unit_energy, symbol_energy)

__all__ = [
    "DesignProblem",
    "DesignResult",
    "optimize",
    "optimize_sweep",
    "check_prop2",
    "lemma7_rho_star",
    "xg_design",
]

# fixed-size start schedule so that best-of-n is monotone in n for a seed; it
# bounds n_starts (an init start comes on top)
_SCHEDULE_SIZE = 64
# L-BFGS-B stops once a step lowers the SEP (at most 1) by no more than FTOL, or
# once no gradient entry exceeds GTOL
FTOL = 1e-15
GTOL = 1e-14


@dataclass(frozen=True)
class DesignProblem:
    channel: object
    M: int
    bits: int
    _: KW_ONLY
    snr: float = None  # linear; None means noiseless design
    constellation: Constellation = None  # fixed; None designs the amplitudes too
    uniform: bool = False  # the quantizer is one uniform step
    n_starts: int = 16
    seed: int = 0
    init: tuple = None  # (Constellation, Quantizer): one more start, tried first

    def __post_init__(self):
        if self.constellation is not None and self.constellation.M != self.M:
            raise ValueError(f"M {self.M} disagrees with constellation size "
                             f"{self.constellation.M}")
        if self.snr is not None:
            if not 0 < self.snr < math.inf:
                raise ValueError("snr must be positive and finite (or None for noiseless)")
            object.__setattr__(self, "snr", float(self.snr))
        _check_size(self.M)
        _boundary_count(self.bits)
        _check_count(self.n_starts, "n_starts", 1, _SCHEDULE_SIZE)
        _check_count(self.seed, "seed", 0)
        if self.init is not None:
            cons, quant = self.init
            if not (isinstance(cons, Constellation) and isinstance(quant, Quantizer)):
                raise TypeError("init must be a (Constellation, Quantizer) pair")
            if (cons.M, quant.bits) != (self.M, self.bits):
                raise ValueError(f"init is {cons.M}-PAM at {quant.bits} bits, not "
                                 f"{self.M}-PAM at {self.bits}")
            if self.constellation is not None and cons != self.constellation:
                raise ValueError("init's constellation is not the fixed constellation")
            if self.uniform and quant != Quantizer.uniform(quant.boundary(1), self.bits):
                raise ValueError("init's quantizer is not the uniform step of its q_1")

    # derived once per problem: the objective reads them on every call

    @cached_property
    def K(self):
        return _boundary_count(self.bits)

    @cached_property
    def n_boundary_vars(self):
        return 1 if self.uniform else self.K

    @cached_property
    def n_amp_vars(self):
        return self.M // 2 if self.constellation is None else 0

    @cached_property
    def dim(self):
        return self.n_boundary_vars + self.n_amp_vars


@dataclass(frozen=True)
class DesignResult:
    quantizer: Quantizer
    constellation: Constellation
    sep: float
    starts_used: int
    converged: bool  # some start met L-BFGS-B's stopping test at a candidate that evaluated
    failed_evals: int  # objective calls that scored 1.0 on a failed candidate
    evals: int  # objective calls over all starts


def _softplus(t):
    """log(1 + e^t) on a Python float, bit for bit np.logaddexp(0.0, t)."""
    if t > 0.0:
        return t + math.log1p(math.exp(-t))
    if t < 0.0:
        return math.log1p(math.exp(t))
    return math.log(2.0) if t == 0.0 else t  # t is nan


def _sigmoid(t):
    """d softplus / dt."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _decode(p, theta):
    """Unconstrained vector -> float tuples (edges, amps, sums) held to the one rule of
    Quantizer and Constellation: edges = (0, q_1, ..., q_K, inf) with the floats of
    Quantizer.uniform or of the running sums; for joint designs, Constellation.normalized's
    amplitudes of the running sums, which sums holds; else the fixed ones, and sums None."""
    theta = theta.tolist()
    nb = p.n_boundary_vars
    if p.uniform:
        step = _softplus(theta[0])
        bounds = (step * y for y in range(1, p.K + 1))
    else:
        bounds = accumulate(map(_softplus, theta[:nb]))
    edges = (0.0, *bounds, math.inf)
    _check_levels(edges[1:-1], "boundaries")
    if not p.n_amp_vars:
        return edges, p.constellation.amplitudes, None
    # checking the rescaled sums is enough: a raw sum that is zero, repeated or not
    # finite makes a rescaled one zero, repeated or NaN
    sums = tuple(accumulate(map(_softplus, theta[nb:])))
    amps = _unit_energy(sums)
    _check_levels(amps, "amplitudes")
    return edges, amps, sums


def _encode(p, bounds, amps):
    """Positive boundaries and amplitudes -> unconstrained vector: the inverse softplus,
    log(expm1(d)) stable for both tails, of the increments d of the variables' levels
    (the first boundary alone for a uniform step, no amplitude for a fixed constellation)."""
    d = np.concatenate([np.diff(bounds[: p.n_boundary_vars], prepend=0.0),
                        np.diff(amps[: p.n_amp_vars], prepend=0.0)])
    return np.where(d > 30.0, d, np.log(np.expm1(np.minimum(d, 30.0))))


def _through_sums(theta, grad):
    """d/dtheta of a function of the running sums of softplus(theta), from its gradient."""
    tails = list(accumulate(reversed(grad)))[::-1]
    return [_sigmoid(t) * g for t, g in zip(theta, tails)]


def _pullback(p, theta, rho, sums, grad_q, grad_rho):
    """The theta-gradient of the objective from dSEP/dq and dSEP/drho: through the
    running sums of softplus increments, or q_y = y * step, and for joint designs the
    unit-energy normalization rho = a / |a| of the decode's sums a, on which sigma is
    constant. |a| adds the squares in order, so from 8 amplitudes on, where
    Constellation.normalized sums pairwise, its last bit can differ."""
    theta = theta.tolist()
    nb = p.n_boundary_vars
    if p.uniform:
        grad = [_sigmoid(theta[0]) * math.fsum(map(mul, range(1, p.K + 1), grad_q))]
    else:
        grad = _through_sums(theta[:nb], grad_q)
    if sums is not None:
        norm = math.sqrt(sum(a * a for a in sums))
        dot = math.fsum(map(mul, rho, grad_rho))
        grad += _through_sums(theta[nb:], [(g - r * dot) / norm for r, g in zip(rho, grad_rho)])
    return np.array(grad)


def _objective(p):
    """The objective of p's design: the pair (SEP, theta-gradient) of the decoded
    candidate where sep_and_grad has the gradient (noiseless designs and integer m),
    else its SEP alone, for scipy's finite differences (``f.exact`` says which). A
    candidate that fails scores 1.0, with a zero gradient, and is counted in
    ``f.failed``. ``f.evals`` counts the calls, and ``f.values`` maps each
    ``theta.tobytes()`` to the SEP returned there, until its caller clears it."""
    channel, snr, dim = p.channel, p.snr, p.dim
    exact = snr is None or channel.integer_m

    def f(theta):
        f.evals += 1
        try:
            edges, amps, sums = _decode(p, theta)
            if exact:
                value, grad_q, grad_rho = _sep_and_grad(amps, edges, channel, snr)
                out = value, _pullback(p, theta, amps, sums, grad_q, grad_rho)
            else:
                value = out = _sep_quadrature(amps, edges, channel, snr)[0]
        except (ArithmeticError, ValueError):
            f.failed += 1
            value, out = 1.0, ((1.0, np.zeros(dim)) if exact else 1.0)
        f.values[theta.tobytes()] = value
        return out

    f.exact, f.values = exact, {}
    f.failed = f.evals = 0
    return f


def _latin_hypercube(dim, seed):
    """The _SCHEDULE_SIZE x dim start schedule in the unit cube: scipy's
    scrambled Latin hypercube, bit for bit
    scipy.stats.qmc.LatinHypercube(d=dim, seed=seed).random(_SCHEDULE_SIZE),
    drawn without importing scipy.stats."""
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(_SCHEDULE_SIZE, dim))
    perms = np.tile(np.arange(1, _SCHEDULE_SIZE + 1), (dim, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / _SCHEDULE_SIZE


def _start_points(p):
    """theta of p.init, if given, then of the first n_starts points of a
    deterministic start schedule: the full schedule is always drawn, so
    its first n entries are the same for any requested start count with a
    fixed seed. A row holds the boundaries, then the amplitudes of a joint design;
    each part is scaled, sorted and made strictly increasing."""
    starts = []
    if p.init is not None:
        cons, quant = p.init
        starts.append(_encode(p, quant.positive_boundaries, cons.amplitudes))
    es = 2.0 / p.M if p.constellation is None else symbol_energy(p.constellation)
    scale = math.sqrt(p.channel.omega * es)
    nb = p.n_boundary_vars
    for row in _latin_hypercube(p.dim, p.seed)[: p.n_starts]:
        bounds = _force_increasing(np.sort(0.1 * scale + row[:nb] * (3.0 - 0.1) * scale))
        amps = _force_increasing(np.sort(0.1 + row[nb:] * 2.9))
        starts.append(_encode(p, bounds, _unit_energy(amps)))
    return starts


def _force_increasing(v):
    """v as floats, each entry raised, where it is not above the one before, to
    1e-6 above it both relatively and absolutely."""
    out = np.array(v, dtype=float)
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] * (1.0 + 1e-6) + 1e-6
    return out


def optimize(p):
    """Best-of-starts L-BFGS-B minimization of the SEP objective, with the exact
    gradient where sep_and_grad has one. Each start's fun is the objective's
    recorded value at its x: after a line search it abandons (ABNORMAL), L-BFGS-B
    puts x back to the last iterate but keeps the last trial point's value."""
    from scipy.optimize import minimize  # loaded by the first design, not by import pamq

    f = _objective(p)
    options = {"ftol": FTOL, "gtol": GTOL, "maxiter": 1000 * p.dim, "maxfun": 4000 * p.dim}
    runs = []
    for theta0 in _start_points(p):
        f.values.clear()  # L-BFGS-B returns a point of the current start
        res = minimize(f, theta0, jac=f.exact, method="L-BFGS-B", options=options)
        res.fun = f.values[res.x.tobytes()]  # a KeyError: an x L-BFGS-B never scored
        runs.append(res)
    best = min(runs, key=lambda res: res.fun)  # the first of equal values
    edges, amps, _ = _decode(p, best.x)
    return DesignResult(
        quantizer=Quantizer(edges[1:-1], p.bits),
        constellation=Constellation(amps),
        sep=float(best.fun),
        starts_used=len(runs),
        # a start stuck on failed candidates (1.0, zero gradient) passes the gradient test
        converged=any(res.success and res.fun < 1.0 for res in runs),
        failed_evals=f.failed,
        evals=f.evals,
    )


def optimize_sweep(p, snr_db_grid):
    """One DesignResult per point of an SNR grid in dB, by continuation: optimize(p) at
    each SNR with the previous point's optimum as init, the first with p's own."""
    results = []
    for sdb in snr_db_grid:
        r = optimize(replace(p, snr=10.0 ** (sdb / 10.0)))
        p = replace(p, init=(r.constellation, r.quantizer))
        results.append(r)
    return results


def check_prop2(result, rho):
    """Adjacent-boundary-ratio diagnostics against the geometric ratio rho.

    Returns (ratios, max_abs_deviation); vacuous (empty, 0.0) for a single
    boundary.
    """
    q = np.asarray(result.quantizer.positive_boundaries)
    if len(q) < 2:
        return (), 0.0
    ratios = tuple(q[:-1] / q[1:])
    dev = float(np.max(np.abs(np.asarray(ratios) - rho)))
    return ratios, dev


def lemma7_rho_star(A, B, C, sigma):
    """Minimizer of (sigma^2 / rho^B)^C + rho^A over rho > 0."""
    if not all(0 < v < math.inf for v in (A, B, C, sigma)):
        raise ValueError("A, B, C, sigma must be positive and finite")
    if C >= A + B * C:
        raise ValueError("requires C < A + B*C")
    return (B * C / A) ** (1.0 / (A + B * C)) * (sigma**2) ** (C / (A + B * C))


def xg_design(rho, q1, M, bits):
    """Geometric constellation with matching-ratio boundaries q_y = q1 / rho^(y-1)."""
    bounds = (_geometric_boundary(q1, rho, y) for y in range(1, _boundary_count(bits) + 1))
    return Constellation.geometric(rho, M), Quantizer(tuple(bounds), bits)

