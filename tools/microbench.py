#!/usr/bin/env python3
"""Median microseconds per call of each link of the SEP and Monte Carlo chains.

Usage:
    PYTHONPATH=src python3 tools/microbench.py

Takes no flags. Each line is the median, over REPEAT timed blocks, of one
block's time divided by its call count, after one untimed warm-up call:

- one h_function_quad call: the (8, 4, 2.5) design of the perfbench `curve`
  workload's shape, on odd-integer amplitudes and unit-step boundaries, at
  15 dB, over the decision region (y, i) = (2, 3) with the Q factor of its
  lower boundary q_1;
- one sep_quadrature point of that design at 15 dB;
- one sep_closed_form point of the same kind of design at (M, b, m) =
  (4, 2, 1) and (8, 4, 4), at 30 dB;
- one evaluation of the design objective (SEP and theta-gradient) of a joint
  2-bit 4-PAM design at 30 dB, Rayleigh fading;
- scipy's L-BFGS-B cost per objective evaluation, on a 3-variable quadratic
  whose own time is subtracted;
- the links of one Monte Carlo batch of 200 000 rows (the perfbench `mc`
  workload's batch size) at 5 and 25 dB: 4-PAM {1, 3}, a 2-bit quantizer
  with q_1 = 1.6, Rayleigh fading. They are the draw (`_draw`) of symbols,
  fades and noise at one antenna, `quantize_batch`, `midpoint_batch`,
  `simo_batch` at two antennas on its own draw, and the error-count
  reduction.

The first lines give the interpreter and library versions and the machine.
"""
import math
import os
import platform
import statistics
import timeit

import numpy as np
import scipy
from scipy import optimize as sciopt

from pamq.detector import decision_region, midpoint_batch, quantize_batch, simo_batch
from pamq.montecarlo import _draw
from pamq.optimizer import DesignProblem, _objective
from pamq.sep import h_function_quad, sep_closed_form, sep_quadrature
from pamq.system import ChannelModel, Constellation, Quantizer, sigma2_from_snr

REPEAT = 15
MC_BATCH = 200_000


def median_us(fn, number):
    """Median over REPEAT blocks of number calls of fn, in microseconds per call."""
    fn()
    return statistics.median(timeit.repeat(fn, number=number, repeat=REPEAT)) / number * 1e6


def odd_pam(M, bits):
    """Amplitudes 1, 3, ..., M - 1 and boundaries 1, 2, ..., 2^(b-1) - 1."""
    return (Constellation(tuple(range(1, M, 2))),
            Quantizer(tuple(range(1, 2 ** (bits - 1))), bits))


def quadratic(x):
    d = x - 1.0
    return float(d @ d), 2.0 * d


def lbfgsb_us():
    """L-BFGS-B's own microseconds per evaluation of a trivial objective."""
    x0 = np.array([0.3, -2.0, 4.0])
    options = {"ftol": 0.0, "gtol": 0.0, "maxiter": 200, "maxfun": 200}
    evals = sciopt.minimize(quadratic, x0, jac=True, method="L-BFGS-B", options=options).nfev
    total = median_us(lambda: sciopt.minimize(quadratic, x0, jac=True, method="L-BFGS-B",
                                              options=options), 1) / evals
    return total - median_us(lambda: quadratic(x0), 2000)


def mc_rows(snr_db):
    """(name, microseconds) of each Monte Carlo link, one MC_BATCH-row batch at snr_db."""
    c = Constellation((1.0, 3.0))
    amps, bounds = np.asarray(c.amplitudes), np.array([1.6])
    sigma2 = sigma2_from_snr(c, 10.0 ** (snr_db / 10.0))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0, spawn_key=(0, 0))))
    sym_id, h, r = _draw(rng, amps, 1.0, 1.0, sigma2, MC_BATCH, 1)
    yq = quantize_batch(bounds, r)
    decided = midpoint_batch(amps, bounds, h[:, 0], yq[:, 0])
    _, h2, r2 = _draw(rng, amps, 1.0, 1.0, sigma2, MC_BATCH, 2)
    yq2 = quantize_batch(bounds, r2)
    links = (("_draw", lambda: _draw(rng, amps, 1.0, 1.0, sigma2, MC_BATCH, 1)),
             ("quantize_batch", lambda: quantize_batch(bounds, r)),
             ("midpoint_batch", lambda: midpoint_batch(amps, bounds, h[:, 0], yq[:, 0])),
             ("simo_batch n_r=2", lambda: simo_batch(amps, bounds, h2, yq2, sigma2)),
             ("error count", lambda: np.count_nonzero(decided != sym_id)))
    return [(f"{name}, {MC_BATCH // 1000}k rows, {snr_db:g} dB", median_us(fn, 1))
            for name, fn in links]


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {platform.machine()}, {os.cpu_count()} CPUs")
    snr15, snr30 = 10.0 ** 1.5, 1e3
    c, q = odd_pam(8, 4)
    ch = ChannelModel(2.5)
    sigma2 = sigma2_from_snr(c, snr15)
    lower, upper = decision_region(c, q, 2, 3)
    args = (ch.m, ch.omega, 2.0 * c.amplitudes[3] ** 2 / sigma2,
            math.sqrt(2.0) * q.boundary(1) / math.sqrt(sigma2), lower, upper)
    rows = [("h_function_quad (8,4,2.5), 15 dB", median_us(lambda: h_function_quad(*args), 20)),
            ("sep_quadrature (8,4,2.5), 15 dB",
             median_us(lambda: sep_quadrature(c, q, ch, snr15), 2))]
    for M, bits, m in ((4, 2, 1), (8, 4, 4)):
        c, q = odd_pam(M, bits)
        ch = ChannelModel(m)
        rows.append((f"sep_closed_form ({M},{bits},{m}), 30 dB",
                     median_us(lambda: sep_closed_form(c, q, ch, snr30), 20)))
    f = _objective(DesignProblem(ChannelModel(1), 4, 2, snr=snr30))
    theta = np.array([0.1, -0.3, 0.7])
    rows.append(("objective, joint 2-bit 4-PAM, 30 dB", median_us(lambda: f(theta), 500)))
    rows.append(("L-BFGS-B per evaluation", lbfgsb_us()))
    for snr_db in (5.0, 25.0):
        rows += mc_rows(snr_db)
    for name, us in rows:
        print(f"{name:40s} {us:10.2f} us")


if __name__ == "__main__":
    main()
