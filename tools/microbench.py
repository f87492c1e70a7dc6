#!/usr/bin/env python3
"""Median microseconds per call of each link of the SEP chain.

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
  whose own time is subtracted.

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

from pamq.detector import decision_region
from pamq.optimizer import DesignProblem, _objective
from pamq.sep import h_function_quad, sep_closed_form, sep_quadrature
from pamq.system import ChannelModel, Constellation, Quantizer, sigma2_from_snr

REPEAT = 15


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
    for name, us in rows:
        print(f"{name:40s} {us:10.2f} us")


if __name__ == "__main__":
    main()
