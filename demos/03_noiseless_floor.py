#!/usr/bin/env python3
"""The quantization error floor and its optimal boundary.

A finite-resolution magnitude quantizer leaves a residual symbol error
probability even without noise: fades that push a symbol's magnitude out
of its own quantization cell are unrecoverable. For the 2-bit 4-PAM
receiver with amplitudes {1, 3} over Rayleigh fading the floor is
    0.5 * (1 + exp(-q^2) - exp(-q^2 / 9)),
minimized at q = sqrt(9/8 * ln 9) ~ 1.5722. This demo recovers both
numerically and shows the analytic floor bounds are tight (exact at M=4).
The DesignProblem is given the constellation, so it designs the quantizer
boundary alone.
"""
import math

from pamq import (
    ChannelModel,
    Constellation,
    DesignProblem,
    floor_bounds,
    optimize,
    sep_noiseless,
)

cons = Constellation((1.0, 3.0))
ch = ChannelModel(1, omega=1.0)

problem = DesignProblem(
    channel=ch, M=4, bits=2, snr=None, constellation=cons, n_starts=8, seed=0,
)
result = optimize(problem)

q_star = math.sqrt(9.0 / 8.0 * math.log(9.0))
floor_star = 0.5 * (1.0 + 9.0 ** -1.125 - 9.0 ** -0.125)
print(f"optimized boundary  q1 = {result.quantizer.positive_boundaries[0]:.9f}")
print(f"analytic optimum    q* = {q_star:.9f}")
print(f"optimized floor     {result.sep:.9e}")
print(f"analytic floor      {floor_star:.9e}")

f_lo, f_hi = floor_bounds(cons, result.quantizer, ch)
exact = sep_noiseless(cons, result.quantizer, ch).value
print(f"\nfloor bounds (exact at M = 4): lower={f_lo.value:.9e}"
      f" upper={f_hi.value:.9e} noiseless={exact:.9e}")
