#!/usr/bin/env python3
"""The quantization error floor and its optimal boundary.

A finite-resolution magnitude quantizer leaves a residual symbol error
probability even without noise. Noiselessly the receiver sees only the
bin of rho_i * sqrt(Z), and that bin is monotone in the amplitude, so it
tells two neighbouring symbols apart exactly when they land in different
bins: the floor is the mass of adjacent-pair collisions,
    (2/M) * sum_i P(rho_i sqrt(Z) and rho_(i+1) sqrt(Z) share a bin).
For the 2-bit 4-PAM receiver with amplitudes {1, 3} over Rayleigh fading,
1 and 3 collide below the boundary q when 3 sqrt(Z) < q and above it when
sqrt(Z) >= q, so the floor is
    0.5 * ((1 - exp(-q^2 / 9)) + exp(-q^2)),
minimized at q = sqrt(9/8 * ln 9) ~ 1.5722. This demo recovers both
numerically, shows the two collision masses, and shows that the analytic
floor bounds are tight (exact at M = 4). The DesignProblem is given the
constellation, so it designs the quantizer boundary alone.
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
q1 = result.quantizer.positive_boundaries[0]

q_star = math.sqrt(9.0 / 8.0 * math.log(9.0))
floor_star = 0.5 * (1.0 + 9.0 ** -1.125 - 9.0 ** -0.125)
print(f"optimized boundary  q1 = {q1:.9f}")
print(f"analytic optimum    q* = {q_star:.9f}")
print(f"optimized floor     {result.sep:.9e}")
print(f"analytic floor      {floor_star:.9e}")

below = ch.mass(0.0, (q1 / 3.0) ** 2)  # both in the bin under q1
above = ch.mass(q1 ** 2, math.inf)  # both in the saturation bin
print(f"\ncollision masses at q1: below {below:.9e}, above {above:.9e};"
      f" half their sum {0.5 * (below + above):.9e}")

f_lo, f_hi = floor_bounds(cons, result.quantizer, ch)
exact = sep_noiseless(cons, result.quantizer, ch).value
print(f"\nfloor bounds (exact at M = 4): lower={f_lo.value:.9e}"
      f" upper={f_hi.value:.9e} noiseless={exact:.9e}")
