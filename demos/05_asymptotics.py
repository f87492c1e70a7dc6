#!/usr/bin/env python3
"""Decay exponents and bit scaling of the optimized receiver.

Two asymptotic regimes of the jointly optimized low-resolution receiver:

1. SNR asymptotics: the optimum SEP decays like SNR^-d with
   d = m (2^b - M + 2) / 2^b for non-uniform quantizers (m/2 for the
   uniform 4-PAM case). Fitted log-log slopes reproduce the theory.
2. Bit asymptotics: the optimized noiseless floor falls double-
   exponentially in b for non-uniform quantizers (the per-bit increments
   of -log2(floor) keep growing), but only exponentially for uniform ones.

dvo_experiment and optimal_floor_log2 design the uniform step with the
keyword uniform=True, and the non-uniform quantizer by default.
"""
import numpy as np

from pamq import dq_successive_slopes, dvo_experiment, optimal_floor_log2

print("fitted decay exponents over [20, 50] dB (theory in parentheses)")
grid = list(np.arange(20.0, 50.0 + 1e-9, 2.5))
for bits, uniform in ((2, False), (3, False), (3, True)):
    est, theory = dvo_experiment(1, bits, 4, 1, grid, uniform=uniform, seed=0)
    kind = "uniform" if uniform else "nonuniform"
    print(f"  b={bits} {kind:<10} slope={est.slope:.3f} ({float(theory):.3f})"
          f"  r2={est.r2:.5f}")

print("\nper-bit increments of -log2(optimal floor), m = 1")
for kind, uniform in (("nonuniform", False), ("uniform", True)):
    inc = dq_successive_slopes(
        lambda b: optimal_floor_log2(1, b, uniform=uniform), range(2, 9)
    )
    print(f"  {kind:<10} {[f'{v:.1f}' for v in inc]}")
print("  (growing increments = double-exponential decay; flat = exponential)")
