#!/usr/bin/env python3
"""Decay exponents and bit scaling of the optimized receiver.

Two asymptotic regimes of the jointly optimized low-resolution receiver:

1. SNR asymptotics: the optimum SEP decays like SNR^-d with
   d = m (2^b - M + 2) / 2^b for non-uniform quantizers (m/2 for the
   uniform 4-PAM case). Fitted log-log slopes reproduce the theory.
2. Bit asymptotics: the optimized noiseless floor falls double-
   exponentially in b for non-uniform quantizers (the per-bit increments
   of -log2(floor) keep growing), but only exponentially for uniform ones.
"""
import numpy as np

from pamq import dq_successive_slopes, dvo_experiment, optimal_floor_log2

print("fitted decay exponents over [20, 50] dB (theory in parentheses)")
grid = list(np.arange(20.0, 50.0 + 1e-9, 2.5))
for bits, kind in ((2, "nonuniform"), (3, "nonuniform"), (3, "uniform")):
    est, theory = dvo_experiment(1, bits, 4, kind, 1, grid, seed=0)
    print(f"  b={bits} {kind:<10} slope={est.slope:.3f} ({float(theory):.3f})"
          f"  r2={est.r2:.5f}")

print("\nper-bit increments of -log2(optimal floor), m = 1")
for kind in ("nonuniform", "uniform"):
    inc = dq_successive_slopes(
        lambda b: optimal_floor_log2(1, b, kind), range(2, 9)
    )
    print(f"  {kind:<10} {[f'{v:.1f}' for v in inc]}")
print("  (growing increments = double-exponential decay; flat = exponential)")
