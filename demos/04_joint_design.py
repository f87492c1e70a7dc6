#!/usr/bin/env python3
"""Joint constellation/quantizer design and its geometric structure.

At high SNR the noiseless-optimal boundaries of a receiver with a
geometric constellation (amplitudes rho^k apart) inherit the same ratio:
adjacent boundaries satisfy q_{y-1}/q_y = rho. This demo optimizes the
boundaries for a geometric 8-PAM constellation and for the equidistant
{+-1, +-3} at 60 dB, then checks the ratio structure. Each DesignProblem is
given its constellation, so it designs the quantizer alone; one given none
would design the amplitudes jointly with it.
"""
from pamq import (
    ChannelModel,
    Constellation,
    DesignProblem,
    check_prop2,
    equidistant_constellation,
    optimize,
)

ch = ChannelModel(1, omega=1.0)

print("noiseless design, geometric 8-PAM with rho = 0.4, b = 3")
problem = DesignProblem(
    channel=ch, M=8, bits=3, snr=None,
    constellation=Constellation.geometric(0.4, M=8), n_starts=12, seed=0,
)
result = optimize(problem)
ratios, dev = check_prop2(result, 0.4)
print(f"  boundaries: {[f'{q:.5f}' for q in result.quantizer.positive_boundaries]}")
print(f"  adjacent ratios: {[f'{r:.4f}' for r in ratios]} (target 0.4000)")
print(f"  max deviation: {dev:.2e}")

print("\n60 dB design, equidistant {+-1, +-3}, b = 3 (ratio tends to 1/3)")
cons = equidistant_constellation(4)
problem = DesignProblem(
    channel=ch, M=4, bits=3, snr=10.0 ** 6.0, constellation=cons, n_starts=12, seed=0,
)
result = optimize(problem)
ratios, dev = check_prop2(result, 1.0 / 3.0)
print(f"  boundaries: {[f'{q:.5f}' for q in result.quantizer.positive_boundaries]}")
print(f"  adjacent ratios: {[f'{r:.4f}' for r in ratios]} (target 0.3333)")
