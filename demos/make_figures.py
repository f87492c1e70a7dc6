#!/usr/bin/env python3
"""Reproduce the curve data behind each headline figure.

Usage:
    python3 demos/make_figures.py fig_sep_vs_c [more...]
    python3 demos/make_figures.py --all

Each fig_* function below is one figure: it writes the CSV of its name to
figures/out/, and its docstring says what that CSV holds.
"""
import argparse
import math
import pathlib
import sys

import numpy as np

from pamq import (
    ChannelModel,
    Constellation,
    DesignProblem,
    Quantizer,
    SimSpec,
    default_alpha,
    optimal_floor_log2,
    optimize_sweep,
    sep_aqnm,
    sep_closed_form,
    simulate,
)
from pamq.table import write_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "figures" / "out"
PAM4 = Constellation((1.0, 3.0))


def _write(name, header, rows):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.csv"
    write_table(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _kind(uniform):
    return "uniform" if uniform else "nonuniform"


def fig_sep_vs_c():
    """SEP of a 2-bit 4-PAM receiver versus the quantizer boundary q_1, at fixed
    omega*SNR = 10 dB, for three channel gains. The minima coincide: scaling omega
    only rescales the optimal boundary by sqrt(omega)."""
    rows = []
    for omega in (0.5, 1.0, 2.0):
        ch = ChannelModel(1, omega)
        snr = 10.0 / omega  # omega * SNR = 10 dB
        for q1 in np.linspace(0.2, 8.0, 120):
            quant = Quantizer((q1 * math.sqrt(omega),), 2)
            rows.append((omega, q1, sep_closed_form(PAM4, quant, ch, snr).value))
    _write("fig_sep_vs_c", ["omega", "q1_over_sqrt_omega", "sep"], rows)


def fig_sep_nakagami():
    """Exact SEP and optimal q_1 versus SNR of a 2-bit 4-PAM receiver with per-point
    optimized boundaries, for Nakagami shape m in {1, 2, 4}. Every fifth point adds a
    Monte Carlo marker: 200000 trials of that point's design, seeded by marker index."""
    cons = PAM4.normalized()
    grid = np.arange(0.0, 31.0, 2.0)
    rows = []
    for m in (1, 2, 4):
        ch = ChannelModel(m, 1.0)
        p = DesignProblem(channel=ch, M=4, bits=2, constellation=cons, n_starts=6, seed=0)
        designs = optimize_sweep(p, grid)
        for sdb, r in zip(grid, designs):
            rows.append((m, sdb, r.sep, r.quantizer.boundary(1), "closed_form"))
        for marker, (sdb, r) in enumerate(zip(grid[::5], designs[::5])):
            spec = SimSpec(constellation=cons, quantizer=r.quantizer, channel=ch,
                           snr_db=(sdb,), trials=200000, seed=marker)
            est = simulate(spec)[0]
            rows.append((m, sdb, est.sep_hat, r.quantizer.boundary(1), "monte_carlo"))
    _write("fig_sep_nakagami", ["m", "snr_db", "sep", "q1", "method"], rows)


def fig_adc_resolution():
    """Exact SEP versus the additive-quantization-noise-model approximation for
    4-PAM over Rayleigh fading at resolutions b in {2, 3, 4}; the AQNM curve
    diverges from the exact one at high SNR."""
    cons = PAM4.normalized()
    ch = ChannelModel(1, 1.0)
    grid = np.arange(0.0, 41.0, 2.0)
    rows = []
    for bits in (2, 3, 4):
        p = DesignProblem(channel=ch, M=4, bits=bits, constellation=cons, n_starts=6, seed=0)
        for sdb, r in zip(grid, optimize_sweep(p, grid)):
            aq = sep_aqnm(cons, 10.0 ** (sdb / 10.0), default_alpha(bits)).value
            rows.append((bits, sdb, r.sep, aq))
    _write("fig_adc_resolution", ["bits", "snr_db", "sep_exact", "sep_aqnm"], rows)


def fig_error_floor_bits():
    """Optimized noiseless error floor of the 4-PAM receiver, for every fading power
    omega, versus ADC resolution b = 2..10 at m in {1, 2}. Non-uniform floors fall
    double-exponentially in b; uniform floors fall at a fixed exponential rate."""
    rows = [(m, _kind(uniform), b, optimal_floor_log2(m, b, uniform=uniform))
            for m in (1, 2) for uniform in (False, True) for b in range(2, 11)]
    _write("fig_error_floor_bits", ["m", "quantizer", "bits", "log2_floor"], rows)


def fig_error_floor_shape():
    """Optimized noiseless error floor of the non-uniform 4-PAM receiver versus the
    Nakagami shape parameter m in [0.5, 4], for several ADC resolutions. Milder
    fading (larger m) lowers the floor."""
    rows = [(bits, m, optimal_floor_log2(m, bits, uniform=False))
            for bits in (2, 3, 4) for m in np.linspace(0.5, 4.0, 15)]
    _write("fig_error_floor_shape", ["bits", "m", "log2_floor"], rows)


def fig_simo():
    """Simulated SEP of the optimized 2-bit 4-PAM receiver over Rayleigh fading with
    1, 2 and 3 receive antennas, 2000000 trials a point; slope roughly multiplies
    with the antenna count. One design per SNR serves every antenna count."""
    ch = ChannelModel(1, 1.0)
    grid = np.arange(15.0, 36.0, 5.0)
    designs = optimize_sweep(DesignProblem(channel=ch, M=4, bits=2, n_starts=6, seed=3), grid)
    rows = []
    for n_r in (1, 2, 3):
        for sdb, r in zip(grid, designs):
            spec = SimSpec(constellation=r.constellation, quantizer=r.quantizer, channel=ch,
                           snr_db=(sdb,), trials=2000000, n_r=n_r, seed=3)
            est = simulate(spec)[0]
            rows.append((n_r, sdb, est.sep_hat, est.stderr))
    _write("fig_simo", ["antennas", "snr_db", "sep_hat", "stderr"], rows)


FIGURES = {name: f for name, f in globals().items() if name.startswith("fig_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("figures", nargs="*")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    names = list(FIGURES) if args.all else args.figures
    if not names:
        ap.error("give figure names or --all")
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        ap.error(f"unknown figure {', '.join(unknown)}; choose from {', '.join(FIGURES)}")
    for name in names:
        print(f"{name}: {' '.join(FIGURES[name].__doc__.split())}")
        FIGURES[name]()


if __name__ == "__main__":
    sys.exit(main())
