#!/usr/bin/env python3
"""Reproduce the curve data behind each shipped figure recipe.

Usage:
    python3 demos/make_figures.py figures/fig_sep_vs_c.json [more...]
    python3 demos/make_figures.py --all

Each recipe is a JSON file under figures/ with a "kind" field selecting
one of the generators below (KINDS), and a "figure" field equal to its
file stem. Output CSVs land in figures/out/.

Per-SNR designs come from one optimize_sweep per curve. sep_vs_snr_by_m
writes each point's q1 (the paper's q1* panel) and simulates every fifth
point as a Monte Carlo marker with that point's own design, seeded
seed + marker index. simo_mc designs once for all of its antenna counts.
floor_vs_bits and floor_vs_shape read optimal_floor_log2's closed-form 4-PAM
floor, which holds for every fading power omega, so their recipes name none.

A recipe names its quantizer structure by the strings "nonuniform" and
"uniform" (keys quantizer_kind, quantizer_kinds and each diversity_order
case's quantizer_kind); they become the uniform= flag of the library calls
before anything is computed, any other string is an error naming its key, and
the string itself is written to the CSV's quantizer column.
"""
import argparse
import json
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
    dvo_experiment,
    optimal_floor_log2,
    optimize_sweep,
    sep_aqnm,
    sep_closed_form,
    simulate,
)
from pamq.table import write_table

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "figures" / "out"


def _grid(spec):
    if isinstance(spec, str):
        start, step, stop = (float(p) for p in spec.split(":"))
        return list(np.arange(start, stop + 1e-9, step))
    return list(np.linspace(spec["start"], spec["stop"], spec["points"]))


def _cons(text):
    return Constellation(tuple(float(p) for p in text.split(",")))


def _uniform(key, kind):
    """The uniform= flag of a recipe's quantizer kind string, read from key."""
    if kind not in ("nonuniform", "uniform"):
        raise ValueError(f"recipe key {key}: unknown quantizer kind {kind!r}, "
                         f"want 'nonuniform' or 'uniform'")
    return kind == "uniform"


def _write(name, header, rows):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.csv"
    write_table(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def boundary_sweep(cfg):
    cons = _cons(cfg["constellation"])
    rows = []
    for omega in cfg["omega_list"]:
        ch = ChannelModel(cfg["m"], omega)
        snr = 10.0 ** (cfg["omega_snr_db"] / 10.0) / omega
        for q1 in _grid(cfg["q1_grid"]):
            quant = Quantizer((q1 * math.sqrt(omega),), cfg["bits"])
            sep = sep_closed_form(cons, quant, ch, snr).value
            rows.append((omega, q1, sep))
    _write(cfg["figure"], ["omega", "q1_over_sqrt_omega", "sep"], rows)


def sep_vs_snr_by_m(cfg):
    cons = _cons(cfg["constellation"]).normalized()
    grid = _grid(cfg["snr_db"])
    rows = []
    for m in cfg["m_list"]:
        ch = ChannelModel(m, cfg["omega"])
        p = DesignProblem(
            channel=ch, M=cons.M, bits=cfg["bits"], constellation=cons,
            n_starts=6, seed=cfg["seed"],
        )
        designs = optimize_sweep(p, grid)
        for sdb, r in zip(grid, designs):
            rows.append((m, sdb, r.sep, r.quantizer.boundary(1), "closed_form"))
        for marker, (sdb, r) in enumerate(zip(grid[::5], designs[::5])):
            spec = SimSpec(
                constellation=cons, quantizer=r.quantizer, channel=ch, snr_db=(sdb,),
                trials=cfg["mc_trials"], seed=cfg["seed"] + marker,
            )
            est = simulate(spec)[0]
            rows.append((m, sdb, est.sep_hat, r.quantizer.boundary(1), "monte_carlo"))
    _write(cfg["figure"], ["m", "snr_db", "sep", "q1", "method"], rows)


def exact_vs_aqnm_by_bits(cfg):
    cons = _cons(cfg["constellation"]).normalized()
    ch = ChannelModel(cfg["m"], cfg["omega"])
    grid = _grid(cfg["snr_db"])
    rows = []
    for bits in cfg["bits_list"]:
        p = DesignProblem(
            channel=ch, M=cons.M, bits=bits, constellation=cons,
            n_starts=6, seed=cfg["seed"],
        )
        for sdb, r in zip(grid, optimize_sweep(p, grid)):
            aq = sep_aqnm(cons, 10.0 ** (sdb / 10.0), default_alpha(bits)).value
            rows.append((bits, sdb, r.sep, aq))
    _write(cfg["figure"], ["bits", "snr_db", "sep_exact", "sep_aqnm"], rows)


def floor_vs_bits(cfg):
    lo, hi = cfg["bits_range"]
    kinds = [(kind, _uniform("quantizer_kinds", kind)) for kind in cfg["quantizer_kinds"]]
    rows = []
    for m in cfg["m_list"]:
        for kind, uniform in kinds:
            for b in range(lo, hi + 1):
                val = optimal_floor_log2(m, b, uniform=uniform)
                rows.append((m, kind, b, val))
    _write(cfg["figure"], ["m", "quantizer", "bits", "log2_floor"], rows)


def floor_vs_shape(cfg):
    uniform = _uniform("quantizer_kind", cfg["quantizer_kind"])
    rows = []
    for bits in cfg["bits_list"]:
        for m in _grid(cfg["m_grid"]):
            val = optimal_floor_log2(m, bits, uniform=uniform)
            rows.append((bits, m, val))
    _write(cfg["figure"], ["bits", "m", "log2_floor"], rows)


def diversity_order(cfg):
    lo, hi = (float(p) for p in cfg["window"].split(":"))
    grid = list(np.arange(lo, hi + 1e-9, 2.5))
    uniform = [_uniform("cases[].quantizer_kind", case["quantizer_kind"])
               for case in cfg["cases"]]
    rows = []
    for case, case_uniform in zip(cfg["cases"], uniform):
        est, theory = dvo_experiment(
            case["m"], case["bits"], case["mod"], 1, grid, uniform=case_uniform,
            seed=cfg["seed"],
        )
        rows.append((
            case["m"], case["bits"], case["quantizer_kind"],
            est.slope, float(theory), est.r2,
        ))
        print(f"  {case}: slope {est.slope:.3f} vs theory {float(theory):.3f}")
    _write(cfg["figure"], ["m", "bits", "quantizer", "slope", "theory", "r2"], rows)


def simo_mc(cfg):
    ch = ChannelModel(cfg["m"], 1.0)
    grid = _grid(cfg["snr_db"])
    p = DesignProblem(
        channel=ch, M=cfg["mod"], bits=cfg["bits"], n_starts=6, seed=cfg["seed"],
    )
    designs = optimize_sweep(p, grid)
    rows = []
    for n_r in cfg["antennas_list"]:
        for sdb, r in zip(grid, designs):
            spec = SimSpec(
                constellation=r.constellation, quantizer=r.quantizer,
                channel=ch, snr_db=(sdb,), trials=cfg["trials"],
                n_r=n_r, seed=cfg["seed"],
            )
            est = simulate(spec)[0]
            rows.append((n_r, sdb, est.sep_hat, est.stderr))
    _write(cfg["figure"], ["antennas", "snr_db", "sep_hat", "stderr"], rows)


KINDS = {
    "boundary_sweep": boundary_sweep,
    "sep_vs_snr_by_m": sep_vs_snr_by_m,
    "exact_vs_aqnm_by_bits": exact_vs_aqnm_by_bits,
    "floor_vs_bits": floor_vs_bits,
    "floor_vs_shape": floor_vs_shape,
    "diversity_order": diversity_order,
    "simo_mc": simo_mc,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("recipes", nargs="*")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    paths = [pathlib.Path(p) for p in args.recipes]
    if args.all:
        paths = sorted((ROOT / "figures").glob("fig_*.json"))
    if not paths:
        ap.error("give recipe paths or --all")
    for path in paths:
        cfg = json.loads(path.read_text())
        print(f"{cfg['figure']}: {cfg['description']}")
        KINDS[cfg["kind"]](cfg)


if __name__ == "__main__":
    sys.exit(main())
