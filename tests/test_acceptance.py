"""Acceptance suite: end-to-end checks of every headline claim, one
printed pass/fail line per criterion."""
import math
import time

import numpy as np

from pamq import (
    ChannelModel,
    Constellation,
    DesignProblem,
    Quantizer,
    SimSpec,
    check_prop2,
    dq_metric,
    dq_successive_slopes,
    dvo_experiment,
    equidistant_constellation,
    floor_bounds,
    floor_schedule,
    optimal_floor_log2,
    optimize,
    sep_closed_form,
    sep_noiseless,
    sep_quadrature,
    simulate,
    symbol_energy,
)
from pamq.cli import main as cli_main

RAYLEIGH = ChannelModel(1, 1.0)
C13 = Constellation((1.0, 3.0))
Q1_STAR = math.sqrt(9.0 / 8.0 * math.log(9.0))
FLOOR_STAR = 0.5 * (1.0 + 9.0 ** -1.125 - 9.0 ** -0.125)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def random_config(rng):
    m = int(rng.integers(1, 5))
    bits = int(rng.integers(2, 5))
    M = int(rng.choice([4, 8]))
    if rng.random() < 0.5:
        cons = equidistant_constellation(M).normalized()
    else:
        amps = np.sort(rng.uniform(0.1, 3.0, M // 2))
        amps /= math.sqrt(float((amps**2).sum()))
        cons = Constellation(tuple(amps))
    omega = float(rng.uniform(0.5, 2.0))
    ch = ChannelModel(m, omega)
    scale = math.sqrt(omega * symbol_energy(cons))
    k = 2 ** (bits - 1) - 1
    quant = Quantizer(tuple(np.sort(rng.uniform(0.1, 3.0, k)) * scale), bits)
    snr = 10.0 ** (rng.uniform(0.0, 40.0) / 10.0)
    return cons, quant, ch, snr


def test_criterion_01_closed_form_vs_quadrature():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(220):
        cons, quant, ch, snr = random_config(rng)
        cf = sep_closed_form(cons, quant, ch, snr).value
        qd = sep_quadrature(cons, quant, ch, snr).value
        worst = max(worst, abs(cf - qd))
    elapsed = time.monotonic() - start
    report(
        "1 closed-form correctness",
        worst < 1e-9 and elapsed < 120.0,
        f"max |closed - quad| = {worst:.2e} over 220 configs in {elapsed:.1f}s",
    )


def test_criterion_02_monte_carlo_consistency():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    hits = 0
    for _ in range(20):
        cons, quant, ch, snr = random_config(rng)
        exact = sep_closed_form(cons, quant, ch, snr).value
        spec = SimSpec(
            constellation=cons, quantizer=quant, channel=ch,
            snr_db=(10.0 * math.log10(snr),), trials=10**6,
            seed=int(rng.integers(0, 2**31)),
        )
        est = simulate(spec)[0]
        if abs(est.sep_hat - exact) <= 3 * max(est.stderr, 1e-12):
            hits += 1
    elapsed = time.monotonic() - start
    report(
        "2 Monte Carlo consistency",
        hits >= 19 and elapsed < 300.0,
        f"{hits}/20 within 3 stderr in {elapsed:.1f}s",
    )


def test_criterion_03_omega_invariance():
    results = []
    for omega in (0.5, 1.0, 2.0):
        ch = ChannelModel(1, omega)
        p = DesignProblem(
            channel=ch, M=4, bits=2, snr=10.0 / omega, constellation=C13, n_starts=8, seed=0,
        )
        r = optimize(p)
        results.append((omega, r.quantizer.positive_boundaries[0], r.sep))
    seps = [s for _, _, s in results]
    sep_spread = max(seps) - min(seps)
    q_rel_dev = max(
        abs(q / math.sqrt(omega) - results[1][1]) / results[1][1]
        for omega, q, _ in results
    )
    report(
        "3 omega invariance of optimal SEP",
        sep_spread < 1e-6 and q_rel_dev < 1e-4,
        f"SEP spread {sep_spread:.2e}, boundary sqrt-scaling deviation {q_rel_dev:.2e}",
    )


def test_criterion_04_noiseless_optimum():
    p = DesignProblem(
        channel=RAYLEIGH, M=4, bits=2, snr=None, constellation=C13, n_starts=8, seed=0,
    )
    r = optimize(p)
    q1 = r.quantizer.positive_boundaries[0]
    f_lo, f_hi = floor_bounds(C13, r.quantizer, RAYLEIGH)
    exact = sep_noiseless(C13, r.quantizer, RAYLEIGH).value
    ok = (
        abs(q1 - Q1_STAR) < 1e-3
        and abs(r.sep - FLOOR_STAR) < 1e-6
        and abs(f_lo.value - exact) < 1e-12
        and abs(f_hi.value - exact) < 1e-12
    )
    report(
        "4 noiseless optimum and floor-bound equality",
        ok,
        f"q1 = {q1:.6f} (target {Q1_STAR:.6f}), floor = {r.sep:.8f}"
        f" (target {FLOOR_STAR:.8f}), bound gap {abs(f_hi.value - exact):.1e}",
    )


def test_criterion_05_boundary_ratio_structure():
    p = DesignProblem(
        channel=RAYLEIGH, M=8, bits=3, snr=None, constellation=Constellation.geometric(0.4, 8),
        n_starts=10, seed=0,
    )
    _, dev_g = check_prop2(optimize(p), 0.4)

    p = DesignProblem(
        channel=RAYLEIGH, M=4, bits=3, snr=1e6, constellation=C13, n_starts=10, seed=0,
    )
    r = optimize(p)
    q = r.quantizer.positive_boundaries
    ratios = [lo / hi for lo, hi in zip(q, q[1:])]
    dev_13 = max(abs(rr - 1.0 / 3.0) / (1.0 / 3.0) for rr in ratios)
    report(
        "5 geometric boundary-ratio structure",
        dev_g < 0.01 * 0.4 and dev_13 < 0.02,
        f"X_g(0.4) max ratio deviation {dev_g:.2e};"
        f" equidistant 60 dB relative deviation {dev_13:.3f}",
    )


def test_criterion_06_floor_bit_scaling():
    slopes = {}
    for m in (1, 2):
        slopes[m] = dq_metric(lambda b: optimal_floor_log2(m, b, uniform=True), range(4, 11))
    inc = dq_successive_slopes(lambda b: optimal_floor_log2(1, b), range(2, 9))
    increasing = all(a < b for a, b in zip(inc, inc[1:]))
    ok = all(abs(slopes[m] - 2 * m) < 0.3 for m in (1, 2)) and increasing
    report(
        "6 floor scaling in resolution",
        ok,
        f"uniform slopes {slopes[1]:.2f}/{slopes[2]:.2f} (targets 2/4);"
        f" nonuniform increments {['%.1f' % v for v in inc]}",
    )


def test_criterion_07_vanishing_floor_schedule():
    rho_grid = [10.0 ** e for e in np.linspace(-0.3, -3.0, 10)]
    out = floor_schedule(rho_grid, a=4.0, b=3, M=4, ch=RAYLEIGH)
    vals = [v for _, v in out]
    nonuniform_ok = min(vals) < 1e-6 and all(
        x > y for x, y in zip(vals, vals[1:])
    )
    # uniform variant (step exponent must sit in (M-2, 4)); milder fading
    # shape m = 2 shows the same vanishing floor within rho >= 1e-3
    out_u = floor_schedule(
        rho_grid, a=3.5, b=3, M=4, ch=ChannelModel(2, 1.0), uniform=True
    )
    vals_u = [v for _, v in out_u]
    uniform_ok = min(vals_u) < 1e-6 and all(
        x > y for x, y in zip(vals_u, vals_u[1:])
    )
    report(
        "7 vanishing floor schedules",
        nonuniform_ok and uniform_ok,
        f"nonuniform min {min(vals):.1e}; uniform min {min(vals_u):.1e}"
        f" at rho >= 1e-3",
    )


def test_criterion_08_decay_exponents():
    grid = list(np.arange(20.0, 50.0 + 1e-9, 2.5))
    cases = [(2, False, 0.5), (3, False, 0.75), (3, True, 0.5)]  # bits, uniform, theory
    details, ok = [], True
    for bits, uniform, target in cases:
        est, theory = dvo_experiment(1, bits, 4, 1, grid, uniform=uniform, seed=0)
        assert float(theory) == target
        details.append(f"{bits}-bit {'uniform' if uniform else 'nonuniform'}: {est.slope:.3f}")
        ok = ok and abs(est.slope - target) < 0.1

    simo_grid = list(np.arange(15.0, 35.0 + 1e-9, 5.0))
    est, theory = dvo_experiment(1, 2, 4, 2, simo_grid, budget=4 * 10**6, seed=3)
    details.append(f"SIMO 2-antenna MC: {est.slope:.3f}")
    ok = ok and abs(est.slope - 1.0) < 0.15
    report("8 decay exponents of optimized designs", ok, "; ".join(details))


def test_criterion_09_aqnm_gap(tmp_path, capsys):
    out = tmp_path / "aqnm.csv"
    code = cli_main([
        "compare-aqnm", "--m", "1", "--bits", "3", "--mod", "4",
        "--constellation", "0.31622776601683794,0.9486832980505138",
        "--q", "0.5,1.0,1.5", "--snr-db", "25:5:60", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    gaps = [float(ex) - float(aq) for _, ex, aq in rows]
    monotone = all(a < b for a, b in zip(gaps, gaps[1:]))
    rel_gap_40db = (float(rows[3][1]) - float(rows[3][2])) / float(rows[3][2])
    report(
        "9 AQNM high-SNR gap",
        monotone and rel_gap_40db > 0.10,
        f"gap strictly widening over 25-60 dB; relative gap at 40 dB"
        f" = {rel_gap_40db:.2f}",
    )


def test_criterion_10_byte_determinism(tmp_path, capsys):
    sim_args = [
        "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
        "--q", "1.5722", "--snr-db", "5:5:25", "--trials", "200000",
        "--seed", "12",
    ]
    blobs = []
    for threads, name in ((1, "t1.csv"), (4, "t4.csv"), (2, "t2.csv")):
        path = tmp_path / name
        code = cli_main(sim_args + ["--threads", str(threads), "--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    sim_ok = blobs[0] == blobs[1] == blobs[2]

    opt_args = [
        "optimize", "--noiseless", "--m", "1", "--bits", "3", "--mod", "4",
        "--constellation", "1,3", "--starts", "6", "--seed", "2",
    ]
    outs = []
    for name in ("o1.json", "o2.json"):
        path = tmp_path / name
        code = cli_main(opt_args + ["--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    opt_ok = outs[0] == outs[1]
    report(
        "10 byte-for-byte determinism",
        sim_ok and opt_ok,
        f"simulate identical across 1/2/4 threads: {sim_ok};"
        f" optimize re-run identical: {opt_ok}",
    )
