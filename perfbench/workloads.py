"""The benchmark's workloads: inputs made from the workload seed, the CLI
calls (operations) of one round, and the checks of each call's output.

Every check compares against a computation made apart from pamq (the
quadrature reference, the benchmark's own Monte Carlo) or against a
property the method must have; none compares against stored output.
"""
import csv
import json
import math

import numpy as np

import probe
import reference

# relative tolerance of every SEP value against the quadrature reference
SEP_RTOL = 1e-8
# Monte Carlo counts must lie within this many standard errors
MC_SIGMAS = 5.0


class Workload:
    """The ops of one round, and a ``details`` function that turns the
    median seconds per group and per op into the workload's own rates."""

    def __init__(self, ops, details):
        self.ops, self.details = ops, details


class Op:
    """One CLI call. ``group`` is 1 or 2 (see README); ``check`` gets the
    op's output path and the output paths of the round so far, by label,
    and returns an error message or None. ``kernels`` is the host-speed
    probe's kernel set for the op (see probe.py). The probe runs during a
    ``probed`` op, and its samples scale that op's time; any other op is
    scaled by all the samples of its kernel set in the run (see
    run.summarize)."""

    def __init__(self, label, group, argv, out, check, kernels, probed=True):
        self.label, self.group, self.argv, self.out, self.check = label, group, argv, out, check
        self.kernels, self.probed = kernels, probed


def _csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


# -- curve: SEP curves by the closed form (integer m) and quadrature -------

CLOSED_FORM_CASES = ((4, 2, 1.0), (4, 3, 2.0), (8, 3, 1.0), (8, 4, 4.0))
QUADRATURE_CASES = ((4, 2, 0.5), (4, 3, 1.5), (8, 4, 2.5))
CLOSED_FORM_GRID = tuple(2.5 * k for k in range(25))  # 0..60 dB
# sep_quadrature loses accuracy above about 33 dB (see CHANGES.md), so its
# curves stop at 30 dB
QUADRATURE_GRID = tuple(2.5 * k for k in range(13))  # 0..30 dB
# the adaptive quadrature's work depends on the drawn inputs (over seeds
# 1-10, one draw per case took 170 000 to 178 000 special-function calls),
# so each quadrature case is drawn this many times to steady a run's work;
# the closed form's work does not depend on the draw
QUADRATURE_DRAWS = 3


def _grid_arg(grid):
    return f"{grid[0]}:{grid[1] - grid[0]}:{grid[-1]}"


def curve_inputs(seed):
    """Per case (M, b, m): amplitudes 2i+1 and boundaries y*M/2^(b-1), each
    moved by a uniform draw of up to 0.3 (amplitudes) or 0.2 steps
    (boundaries), which keeps both strictly increasing and positive. Each
    quadrature case is drawn QUADRATURE_DRAWS times."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for (M, bits, m), grid in ([(c, CLOSED_FORM_GRID) for c in CLOSED_FORM_CASES]
                               + [(c, QUADRATURE_GRID) for c in QUADRATURE_CASES
                                  for _ in range(QUADRATURE_DRAWS)]):
        half, k = M // 2, 2 ** (bits - 1) - 1
        amps = np.arange(1, 2 * half, 2) + rng.uniform(-0.3, 0.3, half)
        step = M / (k + 1)
        bounds = step * (np.arange(1, k + 1) + rng.uniform(-0.2, 0.2, k))
        cases.append((M, bits, m, tuple(amps), tuple(bounds), grid))
    return cases


def curve_workload(seed, outdir):
    ops, points = [], {1: 0, 2: 0}
    for n, (M, bits, m, amps, bounds, grid) in enumerate(curve_inputs(seed)):
        integer = float(m).is_integer()
        method = "closed_form" if integer else "quadrature"
        refs = [reference.sep_reference(amps, bounds, m, 1.0, 10.0 ** (s / 10.0))
                for s in grid]
        out = str(outdir / f"curve{n}.csv")
        argv = ["sep", "--m", repr(m), "--bits", str(bits), "--mod", str(M),
                "--constellation", _floats(amps), "--q", _floats(bounds),
                "--snr-db", _grid_arg(grid), "--out", out]

        def check(path, _round, grid=grid, refs=refs, method=method):
            header, rows = _csv_rows(path)
            if header != ["snr_db", "sep", "method"] or len(rows) != len(grid):
                return f"unexpected table shape {header} x {len(rows)}"
            for (sdb, sep, meth), s, ref in zip(rows, grid, refs):
                if float(sdb) != s or meth != method:
                    return f"row {sdb},{meth} where {s},{method} was expected"
                if _rel_err(float(sep), ref) > SEP_RTOL:
                    return f"SEP {sep} at {s} dB is {_rel_err(float(sep), ref):.1e} off {ref!r}"
            return None

        group = 1 if integer else 2
        points[group] += len(grid)
        kernels = probe.INTERPRETED if integer else probe.SCALAR
        ops.append(Op(f"{method}.{n}.M{M}b{bits}m{m:g}", group, argv, out, check, kernels))

    def details(group_s, _op_s):
        return {"curve.closed_form_points_per_s": points[1] / group_s[1],
                "curve.quadrature_points_per_s": points[2] / group_s[2]}

    return Workload(ops, details)


# -- design: optimize calls and one decay-exponent experiment -------------

OMEGAS = (0.5, 1.0, 2.0)


def _design_sep_check(amps_fixed, m, omega, snr_db):
    """The reported SEP of the returned design against the reference."""

    def check(path, _round):
        out = _read_json(path)
        amps = amps_fixed or tuple(out["amplitudes"])
        ref = reference.sep_reference(amps, out["boundaries"], m, omega, 10.0 ** (snr_db / 10.0))
        if _rel_err(out["sep"], ref) > SEP_RTOL:
            return f"design SEP {out['sep']!r} is {_rel_err(out['sep'], ref):.1e} off {ref!r}"
        return None

    return check


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def design_workload(_seed, outdir):
    """Six optimize calls and one dvo call. The omega designs hold the
    average received SNR omega * E_s / sigma^2 at 10 dB, where the optimum
    is omega-invariant.

    The inputs do not depend on the workload seed: over start seeds 0-7
    the 4-start 3-bit joint design took 2458 to 3450 SEP evaluations, a
    wider swing than the changes this workload is meant to show. All calls
    use start seed 0, as the acceptance tests do."""
    base = ["--m", "1", "--mod", "4", "--seed", "0"]
    ops = []

    out = str(outdir / "noiseless.json")

    def check_noiseless(path, _round):
        res = _read_json(path)
        q1, floor = res["boundaries"][0], res["sep"]
        if abs(q1 - reference.noiseless_q1_star()) > 1e-4:
            return f"noiseless q1 {q1!r} is not sqrt(9/8 ln 9)"
        if abs(floor - reference.noiseless_floor_star()) > 1e-8:
            return f"noiseless floor {floor!r} is not 0.5 (1 + 9^-1.125 - 9^-0.125)"
        return None

    ops.append(Op("optimize.noiseless", 1, ["optimize", "--noiseless", "--bits", "2",
                                            "--constellation", "1,3", "--starts", "8",
                                            *base, "--out", out], out, check_noiseless,
                  probe.INTERPRETED))
    for omega in OMEGAS:
        snr_db = 10.0 - 10.0 * math.log10(omega)
        out = str(outdir / f"omega{omega:g}.json")
        sep_check = _design_sep_check((1.0, 3.0), 1.0, omega, snr_db)

        def check(path, rnd, sep_check=sep_check, omega=omega):
            err = sep_check(path, rnd)
            if err or omega != OMEGAS[-1]:
                return err
            designs = [_read_json(rnd[f"optimize.omega{w:g}"]) for w in OMEGAS[:-1]]
            designs.append(_read_json(path))
            seps = [d["sep"] for d in designs]
            if (max(seps) - min(seps)) > SEP_RTOL * min(seps):
                return f"optimal SEP differs across omega: {seps}"
            scaled = [d["boundaries"][0] / math.sqrt(w) for d, w in zip(designs, OMEGAS)]
            if (max(scaled) - min(scaled)) > 1e-6 * scaled[1]:
                return f"boundaries do not scale with sqrt(omega): {scaled}"
            return None

        ops.append(Op(f"optimize.omega{omega:g}", 1,
                      ["optimize", "--omega", repr(omega), "--bits", "2", "--constellation", "1,3",
                       "--snr-db", repr(snr_db), "--starts", "8", *base, "--out", out], out, check,
                      probe.INTERPRETED))
    out = str(outdir / "quantizer3.json")
    ops.append(Op("optimize.quantizer3", 1,
                  ["optimize", "--bits", "3", "--constellation", "1,3", "--snr-db", "30",
                   "--starts", "4", *base, "--out", out], out,
                  _design_sep_check((1.0, 3.0), 1.0, 1.0, 30.0), probe.INTERPRETED))
    out = str(outdir / "joint3.json")
    ops.append(Op("optimize.joint3", 1,
                  ["optimize", "--joint", "--bits", "3", "--snr-db", "30", "--starts", "4",
                   *base, "--out", out], out, _design_sep_check(None, 1.0, 1.0, 30.0),
                  probe.INTERPRETED))

    out = str(outdir / "dvo.json")
    exponent = reference.dvo_exponent(1, 2, 4)

    def check_dvo(path, _round):
        slope = _read_json(path)["slope"]
        if abs(slope - exponent) > 0.1:
            return f"dvo slope {slope!r} is not within 0.1 of {exponent}"
        return None

    ops.append(Op("dvo.joint2", 2, ["dvo", "--joint", "--bits", "2", "--window", "20:50",
                                    *base, "--out", out], out, check_dvo, probe.INTERPRETED))

    def details(group_s, _op_s):
        return {"design.optimize_s": group_s[1], "design.dvo_s": group_s[2]}

    return Workload(ops, details)


# -- mc: seeded Monte Carlo, SISO and 2-antenna, one and two workers ------

MC_TRIALS = 400_000
MC_GRID = (5.0, 10.0, 15.0, 20.0, 25.0)


def mc_inputs(seed):
    """4-PAM {1, 3}, 2-bit quantizer with q1 drawn from [1.3, 1.9]."""
    rng = np.random.default_rng([seed, 3])
    return (1.0, 3.0), (float(rng.uniform(1.3, 1.9)),)


def _mc_counts(path):
    header, rows = _csv_rows(path)
    if header != ["snr_db", "trials", "errors", "sep_hat", "stderr", "method"]:
        raise ValueError(f"unexpected header {header}")
    if [float(r[0]) for r in rows] != list(MC_GRID) or any(int(r[1]) != MC_TRIALS for r in rows):
        raise ValueError("unexpected SNR grid or trial count")
    return [int(r[2]) for r in rows]


def mc_workload(seed, outdir):
    amps, bounds = mc_inputs(seed)
    snrs = [10.0 ** (s / 10.0) for s in MC_GRID]
    siso_ref = [reference.sep_reference(amps, bounds, 1.0, 1.0, snr) for snr in snrs]
    rng = np.random.default_rng([seed, 4])
    simo_ref = [reference.simo_monte_carlo(amps, bounds, 1.0, 1.0, snr, 2, MC_TRIALS, rng)
                for snr in snrs]

    def check_siso(path, _round):
        for s, errs, p in zip(MC_GRID, _mc_counts(path), siso_ref):
            se = math.sqrt(p * (1.0 - p) / MC_TRIALS)
            if abs(errs / MC_TRIALS - p) > MC_SIGMAS * se:
                return f"SISO at {s} dB: {errs} errors against reference SEP {p!r}"
        return None

    def check_simo(path, _round):
        for s, errs, own in zip(MC_GRID, _mc_counts(path), simo_ref):
            p1, p2 = errs / MC_TRIALS, own / MC_TRIALS
            se = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / MC_TRIALS)
            if abs(p1 - p2) > MC_SIGMAS * se:
                return f"2-antenna at {s} dB: {errs} errors against {own} from the own simulation"
        return None

    def same_bytes_as(label, inner):
        def check(path, rnd):
            with open(path, "rb") as a, open(rnd[label], "rb") as b:
                if a.read() != b.read():
                    return f"output differs from {label}"
            return inner(path, rnd)

        return check

    ops = []
    for kind, antennas, check in (("siso", "1", check_siso), ("simo", "2", check_simo)):
        for workers in ("1", "2"):
            label = f"{kind}_w{workers}"
            out = str(outdir / f"{label}.csv")
            argv = ["simulate", "--m", "1", "--bits", "2", "--mod", "4",
                    "--constellation", _floats(amps), "--q", _floats(bounds),
                    "--snr-db", _floats(MC_GRID), "--trials", str(MC_TRIALS),
                    "--antennas", antennas, "--threads", workers, "--seed", str(seed),
                    "--out", out]
            op_check = check if workers == "1" else same_bytes_as(f"{kind}_w1", check)
            # the 2-worker calls run in pool processes: a probe in this
            # process would compete with them for the two CPUs, and its
            # samples tracked their speed poorly, so they are scaled by the
            # samples of the run's 1-worker calls instead
            ops.append(Op(label, int(workers), argv, out, op_check, probe.VECTORIZED,
                          probed=workers == "1"))

    def details(_group_s, op_s):
        trials = MC_TRIALS * len(MC_GRID)
        return {f"mc.{op.label}_trials_per_s": trials / op_s[op.label] for op in ops}

    return Workload(ops, details)


WORKLOADS = {"curve": curve_workload, "design": design_workload, "mc": mc_workload}
INPUTS = {"curve": curve_inputs, "design": lambda seed: None, "mc": mc_inputs}
