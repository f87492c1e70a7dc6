"""Benchmark of pamq: runs one workload's CLI calls in-process through
``pamq.cli.main``, checks every output, and prints one JSON result line.

    python3 perfbench/run.py --workload {curve,design,mc} --seed N --seconds S --trace {0,1}

It runs whole rounds of the workload's operations until S seconds have
passed (at least one round). With --trace 0 the last line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 the same rounds run
untraced, then one round runs under the span recorder, and the last line
carries the per-layer metrics. The traced run also writes its spans and a
summary under perfbench/out/. The line before the result, ``detail {...}``,
holds the unscaled seconds and each workload's own rates. See
perfbench/README.md.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# timed in a fresh interpreter: import pamq, then make the workload's inputs
SETUP_PROBE = """
import json, sys, time
sys.path[:0] = [{src!r}, {here!r}]
import probe
with probe.SpeedProbe() as speed:
    t0 = time.perf_counter()
    import pamq.cli
    import workloads
    workloads.INPUTS[{workload!r}]({seed})
    t1 = time.perf_counter()
print(json.dumps([t1 - t0 - speed.spent, speed.kernel_s, speed.samples]))
"""


def measure_setup(workload, seed):
    """Median set-up seconds, scaled and unscaled, over SETUP_REPEATS fresh
    interpreters."""
    import probe

    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        net, kernel_s, samples = json.loads(proc.stdout.splitlines()[-1])
        raw.append(net)
        scaled.append(probe.scale(net, kernel_s, samples) or net)
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


class OpTime:
    """Net seconds of one op and the probe's kernel samples meanwhile."""

    def __init__(self, net_s, kernel_s=(), samples=0):
        self.net_s, self.kernel_s, self.samples = net_s, kernel_s, samples


def run_op(op, kernels):
    """Run one op, under the probe with the given kernel set unless None."""
    import pamq.cli
    import probe

    if kernels is None:
        t0 = time.perf_counter()
        # looked up on the module at call time, so the recorder's wrap applies
        code = pamq.cli.main(op.argv)
        return code, OpTime(time.perf_counter() - t0)
    with probe.SpeedProbe(kernels) as speed:
        t0 = time.perf_counter()
        code = pamq.cli.main(op.argv)
        t1 = time.perf_counter()
    return code, OpTime(t1 - t0 - speed.spent, speed.kernel_s, speed.samples)


def run_round(workload, tally, tracer=None):
    """Run every op once; return {label: OpTime} and, when traced, the
    span id range of each op."""
    for op in workload.ops:
        if os.path.exists(op.out):
            os.remove(op.out)
    times, spans, outputs = {}, {}, {}
    for op in workload.ops:
        first = tracer.n_spans if tracer else 0
        probed = op.probed and tracer is None
        code, times[op.label] = run_op(op, op.kernels if probed else None)
        spans[op.label] = (first, tracer.n_spans if tracer else 0)
        try:
            error = f"exit code {code}" if code != 0 else op.check(op.out, outputs)
        except Exception as exc:  # a malformed output fails the op, not the run
            error = f"{type(exc).__name__}: {exc}"
        outputs[op.label] = op.out
        tally.attempted += 1
        if error:
            tally.failed += 1
            print(f"perfbench: {op.label} failed: {error}", file=sys.stderr)
    return times, spans


def run_for(workload, seconds, tally):
    """Whole rounds until `seconds` have passed."""
    rounds, t0 = [], time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(workload, tally)[0])
    return rounds


def summarize(workload, rounds):
    """Median seconds per round of each op, each group and the whole round,
    unscaled and scaled to the nominal host speed.

    Within a set, the probed ops of one kernel set are scaled together by
    the probe samples taken while they ran, or by all of the run's samples
    of that kernel set if they ran too briefly to be sampled. The set's
    other ops are scaled by all of the run's samples of their kernel set."""
    import probe

    ops = {op.label: op for op in workload.ops}

    def pooled(times):
        return (tuple(map(sum, zip(*(t.kernel_s for t in times)))),
                sum(t.samples for t in times))

    fallback = {k: pooled([t for r in rounds for label, t in r.items()
                           if ops[label].probed and ops[label].kernels is k])
                for k in {op.kernels for op in workload.ops}}

    def seconds(times, labels):
        scaled = 0.0
        for k in {ops[label].kernels for label in labels}:
            sampled = [times[l] for l in labels if ops[l].kernels is k and ops[l].probed]
            other = [times[l] for l in labels if ops[l].kernels is k and not ops[l].probed]
            kernel_s, samples = pooled(sampled)
            if samples == 0:
                kernel_s, samples = fallback[k]
            scaled += probe.scale(sum(t.net_s for t in sampled), kernel_s, samples, k)
            if other:
                scaled += probe.scale(sum(t.net_s for t in other), *fallback[k], k)
        return scaled, sum(times[label].net_s for label in labels)

    sets = {op.label: [op.label] for op in workload.ops}
    for g in (1, 2):
        sets[g] = [op.label for op in workload.ops if op.group == g]
    sets["wall"] = [op.label for op in workload.ops]
    scaled, raw = {}, {}
    for key, labels in sets.items():
        pairs = [seconds(r, labels) for r in rounds]
        scaled[key] = statistics.median(p[0] for p in pairs)
        raw[key] = statistics.median(p[1] for p in pairs)
    return scaled, raw


CALLS_AND_SELF = (
    "specfun.upper_gamma_reg", "specfun.lower_gamma_reg", "specfun.f_integral",
    "specfun.q_func", "detector.decision_region", "detector.noiseless_region",
    "sep.h_function", "sep.sep_closed_form", "sep.h_function_quad", "sep.sep_quadrature",
    "sep.sep_noiseless", "optimizer.optimize", "cli.main",
)


def layer_metrics(tracer, traced_times, spans, untraced_wall):
    """Per-layer metrics of the traced round, in unscaled seconds."""
    import numpy as np

    per, sep_evals = tracer.summary()
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = per[name]["calls"]
        out[f"{name}.self_s"] = per[name]["self_s"]
    for name in ("sep.sep_closed_form", "sep.sep_quadrature"):
        dur = per[name]["durations"]
        for q in (50, 95):
            out[f"{name}.p{q}_ms"] = float(np.percentile(dur, q)) * 1e3 if len(dur) else 0.0
    designs = per["optimizer.optimize"]["calls"]
    out["optimizer.sep_evals"] = sep_evals
    out["optimizer.sep_evals_per_design"] = sep_evals / designs if designs else 0.0
    out["asymptotics.dvo_experiment.self_s"] = per["asymptotics.dvo_experiment"]["self_s"]
    out["montecarlo.simulate.calls"] = per["montecarlo.simulate"]["calls"]
    out["montecarlo.simulate.s"] = per["montecarlo.simulate"]["total_s"]

    name_id, _, start, end = tracer.arrays()
    sim = tracer.names.index("montecarlo.simulate")
    for label in ("siso_w1", "siso_w2", "simo_w1", "simo_w2"):
        lo, hi = spans.get(label, (0, 0))
        sel = name_id[lo:hi] == sim
        out[f"montecarlo.{label}_s"] = float((end[lo:hi][sel] - start[lo:hi][sel]).sum())
    for kind in ("siso", "simo"):
        w1, w2 = out[f"montecarlo.{kind}_w1_s"], out[f"montecarlo.{kind}_w2_s"]
        out[f"montecarlo.{kind}_w2_speedup"] = w1 / w2 if w1 and w2 else 0.0
    out["trace.overhead_s"] = sum(t.net_s for t in traced_times.values()) - untraced_wall
    out["trace.spans"] = tracer.n_spans
    return out


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curve", "design", "mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pamq" / "__init__.py").is_file():
        sys.exit(f"perfbench: pamq sources not found under {SRC}")
    metrics_spec = declared("per_layer" if args.trace else "end_to_end")

    setup_s, setup_raw_s = measure_setup(args.workload, args.seed)
    sys.path[:0] = [str(SRC)]
    import workloads

    outdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
        rounds = run_for(workload, args.seconds, tally)
        scaled, raw = summarize(workload, rounds)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced_times, spans = run_round(workload, tally, tracer)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, traced_times, spans, raw["wall"])
            stem = OUT / f"{args.workload}-seed{args.seed}"
            tracer.save(f"{stem}.spans.npz")
            with open(f"{stem}.summary.json", "w") as fh:
                json.dump(values, fh, indent=2, sort_keys=True)
        else:
            values = {"setup_s": setup_s, "wall_s": scaled["wall"], "group1_s": scaled[1],
                      "group2_s": scaled[2],
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        op_raw = {op.label: raw[op.label] for op in workload.ops}
        print("detail " + json.dumps({
            "rounds": len(rounds), "setup_unscaled_s": setup_raw_s,
            "wall_unscaled_s": raw["wall"], "group_unscaled_s": [raw[1], raw[2]],
            "op_unscaled_s": op_raw, **workload.details(raw, op_raw)}, sort_keys=True))
    finally:
        shutil.rmtree(outdir)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
