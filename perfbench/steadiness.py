"""Steadiness check: run one workload with several seeds and report, per
end-to-end metric, the median and the spread (interquartile range over
median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload design --runs 10 [--first-seed 1]

Every metric except setup_s should spread by less than a third of its bound.
The share of failed operations must be the same in every run.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, shares = {m["name"]: [] for m in spec["end_to_end"]}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    steady = len(shares) == 1
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady = steady and ok
        print(f"{m['name']:>12}: median {statistics.median(vals):.4g} {m['unit']}, "
              f"spread {spread:.3f}, bound {m['bound']}{'' if ok else '  <-- too wide'}")
    print(f"failed share, correct: {sorted(shares)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
