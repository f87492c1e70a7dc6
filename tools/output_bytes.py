#!/usr/bin/env python3
"""The CLI's output bytes on a fixed list of invocations, against one stored copy.

Usage:
    PYTHONPATH=src python3 tools/output_bytes.py --check tools/output_bytes.stdout
    PYTHONPATH=src python3 tools/output_bytes.py --write tools/output_bytes.stdout

The store holds each invocation's stdout as NAME.txt, the only golden copy of
its bytes. --check reruns each invocation in-process through pamq.cli.main
twice, once to stdout and once with --out to a temporary file, and requires
exit 0 and both byte strings equal to NAME.txt. For each run that moved it
prints the largest relative change of each numeric field (a JSON key or a CSV
column) and every non-numeric difference, and exits 1; so does a stored file
that no invocation names. --write rewrites NAME.txt for every invocation: a
deliberate re-capture. Bytes are read and written as bytes (UTF-8), so no
platform's newline translation enters the store.

The invocations are the six README examples, acceptance criteria 9 and 10,
the seven calls of the perfbench `design` workload, the `quantizer3` call
again with its SNR as a one-point start:step:stop grid, whose point is a
NumPy scalar, three designs with the
uniform-step quantizer (fixed and joint `optimize`, joint `dvo`), the
2-antenna 1-worker call of the `mc` workload at seed 1, copied here, and
two more multi-antenna calls: 8-PAM at 3 antennas, and 4-PAM at 2
antennas from -5 dB, where many rows mix output signs. Four single-antenna
`simulate` calls reach the quantizer and midpoint rule at more sizes:
8-PAM at 4 bits (three amplitude midpoints, seven boundaries), 5 bits,
non-integer m with omega 2, and one run on two workers. Then a joint
`dvo` at 2 antennas, whose slope comes from the multi-antenna simulation.
Then two fixed-constellation `optimize` calls: one at non-integer m, whose
gradient is a finite difference of the quadrature SEP, and one on the
geometric constellation of ratio 0.4 rather than {1, 3}. Last, two `sep`
curves at non-integer m over 0-30 dB, which run the quadrature engine: the
shapes (M, b, m) = (4, 3, 1.5) and (8, 4, 2.5) of the perfbench `curve`
workload, on odd-integer amplitudes and unit-step boundaries.
"""
import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import sys
import tempfile

from pamq.cli import main

_DESIGN = ["--m", "1", "--mod", "4", "--seed", "0"]
_ACC10_SIM = ["simulate", "--m", "1", "--bits", "2", "--constellation", "1,3", "--q", "1.5722",
              "--snr-db", "5:5:25", "--trials", "200000", "--seed", "12"]

INVOCATIONS = [
    ("readme.sep", ["sep", "--m", "1", "--bits", "2", "--constellation", "1,3", "--q", "1.5",
                    "--snr-db", "0:2:40"]),
    ("readme.optimize", ["optimize", "--noiseless", "--m", "1", "--bits", "2", "--mod", "4",
                         "--constellation", "1,3", "--starts", "8"]),
    ("readme.floor", ["floor", "--m", "1", "--bits", "2", "--constellation", "1,3",
                      "--q", "1.5722206109523074"]),
    ("readme.simulate", ["simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
                         "--q", "1.5", "--snr-db", "5:5:25", "--trials", "1000000", "--seed", "7",
                         "--threads", "4"]),
    ("readme.dvo", ["dvo", "--joint", "--m", "1", "--bits", "2", "--mod", "4",
                    "--window", "20:50"]),
    ("readme.compare", ["compare-aqnm", "--m", "1", "--bits", "3", "--constellation", "1,3",
                        "--q", "0.5,1.0,1.5", "--snr-db", "25:5:60"]),
    ("acc9", ["compare-aqnm", "--m", "1", "--bits", "3", "--mod", "4",
              "--constellation", "0.31622776601683794,0.9486832980505138",
              "--q", "0.5,1.0,1.5", "--snr-db", "25:5:60"]),
    ("acc10.sim1", _ACC10_SIM + ["--threads", "1"]),
    ("acc10.sim2", _ACC10_SIM + ["--threads", "2"]),
    ("acc10.sim4", _ACC10_SIM + ["--threads", "4"]),
    ("acc10.opt", ["optimize", "--noiseless", "--m", "1", "--bits", "3", "--mod", "4",
                   "--constellation", "1,3", "--starts", "6", "--seed", "2"]),
    ("design.optimize.noiseless", ["optimize", "--noiseless", "--bits", "2",
                                   "--constellation", "1,3", "--starts", "8", *_DESIGN]),
    *((f"design.optimize.omega{omega:g}",
       ["optimize", "--omega", repr(omega), "--bits", "2", "--constellation", "1,3",
        "--snr-db", repr(10.0 - 10.0 * math.log10(omega)), "--starts", "8", *_DESIGN])
      for omega in (0.5, 1.0, 2.0)),
    ("design.optimize.quantizer3", ["optimize", "--bits", "3", "--constellation", "1,3",
                                    "--snr-db", "30", "--starts", "4", *_DESIGN]),
    ("design.optimize.quantizer3_grid", ["optimize", "--bits", "3", "--constellation", "1,3",
                                         "--snr-db", "30:1:30", "--starts", "4", *_DESIGN]),
    ("design.optimize.joint3", ["optimize", "--joint", "--bits", "3", "--snr-db", "30",
                                "--starts", "4", *_DESIGN]),
    ("design.dvo.joint2", ["dvo", "--joint", "--bits", "2", "--window", "20:50", *_DESIGN]),
    ("uniform.optimize.fixed3", ["optimize", "--uniform", "--bits", "3", "--constellation", "1,3",
                                 "--snr-db", "20", "--starts", "4", *_DESIGN]),
    ("uniform.optimize.joint3", ["optimize", "--joint", "--uniform", "--bits", "3",
                                 "--snr-db", "30", "--starts", "4", *_DESIGN]),
    ("uniform.dvo.joint3", ["dvo", "--joint", "--bits", "3", "--uniform", "--window", "20:30",
                            *_DESIGN]),
    ("mc.simo_w1", ["simulate", "--m", "1", "--bits", "2", "--mod", "4", "--constellation",
                    "1.0,3.0", "--q", "1.3084411832661798", "--snr-db", "5.0,10.0,15.0,20.0,25.0",
                    "--trials", "400000", "--antennas", "2", "--threads", "1", "--seed", "1"]),
    ("simo.r3_mod8", ["simulate", "--m", "1", "--antennas", "3", "--mod", "8", "--bits", "3",
                      "--constellation", "1,3,5,7", "--q", "2,4,6", "--snr-db", "0:10:20",
                      "--trials", "100000", "--seed", "3"]),
    ("simo.r2_low_snr", ["simulate", "--m", "1", "--antennas", "2", "--bits", "2",
                         "--constellation", "1,3", "--q", "1.5", "--snr-db=-5:5:5",
                         "--trials", "100000", "--seed", "3"]),
    ("siso.mod8_b4", ["simulate", "--m", "1", "--mod", "8", "--bits", "4",
                      "--constellation", "1,3,5,7", "--q", "1,2,3,4,5,6,7",
                      "--snr-db", "10:10:30", "--trials", "200000", "--seed", "5"]),
    ("siso.b5", ["simulate", "--m", "2", "--bits", "5", "--constellation", "1,3",
                 "--uniform-step", "0.25", "--snr-db", "0:10:40", "--trials", "200000",
                 "--seed", "6"]),
    ("siso.m1_5_omega2", ["simulate", "--m", "1.5", "--omega", "2", "--bits", "3",
                          "--constellation", "1,3", "--q", "0.8,1.6,2.4",
                          "--snr-db", "0:10:30", "--trials", "200000", "--seed", "8"]),
    ("siso.threads2", ["simulate", "--m", "1", "--bits", "3", "--constellation", "1,3",
                       "--q", "0.8,1.6,2.4", "--snr-db", "5:10:25", "--trials", "500000",
                       "--seed", "9", "--threads", "2"]),
    ("simo.dvo_r2", ["dvo", "--joint", "--m", "1", "--bits", "2", "--antennas", "2",
                     "--window", "15:35", "--trials", "400000", "--seed", "3"]),
    ("design.optimize.m1_5", ["optimize", "--m", "1.5", "--bits", "2", "--constellation", "1,3",
                              "--snr-db", "20", "--starts", "2", "--seed", "0"]),
    ("design.optimize.geometric", ["optimize", "--m", "2", "--bits", "2", "--geometric", "0.4",
                                   "--snr-db", "25", "--starts", "3", "--seed", "1"]),
    ("quad.sep.M4b3m1_5", ["sep", "--m", "1.5", "--bits", "3", "--constellation", "1,3",
                           "--q", "1,2,3", "--snr-db", "0:2.5:30"]),
    ("quad.sep.M8b4m2_5", ["sep", "--m", "2.5", "--bits", "4", "--mod", "8",
                           "--constellation", "1,3,5,7", "--q", "1,2,3,4,5,6,7",
                           "--snr-db", "0:2.5:30"]),
]


def output(argv, out=None):
    """(exit code, bytes) of argv run in-process: its stdout, or with a path out the
    file that --out out writes (empty if none is written)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--out", str(out)] if out else argv)
    if out is None:
        return code, buf.getvalue().encode()
    return code, out.read_bytes() if out.exists() else b""


def _fields(text):
    """{(field, index): text} of an output: each leaf of a JSON document under its
    dotted key (a list's elements by index), else each cell of a CSV table under its
    column (the rows by index)."""
    try:
        doc = json.loads(text)
    except ValueError:
        header, *body = list(csv.reader(io.StringIO(text))) or [[]]
        return {(column, k): cell for k, row in enumerate(body)
                for column, cell in zip(header, row)}
    cells = {}

    def walk(node, key, index):
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{key}.{name}" if key else name, 0)
        elif isinstance(node, list):
            for j, child in enumerate(node):
                walk(child, key, j)
        else:
            cells[key, index] = json.dumps(node)
    walk(doc, "", 0)
    return cells


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def diff_report(old, new):
    """Lines saying how the output new differs from old: the largest relative change
    |new - old| / |old| of each numeric field, then each non-numeric difference."""
    old_cells, new_cells = _fields(old), _fields(new)
    largest, other = {}, []
    for key in sorted(old_cells.keys() | new_cells.keys()):
        a, b = old_cells.get(key), new_cells.get(key)
        if a == b:
            continue
        x, y = _number(a or ""), _number(b or "")
        if x is None or y is None:
            other.append(f"  {key[0]}[{key[1]}]: {a if a is not None else '(none)'}"
                         f" -> {b if b is not None else '(none)'}")
            continue
        rel = abs(y - x) / abs(x) if x else math.inf
        if key[0] not in largest or rel > largest[key[0]][0]:
            largest[key[0]] = (rel, key[1], a, b)
    lines = [f"  {field}: largest relative change {rel:.3g} (index {k}: {a} -> {b})"
             for field, (rel, k, a, b) in sorted(largest.items())]
    return lines + other


def report(name, stored, runs):
    """Lines saying how the runs of invocation name, (label, exit code, bytes) each,
    differ from its stored bytes (None when none are stored); empty when every run
    exits 0 with exactly those bytes."""
    if stored is None:
        return [f"{name}: no stored file"]
    lines = []
    for label, code, data in runs:
        if code:
            lines.append(f"{name} ({label}): exit {code}")
        elif data != stored:
            lines.append(f"{name} ({label}):")
            lines += diff_report(stored.decode(), data.decode()) or ["  same fields, other bytes"]
    return lines


def check(store):
    """Print how each invocation moved against the store; 1 if any did, else 0."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, argv) in enumerate(INVOCATIONS):
            path = store / f"{name}.txt"
            runs = [("stdout", *output(argv)),
                    ("--out", *output(argv, pathlib.Path(tmp) / f"{k}.out"))]
            lines += report(name, path.read_bytes() if path.exists() else None, runs)
    names = {name for name, _ in INVOCATIONS}
    lines += [f"{path.name}: stored file with no invocation"
              for path in sorted(store.glob("*.txt")) if path.stem not in names]
    print("\n".join(lines) if lines else f"{len(INVOCATIONS)} invocations match {store}")
    return 1 if lines else 0


def write(store):
    """Rewrite the store: each invocation's stdout as NAME.txt."""
    store.mkdir(parents=True, exist_ok=True)
    for name, argv in INVOCATIONS:
        (store / f"{name}.txt").write_bytes(output(argv)[1])
    return 0


def run(argv=None):
    """Check the invocations against the store --check DIR, or rewrite it with
    --write DIR. Returns the exit code."""
    parser = argparse.ArgumentParser(description="The pamq CLI's output bytes against a store")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", metavar="DIR", type=pathlib.Path,
                      help="compare every invocation's bytes with DIR/NAME.txt")
    mode.add_argument("--write", metavar="DIR", type=pathlib.Path,
                      help="store every invocation's stdout as DIR/NAME.txt")
    args = parser.parse_args(argv)
    return check(args.check) if args.check else write(args.write)


if __name__ == "__main__":
    sys.exit(run())
