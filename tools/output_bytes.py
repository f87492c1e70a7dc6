#!/usr/bin/env python3
"""MD5s of the CLI's output bytes on a fixed list of invocations.

Usage:
    PYTHONPATH=src python3 tools/output_bytes.py
    PYTHONPATH=src python3 tools/output_bytes.py --write tools/output_bytes.md
    PYTHONPATH=src python3 tools/output_bytes.py --check tools/output_bytes.md

Each invocation runs in-process through pamq.cli.main twice: once to
stdout, and once with --out to a temporary file. The script prints a
Markdown table of the exit code, the MD5 of what the first run wrote to
stdout and the MD5 of the file the second run wrote. The exit column
reads "a/b" when the two runs exit differently. With --write FILE the
table also goes to FILE; with --check FILE each row is compared with the
row of the same invocation in FILE, and the script exits 1 and lists the
rows that differ. The committed table is tools/output_bytes.md.

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
import hashlib
import io
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


def _md5(data):
    return hashlib.md5(data).hexdigest()


def output_bytes(argv, out_path):
    """(exit code to stdout, exit code with --out, stdout MD5, --out file MD5) of argv."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out_code = main(argv + ["--out", str(out_path)])
    out_md5 = _md5(out_path.read_bytes()) if out_path.exists() else "(none)"
    return code, out_code, _md5(buf.getvalue().encode()), out_md5


HEADER = ["| Invocation | Exit | stdout MD5 | `--out` MD5 |", "|---|---|---|---|"]


def _by_name(rows):
    """Table rows keyed by invocation name."""
    return {row.split("|")[1].strip(" `"): row for row in rows}


def table_rows():
    """One Markdown row per invocation, printed as it is made."""
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, argv) in enumerate(INVOCATIONS):
            code, out_code, std_md5, out_md5 = output_bytes(argv, pathlib.Path(tmp) / f"{k}.out")
            exit_text = str(code) if code == out_code else f"{code}/{out_code}"
            row = f"| `{name}` | {exit_text} | `{std_md5}` | `{out_md5}` |"
            print(row, flush=True)
            yield row


def run(argv=None):
    """Print the table; write it to --write FILE, or compare it with --check FILE.
    Returns the exit code: 1 when a row differs from the checked table."""
    parser = argparse.ArgumentParser(description="MD5s of the pamq CLI's output bytes")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE", help="also save the table to FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the table with FILE")
    args = parser.parse_args(argv)
    if args.check:
        expected = _by_name(pathlib.Path(args.check).read_text().splitlines()[2:])
    print("\n".join(HEADER))
    rows = list(table_rows())
    if args.write:
        pathlib.Path(args.write).write_text("\n".join(HEADER + rows) + "\n")
        return 0
    if args.check:
        actual = _by_name(rows)
        differ = [name for name in actual.keys() | expected.keys()
                  if actual.get(name) != expected.get(name)]
        for name in sorted(differ):
            print(f"differs: {name}\n  expected {expected.get(name, '(no row)')}\n"
                  f"  actual   {actual.get(name, '(no row)')}", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(run())
