#!/usr/bin/env python3
"""MD5s of the CLI's output bytes on a fixed list of invocations.

Usage:
    PYTHONPATH=src python3 tools/output_bytes.py

Each invocation runs in-process through pamq.cli.main twice: once to
stdout, and once with --out to a temporary file. The script prints a
Markdown table of the exit code, the MD5 of what the first run wrote to
stdout and the MD5 of the file the second run wrote. The exit column
reads "a/b" when the two runs exit differently. Run it at two commits and
compare the tables to see which outputs a change moved.

The invocations are the six README examples, acceptance criteria 9 and 10
and the seven calls of the perfbench `design` workload, copied here.
"""
import contextlib
import hashlib
import io
import math
import pathlib
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
    ("design.optimize.joint3", ["optimize", "--joint", "--bits", "3", "--snr-db", "30",
                                "--starts", "4", *_DESIGN]),
    ("design.dvo.joint2", ["dvo", "--joint", "--bits", "2", "--window", "20:50", *_DESIGN]),
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


def print_table():
    print("| Invocation | Exit | stdout MD5 | `--out` MD5 |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, argv) in enumerate(INVOCATIONS):
            code, out_code, std_md5, out_md5 = output_bytes(argv, pathlib.Path(tmp) / f"{k}.out")
            exit_text = str(code) if code == out_code else f"{code}/{out_code}"
            print(f"| `{name}` | {exit_text} | `{std_md5}` | `{out_md5}` |", flush=True)


if __name__ == "__main__":
    print_table()
