"""Tooling: the scripts under tools/ still run against the package, which no
other test imports them for."""
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_microbench_runs(capsys):
    # one timed block per row and 2 000-row Monte Carlo batches: about 2 s
    spec = importlib.util.spec_from_file_location("microbench", ROOT / "tools" / "microbench.py")
    microbench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(microbench)
    microbench.REPEAT, microbench.MC_BATCH = 1, 2000
    microbench.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("python ")
    rows = [line for line in lines[1:] if line.endswith(" us")]
    assert len(rows) == len(lines) - 1 == 19
    assert any(row.startswith("_draw, 2k rows, 5 dB") for row in rows)
