"""Tooling: the scripts under tools/ still run against the package, which no
other test imports them for."""
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_microbench_runs(capsys):
    # one timed block per row and 2 000-row Monte Carlo batches: about 2 s
    microbench = _load("microbench")
    microbench.REPEAT, microbench.MC_BATCH = 1, 2000
    microbench.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("python ")
    rows = [line for line in lines[1:] if line.endswith(" us")]
    assert len(rows) == len(lines) - 1 == 20
    assert any(row.startswith("_draw, 2k rows, 5 dB") for row in rows)
    assert any(row.startswith("sep_noiseless (8,4,2)") for row in rows)


def test_diff_report_fields():
    # the largest relative change per CSV column or JSON key, then the other changes
    report = _load("output_bytes").diff_report
    old = "snr_db,sep,method\n0,0.5,closed_form\n10,0.25,closed_form\n20,0.1,closed_form\n"
    new = "snr_db,sep,method\n0,0.5,closed_form\n10,0.2,quadrature\n20,0.11,closed_form\n"
    assert report(old, new) == ["  sep: largest relative change 0.2 (index 1: 0.25 -> 0.2)",
                                "  method[1]: closed_form -> quadrature"]
    old = json.dumps({"boundaries": [1.0, 2.0], "converged": True, "sep": 0.5})
    new = json.dumps({"boundaries": [1.0, 2.5], "converged": False, "sep": 0.5, "evals": 3})
    assert report(old, new) == ["  boundaries: largest relative change 0.25 (index 1: 2.0 -> 2.5)",
                                "  converged[0]: true -> false",
                                "  evals[0]: (none) -> 3"]
    assert report(old, old) == []


def test_output_bytes_match_store():
    # every invocation's stdout equals its stored bytes
    tool = _load("output_bytes")
    store = ROOT / "tools" / "output_bytes.stdout"
    moved = [line for name, argv in tool.INVOCATIONS
             for line in tool.report(name, (store / f"{name}.txt").read_bytes(),
                                     [("stdout", *tool.output(argv))])]
    assert not moved, "\n".join(moved)


def test_output_bytes_diff(monkeypatch, capsys, tmp_path):
    # once a stored number is edited, --check exits 1 and reports the moved
    # field's relative change for the stdout run and the --out run
    tool = _load("output_bytes")
    monkeypatch.setattr(tool, "INVOCATIONS",
                        [(n, argv) for n, argv in tool.INVOCATIONS if n == "readme.floor"])
    assert tool.run(["--write", str(tmp_path)]) == 0
    stored = tmp_path / "readme.floor.txt"
    doc = json.loads(stored.read_bytes())
    stored.write_bytes(json.dumps(dict(doc, floor_upper=doc["floor_upper"] * 2.0)).encode())
    capsys.readouterr()
    assert tool.run(["--check", str(tmp_path)]) == 1
    change = (f"  floor_upper: largest relative change 0.5 (index 0: "
              f"{doc['floor_upper'] * 2.0!r} -> {doc['floor_upper']!r})")
    assert capsys.readouterr().out.splitlines() == [
        "readme.floor (stdout):", change, "readme.floor (--out):", change]
