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


def test_output_bytes_diff(monkeypatch, capsys, tmp_path):
    # --write stores each stdout beside the table; --diff reports only the rows whose
    # bytes moved, against what was stored
    tool = _load("output_bytes")
    monkeypatch.setattr(tool, "INVOCATIONS",
                        [(n, argv) for n, argv in tool.INVOCATIONS if n == "readme.floor"])
    table = tmp_path / "table.md"
    assert tool.run(["--write", str(table)]) == 0
    stored = tmp_path / "table.stdout" / "readme.floor.txt"
    doc = json.loads(stored.read_text())
    capsys.readouterr()
    assert tool.run(["--diff", str(table)]) == 0
    assert "readme.floor:" not in capsys.readouterr().out

    md5 = table.read_text().splitlines()[2].split("`")[3]
    table.write_text(table.read_text().replace(md5, "0" * 32))
    stored.write_text(json.dumps(dict(doc, floor_upper=doc["floor_upper"] * 2.0)))
    assert tool.run(["--diff", str(table)]) == 1
    report = capsys.readouterr().out.split("\nreadme.floor:\n")[1]
    assert report == (f"  floor_upper: largest relative change 0.5 (index 0: "
                      f"{doc['floor_upper'] * 2.0!r} -> {doc['floor_upper']!r})\n")
