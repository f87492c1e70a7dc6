"""Command-line front end: flag parsing, config files, output schemas,
exit codes, and byte-level determinism."""
import importlib.util
import json
import pathlib
from fractions import Fraction

import pytest

from pamq import Constellation, cli, optimizer
from pamq.asymptotics import DvoEstimate
from pamq.cli import main

Q1_STAR = 1.5722206109523074
FLOOR_STAR = 0.1622952508215144


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSepCommand:
    def test_grid_row_count(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli([
            "sep", "--m", "1", "--omega", "1", "--bits", "2", "--mod", "4",
            "--constellation", "1,3", "--q", "1.5", "--snr-db", "0:2:40",
            "--out", str(out),
        ], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,sep,method"
        assert len(lines) == 22  # header + 21 grid points

    def test_stdout_schema(self, capsys):
        code, stdout, _ = run_cli([
            "sep", "--m", "2", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10",
        ], capsys)
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "snr_db,sep,method"
        assert row.endswith("closed_form")
        assert "." in row.split(",")[1]  # %.12e with '.' decimal

    def test_non_integer_shape_uses_quadrature(self, capsys):
        code, stdout, _ = run_cli([
            "sep", "--m", "1.5", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10",
        ], capsys)
        assert code == 0
        assert stdout.splitlines()[1].endswith("quadrature")

    @pytest.mark.parametrize("step, bits, message", [
        ("0", "2", "step must be positive"), ("1", "0", "bits must be >= 2"),
    ])
    def test_bad_uniform_quantizer_rejected(self, step, bits, message, capsys):
        code, _, stderr = run_cli([
            "sep", "--m", "1", "--bits", bits, "--constellation", "1,3",
            "--uniform-step", step, "--snr-db", "10",
        ], capsys)
        assert code == 1
        assert stderr == f"pamq: {message}\n"

    def test_geometric_without_mod_is_4pam(self, capsys):
        amplitudes = ",".join(map(repr, Constellation.geometric(0.4, 4).amplitudes))
        outputs = [run_cli(["sep", "--m", "1", "--bits", "2", *flags, "--q", "1.5",
                            "--snr-db", "0:10:30"], capsys)
                   for flags in (["--geometric", "0.4"], ["--constellation", amplitudes])]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_numerical_failure_exits_2(self, capsys):
        # m = 40 at 80-90 dB overflows the closed form; the rest of the message is
        # the overflow's errno tuple
        code, stdout, stderr = run_cli([
            "sep", "--m", "40", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "80:10:90",
        ], capsys)
        assert code == 2 and stdout == ""
        assert stderr.startswith("pamq: numerical failure:")


class TestBitsMaximum:
    # one bit above the maximum, so that a missing check costs seconds, not memory
    @pytest.mark.parametrize("argv", [
        ["sep", "--constellation", "1,3", "--uniform-step", "1", "--snr-db", "10"],
        ["sep", "--constellation", "1,3", "--q", "1.5", "--snr-db", "10"],
        ["optimize", "--constellation", "1,3", "--snr-db", "10", "--starts", "1"],
        ["optimize", "--joint", "--snr-db", "10", "--starts", "1"],
    ])
    def test_bits_above_maximum_rejected(self, argv, capsys, monkeypatch):
        for module in (cli, optimizer):
            monkeypatch.setattr(module, "optimize", lambda *a, **k: pytest.fail("designed"))
        code, stdout, err = run_cli(argv + ["--m", "1", "--bits", "17"], capsys)
        assert code == 1 and stdout == ""
        assert err == "pamq: bits must be <= 16\n"


class TestOptimizeCommand:
    def test_noiseless_known_optimum(self, capsys):
        code, stdout, _ = run_cli([
            "optimize", "--noiseless", "--m", "1", "--bits", "2",
            "--mod", "4", "--constellation", "1,3", "--starts", "6",
        ], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["boundaries"][0] == pytest.approx(Q1_STAR, abs=1e-4)
        assert payload["sep"] == pytest.approx(FLOOR_STAR, abs=1e-6)
        assert payload["converged"] is True
        assert payload["evals"] > 0 and payload["failed_evals"] == 0

    def test_prints_failed_evals(self, capsys, monkeypatch):
        # every candidate fails: both counts show, and no start converged
        def failing(amps, edges, ch, snr):
            raise ArithmeticError("injected")

        monkeypatch.setattr(optimizer, "_sep_and_grad", failing)
        code, stdout, _ = run_cli([
            "optimize", "--noiseless", "--m", "1", "--bits", "2",
            "--constellation", "1,3", "--starts", "2",
        ], capsys)
        assert code == 2
        payload = json.loads(stdout)
        assert payload["failed_evals"] == payload["evals"] > 0


class TestStartsRange:
    """--starts takes 1 to 64, the size of the start schedule, and says so."""

    ARGV = ["optimize", "--noiseless", "--m", "1", "--bits", "2", "--constellation", "1,3"]

    @pytest.mark.parametrize("starts", ["0", "65", "100"])
    def test_outside_range_names_flag(self, starts, capsys):
        code, stdout, err = run_cli(self.ARGV + ["--starts", starts], capsys)
        assert code == 1
        assert stdout == ""
        assert "--starts" in err and "1 to 64" in err

    def test_largest_runs(self, capsys):
        code, stdout, _ = run_cli(self.ARGV + ["--starts", "64"], capsys)
        assert code == 0
        assert json.loads(stdout)["starts_used"] == 64


class TestSeedRange:
    """A negative seed exits 1 naming where it came from, before any work."""

    SYSTEM = ["--m", "1", "--bits", "2", "--constellation", "1,3"]
    ARGVS = [
        ["simulate", *SYSTEM, "--q", "1.5", "--snr-db", "10", "--trials", "1000"],
        ["optimize", *SYSTEM, "--snr-db", "10", "--starts", "2"],
        ["dvo", "--joint", "--m", "1", "--bits", "2", "--window", "20:30"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=["simulate", "optimize", "dvo"])
    def test_flag_named(self, argv, capsys):
        code, stdout, err = run_cli(argv + ["--seed", "-1"], capsys)
        assert code == 1 and stdout == ""
        assert "--seed must be >= 0" in err

    def test_env_named(self, capsys, monkeypatch):
        monkeypatch.setenv("PAMQ_SEED", "-1")
        code, stdout, err = run_cli(self.ARGVS[0] + ["--seed", "3"], capsys)
        assert code == 1 and stdout == ""
        assert "PAMQ_SEED must be >= 0" in err


class TestCountFlags:
    """simulate exits 1 naming the flag when an antenna, worker or trial count is
    below 1 (dvo's --antennas: TestConfigAndErrors)."""

    @pytest.mark.parametrize("flag", ["--antennas", "--threads", "--trials"])
    def test_flag_named(self, flag, capsys):
        code, stdout, err = run_cli(TestSeedRange.ARGVS[0] + [flag, "0"], capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: {flag} must be >= 1, not 0\n"

    def test_dvo_trials_rejected_before_designing(self, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "optimize", lambda *a, **k: pytest.fail("designed"))
        code, stdout, err = run_cli(["dvo", "--joint", "--m", "1", "--bits", "3", "--antennas",
                                     "2", "--trials", "0", "--window", "20:60"], capsys)
        assert code == 1 and stdout == ""
        assert err == "pamq: --trials must be >= 1, not 0\n"


class TestOneWriter:
    """A CSV and a JSON command write the same bytes to stdout and to --out, with
    LF line endings."""

    @pytest.mark.parametrize("argv", [
        ["sep", "--snr-db", "0:10:40"],
        ["simulate", "--snr-db", "10,20", "--trials", "2000"],
        ["floor"],
    ], ids=["sep", "simulate", "floor"])
    def test_stdout_is_out_file(self, argv, tmp_path, capsys):
        argv = argv + ["--m", "1", "--bits", "2", "--constellation", "1,3", "--q", "1.5"]
        out = tmp_path / "out"
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0 and run_cli(argv + ["--out", str(out)], capsys)[0] == 0
        assert out.read_bytes() == stdout.encode()
        assert "\r" not in stdout


class TestFloorCommand:
    def test_floor_bounds_collapse(self, capsys):
        code, stdout, _ = run_cli([
            "floor", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", f"{Q1_STAR}",
        ], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["sep_noiseless"] == pytest.approx(FLOOR_STAR, abs=1e-10)
        assert payload["floor_lower"] == pytest.approx(payload["floor_upper"])


class TestSimulateCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code, _, _ = run_cli([
            "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10,20", "--trials", "20000",
            "--seed", "4", "--out", str(out),
        ], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,trials,errors,sep_hat,stderr,method"
        assert len(lines) == 3

    def test_thread_count_determinism(self, tmp_path, capsys):
        outs = []
        for threads, name in ((1, "a.csv"), (4, "b.csv")):
            out = tmp_path / name
            code, _, _ = run_cli([
                "simulate", "--m", "1", "--bits", "2",
                "--constellation", "1,3", "--q", "1.5", "--snr-db", "5,15",
                "--trials", "60000", "--seed", "9",
                "--threads", str(threads), "--out", str(out),
            ], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        args = [
            "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10,20", "--trials", "20000",
        ]
        out = tmp_path / "mc.csv"
        _, stdout, _ = run_cli(args, capsys)
        code, _, _ = run_cli(args + ["--out", str(out)], capsys)
        assert code == 0
        assert out.read_bytes() == stdout.encode()

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        args = [
            "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10", "--trials", "20000", "--seed", "1",
        ]
        _, base, _ = run_cli(args, capsys)
        monkeypatch.setenv("PAMQ_SEED", "1")
        _, env_same, _ = run_cli(args[:-2] + ["--seed", "7"], capsys)
        assert env_same == base  # env var wins over the flag

    def test_env_seed_read_only_with_seed_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("PAMQ_SEED", "abc")
        code, stdout, _ = run_cli([
            "sep", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10",
        ], capsys)
        assert code == 0 and stdout.startswith("snr_db,sep,method\n")
        code, stdout, err = run_cli([
            "simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10", "--trials", "100",
        ], capsys)
        assert code == 1 and stdout == ""
        assert err == "pamq: PAMQ_SEED must be an integer, not 'abc'\n"


class TestCompareAqnm:
    def test_columns_and_gap(self, capsys):
        code, stdout, _ = run_cli([
            "compare-aqnm", "--m", "1", "--bits", "3",
            "--constellation", "1,3", "--q", "0.5,1.0,1.5",
            "--snr-db", "0:10:40",
        ], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "snr_db,sep_exact,sep_aqnm"
        last = lines[-1].split(",")
        exact, aqnm = float(last[1]), float(last[2])
        assert (exact - aqnm) / aqnm > 0.10  # high-SNR gap


class TestNonFiniteSnr:
    @pytest.mark.parametrize("command", ["sep", "simulate", "compare-aqnm"])
    @pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf", "10,nan", "0:inf:30", "0:5:nan"])
    def test_rejected_with_flag_named(self, command, snr_db, capsys):
        code, stdout, err = run_cli([
            command, "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", f"--snr-db={snr_db}",
        ] + (["--trials", "100", "--antennas", "2"] if command == "simulate" else []), capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: --snr-db must be finite, not {snr_db!r}\n"


class TestSnrRange:
    # 4000 dB overflowed (exit 2, naming no flag), -4000 dB underflowed to a
    # zero SNR (exit 1, naming no flag), and a 4000 dB grid warned from NumPy
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sep", "optimize", "simulate", "compare-aqnm"])
    @pytest.mark.parametrize("snr_db", ["4000", "-4000", "10,4000", "4000:1:4000",
                                        "-4000:1:0", "0:1:4000"])
    def test_rejected_with_flag_named(self, command, snr_db, capsys):
        extra = {"optimize": [], "simulate": ["--q", "1.5", "--trials", "100"]}
        code, stdout, err = run_cli([
            command, "--m", "1", "--bits", "2", "--constellation", "1,3", f"--snr-db={snr_db}",
        ] + extra.get(command, ["--q", "1.5"]), capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: bad --snr-db {snr_db!r}, want each point at 0 < SNR < inf\n"

    def test_extreme_finite_snr_kept(self, capsys):
        # 300 dB and -300 dB are linear SNRs in (0, inf): parsed, not rejected
        code, stdout, _ = run_cli(["sep", "--m", "1", "--bits", "2", "--constellation", "1,3",
                                   "--q", "1.5", "--snr-db=-300,300"], capsys)
        assert code == 0 and len(stdout.splitlines()) == 3


class TestMalformedNumbers:
    # a list flag's part that is no number: the error names the flag and its text
    @pytest.mark.parametrize("flag,text,part", [
        ("--snr-db", "10,", ""), ("--snr-db", "0:x:10", "x"),
        ("--q", "1.5,", ""), ("--constellation", "1,,3", ""),
    ])
    def test_flag_named(self, flag, text, part, capsys):
        argv = dict(zip(["--constellation", "--q", "--snr-db"], ["1,3", "1.5", "10"]))
        argv[flag] = text
        code, stdout, err = run_cli(
            ["sep", "--m", "1", "--bits", "2"] + [a for kv in argv.items() for a in kv], capsys)
        assert code == 1 and stdout == ""
        assert err == (f"pamq: bad {flag} {text!r}: could not convert string to float: "
                       f"{part!r}\n")


class TestNonFiniteOmega:
    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_rejected_with_omega_named(self, omega, capsys):
        code, stdout, err = run_cli([
            "sep", "--m", "1", "--omega", omega, "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10",
        ], capsys)
        assert code == 1 and stdout == ""
        assert err == "pamq: omega must be positive and finite\n"


class TestGridSize:
    @pytest.mark.parametrize("command", ["sep", "simulate", "compare-aqnm"])
    def test_wide_grid_rejected_before_it_is_built(self, command, capsys, monkeypatch):
        # 0:1e-9:100 would be 1e11 floats
        monkeypatch.setattr(cli.np, "arange", lambda *a: pytest.fail("built the grid"))
        code, stdout, err = run_cli([
            command, "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "0:1e-9:100",
        ] + (["--trials", "100"] if command == "simulate" else []), capsys)
        assert code == 1 and stdout == ""
        assert err == (f"pamq: --snr-db '0:1e-9:100' asks for more than "
                       f"{cli._MAX_GRID_POINTS} points at 1e-09 dB steps\n")

    @pytest.mark.parametrize("command", ["sep", "simulate", "compare-aqnm"])
    def test_reversed_grid_rejected(self, command, capsys):
        # stop below start: no point, where the command used to print a bare header
        code, stdout, err = run_cli([
            command, "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "10:1:0",
        ], capsys)
        assert code == 1 and stdout == ""
        assert err == "pamq: --snr-db '10:1:0' holds no point: its stop is below its start\n"

    def test_cap_is_inclusive(self):
        # quarter-dB steps keep both ends at a finite linear SNR (a 9999 dB end overflows)
        n = cli._MAX_GRID_POINTS
        assert len(cli._parse_grid(f"0:0.25:{(n - 1) / 4}")) == n
        with pytest.raises(cli.ValidationError, match="--snr-db .* asks for more than"):
            cli._parse_grid(f"0:0.25:{n / 4}")


class TestConfigAndErrors:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "m": 1, "bits": 2, "constellation": "1,3", "q": "1.5",
            "snr_db": "0:10:20",
        }))
        code, stdout, _ = run_cli(["sep", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(stdout.splitlines()) == 4

    @pytest.mark.parametrize("key,value", [
        ("uniform", "false"), ("noiseless", "no"), ("joint", 0), ("uniform", None),
    ])
    def test_config_switch_wants_boolean(self, tmp_path, capsys, monkeypatch, key, value):
        # "false" is a truthy string: read as set, it once chose the uniform step
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: pytest.fail("designed"))
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"m": 1, "bits": 2, "constellation": "1,3", key: value}))
        code, stdout, err = run_cli(["optimize", "--config", str(cfg), "--snr-db", "20"], capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: {cfg}: {key} must be true or false, not {value!r}\n"

    def test_config_switch_applies(self, tmp_path, capsys):
        argv = ["optimize", "--m", "1", "--bits", "3", "--constellation", "1,3",
                "--snr-db", "20", "--starts", "2"]
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"uniform": True}))
        _, from_flag, _ = run_cli(argv + ["--uniform"], capsys)
        _, from_config, _ = run_cli(argv + ["--config", str(cfg)], capsys)
        assert from_config == from_flag
        q = json.loads(from_config)["boundaries"]
        assert q[1] == pytest.approx(2 * q[0], rel=1e-15)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({
            "m": 1, "bits": 2, "constellation": "1,3", "q": "1.5",
            "snr_db": "0:10:20",
        }))
        code, stdout, _ = run_cli(
            ["sep", "--config", str(cfg), "--snr-db", "10"], capsys
        )
        assert code == 0
        assert len(stdout.splitlines()) == 2

    def test_config_omega_applies(self, tmp_path, capsys):
        base = ["sep", "--m", "1", "--bits", "2", "--constellation", "1,3",
                "--q", "1.5", "--snr-db", "20"]
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"omega": 2}))
        _, from_flag, _ = run_cli(base + ["--omega", "2"], capsys)
        _, from_config, _ = run_cli(base + ["--config", str(cfg)], capsys)
        _, default, _ = run_cli(base, capsys)
        assert from_config == from_flag != default

    def test_explicit_default_flag_overrides_config(self, tmp_path, capsys):
        base = ["simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
                "--q", "1.5", "--snr-db", "10", "--trials", "20000"]
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"seed": 5}))
        _, seed0, _ = run_cli(base + ["--seed", "0"], capsys)
        _, seed5, _ = run_cli(base + ["--seed", "5"], capsys)
        _, got, _ = run_cli(base + ["--config", str(cfg), "--seed", "0"], capsys)
        assert got == seed0 != seed5

    def test_config_key_without_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1, "format": "csv"}))
        code, _, err = run_cli(["sep", "--config", str(cfg)], capsys)
        assert code == 1
        assert "format" in err

    def test_two_part_grid_rejected(self, capsys):
        code, stdout, err = run_cli([
            "sep", "--m", "1", "--bits", "2", "--constellation", "1,3",
            "--q", "1.5", "--snr-db", "20:30",
        ], capsys)
        assert code == 1
        assert stdout == ""
        assert "want start:step:stop" in err

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 1, "bogus_field": 3}))
        code, _, err = run_cli(["sep", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus_field" in err

    @pytest.mark.parametrize("content", ["3", "null", '"abc"', "[1, 2]"])
    def test_config_not_an_object_rejected(self, content, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(content)
        code, stdout, err = run_cli(["sep", "--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: {cfg}: want a JSON object of flag values at the top level\n"

    def test_malformed_json_line_reference(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "m": 1,\n}\n')
        code, _, err = run_cli(["sep", "--config", str(cfg)], capsys)
        assert code == 1
        assert ":3:" in err  # line-referenced message

    def test_missing_system_is_validation_error(self, capsys):
        code, _, err = run_cli(["sep", "--m", "1"], capsys)
        assert code == 1
        assert err

    def test_bad_flag_is_validation_error(self, capsys):
        code, _, _ = run_cli(["sep", "--no-such-flag"], capsys)
        assert code == 1

    def test_inconsistent_mod_rejected(self, capsys):
        code, _, err = run_cli([
            "sep", "--m", "1", "--bits", "2", "--mod", "8",
            "--constellation", "1,3", "--q", "1.5", "--snr-db", "10",
        ], capsys)
        assert code == 1
        assert "disagrees" in err

    @pytest.mark.parametrize("argv", [
        ["sep", "--trials", "5"],
        ["floor", "--snr-db", "20"],
        ["compare-aqnm", "--threads", "2"],
        ["simulate", "--alpha", "0.5"],
        ["optimize", "--q", "1.5"],
        ["dvo", "--omega", "2"],
    ])
    def test_flag_not_read_rejected(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command,key", [
        ("sep", "trials"), ("floor", "snr_db"), ("dvo", "omega"),
    ])
    def test_config_key_not_read_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"m": 1, key: "5"}))
        code, _, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 1
        assert key in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "0"],
        ["simulate", "--trials", "100", "--antennas", "0"],
        ["simulate", "--trials", "100", "--threads", "0"],
        ["optimize", "--noiseless", "--starts", "0"],
    ])
    def test_explicit_zero_rejected(self, argv, capsys):
        system = ["--m", "1", "--bits", "2", "--constellation", "1,3"]
        if argv[0] == "simulate":
            system += ["--q", "1.5", "--snr-db", "10"]
        code, stdout, err = run_cli(argv + system, capsys)
        assert code == 1
        assert stdout == ""
        if argv[0] == "optimize":  # the zero, not a flag --noiseless does not read
            assert "--starts" in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--joint", "--bits", "2", "--snr-db", "20"],
        ["dvo", "--joint", "--bits", "2"],
    ])
    def test_missing_shape_names_flag(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "--m" in err and "Traceback" not in err

    def test_dvo_passes_fractional_shape(self, capsys, monkeypatch):
        calls = []

        def fake(*args, **kwargs):
            calls.append(args)
            return DvoEstimate(0.75, (20.0, 30.0), 1.0, 5), Fraction(3, 4)

        monkeypatch.setattr(cli, "dvo_experiment", fake)
        code, stdout, _ = run_cli(
            ["dvo", "--joint", "--m", "1.5", "--bits", "2", "--window", "20:30"], capsys
        )
        assert code == 0
        assert calls[0][0] == 1.5
        assert json.loads(stdout)["theory"] == 0.75

    def test_dvo_rejects_antennas_before_designing(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizer, "optimize", lambda *a, **k: calls.append(a))
        code, stdout, err = run_cli(
            ["dvo", "--joint", "--m", "1", "--bits", "2", "--antennas", "0"], capsys
        )
        assert code == 1 and stdout == ""
        assert err == "pamq: --antennas must be >= 1, not 0\n"
        assert calls == []

    def test_dvo_rejects_short_window_before_designing(self, capsys, monkeypatch):
        # 20:25 in 2.5 dB steps is 3 points; the fit needs 4
        calls = []
        monkeypatch.setattr(optimizer, "optimize", lambda *a, **k: calls.append(a))
        code, stdout, err = run_cli(
            ["dvo", "--joint", "--m", "1", "--bits", "2", "--window", "20:25"], capsys
        )
        assert code == 1 and stdout == ""
        assert "need at least 4 usable points in the window" in err
        assert calls == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dvo_rejects_trials_at_one_antenna(self, source, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "dvo_experiment", lambda *a, **k: pytest.fail("ran dvo"))
        argv = ["dvo", "--joint", "--m", "1", "--bits", "2"]
        if source == "flag":
            argv += ["--trials", "1000000"]
        else:
            cfg = tmp_path / "job.json"
            cfg.write_text(json.dumps({"trials": 1000}))
            argv += ["--config", str(cfg)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1 and stdout == ""
        assert "--trials is not read with --antennas 1" in err

    def test_dvo_passes_trials_with_antennas(self, capsys, monkeypatch):
        calls = []

        def fake(*args, **kwargs):
            calls.append(kwargs)
            return DvoEstimate(1.0, (20.0, 35.0), 1.0, 4), Fraction(1)

        monkeypatch.setattr(cli, "dvo_experiment", fake)
        for extra, budget in (([], 10**6), (["--trials", "500"], 500)):
            code, _, _ = run_cli(["dvo", "--joint", "--m", "1", "--bits", "2",
                                  "--antennas", "2", "--window", "20:35"] + extra, capsys)
            assert code == 0 and calls[-1]["budget"] == budget

    @pytest.mark.parametrize("window", ["20", "a:b", "50:20", "20:inf", "-inf:30", "20:1e300"])
    def test_dvo_bad_window_names_flag(self, window, capsys, monkeypatch):
        # an end at a zero or non-finite linear SNR fails here, not in np.arange
        monkeypatch.setattr(cli, "dvo_experiment", lambda *a, **k: pytest.fail("ran dvo"))
        code, stdout, err = run_cli(
            ["dvo", "--joint", "--m", "1", "--bits", "2", f"--window={window}"], capsys
        )
        assert code == 1 and stdout == ""
        assert "--window" in err and "lo:hi" in err

    def test_dvo_finite_window_grid(self, capsys, monkeypatch):
        grids = []

        def fake(m, b, M, n_r, grid, **kwargs):
            grids.append(grid)
            return DvoEstimate(1.0, (grid[0], grid[-1]), 1.0, len(grid)), Fraction(1, 2)

        monkeypatch.setattr(cli, "dvo_experiment", fake)
        code, stdout, _ = run_cli(["dvo", "--joint", "--m", "1", "--bits", "2",
                                   "--window", "20:60"], capsys)
        assert code == 0 and json.loads(stdout)["window"] == [20.0, 60.0]
        assert grids == [[20.0 + 2.5 * k for k in range(17)]]

    @pytest.mark.parametrize("antennas,step", [("1", "2.5"), ("2", "5")])
    def test_dvo_rejects_wide_window_before_designing(self, antennas, step, capsys,
                                                       monkeypatch):
        # 20:3000 would be 1 193 joint designs at 2.5 dB steps
        monkeypatch.setattr(cli, "dvo_experiment", lambda *a, **k: pytest.fail("ran dvo"))
        code, stdout, err = run_cli(["dvo", "--joint", "--m", "1", "--bits", "2",
                                     "--antennas", antennas, "--window", "20:3000"], capsys)
        assert code == 1 and stdout == ""
        assert err == (f"pamq: --window '20:3000' asks for more than {cli._MAX_WINDOW_POINTS}"
                       f" points at {step} dB steps\n")

    @pytest.mark.parametrize("extra,flag", [
        (["--joint", "--constellation", "1,3", "--snr-db", "20"], "--constellation"),
        (["--joint", "--geometric", "0.3", "--snr-db", "20"], "--geometric"),
        (["--noiseless", "--constellation", "1,3", "--snr-db", "20"], "--snr-db"),
    ])
    def test_optimize_rejects_flag_its_mode_ignores(self, extra, flag, capsys, monkeypatch):
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: pytest.fail("ran optimize"))
        code, stdout, err = run_cli(["optimize", "--m", "1", "--bits", "2", *extra], capsys)
        assert code == 1 and stdout == ""
        assert flag in err

    @pytest.mark.parametrize("argv,message", [
        (["sep", "--constellation", "1,3", "--geometric", "0.5", "--q", "1.5",
          "--snr-db", "10"], "--constellation is not read with --geometric"),
        (["optimize", "--constellation", "1,3", "--geometric", "0.5", "--noiseless"],
         "--constellation is not read with --geometric"),
        (["sep", "--constellation", "1,3", "--q", "1.5", "--uniform-step", "0.7",
          "--snr-db", "10"], "--q is not read with --uniform-step"),
    ], ids=["sep-constellation", "optimize-constellation", "sep-quantizer"])
    def test_conflicting_flags_rejected(self, argv, message, capsys, monkeypatch):
        # each pair once ran silently on the flag that was checked first
        monkeypatch.setattr(cli, "optimize", lambda *a, **k: pytest.fail("ran optimize"))
        code, stdout, err = run_cli([argv[0], "--m", "1", "--bits", "2", *argv[1:]], capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["sep", "--constellation", "1,3", "--q", "1.5", "--snr-db", "0:0:10"],
         "grid step must be positive"),
        (["sep", "--constellation", "1,3", "--snr-db", "10"], "give --q or --uniform-step"),
        (["optimize", "--constellation", "1,3", "--snr-db", "10,20"],
         "optimize wants a single --snr-db point or --noiseless"),
        (["dvo"], "dvo requires --joint (jointly optimized designs)"),
    ], ids=["zero-step", "no-quantizer", "optimize-grid", "dvo-not-joint"])
    def test_missing_or_bad_input_rejected(self, argv, message, capsys, monkeypatch):
        for name in ("optimize", "dvo_experiment"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("computed"))
        code, stdout, err = run_cli([argv[0], "--m", "1", "--bits", "2", *argv[1:]], capsys)
        assert code == 1 and stdout == ""
        assert err == f"pamq: {message}\n"

    def test_config_value_parsed_as_flag(self, tmp_path, capsys):
        base = ["simulate", "--m", "1", "--bits", "2", "--constellation", "1,3",
                "--q", "1.5", "--snr-db", "10"]
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"trials": 1e5}))
        code, stdout, err = run_cli(base + ["--config", str(cfg)], capsys)
        assert code == 1 and stdout == ""
        assert "--trials" in err

    @pytest.mark.parametrize("value,flag_text", [(10, "10"), (12.5, "12.5")])
    def test_config_number_for_text_flag(self, value, flag_text, tmp_path, capsys):
        # a JSON number for --snr-db reads as the flag's text does
        base = ["sep", "--m", "1", "--bits", "2", "--constellation", "1,3", "--q", "1.5"]
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"snr_db": value}))
        assert run_cli(base + ["--config", str(cfg)], capsys) == run_cli(
            base + ["--snr-db", flag_text], capsys)


class TestOutputBytesTool:
    """tools/output_bytes.py --write saves the MD5 table, --check compares a fresh
    run with a saved one and exits 1 listing the rows that differ."""

    TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_bytes.py"
    FAST = ("readme.sep", "readme.floor", "readme.compare", "acc9")

    def _tool(self, monkeypatch=None, names=None):
        """The tool as a module, its invocations cut to names when given."""
        spec = importlib.util.spec_from_file_location("output_bytes", self.TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        if names is not None:
            monkeypatch.setattr(tool, "INVOCATIONS",
                                [(n, argv) for n, argv in tool.INVOCATIONS if n in names])
        return tool

    def test_committed_table_lists_every_invocation(self):
        tool = self._tool()
        rows = self.TOOL.with_suffix(".md").read_text().splitlines()
        assert rows[:2] == tool.HEADER
        assert list(tool._by_name(rows[2:])) == [n for n, _ in tool.INVOCATIONS]

    def test_fast_rows_match_committed_table(self, monkeypatch, tmp_path):
        tool = self._tool(monkeypatch, self.FAST)
        fresh = tmp_path / "table.md"
        assert tool.run(["--write", str(fresh)]) == 0
        committed = tool._by_name(self.TOOL.with_suffix(".md").read_text().splitlines()[2:])
        rows = tool._by_name(fresh.read_text().splitlines()[2:])
        assert list(rows) == list(self.FAST)
        assert all(rows[n] == committed[n] for n in self.FAST)

    def test_write_then_check(self, monkeypatch, capsys, tmp_path):
        tool = self._tool(monkeypatch, ("readme.floor",))
        table = tmp_path / "table.md"
        assert tool.run(["--write", str(table)]) == 0
        assert tool.run(["--check", str(table)]) == 0
        row = table.read_text().splitlines()[2]
        md5 = row.split("`")[3]
        table.write_text(table.read_text().replace(md5, "0" * 32))
        capsys.readouterr()
        assert tool.run(["--check", str(table)]) == 1
        assert "differs: readme.floor\n" in capsys.readouterr().err
