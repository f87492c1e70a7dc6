"""Command-line front end.

Subcommands: sep, optimize, floor, dvo, simulate, compare-aqnm. Each
accepts only the flags it reads (see _COMMANDS), plus --config FILE
(JSON keyed by that subcommand's long flags; explicit flags win) and
--out FILE. Each output's schema is set here and its bytes by pamq.table,
so outputs are reproducible byte-for-byte.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""
import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import dvo_experiment
from .montecarlo import SimSpec, simulate
from .optimizer import _SCHEDULE_SIZE, DesignProblem, optimize
from .sep import default_alpha, floor_bounds, sep_aqnm, sep_exact, sep_noiseless
from .system import ChannelModel, Constellation, Quantizer
from .table import write_json, write_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


# the most points a start:step:stop --snr-db grid (one SEP value each) and a
# --window grid (one joint design each) may hold
_MAX_GRID_POINTS = 10_000
_MAX_WINDOW_POINTS = 50


def _arange(start, stop, step, flag, text, cap):
    """np.arange(start, stop + 1e-9, step) as a list. With no point, or past
    cap points, it raises a ValidationError naming flag and its value text;
    past cap, before any array is built."""
    if (stop + 1e-9 - start) / step > cap:
        raise ValidationError(f"{flag} {text!r} asks for more than {cap} points "
                              f"at {step:g} dB steps")
    grid = list(np.arange(start, stop + 1e-9, step))
    if not grid:
        raise ValidationError(f"{flag} {text!r} holds no point: its stop is below its start")
    return grid


def _parse_grid(text):
    """SNR grid in dB: 'start:step:stop', a comma list, or one number, each finite:
    the noiseless limit is --noiseless, not an infinite SNR."""
    grid = ":" in text
    if grid and text.count(":") != 2:
        raise ValidationError(f"bad grid {text!r}, want start:step:stop")
    values = _parse_floats(text, "--snr-db", ":" if grid else ",")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"--snr-db must be finite, not {text!r}")
    if not grid:
        return values
    start, step, stop = values
    if step <= 0:
        raise ValidationError("grid step must be positive")
    return _arange(start, stop, step, "--snr-db", text, _MAX_GRID_POINTS)


def _parse_window(text):
    """Fit window 'lo:hi' in dB with lo < hi, each end at a linear SNR in (0, inf)."""
    try:
        lo, hi = (float(p) for p in text.split(":"))
        if lo < hi and 0.0 < 10.0 ** (lo / 10.0) and 10.0 ** (hi / 10.0) < math.inf:
            return lo, hi
    except (ValueError, OverflowError):
        pass
    raise ValidationError(f"bad --window {text!r}, want lo:hi in dB with lo < hi, 0 < SNR < inf")


def _parse_floats(text, flag, sep=","):
    """flag's value text split at sep as floats, or a ValidationError naming flag and text."""
    try:
        return tuple(map(float, text.split(sep)))
    except ValueError as exc:
        raise ValidationError(f"bad {flag} {text!r}: {exc}")


def _load_config(path, sub):
    """Make the config file's values the defaults of subcommand parser sub,
    so that explicit flags still win when the command line is parsed again."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: want a JSON object of flag values at the top level")
    # accepted keys: the subcommand's flag destinations (snake_case names)
    unknown = set(cfg) - set(vars(sub.parse_args([])))
    if unknown:
        raise ValidationError(f"{path}: unknown config fields {sorted(unknown)}")
    # a switch takes a JSON boolean, so that "false" is not read as set
    for k, v in cfg.items():
        if _FLAGS.get(k, {}).get("action") == "store_true" and not isinstance(v, bool):
            raise ValidationError(f"{path}: {k} must be true or false, not {v!r}")
    # a value other than a switch's is text, read by its flag's type or parser as on
    # the command line: a JSON number for --snr-db is its one point
    sub.set_defaults(**{k: v if v is None or "action" in _FLAGS.get(k, {}) else str(v)
                        for k, v in cfg.items()})


def _require(args, *dests):
    """Raise a ValidationError naming the first of the flags dests left unset."""
    for dest in dests:
        if getattr(args, dest) is None:
            raise ValidationError(f"--{dest.replace('_', '-')} is required")


def _channel(args):
    _require(args, "m")
    return ChannelModel(args.m, args.omega)


def _constellation(args):
    if args.geometric is not None:
        _reject(args, ("constellation",), "--geometric")
        M = 4 if args.mod is None else args.mod
        cons = Constellation.geometric(args.geometric, M)
    elif args.constellation is not None:
        cons = Constellation(_parse_floats(args.constellation, "--constellation"))
    else:
        raise ValidationError("give --constellation or --geometric")
    if args.mod is not None and args.mod != cons.M:
        raise ValidationError(f"--mod {args.mod} disagrees with constellation size {cons.M}")
    return cons


def _quantizer(args):
    _require(args, "bits")
    if args.uniform_step is not None:
        _reject(args, ("q",), "--uniform-step")
        return Quantizer.uniform(args.uniform_step, args.bits)
    if args.q is not None:
        return Quantizer(_parse_floats(args.q, "--q"), args.bits)
    raise ValidationError("give --q or --uniform-step")


def _cmd_sep(args):
    ch, cons, quant = _channel(args), _constellation(args), _quantizer(args)
    rows = []
    for sdb in _parse_grid(args.snr_db):
        res = sep_exact(cons, quant, ch, 10.0 ** (sdb / 10.0))
        rows.append((sdb, res.value, res.method))
    write_table(args.out, ["snr_db", "sep", "method"], rows)
    return EXIT_OK


def _reject(args, dests, mode):
    """Raise a ValidationError naming the first of the flags dests that is
    set, since mode does not read it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise ValidationError(f"--{dest.replace('_', '-')} is not read with {mode}")


def _cmd_optimize(args):
    ch = _channel(args)
    _require(args, "bits")
    if args.joint:
        _reject(args, ("constellation", "geometric"), "--joint")
        cons = None
        M = 4 if args.mod is None else args.mod
    else:
        cons = _constellation(args)
        M = cons.M
    snr = None
    if args.noiseless:
        _reject(args, ("snr_db",), "--noiseless")
    else:
        grid = [] if args.snr_db is None else _parse_grid(args.snr_db)
        if len(grid) != 1:
            raise ValidationError("optimize wants a single --snr-db point or --noiseless")
        snr = 10.0 ** (grid[0] / 10.0)
    if not 1 <= args.starts <= _SCHEDULE_SIZE:
        raise ValidationError(f"--starts must be 1 to {_SCHEDULE_SIZE}, the size of the start "
                              f"schedule, not {args.starts}")
    problem = DesignProblem(
        channel=ch, M=M, bits=args.bits, snr=snr, constellation=cons,
        uniform=args.uniform, n_starts=args.starts, seed=args.seed,
    )
    result = optimize(problem)
    write_json(args.out, {
        "boundaries": list(result.quantizer.positive_boundaries),
        "bits": result.quantizer.bits,
        "amplitudes": list(result.constellation.amplitudes),
        "sep": result.sep,
        "starts_used": result.starts_used,
        "converged": result.converged,
        "evals": result.evals,
        "failed_evals": result.failed_evals,
    })
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _cmd_floor(args):
    ch, cons, quant = _channel(args), _constellation(args), _quantizer(args)
    res = sep_noiseless(cons, quant, ch)
    f_l, f_u = floor_bounds(cons, quant, ch)
    write_json(args.out, {
        "sep_noiseless": res.value,
        "floor_lower": f_l.value,
        "floor_upper": f_u.value,
    })
    return EXIT_OK


def _cmd_dvo(args):
    if not args.joint:
        raise ValidationError("dvo requires --joint (jointly optimized designs)")
    _require(args, "m", "bits")
    if args.antennas == 1:
        _reject(args, ("trials",), "--antennas 1")
    lo, hi = _parse_window(args.window)
    step = 2.5 if args.antennas == 1 else 5.0
    grid = _arange(lo, hi, step, "--window", args.window, _MAX_WINDOW_POINTS)
    est, theory = dvo_experiment(
        args.m, args.bits, args.mod, args.antennas, grid, uniform=args.uniform,
        budget=10**6 if args.trials is None else args.trials, seed=args.seed,
    )
    write_json(args.out, {
        "slope": est.slope,
        "theory": float(theory),
        "r2": est.r2,
        "window": [lo, hi],
        "points_used": est.points_used,
    })
    return EXIT_OK


def _cmd_simulate(args):
    ch, cons, quant = _channel(args), _constellation(args), _quantizer(args)
    spec = SimSpec(
        constellation=cons, quantizer=quant, channel=ch,
        snr_db=tuple(_parse_grid(args.snr_db)), trials=args.trials,
        n_r=args.antennas, seed=args.seed,
    )
    write_table(args.out, ["snr_db", "trials", "errors", "sep_hat", "stderr", "method"],
                [(e.snr_db, str(e.trials), str(e.errors), e.sep_hat, e.stderr, "monte_carlo")
                 for e in simulate(spec, workers=args.threads)])
    return EXIT_OK


def _cmd_compare_aqnm(args):
    ch, cons, quant = _channel(args), _constellation(args), _quantizer(args)
    alpha = args.alpha if args.alpha is not None else default_alpha(args.bits)
    rows = []
    for sdb in _parse_grid(args.snr_db):
        snr = 10.0 ** (sdb / 10.0)
        rows.append((sdb, sep_exact(cons, quant, ch, snr).value, sep_aqnm(cons, snr, alpha).value))
    write_table(args.out, ["snr_db", "sep_exact", "sep_aqnm"], rows)
    return EXIT_OK


# every flag some subcommand reads: destination -> add_argument keywords
_FLAGS = {
    "m": dict(type=float, help="Nakagami fading shape; non-integer uses quadrature"),
    "omega": dict(type=float, default=1.0, help="fading mean power"),
    "bits": dict(type=int),
    "mod": dict(type=int, help="constellation size M"),
    "constellation": dict(help="comma list of positive amplitudes, e.g. 1,3"),
    "geometric": dict(type=float, help="geometric-constellation ratio rho in (0,1)"),
    "q": dict(help="comma list of positive boundaries"),
    "uniform_step": dict(type=float),
    "snr_db": dict(help="start:step:stop (dB), comma list, or one value"),
    "trials": dict(type=int),
    "antennas": dict(type=int, default=1),
    "alpha": dict(type=float),
    "threads": dict(type=int, default=1),
    "seed": dict(type=int, default=0),
    "starts": dict(type=int, default=16),
    "noiseless": dict(action="store_true"),
    "joint": dict(action="store_true"),
    "uniform": dict(action="store_true"),
    "window": dict(default="20:50", help="fit window lo:hi in dB"),
}
_SYSTEM = ("m", "omega", "bits", "mod", "constellation", "geometric", "q", "uniform_step")

# subcommand -> (handler, the flags it reads, its own defaults)
_COMMANDS = {
    "sep": (_cmd_sep, _SYSTEM + ("snr_db",), {"snr_db": "0:2:40"}),
    "optimize": (_cmd_optimize, ("m", "omega", "bits", "mod", "constellation", "geometric",
                                 "snr_db", "noiseless", "joint", "uniform", "starts", "seed"), {}),
    "floor": (_cmd_floor, _SYSTEM, {}),
    "dvo": (_cmd_dvo, ("m", "bits", "mod", "joint", "uniform", "window", "antennas",
                       "trials", "seed"), {"mod": 4}),
    "simulate": (_cmd_simulate, _SYSTEM + ("snr_db", "trials", "antennas", "threads", "seed"),
                 {"snr_db": "0:5:30", "trials": 10**5}),
    "compare-aqnm": (_cmd_compare_aqnm, _SYSTEM + ("snr_db", "alpha"), {"snr_db": "0:2:40"}),
}


def build_parser():
    """The pamq parser, and its subcommand parsers by name."""
    parser = _Parser(prog="pamq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="JSON config supplying defaults for any flag of "
                                          "this subcommand")
        for dest in flags:
            sub.add_argument("--" + dest.replace("_", "-"), dest=dest, **_FLAGS[dest])
        sub.add_argument("--out")
        sub.set_defaults(**defaults)
    return parser, subs.choices


def run(argv):
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _load_config(args.config, subs[args.command])
        args = parser.parse_args(argv)
    env_seed = os.environ.get("PAMQ_SEED")
    if env_seed is not None and "seed" in vars(args):
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"PAMQ_SEED must be an integer, not {env_seed!r}")
    if "seed" in vars(args) and args.seed < 0:
        source = "--seed" if env_seed is None else "PAMQ_SEED"
        raise ValidationError(f"{source} must be >= 0, not {args.seed}")
    for dest in ("antennas", "threads", "trials"):
        if (value := vars(args).get(dest)) is not None and value < 1:
            raise ValidationError(f"--{dest} must be >= 1, not {value}")
    return _COMMANDS[args.command][0](args)


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else list(argv))
    except (ValueError, IndexError, KeyError, OSError) as exc:
        print(f"pamq: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"pamq: numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
