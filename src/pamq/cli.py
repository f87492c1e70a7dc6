"""Command-line front end.

Subcommands: sep, optimize, floor, dvo, simulate, compare-aqnm. Every
subcommand accepts --config FILE (JSON, same keys as the long flags;
explicit flags win). Numbers are always written with '.' decimals at
%.12e so outputs are reproducible byte-for-byte.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""
import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import dvo_experiment
from .montecarlo import SimSpec, simulate, write_csv
from .optimizer import DesignProblem, optimize, result_to_json
from .sep import default_alpha, floor_bounds, sep_aqnm, sep_exact, sep_noiseless
from .system import ChannelModel, Constellation, GeometricConstellation, Quantizer, UniformQuantizer
from .table import write_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _parse_grid(text):
    """SNR grid in dB: 'start:step:stop', a comma list, or one number."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad grid {text!r}, want start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValidationError("grid step must be positive")
        return list(np.arange(start, stop + 1e-9, step))
    return [float(p) for p in text.split(",")]


def _parse_floats(text):
    return tuple(float(p) for p in str(text).split(","))


def _load_config(path, sub):
    """Make the config file's values the defaults of subcommand parser sub,
    so that explicit flags still win when the command line is parsed again."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}")
    # accepted keys: the subcommand's flag destinations (snake_case names)
    unknown = set(cfg) - set(vars(sub.parse_args([])))
    if unknown:
        raise ValidationError(f"{path}: unknown config fields {sorted(unknown)}")
    sub.set_defaults(**cfg)


def _build_system(args, need_quantizer=True):
    if args.m is None:
        raise ValidationError("--m is required")
    ch = ChannelModel(float(args.m), float(args.omega))
    if args.geometric is not None:
        M = int(args.mod or 4)
        cons = GeometricConstellation(float(args.geometric), M).materialize()
    elif args.constellation is not None:
        cons = Constellation(_parse_floats(args.constellation))
    else:
        raise ValidationError("give --constellation or --geometric")
    if args.mod is not None and int(args.mod) != cons.M:
        raise ValidationError(f"--mod {args.mod} disagrees with constellation size {cons.M}")
    quant = None
    if need_quantizer:
        bits = int(args.bits or 0)
        if args.uniform_step is not None:
            quant = UniformQuantizer(float(args.uniform_step), bits).materialize()
        elif args.q is not None:
            quant = Quantizer(_parse_floats(args.q), bits)
        else:
            raise ValidationError("give --q or --uniform-step")
    return cons, quant, ch


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sep(args):
    cons, quant, ch = _build_system(args)
    grid = _parse_grid(args.snr_db or "0:2:40")
    rows = []
    for sdb in grid:
        res = sep_exact(cons, quant, ch, 10.0 ** (sdb / 10.0))
        rows.append((sdb, res.value, res.method))
    write_table(args.out, ["snr_db", "sep", "method"], rows)
    return EXIT_OK


def _cmd_optimize(args):
    if args.joint:
        kind = "joint_uniform" if args.uniform else "joint_nonuniform"
        cons = None
    else:
        kind = "uniform_step_only" if args.uniform else "quantizer_only"
        cons, _, _ = _build_system(args, need_quantizer=False)
    ch = ChannelModel(float(args.m), float(args.omega))
    snr = None
    if not args.noiseless:
        grid = _parse_grid(args.snr_db or "")
        if len(grid) != 1:
            raise ValidationError("optimize wants a single --snr-db point or --noiseless")
        snr = 10.0 ** (grid[0] / 10.0)
    problem = DesignProblem(
        channel=ch, M=int(args.mod or (cons.M if cons else 4)), bits=int(args.bits),
        variables=kind, snr=snr, constellation=cons,
        n_starts=int(args.starts or 16), seed=args.seed,
    )
    result = optimize(problem)
    _write_json(args.out, json.loads(result_to_json(result)))
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _cmd_floor(args):
    cons, quant, ch = _build_system(args)
    res = sep_noiseless(cons, quant, ch)
    f_l, f_u = floor_bounds(cons, quant, ch)
    _write_json(args.out, {
        "sep_noiseless": res.value,
        "floor_lower": f_l.value,
        "floor_upper": f_u.value,
    })
    return EXIT_OK


def _cmd_dvo(args):
    if not args.joint:
        raise ValidationError("dvo requires --joint (jointly optimized designs)")
    kind = "uniform" if args.uniform else "nonuniform"
    window = args.window or "20:50"
    lo, hi = (float(p) for p in window.split(":"))
    n_r = int(args.antennas or 1)
    step = 2.5 if n_r == 1 else 5.0
    grid = list(np.arange(lo, hi + 1e-9, step))
    est, theory = dvo_experiment(
        int(args.m), int(args.bits), int(args.mod or 4), kind, n_r, grid,
        budget=int(args.trials or 10**6), seed=args.seed,
    )
    _write_json(args.out, {
        "slope": est.slope,
        "theory": float(theory),
        "r2": est.r2,
        "window": [lo, hi],
        "points_used": est.points_used,
    })
    return EXIT_OK


def _cmd_simulate(args):
    cons, quant, ch = _build_system(args)
    spec = SimSpec(
        constellation=cons, quantizer=quant, channel=ch,
        snr_db=tuple(_parse_grid(args.snr_db or "0:5:30")),
        trials=int(args.trials or 10**5),
        n_r=int(args.antennas or 1), seed=args.seed,
    )
    write_csv(simulate(spec, workers=int(args.threads or 1)), args.out)
    return EXIT_OK


def _cmd_compare_aqnm(args):
    cons, quant, ch = _build_system(args)
    alpha = float(args.alpha) if args.alpha is not None else default_alpha(int(args.bits))
    grid = _parse_grid(args.snr_db or "0:2:40")
    rows = []
    for sdb in grid:
        snr = 10.0 ** (sdb / 10.0)
        rows.append((sdb, sep_exact(cons, quant, ch, snr).value, sep_aqnm(cons, snr, alpha).value))
    write_table(args.out, ["snr_db", "sep_exact", "sep_aqnm"], rows)
    return EXIT_OK


_COMMANDS = {
    "sep": _cmd_sep,
    "optimize": _cmd_optimize,
    "floor": _cmd_floor,
    "dvo": _cmd_dvo,
    "simulate": _cmd_simulate,
    "compare-aqnm": _cmd_compare_aqnm,
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config supplying defaults for any flag")
    sub.add_argument("--m", type=float, default=None)
    sub.add_argument("--omega", type=float, default=1.0)
    sub.add_argument("--bits", type=int, default=None)
    sub.add_argument("--mod", type=int, default=None)
    sub.add_argument("--constellation", default=None,
                     help="comma list of positive amplitudes, e.g. 1,3")
    sub.add_argument("--geometric", type=float, default=None,
                     help="geometric-constellation ratio rho in (0,1)")
    sub.add_argument("--q", default=None, help="comma list of positive boundaries")
    sub.add_argument("--uniform-step", dest="uniform_step", type=float, default=None)
    sub.add_argument("--snr-db", dest="snr_db", default=None,
                     help="start:step:stop (dB), comma list, or one value")
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--antennas", type=int, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--starts", type=int, default=None)
    sub.add_argument("--noiseless", action="store_true")
    sub.add_argument("--joint", action="store_true")
    sub.add_argument("--uniform", action="store_true")
    sub.add_argument("--window", default=None, help="fit window lo:hi in dB")
    sub.add_argument("--out", default=None)


def build_parser():
    """The pamq parser, and its subcommand parsers by name."""
    parser = _Parser(prog="pamq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(subs.add_parser(name))
    return parser, subs.choices


def run(argv):
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _load_config(args.config, subs[args.command])
        args = parser.parse_args(argv)
    env_seed = os.environ.get("PAMQ_SEED")
    if env_seed is not None:
        args.seed = int(env_seed)
    return _COMMANDS[args.command](args)


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else list(argv))
    except ValidationError as exc:
        print(f"pamq: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except (ValueError, IndexError, KeyError, OSError) as exc:
        print(f"pamq: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"pamq: numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
