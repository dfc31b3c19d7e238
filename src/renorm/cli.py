"""Command-line surface: every constant, table, and figure-class of the
renormalization analysis as JSON/CSV artifacts.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 numerical
failure (no root, weak expansion, empty domain, ...): a
renorm.scaling.NumericalFailure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import numpy as np

from . import report as rpt
from .scaling import (
    NumericalFailure,
    Period,
    conditions,
    feasible_domain,
    gaps,
    return_map,
    scaling_from_critical,
)
from .solver import continuum_sweep, solve_fixed_point

# The core, scaling and solver, is imported above; every other stage module
# is imported inside the commands that call it, so that a command compiles
# and runs only the modules it uses.

MAX_GRID = 100_000  # plotdata rows; at the ceiling, rows and CSV text take tens of MB

def _period(args) -> Period:
    return Period(args.period)


def _depth(args, default: int) -> int:
    return default if args.depth is None else args.depth


# every flag: (type=, choices, help, default); the type and choices apply
# alike to config-file values, and a None default is no default to echo
FLAGS = {
    "period": (int, (3, 5), None, 3),
    "tol": (float, None, None, 1e-13),
    "depth": (int, None, None, None),
    "grid": (int, None, None, 2000),
    "step": (float, None, None, 1e-4),
    "resolution": (int, None, None, 256),
    "eps": (str, None, "comma-separated eps list", None),
    "seed": (int, None, None, 0),
    "out": (str, None, None, None),
    "format": (str, ("json", "csv"), None, "json"),
}
# the flags each command reads; any other flag or config key is a usage error
COMMAND_FLAGS = {
    "solve": ("period", "tol", "step", "out"),
    "feasible": ("period", "step", "format", "out"),
    "tower": ("period", "tol", "depth", "out"),
    "extend": ("period", "tol", "depth", "resolution", "out"),
    "horseshoe": ("depth", "eps", "out"),
    "verify": ("period", "seed", "out"),
}
# plotdata reads its flags kind by kind
PLOTDATA_FLAGS = {
    "scaling": ("period", "grid", "out"),
    "returnmap": ("period", "grid", "step", "out"),
    "cobweb": ("period", "tol", "out"),
    "tower": ("period", "tol", "depth", "out"),
    "extension": ("period", "tol", "depth", "resolution", "out"),
}


def _command_flags(args) -> tuple:
    """The invoked command's name (with plotdata's kind) and the flags it reads."""
    if args.command == "plotdata":
        return f"plotdata {args.kind}", PLOTDATA_FLAGS[args.kind]
    return args.command, COMMAND_FLAGS[args.command]


def _add_flags(p, flags):
    for key in flags:
        conv, choices, help_, _ = FLAGS[key]
        p.add_argument(f"--{key}", type=conv, choices=choices, default=None, help=help_)
    p.add_argument("--config", type=str, default=None, help="JSON file of defaults; flags win")


def _add_command(sub, name):
    p = sub.add_parser(name)
    if name == "plotdata":
        kinds = p.add_subparsers(dest="kind", required=True)
        for kind, flags in PLOTDATA_FLAGS.items():
            _add_flags(kinds.add_parser(kind), flags)
        return
    if name == "verify":
        p.add_argument("suite", choices=("all", "tower", "pwa", "extension", "horseshoe"))
    _add_flags(p, COMMAND_FLAGS[name])
    if name == "verify":
        p.add_argument("--full", action="store_true", help="acceptance-scale depths")


def build_parser(command=None):
    """The parser of every command, or, where command names one, a parser
    holding that command's parser alone, which parses an argv starting with
    it and prints every message alike: its usage line lists every command
    all the same.  A command's process so builds 2 parsers (plotdata 7),
    not all 13."""
    ap = argparse.ArgumentParser(prog="renorm", description=__doc__)
    if command in COMMANDS:
        names, metavar = (command,), "{%s}" % ",".join(COMMANDS)
    else:  # no metavar: a missing or unknown command's error names it "command"
        names, metavar = tuple(COMMANDS), None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _add_command(sub, name)
    return ap


def _config_value(key, value):
    """A config-file value put through its flag's type= and choices.

    The conversion must be exact: "1e-10" for tol, 2.5 for grid, "5" for
    depth and any bool are refused with ValueError (exit 2), not coerced.
    """
    conv, choices, _, _ = FLAGS[key]
    try:
        out = conv(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if isinstance(value, bool) or out is None or out != value:
        raise ValueError(f"config {key}={value!r} is not a valid {conv.__name__}")
    if choices is not None and out not in choices:
        raise ValueError(f"config {key}={value!r} is not one of {choices}")
    return out


def _merge_config(args):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        name, flags = _command_flags(args)
        unknown = sorted(set(cfg) - set(flags))
        if unknown:
            raise ValueError(f"config keys {unknown} are not flags of {name}")
    for key, value in vars(args).items():
        if value is None and cfg.get(key) is not None:
            setattr(args, key, _config_value(key, cfg[key]))
    # every default is echoed into the report, read or not, so the default
    # reports keep their bytes
    for key, (_, _, _, default) in FLAGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    if args.depth is not None and args.depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {args.depth!r}")
    return args


def _config_echo(args) -> dict:
    skip = {"command", "config"}
    return {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def _emit(args, text: str) -> None:
    if args.out:
        rpt.atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    period = _period(args)
    domain = feasible_domain(period, scan_step=args.step)
    rep = solve_fixed_point(period, domain, tol=args.tol)
    factor = scaling_from_critical(period, rep.c_star)
    results = {
        "period": period.p,
        "c_star": rep.c_star,
        "residual": rep.residual,
        "derivative": rep.derivative_estimate,
        "expanding": rep.expanding,
        "bracketing_interval": list(rep.bracketing_interval),
        "scaling_factor": list(factor.s),
        "scaling_sum": sum(factor.s),
        "gaps": list(gaps(period, rep.c_star)),
        "feasible_intervals": [list(iv) for iv in domain.intervals],
    }
    _emit(args, rpt.write_report(args.command, _config_echo(args), results))
    return 0


def cmd_feasible(args) -> int:
    period = _period(args)
    domain = feasible_domain(period, scan_step=args.step)
    bind = {round(c, 9): name for c, name in domain.boundaries + domain.punctures}
    if args.format == "csv":
        rows = []
        for lo, hi in domain.intervals:
            rows.append(
                (lo, hi, "lo:%s;hi:%s" % (bind.get(round(lo, 9), "-"), bind.get(round(hi, 9), "-")))
            )
        _emit(args, rpt.to_csv(("lo", "hi", "binding_condition"), rows))
    else:
        results = {
            "period": period.p,
            "intervals": [list(iv) for iv in domain.intervals],
            "boundaries": [{"c": c, "condition": n} for c, n in domain.boundaries],
            "punctures": [{"c": c, "condition": n} for c, n in domain.punctures],
        }
        _emit(args, rpt.write_report(args.command, _config_echo(args), results))
    return 0


def _solved_sequence(period, tol):
    from .tower import ScalingSequence

    rep = solve_fixed_point(period, tol=tol)
    return rep, ScalingSequence.stationary(period, rep.c_star)


def _extension(args, period):
    """The solved fixed point, the depth and the fixed point's extension;
    extend reads generation 1 only, so a depth-2 map is enough."""
    from . import extension as ext
    from .pwa import build_pwa

    rep, seq = _solved_sequence(period, args.tol)
    depth = _depth(args, ext.DEFAULT_DEPTH[period])
    return rep, depth, ext.extend(build_pwa(seq, 2), depth, args.resolution)


def cmd_plotdata(args) -> int:
    period = _period(args)
    kind = args.kind
    # both refused before any grid is allocated
    if args.grid < 1:
        raise ValueError(f"--grid {args.grid} must be at least 1")
    if args.grid > MAX_GRID:
        raise ValueError(f"--grid {args.grid} is above the ceiling {MAX_GRID}")
    if kind == "scaling":
        cs = np.linspace(1e-3, 0.499, args.grid)
        cond = conditions(period, cs)
        k = period.p
        header = ["c"] + [f"S{i}" for i in range(1, k + 1)] + ["sum"]
        rows = [
            tuple([c] + [float(cond[i][j]) for i in range(k)] + [float(cond[:k, j].sum())])
            for j, c in enumerate(cs)
        ]
    elif kind == "returnmap":
        domain = feasible_domain(period, scan_step=args.step)
        header = ["interval", "c", "R"]
        rows = []
        for k, (lo, hi) in enumerate(domain.intervals):
            cs = np.linspace(lo + 1e-9, hi - 1e-9, args.grid // len(domain.intervals))
            rs = return_map(period, cs)
            kept = ~np.isnan(rs)  # NaN where the s2 guard trips: no row
            rows.extend((k, c, r) for c, r in zip(cs[kept].tolist(), rs[kept].tolist()))
    elif kind == "cobweb":
        rep = solve_fixed_point(period, tol=args.tol)
        o = period.orbit(rep.c_star)
        header = ["x", "y"]
        rows = [(0.0, 0.0)]
        for x, y in zip(o, o[1 : period.p + 2]):  # the steps to u^{p+1}(0)
            rows.append((x, y))
            rows.append((y, y))
    elif kind == "tower":
        from .tower import DEFAULT_DEPTH, build_tower

        rep, seq = _solved_sequence(period, args.tol)
        t = build_tower(seq, _depth(args, DEFAULT_DEPTH))
        header = ["n", "family", "lo", "hi"]
        rows = [
            (n, i, *t.generations[n - 1][i])
            for n in range(1, t.depth + 1)
            for i in t.families
        ]
    else:  # extension
        _, _, curve = _extension(args, period)
        header = ["x", "value", "derivative", "level"]
        rows = [
            (float(x), float(y), float(d), int(m))
            for p in curve.pieces
            for x, y, d, m in zip(p.xs, p.ys, p.ds, [p.level] * len(p.xs))
        ]
    if not rows:
        raise ValueError(f"--grid {args.grid} leaves no data row")
    _emit(args, rpt.to_csv(header, rows))
    return 0


def cmd_tower(args) -> int:
    from .tower import DEFAULT_DEPTH, build_tower, cantor_dimension, hor_bound, ratio_report, verify_proper

    period = _period(args)
    rep, seq = _solved_sequence(period, args.tol)
    depth = _depth(args, DEFAULT_DEPTH)
    t = build_tower(seq, depth)
    margin, decay = verify_proper(t)
    rr = ratio_report(t)
    hb = hor_bound(t)
    results = {
        "period": period.p,
        "c_star": rep.c_star,
        "depth": depth,
        "generations": [
            {str(i): list(t.generations[n - 1][i]) for i in t.families}
            for n in range(1, depth + 1)
        ],
        "labels_y": t.labels["y"],
        "labels_z": t.labels["z"],
        "central_sizes": [t.size(n, t.central) for n in range(1, depth + 1)],
        "proper_margin": margin,
        "geometric_decay": decay,
        "ratio_deviation": rr.max_deviation,
        "hor_rho": hb.rho,
        "hor_satisfied": hb.satisfied,
        "cantor_dimension": cantor_dimension(t.factors[0]),
    }
    _emit(args, rpt.write_report(args.command, _config_echo(args), results))
    return 0


def cmd_extend(args) -> int:
    from . import extension as ext

    period = _period(args)
    rep, depth, curve = _extension(args, period)
    tip = ext.quadratic_tip(curve)
    results = {
        "period": period.p,
        "depth": depth,
        "resolution": args.resolution,
        "lipschitz_profile": ext.lipschitz_profile(curve),
        "max_slope_profile": ext.max_slope_profile(curve),
        "junction_mismatch": curve.junction_mismatch(),
        "quadratic_tip": tip,
        "quadratic_tip_algebraic": 1.0 / (1.0 - rep.c_star) ** 2,
        "window": list(curve.window),
        "unimodal": ext.unimodal_check(curve),
    }
    _emit(args, rpt.write_report(args.command, _config_echo(args), results))
    return 0


def cmd_horseshoe(args) -> int:
    from . import horseshoe as hs

    eps = tuple(float(x) for x in ("1.02,1.0,0.98" if args.eps is None else args.eps).split(","))
    b = hs.build_branch_system(*eps)
    counts = hs.cylinder_counts(b, _depth(args, 6))
    sweep = continuum_sweep(min(eps), max(eps))
    word = hs.dense_orbit_word(2, alphabet=len(eps))
    coding = hs.code_to_point(b, word, min(len(word), 12))
    results = {
        "epsilons": list(eps),
        "fixed_points": list(b.fixed_points),
        "derivatives": [r.derivative_estimate for r in b.reports],
        "branch_domains": [list(d) for d in b.domains],
        "cylinder_counts": counts,
        "entropy_estimates": [float(np.log(c) / n) for n, c in enumerate(counts, start=1)],
        "ln_alphabet": float(np.log(len(eps))),
        "eps_sweep": [list(r) for r in sweep],
        "dense_word_prefix": list(word.symbols[:12]),
        "dense_word_coding": coding.c_alpha,
        "coding_residual": coding.residual,
    }
    _emit(args, rpt.write_report(args.command, _config_echo(args), results))
    return 0


def cmd_verify(args) -> int:
    from . import verify as ver

    rows = ver.run_suite(args.suite, _period(args), seed=args.seed, quick=not args.full)
    failed = [r for r in rows if not r["ok"]]
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"{status} {r['name']}: value={r['value']:.6g} bound={r['bound']:.6g}")
    if args.out:
        results = {"checks": rows, "passed": not failed}
        rpt.atomic_write(args.out, rpt.write_report(args.command, _config_echo(args), results))
    if failed:
        print(
            f"{len(failed)} invariant(s) failed, first: {failed[0]['name']}",
            file=sys.stderr,
        )
        return 1
    return 0


COMMANDS = {  # in the order the usage line lists them
    "solve": cmd_solve,
    "feasible": cmd_feasible,
    "tower": cmd_tower,
    "extend": cmd_extend,
    "horseshoe": cmd_horseshoe,
    "plotdata": cmd_plotdata,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _merge_config(args)
        return COMMANDS[args.command](args)
    except NumericalFailure as exc:  # ahead of ValueError: InvalidFactor is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: `python -m renorm.cli` and the `renorm` script.

    Runs main, then freezes every object the process holds (about 22k after
    a solve, most of them made by importing numpy and renorm), so that the
    interpreter's full collections at exit skip them.  Exit still goes through sys.exit: the
    streams are flushed, atexit handlers run and main's exit code is the
    process's.  main itself leaves the collector alone, for callers that run
    it in their own process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
