"""Command-line interface.

Subcommands: `wave` shoots and verifies a single traveling wave, `pde` runs
the reaction-diffusion front at production rate r and reports its speed,
final front and the plateau behind it, as `pde.measure_speed` measures them,
`evans` sweeps the spectral contour and reports the winding number,
`formulas` evaluates the closed-form predictions, and `verify` runs the
acceptance battery at the tolerances its criteria state (`--json`: one
object per criterion, with its solvers' diagnostics).

Machine-readable reports go to stdout as JSON; bulk data goes to CSV files
(17 significant digits, LF line endings, header row) so values round-trip
exactly.  Each flag's default is declared once: on the flag, or for `pde`'s
reference run (the bump, grid, end time and front level) in `pde`, and for
`evans`'s contour in `spectral`.  A flat
`key = value` file passed with --config replaces those defaults for the
chosen subcommand (keys are the flag names, but for `verify --json`, a
per-run choice); explicit flags win.  Exit statuses are stable API: 0
success, 1 verification failure, and for errors the single table
`_EXIT_TABLE`, which `main` applies to whatever a subcommand raises: 2
invalid regime, 3 blow-up, 4 resolution failure, 64 usage error (an
unwritable CSV path included).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from typing import Callable

import numpy as np

from . import acceptance, analysis, pde, spectral
from . import wave as wave_mod
from .errors import (
    BlowUpError,
    BudgetError,
    ContaminatedMeasurementError,
    ContourResolutionError,
    DomainError,
    InvalidSegmentError,
    NegativityError,
    NonConvergenceError,
    PositivityError,
    SplittingError,
)
from .model import GeneralParams, Params, general_wave_predictions

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_REGIME = 2
EXIT_BLOWUP = 3
EXIT_RESOLUTION = 4
EXIT_USAGE = 64


class _UsageProblem(Exception):
    pass


# Error class -> (exit status, stderr label), first match wins.  Handlers
# let these propagate; where a class means another failure at one stage,
# the handler re-raises it as the class that names that failure.
_EXIT_TABLE = (
    ((_UsageProblem,), EXIT_USAGE, None),
    ((BlowUpError,), EXIT_BLOWUP, "blow-up"),
    ((NegativityError, DomainError, SplittingError), EXIT_REGIME, "invalid regime"),
    ((BudgetError, NonConvergenceError, ContaminatedMeasurementError, ContourResolutionError,
      InvalidSegmentError, PositivityError), EXIT_RESOLUTION, "resolution failure"),
)


class _Parser(argparse.ArgumentParser):
    per_run = ("help", "config")  # destinations a --config file cannot set

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check_out(path: str) -> None:
    """Raise `_write_csv`'s usage error up front if the directory of path is missing or read-only."""
    folder = os.path.dirname(path) or "."
    if not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
        raise _UsageProblem(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    # '%.17g' % x renders a Python float as format(x, '.17g') does, nan and inf included
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row % values for values in zip(*(col.tolist() for col in columns)))
    except OSError as exc:
        raise _UsageProblem(f"cannot write {path}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    flag = text.strip().lower()
    if flag in ("1", "true", "yes", "on"):
        return True
    if flag in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _fields(
    form: str, sep: str, *converters, build: Callable = lambda *values: values
) -> Callable[[str], object]:
    """Argparse type for `form`: sep-joined fields, one converter each.

    The converted fields are passed to `build`; a ValueError from either
    step, DomainError included, is a usage error at parse time.
    """

    def parse(text: str) -> object:
        parts = text.split(sep)
        if len(parts) != len(converters):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        try:
            return build(*(convert(part) for convert, part in zip(converters, parts)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _bump_width(text: str) -> float:
    try:
        width = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not 0.0 < width < math.inf:
        raise argparse.ArgumentTypeError(
            f"need 0 < width < inf, got {text!r}: the bump of amplitude A and "
            "width w, A exp(-(x/w)^2), would be non-finite or all zero"
        )
    return width


def _parse_general(text: str) -> GeneralParams:
    values = {}
    for item in text.split(","):
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"expected rS=..,rA=..,rI=..,D=.., got {text!r}"
            )
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in values:
            raise argparse.ArgumentTypeError(f"repeated general parameter: {key}")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    missing = {"rS", "rA", "rI", "D"} - set(values)
    if missing:
        raise argparse.ArgumentTypeError(
            f"missing general parameters: {', '.join(sorted(missing))}"
        )
    extra = set(values) - {"rS", "rA", "rI", "D"}
    if extra:
        raise argparse.ArgumentTypeError(
            f"unknown general parameters: {', '.join(sorted(extra))}"
        )
    return GeneralParams(r_S=values["rS"], r_A=values["rA"], r_I=values["rI"], D=values["D"])


def _load_config(path: str) -> dict[str, str]:
    entries = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                key, sep, value = text.partition("=")
                if not sep:
                    raise _UsageProblem(
                        f"{path}:{lineno}: expected key = value, got {text!r}"
                    )
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageProblem(f"cannot read config {path}: {exc}") from exc
    return entries


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the entries of config file `path` the parser's defaults.

    Each entry goes through its flag's `type=`, or is read as a boolean for
    a no-value flag, so a bad value is reported with the file and key.
    """
    entries = _load_config(path)
    actions = {
        action.dest: action
        for action in parser._actions
        if action.dest not in parser.per_run
    }
    unknown = set(entries) - set(actions)
    if unknown:
        raise _UsageProblem(
            f"unknown config keys: {', '.join(sorted(unknown))} "
            f"(valid: {', '.join(sorted(actions))})"
        )
    defaults = {}
    for key, value in entries.items():
        action = actions[key]
        convert = _parse_bool if action.nargs == 0 else action.type or str
        try:
            defaults[key] = convert(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageProblem(f"{path}: config key {key}: {exc}") from exc
    parser.set_defaults(**defaults)


def _report(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------- wave


def cmd_wave(args: argparse.Namespace) -> int:
    _check_out(args.out)
    profile = wave_mod.shoot_wave(args.i_minus, Params(c=args.c, r=args.r))
    traj = profile.trajectory
    _write_csv(
        args.out,
        ["z", "a", "b", "i"],
        [traj.zs, traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]],
    )
    report = wave_mod.verify_profile(profile)
    _report(
        {
            "limits": {
                "i_minus_inf": profile.i_minus_inf,
                "i_plus_inf": profile.i_plus_inf,
                "sum_residual": report.limit_sum_residual,
            },
            "residuals": {
                "mass1": report.mass.res1,
                "mass2": report.mass.res2,
                "mass3": report.mass.res3,
                "total_mass": report.mass.total_mass,
            },
            "rates": {
                "mu_minus": profile.mu_minus,
                "mu_minus_rel_err": report.mu_minus_rel_err,
                "mu_plus": profile.mu_plus,
                "mu_plus_rel_err": report.mu_plus_rel_err,
                "tail_prefactor_exp": profile.tail_prefactor_exp,
            },
            "profile": {
                "a_max": profile.a_max,
                "i_at_max": profile.i_at_max,
                "z_first_max": profile.z_first_max,
                "samples": len(traj),
                "csv": args.out,
            },
            "checks": {
                "i_monotone": report.i_monotone,
                "single_max": report.single_max,
            },
            "passed": report.passed,
            "diagnostics": traj.diagnostics,
        }
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ----------------------------------------------------------------- pde


def _read_initial(path: str) -> tuple[pde.Grid, np.ndarray, np.ndarray]:
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise _UsageProblem(f"cannot read initial data {path}: {exc}") from exc
    names = data.dtype.names
    if names is None or [n.lower() for n in names[:3]] != ["x", "a", "i"]:
        raise _UsageProblem(
            f"initial data {path} must be a CSV with header x,A,I"
        )
    xs, A, I = (np.asarray(data[name], dtype=float) for name in names[:3])
    if xs.size < 16:
        raise _UsageProblem("initial data needs at least 16 rows")
    if not np.isfinite(xs).all():
        raise _UsageProblem(f"initial data {path} holds a non-numeric or non-finite x")
    steps = np.diff(xs)
    if steps.min() <= 0 or steps.max() - steps.min() > 1e-9 * steps.max():
        raise _UsageProblem("initial data abscissae must be uniformly increasing")
    try:
        return pde.Grid(float(xs[0]), float(xs[-1]), xs.size), A, I
    except DomainError as exc:
        raise _UsageProblem(f"initial data {path}: {exc}") from exc


def cmd_pde(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.initial is not None:
        grid, A0, I0 = _read_initial(args.initial)
        source = f"initial data {args.initial}"
    else:
        grid = args.grid
        A0, I0 = pde.bump(grid, args.amplitude, args.width)
        source = f"the bump of amplitude {args.amplitude:g} and width {args.width:g}"
    if not (np.isfinite(A0).all() and np.isfinite(I0).all()):
        raise _UsageProblem(f"{source} holds a non-numeric or non-finite A or I")
    if (A0 < 0.0).any() or (I0 < 0.0).any():
        raise _UsageProblem(f"{source} holds a negative A or I, outside the model's domain")

    series = pde.simulate(A0, I0, args.r, grid, t_end=args.t_end)

    try:
        speed = pde.measure_speed(series, args.threshold, args.window)
    except DomainError as exc:
        raise _UsageProblem(f"usage: {exc}") from exc

    keep = {0.0, round(args.t_end / 2.0, 6), args.t_end}
    xs = grid.xs()
    written = []
    for t, (A, I) in zip(series.times, series.snapshots):
        if args.save_all or t in keep:
            written.append(f"{args.out}_t{t:g}.csv")
            _write_csv(written[-1], ["x", "A", "I"], [xs, A, I])

    _report(
        {
            "c_est": speed.c_est,
            "window": list(speed.window),
            "residual": speed.residual,
            "plateau": speed.plateau,
            "front_position": speed.x_front if math.isfinite(speed.x_front) else None,
            "snapshots": written,
            "diagnostics": series.diagnostics,
        }
    )
    return EXIT_OK


# --------------------------------------------------------------- evans


def cmd_evans(args: argparse.Namespace) -> int:
    _check_out(args.out)
    if args.self_test:
        theta = np.linspace(0.0, 2.0 * math.pi, 65)
        contour = 0.5 + np.exp(1j * theta)
        contour[-1] = contour[0]
        sweep = spectral.winding_number(lambda g: g, contour)
        expected = 1
    else:
        profile = wave_mod.shoot_wave(args.i_minus, Params(c=args.c, r=args.r))
        setup = spectral.make_setup(wave=profile, w_exp=args.w_exp)
        sweep = spectral.evans_winding(setup, args.contour)
        expected = 0

    _write_csv(
        args.out,
        ["re_gamma", "im_gamma", "re_E", "im_E"],
        [sweep.gammas.real, sweep.gammas.imag, sweep.values.real, sweep.values.imag],
    )
    _report(
        {
            "winding": sweep.winding,
            "max_arg_step": sweep.max_arg_step,
            "self_test": bool(args.self_test),
            "evaluations": int(sweep.gammas.size),
            "csv": args.out,
            "diagnostics": sweep.diagnostics,
        }
    )
    return EXIT_OK if sweep.winding == expected else EXIT_VERIFICATION


# ------------------------------------------------------------ formulas


def cmd_formulas(args: argparse.Namespace) -> int:
    try:
        Params(c=args.c, r=args.r)
    except DomainError as exc:
        raise _UsageProblem(str(exc)) from exc

    c, r = args.c, args.r
    i_c = analysis.minimal_inactive_limit(c)
    pairs = [
        (i_minus, analysis.limit_symmetry(i_minus))
        for i_minus in (1.2, 1.5, 1.8, 2.0)
        if i_minus <= 2.0 - i_c
    ]
    rates = {
        f"{i_minus:g}": analysis.decay_rate(i_minus, c) for i_minus, _ in pairs
    }
    i0_grid = [round(i_c + f * (1.0 - i_c), 6) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    a_stars = [(i0, analysis.a_star(i0, c, r)) for i0 in i0_grid]

    general = None
    if args.general is not None:
        predictions = general_wave_predictions(args.general, c)
        general = {
            "i_c": predictions.i_c,
            "limit_sum": predictions.limit_sum,
            "c_normalized": predictions.c_normalized,
        }

    payload = {
        "c": c,
        "r": r,
        "i_c": i_c,
        "c_min": 2.0,
        "at_minimal_speed": c == 2.0,
        "limit_pairs": [[a, b] for a, b in pairs],
        "decay_rates": rates,
        "a_star": [[i0, a] for i0, a in a_stars],
        "general": general,
    }
    if args.json:
        _report(payload)
        return EXIT_OK

    print(f"c = {c:g}, r = {r:g}")
    print(f"i_c (minimal inactive level ahead) = {i_c:.6g}")
    if c == 2.0:
        print("note: c = 2 is the minimal front speed; i_c vanishes there")
    elif c > 2.0:
        print("note: c exceeds the minimal front speed 2; i_c = 0")
    else:
        print(f"note: below the minimal front speed 2, waves need i <= {2 - i_c:g} behind")
    print("limit pairs (rear level -> front level):")
    for i_minus, i_plus in pairs:
        print(f"  {i_minus:g} -> {i_plus:g}")
    print("rear decay rates mu(i_minus):")
    for key, value in rates.items():
        print(f"  i = {key}: {value:.6g}")
    print("largest admissible start a_star(i0):")
    for i0, a in a_stars:
        print(f"  i0 = {i0:g}: {a:.6g}")
    if general is not None:
        print("general-units predictions:")
        print(f"  i_c = {general['i_c']:.6g}")
        print(f"  limit sum = {general['limit_sum']:.6g}")
        print(f"  normalized speed = {general['c_normalized']:.6g}")
    return EXIT_OK


# -------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    results = acceptance.run_all(only=args.only, seed=args.seed)
    if not results:
        raise _UsageProblem(
            f"--only {args.only!r} matches no criterion "
            f"(valid: {', '.join(acceptance.CRITERION_NAMES)})"
        )
    if args.json:
        _report([dataclasses.asdict(result) for result in results])
    else:
        for result in results:
            print(result.line())
    failures = [result.name for result in results if not result.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------- main


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="branchwaves", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_wave = sub.add_parser("wave", help="shoot one traveling wave and verify it")
    p_pde = sub.add_parser("pde", help="run the planar front and measure its speed")
    p_evans = sub.add_parser("evans", help="sweep the spectral contour and report winding")
    p_formulas = sub.add_parser("formulas", help="evaluate the closed-form predictions")
    p_verify = sub.add_parser("verify", help="run the acceptance battery")

    for sp in (p_wave, p_evans, p_formulas):
        sp.add_argument("--c", type=float, default=2.0,
                        help="wave speed (default %(default)s)")
    for sp in (p_wave, p_pde, p_evans, p_formulas):
        sp.add_argument("--r", type=float, default=0.0,
                        help="production rate (default %(default)s)")
    for sp in (p_wave, p_evans):
        sp.add_argument("--i-minus", dest="i_minus", type=float, default=2.0,
                        help="rear inactive limit in (1, 2] (default %(default)s)")

    p_wave.add_argument("--out", default="wave.csv",
                        help="profile CSV path (default %(default)s)")
    p_wave.set_defaults(handler=cmd_wave)

    p_pde.add_argument("--amplitude", type=float, default=pde.BUMP_AMPLITUDE,
                       help="bump height (default %(default)s)")
    p_pde.add_argument("--width", type=_bump_width, default=pde.BUMP_WIDTH,
                       help="bump width (default %(default)s)")
    p_pde.add_argument("--initial", help="CSV x,A,I initial data (overrides the bump)")
    p_pde.add_argument("--grid", default=f"{pde.GRID.n}:{pde.GRID.x_min:g}:{pde.GRID.x_max:g}",
                       type=_fields("n:xmin:xmax", ":", int, float, float,
                                    build=lambda n, x_min, x_max: pde.Grid(x_min, x_max, n)),
                       help="n:xmin:xmax (default %(default)s)")
    p_pde.add_argument("--t-end", dest="t_end", type=float, default=pde.T_END,
                       help="final time (default %(default)s)")
    p_pde.add_argument("--threshold", type=float, default=pde.FRONT_LEVEL,
                       help="front tracking level (default %(default)s)")
    p_pde.add_argument("--window", type=_fields("t1:t2", ":", float, float),
                       help="speed-fit window t1:t2 (default second half)")
    p_pde.add_argument("--out", default="pde",
                       help="snapshot CSV prefix (default %(default)s)")
    p_pde.add_argument("--save-all", dest="save_all", action="store_true",
                       help="write every snapshot instead of start/middle/end")
    p_pde.set_defaults(handler=cmd_pde)

    p_evans.add_argument("--w-exp", dest="w_exp", type=float,
                         help="exponential weight (default c/2)")
    p_evans.add_argument("--contour", default=":".join(f"{v:g}" for v in spectral.CONTOUR),
                         type=_fields("rmin:rmax:n", ":", float, float, int,
                                      build=spectral.contour_of_S),
                         help="rmin:rmax:n (default %(default)s)")
    p_evans.add_argument("--out", default="evans.csv",
                         help="samples CSV path (default %(default)s)")
    p_evans.add_argument("--self-test", dest="self_test", action="store_true",
                         help="wind the identity map around a circle about 0.5 (expects 1)")
    p_evans.set_defaults(handler=cmd_evans)

    p_formulas.add_argument("--general", type=_parse_general,
                            help="general rates rS=..,rA=..,rI=..,D=..")
    p_formulas.add_argument("--json", action="store_true", help="machine-readable output")
    p_formulas.set_defaults(handler=cmd_formulas)

    p_verify.add_argument("--only", help="substring filter on criterion names")
    p_verify.add_argument("--seed", type=_seed, default=2026,
                          help="randomized-check seed (default %(default)s)")
    p_verify.add_argument("--json", action="store_true",
                          help="one JSON object per criterion, with its diagnostics")
    # the report form is chosen per run: a config file sets what verify checks
    p_verify.per_run += ("json",)
    p_verify.set_defaults(handler=cmd_verify)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="flat key = value file with flag defaults")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(cls for classes, _, _ in _EXIT_TABLE for cls in classes) as exc:
        code, label = next(
            (code, label) for classes, code, label in _EXIT_TABLE if isinstance(exc, classes)
        )
        print(f"error: {label}: {exc}" if label else f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
