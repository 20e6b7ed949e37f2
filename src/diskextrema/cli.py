"""Command-line surface.

Four subcommands:

* ``example``   -- reproduce the closed-form reference family end to end,
                   printing closed vs numeric values side by side;
* ``verify``    -- load a series literal file and run the min (or max)
                   chain check at the located disk extremum;
* ``sweep``     -- seeded randomized falsification sweep;
* ``landscape`` -- export a ``theta,modulus`` CSV of the circle profile.

Exit codes, stable across commands: 0 success, 1 a verified inequality
failed, 2 usage/parse/precondition error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    ConstantFunction,
    DiskExtremaError,
    DomainError,
    SeriesFormatError,
    ZeroInDisk,
    ZeroOnCircle,
)
from .extremum import (
    DEFAULT_GRID,
    find_max_on_disk,
    find_min_on_disk,
    modulus_profile,
    write_profile_csv,
)
from .functions import ExampleFamily, Reciprocal, SeriesFunction
from .lemma import DEFAULT_TOL, check_max_lemma, check_min_theorem, format_report
from .lemma import format_value as _fmt
from .series import read_series
from .sweep import run_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    try:
        if "," in cleaned:
            re_part, im_part = cleaned.split(",")
            return complex(float(re_part), float(im_part))
        return complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number from {text!r}") from exc


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args: argparse.Namespace) -> int:
    family = ExampleFamily(args.a0, args.n)
    r = args.r

    center, radius = family.image_disk(r)
    z0_closed, min_closed = family.min_point(r)
    chain = family.closed_chain(r)

    located = find_min_on_disk(family, r, args.grid)
    report = check_min_theorem(family, args.n, located.z0, args.tol)

    boundary_values = family.on_circles([r], 4096)[0]
    image_dev = float(np.max(np.abs(np.abs(boundary_values - center) - radius)))
    phase_residual = float(abs(np.exp(1j * args.n * located.theta) + 1.0))

    schwarz_numeric = np.inf if report.schwarz is None else report.schwarz
    rows = [
        ("min_modulus", min_closed, located.value),
        ("m", chain.m, report.m),
        ("schwarz", chain.schwarz, schwarz_numeric),
        ("bound_sq", chain.bound, report.bound_sq),
        ("image_deviation", 0.0, image_dev),
        ("minimizer_phase", 0.0, phase_residual),
    ]
    diffs = {name: abs(closed - numeric) for name, closed, numeric in rows}
    ok = report.passed and all(d <= args.tol for d in diffs.values())

    if args.format == "json":
        doc = {
            "command": "example",
            "a0_re": family.a0.real,
            "a0_im": family.a0.imag,
            "n": args.n,
            "r": r,
            "tolerance": args.tol,
            "image_center_re": center.real,
            "image_center_im": center.imag,
            "image_radius": radius,
            "z0_closed_re": z0_closed.real,
            "z0_closed_im": z0_closed.imag,
            "theta_numeric": located.theta,
            "closed": {name: closed for name, closed, _ in rows},
            "numeric": {name: numeric for name, _, numeric in rows},
            "abs_diff": diffs,
            "report": report.to_dict(),
            "passed": ok,
        }
        _emit(_json_doc(doc), args.output)
    else:
        lines = [
            f"reference family: a0 = {_fmt(family.a0.real)} + {_fmt(family.a0.imag)}i, "
            f"n = {args.n}, r = {_fmt(r)}",
            f"image disk: center = {_fmt(center.real)} + {_fmt(center.imag)}i, "
            f"radius = {_fmt(radius)}",
            f"closed-form minimizer: z0 = {_fmt(z0_closed.real)} + {_fmt(z0_closed.imag)}i",
            f"numeric minimizer: theta = {_fmt(located.theta)} "
            f"(bracket {_fmt(located.bracket_width)})",
            "",
            f"{'quantity':<18}{'closed':<26}{'numeric':<26}abs_diff",
        ]
        for name, closed, numeric in rows:
            lines.append(f"{name:<18}{_fmt(closed):<26}{_fmt(numeric):<26}{_fmt(diffs[name])}")
        lines.append("")
        lines.append(format_report(report).rstrip("\n"))
        lines.append(f"verdict = {'pass' if ok else 'fail'}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    series = read_series(args.input)
    f = SeriesFunction(series)
    if args.mode == "min":
        if f.a0 == 0:
            raise DomainError("minimum-mode verification needs a0 != 0 (f must be zero-free)")
        located = find_min_on_disk(f, args.r, args.grid)
        report = check_min_theorem(f, series.n, located.z0, args.tol)
    else:
        located = find_max_on_disk(f, args.r, args.grid)
        report = check_max_lemma(f, series.n, located.z0, args.tol)

    if args.format == "json":
        doc = {
            "command": "verify",
            "mode": args.mode,
            "input": args.input,
            "r": args.r,
            "theta": located.theta,
            "extremal_modulus": located.value,
            "bracket_width": located.bracket_width,
            "report": report.to_dict(),
        }
        _emit(_json_doc(doc), args.output)
    else:
        lines = [
            f"series: {args.input} (a0 = {_fmt(series.a0.real)} + "
            f"{_fmt(series.a0.imag)}i, n = {series.n}, N = {series.order})",
            f"{args.mode} search on |z| <= {_fmt(args.r)}: "
            f"theta = {_fmt(located.theta)}, modulus = {_fmt(located.value)}",
            "",
            format_report(report).rstrip("\n"),
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _trial_doc(outcome) -> dict:
    p = outcome.params
    return {
        "index": p.index,
        "a0_re": p.a0.real,
        "a0_im": p.a0.imag,
        "n": p.n,
        "r": p.r,
        "exponent_coefficients": [[c.real, c.imag] for c in p.exponent.coeffs.tolist()],
        "min_report": outcome.min_report.to_dict(),
        "max_report": outcome.max_report.to_dict(),
        "duality_gap": outcome.duality_gap,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    summary = run_sweep(args.trials, args.seed, args.tol, args.grid)

    if args.format == "json":
        doc = {
            "command": "sweep",
            "trials": summary.trials,
            "seed": summary.seed,
            "tolerance": summary.tolerance,
            "failures": summary.failures,
            "max_duality_gap": summary.max_duality_gap,
            "worst_margins": summary.worst_margins,
            "failed": [_trial_doc(out) for out in summary.failed],
            "passed": summary.passed,
        }
        _emit(_json_doc(doc), args.output)
    else:
        lines = [
            f"trials = {summary.trials}",
            f"seed = {summary.seed}",
            f"tolerance = {_fmt(summary.tolerance)}",
            f"failures = {summary.failures}",
            f"max_duality_gap = {_fmt(summary.max_duality_gap)}",
        ]
        for name, margin in summary.worst_margins.items():
            lines.append(f"worst_margin.{name} = {_fmt(margin)}")
        for outcome in summary.failed:
            p = outcome.params
            lines.append("")
            lines.append(
                f"FAILED trial {p.index} (seed = {summary.seed}): "
                f"a0 = {_fmt(p.a0.real)} + {_fmt(p.a0.imag)}i, n = {p.n}, r = {_fmt(p.r)}"
            )
            lines.append("exponent coefficients (k re im):")
            for k, c in zip(range(p.exponent.n, p.exponent.order + 1), p.exponent.coeffs):
                lines.append(f"  {k} {_fmt(c.real)} {_fmt(c.imag)}")
            for tag, report in (("min", outcome.min_report), ("max", outcome.max_report)):
                lines.append(f"[{tag} report]")
                lines.append(format_report(report).rstrip("\n"))
            lines.append(f"duality_gap = {_fmt(outcome.duality_gap)}")
        lines.append(f"verdict = {'pass' if summary.passed else 'fail'}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if summary.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------


def cmd_landscape(args: argparse.Namespace) -> int:
    if args.input is not None:
        f = SeriesFunction(read_series(args.input))
    else:
        f = ExampleFamily(args.a0, args.n)
    if args.reciprocal:
        f = Reciprocal(f)

    profile = modulus_profile(f, args.r, args.grid)
    lo = int(np.argmin(profile[:, 1]))
    hi = int(np.argmax(profile[:, 1]))
    summary = (
        f"grid min: modulus = {_fmt(profile[lo, 1])} at theta = {_fmt(profile[lo, 0])}\n"
        f"grid max: modulus = {_fmt(profile[hi, 1])} at theta = {_fmt(profile[hi, 0])}\n"
    )

    if args.output is None:
        write_profile_csv(profile, sys.stdout)
        sys.stderr.write(summary)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_profile_csv(profile, fh)
        sys.stdout.write(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_a0_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--a0", help="value at the origin, as 're', 're,im' or 're+imj'")
    group.add_argument("--a0-mod", type=float, dest="a0_mod", help="|a0| (polar form)")
    parser.add_argument(
        "--a0-arg", type=float, dest="a0_arg", default=0.0, help="arg(a0) in radians (polar form)"
    )


def build_parser() -> argparse.ArgumentParser:
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=int, default=DEFAULT_GRID)
    disk = argparse.ArgumentParser(add_help=False, parents=[grid])
    disk.add_argument("--r", type=float, required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--tol", type=float, default=DEFAULT_TOL)
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument("--output", default=None)

    parser = argparse.ArgumentParser(
        prog="diskextrema",
        description="Locate modulus extrema of analytic functions on the unit disk "
        "and verify the inequality chains that hold there.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "example", parents=[disk, report], help="reproduce the closed-form reference family"
    )
    p.set_defaults(run=cmd_example)
    _add_a0_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser(
        "verify", parents=[disk, report], help="check a user-supplied series at its disk extremum"
    )
    p.set_defaults(run=cmd_verify)
    p.add_argument("--input", required=True, help="series literal file")
    p.add_argument("--mode", choices=("min", "max"), default="min")

    p = sub.add_parser("sweep", parents=[grid, report], help="seeded randomized falsification sweep")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser(
        "landscape", parents=[disk], help="export a theta,modulus CSV of the circle profile"
    )
    p.set_defaults(run=cmd_landscape)
    _add_a0_flags(p, required=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None, help="series literal file instead of family flags")
    p.add_argument("--reciprocal", action="store_true", help="profile 1/f instead of f")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")

    return parser


def _resolve_a0(args: argparse.Namespace) -> complex | None:
    if args.a0 is not None:
        return _parse_complex(args.a0)
    if args.a0_mod is not None:
        return complex(args.a0_mod * np.exp(1j * args.a0_arg))
    return None


def _validate(args: argparse.Namespace) -> None:
    """Resolve ``a0`` to a complex number, then check the range of every flag."""
    if "a0" in args:
        args.a0 = _resolve_a0(args)
    r, tol, n = (getattr(args, name, None) for name in ("r", "tol", "n"))
    if r is not None and not 0.0 < r < 1.0:
        raise DomainError(f"--r must lie in (0, 1), got {r}")
    if args.grid < 8:
        raise DomainError(f"--grid must be at least 8, got {args.grid}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise DomainError(f"--tol must be positive and finite, got {tol}")
    if "trials" in args and args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    if "seed" in args and not 0 <= args.seed < 2**64:
        raise DomainError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    if n is not None and n < 1:
        raise DomainError(f"--n must be a positive integer, got {n}")
    if args.command == "landscape":
        if (args.input is None) == (args.a0 is None):
            raise DomainError("landscape needs either --input or --a0/--n family flags")
        if args.a0 is not None and args.n is None:
            raise DomainError("landscape family flags need --n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.run(args)
    except (ZeroInDisk, ZeroOnCircle) as exc:
        sys.stderr.write(f"error: the function vanishes on the search region: {exc}\n")
        return EXIT_USAGE
    except ConstantFunction as exc:
        sys.stderr.write(f"error: constant function: {exc}\n")
        return EXIT_USAGE
    except (DomainError, SeriesFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DiskExtremaError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
