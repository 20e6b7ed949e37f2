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
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    a0: complex | None = None
    n: int | None = None
    r: float | None = None
    grid: int = DEFAULT_GRID
    tol: float = DEFAULT_TOL
    trials: int = 1
    seed: int = 0
    mode: str = "min"
    reciprocal: bool = False
    input_path: str | None = None
    output_path: str | None = None
    output_format: str = "text"

    def validate(self) -> None:
        if self.r is not None and not 0.0 < self.r < 1.0:
            raise DomainError(f"--r must lie in (0, 1), got {self.r}")
        if self.grid < 8:
            raise DomainError(f"--grid must be at least 8, got {self.grid}")
        if self.tol <= 0.0:
            raise DomainError(f"--tol must be positive, got {self.tol}")
        if self.trials < 1:
            raise DomainError(f"--trials must be at least 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"--seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.n is not None and self.n < 1:
            raise DomainError(f"--n must be a positive integer, got {self.n}")


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "")
    try:
        if "," in cleaned:
            re_part, im_part = cleaned.split(",")
            return complex(float(re_part), float(im_part))
        return complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number from {text!r}") from exc


def _resolve_a0(args: argparse.Namespace) -> complex | None:
    if getattr(args, "a0", None) is not None:
        return _parse_complex(args.a0)
    mod = getattr(args, "a0_mod", None)
    if mod is not None:
        return complex(mod * np.exp(1j * getattr(args, "a0_arg", 0.0)))
    return None


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


def cmd_example(config: RunConfig) -> int:
    family = ExampleFamily(config.a0, config.n)
    r = config.r

    center, radius = family.image_disk(r)
    z0_closed, min_closed = family.min_point(r)
    chain = family.closed_chain(r)

    located = find_min_on_disk(family, r, config.grid)
    report = check_min_theorem(family, config.n, located.z0, config.tol)

    boundary = r * np.exp(2j * np.pi * np.arange(4096) / 4096)
    image_dev = float(np.max(np.abs(np.abs(family.value(boundary) - center) - radius)))
    phase_residual = float(abs(np.exp(1j * config.n * located.theta) + 1.0))

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
    ok = report.passed and all(d <= config.tol for d in diffs.values())

    if config.output_format == "json":
        doc = {
            "command": "example",
            "a0_re": family.a0.real,
            "a0_im": family.a0.imag,
            "n": config.n,
            "r": r,
            "tolerance": config.tol,
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
        _emit(_json_doc(doc), config.output_path)
    else:
        lines = [
            f"reference family: a0 = {_fmt(family.a0.real)} + {_fmt(family.a0.imag)}i, "
            f"n = {config.n}, r = {_fmt(r)}",
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
        _emit("\n".join(lines) + "\n", config.output_path)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    series = read_series(config.input_path)
    f = SeriesFunction(series)
    if config.mode == "min":
        if f.a0 == 0:
            raise DomainError("minimum-mode verification needs a0 != 0 (f must be zero-free)")
        located = find_min_on_disk(f, config.r, config.grid)
        report = check_min_theorem(f, series.n, located.z0, config.tol)
    else:
        located = find_max_on_disk(f, config.r, config.grid)
        report = check_max_lemma(f, series.n, located.z0, config.tol)

    if config.output_format == "json":
        doc = {
            "command": "verify",
            "mode": config.mode,
            "input": config.input_path,
            "r": config.r,
            "theta": located.theta,
            "extremal_modulus": located.value,
            "bracket_width": located.bracket_width,
            "report": report.to_dict(),
        }
        _emit(_json_doc(doc), config.output_path)
    else:
        lines = [
            f"series: {config.input_path} (a0 = {_fmt(series.a0.real)} + "
            f"{_fmt(series.a0.imag)}i, n = {series.n}, N = {series.order})",
            f"{config.mode} search on |z| <= {_fmt(config.r)}: "
            f"theta = {_fmt(located.theta)}, modulus = {_fmt(located.value)}",
            "",
            format_report(report).rstrip("\n"),
        ]
        _emit("\n".join(lines) + "\n", config.output_path)
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


def cmd_sweep(config: RunConfig) -> int:
    summary = run_sweep(config.trials, config.seed, config.tol, config.grid)

    if config.output_format == "json":
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
        _emit(_json_doc(doc), config.output_path)
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
        _emit("\n".join(lines) + "\n", config.output_path)
    return EXIT_OK if summary.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------


def cmd_landscape(config: RunConfig) -> int:
    if config.input_path is not None:
        f = SeriesFunction(read_series(config.input_path))
    else:
        f = ExampleFamily(config.a0, config.n)
    if config.reciprocal:
        f = Reciprocal(f)

    profile = modulus_profile(f, config.r, config.grid)
    lo = int(np.argmin(profile[:, 1]))
    hi = int(np.argmax(profile[:, 1]))
    summary = (
        f"grid min: modulus = {_fmt(profile[lo, 1])} at theta = {_fmt(profile[lo, 0])}\n"
        f"grid max: modulus = {_fmt(profile[hi, 1])} at theta = {_fmt(profile[hi, 0])}\n"
    )

    if config.output_path is None:
        write_profile_csv(profile, sys.stdout)
        sys.stderr.write(summary)
    else:
        with open(config.output_path, "w", encoding="utf-8") as fh:
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
    parser = argparse.ArgumentParser(
        prog="diskextrema",
        description="Locate modulus extrema of analytic functions on the unit disk "
        "and verify the inequality chains that hold there.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = dict(tol=DEFAULT_TOL, grid=DEFAULT_GRID)

    p = sub.add_parser("example", help="reproduce the closed-form reference family")
    _add_a0_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol", type=float, default=common["tol"])
    p.add_argument("--grid", type=int, default=common["grid"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="check a user-supplied series at its disk extremum")
    p.add_argument("--input", required=True, help="series literal file")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--tol", type=float, default=common["tol"])
    p.add_argument("--grid", type=int, default=common["grid"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("sweep", help="seeded randomized falsification sweep")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=common["tol"])
    p.add_argument("--grid", type=int, default=common["grid"])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)

    p = sub.add_parser("landscape", help="export a theta,modulus CSV of the circle profile")
    _add_a0_flags(p, required=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None, help="series literal file instead of family flags")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--grid", type=int, default=common["grid"])
    p.add_argument("--reciprocal", action="store_true", help="profile 1/f instead of f")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        command=args.command,
        a0=_resolve_a0(args),
        n=getattr(args, "n", None),
        r=getattr(args, "r", None),
        grid=getattr(args, "grid", DEFAULT_GRID),
        tol=getattr(args, "tol", DEFAULT_TOL),
        trials=getattr(args, "trials", 1),
        seed=getattr(args, "seed", 0),
        mode=getattr(args, "mode", "min"),
        reciprocal=getattr(args, "reciprocal", False),
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        output_format=getattr(args, "format", "text"),
    )
    config.validate()
    if config.command == "example" and config.a0 is None:
        raise DomainError("example needs --a0 or --a0-mod/--a0-arg")
    if config.command == "landscape":
        if (config.input_path is None) == (config.a0 is None):
            raise DomainError("landscape needs either --input or --a0/--n family flags")
        if config.a0 is not None and config.n is None:
            raise DomainError("landscape family flags need --n")
    return config


_DISPATCH = {
    "example": cmd_example,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "landscape": cmd_landscape,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _DISPATCH[config.command](config)
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
