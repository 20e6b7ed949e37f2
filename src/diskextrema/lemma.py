"""Verify the inequality chains that hold at modulus-extremal points.

At a point ``z0`` where |f| attains its maximum over ``|z| <= |z0|`` (and
f is not constant), the ratio ``z0 f'(z0)/f(z0)`` is a real number ``m``
with

    Re(z0 f''(z0)/f'(z0)) + 1  >=  m,
    m  >=  n |f(z0) - a0|^2 / (|f(z0)|^2 - |a0|^2)
       >=  n (|f(z0)| - |a0|) / (|f(z0)| + |a0|),

where ``a0 = f(0)`` and ``n`` is the first non-constant Taylor index.
When ``a0 = 0`` both lower bounds collapse to ``n`` (Jack's classical
statement).  Dually, at a point of *minimal* modulus of a zero-free f the
same chain holds for ``1/f``, which translates to
``z0 f'(z0)/f(z0) = -m`` and ``Re(z0 f''/f') + 1 >= -m`` with
``m >= n |a0 - f(z0)|^2 / (|a0|^2 - |f(z0)|^2) >= n (|a0| - |f(z0)|)/(|a0| + |f(z0)|)``.

The checkers below evaluate every link of the appropriate chain at a
supplied extremal point and return a structured report.  ``m`` is taken
as the real part of the ratio; the imaginary part is reported as a
residual quantifying how extremal the supplied point really is, rather
than being assumed to vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConstantFunction,
    DegenerateModuli,
    DomainError,
    ZeroDenominator,
    ZeroDerivative,
    ZeroInDisk,
)
from .functions import AnalyticFunction

DEFAULT_TOL = 1e-8
#: Moduli below this are treated as zeros of f (also by the extremum search).
ZERO_THRESHOLD = 1e-13
CONSTANT_TOL = 1e-15

#: Fixed link order; serialization and text output follow it.
LINK_NAMES = ("im_residual", "m_sign", "schwarz_vs_m", "m_vs_bound_sq", "bound_ordering")


def log_derivative(f: AnalyticFunction, z0: complex) -> complex:
    """``z0 f'(z0) / f(z0)``; real at interior-of-arc modulus extrema."""
    v = complex(f.value(z0))
    if abs(v) <= ZERO_THRESHOLD:
        raise ZeroDenominator(f"|f(z0)| = {abs(v):.3e}; log-derivative ratio undefined")
    return complex(z0 * complex(f.deriv1(z0)) / v)


def schwarz_quantity(f: AnalyticFunction, z0: complex) -> float:
    """``Re(z0 f''(z0)/f'(z0)) + 1``, the curvature-type quantity."""
    d1 = complex(f.deriv1(z0))
    if abs(d1) <= ZERO_THRESHOLD:
        raise ZeroDerivative(f"|f'(z0)| = {abs(d1):.3e}; curvature quantity undefined")
    return (complex(z0) * complex(f.deriv2(z0)) / d1).real + 1.0


def mocanu_bounds(a0: complex, fz0: complex, n: int, case: str) -> tuple[float, float]:
    """The two lower bounds ``(bound_sq, bound_abs)`` for ``m``.

    ``bound_sq = n |fz0 - a0|^2 / ||fz0|^2 - |a0|^2|`` and
    ``bound_abs = n ||fz0| - |a0|| / (|fz0| + |a0|)``; always
    ``bound_sq >= bound_abs >= 0``.  The max case requires
    ``|fz0| > |a0|``, the min case the reverse, each by a margin.
    """
    if case not in ("max", "min"):
        raise DomainError(f"case must be 'max' or 'min', got {case!r}")
    a0 = complex(a0)
    fz0 = complex(fz0)
    big = abs(fz0)
    small = abs(a0)
    if case == "min":
        big, small = small, big
    if big - small <= ZERO_THRESHOLD:
        raise DegenerateModuli(
            f"|f(z0)| = {abs(fz0):.17g} vs |a0| = {abs(a0):.17g}: "
            f"moduli too close for the {case}-case bounds"
        )
    diff = abs(fz0 - a0)
    # ratio first, then the integer scale: keeps the a0 = 0 case exact
    bound_sq = n * (diff * diff / abs(abs(fz0) * abs(fz0) - abs(a0) * abs(a0)))
    bound_abs = n * ((big - small) / (big + small))
    return bound_sq, bound_abs


@dataclass(frozen=True)
class LinkCheck:
    """One inequality link: its margin (lhs - rhs), pass/fail, strictness.

    A skipped link (quantity undefined, e.g. f'(z0) = 0) carries ``None``
    everywhere and does not count as a failure.
    """

    margin: float | None
    passed: bool | None
    strict: bool | None


@dataclass(frozen=True)
class LemmaReport:
    """Everything measured at one extremal point, link by link."""

    case: str
    n: int
    z0: complex
    f_z0: complex
    m: float
    im_residual: float
    schwarz: float | None
    bound_sq: float
    bound_abs: float
    checks: dict[str, LinkCheck]
    tolerance: float

    @property
    def passed(self) -> bool:
        """True when no link failed (skipped links do not fail)."""
        return all(link.passed is not False for link in self.checks.values())

    def to_dict(self) -> dict:
        """Stable field names and order, for JSON output and snapshots."""
        return {
            "case": self.case,
            "n": self.n,
            "z0_re": self.z0.real,
            "z0_im": self.z0.imag,
            "f_z0_re": self.f_z0.real,
            "f_z0_im": self.f_z0.imag,
            "m": self.m,
            "im_residual": self.im_residual,
            "schwarz": self.schwarz,
            "bound_sq": self.bound_sq,
            "bound_abs": self.bound_abs,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": {
                name: {"passed": link.passed, "strict": link.strict, "margin": link.margin}
                for name, link in self.checks.items()
            },
        }


def format_value(value) -> str:
    """One scalar as text: floats with 17 significant digits, ``None`` as ``null``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def format_report(report: LemmaReport) -> str:
    """Flat ``key = value`` text rendering with 17 significant digits."""
    doc = report.to_dict()
    checks = doc.pop("checks")
    lines = [f"{key} = {format_value(value)}" for key, value in doc.items()]
    for name, fields in checks.items():
        for key, value in fields.items():
            lines.append(f"checks.{name}.{key} = {format_value(value)}")
    return "\n".join(lines) + "\n"


def _link(margin: float, tol: float) -> LinkCheck:
    return LinkCheck(margin=margin, passed=margin >= -tol, strict=margin > 0.0)


def _check_chain(f: AnalyticFunction, n: int, z0: complex, tol: float, case: str) -> LemmaReport:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if f.is_constant(CONSTANT_TOL):
        raise ConstantFunction("the chain is vacuous for a constant function")
    z0 = complex(z0)
    fz0 = complex(f.value(z0))
    if case == "min" and abs(fz0) <= ZERO_THRESHOLD:
        raise ZeroInDisk(f"|f(z0)| = {abs(fz0):.3e}; f vanishes at the claimed minimum")
    ratio = log_derivative(f, z0)
    m = ratio.real if case == "max" else -ratio.real
    im_residual = abs(ratio.imag)
    try:
        schwarz = schwarz_quantity(f, z0)
    except ZeroDerivative:
        schwarz = None
    bound_sq, bound_abs = mocanu_bounds(f.a0, fz0, n, case)

    im_cap = tol * max(1.0, abs(m))
    schwarz_rhs = m if case == "max" else -m
    checks = {
        "im_residual": LinkCheck(
            margin=im_cap - im_residual,
            passed=im_residual <= im_cap,
            strict=im_residual < im_cap,
        ),
        "m_sign": _link(m, tol),
        "schwarz_vs_m": (
            LinkCheck(None, None, None) if schwarz is None else _link(schwarz - schwarz_rhs, tol)
        ),
        "m_vs_bound_sq": _link(m - bound_sq, tol),
        "bound_ordering": _link(bound_sq - bound_abs, tol),
    }
    return LemmaReport(
        case=case,
        n=n,
        z0=z0,
        f_z0=fz0,
        m=float(m),
        im_residual=float(im_residual),
        schwarz=schwarz,
        bound_sq=float(bound_sq),
        bound_abs=float(bound_abs),
        checks=checks,
        tolerance=tol,
    )


def check_max_lemma(
    f: AnalyticFunction, n: int, z0: complex, tol: float = DEFAULT_TOL
) -> LemmaReport:
    """Verify the maximum-case chain at a claimed maximal point ``z0``."""
    return _check_chain(f, n, z0, tol, "max")


def check_min_theorem(
    f: AnalyticFunction, n: int, z0: complex, tol: float = DEFAULT_TOL
) -> LemmaReport:
    """Verify the minimum-case chain (zero-free f) at a claimed minimal point."""
    return _check_chain(f, n, z0, tol, "min")
