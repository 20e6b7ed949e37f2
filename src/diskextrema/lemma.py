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

The checkers below read ``f(z0)``, ``f'(z0)`` and ``f''(z0)`` from one
``f.jet(z0)``, evaluate every link of the appropriate chain at the
supplied extremal point and return a structured report.  ``m`` is taken
as the real part of the ratio; the imaginary part is reported as a
residual quantifying how extremal the supplied point really is, rather
than being assumed to vanish.  Where ``f'(z0)`` vanishes the curvature
quantity is undefined and its link is skipped.

The link arithmetic is written once, in ``_links``: the same expressions
take Python scalars at one point, which the checkers pass, or numpy
columns at many, which the sweep passes for a whole batch of located
points.  The checkers raise before it for a constant f, a zero at
``z0`` and moduli too close for the bounds; the sweep sends the rows
that would raise to the checkers, and builds a report only for the rows
it reads (``_report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantFunction,
    DegenerateModuli,
    DomainError,
    ZeroDenominator,
    ZeroInDisk,
)
from .functions import ZERO_THRESHOLD, AnalyticFunction

DEFAULT_TOL = 1e-8

#: Fixed link order; serialization and text output follow it.
LINK_NAMES = ("im_residual", "m_sign", "schwarz_vs_m", "m_vs_bound_sq", "bound_ordering")


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
    _require_apart(a0, fz0, case)
    return _bounds(a0, fz0, n, case)


def _moduli(a0, fz0, case: str):
    """``(big, small)``: ``|f(z0)|`` and ``|a0|``, the one that the case needs larger first."""
    return (abs(fz0), abs(a0)) if case == "max" else (abs(a0), abs(fz0))


def _degenerate(a0, fz0, case: str):
    """Whether the moduli are too close for the bounds: ``big - small <= ZERO_THRESHOLD``."""
    big, small = _moduli(a0, fz0, case)
    return big - small <= ZERO_THRESHOLD


def _require_apart(a0: complex, fz0: complex, case: str) -> None:
    if _degenerate(a0, fz0, case):
        raise DegenerateModuli(
            f"|f(z0)| = {abs(fz0):.17g} vs |a0| = {abs(a0):.17g}: "
            f"moduli too close for the {case}-case bounds"
        )


def _bounds(a0, fz0, n, case: str):
    big, small = _moduli(a0, fz0, case)
    diff = abs(fz0 - a0)
    # ratio first, then the integer scale: keeps the a0 = 0 case exact
    bound_sq = n * (diff * diff / (big * big - small * small))
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


def format_doc(doc, prefix: str = "") -> str:
    """Flat ``key = value`` text, one line per leaf in document order.

    Nested keys join with dots and list items are keyed by their index, as
    in ``failed.0.min_report.m``; values go through :func:`format_value`.
    """
    lines = []
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            lines.append(format_doc(value, f"{prefix}{key}."))
        else:
            lines.append(f"{prefix}{key} = {format_value(value)}\n")
    return "".join(lines)


def _links(fz0, d1, d2, a0, n, z0, tol, case: str) -> tuple:
    """Every link of the ``case`` chain, from the jet ``(fz0, d1, d2)`` at ``z0``.

    The arguments are Python scalars, for one point, or ``(T,)`` numpy
    columns (``tol`` may stay a scalar), for ``T`` points at once; the same
    expressions serve both.  The caller rules out, or masks, the points
    where the chain raises: ``|f(z0)| <= ZERO_THRESHOLD`` and moduli that
    are :func:`_degenerate`.  Returns ``(m, im_residual, schwarz, bound_sq,
    bound_abs, flat, margins, passed)``, with ``margins`` and ``passed`` in
    ``LINK_NAMES`` order.  ``flat`` marks ``|f'(z0)| <= ZERO_THRESHOLD``,
    where ``schwarz`` is undefined and its link is skipped: it passes, and
    neither ``schwarz`` nor its margin is read.
    """
    # z0 f'/f, real at interior-of-arc modulus extrema
    ratio = z0 * d1 / fz0
    m = ratio.real if case == "max" else -ratio.real
    im_residual = abs(ratio.imag)
    # Re(z0 f''/f') + 1, the curvature-type quantity; a flat point divides
    # by f' + 1, so that it raises nothing
    flat = abs(d1) <= ZERO_THRESHOLD
    schwarz = (z0 * d2 / (d1 + flat)).real + 1.0
    bound_sq, bound_abs = _bounds(a0, fz0, n, case)
    size = abs(m)
    im_cap = tol * (np.fmax(1.0, size) if isinstance(size, np.ndarray) else max(1.0, size))
    margins = (
        im_cap - im_residual,
        m,
        schwarz - (m if case == "max" else -m),
        m - bound_sq,
        bound_sq - bound_abs,
    )
    passed = (
        im_residual <= im_cap,
        margins[1] >= -tol,
        (margins[2] >= -tol) | flat,
        margins[3] >= -tol,
        margins[4] >= -tol,
    )
    return m, im_residual, schwarz, bound_sq, bound_abs, flat, margins, passed


def _report(case: str, n: int, z0: complex, fz0: complex, links: tuple, tol: float) -> LemmaReport:
    """The :class:`LemmaReport` of one point's :func:`_links`, all Python scalars (floats, not ints)."""
    m, im_residual, schwarz, bound_sq, bound_abs, flat, margins, passed = links
    strict = [margin > 0.0 for margin in margins]
    checks = dict(zip(LINK_NAMES, map(LinkCheck, margins, passed, strict)))
    if flat:
        checks["schwarz_vs_m"] = LinkCheck(None, None, None)
    return LemmaReport(
        case=case,
        n=n,
        z0=z0,
        f_z0=fz0,
        m=m,
        im_residual=im_residual,
        schwarz=None if flat else schwarz,
        bound_sq=bound_sq,
        bound_abs=bound_abs,
        checks=checks,
        tolerance=tol,
    )


def _check_chain(f: AnalyticFunction, n: int, z0: complex, tol: float, case: str) -> LemmaReport:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if f.is_constant():
        raise ConstantFunction("the chain is vacuous for a constant function")
    z0 = complex(z0)
    fz0, d1, d2 = map(complex, f.jet(z0))
    if abs(fz0) <= ZERO_THRESHOLD:
        if case == "min":
            raise ZeroInDisk(f"|f(z0)| = {abs(fz0):.3e}; f vanishes at the claimed minimum")
        raise ZeroDenominator(f"|f(z0)| = {abs(fz0):.3e}; log-derivative ratio undefined")
    a0 = complex(f.a0)
    _require_apart(a0, fz0, case)
    return _report(case, n, z0, fz0, _links(fz0, d1, d2, a0, n, z0, tol, case), tol)


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
