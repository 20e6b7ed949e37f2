"""Locate extrema of |f| on circles ``|z| = r`` and closed disks ``|z| <= r``.

The search is a coarse uniform angular grid followed by one refinement
stage.  The grid is sampled in one call of ``f.on_circle``: for a
series-backed function that is one inverse FFT of the coefficients
scaled by ``r^k`` (folded modulo the grid size when the order exceeds
it), for other functions a vectorized ``value`` call at the same points.
At an extremum on the circle the ratio ``z f'(z)/f(z)`` is real, i.e.
the tangential derivative of ``log |f|`` vanishes:

    d/dtheta log|f(r e^{i theta})| = -Im(z f'(z)/f(z)),  z = r e^{i theta}.

Unlike |f| itself, which is quadratically flat there, this crosses zero
linearly, so polishing its sign change pins the extremal angle to about
1e-13.  The polish starts on the two grid steps around the grid winner.
When |f| varies by less than rounding between grid points the rounded
moduli can pick a neighbour of the true extremum, so that bracket holds
no sign change; the bracket then walks one grid step at a time the way
the sign of the derivative points (right while it is still positive at
the right end, left while it is negative at the left end), for at most
half the grid.  The polish is Illinois regula falsi (Dowell & Jarratt,
BIT 1971): a secant step on the bracket, halving the derivative kept at
an end that survives two steps in a row.  Each secant point is clamped
half the target width inside the bracket, so a point that lands on the
root still shrinks the bracket below the target on the next step, and
two steps in a row that fail to halve the bracket are followed by a
bisection.  The refinement runs on single points: each step reads
``f`` and ``f'`` from one ``f.jet`` call.  The bracket midpoint is
accepted when its modulus is no worse, up to rounding, than the grid
winner's modulus, both read by the scalar ``value``, so both sides of
the comparison come from one evaluator.  Otherwise (no sign change, e.g. for
constants; a rejected root; a sub-grid zero hit by a maximum search) the
result is the grid winner itself, with its scalar modulus and the
two-step bracket ``2 * TAU / grid`` as its width.

Disk extrema reduce to circle extrema: the maximum modulus of an analytic
function over a closed sub-disk is attained on the boundary circle, and
so is the minimum when the function has no zeros there.  The minimum
search asks ``f.count_zeros`` for the zeros inside the circle first.
Both disk searches check their result against the origin and one
256-point boundary ring, which catches a coarse grid that missed the
extremum and functions that are not analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InteriorAboveBoundary,
    InteriorBelowBoundary,
    ZeroInDisk,
    ZeroOnCircle,
)
from .functions import TAU, AnalyticFunction, _require_radius
from .lemma import ZERO_THRESHOLD

#: Coarse angular grid; resolves minimizer basins for class indices up to ~512.
DEFAULT_GRID = 4096
#: Angular bracket width at which the polish stops.
POLISH_TARGET = 1e-13
#: Iteration cap for the polish.
MAX_ITERATIONS = 200
#: Slack allowed when comparing located extrema against the origin and the boundary ring.
INTERIOR_TOL = 1e-10

#: Ulps by which the polished root may miss the grid winner's modulus.
_ACCEPT_ULPS = 4


@dataclass(frozen=True)
class ExtremumResult:
    """A located modulus extremum on the circle ``|z| = r``."""

    theta: float
    z0: complex
    value: float
    grid_size: int
    refine_iterations: int
    bracket_width: float


def modulus_profile(f: AnalyticFunction, r: float, samples: int = DEFAULT_GRID) -> np.ndarray:
    """``(samples, 2)`` array of rows ``(theta_k, |f(r e^{i theta_k})|)`` on a uniform grid."""
    _require_radius(r)
    if samples < 8:
        raise DomainError(f"need at least 8 samples, got {samples}")
    thetas = TAU * np.arange(samples) / samples
    return np.column_stack((thetas, np.abs(f.on_circle(r, samples))))


def write_profile_csv(profile, fh) -> None:
    """Write a profile as ``theta,modulus`` rows with 17 significant digits."""
    fh.write("theta,modulus\n")
    for theta, modulus in np.asarray(profile).tolist():
        fh.write(f"{theta:.17g},{modulus:.17g}\n")


def _search_circle(f: AnalyticFunction, r: float, grid: int, minimize: bool) -> ExtremumResult:
    profile = modulus_profile(f, r, grid)
    moduli = profile[:, 1]
    if minimize and moduli.min() < ZERO_THRESHOLD:
        raise ZeroOnCircle(
            f"|f| = {moduli.min():.3e} on |z| = {r}; the function vanishes on the circle"
        )
    sign = 1.0 if minimize else -1.0

    # Grid winner: first index attaining the extremum, i.e. the smallest theta.
    winner = int(np.argmin(sign * moduli))
    step = TAU / grid
    theta = float(profile[winner, 0])
    value = float(np.abs(f.value(r * np.exp(1j * theta))))
    bracket = 2.0 * step

    # g(theta) = sign * Im(z f'/f) crosses zero downward at the extremum.
    def tangential(t: float) -> float:
        z = r * np.exp(1j * (t % TAU))
        v, d1, _ = f.jet(z)
        if abs(v) <= ZERO_THRESHOLD:
            raise ZeroOnCircle(f"|f| = {abs(v):.3e} at theta = {t % TAU}")
        return sign * float((z * d1 / v).imag)

    iterations = 0
    lo = theta - step
    hi = theta + step
    try:
        glo, ghi = tangential(lo), tangential(hi)
        # Walk toward the sign change while the bracket holds none.
        for _ in range(grid // 2):
            if ghi > 0.0:
                lo, glo = hi, ghi
                hi += step
                ghi = tangential(hi)
            elif glo < 0.0:
                hi, ghi = lo, glo
                lo -= step
                glo = tangential(lo)
            else:
                break
        if glo > 0.0 > ghi:
            kept = 0  # +1 when the last step kept hi, -1 when it kept lo
            slow = 0  # steps in a row that did not halve the bracket
            while hi - lo > POLISH_TARGET and iterations < MAX_ITERATIONS:
                iterations += 1
                width = hi - lo
                bisect = slow >= 2
                if bisect:
                    t = 0.5 * (lo + hi)
                else:
                    t = lo + width * glo / (glo - ghi)
                    t = min(max(t, lo + 0.5 * POLISH_TARGET), hi - 0.5 * POLISH_TARGET)
                gt = tangential(t)
                if gt > 0.0:
                    lo, glo = t, gt
                    if kept == 1:
                        ghi *= 0.5
                    kept = 1
                elif gt < 0.0:
                    hi, ghi = t, gt
                    if kept == -1:
                        glo *= 0.5
                    kept = -1
                else:
                    lo = hi = t
                slow = 0 if bisect or hi - lo <= 0.5 * width else slow + 1
            t_mid = (0.5 * (lo + hi)) % TAU
            v_mid = float(np.abs(f.value(r * np.exp(1j * t_mid))))
            if sign * (v_mid - value) <= _ACCEPT_ULPS * np.spacing(value):
                theta, value, bracket = t_mid, v_mid, hi - lo
    except ZeroOnCircle:
        # A sub-grid zero: fatal for a minimum search; a maximum search
        # keeps the grid winner.
        if minimize:
            raise

    return ExtremumResult(
        theta=theta,
        z0=complex(r * np.exp(1j * theta)),
        value=value,
        grid_size=grid,
        refine_iterations=iterations,
        bracket_width=bracket,
    )


def find_min_on_circle(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Minimize |f| over ``|z| = r``.

    Ties between symmetric minimizers are broken toward the smallest grid
    angle; that is a reporting convention, not a uniqueness claim.
    """
    return _search_circle(f, r, grid, minimize=True)


def find_max_on_circle(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Maximize |f| over ``|z| = r``."""
    return _search_circle(f, r, grid, minimize=False)


def _search_disk(f: AnalyticFunction, r: float, grid: int, minimize: bool) -> ExtremumResult:
    _require_radius(r)
    if minimize:
        zeros = f.count_zeros(r, grid)
        if zeros:
            raise ZeroInDisk(f"f vanishes in |z| < {r}: {zeros} zero(s) by the argument principle")
    samples = np.append(np.abs(f.on_circle(r, 256)), abs(complex(f.value(0j))))
    if minimize:
        edge = float(samples.min())
        result = find_min_on_circle(f, r, grid)
        if result.value > edge + INTERIOR_TOL:
            raise InteriorBelowBoundary(
                f"boundary ring or origin sample {edge:.17g} "
                f"undercuts located minimum {result.value:.17g}"
            )
    else:
        edge = float(samples.max())
        result = find_max_on_circle(f, r, grid)
        if result.value < edge - INTERIOR_TOL:
            raise InteriorAboveBoundary(
                f"boundary ring or origin sample {edge:.17g} "
                f"exceeds located maximum {result.value:.17g}"
            )
    return result


def find_min_on_disk(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Minimize |f| over the closed disk ``|z| <= r``.

    For a zero-free analytic function the minimum sits on the boundary
    circle, so the search delegates there once ``f.count_zeros(r, grid)``
    finds no zero inside.  The result must not exceed |f| at the origin
    or on a 256-point boundary ring; a grid that missed the minimum, or a
    non-analytic f, exceeds it.
    """
    return _search_disk(f, r, grid, minimize=True)


def find_max_on_disk(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Maximize |f| over the closed disk ``|z| <= r`` (always on the boundary).

    The result must reach |f| at the origin and on a 256-point boundary
    ring; a grid that missed the peak, or a non-analytic f, falls short.
    """
    return _search_disk(f, r, grid, minimize=False)
