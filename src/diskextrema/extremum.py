"""Locate extrema of |f| on closed disks ``|z| <= r``, by searching their boundary circle.

The search is a certified uniform angular grid followed by one
refinement stage per candidate basin.

The grid is certified by ``slack = f.grid_slack(r, moduli, minimize)``:
between two nodes, ``u(theta) = log|f(r e^{i theta})|`` stays above the
lower node minus the slack and below the higher node plus it.  Each
function class owns its rule; the default is ``K delta^2 / 8`` for nodes
``delta`` apart, with ``K = f.log_modulus_curvature(r, moduli)`` a bound
on ``|u''|``.  The grid starts at the requested size and doubles while
the slack exceeds 1/16 of the grid's log-modulus spread plus a rounding
floor, or while the slack is None (f needs finer samples), up to the
zero count's cap of ``2^20`` samples; a function with no bound keeps its
grid.  Every grid-local extremum whose modulus is within a factor
``e^slack`` of the grid winner's may hold the true extremum, so each
one is refined, the winner first, and the best result wins (the earlier
on a tie).  For ``f(e^{2 pi i/d} z) = f(z)``, with
``d = f.rotation_order()``, a candidate within one grid step of a
rotated copy of an extremum already refined is that copy and is
skipped.  The located modulus is then within the slack of the true
extremum, and the result reports it as ``certified_gap``.

At an extremum on the circle the ratio ``z f'(z)/f(z)`` is real, i.e.
the tangential derivative of ``log |f|`` vanishes:

    d/dtheta log|f(r e^{i theta})| = -Im(z f'(z)/f(z)),  z = r e^{i theta}.

Unlike |f| itself, which is quadratically flat there, this crosses zero
linearly, so polishing its sign change pins the extremal angle to about
1e-13.  The polish starts on the two grid steps around the candidate.
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
accepted when its modulus is no worse, up to rounding, than the
candidate's grid modulus, both read by the scalar ``value``, so both
sides of the comparison come from one evaluator.  Otherwise (no sign
change, e.g. for constants; a rejected root; a sub-grid zero hit by a
maximum search) the candidate's result is its grid point itself, with
its scalar modulus and the two-step bracket ``2 * TAU / grid`` as its
width.

Disk extrema reduce to circle extrema: the maximum modulus of an analytic
function over a closed sub-disk is attained on the boundary circle, and
so is the minimum when the function has no zeros there.  The minimum
search asks ``f.count_zeros`` about each grid's samples, after the check
for a zero on a node, and doubles a grid too coarse to settle the count;
the maximum search asks for poles the same way, which only a reciprocal
can have.
Both disk searches check their result against the origin and one
256-point boundary ring, which catches functions that are not analytic
and a curvature bound that is wrong.  The result is no worse than any
node of the final grid, so when that grid is a multiple of 256 points it
holds the ring and only the origin is sampled.

These rules are written once, for one function or for a stack of them:
``_grid_settled`` accepts a grid, ``_candidates`` picks the candidates
from a ``(T, M)`` grid of moduli (``T = 1`` for one function), and
``_best`` skips rotated copies, keeps the best basin and checks the
origin and ring.  The caller brings the sampler and the polish kernel:
for one function, one ``f.on_circle`` call per grid and ``_polish`` on
``f.jet``.  A sweep searches the stack of its functions ``a0 exp(h)``
and of their reciprocals at once (``_search_exp_batch``): one ``(T, M)``
inverse FFT of the exponents serves both searches of every trial, since
``|1/f| = 1/|f|``, so the ``2T`` rows of moduli hold the minima's grids
and then the maxima's.  ``K = sum k^2 |h_k| r^k``, computed once per
trial, certifies both, and ``_polish_rows`` polishes every candidate of
every row in one vector loop, with the jets taken by Horner's rule.  A
row's result carries no ``z0``; ``_exp_jets`` takes the jets at the
located points for the sweep's chain.  Each row's arithmetic is
elementwise, so its result does not depend on the rest of the batch.  A
row whose grid would double, whose bracket holds no sign change, or that
would raise is left to the one-function search, and so is every row of a
grid that is not a multiple of 256 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InteriorAboveBoundary,
    InteriorBelowBoundary,
    ZeroInDisk,
    ZeroOnCircle,
)
from .functions import _ROUNDING, _WINDING_CAP, TAU, ZERO_THRESHOLD, AnalyticFunction
from .functions import _require_radius, _rotation_order

#: Coarsest angular grid of a circle search; the curvature certificate refines it.
DEFAULT_GRID = 256
#: Angular bracket width at which the polish stops.
POLISH_TARGET = 1e-13
#: Iteration cap for the polish.
MAX_ITERATIONS = 200
#: Slack allowed when comparing located extrema against the origin and the boundary ring.
INTERIOR_TOL = 1e-10
#: Points of the boundary ring that the disk searches check their result against.
BOUNDARY_RING = 256

#: Ulps by which the polished root may miss the grid winner's modulus.
_ACCEPT_ULPS = 4


@dataclass(frozen=True)
class ExtremumResult:
    """A located modulus extremum of the disk ``|z| <= r``, on its boundary circle.

    ``grid_size`` is the grid actually sampled, ``refine_iterations`` the
    polish steps summed over the basins refined, and ``certified_gap`` the
    curvature slack: ``log value`` is within it of the true extremum's
    (``inf`` when f cannot bound its curvature).
    """

    theta: float
    z0: complex
    value: float
    grid_size: int
    refine_iterations: int
    bracket_width: float
    certified_gap: float


def _require_grid(r: float, samples: int) -> None:
    _require_radius(r)
    if samples < 8:
        raise DomainError(f"need at least 8 samples, got {samples}")


def modulus_profile(f: AnalyticFunction, r: float, samples: int = DEFAULT_GRID) -> np.ndarray:
    """``(samples, 2)`` array of rows ``(theta_k, |f(r e^{i theta_k})|)`` on a uniform grid."""
    _require_grid(r, samples)
    thetas = TAU * np.arange(samples) / samples
    return np.column_stack((thetas, np.abs(f.on_circle(r, samples))))


def write_profile_csv(profile, fh) -> None:
    """Write a profile as ``theta,modulus`` rows with 17 significant digits."""
    fh.write("theta,modulus\n")
    for theta, modulus in np.asarray(profile).tolist():
        fh.write(f"{theta:.17g},{modulus:.17g}\n")


# Kept apart from _polish_rows, slower on one function: 1.52 -> 1.73 ms per reference_cli op (2-vCPU Xeon).
def _polish(f: AnalyticFunction, r: float, theta: float, step: float, walk: int, sign: float):
    """Refine the grid extremum at ``theta``; ``(theta, |f|, bracket width, iterations)``.

    ``sign`` is +1 for a minimum and -1 for a maximum; the bracket walks at
    most ``walk`` steps of ``step``.
    """
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
        for _ in range(walk):
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
        # keeps the grid point.
        if sign > 0.0:
            raise
    return theta, value, bracket, iterations


def _search_circle(f: AnalyticFunction, r: float, grid: int, minimize: bool) -> ExtremumResult:
    """The certified search of the boundary circle, with a minimum's zero count and the edge check."""
    _require_grid(r, grid)
    sign = 1.0 if minimize else -1.0
    zeros = None
    samples = grid
    while True:
        values = f.on_circle(r, samples)
        moduli = np.abs(values)
        low, high = float(moduli.min()), float(moduli.max())
        if minimize and low < ZERO_THRESHOLD:
            raise ZeroOnCircle(
                f"|f| = {low:.3e} on |z| = {r}; the function vanishes on the circle"
            )
        if zeros is None:
            # a minimum needs f free of zeros in the disk, a maximum free of poles
            zeros = f.count_zeros(r, values) if minimize else f._count_poles(r, values)
            if zeros:
                what = f"f vanishes in |z| < {r}: {zeros} zero(s)" if minimize else f"f has {zeros} pole(s) in |z| < {r}"
                raise ZeroInDisk(f"{what} by the argument principle")
        # The slack stays None while the count or the bound needs finer samples.
        slack = None if zeros is None else f.grid_slack(r, moduli, minimize)
        spread = math.log(high) - math.log(low) if low > 0.0 else math.inf
        done = slack is not None and _grid_settled(slack, spread)
        if done or 2 * samples > _WINDING_CAP:
            break
        samples *= 2
    slack = math.inf if slack is None else slack
    step = TAU / samples

    key = sign * moduli  # a local: freeing it before the polish made 32768-point searches 7% slower
    _, indices = _candidates(key[None], slack, spread, sign)

    def edge() -> float:
        edges = np.array([abs(complex(f.value(0j)))])
        # A ring that the final grid holds adds nothing: the result beats its nodes.
        if samples % BOUNDARY_RING:
            edges = np.append(np.abs(f.on_circle(r, BOUNDARY_RING)), edges)
        return sign * float((sign * edges).min())

    theta, value, bracket, iterations = _best(
        indices.tolist(), samples, lambda i, theta: _polish(f, r, theta, step, samples // 2, sign),
        f.rotation_order, sign, edge,
    )
    return ExtremumResult(
        theta=theta,
        z0=complex(r * np.exp(1j * theta)),
        value=value,
        grid_size=samples,
        refine_iterations=iterations,
        bracket_width=bracket,
        certified_gap=slack,
    )


def _grid_settled(slack, spread):
    """Whether a grid's slack is within 1/16 of its log-modulus spread plus rounding, or unbounded."""
    return (slack == math.inf) | (slack <= spread / 16.0 + _ROUNDING)


def _candidates(key: np.ndarray, slack, spread, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and grid indices of the candidates in a ``(T, M)`` grid of ``key = sign * |f|``.

    The winners come first, one per row: the first index of the row's least
    key, i.e. the smallest theta.  The others follow in row and grid order:
    the grid-local minima of the key (below the left neighbour, no higher
    than the right one) among the nodes within a factor ``e^slack`` of the
    winner's modulus.  A slack beyond the ``spread`` admits every node.
    """
    count, samples = key.shape
    winner = key.argmin(axis=1)
    limit = key[np.arange(count), winner] * np.exp(sign * np.minimum(slack, spread))
    rows, near = np.divmod(np.flatnonzero(key <= limit[:, None]), samples)
    near_key = key[rows, near]
    local = (near_key < key[rows, near - 1]) & (near_key <= key[rows, (near + 1) % samples])
    local &= near != winner[rows]
    return np.concatenate((np.arange(count), rows[local])), np.concatenate((winner, near[local]))


def _best(indices, samples: int, polish, rotation_order, sign: float, edge):
    """``(theta, |f|, bracket width, polish steps)`` of one circle from its candidates' grid ``indices``.

    The winner comes first.  ``polish(i, theta)`` gives :func:`_polish`'s
    tuple for candidate ``i`` at grid angle ``theta``, or None, which makes
    the result None.  A candidate within a grid step of a rotated copy
    (``rotation_order()``) of one already polished is skipped.  The best
    result wins, the earlier on a tie; one that beats ``edge()``, the least
    favourable origin or ring modulus, by more than ``INTERIOR_TOL`` raises.
    The steps are summed over the candidates polished.
    """
    step = TAU / samples
    order = rotation_order() if len(indices) > 1 else 1
    best, polished, iterations = None, [], 0
    for i, index in enumerate(indices):
        theta = TAU * index / samples  # the profile's own grid angle
        if order > 1 and _is_rotated_copy(theta, polished, order, step):
            continue
        result = polish(i, theta)
        if result is None:
            return None
        theta, value, bracket, steps = result
        polished.append(theta)
        iterations += steps
        if best is None or sign * (value - best[1]) < 0.0:
            best = (theta, value, bracket)
    theta, value, bracket = best
    bound = edge()
    if sign * value > sign * bound + INTERIOR_TOL:
        error = InteriorBelowBoundary if sign > 0.0 else InteriorAboveBoundary
        relation = "undercuts located minimum" if sign > 0.0 else "exceeds located maximum"
        raise error(f"boundary ring or origin sample {bound:.17g} {relation} {value:.17g}")
    return theta, value, bracket, iterations


def _is_rotated_copy(theta: float, polished, order: int, step: float) -> bool:
    """Whether ``theta`` is within ``step`` of ``p + 2 pi k / order``, ``0 < k < order``, for a polished ``p``."""
    period = TAU / order
    for p in polished:
        offset = (theta - p) % TAU
        k = round(offset / period)
        if k % order and abs(offset - k * period) <= step:
            return True
    return False


def _polish_rows(sample, theta: np.ndarray, step: float, sign: float):
    """:func:`_polish` of one candidate per row, as one vector loop.

    ``sample(t)`` gives ``(f, sign * Im(z f'/f))`` at ``z = r e^{i t}``,
    one angle per row.  Returns :func:`_polish`'s tuple per row, or None
    for a row whose bracket holds no sign change, which :func:`_polish`
    would walk.  The loop runs on every row until the last one settles,
    and a row's bracket and step count change only while it is active.
    """
    value = np.abs(sample(theta)[0])
    lo, hi = theta - step, theta + step
    glo, ghi = sample(lo)[1], sample(hi)[1]
    fine = (glo > 0.0) & (ghi < 0.0)
    kept = np.zeros(len(theta))  # +1 when the last step kept hi, -1 when it kept lo
    slow = np.zeros(len(theta), dtype=int)  # steps in a row that did not halve the bracket
    iterations = np.zeros(len(theta), dtype=int)
    active = fine & (hi - lo > POLISH_TARGET)
    while active.any():
        width = hi - lo
        bisect = slow >= 2
        secant = np.minimum(
            np.maximum(lo + width * glo / (glo - ghi), lo + 0.5 * POLISH_TARGET),
            hi - 0.5 * POLISH_TARGET,
        )
        t = np.where(bisect, 0.5 * (lo + hi), secant)
        gt = sample(t)[1]
        side = np.sign(gt)
        # The g kept at an end that survives a second step in a row is halved.
        halve = np.where(side == kept, 0.5, 1.0)
        glo = np.where(side > 0.0, gt, glo * halve)
        ghi = np.where(side < 0.0, gt, ghi * halve)
        kept = side
        lo = np.where(active & (side >= 0.0), t, lo)  # gt == 0 closes the bracket at t
        hi = np.where(active & (side <= 0.0), t, hi)
        span = hi - lo
        slow = np.where(bisect | (span <= 0.5 * width), 0, slow + 1)
        iterations += active
        active &= (span > POLISH_TARGET) & (iterations < MAX_ITERATIONS)
    t_mid = (0.5 * (lo + hi)) % TAU
    v_mid = np.abs(sample(t_mid)[0])
    accept = fine & (sign * (v_mid - value) <= _ACCEPT_ULPS * np.spacing(value))
    picked = [np.where(accept, a, b).tolist() for a, b in ((t_mid, theta), (v_mid, value), (hi - lo, 2.0 * step))]
    return [row if ok else None for row, ok in zip(zip(*picked, iterations.tolist()), fine.tolist())]


class _RowExtremum(NamedTuple):
    """One row of :func:`_search_exp_batch`: the :class:`ExtremumResult` fields but ``z0`` and ``grid_size``."""

    theta: float
    value: float
    bracket_width: float
    refine_iterations: int
    certified_gap: float


def _search_exp_batch(a0: np.ndarray, h: np.ndarray, r: np.ndarray, grid: int) -> tuple[list, list]:
    """:func:`find_min_on_disk` of each row's ``f = a0 exp(h)`` and :func:`find_max_on_disk` of its ``1/f``.

    ``a0`` and ``r`` are ``(T,)`` arrays and ``h`` is ``(T, W)``, the
    exponents' coefficients of ``z^0 .. z^(W-1)``, with ``W <= grid``.  One
    transform per row serves both searches, since ``|1/f| = 1/|f|``: rows
    ``0 .. T-1`` of the moduli are the minima's grids and rows ``T .. 2T-1``
    the maxima's, and one polish loop serves all ``2T`` rows.  Returns the
    minima and the maxima, a :class:`_RowExtremum` on ``grid`` per trial.
    A search that the scalar one would refine to a finer grid, walk, or
    raise for is None, and so is every search when ``grid`` is not a
    multiple of ``BOUNDARY_RING``; the caller runs the scalar search for
    those.
    """
    count = len(a0)
    if grid < BOUNDARY_RING or grid % BOUNDARY_RING:
        return [None] * count, [None] * count
    sign = np.repeat([1.0, -1.0], count)
    step = TAU / grid
    k = np.arange(h.shape[1])
    # Rows out of range come back None, for the scalar search to raise.
    with np.errstate(all="ignore"):
        power = r[:, None] ** k
        # The transform pads the coefficients itself, and the samples are freed before the polish.
        spectrum = np.fft.ifft(h * power, n=grid, axis=1)
        spectrum *= grid
        # |a0 exp(h)| = |a0| e^{Re h}, and |1/f| is its reciprocal.
        moduli = np.empty((2 * count, grid))
        np.exp(spectrum.real, out=moduli[:count])
        del spectrum
        moduli[:count] *= np.abs(a0)[:, None]
        np.divide(1.0, moduli[:count], out=moduli[count:])
        low, high = moduli.min(axis=1), moduli.max(axis=1)
        # ExpSeriesFunction.log_modulus_curvature, which 1/f shares.
        slack = np.tile((k * k * (np.abs(h) * power)).sum(axis=1) * step**2 / 8.0, 2)
        spread = np.log(high) - np.log(low)
        ok = (
            np.tile((r > 0.0) & (r < 1.0), 2)
            & np.isfinite(moduli).all(axis=1)
            & _grid_settled(slack, spread)
            # |f| stays above low e^-slack on the whole circle, so no polish
            # step meets the zero threshold of the scalar search.
            & (low * np.exp(-slack) > ZERO_THRESHOLD)
        )
        rows, index = _candidates(sign[:, None] * moduli, slack, spread, sign)
        rows, index = rows[ok[rows]], index[ok[rows]]

        trial = rows % count
        coeffs = _horner_stack(h[trial], 1)
        scale, radius, lows, signs = a0[trial], r[trial], rows < count, sign[rows]

        def sample(t: np.ndarray):
            z = radius * np.exp(1j * (t % TAU))
            exponent, slope = _horner(coeffs, z)
            inner = scale * np.exp(exponent)  # ExpSeriesFunction.jet
            d1 = inner * slope
            # Reciprocal.jet on the rows of a maximum
            value = np.where(lows, inner, 1.0 / inner)
            d1 = np.where(lows, d1, -d1 / (inner * inner))
            return value, signs * (z * d1 / value).imag

        # Every candidate is polished in one loop, then the shared rules settle
        # each row; a rotated copy that they skip leaves its result unread.
        polished = _polish_rows(sample, TAU * index / grid, step, signs)
        origin = np.abs(np.concatenate((a0, 1.0 / a0))).tolist()  # |f(0)| = |a0 exp(0)|
    positions: dict[int, list[int]] = {}
    for position, row in enumerate(rows.tolist()):
        positions.setdefault(row, []).append(position)
    index = index.tolist()

    slack, sign = slack.tolist(), sign.tolist()
    out: list = [None] * (2 * count)
    for row, ps in positions.items():
        try:  # the grid is a multiple of the ring, so the origin is the only edge
            best = _best(
                [index[p] for p in ps], grid, lambda i, t, ps=ps: polished[ps[i]],
                lambda row=row: _rotation_order(h[row % count]), sign[row], lambda row=row: origin[row],
            )
        except (InteriorBelowBoundary, InteriorAboveBoundary):
            continue  # the scalar search raises it at the row's own trial
        if best is not None:
            out[row] = _RowExtremum(*best, slack[row])
    return out[:count], out[count:]


def _horner_stack(h: np.ndarray, derivatives: int) -> np.ndarray:
    """Horner coefficients of each row of ``h`` and of its first ``derivatives`` derivatives.

    ``h`` is ``(T, W)``, the coefficients of ``z^0 .. z^(W-1)``; the stack is
    ``(W, derivatives + 1, T)``, highest power first.
    """
    k = np.arange(h.shape[1])
    blocks = [h]
    for _ in range(derivatives):
        derivative = np.zeros_like(h)
        derivative[:, :-1] = blocks[-1][:, 1:] * k[1:]
        blocks.append(derivative)
    return np.ascontiguousarray(np.stack(blocks)[:, :, ::-1].transpose(2, 0, 1))


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomials of a :func:`_horner_stack` at ``z``, one point per row: ``(derivatives + 1, T)``."""
    acc = coeffs[0].copy()
    for c in coeffs[1:]:
        acc *= z
        acc += c
    return acc


def _exp_jets(a0: np.ndarray, h: np.ndarray, z: np.ndarray, minimize: bool):
    """``(f, f', f'')`` at ``z`` of each row's ``f = a0 exp(h)``, or of ``1/f``.

    The arguments are as in :func:`_search_exp_batch`, with one point per
    row; the jets follow ``ExpSeriesFunction.jet`` and ``Reciprocal.jet``,
    by Horner's rule along the coefficients.
    """
    exponent, slope, bend = _horner(_horner_stack(h, 2), z)
    f = a0 * np.exp(exponent)
    d1 = f * slope
    d2 = f * (bend + slope * slope)
    if minimize:
        return f, d1, d2
    return 1.0 / f, -d1 / (f * f), (2.0 * d1 * d1 / f - d2) / (f * f)


def find_min_on_disk(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Minimize |f| over the closed disk ``|z| <= r``, starting from a ``grid``-point circle grid.

    For a zero-free analytic function the minimum sits on the boundary
    circle, so the search runs there once ``f.count_zeros`` finds no zero
    inside from the samples of one of its grids.  The grid doubles until
    its curvature slack is small; every basin within that slack of the
    grid winner is polished, except rotated copies of one already
    polished.  Of equal results the earlier candidate is kept: the grid
    winner, then increasing grid angle.  That is a reporting convention,
    not a uniqueness claim.  The result must not exceed |f| at the origin
    or on a 256-point boundary ring (sampled only when the final grid does
    not hold it); a non-analytic f, or one whose curvature bound is wrong,
    can exceed it.
    """
    return _search_circle(f, r, grid, minimize=True)


def find_max_on_disk(f: AnalyticFunction, r: float, grid: int = DEFAULT_GRID) -> ExtremumResult:
    """Maximize |f| over the closed disk ``|z| <= r`` (always on the boundary).

    The grid is certified and refined as in :func:`find_min_on_disk`, with
    the same tie rule, by the maximum's ``f.grid_slack``.  The result must reach |f| at the origin and on a 256-point
    boundary ring (sampled only when the final grid does not hold it); a
    non-analytic f, or one whose curvature bound is wrong, can fall short.
    """
    return _search_circle(f, r, grid, minimize=False)
