"""Uniform analytic-function interface and concrete families.

Everything downstream (extremum search, inequality checks) talks to an
:class:`AnalyticFunction`: a function on the open unit disk exposing its
values, and at a single point its jet ``(f, f', f'')`` in one call, so
that shared work (``exp(h)``, an inner function's value, ``z^n``) is done
once per point.  Implementations here:

* :class:`SeriesFunction` -- backed by a truncated :class:`PowerSeries`;
* :class:`ExampleFamily` -- the Mobius-of-``z^n`` family with closed-form
  modulus geometry, used as the reference for end-to-end checks;
* :class:`ExpSeriesFunction` -- ``a0 * exp(h(z))``, never zero anywhere,
  the workhorse of the randomized falsification sweeps;
* :class:`Reciprocal` -- pointwise ``1/f``, the duality construction that
  turns minimum-modulus statements into maximum-modulus ones.

``on_circle`` samples a whole circle at once.  The default evaluates
``value`` at the grid points; the series-backed classes override it with
the FFT of :meth:`PowerSeries.on_circle`.

``count_zeros`` counts the zeros inside a circle, the hypothesis of every
minimum-modulus statement.  The exponential, the reference family and the
reciprocal have none by construction.  A series tries Rouche's theorem
against its constant term and otherwise takes the winding number of the
circle samples it is given, once they are fine enough to make it exact.
A maximum needs f free of poles instead, which every class is but the
reciprocal: it counts the zeros of its inner function from the same
samples.

``grid_slack`` is what lets the extremum search trust a coarse grid:
how far, in log-modulus, the extremum between two nodes can lie beyond
the nodes.  Each class bounds ``|d^2/dtheta^2 log|f(r e^{i theta})||`` on
a circle by ``K = log_modulus_curvature``, and between two nodes
``delta`` apart the log-modulus can dip below the lower node by at most
``K delta^2 / 8``; that is the slack of every search but a series'
maximum, which bounds the curvature of ``|f|^2`` instead.  A series with
no dominant term floors ``|f|`` from the grid's moduli.  These methods
answer None on samples too coarse for them.  ``rotation_order`` names the
``d`` with ``f(e^{2 pi i/d} z) = f(z)``, so that the search polishes one
basin of each set of rotated copies.
"""

from __future__ import annotations

import cmath
import math
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ZeroDenominator, ZeroOnCircle
from .series import TAU, PowerSeries

#: Moduli below this are treated as zeros of f, by the extremum search and the chain checks.
ZERO_THRESHOLD = 1e-13
#: Relative rounding allowed in a tail sum or an FFT sample of a series
#: (and so in a grid's log-modulus, for the extremum search).
_ROUNDING = 64 * np.finfo(np.float64).eps
#: Most circle samples a winding count, or a certified extremum grid, may
#: take; it also keeps the summed phase rounding, about
#: ``M^2 * _ROUNDING``, far below pi.
_WINDING_CAP = 1 << 20


@lru_cache(maxsize=8)
def _unit_circle(samples: int) -> np.ndarray:
    """``e^{i theta_k}`` with ``theta_k = TAU * k / samples``, computed once per grid size."""
    roots = np.exp(1j * (TAU * np.arange(samples) / samples))
    roots.setflags(write=False)
    return roots


def _tail_moment(s: PowerSeries, r: float, p: int, j: int = 0) -> float:
    """``sum_{k != j} |k - j|^p |a_k| r^k`` over the coefficients of ``s``.

    ``j = 0`` sums the stored tail: ``sum k^p |a_k| r^k``.
    """
    k = np.arange(s.n, s.order + 1)
    terms = np.abs(k - j) ** p * (np.abs(s.coeffs) * r**k)
    if j == 0:
        return float(terms.sum())
    return float(terms[k != j].sum()) + j**p * abs(s.a0)


def _rotation_order(coeffs: np.ndarray, first: int = 0) -> int:
    """gcd of the indices of the nonzero ``coeffs``, counted from ``first`` (1 for a constant)."""
    return math.gcd(*(np.flatnonzero(coeffs) + first).tolist()) or 1


def _require_in_disk(z) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("point must lie in the open unit disk (|z| < 1)")


def _require_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise DomainError(f"circle radius must lie in (0, 1), got {r}")


class AnalyticFunction(ABC):
    """A function analytic on the open unit disk, with two derivatives.

    ``value`` accepts a complex scalar or a numpy array and evaluates
    elementwise.  ``jet`` takes a single point.  ``a0`` is the value at
    the origin and ``n`` the index of the first Taylor coefficient past
    the constant that may be nonzero.
    """

    a0: complex
    n: int

    @abstractmethod
    def value(self, z): ...

    @abstractmethod
    def jet(self, z):
        """``(f(z), f'(z), f''(z))`` at a single point; ``f(z)`` has the bits of ``value(z)``."""

    @abstractmethod
    def is_constant(self) -> bool:
        """True when f is numerically indistinguishable from its value ``a0``."""

    @abstractmethod
    def count_zeros(self, r: float, values: np.ndarray) -> int | None:
        """Number of zeros in ``|z| < r``, with multiplicity.

        ``values`` are f at ``M`` equispaced points of the circle; None: too coarse.
        """

    @abstractmethod
    def log_modulus_curvature(self, r: float, moduli: np.ndarray) -> float | None:
        """``K >= max |d^2/dtheta^2 log|f(r e^{i theta})||`` on ``|z| = r``.

        ``moduli`` are ``|f|`` at ``M`` equispaced points; None when too
        coarse, ``math.inf`` when the class cannot bound ``K`` on this circle.
        """

    def grid_slack(self, r: float, moduli: np.ndarray, minimize: bool) -> float | None:
        """How far ``log|f|`` can pass the ``M`` grid ``moduli`` between two nodes.

        This default, in both searches, is ``K (2 pi / M)^2 / 8`` with ``K``
        the :meth:`log_modulus_curvature`: None while the moduli are too
        coarse to bound ``K``, ``inf`` when ``K`` is.
        """
        curvature = self.log_modulus_curvature(r, moduli)
        return None if curvature is None else float(curvature * (TAU / len(moduli)) ** 2 / 8.0)

    def rotation_order(self) -> int:
        """A ``d >= 1`` with ``f(e^{2 pi i/d} z) = f(z)``; this default claims none."""
        return 1

    def _count_poles(self, r: float, values: np.ndarray) -> int | None:
        """Number of poles in ``|z| < r``, as :meth:`count_zeros` counts zeros: none, for an analytic f."""
        return 0

    def on_circle(self, r: float, samples: int) -> np.ndarray:
        """Values at ``r e^{i theta_k}``, ``theta_k = 2 pi k / samples``.

        This default evaluates ``value`` at those points.
        """
        return self.value(r * _unit_circle(samples))


class SeriesFunction(AnalyticFunction):
    """Evaluation interface over a truncated power series."""

    def __init__(self, series: PowerSeries):
        self.series = series
        self._d1 = series.differentiate()
        self._d2 = self._d1.differentiate()
        self.a0 = series.a0
        self.n = series.n

    def value(self, z):
        return self.series(z)

    def on_circle(self, r: float, samples: int) -> np.ndarray:
        return self.series.on_circle(r, samples)

    def jet(self, z):
        return self.series(z), self._d1(z), self._d2(z)

    def is_constant(self) -> bool:
        return self.series.is_constant()

    def rotation_order(self) -> int:
        return _rotation_order(self.series.coeffs, self.series.n)

    def _floor(self, r: float, moduli: np.ndarray) -> float | None:
        """A floor of ``|f|`` on ``|z| = r`` from its ``moduli`` at ``M`` equispaced points.

        ``|f|`` stays above ``min_j |f(z_j)| - (pi / M) S1 - noise`` on the
        whole circle, where ``S1 = sum k |a_k| r^k`` bounds ``r max |f'|``.
        That floor is returned once ``(2 pi / M) S1 + noise < min_j |f(z_j)|``,
        so that it is positive and each phase step between neighbours is
        the principal one.  Before that, None asks for a grid twice as
        fine, and 0 says that no grid within ``_WINDING_CAP`` samples gets
        there (a zero on the circle or too close to it).
        """
        s = self.series
        slope = _tail_moment(s, r, 1)
        noise = _ROUNDING * (abs(s.a0) + _tail_moment(s, r, 0))
        m = len(moduli)
        low = float(moduli.min())
        if TAU / m * slope + noise < low:
            return low - 0.5 * TAU / m * slope - noise
        if TAU / _WINDING_CAP * slope + noise >= low or 2 * m > _WINDING_CAP:
            return 0.0
        return None

    def count_zeros(self, r: float, values: np.ndarray) -> int | None:
        """Rouche's theorem when ``|a0| > sum |a_k| r^k``, else the winding number of ``values``.

        The winding is exact on samples that :meth:`_floor` floors; a circle
        that no grid within the cap floors raises DomainError.  Both tests
        allow for the rounding of the sums.
        """
        _require_radius(r)
        s = self.series
        tail = _tail_moment(s, r, 0)
        if tail + _ROUNDING * (abs(s.a0) + tail) < abs(s.a0):
            return 0
        floor = self._floor(r, np.abs(values))
        if floor is None:
            return None
        if not floor:
            raise DomainError(
                f"cannot count zeros in |z| < {r} with {_WINDING_CAP} samples: "
                f"min |f| on the circle is {float(np.abs(values).min()):.3e}"
            )
        return round(float(np.angle(np.roll(values, -1) / values).sum()) / TAU)

    def _largest_term(self, r: float) -> int:
        """The ``j`` of the largest term ``|a_j| r^j`` on the circle, ``0`` on a tie with ``a0``."""
        s = self.series
        terms = np.abs(s.coeffs) * r ** np.arange(s.n, s.order + 1)
        if len(terms) and terms.max() > abs(s.a0):
            return s.n + int(terms.argmax())
        return 0

    def log_modulus_curvature(self, r: float, moduli: np.ndarray) -> float | None:
        """``S2/L + (S1/L)^2`` with ``S_p = sum_{k != j} |k - j|^p |a_k| r^k`` and ``L <= min |f|``.

        ``a_j z^j`` is the largest term on the circle.  There
        ``f = e^{i j theta} G(theta)`` with the trigonometric polynomial
        ``G = sum a_k r^k e^{i (k - j) theta}``, so ``log|f| = log|G|`` has
        second derivative ``Re(G''/G - (G'/G)^2)`` with ``|G'| <= S1``,
        ``|G''| <= S2`` and ``|G| = |f| >= L``.  ``L`` is the Rouche margin
        ``|a_j| r^j - S0`` of f against its largest term when that is
        positive (for ``j = 0`` the margin of :meth:`count_zeros`), else
        the :meth:`_floor` of ``moduli``: None while they are too coarse
        for it, and ``inf`` when no grid floors ``|f|`` (a zero on the
        circle or too close).  A monomial gets ``0``.
        """
        _require_radius(r)
        s = self.series
        j = self._largest_term(r)
        tail = _tail_moment(s, r, 0, j)
        margin = (abs(s.a0) if j == 0 else abs(s.coeffs[j - s.n]) * r**j) - tail
        if margin <= 0.0:
            margin = self._floor(r, moduli)
            if not margin:
                return None if margin is None else math.inf
        slope = _tail_moment(s, r, 1, j) / margin
        return _tail_moment(s, r, 2, j) / margin + slope * slope

    def grid_slack(self, r: float, moduli: np.ndarray, minimize: bool) -> float | None:
        """A maximum's slack ``-log(1 - x) / 2`` with ``x = C (2 pi / M)^2 / (8 H^2)``.

        ``C`` is the :meth:`square_modulus_curvature` and ``H`` the highest
        of the ``M`` grid ``moduli``.  ``|f|^2`` drops at most ``x H^2``
        from a local maximum to its nearest node, and rises at most that
        above the highest node; None for ``x >= 1``.  No floor of ``|f|``
        enters, which keeps series with zeros near the circle, like those
        with ``f(0) = 0`` of the maximum lemma, cheap.  A minimum, and a
        ``C`` that overflows, take the log-modulus slack.
        """
        square = math.inf if minimize else self.square_modulus_curvature(r)
        if square == math.inf:
            return super().grid_slack(r, moduli, minimize)
        high = float(moduli.max())
        x = square * (TAU / len(moduli)) ** 2 / (8.0 * high * high) if square else 0.0
        return -0.5 * math.log1p(-x) if x < 1.0 else None

    def square_modulus_curvature(self, r: float) -> float:
        """``min(D^2 B^2, 2 (B S2 + S1^2))`` with ``B = sum |a_k| r^k``.

        ``|f|^2 = |G|^2`` with ``G``, ``S1`` and ``S2`` as in
        :meth:`log_modulus_curvature`, so its second derivative
        ``2 Re(G'' conj(G)) + 2 |G'|^2`` is at most ``2 (B S2 + S1^2)``.
        ``|f|^2`` is also a trigonometric polynomial of degree ``D``, the
        spread of the indices of the nonzero coefficients, and at most
        ``B^2``, so Bernstein's inequality bounds it by ``D^2 B^2``.  No
        floor of ``|f|`` enters, so near-zeros cost nothing.
        """
        _require_radius(r)
        s = self.series
        j = self._largest_term(r)
        total = abs(s.a0) + _tail_moment(s, r, 0)
        indices = np.flatnonzero(s.coeffs) + s.n
        if not len(indices):
            return 0.0
        degree = int(indices.max()) - (0 if s.a0 != 0 else int(indices.min()))
        slope = _tail_moment(s, r, 1, j)
        return min(degree * degree * total * total, 2.0 * (total * _tail_moment(s, r, 2, j) + slope * slope))


class DiskImage(NamedTuple):
    center: complex
    radius: float


class MinPoint(NamedTuple):
    z0: complex
    min_modulus: float


class ChainValues(NamedTuple):
    """Closed-form values of the quantities verified at a minimum."""

    m: float
    bound: float
    schwarz: float


class ExampleFamily(AnalyticFunction):
    """The family ``f(z) = (a0 + (u - a0) z^n) / (1 - z^n)`` with ``u = a0/|a0|``.

    Equivalently ``f(z) = a0 + u w/(1-w)`` with ``w = z^n``, i.e. a Mobius
    transform applied to ``z^n``; its Taylor expansion is
    ``a0 + u z^n + u z^{2n} + ...``.  Because Mobius maps send circles to
    circles, every sub-disk ``|z| <= r`` is mapped onto an explicit round
    disk, so the location and value of the modulus minimum, the
    log-derivative ratio there, and the curvature quantity all have closed
    forms.  That makes the family the reference against which the numeric
    search pipeline is validated.

    Requires ``|a0| > 1/2``, which keeps the minimum modulus positive on
    every sub-disk (the function then has no zeros to spoil the
    minimum-modulus reasoning).
    """

    def __init__(self, a0: complex, n: int):
        a0 = complex(a0)
        if not cmath.isfinite(a0):
            raise DomainError(f"family requires a finite a0, got {a0}")
        if abs(a0) <= 0.5:
            raise DomainError(f"family requires |a0| > 1/2, got |a0| = {abs(a0)}")
        if int(n) != n or n < 1:
            raise DomainError(f"power index must be a positive integer, got {n!r}")
        self.a0 = a0
        self.n = int(n)
        self.u = a0 / abs(a0)

    def value(self, z):
        _require_in_disk(z)
        w = z**self.n
        return self.a0 + self.u * w / (1.0 - w)

    def jet(self, z):
        _require_in_disk(z)
        n, u = self.n, self.u
        w = z**n
        q = 1.0 - w
        d2 = 2.0 * n * z ** (2 * (n - 1)) / q**3
        if n > 1:
            d2 = d2 + (n - 1) * z ** (n - 2) / q**2
        return self.a0 + u * w / q, u * n * z ** (n - 1) / q**2, u * n * d2

    def is_constant(self) -> bool:
        return False  # the z^n coefficient is u with |u| = 1

    def count_zeros(self, r: float, values: np.ndarray) -> int:
        return 0  # zeros only at |z|^n = |a0| / ||a0| - 1| > 1

    def rotation_order(self) -> int:
        return self.n  # f is a function of z^n

    def log_modulus_curvature(self, r: float, moduli: np.ndarray) -> float:
        """``n^2 [q1/(1-q1)^2 + q2/(1-q2)^2]``, ``q1 = |1 - 1/|a0|| r^n``, ``q2 = r^n``.

        ``f = a0 (1 - c w)/(1 - w)`` with ``w = z^n`` and ``c = 1 - u/a0``,
        and ``d^2/dphi^2 log|1 - q e^{i phi}| = Re sum k q^k e^{i k phi}``
        is at most ``q/(1-q)^2``.
        """
        _require_radius(r)
        q2 = r**self.n
        q1 = abs(1.0 - 1.0 / abs(self.a0)) * q2
        return self.n**2 * (q1 / (1.0 - q1) ** 2 + q2 / (1.0 - q2) ** 2)

    def image_disk(self, r: float) -> DiskImage:
        """The round disk onto which ``|z| <= r`` is mapped.

        center ``a0 + u r^{2n}/(1 - r^{2n})``, radius ``r^n/(1 - r^{2n})``.
        """
        _require_radius(r)
        r2n = r ** (2 * self.n)
        return DiskImage(self.a0 + self.u * r2n / (1.0 - r2n), r**self.n / (1.0 - r2n))

    def min_point(self, r: float) -> MinPoint:
        """A modulus minimizer on ``|z| <= r`` and the minimal modulus.

        ``z0 = r e^{i pi/n}`` (any angle with ``z^n = -r^n`` works; this is
        the smallest positive one) and ``min |f| = |a0| - r^n/(1 + r^n)``.
        """
        _require_radius(r)
        rn = r**self.n
        return MinPoint(r * np.exp(1j * np.pi / self.n), abs(self.a0) - rn / (1.0 + rn))

    def closed_chain(self, r: float) -> ChainValues:
        """Closed forms of the three quantities checked at the minimum.

        ``m = n r^n / ((1+r^n)(|a0| - (1-|a0|) r^n))`` is minus the
        log-derivative ratio at ``z0``; ``bound`` is the squared-difference
        lower bound ``n r^n / (2|a0| + (2|a0|-1) r^n)``; ``schwarz`` is
        ``Re(z0 f''/f') + 1 = n (1-r^n)/(1+r^n)``.  For this family
        ``m > 0``, ``schwarz > 0 > -m`` and ``bound < m`` strictly.
        """
        _require_radius(r)
        absa = abs(self.a0)
        n = self.n
        rn = r**n
        m = n * rn / ((1.0 + rn) * (absa - (1.0 - absa) * rn))
        bound = n * rn / (2.0 * absa + (2.0 * absa - 1.0) * rn)
        schwarz = n * (1.0 - rn) / (1.0 + rn)
        if not (m > 0.0 and schwarz > 0.0 > -m and bound < m):
            raise DomainError("closed-form chain violated; parameters out of range")
        return ChainValues(m, bound, schwarz)


class ExpSeriesFunction(AnalyticFunction):
    """``f(z) = a0 * exp(h(z))`` for a polynomial ``h`` with ``h(0) = 0``.

    Exponentials never vanish, so these functions satisfy the
    no-zeros hypothesis of the minimum-modulus statements exactly, which
    is what makes them the right generator for randomized sweeps.  The
    value and both derivatives come from the closed form
    (``f' = f h'``, ``f'' = f (h'' + h'^2)``), not from a truncated
    exponential, so no truncation zeros can sneak in; ``jet`` takes
    ``exp(h)`` once for all three.
    """

    def __init__(self, a0: complex, h: PowerSeries):
        if h.a0 != 0:
            raise DomainError("exponent series must have zero constant term")
        a0 = complex(a0)
        if a0 == 0:
            raise DomainError("a0 must be nonzero")
        self.a0 = a0
        self.n = h.n
        self.h = h
        self._h1 = h.differentiate()
        self._h2 = self._h1.differentiate()

    def value(self, z):
        return self.a0 * np.exp(self.h(z))

    def on_circle(self, r: float, samples: int) -> np.ndarray:
        return self.a0 * np.exp(self.h.on_circle(r, samples))

    def jet(self, z):
        f = self.a0 * np.exp(self.h(z))
        h1 = self._h1(z)
        return f, f * h1, f * (self._h2(z) + h1 * h1)

    def is_constant(self) -> bool:
        return self.h.is_constant()

    def count_zeros(self, r: float, values: np.ndarray) -> int:
        return 0  # exp never vanishes

    def rotation_order(self) -> int:
        return _rotation_order(self.h.coeffs, self.h.n)

    def log_modulus_curvature(self, r: float, moduli: np.ndarray) -> float:
        """``sum k^2 |h_k| r^k``, since ``log|f| = log|a0| + Re h``."""
        return _tail_moment(self.h, r, 2)


def _reciprocal_jet(v, d1, d2):
    """The jet ``(1/f, (1/f)', (1/f)'')`` of ``1/f`` from the jet ``(f, f', f'')``, on scalars or arrays."""
    return 1.0 / v, -d1 / (v * v), (2.0 * d1 * d1 / v - d2) / (v * v)


class Reciprocal(AnalyticFunction):
    """Pointwise ``1/f``; defined wherever ``f`` has no zeros.

    ``1/f`` keeps the class index ``n`` (its expansion is
    ``1/a0 + c_n z^n + ...``), which is exactly why minimum-modulus
    statements for ``f`` reduce to maximum-modulus ones for ``1/f``.
    """

    def __init__(self, inner: AnalyticFunction):
        if inner.a0 == 0:
            raise DomainError("cannot take the reciprocal of a function with f(0) = 0")
        self.inner = inner
        self.a0 = 1.0 / complex(inner.a0)
        self.n = inner.n

    def value(self, z):
        try:
            return 1.0 / self.inner.value(z)
        except ZeroDivisionError:  # a single point; arrays give inf
            raise self._pole(z) from None

    def on_circle(self, r: float, samples: int) -> np.ndarray:
        """``1 / f`` at the grid points; raises ZeroOnCircle at a pole, before dividing."""
        values = self.inner.on_circle(r, samples)
        pole = int(np.abs(values).argmin())
        if abs(values[pole]) < ZERO_THRESHOLD:
            raise ZeroOnCircle(f"1/f has a pole at theta = {TAU * pole / samples} on |z| = {r}")
        return 1.0 / values

    def jet(self, z):
        jet = self.inner.jet(z)
        try:
            return _reciprocal_jet(*jet)
        except ZeroDivisionError:
            raise self._pole(z) from None

    @staticmethod
    def _pole(z) -> ZeroDenominator:
        return ZeroDenominator(f"1/f has a pole at z = {complex(z)}: f vanishes there")

    def is_constant(self) -> bool:
        return self.inner.is_constant()

    def count_zeros(self, r: float, values: np.ndarray) -> int:
        return 0  # 1/f never vanishes

    def _count_poles(self, r: float, values: np.ndarray) -> int | None:
        """The zeros of f in ``|z| < r``, counted from the ``values`` of ``1/f``."""
        return self.inner.count_zeros(r, 1.0 / values)

    def rotation_order(self) -> int:
        return self.inner.rotation_order()

    def log_modulus_curvature(self, r: float, moduli: np.ndarray) -> float | None:
        return self.inner.log_modulus_curvature(r, 1.0 / moduli)  # log|1/f| = -log|f|
