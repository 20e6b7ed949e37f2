"""Truncated power-series algebra on the open unit disk.

A series is the polynomial ``a0 + sum_{k=n}^{N} a_k z^k``.  The indices
``1..n-1`` are structurally zero and never stored, which keeps the
"first non-constant term at index >= n" structure visible in the
representation itself.  A truncated series is treated as an exact
polynomial (a polynomial is a perfectly good analytic function on the
disk), so no tail estimation is performed anywhere.

Evaluation has one path per shape of call:

* a single point (a Python or numpy scalar, or a 0-d array) runs Horner
  in Python ``complex`` over a reversed-coefficient tuple cached at
  construction, with a plain ``abs(z) >= 1`` domain check.  It rounds
  exactly like Horner in numpy complex scalars, without their per-call
  overhead;
* an array of points runs the same Horner recurrence elementwise in
  numpy; it is the evaluator for arbitrary point sets.  numpy's
  vectorized complex multiply may fuse multiply-adds, so its results can
  differ from the single-point path in the last bits;
* a whole circle (:meth:`PowerSeries.on_circle`) is one pruned inverse
  FFT.  On ``|z| = r`` sampled at ``theta_j = 2 pi j / M`` the tail is
  the discrete Fourier sum ``sum_k (a_k r^k) w_M^{jk}``, with
  ``w_M = e^{2 pi i / M}``.  Only the ``N + 1`` lowest of its ``M`` bins
  can be nonzero, so the transform length ``L`` starts at ``M`` and is
  halved while it stays even and ``L / 2 >= N + 1``.  Writing
  ``j = p + s q`` with ``s = M / L``, ``0 <= p < s`` and ``0 <= q < L``
  gives ``w_M^{jk} = w_M^{pk} w_L^{qk}``: the scaled coefficients are
  multiplied by a twiddle table ``w_M^{pk}`` (computed once per
  ``(M, L)``), ``s`` unnormalized inverse FFTs of length ``L`` give the
  values at ``q = 0..L-1`` for each ``p``, and the transpose puts them in
  the order ``j``.  An order at or above ``M`` keeps ``L = M`` and
  ``s = 1``, and index ``k`` is folded into bin ``k mod M`` first, which
  is exact since ``w_M^{jk}`` has period ``M`` in ``k``.  ``a0`` is
  added last, and the radius is validated once per call, not per point.
  (FFT pruning for zero-padded input: Markel, IEEE Trans. Audio
  Electroacoust. 19, 1971; Sorensen & Burrus, IEEE Trans. Signal
  Process. 41, 1993.)
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SeriesFormatError

#: Truncation order used when a caller does not request one explicitly.
DEFAULT_ORDER = 32
#: Coefficient magnitude at or below which a series counts as its constant term.
CONSTANT_TOL = 1e-15
#: One full turn, in radians.
TAU = 2.0 * np.pi


@lru_cache(maxsize=8)
def _twiddles(samples: int, length: int) -> np.ndarray:
    """Table ``e^{i TAU p k / samples}``, ``p < samples // length``, ``k < length``."""
    p = np.arange(samples // length)[:, None]
    table = np.exp(1j * (TAU * ((p * np.arange(length)) % samples) / samples))
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Polynomial ``a0 + sum_{k=n}^{N} coeffs[k-n] z^k``.

    ``n >= 1`` is the first index that may carry a non-constant term.
    ``coeffs`` holds the coefficients for indices ``n..N`` densely; an
    empty array means the series is just the constant ``a0``.
    """

    a0: complex
    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"first coefficient index must be a positive integer, got {self.n!r}")
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1).copy()
        c.setflags(write=False)
        object.__setattr__(self, "a0", complex(self.a0))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "coeffs", c)
        # Horner order, as Python complex, so a single point never touches numpy.
        object.__setattr__(self, "_reversed", tuple(c[::-1].tolist()))

    @property
    def order(self) -> int:
        """Truncation order N (``n - 1`` for a bare constant)."""
        return self.n + len(self.coeffs) - 1

    def is_constant(self) -> bool:
        """True when every stored coefficient has magnitude <= ``CONSTANT_TOL``."""
        if len(self.coeffs) == 0:
            return True
        return bool(np.max(np.abs(self.coeffs)) <= CONSTANT_TOL)

    def dense_coefficients(self, order: int | None = None) -> np.ndarray:
        """Coefficients ``a_0..a_order`` as one dense vector."""
        if order is None:
            order = max(self.order, 0)
        out = np.zeros(order + 1, dtype=np.complex128)
        out[0] = self.a0
        stop = min(self.order, order)
        if stop >= self.n:
            out[self.n : stop + 1] = self.coeffs[: stop - self.n + 1]
        return out

    def __call__(self, z):
        """Evaluate at ``z`` (scalar or ndarray) with ``|z| < 1``.

        Horner evaluation of the stored tail, then one multiplication by
        ``z**n``; evaluation at 0 returns ``a0`` exactly.  A single point
        is evaluated in Python ``complex`` and returned as ``complex``;
        an array is evaluated elementwise in numpy.
        """
        if isinstance(z, np.ndarray) and z.ndim:
            outside = np.any(np.abs(z) >= 1.0)
        else:
            z = complex(z)
            outside = abs(z) >= 1.0
        if outside:
            raise DomainError("evaluation point must satisfy |z| < 1")
        acc = 0.0 + 0.0j
        for c in self._reversed:
            acc = acc * z + c
        return self.a0 + acc * z**self.n

    def on_circle(self, r: float, samples: int) -> np.ndarray:
        """Values at ``r * e^{2 pi i k / samples}``, ``k = 0..samples-1``.

        Scales the tail by ``r^k`` and takes ``samples / L`` twiddled
        inverse FFTs of length ``L``: ``samples`` halved while it is even
        and the half still holds every coefficient.  An order at or above
        ``samples`` folds index ``k`` into bin ``k mod samples`` (exact,
        aliasing included).  ``a0`` is added last.
        """
        if not 0.0 <= r < 1.0:
            raise DomainError(f"circle radius must satisfy 0 <= r < 1, got {r}")
        if int(samples) != samples or samples < 1:
            raise DomainError(f"samples must be a positive integer, got {samples!r}")
        size = self.order + 1
        length = samples = int(samples)
        while length % 2 == 0 and length // 2 >= size:
            length //= 2
        folds = -(-size // length)
        bins = np.zeros(folds * length, dtype=np.complex128)
        bins[self.n : size] = self.coeffs * r ** np.arange(self.n, size)
        # one expression, and a0 added in place, so that no more than two
        # samples-sized arrays are alive at once
        values = np.fft.ifft(
            bins.reshape(folds, length).sum(axis=0) * _twiddles(samples, length),
            axis=1,
            norm="forward",
        ).T.ravel()
        values += self.a0
        return values

    def differentiate(self) -> "PowerSeries":
        """Termwise derivative; the truncation order drops by one."""
        if len(self.coeffs) == 0:
            return PowerSeries(0.0, 1, np.empty(0))
        k = np.arange(self.n, self.order + 1)
        d = k * self.coeffs
        if self.n == 1:
            return PowerSeries(d[0], 1, d[1:])
        return PowerSeries(0.0, self.n - 1, d)


def invert_series(s: PowerSeries, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Reciprocal ``1/s`` truncated at ``order``.

    Uses the convolution recurrence ``c_k = -(1/a0) sum_{j=n}^{k} a_j c_{k-j}``
    with ``c_0 = 1/a0``.  Because the sum starts at ``j = n``, the result has
    exactly zero coefficients at indices ``1..n-1``: the reciprocal stays in
    the same class as ``s``.
    """
    if s.a0 == 0:
        raise DomainError("cannot invert a series with a0 = 0")
    if order < s.n:
        raise DomainError(f"inversion order {order} must be >= first index {s.n}")
    inv_a0 = 1.0 / s.a0
    a = s.dense_coefficients(order)
    c = np.zeros(order + 1, dtype=np.complex128)
    c[0] = inv_a0
    for k in range(1, order + 1):
        if k >= s.n:
            c[k] = -inv_a0 * (a[s.n : k + 1] @ c[k - s.n :: -1])
    return PowerSeries(inv_a0, s.n, c[s.n :])


def exp_series(h: PowerSeries, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exponential ``exp(h)`` truncated at ``order``, for ``h(0) = 0``.

    Integrates ``E' = h' E`` coefficientwise:
    ``e_0 = 1``, ``e_k = (1/k) sum_{j=n}^{k} j h_j e_{k-j}``.
    The result lies in the same class (first non-constant index ``>= n``)
    and, as the exponential of something, represents a function with no
    zeros at all.
    """
    if h.a0 != 0:
        raise DomainError("exp_series requires a zero constant term")
    if order < h.n:
        raise DomainError(f"truncation order {order} must be >= first index {h.n}")
    jh = np.arange(order + 1) * h.dense_coefficients(order)
    e = np.zeros(order + 1, dtype=np.complex128)
    e[0] = 1.0
    for k in range(1, order + 1):
        if k >= h.n:
            e[k] = (jh[h.n : k + 1] @ e[k - h.n :: -1]) / k
    return PowerSeries(1.0, h.n, e[h.n :])


# ---------------------------------------------------------------------------
# Series literal files
#
#   # comment lines (and trailing comments) are ignored
#   a0_re a0_im
#   n N
#   k re im          one line per stored coefficient, n <= k <= N
# ---------------------------------------------------------------------------


def parse_series(text: str) -> PowerSeries:
    """Parse the line-oriented series literal format."""
    rows: list[list[str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if len(rows) < 2:
        raise SeriesFormatError("need an a0 line and an 'n N' line")
    try:
        if len(rows[0]) != 2:
            raise ValueError("a0 line must hold two numbers")
        a0 = complex(float(rows[0][0]), float(rows[0][1]))
        if not cmath.isfinite(a0):
            raise ValueError(f"a0 line {' '.join(rows[0])!r} must hold finite numbers")
        if len(rows[1]) != 2:
            raise ValueError("index line must hold 'n N'")
        n, order = int(rows[1][0]), int(rows[1][1])
    except ValueError as exc:
        raise SeriesFormatError(f"bad series header: {exc}") from exc
    if n < 1:
        raise SeriesFormatError(f"first index n must be >= 1, got {n}")
    if order < n - 1:
        raise SeriesFormatError(f"truncation order {order} below n-1 = {n - 1}")
    coeffs = np.zeros(order - n + 1, dtype=np.complex128)
    seen: set[int] = set()
    for row in rows[2:]:
        try:
            if len(row) != 3:
                raise ValueError("coefficient line must hold 'k re im'")
            k, c = int(row[0]), complex(float(row[1]), float(row[2]))
            if not cmath.isfinite(c):
                raise ValueError("numbers must be finite")
        except ValueError as exc:
            raise SeriesFormatError(f"bad coefficient line {' '.join(row)!r}: {exc}") from exc
        if not n <= k <= order:
            raise SeriesFormatError(f"coefficient index {k} outside {n}..{order}")
        if k in seen:
            raise SeriesFormatError(f"duplicate coefficient index {k}")
        seen.add(k)
        coeffs[k - n] = c
    return PowerSeries(a0, n, coeffs)


def read_series(path) -> PowerSeries:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_series(fh.read())


def write_series(s: PowerSeries, path) -> None:
    """Write a series in the literal file format (17 significant digits)."""
    lines = [f"{s.a0.real:.17g} {s.a0.imag:.17g}\n{s.n} {s.order}\n"]
    lines += [f"{k} {c.real:.17g} {c.imag:.17g}\n" for k, c in enumerate(s.coeffs.tolist(), s.n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
