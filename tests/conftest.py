"""Shared helpers: finite-difference oracles, random generators, test-only wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from diskextrema import AnalyticFunction, PowerSeries


def central_diff1(func, z: complex, h: float = 1e-5) -> complex:
    """First derivative by central differences along the real axis."""
    return (func(z + h) - func(z - h)) / (2.0 * h)


def central_diff2(func, z: complex, h: float = 1e-5) -> complex:
    """Second derivative by central differences along the real axis."""
    return (func(z + h) - 2.0 * func(z) + func(z - h)) / (h * h)


def random_series(
    rng: np.random.Generator,
    n: int | None = None,
    degree: int = 8,
    a0_modulus: tuple[float, float] = (0.5, 2.0),
) -> PowerSeries:
    """A random series with |a0| in the given range and dense random tail."""
    if n is None:
        n = int(rng.integers(1, 4))
    a0 = rng.uniform(*a0_modulus) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    count = max(degree - n + 1, 1)
    coeffs = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    return PowerSeries(a0, n, coeffs)


def tame_series(
    rng: np.random.Generator,
    n: int | None = None,
    degree: int = 8,
    budget: float = 0.5,
) -> PowerSeries:
    """A random series whose tail has l1 norm <= ``budget * |a0|``.

    Reciprocation amplifies a tail of relative size q roughly like q^k, so
    accuracy claims at the 1e-12 level need q bounded away from 1; this
    generator keeps the inversion well-conditioned by construction.
    """
    if n is None:
        n = int(rng.integers(1, 4))
    a0 = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    count = max(degree - n + 1, 1)
    raw = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    mass = np.sum(np.abs(raw))
    scale = rng.uniform(0.1, 1.0) * budget * abs(a0) / max(mass, 1e-12)
    return PowerSeries(a0, n, raw * scale)


def series_eval_oracle(s: PowerSeries, z: complex) -> complex:
    """Term-by-term summation, independent of the Horner evaluation path."""
    total = complex(s.a0)
    for k, c in zip(range(s.n, s.order + 1), s.coeffs):
        total += complex(c) * z**k
    return total


def log_derivative(f: AnalyticFunction, z) -> complex:
    """``z f'(z)/f(z)``, the ratio the chain checkers read as ``m``."""
    v, d1, _ = f.jet(z)
    return complex(z * d1 / v)


def schwarz_quantity(f: AnalyticFunction, z) -> float:
    """``Re(z f''(z)/f'(z)) + 1``, the curvature quantity of the chain."""
    _, d1, d2 = f.jet(z)
    return float((z * d2 / d1).real) + 1.0


class Rotated(AnalyticFunction):
    """``z -> f(e^{i phi} z)``.

    Rotates every extremal angle by ``-phi`` while leaving the modulus
    landscape, and hence every chain quantity, unchanged.
    """

    def __init__(self, inner: AnalyticFunction, phi: float):
        self.inner = inner
        self.phi = float(phi)
        self._w = complex(np.exp(1j * self.phi))
        self.a0 = inner.a0
        self.n = inner.n

    def value(self, z):
        return self.inner.value(self._w * z)

    def jet(self, z):
        v, d1, d2 = self.inner.jet(self._w * z)
        return v, self._w * d1, self._w * self._w * d2

    def is_constant(self) -> bool:
        return self.inner.is_constant()

    def count_zeros(self, r: float, values):
        return self.inner.count_zeros(r, values)  # equispaced samples of inner, offset by phi

    def log_modulus_curvature(self, r: float, moduli):
        return self.inner.log_modulus_curvature(r, moduli)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
