"""Seeded input generators for the benchmark workloads.

Every input derives from ``(workload seed, workload tag)`` through its own
``numpy.random.Generator``; no global random state is touched, so a seed
always yields the same inputs.  The draws cover the documented domains in
full and nothing that fails today is filtered out.  Import this module once
``diskextrema`` is importable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from diskextrema import PowerSeries, write_series

TAU = 2.0 * np.pi

#: Stream tags, so the workloads draw independent inputs from one seed.
_TAGS = {"sweep": 1, "verify_dense": 2, "reference_cli": 3}

#: Hard regimes recorded per run: ``r**n`` below this, or ``r`` above the next.
TINY_RN = 1e-12
LARGE_R = 0.95


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[workload]])


def timed_draws(pool: int) -> int:
    """Draws the timed passes repeat: the first half of the pool."""
    return (pool + 1) // 2


def sweep_seeds(seed: int, count: int) -> list[int]:
    """Seeds for successive ``run_sweep`` calls."""
    return [int(s) for s in _rng("sweep", seed).integers(0, 2**63, count)]


@dataclass(frozen=True)
class VerifyDraw:
    """One ``verify`` command: a series literal file and its search."""

    path: str
    r: float
    n: int
    mode: str


def _stratified_orders(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform order from each of ``count`` equal slices of 256..512, shuffled."""
    orders = 256 + ((np.arange(count) + rng.random(count)) * 257 / count).astype(int)
    rng.shuffle(orders)
    return orders


def verify_draws(seed: int, count: int, directory: str, half: int = 0) -> list[VerifyDraw]:
    """Write ``count`` zero-free dense series files under ``directory``.

    Order ``N`` in 256..512, first index ``n`` in 1..6, ``|a0|`` in
    (0.5, 2], and a dense tail whose l1 mass is a uniform share of
    ``|a0|``, so ``|f(z) - a0| < |a0|`` on the disk and f has no zeros.
    ``r`` is uniform in (0.5, 0.95); modes alternate min, max.  A
    command's time grows with ``N``, so the orders are stratified, the
    first ``half`` draws (the ones the timed passes repeat) and the rest
    each on their own.  Each order is still uniform on 256..512, and
    every pool, and its first half, costs nearly the same.
    """
    rng = _rng("verify_dense", seed)
    orders = np.concatenate([_stratified_orders(rng, half), _stratified_orders(rng, count - half)])
    draws = []
    for i in range(count):
        order = int(orders[i])
        n = int(rng.integers(1, 7))
        a0 = (2.0 - 1.5 * rng.random()) * np.exp(1j * rng.uniform(0.0, TAU))
        size = order - n + 1
        raw = rng.random(size) * np.exp(1j * rng.uniform(0.0, TAU, size))
        coeffs = raw * (rng.random() * abs(a0) / np.sum(np.abs(raw)))
        path = os.path.join(directory, f"series_{i:04d}.txt")
        write_series(PowerSeries(a0, n, coeffs), path)
        r = float(rng.uniform(0.5, 0.95))
        draws.append(VerifyDraw(path, r, n, "min" if i % 2 == 0 else "max"))
    return draws


@dataclass(frozen=True)
class ReferenceDraw:
    """One ``example`` + ``landscape`` pair on the closed-form family."""

    a0_mod: float
    a0_arg: float
    n: int
    r: float


def reference_draws(seed: int, count: int) -> list[ReferenceDraw]:
    """``|a0|`` in (0.5, 2], ``arg a0`` in [0, 2 pi), ``n`` in 1..12, ``r`` in (0.01, 0.99)."""
    rng = _rng("reference_cli", seed)
    return [
        ReferenceDraw(
            a0_mod=float(2.0 - 1.5 * rng.random()),
            a0_arg=float(rng.uniform(0.0, TAU)),
            n=int(rng.integers(1, 13)),
            r=float(rng.uniform(0.01, 0.99)),
        )
        for _ in range(count)
    ]


def hard_regime_shares(pairs) -> dict[str, float]:
    """Shares of ``(r, n)`` draws with ``r**n < TINY_RN`` and with ``r > LARGE_R``."""
    pairs = list(pairs)
    if not pairs:
        return {"tiny_rn_frac": 0.0, "large_r_frac": 0.0}
    return {
        "tiny_rn_frac": sum(r**n < TINY_RN for r, n in pairs) / len(pairs),
        "large_r_frac": sum(r > LARGE_R for r, _ in pairs) / len(pairs),
    }
