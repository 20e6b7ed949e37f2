"""Randomized falsification sweep over zero-free analytic functions.

Each trial draws ``f = a0 * exp(h)`` for a random polynomial ``h`` with
``h(0) = 0`` (so f has no zeros by construction), locates the modulus
minimum of f and the modulus maximum of ``1/f`` on a random sub-disk, and
runs the corresponding inequality-chain checks at both points.  The
checked statements are theorems, so every trial must pass; a failure
falsifies the implementation, not the mathematics.

All randomness is derived from ``(seed, trial_index)``; no global
generator state is touched, so trials are reproducible individually and
the sweep output is byte-identical across runs.

The disk searches run in batches of up to 1024 trials on the default
grid: the minima of all f as one batched search and the maxima of all
``1/f`` as another, independent of the first, so the duality gap stays a
check.  A batch shares the rules of ``find_min_on_disk`` and
``find_max_on_disk``, with its own sampler and polish kernel.  A trial
that it leaves open (a grid that is not a multiple of 256 points, a grid
that must double, a bracket without a sign change, or anything that
would raise) takes those scalar searches.  The chain checks stay scalar
and run in trial order, so an error surfaces at its own trial.  A row's
result does not depend on its batch, and ``run_trial(seed, k)`` runs the
same code on one index, so it replays trial ``k`` of a sweep exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extremum import DEFAULT_GRID, _search_exp_batch, find_max_on_disk, find_min_on_disk
from .functions import ExpSeriesFunction, Reciprocal
from .lemma import DEFAULT_TOL, LINK_NAMES, LemmaReport, check_max_lemma, check_min_theorem
from .series import PowerSeries

#: Trial-generator ranges.
A0_MODULUS_RANGE = (0.55, 2.0)
CLASS_INDEX_RANGE = (1, 6)
MAX_DEGREE = 16
COEFF_BUDGET = 2.0
RADIUS_RANGE = (0.1, 0.9)

#: Circle samples per batch of trials: 1024 trials on the default grid,
#: 4 MB per ``(trials, grid)`` complex array.
_BATCH_SAMPLES = 1 << 18


@dataclass(frozen=True)
class TrialFunction:
    """The drawn parameters of one trial."""

    index: int
    a0: complex
    n: int
    r: float
    exponent: PowerSeries


@dataclass(frozen=True)
class TrialOutcome:
    params: TrialFunction
    min_report: LemmaReport
    max_report: LemmaReport

    @property
    def duality_gap(self) -> float:
        return abs(self.min_report.m - self.max_report.m)

    @property
    def passed(self) -> bool:
        return self.min_report.passed and self.max_report.passed


def draw_trial(seed: int, index: int) -> TrialFunction:
    """Deterministically draw one trial function from ``(seed, index)``."""
    rng = np.random.default_rng([seed, index])
    mod_a0 = rng.uniform(*A0_MODULUS_RANGE)
    arg_a0 = rng.uniform(0.0, 2.0 * np.pi)
    n = int(rng.integers(CLASS_INDEX_RANGE[0], CLASS_INDEX_RANGE[1] + 1))
    degree = int(rng.integers(n, MAX_DEGREE + 1))
    count = degree - n + 1
    raw = rng.uniform(0.0, 1.0, count) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))
    total = rng.uniform(0.1 * COEFF_BUDGET, COEFF_BUDGET)
    mass = float(np.sum(np.abs(raw)))
    if mass < 1e-12:
        raw = np.zeros(count, dtype=np.complex128)
        raw[0] = 1.0
        mass = 1.0
    coeffs = raw * (total / mass)
    r = rng.uniform(*RADIUS_RANGE)
    return TrialFunction(
        index=index,
        a0=complex(mod_a0 * np.exp(1j * arg_a0)),
        n=n,
        r=float(r),
        exponent=PowerSeries(0.0, n, coeffs),
    )


def run_trial(seed: int, index: int, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID) -> TrialOutcome:
    """Draw a trial, run the min check on f and the max check on 1/f.

    The outcome is trial ``index`` of ``run_sweep(trials, seed, tol, grid)``, bit for bit.
    """
    return next(_outcomes(seed, [index], tol, grid))


def _batched_searches(trials: list[TrialFunction], grid: int) -> tuple[list, list]:
    """The min disk searches of every trial's f and the max disk searches of its 1/f, as two batches.

    An entry is None where the trial needs the scalar search.
    """
    a0 = np.array([p.a0 for p in trials], dtype=np.complex128)
    r = np.array([p.r for p in trials], dtype=np.float64)
    h = np.full((len(trials), MAX_DEGREE + 1), np.nan, dtype=np.complex128)
    for row, p in zip(h, trials):
        if p.exponent.order <= MAX_DEGREE:
            row[:] = p.exponent.dense_coefficients(MAX_DEGREE)
    return _search_exp_batch(a0, h, r, grid, minimize=True), _search_exp_batch(a0, h, r, grid, minimize=False)


def _outcomes(seed: int, indices: list[int], tol: float, grid: int):
    """Yield the outcome of each trial in ``indices``, in order.

    The disk searches run in batches; a trial the batch leaves open takes
    the scalar search, and every error surfaces at its own trial.
    """
    size = max(1, _BATCH_SAMPLES // max(grid, 1))
    for start in range(0, len(indices), size):
        trials = [draw_trial(seed, index) for index in indices[start : start + size]]
        for params, low, high in zip(trials, *_batched_searches(trials, grid)):
            f = ExpSeriesFunction(params.a0, params.exponent)
            g = Reciprocal(f)
            located_min = low or find_min_on_disk(f, params.r, grid)
            min_report = check_min_theorem(f, params.n, located_min.z0, tol)
            located_max = high or find_max_on_disk(g, params.r, grid)
            max_report = check_max_lemma(g, params.n, located_max.z0, tol)
            yield TrialOutcome(params=params, min_report=min_report, max_report=max_report)


@dataclass(frozen=True)
class SweepSummary:
    trials: int
    seed: int
    tolerance: float
    max_duality_gap: float
    worst_margins: dict[str, float]
    failed: list[TrialOutcome]

    @property
    def failures(self) -> int:
        return len(self.failed)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_sweep(trials: int, seed: int, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID) -> SweepSummary:
    """Run ``trials`` independent trials and aggregate in index order."""
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    failed: list[TrialOutcome] = []
    max_gap = 0.0
    worst = {name: np.inf for name in LINK_NAMES}
    for outcome in _outcomes(seed, range(trials), tol, grid):
        max_gap = max(max_gap, outcome.duality_gap)
        for report in (outcome.min_report, outcome.max_report):
            for name, link in report.checks.items():
                if link.margin is not None:
                    worst[name] = min(worst[name], link.margin)
        if not outcome.passed:
            failed.append(outcome)
    clean = {name: (None if np.isinf(value) else float(value)) for name, value in worst.items()}
    return SweepSummary(
        trials=trials,
        seed=seed,
        tolerance=tol,
        max_duality_gap=max_gap,
        worst_margins=clean,
        failed=failed,
    )
