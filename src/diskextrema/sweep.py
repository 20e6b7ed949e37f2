"""Randomized falsification sweep over zero-free analytic functions.

Each trial draws ``f = a0 * exp(h)`` for a random polynomial ``h`` with
``h(0) = 0`` (so f has no zeros by construction) and locates the modulus
minimum of f on a random sub-disk.  Since ``|1/f| = 1/|f|``, that point
is also the modulus maximum of ``1/f``, so one disk search serves both
inequality chains: the min theorem on f and the max lemma on ``1/f`` are
checked at the one point.  The checked statements are theorems, so every
trial must pass; a failure falsifies the implementation, not the
mathematics.

All randomness is derived from ``(seed, trial_index)``; no global
generator state is touched, so trials are reproducible individually and
the sweep output is byte-identical across runs.  The stream is
counter-based (Salmon et al., SC 2011): the seed and the index fold into
a 64-bit key, and each drawn quantity has a fixed slot ``k`` whose
uniform is SplitMix64's hash of ``key + (k + 1) gamma`` (Steele, Lea &
Flood, OOPSLA 2014).  So a trial does not depend on its batch, and
:func:`_draw_batch` draws a whole batch as uint64 and float64 column
arithmetic, with no ``numpy.random``.

The disk searches run in batches of up to 512 trials on the default
grid, one row per trial, with the rules of ``find_min_on_disk`` and the
batch's own sampler and polish kernel.  The chain checks run over the
batch too: each row's jet of f at its located point comes from Horner's
rule over the exponents' coefficients (the formulas of
``ExpSeriesFunction.jet``), the jet of ``1/f`` from it by the formulas of
``Reciprocal.jet``, and every link of every row from the one set of
expressions that ``check_min_theorem`` and ``check_max_lemma`` evaluate
at a single point.  So the duality gap ``|m_min - m_max|`` compares the
f chain and the ``1/f`` chain at one point: it checks the jets and the
link algebra, not the search.  The sweep takes its duality gap and worst
margins as reductions over those columns, and builds trials, functions
and reports only where they are read.  These rows take the scalar path
instead:

* a row that the batch search leaves open (a grid that is not a multiple
  of 256 points, a grid that must double, a bracket without a sign
  change, or anything that would raise) takes one scalar search for the
  minimum of f and both scalar checks at its point;
* a row whose chain would raise (a constant exponent, ``|f(z0)|`` at the
  zero threshold, moduli too close for the bounds, a bad tolerance) takes
  the scalar check at the batch's point.

Those run in trial order, min before max, so an error surfaces at its own
trial.  Reports are built for failed trials and for ``run_trial``.  Rows
that the batch settles may differ from the scalar chain in the last bits,
since numpy's complex arithmetic may fuse multiply-adds.  A row's result
does not depend on its batch, and ``run_trial(seed, k)`` runs the same
code on one index, so it replays trial ``k`` of a sweep exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extremum import DEFAULT_GRID, _exp_jets, _search_exp_batch, find_min_on_disk
from .functions import ZERO_THRESHOLD, ExpSeriesFunction, Reciprocal, _reciprocal_jet
from .lemma import (
    DEFAULT_TOL,
    LINK_NAMES,
    LemmaReport,
    _degenerate,
    _links,
    _report,
    check_max_lemma,
    check_min_theorem,
)
from .series import CONSTANT_TOL, PowerSeries

#: Trial-generator ranges.
A0_MODULUS_RANGE = (0.55, 2.0)
CLASS_INDEX_RANGE = (1, 6)
MAX_DEGREE = 16
COEFF_BUDGET = 2.0
RADIUS_RANGE = (0.1, 0.9)

#: Circle samples per batch search: 512 trials on the default grid, 2 MB
#: for the transform and 1 MB for the moduli.
_BATCH_SAMPLES = 1 << 17

#: Uniforms per trial, one for each slot of :func:`_draw`.
_SLOTS = 6 + 2 * MAX_DEGREE
_MASK64 = (1 << 64) - 1


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
    return _trial(_draw_batch(seed, [index]), 0)


def run_trial(seed: int, index: int, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID) -> TrialOutcome:
    """Draw a trial, run the min check on f and the max check on 1/f.

    The outcome is trial ``index`` of ``run_sweep(trials, seed, tol, grid)``, bit for bit.
    """
    draws = _draw_batch(seed, [index])
    low, high = _chains(draws, tol, grid)
    return TrialOutcome(params=_trial(draws, 0), min_report=low.report(0), max_report=high.report(0))


def _trial(draws: tuple, row: int) -> TrialFunction:
    """Row ``row`` of :func:`_draw_batch`'s columns as a trial."""
    index, a0, n, degree, r, h = (column[row] for column in draws)
    return TrialFunction(int(index), complex(a0), int(n), float(r), PowerSeries(0.0, n, h[n : degree + 1]))


def _draw_batch(seed: int, indices) -> tuple:
    """The trials ``(seed, index)``, ``index`` in ``indices``, as the columns ``(index, a0, n, degree, r, h)``.

    ``h`` holds each exponent's coefficients of ``z^0 .. z^MAX_DEGREE``.
    The seed's 64-bit words, low first, and then the index are folded into
    a row key by ``key = mix(key ^ word)``, and slot ``k`` of the row is
    the uniform ``(w >> 11) 2^-53`` of ``w = mix(key + (k + 1) gamma)``,
    with SplitMix64's finalizer ``mix`` and increment ``gamma``.
    """
    import operator  # already loaded by the interpreter; a seed may be any integer type

    seed, first, last = operator.index(seed), min(indices), max(indices)
    if seed < 0 or first < 0:
        raise DomainError(f"seed and trial indices must be non-negative, got {seed} and {first}")
    if last > _MASK64:
        raise DomainError(f"trial indices must lie in [0, 2^64), got {last}")
    index = np.asarray(indices, dtype=np.uint64)
    key = np.zeros_like(index)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = _mix(key ^ np.uint64(seed >> shift & _MASK64))
    key = _mix(key ^ index)
    words = _mix(key[:, None] + np.arange(1, _SLOTS + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    return (index, *_draw((words >> np.uint64(11)) * (1.0 / 9007199254740992.0)))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of each uint64 word, a bijection (Steele, Lea & Flood, OOPSLA 2014)."""
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def _draw(u: np.ndarray) -> tuple:
    """``(a0, n, degree, r, h)`` of each row of the ``(T, _SLOTS)`` uniforms ``u``, each in ``[0, 1)``.

    The slots are ``|a0|``, ``arg a0``, ``n``, the degree, the
    ``MAX_DEGREE`` coefficient moduli, their phases, the moduli's total
    and ``r``.  An integer in ``[low, high]`` is ``low + floor((high - low
    + 1) u)`` and a uniform draw is ``low + (high - low) u``.  The first
    ``degree - n + 1`` coefficients are kept, scaled to the drawn total.
    """

    def uniform(bounds, u):
        return bounds[0] + (bounds[1] - bounds[0]) * u

    low, high = CLASS_INDEX_RANGE
    n = low + (u[:, 2] * (high - low + 1)).astype(np.int64)
    degree = n + (u[:, 3] * (MAX_DEGREE + 1 - n)).astype(np.int64)
    kept = np.arange(MAX_DEGREE) <= (degree - n)[:, None]
    moduli = np.where(kept, u[:, 4 : 4 + MAX_DEGREE], 0.0)
    raw = moduli * np.exp(1j * uniform((0.0, 2.0 * np.pi), u[:, 4 + MAX_DEGREE : -2]))
    total, r = uniform((0.1 * COEFF_BUDGET, COEFF_BUDGET), u[:, -2]), uniform(RADIUS_RANGE, u[:, -1])
    mass = moduli.sum(axis=1)
    flat = mass < 1e-12
    raw[flat], mass[flat] = 0.0, 1.0
    raw[flat, 0] = 1.0
    coeffs = raw * (total / mass)[:, None]
    h = np.zeros((len(u), MAX_DEGREE + 1), dtype=np.complex128)
    row, slot = np.nonzero(kept)
    h[row, n[row] + slot] = coeffs[row, slot]
    a0 = uniform(A0_MODULUS_RANGE, u[:, 0]) * np.exp(1j * uniform((0.0, 2.0 * np.pi), u[:, 1]))
    return a0, n, degree, r, h


@dataclass
class _Chain:
    """One case's chain at every trial of a batch, as the columns ``m``, ``margins`` and ``passed``.

    ``links`` is :func:`lemma._links` over the batch's jets at the points
    ``z0``, and ``reports`` maps a row that took the scalar search or
    check to its report, which overrides the row's columns.  ``margins``
    is ``(links, trials)``, inf where a link is skipped.
    """

    case: str
    n: np.ndarray
    z0: np.ndarray
    f_z0: np.ndarray
    links: tuple
    tol: float
    reports: dict[int, LemmaReport]

    def __post_init__(self) -> None:
        m, _, _, _, _, flat, margins, passed = self.links
        self.m = np.array(m, dtype=np.float64)
        self.margins = np.array(margins, dtype=np.float64)
        self.margins[LINK_NAMES.index("schwarz_vs_m"), flat] = np.inf
        self.passed = np.logical_and.reduce(passed)
        for row, report in self.reports.items():
            self.m[row] = report.m
            self.margins[:, row] = [np.inf if link.margin is None else link.margin for link in report.checks.values()]
            self.passed[row] = report.passed

    def report(self, row: int) -> LemmaReport:
        """The row's report: its scalar check's, or one built from its columns."""
        if row in self.reports:
            return self.reports[row]
        *values, margins, passed = self.links
        links = (*(v[row].item() for v in values), [c[row].item() for c in margins], [c[row].item() for c in passed])
        z0, f_z0 = complex(self.z0[row]), complex(self.f_z0[row])
        return _report(self.case, self.n[row].item(), z0, f_z0, links, self.tol)


def _chains(draws: tuple, tol: float, grid: int) -> tuple[_Chain, _Chain]:
    """The min chain of every trial's f and the max chain of its 1/f, for :func:`_draw_batch`'s columns.

    One disk search per trial, for the minimum of f, runs as one batch
    (:func:`extremum._search_exp_batch`); since ``|1/f| = 1/|f|``, that
    point is also the maximum of ``1/f``, so both chains are checked there,
    each as one :func:`lemma._links` over the jets at the located points.
    A row that the batch leaves open takes one scalar search and both
    scalar checks at its point, and a row whose chain would raise takes the
    scalar check at the batch's point.  Those run in trial order, min
    before max, so that an error surfaces at its own trial.
    """
    _, a0, n, _, r, h = draws
    located = _search_exp_batch(a0, h, r, grid)
    settled = np.array([result is not None for result in located])
    z0 = r * np.exp(1j * np.array([result.theta if result else 0.0 for result in located]))
    # The scalar check raises for a constant exponent and for a bad tolerance.
    rejected = (np.abs(h).max(axis=1) <= CONSTANT_TOL) | (not 0.0 < tol < math.inf)
    cases = []
    with np.errstate(all="ignore"):
        jets = _exp_jets(a0, h, z0)
        for case, scale, (fz0, d1, d2) in (("min", a0, jets), ("max", 1.0 / a0, _reciprocal_jet(*jets))):
            links = _links(fz0, d1, d2, scale, n, z0, tol, case)
            scalar = ~settled | rejected | (np.abs(fz0) <= ZERO_THRESHOLD) | _degenerate(scale, fz0, case)
            cases.append((case, fz0, links, scalar))
    reports: tuple[dict, dict] = ({}, {})
    for row in np.flatnonzero(cases[0][-1] | cases[1][-1]).tolist():
        p = _trial(draws, row)
        f = ExpSeriesFunction(p.a0, p.exponent)
        point = z0[row] if settled[row] else find_min_on_disk(f, p.r, grid).z0
        checks = ((f, check_min_theorem), (Reciprocal(f), check_max_lemma))
        for (*_, scalar), found, (g, check) in zip(cases, reports, checks):
            if scalar[row]:
                found[row] = check(g, p.n, point, tol)
    low, high = (_Chain(case, n, z0, fz0, links, tol, found) for (case, fz0, links, _), found in zip(cases, reports))
    return low, high


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
    worst = np.full(len(LINK_NAMES), np.inf)
    size = max(1, _BATCH_SAMPLES // max(grid, 1))
    for start in range(0, trials, size):
        draws = _draw_batch(seed, range(start, min(start + size, trials)))
        low, high = _chains(draws, tol, grid)
        # fmax and fmin skip a nan, as max and min over the reports did
        max_gap = np.fmax.reduce(np.abs(low.m - high.m), initial=max_gap)
        worst = np.fmin(worst, np.fmin.reduce(np.concatenate((low.margins, high.margins), axis=1), axis=1))
        for row in np.flatnonzero(~(low.passed & high.passed)).tolist():
            params = _trial(draws, row)
            failed.append(TrialOutcome(params=params, min_report=low.report(row), max_report=high.report(row)))
    clean = {name: (None if np.isinf(value) else float(value)) for name, value in zip(LINK_NAMES, worst.tolist())}
    return SweepSummary(
        trials=trials,
        seed=seed,
        tolerance=tol,
        max_duality_gap=float(max_gap),
        worst_margins=clean,
        failed=failed,
    )
