"""Randomized falsification sweep over zero-free analytic functions.

Each trial draws ``f = a0 * exp(h)`` for a random polynomial ``h`` with
``h(0) = 0`` (so f has no zeros by construction), locates the modulus
minimum of f and the modulus maximum of ``1/f`` on a random sub-disk, and
runs the corresponding inequality-chain checks at both points.  The
checked statements are theorems, so every trial must pass; a failure
falsifies the implementation, not the mathematics.

All randomness is derived from ``(seed, trial_index)``; no global
generator state is touched, so trials are reproducible individually and
the sweep output is byte-identical across runs.  A trial is what a numpy
``Generator`` on ``PCG64(SeedSequence([seed, index]))`` draws, but the
sweep builds none: :func:`_draw_batch` writes out ``SeedSequence``'s hash,
the ``PCG64`` stream, the bounded integers and the uniform doubles as
uint64 and float64 column arithmetic over a whole batch.  Its draws equal
numpy 2.4.6's on x86-64, bit for bit, and they stay as they are should a
later numpy change its ``Generator`` streams, which NEP 19 does not
promise to keep stable.

The disk searches run in batches of up to 512 trials on the default
grid.  One transform of each trial's exponent serves both of its
searches, the minimum of f and the maximum of ``1/f``, since
``|1/f| = 1/|f|``; past the moduli each search is a row of its own, so
the duality gap stays a check.  A batch shares the rules of
``find_min_on_disk`` and ``find_max_on_disk``, with its own sampler and
polish kernel.  The chain checks run over the batch too: each row's jet
at its located point comes from Horner's rule over the exponents'
coefficients (the formulas of ``ExpSeriesFunction.jet`` and
``Reciprocal.jet``), and every link of every row from the one set of
expressions that ``check_min_theorem`` and ``check_max_lemma`` evaluate
at a single point.  The sweep takes its
duality gap and worst margins as reductions over those columns, and
builds trials, functions and reports only where they are read.  These
rows take the scalar path instead:

* a row that the batch search leaves open (a grid that is not a multiple
  of 256 points, a grid that must double, a bracket without a sign
  change, or anything that would raise) takes the scalar search and
  check;
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
from .extremum import DEFAULT_GRID, _exp_jets, _search_exp_batch, find_max_on_disk, find_min_on_disk
from .functions import ZERO_THRESHOLD, ExpSeriesFunction, Reciprocal
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

#: Circle samples per batch search: 512 trials on the default grid, a
#: minimum and a maximum row each, 2 MB for the transform and 2 MB for the moduli.
_BATCH_SAMPLES = 1 << 18

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: ``PCG64``'s LCG multiplier ``M``.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    The 32-bit words of ``[seed, index]`` go through ``SeedSequence``'s
    hash into a ``PCG64`` seed, and :func:`_draw` takes the draws from the
    seeded stream, as numpy does.
    """
    import operator  # already loaded by the interpreter; a seed may be any integer type

    seed = operator.index(seed)
    if seed < 0 or min(indices) < 0:
        raise DomainError(f"seed and trial indices must be non-negative, got {seed} and {min(indices)}")
    index = np.asarray(indices, dtype=np.uint64)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    low, high = (index & _MASK32).astype(np.uint32), (index >> 32).astype(np.uint32)
    pool = np.empty((4, len(index)), dtype=np.uint32)
    # an index takes one or two words, and SeedSequence hashes what it is given
    for wide, rows in enumerate((high == 0, high != 0)):
        if rows.any():
            entropy = np.empty((len(words) + 1 + wide, np.count_nonzero(rows)), dtype=np.uint32)
            entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
            entropy[len(words) :] = (low[rows], high[rows])[: 1 + wide]
            pool[:, rows] = _seed_pool(entropy)
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(0x8B51F9DD, 0x58F38DED, 8)).astype(np.uint64)
    seed_hi, seed_lo, init_hi, init_lo = state[0::2] | state[1::2] << 32
    inc = (init_hi << 1 | init_lo >> 63, init_lo << 1 | 1)
    start = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), (_PCG_MULT >> 64, _PCG_MULT & _MASK64)), inc)
    return (index, *_draw(start, inc))


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """``SeedSequence``'s first ``count + 1`` hash constants from ``const``, each ``mult`` times the last."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of the rows of uint32 ``value``, row ``i`` with constants ``const[i:i + 2]``."""
    value = (value ^ const[:-1, None]) * const[1:, None]
    return value ^ value >> 16


def _seed_pool(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``(4, T)`` pool of the ``(L, T)`` uint32 entropy words."""
    const = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool, used = _hashmix(pool, const[:5]), 4
    # each pool word is mixed into the others, then each word past the pool into all four
    for src in range(max(len(entropy), 4)):
        dst = [k for k in range(4) if k != src]
        hashed = _hashmix(pool[src] if src < 4 else entropy[src], const[used : used + len(dst) + 1])
        used += len(dst)
        mixed = pool[dst] * 0xCA01F9DD - hashed * 0x4973F715
        pool[dst] = mixed ^ mixed >> 16
    return pool


def _mul128(a: tuple, b: tuple) -> tuple:
    """The low 128 bits of ``a * b``, each a ``(high, low)`` pair of uint64 words."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> 32, al & _MASK32, bl >> 32, bl & _MASK32
    carry = a1 * b0 + (a0 * b0 >> 32)
    middle = a0 * b1 + (carry & _MASK32)
    return a1 * b1 + (carry >> 32) + (middle >> 32) + al * bh + ah * bl, al * bl


def _add128(a: tuple, b: tuple) -> tuple:
    """``a + b`` modulo ``2^128``, each a ``(high, low)`` pair of uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _stream(state: tuple, inc: tuple, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of each row's ``PCG64`` at ``(state, inc)``, as ``(T, count)``.

    Output ``k`` is the XSL-RR output of the LCG state ``M^(k+1) state +
    (1 + M + ... + M^k) inc``, one step of which is ``state * M + inc``.
    """
    jumps, power, total = bytearray(), 1, 0
    for _ in range(count):
        power, total = power * _PCG_MULT & _MASK128, (total + power) & _MASK128
        jumps += power.to_bytes(16, "little") + total.to_bytes(16, "little")
    (power_lo, total_lo), (power_hi, total_hi) = np.frombuffer(jumps, "<u8").astype(np.uint64).reshape(count, 2, 2).T
    state_hi, state_lo, inc_hi, inc_lo = (half[:, None] for half in state + inc)
    high, low = _add128(
        _mul128((state_hi, state_lo), (power_hi, power_lo)), _mul128((inc_hi, inc_lo), (total_hi, total_lo))
    )
    word, turn = high ^ low, high >> 58
    return word >> turn | word << (64 - turn & 63)


def _below(words: np.ndarray, half: np.ndarray, bound) -> tuple:
    """numpy's 32-bit Lemire draw in ``[0, bound)`` for each row: the draw and the next ``half``.

    It takes the 32-bit halves of ``words[:, 2:]``, low half first, from
    ``half`` on, and rejects as ``Generator.integers`` does.
    """
    signed, rows = words.view(np.int64), np.arange(len(words))
    while True:
        scaled = (signed[rows, 2 + half // 2] >> (half & 1) * 32 & _MASK32) * bound
        redo = (scaled & _MASK32) < (1 << 32) % bound
        if not redo.any():
            return scaled >> 32, half + 1
        half = half + redo


def _draw(state: tuple, inc: tuple) -> tuple:
    """``(a0, n, degree, r, h)`` of each row, as a numpy ``Generator`` draws a trial from ``PCG64`` at ``(state, inc)``.

    In stream order: ``|a0|`` and ``arg a0`` take a double each, ``n`` and
    the degree a 32-bit bounded integer each (the two halves of one word,
    unless one is rejected), then the coefficients' moduli and phases,
    their total and ``r`` take a double each.  A double is
    ``(word >> 11) 2^-53``, and a uniform draw is ``low + (high - low) u``.
    """

    def uniform(bounds, u):
        return bounds[0] + (bounds[1] - bounds[0]) * u

    words = _stream(state, inc, 5 + 2 * MAX_DEGREE)
    low, high = CLASS_INDEX_RANGE
    first, half = _below(words, np.zeros(len(words), dtype=np.int64), high - low + 1)
    n = low + first
    extra, half = _below(words, half, MAX_DEGREE + 1 - n)
    count, start = extra + 1, 2 + (half + 1) // 2
    if start.max() > 3:  # a rejected integer draw moves the doubles on
        words = _stream(state, inc, int(start.max()) + 2 * MAX_DEGREE + 2)
    u = (words >> 11) * (1.0 / 9007199254740992.0)
    rows, slot = np.arange(len(u))[:, None], start[:, None] + np.arange(MAX_DEGREE)
    raw = uniform((0.0, 1.0), u[rows, slot]) * np.exp(1j * uniform((0.0, 2.0 * np.pi), u[rows, slot + count[:, None]]))
    tail = u[rows, (start + 2 * count)[:, None] + [0, 1]]
    total, r = uniform((0.1 * COEFF_BUDGET, COEFF_BUDGET), tail[:, 0]), uniform(RADIUS_RANGE, tail[:, 1])
    # np.sum's pairwise grouping depends on the length, so the rows of each count are summed together
    order = np.argsort(count, kind="stable")
    moduli, summed = np.abs(raw)[order], np.empty(len(u))
    edges = np.searchsorted(count[order], np.arange(1, MAX_DEGREE + 2)).tolist()
    for width, (begin, end) in enumerate(zip(edges, edges[1:]), 1):
        np.add.reduce(moduli[begin:end, :width], axis=1, out=summed[begin:end])
    mass = np.empty_like(summed)
    mass[order] = summed
    flat = mass < 1e-12
    raw[flat], mass[flat] = 0.0, 1.0
    raw[flat, 0] = 1.0
    coeffs = raw * (total / mass)[:, None]
    h = np.zeros((len(u), MAX_DEGREE + 1), dtype=np.complex128)
    row, slot = np.nonzero(np.arange(MAX_DEGREE) < count[:, None])
    h[row, n[row] + slot] = coeffs[row, slot]
    a0 = uniform(A0_MODULUS_RANGE, u[:, 0]) * np.exp(1j * uniform((0.0, 2.0 * np.pi), u[:, 1]))
    return a0, n, n + extra, r, h


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

    Both disk searches of every trial run as one batch
    (:func:`extremum._search_exp_batch`), and each case's chain as one
    :func:`lemma._links` over the jets at the located points.  A row that
    the batch leaves open takes the scalar search and check, and a row
    whose chain would raise takes the scalar check at the batch's point.  Those run in trial order, min before max, so that an
    error surfaces at its own trial.
    """
    _, a0, n, _, r, h = draws
    # The scalar check raises for a constant exponent and for a bad tolerance.
    rejected = (np.abs(h).max(axis=1) <= CONSTANT_TOL) | (not 0.0 < tol < math.inf)
    cases = []
    for minimize, case, located in zip((True, False), ("min", "max"), _search_exp_batch(a0, h, r, grid)):
        settled = np.array([result is not None for result in located])
        z0 = r * np.exp(1j * np.array([result.theta if result else 0.0 for result in located]))
        scale = a0 if minimize else 1.0 / a0
        with np.errstate(all="ignore"):
            fz0, d1, d2 = _exp_jets(a0, h, z0, minimize)
            links = _links(fz0, d1, d2, scale, n, z0, tol, case)
            scalar = ~settled | rejected | (np.abs(fz0) <= ZERO_THRESHOLD) | _degenerate(scale, fz0, case)
        cases.append((case, settled, z0, fz0, links, scalar))
    reports: tuple[dict, dict] = ({}, {})
    for row in np.flatnonzero(cases[0][-1] | cases[1][-1]).tolist():
        p = _trial(draws, row)
        f = ExpSeriesFunction(p.a0, p.exponent)
        checks = ((f, find_min_on_disk, check_min_theorem), (Reciprocal(f), find_max_on_disk, check_max_lemma))
        for (_, settled, z0, _, _, scalar), found, (g, search, check) in zip(cases, reports, checks):
            if scalar[row]:
                point = z0[row] if settled[row] else search(g, p.r, grid).z0
                found[row] = check(g, p.n, point, tol)
    low, high = (
        _Chain(case, n, z0, fz0, links, tol, found)
        for (case, _, z0, fz0, links, _), found in zip(cases, reports)
    )
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
    size = max(1, _BATCH_SAMPLES // max(2 * grid, 1))
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
