import hashlib
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from diskextrema import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    ConstantFunction,
    DomainError,
    ExpSeriesFunction,
    InteriorBelowBoundary,
    PowerSeries,
    Reciprocal,
    ZeroInDisk,
    check_max_lemma,
    check_min_theorem,
    draw_trial,
    find_max_on_disk,
    find_min_on_disk,
    run_sweep,
    run_trial,
)
from diskextrema import cli, extremum, lemma, sweep
from diskextrema.extremum import _search_exp_batch
from diskextrema.lemma import LINK_NAMES
from diskextrema.sweep import A0_MODULUS_RANGE, COEFF_BUDGET, MAX_DEGREE, RADIUS_RANGE


def scalar_reports(p, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID):
    """One trial's min report of f and max report of 1/f, both checked at f's scalar disk minimum."""
    f = ExpSeriesFunction(p.a0, p.exponent)
    z0 = find_min_on_disk(f, p.r, grid).z0
    return check_min_theorem(f, p.n, z0, tol), check_max_lemma(Reciprocal(f), p.n, z0, tol)


def scalar_sweep(trials: int, seed: int, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID):
    """The sweep as a loop of one scalar disk search and two scalar chain checks per trial."""
    failed, gap, worst = [], 0.0, {name: math.inf for name in LINK_NAMES}
    for index in range(trials):
        low, high = scalar_reports(draw_trial(seed, index), tol, grid)
        gap = max(gap, abs(low.m - high.m))
        for report in (low, high):
            for name, link in report.checks.items():
                if link.margin is not None:
                    worst[name] = min(worst[name], link.margin)
        if not (low.passed and high.passed):
            failed.append((index, low.to_dict(), high.to_dict()))
    return gap, {k: None if math.isinf(v) else v for k, v in worst.items()}, failed


def batched_searches(seed: int, count: int, grid: int = DEFAULT_GRID):
    """The batch's disk minima of trials ``0 .. count - 1`` of ``seed``.

    An entry is None where the row needs the scalar search.
    """
    _, a0, _, _, r, h = sweep._draw_batch(seed, range(count))
    return _search_exp_batch(a0, h, r, grid)


def summary_fields(summary):
    failed = [(o.params.index, o.min_report.to_dict(), o.max_report.to_dict()) for o in summary.failed]
    return summary.max_duality_gap, summary.worst_margins, failed


class TestDrawTrial:
    def test_deterministic_per_index(self):
        a = draw_trial(7, 3)
        b = draw_trial(7, 3)
        assert a.a0 == b.a0
        assert a.n == b.n
        assert a.r == b.r
        assert np.array_equal(a.exponent.coeffs, b.exponent.coeffs)

    def test_indices_are_independent_streams(self):
        assert draw_trial(7, 0).a0 != draw_trial(7, 1).a0
        assert draw_trial(7, 0).a0 != draw_trial(8, 0).a0

    def test_draw_ranges(self):
        for index in range(60):
            p = draw_trial(123, index)
            assert 0.55 <= abs(p.a0) <= 2.0
            assert 1 <= p.n <= 6
            assert 0.1 <= p.r <= 0.9
            assert p.exponent.n == p.n
            assert p.exponent.order <= 16
            assert np.sum(np.abs(p.exponent.coeffs)) <= 2.0 + 1e-12


MASK64 = (1 << 64) - 1


def splitmix_uniforms(seed: int, index: int) -> list[float]:
    """The uniforms of trial ``(seed, index)``: SplitMix64 over Python integers, the batch draw's oracle."""

    def mix(z: int) -> int:
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
        return z ^ z >> 31

    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = mix(key ^ seed >> shift & MASK64)
    key = mix(key ^ index)
    return [(mix(key + k * 0x9E3779B97F4A7C15 & MASK64) >> 11) * 2.0**-53 for k in range(1, sweep._SLOTS + 1)]


#: Trial 43 of seed 4510362879286407517 as the sweep drew it before its
#: counter-based stream, as ``(a0, n, r, coefficients of z^n ..)`` in hex.
#: Its maximum search's polished root and grid winner differ by 1 ulp in modulus.
HARD_TRIAL = (
    ("0x1.715e76bd03a50p-1", "0x1.6c2ecafbf40f6p-2"),
    2,
    "0x1.b4ab22b52421cp-1",
    [
        ("-0x1.449fe8395ec6ap-7", "0x1.ab7f5960d3ff7p-3"),
        ("0x1.601a9b5c8d4a6p-2", "0x1.8f12ab3a5c08ap-3"),
        ("0x1.33c273845dd34p-2", "0x1.24c71bf7193a2p-2"),
    ],
)


def hard_trial_columns() -> tuple:
    """The pinned hard trial as the one-row columns ``(index, a0, n, degree, r, h)`` of ``sweep._draw_batch``."""

    def number(pair):
        return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))

    a0, n, r, coeffs = HARD_TRIAL
    h = np.zeros((1, MAX_DEGREE + 1), dtype=np.complex128)
    h[0, n : n + len(coeffs)] = [number(c) for c in coeffs]
    return (
        np.array([43], dtype=np.uint64), np.array([number(a0)]), np.array([n]), np.array([n + len(coeffs) - 1]),
        np.array([float.fromhex(r)]), h,
    )


class TestDrawBatch:
    """The batch draw: each row depends on its ``(seed, index)`` alone, and ``_draw`` on its uniforms alone."""

    def test_the_mix_is_splitmix64(self):
        # the first three outputs of SplitMix64 seeded with 0, as its reference implementation prints them
        counters = np.array([k * 0x9E3779B97F4A7C15 & MASK64 for k in (1, 2, 3)], dtype=np.uint64)
        assert sweep._mix(counters).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", [1, 42, 4510362879286407517, 2**130 + 9])
    def test_uniforms_match_the_python_reference(self, seed, monkeypatch):
        uniforms, draw = [], sweep._draw
        monkeypatch.setattr(sweep, "_draw", lambda u: uniforms.append(u) or draw(u))
        indices = [*range(1000), 2**64 - 1]
        sweep._draw_batch(seed, indices)
        assert uniforms[0].tolist() == [splitmix_uniforms(seed, index) for index in indices]

    @pytest.mark.parametrize("seed", [0, 7, 4510362879286407517, 2**70 + 3, 2**96 + 5, 2**130 + 9])
    def test_a_batch_mixes_index_word_counts(self, seed):
        # seeds of one, two and three 64-bit words; indices of one and two
        # 32-bit words, unsorted and repeated, each row the row drawn alone
        indices = [2**64 - 1, 0, 2**32, 3, 0, 2**64 - 1, 2**32, 11]
        draws = sweep._draw_batch(seed, indices)
        assert draws[0].tolist() == indices
        batch = sweep._draw_batch(seed, range(512))  # a full sweep batch
        rows = [(draws, row, index) for row, index in enumerate(indices)] + [(batch, k, k) for k in (0, 3, 11, 511)]
        for columns, row, index in rows:
            alone = sweep._draw_batch(seed, [index])
            assert [c[row].tobytes() for c in columns] == [c[0].tobytes() for c in alone], (index, row)

    def test_crafted_streams_take_the_rare_branches(self):
        # the lowest and highest uniforms reach the ends of every range, and
        # zero moduli leave a mass below 1e-12, so the total goes to z^n
        top = 1.0 - 2.0**-53
        u = np.array([np.zeros(sweep._SLOTS), np.full(sweep._SLOTS, top), np.full(sweep._SLOTS, 0.5)])
        u[2, 4 : 4 + MAX_DEGREE] = 0.0
        a0, n, degree, r, h = sweep._draw(u)
        assert n.tolist() == [1, 6, 4] and degree.tolist() == [1, 16, 10]
        assert (a0[0], r[0]) == (A0_MODULUS_RANGE[0], RADIUS_RANGE[0])
        assert h[0].tolist() == [0.0, 0.1 * COEFF_BUDGET] + [0.0] * (MAX_DEGREE - 1)
        assert abs(a0[1]) < A0_MODULUS_RANGE[1] and r[1] < RADIUS_RANGE[1]
        assert -2 * np.spacing(2 * np.pi) < np.angle(a0[1]) < 0.0  # the phase, just below 2 pi
        assert np.count_nonzero(h[1]) == 11 and np.sum(np.abs(h[1])) < COEFF_BUDGET
        assert h[2].tolist() == [0.0] * 4 + [0.55 * COEFF_BUDGET] + [0.0] * (MAX_DEGREE - 4)

    def test_negative_seeds_and_indices_are_domain_errors(self):
        for seed, index in ((-1, 0), (1, -1)):
            with pytest.raises(DomainError, match="must be non-negative"):
                draw_trial(seed, index)

    def test_indices_past_64_bits_are_domain_errors(self):
        for call in (draw_trial, run_trial):
            with pytest.raises(DomainError, match=r"^trial indices must lie in \[0, 2\^64\), got 18446744073709551616$"):
                call(1, 2**64)


def sweep_digest(summary) -> str:
    """sha256 of everything a summary reports, the failed trials' draws included."""
    failed = [
        (o.params.index, o.params.a0, o.params.n, o.params.r, o.params.exponent.coeffs.tolist(),
         o.min_report.to_dict(), o.max_report.to_dict())
        for o in summary.failed
    ]
    fields = (summary.trials, summary.seed, summary.tolerance, summary.max_duality_gap, summary.worst_margins, failed)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestPinnedOutputs:
    """Sweep outputs of one disk search per trial; a digest changes only with a stated reason."""

    #: sha256 of each ``run_sweep(trials, seed, tol)``, keyed apart from the
    #: test ids so that a re-pin keeps them.
    DIGESTS = {
        (1000, 1, DEFAULT_TOL): "2f7352f9e267b40b5ec8fc0e7b3803f67872489ec9868d4fe41d56bc222ecbc8",
        (1000, 5, DEFAULT_TOL): "9d71404c3bd55cb241d94f51a1d46b6768f9da0e81d1269a48f6532d44a87dc2",
        (1000, 7, DEFAULT_TOL): "30d6b1fbee735654f1ed2dfed1be8b44795cc4309fd47f263e15bd42a02786c8",
        (1000, 42, DEFAULT_TOL): "c14e20a6a450f5ab1a3fcb22b4fc9194cd1064f77eab8af4aa8f8d5e6661a344",
        (300, 3, 1e-18): "bdee99b8672e2a4f1b44f95602dcacc421bf2d8108e0945c6727178deac8ef5b",
    }

    @pytest.mark.parametrize("trials, seed, tol", list(DIGESTS))
    def test_sweep_digest(self, trials, seed, tol):
        assert sweep_digest(run_sweep(trials, seed, tol)) == self.DIGESTS[trials, seed, tol]

    def test_cli_sweep_output(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["sweep", "--trials", "300", "--seed", "42", "--format", "json"])
        assert code == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "838ff9ffd510c28251310a342404861504eabf5b789280da2819d3454ff62c2d"


class TestRunTrial:
    def test_single_trial_passes(self):
        outcome = run_trial(42, 0)
        assert outcome.passed
        assert outcome.min_report.case == "min"
        assert outcome.max_report.case == "max"
        assert outcome.duality_gap <= 1e-10

    def test_min_and_max_reports_agree_on_m(self):
        # in the pinned hard trial the scalar max search's polished root and
        # the grid winner differ by 1 ulp in modulus; the root must be kept
        # over the grid point whichever side of the ulp it lands on, so the
        # max chain at 1/f's own maximum agrees with the min chain too
        pairs = [(o.min_report, o.max_report) for o in (run_trial(99, index) for index in range(5))]
        columns = hard_trial_columns()
        low, high = sweep._chains(columns, DEFAULT_TOL, DEFAULT_GRID)
        assert low.reports == high.reports == {}  # the batch settles the row
        p = sweep._trial(columns, 0)
        g = Reciprocal(ExpSeriesFunction(p.a0, p.exponent))
        own = check_max_lemma(g, p.n, find_max_on_disk(g, p.r).z0)
        pairs += [(low.report(0), high.report(0)), scalar_reports(p), (low.report(0), own)]
        for min_report, max_report in pairs:
            assert min_report.passed and max_report.passed
            assert min_report.m == pytest.approx(max_report.m, abs=1e-10)


class TestRunSweep:
    def test_small_sweep_is_clean(self):
        summary = run_sweep(20, 11)
        assert summary.passed
        assert summary.failures == 0
        assert summary.failed == []
        assert summary.max_duality_gap <= 1e-10
        for name, margin in summary.worst_margins.items():
            assert margin is None or margin >= -summary.tolerance, name

    def test_coarse_grid_completes(self):
        # a 16-point grid misses minimum basins; the curvature certificate
        # refines it, so no trial's disk search fails its boundary check
        summary = run_sweep(40, 1, grid=16)
        assert summary.failures == 0
        assert summary.max_duality_gap <= 1e-10

    def test_repeatable(self):
        a = run_sweep(10, 5)
        b = run_sweep(10, 5)
        assert a.worst_margins == b.worst_margins
        assert a.max_duality_gap == b.max_duality_gap

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_sweep(0, 1)

    def test_zero_trials_is_a_domain_error(self):
        # a precondition like every other, so one DiskExtremaError handler catches it
        with pytest.raises(DomainError, match="need at least one trial, got -3"):
            run_sweep(-3, 1)


class TestBatchedSearches:
    """The batched disk searches of a sweep against the scalar ones, which are their oracle."""

    @pytest.mark.parametrize("seed", [1, 7, 42, 4510362879286407517])
    def test_batch_matches_the_scalar_searches(self, seed):
        # the scalar minimum of f is the batch's, and since |1/f| = 1/|f| the
        # scalar maximum of 1/f lands on the batch's minimum too, at 1/|f|
        trials = [draw_trial(seed, index) for index in range(100)]
        steps = [0, 0]
        for p, got in zip(trials, batched_searches(seed, 100)):
            assert got is not None, p.index  # the default sweep leaves no row to the scalar search
            f = ExpSeriesFunction(p.a0, p.exponent)
            oracles = ((find_min_on_disk(f, p.r), got.value), (find_max_on_disk(Reciprocal(f), p.r), 1.0 / got.value))
            for want, value in oracles:
                assert abs((got.theta - want.theta + math.pi) % (2 * math.pi) - math.pi) <= 2e-13
                assert value == pytest.approx(want.value, rel=1e-15, abs=0.0)
                assert want.grid_size == DEFAULT_GRID  # the batch's grid, which it never refines
                assert got.certified_gap == pytest.approx(want.certified_gap, rel=1e-14, abs=0.0)
                steps[0] += got.refine_iterations
                steps[1] += want.refine_iterations
        # rounding moves a step count now and then; the same Illinois steps keep the totals close
        assert steps[0] == pytest.approx(steps[1], rel=0.01)

    @pytest.mark.parametrize("minimize", [True, False])
    def test_rows_that_double_or_have_no_sign_change_are_left_open(self, minimize):
        # 0.5 z^60 at r = 0.95 needs a 512-point grid, in the scalar minimum
        # of f and maximum of 1/f alike; a constant has no sign change to polish
        h = np.zeros((3, 61), dtype=complex)
        h[0, 60] = 0.5
        h[2, 3], h[2, 5] = 0.3, 0.2j
        a0, r = np.array([1.0, 0.8, 1.2 + 0.3j]), np.array([0.95, 0.5, 0.7])
        coarse = _search_exp_batch(a0, h, r, 256)
        assert coarse[0] is None and coarse[1] is None and coarse[2] is not None
        fine = _search_exp_batch(a0, h, r, 512)
        f = ExpSeriesFunction(1.0, PowerSeries(0.0, 60, [0.5]))
        scalar = find_min_on_disk(f, 0.95) if minimize else find_max_on_disk(Reciprocal(f), 0.95)
        assert fine[0] is not None and scalar.grid_size == 512
        assert fine[1] is None

    @pytest.mark.parametrize("grid", [16, 100])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_coarse_grids_take_the_scalar_search(self, seed, grid):
        # a grid that is not a multiple of the boundary ring leaves every row
        # to the scalar search, so the summary is the per-trial loop's, bit for bit
        assert summary_fields(run_sweep(40, seed, grid=grid)) == scalar_sweep(40, seed, grid=grid)

    def test_default_sweep_makes_no_scalar_search(self, monkeypatch):
        calls, search = [], sweep.find_min_on_disk
        monkeypatch.setattr(sweep, "find_min_on_disk", lambda *args: calls.append(args) or search(*args))
        summary = run_sweep(200, 42)
        assert summary.passed
        assert calls == []

    def test_failed_trials_replay_exactly(self):
        summary = run_sweep(20, 3, tol=1e-18)
        assert summary.failures == 20
        for outcome in summary.failed:
            replay = run_trial(3, outcome.params.index, tol=1e-18)
            assert outcome.min_report.to_dict() == replay.min_report.to_dict()
            assert outcome.max_report.to_dict() == replay.max_report.to_dict()

    def test_rows_on_the_scalar_path_report_the_scalar_checks(self):
        # a 16-point grid leaves every row to the scalar search and check, so
        # the trials that fail and each failed trial's reports are the scalar ones, bit for bit
        summary = run_sweep(12, 2, tol=1e-18, grid=16)
        oracle = [scalar_reports(draw_trial(2, index), 1e-18, 16) for index in range(12)]
        failing = [index for index, (low, high) in enumerate(oracle) if not (low.passed and high.passed)]
        assert [o.params.index for o in summary.failed] == failing
        assert len(failing) >= 10  # at tol = 1e-18 the im residual fails all but a few trials
        for outcome in summary.failed:
            low, high = oracle[outcome.params.index]
            assert outcome.min_report.to_dict() == low.to_dict()
            assert outcome.max_report.to_dict() == high.to_dict()


#: Ulps of a chain's scale by which two evaluations of it at one point may
#: differ.  Horner's rule over the ``MAX_DEGREE + 1`` coefficients of h rounds
#: h, h' and h'' within ``2 MAX_DEGREE`` units of their absolute moments
#: (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5), which
#: ``K = sum k^2 |h_k| r^k`` bounds after the scaling by z; exp, the jet
#: products and the link formulas add at most 16 more roundings.  So each
#: evaluation is within ``(2 MAX_DEGREE + 16) u`` of ``max(1, K, |schwarz|)``,
#: and two evaluations are within twice that.
CHAIN_ULPS = 2 * (2 * MAX_DEGREE + 16)


def chain_scale(p, report) -> float:
    k = np.arange(p.n, p.exponent.order + 1)
    moment = float(np.sum(k * k * np.abs(p.exponent.coeffs) * p.r**k))
    return max(1.0, moment, abs(report.schwarz or 0.0))


class TestAgainstTheScalarOracle:
    """The array chain of the default sweep against the per-trial scalar loop."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_sweep_matches_the_scalar_sweep(self, seed):
        trials = 200
        summary = run_sweep(trials, seed)
        gap, worst, failed = scalar_sweep(trials, seed)
        assert summary.failed == failed == []
        assert summary.max_duality_gap <= 1e-10 and gap <= 1e-10
        assert abs(summary.max_duality_gap - gap) <= 1e-10
        # At tol = 1e-18 a trial fails on its im residual, a few ulps of m at
        # a polished root, unless that residual rounds below 1e-18; so a
        # trial may pass in either loop only where the residual is rounding.
        failing = {o.params.index for o in run_sweep(trials, seed, tol=1e-18).failed}
        failing &= {entry[0] for entry in scalar_sweep(trials, seed, tol=1e-18)[2]}
        passing = set(range(trials)) - failing
        # A worst margin can differ by the rounding of the two chains, at the
        # sweep's point, and by how far the scalar search's point moves the
        # scalar chain; run_trial gives the sweep's report of each trial.
        bound = dict.fromkeys(LINK_NAMES, 0.0)
        for index in range(trials):
            p = draw_trial(seed, index)
            f = ExpSeriesFunction(p.a0, p.exponent)
            outcome, oracle = run_trial(seed, index), scalar_reports(p)
            cases = (
                (outcome.min_report, oracle[0], check_min_theorem, f),
                (outcome.max_report, oracle[1], check_max_lemma, Reciprocal(f)),
            )
            for got, want, check, g in cases:
                here = check(g, p.n, got.z0)
                rounding = CHAIN_ULPS * np.spacing(chain_scale(p, here))
                for name in LINK_NAMES:
                    a, b, c = (report.checks[name].margin for report in (got, here, want))
                    assert (a is None) == (b is None) == (c is None), (index, name)
                    if a is not None:
                        assert abs(a - b) <= rounding, (index, name)
                        bound[name] = max(bound[name], rounding + abs(b - c))
                if index in passing:
                    assert max(got.im_residual, want.im_residual) <= rounding, index
        for name, margin in summary.worst_margins.items():
            assert abs(margin - worst[name]) <= bound[name], name


class TestTrialErrors:
    """A trial's error aborts the sweep at that trial, as it did with one search per trial."""

    @staticmethod
    def patch_draws(monkeypatch, changes):
        """Edit the batch draw's columns ``(index, a0, n, degree, r, h)`` of each trial in ``changes``."""
        real = sweep._draw_batch

        def draw(seed, indices):
            draws = real(seed, indices)
            for row, index in enumerate(draws[0].tolist()):
                if index in changes:
                    changes[index](draws, row)
            return draws

        monkeypatch.setattr(sweep, "_draw_batch", draw)

    @staticmethod
    def constant(draws, row):
        draws[5][row] = 0.0

    @staticmethod
    def outside(draws, row):
        draws[4][row] = 1.5

    def test_constant_exponent_aborts_with_its_error(self, monkeypatch):
        self.patch_draws(monkeypatch, {3: self.constant})
        with pytest.raises(ConstantFunction, match="^the chain is vacuous for a constant function$"):
            run_sweep(10, 42)

    def test_the_earliest_trial_error_comes_first(self, monkeypatch):
        # trial 5's search raises, but trial 3's chain check comes before it
        self.patch_draws(monkeypatch, {3: self.constant, 5: self.outside})
        with pytest.raises(ConstantFunction):
            run_sweep(10, 42)

    def test_a_scalar_search_error_surfaces_at_its_trial(self, monkeypatch):
        self.patch_draws(monkeypatch, {5: self.outside})
        with pytest.raises(DomainError, match=r"^circle radius must lie in \(0, 1\), got 1.5$"):
            run_sweep(10, 42)

    def test_a_settled_row_whose_chain_raises_takes_the_scalar_check(self, monkeypatch):
        # with a threshold of 10 every settled row's moduli are too close for
        # the bounds, so each row takes the scalar check at the batch's point,
        # which raises at trial 0's minimum, and no scalar search runs
        monkeypatch.setattr(lemma, "ZERO_THRESHOLD", 10.0)
        calls = []
        monkeypatch.setattr(sweep, "find_min_on_disk", lambda *args: calls.append(args))
        with pytest.raises(ZeroInDisk, match="; f vanishes at the claimed minimum$"):
            run_sweep(10, 42)
        assert calls == []

    def test_an_edge_error_in_the_batch_surfaces_at_its_trial(self, monkeypatch):
        # a negative tolerance fails every result's origin check: the batch
        # leaves every row open, and the first scalar search, trial 0's, raises
        monkeypatch.setattr(extremum, "INTERIOR_TOL", -1.0)
        trials = [draw_trial(1, index) for index in range(5)]
        assert batched_searches(1, 5) == [None] * 5
        radii, search = [], sweep.find_min_on_disk

        def spy(f, r, grid):
            radii.append(r)
            return search(f, r, grid)

        monkeypatch.setattr(sweep, "find_min_on_disk", spy)
        with pytest.raises(InteriorBelowBoundary, match="^boundary ring or origin sample"):
            run_sweep(5, 1)
        assert radii == [trials[0].r]
