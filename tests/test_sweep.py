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
from diskextrema.sweep import A0_MODULUS_RANGE, CLASS_INDEX_RANGE, COEFF_BUDGET, MAX_DEGREE, RADIUS_RANGE


def scalar_reports(p, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID):
    """One trial's min and max reports, from one scalar disk search and chain check each."""
    f = ExpSeriesFunction(p.a0, p.exponent)
    g = Reciprocal(f)
    low = check_min_theorem(f, p.n, find_min_on_disk(f, p.r, grid).z0, tol)
    high = check_max_lemma(g, p.n, find_max_on_disk(g, p.r, grid).z0, tol)
    return low, high


def scalar_sweep(trials: int, seed: int, tol: float = DEFAULT_TOL, grid: int = DEFAULT_GRID):
    """The sweep as a loop of one scalar min and max disk search per trial."""
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
    """The batch's min and max disk searches of trials ``0 .. count - 1`` of ``seed``.

    An entry is None where the row needs the scalar search.
    """
    _, a0, _, _, r, h = sweep._draw_batch(seed, range(count))
    return sweep._searches(a0, h, r, grid)


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


def reference_draw(rng: np.random.Generator):
    """``(a0, n, r, coefficients)`` of one trial, drawn as ``draw_trial`` drew them with numpy's Generator."""
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
    return complex(mod_a0 * np.exp(1j * arg_a0)), n, float(r), coeffs


def assert_draws_match(columns, references):
    """Every column of ``sweep._draw``/``_draw_batch`` rows equals its reference draw, bit for bit."""
    a0, n, degree, r, h = columns[-5:]
    want_h = np.zeros_like(h)
    for row, (_, want_n, _, coeffs) in enumerate(references):
        want_h[row, want_n : want_n + len(coeffs)] = coeffs
    want_a0, want_n, want_r, coeffs = zip(*references)
    assert a0.tobytes() == np.array(want_a0).tobytes()
    assert n.tolist() == list(want_n)
    assert degree.tolist() == [k + len(c) - 1 for k, c in zip(want_n, coeffs)]
    assert r.tobytes() == np.array(want_r).tobytes()
    assert h.tobytes() == want_h.tobytes()


PCG_MULT, MASK64, MASK128 = sweep._PCG_MULT, (1 << 64) - 1, (1 << 128) - 1


def crafted_stream(second: int, third: int) -> tuple[int, int]:
    """A PCG64 ``(state, inc)`` whose outputs 2 and 3 (counting from 0) are ``second`` and ``third``.

    XSL-RR outputs ``rotr(high ^ low, high >> 58)``, so a state of any
    high half outputs a chosen word for one low half.  The increment takes
    the state after output 2 to the one after output 3, and three steps
    back give the state to start from.
    """

    def giving(word: int, high: int) -> int:
        turn = high >> 58
        return high << 64 | high ^ ((word << turn | word >> (64 - turn)) & MASK64)

    after2 = giving(second, 0x9E3779B97F4A7C15)
    for high in (0xBF58476D1CE4E5B9, 0xBF58476D1CE4E5B8):  # the low bits decide the increment's parity
        after3 = giving(third, high)
        inc = (after3 - PCG_MULT * after2) & MASK128
        if inc & 1:
            break
    state = pow(PCG_MULT, -3, 1 << 128) * (after2 - (1 + PCG_MULT + PCG_MULT**2) * inc) & MASK128
    return state, inc


class TestDrawBatch:
    """The batch draw against numpy's ``default_rng([seed, index])`` draws, its oracle."""

    @pytest.mark.parametrize("seed", [1, 5, 42, 4510362879286407517])
    def test_matches_default_rng(self, seed):
        indices = range(10_000)
        references = [reference_draw(np.random.default_rng([seed, index])) for index in indices]
        draws = sweep._draw_batch(seed, indices)
        assert draws[0].tolist() == list(indices)
        assert_draws_match(draws, references)

    @pytest.mark.parametrize("seed", [0, 7, 4510362879286407517, 2**70 + 3, 2**96 + 5])
    def test_a_batch_mixes_index_word_counts(self, seed):
        # SeedSequence hashes one 32-bit word of an index below 2^32 and two
        # above; with a seed of three or four words the entropy outgrows the
        # four-word pool, whose extra words take their own mixing loop
        indices = [0, 2**32, 3, 2**32 - 1, 2**40 + 7, 2**64 - 1, 11, 2**33]
        references = [reference_draw(np.random.default_rng([seed, index])) for index in indices]
        assert_draws_match(sweep._draw_batch(seed, indices), references)

    def test_crafted_streams_take_the_rare_branches(self):
        # Outputs 2 and 3 of a stream feed the two bounded integers.  n takes
        # the low half of output 2 with bound 6, and a half h is rejected
        # when 6 h mod 2^32 < 2^32 mod 6 = 4; the degree takes the next half
        # with bound 17 - n, for n = 2 bound 15 and threshold 1.
        n_is_2 = 1 << 30  # 6 * 2^30 / 2^32 = 1.5
        cases = [
            # both halves of output 2 reject n, and output 3 gives n = 1 and
            # degree 16, so the last draws lie past the first 37 outputs
            (0, 0xF0000000_00000001),
            (n_is_2, 0x0123456789ABCDEF),  # a zero high half rejects the degree
            (1 << 32 | n_is_2, 0),  # degree = n = 2, and a modulus of 0 leaves mass 0 < 1e-12
            (0x0123456789ABCDEF, 0xFEDCBA9876543210),  # no rejection, in the same batch
        ]

        def pcg64(state, inc):
            bits = np.random.PCG64()
            bits.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
            }
            return bits

        streams = [crafted_stream(*case) for case in cases]
        references = [reference_draw(np.random.Generator(pcg64(*stream))) for stream in streams]
        assert [pcg64(*stream).random_raw(4)[2:].tolist() for stream in streams] == [list(case) for case in cases]
        assert [(reference[1], len(reference[3])) for reference in references[:3]] == [(1, 16), (2, 9), (2, 1)]
        assert references[2][3][0].imag == 0.0  # the zero-mass branch's one coefficient, the total

        def halves(values):
            return tuple(np.array([v >> shift & MASK64 for v in values], dtype=np.uint64) for shift in (64, 0))

        state, inc = zip(*streams)
        assert_draws_match(sweep._draw(halves(state), halves(inc)), references)

    def test_the_pinned_hard_trial_is_drawn(self):
        p = draw_trial(4510362879286407517, 43)
        assert (p.n, p.r) == (2, 0.852868160831409)
        a0, n, r, coeffs = reference_draw(np.random.default_rng([4510362879286407517, 43]))
        assert (p.a0, p.n, p.r) == (a0, n, r) and p.exponent.coeffs.tobytes() == coeffs.tobytes()

    def test_negative_seeds_and_indices_are_domain_errors(self):
        for seed, index in ((-1, 0), (1, -1)):
            with pytest.raises(DomainError, match="must be non-negative"):
                draw_trial(seed, index)


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
    """Sweep outputs pinned from the per-trial ``default_rng`` draws, which the batch draw replaced."""

    @pytest.mark.parametrize(
        "trials, seed, tol, digest",
        [
            (1000, 1, DEFAULT_TOL, "d7dc9c234f6f7a67380e03595529c5312a8352461b26e7f3d986ec3c39626031"),
            (1000, 5, DEFAULT_TOL, "0a5c48540d6599e0fc0f62ed3ff67c01b9ea7d85a5180d6e141f0f77340a2207"),
            (1000, 7, DEFAULT_TOL, "68b3062e7f9baa09a49c12b2a16fa157b9dc8e51475d9be6375038980e9e703e"),
            (1000, 42, DEFAULT_TOL, "ab9cf81835c7e9094cef9c5e779d68d188daf4e009b229e19b5ec24b5778a52f"),
            (300, 3, 1e-18, "d0590e4046ad041b842ef633b6e0e9597e4fe30b6c4389eb6f006c0fbd778a86"),
        ],
    )
    def test_sweep_digest(self, trials, seed, tol, digest):
        assert sweep_digest(run_sweep(trials, seed, tol)) == digest

    def test_cli_sweep_output(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["sweep", "--trials", "300", "--seed", "42", "--format", "json"])
        assert code == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "fe8c1701ba7bd3fad3aedddd2673367b692c44af63d34f2a89490666f8e17883"


class TestRunTrial:
    def test_single_trial_passes(self):
        outcome = run_trial(42, 0)
        assert outcome.passed
        assert outcome.min_report.case == "min"
        assert outcome.max_report.case == "max"
        assert outcome.duality_gap <= 1e-10

    def test_min_and_max_reports_agree_on_m(self):
        # in the last input the max search's polished root and the grid
        # winner differ by 1 ulp in modulus; the root must be kept over the
        # grid point whichever side of the ulp it lands on
        cases = [(99, index) for index in range(5)] + [(4510362879286407517, 43)]
        for seed, index in cases:
            outcome = run_trial(seed, index)
            assert outcome.min_report.m == pytest.approx(outcome.max_report.m, abs=1e-10)


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
        trials = [draw_trial(seed, index) for index in range(100)]
        minima, maxima = batched_searches(seed, 100)
        steps = [0, 0]
        for p, low, high in zip(trials, minima, maxima):
            f = ExpSeriesFunction(p.a0, p.exponent)
            for got, want in ((low, find_min_on_disk(f, p.r)), (high, find_max_on_disk(Reciprocal(f), p.r))):
                assert got is not None, p.index  # the default sweep leaves no row to the scalar search
                assert abs((got.theta - want.theta + math.pi) % (2 * math.pi) - math.pi) <= 2e-13
                assert got.value == pytest.approx(want.value, rel=1e-15, abs=0.0)
                assert want.grid_size == DEFAULT_GRID  # the batch's grid, which it never refines
                assert got.certified_gap == pytest.approx(want.certified_gap, rel=1e-14, abs=0.0)
                steps[0] += got.refine_iterations
                steps[1] += want.refine_iterations
        # rounding moves a step count now and then; the same Illinois steps keep the totals close
        assert steps[0] == pytest.approx(steps[1], rel=0.01)

    @pytest.mark.parametrize("minimize", [True, False])
    def test_rows_that_double_or_have_no_sign_change_are_left_open(self, minimize):
        # 0.5 z^60 at r = 0.95 needs a 512-point grid; a constant has no sign change to polish
        h = np.zeros((3, 61), dtype=complex)
        h[0, 60] = 0.5
        h[2, 3], h[2, 5] = 0.3, 0.2j
        a0, r = np.array([1.0, 0.8, 1.2 + 0.3j]), np.array([0.95, 0.5, 0.7])
        coarse = _search_exp_batch(a0, h, r, 256, np.full(3, minimize))
        assert coarse[0] is None and coarse[1] is None and coarse[2] is not None
        fine = _search_exp_batch(a0, h, r, 512, np.full(3, minimize))
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
        calls = []
        for name in ("find_min_on_disk", "find_max_on_disk"):
            search = getattr(sweep, name)
            monkeypatch.setattr(sweep, name, lambda *args, _s=search: calls.append(args) or _s(*args))
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
        for name in ("find_min_on_disk", "find_max_on_disk"):
            monkeypatch.setattr(sweep, name, lambda *args: calls.append(args))
        with pytest.raises(ZeroInDisk, match="; f vanishes at the claimed minimum$"):
            run_sweep(10, 42)
        assert calls == []

    def test_an_edge_error_in_the_batch_surfaces_at_its_trial(self, monkeypatch):
        # a negative tolerance fails every result's origin check: the batch
        # leaves every row open, and the first scalar search, trial 0's, raises
        monkeypatch.setattr(extremum, "INTERIOR_TOL", -1.0)
        trials = [draw_trial(1, index) for index in range(5)]
        assert batched_searches(1, 5) == ([None] * 5, [None] * 5)
        radii, search = [], sweep.find_min_on_disk

        def spy(f, r, grid):
            radii.append(r)
            return search(f, r, grid)

        monkeypatch.setattr(sweep, "find_min_on_disk", spy)
        with pytest.raises(InteriorBelowBoundary, match="^boundary ring or origin sample"):
            run_sweep(5, 1)
        assert radii == [trials[0].r]
