import numpy as np
import pytest

from diskextrema import DomainError, draw_trial, run_sweep, run_trial


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
