import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskextrema import (
    ConstantFunction,
    DegenerateModuli,
    DomainError,
    ExampleFamily,
    ExpSeriesFunction,
    LinkCheck,
    PowerSeries,
    Reciprocal,
    SeriesFunction,
    ZeroDenominator,
    ZeroInDisk,
    check_max_lemma,
    check_min_theorem,
    find_max_on_disk,
    find_min_on_disk,
    mocanu_bounds,
)
from diskextrema.lemma import format_doc
from conftest import Rotated, log_derivative, schwarz_quantity
from test_extremum import random_exp_function


class TestLogDerivative:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_monomial_gives_class_index(self, k, rng):
        f = SeriesFunction(PowerSeries(0.0, k, [1.0]))
        for _ in range(5):
            z0 = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert log_derivative(f, z0) == pytest.approx(k, abs=1e-13)

    def test_example_family_hand_value(self):
        assert log_derivative(ExampleFamily(0.8, 2), 0.5j) == pytest.approx(
            -8.0 / 15.0 + 0j, abs=1e-15
        )

    def test_reciprocal_flips_sign(self, rng):
        for _ in range(10):
            f = random_exp_function(rng)
            z0 = 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = log_derivative(Reciprocal(f), z0)
            rhs = -log_derivative(f, z0)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_zero_value(self):
        f = SeriesFunction(PowerSeries(-0.5, 1, [1.0]))  # zero at z = 0.5
        with pytest.raises(ZeroDenominator, match="log-derivative ratio undefined"):
            check_max_lemma(f, 1, 0.5)


class TestSchwarzQuantity:
    def test_identity_map(self):
        assert schwarz_quantity(SeriesFunction(PowerSeries(0.0, 1, [1.0])), 0.3j) == 1.0

    def test_example_family_hand_value(self):
        assert schwarz_quantity(ExampleFamily(0.8, 2), 0.5j) == pytest.approx(1.2, abs=1e-14)

    def test_reciprocal_identity_at_generic_points(self, rng):
        # schwarz(1/f) = schwarz(f) - 2 Re(z0 f'/f) everywhere, not just at extrema
        for _ in range(10):
            f = random_exp_function(rng)
            z0 = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            lhs = schwarz_quantity(Reciprocal(f), z0)
            rhs = schwarz_quantity(f, z0) - 2.0 * log_derivative(f, z0).real
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rejects_zero_derivative(self):
        # f' = 2z - 3z^2 vanishes at z0 = 2/3, where f = 4/27 does not:
        # the chain leaves the curvature quantity undefined there
        f = SeriesFunction(PowerSeries(0.0, 2, [1.0, -1.0]))
        assert abs(f.jet(2.0 / 3.0)[1]) < 1e-15
        report = check_max_lemma(f, 2, 2.0 / 3.0)
        assert report.schwarz is None
        assert report.checks["schwarz_vs_m"] == LinkCheck(None, None, None)


class TestMocanuBounds:
    def test_jack_reduction_is_exact(self):
        for n in (1, 2, 3, 7):
            for fz0 in (0.5, 0.3 - 0.4j, 1e-3j):
                bound_sq, bound_abs = mocanu_bounds(0.0, fz0, n, "max")
                assert bound_sq == float(n)
                assert bound_abs == float(n)

    def test_min_case_hand_value(self):
        bound_sq, bound_abs = mocanu_bounds(0.8, 0.6, 2, "min")
        assert bound_sq == pytest.approx(2.0 * 0.04 / 0.28, abs=1e-15)
        assert bound_abs == pytest.approx(2.0 * 0.2 / 1.4, abs=1e-15)
        assert bound_sq == pytest.approx(bound_abs, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        re_a=st.floats(-2, 2),
        im_a=st.floats(-2, 2),
        re_f=st.floats(-2, 2),
        im_f=st.floats(-2, 2),
        n=st.integers(1, 6),
    )
    def test_squared_bound_dominates(self, re_a, im_a, re_f, im_f, n):
        a0 = complex(re_a, im_a)
        fz0 = complex(re_f, im_f)
        case = "max" if abs(fz0) > abs(a0) else "min"
        try:
            bound_sq, bound_abs = mocanu_bounds(a0, fz0, n, case)
        except DegenerateModuli:
            return
        # equality holds when fz0 and a0 are collinear; allow rounding there
        assert bound_sq >= bound_abs - 1e-14 * max(1.0, bound_abs)
        assert bound_abs >= 0.0

    def test_degenerate_moduli(self):
        with pytest.raises(DegenerateModuli):
            mocanu_bounds(0.8, 0.8j, 2, "min")
        with pytest.raises(DegenerateModuli):
            mocanu_bounds(0.8, 0.6, 2, "max")  # wrong orientation

    def test_rejects_unknown_case(self):
        with pytest.raises(DomainError):
            mocanu_bounds(0.8, 0.6, 2, "sideways")


class TestCheckMaxLemma:
    def test_reciprocal_of_example_family(self):
        g = Reciprocal(ExampleFamily(0.8, 2))
        report = check_max_lemma(g, 2, 0.5j)
        assert report.m == pytest.approx(8.0 / 15.0, abs=1e-12)
        assert report.passed

    def test_jack_saturation(self):
        f = SeriesFunction(PowerSeries(0.0, 1, [1.0]))
        report = check_max_lemma(f, 1, 0.5 * np.exp(0.3j))
        assert report.m == pytest.approx(1.0, abs=1e-13)
        assert report.bound_sq == 1.0
        assert report.passed

    def test_random_sweep_never_fails(self, rng):
        for _ in range(25):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            g = Reciprocal(f)
            located = find_max_on_disk(g, r)
            assert check_max_lemma(g, g.n, located.z0).passed

    def test_zero_derivative_skips_curvature_link(self):
        # f' = 2z - 4z^2 vanishes at z0 = 0.5, a non-extremal point
        f = SeriesFunction(PowerSeries(0.8, 2, [1.0, -4.0 / 3.0]))
        report = check_max_lemma(f, 2, 0.5)
        assert report.schwarz is None
        link = report.checks["schwarz_vs_m"]
        assert link.passed is None and link.margin is None
        # the other links are still evaluated (and fail: z0 is not a max)
        assert report.checks["m_vs_bound_sq"].passed is False
        assert not report.passed

    def test_rejects_constant(self):
        with pytest.raises(ConstantFunction):
            check_max_lemma(SeriesFunction(PowerSeries(2.0, 1, [1e-16])), 1, 0.5)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            check_max_lemma(ExampleFamily(0.8, 2), 2, 0.5j, tol=0.0)

    @pytest.mark.parametrize("check", [check_min_theorem, check_max_lemma])
    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_rejects_non_finite_tolerance(self, check, tol):
        with pytest.raises(DomainError):
            check(ExampleFamily(0.8, 2), 2, 0.5j, tol=tol)


class TestCheckMinTheorem:
    def test_example_family_real_case(self):
        fam = ExampleFamily(0.8, 2)
        report = check_min_theorem(fam, 2, 0.5j)
        assert report.m == pytest.approx(8.0 / 15.0, abs=1e-15)
        assert report.schwarz == pytest.approx(1.2, abs=1e-14)
        assert report.bound_sq == pytest.approx(2.0 / 7.0, abs=1e-14)
        assert report.im_residual < 1e-15
        assert report.passed

    def test_example_family_complex_case(self):
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        z0 = 0.7 * np.exp(1j * np.pi / 3)
        report = check_min_theorem(fam, 3, z0)
        assert report.m == pytest.approx(1.029 / (1.343 * 0.8657), abs=1e-14)
        assert report.passed

    def test_duality_of_m(self, rng):
        for _ in range(10):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            lo = find_min_on_disk(f, r)
            hi = find_max_on_disk(Reciprocal(f), r)
            m_min = check_min_theorem(f, f.n, lo.z0).m
            m_max = check_max_lemma(Reciprocal(f), f.n, hi.z0).m
            assert abs(m_min - m_max) <= 1e-10

    def test_proof_identity_at_minima(self, rng):
        # curvature of 1/f at the minimum exceeds that of f by exactly 2m
        for _ in range(10):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            z0 = find_min_on_disk(f, r).z0
            m = check_min_theorem(f, f.n, z0).m
            lhs = schwarz_quantity(Reciprocal(f), z0) - 2.0 * m
            assert lhs == pytest.approx(schwarz_quantity(f, z0), abs=1e-9)

    def test_chain_ordering(self, rng):
        for _ in range(15):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            report = check_min_theorem(f, f.n, find_min_on_disk(f, r).z0)
            tol = report.tolerance
            assert report.m >= report.bound_sq - tol
            assert report.bound_sq >= report.bound_abs - tol
            assert report.bound_abs >= 0.0
            assert report.m >= -tol
            assert report.im_residual <= 1e-8 * max(1.0, abs(report.m))

    def test_rotation_invariance(self, rng):
        f = random_exp_function(rng)
        r = 0.6
        base = check_min_theorem(f, f.n, find_min_on_disk(f, r).z0)
        for phi in (0.7, 2.1):
            rot = Rotated(f, phi)
            report = check_min_theorem(rot, rot.n, find_min_on_disk(rot, r).z0)
            assert report.m == pytest.approx(base.m, abs=1e-10)
            assert report.schwarz == pytest.approx(base.schwarz, abs=1e-10)
            assert report.bound_sq == pytest.approx(base.bound_sq, abs=1e-10)
            assert report.bound_abs == pytest.approx(base.bound_abs, abs=1e-10)

    def test_rotation_moves_minimizer(self, rng):
        f = random_exp_function(rng)
        r = 0.6
        theta = find_min_on_disk(f, r).theta
        phi = 0.9
        theta_rot = find_min_on_disk(Rotated(f, phi), r).theta
        delta = (theta_rot + phi - theta) % (2 * np.pi)
        assert min(delta, 2 * np.pi - delta) < 1e-9

    def test_zero_at_claimed_minimum(self):
        f = SeriesFunction(PowerSeries(-0.5, 1, [1.0]))
        with pytest.raises(ZeroInDisk):
            check_min_theorem(f, 1, 0.5)


class TestReportStructure:
    @pytest.fixture
    def report(self):
        fam = ExampleFamily(0.8, 2)
        return check_min_theorem(fam, 2, find_min_on_disk(fam, 0.5).z0)

    def test_margins_recompute(self, report):
        checks = report.checks
        cap = report.tolerance * max(1.0, abs(report.m))
        assert checks["im_residual"].margin == cap - report.im_residual
        assert checks["m_sign"].margin == report.m
        assert checks["schwarz_vs_m"].margin == report.schwarz + report.m
        assert checks["m_vs_bound_sq"].margin == report.m - report.bound_sq
        assert checks["bound_ordering"].margin == report.bound_sq - report.bound_abs

    def test_strictness_recorded_separately(self, report):
        # the family satisfies the squared bound strictly
        link = report.checks["m_vs_bound_sq"]
        assert link.passed and link.strict

    def test_dict_round_trips_through_json(self, report):
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["case"] == "min"
        assert doc["passed"] is True
        assert set(doc["checks"]) == {
            "im_residual",
            "m_sign",
            "schwarz_vs_m",
            "m_vs_bound_sq",
            "bound_ordering",
        }

    def test_text_format_is_stable(self, report):
        lines = format_doc(report.to_dict()).splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys[:6] == ["case", "n", "z0_re", "z0_im", "f_z0_re", "f_z0_im"]
        assert "checks.im_residual.passed" in keys
        assert lines[keys.index("m")].split(" = ")[1] == format(report.m, ".17g")

    def test_format_doc_flattens_dicts_and_lists(self):
        doc = {"a": 1, "b": {"c": [0.1, None], "d": []}, "e": [{"f": True}]}
        assert format_doc(doc) == (
            "a = 1\nb.c.0 = 0.10000000000000001\nb.c.1 = null\ne.0.f = true\n"
        )

    def test_skipped_link_serializes_as_null(self):
        f = SeriesFunction(PowerSeries(0.8, 2, [1.0, -4.0 / 3.0]))
        text = format_doc(check_max_lemma(f, 2, 0.5).to_dict())
        assert "schwarz = null" in text
        assert "checks.schwarz_vs_m.margin = null" in text
