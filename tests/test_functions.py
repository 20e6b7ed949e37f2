import math

import numpy as np
import pytest

from diskextrema import (
    AnalyticFunction,
    DomainError,
    ExampleFamily,
    ExpSeriesFunction,
    PowerSeries,
    Reciprocal,
    SeriesFunction,
    find_min_on_disk,
)
from diskextrema.series import TAU
from conftest import Rotated, central_diff1, central_diff2, random_series, tame_series


def geometric_sum_oracle(family: ExampleFamily, z: complex, terms: int = 400) -> complex:
    """a0 + u sum_{j>=1} z^{jn}, summed far past machine-negligible tail."""
    w = z**family.n
    return family.a0 + family.u * sum(w**j for j in range(1, terms + 1))


class TestExampleFamilyValues:
    def test_value_at_origin(self):
        fam = ExampleFamily(0.8, 2)
        assert fam.value(0j) == fam.a0

    def test_hand_values(self):
        fam = ExampleFamily(0.8, 2)
        assert complex(fam.value(0.5j)) == pytest.approx(0.6, abs=1e-15)
        assert complex(fam.value(0.5)) == pytest.approx(0.85 / 0.75, abs=1e-15)

    def test_matches_geometric_series(self, rng):
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        for _ in range(25):
            z = 0.9 * rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert complex(fam.value(z)) == pytest.approx(
                geometric_sum_oracle(fam, z), rel=1e-12, abs=1e-12
            )

    def test_unimodular_direction(self):
        for a0 in (0.8, -1.3 + 0.4j, 0.51j, 2.0 * np.exp(2.5j)):
            fam = ExampleFamily(a0, 1)
            assert abs(abs(fam.u) - 1.0) <= 1e-15

    def test_rejects_small_a0(self):
        for bad in (0.5, -0.5, 0.3 + 0.39j, 0.0):
            with pytest.raises(DomainError):
                ExampleFamily(bad, 2)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            ExampleFamily(0.8, 0)

    def test_rejects_non_finite_a0(self):
        for bad in (complex("nan"), complex("inf"), complex(0.8, float("-inf")), complex("nanj")):
            with pytest.raises(DomainError, match="^family requires a finite a0"):
                ExampleFamily(bad, 2)

    def test_rejects_outside_disk(self):
        fam = ExampleFamily(0.8, 2)
        with pytest.raises(DomainError):
            fam.value(1.0)
        with pytest.raises(DomainError):
            fam.jet(1.2j)


class TestExampleFamilyDerivatives:
    def test_first_derivative_vanishes_at_origin(self):
        assert ExampleFamily(0.8, 2).jet(0j)[1] == 0

    def test_log_derivative_hand_value(self):
        fam = ExampleFamily(0.8, 2)
        z0 = 0.5j
        v, d1, _ = fam.jet(z0)
        ratio = z0 * d1 / v
        assert complex(ratio) == pytest.approx(-8.0 / 15.0, abs=1e-15)

    def test_curvature_hand_value(self):
        fam = ExampleFamily(0.8, 2)
        z0 = 0.5j
        _, d1, d2 = fam.jet(z0)
        assert (z0 * d2 / d1).real + 1.0 == pytest.approx(1.2, abs=1e-14)

    @pytest.mark.parametrize("a0,n", [(0.8, 2), (0.9 * np.exp(1j * np.pi / 3), 3), (0.6, 1)])
    def test_against_finite_differences(self, a0, n, rng):
        fam = ExampleFamily(a0, n)
        for _ in range(100):
            z = 0.9 * rng.uniform(0.05, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fd1 = central_diff1(fam.value, z)
            fd2 = central_diff2(fam.value, z)
            _, d1, d2 = fam.jet(z)
            assert complex(d1) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert complex(d2) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestImageDisk:
    def test_hand_values(self):
        center, radius = ExampleFamily(0.8, 2).image_disk(0.5)
        assert center == pytest.approx(0.8 + 0.0625 / 0.9375, abs=1e-15)
        assert radius == pytest.approx(0.25 / 0.9375, abs=1e-15)

    def test_degenerates_to_point_as_r_vanishes(self):
        fam = ExampleFamily(0.8, 2)
        center, radius = fam.image_disk(1e-8)
        assert abs(center - fam.a0) < 1e-15
        assert radius < 1e-15

    def test_boundary_maps_onto_image_circle(self):
        # Mobius maps send circles to circles: every boundary sample must
        # land exactly on the image circle.
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        center, radius = fam.image_disk(0.7)
        z = 0.7 * np.exp(2j * np.pi * np.arange(4096) / 4096)
        deviation = np.abs(np.abs(fam.value(z) - center) - radius)
        assert float(deviation.max()) < 1e-12

    def test_rejects_bad_radius(self):
        fam = ExampleFamily(0.8, 2)
        for r in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                fam.image_disk(r)


class TestMinPoint:
    def test_real_case(self):
        z0, lo = ExampleFamily(0.8, 2).min_point(0.5)
        assert complex(z0) == pytest.approx(0.5j, abs=1e-15)
        assert lo == pytest.approx(0.6, abs=1e-15)

    def test_complex_case(self):
        _, lo = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3).min_point(0.7)
        assert lo == pytest.approx(0.9 - 0.343 / 1.343, abs=1e-15)

    def test_approaches_a0_as_r_vanishes(self):
        _, lo = ExampleFamily(0.8, 2).min_point(1e-7)
        assert abs(lo - 0.8) < 1e-13

    def test_agrees_with_numeric_search(self):
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        res = find_min_on_disk(fam, 0.7)
        assert res.value == pytest.approx(fam.min_point(0.7).min_modulus, abs=1e-9)
        # any angle with z^n = -r^n is a legitimate minimizer
        assert abs(np.exp(1j * fam.n * res.theta) + 1.0) < 1e-8

    def test_nonvanishing_bound_at_samples(self, rng):
        fam = ExampleFamily(0.51 + 0.3j, 2)
        r = 0.85
        lo = fam.min_point(r).min_modulus
        assert lo > abs(fam.a0) - 0.5
        for _ in range(50):
            z = r * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(complex(fam.value(z))) >= lo - 1e-12


class TestClosedChain:
    def test_real_case_values(self):
        chain = ExampleFamily(0.8, 2).closed_chain(0.5)
        assert chain.m == pytest.approx(8.0 / 15.0, abs=1e-15)
        assert chain.bound == pytest.approx(2.0 / 7.0, abs=1e-15)
        assert chain.schwarz == pytest.approx(1.2, abs=1e-15)

    def test_low_index_case(self):
        chain = ExampleFamily(0.6, 1).closed_chain(0.5)
        assert chain.m == pytest.approx(0.5 / (1.5 * 0.4), abs=1e-15)
        assert chain.bound == pytest.approx(0.5 / 1.3, abs=1e-15)

    def test_limits_as_r_vanishes(self):
        chain = ExampleFamily(0.8, 3).closed_chain(1e-6)
        assert abs(chain.m) < 1e-15
        assert abs(chain.bound) < 1e-15
        assert chain.schwarz == pytest.approx(3.0, abs=1e-5)

    def test_contract_orderings(self, rng):
        for _ in range(40):
            a0 = rng.uniform(0.51, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fam = ExampleFamily(a0, int(rng.integers(1, 6)))
            chain = fam.closed_chain(rng.uniform(0.05, 0.95))
            assert chain.m > 0
            assert chain.schwarz > 0 > -chain.m
            assert chain.bound < chain.m


class TestSeriesFunction:
    def test_wraps_series_and_derivatives(self, rng):
        s = random_series(rng, n=2, degree=7)
        f = SeriesFunction(s)
        assert f.a0 == s.a0 and f.n == 2
        z = 0.4 - 0.3j
        assert f.value(z) == s(z)
        _, d1, d2 = f.jet(z)
        assert complex(d1) == pytest.approx(central_diff1(f.value, z), rel=1e-6)
        assert complex(d2) == pytest.approx(central_diff2(f.value, z), rel=1e-4)

    def test_constant_detection(self):
        assert SeriesFunction(PowerSeries(2.0, 1, [0.0])).is_constant()
        assert SeriesFunction(PowerSeries(2.0, 1, [1e-16])).is_constant()
        assert not SeriesFunction(PowerSeries(2.0, 1, [1e-14])).is_constant()

    def test_monomial_is_not_constant(self):
        # |z^k| is constant on every circle; the detector must not be fooled
        assert not SeriesFunction(PowerSeries(0.0, 3, [1.0])).is_constant()


class TestExpSeriesFunction:
    def test_value_and_derivatives(self, rng):
        h = PowerSeries(0.0, 2, [0.3 + 0.2j, -0.1j, 0.05])
        f = ExpSeriesFunction(1.3 * np.exp(0.7j), h)
        assert f.n == 2
        assert complex(f.value(0j)) == pytest.approx(f.a0, abs=1e-16)
        for _ in range(30):
            z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert complex(f.value(z)) == pytest.approx(
                f.a0 * np.exp(complex(h(z))), rel=1e-14
            )
            _, d1, d2 = f.jet(z)
            assert complex(d1) == pytest.approx(central_diff1(f.value, z), rel=1e-6)
            assert complex(d2) == pytest.approx(central_diff2(f.value, z), rel=1e-4)

    def test_never_vanishes(self, rng):
        h = PowerSeries(0.0, 1, [0.9, -0.6j, 0.5])
        f = ExpSeriesFunction(0.55, h)
        z = 0.95 * rng.uniform(0, 1, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        assert np.min(np.abs(f.value(z))) > 0.55 * np.exp(-2.0) - 1e-12

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            ExpSeriesFunction(1.0, PowerSeries(0.1, 1, [1.0]))
        with pytest.raises(DomainError):
            ExpSeriesFunction(0.0, PowerSeries(0.0, 1, [1.0]))

    def test_constant_detection(self):
        assert ExpSeriesFunction(2.0, PowerSeries(0.0, 1, [0.0])).is_constant()
        assert not ExpSeriesFunction(2.0, PowerSeries(0.0, 1, [0.1])).is_constant()


class TestWrappers:
    def test_reciprocal_values(self, rng):
        fam = ExampleFamily(0.8, 2)
        g = Reciprocal(fam)
        assert g.a0 == pytest.approx(1.25)
        assert g.n == 2
        for _ in range(20):
            z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert complex(g.value(z)) * complex(fam.value(z)) == pytest.approx(1.0, abs=1e-14)
            _, d1, d2 = g.jet(z)
            assert complex(d1) == pytest.approx(central_diff1(g.value, z), rel=1e-6)
            assert complex(d2) == pytest.approx(central_diff2(g.value, z), rel=1e-4)

    def test_reciprocal_rejects_vanishing_origin(self):
        with pytest.raises(DomainError):
            Reciprocal(SeriesFunction(PowerSeries(0.0, 1, [1.0])))

    def test_is_constant_has_no_default(self):
        class ValuesOnly(AnalyticFunction):
            a0, n = 1.0 + 0j, 1
            value = jet = staticmethod(lambda z: z)

        with pytest.raises(TypeError, match="is_constant"):
            ValuesOnly()

    def test_rotated_values(self, rng):
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        phi = 0.7
        rot = Rotated(fam, phi)
        assert rot.a0 == fam.a0 and rot.n == fam.n
        w = np.exp(1j * phi)
        for _ in range(20):
            z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert complex(rot.value(z)) == pytest.approx(complex(fam.value(w * z)), rel=1e-14)
            d1 = rot.jet(z)[1]
            assert complex(d1) == pytest.approx(central_diff1(rot.value, z), rel=1e-6)


class TestOnCircles:
    RADII = (0.1, 0.5, 0.9)

    @staticmethod
    def points(r: float, samples: int) -> np.ndarray:
        thetas = 2.0 * np.pi * np.arange(samples) / samples
        return r * np.exp(1j * thetas)

    @staticmethod
    def scale(s: PowerSeries, r: float) -> float:
        """``64 eps (|a0| + sum |a_k| r^k)``."""
        k = np.arange(s.n, s.order + 1)
        return 64 * np.finfo(np.float64).eps * (abs(s.a0) + (np.abs(s.coeffs) * r**k).sum())

    def test_default_evaluates_value_at_the_grid(self):
        # closed forms and wrappers without an override give value's own bits
        family = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        for f in (family, Rotated(family, 0.7)):
            for r in self.RADII:
                got = f.on_circle(r, 64)
                assert got.shape == (64,)
                assert np.array_equal(got, f.value(self.points(r, 64)))

    def test_series_function(self, rng):
        s = random_series(rng, n=2, degree=40)
        f = SeriesFunction(s)
        for r in self.RADII:
            got = f.on_circle(r, 32)
            assert np.all(np.abs(got - f.value(self.points(r, 32))) <= self.scale(s, r))

    def test_exp_series_function(self, rng):
        # exp turns an absolute error in h into a relative one in f
        h = PowerSeries(0.0, 2, 0.1 * random_series(rng, n=2, degree=30).coeffs)
        f = ExpSeriesFunction(1.3 * np.exp(0.7j), h)
        for r in self.RADII:
            expected = f.value(self.points(r, 16))
            got = f.on_circle(r, 16)
            tol = (self.scale(h, r) + 4 * np.finfo(np.float64).eps) * np.abs(expected)
            assert np.all(np.abs(got - expected) <= tol)

    def test_reciprocal(self, rng):
        # 1/f turns an absolute error in f into one divided by |f|^2
        s = tame_series(rng, n=1, degree=24)
        g = Reciprocal(SeriesFunction(s))
        for r in self.RADII:
            expected = g.value(self.points(r, 16))
            got = g.on_circle(r, 16)
            assert np.all(np.abs(got - expected) <= self.scale(s, r) * np.abs(expected) ** 2)

    def test_reciprocal_of_closed_form_is_exact(self):
        g = Reciprocal(ExampleFamily(0.8, 2))
        for r in self.RADII:
            assert np.array_equal(g.on_circle(r, 16), g.value(self.points(r, 16)))


class TestJet:
    POINTS = (0j, 0.3 - 0.2j, 0.85 * np.exp(2.1j), np.complex128(-0.6 + 0.1j))
    FAMILY = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
    SERIES = SeriesFunction(PowerSeries(1.2 - 0.4j, 2, [0.3, -0.2j, 0.1 + 0.05j]))
    EXP = ExpSeriesFunction(1.3 * np.exp(0.7j), PowerSeries(0.0, 1, [0.4, 0.2j, -0.1]))

    @pytest.mark.parametrize(
        "f",
        [FAMILY, SERIES, EXP, Reciprocal(FAMILY), Reciprocal(SERIES), Reciprocal(EXP)],
        ids=["family", "series", "exp", "1/family", "1/series", "1/exp"],
    )
    def test_value_is_bit_identical(self, f):
        # the chain and the polish read f from the jet, the search compares |value|
        for z in self.POINTS:
            v = f.jet(z)[0]
            assert v == f.value(z) and type(v) is type(f.value(z))

    def test_abstract_methods(self):
        assert AnalyticFunction.__abstractmethods__ == {
            "value", "jet", "is_constant", "count_zeros", "log_modulus_curvature"
        }
        sampling = [name for name in dir(AnalyticFunction) if name.startswith("on_")]
        assert sampling == ["on_circle"]


def product_series(zeros, scale: complex = 1.0) -> PowerSeries:
    """``scale * prod (z - w)`` over the given zeros, as a series from index 1."""
    coeffs = scale * np.poly(zeros)[::-1]  # ascending powers
    return PowerSeries(coeffs[0], 1, coeffs[1:])


def settled(answer, f: AnalyticFunction, r: float, samples: int):
    """``answer(values)`` on the first of ``samples``, ``2 samples``, ... circle grids where it is not None.

    Returns that answer and the grid sizes tried, the way the extremum
    search doubles its grid.
    """
    grids = [samples]
    while (result := answer(f.on_circle(r, grids[-1]))) is None:
        grids.append(2 * grids[-1])
    return result, grids


def count_zeros(f: AnalyticFunction, r: float, samples: int = 64):
    return settled(lambda values: f.count_zeros(r, values), f, r, samples)


def log_modulus_curvature(f: AnalyticFunction, r: float, samples: int = 64):
    return settled(lambda values: f.log_modulus_curvature(r, np.abs(values)), f, r, samples)[0]


class TestCountZeros:
    def test_product_polynomials(self, rng):
        # zeros on both sides of every circle; the count is the number inside
        for _ in range(20):
            moduli = rng.choice([0.15, 0.35, 0.55, 0.75, 1.2, 1.6, 2.5], size=4)
            zeros = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            f = SeriesFunction(product_series(zeros, rng.uniform(0.5, 2.0)))
            for r in (0.1, 0.25, 0.45, 0.65, 0.9):
                assert count_zeros(f, r)[0] == int(np.sum(moduli < r))

    def test_rouche_and_winding_agree(self):
        # Rouche settles 1 + 0.9 z^8 on |z| = 0.99 even from 8 samples, too
        # few to wind around a modulus that dips to 0.17; three zeros at
        # modulus 1.25 leave no Rouche margin on |z| = 0.95, where the
        # winding settles once the grid is fine enough; both count none
        f = SeriesFunction(PowerSeries(1.0, 8, [0.9]))
        coarse = f.on_circle(0.99, 8)
        assert f._floor(0.99, np.abs(coarse)) is None
        assert f.count_zeros(0.99, coarse) == 0
        zeros = 1.25 * np.exp(1j * np.array([0.4, 2.2, 4.1]))
        f = SeriesFunction(product_series(zeros))
        assert f.count_zeros(0.95, f.on_circle(0.95, 8)) is None
        zeros_inside, grids = count_zeros(f, 0.95, 8)
        assert zeros_inside == 0 and len(grids) > 1
        # and with one zero moved inside, the winding counts it
        assert count_zeros(SeriesFunction(product_series(np.append(zeros[:2], 0.5))), 0.95)[0] == 1

    def test_zero_near_the_circle_forces_resampling(self):
        # a zero 5e-4 outside or inside |z| = 0.5 at grid 8: the phase can
        # jump between 8 samples, so the count must double the grid first
        for modulus, inside in ((0.5 * (1 + 1e-3), 0), (0.5 * (1 - 1e-3), 1)):
            f = SeriesFunction(product_series([modulus * np.exp(0.3j), 2.0]))
            zeros, grids = count_zeros(f, 0.5, 8)
            assert zeros == inside and grids[-1] >= 8 * 2**10

    def test_cap_raises(self):
        # a zero 1e-9 from the circle would need billions of samples
        near = SeriesFunction(product_series([0.5 * (1 + 2e-9) * np.exp(0.3j), 2.0]))
        with pytest.raises(DomainError, match="cannot count zeros"):
            count_zeros(near, 0.5, 8)
        on = SeriesFunction(PowerSeries(-0.5, 1, [1.0]))  # z - 0.5 vanishes on a sample
        with pytest.raises(DomainError, match="cannot count zeros"):
            on.count_zeros(0.5, on.on_circle(0.5, 8))

    def test_zero_free_by_construction(self):
        family = ExampleFamily(0.6 * np.exp(0.4j), 3)
        exp = ExpSeriesFunction(0.55, PowerSeries(0.0, 1, [0.9, -0.6j, 0.5]))
        for f in (family, exp, Reciprocal(family), Reciprocal(exp)):
            assert f.count_zeros(0.95, f.on_circle(0.95, 8)) == 0


def log_modulus_second_derivative(f: AnalyticFunction, z: complex) -> float:
    """``d^2/dtheta^2 log|f(r e^{i theta})|`` at ``z``: ``-Re(w + z^2 f''/f - w^2)``, ``w = z f'/f``."""
    v, d1, d2 = f.jet(z)
    w = z * d1 / v
    return float(-(w + z * z * d2 / v - w * w).real)


class TestLogModulusCurvature:
    SAMPLES = 128

    def sampled(self, f, r: float, rng) -> float:
        thetas = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(self.SAMPLES) / self.SAMPLES
        return max(abs(log_modulus_second_derivative(f, complex(r * np.exp(1j * t)))) for t in thetas)

    def check(self, make, rng):
        for _ in range(50):
            f, r = make()
            bound = log_modulus_curvature(f, r)
            assert np.isfinite(bound)
            assert self.sampled(f, r, rng) <= bound * (1 + 1e-12)

    def test_series_function(self, rng):
        # tails of up to 0.98 |a0| leave thin Rouche margins, where the
        # (S1/L)^2 term dominates
        def make():
            s = tame_series(rng, degree=int(rng.integers(1, 9)), budget=1.0)
            tail = np.sum(np.abs(s.coeffs))
            scaled = PowerSeries(s.a0, s.n, s.coeffs * (rng.uniform(0.5, 0.98) * abs(s.a0) / tail))
            return SeriesFunction(scaled), rng.uniform(0.3, 0.99)

        self.check(make, rng)

    def test_exp_series_function(self, rng):
        def make():
            a0 = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            h = PowerSeries(0.0, 1, rng.uniform(0.05, 0.5) * random_series(rng, n=1).coeffs)
            return ExpSeriesFunction(a0, h), rng.uniform(0.1, 0.95)

        self.check(make, rng)

    def test_example_family(self, rng):
        def make():
            a0 = rng.uniform(0.51, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            return ExampleFamily(a0, int(rng.integers(1, 9))), rng.uniform(0.1, 0.95)

        self.check(make, rng)

    def test_reciprocal(self, rng):
        self.check(lambda: (Reciprocal(SeriesFunction(tame_series(rng))), rng.uniform(0.1, 0.95)), rng)

    def test_series_dominated_by_a_later_term(self, rng):
        # the Rouche margin is taken against the largest term a_j z^j
        def make():
            r = rng.uniform(0.3, 0.95)
            s = random_series(rng, n=1, degree=int(rng.integers(2, 9)))
            j = int(rng.integers(1, s.order + 1))
            terms = np.abs(s.coeffs) * r ** np.arange(1, s.order + 1)
            others = abs(s.a0) + terms.sum() - terms[j - 1]
            c = s.coeffs.copy()
            c[j - 1] *= rng.uniform(1.02, 2.0) * others / terms[j - 1]
            return SeriesFunction(PowerSeries(s.a0, 1, c)), r

        self.check(make, rng)

    def test_series_without_a_dominant_term(self, rng):
        # zeros at least 0.1 from the circle: the sampled floor of |f|
        # stands in for the margin when no term dominates
        def make():
            count = int(rng.integers(1, 7))
            inside = rng.random(count) < 0.5
            moduli = np.where(inside, rng.uniform(0.05, 0.5, count), rng.uniform(1.5, 3.0, count))
            c = np.poly(moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, count)))[::-1]
            return SeriesFunction(PowerSeries(c[0], 1, c[1:])), rng.uniform(0.6, 0.95)

        self.check(make, rng)

    def test_monomial_is_flat(self):
        assert log_modulus_curvature(SeriesFunction(PowerSeries(0.0, 3, [2j])), 0.7) == 0.0

    def test_zero_on_the_circle_is_unbounded(self):
        # z + 0.5 vanishes at the node pi of the 64-point grid on |z| = 0.5
        f = SeriesFunction(PowerSeries(0.5, 1, [1.0]))
        assert np.isfinite(log_modulus_curvature(f, 0.4))
        assert np.isfinite(log_modulus_curvature(f, 0.6))
        moduli = np.abs(f.on_circle(0.5, 64))
        assert f.log_modulus_curvature(0.5, moduli) == np.inf
        with np.errstate(divide="ignore"):
            assert Reciprocal(f).log_modulus_curvature(0.5, 1.0 / moduli) == np.inf


class TestRotationOrder:
    def test_per_class(self):
        assert SeriesFunction(PowerSeries(1.0, 2, [0.1, 0.0, 0.2])).rotation_order() == 2
        assert SeriesFunction(PowerSeries(1.0, 3, [0.1, 0.0, 0.0, 0.2j])).rotation_order() == 3
        assert SeriesFunction(PowerSeries(1.0, 2, [0.1, 0.1])).rotation_order() == 1
        assert SeriesFunction(PowerSeries(2.0, 1, [])).rotation_order() == 1
        assert ExpSeriesFunction(1.0, PowerSeries(0.0, 4, [0.3, 0.0, 0.0, 0.0, 0.1])).rotation_order() == 4
        assert ExampleFamily(0.8, 5).rotation_order() == 5
        assert Reciprocal(ExampleFamily(0.8, 5)).rotation_order() == 5

    def test_rotation_leaves_f_unchanged(self, rng):
        functions = (
            SeriesFunction(PowerSeries(0.7, 3, [0.2, 0.0, 0.0, -0.1j])),
            ExpSeriesFunction(1.2j, PowerSeries(0.0, 2, [0.3, 0.0, 0.4 - 0.1j])),
            ExampleFamily(0.9 * np.exp(1j), 4),
            Reciprocal(ExampleFamily(0.6, 3)),
        )
        for f in functions:
            w = np.exp(2j * np.pi / f.rotation_order())
            assert f.rotation_order() > 1
            for z in 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5)):
                assert complex(f.value(w * z)) == pytest.approx(complex(f.value(z)), abs=1e-12)


def square_modulus_second_derivative(f: AnalyticFunction, z: complex) -> float:
    """``d^2/dtheta^2 |f(r e^{i theta})|^2`` at ``z``: ``2 Re(conj(f) F'') + 2 |F'|^2``.

    ``F' = i z f'`` and ``F'' = -(z f' + z^2 f'')`` are the angular derivatives of f.
    """
    v, d1, d2 = f.jet(z)
    return float(2.0 * (np.conj(v) * -(z * d1 + z * z * d2)).real + 2.0 * abs(z * d1) ** 2)


class TestSquareModulusCurvature:
    def test_series_function(self, rng):
        # dense tails of any size, with and without a dominant term, up to
        # degree 40, where the Bernstein bound D^2 B^2 can win
        for _ in range(50):
            s = random_series(rng, degree=int(rng.integers(1, 41)), a0_modulus=(0.0, 2.0))
            f, r = SeriesFunction(s), rng.uniform(0.1, 0.99)
            bound = f.square_modulus_curvature(r)
            thetas = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(256) / 256
            sampled = max(abs(square_modulus_second_derivative(f, r * np.exp(1j * t))) for t in thetas)
            assert np.isfinite(bound)
            assert sampled <= bound * (1 + 1e-12)

    def test_monomial_is_flat(self):
        assert SeriesFunction(PowerSeries(0.0, 3, [2j])).square_modulus_curvature(0.7) == 0.0


def inlined_slack(f: AnalyticFunction, r: float, moduli: np.ndarray, minimize: bool):
    """The slack formula that ``_search_circle`` inlined before ``grid_slack`` existed.

    A maximum took the bound on ``(|f|^2)''`` of a class that had a finite
    one, and every other search the bound on ``(log|f|)''``.
    """
    step = TAU / len(moduli)
    square = math.inf if minimize else getattr(f, "square_modulus_curvature", lambda r: math.inf)(r)
    if square < math.inf:
        high = float(moduli.max())
        x = square * step**2 / (8.0 * high * high) if square else 0.0
        return -0.5 * math.log1p(-x) if x < 1.0 else None
    curvature = f.log_modulus_curvature(r, moduli)
    return None if curvature is None else curvature * step**2 / 8.0


def slack_cases(rng):
    """``(f, r)`` pairs of every class, with and without a dominant term or zeros near the circle."""
    for _ in range(6):
        yield SeriesFunction(random_series(rng, degree=int(rng.integers(1, 30)), a0_modulus=(0.0, 2.0))), 0.9
        yield SeriesFunction(tame_series(rng)), 0.7
        yield Reciprocal(SeriesFunction(tame_series(rng))), 0.8
        yield ExpSeriesFunction(rng.uniform(0.5, 2.0), PowerSeries(0.0, 2, rng.uniform(-1, 1, 5))), 0.6
    for a0, n in ((0.8, 2), (0.6j, 7), (-1.5, 1)):
        yield ExampleFamily(a0, n), 0.5
        yield Reciprocal(ExampleFamily(a0, n)), 0.95
    yield SeriesFunction(PowerSeries(0.0, 3, [2j])), 0.7  # flat: C = 0
    yield SeriesFunction(PowerSeries(-0.5, 1, [0.5, 0.5])), 0.62  # no dominant term, a zero just inside
    yield SeriesFunction(PowerSeries(1e200, 1, [1e200])), 0.5  # C overflows to inf


class TestGridSlack:
    @pytest.mark.parametrize("minimize", [True, False])
    def test_bit_equal_to_the_inlined_rule(self, rng, minimize):
        for f, r in slack_cases(rng):
            for samples in (256, 512, 1024, 2048, 4096):
                moduli = np.abs(f.on_circle(r, samples))
                slack = f.grid_slack(r, moduli, minimize)
                expected = inlined_slack(f, r, moduli, minimize)
                assert (slack is None) == (expected is None)
                if slack is not None:
                    assert type(slack) is float
                    assert slack.hex() == float(expected).hex()

    def test_too_coarse_is_none(self):
        # z + z^31 on 8 points: x >= 1, so the maximum needs a finer grid
        f = SeriesFunction(PowerSeries(0.0, 1, np.r_[1.0, np.zeros(29), 1.0]))
        assert f.grid_slack(0.99, np.abs(f.on_circle(0.99, 8)), minimize=False) is None
        assert f.grid_slack(0.99, np.abs(f.on_circle(0.99, 1 << 14)), minimize=False) > 0.0

    def test_reciprocal_takes_the_log_form(self):
        inner = SeriesFunction(PowerSeries(1.0, 1, [0.5]))
        f, r = Reciprocal(inner), 0.5
        assert not hasattr(AnalyticFunction, "square_modulus_curvature")
        assert not hasattr(f, "square_modulus_curvature")
        moduli = np.abs(f.on_circle(r, 256))
        log_form = float(inner.log_modulus_curvature(r, 1.0 / moduli) * (TAU / 256) ** 2 / 8.0)
        assert f.grid_slack(r, moduli, minimize=False) == f.grid_slack(r, moduli, minimize=True) == log_form
        assert log_form != inner.grid_slack(r, 1.0 / moduli, minimize=False)
