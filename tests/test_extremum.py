import numpy as np
import pytest

from diskextrema import (
    AnalyticFunction,
    DomainError,
    ExampleFamily,
    ExpSeriesFunction,
    InteriorAboveBoundary,
    InteriorBelowBoundary,
    PowerSeries,
    Reciprocal,
    SeriesFunction,
    ZeroDenominator,
    ZeroInDisk,
    ZeroOnCircle,
    check_max_lemma,
    draw_trial,
    find_max_on_disk,
    find_min_on_disk,
    modulus_profile,
)
from diskextrema import extremum
from diskextrema.extremum import POLISH_TARGET


def constant(value: complex) -> SeriesFunction:
    return SeriesFunction(PowerSeries(value, 1, []))


class Uncertified(SeriesFunction):
    """A series that claims a flat modulus, so its first grid is trusted."""

    def grid_slack(self, r: float, moduli, minimize: bool) -> float:
        return 0.0


def random_exp_function(rng) -> ExpSeriesFunction:
    n = int(rng.integers(1, 5))
    count = int(rng.integers(1, 6))
    raw = rng.uniform(0, 1, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    coeffs = raw * (rng.uniform(0.2, 2.0) / max(np.sum(np.abs(raw)), 1e-12))
    a0 = rng.uniform(0.55, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ExpSeriesFunction(a0, PowerSeries(0.0, n, coeffs))


class TestModulusProfile:
    def test_constant_profile(self):
        profile = modulus_profile(constant(3.0 - 4.0j), 0.5, 16)
        assert profile.shape == (16, 2)
        assert len(profile) == 16
        assert all(v == 5.0 for _, v in profile)

    def test_thetas_uniform_and_sorted(self):
        profile = modulus_profile(constant(1.0), 0.3, 8)
        thetas = [t for t, _ in profile]
        assert thetas == pytest.approx([2 * np.pi * k / 8 for k in range(8)], abs=0)

    def test_grid_minimum_matches_closed_form(self):
        fam = ExampleFamily(0.8, 2)
        profile = modulus_profile(fam, 0.5, 4096)
        assert min(v for _, v in profile) == pytest.approx(0.6, abs=1e-6)

    def test_reciprocal_profile_is_pointwise_inverse(self):
        fam = ExampleFamily(0.9 * np.exp(1j * np.pi / 3), 3)
        direct = modulus_profile(fam, 0.7, 512)
        recip = modulus_profile(Reciprocal(fam), 0.7, 512)
        for (_, v), (_, w) in zip(direct, recip):
            assert v * w == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            modulus_profile(constant(1.0), 1.0, 16)
        with pytest.raises(DomainError):
            modulus_profile(constant(1.0), 0.5, 7)


class TestFindMinOnCircle:
    """The boundary-circle search inside :func:`find_min_on_disk`."""

    def test_example_family(self):
        res = find_min_on_disk(ExampleFamily(0.8, 2), 0.5)
        assert res.value == pytest.approx(0.6, abs=1e-9)
        assert abs(np.exp(2j * res.theta) + 1.0) < 1e-8
        assert res.bracket_width <= 1e-12

    def test_bracket_covers_true_minimizer(self):
        # |f| is flat to rounding over ~1e-8 rad around theta = pi, so only
        # the tangential derivative can locate the minimizer; halving the
        # two grid steps 2 * pi / 2048 down to 1e-13 would take 35
        # bisections, the secant steps take a handful
        res = find_min_on_disk(ExampleFamily(1.2 * np.exp(2j), 1), 0.5)
        assert abs(res.theta - np.pi) <= res.bracket_width
        assert res.refine_iterations <= 8

    def test_root_on_the_secant_closes_the_bracket(self):
        # the grid winner pi/2 is the exact minimizer and the bracket is
        # symmetric about it, so the first secant point is the root; the
        # clamp keeps the second point 5e-14 inside the bracket, which then
        # closes below the target instead of shrinking toward one end.  The
        # minimizer 3 pi/2 is its rotated copy and is not polished again
        res = find_min_on_disk(ExampleFamily(0.8, 2), 0.5, grid=4096)
        assert res.refine_iterations == 2
        assert abs(res.theta - np.pi / 2) <= res.bracket_width <= POLISH_TARGET

    def test_bracket_walks_to_sign_change(self):
        # r^12 = 1e-13: |f| varies by less than rounding between grid points,
        # so the rounded grid picks theta = 0.2592, a neighbour of the true
        # minimizer pi/12, and the tangential derivative has no sign change
        # on the two steps around it until the bracket walks one step right
        a0 = 0.5409475328906539 * np.exp(5.987111868764644j)
        res = find_min_on_disk(ExampleFamily(a0, 12), 0.08286736484609238, grid=4096)
        assert abs(res.theta - np.pi / 12) <= res.bracket_width <= 1e-13
        assert res.refine_iterations > 0

    def test_constant_lands_on_first_grid_point(self):
        res = find_min_on_disk(constant(3.0), 0.5)
        assert res.value == 3.0
        assert res.theta == 0.0

    def test_value_consistent_with_z0(self):
        for f, r in [(ExampleFamily(0.8, 2), 0.5), (ExampleFamily(0.7 + 0.4j, 1), 0.3)]:
            res = find_min_on_disk(f, r)
            assert abs(res.value - abs(complex(f.value(res.z0)))) <= 1e-14
            assert abs(res.z0) == pytest.approx(r, abs=1e-15)

    def test_refinement_improves_grid(self, rng):
        for _ in range(10):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            best_grid = min(v for _, v in modulus_profile(f, r, 4096))
            assert find_min_on_disk(f, r).value <= best_grid

    def test_reciprocal_duality(self, rng):
        for _ in range(10):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            lo = find_min_on_disk(f, r).value
            hi = find_max_on_disk(Reciprocal(f), r).value
            assert lo * hi == pytest.approx(1.0, abs=1e-10)

    def test_zero_on_circle(self):
        # z - 0.5 vanishes exactly at the theta = 0 grid point of |z| = 0.5
        f = SeriesFunction(PowerSeries(-0.5, 1, [1.0]))
        with pytest.raises(ZeroOnCircle):
            find_min_on_disk(f, 0.5)

    def test_zero_between_grid_points(self):
        # a zero on the circle but off the grid: the coarse screen passes,
        # refinement dives toward the zero and must still diagnose it
        c = 0.5 * np.exp(1j * (np.pi / 4096))
        f = SeriesFunction(PowerSeries(-c, 1, [1.0]))
        with pytest.raises(ZeroOnCircle):
            find_min_on_disk(f, 0.5)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            find_min_on_disk(constant(1.0), 0.0)

    def test_zero_between_grid_points_raises_from_the_polish(self):
        # z - 0.5 e^i vanishes at theta = 1, between nodes of the 64-point
        # grid, which all clear the zero threshold; a zero count that
        # reports none lets the search reach the polish, which steps onto
        # the zero and names its angle
        class CountsNoZeros(SeriesFunction):
            def count_zeros(self, r: float, values) -> int:
                return 0

        f = CountsNoZeros(PowerSeries(-0.5 * np.exp(1j), 1, [1.0]))
        with pytest.raises(ZeroOnCircle, match=r"^\|f\| = \S+ at theta = 1\.0000"):
            find_min_on_disk(f, 0.5, grid=64)


class TestFindMaxOnCircle:
    """The boundary-circle search inside :func:`find_max_on_disk`."""

    def test_reciprocal_of_example_family(self):
        res = find_max_on_disk(Reciprocal(ExampleFamily(0.8, 2)), 0.5)
        assert res.value == pytest.approx(1.0 / 0.6, abs=1e-9)

    def test_identity_map_is_flat(self):
        res = find_max_on_disk(SeriesFunction(PowerSeries(0.0, 1, [1.0])), 0.25)
        assert res.value == pytest.approx(0.25, abs=1e-15)

    def test_constant(self):
        res = find_max_on_disk(constant(-2.0j), 0.5)
        assert res.value == 2.0

    def test_refinement_improves_grid(self, rng):
        for _ in range(5):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            best_grid = max(v for _, v in modulus_profile(f, r, 4096))
            assert find_max_on_disk(f, r).value >= best_grid

    def test_zero_in_the_polish_keeps_the_grid_point(self):
        # |1e-14 z| = 5e-15 on |z| = 0.5 is below the zero threshold, so the
        # polish's first jet meets a zero; a max search keeps its grid point
        res = find_max_on_disk(SeriesFunction(PowerSeries(0.0, 1, [1e-14])), 0.5, grid=64)
        step = 2 * np.pi / 64
        assert res.refine_iterations == 0
        assert res.bracket_width == 2 * step
        assert res.theta / step == pytest.approx(round(res.theta / step), abs=1e-12)
        assert res.value == pytest.approx(5e-15, rel=1e-12)


class TestFindMinOnDisk:
    def test_example_family_delegates_to_boundary(self):
        res = find_min_on_disk(ExampleFamily(0.8, 2), 0.5)
        assert res.value == pytest.approx(0.6, abs=1e-9)

    def test_constant(self):
        assert find_min_on_disk(constant(1.5), 0.7).value == 1.5

    def test_exponential(self):
        # |e^z| = e^{Re z}, minimized on |z| <= 0.9 at z = -0.9
        f = ExpSeriesFunction(1.0, PowerSeries(0.0, 1, [1.0]))
        res = find_min_on_disk(f, 0.9)
        assert res.value == pytest.approx(np.exp(-0.9), abs=1e-12)
        assert res.theta == pytest.approx(np.pi, abs=1e-9)

    def test_monotone_in_radius(self, rng):
        for _ in range(5):
            f = random_exp_function(rng)
            r1, r2 = sorted(rng.uniform(0.2, 0.9, 2))
            if r2 - r1 < 1e-3:
                continue
            assert find_min_on_disk(f, r1).value >= find_min_on_disk(f, r2).value

    def test_origin_bounds(self, rng):
        for _ in range(5):
            f = random_exp_function(rng)
            r = rng.uniform(0.2, 0.9)
            assert find_min_on_disk(f, r).value <= abs(f.a0)
            assert find_max_on_disk(f, r).value >= abs(f.a0)

    def test_zero_in_disk(self):
        # z - 0.35 vanishes inside |z| <= 0.7; its winding number on the circle is 1
        f = SeriesFunction(PowerSeries(-0.35, 1, [1.0]))
        with pytest.raises(ZeroInDisk):
            find_min_on_disk(f, 0.7)

    def test_interior_below_boundary_diagnostic(self):
        # z - 0.52 vanishes off every circle sample; the argument principle
        # counts the zero without needing a sample near it
        f = SeriesFunction(PowerSeries(-0.52, 1, [1.0]))
        with pytest.raises(ZeroInDisk, match=r"^f vanishes in \|z\| < 0.7: 1 zero"):
            find_min_on_disk(f, 0.7)

    def test_certificate_refines_a_flat_grid(self):
        # z^8 is the same at the 8 grid points, so the grid sees a flat |f|;
        # its curvature bound forces a finer grid, which finds the dip at
        # theta = (pi - 0.7)/8
        f = SeriesFunction(PowerSeries(1.0, 8, [0.5 * np.exp(0.7j)]))
        res = find_min_on_disk(f, 0.9, grid=8)
        assert res.grid_size > 8
        assert res.value == pytest.approx(1.0 - 0.5 * 0.9**8, abs=1e-12)
        assert abs(np.exp(1j * (8 * res.theta + 0.7)) + 1.0) < 1e-8

    def test_boundary_ring_catches_grid_miss(self):
        # with a curvature bound of 0 the flat 8-point grid is trusted and
        # misses the dip that the 256-point ring hits
        f = Uncertified(PowerSeries(1.0, 8, [0.5 * np.exp(0.7j)]))
        with pytest.raises(
            InteriorBelowBoundary, match="^boundary ring or origin sample .* undercuts located minimum"
        ):
            find_min_on_disk(f, 0.9, grid=8)

    def test_samples_no_interior_circles(self):
        # zeros at 1.1 and 1.3: Rouche fails on |z| = 0.9, so the zero count
        # winds around the grid's own samples, and the floor of |f| that
        # bounds the curvature comes from them too.  Only whole circles of
        # radius r are sampled, one per grid, and the ring only when the
        # final grid does not hold it
        def samples(grid: int, reciprocal: bool = False) -> list[int]:
            calls = []

            class Spy(SeriesFunction):
                def on_circle(self, r, samples):
                    calls.append((r, samples))
                    return super().on_circle(r, samples)

            f = Spy(PowerSeries(1.43, 1, [-2.4, 1.0]))
            if reciprocal:
                res = find_max_on_disk(Reciprocal(f), 0.9, grid)
                assert res.value == pytest.approx(1.0 / (0.2 * 0.4), abs=1e-12)
            else:
                res = find_min_on_disk(f, 0.9, grid)
                assert res.value == pytest.approx(0.2 * 0.4, abs=1e-12)
            assert {r for r, _ in calls} == {0.9}
            return [m for _, m in calls]

        assert samples(256) == [256, 512]
        assert samples(64) == [64, 128, 256, 512]
        assert samples(100) == [100, 200, 400, 256]
        assert samples(256, reciprocal=True) == [256, 512]


def tangential(f, r: float, sign: float):
    """``theta -> sign * Im(z f'/f)``, which crosses zero downward at an extremum."""

    def g(t):
        z = complex(r * np.exp(1j * t))
        v, d1, _ = f.jet(z)
        return sign * (z * complex(d1) / complex(v)).imag

    return g


def bisect(g, lo: float, hi: float) -> float:
    while hi - lo > POLISH_TARGET / 16:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def bisected_root(f, r: float, theta: float, sign: float, half_width: float = 1e-6) -> float:
    """The sign change of ``sign * Im(z f'/f)`` near ``theta``, by plain bisection."""
    g = tangential(f, r, sign)
    lo, hi = theta - half_width, theta + half_width
    assert g(lo) > 0.0 > g(hi)
    return bisect(g, lo, hi)


def oracle_extremum(f, r: float, sign: float, samples: int = 1 << 16) -> float:
    """The extremal modulus over every basin of a ``samples``-point grid.

    Each grid-local extremum whose two steps hold a sign change of the
    tangential derivative is bisected; the others count at the grid point.
    """
    key = sign * np.abs(f.on_circle(r, samples))
    step = 2 * np.pi / samples
    g = tangential(f, r, sign)
    values = []
    for index in np.flatnonzero((key <= np.roll(key, 1)) & (key <= np.roll(key, -1))):
        theta = step * index
        if g(theta - step) > 0.0 > g(theta + step):
            theta = bisect(g, theta - step, theta + step)
        values.append(abs(complex(f.value(r * np.exp(1j * theta)))))
    return min(values) if sign > 0 else max(values)


class TestCertificate:
    def test_matches_an_every_basin_oracle(self):
        # the default grid, its curvature slack and the basins within it
        # find the modulus that polishing every basin of a 65536-point grid
        # finds, and the slack bounds the distance to it
        for index in range(100):
            trial = draw_trial(11, index)
            f = ExpSeriesFunction(trial.a0, trial.exponent)
            searches = ((f, find_min_on_disk, 1.0), (Reciprocal(f), find_max_on_disk, -1.0))
            for g, search, sign in searches:
                res = search(g, trial.r)
                oracle = oracle_extremum(g, trial.r, sign)
                assert abs(res.value - oracle) <= 4 * np.spacing(oracle), index
                assert abs(np.log(res.value / oracle)) <= res.certified_gap, index

    def test_series_without_rouche_margin_is_certified(self):
        # no term of 1.43 - 2.4 z + z^2 dominates on |z| = 0.9, where the
        # minimum 0.2 * 0.4 sits near the zeros 1.1 and 1.3: the sampled
        # floor of |f| bounds the curvature, and the grid doubles
        f = SeriesFunction(PowerSeries(1.43, 1, [-2.4, 1.0]))
        res = find_min_on_disk(f, 0.9, grid=64)
        assert res.grid_size > 64 and np.isfinite(res.certified_gap)
        assert res.value == pytest.approx(0.2 * 0.4, abs=1e-12)

    def test_unbounded_curvature_keeps_the_grid(self):
        # (z - 0.5 - 1e-9)(z - 2) has no dominant term on |z| = 0.5 and a
        # zero closer to it than 2^20 samples can floor, so no grid counts
        # its zeros or bounds log|f|''.  Told that it has none in the disk,
        # which holds, 1/f gets an infinite slack: nothing doubles, and
        # every grid-local maximum is polished
        class CountsNoZeros(SeriesFunction):
            def count_zeros(self, r: float, values) -> int:
                return 0

        c = 0.5 + 1e-9
        inner = CountsNoZeros(PowerSeries(2.0 * c, 1, [-2.0 - c, 1.0]))
        res = find_max_on_disk(Reciprocal(inner), 0.5, grid=64)
        assert res.grid_size == 64 and res.certified_gap == np.inf
        assert res.value == pytest.approx(1.0 / (1e-9 * 1.5), rel=1e-6)


class TestRotatedCopies:
    def test_polished_once(self, monkeypatch):
        # f depends on z^3 only: its minimizers pi/3, pi and 5 pi/3 tie, and
        # the 256-point grid holds no rotation by 2 pi/3, yet only the
        # winner's basin is polished; claiming no symmetry polishes all three
        polished = []
        polish = extremum._polish

        def counting(f, r, theta, *rest):
            polished.append(theta)
            return polish(f, r, theta, *rest)

        class Plain(ExampleFamily):
            def rotation_order(self) -> int:
                return 1

        monkeypatch.setattr(extremum, "_polish", counting)
        res = find_min_on_disk(ExampleFamily(0.8, 3), 0.5)
        assert len(polished) == 1
        assert res.value == pytest.approx(0.8 - 0.125 / 1.125, abs=1e-12)
        polished.clear()
        assert find_min_on_disk(Plain(0.8, 3), 0.5).value == pytest.approx(res.value, abs=1e-15)
        assert len(polished) == 3


class TestPolish:
    def test_agrees_with_bisection(self):
        iterations = []
        for index in range(100):
            trial = draw_trial(5, index)
            f = ExpSeriesFunction(trial.a0, trial.exponent)
            searches = ((f, find_min_on_disk, 1.0), (Reciprocal(f), find_max_on_disk, -1.0))
            for g, search, sign in searches:
                res = search(g, trial.r)
                assert res.bracket_width <= POLISH_TARGET
                assert abs(res.theta - bisected_root(g, trial.r, res.theta, sign)) <= POLISH_TARGET
                iterations.append(res.refine_iterations)
        assert np.mean(iterations) <= 8

    def test_scalar_derivative_calls_per_search(self):
        # a timing-free guard on the polish: 35 bisection steps cost 37
        # jet calls per search, the secant steps about 7
        calls = []

        class Counting(ExpSeriesFunction):
            def jet(self, z):
                calls.append(z)
                return super().jet(z)

        for index in range(50):
            trial = draw_trial(7, index)
            find_min_on_disk(Counting(trial.a0, trial.exponent), trial.r, grid=4096)
        assert len(calls) / 50 <= 10

    def test_scalar_derivative_calls_per_search_at_default_grid(self):
        # the 256-point grid puts the winner farther from the root and
        # polishes a second basin when one lies within the certified
        # slack: about 10 jet calls per search
        calls = []

        class Counting(ExpSeriesFunction):
            def jet(self, z):
                calls.append(z)
                return super().jet(z)

        for index in range(50):
            trial = draw_trial(7, index)
            find_min_on_disk(Counting(trial.a0, trial.exponent), trial.r)
        assert len(calls) / 50 <= 12

    def test_scalar_exponent_evaluations_per_search(self, monkeypatch):
        # one h(z) per polish step plus the grid winner, the bracket midpoint
        # and the origin: about 10 per search; recomputing f inside f' took 17
        horner = PowerSeries.__call__
        exponent, calls = [None], []

        def counting(s, z):
            if s is exponent[0] and not (isinstance(z, np.ndarray) and z.ndim):
                calls.append(z)
            return horner(s, z)

        monkeypatch.setattr(PowerSeries, "__call__", counting)
        for index in range(50):
            trial = draw_trial(7, index)
            exponent[0] = trial.exponent
            find_min_on_disk(ExpSeriesFunction(trial.a0, trial.exponent), trial.r, grid=4096)
        assert len(calls) / 50 <= 11


class _NotAnalytic(AnalyticFunction):
    """|f| peaks at the origin; no analytic function does that."""

    a0 = 2.0 + 0j
    n = 1

    def value(self, z):
        z = np.asarray(z)
        return 2.0 - np.abs(z) ** 2 + 0j

    def jet(self, z):
        return self.value(z), 0j, 0j

    def is_constant(self) -> bool:
        return False

    def count_zeros(self, r: float, values) -> int:
        return 0  # |f| >= 2 - r^2 > 1

    def log_modulus_curvature(self, r: float, moduli) -> float:
        return 0.0  # |f| = 2 - r^2 on the whole circle


class TestReciprocalPole:
    """``1/(z - 0.5)`` has a pole on ``|z| = 0.5``, at theta = 0."""

    f = Reciprocal(SeriesFunction(PowerSeries(-0.5, 1, [1.0])))

    @pytest.mark.parametrize("search", [find_max_on_disk, find_min_on_disk, modulus_profile])
    def test_raises_zero_on_circle_naming_the_pole(self, search):
        with pytest.raises(ZeroOnCircle, match=r"^1/f has a pole at theta = 0\.0 on \|z\| = 0\.5$"):
            search(self.f, 0.5)

    def test_a_pole_inside_fails_the_maximum(self):
        # 1/(1 - 3z) is unbounded near its pole z = 1/3; the search counts
        # the zeros of 1 - 3z from its own samples of 1/f
        g = Reciprocal(SeriesFunction(PowerSeries(1.0, 1, [-3.0])))
        with pytest.raises(ZeroInDisk, match=r"^f has 1 pole\(s\) in \|z\| < 0\.5 by the argument principle$"):
            find_max_on_disk(g, 0.5)
        # the minimum of |1/f| is 1 / max |f|, on the circle whatever the poles
        assert find_min_on_disk(g, 0.5).value == pytest.approx(0.4, rel=1e-15)
        assert find_max_on_disk(Reciprocal(SeriesFunction(PowerSeries(1.0, 1, [-1.9]))), 0.5).value == (
            pytest.approx(20.0, rel=1e-14)
        )

    def test_a_pole_too_close_to_the_circle_to_count_fails_the_maximum(self):
        # (z - c)(z - 2) with c = 0.5 + 1e-9 has no zero inside, but no
        # Rouche certificate and no grid within the cap that floors |f|, so
        # neither its poles in 1/f nor its own zeros can be counted
        c = 0.5 + 1e-9
        inner = SeriesFunction(PowerSeries(2.0 * c, 1, [-2.0 - c, 1.0]))
        for search, f in ((find_max_on_disk, Reciprocal(inner)), (find_min_on_disk, inner)):
            with pytest.raises(DomainError, match=r"^cannot count zeros in \|z\| < 0\.5 with 1048576 samples"):
                search(f, 0.5)

    def test_a_pole_at_the_point_is_a_package_error(self):
        with pytest.raises(ZeroDenominator, match=r"^1/f has a pole at z = \(0\.5\+0j\): f vanishes there$"):
            check_max_lemma(self.f, 1, 0.5)
        for evaluate in (self.f.value, self.f.jet):
            with pytest.raises(ZeroDenominator, match="^1/f has a pole at z = "):
                evaluate(0.5)

    def test_certified_gap_is_a_python_float(self):
        # the inner series' log-modulus bound, which 1/f borrows, is a numpy float here
        f = Reciprocal(SeriesFunction(PowerSeries(0.1, 1, [0.3, 0.9])))
        assert type(find_min_on_disk(f, 0.5).certified_gap) is float
        for f in (ExampleFamily(0.8, 2), random_exp_function(np.random.default_rng(3)), constant(2.0)):
            for search in (find_min_on_disk, find_max_on_disk):
                assert type(search(f, 0.5).certified_gap) is float


class TestFindMaxOnDisk:
    def test_example_reciprocal(self):
        res = find_max_on_disk(Reciprocal(ExampleFamily(0.8, 2)), 0.5)
        assert res.value == pytest.approx(1.0 / 0.6, abs=1e-9)

    def test_interior_above_boundary_diagnostic(self):
        with pytest.raises(InteriorAboveBoundary):
            find_max_on_disk(_NotAnalytic(), 0.5)

    def test_samples_no_interior_circles(self):
        # the maximum sits on the boundary, so the search samples only that
        # circle: once at the default grid, which holds the 256-point
        # boundary ring, and twice beside a 100-point grid, which does not
        radii = []

        class Spy(Reciprocal):
            def on_circle(self, r, samples):
                radii.append((r, samples))
                return super().on_circle(r, samples)

        find_max_on_disk(Spy(ExampleFamily(0.8, 2)), 0.5)
        assert radii == [(0.5, 256)]
        find_max_on_disk(Spy(ExampleFamily(0.8, 2)), 0.5, grid=100)
        assert radii[1:] == [(0.5, 100), (0.5, 256)]

    def test_certificate_refines_a_flat_grid(self):
        # the flat 8-point grid of z^8 is refined until the peak at
        # theta = -0.7/8 is found
        f = SeriesFunction(PowerSeries(1.0, 8, [0.5 * np.exp(0.7j)]))
        res = find_max_on_disk(f, 0.9, grid=8)
        assert res.grid_size > 8
        assert res.value == pytest.approx(1.0 + 0.5 * 0.9**8, abs=1e-12)
        assert abs(np.exp(1j * (8 * res.theta + 0.7)) - 1.0) < 1e-8

    def test_narrow_peak_between_default_grid_nodes(self):
        # f(0) = 0 and no term dominates, as in the maximum lemma.  The
        # degree-512 spike peaks midway between two nodes of the 256-point
        # grid and vanishes at every node, where only 50 z + 40 z^2 shows;
        # the grid is also the boundary ring, so only the bound on
        # (|f|^2)'' can send the search to the spike
        r, theta0 = 0.99, np.pi / 2 + np.pi / 256
        spike = 0.5 * (np.exp(-1j * theta0) / r) ** np.arange(1, 513)
        f = SeriesFunction(PowerSeries(0.0, 1, spike + np.r_[50.0, 40.0, np.zeros(510)]))
        assert np.abs(f.on_circle(r, 256)).max() < 90
        res = find_max_on_disk(f, r)
        fine = np.abs(f.on_circle(r, 1 << 16)).max()
        assert res.grid_size > 256
        assert fine * (1 - 1e-12) <= res.value <= fine * np.exp(res.certified_gap)

    def test_boundary_ring_catches_grid_miss(self):
        # a curvature bound of 0 trusts the flat grid, which misses the
        # peak that the 256-point ring hits
        f = Uncertified(PowerSeries(1.0, 8, [0.5 * np.exp(0.7j)]))
        with pytest.raises(
            InteriorAboveBoundary, match="^boundary ring or origin sample .* exceeds located maximum"
        ):
            find_max_on_disk(f, 0.9, grid=8)

    def test_max_allows_zeros_inside(self):
        # f(z) = z vanishes at the center; the max search must not care
        res = find_max_on_disk(SeriesFunction(PowerSeries(0.0, 1, [1.0])), 0.5)
        assert res.value == pytest.approx(0.5, abs=1e-15)

    def test_max_allows_zero_on_circle(self):
        # a zero on the search circle itself is harmless for a max search
        c = 0.5 * np.exp(1j * (np.pi / 4096))
        f = SeriesFunction(PowerSeries(-c, 1, [1.0]))
        res = find_max_on_disk(f, 0.5)
        assert res.value == pytest.approx(1.0, abs=1e-9)
