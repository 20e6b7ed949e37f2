import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskextrema import (
    DomainError,
    PowerSeries,
    SeriesFormatError,
    exp_series,
    invert_series,
    parse_series,
    read_series,
    write_series,
)
from conftest import central_diff1, random_series, series_eval_oracle, tame_series


class TestConstruction:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            PowerSeries(1.0, 0, [1.0])

    def test_order(self):
        assert PowerSeries(1.0, 2, [1, 2, 3]).order == 4
        assert PowerSeries(1.0, 3, []).order == 2  # bare constant

    def test_constant_flag(self):
        assert PowerSeries(2.0, 1, []).is_constant()
        assert PowerSeries(2.0, 1, [0.0, 0.0]).is_constant()
        assert not PowerSeries(2.0, 1, [0.0, 1e-12]).is_constant()
        assert PowerSeries(2.0, 1, [1e-16]).is_constant()
        assert not PowerSeries(2.0, 1, [1e-14]).is_constant()

    def test_coeffs_are_frozen(self):
        s = PowerSeries(1.0, 1, [1.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 2.0

    def test_dense_coefficients_pads_structural_zeros(self):
        s = PowerSeries(0.5, 3, [1.0, 2.0])
        dense = s.dense_coefficients(6)
        assert dense.tolist() == [0.5, 0, 0, 1.0, 2.0, 0, 0]


class TestEval:
    def test_constant(self):
        assert PowerSeries(2.0, 1, [])(0.5) == 2.0

    def test_hand_expansion(self):
        # 0.8 + z^2 + z^4 at z = 0.5i: 0.8 - 0.25 + 0.0625
        s = PowerSeries(0.8, 2, [1.0, 0.0, 1.0])
        got = s(0.5j)
        assert got == pytest.approx(0.6125, abs=1e-15)
        assert got == pytest.approx(series_eval_oracle(s, 0.5j), abs=1e-15)

    def test_at_origin_returns_a0_exactly(self, rng):
        for _ in range(20):
            s = random_series(rng)
            assert s(0j) == s.a0

    def test_matches_term_oracle(self, rng):
        for _ in range(50):
            s = random_series(rng)
            z = 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert s(z) == pytest.approx(series_eval_oracle(s, z), rel=1e-13, abs=1e-13)

    def test_vectorized(self):
        s = PowerSeries(0.8, 2, [1.0, 0.0, 1.0])
        z = np.array([0.0j, 0.5j, 0.25])
        out = s(z)
        assert out.shape == (3,)
        assert out[0] == 0.8
        assert out[1] == pytest.approx(0.6125)

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.0 + 0j, 0.8 + 0.7j])
    def test_rejects_outside_disk(self, z):
        with pytest.raises(DomainError):
            PowerSeries(1.0, 1, [1.0])(z)

    def test_rejects_array_with_bad_point(self):
        with pytest.raises(DomainError):
            PowerSeries(1.0, 1, [1.0])(np.array([0.1, 1.2]))


EPS = np.finfo(np.float64).eps


def circle_points(r, samples):
    """The points ``on_circle`` samples, in the same expression as the default."""
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    return r * np.exp(1j * thetas)


def magnitude_sum(s: PowerSeries, radius) -> np.ndarray:
    """``|a0| + sum_k |a_k| r^k`` per radius: the scale of every rounding error."""
    radius = np.asarray(radius, dtype=np.float64).reshape(-1)
    k = np.arange(s.n, s.order + 1)
    return abs(s.a0) + (np.abs(s.coeffs) * radius[:, None] ** k).sum(axis=1)


class TestScalarPath:
    @pytest.mark.parametrize("order", [1, 2, 16, 128, 512])
    def test_matches_numpy_scalar_horner_exactly(self, rng, order):
        # Python complex rounds each product and sum like numpy complex128
        # scalars do, so a single point gets the bits numpy-scalar Horner gives
        for n in (1, 3, min(12, order)):
            s = random_series(rng, n=n, degree=order)
            for _ in range(10):
                z = 0.99 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                w = np.complex128(z)
                acc = np.complex128(0.0)
                for c in s.coeffs[::-1]:
                    acc = acc * w + c
                expected = s.a0 + acc * w**s.n
                for point in (complex(z), w, np.array(z)):
                    got = s(point)
                    assert type(got) is complex and got == expected
            assert type(s(0.5)) is complex

    @pytest.mark.parametrize("order", [1, 2, 16, 128, 512])
    def test_agrees_with_array_path(self, rng, order):
        # both are Horner in complex128; the array loop may fuse multiply-adds,
        # so they agree within twice the Horner bound gamma_2N * sum |a_k||z|^k
        s = random_series(rng, degree=order)
        z = 0.99 * rng.uniform(0, 1, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        vector = s(z)
        scalar = np.array([s(complex(p)) for p in z])
        bound = 2 * 2 * (order + 1) * EPS * magnitude_sum(s, np.abs(z)).max()
        assert np.max(np.abs(scalar - vector)) <= bound

    @pytest.mark.parametrize(
        "z", [np.complex128(0.6 + 0.8j), np.array(1.0 + 0j), np.float64(-1.5), 1j]
    )
    def test_rejects_scalar_outside_disk(self, z):
        with pytest.raises(DomainError):
            PowerSeries(1.0, 1, [1.0])(z)


class TestOnCircles:
    @pytest.mark.parametrize(
        "n, order, samples",
        [
            (1, 8, 16),
            (1, 16, 16),
            (1, 40, 16),
            (3, 12, 32),
            (4, 100, 8),
            (2, 512, 256),
            (1, 300, 32768),
            (2, 512, 32768),
            (3, 40, 4096),
            (2, 17, 100),
        ],
    )
    def test_matches_value_at_the_same_points(self, rng, n, order, samples):
        # orders at or above `samples` exercise the fold of index k into bin k mod samples;
        # (1, 8, 16) takes one transform of length 16, (2, 512, 32768) 32 of length 1024
        # and (2, 17, 100) 4 of the odd length 25
        s = random_series(rng, n=n, degree=order)
        for r in (0.0, 0.3, 0.75, 0.95):
            got = s.on_circle(r, samples)
            assert got.shape == (samples,)
            tol = 64 * EPS * magnitude_sum(s, r)
            assert np.all(np.abs(got - s(circle_points(r, samples))) <= tol)

    def test_returned_values_do_not_leak_into_the_next_call(self, rng):
        s = random_series(rng, n=1, degree=40)
        first = s.on_circle(0.75, 4096)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(s.on_circle(0.75, 4096), expected)

    @pytest.mark.parametrize("samples", [0, -4])
    def test_rejects_nonpositive_samples(self, samples):
        with pytest.raises(DomainError, match="samples must be a positive integer"):
            PowerSeries(1.0, 1, [1.0]).on_circle(0.5, samples)

    def test_origin_circle_is_a0_exactly(self, rng):
        s = random_series(rng, n=2, degree=20)
        assert np.all(s.on_circle(0.0, 16) == s.a0)

    def test_constant(self):
        for r in (0.2, 0.9):
            assert np.all(PowerSeries(2.5 - 1j, 3, []).on_circle(r, 8) == 2.5 - 1j)

    @pytest.mark.parametrize("radii", [[0.5, 1.0], [-0.1], [1.5]])
    def test_rejects_radius_outside_disk(self, radii):
        # sampled circle by circle, the one outside the disk raises
        s = PowerSeries(1.0, 1, [1.0])
        with pytest.raises(DomainError, match="circle radius must satisfy 0 <= r < 1"):
            for r in radii:
                s.on_circle(r, 16)


class TestDifferentiate:
    def test_constant_gives_zero_series(self):
        d = PowerSeries(5.0, 1, []).differentiate()
        assert d.a0 == 0 and d.is_constant()

    def test_power_rule(self):
        # 0.8 + z^2 + z^4 -> 2z + 4z^3
        d = PowerSeries(0.8, 2, [1.0, 0.0, 1.0]).differentiate()
        assert d.a0 == 0
        assert d.n == 1
        assert d.dense_coefficients(3).tolist() == [0, 2, 0, 4]

    def test_order_drops_by_one(self, rng):
        s = random_series(rng, n=3, degree=9)
        assert s.differentiate().order == s.order - 1

    def test_against_finite_differences(self, rng):
        for _ in range(20):
            s = random_series(rng, degree=8)
            d = s.differentiate()
            for _ in range(5):
                z = 0.8 * rng.uniform(0.1, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                assert complex(d(z)) == pytest.approx(central_diff1(s, z), rel=1e-6)


class TestInvert:
    def test_constant(self):
        g = invert_series(PowerSeries(2.0, 1, []), 4)
        assert g.a0 == 0.5
        assert g.is_constant()

    def test_geometric_identity(self):
        # 1/(1 + z) = 1 - z + z^2 - z^3 + z^4
        g = invert_series(PowerSeries(1.0, 1, [1.0]), 4)
        assert g.dense_coefficients().tolist() == [1, -1, 1, -1, 1]

    def test_product_is_one(self, rng):
        # l1-bounded tails keep the reciprocal well-conditioned; see conftest
        for _ in range(30):
            s = tame_series(rng)
            order = 24
            g = invert_series(s, order)
            prod = np.convolve(s.dense_coefficients(order), g.dense_coefficients(order))
            prod = prod[: order + 1]
            assert abs(prod[0] - 1.0) < 1e-12
            assert np.max(np.abs(prod[1:])) < 1e-12

    def test_class_closure_structural_zeros(self, rng):
        for n in (2, 3, 5):
            s = random_series(rng, n=n, degree=n + 4)
            g = invert_series(s, 16)
            assert g.n == n
            assert np.all(g.dense_coefficients()[1:n] == 0)

    @settings(max_examples=60, deadline=None)
    @given(
        a0_mod=st.floats(0.5, 2.0),
        a0_arg=st.floats(0.0, 6.28),
        tail=st.lists(st.floats(-1, 1), min_size=2, max_size=8),
    )
    def test_round_trip(self, a0_mod, a0_arg, tail):
        a0 = a0_mod * np.exp(1j * a0_arg)
        raw = np.asarray(tail) + 0.5j * np.asarray(tail[::-1])
        mass = np.sum(np.abs(raw))
        # a numerically-zero tail is already tame; rescaling it would overflow
        coeffs = raw * (0.5 * a0_mod / mass) if mass > 1e-9 else raw
        s = PowerSeries(a0, 1, coeffs)
        order = 16
        back = invert_series(invert_series(s, order), order)
        assert abs(back.a0 - s.a0) < 1e-12
        diff = back.dense_coefficients(order) - s.dense_coefficients(order)
        assert np.max(np.abs(diff)) < 1e-12

    def test_rejects_zero_a0(self):
        with pytest.raises(DomainError):
            invert_series(PowerSeries(0.0, 1, [1.0]), 4)

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            invert_series(PowerSeries(1.0, 3, [1.0]), 2)


class TestExp:
    def test_exp_of_zero(self):
        e = exp_series(PowerSeries(0.0, 1, []), 4)
        assert e.a0 == 1.0
        assert e.is_constant()

    def test_taylor_coefficients(self):
        e = exp_series(PowerSeries(0.0, 1, [1.0]), 4)
        expect = [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]
        assert np.allclose(e.dense_coefficients().tolist(), expect, rtol=0, atol=1e-16)

    def test_log_derivative_identity(self, rng):
        # E'/E = h', i.e. E' = h' E coefficientwise up to order M-1
        for n in (1, 2, 4):
            h = random_series(rng, n=n, degree=n + 5)
            h = PowerSeries(0.0, h.n, 0.2 * h.coeffs)
            order = 20
            e = exp_series(h, order)
            lhs = e.differentiate().dense_coefficients(order - 1)
            rhs = np.convolve(
                h.differentiate().dense_coefficients(order - 1),
                e.dense_coefficients(order - 1),
            )[: order]
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_structural_zeros(self, rng):
        h = random_series(rng, n=4, degree=8)
        h = PowerSeries(0.0, 4, h.coeffs)
        e = exp_series(h, 16)
        assert e.n == 4
        assert np.all(e.dense_coefficients()[1:4] == 0)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(DomainError):
            exp_series(PowerSeries(1e-9, 1, [1.0]), 4)

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            exp_series(PowerSeries(0.0, 3, [1.0]), 2)


class TestFileFormat:
    def test_round_trip(self, rng, tmp_path):
        s = random_series(rng, n=2, degree=6)
        path = tmp_path / "series.txt"
        write_series(s, path)
        back = read_series(path)
        assert back.a0 == s.a0
        assert back.n == s.n
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_comments_and_missing_coefficients(self):
        text = """
        # a Koebe-like tail, sparse
        0.8 0.0   # constant term
        2 4
        2 1.0 0.0
        4 1.0 0.0
        """
        s = parse_series(text)
        assert s.a0 == 0.8
        assert s.dense_coefficients().tolist() == [0.8, 0, 1, 0, 1]

    @pytest.mark.parametrize(
        "text",
        [
            "",  # empty
            "0.8 0.0\n",  # missing index line
            "0.8\n2 4\n",  # one-token a0
            "0.8 0.0\n2\n",  # one-token index line
            "0.8 0.0\n0 4\n",  # n < 1
            "0.8 0.0\n2 0\n",  # N < n - 1
            "0.8 0.0\n2 4\n1 1 0\n",  # index below n
            "0.8 0.0\n2 4\n5 1 0\n",  # index above N
            "0.8 0.0\n2 4\n2 1 0\n2 2 0\n",  # duplicate index
            "0.8 0.0\n2 4\n2 1\n",  # short coefficient line
            "x y\n2 4\n",  # non-numeric
            "nan 0.0\n2 4\n",  # non-finite a0
            "0.8 0.0\n2 4\n3 1 -inf\n",  # non-finite coefficient
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(SeriesFormatError):
            parse_series(text)

    def test_non_finite_numbers_name_their_line(self):
        with pytest.raises(SeriesFormatError, match=r"^bad series header: a0 line '0.8 inf' must hold finite"):
            parse_series("0.8 inf\n1 2\n")
        with pytest.raises(SeriesFormatError, match=r"^bad coefficient line '1 nan 0.0': numbers must be finite"):
            parse_series("0.8 0.0\n1 2\n1 nan 0.0\n")

    def test_constant_file(self):
        s = parse_series("2.0 0.0\n1 0\n")
        assert s.is_constant()
        assert s(0.3) == 2.0

    def test_format_uses_17_digits(self, tmp_path):
        path = tmp_path / "series.txt"
        write_series(PowerSeries(1 / 3, 2, [2 / 3, 0.0, 0.1 - 1e-300j]), path)
        assert path.read_bytes() == (
            b"0.33333333333333331 0\n2 4\n2 0.66666666666666663 0\n3 0 0\n4 0.10000000000000001 -1e-300\n"
        )
