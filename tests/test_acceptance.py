"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; each criterion asserts at its stated tolerance, so the pytest
verdict and the printed line agree.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from diskextrema import (
    ExampleFamily,
    ExpSeriesFunction,
    PowerSeries,
    Reciprocal,
    SeriesFunction,
    check_max_lemma,
    check_min_theorem,
    find_max_on_disk,
    find_min_on_disk,
    invert_series,
    run_sweep,
)
from diskextrema.cli import main
from conftest import schwarz_quantity, tame_series


def _verdict(number: int, description: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


def _pipeline(a0, n, r, tol=1e-8):
    family = ExampleFamily(a0, n)
    located = find_min_on_disk(family, r)
    report = check_min_theorem(family, n, located.z0, tol)
    return family, located, report


def test_criterion_1_real_family_reproduction():
    start = time.perf_counter()
    family, located, report = _pipeline(0.8, 2, 0.5)
    elapsed = time.perf_counter() - start

    chain = family.closed_chain(0.5)
    # frozen closed-form targets, each independently hand-derived:
    # min = 0.8 - 0.25/1.25, m = 8/15, schwarz = 2*0.75/1.25, bound = 2/7
    assert abs(chain.m - 0.5333333333333333) < 1e-15
    assert abs(chain.bound - 0.2857142857142857) < 1e-15
    assert chain.schwarz == 1.2

    ok = (
        abs(located.value - 0.6) <= 1e-9
        and abs(report.m - chain.m) <= 1e-9
        and abs(report.schwarz - chain.schwarz) <= 1e-9
        and abs(report.bound_sq - chain.bound) <= 1e-9
        and abs(np.exp(2j * located.theta) + 1.0) <= 1e-8
        and report.passed
        and elapsed < 1.0
    )
    _verdict(1, f"real-family pipeline matches closed forms to 1e-9 in {elapsed:.3f}s", ok)


def test_criterion_2_complex_family_reproduction():
    a0 = 0.9 * np.exp(1j * np.pi / 3)
    family, located, report = _pipeline(a0, 3, 0.7)

    chain = family.closed_chain(0.7)
    # frozen targets from the closed forms, cross-checked by a 2^20-point
    # grid + refinement oracle during development:
    # min  = 0.9 - 0.343/1.343        = 0.6446016381236039
    # m    = 1.029/(1.343 * 0.8657)   = 0.8850584332091812
    # schw = 3 * 0.657/1.343          = 1.4676098287416233
    assert abs(chain.m - 0.8850584332091812) < 1e-15
    assert abs(chain.schwarz - 1.4676098287416233) < 1e-15
    min_closed = 0.6446016381236039

    ok = (
        abs(located.value - min_closed) <= 1e-9
        and abs(report.m - chain.m) <= 1e-9
        and abs(report.schwarz - chain.schwarz) <= 1e-9
        and report.m - report.bound_sq > 0.0
        and report.passed
    )
    _verdict(2, "complex-family pipeline matches closed forms to 1e-9, bound strict", ok)


def test_criterion_3_image_disk_property():
    worst = 0.0
    for a0, n, r in [(0.8, 2, 0.5), (0.9 * np.exp(1j * np.pi / 3), 3, 0.7)]:
        family = ExampleFamily(a0, n)
        center, radius = family.image_disk(r)
        z = r * np.exp(2j * np.pi * np.arange(4096) / 4096)
        deviation = np.abs(np.abs(family.value(z) - center) - radius)
        worst = max(worst, float(deviation.max()))
    ok = worst < 1e-10
    _verdict(3, f"all 8192 boundary samples on the image circle (worst {worst:.2e})", ok)


def test_criterion_4_falsification_sweep():
    start = time.perf_counter()
    summary = run_sweep(1000, 42, tol=1e-8)
    elapsed = time.perf_counter() - start
    ok = summary.failures == 0 and summary.max_duality_gap <= 1e-10 and elapsed < 60.0
    _verdict(
        4,
        f"1000 seeded trials: {summary.failures} failures, duality gap "
        f"{summary.max_duality_gap:.2e}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_5_jack_reduction():
    ok = True
    for k in (1, 2, 3, 4):
        f = SeriesFunction(PowerSeries(0.0, k, [1.0]))
        for r in (0.3, 0.5, 0.8):
            located = find_max_on_disk(f, r)
            report = check_max_lemma(f, k, located.z0)
            ok = (
                ok
                and abs(report.m - k) <= 1e-12
                and abs(report.bound_sq - k) <= 1e-12
                and abs(report.bound_abs - k) <= 1e-12
                and report.passed
            )
    _verdict(5, "pure powers z^k: m = bound_sq = bound_abs = k to 1e-12", ok)


def test_criterion_6_series_inversion_proof_identity():
    rng = np.random.default_rng(2026)
    order = 32

    worst_coeff = 0.0
    for _ in range(200):
        s = tame_series(rng, degree=int(rng.integers(2, 12)))
        g = invert_series(s, order)
        prod = np.convolve(s.dense_coefficients(order), g.dense_coefficients(order))
        prod = prod[: order + 1]
        prod[0] -= 1.0
        worst_coeff = max(worst_coeff, float(np.max(np.abs(prod))))

    worst_identity = 0.0
    for index in range(100):
        trial_rng = np.random.default_rng([2026, index])
        n = int(trial_rng.integers(1, 5))
        count = int(trial_rng.integers(1, 6))
        raw = trial_rng.uniform(0, 1, count) * np.exp(
            1j * trial_rng.uniform(0, 2 * np.pi, count)
        )
        coeffs = raw * (trial_rng.uniform(0.2, 2.0) / max(np.sum(np.abs(raw)), 1e-12))
        f = ExpSeriesFunction(
            trial_rng.uniform(0.55, 2.0) * np.exp(1j * trial_rng.uniform(0, 2 * np.pi)),
            PowerSeries(0.0, n, coeffs),
        )
        r = trial_rng.uniform(0.2, 0.9)
        z0 = find_min_on_disk(f, r).z0
        m = check_min_theorem(f, n, z0).m
        gap = abs(schwarz_quantity(Reciprocal(f), z0) - 2.0 * m - schwarz_quantity(f, z0))
        worst_identity = max(worst_identity, gap)

    ok = worst_coeff < 1e-12 and worst_identity <= 1e-9
    _verdict(
        6,
        f"f*(1/f) = 1 to {worst_coeff:.2e} over 200 series; curvature-duality "
        f"identity to {worst_identity:.2e} at 100 located minima",
        ok,
    )


def test_criterion_7_sweep_determinism():
    def capture() -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["sweep", "--trials", "100", "--seed", "7"])
        assert code == 0
        return buf.getvalue()

    first = capture()
    second = capture()
    ok = first.encode() == second.encode() and len(first) > 0
    _verdict(7, "sweep --trials 100 --seed 7 reruns are byte-identical", ok)
