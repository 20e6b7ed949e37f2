"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

worker.import_package(ROOT)

import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "sweep": {"pool": 3, "trials": 2},
    "verify_dense": {"pool": 2},
    "reference_cli": {"pool": 4},
}


def tiny(name: str, directory, seed: int = 3):
    return WORKLOADS[name](seed, str(directory), **TINY[name])


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert units("per_layer") == tracing.LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    doc = worker.measure(tiny(name, tmp_path), 0.01, trace)
    expected = units("per_layer") if trace else units("end_to_end")
    expected.pop("setup_s", None)  # measured by run.py across processes
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert doc["correct"] is True
    assert 0 <= doc["failed"] <= doc["attempted"]


@pytest.mark.parametrize("name", ["sweep", "reference_cli"])
def test_failure_counts_depend_on_the_seed_not_the_run_length(name, tmp_path):
    short = worker.measure(tiny(name, tmp_path / "a"), 0.0, False)
    long = worker.measure(tiny(name, tmp_path / "b"), 0.5, False)
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["correct"] is long["correct"] is True


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_fit_in_the_wall_time(name, tmp_path):
    workload = tiny(name, tmp_path)
    tracer = tracing.package_tracer()
    tracer.install()
    try:
        wall = sum(workload.op(i, tracer).latency for i in range(2))
    finally:
        tracer.uninstall()
    _, _, duration, self_time, _ = tracer.arrays()
    assert len(duration) > 0
    assert (self_time >= -1e-9).all()
    assert self_time.sum() <= wall


def test_same_seed_same_inputs(tmp_path):
    assert inputs.sweep_seeds(7, 5) == inputs.sweep_seeds(7, 5) != inputs.sweep_seeds(8, 5)
    draws = inputs.reference_draws
    assert draws(7, 5) == draws(7, 5) != draws(8, 5)
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    a = inputs.verify_draws(7, 3, str(first))
    b = inputs.verify_draws(7, 3, str(second))
    c = inputs.verify_draws(8, 3, str(other))
    read = lambda draws: [open(d.path, encoding="utf-8").read() for d in draws]  # noqa: E731
    assert read(a) == read(b) != read(c)
    assert [(d.r, d.n, d.mode) for d in a] == [(d.r, d.n, d.mode) for d in b]


def test_draws_cover_the_documented_domains(tmp_path):
    draws = inputs.reference_draws(0, 3000)
    assert all(0.5 < d.a0_mod <= 2.0 and 0.0 <= d.a0_arg < 2 * 3.141592653589793 for d in draws)
    assert all(0.01 <= d.r < 0.99 for d in draws)
    assert {d.n for d in draws} == set(range(1, 13))
    shares = inputs.hard_regime_shares((d.r, d.n) for d in draws)
    assert 0.0 < shares["tiny_rn_frac"] < 0.2 and 0.0 < shares["large_r_frac"] < 0.1

    from diskextrema import read_series

    for d in inputs.verify_draws(0, 6, str(tmp_path)):
        s = read_series(d.path)
        assert 256 <= s.order <= 512 and 1 <= s.n <= 6 and 0.5 <= d.r < 0.95
        assert abs(s.coeffs).sum() < abs(s.a0)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_prints_end_to_end_metrics_last():
    done = _run(
        ROOT, "--workload", "reference_cli", "--seed", "1", "--seconds", "0.2", "--trace", "0"
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".bench_scratch"))


def test_run_fails_without_the_package(tmp_path):
    done = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
