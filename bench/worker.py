"""One workload process: set up, report ready, measure, print one JSON line.

Started by ``run.py`` from the root of a checkout; not meant to be run by
hand.  It imports ``diskextrema`` from ``./src`` only, generates the
workload's inputs, warms up, prints ``ready`` and, unless
``--setup-only``, runs the closed loop for ``--seconds`` seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy

import tracing


def import_package(root: str):
    """Import ``diskextrema`` from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import diskextrema

    if os.path.dirname(os.path.dirname(os.path.abspath(diskextrema.__file__))) != src:
        raise ImportError(f"diskextrema was imported from {diskextrema.__file__}, not {src}")
    return diskextrema


def _rate(outcomes) -> float:
    """Items per second spent in timed calls."""
    return sum(o.items for o in outcomes) / sum(o.latency for o in outcomes)


#: Each draw's latency is this percentile of its untraced repeats.
DRAW_PERCENTILE = 75


def timings(passes) -> dict[str, float]:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` of a run's untraced timed passes.

    Every timed pass runs the same draws.  On a shared 2-vCPU virtual machine
    the speed changes between a sustained slow level and fast phases up
    to 1.5x quicker, and other tenants add rare stalls; a mean or median
    over the whole run moves with the share of time spent in each.  So
    each draw's latency is the ``DRAW_PERCENTILE`` percentile of its
    repeats, which is the slow level unless fast phases fill three
    quarters of the run, and which one stalled repeat does not move.
    Throughput is one pass's items over the sum of those latencies; the
    median and 90th percentile are taken over the draws.  All three then
    describe the program on a busy host.
    """
    latency = numpy.array([[o.latency for o in outcomes] for outcomes in passes])
    per_draw = numpy.percentile(latency, DRAW_PERCENTILE, axis=0)
    return {
        "ops_per_s": sum(o.items for o in passes[0]) / per_draw.sum(),
        "op_p50_ms": 1e3 * numpy.median(per_draw),
        "op_p90_ms": 1e3 * numpy.percentile(per_draw, 90),
    }


def _op(workload, index: int, tracer):
    if tracer is None:
        return workload.op(index)
    tracer.install()
    try:
        return workload.op(index, tracer)
    finally:
        tracer.uninstall()


def measure(workload, seconds: float, trace: bool) -> dict:
    """A checking pass over the pool, then timed passes until ``seconds``; returns the result document.

    A closed loop: operation ``k`` uses draw ``k``.  The first pass runs
    every draw of the pool; ``attempted`` and ``failed`` count it alone,
    so they depend on the seed and not on the host's speed.  Timed passes
    then repeat the first ``timed_draws(pool)`` draws until the first one
    that ends past ``seconds``, so every timed pass does the same work;
    each must reproduce those draws' first outcomes (failure count and
    output digest), or the run is not correct.  With ``trace`` every other
    timed pass runs with spans installed; the per-layer metrics come from
    those and the overhead from comparing their throughput with the
    untraced timed passes.
    """
    from inputs import hard_regime_shares, timed_draws

    tracer = tracing.package_tracer() if trace else None
    deadline = perf_counter() + seconds
    checked = [workload.op(k) for k in range(workload.pool)]
    first_pass_errors = dict(sorted(workload.errors.items()))
    plain, traced = [], []
    reproduced = True
    while not plain or (trace and not traced) or perf_counter() < deadline:
        passes = traced if trace and len(plain) > len(traced) else plain
        outcomes = [_op(workload, k, tracer if passes is traced else None)
                    for k in range(timed_draws(workload.pool))]
        for again, first in zip(outcomes, checked):
            if (again.failed, again.digest) != (first.failed, first.digest):
                workload.errors["not_reproduced"] += 1
                reproduced = False
        passes.append(outcomes)
    plain_ops = [o for outcomes in plain for o in outcomes]
    traced_ops = [o for outcomes in traced for o in outcomes]
    done = checked + plain_ops + traced_ops
    attempted = sum(o.items for o in checked)
    failed = sum(o.failed for o in checked)

    if trace:
        values = tracing.layer_metrics(tracer, sum(o.items for o in traced_ops))
        values["trace.overhead_frac"] = 1.0 - _rate(traced_ops) / _rate(plain_ops)
        units = tracing.LAYER_UNITS
    else:
        values = {
            **timings(plain),
            "ok_ops_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "ok_ops_frac": "frac", "peak_rss_mb": "MB"}

    return {
        "correct": reproduced and all(o.consistent for o in done),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        "info": {
            "ops": len(done),
            "pool": workload.pool,
            "timed_passes": len(plain) + len(traced),
            "traced_ops": len(traced_ops),
            "errors": first_pass_errors,
            "not_reproduced": workload.errors["not_reproduced"],
            **({"untraced_entry_points": tracer.missing} if trace and tracer.missing else {}),
            **hard_regime_shares(workload.regime_pairs()),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package(os.getcwd())
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(measure(workload, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
