"""The benchmark workloads: one operation each, its timing and its checks.

An operation times only calls into public functions of ``diskextrema``
(``run_sweep`` and ``cli.main``), looked up on their modules at call time
so that a tracer's patches apply.  Its checks run after the timer stops.
A failed check marks the operation failed; it never aborts the run.
Operation ``k`` uses draw ``k`` of the seed's pool of draws; a run
repeats draws, and ``digest`` lets the caller check that a repeat
reproduces its first outcome.  Import this module once ``diskextrema`` is importable (``worker.import_package``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import diskextrema.cli as dx_cli
import diskextrema.sweep as dx_sweep
import inputs
from diskextrema import DEFAULT_GRID, DiskExtremaError

#: ``run_sweep`` trials per operation of the ``sweep`` workload.
SWEEP_TRIALS = 50
#: Largest min/max duality gap a sweep may report.
GAP_LIMIT = 1e-10
#: Angular grid of the ``verify_dense`` commands.
DENSE_GRID = 32768
#: The command's documented exit codes: success, a verified inequality failed, usage error.
EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2


@dataclass(frozen=True)
class Outcome:
    """One timed operation.

    ``items`` is what ``ops_per_s`` counts: trials on ``sweep``, operations
    on the CLI workloads.  ``failed`` counts items that raised, exited 1 or
    2, or failed a check.  ``consistent`` is False only when an output
    contradicts itself (an exit code against its JSON, a CSV against its
    printed extremes) or an unexpected exception escapes the public call.  ``digest`` identifies
    the outputs, so that a repeat of the same draw can be compared.
    """

    latency: float
    items: int
    failed: int
    consistent: bool = True
    digest: str = ""


class Workload:
    """Inputs drawn from a seed, and the operation that consumes them."""

    name = ""

    def __init__(self) -> None:
        self.errors: Counter[str] = Counter()

    @property
    def pool(self) -> int:
        """Number of distinct draws; operation ``k`` uses draw ``k``."""
        raise NotImplementedError

    def op(self, index: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.op(0)

    def regime_pairs(self) -> list[tuple[float, int]]:
        """``(r, n)`` of every draw in the pool."""
        raise NotImplementedError


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _sweep_digest(summary) -> str:
    doc = [
        summary.trials,
        summary.seed,
        summary.tolerance.hex(),
        summary.failures,
        summary.max_duality_gap.hex(),
        sorted((k, None if v is None else v.hex()) for k, v in summary.worst_margins.items()),
        [outcome.params.index for outcome in summary.failed],
    ]
    return _digest(doc)


class SweepWorkload(Workload):
    """``run_sweep(SWEEP_TRIALS, seed)`` at package defaults, one seed per operation."""

    name = "sweep"

    def __init__(self, seed: int, scratch: str, pool: int = 10, trials: int = SWEEP_TRIALS):
        super().__init__()
        self.seeds = inputs.sweep_seeds(seed, pool)
        self.trials = trials

    @property
    def pool(self) -> int:
        return len(self.seeds)

    def op(self, index: int, tracer=None) -> Outcome:
        seed = self.seeds[index]
        start = perf_counter()
        try:
            summary = dx_sweep.run_sweep(self.trials, seed)
        except Exception as exc:  # an aborted sweep fails every one of its trials
            self.errors[type(exc).__name__] += 1
            return Outcome(perf_counter() - start, self.trials, self.trials,
                           isinstance(exc, DiskExtremaError), type(exc).__name__)
        latency = perf_counter() - start
        digest = _sweep_digest(summary)
        if summary.max_duality_gap > GAP_LIMIT:  # no trial index is reported, so all fail
            self.errors["duality_gap"] += 1
            return Outcome(latency, self.trials, self.trials, digest=digest)
        if summary.failures:
            self.errors["chain_failed"] += summary.failures
        return Outcome(latency, self.trials, summary.failures, digest=digest)

    def warm_up(self) -> None:
        dx_sweep.run_sweep(2, self.seeds[-1])

    def regime_pairs(self) -> list[tuple[float, int]]:
        draw = dx_sweep.draw_trial
        pairs = []
        for seed in self.seeds:
            pairs += [(t.r, t.n) for t in (draw(seed, k) for k in range(self.trials))]
        return pairs


class CliWorkload(Workload):
    """Operations made of in-process ``diskextrema.cli.main`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.draws: list = []

    @property
    def pool(self) -> int:
        return len(self.draws)

    def regime_pairs(self) -> list[tuple[float, int]]:
        return [(d.r, d.n) for d in self.draws]

    def _main(self, argv: list[str], tracer) -> tuple[int | None, str, float]:
        """Run one command; returns ``(exit code or None, stdout, seconds)``."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = dx_cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        except Exception as exc:  # an escaping exception is itself a failure
            self.errors[type(exc).__name__] += 1
            code = None
        latency = perf_counter() - start
        if code == EXIT_USAGE:
            self.errors["exit_2"] += 1
        if tracer is not None:
            tracer.count("cli.output_bytes", len(out.getvalue()) + len(err.getvalue()))
        return code, out.getvalue(), latency

    def _checked_json(self, code, text: str, passed) -> tuple[bool, bool]:
        """``(failed, consistent)`` of a JSON command: exit 0 exactly when it passed."""
        if code == EXIT_USAGE:
            return True, True
        if code not in (EXIT_OK, EXIT_CHECK_FAILED):
            return True, False
        try:
            ok = passed(json.loads(text))
        except (ValueError, KeyError, TypeError):
            return True, False
        if not ok:
            self.errors["check_failed"] += 1
        return code != EXIT_OK, ok == (code == EXIT_OK)


class VerifyDenseWorkload(CliWorkload):
    """``verify --grid 32768 --format json`` on dense series literal files."""

    name = "verify_dense"

    def __init__(self, seed: int, scratch: str, pool: int = 96):
        super().__init__()
        self.draws = inputs.verify_draws(seed, pool, scratch, inputs.timed_draws(pool))

    def op(self, index: int, tracer=None) -> Outcome:
        d = self.draws[index]
        argv = ["verify", "--input", d.path, "--r", repr(d.r), "--mode", d.mode,
                "--grid", str(DENSE_GRID), "--format", "json"]
        code, text, latency = self._main(argv, tracer)
        failed, consistent = self._checked_json(code, text, lambda doc: doc["report"]["passed"])
        return Outcome(latency, 1, int(failed), consistent, _digest([code, text]))


_GRID_LINE = re.compile(r"grid (min|max): modulus = (\S+) at theta = (\S+)")


def _profile_consistent(summary: str, csv_path: str, rows: int) -> bool:
    """The CSV has ``rows`` rows and its first min and max are the printed ones."""
    printed = {m[1]: (float(m[3]), float(m[2])) for m in _GRID_LINE.finditer(summary)}
    try:
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return False
    if len(printed) != 2 or lines[:1] != ["theta,modulus"] or len(lines) != rows + 1:
        return False
    profile = [tuple(map(float, line.split(","))) for line in lines[1:]]
    lo = min(range(rows), key=lambda k: profile[k][1])
    hi = max(range(rows), key=lambda k: profile[k][1])
    return printed == {"min": profile[lo], "max": profile[hi]}


class ReferenceCliWorkload(CliWorkload):
    """``example --format json`` then ``landscape --output`` on the closed-form family."""

    name = "reference_cli"

    def __init__(self, seed: int, scratch: str, pool: int = 320):
        super().__init__()
        self.draws = inputs.reference_draws(seed, pool)
        self.csv_path = os.path.join(scratch, "profile.csv")

    def op(self, index: int, tracer=None) -> Outcome:
        d = self.draws[index]
        flags = ["--a0-mod", repr(d.a0_mod), "--a0-arg", repr(d.a0_arg),
                 "--n", str(d.n), "--r", repr(d.r)]
        code, text, example_s = self._main(["example", *flags, "--format", "json"], tracer)
        failed, consistent = self._checked_json(code, text, lambda doc: doc["passed"])
        outputs = [code, text]

        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        code, text, landscape_s = self._main(["landscape", *flags, "--output", self.csv_path], tracer)
        outputs += [code, text]
        if code == EXIT_OK:
            if tracer is not None and os.path.exists(self.csv_path):
                tracer.count("extremum.csv_bytes", os.path.getsize(self.csv_path))
            if not _profile_consistent(text, self.csv_path, DEFAULT_GRID):
                self.errors["landscape_mismatch"] += 1
                failed, consistent = True, False
        else:
            failed = True
            consistent = consistent and code == EXIT_USAGE
        return Outcome(example_s + landscape_s, 1, int(failed), consistent, _digest(outputs))


WORKLOADS = {
    cls.name: cls for cls in (SweepWorkload, VerifyDenseWorkload, ReferenceCliWorkload)
}
