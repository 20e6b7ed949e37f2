"""Run one workload of the diskextrema benchmark and print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``), as a
closed loop with a single client.  ``setup_s`` is the median, over
``SETUP_RUNS`` fresh interpreters, of the time from starting one to its
report that ``diskextrema`` is imported, the inputs are generated and the
warm-up is done; the last of them goes on to measure.  With ``--trace 0``
the end-to-end metrics are printed, with ``--trace 1`` the per-layer ones.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("sweep", "verify_dense", "reference_cli")
SETUP_RUNS = 7
#: Every workload process must have ended this long after the start.
DEADLINE_S = 170.0
#: Pinned so that numpy's thread pools stay single-threaded in the workload process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SCRATCH_DIR = ".bench_scratch"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start one workload process; return seconds until it was ready, and its output after."""
    env = {**os.environ, **THREAD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], stdout=subprocess.PIPE, text=True, env=env
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"workload process exited with code {code} before finishing")
    return ready_s, rest


def _print_metrics(metrics: dict, extra: dict) -> None:
    for name, metric in {**metrics, **extra}.items():
        print(f"{name:<36} {metric['value']:<24.10g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diskextrema", "__init__.py")):
        print("error: no ./src/diskextrema here; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(root, SCRATCH_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, SCRATCH_DIR))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    try:
        setups = [_run_worker([*common, "--seconds", "0", "--setup-only"], deadline)[0]
                  for _ in range(SETUP_RUNS - 1)]
        ready_s, output = _run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(ready_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, SCRATCH_DIR))
        except OSError:
            pass

    doc = json.loads(output.strip().splitlines()[-1])
    info = doc.pop("info")
    metrics = doc["metrics"]
    extra = {}
    if args.trace:
        print(f"per-layer metrics, {info['traced_ops']} of {info['ops']} operations traced")
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        extra["failed_ops_frac"] = {"value": doc["failed"] / doc["attempted"], "unit": "frac"}
    print(f"workload = {args.workload}  seed = {args.seed}  seconds = {args.seconds:g}  "
          f"trace = {args.trace}")
    print(f"machine: nproc = {os.cpu_count()}  cpu = {_cpu_model()}  "
          f"python = {info.pop('python')}  numpy = {info.pop('numpy')}  "
          + "  ".join(f"{k} = {v}" for k, v in THREAD_ENV.items()))
    print("run: " + "  ".join(f"{k} = {v}" for k, v in info.items()))
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    _print_metrics(metrics, extra)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
