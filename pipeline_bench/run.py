"""Pipeline benchmark of ghzdistill: one workload per fresh process.

Usage, from the root of a checkout:

    python3 pipeline_bench/run.py --workload haar_distill --seed 1 --seconds 10 --trace 0
    python3 pipeline_bench/run.py --workload all --seed 1 --seconds 10

With one workload, the last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  The
line before it holds the run's details (versions, outcome counts, failures
by layer and exception type, sample counts).  ``--workload all`` prints
every metric of every workload as a table.  NOTES.md describes the
workloads and the metrics.

The package is run from ``src/`` of the checkout; the benchmark exits with
code 2 when it is missing.  Every worker runs with BLAS and OpenMP pinned to
one thread.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("haar_distill", "boundary_mix", "monotone_audit", "lu_fidelity", "cli_cold")
SETUPS = 3              # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> tuple[float, float, dict | None]:
    """Start a worker; return (seconds until it was ready, the factor that
    scales them to the reference speed, its final JSON)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        second = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready" or not second.startswith("setup_scale "):
        raise WorkerError(f"worker {' '.join(args)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return ready, float(second.split()[1]), (json.loads(lines[-1]) if lines else None)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    t_end = perf_counter() + WORKER_TIMEOUT_S
    setups = []     # (wall seconds, scale to the reference speed)
    if not trace:
        for _ in range(SETUPS - 1):
            ready, scale, _ = run_worker(common + ["--setup-only"], t_end - perf_counter())
            setups.append((ready, scale))
    ready, scale, result = run_worker(common + ["--trace", str(trace)], t_end - perf_counter())
    setups.append((ready, scale))
    metrics = result["metrics"]
    if not trace:
        ref = statistics.median(s * k for s, k in setups)
        metrics = {"setup_s": {"value": ref, "unit": "s"}, **metrics}
        result["detail"]["setup_wall_s"] = [s for s, _ in setups]
    result["metrics"] = metrics
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ghzdistill" / "__init__.py").is_file():
        print(f"error: no ghzdistill package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload != "all":
        result = results[args.workload]
        print(json.dumps({"detail": result.pop("detail")}))
        print(json.dumps(result))
        return 0
    for name, result in results.items():
        d = result["detail"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} outcome={d['outcome']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:>16.6g} {m['unit']}")
        if d.get("failures_by_type"):
            print(f"  failures: {d['failures_by_type']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
