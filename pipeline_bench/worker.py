"""One workload in one fresh process: set up, time a closed loop, check.

Started by run.py, never by hand.  Prints ``ready`` once set-up (imports,
corpus, one untimed warm-up op) is done, and at the end one JSON line with
the measured metrics and the run's details.  With --trace 1 it spends half
of its time untraced and half traced, and reports the per-layer metrics of
the traced half and the difference between the two halves.

Time is reported at a reference speed.  The machines this runs on change
speed by up to 1.6x in phases of tens of seconds, for every kind of work
alike, which no run length averages out.  Between ops, untimed, the worker
times a fixed calibration kernel that does not use the package; each op's
wall time is scaled by the kernel's reference time over the median of the
nine samples nearest to it.  The raw wall-clock figures are in the detail
line.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

_t = perf_counter()
import ghzdistill  # noqa: E402  (timed: the import layer)

IMPORT_MS = (perf_counter() - _t) * 1e3

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NOT_APPLICABLE = 1.0    # value of a quality metric the workload does not measure
SOLVES = {"solver.optimal_probability", "solver.max_1d"}
CAL_EVERY_S = 0.05      # one calibration sample per this much op time
CAL_NEAREST = 9
_CAL_M = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
_CAL_M = _CAL_M + _CAL_M.conj().T


def _small_numpy() -> None:
    """Small NumPy calls and interpreted arithmetic, like the in-process ops."""
    for _ in range(10):
        np.linalg.eigh(_CAL_M)
        np.einsum("ij,jk->ik", _CAL_M, _CAL_M)
        np.linalg.svd(_CAL_M[:2, :2])
        acc = 0.0
        for x in range(60):
            acc += x * 0.5


def _numpy_cold_start() -> None:
    """A fresh interpreter importing NumPy, like the start of a CLI call."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Calibration:
    kernel: Callable[[], None]
    ref_ms: float       # the kernel's time at the reference speed
    burst: int          # most samples taken after one op
    setup_samples: int  # samples right after set-up

    def sample(self) -> float:
        t0 = perf_counter()
        self.kernel()
        return (perf_counter() - t0) * 1e3


IN_PROCESS = Calibration(_small_numpy, 0.5, 5, 9)
COLD_START = Calibration(_numpy_cold_start, 130.0, 1, 3)


def calibration_for(wl) -> Calibration:
    # CLI calls are mostly process start-up, which the in-process kernel
    # tracks less well than a fresh interpreter does
    return COLD_START if isinstance(wl, workloads.CliCold) else IN_PROCESS


@dataclass
class Phase:
    """The ops of one timed loop with the calibration samples taken in it."""

    recs: list
    elapsed: float              # wall seconds, calibration pauses included
    cal: Calibration
    cal_ms: list

    @property
    def scale(self) -> float:
        """Reference ms per wall ms over the whole phase."""
        return self.cal.ref_ms / statistics.median(self.cal_ms)


@dataclass
class Rec:
    """One timed op."""

    case: int
    t0: float
    ms: float                       # wall time
    ref_ms: float = 0.0             # wall time at the reference speed
    out: object = None
    error: str | None = None        # "<layer>.errors.<type>"
    refused: bool = False
    mc_miss: bool = False


def _raising_layer(exc: BaseException) -> str:
    """Package module of the deepest frame that the exception passed."""
    if isinstance(exc, workloads.CliExit):
        return "cli"
    layer = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("ghzdistill."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def _error_name(exc: BaseException) -> str:
    kind = f"exit{exc.code}" if isinstance(exc, workloads.CliExit) else type(exc).__name__
    return f"{_raising_layer(exc)}.errors.{kind}"


def timed_loop(wl, seconds: float, tr, cal: Calibration) -> Phase:
    """Closed loop, one client: the next op starts when the last returns.
    A whole-pass workload runs on past ``seconds`` to the end of its pass."""
    recs = []
    n = len(wl.cases)
    probe = isinstance(tr, tracing.Tracer) and wl.probe_max_1d
    cal_t, cal_ms = [perf_counter()], [cal.sample()]
    t_start = perf_counter()
    t_end = t_start
    i = 0
    while i == 0 or t_end - t_start < seconds or (wl.whole_passes and i % n):
        case = wl.cases[i % n]
        t0 = perf_counter()
        rec = Rec(case=i % n, t0=t0, ms=0.0)
        try:
            rec.out = tr.call("op", wl.op, case, tr)
        except Exception as exc:   # every failure is recorded, none stops the run
            rec.refused = wl.refused(case, exc)
            rec.error = _error_name(exc)
        t_end = perf_counter()
        rec.ms = (t_end - t0) * 1e3
        recs.append(rec)
        if isinstance(rec.out, dict) and "d" in rec.out:
            d = rec.out.pop("d")    # not kept: the checks decompose again
            if probe:
                # the 1-D max alone on the same decomposition, outside the op
                tr.call("solver.max_1d", ghzdistill.solver.optimal_probability_value, d)
        for _ in range(min(cal.burst, int((t_end - cal_t[-1]) / CAL_EVERY_S))):
            cal_t.append(perf_counter())
            cal_ms.append(cal.sample())
        t_end = perf_counter()
        i += 1
    cal_t.append(perf_counter())
    cal_ms.append(cal.sample())
    times = np.array(cal_t)
    for rec in recs:
        k = int(np.searchsorted(times, rec.t0))
        lo = max(0, min(k - CAL_NEAREST // 2, len(times) - CAL_NEAREST))
        rec.ref_ms = rec.ms * cal.ref_ms / statistics.median(cal_ms[lo:lo + CAL_NEAREST])
    return Phase(recs, t_end - t_start, cal, cal_ms)


def verify(wl, recs: list[Rec]) -> dict:
    """Sort every op into ok / expected_refusal / failed after timing."""
    outcome = Counter()
    failures = Counter()
    problems = []
    p_errors, fidelities = [], {}
    mc = []
    for rec in recs:
        case = wl.cases[rec.case]
        if rec.error is not None and not rec.refused:
            outcome["failed"] += 1
            failures[rec.error] += 1
            continue
        chk = wl.check_refusal(case) if rec.refused else wl.check(case, rec.out)
        p_errors += chk.p_errors
        fidelities.update((rec.case, f) for f in chk.fidelities)
        if chk.mc_within is not None:
            mc.append(rec)
        if chk.problems:
            outcome["failed"] += 1
            failures["checks.failed"] += 1
            if len(problems) < 5:
                problems.append(f"{case.family}: {'; '.join(chk.problems)}")
            continue
        outcome["expected_refusal" if rec.refused else "ok"] += 1
        rec.mc_miss = chk.mc_within is False
    # criterion 6 passes with 19 of 20 runs within 4 sigma: misses count as
    # failures only beyond that share
    misses = [r for r in mc if r.mc_miss]
    if len(misses) * 20 > len(mc):
        for rec in misses:
            outcome["ok"] -= 1
            outcome["failed"] += 1
            failures["checks.monte_carlo"] += 1
    return {"outcome": outcome, "failures": failures, "problems": problems,
            "check_failures": sum(c for k, c in failures.items() if k.startswith("checks.")),
            "p_errors": p_errors, "fidelities": fidelities,
            "mc": {"checked": len(mc), "outside_4_sigma": len(misses)}}


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb(wl) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(wl, workloads.CliCold):
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(wl, phase: Phase, v) -> dict:
    recs = phase.recs
    lat = [r.ref_ms for r in recs]
    n = len(recs)
    if wl.reports_p_opt:
        p_err = max(v["p_errors"]) if v["p_errors"] else NOT_APPLICABLE
    else:
        p_err = NOT_APPLICABLE
    if wl.reports_fidelity:
        # over distinct inputs, so it does not depend on how many ops ran
        fid = float(np.mean(list(v["fidelities"].values()))) if v["fidelities"] else 0.0
    else:
        fid = NOT_APPLICABLE
    return {
        "ops_per_s": (n / (sum(lat) / 1e3), "1/s"),
        "op_ms_p50": (_pct(lat, 50), "ms"),
        "op_ms_p90": (_pct(lat, 90), "ms"),
        "ok_ratio": ((n - v["outcome"]["failed"]) / n, "share"),
        "p_opt_err_max": (p_err, "prob"),
        "lu_fidelity_mean": (fid, "fidelity"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }


def wall_clock(phase: Phase) -> dict:
    lat = [r.ms for r in phase.recs]
    return {"ops_per_s": len(lat) / phase.elapsed, "op_ms_p50": _pct(lat, 50),
            "op_ms_p90": _pct(lat, 90), "calibration_ms_median": statistics.median(phase.cal_ms),
            "calibration_samples": len(phase.cal_ms)}


def interpreter_ms(repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def per_layer(wl, tr: tracing.Tracer, phase: Phase, untraced: Phase, v_traced) -> dict:
    """Span times are scaled to the reference speed by the traced phase's
    median calibration; op times use each op's own calibration."""
    traced = phase.recs
    n = len(traced)
    scale = phase.scale
    in_op = [s for s in tr.spans if "op" in s.ancestors]
    op_ms = sum(tr.durations("op")) or 1.0

    def p50(name):
        return _pct(tr.durations(name), 50) * scale

    def calls(name):
        return sum(1 for s in in_op if s.name == name) / n

    def share(name):
        return sum(s.ms for s in in_op if s.name == name) / op_ms

    solves = sum(1 for s in tr.spans if s.name in SOLVES and not SOLVES & set(s.ancestors))

    def per_solve(key):
        return tr.counts[key] / solves if solves else 0.0

    runs = [ms * scale for ms in tr.durations("simulate.run_protocol")]
    branches = [b for r in traced if isinstance(r.out, dict) for b in r.out.get("branches", ())]
    by_family = {}
    for r in traced:
        by_family.setdefault(wl.cases[r.case].family, []).append(r.ref_ms)
    errors = Counter(r.error for r in traced if r.error and not r.refused)
    known = ("solver.errors.InvariantViolationError",
             "decomposition.errors.InvariantViolationError",
             "decomposition.errors.NotGHZClassError",
             "decomposition.errors.IllConditionedError")
    untraced_p50 = _pct([r.ref_ms for r in untraced.recs], 50)
    traced_p50 = _pct([r.ref_ms for r in traced], 50)
    m = {
        "import.interpreter_ms": (interpreter_ms() * scale, "ms"),
        "import.ghzdistill_ms": (IMPORT_MS * scale, "ms"),
    }
    for sub, _ in workloads.CliCold.SUBCOMMANDS:
        ms = by_family.get(sub, []) if isinstance(wl, workloads.CliCold) else []
        m[f"cli.{sub}.ms_p50"] = (_pct(ms, 50), "ms")
    m.update({
        "tensor.apply_local.calls": (calls("tensor.apply_local"), "count/op"),
        "tensor.apply_local.busy_share": (share("tensor.apply_local"), "share"),
    })
    for name in ("decomposition.classify", "decomposition.decompose"):
        m[f"{name}.calls"] = (calls(name), "count/op")
        m[f"{name}.ms_p50"] = (p50(name), "ms")
        m[f"{name}.busy_share"] = (share(name), "share")
    m.update({
        "solver.optimal_probability.ms_p50": (p50("solver.optimal_probability"), "ms"),
        "solver.optimal_probability.busy_share": (share("solver.optimal_probability"), "share"),
        "solver.solve_coefficients.ms_p50": (p50("solver.solve_coefficients"), "ms"),
        "solver.max_1d.ms_p50": (p50("solver.max_1d"), "ms"),
        "solver.build_povms.ms_p50": (p50("solver.build_povms"), "ms"),
        "kernels.scalar_calls_per_solve": (per_solve("kernels.scalar_calls"), "count/solve"),
        "kernels.grid_points_per_solve": (per_solve("kernels.grid_points"), "count/solve"),
        "kernels.batch_points_per_solve": (per_solve("kernels.batch_points"), "count/solve"),
        "simulate.run_protocol.ms_p50": (_pct(runs, 50), "ms"),
        "simulate.run_protocol.trials_per_s": (
            workloads.TRIALS * len(runs) / (sum(runs) / 1e3) if runs else 0.0, "1/s"),
        "monotone.audit_povm.ms_p50": (p50("monotone.audit_povm"), "ms"),
        "monotone.diagonal_family_audit.ms_p50": (p50("monotone.diagonal_family_audit"), "ms"),
        "monotone.ghz_branch_share": (
            sum(b[1] == workloads.GHZ for b in branches) / len(branches) if branches else 0.0,
            "share"),
        "fidelity.optimal_lu_fidelity.ms_p50": (p50("fidelity.optimal_lu_fidelity"), "ms"),
        "fidelity.optimal_lu_fidelity.ms_per_restart": (
            p50("fidelity.optimal_lu_fidelity") / (workloads.RESTARTS + 1), "ms"),
    })
    for key in known:
        m[key] = (errors.pop(key, 0), "count")
    m["errors.other"] = (sum(errors.values()), "count")
    m["checks.failed"] = (v_traced["failures"]["checks.failed"], "count")
    m.update({
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "trace.overhead_share": ((traced_p50 - untraced_p50) / untraced_p50, "share"),
        "trace.span_coverage": (
            sum(s.ms for s in tr.spans if s.ancestors == ("op",)) / op_ms, "share"),
    })
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        try:
            wl.op(wl.cases[0], tracing.NullTracer())    # warm-up, untimed
        except Exception:   # the warm-up is no op of the run; its input runs again
            pass
        print("ready", flush=True)
        # set-up is scaled to the reference speed like the ops
        cal = calibration_for(wl)
        setup_scale = cal.ref_ms / statistics.median(
            cal.sample() for _ in range(cal.setup_samples))
        print(f"setup_scale {setup_scale!r}", flush=True)
        if args.setup_only:
            return 0
        # a traced run splits its time: untraced first, then traced
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = timed_loop(wl, seconds, tracing.NullTracer(), cal)
        recs = phase.recs
        if args.trace:
            tr = tracing.Tracer()
            tracing.install(tr)
            try:
                traced = timed_loop(wl, seconds, tr, cal)
            finally:
                tr.restore()
        v = verify(wl, recs)
        lat = [r.ref_ms for r in recs]
        detail = {
            "workload": wl.name,
            "seed": args.seed,
            "versions": workloads.versions(),
            "ops": len(recs),
            "op_ms_samples_beyond_p90": sum(x > _pct(lat, 90) for x in lat),
            "distinct_inputs": len(wl.cases),
            "wall_clock": wall_clock(phase),
            "outcome": dict(v["outcome"]),
            "failures_by_type": dict(v["failures"]),
            "first_problems": v["problems"],
            "monte_carlo": v["mc"],
            "not_applicable": [k for k, on in (("p_opt_err_max", wl.reports_p_opt),
                                               ("lu_fidelity_mean", wl.reports_fidelity))
                               if not on],
        }
        if args.trace:
            vt = verify(wl, traced.recs)
            metrics = per_layer(wl, tr, traced, phase, vt)
            detail.update(traced_ops=len(traced.recs), traced_outcome=dict(vt["outcome"]),
                          traced_wall_clock=wall_clock(traced), absent_probes=tr.absent)
            failed = v["outcome"]["failed"] + vt["outcome"]["failed"]
            attempted = len(recs) + len(traced.recs)
            correct = v["check_failures"] + vt["check_failures"] == 0
        else:
            metrics = end_to_end(wl, phase, v)
            failed = v["outcome"]["failed"]
            attempted = len(recs)
            correct = v["check_failures"] == 0
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": val, "unit": u}
                                      for k, (val, u) in metrics.items()},
                          "detail": detail}), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
