"""Command-line interface.

One binary with subcommands (classify, distill, simulate, audit, fidelity)
reading a JSON state file {"amps": [[re, im] x 8], "label": optional} with
the index convention i = 4a + 2b + c, and writing a single JSON result
envelope to stdout:

    {"command", "input_label", "result",
     "diagnostics": {"tolerances", "seed", "timings_ms"}}

Every float is emitted with 17 significant digits, so parsing the output
reproduces the binary values exactly.  Warnings and error messages go to
stderr.  Exit codes: 0 success; 2 PreconditionViolatedError: an unreadable,
non-UTF-8 or malformed file, or an argument outside its domain (``--tol``
outside (0, 1), ``--seed`` below 0, ``--trials``, ``--povms`` or
``--restarts`` below 1, fewer than 3 ``--diagonal-scan`` steps, a diagonal
scan of a state with sa > 0), and MemoryError: a count such as ``--trials`` too
large for the memory of the machine; 3 any other package error, a
non-finite amplitude included; 4 NotGHZClassError (distillation
impossible at ``--tol``).  An unnormalized state is renormalized with a
warning, overflowing amplitudes included.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .decomposition import classification_evidence, decompose
from .errors import (
    GhzDistillError, InvariantViolationError, NotGHZClassError, PreconditionViolatedError,
)
from .fidelity import ghz_fidelity, optimal_lu_fidelity
from .monotone import audit_povm, random_povm_pair, scan_diagonal_family
from .simulate import run_protocol
from .solver import build_povms, optimal_probability, optimal_probability_value
from .tensor import State3Q, check_int, check_tol, normalize, scaled_norm
from .tolerances import NORM_WARN_TOL, RANK_TOL

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NOT_DISTILLABLE = 4


# ----------------------------------------------------------------------
# JSON emission: floats carry >= 15 significant digits (format .16e gives
# 17), which the stdlib encoder does not guarantee, hence this tiny emitter.

def _emit(obj, indent: int | None, level: int = 0) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError(f"cannot emit non-finite float {obj!r}")
        return format(obj, ".16e")
    nl, pad, pad_in = "", "", ""
    if indent is not None:
        nl = "\n"
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent, level + 1) for v in obj]
        return "[" + nl + ("," + nl).join(pad_in + i for i in items) + nl + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {_emit(v, indent, level + 1)}" for k, v in obj.items()]
        return "{" + nl + ("," + nl).join(pad_in + i for i in items) + nl + pad + "}"
    raise TypeError(f"cannot emit {type(obj)!r}")


def _complex_pairs(a) -> list:
    """Complex array as nested lists of [re, im] pairs, one per entry."""
    a = np.asarray(a)
    return np.stack([a.real, a.imag], -1).tolist()


# ----------------------------------------------------------------------
# input handling

def load_state(path: str) -> tuple[State3Q, str | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise PreconditionViolatedError(f"cannot read {path}: {e}")
    except (ValueError, RecursionError, OverflowError) as e:
        raise PreconditionViolatedError(f"malformed JSON in {path}: {e}")
    amps = doc.get("amps") if isinstance(doc, dict) else None
    if not (isinstance(amps, list) and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
            for p in amps)):
        raise PreconditionViolatedError(f'{path}: "amps" must be a list of [re, im] number pairs')
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise PreconditionViolatedError(f"{path}: label must be a string")
    try:
        pairs = [(float(re), float(im)) for re, im in amps]
    except OverflowError:   # an integer beyond the float range
        raise InvariantViolationError(f"{path}: amplitudes must be finite")
    if len(pairs) != 8:
        raise InvariantViolationError(f'{path}: "amps" must have 8 entries, got {len(pairs)}')
    vec = np.array([re + 1j * im for re, im in pairs])
    try:
        state = normalize(vec)
    except GhzDistillError as e:
        raise type(e)(f"{path}: {e}") from None
    scale, n = scaled_norm(vec)
    n *= scale   # the true norm, also where its square overflows
    if abs(n - 1.0) > NORM_WARN_TOL:
        print(f"warning: {path}: state norm {n:.6g} differs from 1; renormalizing",
              file=sys.stderr)
    return state, label


# ----------------------------------------------------------------------
# subcommand bodies: each returns the "result" payload

def _cmd_classify(args, state: State3Q) -> dict:
    ev = classification_evidence(state, args.tol)
    return {
        "class": ev["class"].value,
        "single_party_ranks": ev["ranks"],
        "product_vectors": ev["product_vectors"],
        "root_separation": ev["root_separation"],
    }


def _cmd_distill(args, state: State3Q) -> dict:
    d = decompose(state, args.tol)
    sol = optimal_probability(d)
    povms = build_povms(d, sol)
    return {
        "p_opt": sol.p_opt,
        "x_star": sol.x_star,
        "decomposition": {
            "mu1": d.mu1, "mu2": d.mu2, "phi": d.phi,
            "sa": d.sa, "sb": d.sb, "sc": d.sc,
            "a1": _complex_pairs(d.a1), "a2": _complex_pairs(d.a2),
            "b1": _complex_pairs(d.b1), "b2": _complex_pairs(d.b2),
            "c1": _complex_pairs(d.c1), "c2": _complex_pairs(d.c2),
        },
        "coefficients": {
            "alpha1": sol.alpha1, "alpha2": sol.alpha2,
            "beta1": sol.beta1, "beta2": sol.beta2,
            "gamma1": sol.gamma1, "gamma2": sol.gamma2,
        },
        "phases": {"a": sol.phase_a, "b": sol.phase_b, "c": sol.phase_c},
        "povms": {
            party: {"success": _complex_pairs(succ), "failure": _complex_pairs(fail)}
            for succ, fail, party in povms.pairs()
        },
    }


def _cmd_simulate(args, state: State3Q) -> dict:
    d = decompose(state, args.tol)
    povms = build_povms(d, optimal_probability(d))
    report = run_protocol(state, povms, args.trials, args.seed)
    return {
        "trials": report.trials,
        "successes": report.successes,
        "success_rate": report.success_rate,
        "mean_success_fidelity": report.mean_success_fidelity,
        "seed": report.seed,
    }


def _cmd_audit(args, state: State3Q) -> dict:
    d = decompose(state, args.tol)
    p_before = optimal_probability_value(d)

    if args.diagonal_scan is not None:
        table = scan_diagonal_family(state, args.diagonal_scan, d, tol=args.tol)
        i_min = int(np.argmin(table[:, 1]))
        return {
            "p_before": p_before,
            "mu1_squared": d.mu1 ** 2,
            "x": [float(x) for x in table[:, 0]],
            "slack": [float(s) for s in table[:, 1]],
            "min_slack_x": float(table[i_min, 0]),
        }

    per_party = {}
    all_slacks = []
    for idx, party in enumerate("ABC"):
        slacks = []
        for k in range(args.povms):
            pair = random_povm_pair(np.random.SeedSequence([args.seed, idx, k]))
            rep = audit_povm(state, pair, party, d=d, p_before=p_before, tol=args.tol)
            slacks.append(rep.slack)
        per_party[party] = {"min_slack": min(slacks),
                            "mean_slack": float(np.mean(slacks))}
        all_slacks.extend(slacks)
    return {
        "p_before": p_before,
        "povms_per_party": args.povms,
        "audits": len(all_slacks),
        "min_slack": min(all_slacks),
        "mean_slack": float(np.mean(all_slacks)),
        "per_party": per_party,
    }


def _cmd_fidelity(args, state: State3Q) -> dict:
    f, triple = optimal_lu_fidelity(state, restarts=args.restarts, seed=args.seed)
    return {
        "fidelity": f,
        "direct_fidelity": ghz_fidelity(state),
        "angles": {
            "A": [float(a) for a in triple.angles[0]],
            "B": [float(a) for a in triple.angles[1]],
            "C": [float(a) for a in triple.angles[2]],
        },
    }


_HANDLERS = {
    "classify": _cmd_classify,
    "distill": _cmd_distill,
    "simulate": _cmd_simulate,
    "audit": _cmd_audit,
    "fidelity": _cmd_fidelity,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("state_file", help="JSON state file with 8 [re, im] amplitude pairs")
    common.add_argument("--tol", type=float, default=RANK_TOL,
                        help="relative rank tolerance in (0, 1) (default %(default)g)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed (>= 0) for every stochastic component (default 0)")
    common.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")

    parser = argparse.ArgumentParser(
        prog="ghzdistill",
        description="Optimal GHZ distillation from pure three-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("classify", parents=[common],
                   help="entanglement class of the state")
    sub.add_parser("distill", parents=[common],
                   help="optimal protocol: probability, coefficients, POVMs")
    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo run of the optimal protocol")
    p.add_argument("--trials", type=int, default=10_000, help="number of trials")
    p = sub.add_parser("audit", parents=[common],
                       help="monotone-inequality audit under local POVMs")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--povms", type=int, default=100,
                       help="random POVMs per party (default 100)")
    group.add_argument("--diagonal-scan", type=int, default=None, metavar="STEPS",
                       help="sweep the balanced diagonal family instead")
    p = sub.add_parser("fidelity", parents=[common],
                       help="best GHZ fidelity over local unitaries")
    p.add_argument("--restarts", type=int, default=32, help="optimizer restarts")
    return parser


# each subcommand's counts with their least values: those of run_protocol,
# the audit loop, scan_diagonal_family and optimal_lu_fidelity
_COUNTS = {"trials": 1, "povms": 1, "diagonal_scan": 3, "restarts": 1}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        check_tol(args.tol)
        check_int("--seed", args.seed, 0)
        # before the state is read, so a count outside its domain exits 2
        # also on a state that is not GHZ class
        for name, low in _COUNTS.items():
            value = getattr(args, name, None)
            if value is not None:
                check_int("--" + name.replace("_", "-"), value, low)
        state, label = load_state(args.state_file)
        result = _HANDLERS[args.command](args, state)
    except GhzDistillError as e:
        if isinstance(e, PreconditionViolatedError):
            code, text = EXIT_PARSE, str(e)
        elif isinstance(e, NotGHZClassError):
            code, text = EXIT_NOT_DISTILLABLE, str(e)
        else:
            code, text = EXIT_INVARIANT, f"{type(e).__name__}: {e}"
        print(f"error: {text}", file=sys.stderr)
        return code
    except MemoryError as e:
        # a count too large for the machine, such as --trials 10**12
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return EXIT_PARSE
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    envelope = {
        "command": args.command,
        "input_label": label,
        "result": result,
        "diagnostics": {
            "tolerances": {"rank_tol": args.tol},
            "seed": args.seed,
            "timings_ms": {"total": elapsed_ms},
        },
    }
    indent = 2 if args.pretty else None
    sys.stdout.write(_emit(envelope, indent) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
