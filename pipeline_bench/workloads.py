"""Seeded corpora, operations and output checks of the five workloads.

Each input has two sources of randomness.  A fixed base generator draws its
local-unitary invariants (weights, overlaps, phase, the measured POVM); the
workload seed draws a local-unitary frame for every input, the Monte Carlo
seeds and the input order.  p_opt, the LU fidelity and the audit slack are
invariant under local unitaries, so two seeds give different inputs with the
same exact answers: the accuracy metrics then measure the code, not the
corpus, and stay steady from seed to seed.  boundary_mix is the exception:
which of its inputs fail depends on rounding, and so on the frame, so its
frames come from a fixed generator too and its seed draws only the input
order.  Its runs end at a pass boundary, so every run fails the same share
of its ops.

An operation returns a payload or raises.  ``check`` runs after timing and
returns the problems found at the margins of tests/test_acceptance.py (never
looser), the p_opt errors against the reference oracles and the LU
fidelities it saw.
"""
from __future__ import annotations

import compileall
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ghzdistill
from ghzdistill import decomposition, fidelity, monotone, sampling, simulate, solver, tensor
from ghzdistill.errors import NotGHZClassError

GHZ = decomposition.EntanglementClass.GHZ_CLASS.value
BISEPARABLE = {"A": "Biseparable(A|BC)", "B": "Biseparable(B|AC)", "C": "Biseparable(C|AB)"}
BASE_SEED = 20_000          # fixes the invariants; the workload seed only moves frames
ZERO = 1e-10                # overlap below which a closed form applies

# acceptance margins (tests/test_acceptance.py)
CLOSED_FORM_TOL = 1e-7      # criteria 2, 3
GRID_TOL = 1e-6             # criterion 4
INFIDELITY_TOL = 1e-9       # criterion 5
BRANCH_P_TOL = 1e-8         # criterion 5
MC_SIGMAS = 4.0             # criterion 6: at least 19 of 20 runs within 4 sigma
RANDOM_SLACK_TOL = -1e-7    # criterion 7
DIAGONAL_SLACK_TOL = -1e-8  # criterion 8
FIDELITY_TOL = 1e-12        # criterion 9

TRIALS = 10_000             # run_protocol trials per op, the CLI default
RESTARTS = 8                # optimal_lu_fidelity restarts per op
BOUND_SAMPLES = 5_000       # sampled_fidelity_bound samples per input
GRID_POINTS = 100_000


class CliExit(Exception):
    """A CLI subprocess ended with a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit code {code}: {stderr.strip()[-200:]}")
        self.code = code


@dataclass
class Case:
    """One input: the state, how it was generated and what it expects."""

    state: tensor.State3Q
    family: str
    expect: str = GHZ                       # generated entanglement class
    ref: decomposition.ProductDecomposition | None = None   # generating form
    args: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)


@dataclass
class Check:
    problems: list = field(default_factory=list)
    p_errors: list = field(default_factory=list)
    fidelities: list = field(default_factory=list)
    mc_within: bool | None = None           # None: no Monte Carlo output


# ----------------------------------------------------------------------
# input generation

def _rotate(state, frames):
    return sampling.apply_local_unitaries(state, *sampling.random_local_unitaries(frames))


def _family(base, ratio=None, sa=None, sb=None, sc=None):
    """Random two-term decomposition with any of its invariants pinned;
    ``ratio`` is mu2/mu1."""
    if ratio is None:
        mu1_sq = base.uniform(0.52, 0.9)
        ratio = np.sqrt((1.0 - mu1_sq) / mu1_sq)
    sa, sb, sc = (base.uniform(0.05, 0.85) if s is None else s for s in (sa, sb, sc))
    phi = base.uniform(0.0, 2.0 * np.pi)
    m1 = 1.0 / np.sqrt(1.0 + ratio * ratio)
    m2 = ratio * m1
    norm = np.sqrt(m1 * m1 + m2 * m2 + 2.0 * m1 * m2 * np.cos(phi) * sa * sb * sc)
    a1, b1, c1 = (sampling.haar_local_vector(base) for _ in range(3))
    return decomposition.ProductDecomposition(
        mu1=m1 / norm, mu2=m2 / norm, phi=phi,
        a1=a1, a2=sampling.vector_with_overlap(base, a1, sa),
        b1=b1, b2=sampling.vector_with_overlap(base, b1, sb),
        c1=c1, c2=sampling.vector_with_overlap(base, c1, sc),
        sa=sa, sb=sb, sc=sc,
    )


def _haar_ghz(base):
    while True:
        st = sampling.haar_state(base)
        if decomposition.classify(st).value == GHZ:
            return st


def _biseparable(base, party: str):
    """|v> on ``party`` times a random entangled pair on the other two."""
    v = sampling.haar_local_vector(base)
    pair = sampling.crandn(base, (2, 2))
    t = {"A": np.einsum("i,jk->ijk", v, pair),
         "B": np.einsum("j,ik->ijk", v, pair),
         "C": np.einsum("k,ij->ijk", v, pair)}[party]
    return tensor.normalize(t.reshape(8))


def _shuffled(cases, frames):
    return [cases[i] for i in frames.permutation(len(cases))]


# ----------------------------------------------------------------------
# reference oracles and shared checks

def _p_reference(case: Case, d) -> tuple[float, float]:
    """(reference p_opt, margin): a closed form where the generating
    decomposition qualifies, the 100k-point grid oracle otherwise."""
    ref = case.ref
    if ref is not None and ref.sa <= ZERO and ref.sb <= ZERO:
        return float(solver.closed_form_one_site(ref)), CLOSED_FORM_TOL
    if ref is not None and ref.sa <= ZERO:
        return float(solver.closed_form_two_sites(ref).p), CLOSED_FORM_TOL
    return solver.grid_search_probability(ref or d, points=GRID_POINTS)[0], GRID_TOL


def _cached_reference(case: Case, d=None) -> tuple[float, float]:
    if "p_ref" not in case.cache:
        if d is None and case.ref is None:
            d = decomposition.decompose(case.state)
        case.cache["p_ref"] = _p_reference(case, d)
    return case.cache["p_ref"]


def _check_p(chk: Check, case: Case, p: float, d=None) -> None:
    ref, tol = _cached_reference(case, d)
    err = abs(p - ref)
    chk.p_errors.append(err)
    if not err <= tol:
        chk.problems.append(f"|p - reference| = {err:.3e} > {tol:g}")


def _check_success_branch(chk: Check, state, success_ops, p_opt: float) -> None:
    raw, p = tensor.apply_local(state, *success_ops)
    infid = 1.0 - tensor.fidelity_with(tensor.normalize(raw), tensor.ghz_state())
    if not infid <= INFIDELITY_TOL:
        chk.problems.append(f"success-branch infidelity {infid:.3e}")
    if not abs(p - p_opt) <= BRANCH_P_TOL:
        chk.problems.append(f"|p_branch - p_opt| = {abs(p - p_opt):.3e}")


def _mc_within(rate: float, p_opt: float, trials: int) -> bool:
    sigma = np.sqrt(max(p_opt * (1.0 - p_opt), 1e-12) / trials)
    return abs(rate - p_opt) <= MC_SIGMAS * sigma


def _check_fidelity(chk: Check, case: Case, f: float) -> None:
    if "f_bounds" not in case.cache:
        case.cache["f_bounds"] = (
            fidelity.ghz_fidelity(case.state),
            fidelity.sampled_fidelity_bound(case.state, BOUND_SAMPLES, seed=1),
        )
    direct, sampled = case.cache["f_bounds"]
    chk.fidelities.append(f)
    if not f >= direct - FIDELITY_TOL:
        chk.problems.append(f"LU fidelity {f!r} below ghz_fidelity {direct!r}")
    if not f >= sampled - FIDELITY_TOL:
        chk.problems.append(f"LU fidelity {f!r} below sampled bound {sampled!r}")


def _check_class(chk: Check, case: Case, cls: str) -> None:
    if cls != case.expect:
        chk.problems.append(f"classified {cls}, generated as {case.expect}")


# ----------------------------------------------------------------------
# workloads

class Workload:
    """Corpus plus operation.  ``probe_max_1d``: in the traced run, time
    optimal_probability_value on each op's decomposition, outside the op."""

    name = ""
    probe_max_1d = False
    # end a timed loop only after a whole pass over the corpus
    whole_passes = False
    # end-to-end quality metrics this workload measures
    reports_p_opt = False
    reports_fidelity = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.cases: list[Case] = []

    def op(self, case: Case, tr):
        raise NotImplementedError

    def check(self, case: Case, out) -> Check:
        raise NotImplementedError

    def refused(self, case: Case, exc: BaseException) -> bool:
        """True when ``exc`` is the expected refusal of a non-GHZ input."""
        return case.expect != GHZ and isinstance(exc, NotGHZClassError)

    def check_refusal(self, case: Case) -> Check:
        chk = Check()
        _check_class(chk, case, decomposition.classify(case.state).value)
        return chk

    def close(self) -> None:
        pass


class HaarDistill(Workload):
    """CLI `simulate` pipeline in process on Haar-random states."""

    name = "haar_distill"
    probe_max_1d = True
    reports_p_opt = True
    SIZE = 256

    def __init__(self, seed, root):
        super().__init__(seed, root)
        base = np.random.default_rng([BASE_SEED, 1])
        frames = np.random.default_rng(seed)
        for _ in range(self.SIZE):
            case = Case(_rotate(_haar_ghz(base), frames), "haar")
            case.args["mc_seed"] = int(frames.integers(2**31))
            self.cases.append(case)

    def op(self, case, tr):
        ev = tr.call("decomposition.classify", decomposition.classification_evidence, case.state)
        d = tr.call("decomposition.decompose", decomposition.decompose, case.state)
        sol = tr.call("solver.optimal_probability", solver.optimal_probability, d)
        povms = tr.call("solver.build_povms", solver.build_povms, d, sol)
        rep = tr.call("simulate.run_protocol", simulate.run_protocol,
                      case.state, povms, TRIALS, case.args["mc_seed"])
        return {"class": ev["class"].value, "d": d, "p": sol.p_opt,
                "success": (povms.success_a, povms.success_b, povms.success_c),
                "rate": rep.success_rate}

    def check(self, case, out):
        chk = Check()
        _check_class(chk, case, out["class"])
        _check_p(chk, case, out["p"])
        _check_success_branch(chk, case.state, out["success"], out["p"])
        if "rate" in out:
            chk.mc_within = _mc_within(out["rate"], out["p"], TRIALS)
        return chk


class BoundaryMix(HaarDistill):
    """CLI `distill` pipeline in process on the inputs where behaviour changes."""

    name = "boundary_mix"
    whole_passes = True
    EPSILONS = tuple(10.0 ** -k for k in range(1, 9))

    def __init__(self, seed, root):
        Workload.__init__(self, seed, root)
        base = np.random.default_rng([BASE_SEED, 2])
        # fixed frames: the failures depend on them, and must not on the seed
        frames = np.random.default_rng([BASE_SEED, 2, 1])
        cases = []

        def add(family, st, **kw):
            cases.append(Case(_rotate(st, frames), family, **kw))

        pinned = {"sa0": (64, dict(sa=0.0)), "sb0": (64, dict(sb=0.0)),
                  "sc0": (64, dict(sc=0.0)), "sab0": (64, dict(sa=0.0, sb=0.0)),
                  "sabc0": (32, dict(sa=0.0, sb=0.0, sc=0.0)),
                  "tie": (48, dict(ratio=1.0))}
        for family, (count, kw) in pinned.items():
            for _ in range(count):
                d = _family(base, **kw)
                add(family, decomposition.reconstruct(d), ref=d)
        w = tensor.w_state().amps
        ghz = tensor.ghz_state().amps
        e111 = tensor.basis_state("111").amps
        for eps in self.EPSILONS:
            add("w+eps*ghz", tensor.normalize(w + eps * ghz))
            add("w+eps*111", tensor.normalize(w + eps * e111))
            d = _family(base, ratio=eps, sa=0.0, sb=0.0, sc=0.0)
            add("000+eps*111", decomposition.reconstruct(d), ref=d)
        parties = "ABC"
        for k in range(16):
            add("w", tensor.w_state(), expect="WClass")
            prod = np.einsum("i,j,k->ijk", *(sampling.haar_local_vector(base)
                                              for _ in range(3))).reshape(8)
            add("product", tensor.normalize(prod), expect="FullyProduct")
            p = parties[k % 3]
            add("biseparable", _biseparable(base, p), expect=BISEPARABLE[p])
        self.cases = _shuffled(cases, np.random.default_rng(seed))

    def op(self, case, tr):
        ev = tr.call("decomposition.classify", decomposition.classification_evidence, case.state)
        d = tr.call("decomposition.decompose", decomposition.decompose, case.state)
        sol = tr.call("solver.optimal_probability", solver.optimal_probability, d)
        povms = tr.call("solver.build_povms", solver.build_povms, d, sol)
        return {"class": ev["class"].value, "d": d, "p": sol.p_opt,
                "success": (povms.success_a, povms.success_b, povms.success_c)}


class MonotoneAudit(Workload):
    """audit_povm with random POVMs on Haar states, plus members of the
    balanced diagonal family on sa = 0 states."""

    name = "monotone_audit"
    reports_p_opt = True
    RANDOM, DIAGONAL = 64, 32

    def __init__(self, seed, root):
        super().__init__(seed, root)
        base = np.random.default_rng([BASE_SEED, 3])
        frames = np.random.default_rng(seed)
        cases = []
        for k in range(self.RANDOM):
            party = "ABC"[k % 3]
            u = sampling.random_local_unitaries(frames)
            state = sampling.apply_local_unitaries(_haar_ghz(base), *u)
            pair = monotone.random_povm_pair(int(base.integers(2**31)))
            rot = u["ABC".index(party)]
            pair = tuple(rot @ m @ rot.conj().T for m in pair)
            cases.append(Case(state, "random_povm", args={"pair": pair, "party": party}))
        for k in range(self.DIAGONAL):
            d0 = _family(base, sa=0.0)
            lo = 2.0 * d0.mu1 ** 2 - 1.0
            x = float(lo + (1.0 - lo) * base.random())
            cases.append(Case(_rotate(decomposition.reconstruct(d0), frames), "diagonal",
                              ref=d0, args={"x": x}))
        for case in cases:
            d = decomposition.decompose(case.state)
            case.args["d"] = d
            case.args["p_before"] = solver.optimal_probability_value(d)
        self.cases = _shuffled(cases, frames)

    def op(self, case, tr):
        a = case.args
        if case.family == "random_povm":
            rep = tr.call("monotone.audit_povm", monotone.audit_povm, case.state,
                          a["pair"], a["party"], p_before=a["p_before"])
        else:
            rep = tr.call("monotone.diagonal_family_audit", monotone.diagonal_family_audit,
                          case.state, a["x"], d=a["d"], p_before=a["p_before"])
        return {"slack": rep.slack,
                "branches": [(b.probability, b.label, b.p_value) for b in rep.branches]}

    def check(self, case, out):
        chk = Check()
        a = case.args
        _check_p(chk, case, a["p_before"], a["d"])
        if case.family == "diagonal":
            if not out["slack"] >= DIAGONAL_SLACK_TOL:
                chk.problems.append(f"diagonal-family slack {out['slack']:.3e}")
            return chk
        if not out["slack"] >= RANDOM_SLACK_TOL:
            chk.problems.append(f"random-POVM slack {out['slack']:.3e}")
        if "branches" not in case.cache:
            refs = []
            for m in a["pair"]:
                ops = [np.eye(2)] * 3
                ops["ABC".index(a["party"])] = m
                raw, prob = tensor.apply_local(case.state, *ops)
                post = Case(tensor.normalize(raw), "branch") if prob > 1e-12 else None
                refs.append(post)
            case.cache["branches"] = refs
        for (_, label, p_value), post in zip(out["branches"], case.cache["branches"]):
            if label == GHZ and post is not None:
                _check_p(chk, post, p_value)
        return chk


class LuFidelity(Workload):
    """optimal_lu_fidelity at a fixed restart count on Haar states."""

    name = "lu_fidelity"
    reports_fidelity = True
    SIZE = 192

    def __init__(self, seed, root):
        super().__init__(seed, root)
        base = np.random.default_rng([BASE_SEED, 4])
        frames = np.random.default_rng(seed)
        self.cases = [Case(_rotate(sampling.haar_state(base), frames), "haar")
                      for _ in range(self.SIZE)]

    def op(self, case, tr):
        f, _ = tr.call("fidelity.optimal_lu_fidelity", fidelity.optimal_lu_fidelity,
                       case.state, restarts=RESTARTS, seed=self.seed)
        return {"f": f}

    def check(self, case, out):
        chk = Check()
        _check_fidelity(chk, case, out["f"])
        return chk


class CliCold(Workload):
    """Fresh `python -m ghzdistill.cli` processes, round-robin over the
    subcommands, on small state files written during set-up."""

    name = "cli_cold"
    reports_p_opt = True
    reports_fidelity = True
    SUBCOMMANDS = (
        ("classify", ()),
        ("distill", ()),
        ("simulate", ("--trials", str(TRIALS))),
        ("audit", ("--povms", "2")),
        ("fidelity", ("--restarts", str(RESTARTS))),
    )

    def __init__(self, seed, root):
        super().__init__(seed, root)
        compileall.compile_dir(str(root / "src"), quiet=1)
        base = np.random.default_rng([BASE_SEED, 5])
        frames = np.random.default_rng(seed)
        self.workdir = root / "pipeline_bench" / "_work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        # two files, so the first 10 ops run every (subcommand, file) pair
        states = [(_haar_ghz(base), GHZ), (tensor.w_state(), "WClass")]
        files = []
        for k, (st, expect) in enumerate(states):
            st = _rotate(st, frames)
            path = self.workdir / f"state{k}.json"
            path.write_text(json.dumps(
                {"amps": [[float(a.real), float(a.imag)] for a in st.amps]}))
            # the CLI renormalizes what it reads; check against the same state
            files.append((tensor.normalize(st.amps), expect, str(path)))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for k in range(len(self.SUBCOMMANDS) * len(files)):
            sub, extra = self.SUBCOMMANDS[k % len(self.SUBCOMMANDS)]
            st, expect, path = files[(k // len(self.SUBCOMMANDS)) % len(files)]
            self.cases.append(Case(st, sub, expect, args={
                "argv": [sys.executable, "-m", "ghzdistill.cli", sub, path,
                         "--seed", str(seed), *extra]}))

    def op(self, case, tr):
        proc = subprocess.run(case.args["argv"], capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=120)
        if proc.returncode != 0:
            raise CliExit(proc.returncode, proc.stderr)
        return json.loads(proc.stdout)["result"]

    def refused(self, case, exc):
        return case.expect != GHZ and isinstance(exc, CliExit) and exc.code == 4

    def check(self, case, out):
        chk = Check()
        sub = case.family
        if sub == "classify":
            _check_class(chk, case, out["class"])
        elif sub == "distill":
            _check_p(chk, case, out["p_opt"])
            ops = [np.array([[complex(*z) for z in row] for row in out["povms"][p]["success"]])
                   for p in "ABC"]
            _check_success_branch(chk, case.state, ops, out["p_opt"])
        elif sub == "simulate":
            ref, _ = _cached_reference(case)
            chk.mc_within = _mc_within(out["success_rate"], ref, out["trials"])
        elif sub == "audit":
            if not out["min_slack"] >= RANDOM_SLACK_TOL:
                chk.problems.append(f"audit min slack {out['min_slack']:.3e}")
        else:
            _check_fidelity(chk, case, out["fidelity"])
        return chk

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (HaarDistill, BoundaryMix, MonotoneAudit, LuFidelity, CliCold)}


def versions() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    kernels = sys.modules.get("ghzdistill.kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "ghzdistill": getattr(ghzdistill, "__version__", "unknown"),
        "kernels_backend": getattr(kernels, "BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
    }
