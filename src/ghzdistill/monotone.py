"""Empirical audit of the optimal probability as an entanglement monotone.

Local operations cannot raise the optimal distillation probability on
average: for any two-outcome POVM applied by one party,

    P(state) >= p_1 P(state_1) + p_2 P(state_2),

with P = 0 for outcome states outside the GHZ class (nothing can be
distilled from them).  The audits here evaluate both sides and report the
slack, for arbitrary random POVMs and for the balanced diagonal family
that is the hard case of the inequality: diagonal POVMs in Alice's local
basis whose outcomes each occur with probability exactly 1/2, parameterized
by x with first-operator diagonal squares x/(2 mu1^2) and (1-x)/(2 mu2^2).
The slack vanishes only at x = mu1^2, where the POVM degenerates to
identity/sqrt(2) and the state is left untouched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import EntanglementClass, ProductDecomposition, decompose
from .errors import (
    InfeasibleXError,
    InvariantViolationError,
    NotGHZClassError,
    PreconditionViolatedError,
)
from .sampling import crandn
from .simulate import _ops_for
from .solver import _completeness_residual, optimal_probability_value
from .tensor import State3Q, apply_local, normalize
from .tolerances import (
    BRANCH_SUM_TOL, COMPLETE_TOL, CONTRACTION_TOL, DIAGONAL_X_SLACK, NEGLIGIBLE_BRANCH,
    ORTHOGONAL_SITE_TOL, RANK_TOL,
)


@dataclass(frozen=True)
class BranchOutcome:
    probability: float
    label: str          # entanglement class of the outcome, or "negligible"
    p_value: float      # optimal distillation probability of the outcome


@dataclass(frozen=True)
class MonotoneReport:
    p_before: float
    weighted_after: float
    slack: float         # p_before - weighted_after, recorded unclamped
    branches: tuple[BranchOutcome, ...]


def complete_pair(n1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N1, N2) with N2 the PSD square root of identity - N1^dag N1.

    N1 must be a contraction (largest singular value at most 1).
    """
    ev, vec = np.linalg.eigh(np.eye(2) - n1.conj().T @ n1)
    if ev[0] < -CONTRACTION_TOL:
        raise PreconditionViolatedError("operator is not a contraction; no completion exists")
    n2 = (vec * np.sqrt(np.maximum(ev, 0.0))) @ vec.conj().T
    return n1, n2


def random_povm_pair(seed) -> tuple[np.ndarray, np.ndarray]:
    """Random complete two-outcome POVM {N1, N2}.

    N1 is a Ginibre matrix rescaled to a uniformly drawn largest singular
    value in [0, 1); N2 is the PSD square root of its completion.
    """
    rng = np.random.default_rng(seed)
    g = crandn(rng, (2, 2))
    return complete_pair(g / np.linalg.svd(g, compute_uv=False)[0] * rng.random())


def _branch(state: State3Q, op: np.ndarray, party: str, tol: float) -> BranchOutcome:
    """Outcome of applying ``op`` to one party.

    The post-measurement state is decomposed once, at rank tolerance
    ``tol``: a GHZ-class outcome is labelled and valued from its
    decomposition, any other class is taken from the NotGHZClassError and
    valued 0.  IllConditionedError propagates.
    """
    raw, p = apply_local(state, *_ops_for(party, op))
    if p < NEGLIGIBLE_BRANCH:
        return BranchOutcome(probability=p, label="negligible", p_value=0.0)
    try:
        d = decompose(normalize(raw), tol)
    except NotGHZClassError as e:
        return BranchOutcome(probability=p, label=e.cls.value, p_value=0.0)
    return BranchOutcome(probability=p, label=EntanglementClass.GHZ_CLASS.value,
                         p_value=optimal_probability_value(d))


def audit_povm(state: State3Q, povm_pair, party: str,
               p_before: float | None = None, tol: float = RANK_TOL) -> MonotoneReport:
    """Monotone inequality audit for one POVM on one party.

    ``p_before`` can be passed in when the caller audits the same state
    against many POVMs; it is computed from scratch otherwise.  Every
    decomposition the audit makes, of the state and of each branch, uses
    the rank tolerance ``tol``.  Branches whose outcome is not GHZ class
    contribute zero to the weighted sum; an ill-conditioned branch
    decomposition aborts the audit.
    """
    m0, m1 = povm_pair
    if not _completeness_residual(m0, m1) <= COMPLETE_TOL:
        raise PreconditionViolatedError(f"POVM pair is not complete within {COMPLETE_TOL}")
    if p_before is None:
        p_before = optimal_probability_value(decompose(state, tol))
    branches = (_branch(state, m0, party, tol), _branch(state, m1, party, tol))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > BRANCH_SUM_TOL:
        raise InvariantViolationError(f"branch probabilities sum to {total!r}")
    weighted = sum(b.probability * b.p_value for b in branches)
    return MonotoneReport(p_before=p_before, weighted_after=weighted,
                          slack=p_before - weighted, branches=branches)


def _diagonal_pair(d: ProductDecomposition, x: float) -> tuple[np.ndarray, np.ndarray]:
    lo = 2.0 * d.mu1 ** 2 - 1.0
    if not lo - DIAGONAL_X_SLACK <= x <= 1.0 + DIAGONAL_X_SLACK:
        raise InfeasibleXError(
            f"x={x!r} outside the positivity region [{lo!r}, 1] of the diagonal family"
        )
    d1 = x / (2.0 * d.mu1 ** 2)
    d2 = (1.0 - x) / (2.0 * d.mu2 ** 2)
    squares = np.clip([d1, d2, 1.0 - d1, 1.0 - d2], 0.0, 1.0)

    # projectors onto Alice's local pair, orthonormalized (sa = 0 already)
    a2 = d.a2 - np.vdot(d.a1, d.a2) * d.a1
    a2 /= np.linalg.norm(a2)
    p1 = np.outer(d.a1, d.a1.conj())
    p2 = np.outer(a2, a2.conj())
    roots = np.sqrt(squares)
    return roots[0] * p1 + roots[1] * p2, roots[2] * p1 + roots[3] * p2


def diagonal_family_audit(state: State3Q, x: float,
                          d: ProductDecomposition | None = None,
                          p_before: float | None = None,
                          tol: float = RANK_TOL) -> MonotoneReport:
    """Audit one member of the balanced diagonal family on Alice's side.

    Requires a decomposition with sa = 0 (Alice's local pair orthogonal);
    the feasible range of x is [2 mu1^2 - 1, 1], the subset of the nominal
    interval on which all four diagonal squares stay in [0, 1].  Both
    outcomes occur with probability exactly 1/2.  ``d`` and ``p_before``
    are computed when not given, ``p_before`` from ``d``; ``d`` and the
    branch decompositions use the rank tolerance ``tol``.
    """
    if d is None:
        d = decompose(state, tol)
    if d.sa > ORTHOGONAL_SITE_TOL:
        raise PreconditionViolatedError(
            f"diagonal family needs an orthogonal Alice pair, got sa={d.sa!r}"
        )
    if p_before is None:
        p_before = optimal_probability_value(d)
    return audit_povm(state, _diagonal_pair(d, x), "A", p_before=p_before, tol=tol)


def scan_diagonal_family(state: State3Q, steps: int,
                         d: ProductDecomposition | None = None,
                         tol: float = RANK_TOL) -> np.ndarray:
    """Sweep the feasible x range uniformly; returns an array of (x, slack).

    ``d`` is the decomposition of ``state`` to scan with; the state is
    decomposed when it is not given.  That decomposition and every branch
    decomposition use the rank tolerance ``tol``.  Like
    ``diagonal_family_audit``, the scan raises PreconditionViolatedError
    unless sa = 0.  The slack is nonnegative up to solver tolerance
    everywhere and reaches zero only around x = mu1^2.
    """
    if steps < 3:
        raise ValueError("steps must be >= 3")
    if d is None:
        d = decompose(state, tol)
    p_before = optimal_probability_value(d)
    xs = np.linspace(2.0 * d.mu1 ** 2 - 1.0, 1.0, steps)
    out = np.empty((steps, 2))
    for i, x in enumerate(xs):
        rep = diagonal_family_audit(state, float(x), d=d, p_before=p_before, tol=tol)
        out[i] = (x, rep.slack)
    return out
