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

The state is decomposed once; its branches are not.  An operator N on one
party maps the two-term form mu1 |a1 b1 c1> + mu2 e^{i phi} |a2 b2 c2> to
the same form with that party's vectors v_k replaced by N v_k, so branch k
of probability p (from ``apply_local``) has

    vectors  N v_k / |N v_k|, the second rotated to a real overlap with
             the first and that rotation's phase added to phi,
    weights  mu_k |N v_k| / sqrt(p), the terms swapped (phi -> -phi) when
             the second weight is now the larger,

and the other parties' vectors and overlaps are the parent's.  By SLOCC
equivalence the branch is GHZ class exactly when N is invertible, and its
value is the optimal probability of that form.  The label rule reads this
through the classifier: a branch whose form lies at least
BRANCH_LABEL_MARGIN inside every cut the classifier applies (each local
determinant above the margin times the rank tolerance, Alice's root
separation 1 - sa^2 above the margin times DOUBLE_ROOT_TOL) is labelled GHZ
class without further work.  Any other branch, in particular one whose N
sends a vector to zero or makes the pair parallel, takes the label of
classifying its state; it is valued 0 unless that label is GHZ class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import (
    EntanglementClass, ProductDecomposition, classification_evidence, decompose,
)
from .errors import InvariantViolationError, PreconditionViolatedError
from .sampling import crandn
from .solver import _completeness_residual, _entries, optimal_probability_value
from .tensor import (
    State3Q, _ops_for, apply_local, check_int, check_tol, normalize, vector_norm,
)
from .tolerances import (
    BRANCH_LABEL_MARGIN, BRANCH_SUM_TOL, COMPLETE_TOL, CONTRACTION_TOL, DIAGONAL_X_SLACK,
    DOUBLE_ROOT_TOL, NEGLIGIBLE_BRANCH, ORTHOGONAL_SITE_TOL, RANK_TOL, ZERO_OVERLAP,
)

_GHZ = EntanglementClass.GHZ_CLASS


@dataclass(frozen=True)
class BranchOutcome:
    probability: float
    label: str          # entanglement class of the outcome, or "negligible"
    p_value: float      # optimal distillation probability of the outcome


@dataclass(frozen=True)
class MonotoneReport:
    p_before: float
    weighted_after: float
    branches: tuple[BranchOutcome, ...]

    @property
    def slack(self) -> float:
        """p_before - weighted_after, unclamped."""
        return self.p_before - self.weighted_after


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
    value in [0, 1); N2 is the PSD square root of its completion.  ``seed``
    is an integer >= 0 or a numpy SeedSequence.
    """
    if not isinstance(seed, np.random.SeedSequence):
        check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = crandn(rng, (2, 2))
    return complete_pair(g / np.linalg.svd(g, compute_uv=False)[0] * rng.random())


def _branch_form(d: ProductDecomposition, op: np.ndarray, party: str,
                 p: float) -> dict | None:
    """ProductDecomposition fields of the branch op|psi>/sqrt(p), op acting
    on ``party`` of the state that ``d`` decomposes (module docstring);
    None when op sends one of the party's vectors to zero."""
    i = "ABC".index(party)
    terms = [[d.a1, d.b1, d.c1], [d.a2, d.b2, d.c2]]
    overlaps = [d.sa, d.sb, d.sc]
    w1, w2 = op @ terms[0][i], op @ terms[1][i]
    n1, n2 = vector_norm(w1), vector_norm(w2)
    if not min(n1, n2) > 0.0:
        return None
    u1, u2 = w1 / n1, w2 / n2
    o = np.vdot(u1, u2)
    s, phi = float(abs(o)), d.phi
    if s > ZERO_OVERLAP:
        u2 = u2 * (o / s).conjugate()
        phi += float(np.angle(o))
    else:
        s = 0.0
    terms[0][i], terms[1][i], overlaps[i] = u1, u2, s
    weights = [float(d.mu1 * n1 / np.sqrt(p)), float(d.mu2 * n2 / np.sqrt(p))]
    if weights[1] > weights[0]:
        weights.reverse()
        terms.reverse()
        phi = -phi
    (a1, b1, c1), (a2, b2, c2) = terms
    return {"mu1": weights[0], "mu2": weights[1], "phi": phi % (2.0 * np.pi),
            "a1": a1, "a2": a2, "b1": b1, "b2": b2, "c1": c1, "c2": c2,
            "sa": overlaps[0], "sb": overlaps[1], "sc": overlaps[2]}


def _inside_ghz_cuts(form: dict, tol: float) -> bool:
    """Whether the form lies BRANCH_LABEL_MARGIN inside the classifier's
    GHZ-class cuts: every local reduction has determinant
    mu1^2 mu2^2 (1 - s^2)(1 - s'^2 s''^2), a lower bound on its eigenvalue
    ratio, above the margin times ``tol``, and Alice's vectors, whose
    overlap sa sets the separation 1 - sa^2 of the classifier's roots, are
    that far from a double root."""
    sa, sb, sc = form["sa"], form["sb"], form["sc"]
    m = (form["mu1"] * form["mu2"]) ** 2
    det = m * min((1.0 - sa * sa) * (1.0 - (sb * sc) ** 2),
                  (1.0 - sb * sb) * (1.0 - (sa * sc) ** 2),
                  (1.0 - sc * sc) * (1.0 - (sa * sb) ** 2))
    return (det > BRANCH_LABEL_MARGIN * tol
            and 1.0 - sa * sa > BRANCH_LABEL_MARGIN * DOUBLE_ROOT_TOL)


def _branch(state: State3Q, d: ProductDecomposition, op: np.ndarray, party: str,
            tol: float) -> BranchOutcome:
    """Outcome of applying ``op`` to one party of ``state``, whose
    decomposition is ``d``: its probability from ``apply_local``, its label
    and value from the branch form, or from classifying the branch state at
    rank tolerance ``tol`` near the classifier's cuts (module docstring)."""
    raw, p = apply_local(state, *_ops_for(party, op))
    if p < NEGLIGIBLE_BRANCH:
        return BranchOutcome(probability=p, label="negligible", p_value=0.0)
    form = _branch_form(d, op, party, p)
    if form is None or not _inside_ghz_cuts(form, tol):
        cls = classification_evidence(normalize(raw), tol)["class"]
        if form is None or cls is not _GHZ:
            return BranchOutcome(probability=p, label=cls.value, p_value=0.0)
    return BranchOutcome(probability=p, label=_GHZ.value,
                         p_value=optimal_probability_value(ProductDecomposition(**form)))


def audit_povm(state: State3Q, povm_pair, party: str,
               d: ProductDecomposition | None = None, p_before: float | None = None,
               tol: float = RANK_TOL) -> MonotoneReport:
    """Monotone inequality audit for one POVM on one party.

    ``d`` is the decomposition of ``state`` and ``p_before`` its optimal
    probability; callers that audit one state against many POVMs pass
    them in, and each is computed when not given, ``p_before`` from ``d``.
    The state is decomposed at rank tolerance ``tol``, so a state outside
    the GHZ class raises NotGHZClassError; branches near the classifier's
    cuts are classified at ``tol`` too.  Branches whose outcome is not GHZ
    class contribute zero to the weighted sum.
    """
    check_tol(tol)
    m0, m1 = povm_pair
    if not _completeness_residual(_entries(m0), _entries(m1)) <= COMPLETE_TOL:
        raise PreconditionViolatedError(f"POVM pair is not complete within {COMPLETE_TOL}")
    if d is None:
        d = decompose(state, tol)
    if p_before is None:
        p_before = optimal_probability_value(d)
    branches = (_branch(state, d, m0, party, tol), _branch(state, d, m1, party, tol))
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > BRANCH_SUM_TOL:
        raise InvariantViolationError(f"branch probabilities sum to {total!r}")
    weighted = sum(b.probability * b.p_value for b in branches)
    return MonotoneReport(p_before=p_before, weighted_after=weighted, branches=branches)


def _diagonal_pair(d: ProductDecomposition, x: float) -> tuple[np.ndarray, np.ndarray]:
    lo = 2.0 * d.mu1 ** 2 - 1.0
    if not lo - DIAGONAL_X_SLACK <= x <= 1.0 + DIAGONAL_X_SLACK:
        raise PreconditionViolatedError(
            f"x={x!r} outside the positivity region [{lo!r}, 1] of the diagonal family"
        )
    d1 = x / (2.0 * d.mu1 ** 2)
    d2 = (1.0 - x) / (2.0 * d.mu2 ** 2)
    squares = np.clip([d1, d2, 1.0 - d1, 1.0 - d2], 0.0, 1.0)

    # projectors onto Alice's local pair, orthonormalized (sa = 0 already)
    a2 = d.a2 - np.vdot(d.a1, d.a2) * d.a1
    a2 /= vector_norm(a2)
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
    are computed when not given, ``p_before`` from ``d``; ``d`` and any
    branch classification use the rank tolerance ``tol``.
    """
    if d is None:
        d = decompose(state, tol)
    if d.sa > ORTHOGONAL_SITE_TOL:
        raise PreconditionViolatedError(
            f"diagonal family needs an orthogonal Alice pair, got sa={d.sa!r}"
        )
    if p_before is None:
        p_before = optimal_probability_value(d)
    return audit_povm(state, _diagonal_pair(d, x), "A", d=d, p_before=p_before, tol=tol)


def scan_diagonal_family(state: State3Q, steps: int,
                         d: ProductDecomposition | None = None,
                         tol: float = RANK_TOL) -> np.ndarray:
    """Sweep the feasible x range uniformly; returns an array of (x, slack).

    ``d`` is the decomposition of ``state`` to scan with; the state is
    decomposed when it is not given.  That decomposition and any branch
    classification use the rank tolerance ``tol``.  Like
    ``diagonal_family_audit``, the scan raises PreconditionViolatedError
    unless sa = 0.  The slack is nonnegative up to solver tolerance
    everywhere and reaches zero only around x = mu1^2.
    """
    check_int("steps", steps, 3)
    if d is None:
        d = decompose(state, tol)
    p_before = optimal_probability_value(d)
    xs = np.linspace(2.0 * d.mu1 ** 2 - 1.0, 1.0, steps)
    out = np.empty((steps, 2))
    for i, x in enumerate(xs):
        rep = diagonal_family_audit(state, float(x), d=d, p_before=p_before, tol=tol)
        out[i] = (x, rep.slack)
    return out
