"""Optimal one-successful-branch protocol (OSBP) for GHZ distillation.

An OSBP lets each party perform a single two-outcome POVM such that exactly
one global branch produces the GHZ state while every failure branch is left
disentangled.  For a state with two-term product decomposition
(mu1, mu2, phi, overlaps sa, sb, sc) the success operators have the form

    A = alpha1 |0><a1~| + alpha2 e^{i phase_a} |1><a2~|      (B, C alike)

with {|a1~>, |a2~>} the basis biorthogonal to {|a1>, |a2>}.  Demanding a
rank-1 failure operator pins each coefficient pair to the curve

    (1 - alpha1^2)(1 - alpha2^2) = sa^2,

and producing the GHZ state exactly requires the balance condition
alpha1 beta1 gamma1 mu1 = alpha2 beta2 gamma2 mu2 together with phases
summing to -phi.  The branch probability is then p = 2 (alpha1 beta1
gamma1 mu1)^2 and its maximum over the constraint curves reduces to a 1-D
objective in x = alpha2/alpha1 > 0, written once here (``_objective``).

The production path is one bisection of that objective's slope on
[1, mu1/mu2] (``_max_objective``), after which the six
magnitudes follow from the optimum x* in closed form: Alice's pair from
the ratio 1/x*, Bob's and Claire's from the two-site ratio formula with
Alice's filtering folded into the weights.  The grid search
(``grid_search_probability``) is an independent slow route, kept as a
test oracle of the fast path; the direct constrained coefficient solver
that checks the closed-form coefficients is ``solve_coefficients`` in
``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import ProductDecomposition, dual_basis, reconstruct
from .errors import (
    InvariantViolationError,
    NonPositiveXError,
    PreconditionViolatedError,
)
from .tensor import apply_local, fidelity_with, ghz_state, normalize
from .tolerances import (
    COMPLETE_TOL, FAILURE_RANK_RTOL, GHZ_INFIDELITY_TOL, ORTHOGONAL_SITE_TOL, PHASE_TOL,
    PLATEAU_RTOL, SOLUTION_TOL, U_TOL, X_HI, X_LO, ZERO_FAILURE_TOL, ZERO_OVERLAP,
)


@dataclass(frozen=True)
class OsbpSolution:
    """Optimal branch probability with the coefficients that realize it."""

    p_opt: float
    x_star: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float
    phase_a: float
    phase_b: float
    phase_c: float

    @property
    def coefficients(self) -> tuple[float, ...]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2,
                self.gamma1, self.gamma2)


def _completeness_residual(m: np.ndarray, m_bar: np.ndarray):
    """Largest entry modulus of M^dag M + M_bar^dag M_bar - I, one per pair
    of a stack of 2x2 pairs (..., 2, 2); NaN for a NaN entry, which a check
    written ``not residual <= tol`` rejects."""
    comp = (np.swapaxes(m.conj(), -1, -2) @ m
            + np.swapaxes(m_bar.conj(), -1, -2) @ m_bar)
    return np.max(np.abs(comp - np.eye(2)), axis=(-2, -1))


_POVM_FIELDS = ("success_a", "failure_a", "success_b", "failure_b",
                "success_c", "failure_c")


@dataclass(frozen=True)
class PovmTriple:
    """Two-outcome local POVMs {M, M_bar} for each of the three parties."""

    success_a: np.ndarray
    failure_a: np.ndarray
    success_b: np.ndarray
    failure_b: np.ndarray
    success_c: np.ndarray
    failure_c: np.ndarray

    def __post_init__(self):
        ops = [np.array(np.reshape(getattr(self, name), (2, 2)), dtype=np.complex128)
               for name in _POVM_FIELDS]
        # the three pairs are checked as one stack, in the order A, B, C and
        # completeness before rank within a party
        stack = np.stack(ops)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise InvariantViolationError(
                f"{_POVM_FIELDS[finite.argmin()]} has a non-finite entry")
        for name, m in zip(_POVM_FIELDS, ops):
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        residuals = _completeness_residual(stack[0::2], stack[1::2])
        singular_values = np.linalg.svd(stack[1::2], compute_uv=False)
        for r, sv, party in zip(residuals, singular_values, "ABC"):
            if not r <= COMPLETE_TOL:
                raise InvariantViolationError(
                    f"POVM pair for {party} is not complete (residual {r:.3g})")
            if sv[1] > FAILURE_RANK_RTOL * sv[0]:
                raise InvariantViolationError(
                    f"failure operator for {party} has rank 2 (singular values {sv})"
                )

    def pairs(self):
        return (
            (self.success_a, self.failure_a, "A"),
            (self.success_b, self.failure_b, "B"),
            (self.success_c, self.failure_c, "C"),
        )


def _objective(d: ProductDecomposition, x):
    """The 1-D objective at x > 0, for a float or an array of x.

    For weights mu1 >= mu2 and overlaps (sa, sb, sc) the objective is

        value(x) = (f1 - sqrt(f1^2 - k1)) (f2 - sqrt(f2^2 - k2)) / 2

        f1(x) = (x^2 + 1)/x,  k1 = 4(1 - sa^2)
        f2(x) = (mu2^2 x^2 + 2 mu1 mu2 sb sc x + mu1^2)/x,
        k2 = 4 mu1^2 mu2^2 (1-sb^2)(1-sc^2).

    Each factor f - r, r = sqrt(f^2 - k), cancels where r ~ f (near-product
    inputs, mu2 << mu1), so it is evaluated as k/(f + r).  The radicands
    are taken in the cancellation-free form of ``_terms``: a sum of
    nonnegative terms in floating point too, since ProductDecomposition
    keeps the overlaps in [0, 1) and mu2 > 0 and x > 0, so the square roots
    need no clamp.
    """
    f1, f2, _, _, r1, r2 = _terms(d, x)
    k1 = 4.0 * (1.0 - d.sa * d.sa)
    k2 = 4.0 * (d.mu1 * d.mu2) ** 2 * (1.0 - d.sb * d.sb) * (1.0 - d.sc * d.sc)
    return k1 * k2 / (2.0 * (f1 + r1) * (f2 + r2))


def _terms(d: ProductDecomposition, x):
    """(f1, f2, h1, h2, r1, r2) at x: h1 = x - 1/x, h2 = mu2^2 x - mu1^2/x
    and r1, r2 the square roots of f1^2 - k1 and f2^2 - k2 of ``_objective``,
    written cancellation-free:

        f1^2 - k1 = h1^2 + 4 sa^2
        f2^2 - k2 = h2^2 + 4 mu1 mu2 sb sc g + 4 mu1^2 mu2^2 (sb^2 + sc^2),
        g = mu2^2 x + mu1^2/x.
    """
    mu1, mu2, sa, sb, sc = d.mu1, d.mu2, d.sa, d.sb, d.sc
    f1 = (x * x + 1.0) / x
    g = (mu2 * mu2 * x * x + mu1 * mu1) / x
    cross = 2.0 * mu1 * mu2 * sb * sc
    f2 = g + cross
    h1 = (x * x - 1.0) / x
    h2 = (mu2 * mu2 * x * x - mu1 * mu1) / x
    num1 = h1 * h1 + 4.0 * sa * sa
    num2 = (h2 * h2 + 2.0 * cross * g
            + 4.0 * mu1 * mu1 * mu2 * mu2 * (sb * sb + sc * sc))
    return f1, f2, h1, h2, np.sqrt(num1), np.sqrt(num2)


def _rising(d: ProductDecomposition, x: float) -> bool:
    """Whether the objective strictly increases with log x at x (the sign
    of its log-slope -(h1/r1 + h2/r2), see ``_max_objective``)."""
    _, _, h1, h2, r1, r2 = _terms(d, x)
    return bool(h1 * r2 + h2 * r1 < 0.0)


def objective(d: ProductDecomposition, x: float) -> float:
    """Branch-probability objective of the 1-D reduction, at x > 0."""
    if not x > 0.0:
        raise NonPositiveXError(f"objective requires x > 0, got {x!r}")
    return float(_objective(d, float(x)))


def grid_search_probability(d: ProductDecomposition,
                            points: int = 100_000) -> tuple[float, float]:
    """Best (value, x) over a logarithmic grid of ``points`` x values on
    [X_LO, X_HI]; the test oracle of the bracketed search.  Ties resolve to
    the lowest x.
    """
    us = np.linspace(np.log(X_LO), np.log(X_HI), int(points))
    vals = _objective(d, np.exp(us))
    i = int(np.argmax(vals))
    return float(vals[i]), float(np.exp(us[i]))


def _max_objective(d: ProductDecomposition) -> tuple[float, float]:
    """Global maximum (value, x*) of the objective: one bisection in
    u = log x on [0, log(mu1/mu2)] plus both ends of that bracket as
    explicit candidates, reduced best value first, then lowest x.

    With u = log x, L = log(mu1/mu2) >= 0 (a mu1 a rounding error below
    mu2 counts as L = 0) and v = u - L,

        f1 = 2 cosh u,
        f2 = 2 mu1 mu2 cosh v + 2 mu1 mu2 sb sc,
        value = F1(f1) F2(f2) / 2,   F(f) = f - sqrt(f^2 - k),

    with k1 = 4(1 - sa^2), k2 = 4 mu1^2 mu2^2 (1-sb^2)(1-sc^2).  Each F is
    positive and decreasing in f, F'(f) = -F/sqrt(f^2 - k), so

        d log(value)/du = -(h1/r1 + h2/r2)
            = -sinh u / sqrt(sinh^2 u + sa^2)
              - sinh v / sqrt(sinh^2 v + 2 sb sc cosh v + sb^2 + sc^2).

    Each quotient is nondecreasing in u; their derivatives are
    sa^2 cosh u / (...)^(3/2) and (sb sc (cosh^2 v + 1)
    + (sb^2 + sc^2) cosh v) / (...)^(3/2).  So log(value) is concave in u
    and the maximum is found by bisection on the sign of the slope
    (``_rising``).  For u < 0 both quotients are negative, so the value
    rises; for u > L both are positive, so it falls: the maximum lies in
    [0, L], that is x* in [1, mu1/mu2].  The concavity is strict, and the
    maximizer unique, unless sa = sb = sc = 0; then the slope is 0 on all
    of (0, L), the value is 2 mu2^2 there, and the lowest x, x* = 1, wins.

    Bisecting on the slope's sign rather than comparing values pins x* to
    the tolerance even where the value is flat to rounding (mu2 << mu1),
    which the closed-form coefficients need.  The objective has a cusp
    only where a radicand vanishes at the maximum: x = 1 for sa = 0 and
    x = mu1/mu2 for sb = sc = 0, the ends of the bracket.  A bisection
    reaches such a point only to within its tolerance, so both ends are
    evaluated exactly.
    """
    r = d.mu1 / d.mu2
    lo, hi = 0.0, max(float(np.log(r)), 0.0)
    while hi - lo > U_TOL:
        mid = 0.5 * (lo + hi)
        if _rising(d, float(np.exp(mid))):
            lo = mid
        else:
            hi = mid
    candidates = [(float(_objective(d, x)), x) for x in (1.0, r, float(np.exp(lo)))]
    best = max(v for v, _ in candidates)
    tied = [x for v, x in candidates if v >= best - PLATEAU_RTOL * max(1.0, best)]
    # rounding in the decomposition data can push the evaluated maximum a few
    # ulp above 1; the value is a probability, so cap it there
    return min(best, 1.0), min(tied)


def optimal_probability_value(d: ProductDecomposition) -> float:
    """Optimal OSBP probability only (no coefficient recovery)."""
    return _max_objective(d)[0]


def optimal_probability(d: ProductDecomposition) -> OsbpSolution:
    """Optimal OSBP probability plus the realizing POVM coefficients.

    The probability and x* = alpha2/alpha1 come from the 1-D objective; the
    six magnitudes follow from x* in closed form.  Alice's pair balances
    the ratio alpha1/alpha2 = 1/x* on her curve.  Bob and Claire then face
    the sa = 0 problem with weights (mu1 alpha1, mu2 alpha2), whose optimal
    ratios ``_two_site_ratios`` gives; each ratio becomes a pair on its
    site's curve.  The product of the coefficients is checked against p_opt
    (within SOLUTION_TOL), together with the balance, completion and phase
    constraints.
    """
    p_opt, x_star = _max_objective(d)
    a1, a2 = _balanced_pair(1.0 / x_star, d.sa)
    ratio_beta, ratio_gamma = _two_site_ratios(d.mu1 * a1, d.mu2 * a2, d.sb, d.sc)
    b1, b2 = _balanced_pair(np.sqrt(ratio_beta), d.sb)
    g1, g2 = _balanced_pair(np.sqrt(ratio_gamma), d.sc)
    sol = OsbpSolution(
        p_opt=p_opt, x_star=x_star,
        alpha1=float(a1), alpha2=float(a2),
        beta1=float(b1), beta2=float(b2),
        gamma1=float(g1), gamma2=float(g2),
        phase_a=-d.phi, phase_b=0.0, phase_c=0.0,
    )
    _check_solution(d, sol)
    return sol


def _check_solution(d: ProductDecomposition, sol: OsbpSolution) -> None:
    a1, a2, b1, b2, g1, g2 = sol.coefficients
    if abs(sol.p_opt - 2.0 * (a1 * b1 * g1 * d.mu1) ** 2) > SOLUTION_TOL:
        raise InvariantViolationError("coefficient product disagrees with p_opt")
    if abs(a1 * b1 * g1 * d.mu1 - a2 * b2 * g2 * d.mu2) > SOLUTION_TOL:
        raise InvariantViolationError("branch weights are not balanced")
    for k1, k2, s, name in ((a1, a2, d.sa, "alpha"), (b1, b2, d.sb, "beta"),
                            (g1, g2, d.sc, "gamma")):
        if abs((1.0 - k1 ** 2) * (1.0 - k2 ** 2) - s * s) > SOLUTION_TOL:
            raise InvariantViolationError(f"rank-1 completion constraint broken for {name}")
    phase_sum = (sol.phase_a + sol.phase_b + sol.phase_c + d.phi) % (2.0 * np.pi)
    if min(phase_sum, 2.0 * np.pi - phase_sum) > PHASE_TOL:
        raise InvariantViolationError("operator phases do not cancel the decomposition phase")


def closed_form_one_site(d: ProductDecomposition) -> float:
    """Optimal probability when only one site (C) is non-orthogonal.

    Requires sa = sb = 0; the value equals twice the smallest eigenvalue of
    the single-party reduction of the acting site.
    """
    if d.sa > ORTHOGONAL_SITE_TOL or d.sb > ORTHOGONAL_SITE_TOL:
        raise PreconditionViolatedError(
            f"one-site closed form needs sa = sb = 0, got sa={d.sa!r}, sb={d.sb!r}"
        )
    a = 4.0 * d.mu1 ** 2 * d.mu2 ** 2 * (1.0 - d.sc ** 2)
    # 1 - sqrt(1 - a), without the cancellation for small a
    return a / (1.0 + np.sqrt(max(0.0, 1.0 - a)))


@dataclass(frozen=True)
class TwoSiteClosedForm:
    """Closed-form result for decompositions with sa = 0."""

    p: float
    ratio_beta: float              # beta1^2 / beta2^2 at the optimum
    ratio_gamma: float             # gamma1^2 / gamma2^2 at the optimum
    ratios_by_continuity: bool     # True when sb = sc = 0 forced the 0/0 limit


def closed_form_two_sites(d: ProductDecomposition) -> TwoSiteClosedForm:
    """Optimal probability and coefficient ratios when Alice's pair is
    orthogonal (sa = 0); only the other two parties need to act.

    The ratio formulas are stated with the term-1 coefficient in the
    numerator: ratio_beta = (mu2/mu1)(mu2*sb + mu1*sc)/(mu1*sb + mu2*sc)
    and ratio_beta * ratio_gamma = (mu2/mu1)^2, as required by the balance
    condition (term 1 carries the larger weight, so its coefficients are
    damped harder).  When sb = sc = 0 the ratio expression degenerates to
    0/0 and its diagonal limit mu2/mu1 is reported with a flag; the actual
    optimum then uses trivial pairs (1, 1) for both sites.
    """
    if d.sa > ORTHOGONAL_SITE_TOL:
        raise PreconditionViolatedError(f"two-site closed form needs sa = 0, got {d.sa!r}")
    mu1, mu2, sb, sc = d.mu1, d.mu2, d.sb, d.sc
    pref = 1.0 + 2.0 * mu1 * mu2 * sb * sc
    k2 = 4.0 * mu1 ** 2 * mu2 ** 2 * (1.0 - sb ** 2) * (1.0 - sc ** 2)
    # pref (1 - sqrt(1 - a)), a = k2/pref^2, without the cancellation for small a
    p = (k2 / pref) / (1.0 + np.sqrt(max(0.0, 1.0 - k2 / pref ** 2)))
    ratio_beta, ratio_gamma = _two_site_ratios(mu1, mu2, sb, sc)
    return TwoSiteClosedForm(p=float(p), ratio_beta=float(ratio_beta),
                             ratio_gamma=float(ratio_gamma),
                             ratios_by_continuity=bool(sb + sc <= ZERO_OVERLAP))


def _two_site_ratios(m1: float, m2: float, sb: float, sc: float) -> tuple[float, float]:
    """Optimal (beta1^2/beta2^2, gamma1^2/gamma2^2) for the sa = 0 problem
    with weights (m1, m2), which need not be normalized; the diagonal
    limit m2/m1 for both when sb = sc = 0 (see ``closed_form_two_sites``).
    """
    if sb + sc <= ZERO_OVERLAP:
        return m2 / m1, m2 / m1
    ratio_beta = (m2 / m1) * (m2 * sb + m1 * sc) / (m1 * sb + m2 * sc)
    return ratio_beta, (m2 / m1) ** 2 / ratio_beta


def _smaller_balance_root(rho, s: float):
    """Smaller root y of rho^2 y^2 - (1+rho^2) y + (1-s^2) = 0.

    This is the unique feasible alpha2^2 given the coefficient ratio rho =
    alpha1/alpha2: the quadratic is negative at y = 1 and at y = 1/rho^2,
    so the smaller root keeps both coefficients in (0, 1].  Evaluated in
    the cancellation-free form.
    """
    r2 = np.square(rho)
    disc = np.square(1.0 - r2) + 4.0 * r2 * s * s
    return 2.0 * (1.0 - s * s) / ((1.0 + r2) + np.sqrt(disc))


def _balanced_pair(rho, s: float):
    """Coefficients (k1, k2) with ratio k1/k2 = rho on the curve
    (1-k1^2)(1-k2^2) = s^2 of a site with overlap s.  At a zero-overlap
    site the curve is "one coefficient equals 1"."""
    if s <= ZERO_OVERLAP:
        k1 = np.where(rho <= 1.0, rho, 1.0)
        k2 = np.where(rho <= 1.0, 1.0, 1.0 / rho)
        return k1, k2
    k2 = np.sqrt(_smaller_balance_root(rho, s))
    return rho * k2, k2


def build_povms(d: ProductDecomposition, sol: OsbpSolution) -> PovmTriple:
    """Explicit two-outcome POVMs realizing the optimal branch.

    Success operators S map the (generally non-orthogonal) local pairs
    onto |0>, |1> through the dual basis (t1, t2).  That basis resolves
    I = t1 t1^dag + t2 t2^dag + s (t1 t2^dag + t2 t1^dag), so on the curve
    (1 - k1^2)(1 - k2^2) = s^2 the completion I - S^dag S is f f^dag with
    f = sqrt(1 - k1^2) t1 + sqrt(1 - k2^2) t2, and the failure operator is
    its square root F = f f^dag / |f|, rank 1 by construction; F = 0 when
    |f|^2 <= ZERO_FAILURE_TOL (a zero-overlap site with the trivial pair).
    The success triple is verified to give GHZ at probability p_opt.
    """
    ops = []
    for v1, v2, s, k1, k2, phase in (
            (d.a1, d.a2, d.sa, sol.alpha1, sol.alpha2, sol.phase_a),
            (d.b1, d.b2, d.sb, sol.beta1, sol.beta2, sol.phase_b),
            (d.c1, d.c2, d.sc, sol.gamma1, sol.gamma2, sol.phase_c)):
        t1, t2 = dual_basis(v1, v2)
        succ = np.array([k1 * t1.conj(), k2 * np.exp(1j * phase) * t2.conj()])
        # the k are <= 1 only up to rounding; the roots multiply to s, so the
        # smaller is s over the larger (its 1 - k^2 can round to 0, s cannot)
        e1, e2 = max(1.0 - k1 * k1, 0.0), max(1.0 - k2 * k2, 0.0)
        big = np.sqrt(max(e1, e2))
        small = s / big if big > 0.0 else 0.0
        f = big * t1 + small * t2 if e1 >= e2 else small * t1 + big * t2
        f2 = float(np.vdot(f, f).real)
        fail = np.outer(f, f.conj()) / np.sqrt(f2) if f2 > ZERO_FAILURE_TOL else np.zeros((2, 2))
        ops += [succ, fail]
    triple = PovmTriple(*ops)

    raw, p = apply_local(reconstruct(d), triple.success_a, triple.success_b,
                         triple.success_c)
    # written so that a NaN fails them
    if not fidelity_with(normalize(raw), ghz_state()) >= 1.0 - GHZ_INFIDELITY_TOL:
        raise InvariantViolationError("success branch does not produce the GHZ state")
    if not abs(p - sol.p_opt) <= SOLUTION_TOL:
        raise InvariantViolationError(
            f"success branch probability {p!r} disagrees with p_opt {sol.p_opt!r}"
        )
    return triple
