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

The production path (``_max_objective``) takes x* to be where that
objective's slope in log x changes sign on [1, mu1/mu2], found by a
safeguarded Newton iteration in about five slope evaluations and certified
to U_TOL by two sign probes, or the end of that range where a zero overlap
puts the optimum; the probability is the objective at x*.  The six
magnitudes follow from x* in closed form: Alice's pair from the ratio
1/x*, Bob's and Claire's from the two-site ratio formula with Alice's
filtering folded into the weights.  The POVMs (``build_povms``) are 2x2
closed forms too, built and checked (``PovmTriple``) in Python complex
scalars rather than in NumPy calls on 2x2 arrays.  The grid search
(``grid_search_probability``) is an independent slow route, kept as a
test oracle of the fast path; the bisection that the Newton iteration
replaced is ``bisect_max_objective`` in ``tests/oracles.py``, beside the
direct constrained coefficient solver ``solve_coefficients`` that checks
the closed-form coefficients.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .decomposition import ProductDecomposition, reconstruct
from .errors import InvariantViolationError, ParallelVectorsError, PreconditionViolatedError
from .tensor import apply_local, check_int, fidelity_with, ghz_state, normalize
from .tolerances import (
    COMPLETE_TOL, FAILURE_RANK_RTOL, GHZ_INFIDELITY_TOL, NEWTON_STEP_TOL, ORTHOGONAL_SITE_TOL,
    PARALLEL_TOL, PHASE_TOL, SOLUTION_TOL, U_TOL, X_HI, X_LO, ZERO_FAILURE_TOL, ZERO_NORM,
    ZERO_OVERLAP,
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


def _entries(m) -> list:
    """The entries (m00, m01, m10, m11) of a 2x2 operator as Python complex."""
    return np.asarray(m, dtype=np.complex128).reshape(4).tolist()


def _gram(m: list, n: list, i: int, j: int) -> complex:
    """Entry (i, j) of M^dag M + N^dag N for operators given by ``_entries``."""
    return (m[i].conjugate() * m[j] + m[i + 2].conjugate() * m[j + 2]
            + n[i].conjugate() * n[j] + n[i + 2].conjugate() * n[j + 2])


def _completeness_residual(m: list, n: list) -> float:
    """Largest entry modulus of M^dag M + N^dag N - I for operators given by
    ``_entries``: inf where a product overflows, NaN where any entry of the
    residual is NaN, so a check written ``not residual <= tol`` rejects both.
    """
    c01 = _gram(m, n, 0, 1)
    parts = (abs(_gram(m, n, 0, 0).real - 1.0), abs(_gram(m, n, 1, 1).real - 1.0),
             math.hypot(c01.real, c01.imag))
    # max() keeps its first argument over a later NaN; the sum does not
    return max(parts) if not math.isnan(sum(parts)) else math.nan


_POVM_FIELDS = ("success_a", "failure_a", "success_b", "failure_b",
                "success_c", "failure_c")


@dataclass(frozen=True)
class PovmTriple:
    """Two-outcome local POVMs {M, M_bar} for each of the three parties.

    Each field is held as one owned, read-only (2, 2) array.  The checks run
    on its entries as Python complex (``_entries``): every entry finite, then
    the parties in the order A, B, C, each pair complete within COMPLETE_TOL
    and its failure operator F of rank at most 1.  The rank is read in closed
    form: with s1 >= s2 the singular values of F, s1 s2 = |det F| and
    s1^2 = (|F|^2 + sqrt(|F|^4 - 4 |det F|^2))/2, |F| the Frobenius norm, so
    s2 <= FAILURE_RANK_RTOL s1 is |det F| <= FAILURE_RANK_RTOL s1^2.
    """

    success_a: np.ndarray
    failure_a: np.ndarray
    success_b: np.ndarray
    failure_b: np.ndarray
    success_c: np.ndarray
    failure_c: np.ndarray

    def __post_init__(self):
        entries = []
        for name in _POVM_FIELDS:
            m = np.asarray(getattr(self, name), dtype=np.complex128).reshape(2, 2).copy()
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            entries.append(m.ravel().tolist())
        for name, e in zip(_POVM_FIELDS, entries):
            if not all(map(cmath.isfinite, e)):
                raise InvariantViolationError(f"{name} has a non-finite entry")
        for party, succ, fail in zip("ABC", entries[0::2], entries[1::2]):
            r = _completeness_residual(succ, fail)
            if not r <= COMPLETE_TOL:
                raise InvariantViolationError(
                    f"POVM pair for {party} is not complete (residual {r:.3g})")
            # a complete pair has |F| <= sqrt(2), so nothing here overflows
            f00, f01, f10, f11 = fail
            frob2 = sum(z.real * z.real + z.imag * z.imag for z in fail)
            det = f00 * f11 - f01 * f10
            s1s2 = math.hypot(det.real, det.imag)
            s1sq = 0.5 * (frob2 + math.sqrt(max(frob2 * frob2 - 4.0 * s1s2 * s1s2, 0.0)))
            if not s1s2 <= FAILURE_RANK_RTOL * s1sq:
                s1 = math.sqrt(s1sq)
                raise InvariantViolationError(
                    f"failure operator for {party} has rank 2 "
                    f"(singular values {np.array([s1, s1s2 / s1])})"
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
    w = _params(d)
    mu1, mu2, sa, sb, sc = w
    f1, f2, _, _, _, r1, r2 = _terms(w, x)
    k1 = 4.0 * (1.0 - sa * sa)
    k2 = 4.0 * (mu1 * mu2) ** 2 * (1.0 - sb * sb) * (1.0 - sc * sc)
    return k1 * k2 / (2.0 * (f1 + r1) * (f2 + r2))


def _params(d: ProductDecomposition) -> tuple[float, float, float, float, float]:
    """(mu1, mu2, sa, sb, sc) as Python floats: the same values as NumPy
    scalars, several times faster in scalar arithmetic, and overflowing to
    inf without a RuntimeWarning (only a division by 0 raises)."""
    return float(d.mu1), float(d.mu2), float(d.sa), float(d.sb), float(d.sc)


def _terms(w: tuple, x):
    """(f1, f2, g, h1, h2, r1, r2) at x for the parameters w of ``_params``:
    g = mu2^2 x + mu1^2/x, so f2 = g + 2 mu1 mu2 sb sc; h1 = x - 1/x and
    h2 = mu2^2 x - mu1^2/x; r1, r2 the square roots of f1^2 - k1 and
    f2^2 - k2 of ``_objective``, written cancellation-free:

        f1^2 - k1 = h1^2 + 4 sa^2
        f2^2 - k2 = h2^2 + 4 mu1 mu2 sb sc g + 4 mu1^2 mu2^2 (sb^2 + sc^2).

    A float x gives Python floats, an array of x arrays.
    """
    mu1, mu2, sa, sb, sc = w
    sqrt = np.sqrt if isinstance(x, np.ndarray) else math.sqrt
    f1 = (x * x + 1.0) / x
    g = (mu2 * mu2 * x * x + mu1 * mu1) / x
    cross = 2.0 * mu1 * mu2 * sb * sc
    f2 = g + cross
    h1 = (x * x - 1.0) / x
    h2 = (mu2 * mu2 * x * x - mu1 * mu1) / x
    num1 = h1 * h1 + 4.0 * sa * sa
    num2 = (h2 * h2 + 2.0 * cross * g
            + 4.0 * mu1 * mu1 * mu2 * mu2 * (sb * sb + sc * sc))
    return f1, f2, g, h1, h2, sqrt(num1), sqrt(num2)


def _slope_ratio(w: tuple, x: float) -> tuple[bool, float, float]:
    """(rising, phi, dphi) at a float x > 0 for the parameters w of ``_params``.

    The log-slope of the objective is S = -(h1/r1 + h2/r2) = a - b with
    a = 1 - h1/r1 and b = 1 + h2/r2, both in [0, 2] (see ``_max_objective``).
    ``rising`` is a > b, that is S > 0; phi = log(a/b), which has the sign
    of S, and dphi = d phi/du in u = log x.  Where h1 > 0, a is taken as
    4 sa^2/(r1 (r1 + h1)), and where h2 < 0, b as (2 cross g + k)/(r2 (r2 - h2)),
    with cross = 2 mu1 mu2 sb sc and k = 4 mu1^2 mu2^2 (sb^2 + sc^2): so
    a and b keep their relative accuracy where they are far below 1
    (mu2 << mu1), and so does the sign of S.  The derivatives are

        da/du = -4 sa^2 f1/r1^3,   db/du = (cross (g^2 + m) + k g)/r2^3,

    m = 4 mu1^2 mu2^2, evaluated in the ratios t = 2 sa/r1, e = 2 mu1 mu2/r2
    and q = g/r2, which neither overflow nor divide by an underflowed cube.
    phi and dphi are NaN where a or b is 0, or r1 or r2 is (a cusp); then
    ``rising`` is the sign of h1 r2 + h2 r1.
    """
    mu1, mu2, sa, sb, sc = w
    f1, _, g, h1, h2, r1, r2 = _terms(w, x)
    if not (r1 > 0.0 and r2 > 0.0):
        return h1 * r2 + h2 * r1 < 0.0, math.nan, math.nan
    t1, t2 = h1 / r1, h2 / r2
    t, e, q = 2.0 * sa / r1, 2.0 * mu1 * mu2 / r2, g / r2
    bc, b2c2 = sb * sc, sb * sb + sc * sc
    a = t * t / (1.0 + t1) if h1 > 0.0 else 1.0 - t1
    b = e * (2.0 * bc * q + b2c2 * e) / (1.0 - t2) if h2 < 0.0 else 1.0 + t2
    if not (a > 0.0 and b > 0.0):
        return a > b, math.nan, math.nan
    da = -t * t * (f1 / r1)
    db = e * (bc * (q * q + e * e) + b2c2 * e * q)
    return a > b, math.log(a) - math.log(b), da / a - db / b


# about 84 bytes of temporaries per grid point, so 0.7 MB per chunk
_GRID_CHUNK = 8192


def grid_search_probability(d: ProductDecomposition,
                            points: int = 100_000) -> tuple[float, float]:
    """Best (value, x) over a logarithmic grid of ``points`` x values on
    [X_LO, X_HI]; the test oracle of the bracketed search.  Ties resolve to
    the lowest x.  The grid is evaluated in chunks of _GRID_CHUNK points,
    so its temporaries do not grow with ``points``.
    """
    check_int("points", points, 1)
    us = np.linspace(np.log(X_LO), np.log(X_HI), points)
    best, best_u = -np.inf, us[0]
    for start in range(0, points, _GRID_CHUNK):
        chunk = us[start:start + _GRID_CHUNK]
        vals = _objective(d, np.exp(chunk))
        i = int(np.argmax(vals))
        # strictly better only, so a tie keeps the lower x of an earlier chunk
        if vals[i] > best:
            best, best_u = vals[i], chunk[i]
    return float(best), float(np.exp(best_u))


def _max_objective(d: ProductDecomposition) -> tuple[float, float]:
    """Global maximum (value, x*) of the objective: x* is the point where
    its slope in u = log x changes sign in [0, log(mu1/mu2)], certified to
    U_TOL from below (the objective still rises there), or the end of that
    bracket where the sign change sits.

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
    and the maximum is where the sign of the slope changes.  For u < 0
    both quotients are negative, so the value rises; for u > L both are
    positive, so it falls: the maximum lies in [0, L], that is x* in
    [1, mu1/mu2].  The concavity is strict, and the maximizer unique,
    unless sa = sb = sc = 0; then the slope is 0 on all of (0, L), the
    value is 2 mu2^2 there, and the lowest x, x* = 1, is returned.

    Searching on the slope's sign rather than comparing values pins x* to
    the tolerance even where the value is flat to rounding (mu2 << mu1),
    which the closed-form coefficients need.  The zero overlaps settle the
    ends without an evaluation: at sa = 0 the value falls from its cusp at
    x = 1 on (on the sa = sb = sc = 0 plateau it is flat), and at
    sb = sc = 0 with sa > 0 it rises up to its cusp at x = mu1/mu2; these
    cusps are the only ones, and x* is then that end exactly.  Otherwise
    the slope is positive at u = 0 and negative at L, and a safeguarded
    Newton iteration on phi = log(a/b) of ``_slope_ratio`` runs from the
    middle of the bracket.  phi falls with u and is nearly linear in u
    where the slope is exponentially small, so Newton converges in a few
    steps for any weight ratio.  Each evaluation moves an end of the
    bracket by the sign of the slope.  A step that leaves the bracket, a
    derivative that is not negative (NaN included), or a step longer than
    half the move before the last, as in Numerical Recipes' rtsafe, is
    replaced by the midpoint.

    A tiny overlap that is not zero puts x* about that overlap from an
    end e of [0, L] (sa near u = 0, sb and sc near u = L), where phi goes
    like -2 log|u - e|: Newton steps in u overshoot past e, and midpoints
    would take ~40 halvings to get there.  So the second time a step
    leaves the bracket through an end of [0, L] that is still a bracket
    end, the iteration switches for good to w = log|u - e|.  It then takes
    the Newton step in u where that stays inside the bracket (phi is
    nearly linear in u within about the overlap of e), else the Newton
    step in w, (phi/dphi)/(u - e); moves, and the rtsafe rule, are measured
    in w, and the fallback is the geometric mean of the distances of the
    bracket ends to e, the nearer one taken as at least U_TOL/4.  That
    fallback also reaches in a few steps an e next to which phi is NaN
    because a or b has underflowed (an overlap near 1e-200).

    A Newton step of length s in u with s^2 below NEWTON_STEP_TOL^2 (in w:
    s^2/|u - e|, as |phi''/phi'| ~ 1/|u - e| there sets its error) is taken
    and certified: the sign is probed U_TOL/4 to either side, which leaves
    a bracket of width U_TOL/2 when the probes straddle the sign change,
    and the iteration goes on from the fallback point otherwise.  The
    objective is evaluated once, at x*.
    """
    w = _params(d)
    mu1, mu2, sa, sb, sc = w
    r = mu1 / mu2
    lo, hi = 0.0, max(math.log(r), 0.0)
    top, x_lo = hi, 1.0
    if hi - lo > U_TOL:
        if sa == 0.0:
            hi = lo
        elif sb == 0.0 and sc == 0.0:
            lo, x_lo = hi, r
    u = 0.5 * (lo + hi)
    end = None                      # e, once the steps are in log|u - e|
    overshot = False                # a step has left through an end of [0, L]
    last = before = hi - lo         # the last two moves, in the iteration variable
    while hi - lo > U_TOL:
        x = math.exp(u)
        rising, phi, dphi = _slope_ratio(w, x)
        if rising:
            lo, x_lo = u, x
        else:
            hi = u
        newton = -phi / dphi if dphi < 0.0 else math.nan
        t = u + newton
        if end is None and not lo < t < hi:
            e = top if rising else 0.0
            if (hi if rising else lo) == e:
                if overshot:
                    end, last, before = e, math.inf, math.inf
                overshot = True
        if end is None:
            move, err = newton, newton * newton
        else:
            dist = u - end
            if not lo < t < hi:
                # capped where the step leaves the bracket anyway, so exp is finite
                far = max(abs(lo - end), abs(hi - end))
                t = end + dist * math.exp(min(newton / dist, math.log(far / abs(dist))))
            move = math.log((t - end) / dist) if lo < t < hi else math.nan
            err = newton * newton / abs(dist)
        if err < NEWTON_STEP_TOL ** 2:
            t = min(max(t, lo), hi)
            for p in (t - 0.25 * U_TOL, t + 0.25 * U_TOL):
                if lo < p < hi:
                    xp = math.exp(p)
                    if _slope_ratio(w, xp)[0]:
                        lo, x_lo = p, xp
                    else:
                        hi = p
            t = math.nan
        if lo < t < hi and abs(move) <= 0.5 * abs(before):
            target = t
        elif end is None:
            target = 0.5 * (lo + hi)
        else:
            near, far = sorted((abs(lo - end), abs(hi - end)))
            target = end + math.copysign(math.sqrt(max(near, 0.25 * U_TOL) * far), dist)
        if end is None:
            before, last = last, target - u
        else:
            before, last = last, math.log((target - end) / dist)
        u = target
    # rounding in the decomposition data can push the evaluated maximum a few
    # ulp above 1; the value is a probability, so cap it there
    return min(_objective(d, x_lo), 1.0), x_lo


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
    the single-party reduction of the acting site.  It is the two-site
    closed form at sb = 0, where its prefactor is the norm mu1^2 + mu2^2 and
    1 - sb^2 is exactly 1.
    """
    if d.sa > ORTHOGONAL_SITE_TOL or d.sb > ORTHOGONAL_SITE_TOL:
        raise PreconditionViolatedError(
            f"one-site closed form needs sa = sb = 0, got sa={d.sa!r}, sb={d.sb!r}"
        )
    return closed_form_two_sites(d).p


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

    The probability is p = pref - sqrt(pref^2 - k2) with
    pref = mu1^2 + mu2^2 + 2 mu1 mu2 sb sc and
    k2 = 4 mu1^2 mu2^2 (1 - sb^2)(1 - sc^2).  The ratio formulas are stated with the term-1 coefficient in the
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
    # the norm g = mu1^2 + mu2^2 is 1 at sa = 0 up to the rounding of the
    # stored weights, which the value keeps, as the 1-D objective does
    m, g = mu1 * mu2, mu1 * mu1 + mu2 * mu2
    pref = g + 2.0 * m * sb * sc
    k2 = 4.0 * m * m * (1.0 - sb * sb) * (1.0 - sc * sc)
    # pref - sqrt(pref^2 - k2) as k2/(pref + sqrt(.)), the radicand written as
    # a sum of nonnegative terms, so neither cancels as p nears pref; capped
    # at 1 like the 1-D maximum
    root = np.sqrt(((mu1 - mu2) * (mu1 + mu2)) ** 2 + 4.0 * m * sb * sc * g
                   + 4.0 * m * m * (sb * sb + sc * sc))
    p = min(k2 / (pref + root), 1.0)
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


def _local_povm(v1: np.ndarray, v2: np.ndarray, s: float, k1: float, k2: float,
                phase: float) -> tuple[list, list]:
    """Entries (as ``_entries``) of the success and failure operators of one
    party with local pair (v1, v2), overlap s, coefficients (k1, k2) and
    phase, in Python complex arithmetic.

    With M = [v1 v2] and det M = x0 y1 - y0 x1, the rows of
    M^-1 = adj(M)/det M are t1^dag and t2^dag, the dual basis (t1, t2) with
    <t_i|v_j> = delta_ij; the success operator has the rows k1 t1^dag and
    k2 e^{i phase} t2^dag, and the failure operator is the F = f f^dag/|f|
    of ``build_povms``.  Raises ParallelVectorsError for a vector of norm
    below ZERO_NORM or a pair with |cos| >= 1 - PARALLEL_TOL.
    """
    (x0, x1), (y0, y1) = v1.tolist(), v2.tolist()
    n1 = math.sqrt(x0.real * x0.real + x0.imag * x0.imag + x1.real * x1.real + x1.imag * x1.imag)
    n2 = math.sqrt(y0.real * y0.real + y0.imag * y0.imag + y1.real * y1.real + y1.imag * y1.imag)
    if n1 < ZERO_NORM or n2 < ZERO_NORM:
        raise ParallelVectorsError("dual basis of a zero vector")
    o = x0.conjugate() * y0 + x1.conjugate() * y1
    if not math.hypot(o.real, o.imag) / (n1 * n2) < 1.0 - PARALLEL_TOL:
        raise ParallelVectorsError("vectors are numerically parallel")
    det = x0 * y1 - y0 * x1
    row1, row2 = (y1 / det, -y0 / det), (-x1 / det, x0 / det)
    k2_phase = k2 * cmath.exp(1j * phase)
    succ = [k1 * row1[0], k1 * row1[1], k2_phase * row2[0], k2_phase * row2[1]]
    # the k are <= 1 only up to rounding; the roots multiply to s, so the
    # smaller is s over the larger (its 1 - k^2 can round to 0, s cannot)
    e1, e2 = max(1.0 - k1 * k1, 0.0), max(1.0 - k2 * k2, 0.0)
    big = math.sqrt(max(e1, e2))
    small = s / big if big > 0.0 else 0.0
    c1, c2 = (big, small) if e1 >= e2 else (small, big)
    f0 = (c1 * row1[0] + c2 * row2[0]).conjugate()
    f1 = (c1 * row1[1] + c2 * row2[1]).conjugate()
    f2 = f0.real * f0.real + f0.imag * f0.imag + f1.real * f1.real + f1.imag * f1.imag
    if not f2 > ZERO_FAILURE_TOL:
        return succ, [0j, 0j, 0j, 0j]
    nf = math.sqrt(f2)
    g0, g1 = f0.conjugate() / nf, f1.conjugate() / nf
    return succ, [f0 * g0, f0 * g1, f1 * g0, f1 * g1]


def build_povms(d: ProductDecomposition, sol: OsbpSolution) -> PovmTriple:
    """Explicit two-outcome POVMs realizing the optimal branch.

    Success operators S map the (generally non-orthogonal) local pairs
    onto |0>, |1> through the dual basis (t1, t2) (``_local_povm``).  That
    basis resolves I = t1 t1^dag + t2 t2^dag + s (t1 t2^dag + t2 t1^dag),
    so on the curve (1 - k1^2)(1 - k2^2) = s^2 the completion I - S^dag S
    is f f^dag with f = sqrt(1 - k1^2) t1 + sqrt(1 - k2^2) t2, and the
    failure operator is its square root F = f f^dag / |f|, rank 1 by
    construction; F = 0 when |f|^2 <= ZERO_FAILURE_TOL (a zero-overlap site
    with the trivial pair).  Per party this is a few 2x2 closed forms, so
    it runs in Python complex scalars, where NumPy's per-call overhead
    would cost more than the arithmetic.  The success triple is verified
    to give GHZ at probability p_opt.
    """
    ops = []
    for v1, v2, s, k1, k2, phase in (
            (d.a1, d.a2, d.sa, sol.alpha1, sol.alpha2, sol.phase_a),
            (d.b1, d.b2, d.sb, sol.beta1, sol.beta2, sol.phase_b),
            (d.c1, d.c2, d.sc, sol.gamma1, sol.gamma2, sol.phase_c)):
        ops += _local_povm(v1, v2, float(s), float(k1), float(k2), float(phase))
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
