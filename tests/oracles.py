"""Slow, independent reference routes that the test-suite checks the package
against.  No code in ``ghzdistill`` calls them.

- ``bisect_max_objective``: the maximum of the 1-D objective by bisection
  on the sign of its log-slope, the oracle of the safeguarded Newton
  search of ``ghzdistill.solver._max_objective``.
- ``reference_sign_change``: where the slope of the 1-D objective changes
  sign, by bisection in 80-digit decimal arithmetic, the oracle of the x*
  of ``ghzdistill.solver._max_objective`` where the bisection's
  double-precision sign test is rounding (mu2/mu1 below about 1e-4, or an
  overlap at rounding level).
- ``solve_coefficients``: the OSBP coefficients by direct constrained
  maximization over the free coefficients, the oracle of the closed-form
  coefficients of ``ghzdistill.solver.optimal_probability``.
- ``sample_branch``: one POVM on one party, sampled, the oracle of the
  threshold sampling of ``ghzdistill.simulate.run_protocol``.
- ``branch_by_decomposing``: one audit branch labelled and valued by
  decomposing the post-measurement state, the oracle of the branch form
  that ``ghzdistill.monotone.audit_povm`` derives from the parent's
  decomposition.
- ``svd_polar_update``: the polar factors of a stack of 2x2 matrices by
  LAPACK SVD, the oracle of the closed form of
  ``ghzdistill.fidelity._polar_update``.
- ``einsum_environment``: the environment matrices of the LU-fidelity sweep
  by one three-operand einsum, the oracle of the flat matmul of
  ``ghzdistill.fidelity._environment``.
- ``reference_lu_fidelity``: the LU fidelity by sweeps of those two, with
  the starts, stopping rule and tie rule of
  ``ghzdistill.fidelity.optimal_lu_fidelity``.
- ``dual_basis``: the basis dual to a local pair by LAPACK inverse, and
  ``rational_dual_basis``, the same basis from the exact rational inverse
  of the binary inputs, the oracles of the adjugate closed form of
  ``ghzdistill.solver._local_povm``.
- ``reduced_density``: the reduced density matrix of any proper subset of
  the parties by a partial trace, the oracle of the stacked Grams of
  ``ghzdistill.tensor.local_spectra`` and of the local ranks of
  ``ghzdistill.classification_evidence``.
"""
import decimal
from fractions import Fraction

import numpy as np

from ghzdistill.decomposition import EntanglementClass, ProductDecomposition, decompose
from ghzdistill.errors import NotGHZClassError
from ghzdistill.fidelity import ghz_fidelity, su2
from ghzdistill.monotone import BranchOutcome
from ghzdistill.simulate import _effective_threshold
from ghzdistill.solver import (
    _balanced_pair, _completeness_residual, _entries, _objective, _params,
    _smaller_balance_root, _terms, optimal_probability_value,
)
from ghzdistill.tensor import State3Q, _ops_for, apply_local, normalize
from ghzdistill.tolerances import COMPLETE_TOL as _COMPLETE_TOL
from ghzdistill.tolerances import MAX_SWEEPS as _MAX_SWEEPS
from ghzdistill.tolerances import NEGLIGIBLE_BRANCH as _NEGLIGIBLE_BRANCH
from ghzdistill.tolerances import RANK_TOL as _RANK_TOL
from ghzdistill.tolerances import SWEEP_TOL as _SWEEP_TOL
from ghzdistill.tolerances import TIE_MARGIN as _TIE_MARGIN
from ghzdistill.tolerances import U_TOL as _U_TOL
from ghzdistill.tolerances import ZERO_OVERLAP as _ZERO_OVERLAP

_INVPHI = (5.0 ** 0.5 - 1.0) / 2.0   # 1 / golden ratio


# ---------------------------------------------------------- the 1-D maximum

def _rising(d: ProductDecomposition, x: float) -> bool:
    """Whether the objective strictly increases with log x at x (the sign
    of its log-slope -(h1/r1 + h2/r2))."""
    _, _, _, h1, h2, r1, r2 = _terms(_params(d), x)
    return bool(h1 * r2 + h2 * r1 < 0.0)


def bisect_max_objective(d: ProductDecomposition) -> tuple[float, float]:
    """(value, x) of the objective by bisection in u = log x on
    [0, log(mu1/mu2)] on the sign of the slope, to U_TOL: the best value
    of the bisection point and both ends of that bracket, and the
    bisection point x = exp(lo), at which the objective still rises."""
    r = d.mu1 / d.mu2
    lo, hi = 0.0, max(float(np.log(r)), 0.0)
    while hi - lo > _U_TOL:
        mid = 0.5 * (lo + hi)
        if _rising(d, float(np.exp(mid))):
            lo = mid
        else:
            hi = mid
    x = float(np.exp(lo))
    best = max(float(_objective(d, t)) for t in (1.0, r, x))
    return min(best, 1.0), x


def reference_sign_change(d: ProductDecomposition, digits: int = 80) -> float:
    """The u = log x in [0, log(mu1/mu2)] where the slope of the objective,
    -(h1/r1 + h2/r2) with r the square roots of f^2 - k as written in
    ``_objective``, changes sign: bisection to 1e-20 in ``digits``-digit
    decimal arithmetic, from the binary values of the weights and overlaps.
    Where mu2/mu1 = 1e-8 the two terms of the slope cancel to about six
    digits, so 80 digits leave it far more than it needs."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        mu1, mu2, sa, sb, sc = (decimal.Decimal(float(v))
                                for v in (d.mu1, d.mu2, d.sa, d.sb, d.sc))
        k2 = 4 * mu1 * mu1 * mu2 * mu2 * (1 - sb * sb) * (1 - sc * sc)

        def slope(u):
            x = u.exp()
            f1 = x + 1 / x
            f2 = mu2 * mu2 * x + 2 * mu1 * mu2 * sb * sc + mu1 * mu1 / x
            r1 = (f1 * f1 - 4 * (1 - sa * sa)).sqrt()
            r2 = (f2 * f2 - k2).sqrt()
            return -((x - 1 / x) / r1 + (mu2 * mu2 * x - mu1 * mu1 / x) / r2)

        lo, hi = decimal.Decimal(0), (mu1 / mu2).ln()
        while hi - lo > decimal.Decimal("1e-20"):
            mid = (lo + hi) / 2
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


# ------------------------------------------------------------- coefficients

def _completion(s: float, k1):
    """Second coefficient on the curve (1-k1^2)(1-k2^2) = s^2 (s > 0)."""
    return np.sqrt(1.0 - s * s / (1.0 - np.square(k1)))


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(f(t), t) at the golden-section maximizer of f on [lo, hi], to tol in t.

    Finds the global maximum when f is unimodal on [lo, hi]; an exact tie
    between the two probes keeps the lower part of the interval.
    """
    a, b = lo, hi
    c, e = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fe = f(c), f(e)
    while b - a > tol:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
    return (fc, c) if fc >= fe else (fe, e)


def _maximize_1d(f, lo: float, hi: float, grid_n: int = 128) -> float:
    """Argmax of f on (lo, hi): vectorized grid seed plus a golden-section
    polish between the seed's neighbours."""
    xs = np.linspace(lo, hi, grid_n + 2)[1:-1]
    vals = f(xs)
    i = int(np.argmax(vals))
    blo = xs[i - 1] if i > 0 else lo
    bhi = xs[i + 1] if i < len(xs) - 1 else hi
    v, t = _golden_max(lambda t: float(f(t)), float(blo), float(bhi), 1e-11)
    return t if v >= vals[i] else float(xs[i])


def solve_coefficients(d: ProductDecomposition) -> tuple[float, float, float, float, float, float]:
    """POVM magnitudes (alpha1, alpha2, beta1, beta2, gamma1, gamma2)
    maximizing the branch probability under the rank-1 completion and
    balance constraints.

    Direct constrained maximization over the free coefficients: sites with
    zero overlap are pinned to trivial pairs (their constraint curve
    degenerates to "one coefficient equals 1" and damping the heavier term
    there never beats absorbing the balance elsewhere), Alice's pair is
    eliminated through the balance condition, and whatever remains is a 0-,
    1- or 2-dimensional smooth maximization handled by nested scalar
    solvers.  With sa = 0 the balance is carried entirely by Bob and
    Claire (alpha1 = alpha2 = 1 at the optimum) and the feasible curve is
    walked in closed form.

    Slow and independent of the 1-D objective, this is the test oracle of
    the closed-form coefficients in ``optimal_probability``.  On the
    sa = sb = sc = 0 plateau the two pick different optimal points.
    """
    mu1, mu2, sa, sb, sc = d.mu1, d.mu2, d.sa, d.sb, d.sc
    free_b = sb > _ZERO_OVERLAP
    free_c = sc > _ZERO_OVERLAP
    r = mu1 / mu2

    def finish(b1, b2, g1, g2):
        rho = (mu2 * b2 * g2) / (mu1 * b1 * g1)
        a1, a2 = _balanced_pair(rho, sa)
        if not (0.0 < a1 <= 1.0 + 1e-12 and 0.0 < a2 <= 1.0 + 1e-12):
            raise AssertionError(f"no Alice coefficients balance ratio {rho!r}")
        return (float(min(a1, 1.0)), float(min(a2, 1.0)),
                float(b1), float(b2), float(g1), float(g2))

    if sa <= _ZERO_OVERLAP:
        if not free_b and not free_c:
            return finish(1.0, 1.0, 1.0, 1.0)
        if free_b != free_c:
            # single acting site: balance mu1 k1 = mu2 k2 on its curve, so
            # k2/k1 = r and k1^2 is the smaller root of the ratio quadratic
            s = sb if free_b else sc
            g = _smaller_balance_root(r, s)
            k1, k2 = np.sqrt(g), r * np.sqrt(g)
            return finish(k1, k2, 1.0, 1.0) if free_b else finish(1.0, 1.0, k1, k2)

        # both sites act; alpha1 = alpha2 = 1, so the balance condition picks
        # Claire's point on her curve as a function of Bob's
        def claire_point(b1):
            b2 = _completion(sb, b1)
            k = (mu2 * b2) / (mu1 * b1)       # = gamma1/gamma2 from balance
            h = _smaller_balance_root(k, sc)  # gamma2^2
            return b2, k * np.sqrt(h), np.sqrt(h)

        def value(b1):
            _, g1, _ = claire_point(b1)
            return 2.0 * np.square(mu1 * b1 * g1)

        b1 = _maximize_1d(value, 0.0, np.sqrt(1.0 - sb * sb))
        b2, g1, g2 = claire_point(b1)
        return finish(b1, b2, g1, g2)

    def probability(b1, g1, b2, g2):
        rho = (mu2 * b2 * g2) / (mu1 * b1 * g1)
        a1, _ = _balanced_pair(rho, sa)
        return 2.0 * np.square(a1 * b1 * g1 * mu1)

    if not free_b and not free_c:
        return finish(1.0, 1.0, 1.0, 1.0)

    if free_b != free_c:
        s = sb if free_b else sc

        def value(k1):
            return probability(k1, 1.0, _completion(s, k1), 1.0)

        k1 = _maximize_1d(value, 0.0, np.sqrt(1.0 - s * s))
        k2 = float(_completion(s, k1))
        return finish(k1, k2, 1.0, 1.0) if free_b else finish(1.0, 1.0, k1, k2)

    g1_hi = np.sqrt(1.0 - sc * sc)

    def best_claire(b1):
        b2 = float(_completion(sb, b1))
        g1 = _maximize_1d(lambda g: probability(b1, g, b2, _completion(sc, g)),
                          0.0, g1_hi)
        return g1, b2

    def outer(b1_arr):
        b1_arr = np.atleast_1d(b1_arr)
        out = np.empty_like(b1_arr)
        for i, b1 in enumerate(b1_arr):
            g1, b2 = best_claire(float(b1))
            out[i] = probability(b1, g1, b2, _completion(sc, g1))
        return out if out.size > 1 else float(out[0])

    b1 = _maximize_1d(outer, 0.0, np.sqrt(1.0 - sb * sb), grid_n=64)
    g1, b2 = best_claire(b1)
    return finish(b1, b2, g1, float(_completion(sc, g1)))


# ----------------------------------------------------------------- sampling

def sample_branch(state: State3Q, povm_pair, party: str, rng) -> tuple[int, State3Q, float]:
    """Sample one two-outcome POVM on the given party.

    Draws a single uniform from ``rng``; outcome 0 corresponds to the first
    operator of the pair.  Returns (outcome, normalized post state, the
    probability of the sampled outcome).
    """
    m0, m1 = povm_pair
    if not _completeness_residual(_entries(m0), _entries(m1)) <= _COMPLETE_TOL:
        raise ValueError(f"POVM pair is not complete within {_COMPLETE_TOL}")
    raw0, p0 = apply_local(state, *_ops_for(party, m0))
    outcome = 0 if rng.random() < _effective_threshold(p0) else 1
    if outcome == 0:
        return 0, normalize(raw0), p0
    raw1, p1 = apply_local(state, *_ops_for(party, m1))
    return 1, normalize(raw1), p1


# ----------------------------------------------------------- audit branches

def branch_by_decomposing(state: State3Q, op: np.ndarray, party: str,
                          tol: float = _RANK_TOL) -> BranchOutcome:
    """Outcome of applying ``op`` to one party, the post-measurement state
    decomposed at rank tolerance ``tol``: a GHZ-class outcome is labelled
    and valued from its decomposition, any other class is taken from the
    NotGHZClassError and valued 0.  IllConditionedError propagates."""
    raw, p = apply_local(state, *_ops_for(party, op))
    if p < _NEGLIGIBLE_BRANCH:
        return BranchOutcome(probability=p, label="negligible", p_value=0.0)
    try:
        d = decompose(normalize(raw), tol)
    except NotGHZClassError as e:
        return BranchOutcome(probability=p, label=e.cls.value, p_value=0.0)
    return BranchOutcome(probability=p, label=EntanglementClass.GHZ_CLASS.value,
                         p_value=optimal_probability_value(d))


# ------------------------------------------------------------ polar factors

def svd_polar_update(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each E = W S V^dag of the stack, the unitary V W^dag maximizing
    |tr(U E)|, and that maximum, the sum of the singular values S."""
    w, s, vh = np.linalg.svd(e)
    return np.conj(np.swapaxes(w @ vh, -1, -2)), s.sum(axis=-1)


# ------------------------------------------------------------- LU fidelity

def einsum_environment(u1: np.ndarray, u2: np.ndarray, psi_p: np.ndarray) -> np.ndarray:
    """Environment matrices E (R, 2, 2) of the party whose axis leads psi_p,
    given the stacks u1, u2 (R, 2, 2) of the other two parties' unitaries
    (in axis order): the GHZ overlap is tr(U E) for that party's unitary U."""
    return np.einsum("rik,rim,jkm->rji", u1, u2, psi_p) * np.sqrt(0.5)


def reference_lu_fidelity(state: State3Q, restarts: int, seed: int) -> float:
    """The F of ``optimal_lu_fidelity`` by (R, 2, 2) stacks, einsum
    environments and SVD polar factors, from the same starts, with the same
    stopping rule and the same tie rule."""
    rng = np.random.default_rng(seed)
    theta = np.vstack([np.zeros(9), rng.uniform(0.0, 2.0 * np.pi, size=(restarts, 9))])
    ua, ub, uc = (su2(theta[:, 3 * p: 3 * p + 3]) for p in range(3))
    psi = state.tensor
    psi_b, psi_c = psi.transpose(1, 0, 2), psi.transpose(2, 0, 1)
    f = np.zeros(restarts + 1)
    for _ in range(_MAX_SWEEPS):
        ua, _ = svd_polar_update(einsum_environment(ub, uc, psi))
        ub, _ = svd_polar_update(einsum_environment(ua, uc, psi_b))
        uc, s = svd_polar_update(einsum_environment(ua, ub, psi_c))
        f_prev, f = f, s * s
        if np.max(f - f_prev) <= _SWEEP_TOL:
            break
    best_f = ghz_fidelity(state)
    for fi in f:
        if fi > best_f + _TIE_MARGIN:
            best_f = float(fi)
    return best_f


# ------------------------------------------------------------ partial trace

def reduced_density(state: State3Q, parties: str) -> np.ndarray:
    """Reduced density matrix of the given parties, a string such as "A" or
    "BC" (trace out the rest); kept parties appear in A < B < C order."""
    keep = sorted("ABC".index(p) for p in parties)
    out = [ax for ax in range(3) if ax not in keep]
    psi = state.tensor
    rho = np.tensordot(psi, psi.conj(), axes=(out, out))
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


# --------------------------------------------------------------- dual basis

def dual_basis(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biorthogonal pair (t1, t2) with <t_i|v_j> = delta_ij, the columns of
    the conjugate transpose of inv([v1 v2]); the inputs must be linearly
    independent, and the outputs are in general not normalized."""
    m = np.column_stack([np.asarray(v1, dtype=np.complex128).reshape(2),
                         np.asarray(v2, dtype=np.complex128).reshape(2)])
    dual = np.linalg.inv(m).conj().T
    return dual[:, 0], dual[:, 1]


def rational_dual_basis(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``dual_basis`` from the exact inverse of [v1 v2] in rational
    arithmetic on the binary values of the inputs, rounded once at the end."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    (x0, x1), (y0, y1) = ([(Fraction(z.real), Fraction(z.imag)) for z in np.ravel(v).tolist()]
                          for v in (np.asarray(v1, dtype=np.complex128),
                                    np.asarray(v2, dtype=np.complex128)))
    p, q = mul(x0, y1), mul(y0, x1)
    det = (p[0] - q[0], p[1] - q[1])
    n = det[0] * det[0] + det[1] * det[1]
    inv = (det[0] / n, -det[1] / n)
    # rows of adj([v1 v2]) / det are t1^dag and t2^dag
    rows = [mul(y1, inv), mul((-y0[0], -y0[1]), inv), mul((-x1[0], -x1[1]), inv), mul(x0, inv)]
    t = np.array([complex(float(re), -float(im)) for re, im in rows])
    return t[:2], t[2:]
