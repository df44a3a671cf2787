"""Slow, independent reference routes that the test-suite checks the package
against.  No code in ``ghzdistill`` calls them.

- ``solve_coefficients``: the OSBP coefficients by direct constrained
  maximization over the free coefficients, the oracle of the closed-form
  coefficients of ``ghzdistill.solver.optimal_probability``.
- ``sample_branch``: one POVM on one party, sampled, the oracle of the
  threshold sampling of ``ghzdistill.simulate.run_protocol``.
"""
import numpy as np

from ghzdistill.decomposition import ProductDecomposition
from ghzdistill.simulate import _effective_threshold, _ops_for
from ghzdistill.solver import _balanced_pair, _completeness_residual, _smaller_balance_root
from ghzdistill.tensor import State3Q, apply_local, normalize
from ghzdistill.tolerances import COMPLETE_TOL as _COMPLETE_TOL
from ghzdistill.tolerances import ZERO_OVERLAP as _ZERO_OVERLAP

_INVPHI = (5.0 ** 0.5 - 1.0) / 2.0   # 1 / golden ratio


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
    if not _completeness_residual(m0, m1) <= _COMPLETE_TOL:
        raise ValueError(f"POVM pair is not complete within {_COMPLETE_TOL}")
    raw0, p0 = apply_local(state, *_ops_for(party, m0))
    outcome = 0 if rng.random() < _effective_threshold(p0) else 1
    if outcome == 0:
        return 0, normalize(raw0), p0
    raw1, p1 = apply_local(state, *_ops_for(party, m1))
    return 1, normalize(raw1), p1
