import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdistill import (
    PovmTriple,
    ProductDecomposition,
    apply_local,
    basis_state,
    build_povms,
    closed_form_one_site,
    closed_form_two_sites,
    decompose,
    ghz_state,
    grid_search_probability,
    normalize,
    optimal_probability,
    optimal_probability_value,
    random_povm_pair,
    reconstruct,
    w_state,
)
from ghzdistill.errors import (
    GhzDistillError, InvariantViolationError, ParallelVectorsError, PreconditionViolatedError,
)
from ghzdistill import solver
from ghzdistill.monotone import complete_pair
from ghzdistill.sampling import (
    apply_local_unitaries, haar_local_vector, random_local_unitaries, vector_with_overlap,
)
from ghzdistill.solver import (
    U_TOL, X_HI, X_LO, _local_povm, _max_objective, _objective, _params, _slope_ratio,
)
from ghzdistill.tensor import fidelity_with
from ghzdistill.tolerances import FAILURE_RANK_RTOL, PARALLEL_TOL
from helpers import make_decomposition, psi_b, random_ghz_state
from oracles import (
    bisect_max_objective, dual_basis, rational_dual_basis, reduced_density,
    reference_sign_change, solve_coefficients,
)

SQ2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------- objective

def test_objective_ghz_at_one():
    assert _objective(decompose(ghz_state()), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_objective_psi_b_at_one():
    assert _objective(decompose(psi_b()), 1.0) == pytest.approx(0.4, abs=1e-12)


def test_objective_nonnegative_over_range():
    rng = np.random.default_rng(0)
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 500))
    for _ in range(20):
        d = make_decomposition(rng)
        assert all(_objective(d, float(x)) >= 0.0 for x in xs)


def test_objective_nonnegative_everywhere():
    rng = np.random.default_rng(4)
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 2001))
    for _ in range(50):
        d = make_decomposition(rng)
        assert np.all(_objective(d, xs) >= 0.0)


def test_objective_scalar_and_array_agree_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = make_decomposition(rng)
        xs = np.exp(rng.uniform(-10, 10, size=32))
        batch = _objective(d, xs)
        assert [float(_objective(d, float(x))) for x in xs] == batch.tolist()
        v, x = grid_search_probability(d, points=1001)
        assert v == _objective(d, x)


def test_grid_ties_resolve_to_lowest_x():
    # sa = sb = sc = 0 with mu1 > mu2: the objective equals 2 mu2^2 on the
    # whole plateau [1, mu1/mu2], and rounding leaves several grid points
    # exactly tied at the top
    rng = np.random.default_rng(3)
    d = make_decomposition(rng, mu1_sq=0.7, sa=0.0, sb=0.0, sc=0.0)
    n = 20001
    v, x = grid_search_probability(d, points=n)
    xs = np.exp(np.linspace(np.log(X_LO), np.log(X_HI), n))
    tied = [float(t) for t in xs if _objective(d, float(t)) == v]
    assert len(tied) > 1
    assert x == tied[0]
    assert 1.0 <= x <= d.mu1 / d.mu2


# ------------------------------------------------------- optimal probability

def test_optimal_ghz():
    sol = optimal_probability(decompose(ghz_state()))
    assert sol.p_opt == pytest.approx(1.0, abs=1e-12)
    assert sol.x_star == pytest.approx(1.0, abs=1e-6)
    assert sol.coefficients == pytest.approx((1.0,) * 6, abs=1e-12)


def test_optimal_psi_b():
    sol = optimal_probability(decompose(psi_b()))
    assert sol.p_opt == pytest.approx(0.4, abs=1e-12)
    assert sol.x_star == pytest.approx(1.0, abs=1e-6)
    g = np.sqrt(0.4)
    assert sol.coefficients == pytest.approx((1, 1, 1, 1, g, g), abs=1e-10)


def test_optimal_hand_two_site_case():
    rng = np.random.default_rng(1)
    d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.5, sc=0.5, phi=0.0)
    sol = optimal_probability(d)
    assert sol.p_opt == pytest.approx(0.25, abs=1e-9)
    assert (sol.beta1 / sol.beta2) ** 2 == pytest.approx(1.0, abs=1e-6)
    assert (sol.gamma1 / sol.gamma2) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_optimal_deterministic():
    d = decompose(psi_b())
    s1, s2 = optimal_probability(d), optimal_probability(d)
    assert s1 == s2


def test_phases_cancel_decomposition_phase():
    rng = np.random.default_rng(2)
    d = make_decomposition(rng)
    sol = optimal_probability(d)
    total = (sol.phase_a + sol.phase_b + sol.phase_c + d.phi) % (2 * np.pi)
    assert min(total, 2 * np.pi - total) < 1e-10


def test_lu_invariance_of_p_opt():
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_ghz_state(rng)
        p0 = optimal_probability_value(decompose(st))
        st2 = apply_local_unitaries(st, *random_local_unitaries(rng))
        p1 = optimal_probability_value(decompose(st2))
        assert abs(p0 - p1) < 1e-7


def test_p_equals_one_iff_ghz_equivalent():
    rng = np.random.default_rng(4)
    # LU-rotated GHZ reaches 1
    st = apply_local_unitaries(ghz_state(), *random_local_unitaries(rng))
    assert optimal_probability_value(decompose(st)) == pytest.approx(1.0, abs=1e-8)
    # anything with mu1 != mu2 or a positive overlap stays below 1
    for kwargs in ({"mu1_sq": 0.6, "sa": 0.0, "sb": 0.0, "sc": 0.0},
                   {"mu1_sq": 0.5, "sa": 0.0, "sb": 0.0, "sc": 0.3},
                   {}):
        d = make_decomposition(rng, **kwargs)
        if abs(d.mu1 - d.mu2) < 1e-8 and max(d.sa, d.sb, d.sc) < 1e-8:
            continue
        assert optimal_probability_value(d) < 1.0 - 1e-8


# -------------------------------------------------------------- closed forms

def test_one_site_examples():
    rng = np.random.default_rng(5)
    d = make_decomposition(rng, mu1_sq=2 / 3, sa=0.0, sb=0.0, sc=0.0)
    assert closed_form_one_site(d) == pytest.approx(2 / 3, abs=1e-12)
    d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.0, sc=0.6)
    assert closed_form_one_site(d) == pytest.approx(0.4, abs=1e-12)
    d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.0, sc=0.0)
    assert closed_form_one_site(d) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_near_product_probability_has_full_relative_accuracy(eps):
    # |000> + eps|111> has sa = sb = sc = 0 and optimum 2 mu2^2, which the
    # literal form 1 - sqrt(1 - a) loses to cancellation as eps -> 0
    amps = np.zeros(8)
    amps[0], amps[7] = 1.0, eps
    d = decompose(normalize(amps), tol=1e-14)
    assert max(d.sa, d.sb, d.sc) < 1e-12
    exact = 2.0 * d.mu2 ** 2
    assert optimal_probability_value(d) == pytest.approx(exact, rel=1e-12)
    assert closed_form_one_site(d) == pytest.approx(exact, rel=1e-12)


def test_one_site_precondition():
    rng = np.random.default_rng(6)
    with pytest.raises(PreconditionViolatedError):
        closed_form_one_site(make_decomposition(rng, sa=0.3, sb=0.0))
    with pytest.raises(PreconditionViolatedError):
        closed_form_one_site(make_decomposition(rng, sa=0.0, sb=0.3))


def test_one_site_equals_twice_smallest_eigenvalue():
    rng = np.random.default_rng(7)
    from ghzdistill import reconstruct
    for _ in range(25):
        d = make_decomposition(rng, sa=0.0, sb=0.0)
        ev = np.linalg.eigvalsh(reduced_density(reconstruct(d), "C"))
        assert closed_form_one_site(d) == pytest.approx(2.0 * ev[0], abs=1e-10)


def test_two_sites_hand_case():
    rng = np.random.default_rng(8)
    d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.5, sc=0.5)
    cf = closed_form_two_sites(d)
    assert cf.p == pytest.approx(0.25, abs=1e-12)
    assert cf.ratio_beta == pytest.approx(1.0, abs=1e-12)
    assert cf.ratio_gamma == pytest.approx(1.0, abs=1e-12)
    assert not cf.ratios_by_continuity


def test_two_sites_reduces_to_orthogonal_case():
    rng = np.random.default_rng(9)
    d = make_decomposition(rng, mu1_sq=0.7, sa=0.0, sb=0.0, sc=0.0)
    cf = closed_form_two_sites(d)
    expected = 1.0 - np.sqrt(1.0 - 4.0 * d.mu1 ** 2 * d.mu2 ** 2)
    assert cf.p == pytest.approx(expected, abs=1e-12)
    assert cf.ratios_by_continuity
    assert cf.ratio_beta == pytest.approx(d.mu2 / d.mu1, abs=1e-12)


def test_two_sites_matches_one_site_under_relabel():
    rng = np.random.default_rng(10)
    d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.6, sc=0.0)
    cf = closed_form_two_sites(d)
    assert cf.p == pytest.approx(0.4, abs=1e-12)
    d_relabeled = make_decomposition(rng, mu1_sq=0.5, sa=0.0, sb=0.0, sc=0.6)
    assert cf.p == pytest.approx(closed_form_one_site(d_relabeled), abs=1e-12)


def test_two_sites_precondition():
    rng = np.random.default_rng(11)
    with pytest.raises(PreconditionViolatedError):
        closed_form_two_sites(make_decomposition(rng, sa=0.4))


@pytest.mark.parametrize("s", [0.0, 1e-9, 1e-6])
def test_closed_forms_near_ghz_match_the_1d_optimum_to_rounding(s):
    # near GHZ, p = pref - sqrt(pref^2 - k2) nears pref, and a radicand
    # formed as 1 - k2/pref^2 loses its digits to cancellation
    rng = np.random.default_rng(18)
    for _ in range(5):
        for pinned, closed_form in (({"sb": 0.0, "sc": s}, closed_form_one_site),
                                    ({"sb": s, "sc": s},
                                     lambda d: closed_form_two_sites(d).p)):
            d = make_decomposition(rng, mu1_sq=0.5, sa=0.0, **pinned)
            st = apply_local_unitaries(reconstruct(d), *random_local_unitaries(rng))
            d = decompose(st)
            assert abs(closed_form(d) - optimal_probability_value(d)) <= 1e-15


def test_two_sites_balance_identity_of_ratios():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = make_decomposition(rng, sa=0.0)
        cf = closed_form_two_sites(d)
        assert cf.ratio_beta * cf.ratio_gamma == pytest.approx(
            (d.mu2 / d.mu1) ** 2, rel=1e-12)


# --------------------------------------------------------------- coefficients

def test_coefficients_ghz():
    assert solve_coefficients(decompose(ghz_state())) == pytest.approx((1.0,) * 6, abs=1e-12)


def test_coefficients_psi_b():
    g = np.sqrt(0.4)
    assert solve_coefficients(decompose(psi_b())) == pytest.approx(
        (1, 1, 1, 1, g, g), abs=1e-10)


def test_coefficients_match_closed_form_ratios():
    rng = np.random.default_rng(13)
    for _ in range(15):
        d = make_decomposition(rng, sa=0.0)
        a1, a2, b1, b2, g1, g2 = solve_coefficients(d)
        cf = closed_form_two_sites(d)
        assert (b1 / b2) ** 2 == pytest.approx(cf.ratio_beta, abs=1e-6)
        assert (g1 / g2) ** 2 == pytest.approx(cf.ratio_gamma, abs=1e-6)
        assert a1 == pytest.approx(1.0, abs=1e-9)
        assert a2 == pytest.approx(1.0, abs=1e-9)


def test_coefficients_satisfy_constraints_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = make_decomposition(rng)
        a1, a2, b1, b2, g1, g2 = solve_coefficients(d)
        assert abs((1 - a1**2) * (1 - a2**2) - d.sa**2) < 1e-10
        assert abs((1 - b1**2) * (1 - b2**2) - d.sb**2) < 1e-10
        assert abs((1 - g1**2) * (1 - g2**2) - d.sc**2) < 1e-10
        assert abs(a1 * b1 * g1 * d.mu1 - a2 * b2 * g2 * d.mu2) < 1e-10


def test_two_routes_and_grid_oracle_agree():
    rng = np.random.default_rng(15)
    for _ in range(25):
        st = random_ghz_state(rng)
        d = decompose(st)
        p1 = optimal_probability_value(d)
        c = solve_coefficients(d)
        p2 = 2.0 * (c[0] * c[2] * c[4] * d.mu1) ** 2
        pg, _ = grid_search_probability(d, points=100_000)
        assert abs(p1 - p2) < 1e-6
        assert abs(p1 - pg) < 1e-6


# ------------------------------------------------- fast path against oracles

ORACLE_POINTS = 100_000


def _families(rng, n):
    """Named decomposition families: Haar states, pinned zero overlaps, ties
    and small weight ratios mu2/mu1."""
    pinned = {
        "sa=0": {"sa": 0.0}, "sb=0": {"sb": 0.0}, "sc=0": {"sc": 0.0},
        "sa=sb=0": {"sa": 0.0, "sb": 0.0}, "sb=sc=0": {"sb": 0.0, "sc": 0.0},
        "sa=sb=sc=0": {"sa": 0.0, "sb": 0.0, "sc": 0.0},
        "tie": {"mu1_sq": 0.5},
        **{f"mu2/mu1={q:g}": {"mu1_sq": 1.0 / (1.0 + q * q)} for q in (1e-1, 1e-2, 1e-3)},
    }
    fams = {"haar": [decompose(random_ghz_state(rng)) for _ in range(n)]}
    for name, kwargs in pinned.items():
        fams[name] = [make_decomposition(rng, **kwargs) for _ in range(n)]
    return fams


def _residuals(d, coeffs):
    a1, a2, b1, b2, g1, g2 = coeffs
    return np.array([
        2.0 * (a1 * b1 * g1 * d.mu1) ** 2,
        abs(a1 * b1 * g1 * d.mu1 - a2 * b2 * g2 * d.mu2),
        abs((1 - a1**2) * (1 - a2**2) - d.sa**2),
        abs((1 - b1**2) * (1 - b2**2) - d.sb**2),
        abs((1 - g1**2) * (1 - g2**2) - d.sc**2),
    ])


def test_x_star_is_ratio_of_alice_coefficients():
    fams = _families(np.random.default_rng(30), 10)
    for name in ("haar", "sa=0", "sb=0", "sb=sc=0", "sa=sb=sc=0", "tie"):
        for d in fams[name]:
            sol = optimal_probability(d)
            assert sol.x_star == pytest.approx(sol.alpha2 / sol.alpha1, rel=1e-9), name


def test_log_objective_is_concave_in_log_x():
    # the slope of log(value) in u = log x changes sign at most once, from
    # rising to falling, and only inside [0, log(mu1/mu2)]
    us = np.linspace(np.log(X_LO), np.log(X_HI), 2001)
    for name, ds in _families(np.random.default_rng(31), 5).items():
        for d in ds:
            rising = np.array([_slope_ratio(_params(d), float(np.exp(u)))[0] for u in us])
            switches = np.flatnonzero(rising[:-1] != rising[1:])
            assert len(switches) <= 1, name
            assert rising[us < 0.0].all(), name
            assert not rising[us > np.log(d.mu1 / d.mu2)].any(), name


def test_fast_path_against_grid_and_coefficient_oracles():
    step = (np.log(X_HI) - np.log(X_LO)) / (ORACLE_POINTS - 1)
    for name, ds in _families(np.random.default_rng(32), 6).items():
        for d in ds:
            gv, gx = grid_search_probability(d, points=ORACLE_POINTS)
            assert -step <= np.log(gx) <= max(np.log(d.mu1 / d.mu2), 0.0) + step, name
            assert optimal_probability_value(d) >= gv - 1e-12, name

            sol = optimal_probability(d)
            oracle = solve_coefficients(d)
            assert np.all(np.abs(_residuals(d, sol.coefficients)
                                 - _residuals(d, oracle)) <= 1e-10), name
            if name != "sa=sb=sc=0":   # the only family with a plateau of optima
                assert sol.coefficients == pytest.approx(oracle, abs=1e-6), name


# --------------------------------------------- Newton search against oracles

RATIOS = [10.0 ** -k for k in range(1, 9)]
END_FAMILIES = {"sa=0": "x = 1", "sa=sb=0": "x = 1", "sa=sb=sc=0": "x = 1",
                "sb=sc=0": "x = mu1/mu2"}


def _ratio_families(rng, n):
    return {f"ratio {q:g}": [make_decomposition(rng, ratio=q) for _ in range(n)]
            for q in RATIOS}


def test_newton_search_against_the_bisection_oracle():
    # below mu2/mu1 = 1e-4 the bisection's sign test, h1 r2 + h2 r1 < 0, is
    # rounding over a band of u wider than U_TOL (7e-12 at 1e-5), so its x*
    # is no reference there; the next test checks the search at 80 digits
    fams = {**_families(np.random.default_rng(40), 8),
            **_ratio_families(np.random.default_rng(41), 8)}
    for name, ds in fams.items():
        for d in ds:
            p, x = _max_objective(d)
            p0, x0 = bisect_max_objective(d)
            assert abs(p - p0) <= 1e-15, name
            if name in END_FAMILIES:
                # the same end wins, and the search returns it exactly
                end = 1.0 if END_FAMILIES[name] == "x = 1" else float(d.mu1) / float(d.mu2)
                assert x == end, name
                assert abs(math.log(x0) - math.log(end)) <= U_TOL, name
            elif d.mu2 / d.mu1 > 0.5e-4:
                assert abs(math.log(x) - math.log(x0)) <= U_TOL, name


def test_newton_search_against_the_80_digit_sign_change():
    # the point the search returns still rises and lies within U_TOL of the
    # sign change of the exact slope -(h1/r1 + h2/r2), for every weight ratio
    for name, ds in _ratio_families(np.random.default_rng(42), 4).items():
        for d in ds:
            u_ref = reference_sign_change(d)
            u = math.log(_max_objective(d)[1])
            assert u_ref - U_TOL <= u <= u_ref + 1e-15, name


def test_coefficients_realize_p_opt_to_rounding():
    # x* is the certified sign change, not an end whose value ties with the
    # optimum to 1e-12 absolute: where p_opt is tiny (mu2/mu1 = 1e-6) or
    # flat in x (near W), such an end gives coefficients that miss p_opt
    fams = {**_families(np.random.default_rng(47), 6),
            **_ratio_families(np.random.default_rng(48), 6),
            "ratio 1e-6, s = 0.5": [make_decomposition(
                np.random.default_rng(49), ratio=1e-6, sa=0.5, sb=0.5, sc=0.5)],
            "W+GHZ": [decompose(normalize(w_state().amps + 10.0 ** -k * ghz_state().amps))
                      for k in range(1, 5)]}
    for name, ds in fams.items():
        for d in ds:
            sol = optimal_probability(d)
            p = 2.0 * (sol.alpha1 * sol.beta1 * sol.gamma1 * d.mu1) ** 2
            assert abs(p / sol.p_opt - 1.0) <= 1e-14, name


def test_newton_search_takes_few_slope_evaluations(monkeypatch):
    # a fall-back to bisection would take about 40 evaluations per search;
    # the objective itself is evaluated once, at x*
    calls, values = [], []
    monkeypatch.setattr(solver, "_slope_ratio",
                        lambda w, x: calls.append(x) or _slope_ratio(w, x))
    monkeypatch.setattr(solver, "_objective",
                        lambda d, x: values.append(x) or _objective(d, x))
    fams = {**_families(np.random.default_rng(43), 10),
            **_ratio_families(np.random.default_rng(44), 10)}
    counts = {}
    for name, ds in fams.items():
        for d in ds:
            calls.clear()
            values.clear()
            _max_objective(d)
            counts.setdefault(name, []).append(len(calls))
            assert len(values) == 1, name
    for name in END_FAMILIES:
        assert counts[name] == [0] * 10, name
    assert max(max(c) for c in counts.values()) <= 9
    assert np.mean(counts["haar"]) <= 6


TAIL_FAMILIES = {"sa=1e-9": {"sa": 1e-9}, "sb=1e-9, sc=1e-10": {"sb": 1e-9, "sc": 1e-10},
                 "sa=1e-200": {"sa": 1e-200}, "sb=sc=1e-200": {"sb": 1e-200, "sc": 1e-200}}


def test_newton_search_reaches_an_end_next_to_a_tiny_overlap_in_few_evaluations(monkeypatch):
    # a tiny overlap that is not zero puts x* about that overlap from an end;
    # halving the bracket took ~40 evaluations there (38-46 on these
    # families), steps in the log of the distance to the end take a few.
    # On the default family the search makes no more evaluations than it
    # did before those steps: 5.25 on average and 7 at most on these draws
    calls = []
    monkeypatch.setattr(solver, "_slope_ratio",
                        lambda w, x: calls.append(x) or _slope_ratio(w, x))
    rng = np.random.default_rng(49)
    counts = {}
    for name, kwargs in {**TAIL_FAMILIES, "default": {}}.items():
        for _ in range(40):
            d = make_decomposition(rng, **kwargs)
            calls.clear()
            u = math.log(_max_objective(d)[1])
            counts.setdefault(name, []).append(len(calls))
            u_ref = reference_sign_change(d)
            assert u_ref - U_TOL <= u <= u_ref + 1e-15, name
    for name in TAIL_FAMILIES:
        assert max(counts[name]) <= 12, (name, counts[name])
    assert max(counts["default"]) <= 7
    assert np.mean(counts["default"]) <= 5.25


def test_slope_ratio_derivative_matches_a_central_difference():
    h = 1e-5
    for name, ds in {**_families(np.random.default_rng(45), 4),
                     **_ratio_families(np.random.default_rng(46), 2)}.items():
        if name in END_FAMILIES:
            continue
        for d in ds:
            w = _params(d)
            for u in np.linspace(0.0, np.log(d.mu1 / d.mu2), 7)[1:-1]:
                _, phi, dphi = _slope_ratio(w, float(np.exp(u)))
                diff = (_slope_ratio(w, float(np.exp(u + h)))[1]
                        - _slope_ratio(w, float(np.exp(u - h)))[1]) / (2.0 * h)
                assert dphi < 0.0, name
                assert dphi == pytest.approx(diff, rel=1e-6), name
                assert (phi > 0.0) == _slope_ratio(w, float(np.exp(u)))[0], name


@pytest.mark.parametrize("mu2", [1e-8, 1e-100, 1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("s", [0.0, 0.3])
def test_extreme_weight_ratios_end_in_the_oracle_value_or_a_typed_error(mu2, s):
    # the Newton search runs in Python floats, where a division by an
    # underflowed number raises instead of warning
    v = np.array([1.0, 0.0])
    w = np.array([s, np.sqrt(1.0 - s * s)])
    mu1 = np.sqrt(1.0 - mu2 * mu2)
    d = ProductDecomposition(mu1=mu1, mu2=mu2, phi=np.pi / 2, a1=v, a2=w, b1=v, b2=w,
                             c1=v, c2=w, sa=s, sb=s, sc=s)
    with np.errstate(over="ignore"):   # the oracle squares x up to mu1/mu2 in NumPy
        p0, _ = bisect_max_objective(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(optimal_probability_value(d) - p0) <= 1e-15
        try:
            sol = optimal_probability(d)
        except GhzDistillError:
            return
    assert abs(sol.p_opt - p0) <= 1e-15


# ------------------------------------------------------------------- POVMs

def test_povms_ghz_identity():
    d = decompose(ghz_state())
    t = build_povms(d, optimal_probability(d))
    for succ, fail, _ in t.pairs():
        assert_allclose(succ, np.eye(2), atol=1e-12)
        assert_allclose(fail, np.zeros((2, 2)), atol=1e-12)


def test_povms_psi_b_claire_operator():
    d = decompose(psi_b())
    t = build_povms(d, optimal_probability(d))
    assert_allclose(t.success_a, np.eye(2), atol=1e-10)
    assert_allclose(t.success_b, np.eye(2), atol=1e-10)
    expected_c = np.sqrt(0.4) * np.array([[1.0, -0.75], [0.0, 1.25]])
    assert_allclose(t.success_c, expected_c, atol=1e-10)


@pytest.mark.parametrize("slot", [0, 1])
def test_povm_triple_rejects_nan_operators(slot):
    # NaN fails no "residual > tol" comparison, so the checks must be
    # written to reject it before the rank test's SVD sees it
    ops = [np.eye(2), np.zeros((2, 2))] * 3
    ops[slot] = np.full((2, 2), np.nan)
    with pytest.raises(InvariantViolationError):
        PovmTriple(*ops)


def test_povm_triple_checks_in_order():
    # every operator is checked for finite entries first, then the parties
    # in the order A, B, C, completeness before rank within a party
    eye, z = np.eye(2), np.zeros((2, 2))
    half = eye / np.sqrt(2.0)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    nan = np.full((2, 2), np.nan)
    cases = [
        ((z, z, eye, nan, eye, z), "failure_b has a non-finite entry"),
        ((p0, z, eye, z, z, eye), r"POVM pair for A is not complete \(residual 1\)"),
        ((z, 0.5 * eye, half, half, p0, z), "POVM pair for A is not complete"),
        ((half, half, p0, z, eye, z), r"failure operator for A has rank 2 \(singular values"),
        ((eye, z, p0, p1, half, half), "failure operator for C has rank 2"),
    ]
    for ops, message in cases:
        with pytest.raises(InvariantViolationError, match=message):
            PovmTriple(*ops)


def _closed_form_dual(v1, v2):
    """(t1, t2) of the closed form: the success rows at k1 = k2 = 1, phase 0."""
    succ, _ = _local_povm(np.asarray(v1, dtype=complex), np.asarray(v2, dtype=complex),
                          0.0, 1.0, 1.0, 0.0)
    return np.conj(succ[:2]), np.conj(succ[2:])


def test_dual_basis_orthonormal_input():
    t1, t2 = _closed_form_dual([1, 0], [0, 1])
    assert_allclose(t1, [1, 0], atol=1e-14)
    assert_allclose(t2, [0, 1], atol=1e-14)


def test_dual_basis_skew_input():
    t1, t2 = _closed_form_dual([1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert_allclose(t1, [1.0, -1.0], atol=1e-14)
    assert_allclose(t2, [0.0, np.sqrt(2.0)], atol=1e-14)


def test_dual_basis_parallel_error():
    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    with pytest.raises(ParallelVectorsError, match="parallel"):
        _closed_form_dual(v, v)
    with pytest.raises(ParallelVectorsError, match="zero vector"):
        _closed_form_dual(v, [0.0, 1e-13])


def test_dual_basis_biorthogonality_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v1, v2 = haar_local_vector(rng), haar_local_vector(rng)
        if abs(np.vdot(v1, v2)) > 0.99:
            continue
        t1, t2 = _closed_form_dual(v1, v2)
        gram = np.array([[np.vdot(t1, v1), np.vdot(t1, v2)],
                         [np.vdot(t2, v1), np.vdot(t2, v2)]])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def _lapack_success(v1, v2, k1, k2, phase):
    t1, t2 = dual_basis(v1, v2)
    return np.array([k1 * t1.conj(), k2 * np.exp(1j * phase) * t2.conj()])


def _abs_det(v1, v2):
    return abs(v1[0] * v2[1] - v2[0] * v1[1])


def test_success_operators_match_the_lapack_dual_basis():
    fams = {**_families(np.random.default_rng(50), 6),
            **_ratio_families(np.random.default_rng(51), 3)}
    for name, ds in fams.items():
        for d in ds:
            sol = optimal_probability(d)
            t = build_povms(d, sol)
            for (succ, _, _), (v1, v2), (k1, k2), phase in zip(
                    t.pairs(), ((d.a1, d.a2), (d.b1, d.b2), (d.c1, d.c2)),
                    ((sol.alpha1, sol.alpha2), (sol.beta1, sol.beta2),
                     (sol.gamma1, sol.gamma2)),
                    (sol.phase_a, sol.phase_b, sol.phase_c)):
                diff = np.max(np.abs(succ - _lapack_success(v1, v2, k1, k2, phase)))
                assert diff <= 1e-13 / _abs_det(v1, v2), name


def test_near_parallel_pairs_match_the_dual_basis_oracles_up_to_the_cut():
    # entries are of size 1/|det| and both routes round det at ~1e-16, so
    # they part by ~1e-16/|det|^2 near the cut, 5e-12/|det| at |det| = 2e-5;
    # against the exact inverse of the same inputs the closed form is at
    # least as close as LAPACK
    rng = np.random.default_rng(52)
    for gap in (2.0, 1e2, 1e4, 1e6, 1e9):
        cos = 1.0 - gap * PARALLEL_TOL
        for _ in range(20):
            v1 = haar_local_vector(rng)
            v2 = vector_with_overlap(rng, v1, cos) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            k1, k2 = rng.uniform(0.1, 1.0, 2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            succ = np.reshape(_local_povm(v1, v2, cos, k1, k2, phase)[0], (2, 2))
            lapack = _lapack_success(v1, v2, k1, k2, phase)
            t1, t2 = rational_dual_basis(v1, v2)
            exact = np.array([k1 * t1.conj(), k2 * np.exp(1j * phase) * t2.conj()])
            det2 = _abs_det(v1, v2) ** 2
            assert np.max(np.abs(succ - lapack)) <= 1e-15 / det2, gap
            assert np.max(np.abs(succ - exact)) <= 1e-15 / det2, gap
            if gap >= 1e6:
                assert np.max(np.abs(succ - lapack)) <= 1e-13 / _abs_det(v1, v2), gap
    # past the cut |cos| >= 1 - PARALLEL_TOL the pair has no dual basis
    for _ in range(20):
        v1 = haar_local_vector(rng)
        v2 = vector_with_overlap(rng, v1, 1.0 - 0.5 * PARALLEL_TOL)
        with pytest.raises(ParallelVectorsError, match="parallel"):
            _local_povm(v1, v2, 1.0, 1.0, 1.0, 0.0)


def test_completeness_residual_matches_the_matrix_product():
    # the entrywise scalar residual against M^dag M + N^dag N - I by matmul
    rng = np.random.default_rng(54)
    for k in range(200):
        m, n = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        if k % 2:
            m, n = random_povm_pair(k)
        ref = np.max(np.abs(m.conj().T @ m + n.conj().T @ n - np.eye(2)))
        got = solver._completeness_residual(solver._entries(m), solver._entries(n))
        assert got == pytest.approx(ref, rel=1e-14, abs=1e-15)


def test_failure_rank_decision_matches_the_svd():
    # |det F| <= FAILURE_RANK_RTOL s1^2 with s1 in closed form decides as
    # the SVD's s2 <= FAILURE_RANK_RTOL s1, also a relative 1e-6 from the cut
    rng = np.random.default_rng(53)
    eye, z = np.eye(2), np.zeros((2, 2))
    failures = [eye / np.sqrt(2.0), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), z]
    for ratio in (FAILURE_RANK_RTOL * (1.0 - 1e-6), FAILURE_RANK_RTOL * (1.0 + 1e-6),
                  0.0, 1e-12, 1e-4, 0.5, 1.0):
        for _ in range(20):
            u, v, _ = random_local_unitaries(rng)
            s1 = rng.uniform(0.1, 1.0)
            failures.append(u @ np.diag([s1, ratio * s1]) @ v)
    decided = []
    for f in failures:
        f = np.asarray(f, dtype=complex)
        sv = np.linalg.svd(f, compute_uv=False)
        try:
            PovmTriple(complete_pair(f)[1], f, eye, z, eye, z)
            rank2 = False
        except InvariantViolationError as e:
            assert "failure operator for A has rank 2 (singular values" in str(e)
            rank2 = True
        assert rank2 == (sv[1] > FAILURE_RANK_RTOL * sv[0]), sv
        decided.append(rank2)
    assert sum(decided) == 1 + 20 * 4


def test_povms_completeness_and_rank1_random():
    rng = np.random.default_rng(16)
    for _ in range(10):
        st = random_ghz_state(rng)
        d = decompose(st)
        t = build_povms(d, optimal_probability(d))
        for succ, fail, _ in t.pairs():
            comp = succ.conj().T @ succ + fail.conj().T @ fail
            assert np.max(np.abs(comp - np.eye(2))) < 1e-10
            sv = np.linalg.svd(fail, compute_uv=False)
            assert sv[1] <= 1e-8 * max(sv[0], 1e-300)


def test_povms_zero_overlap_sites():
    # a zero-overlap site with the trivial pair (1, 1) has completion
    # I - S^dag S = 0 up to rounding; its failure operator must come out
    # as 0, not as a rank-2 sqrt(eps) residue
    rng = np.random.default_rng(0)
    for pinned in ({"sa": 0.0}, {"sb": 0.0}, {"sa": 0.0, "sb": 0.0},
                   {"sa": 0.0, "sb": 0.0, "sc": 0.0}):
        for _ in range(40):
            d = make_decomposition(rng, **pinned)
            st = apply_local_unitaries(reconstruct(d), *random_local_unitaries(rng))
            d = decompose(st)
            build_povms(d, optimal_probability(d))


@pytest.mark.parametrize("eps", [1e-4, 1e-5])
@pytest.mark.parametrize("added, p_per_eps2", [("ghz", 2.0), ("111", 4.0)])
def test_povms_near_w_have_rank1_failure_operators(added, p_per_eps2, eps):
    # near W the dual vectors are long and the completion's null eigenvalue
    # keeps a rounding residue above any fixed clamp; the failure operators
    # must still come out rank 1
    extra = ghz_state().amps if added == "ghz" else basis_state("111").amps
    d = decompose(normalize(w_state().amps + eps * extra))
    sol = optimal_probability(d)
    assert sol.p_opt == pytest.approx(p_per_eps2 * eps * eps, rel=1e-6)
    t = build_povms(d, sol)
    for succ, fail, _ in t.pairs():
        comp = succ.conj().T @ succ + fail.conj().T @ fail
        assert np.max(np.abs(comp - np.eye(2))) < 1e-10
        sv = np.linalg.svd(fail, compute_uv=False)
        assert sv[1] <= 1e-8 * sv[0]


def test_povms_distill_exactly_end_to_end():
    rng = np.random.default_rng(17)
    for _ in range(10):
        st = random_ghz_state(rng)
        d = decompose(st)
        sol = optimal_probability(d)
        t = build_povms(d, sol)
        raw, p = apply_local(st, t.success_a, t.success_b, t.success_c)
        assert fidelity_with(normalize(raw), ghz_state()) >= 1.0 - 1e-10
        assert abs(p - sol.p_opt) < 1e-8
