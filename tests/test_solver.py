import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdistill import (
    apply_local,
    basis_state,
    build_povms,
    closed_form_one_site,
    closed_form_two_sites,
    decompose,
    ghz_state,
    grid_search_probability,
    normalize,
    objective,
    optimal_probability,
    optimal_probability_value,
    reconstruct,
    reduced_density,
    w_state,
)
from ghzdistill.errors import NonPositiveXError, PreconditionViolatedError
from ghzdistill.sampling import apply_local_unitaries, random_local_unitaries
from ghzdistill.solver import X_HI, X_LO, _objective, _rising
from ghzdistill.tensor import fidelity_with
from helpers import make_decomposition, psi_b, random_ghz_state
from oracles import solve_coefficients

SQ2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------- objective

def test_objective_ghz_at_one():
    assert objective(decompose(ghz_state()), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_objective_psi_b_at_one():
    assert objective(decompose(psi_b()), 1.0) == pytest.approx(0.4, abs=1e-12)


def test_objective_rejects_nonpositive_x():
    d = decompose(ghz_state())
    with pytest.raises(NonPositiveXError):
        objective(d, 0.0)
    with pytest.raises(NonPositiveXError):
        objective(d, -1.0)


def test_objective_nonnegative_over_range():
    rng = np.random.default_rng(0)
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 500))
    for _ in range(20):
        d = make_decomposition(rng)
        assert all(objective(d, float(x)) >= 0.0 for x in xs)


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
        assert [objective(d, float(x)) for x in xs] == batch.tolist()
        v, x = grid_search_probability(d, points=1001)
        assert v == objective(d, x)


def test_grid_ties_resolve_to_lowest_x():
    # sa = sb = sc = 0 with mu1 > mu2: the objective equals 2 mu2^2 on the
    # whole plateau [1, mu1/mu2], and rounding leaves several grid points
    # exactly tied at the top
    rng = np.random.default_rng(3)
    d = make_decomposition(rng, mu1_sq=0.7, sa=0.0, sb=0.0, sc=0.0)
    n = 20001
    v, x = grid_search_probability(d, points=n)
    xs = np.exp(np.linspace(np.log(X_LO), np.log(X_HI), n))
    tied = [float(t) for t in xs if objective(d, float(t)) == v]
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
            rising = np.array([_rising(d, float(np.exp(u))) for u in us])
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
