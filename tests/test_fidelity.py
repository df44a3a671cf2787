import warnings

import numpy as np
import pytest

from ghzdistill import (
    decompose,
    fidelity,
    ghz_fidelity,
    ghz_state,
    optimal_lu_fidelity,
    optimal_probability_value,
    w_state,
)
from ghzdistill.fidelity import (
    _environment,
    _fidelity_and_grad,
    _ghz_unfoldings,
    _polar_update,
    sampled_fidelity_bound,
    su2,
    zyz_angles,
)
from ghzdistill.sampling import (
    _haar_from_ginibre,
    apply_local_unitaries,
    crandn,
    haar_state,
    haar_unitary,
    random_local_unitaries,
)
from ghzdistill.tensor import basis_state, normalize
from ghzdistill.tolerances import MAX_SWEEPS
from helpers import random_ghz_state
from oracles import einsum_environment, reference_lu_fidelity, svd_polar_update


def test_ghz_fidelity_examples():
    assert ghz_fidelity(ghz_state()) == pytest.approx(1.0, abs=1e-14)
    assert ghz_fidelity(w_state()) == pytest.approx(0.0, abs=1e-14)
    assert ghz_fidelity(basis_state("000")) == pytest.approx(0.5, abs=1e-14)


def test_su2_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = su2(rng.uniform(0, 2 * np.pi, 3))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14


def assert_equal_up_to_phase(u, v, atol):
    # |tr(u^dag v)| = 2 iff the unitaries u, v differ by a global phase
    ph = np.trace(u.conj().T @ v)
    np.testing.assert_allclose(u * ph / abs(ph), v, atol=atol)


def test_zyz_angles_invert_su2():
    rng = np.random.default_rng(11)
    cases = [haar_unitary(rng) for _ in range(20)]
    for _ in range(5):
        p, q = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        cases += [np.diag([p, q]), np.array([[0, p], [q, 0]])]   # b = 0, b = pi
    for u in cases:
        assert_equal_up_to_phase(u, su2(zyz_angles(u)), atol=1e-14)
    # a stack converts entry by entry
    stack = np.stack(cases[:4])
    np.testing.assert_allclose(zyz_angles(stack), [zyz_angles(u) for u in cases[:4]])


def test_optimal_ghz_is_one_with_identity():
    f, triple = optimal_lu_fidelity(ghz_state(), restarts=4, seed=0)
    assert f == pytest.approx(1.0, abs=1e-10)
    # the identity start already achieves the optimum
    np.testing.assert_allclose(triple.ua, np.eye(2), atol=1e-9)


def test_optimal_product_state_is_half():
    f, triple = optimal_lu_fidelity(basis_state("000"), restarts=16, seed=1)
    assert f == pytest.approx(0.5, abs=1e-9)
    # the returned triple reproduces the reported value
    from ghzdistill.sampling import apply_local_unitaries
    rotated = apply_local_unitaries(basis_state("000"), triple.ua, triple.ub, triple.uc)
    assert ghz_fidelity(rotated) == pytest.approx(f, abs=1e-10)


def test_sampling_oracle_lower_bounds_optimizer():
    st = basis_state("000")
    f, _ = optimal_lu_fidelity(st, restarts=8, seed=2)
    bound = sampled_fidelity_bound(st, 100_000, seed=3)
    assert bound <= f + 1e-12
    assert bound > 0.4


def test_lower_bound_and_lu_invariance():
    rng = np.random.default_rng(4)
    for _ in range(3):
        st = haar_state(rng)
        f0, _ = optimal_lu_fidelity(st, restarts=16, seed=5)
        assert f0 >= ghz_fidelity(st) - 1e-12
        st2 = apply_local_unitaries(st, *random_local_unitaries(rng))
        f1, _ = optimal_lu_fidelity(st2, restarts=16, seed=6)
        assert abs(f0 - f1) < 1e-8


def test_returned_triple_reproduces_fidelity_and_is_stationary():
    rng = np.random.default_rng(12)
    for _ in range(6):
        st = haar_state(rng)
        f, triple = optimal_lu_fidelity(st, restarts=8, seed=13)
        rotated = apply_local_unitaries(st, triple.ua, triple.ub, triple.uc)
        assert ghz_fidelity(rotated) == pytest.approx(f, abs=1e-12)
        for u, ang in zip((triple.ua, triple.ub, triple.uc), triple.angles):
            np.testing.assert_array_equal(u, su2(ang))
            assert not u.flags.writeable
        # first-order optimality certificate at the returned angles
        f_ang, grad = _fidelity_and_grad(triple.angles.ravel(), st.tensor)
        assert f_ang == pytest.approx(f, abs=1e-12)
        assert np.linalg.norm(grad) <= 1e-6


def test_restart_seed_stability():
    f1, _ = optimal_lu_fidelity(w_state(), restarts=16, seed=10)
    f2, _ = optimal_lu_fidelity(w_state(), restarts=16, seed=77)
    assert abs(f1 - f2) < 1e-8


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    psi = haar_state(rng).tensor
    h = 1e-6
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi, 9)
        f, grad = _fidelity_and_grad(theta, psi)
        for k in rng.choice(9, size=3, replace=False):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (_fidelity_and_grad(tp, psi)[0] - _fidelity_and_grad(tm, psi)[0]) / (2 * h)
            assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-7)


def test_unit_fidelity_iff_unit_distillation_probability():
    rng = np.random.default_rng(8)
    # LU image of GHZ: both certify GHZ-equivalence
    st = apply_local_unitaries(ghz_state(), *random_local_unitaries(rng))
    f, _ = optimal_lu_fidelity(st, restarts=16, seed=9)
    p = optimal_probability_value(decompose(st))
    assert f == pytest.approx(1.0, abs=1e-8)
    assert p == pytest.approx(1.0, abs=1e-8)
    # a generic state reaches neither
    st = random_ghz_state(rng)
    f, _ = optimal_lu_fidelity(st, restarts=16, seed=10)
    p = optimal_probability_value(decompose(st))
    assert f < 1.0 - 1e-8
    assert p < 1.0 - 1e-8


def _singular_stack(rng, n, ratio=None):
    """W diag(s1, s2) V^dag with Haar W, V; s2/s1 = ratio, or uniform in
    [0, 1) when ratio is None."""
    s1 = rng.uniform(0.1, 3.0, n)
    s2 = s1 * (rng.uniform(0.0, 1.0, n) if ratio is None else ratio)
    return np.array([haar_unitary(rng) @ np.diag([a, b]) @ haar_unitary(rng)
                     for a, b in zip(s1, s2)])


def _rank_one_stack(rng):
    """2x2 matrices of rank 1 whose det a d - b c rounds to exactly 0: a zero
    row, a zero column, or real rows a power of two apart."""
    z = rng.normal(size=(60, 2, 2)) + 1j * rng.normal(size=(60, 2, 2))
    z[:20, 1, :] = 0.0
    z[20:40, :, 0] = 0.0
    x = rng.normal(size=(20, 2))
    z[40:] = np.stack([x, x * 2.0 ** rng.integers(-3, 4, size=(20, 1))], axis=1)
    return z


POLAR_STACKS = {
    "haar": lambda rng: _singular_stack(rng, 200),
    "gaussian": lambda rng: rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2)),
    "rank 1": _rank_one_stack,
    "near rank 1, s2/s1 = 1e-8": lambda rng: _singular_stack(rng, 100, 1e-8),
    "near rank 1, s2/s1 = 1e-15": lambda rng: _singular_stack(rng, 100, 1e-15),
    "zero": lambda rng: np.zeros((3, 2, 2), dtype=np.complex128),
}


@pytest.mark.parametrize("make", POLAR_STACKS.values(), ids=POLAR_STACKS.keys())
def test_closed_form_polar_update_matches_the_svd_oracle(make):
    e = make(np.random.default_rng(14))
    if make is _rank_one_stack:
        assert np.all(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0] == 0.0)
    # the kernel takes each E flat as G = E^T and returns each U flat
    g = e.transpose(0, 2, 1).reshape(len(e), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, s = _polar_update(g)
    u = u.reshape(e.shape)
    _, s_svd = svd_polar_update(e)
    ulp = 8.0 * np.finfo(np.float64).eps * s
    np.testing.assert_allclose(np.conj(np.swapaxes(u, 1, 2)) @ u,
                               np.broadcast_to(np.eye(2), e.shape), rtol=0.0, atol=1e-14)
    overlap = np.einsum("rij,rji->r", u, e)
    assert np.all(np.abs(overlap.imag) <= ulp)
    assert np.all(np.abs(overlap.real - s) <= ulp)
    assert np.all(np.abs(s - s_svd) <= ulp)
    if not s.any():
        np.testing.assert_array_equal(u, np.broadcast_to(np.eye(2), e.shape))


@pytest.mark.parametrize("r", [1, 9, 33, 5000])
def test_flat_environment_matches_the_einsum_oracle(r):
    rng = np.random.default_rng(17)
    psi = haar_state(rng).tensor
    u = _haar_from_ginibre(crandn(rng, (3, r, 2, 2)))
    flat = u.reshape(3, r, 4)
    psi_p = [psi, psi.transpose(1, 0, 2), psi.transpose(2, 0, 1)]
    for p, (i, j) in enumerate([(1, 2), (0, 2), (0, 1)]):
        g = _environment(flat[i], flat[j], _ghz_unfoldings(psi)[p])
        # G is E^T, flattened; the entries of E are at most 1 in modulus
        np.testing.assert_allclose(g.reshape(r, 2, 2).transpose(0, 2, 1),
                                   einsum_environment(u[i], u[j], psi_p[p]),
                                   rtol=0.0, atol=4.0 * np.finfo(np.float64).eps)


REFERENCE_STATES = {
    "haar": lambda: [haar_state(np.random.default_rng(18)) for _ in range(24)],
    "GHZ": lambda: [ghz_state()],
    "W": lambda: [w_state()],
    "|000>": lambda: [basis_state("000")],
    "W+1e-4 GHZ": lambda: [normalize(w_state().amps + 1e-4 * ghz_state().amps)],
}


@pytest.mark.parametrize("make", REFERENCE_STATES.values(), ids=REFERENCE_STATES.keys())
def test_sweep_matches_the_reference_route(make):
    for st in make():
        f, _ = optimal_lu_fidelity(st, restarts=8, seed=19)
        assert abs(f - reference_lu_fidelity(st, restarts=8, seed=19)) <= 1e-14


def test_sweeps_stop_well_short_of_the_cap(monkeypatch):
    # three polar updates per sweep; a sweep loop kept alive by rounding in
    # the update would run to MAX_SWEEPS
    calls = []
    monkeypatch.setattr(fidelity, "_polar_update",
                        lambda e: calls.append(1) or _polar_update(e))
    rng = np.random.default_rng(15)
    states = [haar_state(rng) for _ in range(32)] + [ghz_state(), w_state(), basis_state("000")]
    sweeps = []
    for st in states:
        calls.clear()
        optimal_lu_fidelity(st, restarts=8, seed=16)
        sweeps.append(len(calls) // 3)
    assert max(sweeps) <= MAX_SWEEPS // 4, sweeps
