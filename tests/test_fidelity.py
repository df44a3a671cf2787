import numpy as np
import pytest

from ghzdistill import (
    decompose,
    ghz_fidelity,
    ghz_state,
    optimal_lu_fidelity,
    optimal_probability_value,
    w_state,
)
from ghzdistill.fidelity import _fidelity_and_grad, sampled_fidelity_bound, su2, zyz_angles
from ghzdistill.sampling import (
    apply_local_unitaries,
    haar_state,
    haar_unitary,
    random_local_unitaries,
)
from ghzdistill.tensor import basis_state
from helpers import random_ghz_state


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
