import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdistill import (
    LocalUnitaryTriple,
    PovmTriple,
    ProductDecomposition,
    State3Q,
    apply_local,
    basis_state,
    ghz_state,
    normalize,
    numeric_rank,
    overlap,
    reduced_density,
    w_state,
)
from ghzdistill.errors import InvariantViolationError, ZeroVectorError
from ghzdistill.sampling import (
    haar_local_vector,
    haar_state,
    haar_unitary,
    vector_with_overlap,
)

SQ2 = 1.0 / np.sqrt(2.0)


def test_normalize_scaling():
    st = normalize([2, 0, 0, 0, 0, 0, 0, 0])
    assert_allclose(st.amps, basis_state("000").amps)


def test_normalize_ghz():
    st = normalize([1, 0, 0, 0, 0, 0, 0, 1])
    assert_allclose(st.amps, ghz_state().amps, atol=1e-15)


def test_normalize_zero_vector():
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(8))


def test_state_rejects_unnormalized():
    with pytest.raises(InvariantViolationError):
        State3Q(np.ones(8))


def test_state_amps_read_only():
    st = ghz_state()
    with pytest.raises(ValueError):
        st.amps[0] = 1.0


def test_ghz_state_is_one_shared_read_only_value():
    st = ghz_state()
    assert st is ghz_state()
    assert not st.amps.flags.writeable
    assert_allclose(st.amps, [SQ2, 0, 0, 0, 0, 0, 0, SQ2], rtol=0, atol=0)


def _held_arrays(obj):
    return {name: v for name, v in vars(obj).items() if isinstance(v, np.ndarray)}


def test_held_results_own_read_only_copies_of_their_arrays():
    # each array field is one owned, read-only array (base None), not a
    # view of a private copy, and writing the caller's input later leaves
    # it unchanged
    rng = np.random.default_rng(4)
    a1, b1, c1 = (haar_local_vector(rng) for _ in range(3))
    vectors = dict(a1=a1, a2=vector_with_overlap(rng, a1, 0.0),
                   b1=b1, b2=vector_with_overlap(rng, b1, 0.0),
                   c1=c1, c2=vector_with_overlap(rng, c1, 0.0))
    eye, z = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    u = haar_unitary(rng)
    built = [
        (State3Q, dict(amps=haar_state(rng).amps.copy())),
        (State3Q, dict(amps=haar_state(rng).amps.reshape(2, 2, 2).copy())),
        (State3Q, dict(amps=haar_state(rng).amps.tolist())),
        (ProductDecomposition, dict(mu1=SQ2, mu2=SQ2, phi=0.0, sa=0.0, sb=0.0, sc=0.0,
                                    **vectors)),
        (PovmTriple, dict(success_a=eye.copy(), failure_a=z.copy(), success_b=eye.ravel(),
                          failure_b=z.ravel(), success_c=eye.tolist(), failure_c=z.copy())),
        (LocalUnitaryTriple, dict(ua=u.copy(), ub=u.ravel(), uc=u.tolist(),
                                  angles=np.zeros(9))),
    ]
    for cls, fields in built:
        obj = cls(**fields)
        held = _held_arrays(obj)
        assert set(held) == {k for k, v in fields.items() if not isinstance(v, float)}
        before = {k: v.copy() for k, v in held.items()}
        for name, arr in held.items():
            assert arr.base is None, (cls.__name__, name)
            assert not arr.flags.writeable, (cls.__name__, name)
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value[...] = 7.0
        for name, arr in held.items():
            assert np.array_equal(arr, before[name]), (cls.__name__, name)


def test_reduced_density_ghz_single():
    assert_allclose(reduced_density(ghz_state(), "A"), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_product_state():
    assert_allclose(reduced_density(basis_state("000"), "A"),
                    np.diag([1.0, 0.0]), atol=1e-15)


def test_reduced_density_ghz_pair():
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[3, 3] = 0.5
    assert_allclose(reduced_density(ghz_state(), "BC"), rho, atol=1e-15)


def test_reduced_density_rejects_bad_parties():
    with pytest.raises(ValueError):
        reduced_density(ghz_state(), "ABC")
    with pytest.raises(ValueError):
        reduced_density(ghz_state(), "")
    with pytest.raises(ValueError):
        reduced_density(ghz_state(), "AD")


@pytest.mark.parametrize("diag,expected", [
    ([0.5, 0.5], 2),
    ([1.0, 0.0], 1),
    ([1.0 - 1e-14, 1e-14], 1),
])
def test_numeric_rank(diag, expected):
    assert numeric_rank(np.diag(diag).astype(complex), 1e-10) == expected


def test_apply_local_identity():
    eye = np.eye(2, dtype=complex)
    raw, p = apply_local(ghz_state(), eye, eye, eye)
    assert_allclose(raw, ghz_state().amps)
    assert p == pytest.approx(1.0, abs=1e-14)


def test_apply_local_projector():
    eye = np.eye(2, dtype=complex)
    raw, p = apply_local(ghz_state(), np.diag([1.0, 0.0]).astype(complex), eye, eye)
    expected = np.zeros(8, dtype=complex)
    expected[0] = SQ2
    assert_allclose(raw, expected)
    assert p == pytest.approx(0.5, abs=1e-14)


def test_apply_local_scalar():
    half = np.eye(2, dtype=complex) / np.sqrt(2.0)
    raw, p = apply_local(ghz_state(), half, half, half)
    assert_allclose(raw, ghz_state().amps / (2.0 * np.sqrt(2.0)))
    assert p == pytest.approx(1.0 / 8.0, abs=1e-14)


def test_overlap_examples():
    assert overlap(ghz_state(), ghz_state()) == pytest.approx(1.0, abs=1e-14)
    assert overlap(ghz_state(), w_state()) == pytest.approx(0.0, abs=1e-14)
    assert overlap(ghz_state(), basis_state("000")) == pytest.approx(SQ2, abs=1e-14)


def test_reduction_trace_and_psd_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        st = haar_state(rng)
        parties = ["A", "B", "C", "AB", "AC", "BC"][rng.integers(6)]
        rho = reduced_density(st, parties)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_born_rule_consistency_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        st = haar_state(rng)
        ops = [haar_unitary(rng) * rng.uniform(0.2, 1.0) for _ in range(3)]
        raw, p = apply_local(st, *ops)
        assert abs(p - np.sum(np.abs(raw) ** 2)) < 1e-12


def test_reduction_covariance_under_local_unitary():
    rng = np.random.default_rng(3)
    eye = np.eye(2, dtype=complex)
    for _ in range(20):
        st = haar_state(rng)
        u = haar_unitary(rng)
        raw, _ = apply_local(st, u, eye, eye)
        rho_rotated = reduced_density(normalize(raw), "A")
        rho = reduced_density(st, "A")
        assert np.max(np.abs(rho_rotated - u @ rho @ u.conj().T)) < 1e-12
