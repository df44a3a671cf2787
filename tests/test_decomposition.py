import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdistill import (
    EntanglementClass,
    build_povms,
    classification_evidence,
    classify,
    decompose,
    ghz_state,
    normalize,
    optimal_probability,
    reconstruct,
    w_state,
)
from ghzdistill import decomposition
from ghzdistill.errors import InvariantViolationError, NotGHZClassError
from ghzdistill.sampling import apply_local_unitaries, haar_state, random_local_unitaries
from ghzdistill.tensor import fidelity_with, spectral_ranks
from helpers import make_decomposition, psi_b, random_ghz_state
from oracles import reduced_density

SQ2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------- classify

def test_classify_ghz():
    assert classify(ghz_state()) is EntanglementClass.GHZ_CLASS


def test_classify_w():
    assert classify(w_state()) is EntanglementClass.W_CLASS


def test_classify_biseparable_a():
    st = normalize([1, 0, 0, 1, 0, 0, 0, 0])   # |0>(|00>+|11>)
    assert classify(st) is EntanglementClass.BISEP_A_BC


def test_classify_biseparable_b_and_c():
    assert classify(normalize([1, 0, 0, 0, 0, 1, 0, 0])) is EntanglementClass.BISEP_B_AC
    assert classify(normalize([1, 0, 0, 0, 0, 0, 1, 0])) is EntanglementClass.BISEP_C_AB


def test_classify_fully_product():
    assert classify(normalize([1, 0, 0, 0, 0, 0, 0, 0])) is EntanglementClass.FULLY_PRODUCT


def test_classify_random_ghz_class_is_generic():
    rng = np.random.default_rng(0)
    from ghzdistill.sampling import haar_state
    labels = {classify(haar_state(rng)) for _ in range(50)}
    assert labels == {EntanglementClass.GHZ_CLASS}


def test_classify_stable_under_noise():
    rng = np.random.default_rng(1)
    for st in (ghz_state(), w_state(), psi_b(), random_ghz_state(rng)):
        noisy = normalize(st.amps + 1e-13 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
        assert classify(noisy) is classify(st)


def test_classify_lu_invariant():
    rng = np.random.default_rng(2)
    for st in (ghz_state(), w_state(), psi_b()):
        rotated = apply_local_unitaries(st, *random_local_unitaries(rng))
        assert classify(rotated) is classify(st)


# --------------------------------------------------------------- decompose

def test_decompose_ghz():
    d = decompose(ghz_state())
    assert d.mu1 == pytest.approx(SQ2, abs=1e-12)
    assert d.mu2 == pytest.approx(SQ2, abs=1e-12)
    assert d.phi == pytest.approx(0.0, abs=1e-12)
    assert max(d.sa, d.sb, d.sc) < 1e-12
    for v, expected in ((d.a1, [1, 0]), (d.a2, [0, 1]), (d.b1, [1, 0]),
                        (d.b2, [0, 1]), (d.c1, [1, 0]), (d.c2, [0, 1])):
        assert_allclose(v, expected, atol=1e-12)


def test_decompose_psi_b():
    d = decompose(psi_b())
    assert d.mu1 == pytest.approx(SQ2, abs=1e-12)
    assert d.mu2 == pytest.approx(SQ2, abs=1e-12)
    assert d.sa < 1e-12 and d.sb < 1e-12
    assert d.sc == pytest.approx(0.6, abs=1e-12)
    assert d.phi == pytest.approx(0.0, abs=1e-10)
    assert_allclose(d.c1, [1, 0], atol=1e-12)
    assert_allclose(d.c2, [0.6, 0.8], atol=1e-12)


def test_decompose_orthogonal_terms():
    st = normalize([np.sqrt(2 / 3), 0, 0, 0, 0, 0, 0, np.sqrt(1 / 3)])
    d = decompose(st)
    assert d.mu1 == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    assert d.mu2 == pytest.approx(np.sqrt(1 / 3), abs=1e-12)
    assert max(d.sa, d.sb, d.sc) < 1e-12


def test_decompose_rejects_w_class():
    with pytest.raises(NotGHZClassError):
        decompose(w_state())


def test_decompose_rejects_biseparable():
    with pytest.raises(NotGHZClassError):
        decompose(normalize([1, 0, 0, 1, 0, 0, 0, 0]))


@pytest.mark.parametrize("amps", [
    [0, 1, 1, 0, 1, 0, 0, 0],       # W
    [1, 0, 0, 0, 0, 0, 0, 0],       # |000>
    [1, 0, 0, 1, 0, 0, 0, 0],       # A|BC
    [1, 0, 0, 0, 0, 1, 0, 0],       # B|AC
    [1, 0, 0, 0, 0, 0, 1, 0],       # C|AB
], ids=["W", "product", "A|BC", "B|AC", "C|AB"])
def test_not_ghz_error_carries_the_class(amps):
    st = normalize(amps)
    with pytest.raises(NotGHZClassError) as info:
        decompose(st)
    assert info.value.cls is classify(st)


def test_evidence_roots_only_when_the_quadratic_decides():
    assert classification_evidence(normalize([1, 0, 0, 1, 0, 0, 0, 0]))["roots"] is None
    for st in (ghz_state(), w_state()):
        r1, r2 = classification_evidence(st)["roots"]
        assert np.linalg.norm(r1) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(r2) == pytest.approx(1.0, abs=1e-15)


def _per_party_ranks(state, tol):
    # the rank of each party's partial trace, one matrix at a time
    return {p: int(spectral_ranks(np.linalg.eigvalsh(reduced_density(state, p)), tol))
            for p in "ABC"}


def test_evidence_ranks_match_per_party_numeric_rank_on_haar_states():
    rng = np.random.default_rng(21)
    for _ in range(200):
        st = haar_state(rng)
        for tol in (1e-14, 1e-10):
            assert classification_evidence(st, tol)["ranks"] == _per_party_ranks(st, tol)


@pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-10, 1e-8])
def test_evidence_ranks_match_per_party_numeric_rank_on_the_rank_cut(tol):
    # |000> + 10^-k |111> has eigenvalue ratio ~10^-2k in every reduction, so
    # for each tol some k sits on the cut, where only equal bits agree
    rng = np.random.default_rng(22)
    for k in range(1, 10):
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[7] = 1.0, 10.0 ** -k
        canonical = normalize(amps)
        for st in (canonical,
                   *(apply_local_unitaries(canonical, *random_local_unitaries(rng))
                     for _ in range(4))):
            ranks = classification_evidence(st, tol)["ranks"]
            assert ranks == _per_party_ranks(st, tol)
            assert all(type(r) is int for r in ranks.values())


def test_vanishing_quadratic_retries_the_ranks_at_the_coarse_cut():
    # at tol 1e-20 every local rank is 2, but the product-vector quadratic
    # vanishes (largest coefficient 1e-14 against the 1e-13 x scale cut);
    # only the coarse cut max(tol x 1e3, 1e-7) then decides the class
    st = normalize([1, 0, 0, 0, 0, 1e-7, 1e-7, 0])
    assert _per_party_ranks(st, 1e-20) == {"A": 2, "B": 2, "C": 2}
    ev = classification_evidence(st, 1e-20)
    assert ev["class"] is EntanglementClass.FULLY_PRODUCT
    assert ev["ranks"] == {"A": 1, "B": 1, "C": 1}
    with pytest.raises(NotGHZClassError) as info:
        decompose(st, 1e-20)
    assert info.value.cls is EntanglementClass.FULLY_PRODUCT


def test_decompose_solves_the_quadratic_once(monkeypatch):
    calls = []
    original = decomposition._homogeneous_roots

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decomposition, "_homogeneous_roots", counted)
    rng = np.random.default_rng(5)
    for st in (ghz_state(), psi_b(), random_ghz_state(rng)):
        calls.clear()
        decompose(st)
        assert len(calls) == 1


def test_roundtrip_examples():
    for st in (ghz_state(), psi_b()):
        assert fidelity_with(reconstruct(decompose(st)), st) >= 1.0 - 1e-10


def test_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = random_ghz_state(rng)
        assert fidelity_with(reconstruct(decompose(st)), st) >= 1.0 - 1e-9


def test_constructed_decomposition_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = make_decomposition(rng)
        d2 = decompose(reconstruct(d))
        assert d2.mu1 == pytest.approx(d.mu1, abs=1e-10)
        assert d2.mu2 == pytest.approx(d.mu2, abs=1e-10)
        assert d2.sa == pytest.approx(d.sa, abs=1e-10)
        assert d2.sb == pytest.approx(d.sb, abs=1e-10)
        assert d2.sc == pytest.approx(d.sc, abs=1e-10)
        dphi = abs(d2.phi - d.phi)
        assert min(dphi, 2 * np.pi - dphi) < 1e-9


def test_lu_covariance_of_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = random_ghz_state(rng)
        d0 = decompose(st)
        d1 = decompose(apply_local_unitaries(st, *random_local_unitaries(rng)))
        assert abs(d0.mu1 - d1.mu1) < 1e-8
        assert abs(d0.mu2 - d1.mu2) < 1e-8
        assert abs(d0.sa - d1.sa) < 1e-8
        assert abs(d0.sb - d1.sb) < 1e-8
        assert abs(d0.sc - d1.sc) < 1e-8
        dphi = abs(d0.phi - d1.phi)
        assert min(dphi, 2 * np.pi - dphi) < 1e-8


def test_weights_need_a_finite_ratio():
    # the solver brackets x* by mu1/mu2; a subnormal mu2 makes it infinite
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    fields = dict(mu1=1.0, phi=0.0, a1=e0, a2=e1, b1=e0, b2=e1, c1=e0, c2=e1,
                  sa=0.0, sb=0.0, sc=0.0)
    decomposition.ProductDecomposition(mu2=1e-300, **fields)
    with pytest.raises(InvariantViolationError):
        decomposition.ProductDecomposition(mu2=1e-320, **fields)


@pytest.mark.parametrize("field,value", [
    ("phi", np.nan), ("a1", [np.nan, 0.0]), ("c2", [0.0, 1j * np.nan]),
    ("mu1", np.nan), ("sb", np.nan), ("phi", np.inf), ("phi", -np.inf),
])
def test_nan_field_is_an_invariant_error(field, value):
    # every check of the decomposition is written so that a NaN fails it
    d = make_decomposition(np.random.default_rng(24))
    with pytest.raises(InvariantViolationError):
        dataclasses.replace(d, **{field: value})


def test_stored_overlap_must_match_vectors_to_povm_precision():
    # build_povms makes the failure operator exact for the stored overlap and
    # checks completeness to 1e-10, which needs the stored and the vectors'
    # overlaps to agree to about 1e-11; a stored overlap further off is
    # refused when the decomposition is built
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = make_decomposition(rng)
        for shift in (3e-11, -3e-11):
            with pytest.raises(InvariantViolationError, match="stored overlap sa"):
                dataclasses.replace(d, sa=d.sa + shift)
        for shift in (0.99e-11, -0.99e-11):
            moved = dataclasses.replace(d, sa=d.sa + shift)
            build_povms(moved, optimal_probability(moved))


def test_decompose_deterministic():
    st = psi_b()
    d1, d2 = decompose(st), decompose(st)
    assert d1.mu1 == d2.mu1 and d1.phi == d2.phi
    assert np.array_equal(d1.a1, d2.a1) and np.array_equal(d1.c2, d2.c2)
