import math
import warnings

import numpy as np
import pytest

from ghzdistill import (
    audit_povm,
    complete_pair,
    decompose,
    diagonal_family_audit,
    ghz_state,
    normalize,
    optimal_probability_value,
    random_povm_pair,
    scan_diagonal_family,
)
from ghzdistill import decomposition, monotone
from ghzdistill.errors import NotGHZClassError, PreconditionViolatedError
from ghzdistill.monotone import _diagonal_pair
from ghzdistill.solver import _completeness_residual, _entries
from ghzdistill.sampling import apply_local_unitaries, random_local_unitaries
from helpers import make_decomposition, psi_b, random_ghz_state
from oracles import branch_by_decomposing
from ghzdistill.decomposition import reconstruct

_EYE = np.eye(2, dtype=complex)


# ------------------------------------------------------------ POVM sampling

def test_complete_pair_trivial_members():
    n1, n2 = complete_pair(_EYE / np.sqrt(2.0))
    np.testing.assert_allclose(n2, _EYE / np.sqrt(2.0), atol=1e-12)
    n1, n2 = complete_pair(np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(n2, np.diag([0.0, 1.0]), atol=1e-12)


def test_complete_pair_rejects_a_non_contraction():
    with pytest.raises(PreconditionViolatedError):
        complete_pair(2.0 * _EYE)


def test_random_pair_complete_for_any_seed():
    for seed in range(25):
        n1, n2 = random_povm_pair(seed)
        comp = n1.conj().T @ n1 + n2.conj().T @ n2
        assert np.max(np.abs(comp - _EYE)) < 1e-12


def test_random_pair_deterministic():
    a = random_povm_pair(123)
    b = random_povm_pair(123)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ------------------------------------------------------------------- audits

def test_trivial_povm_saturates():
    pair = (_EYE / np.sqrt(2.0), _EYE / np.sqrt(2.0))
    rep = audit_povm(ghz_state(), pair, "A")
    assert abs(rep.slack) < 1e-10
    assert all(b.probability == pytest.approx(0.5, abs=1e-12) for b in rep.branches)


def test_projective_povm_on_ghz_destroys_everything():
    pair = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    rep = audit_povm(ghz_state(), pair, "A")
    assert rep.p_before == pytest.approx(1.0, abs=1e-10)
    assert rep.weighted_after == pytest.approx(0.0, abs=1e-12)
    assert rep.slack == pytest.approx(1.0, abs=1e-10)
    assert [b.label for b in rep.branches] == ["FullyProduct", "FullyProduct"]


def test_audit_rejects_an_incomplete_pair():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionViolatedError):
        audit_povm(ghz_state(), (p0, p0), "A")


@pytest.mark.parametrize("slot", range(8))
def test_audit_rejects_a_nan_in_any_entry_of_the_pair(slot):
    # a NaN in m0[0, 1] reaches only the (1, 1) and (0, 1) entries of the
    # residual, which max() would drop after a finite (0, 0) entry
    pair = np.stack([_EYE, _EYE]) / np.sqrt(2.0)
    pair.reshape(8)[slot] = np.nan
    m0, m1 = pair
    assert math.isnan(_completeness_residual(_entries(m0), _entries(m1)))
    with pytest.raises(PreconditionViolatedError):
        audit_povm(ghz_state(), (m0, m1), "A")


def test_audit_rejects_a_finite_pair_whose_products_overflow():
    # the (0, 1) entry of M^dag M + N^dag N is inf - inf, the diagonal inf
    m0 = np.array([[1e200, 1e200], [0.0, 0.0]], dtype=complex)
    m1 = np.array([[1e200, -1e200], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_completeness_residual(_entries(m0), _entries(m1)))
        with pytest.raises(PreconditionViolatedError):
            audit_povm(ghz_state(), (m0, m1), "A")


def test_audit_decomposes_branches_at_tol():
    # |000> + 1e-6|111> in a random frame is fully product at the default
    # rank tolerance and GHZ class at 1e-14; so are its branches under an
    # invertible local POVM, which the audit must value at the same tol
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = 1.0, 1e-6
    rng = np.random.default_rng(31)
    st = apply_local_unitaries(normalize(amps), *random_local_unitaries(rng))
    pair = random_povm_pair(3)
    p_before = optimal_probability_value(decompose(st, tol=1e-14))
    for party in "ABC":
        for rep in (audit_povm(st, pair, party, tol=1e-14),
                    audit_povm(st, pair, party, p_before=p_before, tol=1e-14)):
            assert rep.p_before == p_before
            assert [b.label for b in rep.branches] == ["GHZClass", "GHZClass"]
            assert all(b.p_value > 0.0 for b in rep.branches)
    with pytest.raises(NotGHZClassError):
        audit_povm(st, pair, "A")


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    st = random_ghz_state(rng)
    for seed in range(5):
        rep = audit_povm(st, random_povm_pair(seed), "C")
        assert abs(sum(b.probability for b in rep.branches) - 1.0) < 1e-10


def test_random_audits_never_negative():
    rng = np.random.default_rng(1)
    seed = 0
    for _ in range(20):
        st = random_ghz_state(rng)
        p_before = optimal_probability_value(decompose(st))
        for party in "ABC":
            rep = audit_povm(st, random_povm_pair(seed), party, p_before=p_before)
            seed += 1
            assert rep.slack >= -1e-7


def test_audit_classifies_each_state_once(monkeypatch):
    calls = []
    original = decomposition.classification_evidence

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    st = random_ghz_state(np.random.default_rng(6))
    pair = random_povm_pair(0)
    d = decompose(st)
    p_before = optimal_probability_value(d)
    monkeypatch.setattr(decomposition, "classification_evidence", counted)
    monkeypatch.setattr(monotone, "classification_evidence", counted)
    rep = audit_povm(st, pair, "A", d=d, p_before=p_before)
    assert [b.label for b in rep.branches] == ["GHZClass", "GHZClass"]
    assert len(calls) == 0          # the branches are valued from d
    rep = audit_povm(st, pair, "A", p_before=p_before)
    assert [b.label for b in rep.branches] == ["GHZClass", "GHZClass"]
    assert len(calls) == 1          # the state is decomposed once


def _assert_branches_match_oracle(st, pair, party, rep):
    for op, b in zip(pair, rep.branches):
        ref = branch_by_decomposing(st, op, party)
        assert b.label == ref.label
        assert b.probability == ref.probability
        assert abs(b.p_value - ref.p_value) <= 1e-14


def test_branch_forms_agree_with_decomposing_each_branch():
    rng = np.random.default_rng(41)
    seed = 100
    for _ in range(20):
        st = random_ghz_state(rng)
        d = decompose(st)
        for party in "ABC":
            pair = random_povm_pair(seed)
            seed += 1
            _assert_branches_match_oracle(st, pair, party, audit_povm(st, pair, party, d=d))
    for st in (psi_b(), reconstruct(make_decomposition(rng, sa=0.0))):
        d = decompose(st)
        lo = 2.0 * d.mu1 ** 2 - 1.0
        for x in np.linspace(lo, 1.0, 9):
            pair = _diagonal_pair(d, float(x))
            _assert_branches_match_oracle(st, pair, "A", diagonal_family_audit(st, float(x), d))
    pair = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    _assert_branches_match_oracle(ghz_state(), pair, "A", audit_povm(ghz_state(), pair, "A"))


def test_audit_refuses_a_non_ghz_parent_also_with_p_before():
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1.0
    w = normalize(amps)
    with pytest.raises(NotGHZClassError):
        audit_povm(w, random_povm_pair(0), "A", p_before=0.5)


# --------------------------------------------------------- diagonal family

def test_diagonal_saturation_point_is_trivial_povm():
    d = decompose(psi_b())
    d1, d2 = _diagonal_pair(d, d.mu1 ** 2)
    np.testing.assert_allclose(d1, _EYE / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(d2, _EYE / np.sqrt(2.0), atol=1e-12)
    rep = diagonal_family_audit(psi_b(), d.mu1 ** 2)
    assert abs(rep.slack) < 1e-10


def test_diagonal_audit_psi_b_interior_point():
    rep = diagonal_family_audit(psi_b(), 0.55)
    assert rep.slack > 1e-6


def test_diagonal_family_balanced():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = make_decomposition(rng, sa=0.0)
        st = reconstruct(d)
        x = rng.uniform(2 * d.mu1 ** 2 - 1, 1.0)
        rep = diagonal_family_audit(st, x)
        for b in rep.branches:
            assert b.probability == pytest.approx(0.5, abs=1e-12)


def test_diagonal_boundary_disentangles_one_weight():
    d = decompose(psi_b())
    lo = 2 * d.mu1 ** 2 - 1
    d1, d2 = _diagonal_pair(d, lo)
    # second diagonal square of the completion vanishes at the low boundary
    # (up to sqrt of the rounding in 2*mu1^2 - 1)
    a2 = d.a2 / np.linalg.norm(d.a2)
    assert abs(np.vdot(a2, d2 @ a2)) < 1e-7
    rep = diagonal_family_audit(psi_b(), lo)
    assert rep.slack >= -1e-10


def test_diagonal_infeasible_x():
    d = decompose(psi_b())
    with pytest.raises(PreconditionViolatedError):
        diagonal_family_audit(psi_b(), 2 * d.mu1 ** 2 - 1.1)
    with pytest.raises(PreconditionViolatedError):
        diagonal_family_audit(psi_b(), 1.1)


def test_diagonal_needs_orthogonal_alice_pair():
    rng = np.random.default_rng(3)
    st = reconstruct(make_decomposition(rng, sa=0.5))
    with pytest.raises(PreconditionViolatedError):
        diagonal_family_audit(st, 0.5)


# -------------------------------------------------------------------- scans

def test_scan_ghz_zero_only_at_half():
    tab = scan_diagonal_family(ghz_state(), 101)
    assert tab[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert tab[-1, 0] == pytest.approx(1.0, abs=1e-12)
    i = int(np.argmin(tab[:, 1]))
    assert tab[i, 0] == pytest.approx(0.5, abs=1e-12)
    assert abs(tab[i, 1]) < 1e-10
    others = np.delete(tab[:, 1], i)
    assert np.all(others > 1e-6)


def test_scan_psi_b_unique_zero():
    tab = scan_diagonal_family(psi_b(), 101)
    assert np.all(tab[:, 1] >= -1e-8)
    i = int(np.argmin(tab[:, 1]))
    assert tab[i, 0] == pytest.approx(0.5, abs=1e-9)


def test_scan_argmin_near_mu1_squared_random():
    rng = np.random.default_rng(4)
    for _ in range(3):
        d = make_decomposition(rng, sa=0.0)
        st = reconstruct(d)
        tab = scan_diagonal_family(st, 101)
        step = tab[1, 0] - tab[0, 0]
        i = int(np.argmin(tab[:, 1]))
        assert abs(tab[i, 0] - d.mu1 ** 2) <= step + 1e-12
        assert np.all(tab[:, 1] >= -1e-8)


def test_scan_with_callers_decomposition_matches_default():
    rng = np.random.default_rng(7)
    for st in (ghz_state(), psi_b(), reconstruct(make_decomposition(rng, sa=0.0))):
        tab = scan_diagonal_family(st, 11, decompose(st))
        assert tab.tobytes() == scan_diagonal_family(st, 11).tobytes()


def test_scan_needs_orthogonal_alice_pair():
    st = reconstruct(make_decomposition(np.random.default_rng(3), sa=0.5))
    with pytest.raises(PreconditionViolatedError):
        scan_diagonal_family(st, 5)


def test_scan_rejects_too_few_steps():
    with pytest.raises(ValueError):
        scan_diagonal_family(ghz_state(), 2)
