import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ghzdistill import (
    PovmTriple,
    apply_local,
    build_povms,
    decompose,
    ghz_state,
    normalize,
    optimal_probability,
    run_protocol,
)
from ghzdistill.errors import InvariantViolationError
from ghzdistill.simulate import trial_uniforms
from ghzdistill.tensor import basis_state, fidelity_with
from helpers import exact_branch_probability, psi_b, random_ghz_state
from oracles import sample_branch

_EYE = np.eye(2, dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def identity_triple() -> PovmTriple:
    z = np.zeros((2, 2), dtype=complex)
    return PovmTriple(_EYE, z, _EYE, z, _EYE, z)


class StubRng:
    """Deterministic stand-in for a Generator: replays fixed uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def optimal_triple(state):
    d = decompose(state)
    return build_povms(d, optimal_probability(d))


# -------------------------------------------------------------- sample_branch

def test_sample_branch_projective_on_ghz():
    counts = {0: 0, 1: 0}
    rng = np.random.default_rng(0)
    for _ in range(400):
        outcome, post, p = sample_branch(ghz_state(), (_P0, _P1), "A", rng)
        counts[outcome] += 1
        assert p == pytest.approx(0.5, abs=1e-12)
        target = basis_state("000") if outcome == 0 else basis_state("111")
        assert fidelity_with(post, target) == pytest.approx(1.0, abs=1e-12)
    assert 130 < counts[0] < 270   # ~Binomial(400, 1/2)


def test_sample_branch_trivial_povm():
    pair = (_EYE / np.sqrt(2.0), _EYE / np.sqrt(2.0))
    for u in (0.1, 0.9):
        outcome, post, p = sample_branch(psi_b(), pair, "B", StubRng([u]))
        assert outcome == (0 if u < 0.5 else 1)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert fidelity_with(post, psi_b()) == pytest.approx(1.0, abs=1e-12)


def test_sample_branch_optimal_claire_on_psi_b():
    t = optimal_triple(psi_b())
    outcome, post, p = sample_branch(psi_b(), (t.success_c, t.failure_c), "C",
                                     StubRng([0.399]))
    assert outcome == 0
    assert p == pytest.approx(0.4, abs=1e-10)
    # Alice and Bob are trivial for this state, so Claire's success alone
    # already leaves the GHZ state
    assert fidelity_with(post, ghz_state()) == pytest.approx(1.0, abs=1e-10)
    outcome, _, p = sample_branch(psi_b(), (t.success_c, t.failure_c), "C",
                                  StubRng([0.401]))
    assert outcome == 1
    assert p == pytest.approx(0.6, abs=1e-10)


def test_sample_branch_rejects_incomplete_pair():
    with pytest.raises(ValueError):
        sample_branch(ghz_state(), (_P0, _P0), "A", StubRng([0.5]))


# --------------------------------------------------------------- run_protocol

def test_run_protocol_ghz_identity():
    rep = run_protocol(ghz_state(), identity_triple(), 1000, 0)
    assert rep.successes == 1000
    assert rep.success_rate == 1.0
    assert rep.mean_success_fidelity == pytest.approx(1.0, abs=1e-12)


def test_run_protocol_psi_b_statistics():
    t = optimal_triple(psi_b())
    trials = 100_000
    rep = run_protocol(psi_b(), t, trials, 42)
    sigma = np.sqrt(0.4 * 0.6 / trials)
    assert abs(rep.success_rate - 0.4) < 4 * sigma
    assert rep.mean_success_fidelity >= 1.0 - 1e-9


def test_run_protocol_reproducible():
    t = optimal_triple(psi_b())
    assert run_protocol(psi_b(), t, 20_000, 7) == run_protocol(psi_b(), t, 20_000, 7)
    assert run_protocol(psi_b(), t, 20_000, 7) != run_protocol(psi_b(), t, 20_000, 8)


def test_run_protocol_matches_sequential_sampling():
    rng = np.random.default_rng(5)
    st = random_ghz_state(rng)
    t = optimal_triple(st)
    trials, seed = 300, 11
    rep = run_protocol(st, t, trials, seed)
    u = trial_uniforms(seed, trials)
    successes = 0
    for i in range(trials):
        current, ok = st, True
        for j, (succ, fail, party) in enumerate(t.pairs()):
            outcome, post, _ = sample_branch(current, (succ, fail), party,
                                             StubRng([u[i, j]]))
            if outcome != 0:
                ok = False
                break
            current = post
        successes += ok
    assert successes == rep.successes


def _explicit_count(state, triple, u):
    """Successes by a per-row loop over the uniform block, with the
    conditional thresholds computed party by party (underflow rule included)."""
    thresholds, current = [], state
    for succ, _, party in triple.pairs():
        ops = [_EYE, _EYE, _EYE]
        ops["ABC".index(party)] = succ
        raw, p = apply_local(current, *ops)
        thresholds.append(0.0 if p < 1e-14 else 1.0 if 1.0 - p < 1e-14 else p)
        if thresholds[-1] == 0.0:
            break
        current = normalize(raw)
    thresholds += [0.0] * (3 - len(thresholds))
    count = 0
    for row in u:
        count += all(row[j] < thresholds[j] for j in range(3))
    return count, thresholds


def test_run_protocol_count_matches_a_per_row_loop():
    z = np.zeros((2, 2), dtype=complex)
    rng = np.random.default_rng(8)
    cases = [
        (ghz_state(), identity_triple()),                                # 1, 1, 1
        (ghz_state(), PovmTriple(_P0, _P1, _EYE, z, _EYE, z)),           # 1/2, 1, 1
        (basis_state("000"), PovmTriple(_EYE, z, _EYE, z, _P1, _P0)),    # 1, 1, 0
        (basis_state("111"), PovmTriple(_P0, _P1, _EYE, z, _EYE, z)),    # 0, -, -
        (psi_b(), optimal_triple(psi_b())),
        *((st, optimal_triple(st)) for st in (random_ghz_state(rng) for _ in range(3))),
    ]
    seen = set()
    for k, (st, triple) in enumerate(cases):
        trials, seed = 2000, 100 + k
        count, thresholds = _explicit_count(st, triple, trial_uniforms(seed, trials))
        seen.update(thresholds)
        assert run_protocol(st, triple, trials, seed).successes == count
    assert {0.0, 1.0} <= seen


def test_run_protocol_input_is_complete_by_construction():
    # run_protocol relies on PovmTriple for completeness: an incomplete pair
    # cannot be built, and a built one cannot be changed afterwards
    z = np.zeros((2, 2), dtype=complex)
    with pytest.raises(InvariantViolationError):
        PovmTriple(_P0, z, _EYE, z, _EYE, z)
    t = identity_triple()
    with pytest.raises(ValueError):
        t.success_a[0, 0] = 0.5


def test_run_protocol_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_protocol(ghz_state(), identity_triple(), 0, 0)


# ------------------------------------------------- exact branch probability

def test_exact_probability_ghz_identity():
    assert exact_branch_probability(ghz_state(), identity_triple()) == pytest.approx(1.0, abs=1e-12)


def test_exact_probability_psi_b():
    t = optimal_triple(psi_b())
    assert exact_branch_probability(psi_b(), t) == pytest.approx(0.4, abs=1e-10)


def test_exact_probability_projector():
    t = PovmTriple(_P0, _P1, _EYE, np.zeros((2, 2)), _EYE, np.zeros((2, 2)))
    assert exact_branch_probability(ghz_state(), t) == pytest.approx(0.5, abs=1e-12)


def test_exact_probability_matches_optimum_random():
    rng = np.random.default_rng(6)
    for _ in range(5):
        st = random_ghz_state(rng)
        d = decompose(st)
        sol = optimal_probability(d)
        t = build_povms(d, sol)
        p = exact_branch_probability(st, t)
        assert abs(p - 2.0 * (sol.alpha1 * sol.beta1 * sol.gamma1 * d.mu1) ** 2) < 1e-10


def test_measurement_order_invariance():
    rng = np.random.default_rng(7)
    st = random_ghz_state(rng)
    t = optimal_triple(st)
    ops = {"A": t.success_a, "B": t.success_b, "C": t.success_c}
    joint = exact_branch_probability(st, t)
    for order in itertools.permutations("ABC"):
        current, prob = st, 1.0
        for party in order:
            sel = [_EYE, _EYE, _EYE]
            sel["ABC".index(party)] = ops[party]
            raw, p = apply_local(current, *sel)
            prob *= p
            if p > 1e-18:
                current = normalize(raw)
        assert abs(prob - joint) < 1e-12


def test_monte_carlo_consistency_random_states():
    rng = np.random.default_rng(8)
    trials = 20_000
    bad = 0
    for k in range(50):
        st = random_ghz_state(rng)
        t = optimal_triple(st)
        p = exact_branch_probability(st, t)
        rep = run_protocol(st, t, trials, 1000 + k)
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / trials)
        if abs(rep.success_rate - p) > 4 * sigma:
            bad += 1
    assert bad <= 2
