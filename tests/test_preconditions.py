"""Every out-of-domain argument to a public call raises PreconditionViolatedError."""
import numpy as np
import pytest

from ghzdistill import (
    PovmTriple,
    audit_povm,
    basis_state,
    classification_evidence,
    classify,
    decompose,
    diagonal_family_audit,
    ghz_state,
    optimal_lu_fidelity,
    random_povm_pair,
    run_protocol,
    scan_diagonal_family,
)
from ghzdistill.errors import GhzDistillError, PreconditionViolatedError
from ghzdistill.fidelity import sampled_fidelity_bound
from ghzdistill.sampling import vector_with_overlap
from ghzdistill.solver import grid_search_probability
from helpers import psi_b

_EYE, _ZERO = np.eye(2), np.zeros((2, 2))
_IDENTITY = PovmTriple(_EYE, _ZERO, _EYE, _ZERO, _EYE, _ZERO)

CASES = {
    "basis_state bits": lambda: basis_state("01"),
    "classification_evidence tol 0": lambda: classification_evidence(ghz_state(), 0.0),
    "classification_evidence tol -1": lambda: classification_evidence(ghz_state(), -1.0),
    "classification_evidence tol nan": lambda: classification_evidence(ghz_state(), np.nan),
    "classification_evidence tol inf": lambda: classification_evidence(ghz_state(), np.inf),
    "classification_evidence tol 1": lambda: classification_evidence(ghz_state(), 1.0),
    "classify tol nan": lambda: classify(ghz_state(), np.nan),
    "classify tol 5": lambda: classify(ghz_state(), 5.0),
    "decompose tol inf": lambda: decompose(ghz_state(), np.inf),
    "vector_with_overlap s 1": lambda: vector_with_overlap(
        np.random.default_rng(0), np.array([1.0, 0.0]), 1.0),
    "run_protocol trials 0": lambda: run_protocol(ghz_state(), _IDENTITY, 0, 0),
    "run_protocol trials 2.5": lambda: run_protocol(ghz_state(), _IDENTITY, 2.5, 0),
    "run_protocol seed -1": lambda: run_protocol(ghz_state(), _IDENTITY, 10, -1),
    "run_protocol seed 1.5": lambda: run_protocol(ghz_state(), _IDENTITY, 10, 1.5),
    "run_protocol trials True": lambda: run_protocol(ghz_state(), _IDENTITY, True, 0),
    "run_protocol seed False": lambda: run_protocol(ghz_state(), _IDENTITY, 10, False),
    "scan_diagonal_family steps 2": lambda: scan_diagonal_family(ghz_state(), 2),
    "scan_diagonal_family steps 3.5": lambda: scan_diagonal_family(ghz_state(), 3.5),
    "optimal_lu_fidelity restarts 0": lambda: optimal_lu_fidelity(ghz_state(), restarts=0),
    "optimal_lu_fidelity restarts 2.5": lambda: optimal_lu_fidelity(ghz_state(), restarts=2.5),
    "optimal_lu_fidelity restarts True": lambda: optimal_lu_fidelity(ghz_state(), restarts=True),
    "optimal_lu_fidelity seed -1": lambda: optimal_lu_fidelity(ghz_state(), seed=-1),
    "optimal_lu_fidelity seed 1.5": lambda: optimal_lu_fidelity(ghz_state(), seed=1.5),
    "diagonal_family_audit x above 1": lambda: diagonal_family_audit(psi_b(), 1.1),
    "diagonal_family_audit x below range": lambda: diagonal_family_audit(psi_b(), -0.2),
    "audit_povm party D": lambda: audit_povm(ghz_state(), random_povm_pair(0), "D"),
    "audit_povm party AB": lambda: audit_povm(ghz_state(), random_povm_pair(0), "AB"),
    "audit_povm party empty": lambda: audit_povm(ghz_state(), random_povm_pair(0), ""),
    "audit_povm party list": lambda: audit_povm(ghz_state(), random_povm_pair(0), ["A"]),
    "audit_povm tol 0 with d": lambda: audit_povm(
        ghz_state(), random_povm_pair(0), "A", d=decompose(ghz_state()), tol=0.0),
    "grid_search_probability points 0": lambda: grid_search_probability(
        decompose(ghz_state()), points=0),
    "grid_search_probability points 1.5": lambda: grid_search_probability(
        decompose(ghz_state()), points=1.5),
    "random_povm_pair seed -1": lambda: random_povm_pair(-1),
    "sampled_fidelity_bound samples 0": lambda: sampled_fidelity_bound(ghz_state(), 0),
    "sampled_fidelity_bound samples 2.5": lambda: sampled_fidelity_bound(ghz_state(), 2.5),
}


def test_precondition_error_is_a_package_error_and_a_value_error():
    assert issubclass(PreconditionViolatedError, GhzDistillError)
    assert issubclass(PreconditionViolatedError, ValueError)


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_raises_precondition_error(call):
    with pytest.raises(PreconditionViolatedError):
        call()
