"""Optimal single-copy distillation of GHZ states from pure three-qubit states.

Classification of three-qubit entanglement, the two-term product
decomposition of GHZ-class states, the optimal one-successful-branch
distillation protocol with explicit local POVMs, Monte Carlo simulation,
monotonicity audits and the best local-unitary GHZ approximation.
"""
from .decomposition import (
    EntanglementClass,
    ProductDecomposition,
    classification_evidence,
    classify,
    decompose,
    dual_basis,
    reconstruct,
)
from .fidelity import LocalUnitaryTriple, ghz_fidelity, optimal_lu_fidelity
from .monotone import (
    MonotoneReport,
    audit_povm,
    complete_pair,
    diagonal_family_audit,
    random_povm_pair,
    scan_diagonal_family,
)
from .simulate import (
    SimulationReport,
    exact_branch_probability,
    run_protocol,
)
from .solver import (
    OsbpSolution,
    PovmTriple,
    TwoSiteClosedForm,
    build_povms,
    closed_form_one_site,
    closed_form_two_sites,
    grid_search_probability,
    objective,
    optimal_probability,
    optimal_probability_value,
)
from .tensor import (
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

__version__ = "0.1.0"

__all__ = [
    "EntanglementClass",
    "LocalUnitaryTriple",
    "MonotoneReport",
    "OsbpSolution",
    "PovmTriple",
    "ProductDecomposition",
    "SimulationReport",
    "State3Q",
    "TwoSiteClosedForm",
    "apply_local",
    "audit_povm",
    "basis_state",
    "build_povms",
    "classification_evidence",
    "classify",
    "closed_form_one_site",
    "complete_pair",
    "closed_form_two_sites",
    "decompose",
    "diagonal_family_audit",
    "dual_basis",
    "exact_branch_probability",
    "ghz_fidelity",
    "ghz_state",
    "grid_search_probability",
    "normalize",
    "numeric_rank",
    "objective",
    "optimal_lu_fidelity",
    "optimal_probability",
    "optimal_probability_value",
    "overlap",
    "random_povm_pair",
    "reconstruct",
    "reduced_density",
    "run_protocol",
    "scan_diagonal_family",
    "w_state",
]
