"""Property tests at the class boundaries: near W, near product, mu1 = mu2
ties and vanishing overlaps.  Every input either ends in a typed
GhzDistillError or yields POVMs that pass their postconditions.  At the
CLI's input boundary every file ends in a result or in one error line with
a documented exit code."""
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdistill import (
    PovmTriple,
    ProductDecomposition,
    apply_local,
    audit_povm,
    basis_state,
    build_povms,
    decompose,
    ghz_state,
    normalize,
    optimal_probability,
    reconstruct,
    w_state,
)
from ghzdistill.cli import main
from ghzdistill.errors import (
    GhzDistillError, InvariantViolationError, PreconditionViolatedError,
)
from ghzdistill.sampling import apply_local_unitaries, random_local_unitaries
from ghzdistill.solver import U_TOL, _max_objective
from ghzdistill.tensor import fidelity_with
from helpers import make_decomposition
from oracles import bisect_max_objective, dual_basis, reference_sign_change

PROPERTY = settings(derandomize=True, deadline=None, max_examples=75)
SEEDS = st.integers(0, 2**32 - 1)


def in_random_frame(state, seed):
    return apply_local_unitaries(state, *random_local_unitaries(np.random.default_rng(seed)))


def check_pipeline(state, tol=1e-10, must_distill=False):
    """Distill ``state``; a typed refusal passes unless ``must_distill``."""
    try:
        d = decompose(state, tol)
        sol = optimal_probability(d)
        povms = build_povms(d, sol)
    except GhzDistillError:
        assert not must_distill
        return
    raw, p = apply_local(state, povms.success_a, povms.success_b, povms.success_c)
    assert abs(p - sol.p_opt) <= 1e-8
    assert fidelity_with(normalize(raw), ghz_state()) >= 1.0 - 1e-9
    for (succ, fail, _), (v1, v2) in zip(povms.pairs(),
                                         ((d.a1, d.a2), (d.b1, d.b2), (d.c1, d.c2))):
        assert np.max(np.abs(fail - fail.conj().T)) <= 1e-15
        assert np.linalg.eigvalsh(fail)[0] >= -1e-12
        # I - S^dag S is assembled from the dual basis, whose length (1 for
        # an orthonormal pair, ~1/(1 - s^2) near W) scales its rounding
        t1, t2 = dual_basis(v1, v2)
        scale = max(np.vdot(t1, t1).real, np.vdot(t2, t2).real)
        completion = np.eye(2) - succ.conj().T @ succ
        assert np.max(np.abs(fail @ fail - completion)) <= 1e-12 * scale


@PROPERTY
@given(k=st.floats(1.0, 8.0), added=st.sampled_from(["ghz", "111"]), seed=SEEDS)
def test_near_w_distills_or_refuses(k, added, seed):
    extra = ghz_state().amps if added == "ghz" else basis_state("111").amps
    state = in_random_frame(normalize(w_state().amps + 10.0 ** -k * extra), seed)
    check_pipeline(state, must_distill=k <= 3.0)


@PROPERTY
@given(k=st.floats(1.0, 9.0), tol=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8]), seed=SEEDS)
def test_near_product_distills_or_refuses_at_every_tol(k, tol, seed):
    # in a random frame the decomposed overlaps are rounding residue, not 0
    state = normalize(basis_state("000").amps + 10.0 ** -k * basis_state("111").amps)
    check_pipeline(in_random_frame(state, seed), tol, must_distill=k <= 3.0)


@PROPERTY
@given(seed=SEEDS)
def test_equal_weights_distill(seed):
    d = make_decomposition(np.random.default_rng(seed), mu1_sq=0.5)
    check_pipeline(in_random_frame(reconstruct(d), seed), must_distill=True)


@PROPERTY
@given(pinned=st.sets(st.sampled_from(["sa", "sb", "sc"]), min_size=1), seed=SEEDS)
def test_zero_overlaps_distill(pinned, seed):
    d = make_decomposition(np.random.default_rng(seed), **{s: 0.0 for s in pinned})
    check_pipeline(in_random_frame(reconstruct(d), seed), must_distill=True)


@PROPERTY
@given(family=st.sampled_from(["W+GHZ", "W+111", "near product", "equal weights",
                               "zero overlaps"]),
       k=st.floats(1.0, 8.0), pinned=st.sets(st.sampled_from(["sa", "sb", "sc"]), min_size=1),
       seed=SEEDS)
def test_newton_search_matches_the_bisection_at_the_boundaries(family, k, pinned, seed):
    rng = np.random.default_rng(seed)
    if family.startswith("W+"):
        extra = ghz_state().amps if family == "W+GHZ" else basis_state("111").amps
        state = normalize(w_state().amps + 10.0 ** -k * extra)
    elif family == "near product":
        state = normalize(basis_state("000").amps + 10.0 ** -k * basis_state("111").amps)
    elif family == "equal weights":
        state = reconstruct(make_decomposition(rng, mu1_sq=0.5))
    else:
        state = reconstruct(make_decomposition(rng, **{s: 0.0 for s in pinned}))
    try:
        d = decompose(in_random_frame(state, seed))
    except GhzDistillError:
        return
    p, x = _max_objective(d)
    assert abs(p - bisect_max_objective(d)[0]) <= 1e-15
    # x* against the 80-digit sign change, not the bisection point: the
    # bisection's sign test is rounding where an overlap is at rounding
    # level (sa = 1.1e-12 with sb = sc = 0 puts the optimum at the cusp
    # x = mu1/mu2)
    if d.sa == d.sb == d.sc == 0.0:
        assert x == 1.0
    else:
        u_ref = reference_sign_change(d)
        assert u_ref - U_TOL <= np.log(x) <= u_ref + 1e-15


# ------------------------------------------------------- CLI input boundary

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=9)
                   | st.dictionaries(st.sampled_from(["amps", "label", "x"]), inner)),
    max_leaves=24)
_ODD_ENTRIES = (st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 0.0])
                | st.integers(-10 ** 400, 10 ** 400) | st.text(max_size=3))


def _pair_doc(entries, odd):
    for i, value in odd:
        entries[i] = value
    return {"amps": [entries[i:i + 2] for i in range(0, 16, 2)]}


# eight [re, im] pairs of ordinary floats, with up to three entries swapped
# for NaN, infinities, 1e+-300, 0, huge integers or strings
_PAIR_DOCS = st.builds(_pair_doc, st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
                       st.lists(st.tuples(st.integers(0, 15), _ODD_ENTRIES), max_size=3))
_FILES = (st.binary(max_size=64)
          | _JSON_VALUES.map(lambda v: json.dumps(v).encode())
          | _PAIR_DOCS.map(lambda v: json.dumps(v).encode()))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(content=_FILES, command=st.sampled_from(["classify", "distill"]))
def test_cli_ends_every_file_in_a_result_or_one_error_line(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, path])
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        assert out.getvalue() == ""
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err.getvalue()


_E0, _E1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
_ORTHOGONAL = dict(phi=0.0, a1=_E0, a2=_E1, b1=_E0, b2=_E1, c1=_E0, c2=_E1,
                   sa=0.0, sb=0.0, sc=0.0)
_EYE, _ZERO = np.eye(2), np.zeros((2, 2))


@pytest.mark.parametrize("build, error", [
    (lambda: ProductDecomposition(mu1=1e200, mu2=1.0, **_ORTHOGONAL), InvariantViolationError),
    (lambda: ProductDecomposition(**{**_ORTHOGONAL, "a1": np.array([1e200, 0.0])},
                                  mu1=np.sqrt(0.5), mu2=np.sqrt(0.5)),
     InvariantViolationError),
    (lambda: PovmTriple(1e200 * _EYE, _ZERO, _EYE, _ZERO, _EYE, _ZERO), InvariantViolationError),
    (lambda: audit_povm(ghz_state(), (1e200 * _EYE, _ZERO), "A"), PreconditionViolatedError),
], ids=["decomposition weight", "decomposition vector", "povm triple", "audit pair"])
def test_finite_input_whose_squares_overflow_ends_in_a_typed_error_without_a_warning(
        build, error):
    # the checks run on Python scalars, where a product that overflows is inf
    # (a ** 2 would raise OverflowError) and NumPy's overflow warning never runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build()
