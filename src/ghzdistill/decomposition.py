"""Entanglement classification and the two-term product decomposition.

A GHZ-class state can be written in exactly one way (up to conventions) as

    |psi> = mu1 |a1 b1 c1> + mu2 e^{i phi} |a2 b2 c2>,   mu1 >= mu2 > 0,

with normalized single-qubit vectors whose pairwise overlaps s_k = <k1|k2>
are real and lie in [0, 1).  The two product terms are found from the
two product vectors in the 2-dimensional range of the B+C reduced density
matrix: writing |psi> = |0>|w0> + |1>|w1| and reshaping w0, w1 into 2x2
matrices W0, W1, a range vector s*w0 + t*w1 is a product vector iff
det(s*W0 + t*W1) = 0 -- a homogeneous quadratic in (s : t).  Two distinct
projective roots mean GHZ class, a double root means W class.

Conventions fixed here (all needed for deterministic output):
  * roots handled in homogeneous coordinates, so a root at infinity
    (det W1 = 0) needs no special casing;
  * terms ordered by weight, ties broken lexicographically on the
    component magnitudes of the local vectors;
  * each |k1> and, when s_k = 0, each |k2> has its first non-negligible
    component made real positive; otherwise |k2>'s phase is fixed by
    making <k1|k2> real nonnegative;
  * the remaining phase is pushed into e^{i phi}, phi in [0, 2pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateQuadraticError,
    IllConditionedError,
    InvariantViolationError,
    NotGHZClassError,
)
from .tensor import State3Q, check_tol, local_spectra, normalize, spectral_ranks, vector_norm
from .tolerances import (
    COARSE_RANK_FACTOR, COARSE_RANK_FLOOR, DOUBLE_ROOT_TOL, LSTSQ_RESIDUAL_TOL,
    NORM_IDENTITY_TOL, OVERLAP_TOL, PHASE_COMPONENT_CUT, PRODUCT_ANGLE_TOL, RANK_TOL,
    TIE_TOL, UNIT_VECTOR_TOL, VANISHING_QUADRATIC_RTOL, ZERO_OVERLAP,
)


class EntanglementClass(Enum):
    FULLY_PRODUCT = "FullyProduct"
    BISEP_A_BC = "Biseparable(A|BC)"
    BISEP_B_AC = "Biseparable(B|AC)"
    BISEP_C_AB = "Biseparable(C|AB)"
    W_CLASS = "WClass"
    GHZ_CLASS = "GHZClass"


_BISEP = {
    "A": EntanglementClass.BISEP_A_BC,
    "B": EntanglementClass.BISEP_B_AC,
    "C": EntanglementClass.BISEP_C_AB,
}


@dataclass(frozen=True)
class ProductDecomposition:
    """Unique two-term product form of a GHZ-class state."""

    mu1: float
    mu2: float
    phi: float
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    sa: float
    sb: float
    sc: float

    def __post_init__(self):
        # every check runs on Python scalars, where a product that overflows
        # is inf without a warning, and is written so that a NaN or an inf
        # fails it
        vectors = []
        for name in ("a1", "a2", "b1", "b2", "c1", "c2"):
            v = np.asarray(getattr(self, name), dtype=np.complex128).reshape(2).copy()
            z0, z1 = v.tolist()
            norm = math.sqrt(z0.real * z0.real + z0.imag * z0.imag
                             + z1.real * z1.real + z1.imag * z1.imag)
            if not abs(norm - 1.0) <= UNIT_VECTOR_TOL:
                raise InvariantViolationError(f"local vector {name} is not unit norm")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
            vectors.append((z0, z1))
        # the equal-weight tie-break orders terms by their local vectors, so
        # mu1 may sit a rounding error below mu2; the solver brackets its
        # optimum by mu1/mu2, so that ratio must be finite
        mu1, mu2 = float(self.mu1), float(self.mu2)
        if not (mu1 >= mu2 - TIE_TOL and mu2 > 0.0 and math.isfinite(mu1 / mu2)):
            raise InvariantViolationError(
                "weights must satisfy mu1 >= mu2 > 0 with mu1/mu2 finite")
        for s, name in ((self.sa, "sa"), (self.sb, "sb"), (self.sc, "sc")):
            if not (0.0 <= s < 1.0):
                raise InvariantViolationError(f"overlap {name}={s!r} outside [0, 1)")
        stored = (float(self.sa), float(self.sb), float(self.sc))
        for s, (x0, x1), (y0, y1), name in zip(stored, vectors[0::2], vectors[1::2],
                                               ("sa", "sb", "sc")):
            o = x0.conjugate() * y0 + x1.conjugate() * y1
            if not math.hypot(o.real - s, o.imag) <= OVERLAP_TOL:
                raise InvariantViolationError(
                    f"stored overlap {name}={s!r} disagrees with vectors ({o!r})"
                )
        # cos of an infinite phi is a ValueError before the identity could fail
        phi = float(self.phi)
        if not abs(phi) < math.inf:
            raise InvariantViolationError(f"phase phi={self.phi!r} is not finite")
        sa, sb, sc = stored
        norm2 = mu1 * mu1 + mu2 * mu2 + 2.0 * mu1 * mu2 * math.cos(phi) * sa * sb * sc
        if not abs(norm2 - 1.0) <= NORM_IDENTITY_TOL:
            raise InvariantViolationError(
                f"decomposition normalization identity off by {norm2 - 1.0:.3e}"
            )


def _kron3(u, v, w) -> np.ndarray:
    return np.einsum("i,j,k->ijk", u, v, w).reshape(8)


def reconstruct(d: ProductDecomposition) -> State3Q:
    """State mu1 |a1 b1 c1> + mu2 e^{i phi} |a2 b2 c2>, normalized."""
    raw = (d.mu1 * _kron3(d.a1, d.b1, d.c1)
           + d.mu2 * np.exp(1j * d.phi) * _kron3(d.a2, d.b2, d.c2))
    return normalize(raw)


def _quadratic_coeffs(w0: np.ndarray, w1: np.ndarray) -> tuple[complex, complex, complex]:
    """Coefficients (q2, q1, q0) of det(s*W0 + t*W1) = q2 s^2 + q1 s t + q0 t^2."""
    W0 = w0.reshape(2, 2)
    W1 = w1.reshape(2, 2)
    q2 = np.linalg.det(W0)
    q0 = np.linalg.det(W1)
    q1 = (W0[0, 0] * W1[1, 1] + W1[0, 0] * W0[1, 1]
          - W0[0, 1] * W1[1, 0] - W1[0, 1] * W0[1, 0])
    return complex(q2), complex(q1), complex(q0)


def _homogeneous_roots(q2: complex, q1: complex, q0: complex):
    """Two projective roots (s, t) of the binary quadratic, unit-normalized.

    Each root has the two algebraically equivalent representations
    (-q1 +- sq, 2 q2) and (2 q0, -q1 -+ sq); the larger one is kept, which
    also covers roots at infinity.  Both are zero only if q2 = q1 = q0 = 0
    exactly, a quadratic ``classification_evidence`` has already refused
    as vanishing, so the kept one is never zero.
    """
    sq = np.sqrt(complex(q1 * q1 - 4.0 * q2 * q0))
    roots = []
    for sign in (+1.0, -1.0):
        cand_a = np.array([-q1 + sign * sq, 2.0 * q2])
        cand_b = np.array([2.0 * q0, -q1 - sign * sq])
        r = cand_a if vector_norm(cand_a) >= vector_norm(cand_b) else cand_b
        roots.append(r / vector_norm(r))
    return roots[0], roots[1]


def _projective_distance_sq(r1: np.ndarray, r2: np.ndarray) -> float:
    """Squared chordal distance sin^2(angle) between rays in C^2."""
    c = abs(np.vdot(r1, r2))
    return float(max(0.0, 1.0 - min(1.0, c) ** 2))


def classification_evidence(state: State3Q, tol: float = RANK_TOL) -> dict:
    """Class label together with the evidence that produced it.

    Returns a dict with keys "class" (EntanglementClass), "ranks" (per
    party), "root_separation" (squared chordal distance of the
    product-vector quadratic roots, None when the rank tests already
    decided), "product_vectors" (2, 1 or None accordingly) and "roots"
    (the two unit projective roots (s, t) of the quadratic, which
    ``decompose`` turns into the product vectors; None when the rank tests
    decided).

    Local ranks separate product and biseparable states; genuinely
    tripartite states are split into GHZ/W class by counting product
    vectors in the range of the B+C reduction.
    """
    check_tol(tol)
    spectra = local_spectra(state)

    def by_ranks(cut):   # the class is None when the ranks do not decide it
        ranks = dict(zip("ABC", spectral_ranks(spectra, cut).tolist()))
        pure = [p for p, r in ranks.items() if r == 1]
        cls = (EntanglementClass.FULLY_PRODUCT if len(pure) >= 2
               else _BISEP[pure[0]] if pure else None)
        return {"class": cls, "ranks": ranks, "root_separation": None,
                "product_vectors": None, "roots": None}

    ev = by_ranks(tol)
    if ev["class"] is not None:
        return ev

    w0, w1 = state.amps[:4], state.amps[4:]
    q2, q1, q0 = _quadratic_coeffs(w0, w1)
    scale = max(vector_norm(w0), vector_norm(w1)) ** 2
    if max(abs(q2), abs(q1), abs(q0)) <= VANISHING_QUADRATIC_RTOL * scale:
        # every range vector would be a product vector; that forces a local
        # rank of 1, so retry the rank tests with a coarser cut before failing
        coarse = by_ranks(max(tol * COARSE_RANK_FACTOR, COARSE_RANK_FLOOR))
        if coarse["class"] is not None:
            return coarse
        raise DegenerateQuadraticError(
            "product-vector quadratic vanishes but all local ranks are 2"
        )
    roots = _homogeneous_roots(q2, q1, q0)
    sep = _projective_distance_sq(*roots)
    if sep < DOUBLE_ROOT_TOL:
        cls, nvec = EntanglementClass.W_CLASS, 1
    else:
        cls, nvec = EntanglementClass.GHZ_CLASS, 2
    return {"class": cls, "ranks": ev["ranks"], "root_separation": sep,
            "product_vectors": nvec, "roots": roots}


def classify(state: State3Q, tol: float = RANK_TOL) -> EntanglementClass:
    """Entanglement class of a pure three-qubit state."""
    return classification_evidence(state, tol)["class"]


def _rank1_factors(p1: np.ndarray, p2: np.ndarray):
    """Unit vectors ((b1, c1), (b2, c2)) with p_k = const * b_k (x) c_k, for
    rank-1 p1, p2 (4,), from one SVD of the stacked 2x2 reshapes.

    The reshaped matrix is V[i, j] = b[i] * c[j] (no conjugation), so the
    second factor is the leading right-singular row itself.
    """
    u, _, vh = np.linalg.svd(np.stack([p1, p2]).reshape(2, 2, 2))
    return (u[0, :, 0], vh[0, 0, :]), (u[1, :, 0], vh[1, 0, :])


def _fix_phase_first_component(v: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rotate v so its first non-negligible component is real positive.

    Returns (rotated vector, phase factor removed), with v = factor * rotated.
    A component counts when its modulus exceeds PHASE_COMPONENT_CUT.
    """
    idx = 0 if abs(v[0]) > PHASE_COMPONENT_CUT else 1
    ph = v[idx] / abs(v[idx])
    return v * np.conj(ph), ph


def _magnitude_key(*vectors) -> tuple:
    return tuple(float(abs(x)) for v in vectors for x in v)


def decompose(state: State3Q, tol: float = RANK_TOL) -> ProductDecomposition:
    """Two-term product decomposition of a GHZ-class state.

    Raises NotGHZClassError for other classes (classified at rank tolerance
    ``tol``) and IllConditionedError when the two product vectors are nearly
    parallel (W-class boundary).
    """
    ev = classification_evidence(state, tol)
    cls = ev["class"]
    if cls is not EntanglementClass.GHZ_CLASS:
        raise NotGHZClassError(f"state is {cls.value}; no two-term product form exists", cls)

    w0, w1 = state.amps[:4], state.amps[4:]
    r1, r2 = ev["roots"]
    p1 = r1[0] * w0 + r1[1] * w1
    p2 = r2[0] * w0 + r2[1] * w1
    p1 /= vector_norm(p1)
    p2 /= vector_norm(p2)
    if np.sqrt(_projective_distance_sq(p1, p2)) < PRODUCT_ANGLE_TOL:
        raise IllConditionedError("product vectors nearly parallel; state too close to W class")

    (b1, c1), (b2, c2) = _rank1_factors(p1, p2)

    # psi = a1~ (x) (b1 x c1) + a2~ (x) (b2 x c2): solve the 8x4 linear system
    # for the unnormalized Alice vectors, columns (|0>, |1>) (x) bc1, then bc2.
    bc1, bc2 = np.outer(b1, c1).ravel(), np.outer(b2, c2).ravel()
    basis = np.zeros((8, 4), dtype=np.complex128)
    basis[:4, 0] = basis[4:, 1] = bc1
    basis[:4, 2] = basis[4:, 3] = bc2
    sol, *_ = np.linalg.lstsq(basis, state.amps, rcond=None)
    if vector_norm(basis @ sol - state.amps) > LSTSQ_RESIDUAL_TOL:
        raise IllConditionedError("could not express the state in its product-vector pair")

    terms = []
    for a, b, c in ((sol[0:2], b1, c1), (sol[2:4], b2, c2)):
        m = vector_norm(a)
        terms.append({"coef": m, "a": a / m, "b": b, "c": c})

    w1_, w2_ = abs(terms[0]["coef"]), abs(terms[1]["coef"])
    if w2_ > w1_ + TIE_TOL:
        terms.reverse()
    elif abs(w1_ - w2_) <= TIE_TOL:
        k1 = _magnitude_key(terms[0]["a"], terms[0]["b"], terms[0]["c"])
        k2 = _magnitude_key(terms[1]["a"], terms[1]["b"], terms[1]["c"])
        if k2 > k1:
            terms.reverse()

    overlaps = {}
    for site in ("a", "b", "c"):
        v1, ph1 = _fix_phase_first_component(terms[0][site])
        terms[0][site] = v1
        terms[0]["coef"] *= ph1
        o = np.vdot(v1, terms[1][site])
        if abs(o) > ZERO_OVERLAP:
            ph2 = o / abs(o)
            terms[1][site] = terms[1][site] * np.conj(ph2)
            terms[1]["coef"] *= ph2
            overlaps[site] = float(abs(o))
        else:
            v2, ph2 = _fix_phase_first_component(terms[1][site])
            terms[1][site] = v2
            terms[1]["coef"] *= ph2
            overlaps[site] = 0.0

    c1_, c2_ = terms[0]["coef"], terms[1]["coef"]
    global_ph = c1_ / abs(c1_)
    c2_ = c2_ * np.conj(global_ph)
    phi = float(np.angle(c2_)) % (2.0 * np.pi)

    return ProductDecomposition(
        mu1=float(abs(c1_)), mu2=float(abs(c2_)), phi=phi,
        a1=terms[0]["a"], a2=terms[1]["a"],
        b1=terms[0]["b"], b2=terms[1]["b"],
        c1=terms[0]["c"], c2=terms[1]["c"],
        sa=overlaps["a"], sb=overlaps["b"], sc=overlaps["c"],
    )
