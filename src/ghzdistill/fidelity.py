"""Best deterministic local-unitary approximation to the GHZ state.

The optimal approximate transformation of a pure three-qubit state into
GHZ (by fidelity, over deterministic protocols) is a local unitary
rotation, so the search space is SU(2)^3: nine angles in the ZYZ Euler
parameterization, global phases being irrelevant to the fidelity

    F(theta) = |<GHZ| U_A (x) U_B (x) U_C |psi>|^2.

With two of the unitaries fixed, the overlap is tr(U E) for the third
party's unitary U and a 2x2 environment matrix E = W S V^dag; its modulus
is maximal, equal to the sum s = s1 + s2 of the singular values, at the
polar factor U = V W^dag.  For a 2x2 matrix that factor has a closed form,
with no SVD:

    U = (E^dag + e^{-i theta} adj(E)) / s,   s = sqrt(|E|_F^2 + 2 |det E|),

where theta = arg det E and adj([[a, b], [c, d]]) = [[d, -b], [-c, a]];
then tr(U E) = s, and the sweep's F is s^2.  When det E = 0 (E of rank 1) every unit phase
gives an optimal unitary and the phase is taken as 1; when E = 0 every
unitary is optimal and U is the identity.  The maximization alternates
these block updates over the parties (as for the geometric measure of
entanglement, Wei & Goldbart, quant-ph/0307219) from a number of random
starts plus the identity start (which guarantees F >= |<GHZ|psi>|^2), all
starts as one batch.  No update lowers F.  ``_fidelity_and_grad`` gives F
and its gradient in the nine angles, a first-order optimality certificate
at the returned angles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import _haar_from_ginibre
from .tensor import State3Q, check_int, fidelity_with, ghz_state
from .tolerances import MAX_SWEEPS, SWEEP_TOL, TIE_MARGIN

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])
_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class LocalUnitaryTriple:
    """Three single-qubit unitaries su2(angles[p]), one per party, given by
    their ZYZ angles."""

    angles: np.ndarray   # shape (3, 3): rows A, B, C

    def __post_init__(self):
        ang = np.array(np.reshape(self.angles, (3, 3)), dtype=np.float64)
        ang.flags.writeable = False
        object.__setattr__(self, "angles", ang)

    def _unitary(self, party: int) -> np.ndarray:
        u = su2(self.angles[party])
        u.flags.writeable = False
        return u

    @property
    def ua(self) -> np.ndarray:
        return self._unitary(0)

    @property
    def ub(self) -> np.ndarray:
        return self._unitary(1)

    @property
    def uc(self) -> np.ndarray:
        return self._unitary(2)


def ghz_fidelity(state: State3Q) -> float:
    """|<GHZ|psi>|^2 without any rotation."""
    return fidelity_with(ghz_state(), state)


def su2(angles) -> np.ndarray:
    """ZYZ Euler unitary Rz(a) Ry(b) Rz(c); angles of shape (..., 3) give a
    stack of unitaries of shape (..., 2, 2)."""
    a, b, c = np.moveaxis(np.asarray(angles, dtype=np.float64), -1, 0)
    p, m = np.exp(-0.5j * (a + c)), np.exp(-0.5j * (a - c))
    cb, sb = np.cos(0.5 * b), np.sin(0.5 * b)
    return np.stack([np.stack([p * cb, -m * sb], axis=-1),
                     np.stack([np.conj(m) * sb, np.conj(p) * cb], axis=-1)], axis=-2)


def zyz_angles(u: np.ndarray) -> np.ndarray:
    """ZYZ angles (a, b, c) with su2((a, b, c)) equal to the unitary u up to
    a global phase; u of shape (..., 2, 2) gives angles of shape (..., 3).

    Dividing by sqrt(det u) puts u in SU(2), where its first column is
    (e^{-i(a+c)/2} cos(b/2), e^{i(a-c)/2} sin(b/2)).
    """
    u = u / np.sqrt(np.linalg.det(u))[..., np.newaxis, np.newaxis]
    b = 2.0 * np.arctan2(np.abs(u[..., 1, 0]), np.abs(u[..., 0, 0]))
    s, d = np.angle(u[..., 1, 0]), np.angle(u[..., 0, 0])
    return np.stack([s - d, b, -s - d], axis=-1)


def _environment(u1: np.ndarray, u2: np.ndarray, psi_p: np.ndarray) -> np.ndarray:
    """Environment matrices E of the party whose axis leads psi_p, given
    the stacks u1, u2 of the other two parties' unitaries (in axis order):
    the GHZ overlap is tr(U E) for that party's unitary U."""
    return np.einsum("rik,rim,jkm->rji", u1, u2, psi_p) * _SQRT_HALF


def _fidelity_and_grad(theta: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """F(theta) and dF/dtheta for the 9-angle objective.

    The overlap is o = tr(U_p E_p) for each party p, so its derivative in
    p's angles (a, b, c) is tr(dU_p E_p), with dU/da = -i/2 Z U,
    dU/db = su2((a, b + pi, c))/2 and dU/dc = -i/2 U Z.
    """
    ang = np.asarray(theta, dtype=np.float64).reshape(3, 3)
    u = su2(ang)      # slices u[p:p + 1] are the stacks of one that _environment takes
    env = np.concatenate([_environment(u[1:2], u[2:3], psi),
                          _environment(u[0:1], u[2:3], psi.transpose(1, 0, 2)),
                          _environment(u[0:1], u[1:2], psi.transpose(2, 0, 1))])
    du = np.stack([-0.5j * _SZ @ u, 0.5 * su2(ang + [0.0, np.pi, 0.0]), -0.5j * u @ _SZ],
                  axis=1)
    o = np.trace(u[0] @ env[0])
    do = np.einsum("pkij,pji->pk", du, env)
    return float(abs(o) ** 2), (2.0 * np.real(np.conj(o) * do)).ravel()


def _polar_update(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each E = W S V^dag of the stack, the unitary V W^dag maximizing
    |tr(U E)|, and that maximum s, the sum of the singular values S.

    Closed form, elementwise over the stack: U = (E^dag + e^{-i theta}
    adj(E)) / s with theta = arg det E and s = sqrt(|E|_F^2 + 2 |det E|),
    so that tr(U E) = s.  det E = 0 takes the phase 1 (every unit phase is
    optimal for a rank-1 E), and E = 0 takes the identity.
    """
    det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    r = np.abs(det)
    re_im = e.reshape(len(e), 4).view(np.float64)
    s = np.sqrt(np.einsum("ri,ri->r", re_im, re_im) + 2.0 * r)
    full_rank = r.all()
    if full_rank:
        ph, scale = np.conj(det) / r, s
    else:   # the guarded forms cost more, so only a det exactly 0 takes them
        ph = np.divide(np.conj(det), r, out=np.ones_like(det), where=r > 0.0)
        scale = np.where(s > 0.0, s, 1.0)
    # E^dag + ph adj(E) is the transpose of conj(E) + ph [[d, -c], [-b, a]]
    u = np.swapaxes(np.conj(e) + ph[:, None, None] * (e[:, ::-1, ::-1] * _ADJ_SIGN),
                    1, 2) / scale[:, None, None]
    if not full_rank:
        u[s == 0.0] = np.eye(2)
    return u, s


def optimal_lu_fidelity(state: State3Q, restarts: int = 32,
                        seed: int = 0) -> tuple[float, LocalUnitaryTriple]:
    """Maximal GHZ fidelity over local unitaries, with an optimal triple.

    Alternating polar updates from ``restarts`` random 9-angle starts plus
    the identity start, all run as one batch.  Deterministic for fixed
    (state, restarts, seed); the returned triple reproduces F when applied
    to the state.
    """
    check_int("restarts", restarts, 1)
    check_int("seed", seed, 0)
    psi = state.tensor
    rng = np.random.default_rng(seed)
    theta = np.vstack([np.zeros(9), rng.uniform(0.0, 2.0 * np.pi, size=(restarts, 9))])
    ua, ub, uc = (su2(theta[:, 3 * p: 3 * p + 3]) for p in range(3))
    psi_b, psi_c = psi.transpose(1, 0, 2), psi.transpose(2, 0, 1)
    f = np.zeros(restarts + 1)
    # no update lowers F, so MAX_SWEEPS only bounds the sublinear near-W tail
    for _ in range(MAX_SWEEPS):
        ua, _ = _polar_update(_environment(ub, uc, psi))
        ub, _ = _polar_update(_environment(ua, uc, psi_b))
        uc, overlap = _polar_update(_environment(ua, ub, psi_c))
        f_prev, f = f, overlap * overlap
        if np.max(f - f_prev) <= SWEEP_TOL:
            break

    best_f, best = ghz_fidelity(state), None
    for i, fi in enumerate(f):
        if fi > best_f + TIE_MARGIN:
            best_f, best = float(fi), i
    angles = (np.zeros((3, 3)) if best is None
              else zyz_angles(np.stack([ua[best], ub[best], uc[best]])))
    return best_f, LocalUnitaryTriple(angles)


def sampled_fidelity_bound(state: State3Q, samples: int, seed: int = 0) -> float:
    """Best fidelity over random product rotations; a stochastic lower
    bound on optimal_lu_fidelity used as an independent cross-check.

    The search draws Haar unitaries per party and evaluates
    |tr(U_A E_A)|^2 with Alice's environment E_A, fully vectorized.
    """
    check_int("samples", samples, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    psi = state.tensor
    best = 0.0
    chunk = 200_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        left -= n
        cols = [_haar_from_ginibre(rng.normal(size=(n, 2, 2))
                                   + 1j * rng.normal(size=(n, 2, 2))) for _ in range(3)]
        f = np.abs(np.einsum("sij,sji->s", cols[0], _environment(cols[1], cols[2], psi))) ** 2
        best = max(best, float(f.max()))
    return best
