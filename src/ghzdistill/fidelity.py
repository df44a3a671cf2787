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
then tr(U E) = s, and the sweep's F is s^2.  When det E = 0 (E of rank 1)
every unit phase gives an optimal unitary and the phase is taken as 1;
when E = 0 every unitary is optimal and U is the identity.  The
maximization alternates these block updates over the parties (as for the
geometric measure of entanglement, Wei & Goldbart, quant-ph/0307219) from
a number of random starts plus the identity start (which guarantees
F >= |<GHZ|psi>|^2), all starts as one batch.  No update lowers F.
``_fidelity_and_grad`` gives F and its gradient in the nine angles, a
first-order optimality certificate at the returned angles.

The sweep works on a flat layout.  A stack of R unitaries is an (R, 4)
array, row r holding U_r in C order (U[i, j] at 2i + j), and a stack of
environments holds G = E^T in the same order (G[i, j] = E[j, i]).  Then

    tr(U E) = sum_ij U[i, j] G[i, j],   the elementwise product U o G summed,

E^dag is conj(G), det E = g0 g3 - g1 g2, and adj(E) is G reversed times
the signs (1, -1, -1, 1).  Each party's G is one matmul: row (r, i) of the
Kronecker rows u1[r, i, :] (x) u2[r, i, :] of the other two parties'
unitaries times the party's (4, 2) unfolding P[(k, m), j] = psi[j, k, m]
/ sqrt(2), psi having that party's axis first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import _haar_from_ginibre
from .tensor import State3Q, check_int, fidelity_with, ghz_state, unfoldings
from .tolerances import MAX_SWEEPS, SWEEP_TOL, TIE_MARGIN

_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_ADJ_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_ONES8 = np.ones(8)
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


def _ghz_unfoldings(psi: np.ndarray) -> np.ndarray:
    """The unfoldings of the parties A, B, C transposed and scaled by the GHZ
    amplitude: P[(k, m), j] = psi_p[j, k, m] / sqrt(2), psi_p having party
    p's axis first; shape (3, 4, 2)."""
    return unfoldings(psi).transpose(0, 2, 1) * _SQRT_HALF


def _environment(u1: np.ndarray, u2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Environments of the party with unfolding p, given the flat stacks
    u1, u2 (R, 4) of the other two parties' unitaries (in axis order).

    Each is returned flat as G = E^T, shape (R, 4), so that the GHZ overlap
    tr(U E) is the sum of the elementwise product of U and G: row (r, i)
    of the Kronecker rows u1[r, i, :] (x) u2[r, i, :] times p is G[r, i, :].
    """
    r = len(u1)
    return np.dot((u1.reshape(r, 2, 2, 1) * u2.reshape(r, 2, 1, 2)).reshape(2 * r, 4),
                  p).reshape(r, 4)


def _fidelity_and_grad(theta: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """F(theta) and dF/dtheta for the 9-angle objective.

    The overlap is o = tr(U_p E_p) for each party p, so its derivative in
    p's angles (a, b, c) is tr(dU_p E_p), with dU/da = -i/2 Z U,
    dU/db = su2((a, b + pi, c))/2 and dU/dc = -i/2 U Z.
    """
    ang = np.asarray(theta, dtype=np.float64).reshape(3, 3)
    u = su2(ang)
    flat = u.reshape(3, 4)    # slices flat[p:p + 1] are the stacks of one that _environment takes
    pa, pb, pc = _ghz_unfoldings(psi)
    g = np.concatenate([_environment(flat[1:2], flat[2:3], pa),
                        _environment(flat[0:1], flat[2:3], pb),
                        _environment(flat[0:1], flat[1:2], pc)])
    du = np.stack([-0.5j * _SZ @ u, 0.5 * su2(ang + [0.0, np.pi, 0.0]), -0.5j * u @ _SZ],
                  axis=1).reshape(3, 3, 4)
    o = np.sum(flat[0] * g[0])
    do = np.sum(du * g[:, np.newaxis, :], axis=-1)
    return float(abs(o) ** 2), (2.0 * np.real(np.conj(o) * do)).ravel()


def _polar_update(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each environment E = W S V^dag of the stack, given flat as
    G = E^T (R, 4), the unitary V W^dag maximizing |tr(U E)|, flat (R, 4),
    and that maximum s, the sum of the singular values S.

    Closed form, elementwise over the stack: U = (E^dag + e^{-i theta}
    adj(E)) / s with theta = arg det E and s = sqrt(|E|_F^2 + 2 |det E|),
    so that tr(U E) = s.  On the flat layout E^dag is conj(G), adj(E) is
    G reversed times (1, -1, -1, 1) and det E = g0 g3 - g1 g2.  det E = 0
    takes the phase 1 (every unit phase is optimal for a rank-1 E), and
    E = 0 takes the identity.
    """
    det = g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]
    r = np.abs(det)
    re_im = g.view(np.float64)
    # |E|_F^2 as the row sums of the squared parts, one matmul (fewer calls than .sum)
    s = np.sqrt(np.dot(re_im * re_im, _ONES8) + 2.0 * r)
    full_rank = r.all()
    if full_rank:
        ph, scale = np.conj(det) / r, s
    else:   # the guarded forms cost more, so only a det exactly 0 takes them
        ph = np.divide(np.conj(det), r, out=np.ones_like(det), where=r > 0.0)
        scale = np.where(s > 0.0, s, 1.0)
    u = (np.conj(g) + ph[:, np.newaxis] * (g[:, ::-1] * _ADJ_SIGN)) / scale[:, np.newaxis]
    if not full_rank:
        u[s == 0.0] = (1.0, 0.0, 0.0, 1.0)   # the identity, flat
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
    rng = np.random.default_rng(seed)
    theta = np.vstack([np.zeros(9), rng.uniform(0.0, 2.0 * np.pi, size=(restarts, 9))])
    # flat (R, 4) stacks of the three parties' start unitaries
    ua, ub, uc = su2(theta.reshape(-1, 3, 3)).reshape(-1, 3, 4).transpose(1, 0, 2)
    pa, pb, pc = _ghz_unfoldings(state.tensor)
    f = np.zeros(restarts + 1)
    # no update lowers F, so MAX_SWEEPS only bounds the sublinear near-W tail
    for _ in range(MAX_SWEEPS):
        ua, _ = _polar_update(_environment(ub, uc, pa))
        ub, _ = _polar_update(_environment(ua, uc, pb))
        uc, overlap = _polar_update(_environment(ua, ub, pc))
        f_prev, f = f, overlap * overlap
        if (f - f_prev).max() <= SWEEP_TOL:
            break

    best_f, best = ghz_fidelity(state), None
    for i, fi in enumerate(f):
        if fi > best_f + TIE_MARGIN:
            best_f, best = float(fi), i
    angles = (np.zeros((3, 3)) if best is None
              else zyz_angles(np.stack([ua[best], ub[best], uc[best]]).reshape(3, 2, 2)))
    return best_f, LocalUnitaryTriple(angles)


def sampled_fidelity_bound(state: State3Q, samples: int, seed: int = 0) -> float:
    """Best fidelity over random product rotations; a stochastic lower
    bound on optimal_lu_fidelity used as an independent cross-check.

    The search draws Haar unitaries per party and evaluates
    |tr(U_A E_A)|^2 with Alice's environment E_A, fully vectorized, in the
    flat layout of the sweep.
    """
    check_int("samples", samples, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    pa = _ghz_unfoldings(state.tensor)[0]
    best = 0.0
    chunk = 200_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        left -= n
        cols = [_haar_from_ginibre(rng.normal(size=(n, 2, 2))
                                   + 1j * rng.normal(size=(n, 2, 2))).reshape(n, 4)
                for _ in range(3)]
        f = np.abs(np.sum(cols[0] * _environment(cols[1], cols[2], pa), axis=1)) ** 2
        best = max(best, float(f.max()))
    return best
