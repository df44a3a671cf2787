"""Best deterministic local-unitary approximation to the GHZ state.

The optimal approximate transformation of a pure three-qubit state into
GHZ (by fidelity, over deterministic protocols) is a local unitary
rotation, so the search space is SU(2)^3: nine angles in the ZYZ Euler
parameterization, global phases being irrelevant to the fidelity

    F(theta) = |<GHZ| U_A (x) U_B (x) U_C |psi>|^2.

The maximization runs L-BFGS-B with the analytic gradient from a number of
random starts plus the identity start (which guarantees F >= |<GHZ|psi>|^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .tensor import State3Q, ghz_state

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class LocalUnitaryTriple:
    """Three single-qubit unitaries with their ZYZ angles (3 per party)."""

    ua: np.ndarray
    ub: np.ndarray
    uc: np.ndarray
    angles: np.ndarray   # shape (3, 3): rows A, B, C

    def __post_init__(self):
        ang = np.array(self.angles, dtype=np.float64).reshape(3, 3)
        ang.flags.writeable = False
        object.__setattr__(self, "angles", ang)
        for name in ("ua", "ub", "uc"):
            u = np.array(getattr(self, name), dtype=np.complex128).reshape(2, 2)
            if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-12:
                raise InvariantViolationError(f"{name} is not unitary")
            u.flags.writeable = False
            object.__setattr__(self, name, u)


def ghz_fidelity(state: State3Q) -> float:
    """|<GHZ|psi>|^2 without any rotation."""
    return float(abs(np.vdot(ghz_state().amps, state.amps)) ** 2)


def _rz(a: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * a), 0.0], [0.0, np.exp(0.5j * a)]])


def _ry(b: float) -> np.ndarray:
    c, s = np.cos(0.5 * b), np.sin(0.5 * b)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def su2(angles) -> np.ndarray:
    """ZYZ Euler unitary Rz(a) Ry(b) Rz(c)."""
    a, b, c = angles
    return _rz(a) @ _ry(b) @ _rz(c)


def _su2_with_derivatives(angles) -> tuple[np.ndarray, list[np.ndarray]]:
    a, b, c = angles
    rza, ryb, rzc = _rz(a), _ry(b), _rz(c)
    u = rza @ ryb @ rzc
    du_a = -0.5j * _SZ @ u
    du_b = rza @ (-0.5j * _SY) @ ryb @ rzc
    du_c = u @ (-0.5j * _SZ)
    return u, [du_a, du_b, du_c]


def _fidelity_and_grad(theta: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """F(theta) and dF/dtheta for the 9-angle objective."""
    mats, derivs = [], []
    for p in range(3):
        u, du = _su2_with_derivatives(theta[3 * p: 3 * p + 3])
        mats.append(u)
        derivs.append(du)
    t = np.einsum("ij,kl,mn,jln->ikm", mats[0], mats[1], mats[2], psi)
    o = (t[0, 0, 0] + t[1, 1, 1]) / np.sqrt(2.0)
    grad = np.empty(9)
    for p in range(3):
        for k in range(3):
            ops = list(mats)
            ops[p] = derivs[p][k]
            td = np.einsum("ij,kl,mn,jln->ikm", ops[0], ops[1], ops[2], psi)
            do = (td[0, 0, 0] + td[1, 1, 1]) / np.sqrt(2.0)
            grad[3 * p + k] = 2.0 * np.real(np.conj(o) * do)
    return float(abs(o) ** 2), grad


def optimal_lu_fidelity(state: State3Q, restarts: int = 32,
                        seed: int = 0) -> tuple[float, LocalUnitaryTriple]:
    """Maximal GHZ fidelity over local unitaries, with an optimal triple.

    Multistart gradient optimization: ``restarts`` random 9-angle starts
    plus the identity start.  Deterministic for fixed (state, restarts,
    seed); the returned triple reproduces F when applied to the state.
    """
    # imported here, not at the top: scipy.optimize is most of the import cost
    from scipy.optimize import minimize

    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    psi = state.tensor
    rng = np.random.default_rng(seed)
    starts = [np.zeros(9)]
    starts += [rng.uniform(0.0, 2.0 * np.pi, size=9) for _ in range(restarts)]

    def neg(theta):
        f, g = _fidelity_and_grad(theta, psi)
        return -f, -g

    best_f, best_theta = ghz_fidelity(state), np.zeros(9)
    for theta0 in starts:
        res = minimize(neg, theta0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 400, "ftol": 1e-15, "gtol": 1e-12})
        f = -float(res.fun)
        # margin keeps the earliest start on ties (identity wins when the
        # optimum is a manifold through it), making the triple deterministic
        if f > best_f + 1e-12:
            best_f, best_theta = f, res.x

    triple = LocalUnitaryTriple(
        ua=su2(best_theta[0:3]), ub=su2(best_theta[3:6]), uc=su2(best_theta[6:9]),
        angles=best_theta.reshape(3, 3),
    )
    return best_f, triple


def sampled_fidelity_bound(state: State3Q, samples: int, seed: int = 0) -> float:
    """Best fidelity over random product rotations; a stochastic lower
    bound on optimal_lu_fidelity used as an independent cross-check.

    Only the images of the local basis matter, so the search draws Haar
    unit vectors u, v, w per party and evaluates
    |<GHZ| (u x v x w by columns) |psi>|^2 fully vectorized.
    """
    rng = np.random.default_rng(seed)
    psi = state.tensor
    best = 0.0
    chunk = 200_000
    left = samples
    while left > 0:
        n = min(chunk, left)
        left -= n
        cols = []
        for _ in range(3):
            z = (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
            q, r = np.linalg.qr(z)
            d = np.diagonal(r, axis1=1, axis2=2)
            cols.append(q * (d / np.abs(d)).conj()[:, np.newaxis, :])
        t = np.einsum("sij,skl,smn,jln->sikm", cols[0], cols[1], cols[2], psi)
        f = np.abs((t[:, 0, 0, 0] + t[:, 1, 1, 1]) / np.sqrt(2.0)) ** 2
        best = max(best, float(f.max()))
    return best
