"""Seeded random generators for states, unitaries and decomposition data.

Used by the audit and fidelity modules and throughout the test-suite;
everything takes an explicit numpy Generator so results are reproducible.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionViolatedError
from .tensor import State3Q, apply_local, normalize, vector_norm


def crandn(rng: np.random.Generator, size) -> np.ndarray:
    """Standard complex normal samples."""
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.sqrt(2.0)


def haar_state(rng: np.random.Generator) -> State3Q:
    """Haar-random pure three-qubit state."""
    return normalize(crandn(rng, 8))


def haar_local_vector(rng: np.random.Generator) -> np.ndarray:
    """Haar-random single-qubit unit vector."""
    v = crandn(rng, 2)
    return v / vector_norm(v)


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """The Q factor of each Ginibre matrix of the stack z (..., 2, 2), its
    columns rephased so that R has a positive diagonal: Haar-distributed."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d)).conj()[..., np.newaxis, :]


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a Ginibre matrix with phase fixing."""
    return _haar_from_ginibre(crandn(rng, (2, 2)))


def random_local_unitaries(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return haar_unitary(rng), haar_unitary(rng), haar_unitary(rng)


def apply_local_unitaries(state: State3Q, ua, ub, uc) -> State3Q:
    return normalize(apply_local(state, ua, ub, uc)[0])


def vector_with_overlap(rng: np.random.Generator, v1: np.ndarray, s: float) -> np.ndarray:
    """Unit vector v2 with <v1|v2> = s (real, 0 <= s < 1), random otherwise."""
    if not 0.0 <= s < 1.0:
        raise PreconditionViolatedError(f"overlap must lie in [0, 1), got {s!r}")
    # any unit vector orthogonal to v1, with a random relative phase
    perp = np.array([-np.conj(v1[1]), np.conj(v1[0])], dtype=np.complex128)
    perp *= np.exp(2j * np.pi * rng.random())
    return s * v1 + np.sqrt(1.0 - s * s) * perp
