"""Dense linear algebra for pure three-qubit states.

Amplitude convention: the basis ket |abc> lives at index 4a + 2b + c, so
party A is the slowest axis of the (2, 2, 2) tensor view and ``amps``
reshapes to it in C order.  All operations here are pure functions on
immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ZeroVectorError
from .tolerances import NORM_ATOL, RANK_TOL, ZERO_NORM

_AXIS = {"A": 0, "B": 1, "C": 2}


@dataclass(frozen=True)
class State3Q:
    """Normalized pure state of three qubits, 8 complex amplitudes."""

    amps: np.ndarray

    def __post_init__(self):
        # one owned array, not a view of a private copy
        a = np.array(np.reshape(self.amps, 8), dtype=np.complex128)
        n2 = float(np.sum(np.abs(a) ** 2))
        if abs(n2 - 1.0) > NORM_ATOL:
            raise InvariantViolationError(
                f"state norm^2 = {n2!r} differs from 1 by more than {NORM_ATOL}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @property
    def tensor(self) -> np.ndarray:
        """The (2, 2, 2) view with axes (A, B, C)."""
        return self.amps.reshape(2, 2, 2)


def normalize(raw) -> State3Q:
    """Scale an 8-component amplitude vector to unit norm.

    Raises ZeroVectorError when the norm is at or below ZERO_NORM.
    """
    a = np.asarray(raw, dtype=np.complex128).reshape(8)
    n = float(np.linalg.norm(a))
    if n <= ZERO_NORM:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n!r}")
    return State3Q(a / n)


_GHZ = State3Q(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2.0))


def ghz_state() -> State3Q:
    """(|000> + |111>)/sqrt(2), one shared value: State3Q is frozen and its
    amplitudes are read-only."""
    return _GHZ


def w_state() -> State3Q:
    """(|001> + |010> + |100>)/sqrt(3)."""
    a = np.zeros(8, dtype=np.complex128)
    a[1] = a[2] = a[4] = 1.0 / np.sqrt(3.0)
    return State3Q(a)


def basis_state(bits: str) -> State3Q:
    """Computational basis ket, e.g. basis_state("010")."""
    if len(bits) != 3 or any(c not in "01" for c in bits):
        raise ValueError(f"expected a 3-character bit string, got {bits!r}")
    a = np.zeros(8, dtype=np.complex128)
    a[int(bits, 2)] = 1.0
    return State3Q(a)


def _party_axes(parties) -> tuple[int, ...]:
    names = list(parties)
    if not names or any(p not in _AXIS for p in names) or len(set(names)) != len(names):
        raise ValueError(f"parties must be a nonempty subset of A,B,C; got {parties!r}")
    axes = tuple(sorted(_AXIS[p] for p in names))
    if len(axes) == 3:
        raise ValueError("parties must be a proper subset of {A,B,C}")
    return axes


def reduced_density(state: State3Q, parties) -> np.ndarray:
    """Reduced density matrix of the given parties (trace out the rest).

    ``parties`` is a string like "A" or "BC" (order-insensitive) or an
    iterable of party names.  Kept parties appear in A < B < C order.
    """
    keep = _party_axes(parties)
    out = [ax for ax in range(3) if ax not in keep]
    psi = state.tensor
    rho = np.tensordot(psi, psi.conj(), axes=(out, out))
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


def local_spectra(state: State3Q) -> np.ndarray:
    """Ascending eigenvalues of the single-party reductions of A, B and C,
    shape (3, 2).

    Each reduction is the Gram matrix U U^dag of the party's (2, 4)
    unfolding U of the tensor (the party's axis first, the other two in
    order), the same product ``reduced_density`` forms, so the eigenvalues
    have the same bits (an einsum Gram would change them); the three Grams
    are formed and diagonalized as one stack.
    """
    psi = state.tensor
    u = np.stack([psi, psi.transpose(1, 0, 2), psi.transpose(2, 0, 1)]).reshape(3, 2, 4)
    return np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1))


def spectral_ranks(ev: np.ndarray, tol: float) -> np.ndarray:
    """Ranks of Hermitian PSD matrices from their ascending eigenvalues
    (last axis): the count of eigenvalues above tol * (largest), and 0
    where the largest is <= 0."""
    top = ev[..., -1:]
    return np.where(top[..., 0] > 0.0, np.count_nonzero(ev > tol * top, axis=-1), 0)


def numeric_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    """Number of eigenvalues above tol * (largest eigenvalue)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return int(spectral_ranks(np.linalg.eigvalsh(m), tol))


def apply_local(state: State3Q, op_a: np.ndarray, op_b: np.ndarray,
                op_c: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply a product operator op_a (x) op_b (x) op_c.

    Returns the unnormalized output amplitudes together with the branch
    probability <psi| (A^dag A)(x)(B^dag B)(x)(C^dag C) |psi>, evaluated as
    the operator expectation value (not as the output norm, so the Born-rule
    identity stays an independently testable property).
    """
    psi = state.tensor
    raw = np.einsum("ij,kl,mn,jln->ikm", op_a, op_b, op_c, psi).reshape(8)
    ea = op_a.conj().T @ op_a
    eb = op_b.conj().T @ op_b
    ec = op_c.conj().T @ op_c
    m = np.einsum("ij,kl,mn,jln->ikm", ea, eb, ec, psi)
    p = float(np.real(np.vdot(psi, m)))
    return raw, p


def overlap(s1: State3Q, s2: State3Q) -> complex:
    """Inner product <s1|s2>."""
    return complex(np.vdot(s1.amps, s2.amps))


def fidelity_with(s1: State3Q, s2: State3Q) -> float:
    """|<s1|s2>|^2."""
    return float(abs(np.vdot(s1.amps, s2.amps)) ** 2)
