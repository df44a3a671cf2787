"""Dense linear algebra for pure three-qubit states.

Amplitude convention: the basis ket |abc> lives at index 4a + 2b + c, so
party A is the slowest axis of the (2, 2, 2) tensor view and ``amps``
reshapes to it in C order.  All operations here are pure functions on
immutable values.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, PreconditionViolatedError, ZeroVectorError
from .tolerances import NORM_ATOL, ZERO_NORM

_AXIS = {"A": 0, "B": 1, "C": 2}
_EYE = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class State3Q:
    """Normalized pure state of three qubits, 8 complex amplitudes."""

    amps: np.ndarray

    def __post_init__(self):
        # one owned array, not a view of a private copy
        a = np.array(np.reshape(self.amps, 8), dtype=np.complex128)
        n2 = float(np.sum(np.abs(a) ** 2))
        # written so that a NaN fails it
        if not abs(n2 - 1.0) <= NORM_ATOL:
            raise InvariantViolationError(
                f"state norm^2 = {n2!r} differs from 1 by more than {NORM_ATOL}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @property
    def tensor(self) -> np.ndarray:
        """The (2, 2, 2) view with axes (A, B, C)."""
        return self.amps.reshape(2, 2, 2)


def vector_norm(v: np.ndarray) -> np.float64:
    """Euclidean norm of a 1-D complex vector, computed as np.linalg.norm
    computes it (the same bits) with fewer calls."""
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def scaled_norm(v: np.ndarray) -> tuple[float, float]:
    """(scale, n) with the Euclidean norm of the 1-D complex vector v equal
    to scale * n, n being the norm of v / scale.

    scale is 1.0 unless the squared norm of a finite v overflows; then it is
    the largest modulus of a real or imaginary part of v, so n is finite
    for every finite v.  A finite norm keeps the bits of ``vector_norm``.
    """
    with np.errstate(over="ignore"):
        n = float(vector_norm(v))
    if n == np.inf and np.isfinite(v).all():
        top = float(np.max(np.abs(v.view(np.float64))))
        return top, float(vector_norm(v / top))
    return 1.0, n


def normalize(raw) -> State3Q:
    """Scale an 8-component amplitude vector to unit norm.

    A finite vector whose squared norm overflows is rescaled first (see
    ``scaled_norm``).  Raises InvariantViolationError when the norm is not
    finite (a NaN or infinite entry), before any division, and
    ZeroVectorError when it is at or below ZERO_NORM.
    """
    a = np.asarray(raw, dtype=np.complex128).reshape(8)
    scale, n = scaled_norm(a)
    if not n < np.inf:
        raise InvariantViolationError(f"cannot normalize a vector of norm {n!r}")
    if n <= ZERO_NORM:
        raise ZeroVectorError(f"cannot normalize a vector of norm {n!r}")
    if scale != 1.0:
        a = a / scale
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
        raise PreconditionViolatedError(f"expected a 3-character bit string, got {bits!r}")
    a = np.zeros(8, dtype=np.complex128)
    a[int(bits, 2)] = 1.0
    return State3Q(a)


def _ops_for(party: str, op: np.ndarray) -> list[np.ndarray]:
    """The product operator that applies ``op`` to one party and the
    identity to the other two, as the three factors ``apply_local`` takes."""
    if not (isinstance(party, str) and party in _AXIS):
        raise PreconditionViolatedError(f"expected one party of A,B,C; got {party!r}")
    ops = [_EYE, _EYE, _EYE]
    ops[_AXIS[party]] = op
    return ops


def unfoldings(psi: np.ndarray) -> np.ndarray:
    """The (2, 4) unfoldings of a (2, 2, 2) tensor for the parties A, B, C,
    each with the party's axis first and the other two in order; shape
    (3, 2, 4)."""
    return np.stack([psi, psi.transpose(1, 0, 2), psi.transpose(2, 0, 1)]).reshape(3, 2, 4)


def local_spectra(state: State3Q) -> np.ndarray:
    """Ascending eigenvalues of the single-party reductions of A, B and C,
    shape (3, 2).

    Each reduction is the Gram matrix U U^dag of the party's (2, 4)
    unfolding U of the tensor (the party's axis first, the other two in
    order), the same product that the independent partial trace
    ``reduced_density`` of ``tests/oracles.py`` forms, so the eigenvalues
    have the same bits (an einsum Gram would change them); the three Grams
    are formed and diagonalized as one stack.
    """
    u = unfoldings(state.tensor)
    return np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1))


def spectral_ranks(ev: np.ndarray, tol: float) -> np.ndarray:
    """Ranks of Hermitian PSD matrices from their ascending eigenvalues
    (last axis): the count of eigenvalues above tol * (largest), and 0
    where the largest is <= 0."""
    top = ev[..., -1:]
    return np.where(top[..., 0] > 0.0, np.count_nonzero(ev > tol * top, axis=-1), 0)


def check_tol(tol: float) -> None:
    """Raise PreconditionViolatedError unless 0 < ``tol`` < 1.

    A relative rank cut of 1 or more counts no eigenvalue, not even the
    largest, so every local rank would read 0."""
    if not 0.0 < tol < 1.0:
        raise PreconditionViolatedError(f"tol must lie in (0, 1), got {tol!r}")


def check_int(name: str, value: int, low: int) -> None:
    """Raise PreconditionViolatedError unless ``value`` is an integer >= low;
    a bool is a flag, not a count, and is refused too."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise PreconditionViolatedError(f"{name} must be an integer >= {low}, got {value!r}")


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


def fidelity_with(s1: State3Q, s2: State3Q) -> float:
    """|<s1|s2>|^2."""
    return float(abs(np.vdot(s1.amps, s2.amps)) ** 2)
