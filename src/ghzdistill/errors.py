"""Exception types shared across the package.

The CLI maps each to its exit code in one place: PreconditionViolatedError
exits 2, NotGHZClassError exits 4 and every other GhzDistillError exits 3.
"""


class GhzDistillError(Exception):
    """Base class for all package-specific errors.  CLI exit 3 unless a
    subclass says otherwise."""


class ZeroVectorError(GhzDistillError, ValueError):
    """Amplitude vector has numerically zero norm.  CLI exit 3."""


class InvariantViolationError(GhzDistillError):
    """A constructed object failed one of its documented invariants, a
    non-finite amplitude or field included.  CLI exit 3."""


class NotGHZClassError(GhzDistillError, ValueError):
    """Operation requires a GHZ-class state and got something else.

    ``cls`` is the EntanglementClass the state was found to be in.  CLI
    exit 4.
    """

    def __init__(self, message: str, cls=None):
        super().__init__(message)
        self.cls = cls


class IllConditionedError(GhzDistillError):
    """State sits too close to the GHZ/W boundary for a stable decomposition.
    CLI exit 3."""


class DegenerateQuadraticError(GhzDistillError):
    """Product-vector quadratic vanished identically with full local ranks.
    CLI exit 3."""


class ParallelVectorsError(GhzDistillError, ValueError):
    """Dual basis requested for (numerically) linearly dependent vectors.
    CLI exit 3."""


class PreconditionViolatedError(GhzDistillError, ValueError):
    """A caller's argument lies outside the operation's documented domain:
    a count below its minimum, a ``tol`` outside (0, 1), a bit string,
    party name, overlap or x out of range, a closed form outside its
    family, or a POVM that is not complete or not a contraction; in the CLI
    also a state file it cannot read or decode.  CLI exit 2."""
