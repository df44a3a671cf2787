"""Exception types shared across the package."""


class GhzDistillError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(GhzDistillError, ValueError):
    """Amplitude vector has numerically zero norm."""


class InvariantViolationError(GhzDistillError):
    """A constructed object failed one of its documented invariants."""


class NotGHZClassError(GhzDistillError, ValueError):
    """Operation requires a GHZ-class state and got something else.

    ``cls`` is the EntanglementClass the state was found to be in.
    """

    def __init__(self, message: str, cls=None):
        super().__init__(message)
        self.cls = cls


class IllConditionedError(GhzDistillError):
    """State sits too close to the GHZ/W boundary for a stable decomposition."""


class DegenerateQuadraticError(GhzDistillError):
    """Product-vector quadratic vanished identically with full local ranks."""


class ParallelVectorsError(GhzDistillError, ValueError):
    """Dual basis requested for (numerically) linearly dependent vectors."""


class PreconditionViolatedError(GhzDistillError, ValueError):
    """A caller's argument lies outside the operation's documented domain:
    a count below its minimum, a ``tol`` that is not finite and positive, a
    bit string, party set, overlap or x out of range, a closed form outside
    its family, or a POVM that is not complete or not a contraction.  The
    CLI reports it as a usage error (exit 2)."""
