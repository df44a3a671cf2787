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


class NonPositiveXError(GhzDistillError, ValueError):
    """Objective evaluated outside its domain x > 0."""


class PreconditionViolatedError(GhzDistillError, ValueError):
    """Argument outside the operation's domain: a closed form outside its
    family, or a caller's POVM that is not complete or not a contraction."""


class InfeasibleXError(GhzDistillError, ValueError):
    """Diagonal-family parameter outside the positivity region of the POVM."""
