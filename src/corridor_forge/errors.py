"""Exception types shared across the package."""


class CorridorForgeError(Exception):
    """Base class for all package errors."""


class DegenerateFace(CorridorForgeError):
    """A face was given with repeated vertices."""


class InvalidParams(CorridorForgeError):
    """Parameters violate a documented precondition."""


class EmptyDual(CorridorForgeError):
    """The complex has no faces of the requested dimension."""


class NotStronglyConnected(CorridorForgeError):
    """Operation requires a connected dual graph."""


class RefusedSize(CorridorForgeError):
    """Input exceeds the size guard of an exhaustive search."""


class OutOfRegime(CorridorForgeError):
    """Trajectory formula evaluated outside its valid time range (p <= 0)."""


class InvalidTrackedComplex(CorridorForgeError):
    """A tracked subcomplex violates the size bounds of the tracked family."""


class VerificationError(CorridorForgeError):
    """A structural invariant failed on a completed run."""
