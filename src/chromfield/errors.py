"""Exception types shared across the package."""


class ChromfieldError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(ChromfieldError):
    """A combinatorial enumeration would exceed its configured size cap."""


class BadInputError(ChromfieldError, ValueError):
    """Input text, a name or a setting cannot be parsed or contradicts itself."""


class LoopyGraphError(ChromfieldError):
    """Partition-function evaluation was requested on a graph with a loop."""


class BadSizeError(ChromfieldError):
    """A family constructor was called with an out-of-range size."""


class NotExpressibleError(ChromfieldError):
    """A polynomial cannot be rewritten in the requested variable basis."""


class BadDecompositionError(ChromfieldError):
    """A supplied graph decomposition is inconsistent (labels, edges, overlap)."""


class NoConvergenceError(ChromfieldError):
    """The root finder failed to converge within its iteration budget."""


class DegenerateDenominatorError(ChromfieldError):
    """A closed-form zero formula was evaluated where its denominator vanishes."""


class PreconditionUnmetError(ChromfieldError):
    """Arguments fall outside the validity region of the requested formula."""
