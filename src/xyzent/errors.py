"""Exception types the runtime raises; those only the oracles raise are in linalg."""


class XyzentError(Exception):
    """Base class for all library errors."""


class NonFiniteInput(XyzentError, ValueError):
    """A model parameter is NaN or infinite."""


class InvalidTemperature(XyzentError, ValueError):
    """Temperature is negative or non-finite."""


class InvalidMixture(XyzentError, ValueError):
    """Mixture weights are not a probability vector."""


class DegenerateBasis(XyzentError, ValueError):
    """Closed form requested for a degenerate eigenbasis with unequal
    weights on the degenerate pair, where no single convention is exact."""


class OutOfRange(XyzentError, ValueError):
    """Scalar argument outside its documented domain."""
