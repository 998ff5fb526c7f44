"""Exception types shared across the package."""


class OpenXXXError(Exception):
    """Base class for all package errors."""


class DimensionError(OpenXXXError):
    """Matrix or tensor dimensions are inconsistent or exceed the dense cap."""


class PoleError(OpenXXXError):
    """A spectral parameter or Bethe root fell inside a pole guard."""


class ParameterError(OpenXXXError):
    """Model or solver parameters violate an invariant."""


class FrameUnavailableError(OpenXXXError):
    """The rotated (diagonalized left boundary) frame does not exist for these couplings."""


class ContractionError(OpenXXXError):
    """A lowering-operator string left weight outside the expected sector."""


class TrackingError(OpenXXXError):
    """The sampled transfer matrices have no well-conditioned joint eigenbasis."""


class ConfigError(OpenXXXError):
    """A run configuration file is malformed or inconsistent."""
