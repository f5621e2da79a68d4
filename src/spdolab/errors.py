"""Exception taxonomy shared across the laboratory modules."""


class SpdoLabError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(SpdoLabError):
    """An operation combined objects living on different grids."""


class ContextMismatchError(SpdoLabError):
    """Operators frozen at different (time, path) contexts were combined."""


class DenseCapError(SpdoLabError):
    """A dense-matrix realization was requested beyond the configured size cap."""


class AdaptednessError(SpdoLabError):
    """A causally truncated Brownian path was queried beyond its cutoff time."""


class WindowError(SpdoLabError):
    """A pinning window does not vanish at both endpoints."""


class EllipticityError(SpdoLabError):
    """A construction requiring an elliptic symbol received one that is not."""


class RootSolveError(SpdoLabError):
    """Characteristic-root refinement failed to reach the residual target."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateDiagonalizationError(SpdoLabError):
    """Eigenvalue collision below the separation floor; no stable eigenbasis."""


class BranchCrossingError(SpdoLabError):
    """Nearest-neighbor root continuation became ambiguous between samples."""


class StencilError(SpdoLabError):
    """Not enough time nodes for the requested finite-difference stencil."""


class NonFiniteError(SpdoLabError):
    """Arithmetic produced a non-finite value where the method guarantees a finite one."""


class OrderFitError(SpdoLabError):
    """Too few sampled frequency radii resolve a symbol to fit its growth order."""


class ConfigError(SpdoLabError):
    """Configuration file is missing, malformed, or violates the schema."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc += f"line {line}: "
        if key is not None:
            loc += f"key '{key}': "
        super().__init__(loc + message)
        self.key = key
        self.line = line
