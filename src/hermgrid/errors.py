"""Exception types raised across the package."""


class HermgridError(Exception):
    """Base class for all package-specific errors."""


class LevelTooLarge(HermgridError):
    """Quadrature level beyond the validated node-accuracy regime."""


class ThresholdTooSmall(HermgridError):
    """Index-set enumeration exceeded the configured size cap."""


class NotDownwardClosed(HermgridError):
    """Operation requires a downward closed index set."""


class EmptyIndexSet(HermgridError):
    """Operation requires a nonempty index set."""


class EmptyAllocation(HermgridError):
    """Level construction produced no active multi-indices (threshold too large)."""


class UnsupportedSmoothness(HermgridError):
    """Matern smoothness without a closed-form kernel."""


class NotPositiveDefinite(HermgridError):
    """Circulant embedding has a negative eigenvalue; enlarge the half-period."""


class QuadratureNonconvergence(HermgridError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SingularSystem(HermgridError):
    """Linear system assembled by the FEM solver is singular."""


class DegenerateNormalization(HermgridError):
    """Quadrature of the posterior density returned a non-positive constant."""


class ConfigError(HermgridError):
    """Malformed study or problem configuration."""


class OutputError(HermgridError):
    """An output directory or file could not be written."""
