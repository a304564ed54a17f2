"""Exception types raised across the package, and `Frozen`, the base of
its immutable records."""


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


class Frozen:
    """Base of an immutable record: ``__init__`` sets the slots through
    `_fields` (or ``object.__setattr__``); assigning or deleting one later
    raises AttributeError."""

    __slots__ = ()

    def _fields(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__
