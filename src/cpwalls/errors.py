"""Exception and warning types shared across the package.

The CLI maps these onto exit codes: ConfigError (and subclasses) exit 1,
DomainError (and subclasses) exit 2, with the class name printed to stderr.
"""


class CpwallsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CpwallsError):
    """An evaluation point or parameter lies outside the physical domain."""


class OutOfDomain(DomainError):
    """Position outside the open interval between the walls (or d <= 0)."""


class TooCloseToWall(DomainError):
    """Position inside the guard band around a wall with mode=reject."""


class TailBoundViolated(DomainError):
    """Image-sum truncation cannot meet the requested absolute tolerance."""


class NonFiniteResult(DomainError):
    """A table cell would be inf, nan or subnormal, or a prefactor overflows."""


class ConfigError(CpwallsError):
    """Malformed run configuration (bad flags, config file, or grid spec)."""


class InvalidGrid(ConfigError):
    """Sweep or study grid violates its ordering/positivity requirements."""


class NegativePolarizabilityWarning(UserWarning):
    """A static polarizability was negative; formulas remain linear in it."""


class FlatPotentialWarning(UserWarning):
    """alpha0 == beta0 makes the potential position-independent."""
