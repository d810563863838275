"""Exception types shared across the package."""


class ArstatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(ArstatError):
    """A statistics specification violates an admissibility condition."""


class ModeOutOfRange(ArstatError, IndexError):
    """A mode index lies outside 1..r."""


class DomainError(ArstatError, ValueError):
    """A phase-space point lies outside the family's analytic domain."""


class TruncationError(ArstatError):
    """The bosonic truncation tail exceeds the requested tolerance."""


class CapError(ArstatError, ValueError):
    """A droplet occupancy cap violates the representation bounds."""


class GridError(ArstatError, ValueError):
    """A sampled field grid is not uniform."""


class SizeError(ArstatError):
    """A state space exceeds its size budget."""


class ConfigError(ArstatError):
    """A run configuration file or override is malformed."""
