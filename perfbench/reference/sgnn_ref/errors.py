"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate for the requested operation."""


class UnsupportedKindError(ValueError):
    """Shift-operator kind not supported by this operation."""


class DomainViolationError(ValueError):
    """A spectrum left the frequency interval it was required to stay in."""


class SizeGuardError(ValueError):
    """Problem size exceeds an enumeration guard."""


class DivergenceError(RuntimeError):
    """A numerical process produced non-finite or runaway values."""


class StaleCacheError(RuntimeError):
    """Forward cache does not match the tensor and realizations passed to backward."""
