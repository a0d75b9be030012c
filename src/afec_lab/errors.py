"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Tensor dimensions do not chain or do not match a declared contract."""


class NumericError(ArithmeticError):
    """Non-finite values encountered during a numeric computation. Raised
    by a stacked network's forward pass, it has `rows`, a boolean array
    that marks the networks whose activations are non-finite."""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or unknown method name."""


class FormatError(ValueError):
    """Malformed external file (state file, IDX dataset, experiment config)."""


class MetricUnavailableError(ValueError):
    """A transfer metric was requested without the data needed to compute it."""
