"""Exception hierarchy shared across the package."""


class CfstError(Exception):
    """Base class for all package errors."""


class DataError(CfstError):
    """Malformed or physically invalid input data."""


class NumericError(CfstError):
    """A computation left its valid domain (divergence, bad radicand, ...)."""


class ConfigError(CfstError, ValueError):
    """Invalid configuration or arguments."""
