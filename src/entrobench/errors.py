"""Exception types shared across the toolkit.

Each of the three roots below declares the process exit code and the
stderr label the CLI reports it with, so new error conditions should
subclass one of them rather than raising bare ValueError from
user-facing paths.
"""


class EntrobenchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(EntrobenchError):
    """Invalid spec, manifest, or configuration value."""
    exit_code, label = 2, "configuration error"


class SourceError(EntrobenchError):
    """Telemetry source or GEMM backend failure."""
    exit_code, label = 3, "source/backend error"


class FormatError(SourceError):
    """Malformed input file or telemetry text."""


class InsufficientDataError(EntrobenchError):
    """Not enough samples or runs to compute the requested statistic."""
    exit_code, label = 4, "insufficient data"
