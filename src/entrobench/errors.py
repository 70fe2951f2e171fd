"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes (cli.EXIT_CONFIG, EXIT_SOURCE
and EXIT_DATA), so new error conditions should subclass one of the three
roots below rather than raising bare ValueError from user-facing paths.
"""


class EntrobenchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(EntrobenchError):
    """Invalid spec, manifest, or configuration value."""


class SourceError(EntrobenchError):
    """Telemetry source or GEMM backend failure."""


class FormatError(SourceError):
    """Malformed input file or telemetry text."""


class InsufficientDataError(EntrobenchError):
    """Not enough samples or runs to compute the requested statistic."""
