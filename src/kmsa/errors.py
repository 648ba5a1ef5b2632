"""Exception and warning types shared across the package."""


class KmsaError(Exception):
    """Base class for all package errors."""


class ConfigError(KmsaError):
    """Invalid configuration. Carries a machine-readable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NumericError(KmsaError):
    """Numerical failure: non-finite values, indefinite constraint matrix,
    or an eigensolver residual outside its backward-error bound."""


class GraphError(KmsaError):
    """A graph that validated input cannot give (e.g. an lpp median heat that
    underflows to 0)."""


class DimensionError(KmsaError):
    """Shape mismatch between related matrices."""


class EvalError(KmsaError):
    """Evaluation protocol violation (e.g. a query class absent from the gallery)."""


class IoError(KmsaError):
    """Missing or unreadable file or directory."""


class FormatError(KmsaError):
    """Malformed file contents (ragged rows, non-numeric or non-finite cells,
    mismatched sample counts)."""


class VersionError(KmsaError):
    """Persisted artifact written with an unsupported format version."""


class ConvergenceWarning(UserWarning):
    """An iterative solve hit its iteration cap before reaching tolerance."""


class NonMonotoneWarning(UserWarning):
    """The objective trace increased beyond the allowed relative slack."""


class WeightDomainWarning(UserWarning):
    """A view's trace term was non-positive; the closed-form weight update is
    undefined there and the term was clamped to a tiny positive floor."""
