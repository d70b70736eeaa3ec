"""Exception hierarchy for the toolkit.

All errors derive from CovRegError so callers can catch broadly.
ValidationError groups input problems; NumericalError groups failures
discovered during linear algebra.
"""


class CovRegError(Exception):
    pass


class ValidationError(CovRegError):
    pass


class NumericalError(CovRegError):
    pass


# --- ingestion ---

class ParseError(ValidationError):
    pass


class MissingValueError(ParseError):
    pass


class TooFewObservations(ValidationError):
    pass


class DuplicateAssetId(ValidationError):
    pass


# --- covariance / factor models ---

class ZeroVarianceAsset(NumericalError):
    pass


class NegativeEigenvalueError(NumericalError):
    pass


class SingularSpecificRisk(NumericalError):
    pass


class IllConditioned(NumericalError):
    pass


# --- regularizers ---

class RhoOutOfRange(ValidationError):
    pass


class DiagonalMismatch(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class FhatOutOfRange(ValidationError):
    pass


# --- harness ---

class InvalidSpec(ValidationError):
    pass


class SplitTooSmall(ValidationError):
    pass
