"""Exception hierarchy for the toolkit.

Three branches matter to callers: configuration problems, malformed or
inconsistent data, and numerical failures. The CLI maps them to exit
codes 1, 2 and 3 respectively.
"""


class VecfuseError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VecfuseError):
    """Invalid or inconsistent pipeline configuration."""


class DataError(VecfuseError):
    """Malformed input data or violated data contract."""


class NumericalError(VecfuseError):
    """A numerical computation could not produce a meaningful result."""


# --- label standardization ---

class InvalidLanguage(DataError):
    """Language tag is not a 2- or 3-letter lowercase ASCII code."""


class EmptyAfterNormalization(DataError):
    """No token survived tokenization and punctuation stripping."""


# --- file parsing ---

class ParseError(DataError):
    """Unparseable content; carries the offending line number when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class DimensionMismatch(DataError):
    """Row width differs from the established dimension count."""


class DuplicateLabel(DataError):
    """The same label occurs more than once."""


class TruncatedFile(DataError):
    """Binary payload ended before the declared content was read."""


class BadMagic(DataError):
    """Native matrix file does not start with the expected magic bytes."""


class ChecksumOrLengthMismatch(DataError):
    """Native matrix payload length disagrees with its header."""


# --- merging and graphs ---

class InvalidRank(DataError):
    """Frequency rank must be a positive integer."""


class PlanMismatch(DataError):
    """Merge plan does not cover exactly the rows of the matrix."""


class NonPositiveWeight(DataError):
    """An edge weight is zero or negative (a non-finite one is a ParseError)."""


# --- fusion ---

class EmptyOverlap(DataError):
    """The two embedding spaces share no vocabulary."""


class ConvergenceFailure(NumericalError):
    """The iterative SVD kernel did not converge."""


# --- evaluation ---

class InvalidChunk(DataError):
    """Round-robin chunk index outside [1, num_chunks]."""


class DegenerateInput(NumericalError):
    """Rank correlation is undefined when one side is constant."""


class DegenerateCorrelation(NumericalError):
    """Fisher interval is undefined for |rho| >= 1 or n < 4."""


class StageError(VecfuseError):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
