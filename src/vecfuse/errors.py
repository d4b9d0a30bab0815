"""Exception hierarchy for the toolkit, and `open_utf8`, which reads a
leading byte order mark as one and reports a text file that is not UTF-8
as a `ParseError` naming its line.

Three branches matter to callers: configuration problems, malformed or
inconsistent data, and numerical failures. The CLI maps them to exit
codes 1, 2 and 3 respectively.
"""

from contextlib import contextmanager


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


@contextmanager
def open_utf8(path):
    """`open(path, encoding="utf-8-sig")`: UTF-8, less a byte order mark
    at the very start. A byte sequence that does not decode is a
    ParseError naming its line: only then is the file read again, in
    binary, to find the line."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise _undecodable_line(path, exc) from None


def _undecodable_line(path, exc) -> ParseError:
    lineno = 0
    with open(path, "rb") as f:
        for chunk in f:
            # text mode ends a line at "\r", "\r\n" or "\n", as splitlines does
            for line in chunk.splitlines():
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    return ParseError(f"not UTF-8: {line_exc.reason} at byte "
                                      f"{line_exc.start + 1} of the line",
                                      path=str(path), line=lineno)
    return ParseError(f"not UTF-8: {exc.reason}", path=str(path))


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
    """Merge plan does not hold one label per row of the matrix."""


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
