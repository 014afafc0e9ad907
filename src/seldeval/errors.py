"""Exception types shared across the toolkit."""


class SeldEvalError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateMean(SeldEvalError):
    """Spherical mean requested for directions that cancel out."""


class ParseError(SeldEvalError):
    """Malformed annotation file content."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" [{where}]"
        super().__init__(f"{message}{where}")


class UnknownClass(SeldEvalError):
    """Class label or index outside the configured vocabulary."""


class InvalidInterval(SeldEvalError):
    """Event with onset >= offset or a negative onset."""


class ConfigError(SeldEvalError):
    """Inconsistent evaluation configuration."""


class GridOverflow(SeldEvalError, ValueError):
    """Content reaches past the end of a fixed-length frame grid."""


class ReferenceTooLong(SeldEvalError):
    """A reference file reaches frame 2**63, or covers more frames than memory holds."""


class InvalidDirection(SeldEvalError, ValueError):
    """Angles that are not finite or put |elevation| above 90 deg, or a
    zero or non-finite vector given as a direction."""


class LengthMismatch(SeldEvalError):
    """Aligned frame sequences differ in length."""


class TooFewFiles(SeldEvalError):
    """Jackknife needs at least two per-file observations."""


class UndefinedPartial(SeldEvalError):
    """A leave-one-out subset made the jackknifed metric undefined."""


class DegenerateRanks(SeldEvalError):
    """Rank correlation requested for a constant rank vector."""


class UndefinedValue(SeldEvalError):
    """Ranking requested over systems with missing metric values."""


class MissingPair(SeldEvalError):
    """Reference and prediction directories do not match up by filename."""
