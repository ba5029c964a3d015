"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates the documented domain of an operation."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable signal
    (e.g. fewer than two distinct scores for a mixture fit)."""


class NumericalDegeneracyError(ArithmeticError):
    """A numerical step failed on near-singular input
    (singular covariance, matrix square root of a non-PSD product)."""


class DotaParseError(ValueError):
    """A malformed annotation line; carries the 1-based line number and,
    for a line read from a file, the file's path."""

    def __init__(self, message: str, line_no: int, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.message, self.line_no, self.path = message, line_no, path
