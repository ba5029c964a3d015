"""Exception types shared across the package, the seed check, and the
reader of the package's line-based text inputs."""

import numbers


class InvalidInputError(ValueError):
    """An argument violates the documented domain of an operation."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable signal
    (e.g. fewer than two distinct scores for a mixture fit)."""


class NumericalDegeneracyError(ArithmeticError):
    """A numerical step failed on near-singular input
    (singular covariance, matrix square root of a non-PSD product)."""


class LineError(InvalidInputError):
    """A line of a text input that breaks its format; carries the 1-based
    line number and, for a line read from a file, the file's path."""

    def __init__(self, message: str, line_no: int, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.message, self.line_no, self.path = message, line_no, path


class DotaParseError(LineError):
    """A malformed annotation line."""


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed``, once it is known to be a nonnegative integer: numpy's
    generators take no other seed, and the error names the value."""
    if not isinstance(seed, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {seed}")
    if seed < 0:
        raise InvalidInputError(f"{name} must be nonnegative, got {seed}")
    return seed


def read_text(path) -> str:
    """The text of the file at ``path``; a byte that is not UTF-8 is an
    input error that names the file and the byte's offset."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})") from None


def numbered_lines(text: str):
    """(1-based line number, stripped line) of each line of ``text`` that
    is neither blank nor a whole-line ``#`` comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line
