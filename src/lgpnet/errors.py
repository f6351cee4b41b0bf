"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class FormatError(ValueError):
    """A binary container or text file violates its declared format.

    Carries the byte (or line) offset at which the problem was detected.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@contextmanager
def naming(path):
    """Put ``path`` in front of the message of a ValueError the body raises,
    unless it is there already.  FormatError and ProtocolError keep their
    type and location; any other ValueError becomes a plain one."""
    try:
        yield
    except ValueError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        if not isinstance(exc, (FormatError, ProtocolError)):
            raise ValueError(f"{path}: {exc}") from None
        exc.args = (f"{path}: {exc}",)
        raise


class ProtocolError(ValueError):
    """A protocol or score file is malformed; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class TrainingDivergedError(RuntimeError):
    """A loss or parameter became non-finite during training."""


class NonFiniteMapError(FloatingPointError):
    """A feature map derived from finite input is not finite (overflow);
    ``row`` is the batch row of the first such map."""

    def __init__(self, message, row):
        super().__init__(f"{message} (batch row {row})")
        self.row = row
