"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class FormatError(ValueError):
    """A binary container or text file violates its declared format.

    Carries the byte (or line) offset at which the problem was detected,
    and the message without it as ``reason``.
    """

    def __init__(self, message, offset=None):
        self.reason = message
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@contextmanager
def naming(path):
    """Re-raise a FormatError of the body with ``path`` in front of its reason."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{path}: {exc.reason}", offset=exc.offset) from None


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
