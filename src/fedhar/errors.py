"""Exception types shared across the package."""


class FedharError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FedharError):
    """Array shapes disagree with what an operation requires."""


class ConfigError(FedharError):
    """A configuration value is out of its legal range."""


class FormatError(FedharError):
    """An input file does not match the expected on-disk format."""


class DegenerateBatchError(FedharError):
    """A loss was requested over a batch with no unmasked elements."""


class DegenerateReportError(FedharError):
    """A report was requested where no label has a defined score."""


class DivergenceError(FedharError):
    """A training loss turned NaN or infinite."""


class AvailabilityError(FedharError):
    """Fewer clients are available than the federation requires."""


class AggregationError(FedharError):
    """Client updates cannot be combined into one weight set."""


class ProtocolError(FedharError):
    """A peer violated the wire protocol."""


class DecodeError(ProtocolError):
    """Bytes could not be decoded; carries the offending offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
