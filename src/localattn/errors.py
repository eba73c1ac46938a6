"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class UnsupportedExtentError(ValueError):
    """Spatial extent not supported (general layers require odd k)."""


class DegenerateGroupError(ValueError):
    """A softmax group's max logit was not finite: it held a +inf or NaN, or
    every slot was masked out by a logit of -inf."""


class ConfigurationError(ValueError):
    """Invalid layer or model configuration."""


class PaddingError(ValueError):
    """Input spatial size incompatible with a block-aligned operation."""


class ResolutionError(ValueError):
    """Input resolution incompatible with the model's downsampling."""


class ScheduleError(ValueError):
    """Step outside the learning-rate schedule's domain."""


class DivergenceError(RuntimeError):
    """Training loss or a gradient became non-finite."""


class ConsumedTapeError(RuntimeError):
    """Backward on a tape with no records: an earlier backward consumed it,
    or an inference forward recorded nothing."""


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or Inf."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"non-finite gradient for parameter '{name}'")


class IngestionError(ValueError):
    """Dataset file malformed; `offset` is the first bad byte position."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class CheckpointError(ValueError):
    """Checkpoint file malformed or incompatible."""
