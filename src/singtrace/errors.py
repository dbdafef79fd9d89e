"""Exception types shared across the library."""


class SingtraceError(Exception):
    """Base class for every error raised by this package."""


class SequenceSpecError(SingtraceError, ValueError):
    """A sequence or set descriptor string failed to parse."""


class ParameterError(SingtraceError, ValueError):
    """A family parameter or argument is outside its admissible range."""


class MonotonicityError(SingtraceError, ValueError):
    """A sequence violated the non-increasing / positivity contract."""


class IndexRangeError(SingtraceError, OverflowError):
    """Index is outside the family's float-safe evaluation domain."""


class UndeterminedSummabilityError(SingtraceError):
    """The summability class of a sequence cannot be certified."""


class DegenerateRatioError(SingtraceError, ZeroDivisionError):
    """A partial-sum ratio is undefined (S_n = 0 at a required index)."""


class NotEccentricError(SingtraceError):
    """No ratio witnesses were found within the requested horizon."""


class InvariantViolationError(SingtraceError):
    """A computed quantity violated an inequality it is required to satisfy."""


class PartitionError(SingtraceError, ValueError):
    """An interval partition is malformed."""
