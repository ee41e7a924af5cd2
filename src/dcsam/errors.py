"""Exception types shared across the package.

Each name matches the error named in the corresponding operation contract,
so callers can catch by contract rather than by message.
"""


class DcsamError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(DcsamError):
    """Operand shapes are incompatible with the operation."""


class AllMasked(DcsamError):
    """A softmax row has no unmasked entry (bias is -inf everywhere)."""


class UntrackedLoss(DcsamError):
    """Gradient requested for a tensor the tape never recorded."""


class EmptySupportMask(DcsamError):
    """A prompt branch received a support mask with no active pixel."""


class NonDivisibleClassCount(DcsamError):
    """Class count does not split evenly into the requested folds."""


class UnknownClass(DcsamError):
    """Class id outside the synthetic class registry."""


class FrameCountMismatch(DcsamError):
    """Tube frame, mask, and transform counts disagree."""


class EmptyReport(DcsamError):
    """A metric aggregate was requested over zero entries."""


class DivergenceDetected(DcsamError):
    """Training overflowed: an op or a parameter update became non-finite."""


class ConfigError(DcsamError):
    """Config file is malformed, has unknown keys, or misses required keys."""


class CheckpointMissing(DcsamError):
    """Checkpoint directory lacks a required file."""


class IoError(DcsamError):
    """A file is unreadable or violates its on-disk format."""
