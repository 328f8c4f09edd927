"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Dimension argument out of range for the operation."""


class DimensionMismatchError(ValueError):
    """Two operands have incompatible dimensions."""


class DomainError(ValueError):
    """Numeric argument outside the mathematical domain of the operation."""


class CapacityExceededError(ValueError):
    """Message does not fit the codec capacity."""


class UnknownTransformError(ValueError):
    """Transform name not present in the attack registry."""


class ImageFormatError(ValueError):
    """Malformed or unsupported image file."""


class ImageSizeError(ValueError):
    """Image too small for embedding or extraction."""


class KeyFileError(ValueError):
    """Key file missing, malformed, or lacking a seed field."""


class DegenerateLabelsError(ValueError):
    """Scored sample set lacks positives or negatives."""
