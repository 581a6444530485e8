"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed in-memory input: bad shapes, NaNs, asymmetry, unknown nodes."""


class InvalidParameterError(ValueError):
    """Parameter outside its documented range."""


class FormatError(ValueError):
    """Unparseable input file; the message carries the line number where known."""


class IllPosedError(RuntimeError):
    """The requested linear system has no usable solution on this graph."""


class DivergenceError(RuntimeError):
    """Iteration diverged; typically the variance weight exceeds the stability bound."""


class OracleSizeError(ValueError):
    """Problem too large for the dense reference solver."""


class InsufficientLabelsError(ValueError):
    """A class has fewer members than the requested labels per class."""


class LayoutError(ValueError):
    """Reports cannot be arranged into a single table."""
