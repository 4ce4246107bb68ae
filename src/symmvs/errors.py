"""Exception types raised across the library."""


class SymmvsError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatch(SymmvsError):
    """Inputs that must share a grid shape do not."""


class NonFiniteResult(SymmvsError):
    """A geometric computation produced a non-finite or degenerate result."""


class NonFiniteValue(SymmvsError):
    """An input (a parsed file, camera parameters, an image) contains a
    non-finite number."""


class TooFewViews(SymmvsError):
    """An operation needs at least two views."""


class NoParallax(SymmvsError):
    """No source camera moves any pixel of a reference view by half a pixel
    over the depth range (a camera at its centre moves none), so the depth
    cannot be estimated."""


class EmptySweep(SymmvsError):
    """No pixel of a reference view sees a second view at any depth
    hypothesis, so the hypothesis range misses the scene."""


class EmptyMask(SymmvsError):
    """A masked reduction has no valid pixels; the term must be skipped."""


class EmptyOverlap(SymmvsError):
    """Predicted and ground-truth depth maps share no jointly valid pixels."""


class NonPositiveGT(SymmvsError):
    """Ground-truth depth must be strictly positive on evaluated pixels."""


class EmptyCloud(SymmvsError):
    """Point-cloud metrics need two non-empty clouds."""


class ParseError(SymmvsError):
    """A file could not be parsed; the message carries path and line number."""


class UnsupportedVariant(SymmvsError):
    """A file is syntactically valid but uses an unsupported variant."""
