"""Exception hierarchy shared by all modules."""


class W9Error(Exception):
    """Base class for all library errors."""


class DimensionError(W9Error):
    """Matrix or vector dimensions do not match the operation's contract."""


class SingularMatrixError(W9Error):
    """A matrix that must be inverted is numerically singular."""


class ParameterError(W9Error):
    """A scalar parameter is outside its admissible range."""


class LayoutError(W9Error):
    """Branch points do not match the requested homology layout."""


class PathError(W9Error):
    """An integration path passes too close to a foreign branch point."""


class AccuracyError(W9Error):
    """A computed period matrix failed its accuracy check."""


class TruncationError(W9Error):
    """The theta tail bound cannot be met within the allowed radius."""


class ShapeMismatchError(W9Error):
    """A 3x3 period matrix does not have the structured cover form."""


class DegeneracyError(W9Error):
    """A curve has (numerically) repeated branch points."""


class BracketError(W9Error):
    """No longer raised by the library, whose solve_y has no root scan; kept
    because bench/selftest.py imports it."""
