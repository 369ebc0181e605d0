"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and
ShapeError -> 3, NumericError -> 4, any other OdnetError (such as a dead
``--jobs`` worker, naming the seeds that did not finish) -> 1 (and a
MemoryError -> 5, an interrupt -> 130).
"""


class OdnetError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(OdnetError):
    """Array dimensions do not satisfy an operation's contract."""


class ConfigError(OdnetError):
    """Invalid, unknown, or inconsistent configuration content."""


class DataError(OdnetError):
    """Dataset files or dataset contents are unusable."""


class CoverageError(DataError):
    """An evaluation point lies outside every patch."""


class NumericError(OdnetError):
    """A computation produced NaN/Inf or exceeded a stability bound."""
