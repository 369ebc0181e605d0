"""Exception types shared across the toolkit.

Each type's CLI exit status and stderr prefix are its ``exit_code`` and
``label``: ConfigError -> 2, DataError and ShapeError -> 3, NumericError
-> 4, any other OdnetError (such as a dead ``--jobs`` worker, naming the
seeds that did not finish) -> 1 (and a MemoryError -> 5, an interrupt -> 130).
"""


class OdnetError(Exception):
    """Base class for all toolkit errors."""
    exit_code, label = 1, "error"


class ShapeError(OdnetError):
    """Array dimensions do not satisfy an operation's contract."""
    exit_code, label = 3, "data error"


class ConfigError(OdnetError):
    """Invalid, unknown, or inconsistent configuration content."""
    exit_code, label = 2, "config error"


class DataError(OdnetError):
    """Dataset files or dataset contents are unusable."""
    exit_code, label = 3, "data error"


class CoverageError(DataError):
    """An evaluation point lies outside every patch."""


class NumericError(OdnetError):
    """A computation produced NaN/Inf or exceeded a stability bound."""
    exit_code, label = 4, "numeric failure"
