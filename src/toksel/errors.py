"""Exception types shared across the package.

The CLI maps these onto exit codes: ParameterError -> 1 (usage),
DataError and subclasses -> 2, CapacityError and MemoryError -> 3.
"""


class ParameterError(ValueError):
    """An argument is outside its documented range or missing."""


class DataError(ValueError):
    """Input data is malformed, inconsistent, or insufficient."""


class SchemaError(DataError):
    """A file or dataset does not match the expected schema."""


class UndefinedStatisticError(DataError):
    """A statistic (e.g. AUC) is undefined for the given inputs."""


class CapacityError(RuntimeError):
    """A capacity cap was exceeded: the exhaustive search's subset count, or calls numpy can address."""
