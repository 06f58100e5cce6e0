"""Exception types shared across the package.

Class names follow the error contracts of the public operations; several
deliberately omit the conventional ``Error`` suffix because callers match
on them by name.
"""


class NovascapeError(Exception):
    """Base class for all package errors."""


# registry / corpus ingestion

class RegistryError(NovascapeError):
    pass


class DuplicateFeature(RegistryError):
    pass


class EmptyRegistry(RegistryError):
    pass


class ParseError(NovascapeError):
    """Malformed input file; carries file position context in the message."""


class UnknownFeature(ParseError):
    def __init__(self, row: int, name: str):
        super().__init__(f"row {row}: unknown feature {name!r}")
        self.row = row
        self.name = name


class DuplicateId(ParseError):
    pass


class SchemaError(ParseError):
    pass


# metrics

class DimensionError(NovascapeError):
    pass


class EmptyWindow(NovascapeError):
    """Comparison window contains no records; the score is undefined, not 0."""


# landscape

class EmptyGraph(NovascapeError):
    pass


# statistics

class EmptySample(NovascapeError):
    pass


class RankDeficient(NovascapeError):
    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; collinear columns: {self.columns}")


class NumericError(NovascapeError):
    pass


class SeparationError(NumericError):
    """Perfect separation: coefficients diverge during maximum likelihood."""


class UnknownTerm(NovascapeError):
    pass


# synthesis / configuration

class ConfigError(NovascapeError):
    pass
