"""Exception hierarchy and warning categories shared across the package."""


class MapnetError(Exception):
    """Base class for all mapnet errors."""


class ParseError(MapnetError):
    """Malformed input text.

    ``line`` and ``column`` are 1-based positions when known (column counts
    fields, not characters).
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class DuplicateLabel(MapnetError):
    """A gene or condition label occurs more than once."""


class NegativeWeight(ParseError):
    """An edge weight is negative."""


class EmptyNetwork(MapnetError):
    """No pair of nodes is observed in any layer."""


class DomainError(MapnetError):
    """A parameter lies outside the domain of the objective."""


class BracketingFailure(MapnetError):
    """No finite prior rate: the total weight does not exceed the pair count."""


class DegenerateAllZero(BracketingFailure):
    """Every observed weight sum is zero; the prior rate diverges."""


class EmptyGraph(MapnetError):
    """The graph has no positive edge weight."""


class DegenerateValues(MapnetError):
    """All sample values are identical."""


class UniverseMismatch(MapnetError):
    """Two objects refer to different node universes."""


class MapnetWarning(UserWarning):
    """Base class for all mapnet warnings."""


class DuplicateEdgeWarning(MapnetWarning):
    """Duplicate (layer, u, v) lines were found while parsing; carries a count."""

    def __init__(self, count):
        self.count = count
        super().__init__(f"{count} duplicate edge line(s); last occurrence wins")


class DegenerateConditionWarning(MapnetWarning):
    """Conditions of a dataset that could not be z-scored were left unchanged;
    carries the dataset's name and the conditions' labels."""

    def __init__(self, dataset, labels):
        self.dataset = dataset
        self.labels = tuple(labels)
        super().__init__(f"conditions of dataset {dataset!r} left unchanged"
                         " (fewer than 2 values or zero spread): " + ", ".join(self.labels))


class NotConverged(MapnetWarning):
    """A subset's solve ran out of iterations before it converged; carries the
    subset size, its dataset names, the iterations run and the last theta."""

    def __init__(self, size, datasets, iterations, theta):
        self.size = size
        self.datasets = tuple(datasets)
        self.iterations = iterations
        self.theta = theta
        super().__init__(f"subset of size {size} ({', '.join(self.datasets)}) did not converge"
                         f" in {iterations} iterations; theta {theta!r}")
