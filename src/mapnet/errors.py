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


class NegativeWeight(MapnetError):
    """An edge weight is negative."""


class LengthMismatch(MapnetError):
    """Paired sequences have different lengths."""


class EmptyNetwork(MapnetError):
    """No pair of nodes is observed in any layer."""


class DomainError(MapnetError):
    """A parameter lies outside the domain of the objective."""


class DegenerateAllZero(MapnetError):
    """Every observed weight sum is zero; the prior rate diverges."""


class BracketingFailure(MapnetError):
    """No sign change found for the scalar fixed-point equation."""


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
    """Conditions that could not be z-scored were left unchanged."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__(
            "conditions left unchanged (fewer than 2 values or zero spread): "
            + ", ".join(self.labels)
        )


class PowerIterationWarning(MapnetWarning):
    """Power iteration ran out of steps; carries the step count and the
    residual ‖Av − μv‖ / μ it stopped at."""

    def __init__(self, steps, residual):
        self.steps = steps
        self.residual = residual
        super().__init__(f"power iteration stopped unconverged after {steps} steps "
                         f"at residual {residual:.3g}")
