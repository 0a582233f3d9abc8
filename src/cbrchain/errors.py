"""Exception taxonomy for cbrchain.

Every validation failure raised by this package is a named subclass of
:class:`CbrChainError`, so callers (notably the CLI) can separate domain
failures from programming errors with one ``except`` clause. The base class
subclasses :class:`ValueError`, so code that catches ``ValueError`` keeps
working. Where the interpreter itself refuses an input (an integer string
beyond ``sys.get_int_max_str_digits()``, JSON nested beyond the recursion
limit), the boundary that calls it converts the builtin error into one of
these classes. Errors that carry structured context expose it as attributes
in addition to the formatted message.
"""

from __future__ import annotations

import copyreg


def _describe(value) -> str:
    """A value for a message: an int or a Fraction exact, or rounded when
    too long to convert; anything else, a ``bool`` too, by its ``repr``."""
    from fractions import Fraction

    from .rationals import _rounded, format_rational  # rationals imports this module

    if isinstance(value, Fraction) or type(value) is int:
        try:
            return format_rational(value)
        except InvalidRational:
            return f"{_rounded(value)} (rounded)"
    return repr(value)


class CbrChainError(ValueError):
    """Base class for all domain errors raised by cbrchain.

    It is a :class:`ValueError`: every domain error is a bad value. An error
    pickles with its class, message and attributes, and unpickles without
    calling its constructor, whose parameters differ by class; so one raised
    in a forked worker is raised again in its parent.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- rationals -------------------------------------------------------------

class InvalidRational(CbrChainError):
    """A value that cannot cross the exact text boundary.

    Text outside the rational grammar, a zero denominator, a value that is
    not an exact rational (a float, a bool), or a numerator or denominator
    with more digits than the interpreter converts between int and str.
    """


# --- transition matrix validation ---------------------------------------

class NegativeEntry(CbrChainError):
    def __init__(self, row: int, col: int, value: Fraction):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry ({row}, {col}) is negative: {_describe(value)}")


class RowSumNotOne(CbrChainError):
    def __init__(self, row: int, actual: Fraction):
        self.row, self.actual = row, actual
        super().__init__(
            f"row {row} sums to {_describe(actual)}, expected exactly 1"
        )


class DuplicateLabel(CbrChainError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate state label: {label!r}")


class StateMismatch(CbrChainError):
    """Labels and the entries they label disagree.

    A matrix or vector whose shape does not match its state labels, a label
    that is not a string or not one of the states, a vector and matrix with
    different state sets or orders, or a chain with no states at all.
    """


class InvalidDistribution(CbrChainError):
    """A probability vector or an evolution request is malformed.

    Negative probabilities, a sum other than exactly 1, or a phase count
    that is not a non-negative ``int`` (a ``bool`` is not one).
    """


# --- absorbing-chain structure -------------------------------------------

class NotAbsorbingChain(CbrChainError):
    """Some transient state cannot reach any absorbing state."""


class NoTransientStates(CbrChainError):
    """Canonical form is undefined when every state is absorbing."""


class SingularMatrix(CbrChainError):
    """I - Q is not invertible (the chain cannot be absorbed)."""


# --- CBR parameters and trajectories --------------------------------------

class InvalidParameters(CbrChainError):
    """Exit probabilities out of range or not summing to exactly 1."""


class NonAbsorbing(CbrChainError):
    """Retain probability is zero, so the process never terminates."""


class EmptyTrajectory(CbrChainError):
    """A trajectory must contain at least one phase."""


class DoesNotStartAtR1(CbrChainError):
    def __init__(self, first: str):
        self.first = first
        super().__init__(f"trajectory must start at R1, got {first!r}")


class UnknownLabel(CbrChainError):
    def __init__(self, index: int, label: str):
        self.index, self.label = index, label
        super().__init__(f"unknown step label at position {index}: {label!r}")


class IllegalTransition(CbrChainError):
    """A consecutive pair of steps that the process flow does not allow.

    ``index`` is the position of the destination label within the trajectory.
    """

    def __init__(self, index: int, source: str, target: str):
        self.index, self.source, self.target = index, source, target
        super().__init__(
            f"illegal transition at position {index}: {source} -> {target}"
        )


class NotAbsorbed(CbrChainError):
    """The trajectory never reaches the terminal Retain step."""


class NoR3Observations(CbrChainError):
    """No exits from the Revise step were observed, so the exit
    probabilities cannot be estimated."""


# --- case library ----------------------------------------------------------

class MeasureBelowBound(CbrChainError):
    def __init__(self, case_id: str, value: Fraction):
        self.case_id, self.value = case_id, value
        super().__init__(
            f"case {case_id!r}: stored measure {_describe(value)} "
            "is below the minimum of 3"
        )


class EmptyEpisode(CbrChainError):
    """An episode (including descendants) contains no cases."""


class EmptyLibrary(CbrChainError):
    """The library contains no cases, so efficiency is undefined."""


class ParseError(CbrChainError):
    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class SchemaError(CbrChainError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DuplicateCaseId(CbrChainError):
    def __init__(self, case_id: str):
        self.case_id = case_id
        super().__init__(
            f"case id {case_id!r} appears more than once with conflicting definitions"
        )


class InvalidTrajectory(CbrChainError):
    def __init__(self, context: str, message: str):
        self.context = context
        super().__init__(f"{context}: {message}")


# --- simulation ------------------------------------------------------------

class InvalidSimulationConfig(CbrChainError):
    """Seed, sample count, truncation guard or phases of interest out of range."""


class StepBudgetExceeded(CbrChainError):
    """A simulation is expected to take more walk steps than its budget."""

    def __init__(self, walks: int, steps: int, budget: int):
        self.walks, self.steps, self.budget = walks, steps, budget
        super().__init__(
            f"{_describe(walks)} walks are expected to take up to "
            f"{_describe(steps)} steps, over the budget of {_describe(budget)}; "
            "use fewer samples or a lower max_phases"
        )


class UnknownStartState(CbrChainError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"start state {label!r} is not a state of the chain")
