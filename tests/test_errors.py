"""The error taxonomy: every validation failure is a named CbrChainError."""

import inspect
import math
import pickle
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import given

from cbrchain import (
    CaseRecord,
    CbrParameters,
    ProbabilityVector,
    SimulationConfig,
    TransitionMatrix,
    decimal_str,
    evolve,
    format_rational,
    loads_library,
    parse_rational,
)
from cbrchain import errors
from cbrchain.cli import cli
from cbrchain.rationals import coerce_rational
from cbrchain.errors import (
    CbrChainError,
    InvalidDistribution,
    InvalidParameters,
    InvalidRational,
    InvalidSimulationConfig,
    MeasureBelowBound,
    NegativeEntry,
    ParseError,
    RowSumNotOne,
    SchemaError,
    StateMismatch,
    StepBudgetExceeded,
)

F = Fraction

# One more digit than the interpreter converts between int and str by default.
HUGE = "9" * 5001


def _error_classes():
    return [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls)
        and issubclass(cls, BaseException)
        and cls.__module__ == errors.__name__
    ]


def test_every_error_class_is_a_named_cbrchain_error_and_a_value_error():
    classes = _error_classes()
    assert InvalidRational in classes and SchemaError in classes
    for cls in classes:
        assert issubclass(cls, CbrChainError), cls
        assert issubclass(cls, ValueError), cls


# One former ``raise ValueError`` site per module.

@pytest.mark.parametrize(
    "error",
    [InvalidRational("not a rational number: 'x'"), NegativeEntry(1, 2, F(-1, 3)),
     RowSumNotOne(0, F(3, 2)), StepBudgetExceeded(10**6, 10**9, 10**8)],
    ids=lambda error: type(error).__name__,
)
def test_an_error_pickles_with_its_class_message_and_attributes(error):
    # Constructors take different parameters, and a forked worker's error
    # crosses to its parent pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_rationals_raise_invalid_rational():
    with pytest.raises(InvalidRational):
        parse_rational("three")
    with pytest.raises(InvalidRational, match="denominator must be positive"):
        parse_rational("1/00")
    with pytest.raises(InvalidRational):
        parse_rational(f"1/{HUGE}")
    with pytest.raises(InvalidRational, match="True"):
        coerce_rational(True)


def test_markov_raises_state_mismatch_and_invalid_distribution():
    with pytest.raises(StateMismatch):
        TransitionMatrix((), ())
    with pytest.raises(StateMismatch):
        ProbabilityVector.point(("A", "B"), "C")
    with pytest.raises(InvalidDistribution):
        ProbabilityVector(("A", "B"), (F(1, 2), F(1, 3)))
    start = ProbabilityVector.point(("A",), "A")
    with pytest.raises(InvalidDistribution):
        evolve(start, TransitionMatrix(("A",), ((F(1),),)), -1)


def test_simulate_raises_invalid_simulation_config():
    with pytest.raises(InvalidSimulationConfig):
        SimulationConfig(seed=-1, num_trajectories=1)


def test_library_raises_schema_error_with_the_same_text():
    with pytest.raises(SchemaError) as info:
        CaseRecord("none")
    assert str(info.value) == (
        "case 'none': exactly one of measure, trajectory, or params is "
        "required (0 given)"
    )


# The interpreter's own limits become named errors at the boundaries.

def test_a_digit_limited_t_string_is_a_schema_error():
    with pytest.raises(SchemaError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": "%s"}]}]}' % HUGE
        )


def test_a_digit_limited_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": %s}]}]}' % HUGE
        )


def test_an_out_of_range_sum_with_too_many_digits_still_names_the_parameters():
    a, b = 10**2500 + 1, 10**2500 - 1
    with pytest.raises(SchemaError, match=r"p31 \+ p33 \+ p34 = .* \(rounded\)"):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "params": '
            '{"p31": "1/%d", "p33": "1/%d", "p34": "1"}}]}]}' % (a, b)
        )


def test_format_rational_refuses_what_it_cannot_render_exactly():
    # Repeated, so that a remembered rendering could not hide the refusal;
    # the numerator 3 renders before the denominator fails.
    for _ in range(3):
        for q in (F(1, 10**5000), F(3, 10**5000), F(10**5000)):
            with pytest.raises(InvalidRational, match="too many digits"):
                format_rational(q)


def test_a_value_too_long_to_render_is_shown_rounded():
    with pytest.raises(InvalidRational) as info:
        format_rational(F(4 * 10**5000 + 1, 10**5000))
    assert str(info.value).startswith(
        "4 (rounded) has too many digits to render exactly: "
    )


@given(
    st.fractions()
    | st.integers().map(F)
    | st.builds(F, st.integers(-(10**80), 10**80), st.integers(1, 10**80))
)
def test_format_rational_is_str(q):
    assert format_rational(q) == str(q)
    assert format_rational(-q) == str(-q)
    assert format_rational(q) == str(q)


def test_decimal_str_rounds_values_beyond_float_range():
    assert decimal_str(F(10**400)) == "1e+400"
    assert decimal_str(F(-2 * 10**400, 3)) == "-6.66667e+399"
    assert decimal_str(F(1, 3)) == "0.333333"


def test_a_huge_digit_option_is_still_a_usage_error():
    result = CliRunner().invoke(
        cli, ["cbr-analyze", "--p31", f"1/{HUGE[:-1]}", "--p33", "0"]
    )
    assert result.exit_code == 2
    assert "Exceeds the limit" in result.stderr
    assert isinstance(result.exception, SystemExit)


def test_decimal_str_prints_a_normal_float_as_a_float_does():
    smallest = sys.float_info.min
    assert decimal_str(F(smallest)) == "2.22507e-308"
    assert decimal_str(F(-smallest)) == "-2.22507e-308"
    # The largest subnormal, just below: rounded in decimal arithmetic.
    assert decimal_str(F(math.nextafter(smallest, 0))) == "2.22507e-308"
    # A float's exponent has two digits at least, a Decimal's one.
    assert decimal_str(F(10**6)) == "1e+06"
    assert decimal_str(F(-10**6)) == "-1e+06"


def test_decimal_str_rounds_nonzero_values_below_float_range():
    assert decimal_str(F(1, 10**400)) == "1e-400"
    assert decimal_str(F(-2, 3 * 10**400)) == "-6.66667e-401"
    assert decimal_str(F(1, 3 * 10**308)) == "3.33333e-309"  # a subnormal float
    assert decimal_str(F(1, 10**320)) == "1e-320"  # a float holds 9.99989e-321
    assert decimal_str(F(0)) == "0"


# A value whose denominator has more digits than str() converts.
TOO_LONG = F(1, 10**5000)


def test_a_negative_entry_too_long_to_print_is_still_named():
    with pytest.raises(NegativeEntry, match=r"negative: -1e-5000 \(rounded\)"):
        TransitionMatrix(("A", "B"), ((1 + TOO_LONG, -TOO_LONG), (0, 1)))


def test_a_row_sum_too_long_to_print_is_still_named():
    with pytest.raises(RowSumNotOne, match=r"sums to 0\.333333 \(rounded\)"):
        TransitionMatrix(("A", "B"), ((TOO_LONG, F(1, 3)), (0, 1)))


def test_a_stored_measure_too_long_to_print_is_still_named():
    with pytest.raises(MeasureBelowBound, match=r"measure 1e-5000 \(rounded\)"):
        CaseRecord("a", measure=TOO_LONG)


def test_a_distribution_sum_too_long_to_print_is_still_named():
    with pytest.raises(InvalidDistribution, match=r"sum to 0\.333333 \(rounded\)"):
        ProbabilityVector(("A", "B"), (TOO_LONG, F(1, 3)))


@pytest.mark.parametrize(
    "p31, shown", [(1 + TOO_LONG, r"1 \(rounded\)"), (-TOO_LONG, r"-1e-5000 \(rounded\)")]
)
def test_a_parameter_outside_the_unit_interval_too_long_to_print_is_still_named(p31, shown):
    with pytest.raises(InvalidParameters, match=rf"^p31 = {shown} is outside \[0, 1\]$"):
        CbrParameters(p31, F(0), 1 - p31)
