"""Fuzzing of the CLI: no argument or file byte produces a traceback.

Every invocation must end with exit code 0 (success), 1 (a named domain
error) or 2 (a usage error), and never with an uncaught exception.
``cbr-simulate`` runs with at most 20 samples and 50 phases, because a run
within its step budget may still take a minute. Its ``--samples`` and
``--max-phases`` are also drawn from 10^9 up to 4300 digits, the most click
converts, and its ``--phases`` just past ``PHASE_BUDGET``: the step budget
or that bound refuses each such run that could take long before any walk
is drawn.
"""

import json

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings

from cbrchain.cli import PHASE_BUDGET, cli

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def digits(min_size: int, max_size: int):
    return st.integers(min_size, max_size).map(lambda n: "7" * n)


def rationals(max_digits: int):
    """Rational-grammar text, up to and past the interpreter's digit limit."""
    return st.builds(
        lambda sign, num, den: f"{sign}{num}" + (f"/{den}" if den is not None else ""),
        st.sampled_from(["", "-", "+"]),
        st.one_of(st.just("0"), st.just("1"), digits(1, max_digits)),
        st.none() | st.just("0") | st.just("00") | digits(1, max_digits),
    )


def option_values(max_digits: int):
    return st.one_of(st.text(max_size=20), rationals(max_digits))


def invoke(args) -> None:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )
    assert "Traceback" not in result.output


FORMATS = st.sampled_from(["table", "machine"])


@FUZZ
@given(
    st.sampled_from(["cbr-analyze", "chain-analyze"]),
    option_values(4400),
    option_values(4400),
    FORMATS,
)
def test_analyze_options(command, p31, p33, fmt):
    invoke([command, "--p31", p31, "--p33", p33, "--format", fmt])


@FUZZ
@given(option_values(120), option_values(120), st.integers(0, 20), FORMATS)
def test_evolve_options(p31, p33, phases, fmt):
    invoke(["cbr-evolve", "--p31", p31, "--p33", p33, "--phases", str(phases),
            "--format", fmt])


# Mostly in range, so that many examples get as far as sampling.
PROBABILITY_PAIRS = st.fractions(0, 1, max_denominator=100).flatmap(
    lambda p31: st.tuples(
        st.just(str(p31)), st.fractions(0, 1 - p31, max_denominator=100).map(str)
    )
)


# p34 = 0, where every walk runs to --max-phases.
NON_ABSORBING_PAIRS = st.fractions(0, 1, max_denominator=100).map(
    lambda p31: (str(p31), str(1 - p31))
)
# 10^9 up to 4300 digits.
HUGE_COUNTS = st.integers(9, 4299).map(lambda n: 10**n)


@settings(FUZZ, max_examples=100)
@given(
    PROBABILITY_PAIRS
    | NON_ABSORBING_PAIRS
    | st.tuples(option_values(4400), option_values(4400)),
    st.integers(1, 20) | HUGE_COUNTS,
    st.integers(0, 2**64 - 1).map(str)
    | st.sampled_from(["-1", str(2**64)])
    | st.text(max_size=20),
    st.integers(0, 50) | HUGE_COUNTS,
    st.none() | st.integers(-1, 60) | st.integers(PHASE_BUDGET + 1, PHASE_BUDGET + 9),
    FORMATS,
)
def test_simulate_options(params, samples, seed, max_phases, phases, fmt):
    p31, p33 = params
    args = ["cbr-simulate", "--p31", p31, "--p33", p33, "--samples", str(samples),
            "--seed", seed, "--max-phases", str(max_phases), "--format", fmt]
    if phases is not None:
        args += ["--phases", str(phases)]
    invoke(args)


WALKS = st.lists(
    st.lists(st.sampled_from(["R1", "R2", "R3", "R4", "R5", "#", ","]), max_size=12)
    .map(" ".join),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode())


@FUZZ
@given(st.binary(max_size=200) | WALKS, FORMATS)
def test_estimate_file_bytes(tmp_path, data, fmt):
    path = tmp_path / "walks.txt"
    path.write_bytes(data)
    invoke(["estimate", "--trajectories", str(path), "--format", fmt])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CASES = st.fixed_dictionaries(
    {"id": st.sampled_from(["a", "b", ""])},
    optional={
        "t": st.integers(-2, 9) | rationals(8) | JSON_VALUES,
        "trajectory": st.lists(st.sampled_from(["R1", "R2", "R3", "R4"]), max_size=8),
        "params": st.fixed_dictionaries(
            {"p31": rationals(2), "p33": rationals(2), "p34": rationals(2)}
        ),
    },
)
LIBRARIES = st.fixed_dictionaries(
    {
        "episodes": st.lists(
            st.fixed_dictionaries(
                {"name": st.sampled_from(["g", "h", ""])},
                optional={"cases": st.lists(CASES, max_size=3)},
            ),
            max_size=3,
        )
    }
)


@FUZZ
@given(
    st.binary(max_size=200)
    | (JSON_VALUES | LIBRARIES).map(lambda doc: json.dumps(doc).encode()),
    FORMATS,
)
def test_library_file_bytes(tmp_path, data, fmt):
    path = tmp_path / "library.json"
    path.write_bytes(data)
    invoke(["library-efficiency", "--library", str(path), "--format", fmt])
