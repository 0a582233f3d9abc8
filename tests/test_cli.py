"""End-to-end tests of the command-line surface."""

import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings

import cbrchain
from cbrchain import (
    CbrParameters,
    cbr_transition_matrix,
    format_rational,
    parse_rational,
    save_library,
)
from cbrchain.cli import PHASE_BUDGET, cli
from oracles import (
    reference_estimate,
    reference_first_error,
    reference_library_efficiency,
)
from strategies import case_libraries, cbr_parameters, trajectory_texts
from test_golden import run_on_a_terminal

F = Fraction
FRACTION_STRING = re.compile(r"^-?\d+(/\d+)?$")


@pytest.fixture
def runner():
    return CliRunner()


def machine(runner, args):
    result = runner.invoke(cli, [*args, "--format", "machine"])
    assert result.exit_code == 0, result.stderr
    return json.loads(result.output)


def expected_run(reference, *args):
    """The exit code and the stdout or stderr a command gives for what
    ``reference(*args)`` returns or raises."""
    try:
        payload = reference(*args)
    except cbrchain.CbrChainError as exc:
        return 1, f"error: {type(exc).__name__}: {exc}\n"
    return 0, json.dumps(payload, indent=2, default=format_rational) + "\n"


def run(runner, args):
    result = runner.invoke(cli, [*args, "--format", "machine"])
    return result.exit_code, result.stdout if result.exit_code == 0 else result.stderr


#: Hypothesis examples that write a file to a function-scoped ``tmp_path``.
FILES = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def fraction_strings(payload):
    """Every string in the payload that uses the fraction grammar."""
    if isinstance(payload, dict):
        for value in payload.values():
            yield from fraction_strings(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from fraction_strings(value)
    elif isinstance(payload, str) and FRACTION_STRING.match(payload):
        yield payload


# --- every command ---------------------------------------------------------------

@pytest.mark.parametrize(
    "command, options",
    [
        ("cbr-analyze", ["--p31", "--p33"]),
        ("chain-analyze", ["--p31", "--p33"]),
        ("cbr-evolve", ["--p31", "--p33", "--phases"]),
        ("cbr-simulate", ["--p31", "--p33", "--samples", "--seed", "--max-phases",
                          "--phases"]),
        ("estimate", ["--trajectories"]),
        ("library-efficiency", ["--library"]),
    ],
)
def test_every_command_lists_its_options_then_format(runner, command, options):
    result = runner.invoke(cli, [command, "--help"])
    assert result.exit_code == 0
    listed = re.findall(r"^  (--[a-z0-9-]+)", result.output, re.MULTILINE)
    assert listed == [*options, "--format", "--help"]


def test_help_lists_every_command(runner):
    result = runner.invoke(cli, ["--help"])
    assert result.exit_code == 0
    assert result.output.startswith("Usage:")
    for command in ("cbr-analyze", "chain-analyze", "cbr-evolve", "cbr-simulate",
                    "estimate", "library-efficiency"):
        assert command in result.output


def test_help_comes_before_checking_values(runner):
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "x", "--help"])
    assert result.exit_code == 0
    assert result.output.startswith("Usage:")


@pytest.mark.parametrize(
    "args",
    [[], ["-h"], ["cbr-analyze", "-h"], ["cbr-simulate", "--p31", "1/3", "--p33", "1/3",
                                        "--samp", "5"]],
)
def test_only_a_command_and_full_option_names_are_understood(runner, args):
    assert runner.invoke(cli, args).exit_code == 2


@pytest.mark.parametrize(
    "args, code, error",
    [
        (["cbr-analyze", "--p31", "-1/3", "--p33", "1/3"], 1,
         "error: InvalidParameters: p31 = -1/3 is outside [0, 1]\n"),
        (["cbr-analyze", "--p31", "-0/1", "--p33", "1/3"], 0, ""),
        (["cbr-simulate", "--p31", "0", "--p33", "0", "--seed", "-1"], 2,
         "-1 is not in the range 0<=x<="),
    ],
)
def test_an_option_takes_the_next_argument_whatever_it_starts_with(runner, args, code, error):
    result = runner.invoke(cli, args)
    assert result.exit_code == code
    assert error in result.stderr


def test_an_option_given_twice_takes_its_last_value(runner):
    payload = machine(runner, ["cbr-analyze", "--p31", "x", "--p31", "1/3", "--p33", "0"])
    assert payload["params"]["p31"] == "1/3"


ANALYZE = ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"]
# 300 phases print megabytes, more than a pipe holds.
EVOLVE = ["cbr-evolve", "--p31", "2/7", "--p33", "3/11", "--phases", "300"]


def cli_process(args, buffered: bool, **streams) -> subprocess.Popen:
    """The command line ``args`` in a new interpreter, whose output is
    block-buffered, as by default, or unbuffered."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "cbrchain.cli", *args], env=env, **streams)


# The reader closes the pipe after `read` bytes.
@pytest.mark.parametrize(
    "args, read, buffered",
    [
        (EVOLVE, 10, True),
        (EVOLVE, 10, False),
        (ANALYZE, 0, True),
        (ANALYZE, 0, False),
        (["--help"], 0, True),
        (["--version"], 0, True),
        (["--help"], 0, False),
        (["--version"], 0, False),
    ],
)
def test_a_closed_pipe_ends_the_output_quietly(args, read, buffered):
    proc = cli_process(args, buffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


# Python's last flush of a closed stderr must not turn the exit code into 120.
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize(
    "args, code",
    [
        (ANALYZE, 0),
        (["--help"], 0),
        (["--version"], 0),
        (["cbr-analyze"], 2),
        (["cbr-analyze", "--p31", "2", "--p33", "0"], 1),
    ],
)
def test_a_closed_stderr_keeps_the_exit_code_and_stdout(args, code, buffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli_process(args, buffered, stdout=subprocess.PIPE, stderr=write)
    finally:
        os.close(write)
    stdout, _ = proc.communicate(timeout=60)
    both_open = cli_process(args, buffered, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    expected, _ = both_open.communicate(timeout=60)
    assert proc.returncode == both_open.returncode == code
    assert stdout == expected


def test_an_interrupt_is_reported_as_aborted(runner, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("cbrchain.cli.mean_phases", interrupted)
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "\nAborted!\n"


# --- cbr-analyze ---------------------------------------------------------------

def test_analyze_reports_mean_phases_and_completion_steps(runner):
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert result.exit_code == 0
    assert "t = 7" in result.output
    assert "completion steps = 8" in result.output
    assert "p34 = 1/3" in result.output


def test_analyze_shows_the_fundamental_matrix(runner):
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert "Fundamental matrix" in result.output
    assert "mean number of times" in result.output
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "0", "--p33", "0"])
    assert "t = 3" in result.output
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "1/4", "--p33", "1/2"])
    assert "t = 8" in result.output


def test_analyze_machine_payload(runner):
    payload = machine(runner, ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert payload["mean_phases"] == "7"
    assert payload["completion_steps"] == "8"
    assert payload["fundamental"]["matrix"] == [
        ["2", "2", "3"],
        ["1", "2", "3"],
        ["1", "1", "3"],
    ]
    assert payload["fundamental"]["row_sums"] == ["7", "6", "5"]


def test_non_absorbing_parameters_exit_one_with_the_error_name(runner):
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "1/2", "--p33", "1/2"])
    assert result.exit_code == 1
    assert "NonAbsorbing" in result.stderr


def test_inconsistent_parameters_exit_one(runner):
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "2/3", "--p33", "2/3"])
    assert result.exit_code == 1
    assert "InvalidParameters" in result.stderr


def test_usage_errors_exit_two(runner):
    assert runner.invoke(cli, ["cbr-analyze", "--p31", "1/3"]).exit_code == 2
    assert (
        runner.invoke(cli, ["cbr-analyze", "--p31", "x", "--p33", "0"]).exit_code == 2
    )
    assert (
        runner.invoke(
            cli, ["cbr-analyze", "--p31", "1/3", "--p33", "1/3", "--format", "xml"]
        ).exit_code
        == 2
    )
    assert runner.invoke(cli, ["no-such-command"]).exit_code == 2
    assert runner.invoke(cli, ["cbr-analyze", "--p31"]).exit_code == 2


# --- cbr-evolve -----------------------------------------------------------------

def test_evolve_prints_the_phase_rows(runner):
    result = runner.invoke(
        cli, ["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "4"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[-1].startswith("P4: 1/9 1/3 1/9 4/9")
    assert "P0: 1 0 0 0" in result.output
    assert "P3: 1/3 0 1/3 1/3" in result.output


def test_evolve_machine_payload_round_trips(runner):
    payload = machine(
        runner, ["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "5"]
    )
    last = payload["distributions"][-1]
    assert last["phase"] == 5
    assert last["probs"] == {
        "R1": "1/27",
        "R2": "1/9",
        "R3": "10/27",
        "R4": "13/27",
    }
    for text in fraction_strings(payload):
        assert str(parse_rational(text)) == text


def test_evolve_rejects_negative_phases(runner):
    result = runner.invoke(
        cli, ["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "-1"]
    )
    assert result.exit_code == 2


def test_evolve_to_phase_zero_prints_the_start_only(runner):
    result = runner.invoke(
        cli, ["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "0"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1:] == ["P0: 1 0 0 0  (1 0 0 0)"]


# L, the LCM of its denominators, is 77.
SEVENTHS_ELEVENTHS = cbr_transition_matrix(CbrParameters.from_p31_p33(F(2, 7), F(3, 11)))


@pytest.mark.parametrize(
    "cpus, phases, ranges", [(4, 10, 1), (4, 484, 1), (4, 485, 2), (4, 2000, 4), (1, 2000, 1)]
)
def test_phases_split_into_ranges_of_about_equal_predicted_work(
    monkeypatch, cpus, phases, ranges
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    bounds = cbrchain.cli._phase_bounds(SEVENTHS_ELEVENTHS, phases)
    assert len(bounds) == ranges + 1
    assert bounds[0] == 0 and bounds[-1] == phases + 1
    digits = math.log10(77)
    work = [(cbrchain.cli._PHASE_DIGITS + n * digits) ** 2 for n in range(phases + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        assert lo < hi
        assert abs(sum(work[lo:hi]) - sum(work) / ranges) <= max(work)


def _evolve_runs(monkeypatch, args, splits):
    """Exit code, stdout and stderr of ``cbrchain args`` with the phases
    forced into each number of ranges in ``splits``, by that number."""
    runs = {}
    for ranges in splits:
        monkeypatch.setattr(cbrchain.cli, "_range_count", lambda work: ranges)
        result = CliRunner().invoke(cli, args)
        runs[ranges] = (result.exit_code, result.stdout, result.stderr)
    return runs


@pytest.mark.reference
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    params=cbr_parameters(),
    phases=st.integers(min_value=0, max_value=30),
    fmt=st.sampled_from(["table", "machine"]),
)
@example(params=CbrParameters.from_p31_p33(F(2, 7), F(3, 11)), phases=0, fmt="machine")
@example(params=CbrParameters.from_p31_p33(F(2, 7), F(3, 11)), phases=6, fmt="table")
def test_any_split_of_the_phases_prints_what_one_range_does(monkeypatch, params, phases, fmt):
    # Seven ranges of seven phases or fewer are ranges of one phase.
    args = ["cbr-evolve", "--p31", str(params.p31), "--p33", str(params.p33),
            "--phases", str(phases), "--format", fmt]
    runs = _evolve_runs(monkeypatch, args, (1, 2, 3, 7))
    assert runs[1][0] == 0
    assert all(run == runs[1] for run in runs.values())


@pytest.mark.reference
@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_a_split_run_fails_at_the_digit_limit_as_one_range_does(monkeypatch, fmt):
    # At 2/7, 3/11 a value first has more than 640 digits at phase 486.
    args = ["cbr-evolve", "--p31", "2/7", "--p33", "3/11", "--phases", "600", "--format", fmt]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        runs = _evolve_runs(monkeypatch, args, (1, 2, 3, 7))
    finally:
        sys.set_int_max_str_digits(limit)
    code, stdout, stderr = runs[1]
    assert code == 1
    assert stderr.startswith("error: InvalidRational: ")
    assert all(run == runs[1] for run in runs.values())
    if fmt == "machine":
        assert stdout == ""
    else:
        failing = len(stdout.splitlines()) - 1  # below the heading, P0 on
        assert failing == 486
        monkeypatch.setattr(cbrchain.cli, "_range_count", lambda work: 2)
        assert 0 < cbrchain.cli._phase_bounds(SEVENTHS_ELEVENTHS, 600)[1] < failing


# --- chain-analyze ---------------------------------------------------------------

def test_generic_engine_agrees_with_the_closed_form(runner):
    for p31, p33 in (("1/3", "1/3"), ("1/4", "1/2"), ("0", "0"), ("1/5", "2/5")):
        generic = machine(runner, ["chain-analyze", "--p31", p31, "--p33", p33])
        closed = machine(runner, ["cbr-analyze", "--p31", p31, "--p33", p33])
        assert (
            generic["expected_absorption_steps"]["R1"] == closed["mean_phases"]
        )


def test_chain_analyze_reports_structure(runner):
    payload = machine(runner, ["chain-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert payload["canonical_order"] == ["R4", "R1", "R2", "R3"]
    assert payload["absorbing"] == ["R4"]
    assert sorted(payload["transient"]) == ["R1", "R2", "R3"]
    assert payload["absorption_probabilities"]["R1"]["R4"] == "1"
    assert payload["q_block"] == [
        ["0", "1", "0"],
        ["0", "0", "1"],
        ["1/3", "0", "1/3"],
    ]
    result = runner.invoke(cli, ["chain-analyze", "--p31", "1/3", "--p33", "1/3"])
    assert result.exit_code == 0
    assert "canonical order: R4 R1 R2 R3" in result.output


# --- estimate ---------------------------------------------------------------------

def test_estimate_recovers_the_physician_parameters(runner, fixtures_dir):
    result = runner.invoke(
        cli, ["estimate", "--trajectories", str(fixtures_dir / "physician.txt")]
    )
    assert result.exit_code == 0
    assert "p31 = 1/3" in result.output
    assert "t = 7" in result.output
    assert "completion steps = 8" in result.output


def test_estimate_machine_payload(runner, fixtures_dir):
    payload = machine(
        runner, ["estimate", "--trajectories", str(fixtures_dir / "physician.txt")]
    )
    assert payload["params"] == {"p31": "1/3", "p33": "1/3", "p34": "1/3"}
    assert payload["r3_exit_counts"] == {"R1": 1, "R3": 1, "R4": 1}
    assert payload["observed_step_counts"] == [8]
    assert payload["mean_phases"] == "7"


def test_estimate_without_r3_exits_exits_one(runner, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("R1 R2\n")
    result = runner.invoke(cli, ["estimate", "--trajectories", str(path)])
    assert result.exit_code == 1
    assert "NoR3Observations" in result.stderr


def test_estimate_reports_bad_lines(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("R1 R3\n")
    result = runner.invoke(cli, ["estimate", "--trajectories", str(path)])
    assert result.exit_code == 1
    assert "IllegalTransition" in result.stderr


@pytest.mark.parametrize(
    "line, error",
    [
        ("R1 R2 X R4", "UnknownLabel: line 3: unknown step label at position 2: 'X'"),
        ("R1 R2 R4", "IllegalTransition: line 3: illegal transition at position 2: R2 -> R4"),
        ("R2 R3 R4", "DoesNotStartAtR1: line 3: trajectory must start at R1, got 'R2'"),
        (",", "EmptyTrajectory: line 3: trajectory contains no phases"),
        ("R1 R2 R3 R4\fR1 R2 X", "UnknownLabel: line 3: unknown step label at position 6: 'X'"),
        ("R1\x85R3", "IllegalTransition: line 3: illegal transition at position 1: R1 -> R3"),
    ],
)
def test_estimate_names_the_line_of_a_bad_walk(runner, tmp_path, line, error):
    path = tmp_path / "walks.txt"
    path.write_text(f"R1 R2 R3 R4\n# a comment\n{line}\nR1 R2 R3 R4\n")
    result = runner.invoke(cli, ["estimate", "--trajectories", str(path)])
    assert result.exit_code == 1
    assert result.stderr == f"error: {error}\n"


@FILES
@given(text=trajectory_texts(broken=True))
def test_estimate_payload_matches_the_reference(runner, tmp_path, text):
    path = tmp_path / "walks.txt"
    path.write_text(text, encoding="utf-8")
    error = reference_first_error(text)
    if error is not None:
        expected = (1, f"error: {error[0].__name__}: {error[1]}\n")
    else:
        expected = expected_run(reference_estimate, text)
    assert run(runner, ["estimate", "--trajectories", str(path)]) == expected


def test_estimate_requires_an_existing_file(runner, tmp_path):
    result = runner.invoke(
        cli, ["estimate", "--trajectories", str(tmp_path / "missing.txt")]
    )
    assert result.exit_code == 2


# --- library-efficiency ---------------------------------------------------------------

def test_library_efficiency_table(runner, fixtures_dir):
    result = runner.invoke(
        cli,
        ["library-efficiency", "--library", str(fixtures_dir / "ge_example.json")],
    )
    assert result.exit_code == 0
    assert "flat efficiency   = 6" in result.output
    assert "system efficiency = 6" in result.output
    assert "c3: t = 8" in result.output


def test_library_efficiency_machine_payload(runner, fixtures_dir):
    payload = machine(
        runner,
        ["library-efficiency", "--library", str(fixtures_dir / "ge_example.json")],
    )
    assert payload["n"] == 3
    assert payload["flat_efficiency"] == "6"
    assert payload["system_efficiency"] == "6"
    assert payload["episodes"][0]["cases"] == {"c1": "3", "c2": "7", "c3": "8"}
    for text in fraction_strings(payload):
        assert str(parse_rational(text)) == text


def test_library_efficiency_domain_errors(runner, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"episodes": []}')
    result = runner.invoke(cli, ["library-efficiency", "--library", str(empty)])
    assert result.exit_code == 1
    assert "EmptyLibrary" in result.stderr

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    result = runner.invoke(cli, ["library-efficiency", "--library", str(broken)])
    assert result.exit_code == 1
    assert "ParseError" in result.stderr


@pytest.mark.reference
@FILES
@given(lib=case_libraries())
def test_library_efficiency_payload_matches_the_reference(runner, tmp_path, lib):
    path = tmp_path / "library.json"
    save_library(lib, path)
    expected = expected_run(reference_library_efficiency, lib)
    assert run(runner, ["library-efficiency", "--library", str(path)]) == expected


# --- cbr-simulate -----------------------------------------------------------------------

def test_simulate_reports_and_is_reproducible(runner):
    args = [
        "cbr-simulate",
        "--p31", "1/3",
        "--p33", "1/3",
        "--samples", "2000",
        "--seed", "42",
        "--phases", "4",
    ]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert "absorbed = 2000" in first.output
    assert "analytic completion steps = 8" in first.output
    assert "phase 4 frequencies" in first.output


def test_simulate_surfaces_censoring(runner):
    result = runner.invoke(
        cli,
        [
            "cbr-simulate",
            "--p31", "0",
            "--p33", "0",
            "--samples", "10",
            "--seed", "1",
            "--max-phases", "2",
        ],
    )
    assert result.exit_code == 0
    assert "censored = 10" in result.output


SIMULATE = ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "10"]


def test_one_max_phase_is_the_least_a_simulation_takes(runner):
    result = runner.invoke(cli, [*SIMULATE, "--max-phases", "1"])
    assert result.exit_code == 0
    assert "absorbed = 0, censored = 10" in result.output
    result = runner.invoke(cli, [*SIMULATE, "--max-phases", "0"])
    assert result.exit_code == 2
    assert "0 is not in the range x>=1" in result.stderr


def test_the_default_seed_is_zero(runner):
    default = runner.invoke(cli, SIMULATE)
    assert default.exit_code == 0
    assert default.output == runner.invoke(cli, [*SIMULATE, "--seed", "0"]).output


def test_a_seed_takes_64_bits(runner):
    result = runner.invoke(cli, [*SIMULATE, "--seed", str(2**64 - 1)])
    assert result.exit_code == 0
    assert f"seed {2**64 - 1}," in result.output
    result = runner.invoke(cli, [*SIMULATE, "--seed", str(2**64)])
    assert result.exit_code == 2
    assert f"{2**64} is not in the range 0<=x<={2**64 - 1}" in result.stderr


def test_zero_samples_are_refused(runner):
    result = runner.invoke(cli, [*SIMULATE, "--samples", "0"])
    assert result.exit_code == 2
    assert "0 is not in the range x>=1" in result.stderr


def test_no_color_suppresses_styling(runner, monkeypatch):
    args = ["cbr-analyze", "--p31", "1/3", "--p33", "1/3"]
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, output = run_on_a_terminal(args)
    assert code == 0
    assert output.startswith("\x1b[1mCBR chain analysis\x1b[0m\n")
    assert "\x1b[" not in runner.invoke(cli, args).output
    monkeypatch.setenv("NO_COLOR", "1")
    code, output = run_on_a_terminal(args)
    assert code == 0
    assert output.startswith("CBR chain analysis\n")
    assert "\x1b[" not in output


def test_a_library_name_is_printed_as_it_is_on_a_terminal_or_not(runner, tmp_path):
    path = tmp_path / "library.json"
    path.write_text(
        '{"episodes": [{"name": "\\u001b[31mred\\u001b[0m", "cases": [{"id": "a", "t": 3}]}]}'
    )
    args = ["library-efficiency", "--library", str(path)]
    line = "\n  \x1b[31mred\x1b[0m: efficiency 3 (3), 1 cases\n"
    piped = runner.invoke(cli, args)
    assert piped.exit_code == 0
    assert line in piped.output
    code, output = run_on_a_terminal(args)
    assert code == 0
    assert line in output


def test_the_cli_imports_only_the_standard_library():
    # A fresh interpreter, so that no module this suite imported counts. The
    # CLI runs some layers only when a command uses them, so every module of
    # the package is run before the loaded modules are listed.
    probe = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import cbrchain.cli\n"
        "for module in pkgutil.iter_modules(cbrchain.__path__, 'cbrchain.'):\n"
        "    vars(importlib.import_module(module.name))\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out == "cbrchain\n"


def test_a_simulation_over_the_step_budget_is_refused_up_front(runner):
    # p34 = 0: every default walk would run to --max-phases 10^6.
    args = ["cbr-simulate", "--p31", "1/2", "--p33", "1/2"]
    start = time.perf_counter()
    result = runner.invoke(cli, args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: StepBudgetExceeded: 100000 walks are expected to take up to "
        "100000000000 steps, over the budget of 100000000; use fewer samples "
        "or a lower max_phases\n"
    )


def test_a_step_bound_too_long_to_print_is_refused_by_name(runner):
    # N * N has 8001 digits, more than the interpreter converts to text.
    n = "7" * 4001
    args = ["cbr-simulate", "--p31", "1/2", "--p33", "1/2", "--samples", n,
            "--max-phases", n]
    start = time.perf_counter()
    result = runner.invoke(cli, args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: StepBudgetExceeded: {n} walks ")
    assert "6.04938e+8001 (rounded) steps" in result.stderr


def test_phases_past_the_phase_budget_are_refused_up_front(runner):
    # Two tallies per phase of interest, about 0.9 GiB at 10^6 phases.
    args = ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "1",
            "--phases", str(10**6)]
    start = time.perf_counter()
    result = runner.invoke(cli, args)
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"is not in the range 0<=x<={PHASE_BUDGET}" in result.stderr


@pytest.mark.parametrize("fmt", ["table", "machine"])
@pytest.mark.parametrize("size", [["--samples", "3", "--max-phases", "5"], []])
def test_a_simulation_held_at_r3_forever_is_refused(runner, fmt, size):
    # p33 = 1 makes R3 a trap that the walk would read as absorbing.
    args = ["cbr-simulate", "--p31", "0", "--p33", "1", *size, "--format", fmt]
    result = runner.invoke(cli, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: NonAbsorbing: p33 = 1: every walk stays at R3 and never reaches R4\n"
    )


def test_simulate_machine_payload(runner):
    payload = machine(
        runner,
        [
            "cbr-simulate",
            "--p31", "0",
            "--p33", "0",
            "--samples", "50",
            "--seed", "7",
        ],
    )
    assert payload["analytic_completion_steps"] == "4"
    report = payload["report"]
    assert report["absorbed_count"] == 50
    assert report["empirical_mean_steps"] == 4.0
    assert report["transition_counts"]["R3"] == {"R4": 50}


# --- clean errors instead of tracebacks -------------------------------------------------

def test_version_works_from_a_source_checkout(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"cbrchain, version {cbrchain.__version__}\n"


def test_simulate_phases_beyond_max_phases_is_a_usage_error(runner):
    result = runner.invoke(
        cli,
        ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--max-phases", "5",
         "--phases", "9"],
    )
    assert result.exit_code == 2
    assert "--max-phases 5" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    # Before the parameters are checked: these two sum past 1.
    result = runner.invoke(
        cli,
        ["cbr-simulate", "--p31", "2/3", "--p33", "2/3", "--max-phases", "5",
         "--phases", "9"],
    )
    assert result.exit_code == 2
    assert "--max-phases 5" in result.stderr


@pytest.mark.parametrize(
    "command, option",
    [("estimate", "--trajectories"), ("library-efficiency", "--library")],
)
def test_non_utf8_input_is_a_parse_error(runner, tmp_path, command, option):
    path = tmp_path / "bad-bytes"
    path.write_bytes(b"\xff\xfeR1")
    result = runner.invoke(cli, [command, option, str(path)])
    assert result.exit_code == 1
    assert "ParseError" in result.stderr
    assert "Traceback" not in result.output + result.stderr


def _nested_library(depth: int) -> str:
    episode = '{"name": "leaf", "cases": [{"id": "a", "t": 3}]}'
    for level in range(depth):
        episode = '{"name": "g%d", "sub_episodes": [%s]}' % (level, episode)
    return '{"episodes": [%s]}' % episode


def _nesting_past_the_episode_reader(runner, path) -> int:
    """Sub-episode levels that the JSON decoder accepts and the episode
    reader, which recurses per level too, has too few frames left for.

    The reader runs out a few levels before the decoder does, and where
    depends on the interpreter and on the stack the test runs under, so the
    fewest levels ``library-efficiency`` refuses are found here by
    bisection; 2000 levels exhaust a 1000-frame recursion limit either way.
    Two levels more keep the document past the reader's limit when the
    command runs from a frame or two nearer the top of the stack.
    """
    accepted, refused = 0, 2000
    while refused - accepted > 1:
        middle = (accepted + refused) // 2
        path.write_text(_nested_library(middle))
        result = runner.invoke(cli, ["library-efficiency", "--library", str(path)])
        if result.exit_code == 0:
            accepted = middle
        else:
            refused = middle
    return refused + 2


@pytest.mark.parametrize(
    "document",
    [
        _nested_library(600),
        '{"episodes": [{"name": "g", "cases": [{"id": "a", "t": %s}]}]}' % ("9" * 5001),
        None,
    ],
    ids=[
        "nested-600-deep",
        "integer-literal-of-5001-digits",
        "nested-past-the-episode-reader",
    ],
)
def test_interpreter_limits_on_a_library_are_parse_errors(runner, tmp_path, document):
    path = tmp_path / "library.json"
    if document is None:
        document = _nested_library(_nesting_past_the_episode_reader(runner, path))
    path.write_text(document)
    result = runner.invoke(cli, ["library-efficiency", "--library", str(path)])
    assert result.exit_code == 1
    assert "ParseError" in result.stderr
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_a_result_too_long_to_render_exactly_is_a_domain_error(runner):
    tiny = "1/1" + "0" * 1000
    result = runner.invoke(
        cli,
        ["cbr-evolve", "--p31", tiny, "--p33", tiny, "--phases", "10",
         "--format", "machine"],
    )
    assert result.exit_code == 1
    assert "InvalidRational" in result.stderr
    assert result.stdout == ""
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_a_value_too_long_to_render_is_named_rounded(runner, tmp_path):
    # Each t = (4d+1)/d over its own odd 1000-digit d: the mean's
    # denominator passes the interpreter's int/str limit, and its value
    # rounds to 4.
    cases = [
        {"id": f"c{i}", "t": f"{4 * d + 1}/{d}"}
        for i, d in enumerate(10**999 + 2 * k + 1 for k in range(5))
    ]
    path = tmp_path / "library.json"
    path.write_text(json.dumps({"episodes": [{"name": "g", "cases": cases}]}))
    result = runner.invoke(cli, ["library-efficiency", "--library", str(path)])
    assert result.exit_code == 1
    assert result.stderr.startswith(
        "error: InvalidRational: 4 (rounded) has too many digits"
    )


def test_a_mean_beyond_float_range_renders_in_the_table(runner):
    p33 = f"{10**400 - 1}/{10**400}"
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "0", "--p33", p33])
    assert result.exit_code == 0, result.stderr
    t = F(3 - 2 * F(p33)) / (1 - F(p33))
    assert f"  t = {t} (1e+400)" in result.output


def test_a_probability_below_float_range_renders_in_the_table(runner):
    p33 = f"{10**400 - 1}/{10**400}"
    result = runner.invoke(cli, ["cbr-analyze", "--p31", "0", "--p33", p33])
    assert result.exit_code == 0, result.stderr
    assert f"  p34 = 1/{10**400} (1e-400)" in result.output


def test_lone_surrogates_in_a_library_table_are_escaped(runner, tmp_path):
    path = tmp_path / "library.json"
    path.write_text(
        '{"episodes": [{"name": "\\ud800", "cases": [{"id": "a\\udfff", "t": 3}]},'
        ' {"name": "caf\\u00e9", "cases": [{"id": "b", "t": 4}]}]}'
    )
    result = runner.invoke(cli, ["library-efficiency", "--library", str(path)])
    assert result.exit_code == 0, result.stderr
    assert "Traceback" not in result.output
    assert "  \\ud800: efficiency 3 (3), 1 cases" in result.output
    assert "    a\\udfff: t = 3 (3) [direct]" in result.output
    assert "  caf\u00e9: efficiency 4 (4), 1 cases" in result.output
