"""Byte-for-byte golden comparison of every subcommand in both formats.

Each golden file holds the exit code on its first line and the exact
standard output, styling included, after it. Regenerate the files only
when the CLI's output changes on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from cbrchain.cli import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

_SIMULATE = ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "2000",
             "--seed", "42"]
_SIMULATE_LONG = ["cbr-simulate", "--p31", "1/10", "--p33", "89/100", "--samples",
                  "300", "--seed", "7"]

COMMANDS = {
    **{
        f"{command}-{p31.replace('/', '_')}-{p33.replace('/', '_')}": [
            command, "--p31", p31, "--p33", p33,
        ]
        for command in ("cbr-analyze", "chain-analyze")
        for p31, p33 in (("1/3", "1/3"), ("1/4", "1/2"), ("0", "0"))
    },
    "cbr-evolve": ["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "5"],
    "cbr-simulate": [*_SIMULATE, "--phases", "4"],
    "cbr-simulate-censored": [*_SIMULATE, "--max-phases", "3"],
    # Long R3 runs: R3 -> R3 stays make up most of each walk.
    "cbr-simulate-long": [*_SIMULATE_LONG, "--phases", "12"],
    "cbr-simulate-long-censored": [
        *_SIMULATE_LONG, "--max-phases", "40", "--phases", "40",
    ],
    "cbr-simulate-non-absorbing": [
        "cbr-simulate", "--p31", "1/2", "--p33", "1/2", "--samples", "20",
        "--seed", "1", "--max-phases", "3",
    ],
    "estimate-physician": [
        "estimate", "--trajectories", str(FIXTURES / "physician.txt"),
    ],
    "estimate-trajectories": [
        "estimate", "--trajectories", str(FIXTURES / "trajectories.txt"),
    ],
    "estimate-censored": [
        "estimate", "--trajectories", str(FIXTURES / "censored.txt"),
    ],
    "library-efficiency": [
        "library-efficiency", "--library", str(FIXTURES / "ge_example.json"),
    ],
}

CASES = {
    f"{name}.{fmt}": [*argv, "--format", fmt]
    for name, argv in COMMANDS.items()
    for fmt in ("table", "machine")
}


def run(argv) -> str:
    result = CliRunner().invoke(cli, argv, color=True, env={"NO_COLOR": None})
    return f"{result.exit_code}\n{result.stdout}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert run(CASES[case]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(run(argv), encoding="utf-8")
