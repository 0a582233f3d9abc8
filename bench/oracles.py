"""Exact oracles for every benchmark job.

Standard library only, and independent of ``cbrchain``: each check
recomputes what the job must print from the job's inputs, by closed forms
or by an exact identity, and raises :class:`Mismatch` on the first
difference. Outputs are the JSON texts of the ``--format machine`` CLI and
of ``solve.to_json``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from gen import r3_exits


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def mean_phases(p31: Fraction, p33: Fraction) -> Fraction:
    """t = (3 - 2*p33) / (1 - p31 - p33), the mean phases before R4."""
    return (3 - 2 * p33) / (1 - p31 - p33)


def _fundamental(p31: Fraction, p33: Fraction) -> list[list[Fraction]]:
    """Closed-form N over (R1, R2, R3)."""
    p34 = 1 - p31 - p33
    rows = [[1 - p33, 1 - p33, 1], [p31, 1 - p33, 1], [p31, p31, 1]]
    return [[Fraction(v) / p34 for v in row] for row in rows]


def check_simulate(text: str, p31: Fraction, p33: Fraction, samples: int) -> None:
    """Counts add up and the mean lies within 5 SE of the analytic t + 1."""
    doc = json.loads(text)
    report = doc["report"]
    completion = mean_phases(p31, p33) + 1
    _expect(report["config"]["num_trajectories"] == samples, "sample count")
    _expect(
        report["absorbed_count"] + report["censored_count"] == samples,
        "absorbed + censored != samples",
    )
    _expect(Fraction(doc["analytic_completion_steps"]) == completion, "analytic t + 1")
    mean, se = report["empirical_mean_steps"], report["standard_error"]
    _expect(
        abs(mean - float(completion)) <= 5 * se,
        f"mean {mean} is more than 5 SE ({se}) from {float(completion)}",
    )


def check_cbr_analyze(text: str, p31: Fraction, p33: Fraction) -> None:
    doc = json.loads(text)
    t = mean_phases(p31, p33)
    _expect(Fraction(doc["mean_phases"]) == t, "mean_phases")
    _expect(Fraction(doc["completion_steps"]) == t + 1, "completion_steps")
    _check_fundamental(doc["fundamental"], p31, p33)


def check_chain_analyze(text: str, p31: Fraction, p33: Fraction) -> None:
    doc = json.loads(text)
    t = mean_phases(p31, p33)
    _expect(Fraction(doc["expected_absorption_steps"]["R1"]) == t, "steps from R1")
    _check_fundamental(doc["fundamental"], p31, p33)
    for state, row in doc["absorption_probabilities"].items():
        _expect(sum(map(Fraction, row.values())) == 1, f"B row {state} sums to 1")


def _check_fundamental(block: dict, p31: Fraction, p33: Fraction) -> None:
    _expect(block["states"] == ["R1", "R2", "R3"], "fundamental states")
    n = [[Fraction(v) for v in row] for row in block["matrix"]]
    _expect(n == _fundamental(p31, p33), "fundamental matrix closed form")
    _expect([Fraction(v) for v in block["row_sums"]] == [sum(r) for r in n], "row sums")
    _expect(Fraction(block["row_sums"][0]) == mean_phases(p31, p33), "t from N")


def check_evolve(text: str, p31: Fraction, p33: Fraction, phases: int) -> None:
    """Every phase sums to 1; P0 is R1 and P5 is the closed form."""
    doc = json.loads(text)
    dists = doc["distributions"]
    _expect(doc["states"] == ["R1", "R2", "R3", "R4"], "states")
    _expect([d["phase"] for d in dists] == list(range(phases + 1)), "phase indices")
    vectors = [[Fraction(d["probs"][s]) for s in doc["states"]] for d in dists]
    for i, v in enumerate(vectors):
        _expect(sum(v) == 1 and min(v) >= 0, f"P{i} is not a distribution")
    _expect(vectors[0] == [1, 0, 0, 0], "P0")
    if phases >= 5:
        p34 = 1 - p31 - p33
        p5 = [p33**2 * p31, p33 * p31, p31 + p33**3, p34 * (p33**2 + p33 + 1)]
        _expect(vectors[5] == p5, "P5 closed form")


def check_estimate(text: str, tally: dict) -> None:
    """The estimate equals the R3 exit counts the generator tallied."""
    doc = json.loads(text)
    counts = tally["r3_exit_counts"]
    total = sum(counts.values())
    p31, p33 = Fraction(counts["R1"], total), Fraction(counts["R3"], total)
    _expect(doc["trajectories"] == tally["walks"], "trajectory count")
    _expect(doc["absorbed_trajectories"] == tally["absorbed"], "absorbed count")
    _expect(doc["observed_step_counts"] == tally["step_counts"], "step counts")
    _expect(doc["r3_exit_counts"] == counts, "R3 exit counts")
    params = doc["params"]
    _expect(
        [Fraction(params[k]) for k in ("p31", "p33", "p34")] == [p31, p33, 1 - p31 - p33],
        "estimated parameters",
    )
    t = mean_phases(p31, p33)
    _expect(Fraction(doc["mean_phases"]) == t, "implied t")
    _expect(Fraction(doc["completion_steps"]) == t + 1, "implied t + 1")


def case_measure(case: dict) -> Fraction:
    """A library case's t by its source, through the closed form."""
    if "t" in case:
        return Fraction(case["t"])
    if "params" in case:
        return mean_phases(Fraction(case["params"]["p31"]), Fraction(case["params"]["p33"]))
    to_r1, to_r3, to_r4 = r3_exits(case["trajectory"])
    total = to_r1 + to_r3 + to_r4
    return mean_phases(Fraction(to_r1, total), Fraction(to_r3, total))


def _episode_cases(episode: dict, into: dict) -> dict:
    for case in episode.get("cases", []):
        into.setdefault(case["id"], case)
    for sub in episode.get("sub_episodes", []):
        _episode_cases(sub, into)
    return into


def check_library(text: str, library: dict) -> None:
    """Per-case, per-episode, flat and system efficiency from the closed form."""
    doc = json.loads(text)
    everything: dict = {}
    expected = []
    for episode in library["episodes"]:
        cases = _episode_cases(episode, {})
        _episode_cases(episode, everything)
        measures = {cid: case_measure(c) for cid, c in cases.items()}
        expected.append((episode["name"], sum(measures.values()) / len(measures), measures))
    flat = sum(case_measure(c) for c in everything.values()) / len(everything)
    system = sum(eff for _, eff, _ in expected) / len(expected)
    _expect(doc["n"] == len(everything), "distinct case count")
    _expect(Fraction(doc["flat_efficiency"]) == flat, "flat efficiency")
    _expect(Fraction(doc["system_efficiency"]) == system, "system efficiency")
    _expect(len(doc["episodes"]) == len(expected), "episode count")
    for got, (name, eff, measures) in zip(doc["episodes"], expected):
        _expect(got["name"] == name, f"episode name {name}")
        _expect(Fraction(got["efficiency"]) == eff, f"efficiency of {name}")
        _expect(
            list(got["cases"]) == list(measures)
            and [Fraction(v) for v in got["cases"].values()] == list(measures.values()),
            f"case measures of {name}",
        )


def check_solve(text: str, chain: dict) -> None:
    """N (I - Q) = I exactly, steps are N's row sums, and B's rows sum to 1.

    The product is formed over integers: N is scaled by the common
    denominator of its entries and each row of I - Q by its own.
    """
    doc = json.loads(text)
    states = chain["states"]
    rows = [[Fraction(v) for v in row] for row in chain["rows"]]
    absorbing = [i for i, row in enumerate(rows) if row[i] == 1]
    transient = [i for i in range(len(rows)) if i not in absorbing]
    _expect(doc["absorbing"] == [states[i] for i in absorbing], "absorbing order")
    _expect(doc["transient"] == [states[i] for i in transient], "transient order")
    k = len(transient)
    n = [[Fraction(v) for v in row] for row in doc["N"]]
    _expect(len(n) == k and all(len(row) == k for row in n), "shape of N")

    d = lcm(*(v.denominator for row in n for v in row))
    row_dens = [lcm(*(rows[i][j].denominator for j in transient)) for i in transient]
    big_l = lcm(*row_dens)
    # (I - Q)[t][j] * row_dens[t], as integers, keeping only non-zero entries.
    m_int = []
    for t, i in enumerate(transient):
        entries = {}
        for col, j in enumerate(transient):
            v = (1 if i == j else 0) - rows[i][j]
            if v:
                entries[col] = int(v * row_dens[t])
        m_int.append(entries)
    for i in range(k):
        scaled = [int(n[i][t] * d) * (big_l // row_dens[t]) for t in range(k)]
        product = [0] * k
        for t in range(k):
            for col, v in m_int[t].items():
                product[col] += scaled[t] * v
        expected = [d * big_l if col == i else 0 for col in range(k)]
        _expect(product == expected, f"row {i} of N (I - Q) is not the identity row")

    steps = [Fraction(v) for v in doc["steps"]]
    _expect(steps == [sum(row) for row in n], "expected steps are N's row sums")
    for i, row in enumerate(doc["B"]):
        _expect(len(row) == len(absorbing), "shape of B")
        _expect(sum(map(Fraction, row)) == 1, f"row {i} of B does not sum to 1")


def check_help(text: str) -> None:
    _expect(text.startswith("Usage:") and "cbr-simulate" in text, "--help text")
