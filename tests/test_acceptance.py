"""Acceptance suite: one test per criterion, at its stated tolerance.

Exact criteria use no tolerance at all (rational equality); the Monte
Carlo criterion uses three standard errors around the analytic values and
an absolute 0.01 band for parameter recovery. Each test prints a PASS line
(visible with ``pytest -s`` or in the captured output).
"""

import math
from fractions import Fraction

import pytest

from cbrchain import (
    CbrParameters,
    SimulationConfig,
    canonical_form,
    cbr_transition_matrix,
    dumps_library,
    efficiency_report,
    estimate_parameters,
    expected_absorption_steps,
    format_trajectories,
    fundamental_matrix,
    load_library,
    loads_library,
    mean_phases,
    parse_trajectories,
    phase_distribution,
    read_trajectories,
    run_simulation,
    trajectory_step_count,
    validate_trajectory,
)
from cbrchain.errors import (
    DuplicateCaseId,
    IllegalTransition,
    InvalidTrajectory,
    ParseError,
    SchemaError,
)

from oracles import adjugate_inverse_3x3, closed_form_mean_phases, random_triples

F = Fraction

THIRDS = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
MC_SAMPLES = 100_000


def ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_mean_phases_and_completion_steps():
    assert mean_phases(THIRDS) == 7
    assert mean_phases(THIRDS) + 1 == 8
    ok(1, "equal exit probabilities give t = 7 and completion steps = 8, exactly")


def test_criterion_2_phase_vectors():
    expected = [
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(1, 3), F(0), F(1, 3), F(1, 3)),
        (F(1, 9), F(1, 3), F(1, 9), F(4, 9)),
        (F(1, 27), F(1, 9), F(10, 27), F(13, 27)),
    ]
    for i, probs in enumerate(expected):
        vector = phase_distribution(THIRDS, i)
        assert vector.probs == probs
        assert sum(vector.probs) == 1
    # the phase-5 third component follows the symbolic form p31 + p33**3
    assert phase_distribution(THIRDS, 5).probs[2] == THIRDS.p31 + THIRDS.p33**3
    ok(2, "phase vectors P0..P5 exact, P5 third component = p31 + p33^3 = 10/27")


def test_criterion_3_estimation_from_one_return_two_stays():
    walk = validate_trajectory(
        ["R1", "R2", "R3", "R1", "R2", "R3", "R3", "R3", "R4"]
    )
    params = estimate_parameters([walk])
    assert params == CbrParameters(F(1, 4), F(1, 2), F(1, 4))
    assert mean_phases(params) == 8
    ok(3, "one return + two stays estimates (1/4, 1/2, 1/4) with t = 8, exactly")


def test_criterion_4_episode_efficiency_from_a_document(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    measures = {F(3), F(7), F(8)}
    from cbrchain import case_measure

    assert {case_measure(c) for c in lib.cases.values()} == measures
    report = efficiency_report(lib)
    assert report.episodes[0][1] == 6
    assert report.flat == 6
    ok(4, "loaded three-case episode {3, 7, 8} has efficiency exactly 6")


def test_criterion_5_fundamental_matrix_oracle():
    checked = 0
    for params in random_triples(seed=505, count=1000, min_p34=F(1, 100)):
        chain = canonical_form(cbr_transition_matrix(params))
        n = fundamental_matrix(chain)
        i_minus_q = tuple(
            tuple(
                (F(1) if i == j else F(0)) - chain.q_block[i][j]
                for j in range(3)
            )
            for i in range(3)
        )
        # N (I - Q) = I, exactly
        for i in range(3):
            for j in range(3):
                product = sum(
                    (n[i][t] * i_minus_q[t][j] for t in range(3)), start=F(0)
                )
                assert product == (F(1) if i == j else F(0))
        # generic row-sum t equals the closed form
        assert expected_absorption_steps(chain)[0] == closed_form_mean_phases(params)
        # the (2,1) entry is +p31 / (1 - p31 - p33); the whole matrix agrees
        # with the independent adjugate/determinant inverse
        denominator = 1 - params.p31 - params.p33
        assert n[1][0] == params.p31 / denominator
        assert n == adjugate_inverse_3x3(i_minus_q)
        checked += 1
    assert checked == 1000
    ok(5, "1000 random triples: N(I-Q) = I, row sums match the closed form, "
          "N[2][1] = +p31/(1-p31-p33) per the adjugate oracle")


def test_criterion_6_lower_bound_on_mean_phases():
    assert mean_phases(CbrParameters(F(0), F(0), F(1))) == 3
    checked = 0
    for params in random_triples(seed=606, count=1000, min_p34=F(1, 10**9)):
        t = mean_phases(params)
        assert t >= 3
        assert (t == 3) == (params.p31 == 0 and params.p33 == 0)
        checked += 1
    assert checked == 1000
    ok(6, "1000 random triples: t >= 3 with equality exactly when p31 = p33 = 0")


def test_criterion_7_monte_carlo_agreement(simulated):
    cases = [
        (THIRDS, 101),
        (CbrParameters(F(0), F(0), F(1)), 102),
        (CbrParameters(F(1, 4), F(1, 2), F(1, 4)), 103),
    ]
    for params, seed in cases:
        if params == THIRDS:
            # the same draws as the sampler's distributional tests
            thirds = simulated(params.p31, params.p33, seed, MC_SAMPLES)
            report = thirds.report
        else:
            cfg = SimulationConfig(seed=seed, num_trajectories=MC_SAMPLES)
            report = run_simulation(cbr_transition_matrix(params), "R1", cfg)
        assert report.censored_count == 0
        expected = float(mean_phases(params) + 1)
        se = report.standard_error
        assert abs(report.empirical_mean_steps - expected) <= max(3 * se, 1e-12)

        if params == THIRDS:
            exact = phase_distribution(params, 4)
            observed = report.empirical_phase_distributions[4]
            for state, probability in zip(exact.states, exact.probs):
                p = float(probability)
                sigma = math.sqrt(p * (1 - p) / MC_SAMPLES)
                assert abs(observed.get(state, 0.0) - p) <= 3 * sigma

            # estimation on the simulated walks recovers the parameters
            walks = [validate_trajectory(path) for path in thirds.paths]
            estimated = estimate_parameters(walks)
            for got, want in (
                (estimated.p31, params.p31),
                (estimated.p33, params.p33),
                (estimated.p34, params.p34),
            ):
                assert abs(float(got - want)) < 0.01

            # the report's R3 exit ratios are the same statistic, observed
            # through the aggregation path; they must match exactly and
            # land within 0.01 of the generating probabilities
            exits = report.transition_counts.get("R3", {})
            total_exits = sum(exits.values())
            for target, estimate in (
                ("R1", estimated.p31),
                ("R3", estimated.p33),
                ("R4", estimated.p34),
            ):
                ratio = F(exits.get(target, 0), total_exits)
                assert ratio == estimate
                assert abs(float(ratio) - 1 / 3) < 0.01
    ok(7, f"{MC_SAMPLES} seeded trajectories: means within 3 SE of 8, 4, 9; "
          "phase-4 frequencies within 3 sigma; parameters recovered within 0.01")


def test_criterion_8_trajectory_step_counting():
    physician = validate_trajectory(["R1", "R2", "R3", "R1", "R2", "R3", "R3", "R4"])
    assert trajectory_step_count(physician) == 8
    straightforward = validate_trajectory(["R1", "R2", "R3", "R4"])
    assert trajectory_step_count(straightforward) == 4
    with pytest.raises(IllegalTransition) as info:
        validate_trajectory(["R1", "R3", "R4"])
    assert info.value.index == 1
    with pytest.raises(IllegalTransition) as info:
        validate_trajectory(["R1", "R2", "R3", "R4", "R1"])
    assert info.value.index == 4
    ok(8, "step counts 8 and 4; illegal transitions rejected with their index")


def test_criterion_9_file_format_round_trips(fixtures_dir, tmp_path):
    lib = load_library(fixtures_dir / "ge_example.json")
    assert loads_library(dumps_library(lib)) == lib
    assert loads_library(dumps_library(loads_library(dumps_library(lib)))) == lib

    walks = read_trajectories(fixtures_dir / "trajectories.txt")
    assert len(walks) == 3
    rendered = format_trajectories(walks)
    path = tmp_path / "walks.txt"
    path.write_text(rendered)
    assert read_trajectories(path) == walks

    with pytest.raises(ParseError):
        loads_library("{")
    with pytest.raises(SchemaError):
        loads_library('{"episodes": [{"name": "g", "cases": [{"id": "x"}]}]}')
    with pytest.raises(SchemaError):
        loads_library('{"episodes": [{"name": "g", "cases": [{"id": "x", "t": 2}]}]}')
    with pytest.raises(DuplicateCaseId):
        loads_library(
            '{"episodes": [{"name": "g", "cases": '
            '[{"id": "x", "t": 3}, {"id": "x", "t": 4}]}]}'
        )
    with pytest.raises(InvalidTrajectory):
        loads_library(
            '{"episodes": [{"name": "g", "cases": '
            '[{"id": "x", "trajectory": ["R1", "R3"]}]}]}'
        )
    with pytest.raises(IllegalTransition):
        parse_trajectories("R1 R2 R3 R4\nR1 R1\n")
    ok(9, "library and trajectory files round-trip to identical values; "
          "malformed inputs raise the documented errors")
