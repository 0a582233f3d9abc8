"""Tests for seeded Monte Carlo sampling."""

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cbrchain import (
    CbrParameters,
    SimulationConfig,
    cbr_transition_matrix,
    derive_trajectory_seed,
    iter_trajectories,
    mean_completion_steps,
    phase_distribution,
    run_simulation,
    sample_trajectory,
    validate_stochastic,
)
from cbrchain.errors import (
    InvalidSimulationConfig,
    StepBudgetExceeded,
    UnknownStartState,
)
from cbrchain.simulate import STEP_BUDGET, check_step_budget

from oracles import gambler_matrix, reference_simulation
from strategies import cbr_parameters, stochastic_matrices

F = Fraction

THIRDS = cbr_transition_matrix(CbrParameters(F(1, 3), F(1, 3), F(1, 3)))
DIRECT = cbr_transition_matrix(CbrParameters(F(0), F(0), F(1)))


def test_deterministic_chain_always_walks_straight_through():
    for seed in range(20):
        assert sample_trajectory(DIRECT, "R1", seed) == ["R1", "R2", "R3", "R4"]


def test_same_seed_same_path():
    a = sample_trajectory(THIRDS, "R1", derive_trajectory_seed(99, 3))
    b = sample_trajectory(THIRDS, "R1", derive_trajectory_seed(99, 3))
    assert a == b
    paths = {
        tuple(sample_trajectory(THIRDS, "R1", derive_trajectory_seed(99, i)))
        for i in range(50)
    }
    assert len(paths) > 1  # each index draws from its own stream


def test_paths_stop_at_the_first_absorbing_state():
    for i in range(50):
        path = sample_trajectory(THIRDS, "R1", derive_trajectory_seed(5, i))
        assert path.count("R4") <= 1
        if "R4" in path:
            assert path[-1] == "R4"


def test_censoring_at_the_phase_cap():
    path = sample_trajectory(DIRECT, "R1", 0, max_phases=2)
    assert path == ["R1", "R2", "R3"]
    report = run_simulation(
        DIRECT, "R1", SimulationConfig(seed=0, num_trajectories=10, max_phases=2)
    )
    assert report.censored_count == 10
    assert report.absorbed_count == 0
    assert report.empirical_mean_steps is None
    assert report.standard_error is None


def test_unknown_start_state_rejected():
    with pytest.raises(UnknownStartState):
        sample_trajectory(THIRDS, "R9", 0)
    with pytest.raises(UnknownStartState):
        run_simulation(THIRDS, "R9", SimulationConfig(seed=0, num_trajectories=1))


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1, num_trajectories=1)
    with pytest.raises(ValueError):
        SimulationConfig(seed=2**64, num_trajectories=1)
    with pytest.raises(ValueError):
        SimulationConfig(seed=0, num_trajectories=0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=0, num_trajectories=1, max_phases=0)


def test_step_budget_bounds_each_walk_by_its_mean_length_or_the_cap():
    samples = STEP_BUDGET // 100
    check_step_budget(SimulationConfig(0, samples, max_phases=100), None)
    check_step_budget(SimulationConfig(0, samples), F(100))
    check_step_budget(SimulationConfig(0, samples, max_phases=100), F(10**6))
    for cfg, mean_length in [
        (SimulationConfig(0, samples, max_phases=101), None),
        (SimulationConfig(0, samples), F(201, 2)),
        (SimulationConfig(0, samples, max_phases=101), F(10**6)),
    ]:
        with pytest.raises(StepBudgetExceeded) as info:
            check_step_budget(cfg, mean_length)
        assert (info.value.walks, info.value.budget) == (samples, STEP_BUDGET)
        assert info.value.steps > STEP_BUDGET


def test_phases_of_interest_must_fit_under_the_cap():
    cfg = SimulationConfig(seed=0, num_trajectories=1, max_phases=10)
    with pytest.raises(ValueError):
        run_simulation(THIRDS, "R1", cfg, (11,))
    with pytest.raises(ValueError):
        run_simulation(THIRDS, "R1", cfg, (-1,))


def test_reports_are_bit_identical_across_runs():
    cfg = SimulationConfig(seed=1234, num_trajectories=2000)
    first = run_simulation(THIRDS, "R1", cfg, (0, 4))
    second = run_simulation(THIRDS, "R1", cfg, (0, 4))
    assert first.to_dict() == second.to_dict()
    assert first.to_json() == second.to_json()


def test_report_matches_an_independent_per_index_aggregation():
    # Per-trajectory seeds depend only on (master seed, index), so walking
    # the indexes in any order reproduces the same statistics.
    cfg = SimulationConfig(seed=77, num_trajectories=500)
    report = run_simulation(THIRDS, "R1", cfg)
    lengths = []
    for i in reversed(range(cfg.num_trajectories)):
        path = sample_trajectory(THIRDS, "R1", derive_trajectory_seed(cfg.seed, i))
        assert path[-1] == "R4"
        lengths.append(len(path))
    assert report.absorbed_count == len(lengths)
    assert report.empirical_mean_steps == pytest.approx(
        sum(lengths) / len(lengths), abs=1e-12
    )


def test_single_trajectory_report_has_no_standard_error():
    report = run_simulation(
        THIRDS, "R1", SimulationConfig(seed=3, num_trajectories=1)
    )
    assert report.absorbed_count == 1
    assert report.standard_error is None
    assert report.empirical_mean_steps is not None


def test_phase_frequencies_sum_to_one():
    cfg = SimulationConfig(seed=11, num_trajectories=3000)
    report = run_simulation(THIRDS, "R1", cfg, (0, 1, 4, 9))
    for dist in report.empirical_phase_distributions.values():
        assert abs(sum(dist.values()) - 1.0) < 1e-12
    assert report.empirical_phase_distributions[0] == {"R1": 1.0}
    assert report.empirical_phase_distributions[1] == {"R2": 1.0}


def test_empirical_mean_tracks_the_analytic_value():
    params = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
    cfg = SimulationConfig(seed=2718, num_trajectories=20_000)
    report = run_simulation(cbr_transition_matrix(params), "R1", cfg)
    assert report.censored_count == 0
    expected = float(mean_completion_steps(params))
    assert abs(report.empirical_mean_steps - expected) <= 3 * report.standard_error


def test_phase_frequencies_track_the_exact_distribution():
    params = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
    cfg = SimulationConfig(seed=314, num_trajectories=20_000)
    report = run_simulation(cbr_transition_matrix(params), "R1", cfg, (4,))
    exact = phase_distribution(params, 4)
    observed = report.empirical_phase_distributions[4]
    for state, probability in zip(exact.states, exact.probs):
        p = float(probability)
        sigma = math.sqrt(p * (1 - p) / cfg.num_trajectories)
        assert abs(observed.get(state, 0.0) - p) <= 3.5 * sigma


def test_exit_counts_cover_only_observed_transitions():
    report = run_simulation(
        DIRECT, "R1", SimulationConfig(seed=0, num_trajectories=5)
    )
    assert report.transition_counts == {
        "R1": {"R2": 5},
        "R2": {"R3": 5},
        "R3": {"R4": 5},
    }
    assert report.r3_exit_counts == {"R4": 5}


def test_exit_counts_absent_without_an_r3_state():
    states, rows = gambler_matrix()
    matrix = validate_stochastic(states, rows)
    report = run_simulation(
        matrix, "1", SimulationConfig(seed=8, num_trajectories=50)
    )
    assert report.r3_exit_counts == {}
    assert report.absorbed_count == 50


def test_report_serializes_to_json():
    cfg = SimulationConfig(seed=5, num_trajectories=100)
    report = run_simulation(THIRDS, "R1", cfg, (4,))
    payload = json.loads(report.to_json())
    assert payload["config"]["seed"] == 5
    assert payload["absorbed_count"] + payload["censored_count"] == 100
    assert "4" in payload["empirical_phase_distributions"]


class _LastDraw:
    """Stand-in for ``random.Random`` whose every draw is the largest float below 1."""

    def __init__(self, seed):
        pass

    def random(self):
        return 1 - 2**-53


def test_top_draw_takes_the_last_positive_bucket(monkeypatch):
    # Ten weights of 1/10 accumulate in floats to 0.9999999999999999, which
    # equals the draw; only the residue rule keeps it inside the support.
    # Plain running sums, as the walk builds them (``sum`` compensates since 3.12).
    assert list(accumulate([0.1] * 10))[-1] == 1 - 2**-53
    states = ("S", *(f"A{j}" for j in range(10)), "Z")
    rows = [(F(0), *[F(1, 10)] * 10, F(0))]
    rows += [tuple(F(int(i == j)) for j in range(12)) for i in range(1, 12)]
    matrix = validate_stochastic(states, rows)
    monkeypatch.setattr("cbrchain.simulate.random", SimpleNamespace(Random=_LastDraw))
    assert sample_trajectory(matrix, "S", 0) == ["S", "A9"]
    report = run_simulation(matrix, "S", SimulationConfig(seed=0, num_trajectories=3))
    assert report.transition_counts == {"S": {"A9": 3}}
    assert report.absorbed_count == 3


def _fold(matrix, start, cfg, phases):
    """The report's counts, rebuilt from one ``sample_trajectory`` per index."""
    absorbed = censored = 0
    lengths = []
    transitions = Counter()
    at_phase = {k: Counter() for k in phases}
    for i in range(cfg.num_trajectories):
        path = sample_trajectory(
            matrix, start, derive_trajectory_seed(cfg.seed, i), cfg.max_phases
        )
        last = matrix.index(path[-1])
        if matrix.entries[last][last] == 1:
            absorbed += 1
            lengths.append(len(path))
        else:
            censored += 1
        transitions.update(zip(path, path[1:]))
        for k in phases:
            at_phase[k][path[min(k, len(path) - 1)]] += 1
    nested = {}
    for (a, b), count in transitions.items():
        nested.setdefault(a, {})[b] = count
    frequencies = {
        k: {s: n / cfg.num_trajectories for s, n in counts.items()}
        for k, counts in at_phase.items()
    }
    return absorbed, censored, lengths, nested, frequencies


@pytest.mark.parametrize(
    "matrix, start, cfg, phases, censors",
    [
        (
            validate_stochastic(*gambler_matrix()),
            "1",
            SimulationConfig(seed=21, num_trajectories=200),
            (0, 1, 2),
            False,
        ),
        (
            THIRDS,
            "R1",
            SimulationConfig(seed=42, num_trajectories=400, max_phases=6),
            (0, 3, 6),
            True,
        ),
    ],
    ids=["gambler", "thirds-censored"],
)
def test_report_is_a_fold_over_sample_trajectory(matrix, start, cfg, phases, censors):
    report = run_simulation(matrix, start, cfg, phases)
    absorbed, censored, lengths, transitions, frequencies = _fold(
        matrix, start, cfg, phases
    )
    assert absorbed > 0 and (censored > 0) == censors
    assert report.absorbed_count == absorbed
    assert report.censored_count == censored
    assert report.empirical_mean_steps == pytest.approx(
        sum(lengths) / len(lengths), abs=1e-12
    )
    assert report.transition_counts == transitions
    assert report.empirical_phase_distributions == frequencies


@pytest.mark.parametrize(
    "matrix, start, cfg",
    [
        (THIRDS, "R1", SimulationConfig(seed=9, num_trajectories=300)),
        (THIRDS, "R1", SimulationConfig(seed=9, num_trajectories=300, max_phases=5)),
        (
            validate_stochastic(*gambler_matrix()),
            "1",
            SimulationConfig(seed=4, num_trajectories=100, max_phases=1),
        ),
    ],
    ids=["thirds", "thirds-censored", "gambler-censored"],
)
def test_iter_trajectories_yields_sample_trajectory_per_index(matrix, start, cfg):
    paths = list(iter_trajectories(matrix, start, cfg))
    assert paths == [
        sample_trajectory(
            matrix, start, derive_trajectory_seed(cfg.seed, i), cfg.max_phases
        )
        for i in range(cfg.num_trajectories)
    ]
    if cfg.max_phases < 10:
        assert any(len(path) == cfg.max_phases + 1 for path in paths)


def test_iter_trajectories_checks_the_start_state_before_drawing():
    with pytest.raises(UnknownStartState):
        iter_trajectories(THIRDS, "R9", SimulationConfig(seed=0, num_trajectories=1))


@pytest.mark.parametrize("field", ["seed", "num_trajectories", "max_phases"])
@pytest.mark.parametrize("value", [1.5, 4.0, True, "3", None])
def test_config_rejects_non_integers(field, value):
    fields = {"seed": 0, "num_trajectories": 1, "max_phases": 10, field: value}
    with pytest.raises(InvalidSimulationConfig, match=field):
        SimulationConfig(**fields)


@pytest.mark.parametrize(
    "phases", [(True,), (False, 2), (1, True), (1.0,), (2, "3"), (None,)]
)
def test_phases_of_interest_must_be_integers(phases):
    cfg = SimulationConfig(seed=0, num_trajectories=1, max_phases=10)
    with pytest.raises(InvalidSimulationConfig, match="phase of interest"):
        run_simulation(THIRDS, "R1", cfg, phases)


def test_phases_of_interest_may_be_any_iterable():
    cfg = SimulationConfig(seed=0, num_trajectories=20, max_phases=10)
    report = run_simulation(THIRDS, "R1", cfg, (k for k in (4, 0, 4)))
    assert report.phases_of_interest == (0, 4)
    assert report.empirical_phase_distributions[0] == {"R1": 1.0}


CHAINS = st.one_of(
    cbr_parameters().map(cbr_transition_matrix),
    cbr_parameters(absorbing=True).map(cbr_transition_matrix),
    stochastic_matrices(),
)


@settings(deadline=None)
@given(chain=CHAINS, data=st.data())
def test_report_is_byte_identical_to_the_reference_fold(chain, data):
    max_phases = data.draw(st.integers(min_value=1, max_value=40), label="max_phases")
    cfg = SimulationConfig(
        seed=data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed"),
        num_trajectories=data.draw(st.integers(min_value=1, max_value=300), label="n"),
        max_phases=max_phases,
    )
    start = data.draw(st.sampled_from(chain.states), label="start")
    phases = data.draw(
        st.lists(st.integers(min_value=0, max_value=max_phases), max_size=6),
        label="phases",
    )
    got = run_simulation(chain, start, cfg, phases)
    want = reference_simulation(chain, start, cfg, phases)
    assert got.to_json() == want.to_json()
    assert repr(got) == repr(want)  # same floats, same key order
