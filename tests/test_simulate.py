"""Tests for seeded Monte Carlo sampling."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cbrchain import (
    CbrParameters,
    SimulationConfig,
    Trajectory,
    _ranges,
    cbr_transition_matrix,
    cli,
    derive_trajectory_seed,
    estimate_parameters,
    iter_trajectories,
    mean_phases,
    phase_distribution,
    run_simulation,
    sample_trajectory,
    simulate,
    validate_stochastic,
)
from cbrchain.cbr import estimate_from_counts
from cbrchain.errors import (
    InvalidSimulationConfig,
    NoR3Observations,
    StepBudgetExceeded,
    UnknownStartState,
)
from cbrchain.simulate import DEFAULT_MAX_PHASES, STEP_BUDGET, check_step_budget

from oracles import (
    chi2_tail,
    completion_law,
    g_statistic,
    gambler_matrix,
    reference_simulation,
)
from strategies import cbr_parameters, stochastic_matrices
from test_golden import invoke
from test_launch import ENV

F = Fraction

THIRDS = cbr_transition_matrix(CbrParameters(F(1, 3), F(1, 3), F(1, 3)))
DIRECT = cbr_transition_matrix(CbrParameters(F(0), F(0), F(1)))
LONG_RUNS = cbr_transition_matrix(CbrParameters(F(1, 10), F(89, 100), F(1, 100)))


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
    # 10^5000 has more digits than the interpreter converts to text.
    for k, shown in ((11, "11"), (-1, "-1"), (10**5000, "1e+5000 (rounded)")):
        with pytest.raises(InvalidSimulationConfig, match=re.escape(f" {shown} ")):
            run_simulation(THIRDS, "R1", cfg, (k,))


def test_reports_are_bit_identical_across_runs():
    cfg = SimulationConfig(seed=1234, num_trajectories=2000)
    first = run_simulation(THIRDS, "R1", cfg, (0, 4))
    second = run_simulation(THIRDS, "R1", cfg, (0, 4))
    assert first.to_dict() == second.to_dict()


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
    expected = float(mean_phases(params) + 1)
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
    assert report.transition_counts.get("R3", {}) == {"R4": 5}


def test_exit_counts_absent_without_an_r3_state():
    states, rows = gambler_matrix()
    matrix = validate_stochastic(states, rows)
    report = run_simulation(
        matrix, "1", SimulationConfig(seed=8, num_trajectories=50)
    )
    assert report.transition_counts.get("R3", {}) == {}
    assert report.absorbed_count == 50


@pytest.mark.reference
@given(
    params=cbr_parameters(absorbing=True),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    walks=st.integers(min_value=1, max_value=300),
    max_phases=st.integers(min_value=1, max_value=60),
)
def test_the_r3_row_gives_the_estimate_of_its_walks(params, seed, walks, max_phases):
    # The report keeps only the targets it saw, so the row is often sparse;
    # walks cut off before their first exit leave it empty.
    matrix = cbr_transition_matrix(params)
    cfg = SimulationConfig(seed=seed, num_trajectories=walks, max_phases=max_phases)
    row = run_simulation(matrix, "R1", cfg).transition_counts.get("R3", {})
    paths = (Trajectory(path) for path in iter_trajectories(matrix, "R1", cfg))
    try:
        expected = estimate_parameters(paths)
    except NoR3Observations:
        with pytest.raises(NoR3Observations):
            estimate_from_counts(row)
        return
    assert estimate_from_counts(row) == expected


def test_report_serializes_to_json():
    cfg = SimulationConfig(seed=5, num_trajectories=100)
    report = run_simulation(THIRDS, "R1", cfg, (4,))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["config"]["seed"] == 5
    assert payload["absorbed_count"] + payload["censored_count"] == 100
    assert "4" in payload["empirical_phase_distributions"]


class _ScriptedDraws:
    """Stand-in for ``random.Random`` that draws ``DRAWS`` in turn, for any seed."""

    DRAWS: tuple[float, ...] = ()

    def __init__(self, seed):
        self.random = iter(self.DRAWS).__next__


def test_top_draw_takes_the_last_positive_bucket(monkeypatch):
    # Ten weights of 1/10 accumulate in floats to 0.9999999999999999, which
    # equals the draw (``sum`` compensates since 3.12, plain running sums do
    # not). The walk converts exact cumulative sums instead, so its last
    # weight is 1.0 and the draw stays inside the support.
    assert list(accumulate([0.1] * 10))[-1] == 1 - 2**-53
    states = ("S", *(f"A{j}" for j in range(10)), "Z")
    rows = [(F(0), *[F(1, 10)] * 10, F(0))]
    rows += [tuple(F(int(i == j)) for j in range(12)) for i in range(1, 12)]
    matrix = validate_stochastic(states, rows)
    monkeypatch.setattr(_ScriptedDraws, "DRAWS", (1 - 2**-53,))
    monkeypatch.setattr(
        "cbrchain.simulate.random", SimpleNamespace(Random=_ScriptedDraws)
    )
    assert sample_trajectory(matrix, "S", 0) == ["S", "A9"]
    report = run_simulation(matrix, "S", SimulationConfig(seed=0, num_trajectories=3))
    assert report.transition_counts == {"S": {"A9": 3}}
    assert report.absorbed_count == 3


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
    want = reference_simulation(matrix, start, cfg, phases)
    assert want.absorbed_count > 0 and (want.censored_count > 0) == censors
    assert report.to_dict() == want.to_dict()
    assert repr(report) == repr(want)


@pytest.mark.parametrize(
    "max_phases, standard_error",
    [(40, 1.3999208525312423), (DEFAULT_MAX_PHASES, 7.481917085720208)],
    ids=["long-censored", "long"],
)
def test_standard_error_is_one_root_of_the_exact_variance(max_phases, standard_error):
    # The settings of the cbr-simulate-long goldens. statistics.stdev(lengths)
    # / sqrt(A) gives 1.399920852531242 for the first on Python 3.10, whose
    # stdev roots a variance already rounded to a float, and 7.481917085720207
    # for the second on every Python.
    cfg = SimulationConfig(seed=7, num_trajectories=300, max_phases=max_phases)
    paths = iter_trajectories(LONG_RUNS, "R1", cfg)
    lengths = [len(path) for path in paths if path[-1] == "R4"]
    a, s1, s2 = len(lengths), sum(lengths), sum(n * n for n in lengths)
    assert math.sqrt((a * s2 - s1 * s1) / (a * a * (a - 1))) == standard_error
    report = run_simulation(LONG_RUNS, "R1", cfg)
    assert report.absorbed_count == a
    assert report.empirical_mean_steps == s1 / a
    assert report.standard_error == standard_error


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


@pytest.mark.parametrize("max_phases", [-3, 0, 2.5])
def test_sample_trajectory_rejects_a_bad_max_phases(max_phases):
    with pytest.raises(InvalidSimulationConfig, match="max_phases"):
        sample_trajectory(THIRDS, "R1", 5, max_phases=max_phases)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "1"])
def test_sample_trajectory_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    # random.Random would seed -s as s and hash a str or a float.
    with pytest.raises(InvalidSimulationConfig, match="seed"):
        sample_trajectory(THIRDS, "R1", seed)


UINT64 = st.integers(min_value=0, max_value=2**64 - 1)


@pytest.mark.reference
@given(seed=UINT64, index=UINT64)
@example(seed=0, index=0)
@example(seed=2**64 - 1, index=2**64 - 1)
def test_derived_seed_is_the_hashlib_sha256_of_seed_and_index(seed, index):
    key = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    expected = int.from_bytes(hashlib.sha256(key).digest()[:16], "big")
    assert derive_trajectory_seed(seed, index) == expected


@pytest.mark.reference
@given(seed=st.integers(min_value=0, max_value=2**128 - 1))
@example(seed=0)
@example(seed=2**128 - 1)
def test_a_walk_draws_the_stream_of_random_random_for_its_seed(seed):
    # simulate draws from the C generator that random.Random subclasses.
    ours, theirs = simulate.random.Random(seed), random.Random(seed)
    assert [ours.random() for _ in range(30)] == [theirs.random() for _ in range(30)]


@pytest.mark.parametrize(
    "seed, index",
    [
        (-1, 0),
        (2**64, 0),
        (0, -1),
        # More digits than the interpreter converts to text.
        pytest.param(10**5000, 0, id="seed-5001-digits"),
        pytest.param(0, -(10**5000), id="index-5001-digits"),
    ],
)
def test_derived_seeds_reject_values_outside_64_bits(seed, index):
    with pytest.raises(InvalidSimulationConfig, match="64-bit"):
        derive_trajectory_seed(seed, index)


@pytest.mark.parametrize(
    "seed, index", [(1.5, 0), (0, 2.0), ("1", 0), (True, 0), (0, False)]
)
def test_derived_seeds_reject_non_integers(seed, index):
    with pytest.raises(InvalidSimulationConfig, match="64-bit integer"):
        derive_trajectory_seed(seed, index)


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


@pytest.mark.reference
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
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)  # same floats, same key order


@pytest.mark.reference
def test_phases_of_interest_far_past_every_walk_match_the_reference_fold():
    cfg = SimulationConfig(seed=3, num_trajectories=300)
    phases = [*range(60), 5_000, DEFAULT_MAX_PHASES]
    got = run_simulation(THIRDS, "R1", cfg, phases)
    want = reference_simulation(THIRDS, "R1", cfg, phases)
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)
    assert got.empirical_phase_distributions[5_000] == {"R4": 1.0}


def _heavy_self_loop_cbr(weights):
    """A CBR chain whose R3 self-loop weight may dwarf its exits."""
    p31, p33, p34 = weights
    total = p31 + p33 + p34
    return cbr_transition_matrix(
        CbrParameters(F(p31, total), F(p33, total), F(p34, total))
    )


HEAVY_CBR = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=3),
).filter(lambda w: w[0] + w[2] > 0).map(_heavy_self_loop_cbr)


@st.composite
def _self_loop_chains(draw):
    """Chains of 3-5 states, one absorbing, whose other rows loop on themselves.

    Each transient row has a self-loop weight of up to 200 against exit
    weights of at most 3, so runs often pass 64 stays and the phase cap, and
    its self-loop falls first, in the middle or last among its positive
    targets, depending on where the row sits.
    """
    k = draw(st.integers(min_value=3, max_value=5))
    absorbing = draw(st.integers(min_value=0, max_value=k - 1))
    rows = []
    for i in range(k):
        if i == absorbing:
            rows.append(tuple(F(int(j == i)) for j in range(k)))
            continue
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        weights[i] = draw(st.integers(min_value=1, max_value=200))
        if sum(weights) == weights[i]:
            weights[absorbing] = 1
        total = sum(weights)
        rows.append(tuple(F(w, total) for w in weights))
    return validate_stochastic(tuple(f"S{i}" for i in range(k)), rows)


# S loops with q = 1/2, so its run thresholds are exactly 2^-64 ... 2^-1,
# and its exits to A and B split at 0.5. Z's self-loop of 10^-20 has
# thresholds of 0.0 for 17 stays or more, and its exit weight to A,
# (1/2) / (1 - 10^-20), converts to exactly 0.5.
_TINY = F(1, 10**20)
BOUNDS = validate_stochastic(
    ("A", "S", "B", "Z", "C"),
    [
        (F(1), F(0), F(0), F(0), F(0)),
        (F(1, 4), F(1, 2), F(1, 4), F(0), F(0)),
        (F(0), F(0), F(1), F(0), F(0)),
        (F(1, 2), F(0), F(0), _TINY, F(1, 2) - _TINY),
        (F(0), F(0), F(0), F(0), F(1)),
    ],
)

SELF_LOOP_CHAINS = st.one_of(
    HEAVY_CBR, _self_loop_chains(), st.just(BOUNDS)
)


def _linear_scan_walk(m, start, seed, max_phases, generator=random.Random):
    """A path drawn from thresholds recomputed as exact ``Fraction``s and
    scanned in order, with no ``bisect``.

    A visit to a row with self-loop q > 0 first draws its run: a draw u stays
    once for each n = 1, 2, ..., 64 with u < float(q**n), and after 64 stays
    draws again. A further draw leaves by the first successor other than the
    row itself whose exact cumulative m_ij / (1 - q), as a float, is above u;
    a row with one such successor leaves without a draw. A run cut by
    ``max_phases`` draws no exit.
    """
    draw = generator(seed).random
    path = [m.index(start)]
    while len(path) <= max_phases:
        i = path[-1]
        row = m.entries[i]
        q = row[i]
        if q == 1:
            break
        if q:
            stays = 64
            while stays == 64 and len(path) <= max_phases:
                u = draw()
                stays = 0
                while stays < 64 and u < float(q ** (stays + 1)):
                    stays += 1
                path += [i] * stays
            if len(path) > max_phases:
                break
        exits = [j for j, p in enumerate(row) if p and j != i]
        if len(exits) > 1:
            u = draw()
            total = F(0)
            for j in exits:
                total += row[j]
                if u < float(total / (1 - q)):
                    break
        else:
            (j,) = exits
        path.append(j)
    return [m.states[j] for j in path[: max_phases + 1]]


@pytest.mark.reference
@settings(deadline=None)
@given(chain=SELF_LOOP_CHAINS, data=st.data())
def test_self_loop_runs_are_byte_identical_to_the_reference_fold(chain, data):
    max_phases = data.draw(st.integers(min_value=1, max_value=40), label="max_phases")
    cfg = SimulationConfig(
        seed=data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed"),
        num_trajectories=data.draw(st.integers(min_value=1, max_value=100), label="n"),
        max_phases=max_phases,
    )
    start = data.draw(st.sampled_from(chain.states), label="start")
    phases = data.draw(
        st.lists(st.integers(min_value=0, max_value=max_phases), max_size=6),
        label="phases",
    )
    got = run_simulation(chain, start, cfg, phases)
    want = reference_simulation(chain, start, cfg, phases)
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)
    for i in range(min(cfg.num_trajectories, 5)):
        seed = derive_trajectory_seed(cfg.seed, i)
        assert sample_trajectory(
            chain, start, seed, max_phases
        ) == _linear_scan_walk(chain, start, seed, max_phases)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.reference
@settings(deadline=None)
@given(chain=CHAINS, data=st.data())
def test_any_split_into_forked_ranges_matches_the_reference_fold(chain, data):
    ranges = data.draw(st.sampled_from([1, 2, 3, 7]), label="ranges")
    max_phases = data.draw(st.integers(min_value=1, max_value=40), label="max_phases")
    cfg = SimulationConfig(
        seed=data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed"),
        # As few as one walk a range, and counts that do not divide evenly.
        num_trajectories=data.draw(st.integers(min_value=ranges, max_value=60), label="n"),
        max_phases=max_phases,
    )
    start = data.draw(st.sampled_from(chain.states), label="start")
    # The cap is a phase of interest past every walk, absorbed or censored.
    phases = data.draw(
        st.lists(st.integers(min_value=0, max_value=max_phases) | st.just(max_phases),
                 max_size=6),
        label="phases",
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ranges, "range_count", lambda work, least: ranges)
        got = run_simulation(chain, start, cfg, phases)
    _assert_no_child_left()
    want = reference_simulation(chain, start, cfg, phases)
    assert got.to_dict() == want.to_dict()
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "cpus, walks, ranges",
    [(4, 2 * simulate._MIN_RANGE_WALKS - 1, 1), (4, 2 * simulate._MIN_RANGE_WALKS, 2),
     (4, 10**6, 4), (1, 10**6, 1)],
)
def test_a_run_takes_one_range_per_usable_cpu_of_enough_walks(monkeypatch, cpus, walks, ranges):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _ranges.range_count(walks, simulate._MIN_RANGE_WALKS) == ranges


@pytest.mark.parametrize("cpus, ranges", [(3, 3), (None, 1)])
def test_without_an_affinity_call_a_run_takes_one_range_per_cpu(monkeypatch, cpus, ranges):
    # As on macOS, which has no sched_getaffinity; cpu_count may not know.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _ranges.range_count(10**6, simulate._MIN_RANGE_WALKS) == ranges


#: Each caller of the fork helper, with a run too small to split and one
#: large enough to split on more than one CPU.
CALLERS = {"run_simulation": (300, 2 * simulate._MIN_RANGE_WALKS), "cbr-evolve": (11, 486)}


def _split_run(monkeypatch, caller, n, ranges=None, parent_fails=None, worker_fails=None):
    """Run ``caller`` over n walks or phases, in ``ranges`` ranges if given,
    and return whether it gave all n. ``parent_fails`` runs ahead of this
    process's first walk or phase, and ``worker_fails`` ahead of a worker's
    walk or phase 7: of its seed derivation or its rendering."""
    parent = os.getpid()

    def before(i):
        if os.getpid() == parent and i == 0 and parent_fails:
            parent_fails()
        if os.getpid() != parent and i == 7 and worker_fails:
            worker_fails()

    if ranges:
        monkeypatch.setattr(_ranges, "range_count", lambda work, least: ranges)
    if caller == "run_simulation":
        def derive(seed, index):
            before(index)
            return derive_trajectory_seed(seed, index)

        monkeypatch.setattr(simulate, "derive_trajectory_seed", derive)
        report = run_simulation(THIRDS, "R1", SimulationConfig(seed=1, num_trajectories=n))
        return report.absorbed_count == n
    render = cli._phase_object

    def phase_object(k, v):
        before(k)
        return render(k, v)

    monkeypatch.setattr(cli, "_phase_object", phase_object)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cli.commands["cbr-evolve"].callback(
            p31=F(2, 7), p33=F(3, 11), phases=n - 1, format="machine")
    return len(json.loads(out.getvalue())["distributions"]) == n


@pytest.mark.parametrize("caller", CALLERS)
def test_a_worker_that_dies_fails_the_run_and_leaves_no_child(monkeypatch, caller):
    began = time.monotonic()
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        _split_run(monkeypatch, caller, 12, 3, worker_fails=lambda: os._exit(3))
    assert time.monotonic() - began < 5
    _assert_no_child_left()


@pytest.mark.parametrize("caller", CALLERS)
def test_a_worker_payload_that_does_not_decode_fails_the_run(monkeypatch, caller):
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda result: dumps(result)[:-3])
    with pytest.raises(ChildProcessError, match="do not decode"):
        _split_run(monkeypatch, caller, 12, 2)
    _assert_no_child_left()


@pytest.mark.parametrize("caller", CALLERS)
def test_an_interrupted_run_kills_and_reaps_its_busy_workers(monkeypatch, caller):
    def interrupt():
        raise KeyboardInterrupt

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _split_run(monkeypatch, caller, 12, 3, parent_fails=interrupt,
                   worker_fails=lambda: time.sleep(60))
    assert time.monotonic() - began < 5
    _assert_no_child_left()


@pytest.mark.parametrize("caller", CALLERS)
def test_a_small_run_or_a_threaded_caller_never_forks(monkeypatch, caller):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    small, large = CALLERS[caller]
    assert _split_run(monkeypatch, caller, small)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        done = _split_run(monkeypatch, caller, large)
    finally:
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert done


#: Runs the caller named by its argument over far more work than a test
#: waits for, split into two ranges, and writes its worker's pid to stderr
#: once forked.
_LONG_SPLIT_RUN = """
import os, sys
from cbrchain import CbrParameters, _ranges, cbr_transition_matrix, cli, simulate

fork = _ranges._fork

def announced(*args):
    pid, read_end = fork(*args)
    os.write(2, b"%d\\n" % pid)
    return pid, read_end

_ranges._fork = announced
_ranges.range_count = lambda work, least: 2
if sys.argv[1] == "cbr-evolve":
    cli.main(["cbr-evolve", "--p31", "2/7", "--p33", "3/11", "--phases", "100000",
              "--format", "machine"])
chain = cbr_transition_matrix(CbrParameters.from_p31_p33("1/3", "1/3"))
simulate.run_simulation(chain, "R1", simulate.SimulationConfig(seed=1, num_trajectories=10**8))
"""


def _long_split_run(caller):
    """A new interpreter running ``_LONG_SPLIT_RUN`` for ``caller``, with
    its stdout and stderr piped to this process, and its worker's pid."""
    proc = subprocess.Popen([sys.executable, "-c", _LONG_SPLIT_RUN, caller], env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc, int(proc.stderr.readline())


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (is no zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def _end(proc, worker: int) -> None:
    """Kill ``proc`` and ``worker`` if they still run, so that a failed
    test leaves no process behind, and close ``proc``'s pipes."""
    if _alive(worker):
        os.kill(worker, signal.SIGKILL)
    proc.kill()
    proc.communicate()


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                reason="reads process states from /proc")


@needs_proc
@pytest.mark.parametrize("caller", CALLERS)
def test_a_worker_ends_itself_soon_after_its_parent_is_killed(caller):
    proc, worker = _long_split_run(caller)
    try:
        proc.kill()
        assert proc.wait(timeout=10) == -signal.SIGKILL
        deadline = time.monotonic() + 10
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker)
    finally:
        _end(proc, worker)


@needs_proc
@pytest.mark.parametrize("caller", CALLERS)
def test_a_terminated_parent_reaps_its_worker_and_still_ends_by_sigterm(caller):
    proc, worker = _long_split_run(caller)
    try:
        time.sleep(0.3)  # past the fork's return, into the parent's own range
        proc.terminate()
        assert proc.wait(timeout=10) == -signal.SIGTERM
        assert not _alive(worker)
        stdout, stderr = proc.communicate(timeout=10)  # both pipes reach EOF
        assert stdout == stderr == b""
    finally:
        _end(proc, worker)


#: The command line of each caller of the fork helper, small enough to run
#: in a test and split into up to three ranges.
SPLIT_COMMANDS = {
    "run_simulation": ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "600",
                       "--phases", "4", "--format", "machine"],
    "cbr-evolve": ["cbr-evolve", "--p31", "2/7", "--p33", "3/11", "--phases", "11",
                   "--format", "machine"],
}


def _failing_call(real, call: int, code: int):
    """``real``, except that its ``call``th call raises OSError ``code``."""
    calls = iter(range(1, call + 1))

    def failing(*args):
        if next(calls, None) == call:
            raise OSError(code, os.strerror(code))
        return real(*args)

    return failing


@needs_proc
@pytest.mark.parametrize(
    "ranges, name, call",
    # The first pipe is the lifeline of every worker, each later one a worker's.
    [(2, "fork", 1), (3, "fork", 1), (3, "fork", 2), (2, "pipe", 1), (2, "pipe", 2),
     (3, "pipe", 3)],
)
@pytest.mark.parametrize("caller", CALLERS)
def test_a_worker_that_cannot_start_leaves_its_ranges_to_this_process(
    monkeypatch, caller, ranges, name, call
):
    def run():
        report = None
        if caller == "run_simulation":
            cfg = SimulationConfig(seed=3, num_trajectories=600)
            report = run_simulation(THIRDS, "R1", cfg, range(5)).to_dict()
        result = invoke(SPLIT_COMMANDS[caller])
        return report, result.exit_code, result.stdout, result.stderr

    monkeypatch.setattr(_ranges, "range_count", lambda work, least: 1)
    want = run()
    assert want[1] == 0 and want[3] == ""
    monkeypatch.setattr(_ranges, "range_count", lambda work, least: ranges)
    # A fork fails with EAGAIN at a process limit, a pipe with EMFILE at a
    # file limit.
    code = errno.EAGAIN if name == "fork" else errno.EMFILE
    monkeypatch.setattr(os, name, _failing_call(getattr(os, name), call, code))
    fds = len(os.listdir("/proc/self/fd"))
    assert run() == want
    assert len(os.listdir("/proc/self/fd")) == fds
    _assert_no_child_left()


def test_each_walk_builds_one_generator_from_one_derived_seed(monkeypatch):
    from cbrchain import simulate

    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    long_runs = _heavy_self_loop_cbr((10, 89, 1))
    cfg = SimulationConfig(seed=7, num_trajectories=300, max_phases=40)
    expected = run_simulation(long_runs, "R1", cfg, range(12))
    paths = list(iter_trajectories(long_runs, "R1", cfg))
    monkeypatch.setattr(
        simulate, "random", SimpleNamespace(Random=counted("Random", random.Random))
    )
    monkeypatch.setattr(
        simulate,
        "derive_trajectory_seed",
        counted("derive_trajectory_seed", derive_trajectory_seed),
    )
    report = run_simulation(long_runs, "R1", cfg, range(12))
    assert calls == {"Random": 300, "derive_trajectory_seed": 300}
    assert report.to_dict() == expected.to_dict()
    calls.clear()
    assert list(iter_trajectories(long_runs, "R1", cfg)) == paths
    assert calls == {"Random": 300, "derive_trajectory_seed": 300}


@pytest.mark.parametrize(
    "start, draws, path",
    [
        # A draw on S's run threshold 2^-2 stays once, not twice, and one on
        # its exit bound 0.5 leaves to B, not A.
        ("S", (0.25, 0.5), ["S", "S", "B"]),
        # A draw below 2^-64 stays 64 times and draws again; 0.5 adds no
        # stay, and 0.0 leaves to A.
        ("S", (0.0, 0.5, 0.0), ["S"] * 65 + ["A"]),
        # Z's exit to A ends at exactly 0.5: a draw of 0.5 stays no time and
        # one on the bound leaves to C.
        ("Z", (0.5, 0.5), ["Z", "C"]),
        # Just below each bound: two stays, then A.
        ("S", (math.nextafter(0.25, 0), math.nextafter(0.5, 0)), ["S"] * 3 + ["A"]),
        # 0.0 is below float(q**16) but not below float(q**17) = 0.0.
        ("Z", (0.0, 0.0), ["Z"] * 17 + ["A"]),
    ],
)
def test_draws_on_bucket_bounds_stay_or_leave_as_bisect_sends_them(
    monkeypatch, start, draws, path
):
    assert float(F(1, 2) / (1 - _TINY)) == 0.5
    assert float(_TINY**17) == 0.0 < float(_TINY**16)
    monkeypatch.setattr(_ScriptedDraws, "DRAWS", draws)
    assert _linear_scan_walk(BOUNDS, start, 0, 100, generator=_ScriptedDraws) == path
    monkeypatch.setattr(
        "cbrchain.simulate.random", SimpleNamespace(Random=_ScriptedDraws)
    )
    assert sample_trajectory(BOUNDS, start, 0) == path
    cfg = SimulationConfig(seed=0, num_trajectories=1)
    counts = run_simulation(BOUNDS, start, cfg).transition_counts
    assert counts == {start: dict(Counter(path[1:]))}


@pytest.mark.parametrize(
    "draws, max_phases",
    [
        ((0.0,), 10),  # 64 stays drawn, cut after 10
        ((0.0,), 64),  # 64 stays drawn, which reach the cap: no second draw
        ((0.25,), 1),  # one stay drawn, which reaches the cap
    ],
)
def test_a_run_cut_at_the_cap_tallies_its_stays_and_draws_no_exit(
    monkeypatch, draws, max_phases
):
    monkeypatch.setattr(_ScriptedDraws, "DRAWS", draws)
    path = ["S"] * (max_phases + 1)
    assert _linear_scan_walk(BOUNDS, "S", 0, max_phases, _ScriptedDraws) == path
    monkeypatch.setattr(
        "cbrchain.simulate.random", SimpleNamespace(Random=_ScriptedDraws)
    )
    assert sample_trajectory(BOUNDS, "S", 0, max_phases) == path
    cfg = SimulationConfig(seed=0, num_trajectories=1, max_phases=max_phases)
    report = run_simulation(BOUNDS, "S", cfg, (max_phases,))
    assert report.censored_count == 1
    assert report.transition_counts == {"S": {"S": max_phases}}
    assert report.empirical_phase_distributions == {max_phases: {"S": 1.0}}


class _CountedDraws(random.Random):
    """``random.Random`` that counts the draws of all its instances."""

    drawn = 0

    def random(self):
        _CountedDraws.drawn += 1
        return super().random()


@pytest.mark.parametrize(
    "p31, p33, draws_per_run",
    [
        (F(0), F(0), 0),  # every row has one successor
        (F(1, 2), F(0), 1),  # R3 picks an exit
        (F(0), F(1, 2), 1),  # R3 draws its run, then leaves to R4
        (F(1, 3), F(1, 3), 2),  # its run, then an exit
    ],
)
def test_forced_moves_draw_nothing_and_an_r3_run_at_most_twice(
    monkeypatch, p31, p33, draws_per_run
):
    matrix = cbr_transition_matrix(CbrParameters(p31, p33, 1 - p31 - p33))
    monkeypatch.setattr(_CountedDraws, "drawn", 0)
    monkeypatch.setattr(
        "cbrchain.simulate.random", SimpleNamespace(Random=_CountedDraws)
    )
    report = run_simulation(matrix, "R1", SimulationConfig(seed=5, num_trajectories=500))
    assert report.censored_count == 0
    runs = sum(n for target, n in report.transition_counts.get("R3", {}).items() if target != "R3")
    assert _CountedDraws.drawn == draws_per_run * runs


# --- the law of the draws ---------------------------------------------------------
#
# The fixed seeds make each test pass or fail for good on today's stream; on
# a correct sampler a fresh seed fails one at the level below once in 10^4.
# At p31 = p33 = 1/3 the tests read criterion 7's 100 000 walks, enough
# that biasing one exit weight by 2% fails the exit test; adding one stay
# to every self-loop run fails both tests.

LEVEL = 1e-4

DRAWS = [
    (F(1, 3), F(1, 3), 101, 100_000),
    (F(1, 10), F(89, 100), 2, 5_000),
    (F(1, 2), F(0), 3, 10_000),  # no self-loop: one cell fewer, df = 1
]


@pytest.mark.parametrize("p31, p33, seed, walks", DRAWS)
def test_r3_exits_follow_the_generating_probabilities(simulated, p31, p33, seed, walks):
    drawn = simulated(p31, p33, seed, walks)
    exits = drawn.report.transition_counts.get("R3", {})
    total = sum(exits.values())
    params = drawn.params
    cells = [
        (exits.get(target, 0), total * float(p))
        for target, p in (("R1", params.p31), ("R3", params.p33), ("R4", params.p34))
        if p
    ]
    assert sum(o for o, _ in cells) == total
    g = g_statistic(*zip(*cells))
    assert chi2_tail(g, len(cells) - 1) > LEVEL


@pytest.mark.parametrize("p31, p33, seed, walks", DRAWS)
def test_completion_phases_follow_the_exact_law(simulated, p31, p33, seed, walks):
    drawn = simulated(p31, p33, seed, walks)
    assert all(path[-1] == "R4" for path in drawn.paths)
    observed = Counter(len(path) - 1 for path in drawn.paths)
    law = completion_law(drawn.params, max(observed))
    # Consecutive phases pool until a bin expects at least 5 walks; what is
    # left, with the law's tail past the last phase observed, joins the last
    # bin, and an even count of bins merges its last two, so that the
    # degrees of freedom are even.
    bins = []
    expected = seen = 0
    for n, q in enumerate(law):
        expected += walks * float(q)
        seen += observed[n]
        if expected >= 5:
            bins.append([expected, seen])
            expected = seen = 0
    bins[-1][0] += walks - math.fsum(e for e, _ in bins)
    bins[-1][1] += seen
    if len(bins) % 2 == 0:
        e, o = bins.pop()
        bins[-1][0] += e
        bins[-1][1] += o
    assert sum(o for _, o in bins) == walks
    x2 = math.fsum((o - e) ** 2 / e for e, o in bins)
    assert chi2_tail(x2, len(bins) - 1) > LEVEL
