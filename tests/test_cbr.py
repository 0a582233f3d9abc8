"""Tests for the 4-state process chain model."""

import re
from fractions import Fraction
from io import StringIO
from itertools import product
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import event, given

from cbrchain import (
    CbrParameters,
    R3ExitCounts,
    Trajectory,
    ProbabilityVector,
    canonical_form,
    cbr_transition_matrix,
    count_r3_exits,
    estimate_parameters,
    evolve,
    expected_absorption_steps,
    format_trajectories,
    mean_phases,
    parse_trajectories,
    phase_distribution,
    read_trajectories,
    trajectory_step_count,
    validate_trajectory,
)
from cbrchain.errors import (
    CbrChainError,
    DoesNotStartAtR1,
    EmptyTrajectory,
    IllegalTransition,
    InvalidParameters,
    NoR3Observations,
    NonAbsorbing,
    NotAbsorbed,
    UnknownLabel,
)

from cbrchain import cbr
from cbrchain.cbr import estimate_from_counts, tally_trajectories
from oracles import (
    random_triples,
    reference_exits,
    reference_first_error,
    reference_walks,
    symbolic_phase_vectors,
)
from strategies import broken_walks, cbr_parameters, trajectory_texts, walk_lines, walks

F = Fraction

PHYSICIAN = ["R1", "R2", "R3", "R1", "R2", "R3", "R3", "R4"]
STRAIGHTFORWARD = ["R1", "R2", "R3", "R4"]
ONE_RETURN_TWO_STAYS = ["R1", "R2", "R3", "R1", "R2", "R3", "R3", "R3", "R4"]


# --- parameters and matrix ------------------------------------------------------

def test_parameters_must_sum_to_one():
    with pytest.raises(InvalidParameters):
        CbrParameters(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(InvalidParameters):
        CbrParameters(F(3, 2), F(-1, 2), F(0))


def test_derived_third_parameter():
    p = CbrParameters.from_p31_p33(F(1, 4), F(1, 2))
    assert p.p34 == F(1, 4)
    with pytest.raises(InvalidParameters):
        CbrParameters.from_p31_p33(F(2, 3), F(2, 3))


def test_matrix_revise_row_carries_the_parameters():
    m = cbr_transition_matrix(CbrParameters(F(1, 3), F(1, 3), F(1, 3)))
    assert m.states == ("R1", "R2", "R3", "R4")
    assert m.entries[2] == (F(1, 3), F(0), F(1, 3), F(1, 3))
    m = cbr_transition_matrix(CbrParameters(F(0), F(0), F(1)))
    assert m.entries[2] == (F(0), F(0), F(0), F(1))
    m = cbr_transition_matrix(CbrParameters(F(1, 4), F(1, 2), F(1, 4)))
    assert m.entries[2] == (F(1, 4), F(0), F(1, 2), F(1, 4))


def test_fixed_rows_of_the_flow_matrix():
    m = cbr_transition_matrix(CbrParameters(F(1, 4), F(1, 2), F(1, 4)))
    assert m.entries[0] == (F(0), F(1), F(0), F(0))
    assert m.entries[1] == (F(0), F(0), F(1), F(0))
    assert m.entries[3] == (F(0), F(0), F(0), F(1))


# --- closed forms ------------------------------------------------------------------

def test_mean_phases_known_values():
    assert mean_phases(CbrParameters(F(1, 3), F(1, 3), F(1, 3))) == 7
    assert mean_phases(CbrParameters(F(0), F(0), F(1))) == 3
    assert mean_phases(CbrParameters(F(1, 4), F(1, 2), F(1, 4))) == 8


def test_mean_completion_steps_is_one_more_phase():
    assert mean_phases(CbrParameters(F(1, 3), F(1, 3), F(1, 3))) + 1 == 8
    assert mean_phases(CbrParameters(F(0), F(0), F(1))) + 1 == 4


def test_non_absorbing_parameters_have_no_mean():
    with pytest.raises(NonAbsorbing):
        mean_phases(CbrParameters(F(1, 2), F(1, 2), F(0)))


@given(cbr_parameters(absorbing=True))
def test_mean_phases_bound_is_three(params):
    t = mean_phases(params)
    assert t >= 3
    assert (t == 3) == (params.p31 == 0 and params.p33 == 0)


@given(cbr_parameters(absorbing=True))
def test_closed_form_agrees_with_the_generic_engine(params):
    chain = canonical_form(cbr_transition_matrix(params))
    engine_t = expected_absorption_steps(chain)[
        chain.transient_states.index("R1")
    ]
    assert mean_phases(params) == engine_t


# --- phase distributions --------------------------------------------------------------

def test_phase_distribution_known_values():
    p = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
    assert phase_distribution(p, 4).probs == (F(1, 9), F(1, 3), F(1, 9), F(4, 9))
    assert phase_distribution(p, 1).probs == (F(0), F(1), F(0), F(0))
    assert phase_distribution(p, 5).probs == (
        F(1, 27),
        F(1, 9),
        F(10, 27),
        F(13, 27),
    )


@given(cbr_parameters())
def test_phase_distribution_agrees_with_evolution(params):
    matrix = cbr_transition_matrix(params)
    start = ProbabilityVector.point(matrix.states, "R1")
    vectors = evolve(start, matrix, 5)
    for i in range(6):
        assert phase_distribution(params, i) == vectors[i]


def test_symbolic_forms_hold_for_a_hundred_random_triples():
    for params in random_triples(seed=2024, count=100):
        expected = symbolic_phase_vectors(params)
        for i in range(6):
            assert phase_distribution(params, i).probs == expected[i]


# --- trajectory validation ---------------------------------------------------------------

def test_straightforward_walk_is_valid():
    assert validate_trajectory(STRAIGHTFORWARD).phases == tuple(STRAIGHTFORWARD)


def test_return_and_stay_walk_is_valid():
    assert validate_trajectory(PHYSICIAN).is_absorbed


def test_censored_walk_is_valid_but_not_absorbed():
    t = validate_trajectory(["R1", "R2", "R3", "R3"])
    assert not t.is_absorbed


def test_skipping_reuse_is_illegal():
    with pytest.raises(IllegalTransition) as info:
        validate_trajectory(["R1", "R3", "R4"])
    assert (info.value.index, info.value.source, info.value.target) == (1, "R1", "R3")


def test_leaving_the_absorbing_state_is_illegal():
    with pytest.raises(IllegalTransition) as info:
        validate_trajectory(["R1", "R2", "R3", "R4", "R4"])
    assert info.value.index == 4


def test_other_invalid_walks():
    with pytest.raises(EmptyTrajectory):
        validate_trajectory([])
    with pytest.raises(DoesNotStartAtR1):
        validate_trajectory(["R2", "R3", "R4"])
    with pytest.raises(UnknownLabel) as info:
        validate_trajectory(["R1", "R2", "R5"])
    assert (info.value.index, info.value.label) == (2, "R5")


# --- step counting ---------------------------------------------------------------------------

def test_step_counts_for_known_walks():
    assert trajectory_step_count(validate_trajectory(PHYSICIAN)) == 8
    assert trajectory_step_count(validate_trajectory(STRAIGHTFORWARD)) == 4
    assert trajectory_step_count(validate_trajectory(ONE_RETURN_TWO_STAYS)) == 9


def test_censored_walks_have_no_step_count():
    with pytest.raises(NotAbsorbed):
        trajectory_step_count(validate_trajectory(["R1", "R2", "R3"]))


def test_step_count_is_one_more_than_the_transitions():
    for raw in (PHYSICIAN, STRAIGHTFORWARD, ONE_RETURN_TWO_STAYS):
        t = validate_trajectory(raw)
        assert trajectory_step_count(t) == 1 + (len(t.phases) - 1)


# --- estimation ---------------------------------------------------------------------------------

def test_estimation_from_one_return_two_stays():
    walks = [validate_trajectory(ONE_RETURN_TWO_STAYS)]
    params = estimate_parameters(walks)
    assert params == CbrParameters(F(1, 4), F(1, 2), F(1, 4))
    counts = count_r3_exits(walks)
    assert (counts.to_r1, counts.to_r3, counts.to_r4) == (1, 2, 1)
    assert mean_phases(params) == 8


def test_estimation_from_the_physician_walk():
    params = estimate_parameters([validate_trajectory(PHYSICIAN)])
    assert params == CbrParameters(F(1, 3), F(1, 3), F(1, 3))


def test_estimation_from_a_single_straightforward_walk():
    params = estimate_parameters([validate_trajectory(STRAIGHTFORWARD)])
    assert params == CbrParameters(F(0), F(0), F(1))


def test_estimation_pools_censored_observations():
    censored = validate_trajectory(["R1", "R2", "R3", "R3"])
    absorbed = validate_trajectory(STRAIGHTFORWARD)
    counts = count_r3_exits([censored, absorbed])
    assert (counts.to_r1, counts.to_r3, counts.to_r4) == (0, 1, 1)
    assert estimate_parameters([censored, absorbed]) == CbrParameters(F(0), F(1, 2), F(1, 2))


def test_estimation_needs_at_least_one_exit():
    with pytest.raises(NoR3Observations):
        estimate_parameters([validate_trajectory(["R1", "R2"])])
    with pytest.raises(NoR3Observations):
        estimate_parameters([])


# --- trajectory text format -----------------------------------------------------------------------

def test_text_format_accepts_commas_whitespace_comments_and_blanks():
    text = (
        "# observed walks\n"
        "\n"
        "R1 R2 R3 R4\n"
        "R1,R2,R3,R1,R2,R3,R3,R4\n"
        "   R1\tR2  R3, R3, R4\n"
    )
    trajectories = parse_trajectories(text)
    assert [t.phases for t in trajectories] == [
        tuple(STRAIGHTFORWARD),
        tuple(PHYSICIAN),
        ("R1", "R2", "R3", "R3", "R4"),
    ]


def test_text_format_round_trips():
    trajectories = parse_trajectories("R1 R2 R3 R4\nR1 R2 R3 R3 R4\n")
    assert parse_trajectories(format_trajectories(trajectories)) == trajectories


def test_reading_from_path_and_stream(fixtures_dir, tmp_path):
    from io import StringIO

    trajectories = read_trajectories(fixtures_dir / "physician.txt")
    assert [t.phases for t in trajectories] == [tuple(PHYSICIAN)]
    assert read_trajectories(StringIO("R1 R2 R3 R4\n")) == [
        validate_trajectory(STRAIGHTFORWARD)
    ]
    with pytest.raises(TypeError, match="cannot read text from bytes"):
        read_trajectories(b"R1 R2 R3 R4\n")


def test_malformed_lines_raise_the_trajectory_errors():
    with pytest.raises(UnknownLabel):
        parse_trajectories("R1 R2 RX\n")
    with pytest.raises(IllegalTransition):
        parse_trajectories("R1 R2 R3 R4\nR1 R1\n")


def test_a_bad_walk_names_its_line():
    text = "R1 R2 R3 R4\n\n# a comment\nR1 X\n"
    with pytest.raises(UnknownLabel) as info:
        parse_trajectories(text)
    assert str(info.value) == "line 4: unknown step label at position 1: 'X'"
    assert (info.value.index, info.value.label) == (1, "X")
    # Only LF, CRLF and CR end a line; the other characters that
    # str.splitlines() breaks at are whitespace and separate labels.
    for text, error, message in [
        ("R1 R2 R3 R4\fR1 R2 X\n", UnknownLabel,
         "line 1: unknown step label at position 6: 'X'"),
        ("R1 R2 R3 R4\n\vR2 R3\n", DoesNotStartAtR1,
         "line 2: trajectory must start at R1, got 'R2'"),
        ("R1\x85R3\rR1 R2 R3 R4\n", IllegalTransition,
         "line 1: illegal transition at position 1: R1 -> R3"),
        ("R1 R2 R3 R4\r\nR1\u2028R2\x1cR4\n", IllegalTransition,
         "line 2: illegal transition at position 2: R2 -> R4"),
    ]:
        for fold in (parse_trajectories, tally):
            with pytest.raises(error) as info:
                fold(text)
            assert str(info.value) == message


def test_lines_end_only_at_lf_crlf_and_cr():
    text = "R1\fR2 R3 R4\nR1 R2 R3\x85R1 R2 R3 R4\r\nR1 R2\rR1\v\n"
    walks = [
        ("R1", "R2", "R3", "R4"),
        ("R1", "R2", "R3", "R1", "R2", "R3", "R4"),
        ("R1", "R2"),
        ("R1",),
    ]
    assert [t.phases for t in parse_trajectories(text)] == walks
    assert tally(text) == (4, [4, 7], R3ExitCounts(1, 0, 2))


# --- the one-pass tally ------------------------------------------------------------------

def tally(text: str):
    return tally_trajectories(StringIO(text))


@pytest.mark.reference
@given(trajectory_texts(broken=True))
def test_tally_agrees_with_the_reference(text):
    error = reference_first_error(text)
    if error is not None:
        for fold in (tally, parse_trajectories):
            with pytest.raises(error[0]) as info:
                fold(text)
            assert str(info.value) == error[1]
        return
    walks = [tuple(labels) for _, labels in reference_walks(text)]
    exits = reference_exits(walks)
    count, step_counts, counts = tally(text)
    assert count == len(walks)
    assert step_counts == [len(w) for w in walks if w[-1] == "R4"]
    assert counts == R3ExitCounts(exits["R1"], exits["R3"], exits["R4"])
    parsed = parse_trajectories(text)
    assert [t.phases for t in parsed] == walks
    assert count_r3_exits(parsed) == counts


@pytest.mark.reference
@given(st.data())
def test_the_walk_pattern_accepts_exactly_the_lines_a_trajectory_does(data):
    # The tally matches each stripped line against the pattern and builds a
    # Trajectory only where it fails, so a pattern that refused a valid walk
    # would still count it right, only slower.
    labels = data.draw(st.one_of(walks(), broken_walks()))
    line = data.draw(walk_lines(labels))
    try:
        Trajectory(tuple(labels))
        valid = True
    except CbrChainError:
        valid = False
    event(f"valid walk: {valid}")
    match = cbr._WALK.fullmatch(line.strip())
    assert bool(match) == valid
    if match:
        assert cbr._SEPARATORS.split(match[1]) == labels


@given(trajectory_texts())
def test_valid_walks_are_counted_without_building_a_trajectory(text):
    refuse = AssertionError("a Trajectory was built for a valid walk")
    with patch.object(cbr, "validate_trajectory", side_effect=refuse):
        tally(text)


def test_every_short_label_sequence_is_judged_as_the_reference_does():
    for length in range(1, 7):
        for labels in product(("R1", "R2", "R3", "R4"), repeat=length):
            text = " ".join(labels)
            error = reference_first_error(text)
            if error is not None:
                with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
                    tally(text)
                continue
            exits = reference_exits([labels])
            steps = [length] if labels[-1] == "R4" else []
            counts = R3ExitCounts(exits["R1"], exits["R3"], exits["R4"])
            assert tally(text) == (1, steps, counts)


def test_tally_edge_cases():
    # censored at R3, then trailing separators: R3 is last and has no exit
    assert tally("R1 R2 R3 ,\t\u2003\n") == (1, [], R3ExitCounts(0, 0, 0))
    assert tally(",R1,R2,R3,R3, ,\n") == (1, [], R3ExitCounts(0, 1, 0))
    assert tally("R1\tR2\tR3\tR1\tR2\tR3\tR4\n") == (1, [7], R3ExitCounts(1, 0, 1))
    # a label holding a separator is one unknown label, not two labels
    with pytest.raises(UnknownLabel):
        Trajectory(("R1 R2",))
    for text, label in (("R1 R2 R33 R4", "R33"), ("r1 R2 R3 R4", "r1")):
        with pytest.raises(UnknownLabel) as info:
            tally(text)
        assert info.value.label == label


def test_a_bad_walk_repeated_is_named_at_its_first_line():
    text = "R1 R2 R3 R4\nR1 R3\nR1 R2 R3 R4\n\nR1 R3\n"
    for fold in (parse_trajectories, tally):
        with pytest.raises(IllegalTransition) as info:
            fold(text)
        assert str(info.value) == "line 2: illegal transition at position 1: R1 -> R3"


def test_each_distinct_line_is_matched_once():
    lines = ["R1 R2 R3 R4", "R1 R2 R3 R3 R4", "R1 R2"]
    matched = []
    pattern = cbr._WALK

    class CountingWalk:
        def fullmatch(self, line):
            matched.append(line)
            return pattern.fullmatch(line)

    with patch.object(cbr, "_WALK", CountingWalk()):
        count, step_counts, counts = tally("\n".join(lines * 1000))
    assert matched == lines
    assert (count, step_counts, counts) == (3000, [4, 5] * 1000, R3ExitCounts(0, 1000, 2000))


def test_estimate_from_counts_matches_estimate_parameters():
    walks = [validate_trajectory(w) for w in (PHYSICIAN, ONE_RETURN_TWO_STAYS)]
    assert estimate_from_counts(count_r3_exits(walks)) == estimate_parameters(walks)
    with pytest.raises(NoR3Observations):
        estimate_from_counts(R3ExitCounts(0, 0, 0))


# --- estimation convergence (small-scale; the full-size run lives in acceptance) ----

def test_estimation_converges_on_simulated_walks():
    from cbrchain import cbr_transition_matrix as matrix_of
    from cbrchain import derive_trajectory_seed, sample_trajectory

    params = CbrParameters(F(1, 4), F(1, 2), F(1, 4))
    m = matrix_of(params)
    walks = [
        validate_trajectory(
            sample_trajectory(m, "R1", derive_trajectory_seed(7, i))
        )
        for i in range(5000)
    ]
    estimated = estimate_parameters(walks)
    assert abs(float(estimated.p31 - params.p31)) < 0.03
    assert abs(float(estimated.p33 - params.p33)) < 0.03
    assert abs(float(estimated.p34 - params.p34)) < 0.03
