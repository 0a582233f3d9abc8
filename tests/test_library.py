"""Tests for case-library efficiency and the document format."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cbrchain import (
    CaseLibrary,
    Trajectory,
    estimate_parameters,
    CaseRecord,
    CbrParameters,
    GeneralizedEpisode,
    case_measure,
    dumps_library,
    efficiency_trend,
    episode_cases,
    episode_efficiency,
    flat_efficiency,
    library_to_dict,
    load_library,
    loads_library,
    mean_phases,
    save_library,
    system_efficiency,
    validate_trajectory,
)
from cbrchain import CbrChainError, library
from cbrchain.library import efficiency_report
from cbrchain.errors import (
    DuplicateCaseId,
    EmptyEpisode,
    EmptyLibrary,
    InvalidTrajectory,
    MeasureBelowBound,
    NonAbsorbing,
    NotAbsorbed,
    ParseError,
    SchemaError,
)

from oracles import (
    _reference_distinct,
    reference_efficiency_trend,
    reference_episode_efficiency,
    reference_flat_efficiency,
    reference_system_efficiency,
)
from strategies import case_libraries, walks

F = Fraction

THIRDS = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
ONE_RETURN_TWO_STAYS = validate_trajectory(
    ["R1", "R2", "R3", "R1", "R2", "R3", "R3", "R3", "R4"]
)


def three_case_episode() -> GeneralizedEpisode:
    return GeneralizedEpisode(
        "diagnosis",
        cases=(
            CaseRecord.from_measure("c1", 3),
            CaseRecord.from_parameters("c2", THIRDS),
            CaseRecord.from_trajectory("c3", ONE_RETURN_TWO_STAYS),
        ),
    )


# --- case records and measures -------------------------------------------------

def test_case_measure_for_each_source_kind():
    assert case_measure(CaseRecord.from_measure("a", 3)) == 3
    assert case_measure(CaseRecord.from_parameters("b", THIRDS)) == 7
    assert case_measure(CaseRecord.from_trajectory("c", ONE_RETURN_TWO_STAYS)) == 8


def test_direct_measures_below_the_bound_are_rejected():
    with pytest.raises(MeasureBelowBound):
        CaseRecord.from_measure("bad", F(5, 2))


def test_trajectory_source_must_be_absorbed():
    with pytest.raises(NotAbsorbed):
        CaseRecord.from_trajectory("bad", validate_trajectory(["R1", "R2", "R3"]))


def test_exactly_one_source_required():
    with pytest.raises(ValueError):
        CaseRecord("both", measure=F(3), params=THIRDS)
    with pytest.raises(ValueError):
        CaseRecord("none")


def test_non_absorbing_parameter_case_has_no_measure():
    record = CaseRecord.from_parameters(
        "stuck", CbrParameters(F(1, 2), F(1, 2), F(0))
    )
    with pytest.raises(NonAbsorbing):
        case_measure(record)


# --- efficiencies -----------------------------------------------------------------

def test_episode_efficiency_of_the_three_case_group():
    assert episode_efficiency(three_case_episode()) == 6


def test_single_case_episode_efficiency_is_its_measure():
    g = GeneralizedEpisode("solo", cases=(CaseRecord.from_measure("x", 5),))
    assert episode_efficiency(g) == 5


def test_shared_case_between_episode_and_sub_episode_counts_once():
    shared = CaseRecord.from_measure("shared", 3)
    other = CaseRecord.from_measure("other", 7)
    g = GeneralizedEpisode(
        "complex",
        cases=(shared,),
        sub_episodes=(GeneralizedEpisode("specific", cases=(shared, other)),),
    )
    assert episode_efficiency(g) == 5


def test_empty_episode_has_no_efficiency():
    with pytest.raises(EmptyEpisode):
        episode_efficiency(GeneralizedEpisode("empty"))


def test_system_efficiency_examples():
    one = CaseLibrary((three_case_episode(),))
    assert system_efficiency(one) == 6

    def episode_with(name, value):
        return GeneralizedEpisode(
            name, cases=(CaseRecord.from_measure(f"{name}-case", value),)
        )

    two = CaseLibrary((episode_with("a", 6), episode_with("b", 4)))
    assert system_efficiency(two) == 5
    three = CaseLibrary(
        (episode_with("a", 6), episode_with("b", 3), episode_with("c", 3))
    )
    assert system_efficiency(three) == 4


def test_flat_efficiency_examples():
    lib = CaseLibrary((three_case_episode(),))
    assert flat_efficiency(lib) == 6
    all_easy = CaseLibrary(
        (
            GeneralizedEpisode(
                "easy",
                cases=tuple(
                    CaseRecord.from_measure(f"e{i}", 3) for i in range(4)
                ),
            ),
        )
    )
    assert flat_efficiency(all_easy) == 3
    pair = CaseLibrary(
        (
            GeneralizedEpisode(
                "pair",
                cases=(
                    CaseRecord.from_measure("a", 3),
                    CaseRecord.from_measure("b", 7),
                ),
            ),
        )
    )
    assert flat_efficiency(pair) == 5


def test_empty_library_has_no_efficiency():
    with pytest.raises(EmptyLibrary):
        flat_efficiency(CaseLibrary())
    with pytest.raises(EmptyLibrary):
        system_efficiency(CaseLibrary())
    lonely_empty = CaseLibrary((GeneralizedEpisode("hollow"),))
    with pytest.raises(EmptyLibrary):
        flat_efficiency(lonely_empty)
    with pytest.raises(EmptyEpisode):
        system_efficiency(lonely_empty)


def test_efficiency_is_order_invariant():
    g = three_case_episode()
    reordered = GeneralizedEpisode(g.name, cases=g.cases[::-1])
    assert episode_efficiency(g) == episode_efficiency(reordered)
    lib = CaseLibrary((g,))
    relib = CaseLibrary((reordered,))
    assert flat_efficiency(lib) == flat_efficiency(relib)


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_constant_measures_make_every_metric_equal(values):
    constant = values[0]
    cases = tuple(
        CaseRecord.from_measure(f"c{i}", constant) for i in range(len(values))
    )
    lib = CaseLibrary((GeneralizedEpisode("g", cases=cases),))
    assert flat_efficiency(lib) == constant
    assert system_efficiency(lib) == constant


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_every_efficiency_respects_the_floor(values):
    cases = tuple(
        CaseRecord.from_measure(f"c{i}", v) for i, v in enumerate(values)
    )
    lib = CaseLibrary((GeneralizedEpisode("g", cases=cases),))
    assert flat_efficiency(lib) >= 3
    assert system_efficiency(lib) >= 3


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_single_episode_system_equals_flat(values):
    cases = tuple(
        CaseRecord.from_measure(f"c{i}", v) for i, v in enumerate(values)
    )
    lib = CaseLibrary((GeneralizedEpisode("g", cases=cases),))
    assert system_efficiency(lib) == flat_efficiency(lib)


@given(
    st.lists(st.integers(min_value=4, max_value=40), min_size=1, max_size=8),
    st.integers(min_value=3, max_value=40),
)
def test_adding_an_easier_case_strictly_lowers_flat_efficiency(values, new):
    cases = tuple(
        CaseRecord.from_measure(f"c{i}", v) for i, v in enumerate(values)
    )
    lib = CaseLibrary((GeneralizedEpisode("g", cases=cases),))
    before = flat_efficiency(lib)
    if F(new) >= before:
        return
    grown = CaseLibrary(
        (GeneralizedEpisode("g", cases=cases + (CaseRecord.from_measure("new", new),)),)
    )
    assert flat_efficiency(grown) < before


def test_efficiency_trend_reports_the_running_mean():
    lib = CaseLibrary((three_case_episode(),))
    trend = efficiency_trend(lib)
    assert trend == [("c1", F(3)), ("c2", F(5)), ("c3", F(6))]


# --- document format ---------------------------------------------------------------

def test_fixture_library_reproduces_the_worked_efficiency(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    assert lib.n == 3
    assert episode_efficiency(lib.episodes[0]) == 6
    assert flat_efficiency(lib) == 6
    assert system_efficiency(lib) == 6


def test_round_trip_preserves_every_value(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    assert loads_library(dumps_library(lib)) == lib


def test_round_trip_through_a_file(tmp_path, fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    path = tmp_path / "out.json"
    save_library(lib, path)
    assert load_library(path) == lib


def test_round_trip_through_a_stream(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    stream = io.StringIO()
    save_library(lib, stream)
    assert stream.getvalue() == dumps_library(lib)
    stream.seek(0)
    assert load_library(stream) == lib


def test_fraction_strings_parse_exactly():
    lib = loads_library(
        '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": "7/2"}]}]}'
    )
    assert lib.episodes[0].cases[0].measure == F(7, 2)
    lib = loads_library(
        '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": 5}]}]}'
    )
    assert lib.episodes[0].cases[0].measure == F(5)


def test_nested_sub_episodes_load_and_dedup():
    doc = {
        "episodes": [
            {
                "name": "outer",
                "cases": [{"id": "shared", "t": 3}],
                "sub_episodes": [
                    {
                        "name": "inner",
                        "cases": [{"id": "shared", "t": 3}, {"id": "extra", "t": 7}],
                    }
                ],
            }
        ]
    }
    lib = loads_library(json.dumps(doc))
    assert lib.n == 2
    assert episode_efficiency(lib.episodes[0]) == 5


def test_syntax_errors_report_a_location():
    with pytest.raises(ParseError) as info:
        loads_library("{not json")
    assert "line 1" in str(info.value)


def test_schema_errors_name_the_field():
    with pytest.raises(SchemaError) as info:
        loads_library('{"episodes": [{"cases": []}]}')
    assert "name" in info.value.field
    with pytest.raises(SchemaError) as info:
        loads_library('{"chapters": []}')
    assert info.value.field == "chapters"
    with pytest.raises(SchemaError) as info:
        loads_library('{"episodes": [{"name": "g", "cases": [{"id": "x"}]}]}')
    assert "cases[0]" in info.value.field
    with pytest.raises(SchemaError) as info:
        loads_library(
            '{"episodes": [{"name": "g", "cases": '
            '[{"id": "x", "t": 3, "trajectory": ["R1"]}]}]}'
        )
    assert "cases[0]" in info.value.field
    for episode, field in [
        ('3', "episodes[0]"),
        ('{"name": "g", "size": 1}', "episodes[0].size"),
        ('{"name": "g", "cases": {}}', "episodes[0].cases"),
        ('{"name": "g", "sub_episodes": "h"}', "episodes[0].sub_episodes"),
        ('{"name": "g", "cases": [3]}', "episodes[0].cases[0]"),
        ('{"name": "g", "cases": [{"id": "x", "t": 3, "w": 1}]}',
         "episodes[0].cases[0].w"),
        ('{"name": "g", "cases": [{"id": "x", "trajectory": "R1 R2 R3 R4"}]}',
         "episodes[0].cases[0].trajectory"),
        ('{"name": "g", "cases": [{"id": "x", "trajectory": ["R1", 2]}]}',
         "episodes[0].cases[0].trajectory"),
        ('{"name": "g", "cases": [{"id": "x", "params": ["1/3"]}]}',
         "episodes[0].cases[0].params"),
        ('{"name": "g", "cases": [{"t": 3}]}', "episodes[0].cases[0].id"),
        ('{"name": "g", "cases": [{"id": "", "t": 3}]}', "episodes[0].cases[0].id"),
    ]:
        with pytest.raises(SchemaError) as info:
            loads_library(f'{{"episodes": [{episode}]}}')
        assert info.value.field == field


def test_schema_rejects_floats_and_garbage_rationals():
    with pytest.raises(SchemaError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": 3.5}]}]}'
        )
    with pytest.raises(SchemaError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": "three"}]}]}'
        )
    for source in ('"t": [3]', '"params": {"p31": 0, "p33": {}, "p34": 1}'):
        with pytest.raises(SchemaError, match="not an exact rational"):
            loads_library(
                f'{{"episodes": [{{"name": "g", "cases": [{{"id": "x", {source}}}]}}]}}'
            )


def test_schema_rejects_measures_below_the_bound():
    with pytest.raises(SchemaError) as info:
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": 2}]}]}'
        )
    assert ".t" in info.value.field


def test_schema_rejects_inconsistent_parameter_triples():
    with pytest.raises(SchemaError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "params": '
            '{"p31": "1/2", "p33": "1/2", "p34": "1/2"}}]}]}'
        )
    with pytest.raises(SchemaError):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "params": '
            '{"p31": "1/2", "p33": "1/2"}}]}]}'
        )


def test_invalid_trajectories_are_reported_as_such():
    with pytest.raises(InvalidTrajectory):
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "trajectory": '
            '["R1", "R3"]}]}]}'
        )
    with pytest.raises(InvalidTrajectory):
        # valid walk but censored: unusable as a case source
        loads_library(
            '{"episodes": [{"name": "g", "cases": [{"id": "x", "trajectory": '
            '["R1", "R2", "R3"]}]}]}'
        )


def test_conflicting_duplicate_ids_rejected():
    doc = {
        "episodes": [
            {"name": "a", "cases": [{"id": "x", "t": 3}]},
            {"name": "b", "cases": [{"id": "x", "t": 4}]},
        ]
    }
    with pytest.raises(DuplicateCaseId):
        loads_library(json.dumps(doc))


def test_identical_duplicate_ids_are_the_same_case():
    doc = {
        "episodes": [
            {"name": "a", "cases": [{"id": "x", "t": 4}]},
            {"name": "b", "cases": [{"id": "x", "t": 4}, {"id": "y", "t": 6}]},
        ]
    }
    lib = loads_library(json.dumps(doc))
    assert lib.n == 2
    assert flat_efficiency(lib) == 5
    # per-episode means still count the shared case inside each episode
    assert system_efficiency(lib) == F(9, 2)


def episode_of(*cases) -> str:
    return json.dumps({"episodes": [{"name": "g", "cases": list(cases)}]})


def test_cases_that_repeat_a_source_share_its_objects(monkeypatch):
    calls = []
    validate = library.validate_trajectory
    monkeypatch.setattr(
        library, "validate_trajectory", lambda raw: calls.append(raw) or validate(raw)
    )
    walk = ["R1", "R2", "R3", "R3", "R4"]
    thirds = {"p31": "1/3", "p33": "1/3", "p34": "1/3"}
    lib = loads_library(episode_of(
        {"id": "a", "t": "7/2"}, {"id": "b", "t": "7/2"},
        {"id": "c", "params": thirds}, {"id": "d", "params": dict(thirds)},
        {"id": "e", "trajectory": walk}, {"id": "f", "trajectory": list(walk)},
        {"id": "g", "trajectory": ["R1", "R2", "R3", "R4"]},
        {"id": "h", "params": {"p34": "1/3", "p33": "1/3", "p31": "1/3"}},
    ))
    a, b, c, d, e, f, g, h = lib.episodes[0].cases
    assert a.measure is b.measure == F(7, 2)
    assert c.params is d.params is h.params == THIRDS
    assert e.trajectory is f.trajectory is not g.trajectory
    assert calls == [tuple(walk), ("R1", "R2", "R3", "R4")]


@pytest.mark.reference
@given(case_libraries())
def test_a_load_shares_each_distinct_source_and_validates_it_once(lib):
    calls = []
    validate = library.validate_trajectory
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(library, "validate_trajectory", lambda raw: calls.append(raw) or validate(raw))
        loaded = loads_library(dumps_library(lib))
    assert loaded == lib
    first = {}
    for case in loaded.distinct_cases():
        source = case.measure or case.params or case.trajectory
        assert first.setdefault(source, source) is source
    trajectories = [c.trajectory.phases for c in lib.distinct_cases() if c.trajectory]
    assert calls == list(dict.fromkeys(trajectories))


def test_equal_values_of_different_types_are_judged_apart():
    # 3.0 == 3 and False == 0, so a memo keyed by value alone would take the
    # float and the booleans for the rationals before them.
    for first, second, field in [
        ({"t": 3}, {"t": 3.0}, "t"),
        ({"params": {"p31": 0, "p33": 0, "p34": 1}},
         {"params": {"p31": False, "p33": False, "p34": True}}, "params"),
    ]:
        with pytest.raises(SchemaError) as info:
            loads_library(episode_of({"id": "x", **first}, {"id": "y", **second}))
        assert info.value.field == f"episodes[0].cases[1].{field}"


def test_a_fault_repeated_at_two_cases_is_named_at_the_first():
    for source, error, field in [
        ({"t": "7/0"}, SchemaError, "t"),
        ({"t": 2}, SchemaError, "t"),
        ({"params": {"p31": "1/2", "p33": "1/2", "p34": "1/2"}}, SchemaError, "params"),
        ({"trajectory": ["R1", "R3"]}, InvalidTrajectory, "trajectory"),
        ({"trajectory": ["R1", "R2", "R3"]}, InvalidTrajectory, "trajectory"),
    ]:
        messages = []
        for repeats in ([], [{"id": "y", **source}]):
            with pytest.raises(error) as info:
                loads_library(episode_of({"id": "ok", "t": 3}, {"id": "x", **source}, *repeats))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"episodes[0].cases[1].{field}: ")


def test_library_to_dict_uses_fraction_strings():
    lib = CaseLibrary((three_case_episode(),))
    doc = library_to_dict(lib)
    case_docs = doc["episodes"][0]["cases"]
    assert case_docs[0] == {"id": "c1", "t": "3"}
    assert case_docs[1]["params"] == {"p31": "1/3", "p33": "1/3", "p34": "1/3"}
    assert case_docs[2]["trajectory"][-1] == "R4"


def test_case_measures_are_derived_lazily_and_once(monkeypatch):
    from cbrchain import library

    calls = []
    monkeypatch.setattr(
        library, "mean_phases", lambda p: calls.append(p) or mean_phases(p)
    )
    doc = {
        "episodes": [
            {
                "name": "g",
                "cases": [
                    {"id": "ok", "params": {"p31": "1/3", "p33": "1/3", "p34": "1/3"}},
                    {"id": "stuck", "params": {"p31": "1/2", "p33": "1/2", "p34": "0"}},
                ],
            }
        ]
    }
    ok, stuck = loads_library(json.dumps(doc)).distinct_cases()
    assert calls == []
    assert [case_measure(ok) for _ in range(3)] == [7, 7, 7]
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(NonAbsorbing):
            case_measure(stuck)


# --- the one-pass fold ----------------------------------------------------------------

def outcome(f, *args):
    """What ``f(*args)`` returns, or the class and message of what it raises."""
    try:
        return f(*args)
    except CbrChainError as exc:
        return type(exc), str(exc)


@pytest.mark.reference
@given(case_libraries())
def test_every_efficiency_agrees_with_the_reference(lib):
    for ours, reference in (
        (flat_efficiency, reference_flat_efficiency),
        (system_efficiency, reference_system_efficiency),
        (efficiency_trend, reference_efficiency_trend),
    ):
        assert outcome(ours, lib) == outcome(reference, lib)
    for g in lib.episodes:
        assert outcome(episode_efficiency, g) == outcome(reference_episode_efficiency, g)
    # the dedup: the first record of each id, by identity, in document order
    every_case = (c for g in lib.episodes for c in g.all_cases())
    pairs = [(lib.distinct_cases(), _reference_distinct(every_case))]
    for g in lib.episodes:
        pairs.append((episode_cases(g), _reference_distinct(g.all_cases())))
    for ours, reference in pairs:
        assert [c.id for c in ours] == [c.id for c in reference]
        assert all(a is b for a, b in zip(ours, reference))
    try:
        report = efficiency_report(lib)
    except CbrChainError:
        return
    assert len(report.cases) == lib.n


def test_errors_keep_their_order_when_a_library_has_two_faults():
    stuck = CaseRecord.from_parameters("stuck", CbrParameters(F(1, 2), F(1, 2), F(0)))
    lib = CaseLibrary((GeneralizedEpisode("empty"), GeneralizedEpisode("g", (stuck,))))
    # each episode is checked before the next one's cases are measured
    with pytest.raises(EmptyEpisode):
        system_efficiency(lib)
    # every case is measured before any episode is checked
    for f in (flat_efficiency, efficiency_report):
        with pytest.raises(NonAbsorbing):
            f(lib)


@pytest.mark.reference
@given(case_libraries())
def test_the_report_measures_each_distinct_case_once(lib):
    calls = []
    measure = library.case_measure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(library, "case_measure", lambda c: calls.append(c.id) or measure(c))
        try:
            report = efficiency_report(lib)
        except CbrChainError:
            return
    assert calls == list(report.cases)
    assert list(report.cases) == [c.id for c in lib.distinct_cases()]


@given(walks(absorbed=True))
def test_a_walk_measure_is_the_closed_form_of_its_own_estimate(labels):
    t = Trajectory(tuple(labels))
    expected = mean_phases(estimate_parameters([t]).params)
    assert case_measure(CaseRecord.from_trajectory("c", t)) == expected
