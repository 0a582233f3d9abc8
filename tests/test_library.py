"""Tests for case-library efficiency and the document format."""

import io
import json
from fractions import Fraction
from pathlib import PurePosixPath

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cbrchain import (
    CaseLibrary,
    Trajectory,
    estimate_parameters,
    CaseRecord,
    CbrParameters,
    EfficiencyReport,
    GeneralizedEpisode,
    case_measure,
    dumps_library,
    efficiency_report,
    efficiency_trend,
    library_to_dict,
    load_library,
    loads_library,
    mean_phases,
    save_library,
    validate_trajectory,
)
from cbrchain import CbrChainError, library
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
    reference_library_efficiency,
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
            CaseRecord("c1", measure=3),
            CaseRecord("c2", params=THIRDS),
            CaseRecord("c3", trajectory=ONE_RETURN_TWO_STAYS),
        ),
    )


# --- case records and measures -------------------------------------------------

def test_case_measure_for_each_source_kind():
    assert case_measure(CaseRecord("a", measure=3)) == 3
    assert case_measure(CaseRecord("b", params=THIRDS)) == 7
    assert case_measure(CaseRecord("c", trajectory=ONE_RETURN_TWO_STAYS)) == 8


def test_direct_measures_below_the_bound_are_rejected():
    with pytest.raises(MeasureBelowBound):
        CaseRecord("bad", measure=F(5, 2))


def test_trajectory_source_must_be_absorbed():
    with pytest.raises(NotAbsorbed):
        CaseRecord("bad", trajectory=validate_trajectory(["R1", "R2", "R3"]))


def test_exactly_one_source_required():
    with pytest.raises(ValueError):
        CaseRecord("both", measure=F(3), params=THIRDS)
    with pytest.raises(ValueError):
        CaseRecord("none")


def test_non_absorbing_parameter_case_has_no_measure():
    record = CaseRecord("stuck", params=CbrParameters(F(1, 2), F(1, 2), F(0)))
    with pytest.raises(NonAbsorbing):
        case_measure(record)


def test_a_source_of_the_wrong_type_is_a_schema_error():
    for source, message in [
        ({"trajectory": ["R1", "R2", "R3", "R4"]}, "trajectory must be a Trajectory, not list"),
        ({"params": (F(1, 3), F(1, 3), F(1, 3))}, "params must be a CbrParameters, not tuple"),
    ]:
        with pytest.raises(SchemaError) as info:
            CaseRecord("c", **source)
        assert str(info.value) == f"case 'c': {message}"



def test_a_container_of_the_wrong_type_is_a_schema_error():
    for build, message in [
        (lambda: CaseLibrary((GeneralizedEpisode("g", cases=(3,)),)),
         "episode 'g': cases[0] must be a CaseRecord, not int"),
        (lambda: GeneralizedEpisode("g", sub_episodes=("h",)),
         "episode 'g': sub_episodes[0] must be a GeneralizedEpisode, not str"),
        (lambda: CaseLibrary((three_case_episode(), "g")),
         "library: episodes[1] must be a GeneralizedEpisode, not str"),
        (lambda: CaseRecord(3, measure=4), "case: id must be a non-empty str, not int"),
        (lambda: CaseRecord("", measure=4), "case: id must be a non-empty str, not ''"),
        (lambda: GeneralizedEpisode(3), "episode: name must be a non-empty str, not int"),
        (lambda: GeneralizedEpisode(""), "episode: name must be a non-empty str, not ''"),
    ]:
        with pytest.raises(SchemaError) as info:
            build()
        assert str(info.value) == message


def test_an_id_repeated_with_a_different_record_is_a_duplicate():
    x3, x4 = CaseRecord("x", measure=3), CaseRecord("x", measure=4)
    for episodes in [
        (GeneralizedEpisode("g", cases=(x3, x4)),),
        (GeneralizedEpisode("g", cases=(x3,)), GeneralizedEpisode("h", cases=(x4,))),
        (GeneralizedEpisode("g", cases=(x3,), sub_episodes=(GeneralizedEpisode("h", (x4,)),)),),
    ]:
        with pytest.raises(DuplicateCaseId, match="'x'"):
            CaseLibrary(episodes)
    # an equal record under a repeated id is the same case, the first kept
    lib = CaseLibrary((GeneralizedEpisode("g", (x3, CaseRecord("x", measure=3))),))
    assert list(lib.cases) == ["x"]
    assert lib.cases["x"] is x3


# --- efficiencies -----------------------------------------------------------------

def report_of(*episodes: GeneralizedEpisode) -> EfficiencyReport:
    return efficiency_report(CaseLibrary(episodes))


def test_episode_efficiency_of_the_three_case_group():
    assert report_of(three_case_episode()).system == 6


def test_single_case_episode_efficiency_is_its_measure():
    g = GeneralizedEpisode("solo", cases=(CaseRecord("x", measure=5),))
    assert report_of(g).system == 5


def test_shared_case_between_episode_and_sub_episode_counts_once():
    shared = CaseRecord("shared", measure=3)
    other = CaseRecord("other", measure=7)
    g = GeneralizedEpisode(
        "complex",
        cases=(shared,),
        sub_episodes=(GeneralizedEpisode("specific", cases=(shared, other)),),
    )
    assert report_of(g).episodes == (("complex", 5, {"shared": 3, "other": 7}),)


def test_empty_episode_has_no_efficiency():
    with pytest.raises(EmptyEpisode, match="^episode 'empty' contains no cases$"):
        report_of(three_case_episode(), GeneralizedEpisode("empty"))


def test_system_efficiency_examples():
    assert report_of(three_case_episode()).system == 6

    def episode_with(name, value):
        return GeneralizedEpisode(
            name, cases=(CaseRecord(f"{name}-case", measure=value),)
        )

    assert report_of(episode_with("a", 6), episode_with("b", 4)).system == 5
    three = report_of(episode_with("a", 6), episode_with("b", 3), episode_with("c", 3))
    assert three.system == 4


def test_flat_efficiency_examples():
    assert report_of(three_case_episode()).flat == 6
    all_easy = GeneralizedEpisode(
        "easy", cases=tuple(CaseRecord(f"e{i}", measure=3) for i in range(4))
    )
    assert report_of(all_easy).flat == 3
    pair = GeneralizedEpisode(
        "pair", cases=(CaseRecord("a", measure=3), CaseRecord("b", measure=7))
    )
    assert report_of(pair).flat == 5


def test_empty_library_has_no_efficiency():
    for episodes in ((), (GeneralizedEpisode("hollow"),)):
        with pytest.raises(EmptyLibrary, match="^library contains no cases$"):
            report_of(*episodes)


def test_efficiency_is_order_invariant():
    g = three_case_episode()
    reordered = GeneralizedEpisode(g.name, cases=g.cases[::-1])
    assert report_of(g).system == report_of(reordered).system
    assert report_of(g).flat == report_of(reordered).flat


def single_episode(values) -> EfficiencyReport:
    cases = tuple(CaseRecord(f"c{i}", measure=v) for i, v in enumerate(values))
    return report_of(GeneralizedEpisode("g", cases=cases))


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_constant_measures_make_every_metric_equal(values):
    constant = values[0]
    report = single_episode([constant] * len(values))
    assert report.flat == constant
    assert report.system == constant


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_every_efficiency_respects_the_floor(values):
    report = single_episode(values)
    assert report.flat >= 3
    assert report.system >= 3


@given(st.lists(st.integers(min_value=3, max_value=40), min_size=1, max_size=8))
def test_single_episode_system_equals_flat(values):
    report = single_episode(values)
    assert report.system == report.flat


@given(
    st.lists(st.integers(min_value=4, max_value=40), min_size=1, max_size=8),
    st.integers(min_value=3, max_value=40),
)
def test_adding_an_easier_case_strictly_lowers_flat_efficiency(values, new):
    before = single_episode(values).flat
    if F(new) >= before:
        return
    assert single_episode(values + [new]).flat < before


def test_efficiency_trend_reports_the_running_mean():
    lib = CaseLibrary((three_case_episode(),))
    trend = efficiency_trend(lib)
    assert trend == [("c1", F(3)), ("c2", F(5)), ("c3", F(6))]


# --- document format ---------------------------------------------------------------

def test_fixture_library_reproduces_the_worked_efficiency(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    assert len(lib.cases) == 3
    report = efficiency_report(lib)
    assert report.episodes[0][1] == 6
    assert report.flat == 6
    assert report.system == 6


def test_round_trip_preserves_every_value(fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    assert loads_library(dumps_library(lib)) == lib


def test_a_library_is_written_as_json_indented_by_two():
    lib = loads_library(
        '{"episodes": [{"name": "g", "cases": [{"id": "x", "t": "7/2"}], '
        '"sub_episodes": [{"name": "h", "cases": [{"id": "y", "trajectory": '
        '["R1", "R2", "R3", "R4"]}, {"id": "z", "params": '
        '{"p31": "1/3", "p33": "1/3", "p34": "1/3"}}]}]}]}'
    )
    assert dumps_library(lib) == """\
{
  "episodes": [
    {
      "name": "g",
      "cases": [
        {
          "id": "x",
          "t": "7/2"
        }
      ],
      "sub_episodes": [
        {
          "name": "h",
          "cases": [
            {
              "id": "y",
              "trajectory": [
                "R1",
                "R2",
                "R3",
                "R4"
              ]
            },
            {
              "id": "z",
              "params": {
                "p31": "1/3",
                "p33": "1/3",
                "p34": "1/3"
              }
            }
          ],
          "sub_episodes": []
        }
      ]
    }
  ]
}
"""


def test_round_trip_through_a_file(tmp_path, fixtures_dir):
    lib = load_library(fixtures_dir / "ge_example.json")
    path = tmp_path / "out.json"
    save_library(lib, path)
    assert load_library(path) == lib
    save_library(lib, PurePosixPath(path))  # any os.PathLike
    assert load_library(PurePosixPath(path)) == lib


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
    assert len(lib.cases) == 2
    assert efficiency_report(lib).episodes[0][1] == 5


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
    for document in ("{}", '{"episodes": 3}', '{"episodes": {}}'):
        with pytest.raises(SchemaError) as info:
            loads_library(document)
        assert info.value.field == "episodes"
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
        ('{"name": 3, "cases": []}', "episodes[0].name"),
        ('{"name": "", "cases": []}', "episodes[0].name"),
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


def test_a_fault_after_a_conflicting_duplicate_is_reported_first():
    # every case is read before the library judges repeated ids
    doc = episode_of({"id": "x", "t": 3}, {"id": "x", "t": 4}, {"id": "y", "t": 2})
    with pytest.raises(SchemaError) as info:
        loads_library(doc)
    assert info.value.field == "episodes[0].cases[2].t"


def test_identical_duplicate_ids_are_the_same_case():
    doc = {
        "episodes": [
            {"name": "a", "cases": [{"id": "x", "t": 4}]},
            {"name": "b", "cases": [{"id": "x", "t": 4}, {"id": "y", "t": 6}]},
        ]
    }
    lib = loads_library(json.dumps(doc))
    assert len(lib.cases) == 2
    report = efficiency_report(lib)
    assert report.flat == 5
    # per-episode means still count the shared case inside each episode
    assert report.system == F(9, 2)


def test_an_id_repeated_in_a_document_is_measured_once(monkeypatch):
    calls = []
    measure = library.case_measure
    monkeypatch.setattr(library, "case_measure", lambda c: calls.append(c.id) or measure(c))
    thirds = {"id": "p", "params": {"p31": "1/3", "p33": "1/3", "p34": "1/3"}}
    walk = {"id": "w", "trajectory": ["R1", "R2", "R3", "R4"]}
    lib = loads_library(json.dumps({"episodes": [
        {"name": "a", "cases": [{"id": "x", "t": 4}, thirds],
         "sub_episodes": [{"name": "b", "cases": [{"id": "x", "t": "4"}, walk]}]},
        {"name": "c", "cases": [walk, thirds]},
    ]}))
    efficiency_report(lib)
    assert calls == ["x", "p", "w"]
    repeats = [c for g in lib.episodes for c in g.all_cases()]
    assert len(repeats) == 6
    assert all(c == lib.cases[c.id] for c in repeats)


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
    for case in loaded.cases.values():
        source = case.measure or case.params or case.trajectory
        assert first.setdefault(source, source) is source
    trajectories = [c.trajectory.phases for c in lib.cases.values() if c.trajectory]
    assert calls == list(dict.fromkeys(trajectories))


@pytest.mark.reference
@given(case_libraries())
def test_a_round_trip_keeps_the_distinct_cases(lib):
    loaded = loads_library(dumps_library(lib))
    assert list(loaded.cases) == list(lib.cases)
    assert list(loaded.cases.values()) == list(lib.cases.values())


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
    ok, stuck = loads_library(json.dumps(doc)).cases.values()
    assert calls == []
    assert [case_measure(ok) for _ in range(3)] == [7, 7, 7]
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(NonAbsorbing):
            case_measure(stuck)


def test_a_measured_record_keeps_only_its_fields():
    for record, expected in [
        (CaseRecord("t", measure=F(7, 2)), F(7, 2)),
        (CaseRecord("p", params=THIRDS), 7),
        (CaseRecord("w", trajectory=ONE_RETURN_TWO_STAYS), 8),
    ]:
        assert [case_measure(record), case_measure(record)] == [expected, expected]
        assert set(vars(record)) == {"id", "measure", "trajectory", "params"}


def test_cases_that_share_a_triple_take_its_mean_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        library, "mean_phases", lambda p: calls.append(p) or mean_phases(p)
    )
    params = {"p31": "1/3", "p33": "1/3", "p34": "1/3"}
    cases = [{"id": "a", "params": params}, {"id": "b", "params": dict(params)}]
    lib = loads_library(json.dumps({"episodes": [{"name": "g", "cases": cases}]}))
    a, b = lib.cases.values()
    assert a.params is b.params
    assert efficiency_report(lib).flat == 7
    assert [case_measure(a), case_measure(b)] == [7, 7]
    assert len(calls) == 1
    # A triple built twice in code is two objects, each measured once.
    calls.clear()
    one, other = CbrParameters(*[Fraction(1, 3)] * 3), CbrParameters(*[Fraction(1, 3)] * 3)
    records = [CaseRecord(i, params=p) for i, p in zip("abcd", (one, one, other, other))]
    assert [case_measure(r) for r in records] == [7] * 4
    assert [p is one for p in calls] == [True, False]


# --- the one-pass fold ----------------------------------------------------------------

def outcome(f, *args):
    """What ``f(*args)`` returns, or the class and message of what it raises."""
    try:
        return f(*args)
    except CbrChainError as exc:
        return type(exc), str(exc)


def report_payload(lib) -> dict:
    """The report in the form of ``reference_library_efficiency``."""
    report = efficiency_report(lib)
    return {
        "command": "library-efficiency",
        "n": len(lib.cases),
        "flat_efficiency": report.flat,
        "system_efficiency": report.system,
        "episodes": [
            {"name": name, "efficiency": efficiency, "cases": measures}
            for name, efficiency, measures in report.episodes
        ],
    }


@pytest.mark.reference
@given(case_libraries())
def test_every_efficiency_agrees_with_the_reference(lib):
    assert outcome(report_payload, lib) == outcome(reference_library_efficiency, lib)
    assert outcome(efficiency_trend, lib) == outcome(reference_efficiency_trend, lib)
    # the dedup: the first record of each id, by identity, in document order
    every_case = (c for g in lib.episodes for c in g.all_cases())
    reference = _reference_distinct(every_case)
    assert list(lib.cases) == [c.id for c in reference]
    assert all(a is b for a, b in zip(lib.cases.values(), reference))
    try:
        report = efficiency_report(lib)
    except CbrChainError:
        return
    for g, (_, _, measures) in zip(lib.episodes, report.episodes):
        assert list(measures) == [c.id for c in _reference_distinct(g.all_cases())]


def test_errors_keep_their_order_when_a_library_has_two_faults():
    stuck = CaseRecord("stuck", params=CbrParameters(F(1, 2), F(1, 2), F(0)))
    lib = CaseLibrary((GeneralizedEpisode("empty"), GeneralizedEpisode("g", (stuck,))))
    # every case is measured before any episode is checked
    with pytest.raises(NonAbsorbing):
        efficiency_report(lib)


@pytest.mark.reference
@given(case_libraries())
def test_the_report_measures_each_distinct_case_once(lib):
    calls = []
    measure = library.case_measure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(library, "case_measure", lambda c: calls.append(c.id) or measure(c))
        try:
            efficiency_report(lib)
        except CbrChainError:
            return
    assert calls == list(lib.cases)


@given(walks(absorbed=True))
def test_a_walk_measure_is_the_closed_form_of_its_own_estimate(labels):
    t = Trajectory(tuple(labels))
    expected = mean_phases(estimate_parameters([t]))
    assert case_measure(CaseRecord("c", trajectory=t)) == expected
