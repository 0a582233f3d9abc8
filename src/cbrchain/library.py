"""Case library efficiency over generalized-episode hierarchies.

A library stores past cases grouped into generalized episodes (GEs), which
may nest. Each case carries a completion measure t_i >= 3, stored directly,
derived from chain parameters, or estimated from a single observed
trajectory (per-case maximum likelihood, then the closed form). Efficiency
is a mean of measures: lower is better, with 3 the straightforward-solution
floor.

A library is built with one walk over its episode trees, which keeps its
distinct cases by id in ``CaseLibrary.cases``: the first occurrence of
each, in document order. ``efficiency_report`` measures each of them once
and gives every efficiency of the library. Two system-level metrics are
reported because they genuinely differ when episodes have unequal sizes:

* ``flat``: mean over all distinct cases, ignoring structure;
* ``system``: unweighted mean of the top-level GE efficiencies.

The on-disk document format is JSON; see ``load_library`` for the schema.
A load builds each distinct ``t``, parameter triple and trajectory once, in
caches of its own keyed by each raw value's type and value, and the cases
that repeat one share its object, and so a triple's ``t``. The loader
reads every case, and then ``CaseLibrary`` alone judges repeated ids, as
it does for a library built in code: each record of a repeated id is kept
in its episode, equal to the first, and a different record raises
DuplicateCaseId.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate

from .cbr import (
    CbrParameters,
    Trajectory,
    _r3_exits,
    _read_text,
    mean_phases,
    validate_trajectory,
)
from .errors import (
    CbrChainError,
    DuplicateCaseId,
    EmptyEpisode,
    EmptyLibrary,
    InvalidTrajectory,
    MeasureBelowBound,
    NotAbsorbed,
    ParseError,
    SchemaError,
)
from .rationals import coerce_rational, format_rational, over_common_denominator

MIN_MEASURE = Fraction(3)


@dataclass(frozen=True)
class CaseRecord:
    """A stored case with exactly one source for its completion measure.

    ``measure`` is a direct t value (must be >= 3), ``params`` derives the
    measure from the chain's closed form, and ``trajectory`` derives it from
    one observed absorbed walk; a source of another type is a SchemaError.
    The measure is derived on first use and kept, so a case that cannot be
    measured still loads; cases that share one ``params`` object, as the
    cases of a load that repeat a triple do, derive it once.
    """

    id: str
    measure: Fraction | None = None
    trajectory: Trajectory | None = None
    params: CbrParameters | None = None

    def __post_init__(self):
        _require_name("case", "id", self.id)
        sources = [
            s for s in (self.measure, self.trajectory, self.params) if s is not None
        ]
        if len(sources) != 1:
            raise SchemaError(
                f"case {self.id!r}",
                "exactly one of measure, trajectory, or params is required "
                f"({len(sources)} given)",
            )
        if self.measure is not None:
            value = coerce_rational(self.measure)
            object.__setattr__(self, "measure", value)
            if value < MIN_MEASURE:
                raise MeasureBelowBound(self.id, value)
            return
        name = "params" if self.trajectory is None else "trajectory"
        kind = CbrParameters if self.trajectory is None else Trajectory
        source = getattr(self, name)
        if not isinstance(source, kind):
            raise SchemaError(
                f"case {self.id!r}",
                f"{name} must be a {kind.__name__}, not {type(source).__name__}",
            )
        if kind is Trajectory and not source.is_absorbed:
            raise NotAbsorbed(f"case {self.id!r}: trajectory never reaches R4")

    @cached_property
    def _completion_measure(self) -> Fraction:
        """The case's completion measure t_i, per its source."""
        if self.measure is not None:
            return self.measure
        if self.params is not None:
            return _params_measure(self.params)
        # mean_phases of the walk's own estimate, (3 - 2*p33) / p34, with
        # the exit counts' total cancelled out.
        phases = self.trajectory.phases
        to_r1, to_r3, to_r4 = _r3_exits(phases, phases[-1])
        return Fraction(3 * (to_r1 + to_r3 + to_r4) - 2 * to_r3, to_r4)


def _params_measure(params: CbrParameters) -> Fraction:
    """``mean_phases(params)``, kept on the ``params`` object itself, as a
    cached property keeps its value: the cases that share the object take
    one quotient, and the value goes when the object does."""
    kept = vars(params)
    if "_mean_phases" not in kept:
        kept["_mean_phases"] = mean_phases(params)
    return kept["_mean_phases"]


@dataclass(frozen=True)
class GeneralizedEpisode:
    """A named group of cases, possibly containing sub-episodes.

    ``name`` must be a non-empty str, as a case's id must.
    """

    name: str
    cases: tuple[CaseRecord, ...] = ()
    sub_episodes: tuple["GeneralizedEpisode", ...] = ()

    def __post_init__(self):
        _require_name("episode", "name", self.name)
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "sub_episodes", tuple(self.sub_episodes))
        where = f"episode {self.name!r}"
        _require_all(where, "cases", self.cases, CaseRecord)
        _require_all(where, "sub_episodes", self.sub_episodes, GeneralizedEpisode)

    def all_cases(self):
        """Own cases, then descendants', in document order (with repeats)."""
        yield from self.cases
        for sub in self.sub_episodes:
            yield from sub.all_cases()


@dataclass(frozen=True)
class CaseLibrary:
    """Top-level collection of generalized episodes.

    ``cases`` maps the id of each distinct case to its first occurrence, in
    document order; a case shared between an episode and its sub-episodes
    counts once. An id that repeats with a different record raises
    DuplicateCaseId; this is the one check of repeated ids, for a loaded
    document too.
    """

    episodes: tuple[GeneralizedEpisode, ...] = ()
    cases: dict[str, CaseRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "episodes", tuple(self.episodes))
        _require_all("library", "episodes", self.episodes, GeneralizedEpisode)
        cases: dict[str, CaseRecord] = {}
        for g in self.episodes:
            for c in g.all_cases():
                first = cases.setdefault(c.id, c)
                if first is not c and first != c:
                    raise DuplicateCaseId(c.id)
        object.__setattr__(self, "cases", cases)


def _require_name(where: str, name: str, value) -> None:
    """Raise SchemaError unless ``value`` is a non-empty ``str``."""
    if not isinstance(value, str) or not value:
        got = repr(value) if isinstance(value, str) else type(value).__name__
        raise SchemaError(where, f"{name} must be a non-empty str, not {got}")


def _require_all(where: str, name: str, items: tuple, kind: type) -> None:
    """Raise SchemaError at the first of ``items`` that is not a ``kind``."""
    for i, item in enumerate(items):
        if not isinstance(item, kind):
            raise SchemaError(
                where, f"{name}[{i}] must be a {kind.__name__}, not {type(item).__name__}"
            )


def case_measure(c: CaseRecord) -> Fraction:
    """The case's completion measure t_i, per its source."""
    return c._completion_measure


def _mean(values, empty: type[CbrChainError], message: str) -> Fraction:
    numerators, lcd = over_common_denominator(values)
    if not numerators:
        raise empty(message)
    return Fraction(sum(numerators), lcd * len(numerators))


@dataclass(frozen=True)
class EfficiencyReport:
    """Every efficiency of a library, from one measure of each distinct case.

    ``episodes`` holds each top-level episode's name, efficiency and
    distinct cases' measures by id; the cases themselves are the library's
    ``cases``.
    """

    flat: Fraction
    system: Fraction
    episodes: tuple[tuple[str, Fraction, dict[str, Fraction]], ...]


def efficiency_report(lib: CaseLibrary) -> EfficiencyReport:
    """Flat, system and per-episode efficiency, measuring each of
    ``lib.cases`` once.

    The cases are measured in document order, so a case that cannot be
    measured raises first; then a library with no cases raises
    EmptyLibrary, and then the first top-level episode with no cases raises
    EmptyEpisode.
    """
    measures = {i: case_measure(c) for i, c in lib.cases.items()}
    owned = [(g.name, {c.id: measures[c.id] for c in g.all_cases()}) for g in lib.episodes]
    flat = _mean(measures.values(), EmptyLibrary, "library contains no cases")
    episodes = tuple(
        (name, _mean(own.values(), EmptyEpisode, f"episode {name!r} contains no cases"), own)
        for name, own in owned
    )
    system = _mean([e for _, e, _ in episodes], EmptyLibrary, "library contains no episodes")
    return EfficiencyReport(flat, system, episodes)


def efficiency_trend(lib: CaseLibrary) -> list[tuple[str, Fraction]]:
    """Running flat efficiency after each stored case, in document order.

    A growing library whose new cases solve more easily shows this trend
    drifting down toward the floor of 3; the trend is reported, never
    asserted, because it depends on the future case stream.
    """
    measures = {i: case_measure(c) for i, c in lib.cases.items()}
    numerators, lcd = over_common_denominator(measures.values())
    totals = accumulate(numerators)
    return [
        (case_id, Fraction(total, lcd * k))
        for k, (case_id, total) in enumerate(zip(measures, totals), start=1)
    ]


# --- document format ---------------------------------------------------------
#
# {"episodes": [episode, ...]}
# episode: {"name": str, "cases": [case, ...], "sub_episodes": [episode, ...]}
#   ("cases" and "sub_episodes" may be omitted)
# case: {"id": str} plus exactly one of
#   "t": rational string or integer
#   "trajectory": list of step labels
#   "params": {"p31": rational, "p33": rational, "p34": rational}
# Rational strings: optional sign, integer, optionally "/" and a positive
# integer, e.g. "7" or "1/3".

_EPISODE_KEYS = {"name", "cases", "sub_episodes"}
_CASE_SOURCE_KEYS = {"t", "trajectory", "params"}
_PARAM_KEYS = ("p31", "p33", "p34")
_TOO_DEEP = "document is nested deeper than the interpreter's recursion limit"


def load_library(source) -> CaseLibrary:
    """Load and fully validate a library document from a path or stream."""
    return loads_library(_read_text(source))


def loads_library(text: str) -> CaseLibrary:
    """Parse and fully validate a library document.

    Besides malformed JSON, two limits of the interpreter raise ParseError:
    an integer literal with more digits than it converts from text, and
    nesting deeper than its recursion limit.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from exc
    except ValueError as exc:  # the interpreter's int/str digit limit
        raise ParseError("$", str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("$", _TOO_DEEP) from exc
    # The episode reader recurses per nesting level too, and a document the
    # JSON decoder accepted can still exhaust the Python frames left to it.
    try:
        return library_from_dict(doc)
    except RecursionError as exc:
        raise ParseError("$", _TOO_DEEP) from exc


def library_from_dict(doc) -> CaseLibrary:
    if not isinstance(doc, dict):
        raise SchemaError("$", "document root must be an object")
    unknown = set(doc) - {"episodes"}
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown top-level key")
    episodes_raw = doc.get("episodes")
    if not isinstance(episodes_raw, list):
        raise SchemaError("episodes", "required and must be a list")
    # Each distinct t, parameter triple and trajectory of this load, built
    # and validated once and shared by every case that repeats it. The
    # trajectory builder looks validate_trajectory up at each call, so that
    # a wrapper or patch of that name sees every validation.
    rational = _per_load(coerce_rational)
    builders = (
        rational,
        _per_load(lambda *raw: CbrParameters(*map(rational, raw))),
        _per_load(lambda labels: validate_trajectory(labels)),
    )
    episodes = tuple(
        _episode_from_dict(e, f"episodes[{i}]", builders)
        for i, e in enumerate(episodes_raw)
    )
    return CaseLibrary(episodes)


def _per_load(build):
    """``build``, with each result kept by the type and value of each
    argument, so that 1, true and 1.0, which compare equal, stay apart.

    Only what built without error is kept, so an error is raised again at
    each case that has it. An unhashable argument goes to ``build`` uncached,
    which names it.
    """
    cached = lru_cache(maxsize=None, typed=True)(build)

    def call(*args):
        try:
            return cached(*args)
        except TypeError:  # unhashable, so no source: let build say so
            return build(*args)

    return call


def _episode_from_dict(raw, path: str, builders: tuple) -> GeneralizedEpisode:
    if not isinstance(raw, dict):
        raise SchemaError(path, "episode must be an object")
    unknown = set(raw) - _EPISODE_KEYS
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown episode key")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{path}.name", "required and must be a non-empty string")
    cases_raw = raw.get("cases", [])
    subs_raw = raw.get("sub_episodes", [])
    if not isinstance(cases_raw, list):
        raise SchemaError(f"{path}.cases", "must be a list")
    if not isinstance(subs_raw, list):
        raise SchemaError(f"{path}.sub_episodes", "must be a list")
    cases = tuple(
        _case_from_dict(c, f"{path}.cases[{i}]", builders)
        for i, c in enumerate(cases_raw)
    )
    subs = tuple(
        _episode_from_dict(s, f"{path}.sub_episodes[{i}]", builders)
        for i, s in enumerate(subs_raw)
    )
    return GeneralizedEpisode(name, cases, subs)


def _case_from_dict(raw, path: str, builders: tuple) -> CaseRecord:
    if not isinstance(raw, dict):
        raise SchemaError(path, "case must be an object")
    case_id = raw.get("id")
    if not isinstance(case_id, str) or not case_id:
        raise SchemaError(f"{path}.id", "required and must be a non-empty string")
    unknown = set(raw) - _CASE_SOURCE_KEYS - {"id"}
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown case key")
    sources = _CASE_SOURCE_KEYS & set(raw)
    if len(sources) != 1:
        raise SchemaError(
            path, f"exactly one of t, trajectory, or params is required "
            f"({len(sources)} given)"
        )
    (source,) = sources
    value = raw[source]
    if source == "trajectory" and not (
        isinstance(value, list) and all(isinstance(s, str) for s in value)
    ):
        raise SchemaError(f"{path}.trajectory", "must be a list of step labels")
    if source == "params" and not isinstance(value, dict):
        raise SchemaError(f"{path}.params", "must be an object")
    if source == "params" and set(value) != set(_PARAM_KEYS):
        raise SchemaError(f"{path}.params", "must contain exactly p31, p33, and p34")
    rational, parameters, trajectory = builders
    try:
        if source == "t":
            return CaseRecord(case_id, measure=rational(value))
        if source == "trajectory":
            return CaseRecord(case_id, trajectory=trajectory(tuple(value)))
        return CaseRecord(case_id, params=parameters(*(value[k] for k in _PARAM_KEYS)))
    except CbrChainError as exc:
        error = InvalidTrajectory if source == "trajectory" else SchemaError
        raise error(f"{path}.{source}", str(exc)) from exc


def library_to_dict(lib: CaseLibrary) -> dict:
    return {"episodes": [_episode_to_dict(g) for g in lib.episodes]}


def _episode_to_dict(g: GeneralizedEpisode) -> dict:
    return {
        "name": g.name,
        "cases": [_case_to_dict(c) for c in g.cases],
        "sub_episodes": [_episode_to_dict(s) for s in g.sub_episodes],
    }


def _case_to_dict(c: CaseRecord) -> dict:
    if c.measure is not None:
        return {"id": c.id, "t": format_rational(c.measure)}
    if c.trajectory is not None:
        return {"id": c.id, "trajectory": list(c.trajectory.phases)}
    params = {k: format_rational(getattr(c.params, k)) for k in _PARAM_KEYS}
    return {"id": c.id, "params": params}


def dumps_library(lib: CaseLibrary) -> str:
    return json.dumps(library_to_dict(lib), indent=2) + "\n"


def save_library(lib: CaseLibrary, dest) -> None:
    text = dumps_library(lib)
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        dest.write(text)
