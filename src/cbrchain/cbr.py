"""The four-state Retrieve/Reuse/Revise/Retain process chain.

The process moves R1 -> R2 -> R3 and from R3 either returns to R1 (failed
solution, re-retrieve), stays at R3 (revise again), or moves to R4 (retain)
and stops. R4 is the unique absorbing state. The whole model is parameterized
by the three exit probabilities from R3, which must sum to exactly 1.

Two step-counting conventions coexist and are both exposed:

* ``mean_phases`` (t) counts phases before absorption, with closed form
  (3 - 2*p33) / (1 - p31 - p33) and lower bound 3;
* completion steps counts all phases including the absorbing one, i.e.
  t + 1, which is what :func:`trajectory_step_count` measures on an
  observed walk.

Estimation is maximum likelihood over the R3 exit counts alone. The counts
are a dict from each target of R3 (R1, R3, R4, in that order) to its count,
as :func:`count_r3_exits` and :func:`tally_trajectories` return them, and
:func:`estimate_from_counts` takes any such mapping, a simulation report's
R3 row included, and returns the :class:`CbrParameters`.
:func:`estimate_parameters` is the same estimate over trajectories.
:func:`tally_trajectories` counts a trajectory file for estimation in one
pass, checking each distinct walk line once with one compiled pattern
instead of building a :class:`Trajectory` per walk. Errors in a file name
the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import (
    CbrChainError,
    DoesNotStartAtR1,
    EmptyTrajectory,
    IllegalTransition,
    InvalidParameters,
    NoR3Observations,
    NonAbsorbing,
    NotAbsorbed,
    ParseError,
    UnknownLabel,
    _describe,
)
from .markov import (
    ONE,
    ZERO,
    ProbabilityVector,
    TransitionMatrix,
    distribution_at,
    validate_stochastic,
)
from .rationals import coerce_rational

STATES: tuple[str, ...] = ("R1", "R2", "R3", "R4")
START_STATE = "R1"
ABSORBING_STATE = "R4"

#: Edges of the process flow diagram; trajectories must follow these.
FLOW_EDGES: dict[str, tuple[str, ...]] = {
    "R1": ("R2",),
    "R2": ("R3",),
    "R3": ("R1", "R3", "R4"),
    "R4": (),
}

_SEPARATORS = re.compile(r"[,\s]+")

#: A line holding a valid walk: cycles R1 R2 R3 R3*, then R4 after at least
#: one cycle, or a censored prefix R1 or R1 R2. Group 1 is the walk itself.
_CYCLE = r"R1[,\s]+R2[,\s]+R3(?:[,\s]+R3)*"
_WALK = re.compile(
    rf"[,\s]*({_CYCLE}(?:[,\s]+{_CYCLE})*(?:[,\s]+(?:R4|R1(?:[,\s]+R2)?))?"
    r"|R1(?:[,\s]+R2)?)[,\s]*"
)


@dataclass(frozen=True)
class CbrParameters:
    """Exit probabilities from the Revise step.

    ``p31`` returns to Retrieve, ``p33`` stays at Revise, ``p34`` moves on
    to Retain. They must each lie in [0, 1] and sum to exactly 1. The chain
    is absorbing iff ``p34 > 0``.
    """

    p31: Fraction
    p33: Fraction
    p34: Fraction

    def __post_init__(self):
        for name in ("p31", "p33", "p34"):
            value = coerce_rational(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (0 <= value <= 1):
                raise InvalidParameters(f"{name} = {_describe(value)} is outside [0, 1]")
        total = self.p31 + self.p33 + self.p34
        if total != ONE:
            raise InvalidParameters(
                f"p31 + p33 + p34 = {_describe(total)}, expected exactly 1"
            )

    @classmethod
    def from_p31_p33(cls, p31, p33) -> "CbrParameters":
        """Build the triple with p34 derived as 1 - p31 - p33."""
        p31 = coerce_rational(p31)
        p33 = coerce_rational(p33)
        return cls(p31, p33, ONE - p31 - p33)

    @property
    def is_absorbing(self) -> bool:
        return self.p34 > 0


@dataclass(frozen=True)
class Trajectory:
    """An observed walk through the process steps, validated on construction.

    Must begin at R1 and follow :data:`FLOW_EDGES`; if R4 appears it is the
    final element. A trajectory that never reaches R4 is a censored
    observation: still valid, but it has no step count.
    """

    phases: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise EmptyTrajectory("trajectory contains no phases")
        for index, label in enumerate(self.phases):
            if label not in FLOW_EDGES:
                raise UnknownLabel(index, label)
        if self.phases[0] != START_STATE:
            raise DoesNotStartAtR1(self.phases[0])
        for index in range(1, len(self.phases)):
            source, target = self.phases[index - 1], self.phases[index]
            if target not in FLOW_EDGES[source]:
                raise IllegalTransition(index, source, target)

    @property
    def is_absorbed(self) -> bool:
        return self.phases[-1] == ABSORBING_STATE


def cbr_transition_matrix(p: CbrParameters) -> TransitionMatrix:
    """The 4x4 transition matrix over (R1, R2, R3, R4)."""
    return validate_stochastic(
        STATES,
        [
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [p.p31, ZERO, p.p33, p.p34],
            [ZERO, ZERO, ZERO, ONE],
        ],
    )


def mean_phases(p: CbrParameters) -> Fraction:
    """Mean number of phases before absorption, starting from R1.

    Closed form (3 - 2*p33) / p34, where p34 = 1 - p31 - p33; always >= 3,
    with equality exactly when p31 = p33 = 0.
    """
    if not p.is_absorbing:
        raise NonAbsorbing("p34 = 0: the process never reaches R4")
    return (Fraction(3) - 2 * p.p33) / p.p34


def phase_distribution(p: CbrParameters, i: int) -> ProbabilityVector:
    """Distribution over steps at phase ``i``, starting from R1 at phase 0.

    It is P_0 A^i by repeated squaring (:func:`markov.distribution_at`), in
    about 2 log2(i) integer matrix products rather than i steps; the errors
    for a bad ``i`` are :func:`markov.evolve`'s.
    """
    start = ProbabilityVector.point(STATES, START_STATE)
    return distribution_at(start, cbr_transition_matrix(p), i)


def validate_trajectory(raw) -> Trajectory:
    """Validate a sequence of step labels against the flow diagram."""
    return Trajectory(tuple(raw))


def trajectory_step_count(t: Trajectory) -> int:
    """Number of phases in an absorbed trajectory, the final R4 included.

    Equals 1 + the number of transitions taken.
    """
    if not t.is_absorbed:
        raise NotAbsorbed("trajectory never reaches R4; no step count exists")
    return len(t.phases)


def _r3_exits(labels, last: str) -> tuple[int, int, int]:
    """The R3 exits to R1, R3 and R4 of a valid walk's labels (or text),
    whose final label is ``last``: every R1 but the first and every R4
    follow R3, and every R3 but a final one has an exit."""
    to_r1 = labels.count("R1") - 1
    to_r4 = labels.count("R4")
    exits = labels.count("R3") - (last == "R3")
    return to_r1, exits - to_r1 - to_r4, to_r4


def count_r3_exits(trajectories) -> dict[str, int]:
    """The R3 exits of any iterable of trajectories: a dict from R1, R3 and
    R4, in that order, to the number of exits to each, zeros kept.

    Censored trajectories contribute the exits they did observe.
    """
    to_r1 = to_r3 = to_r4 = 0
    for t in trajectories:
        r1, r3, r4 = _r3_exits(t.phases, t.phases[-1])
        to_r1, to_r3, to_r4 = to_r1 + r1, to_r3 + r3, to_r4 + r4
    return {"R1": to_r1, "R3": to_r3, "R4": to_r4}


def estimate_parameters(trajectories) -> CbrParameters:
    """Maximum-likelihood exit probabilities from observed trajectories."""
    return estimate_from_counts(count_r3_exits(trajectories))


def estimate_from_counts(counts) -> CbrParameters:
    """Maximum-likelihood exit probabilities from observed R3 exit counts.

    ``counts`` maps targets of R3 to their exit counts, as
    :func:`count_r3_exits` returns them or as a simulation report's
    ``transition_counts.get("R3", {})`` holds them; a missing target counts
    0. A key that is not a target of R3, or a count that is not a
    non-negative ``int`` (a ``bool`` included), raises InvalidParameters.

    Plain empirical frequencies in lowest terms, no smoothing: an exit kind
    that was never observed gets probability exactly 0.
    """
    for target, count in counts.items():
        if target not in FLOW_EDGES["R3"]:
            raise InvalidParameters(f"R3 has no exit to {_describe(target)}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidParameters(
                f"R3 -> {target}: {_describe(count)} is not a non-negative int"
            )
    exits = [counts.get(target, 0) for target in FLOW_EDGES["R3"]]
    total = sum(exits)
    if total == 0:
        raise NoR3Observations("no exits from R3 were observed")
    return CbrParameters(*(Fraction(n, total) for n in exits))


# --- trajectory text format -------------------------------------------------
#
# One trajectory per line, labels separated by commas or whitespace; '#'
# begins a comment line; blank lines are ignored. Lines end at "\n", "\r\n"
# or "\r" only: other characters that str.splitlines() breaks at, such as
# "\f", "\v" and U+0085, are whitespace and so separate labels.

def _walk_lines(text: str):
    """Each walk line of the text format, stripped, with its line number."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _walk_at(lineno: int, line: str) -> Trajectory:
    """The walk on a line; an invalid one raises its error, naming the line."""
    try:
        return validate_trajectory(part for part in _SEPARATORS.split(line) if part)
    except CbrChainError as exc:
        exc.args = (f"line {lineno}: {exc}",)
        raise


def parse_trajectories(text: str) -> list[Trajectory]:
    return [_walk_at(lineno, line) for lineno, line in _walk_lines(text)]


def tally_trajectories(source) -> tuple[int, list[int], dict[str, int]]:
    """The number of walks in a trajectory file (a path or open text
    stream), the step count of each absorbed walk and the R3 exit counts,
    a dict as :func:`count_r3_exits` returns it.

    One pass: each distinct line is checked by one compiled pattern and
    counted off its text, once per call. A :class:`Trajectory` is built
    only for a line the pattern rejects, to raise the error that
    :func:`read_trajectories` would.
    """
    walks = to_r1 = to_r3 = to_r4 = 0
    steps = []
    counted = {}  # each distinct line's (to_r1, to_r3, to_r4, steps)
    for lineno, line in _walk_lines(_read_text(source)):
        counts = counted.get(line)
        if counts is None:
            match = _WALK.fullmatch(line)
            walk = match[1] if match else " ".join(_walk_at(lineno, line).phases)
            counts = counted[line] = (*_r3_exits(walk, walk[-2:]), walk.count("R"))
        r1, r3, r4, n = counts
        walks, to_r1, to_r3, to_r4 = walks + 1, to_r1 + r1, to_r3 + r3, to_r4 + r4
        if r4:
            steps.append(n)
    return walks, steps, {"R1": to_r1, "R3": to_r3, "R4": to_r4}


def _read_text(source) -> str:
    """The text of a path (read as UTF-8) or of an open text stream.

    A file that cannot be opened, read or decoded raises ParseError.
    """
    try:
        if isinstance(source, (str, Path)):
            return Path(source).read_text(encoding="utf-8")
        if hasattr(source, "read"):
            return source.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(source), str(exc)) from exc
    raise TypeError(f"cannot read text from {type(source).__name__}")


def read_trajectories(source) -> list[Trajectory]:
    """Read the trajectory text format from a path or open text stream."""
    return parse_trajectories(_read_text(source))


def format_trajectories(trajectories) -> str:
    """Render trajectories in the text format; round-trips through parsing."""
    return "".join(" ".join(t.phases) + "\n" for t in trajectories)
