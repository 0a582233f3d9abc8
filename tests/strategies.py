"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume

from cbrchain import (
    CaseLibrary,
    CaseRecord,
    CbrParameters,
    GeneralizedEpisode,
    ProbabilityVector,
    Trajectory,
    validate_stochastic,
)


@st.composite
def cbr_parameters(draw, absorbing: bool = False, max_part: int = 12):
    """Valid exit-probability triples built from integer weights.

    With ``absorbing=True`` the retain weight is forced positive, so the
    chain is guaranteed to absorb.
    """
    a = draw(st.integers(min_value=0, max_value=max_part))
    b = draw(st.integers(min_value=0, max_value=max_part))
    c = draw(st.integers(min_value=1 if absorbing else 0, max_value=max_part))
    total = a + b + c
    assume(total > 0)
    return CbrParameters(
        Fraction(a, total), Fraction(b, total), Fraction(c, total)
    )


@st.composite
def distributions(draw, states, max_part: int = 10):
    """Exact probability vectors over the given states."""
    states = tuple(states)
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_part),
            min_size=len(states),
            max_size=len(states),
        )
    )
    total = sum(weights)
    assume(total > 0)
    probs = tuple(Fraction(w, total) for w in weights)
    return ProbabilityVector(states, probs)


@st.composite
def stochastic_matrices(draw, max_states: int = 5, max_part: int = 6):
    """Chains of 2..max_states states over shuffled labels.

    Each row is either an exact self-loop or built from integer weights, so
    chains with several absorbing states, with none, and with closed
    classes that never absorb all appear.
    """
    k = draw(st.integers(min_value=2, max_value=max_states))
    labels = tuple(f"S{i}" for i in draw(st.permutations(range(k))))
    rows = []
    for i in range(k):
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_part),
                min_size=k,
                max_size=k,
            )
        )
        if draw(st.booleans()) or sum(weights) == 0:
            weights = [int(i == j) for j in range(k)]
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return validate_stochastic(labels, rows)


@st.composite
def near_unit_sums(draw):
    """Non-negative fractions that sum to exactly 1 or, about half the time,
    miss it by a small amount.

    The values are integer weights over a common denominator, reduced, so
    their denominators may all divide the largest (1/2, 1/3, 1/6) or not
    (1/6, 1/10, 1/15, 2/3, where 6 does not divide 15); a miss adds one
    more denominator, which usually divides none of the others.
    """
    common = draw(st.sampled_from([1, 2, 6, 12, 30, 60, 210]))
    cuts = sorted(draw(st.lists(st.integers(0, common), max_size=4)))
    values = [Fraction(b - a, common) for a, b in zip([0, *cuts], [*cuts, common])]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        miss = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 97)))
        values[i] = max(values[i] + miss, Fraction(0))
    return values


@st.composite
def walks(draw, absorbed: bool | None = None):
    """Valid walks as label lists: cycles R1 R2 R3 R3*, then R4 after at
    least one cycle or a censored prefix. ``absorbed`` forces the ending."""
    cycles = draw(st.integers(min_value=1 if absorbed else 0, max_value=3))
    labels = []
    for _ in range(cycles):
        labels += ["R1", "R2", "R3"] + ["R3"] * draw(st.integers(0, 3))
    endings = [["R4"]] if cycles and absorbed is not False else []
    if not absorbed:
        endings += [["R1"], ["R1", "R2"]] + ([[]] if cycles else [])
    return labels + draw(st.sampled_from(endings))


#: Separators of the text format: U+2003 (em space) and characters that
#: str.splitlines() would take for line breaks (form feed, U+0085) included.
SEPARATOR_CHARS = ",\t \u2003\f\x85"
SEPARATORS = st.text(alphabet=SEPARATOR_CHARS, min_size=1, max_size=3)


@st.composite
def walk_lines(draw, labels):
    """A line of the text format holding ``labels``, with mixed separators
    and optional leading and trailing ones."""
    edges = st.text(alphabet=SEPARATOR_CHARS, max_size=2)
    parts = [label if i == 0 else draw(SEPARATORS) + label for i, label in enumerate(labels)]
    return draw(edges) + "".join(parts) + draw(edges)


#: Labels that no walk may hold; "R1R2" lacks its separator.
BAD_LABELS = ("R0", "R5", "R33", "r1", "X", "#", "R1R2", "R")


@st.composite
def broken_walks(draw):
    """A valid walk with one label replaced, deleted or inserted."""
    labels = draw(walks())
    label = draw(st.sampled_from(("R1", "R2", "R3", "R4", *BAD_LABELS)))
    i = draw(st.integers(0, len(labels) - 1))
    how = draw(st.sampled_from(["replace", "delete", "insert"]))
    if how == "replace":
        labels[i] = label
    elif how == "delete":
        del labels[i]
    else:
        labels.insert(i + draw(st.integers(0, 1)), label)
    return labels


@st.composite
def trajectory_texts(draw, broken: bool = False):
    """Trajectory files of walk, comment and blank lines, with LF or CRLF
    line ends. With ``broken``, some walks are altered and may be invalid.
    A walk line may repeat an earlier one, valid or not."""
    lines, walk_texts = [], []
    for _ in range(draw(st.integers(0, 8))):
        kinds = ["walk", "walk", "walk", "comment", "blank"] + ["repeat"] * bool(walk_texts)
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# walks", "  # R1 R2", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u2003"])))
        elif kind == "repeat":
            lines.append(draw(st.sampled_from(walk_texts)))
        else:
            labels = draw(broken_walks() if broken and draw(st.booleans()) else walks())
            walk_texts.append(draw(walk_lines(labels)))
            lines.append(walk_texts[-1])
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def case_libraries(draw, max_episodes: int = 3):
    """Small libraries over a pool of case definitions.

    Ids repeat within and across episode trees, always with the same
    definition, and a new id may take an earlier id's source; every measure
    source appears, and some parameter triples cannot absorb. Episodes nest
    two levels deep and may be empty.
    """
    pool = []
    for i in range(draw(st.integers(1, 6))):
        source = draw(st.sampled_from(["t", "params", "trajectory"] + ["copy"] * bool(pool)))
        if source == "copy":
            pool.append(replace(draw(st.sampled_from(pool)), id=f"c{i}"))
        elif source == "t":
            t = 3 + Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 5)))
            pool.append(CaseRecord(f"c{i}", measure=t))
        elif source == "params":
            pool.append(CaseRecord(f"c{i}", params=draw(cbr_parameters())))
        else:
            phases = draw(walks(absorbed=True))
            pool.append(CaseRecord(f"c{i}", trajectory=Trajectory(tuple(phases))))

    def episode(depth: int) -> GeneralizedEpisode:
        cases = draw(st.lists(st.sampled_from(pool), max_size=4))
        subs = [episode(depth + 1) for _ in range(draw(st.integers(0, 2 - depth)))]
        return GeneralizedEpisode(draw(st.sampled_from(["g", "h", "g 2"])), cases, subs)

    return CaseLibrary([episode(0) for _ in range(draw(st.integers(1, max_episodes)))])
