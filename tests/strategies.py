"""Hypothesis strategies shared across test modules."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume

from cbrchain import CbrParameters, ProbabilityVector, validate_stochastic


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
    """Exact probability vectors over the given states at phase 0."""
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
