"""The integer arithmetic of the exact engine against Fraction references:
the fraction-free inverse, and N·1 and B = N·R summed over common
denominators."""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cbrchain import (
    TransitionMatrix,
    absorption_probabilities,
    canonical_form,
    expected_absorption_steps,
    fundamental_matrix,
    invert_matrix,
)
from cbrchain.errors import SingularMatrix
from cbrchain.rationals import over_common_denominator

from oracles import gauss_jordan_inverse, mat_identity, mat_mul

F = Fraction


def i_minus(q):
    k = len(q)
    return tuple(
        tuple((1 if i == j else 0) - q[i][j] for j in range(k)) for i in range(k)
    )


def substochastic_block(weight_rows):
    """Q from per-row integer weights over the transient states, then the
    absorbing ones (dropped from Q)."""
    k = len(weight_rows)
    return tuple(
        tuple(F(w, sum(weights)) for w in weights[:k]) for weights in weight_rows
    )


@st.composite
def absorbing_weights(
    draw, max_k: int = 8, max_weight: int = 6, max_absorbing: int = 1
):
    """Integer weight rows of the transient states of a random absorbing
    chain, over its k transient states and then its absorbing ones.

    Transient state i keeps a positive weight on state i - 1, and state 0 on
    the first absorbing state, so every state can absorb; every other weight
    is drawn from 0..max_weight, which keeps the denominators small. Each
    absorbing state after the first is unreachable half the time, so its
    column of R is all zero.
    """
    k = draw(st.integers(min_value=1, max_value=max_k))
    a = draw(st.integers(min_value=1, max_value=max_absorbing))
    unreachable = [j for j in range(k + 1, k + a) if draw(st.booleans())]
    rows = []
    for i in range(k):
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_weight),
                min_size=k + a,
                max_size=k + a,
            )
        )
        escape = k if i == 0 else i - 1
        weights[escape] = max(weights[escape], 1)
        for j in unreachable:
            weights[j] = 0
        rows.append(weights)
    return rows


def absorbing_blocks():
    """The transient block Q of a random absorbing chain."""
    return absorbing_weights().map(substochastic_block)


small_rationals = st.builds(
    F, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
)


@st.composite
def square_matrices(draw, max_k: int = 5):
    """Small square matrices with many zeros, so singular ones and pivots
    off the diagonal both come up."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    entry = st.one_of(st.just(F(0)), small_rationals)
    return tuple(tuple(draw(entry) for _ in range(k)) for _ in range(k))


@given(absorbing_blocks())
def test_inverse_of_i_minus_q_equals_the_reference(q):
    matrix = i_minus(q)
    n = invert_matrix(matrix)
    assert n == gauss_jordan_inverse(matrix)
    assert mat_mul(n, matrix) == mat_identity(len(q))
    assert all(type(v) is Fraction for row in n for v in row)


@given(square_matrices())
def test_any_square_matrix_inverts_or_fails_like_the_reference(matrix):
    try:
        expected = gauss_jordan_inverse(matrix)
    except SingularMatrix as reference:
        with pytest.raises(SingularMatrix) as info:
            invert_matrix(matrix)
        assert str(info.value) == str(reference)
    else:
        assert invert_matrix(matrix) == expected


@pytest.mark.parametrize(
    "matrix, column",
    [
        (((F(0), F(1)), (F(0), F(2))), 0),
        (((F(1), F(2)), (F(2), F(4))), 1),
        (((F(1), F(0), F(1)), (F(0), F(1), F(1)), (F(1), F(1), F(2))), 2),
        (((F(0), F(1), F(2)), (F(1), F(1), F(1)), (F(2), F(3), F(4))), 2),
    ],
    ids=["zero-column", "proportional-rows", "sum-of-columns", "after-a-swap"],
)
def test_singular_matrices_name_the_reference_column(matrix, column):
    with pytest.raises(SingularMatrix) as reference:
        gauss_jordan_inverse(matrix)
    with pytest.raises(SingularMatrix) as info:
        invert_matrix(matrix)
    assert str(info.value) == str(reference.value)
    assert str(info.value) == f"matrix is singular at column {column}"


def test_plain_int_entries_invert_exactly():
    n = invert_matrix(((3, 1), (1, 1)))
    assert n == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(3, 2)))
    assert all(type(v) is Fraction for row in n for v in row)
    assert invert_matrix(((0, 2), (1, 0))) == ((F(0), F(1)), (F(1, 2), F(0)))


def test_a_seeded_thirty_state_chain_equals_the_reference():
    rng = random.Random(30)
    k = 30
    rows = []
    for i in range(k):
        weights = [rng.randrange(0, 10) for _ in range(k + 1)]
        weights[k if i == 0 else i - 1] += 1
        rows.append(weights)
    matrix = i_minus(substochastic_block(rows))
    n = invert_matrix(matrix)
    assert n == gauss_jordan_inverse(matrix)
    assert mat_mul(n, matrix) == mat_identity(k)


@given(absorbing_weights(max_absorbing=3))
def test_absorption_statistics_equal_the_reference(rows):
    k, a = len(rows), len(rows[0]) - len(rows)
    probs = [[F(w, sum(weights)) for w in weights] for weights in rows]
    q = tuple(tuple(row[:k]) for row in probs)
    r = tuple(tuple(row[k:]) for row in probs)
    # Transient states first, so the canonical form has to reorder them.
    states = [f"T{i}" for i in range(k)] + [f"A{j}" for j in range(a)]
    absorbing_rows = [[F(int(j == k + i)) for j in range(k + a)] for i in range(a)]
    chain = canonical_form(TransitionMatrix(states, probs + absorbing_rows))
    n = gauss_jordan_inverse(i_minus(q))
    assert fundamental_matrix(chain) == n
    steps = expected_absorption_steps(chain)
    b = absorption_probabilities(chain)
    assert steps == tuple(sum(row, start=F(0)) for row in n)
    assert b == mat_mul(n, r)
    assert all(type(v) is Fraction for v in (*steps, *(v for row in b for v in row)))


@given(
    st.lists(
        st.one_of(
            small_rationals,
            st.integers(min_value=-50, max_value=50),
            st.builds(F, st.integers(), st.integers(min_value=1, max_value=10**12)),
        )
    )
)
def test_values_go_over_their_least_common_denominator(values):
    numerators, lcd = over_common_denominator(values)
    assert lcd == math.lcm(*(F(v).denominator for v in values))
    assert [F(x, lcd) for x in numerators] == values
    assert all(type(x) is int for x in numerators)


def test_no_values_go_over_one():
    assert over_common_denominator([]) == ([], 1)
