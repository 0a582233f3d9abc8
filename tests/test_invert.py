"""The fraction-free inverse against the Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cbrchain import invert_matrix
from cbrchain.errors import SingularMatrix

from oracles import gauss_jordan_inverse, mat_identity, mat_mul

F = Fraction


def i_minus(q):
    k = len(q)
    return tuple(
        tuple((1 if i == j else 0) - q[i][j] for j in range(k)) for i in range(k)
    )


def substochastic_block(weight_rows):
    """Q from per-row integer weights over the transient states plus one
    absorbing state (the last weight, dropped from Q)."""
    return tuple(
        tuple(F(w, sum(weights)) for w in weights[:-1]) for weights in weight_rows
    )


@st.composite
def absorbing_blocks(draw, max_k: int = 8, max_weight: int = 6):
    """The transient block Q of a random absorbing chain.

    Transient state i keeps a positive weight on state i - 1, and state 0 on
    the absorbing state, so every state can absorb; every other weight is
    drawn from 0..max_weight, which keeps the denominators small.
    """
    k = draw(st.integers(min_value=1, max_value=max_k))
    rows = []
    for i in range(k):
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_weight),
                min_size=k + 1,
                max_size=k + 1,
            )
        )
        escape = k if i == 0 else i - 1
        weights[escape] = max(weights[escape], 1)
        rows.append(weights)
    return substochastic_block(rows)


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
