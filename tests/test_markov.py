"""Tests for the generic exact-rational chain engine."""

import copy
import pickle
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from cbrchain import (
    CanonicalChain,
    CbrParameters,
    ProbabilityVector,
    TransitionMatrix,
    absorption_probabilities,
    canonical_form,
    cbr_transition_matrix,
    classify_states,
    evolve,
    expected_absorption_steps,
    fundamental_matrix,
    invert_matrix,
    phase_distribution,
    step_distribution,
    validate_stochastic,
)
from cbrchain.errors import (
    DuplicateLabel,
    InvalidDistribution,
    InvalidRational,
    NegativeEntry,
    NoTransientStates,
    NotAbsorbingChain,
    RowSumNotOne,
    SingularMatrix,
    StateMismatch,
)

from oracles import (
    adjugate_inverse_3x3,
    gambler_matrix,
    mat_identity,
    mat_mul,
    symbolic_phase_vectors,
)
from strategies import (
    cbr_parameters,
    distributions,
    near_unit_sums,
    stochastic_matrices,
)

F = Fraction


def cbr_matrix(p31, p33, p34):
    return cbr_transition_matrix(CbrParameters(F(p31), F(p33), F(p34)))


CBR_THIRDS = cbr_matrix("1/3", "1/3", "1/3")


# --- validation ---------------------------------------------------------------

def test_identity_matrix_is_valid():
    m = validate_stochastic(["A", "B"], [[1, 0], [0, 1]])
    assert m.states == ("A", "B")
    assert m.entries == ((F(1), F(0)), (F(0), F(1)))


def test_cbr_rows_are_valid():
    m = CBR_THIRDS
    assert m.entries[2] == (F(1, 3), F(0), F(1, 3), F(1, 3))
    assert all(sum(row) == 1 for row in m.entries)


def test_row_sum_error_carries_row_and_actual_sum():
    with pytest.raises(RowSumNotOne) as info:
        validate_stochastic(["A", "B"], [[F(1, 2), F(1, 3)], [0, 1]])
    assert info.value.row == 0
    assert info.value.actual == F(5, 6)


def test_negative_entry_rejected():
    with pytest.raises(NegativeEntry) as info:
        validate_stochastic(["A", "B"], [[F(3, 2), F(-1, 2)], [0, 1]])
    assert (info.value.row, info.value.col) == (0, 1)


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        validate_stochastic(["A", "A"], [[1, 0], [0, 1]])


def test_a_probability_vector_with_a_repeated_label_is_rejected():
    # The label named is the first that repeats an earlier one.
    for states in [("A", "A"), ("A", "B", "A"), ("A", "B", "A", "B"), ("B", "A", "A")]:
        with pytest.raises(DuplicateLabel) as info:
            ProbabilityVector(states, (1, *[0] * (len(states) - 1)))
        assert info.value.label == "A"
        assert str(info.value) == "duplicate state label: 'A'"


@pytest.mark.parametrize(
    "build",
    [
        lambda label: ProbabilityVector(("A", label), (0, 1)),
        lambda label: TransitionMatrix((label, "A"), ((1, 0), (0, 1))),
    ],
    ids=["vector", "matrix"],
)
@pytest.mark.parametrize("label", [3, [1], None, b"A"], ids=repr)
def test_a_label_that_is_not_a_string_is_rejected(build, label):
    with pytest.raises(StateMismatch, match="is not a string"):
        build(label)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        validate_stochastic(["A", "B"], [[1, 0]])
    with pytest.raises(ValueError):
        validate_stochastic(["A", "B"], [[1], [1]])


def test_float_entries_rejected():
    with pytest.raises(ValueError):
        validate_stochastic(["A", "B"], [[0.5, 0.5], [0, 1]])
    for row in [(0.5, 0.5), (0.25, 0.5)]:
        with pytest.raises(InvalidRational):
            TransitionMatrix(("A", "B"), (row, (0, 1)))


# --- classification -----------------------------------------------------------

def test_cbr_chain_has_unique_absorbing_state():
    c = classify_states(CBR_THIRDS)
    assert c.absorbing == {"R4"}
    assert c.transient == {"R1", "R2", "R3"}
    assert c.is_absorbing_chain


def test_identity_states_all_absorbing():
    c = classify_states(validate_stochastic(["A", "B"], [[1, 0], [0, 1]]))
    assert c.absorbing == {"A", "B"}
    assert c.transient == frozenset()
    assert c.is_absorbing_chain


def test_two_state_cycle_is_not_absorbing():
    c = classify_states(validate_stochastic(["A", "B"], [[0, 1], [1, 0]]))
    assert c.absorbing == frozenset()
    assert not c.is_absorbing_chain


def test_unreachable_absorber_is_not_an_absorbing_chain():
    m = validate_stochastic(
        ["A", "B", "C"], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    )
    c = classify_states(m)
    assert c.absorbing == {"C"}
    assert not c.is_absorbing_chain


# --- distribution evolution -----------------------------------------------------

def test_step_from_revise_splits_per_exit_probabilities():
    p2 = ProbabilityVector.point(CBR_THIRDS.states, "R3")
    p3 = step_distribution(p2, CBR_THIRDS)
    assert p3.probs == (F(1, 3), F(0), F(1, 3), F(1, 3))


def test_second_step_matches_known_values():
    p3 = ProbabilityVector(CBR_THIRDS.states, (F(1, 3), F(0), F(1, 3), F(1, 3)))
    p4 = step_distribution(p3, CBR_THIRDS)
    assert p4.probs == (F(1, 9), F(1, 3), F(1, 9), F(4, 9))


def test_identity_step_only_advances_the_phase():
    m = validate_stochastic(["A", "B"], [[1, 0], [0, 1]])
    p = ProbabilityVector(("A", "B"), (F(1, 4), F(3, 4)))
    assert step_distribution(p, m) == p


def test_a_malformed_probability_vector_is_rejected():
    states = ("A", "B")
    with pytest.raises(StateMismatch, match="length must match"):
        ProbabilityVector(states, (F(1),))
    with pytest.raises(InvalidDistribution, match="non-negative"):
        ProbabilityVector(states, (F(3, 2), F(-1, 2)))


def test_state_mismatch_rejected():
    p = ProbabilityVector(("B", "A"), (F(1), F(0)))
    m = validate_stochastic(["A", "B"], [[1, 0], [0, 1]])
    with pytest.raises(StateMismatch):
        step_distribution(p, m)


def test_evolution_checks_the_states_before_the_first_phase():
    # even with no phase to step, in the words step_distribution uses
    p = ProbabilityVector(("B", "A"), (F(1), F(0)))
    m = validate_stochastic(["A", "B"], [[1, 0], [0, 1]])
    for phases in (0, 1):
        with pytest.raises(StateMismatch) as info:
            evolve(p, m, phases)
        assert str(info.value) == (
            "vector states ('B', 'A') do not match matrix states ('A', 'B')"
        )


def test_evolution_prefix_is_deterministic():
    start = ProbabilityVector.point(CBR_THIRDS.states, "R1")
    vectors = evolve(start, CBR_THIRDS, 3)
    assert [v.probs for v in vectors] == [
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(1, 3), F(0), F(1, 3), F(1, 3)),
    ]


def test_zero_phases_returns_only_the_start():
    start = ProbabilityVector.point(CBR_THIRDS.states, "R1")
    assert evolve(start, CBR_THIRDS, 0) == [start]


def test_phase_five_distribution_matches_symbolic_oracle():
    # Frozen value computed from the symbolic forms; note the third entry
    # is 10/27 = p31 + p33**3, which is what makes the vector sum to 1.
    start = ProbabilityVector.point(CBR_THIRDS.states, "R1")
    p5 = evolve(start, CBR_THIRDS, 5)[5]
    assert p5.probs == (F(1, 27), F(1, 9), F(10, 27), F(13, 27))
    params = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
    assert p5.probs == symbolic_phase_vectors(params)[5]
    assert sum(p5.probs) == 1


def test_a_phase_count_that_is_not_a_non_negative_int_is_rejected():
    start = ProbabilityVector.point(CBR_THIRDS.states, "R1")
    thirds = CbrParameters(F(1, 3), F(1, 3), F(1, 3))
    for phases in (2.5, 2.0, True, -1, "2", F(2)):
        with pytest.raises(InvalidDistribution, match="phases must be a non-negative int"):
            evolve(start, CBR_THIRDS, phases)
        with pytest.raises(InvalidDistribution, match="phases must be a non-negative int"):
            phase_distribution(thirds, phases)
    assert len(evolve(start, CBR_THIRDS, 0)) == 1


# --- canonical form -------------------------------------------------------------

def test_canonical_order_lists_the_absorber_first():
    chain = canonical_form(CBR_THIRDS)
    order = (*chain.absorbing_states, *chain.transient_states)
    assert order == ("R4", "R1", "R2", "R3")
    assert chain.q_block == (
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
        (F(1, 3), F(0), F(1, 3)),
    )
    assert chain.r_block == ((F(0),), (F(0),), (F(1, 3),))


def test_already_canonical_matrix_keeps_its_order():
    m = validate_stochastic(["A", "T"], [[1, 0], [F(1, 2), F(1, 2)]])
    chain = canonical_form(m)
    assert (*chain.absorbing_states, *chain.transient_states) == m.states
    assert (chain.r_block, chain.q_block) == (((F(1, 2),),), ((F(1, 2),),))


def test_two_absorbing_states_both_precede_transients():
    states, rows = gambler_matrix()
    chain = canonical_form(validate_stochastic(states, rows))
    assert chain.absorbing_states == ("0", "2")
    assert chain.transient_states == ("1",)


def _unpermuted_block_form(chain, states):
    """The block matrix [I 0; R Q] read back in the order of ``states``."""
    a = len(chain.absorbing_states)
    order = (*chain.absorbing_states, *chain.transient_states)
    rows = [
        *(tuple(F(1) if j == i else F(0) for j in range(len(order))) for i in range(a)),
        *(r + q for r, q in zip(chain.r_block, chain.q_block)),
    ]
    pos = [order.index(s) for s in states]
    return tuple(tuple(rows[i][j] for j in pos) for i in pos)


def test_unpermuting_the_canonical_matrix_restores_the_original():
    for matrix in (CBR_THIRDS, validate_stochastic(*gambler_matrix())):
        chain = canonical_form(matrix)
        assert sorted((*chain.absorbing_states, *chain.transient_states)) == sorted(
            matrix.states
        )
        assert _unpermuted_block_form(chain, matrix.states) == matrix.entries


def test_non_absorbing_chain_rejected():
    m = validate_stochastic(["A", "B"], [[0, 1], [1, 0]])
    with pytest.raises(NotAbsorbingChain):
        canonical_form(m)
    with pytest.raises(NotAbsorbingChain):
        canonical_form(cbr_matrix("1/2", "1/2", 0))


def test_all_absorbing_chain_has_no_canonical_form():
    m = validate_stochastic(["A", "B"], [[1, 0], [0, 1]])
    with pytest.raises(NoTransientStates):
        canonical_form(m)


# --- fundamental matrix -----------------------------------------------------------

def test_fundamental_matrix_known_values():
    chain = canonical_form(CBR_THIRDS)
    n = fundamental_matrix(chain)
    expected = (
        (F(2), F(2), F(3)),
        (F(1), F(2), F(3)),
        (F(1), F(1), F(3)),
    )
    assert n == expected
    i_minus_q = tuple(
        tuple((1 if i == j else 0) - chain.q_block[i][j] for j in range(3))
        for i in range(3)
    )
    assert n == adjugate_inverse_3x3(i_minus_q)


def test_fundamental_matrix_of_the_straightforward_chain_is_nilpotent_sum():
    chain = canonical_form(cbr_matrix(0, 0, 1))
    assert fundamental_matrix(chain) == (
        (F(1), F(1), F(1)),
        (F(0), F(1), F(1)),
        (F(0), F(0), F(1)),
    )


def test_fundamental_matrix_is_cached():
    chain = canonical_form(CBR_THIRDS)
    assert fundamental_matrix(chain) is fundamental_matrix(chain)


def test_fundamental_matrix_is_computed_once_under_contention(monkeypatch):
    import threading

    import cbrchain.markov as markov_module

    chain = canonical_form(CBR_THIRDS)
    calls = []
    real_invert = markov_module.invert_matrix

    def counting_invert(matrix):
        calls.append(1)
        return real_invert(matrix)

    monkeypatch.setattr(markov_module, "invert_matrix", counting_invert)
    barrier = threading.Barrier(8)
    results = []

    def worker():
        barrier.wait()
        results.append(fundamental_matrix(chain))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert all(r is results[0] for r in results)


def test_singular_system_reported():
    # Q rows summing to 1 mean the transient block never leaks probability,
    # so I - Q is singular; reachable only by constructing the block form
    # directly since canonical_form already rejects such chains.
    q = ((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(1, 2), F(0), F(1, 2)))
    i_minus_q = tuple(
        tuple((1 if i == j else 0) - q[i][j] for j in range(3)) for i in range(3)
    )
    with pytest.raises(SingularMatrix):
        invert_matrix(i_minus_q)
    chain = CanonicalChain(
        absorbing_states=("R4",),
        transient_states=("R1", "R2", "R3"),
        q_block=q,
        r_block=((F(0),), (F(0),), (F(0),)),
    )
    with pytest.raises(SingularMatrix):
        fundamental_matrix(chain)


@pytest.mark.parametrize("field", ["_fundamental", "_lock"])
def test_a_chain_is_built_from_its_four_blocks_alone(field):
    chain = canonical_form(CBR_THIRDS)
    blocks = dict(
        absorbing_states=chain.absorbing_states,
        transient_states=chain.transient_states,
        q_block=chain.q_block,
        r_block=chain.r_block,
    )
    with pytest.raises(TypeError):
        CanonicalChain(**blocks, **{field: None})


# --- absorption statistics ----------------------------------------------------------

def test_expected_steps_per_start_state():
    assert expected_absorption_steps(canonical_form(CBR_THIRDS)) == (
        F(7),
        F(6),
        F(5),
    )
    assert expected_absorption_steps(canonical_form(cbr_matrix(0, 0, 1))) == (
        F(3),
        F(2),
        F(1),
    )
    steps = expected_absorption_steps(canonical_form(cbr_matrix("1/4", "1/2", "1/4")))
    assert steps[0] == F(8)


def test_single_absorber_gets_all_probability():
    b = absorption_probabilities(canonical_form(CBR_THIRDS))
    assert b == ((F(1),), (F(1),), (F(1),))
    b = absorption_probabilities(canonical_form(cbr_matrix(0, 0, 1)))
    assert b == ((F(1),), (F(1),), (F(1),))


def test_fair_gambler_splits_evenly():
    chain = canonical_form(validate_stochastic(*gambler_matrix()))
    assert absorption_probabilities(chain) == ((F(1, 2), F(1, 2)),)


# --- properties -----------------------------------------------------------------

@given(cbr_parameters(), distributions(("R1", "R2", "R3", "R4")))
def test_stepping_preserves_total_probability_exactly(params, dist):
    stepped = step_distribution(dist, cbr_transition_matrix(params))
    assert sum(stepped.probs) == 1


@given(st.data())
def test_evolution_is_the_start_row_times_the_matrix_powers(data):
    # Chains with zero entries and exact self-loops exercise every branch
    # of the sparse step.
    m = data.draw(stochastic_matrices())
    start = data.draw(distributions(m.states))
    power = mat_identity(m.n)
    for v in evolve(start, m, 12):
        assert v.probs == mat_mul((start.probs,), power)[0]
        power = mat_mul(power, m.entries)


@given(near_unit_sums())
@example([F(1, 2), F(1, 3), F(1, 6)])
@example([F(1, 6), F(1, 10), F(1, 15), F(2, 3)])
@example([F(1, 2), F(1, 3)])
@example([F(1, 6), F(1, 10), F(1, 15), F(1, 2)])
def test_a_sum_is_accepted_exactly_when_it_is_one(values):
    largest = max(v.denominator for v in values)
    divide = all(largest % v.denominator == 0 for v in values)
    event(f"denominators divide the largest: {divide}")
    k = len(values)
    states = tuple(f"S{i}" for i in range(k))
    rows = [*(tuple(F(int(i == j)) for j in range(k)) for i in range(k - 1)), values]
    total = sum(values)
    if total == 1:
        assert ProbabilityVector(states, values).probs == tuple(values)
        assert TransitionMatrix(states, rows).entries[-1] == tuple(values)
        return
    with pytest.raises(InvalidDistribution) as info:
        ProbabilityVector(states, values)
    assert str(info.value) == f"probabilities sum to {total}, expected exactly 1"
    with pytest.raises(RowSumNotOne) as info:
        TransitionMatrix(states, rows)
    assert str(info.value) == f"row {k - 1} sums to {total}, expected exactly 1"
    assert info.value.actual == total


@given(cbr_parameters(absorbing=True))
def test_fundamental_matrix_inverts_exactly(params):
    chain = canonical_form(cbr_transition_matrix(params))
    n = fundamental_matrix(chain)
    i_minus_q = tuple(
        tuple((1 if i == j else 0) - chain.q_block[i][j] for j in range(3))
        for i in range(3)
    )
    assert mat_mul(n, i_minus_q) == mat_identity(3)
    assert all(value >= 0 for row in n for value in row)


@given(cbr_parameters(absorbing=True))
def test_expected_steps_satisfy_the_first_step_equation(params):
    chain = canonical_form(cbr_transition_matrix(params))
    t = expected_absorption_steps(chain)
    k = len(t)
    for i in range(k):
        assert t[i] == 1 + sum(
            (chain.q_block[i][j] * t[j] for j in range(k)), start=F(0)
        )
        assert t[i] > 0


@given(cbr_parameters(absorbing=True))
def test_absorption_probability_rows_sum_to_one(params):
    chain = canonical_form(cbr_transition_matrix(params))
    for row in absorption_probabilities(chain):
        assert sum(row) == 1


@given(cbr_parameters(absorbing=True))
def test_canonical_form_round_trips_through_the_permutation(params):
    matrix = cbr_transition_matrix(params)
    chain = canonical_form(matrix)
    assert _unpermuted_block_form(chain, matrix.states) == matrix.entries
    # block form [I 0; R Q]: absorbing rows are identity rows
    for s in chain.absorbing_states:
        i = matrix.index(s)
        assert matrix.entries[i] == tuple(
            F(1) if j == i else F(0) for j in range(matrix.n)
        )


@pytest.mark.reference
@given(stochastic_matrices())
def test_canonical_blocks_read_the_matrix_by_label(m):
    c = classify_states(m)
    has_form = c.is_absorbing_chain and bool(c.transient)
    event(f"absorbing chain with a transient state: {has_form}")
    if not has_form:
        return
    chain = canonical_form(m)
    # absorbing states first, then transient ones, each in original order
    assert chain.absorbing_states == tuple(s for s in m.states if s in c.absorbing)
    assert chain.transient_states == tuple(s for s in m.states if s in c.transient)

    def entry(s, t):
        return m.entries[m.index(s)][m.index(t)]

    for i, s in enumerate(chain.transient_states):
        assert chain.q_block[i] == tuple(entry(s, t) for t in chain.transient_states)
        assert chain.r_block[i] == tuple(entry(s, t) for t in chain.absorbing_states)
    # block form [I 0; R Q]: each absorbing state's row is its identity row
    for s in chain.absorbing_states:
        assert all(entry(s, t) == (s == t) for t in m.states)


def _has_canonical_form(m: TransitionMatrix) -> bool:
    c = classify_states(m)
    return c.is_absorbing_chain and bool(c.transient)


ABSORBING_CHAINS = stochastic_matrices().filter(_has_canonical_form).map(canonical_form)


@pytest.mark.reference
@given(ABSORBING_CHAINS, ABSORBING_CHAINS)
def test_a_replaced_chain_computes_its_own_fundamental_matrix(chain, other):
    fundamental_matrix(chain)
    replaced = replace(
        chain,
        absorbing_states=other.absorbing_states,
        transient_states=other.transient_states,
        q_block=other.q_block,
        r_block=other.r_block,
    )
    assert fundamental_matrix(replaced) == fundamental_matrix(other)


@pytest.mark.reference
@given(ABSORBING_CHAINS)
def test_a_chain_survives_pickle_and_deepcopy_before_and_after_its_n(chain):
    def twins():
        return [pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)]

    before = twins()
    n = fundamental_matrix(chain)
    for twin in before + twins():
        assert twin == chain
        assert fundamental_matrix(twin) == n


@settings(max_examples=50)
@given(cbr_parameters(absorbing=True))
def test_absorption_accumulates_monotonically_and_geometrically(params):
    # Cumulative absorption probability never decreases, and after the
    # two-phase run-in it survives at most (1 - p34) per three phases: any
    # path alive at phase k has taken at least (k - 2) // 3 exits from R3.
    matrix = cbr_transition_matrix(params)
    start = ProbabilityVector.point(matrix.states, "R1")
    vectors = evolve(start, matrix, 20)
    absorbed = [v.probs[3] for v in vectors]
    assert all(a <= b for a, b in zip(absorbed, absorbed[1:]))
    for k, probability in enumerate(absorbed):
        survival = 1 - probability
        assert survival <= (1 - params.p34) ** ((k - 2) // 3) if k >= 2 else True
