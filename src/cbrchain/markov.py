"""General finite Markov chain engine over exact rationals.

Implements validation, state classification, distribution evolution (phase
by phase, or to one phase by repeated squaring), canonical reordering of
absorbing chains, the fundamental matrix, and absorption statistics. Every
quantity is a :class:`fractions.Fraction`; there is no floating point
anywhere on this path, so results like 13/27 are reproduced bit-exactly and
invariants (row sums, N(I-Q)=I) can be asserted with no tolerance. Row
sums, N·1 and B = N·R are summed over integers on least common
denominators, with one Fraction per result.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DuplicateLabel,
    InvalidDistribution,
    NegativeEntry,
    NoTransientStates,
    NotAbsorbingChain,
    RowSumNotOne,
    SingularMatrix,
    StateMismatch,
    _describe,
)
from .rationals import coerce_rational, over_common_denominator

RationalMatrix = tuple[tuple[Fraction, ...], ...]


def _sums_to_one(values) -> bool:
    """Whether the exact rationals ``values`` sum to exactly 1, over integers."""
    numerators, lcd = over_common_denominator(values)
    return sum(numerators) == lcd


def _check_labels(states: tuple[str, ...]) -> None:
    """Raise StateMismatch at the first label that is not a string, and
    DuplicateLabel at the first label that repeats an earlier one."""
    for s in states:
        if not isinstance(s, str):
            raise StateMismatch(f"state label {_describe(s)} is not a string")
    if len(set(states)) < len(states):
        raise DuplicateLabel(next(s for i, s in enumerate(states) if s in states[:i]))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic square matrix over labelled states.

    ``entries[i][j]`` is the probability of moving from ``states[i]`` to
    ``states[j]`` in one phase. Validation runs at construction: entries are
    converted to Fractions as :func:`validate_stochastic` documents, labels
    must be unique, entries non-negative, and every row must sum to exactly 1.
    Instances are immutable and safe to share between threads.
    """

    states: tuple[str, ...]
    entries: RationalMatrix

    def __post_init__(self):
        states = tuple(self.states)
        entries = tuple(tuple(coerce_rational(v) for v in row) for row in self.entries)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "entries", entries)

        n = len(states)
        if n < 1:
            raise StateMismatch("a chain needs at least one state")
        _check_labels(states)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StateMismatch(f"matrix must be {n}x{n} to match the state labels")
        for i, row in enumerate(entries):
            for j, value in enumerate(row):
                if value < 0:
                    raise NegativeEntry(i, j, value)
            if not _sums_to_one(row):
                raise RowSumNotOne(i, sum(row))

    @property
    def n(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        return self.states.index(label)


@dataclass(frozen=True)
class ProbabilityVector:
    """Distribution over the chain's states.

    Labels must be unique and probabilities must sum to exactly 1. A
    distribution does not carry its phase: in the list :func:`evolve`
    returns, the vector at position n is the phase-n distribution.
    """

    states: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "probs", tuple(coerce_rational(p) for p in self.probs))
        _check_labels(self.states)
        if len(self.probs) != len(self.states):
            raise StateMismatch("probability vector length must match the state labels")
        if any(p < 0 for p in self.probs):
            raise InvalidDistribution("probabilities must be non-negative")
        if not _sums_to_one(self.probs):
            raise InvalidDistribution(
                f"probabilities sum to {_describe(sum(self.probs))}, "
                "expected exactly 1"
            )

    @classmethod
    def point(cls, states, label: str) -> "ProbabilityVector":
        """Distribution concentrated on a single state."""
        states = tuple(states)
        probs = tuple(int(s == label) for s in states)
        if 1 not in probs:
            raise StateMismatch(f"{label!r} is not one of the states")
        return cls(states, probs)


@dataclass(frozen=True)
class StateClassification:
    """Absorbing/transient split and whether the chain is absorbing.

    A state is absorbing when its self-transition probability is exactly 1.
    The chain is an absorbing chain when every transient state can reach
    some absorbing state through positive-probability edges.
    """

    absorbing: frozenset[str]
    transient: frozenset[str]
    is_absorbing_chain: bool


@dataclass(frozen=True)
class CanonicalChain:
    """Absorbing chain in the block form [I 0; R Q].

    The canonical state order is ``(*absorbing_states, *transient_states)``:
    absorbing states first, then transient states, each group in its
    original relative order. ``q_block`` holds transient-to-transient
    probabilities and ``r_block`` transient-to-absorbing ones, rows and
    columns in that order. A chain is these four blocks: the fundamental
    matrix is not a constructor parameter, but is computed on first use and
    kept, so ``dataclasses.replace`` gives a chain that computes its own,
    and a chain pickles and copies with or without it.
    """

    absorbing_states: tuple[str, ...]
    transient_states: tuple[str, ...]
    q_block: RationalMatrix
    r_block: RationalMatrix
    _fundamental: RationalMatrix | None = field(
        default=None, init=False, repr=False, compare=False
    )


#: Guards the first computation of any chain's fundamental matrix.
_FUNDAMENTAL_LOCK = threading.Lock()


def validate_stochastic(states, raw) -> TransitionMatrix:
    """Validate raw rows as a transition matrix over ``states``.

    Entries may be ints, Fractions, or rational strings such as "1/3";
    floats are rejected to keep the matrix exact.
    """
    return TransitionMatrix(states, raw)


def classify_states(m: TransitionMatrix) -> StateClassification:
    """Split states into absorbing and transient and test absorbability."""
    n = m.n
    absorbing_idx = [i for i in range(n) if m.entries[i][i] == 1]
    absorbing = frozenset(m.states[i] for i in absorbing_idx)
    transient = frozenset(m.states) - absorbing

    # Breadth-first search along reversed positive-probability edges: a
    # transient state is fine iff some absorbing state is reverse-reachable.
    # Every absorbing state starts out reached, so the chain absorbs iff
    # every state is reached.
    reached = set(absorbing_idx)
    queue = deque(absorbing_idx)
    while queue:
        i = queue.popleft()
        for j in range(n):
            if j not in reached and m.entries[j][i] > 0:
                reached.add(j)
                queue.append(j)
    return StateClassification(absorbing, transient, len(reached) == n)


def _require_same_states(p: ProbabilityVector, m: TransitionMatrix) -> None:
    """Raise StateMismatch unless ``p`` is over ``m``'s states, in order."""
    if p.states != m.states:
        raise StateMismatch(
            f"vector states {p.states} do not match matrix states {m.states}"
        )


def step_distribution(p: ProbabilityVector, m: TransitionMatrix) -> ProbabilityVector:
    """One exact application of the phase recurrence: p times the matrix.

    Only the terms with a nonzero probability and a nonzero entry are
    formed, and an entry of exactly 1 passes the probability through
    unmultiplied.
    """
    _require_same_states(p, m)
    probs = [0] * m.n
    for p_i, row in zip(p.probs, m.entries):
        if not p_i:
            continue
        for j, m_ij in enumerate(row):
            if m_ij:
                probs[j] += p_i if m_ij == 1 else p_i * m_ij
    return ProbabilityVector(m.states, probs)


def _check_evolution(start: ProbabilityVector, m: TransitionMatrix, phases) -> None:
    """Raise InvalidDistribution unless ``phases`` is a non-negative int, and
    then StateMismatch unless ``start`` is over ``m``'s states, in order."""
    if not isinstance(phases, int) or isinstance(phases, bool) or phases < 0:
        raise InvalidDistribution("phases must be a non-negative int")
    _require_same_states(start, m)


def evolve(
    start: ProbabilityVector, m: TransitionMatrix, phases: int
) -> list[ProbabilityVector]:
    """Distributions at phases 0..``phases`` inclusive, starting from ``start``.

    The vector at position n is P_n = P_0 A^n, with ``start`` as P_0.
    """
    _check_evolution(start, m, phases)
    out = [start]
    current = start
    for _ in range(phases):
        current = step_distribution(current, m)
        out.append(current)
    return out


def distribution_at(
    start: ProbabilityVector, m: TransitionMatrix, phase: int
) -> ProbabilityVector:
    """P_n = P_0 A^n for n = ``phase``, with ``start`` as P_0: the last vector
    of ``evolve(start, m, phase)``, with the same argument errors.

    It is taken by repeated squaring over integers, in about 2 log2(n)
    products of integer matrices rather than n steps. With L the LCM of
    ``m``'s denominators, A = M / L for an integer matrix M, and with d the
    LCM of ``start``'s, P_0 = v / d for an integer vector v; so P_n is
    v M^n / (d L^n), and one Fraction is built per state.
    """
    _check_evolution(start, m, phase)
    vector, d = over_common_denominator(start.probs)
    lcd = math.lcm(*(q.denominator for row in m.entries for q in row))
    power = [[q.numerator * (lcd // q.denominator) for q in row] for row in m.entries]
    product = [vector]
    n = phase
    while True:
        if n & 1:
            product = _product(product, power)
        n >>= 1
        if not n:
            break
        power = _product(power, power)
    den = d * lcd**phase
    return ProbabilityVector(m.states, [Fraction(x, den) for x in product[0]])


def _product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The integer matrix product ``a`` times ``b``."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def canonical_form(m: TransitionMatrix) -> CanonicalChain:
    """Reorder an absorbing chain with absorbing states first.

    Ties keep original relative order within the absorbing and transient
    groups, so e.g. a chain ordered (T1, T2, T3, A) canonicalizes to
    (A, T1, T2, T3).
    """
    classification = classify_states(m)
    if not classification.is_absorbing_chain:
        raise NotAbsorbingChain(
            "some transient state cannot reach an absorbing state"
        )
    if not classification.transient:
        raise NoTransientStates("every state is absorbing")
    absorbing = classification.absorbing
    a = len(absorbing)
    order = sorted(range(m.n), key=lambda i: m.states[i] not in absorbing)
    states = tuple(m.states[i] for i in order)
    rows = [tuple(m.entries[i][j] for j in order) for i in order[a:]]
    return CanonicalChain(
        absorbing_states=states[:a],
        transient_states=states[a:],
        q_block=tuple(row[a:] for row in rows),
        r_block=tuple(row[:a] for row in rows),
    )


def fundamental_matrix(c: CanonicalChain) -> RationalMatrix:
    """Exact inverse of (I - Q), cached on the chain.

    Entry (i, j) is the mean number of visits to transient state j before
    absorption when starting from transient state i. It is computed at most
    once per chain, under one lock for all chains; a cached read takes none.
    """
    if c._fundamental is None:
        with _FUNDAMENTAL_LOCK:
            if c._fundamental is None:
                k = len(c.transient_states)
                i_minus_q = tuple(
                    tuple(int(i == j) - c.q_block[i][j] for j in range(k))
                    for i in range(k)
                )
                object.__setattr__(c, "_fundamental", invert_matrix(i_minus_q))
    return c._fundamental


def expected_absorption_steps(c: CanonicalChain) -> tuple[Fraction, ...]:
    """Mean number of phases before absorption, per transient start state.

    These are the row sums of the fundamental matrix, aligned with
    ``c.transient_states``.
    """
    rows = map(over_common_denominator, fundamental_matrix(c))
    return tuple(Fraction(sum(nums), lcd) for nums, lcd in rows)


def absorption_probabilities(c: CanonicalChain) -> RationalMatrix:
    """Probability of ending in each absorbing state: B = N * R.

    Rows align with ``c.transient_states``, columns with
    ``c.absorbing_states``; every row sums to exactly 1. Entry (i, j) is
    the integer dot product of N's row i and R's column j, each over its
    least common denominator, divided by the product of the two.
    """
    rows = map(over_common_denominator, fundamental_matrix(c))
    columns = [over_common_denominator(col) for col in zip(*c.r_block)]
    return tuple(
        tuple(
            Fraction(sum(x * y for x, y in zip(nums, col)), lcd * col_lcd)
            for col, col_lcd in columns
        )
        for nums, lcd in rows
    )


def invert_matrix(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination over integers.

    Each row is scaled by the LCM of its denominators, so the elimination
    runs on Python ints augmented with the identity. Column by column, the
    first row at or below the diagonal with a nonzero entry is the pivot,
    and every other row ``b`` becomes ``(pivot*b - f*p) // prev`` against
    the pivot row ``p``, where ``f`` is ``b``'s entry in the pivot column
    and ``prev`` the previous pivot. Sylvester's identity makes that
    division exact and keeps every entry a minor of the scaled, augmented
    matrix (Bareiss 1968, *Sylvester's identity and multistep
    integer-preserving Gaussian elimination*, Math. Comp. 22). The left
    block ends as ``d * I``, where ``d`` is the last pivot (the scaled
    determinant up to sign), so with ``X`` the right block, entry (i, j) of
    the inverse is ``X[i][j] * scale[j] / d``. One Fraction is built per
    entry, and since Fractions are canonical the result equals any other
    exact inverse.

    Raises SingularMatrix naming the first column that depends on the
    columns before it.
    """
    k = len(matrix)
    scaled = [over_common_denominator(row) for row in matrix]
    scales = [scale for _, scale in scaled]
    rows = [
        nums + [int(i == j) for j in range(k)] for i, (nums, _) in enumerate(scaled)
    ]

    prev = 1
    for col in range(k):
        pivot_row = next((r for r in range(col, k) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrix(f"matrix is singular at column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        top = rows[col]
        pivot = top[col]
        for r in range(k):
            if r != col:
                f = rows[r][col]
                rows[r] = [(pivot * b - f * p) // prev for b, p in zip(rows[r], top)]
        prev = pivot

    return tuple(
        tuple(Fraction(x * scale, prev) for x, scale in zip(row[k:], scales))
        for row in rows
    )
