"""Independent oracles used by the test suite.

Deliberately kept separate from the production code paths they check:
the adjugate/determinant inverse only works for 3x3 matrices, the
Gauss-Jordan inverse works over Fractions rather than integers, the phase
vectors come from the closed symbolic forms rather than repeated vector
multiplication, random parameter triples are generated from seeded
integer draws so every run sees the same cases, and the simulation report
is rebuilt with ``Counter``s from one ``sample_trajectory`` call per index
rather than by the simulator's own fold.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from statistics import fmean, stdev

from cbrchain import (
    CbrParameters,
    SimulationReport,
    derive_trajectory_seed,
    sample_trajectory,
)
from cbrchain.errors import SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def adjugate_inverse_3x3(m):
    """Inverse via cofactor expansion; raises ZeroDivisionError if singular."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    cof = (
        (e * i - f * h, -(d * i - f * g), d * h - e * g),
        (-(b * i - c * h), a * i - c * g, -(a * h - b * g)),
        (b * f - c * e, -(a * f - c * d), a * e - b * d),
    )
    # adjugate = transpose of the cofactor matrix
    return tuple(
        tuple(cof[col][row] / det for col in range(3)) for row in range(3)
    )


def gauss_jordan_inverse(matrix):
    """Gauss-Jordan inversion with partial pivoting over Fractions.

    The textbook algorithm, one Fraction operation per update; the engine's
    fraction-free integer elimination must agree with it exactly, down to
    the column a singular matrix is reported at.
    """
    k = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    inverse = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]

    for col in range(k):
        pivot_row = max(range(col, k), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == ZERO:
            raise SingularMatrix(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inverse[col], inverse[pivot_row] = inverse[pivot_row], inverse[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        inverse[col] = [v / pivot for v in inverse[col]]
        for r in range(k):
            if r == col:
                continue
            factor = work[r][col]
            if factor == ZERO:
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            inverse[r] = [a - factor * b for a, b in zip(inverse[r], inverse[col])]

    return tuple(tuple(row) for row in inverse)


def mat_mul(x, y):
    n, k, m = len(x), len(y), len(y[0])
    return tuple(
        tuple(
            sum((x[i][t] * y[t][j] for t in range(k)), start=ZERO)
            for j in range(m)
        )
        for i in range(n)
    )


def mat_identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def symbolic_phase_vectors(p: CbrParameters):
    """The closed symbolic forms of the first six phase distributions.

    P5's third component is p31 + p33**3, which is what makes the vector
    sum to exactly 1.
    """
    p31, p33, p34 = p.p31, p.p33, p.p34
    return [
        (ONE, ZERO, ZERO, ZERO),
        (ZERO, ONE, ZERO, ZERO),
        (ZERO, ZERO, ONE, ZERO),
        (p31, ZERO, p33, p34),
        (p33 * p31, p31, p33**2, p34 * (p33 + 1)),
        (
            p33**2 * p31,
            p33 * p31,
            p31 + p33**3,
            p34 * (p33**2 + p33 + 1),
        ),
    ]


def closed_form_mean_phases(p: CbrParameters) -> Fraction:
    return (Fraction(3) - 2 * p.p33) / (ONE - p.p31 - p.p33)


def random_triples(seed: int, count: int, min_p34=ZERO, max_part: int = 40):
    """Seeded stream of valid parameter triples with p34 >= min_p34.

    Triples are built from non-negative integer weights, so each one sums
    to exactly 1 by construction.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        a = rng.randint(0, max_part)
        b = rng.randint(0, max_part)
        c = rng.randint(0, max_part)
        total = a + b + c
        if total == 0:
            continue
        p34 = Fraction(c, total)
        if p34 < min_p34:
            continue
        yield CbrParameters(Fraction(a, total), Fraction(b, total), p34)
        produced += 1


def gambler_matrix():
    """Fair-coin ruin chain on {0, 1, 2} with both endpoints absorbing."""
    half = Fraction(1, 2)
    states = ("0", "1", "2")
    rows = (
        (ONE, ZERO, ZERO),
        (half, ZERO, half),
        (ZERO, ZERO, ONE),
    )
    return states, rows


def reference_simulation(m, start, cfg, phases_of_interest=()):
    """The simulation report, folded with ``Counter``s over ``sample_trajectory``.

    Each index's path is drawn on its own, and a path counts as absorbed when
    it ends in an absorbing state. Keys are ordered by state index, as the
    simulator orders them, so reprs and JSON can be compared byte for byte.
    """
    phases = tuple(sorted(set(phases_of_interest)))
    lengths = []
    censored = 0
    phase_counts = {k: Counter() for k in phases}
    transitions = Counter()
    for i in range(cfg.num_trajectories):
        labels = sample_trajectory(
            m, start, derive_trajectory_seed(cfg.seed, i), cfg.max_phases
        )
        path = [m.index(label) for label in labels]
        if m.entries[path[-1]][path[-1]] == ONE:
            lengths.append(len(path))
        else:
            censored += 1
        for k in phases:
            phase_counts[k][path[k] if k < len(path) else path[-1]] += 1
        transitions.update(zip(path, path[1:]))

    distributions = {
        k: {m.states[j]: counter[j] / cfg.num_trajectories for j in sorted(counter)}
        for k, counter in phase_counts.items()
    }
    transition_counts = {}
    for (a, b), count in sorted(transitions.items()):
        transition_counts.setdefault(m.states[a], {})[m.states[b]] = count
    return SimulationReport(
        config=cfg,
        start=start,
        phases_of_interest=phases,
        absorbed_count=len(lengths),
        censored_count=censored,
        empirical_mean_steps=fmean(lengths) if lengths else None,
        standard_error=(
            stdev(lengths) / math.sqrt(len(lengths)) if len(lengths) >= 2 else None
        ),
        empirical_phase_distributions=distributions,
        transition_counts=transition_counts,
    )
