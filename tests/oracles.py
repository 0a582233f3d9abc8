"""Independent oracles used by the test suite.

Deliberately kept separate from the production code paths they check:
the adjugate/determinant inverse only works for 3x3 matrices, the
Gauss-Jordan inverse works over Fractions rather than integers, the phase
vectors come from the closed symbolic forms rather than repeated vector
multiplication, random parameter triples are generated from seeded
integer draws so every run sees the same cases, the simulation report
is rebuilt with ``Counter``s from one ``sample_trajectory`` call per index
rather than by the simulator's own fold, its standard error taken from the
exact ``Fraction`` deviations about the exact mean rather than from integer
sums of lengths and squared lengths, and the ``estimate`` and
``library-efficiency`` payloads are rebuilt the multi-pass way, from one
``Trajectory`` per walk and one walk over the episodes per aggregate, with
the R3 exits counted transition by transition. The sampler's draws are
tested against the exact chain with a G or Pearson statistic, whose
chi-squared tail is taken in closed form, and the law of the completion
phase comes from the engine's exact ``evolve``.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from fractions import Fraction
from statistics import fmean

from cbrchain import (
    CbrParameters,
    ProbabilityVector,
    SimulationReport,
    Trajectory,
    cbr_transition_matrix,
    derive_trajectory_seed,
    evolve,
    mean_phases,
    sample_trajectory,
)
from cbrchain.errors import (
    CbrChainError,
    EmptyEpisode,
    EmptyLibrary,
    NoR3Observations,
    SingularMatrix,
)

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
    it ends in an absorbing state. The standard error is the root of the sum
    of the exact squared deviations about the exact mean over n(n - 1). Keys
    are ordered by state index, as the simulator orders them, so reprs and
    JSON can be compared byte for byte.
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
    standard_error = None
    if len(lengths) >= 2:
        mean = Fraction(sum(lengths), len(lengths))
        deviations = sum((n - mean) ** 2 for n in lengths)
        standard_error = math.sqrt(deviations / (len(lengths) * (len(lengths) - 1)))
    return SimulationReport(
        config=cfg,
        start=start,
        phases_of_interest=phases,
        absorbed_count=len(lengths),
        censored_count=censored,
        empirical_mean_steps=fmean(lengths) if lengths else None,
        standard_error=standard_error,
        empirical_phase_distributions=distributions,
        transition_counts=transition_counts,
    )


def g_statistic(observed, expected) -> float:
    """The likelihood-ratio statistic G = 2 * sum(O * ln(O / E)) over the
    cells; a cell observed 0 times adds nothing."""
    return 2 * math.fsum(o * math.log(o / e) for o, e in zip(observed, expected) if o)


def chi2_tail(x: float, df: int) -> float:
    """P(X > x) for X chi-squared with ``df`` degrees of freedom, df = 1 or even.

    For df = 1 it is erfc(sqrt(x / 2)); for df = 2k it is the Poisson sum
    e^(-x/2) * sum over i < k of (x/2)^i / i!, each term taken in logs so
    that neither factor overflows at hundreds of degrees of freedom.
    """
    if df == 1:
        return math.erfc(math.sqrt(x / 2))
    if df < 2 or df % 2:
        raise ValueError(f"no closed form here for {df} degrees of freedom")
    if x == 0:
        return 1.0
    half = x / 2
    return math.fsum(
        math.exp(i * math.log(half) - half - math.lgamma(i + 1))
        for i in range(df // 2)
    )


def completion_law(p: CbrParameters, phases: int) -> list[Fraction]:
    """P(T = n) for n = 0..``phases``, T the phase at which a walk from R1
    first reaches R4: p34 times P_(n-1)(R3), from the exact evolution."""
    m = cbr_transition_matrix(p)
    r3 = m.index("R3")
    vectors = evolve(ProbabilityVector.point(m.states, "R1"), m, phases - 1)
    return [ZERO] + [p.p34 * v.probs[r3] for v in vectors]


def reference_walks(text: str):
    """(line number, labels) of each walk line of the trajectory text format.

    Lines end at LF, CRLF or CR only; every other whitespace separates labels.
    """
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, [label for label in re.split(r"[,\s]+", stripped) if label]


def reference_first_error(text: str):
    """The class and message of the first invalid walk's error, or None.

    The message is the ``Trajectory`` error's, after ``line N: ``.
    """
    for lineno, labels in reference_walks(text):
        try:
            Trajectory(tuple(labels))
        except CbrChainError as exc:
            return type(exc), f"line {lineno}: {exc}"
    return None


def reference_exits(walks) -> Counter:
    """R3 exits by target over the given label sequences, one transition at
    a time."""
    exits = Counter()
    for phases in walks:
        exits.update(b for a, b in zip(phases, phases[1:]) if a == "R3")
    return exits


def reference_estimate(text: str) -> dict:
    """The ``estimate`` payload, built from one ``Trajectory`` per walk."""
    walks = [Trajectory(tuple(labels)).phases for _, labels in reference_walks(text)]
    exits = reference_exits(walks)
    total = sum(exits.values())
    if total == 0:
        raise NoR3Observations("no exits from R3 were observed")
    params = CbrParameters(*(Fraction(exits[s], total) for s in ("R1", "R3", "R4")))
    absorbed = [w for w in walks if w[-1] == "R4"]
    payload = {
        "command": "estimate",
        "trajectories": len(walks),
        "absorbed_trajectories": len(absorbed),
        "observed_step_counts": [len(w) for w in absorbed],
        "r3_exit_counts": {s: exits[s] for s in ("R1", "R3", "R4")},
        "params": {"p31": params.p31, "p33": params.p33, "p34": params.p34},
    }
    if params.is_absorbing:
        t = closed_form_mean_phases(params)
        payload.update(mean_phases=t, completion_steps=t + 1)
    return payload


def reference_case_measure(case) -> Fraction:
    """A case's measure; a walk's comes from its own transition counts."""
    if case.measure is not None:
        return case.measure
    if case.params is not None:
        return mean_phases(case.params)
    exits = reference_exits([case.trajectory.phases])
    total = sum(exits.values())
    return mean_phases(
        CbrParameters(*(Fraction(exits[s], total) for s in ("R1", "R3", "R4")))
    )


def _reference_distinct(cases) -> list:
    seen = {}
    for case in cases:
        seen.setdefault(case.id, case)
    return list(seen.values())


def _reference_mean(values) -> Fraction:
    return sum(values, start=ZERO) / len(values)


def reference_flat_efficiency(lib) -> Fraction:
    cases = _reference_distinct(c for g in lib.episodes for c in g.all_cases())
    if not cases:
        raise EmptyLibrary("library contains no cases")
    return _reference_mean([reference_case_measure(c) for c in cases])


def reference_episode_efficiency(g) -> Fraction:
    cases = _reference_distinct(g.all_cases())
    if not cases:
        raise EmptyEpisode(f"episode {g.name!r} contains no cases")
    return _reference_mean([reference_case_measure(c) for c in cases])


def reference_system_efficiency(lib) -> Fraction:
    if not lib.episodes:
        raise EmptyLibrary("library contains no episodes")
    return _reference_mean([reference_episode_efficiency(g) for g in lib.episodes])


def reference_efficiency_trend(lib) -> list:
    cases = _reference_distinct(c for g in lib.episodes for c in g.all_cases())
    measures = [reference_case_measure(c) for c in cases]
    return [
        (c.id, _reference_mean(measures[: k + 1])) for k, c in enumerate(cases)
    ]


def reference_library_efficiency(lib) -> dict:
    """The ``library-efficiency`` payload, one walk over the episodes per
    aggregate, in the order the command computed them."""
    payload = {
        "command": "library-efficiency",
        "n": len(_reference_distinct(c for g in lib.episodes for c in g.all_cases())),
        "flat_efficiency": reference_flat_efficiency(lib),
        "system_efficiency": reference_system_efficiency(lib),
    }
    payload["episodes"] = [
        {
            "name": g.name,
            "efficiency": reference_episode_efficiency(g),
            "cases": {
                c.id: reference_case_measure(c)
                for c in _reference_distinct(g.all_cases())
            },
        }
        for g in lib.episodes
    ]
    return payload
