"""Seeded Monte Carlo sampling of finite chains.

Cross-validates the exact analytics: empirical completion steps against the
closed form, empirical phase frequencies against the evolved distributions,
and observed exit counts against the generating parameters.

Reproducibility contract: the per-trajectory seed is a SHA-256 hash of the
master seed and the trajectory index, and each trajectory is drawn from its
own Mersenne Twister stream seeded with that hash. Results are therefore
bit-identical across runs and independent of execution order.
``sample_trajectory`` and ``iter_trajectories`` return their paths through
``_paths``, and it and ``run_simulation`` share one walk (``_walker``).
Every float the walk compares a draw against is an exact rational rounded
once to the nearest, and sampling calls no libm function, so the same seed
gives the same walks on every platform.
``run_simulation`` may fold a large run over contiguous index ranges, one
per usable CPU (``_ranges``); every tally is an integer sum over its walks,
so the merged report is the same for any split. Throughputs quoted here
are per core.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import accumulate

# The interpreter's built-in SHA-256 gives the same digests as hashlib's
# without loading OpenSSL's libcrypto, about 3.6 MiB of resident memory in
# every CLI launch (Python 3.11, Linux).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# Each walk draws from the C Mersenne Twister that ``random.Random``
# subclasses: for an int seed it gives the same stream, and it is built
# without the subclass's Python-level ``__init__`` and ``seed``. ``random``
# itself imports ``_random``, so no interpreter has the one without the other.
import _random as random

from . import DEFAULT_MAX_PHASES
from ._ranges import in_ranges, split
from .errors import (
    InvalidSimulationConfig,
    StepBudgetExceeded,
    UnknownStartState,
    _describe,
)
from .markov import TransitionMatrix

#: The most walk steps a run may be expected to take (see
#: :func:`check_step_budget`). The rates below are per core; a run split
#: over forked workers takes up to their number less time. A self-loop run
#: costs a draw whatever its length, so the walk takes about 4.5 million
#: steps a second at p31 = 1/10, p33 = 89/100, where nine steps in ten are
#: self-loops, and about 7 million at p31 = 1/100, p33 = 98/100. It takes
#: about 3.5 million on long walks without self-loops (p31 = 99/100,
#: p33 = 0), and about half a million on walks of eight phases, where
#: per-walk set-up dominates (Python 3.11, 2-vCPU host), so an accepted run
#: takes half a minute to a few minutes on one core. A chain that cannot
#: absorb, run at the defaults, would need 10^11 steps, about 7 hours at
#: p31 = p33 = 1/2.
STEP_BUDGET = 10**8

#: The self-loop stays one draw can decide; a longer run draws again.
_RUN_SPAN = 64

#: The fewest walks ``run_simulation`` gives a range of its own (see
#: :func:`_ranges.split`). A fork, its pipe and its exit cost about what 250
#: eight-phase walks do in a 17 MiB process, and about what 1000 do in a
#: 350 MiB one, so two ranges of 2000 walks take about 0.6 and 0.7 of one
#: range's time (Python 3.11, 2-vCPU host).
_MIN_RANGE_WALKS = 2000


def _require_int(name: str, value, least: int | None = None) -> None:
    """Reject floats, strings and ``bool`` where an integer count is due,
    and, when ``least`` is given, a count below it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSimulationConfig(
            f"{name} must be an integer, not {type(value).__name__} {value!r}"
        )
    if least is not None and value < least:
        raise InvalidSimulationConfig(f"{name} must be at least {least}")


@dataclass(frozen=True)
class SimulationConfig:
    """Master seed, sample count, and the truncation guard."""

    seed: int
    num_trajectories: int
    max_phases: int = DEFAULT_MAX_PHASES

    def __post_init__(self):
        _require_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise InvalidSimulationConfig("seed must fit in an unsigned 64-bit integer")
        _require_int("num_trajectories", self.num_trajectories, least=1)
        _require_int("max_phases", self.max_phases, least=1)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Aggregate statistics over the sampled trajectories.

    ``empirical_mean_steps`` is the mean trajectory length in phases,
    absorption included (so it estimates t + 1); censored trajectories are
    excluded from it and reported separately, never silently dropped.
    With A absorbed trajectories of lengths n_i, S1 = sum(n_i) and
    S2 = sum(n_i**2), the mean is S1 / A and ``standard_error`` is
    ``sqrt((A*S2 - S1**2) / (A**2 * (A - 1)))``: the sample standard
    deviation over sqrt(A), from one exact integer quotient and one square
    root, each correctly rounded, so it is the same on every Python. It is
    absent when fewer than two trajectories absorbed.
    """

    config: SimulationConfig
    start: str
    phases_of_interest: tuple[int, ...]
    absorbed_count: int
    censored_count: int
    empirical_mean_steps: float | None
    standard_error: float | None
    empirical_phase_distributions: dict[int, dict[str, float]]
    transition_counts: dict[str, dict[str, int]]

    def to_dict(self) -> dict:
        # The fields in order, copied shallowly: asdict(self) would also
        # deep-copy every distribution.
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(
            config=asdict(self.config),
            phases_of_interest=list(self.phases_of_interest),
            empirical_phase_distributions={
                str(phase): dict(sorted(dist.items()))
                for phase, dist in sorted(self.empirical_phase_distributions.items())
            },
            transition_counts={
                src: dict(sorted(row.items()))
                for src, row in sorted(self.transition_counts.items())
            },
        )
        return d


def check_step_budget(cfg: SimulationConfig, mean_length: Fraction | None) -> None:
    """Refuse, before any walk is drawn, a run expected to exceed ``STEP_BUDGET``.

    ``mean_length`` is the mean length of a walk from the start state,
    absorption included (``t + 1``), or None when the start cannot reach an
    absorbing state, so that every walk runs to ``cfg.max_phases``. A walk
    cut at ``max_phases`` is on average no longer than either, so the run's
    expected steps are at most ``num_trajectories * min(mean_length,
    max_phases)``. Raises StepBudgetExceeded when that bound is over the
    budget.
    """
    per_walk = cfg.max_phases
    if mean_length is not None:
        per_walk = min(mean_length, per_walk)
    bound = cfg.num_trajectories * per_walk
    if bound > STEP_BUDGET:
        raise StepBudgetExceeded(cfg.num_trajectories, math.ceil(bound), STEP_BUDGET)


def derive_trajectory_seed(seed: int, index: int) -> int:
    """Deterministic per-trajectory seed: SHA-256 of (master seed, index).

    Raises InvalidSimulationConfig unless ``seed`` and ``index`` are each an
    ``int`` (not a ``bool``) in [0, 2**64).
    """
    try:
        if isinstance(seed, bool) or isinstance(index, bool):
            raise TypeError("a bool is not a seed or an index")
        key = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    except (AttributeError, OverflowError, TypeError) as exc:
        raise InvalidSimulationConfig(
            "seed and index must each be an unsigned 64-bit integer, "
            f"not {_describe(seed)} and {_describe(index)}"
        ) from exc
    digest = sha256(key).digest()
    return int.from_bytes(digest[:16], "big")


def _run_table(q: Fraction) -> list[float]:
    """``float(q**n)`` for n = ``_RUN_SPAN`` down to 1, in ascending order.

    Each is the correctly rounded quotient of the exact integers
    ``q.numerator**n`` and ``q.denominator**n``, as ``Fraction.__float__``
    converts ``q**n``, but taken from running products, which costs about a
    tenth as much as ``_RUN_SPAN`` powers of a ``Fraction``.
    """
    num = den = 1
    table = []
    for _ in range(_RUN_SPAN):
        num *= q.numerator
        den *= q.denominator
        table.append(num / den)
    table.reverse()
    return table


def _walker(m: TransitionMatrix, start: str, max_phases: int):
    """The one sampling walk over ``m`` from ``start``.

    Checks the start state once and builds each row once (``None`` marks an
    absorbing row) from its exact entries. With q = m_ii its self-loop, a
    row keeps:

    - its positive successors other than itself;
    - the float cumulative weights of their conditional probabilities
      m_ij / (1 - q), or ``None`` when there is one successor;
    - when q > 0, its run table ``float(q**_RUN_SPAN), ..., float(q**1)``,
      in ascending order, or ``None``;
    - a tally per successor and, last, one of its stays.

    Each weight and threshold is an exact rational rounded once to the
    nearest float. The last weight's exact sum is 1, so it converts to 1.0
    and no draw falls off the end. Returns ``walk`` and the rows.

    ``walk(seed, keep)`` draws one walk from a fresh ``random.Random(seed)``
    and adds its transitions to the rows' tallies as it goes. It returns the
    first ``keep`` phases of the path of state indexes, the walk's last
    phase, and whether it was absorbed within ``max_phases`` phases. A visit
    to a row draws its run of stays first: a draw u gives
    ``_RUN_SPAN - bisect_right(table, u)`` stays, the number of n with
    u < float(q**n). A draw below ``float(q**_RUN_SPAN)`` gives
    ``_RUN_SPAN`` and draws again, as the rest of the run is again
    geometric. One more draw picks the exit by ``bisect_right`` over the
    weights; a row with one successor draws nothing for it. A run cut at
    ``max_phases`` with d + 1 visits tallies d stays and draws no exit.
    """
    if start not in m.states:
        raise UnknownStartState(start)
    start_index = m.index(start)
    rows: list[tuple | None] = []
    for i, row in enumerate(m.entries):
        q = row[i]
        if q == 1:
            rows.append(None)
            continue
        exits = [j for j, p in enumerate(row) if p > 0 and j != i]
        weights = None
        if len(exits) > 1:
            weights = [float(c / (1 - q)) for c in accumulate(row[j] for j in exits)]
        table = _run_table(q) if q else None
        rows.append((exits, weights, table, [0] * (len(exits) + 1)))

    def walk(seed: int, keep: int) -> tuple[list[int], int, bool]:
        draw = random.Random(seed).random
        state = start_index
        path = [state]
        row = rows[state]
        phase = 0
        while row is not None and phase < max_phases:
            exits, weights, table, tallies = row
            if table is not None:
                stays = more = _RUN_SPAN - bisect_right(table, draw())
                while more == _RUN_SPAN and phase + stays < max_phases:
                    more = _RUN_SPAN - bisect_right(table, draw())
                    stays += more
                if stays:
                    if phase + 1 < keep:  # keep <= max_phases + 1 bounds a cut run
                        path += [state] * (min(phase + stays + 1, keep) - phase - 1)
                    if phase + stays >= max_phases:  # cut inside the run
                        tallies[-1] += max_phases - phase
                        phase = max_phases
                        break
                    phase += stays
                    tallies[-1] += stays
            phase += 1
            j = bisect_right(weights, draw()) if weights else 0
            tallies[j] += 1
            state = exits[j]
            if phase < keep:
                path.append(state)
            row = rows[state]
        return path, phase, row is None

    return walk, rows


def sample_trajectory(
    m: TransitionMatrix,
    start: str,
    seed: int,
    max_phases: int = DEFAULT_MAX_PHASES,
) -> list[str]:
    """Sample one path from ``start``, stopping at absorption or ``max_phases``.

    ``seed`` is the per-trajectory seed (see :func:`derive_trajectory_seed`),
    a non-negative ``int``: ``random.Random`` would draw the same path for
    ``-s`` as for ``s`` and hash a ``str`` or ``float``, so any other seed
    raises InvalidSimulationConfig. Identical inputs always produce the
    identical path.
    """
    _require_int("seed", seed, least=0)
    _require_int("max_phases", max_phases, least=1)
    return next(_paths(m, start, max_phases, [seed]))


def iter_trajectories(
    m: TransitionMatrix, start: str, cfg: SimulationConfig
) -> Iterator[list[str]]:
    """The paths of trajectories ``0..cfg.num_trajectories-1``, in index order.

    Path ``i`` is ``sample_trajectory(m, start, derive_trajectory_seed(cfg.seed,
    i), cfg.max_phases)``, but the walk's tables are built once for all of
    them. The start state is checked before the first path is drawn.
    """
    seeds = (derive_trajectory_seed(cfg.seed, i) for i in range(cfg.num_trajectories))
    return _paths(m, start, cfg.max_phases, seeds)


def _paths(m: TransitionMatrix, start: str, max_phases: int, seeds) -> Iterator[list[str]]:
    """The labels of the whole walk from ``start`` for each of ``seeds``.

    The walk is built, and the start state checked, when this is called,
    before the first path is drawn.
    """
    walk, _ = _walker(m, start, max_phases)
    states = m.states
    return ([states[j] for j in walk(seed, max_phases + 1)[0]] for seed in seeds)


def run_simulation(
    m: TransitionMatrix,
    start: str,
    cfg: SimulationConfig,
    phases_of_interest=(),
) -> SimulationReport:
    """Sample ``cfg.num_trajectories`` paths and aggregate their statistics.

    Per-trajectory seeds are derived from ``cfg.seed`` and the trajectory
    index, so the report is identical no matter how the work is ordered.
    """
    _, rows = _walker(m, start, cfg.max_phases)  # checks the start state
    requested = tuple(phases_of_interest)
    for k in requested:
        _require_int("phase of interest", k)
        if not 0 <= k <= cfg.max_phases:
            raise InvalidSimulationConfig(
                f"phase of interest {_describe(k)} outside "
                f"[0, max_phases={_describe(cfg.max_phases)}]"
            )
    phases = tuple(sorted(set(requested)))
    keep = phases[-1] + 1 if phases else 1

    # One range's parts, all integers: the absorbed walks, their steps and
    # their squared steps; per phase of interest k, a count per state index
    # of the walks whose last phase is after k; per k, one of the walks
    # whose last phase is at or before k and after the previous phase of
    # interest: those sit in their last state at k and at every later
    # phase, so the loop counts each walk at most its own length plus one
    # times; and per row, the transitions the walk tallied into it (none
    # for an absorbing row).
    n_states = len(m.states)

    def fold(lo: int, hi: int) -> list[list[int]]:
        walk, rows = _walker(m, start, cfg.max_phases)  # tallies of this range alone
        absorbed = steps = squares = 0
        at_phase = [(k, [0] * n_states, [0] * n_states) for k in phases]
        seed = cfg.seed
        for i in range(lo, hi):
            path, last, done = walk(derive_trajectory_seed(seed, i), keep)
            if done:
                absorbed += 1
                steps += last + 1
                squares += (last + 1) ** 2
            for k, counts, ended in at_phase:
                if k >= last:
                    # From phase last on the walk sits in path[last], which
                    # the walk keeps whenever a phase of interest is at or
                    # after it.
                    ended[path[last]] += 1
                    break
                counts[path[k]] += 1
        return [
            [absorbed, steps, squares],
            *(counts for _, counts, _ in at_phase),
            *(ended for _, _, ended in at_phase),
            *([] if row is None else row[3] for row in rows),
        ]

    folds = in_ranges(fold, split(range(1, cfg.num_trajectories + 1), _MIN_RANGE_WALKS))
    # One range's parts are the sums already; adding up one would cost
    # 0.3 s at 10^5 phases.
    sums = folds[0] if len(folds) == 1 else [list(map(sum, zip(*each))) for each in zip(*folds)]
    (absorbed, steps, squares), *parts = sums
    p = len(phases)
    at_phase = zip(phases, parts[:p], parts[p : 2 * p])
    tallies = parts[2 * p :]

    # absorbed * (absorbed - 1) times the sample variance, an exact integer
    spread = absorbed * squares - steps**2
    se = math.sqrt(spread / (absorbed**2 * (absorbed - 1))) if absorbed >= 2 else None

    distributions = {}
    settled = [0] * n_states  # walks ended at or before the phase
    for k, counts, ended in at_phase:
        settled = [a + b for a, b in zip(settled, ended)]
        distributions[k] = {
            m.states[j]: (count + before) / cfg.num_trajectories
            for j, (count, before) in enumerate(zip(counts, settled))
            if count + before
        }
    transition_counts: dict[str, dict[str, int]] = {}
    for a, (row, tally) in enumerate(zip(rows, tallies)):
        if row is None:
            continue
        observed = {m.states[b]: n for b, n in sorted(zip([*row[0], a], tally)) if n}
        if observed:
            transition_counts[m.states[a]] = observed

    return SimulationReport(
        config=cfg,
        start=start,
        phases_of_interest=phases,
        absorbed_count=absorbed,
        censored_count=cfg.num_trajectories - absorbed,
        empirical_mean_steps=steps / absorbed if absorbed else None,
        standard_error=se,
        empirical_phase_distributions=distributions,
        transition_counts=transition_counts,
    )
