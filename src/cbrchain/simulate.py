"""Seeded Monte Carlo sampling of finite chains.

Cross-validates the exact analytics: empirical completion steps against the
closed form, empirical phase frequencies against the evolved distributions,
and observed exit counts against the generating parameters.

Reproducibility contract: the per-trajectory seed is a SHA-256 hash of the
master seed and the trajectory index, and each trajectory is drawn from its
own Mersenne Twister stream seeded with that hash. Results are therefore
bit-identical across runs and independent of execution order.
``sample_trajectory``, ``iter_trajectories`` and ``run_simulation`` share
one walk, which converts each row to cumulative floating-point weights once;
the final positive bucket of each row absorbs rounding residue so sampling
can never fall off the end or select a zero-probability state.
``run_simulation`` folds each walk into plain integer tallies built once per
run (a count per state at each phase of interest, a count per positive
target of each row) and turns them into the report at the end.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from statistics import fmean, stdev

from .errors import InvalidSimulationConfig, StepBudgetExceeded, UnknownStartState
from .markov import ONE, TransitionMatrix

DEFAULT_MAX_PHASES = 10**6

#: The most walk steps a run may be expected to take (see
#: :func:`check_step_budget`). The walk draws about 2.5 million steps a
#: second on long walks and about half a million on walks of eight phases,
#: where per-walk set-up dominates (Python 3.11, 2-vCPU host), so an
#: accepted run takes one to a few minutes. A chain that cannot absorb, run
#: at the defaults, would need 10^11 steps, about 11 hours.
STEP_BUDGET = 10**8


def _require_int(name: str, value) -> None:
    """Reject floats, strings and ``bool`` where an integer count is due."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSimulationConfig(
            f"{name} must be an integer, not {type(value).__name__} {value!r}"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Master seed, sample count, and the truncation guard."""

    seed: int
    num_trajectories: int
    max_phases: int = DEFAULT_MAX_PHASES

    def __post_init__(self):
        for name in ("seed", "num_trajectories", "max_phases"):
            _require_int(name, getattr(self, name))
        if not 0 <= self.seed < 2**64:
            raise InvalidSimulationConfig("seed must fit in an unsigned 64-bit integer")
        if self.num_trajectories < 1:
            raise InvalidSimulationConfig("num_trajectories must be at least 1")
        if self.max_phases < 1:
            raise InvalidSimulationConfig("max_phases must be at least 1")


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Aggregate statistics over the sampled trajectories.

    ``empirical_mean_steps`` is the mean trajectory length in phases,
    absorption included (so it estimates t + 1); censored trajectories are
    excluded from it and reported separately, never silently dropped.
    ``standard_error`` is absent when fewer than two trajectories absorbed.
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

    @property
    def r3_exit_counts(self) -> dict[str, int]:
        """Observed transition counts out of state R3, when the chain has one."""
        return dict(self.transition_counts.get("R3", {}))

    def to_dict(self) -> dict:
        return {
            "config": {
                "seed": self.config.seed,
                "num_trajectories": self.config.num_trajectories,
                "max_phases": self.config.max_phases,
            },
            "start": self.start,
            "phases_of_interest": list(self.phases_of_interest),
            "absorbed_count": self.absorbed_count,
            "censored_count": self.censored_count,
            "empirical_mean_steps": self.empirical_mean_steps,
            "standard_error": self.standard_error,
            "empirical_phase_distributions": {
                str(phase): {s: freq for s, freq in sorted(dist.items())}
                for phase, dist in sorted(self.empirical_phase_distributions.items())
            },
            "transition_counts": {
                src: {dst: n for dst, n in sorted(row.items())}
                for src, row in sorted(self.transition_counts.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


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
    """Deterministic per-trajectory seed: SHA-256 of (master seed, index)."""
    digest = hashlib.sha256(
        seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:16], "big")


def _walker(m: TransitionMatrix, start: str, max_phases: int):
    """The one sampling walk over ``m`` from ``start``.

    Checks the start state once and builds each row's positive targets and
    cumulative float weights once (``None`` marks an absorbing row). Returns
    ``walk(seed)``, which draws one path of state indexes from a fresh
    ``random.Random(seed)`` and says whether it was absorbed within
    ``max_phases`` phases.
    """
    if start not in m.states:
        raise UnknownStartState(start)
    start_index = m.index(start)
    rows: list[tuple[list[int], list[float]] | None] = []
    for i, row in enumerate(m.entries):
        targets = [j for j, p in enumerate(row) if p > 0]
        cum = list(accumulate(float(row[j]) for j in targets))
        cum[-1] = 1.0  # last positive bucket takes the rounding residue
        rows.append(None if row[i] == ONE else (targets, cum))

    def walk(seed: int) -> tuple[list[int], bool]:
        draw = random.Random(seed).random
        path = [start_index]
        row = rows[start_index]
        for _ in range(max_phases):
            if row is None:
                break
            targets, cum = row
            current = targets[bisect_right(cum, draw())]
            path.append(current)
            row = rows[current]
        return path, row is None

    return walk


def sample_trajectory(
    m: TransitionMatrix,
    start: str,
    seed: int,
    max_phases: int = DEFAULT_MAX_PHASES,
) -> list[str]:
    """Sample one path from ``start``, stopping at absorption or ``max_phases``.

    ``seed`` is the per-trajectory seed (see :func:`derive_trajectory_seed`);
    identical inputs always produce the identical path.
    """
    path, _ = _walker(m, start, max_phases)(seed)
    return [m.states[i] for i in path]


def iter_trajectories(
    m: TransitionMatrix, start: str, cfg: SimulationConfig
) -> Iterator[list[str]]:
    """The paths of trajectories ``0..cfg.num_trajectories-1``, in index order.

    Path ``i`` is ``sample_trajectory(m, start, derive_trajectory_seed(cfg.seed,
    i), cfg.max_phases)``, but the walk's tables are built once for all of
    them. The start state is checked before the first path is drawn.
    """
    walk = _walker(m, start, cfg.max_phases)
    states = m.states
    return (
        [states[j] for j in walk(derive_trajectory_seed(cfg.seed, i))[0]]
        for i in range(cfg.num_trajectories)
    )


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
    walk = _walker(m, start, cfg.max_phases)
    requested = tuple(phases_of_interest)
    for k in requested:
        _require_int("phase of interest", k)
        if not 0 <= k <= cfg.max_phases:
            raise InvalidSimulationConfig(
                f"phase of interest {k} outside [0, max_phases={cfg.max_phases}]"
            )
    phases = tuple(sorted(set(requested)))

    lengths: list[int] = []
    censored = 0
    # Plain integer tallies: per phase of interest, a count per state index;
    # per source state, a count per positive target.
    at_phase = [(k, [0] * len(m.states)) for k in phases]
    pairs = [
        dict.fromkeys((j for j, p in enumerate(row) if p > 0), 0) for row in m.entries
    ]

    for i in range(cfg.num_trajectories):
        path, absorbed = walk(derive_trajectory_seed(cfg.seed, i))
        if absorbed:
            lengths.append(len(path))
        else:
            censored += 1
        last = len(path) - 1
        for k, counts in at_phase:
            # Beyond absorption the chain sits in its absorbing state; a
            # censored path always covers phases 0..max_phases itself.
            counts[path[k if k < last else last]] += 1
        a = path[0]
        for b in path[1:]:
            pairs[a][b] += 1
            a = b

    mean = fmean(lengths) if lengths else None
    se = stdev(lengths) / math.sqrt(len(lengths)) if len(lengths) >= 2 else None

    distributions = {
        k: {
            m.states[j]: count / cfg.num_trajectories
            for j, count in enumerate(counts)
            if count
        }
        for k, counts in at_phase
    }
    transition_counts: dict[str, dict[str, int]] = {}
    for a, row in enumerate(pairs):
        observed = {m.states[b]: count for b, count in row.items() if count}
        if observed:
            transition_counts[m.states[a]] = observed

    return SimulationReport(
        config=cfg,
        start=start,
        phases_of_interest=phases,
        absorbed_count=len(lengths),
        censored_count=censored,
        empirical_mean_steps=mean,
        standard_error=se,
        empirical_phase_distributions=distributions,
        transition_counts=transition_counts,
    )
