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
can never fall off the end or select a zero-probability state. The walk
makes one draw per step and walks a self-loop as a run, comparing each draw
with the row's own bucket only, so its paths are those of a bucket search
per step. It tallies transitions per positive target of each row as it
goes; ``run_simulation`` adds a count per state at each phase of interest,
reading only those phases of each path, and turns the tallies into the
report at the end.
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
#: :func:`check_step_budget`). The walk takes about 3.5 million steps a
#: second on walks that are nine tenths self-loops (p31 = 1/10,
#: p33 = 89/100), about 2.5 million on long walks without self-loops, and
#: about half a million on walks of eight phases, where per-walk set-up
#: dominates (Python 3.11, 2-vCPU host), so an accepted run takes one to a
#: few minutes. A chain that cannot absorb, run at the defaults, would need
#: 10^11 steps, about 11 hours.
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
    try:
        key = seed.to_bytes(8, "big") + index.to_bytes(8, "big")
    except OverflowError as exc:
        raise InvalidSimulationConfig(
            "seed and index must each fit in an unsigned 64-bit integer"
        ) from exc
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:16], "big")


def _walker(m: TransitionMatrix, start: str, max_phases: int):
    """The one sampling walk over ``m`` from ``start``.

    Checks the start state once and builds each row once (``None`` marks an
    absorbing row): its positive targets, their cumulative float weights, its
    own self-loop bucket ``[lo, hi)`` and the index of that target, and a
    transition count per target. Returns ``walk`` and the rows.

    ``walk(seed, keep)`` draws one walk from a fresh ``random.Random(seed)``,
    one draw per step, and adds its transitions to the rows' counts as it
    goes. It returns the first ``keep`` phases of the path of state indexes,
    the walk's last phase, and whether it was absorbed within ``max_phases``
    phases. A draw falls in ``[lo, hi)`` exactly when ``bisect_right`` would
    send it back to the same state, so a run of self-loops is walked in an
    inner loop that only compares each draw with the bucket and tallies the
    run once; the draw that leaves the run picks its target as any step does.
    The bucket is empty when the row has no self-loop or its float width is 0.
    """
    if start not in m.states:
        raise UnknownStartState(start)
    start_index = m.index(start)
    rows: list[tuple | None] = []
    for i, row in enumerate(m.entries):
        if row[i] == ONE:
            rows.append(None)
            continue
        targets = [j for j, p in enumerate(row) if p > 0]
        cum = list(accumulate(float(row[j]) for j in targets))
        cum[-1] = 1.0  # last positive bucket takes the rounding residue
        if i in targets:
            loop = targets.index(i)
            lo, hi = cum[loop - 1] if loop else 0.0, cum[loop]
        else:
            loop, lo, hi = -1, 1.0, 1.0  # no draw reaches 1.0
        # A row with one successor still draws, but needs no search.
        search = cum if len(cum) > 1 else []
        rows.append((targets, search, lo, hi, loop, [0] * len(targets)))

    def walk(seed: int, keep: int) -> tuple[list[int], int, bool]:
        draw = random.Random(seed).random
        state = start_index
        path = [state]
        row = rows[state]
        phase = 0
        while row is not None and phase < max_phases:
            targets, cum, lo, hi, loop, counts = row
            phase += 1
            u = draw()
            if lo <= u < hi:  # a run of self-loops, tallied once
                first = phase
                while phase < max_phases:
                    u = draw()
                    if not lo <= u < hi:
                        break
                    phase += 1
                counts[loop] += phase - first + 1
                if first < keep:
                    path += [state] * (min(phase + 1, keep) - first)
                if phase == max_phases:  # censored inside the run
                    break
                phase += 1
            j = bisect_right(cum, u) if cum else 0
            counts[j] += 1
            state = targets[j]
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

    ``seed`` is the per-trajectory seed (see :func:`derive_trajectory_seed`);
    identical inputs always produce the identical path.
    """
    _require_int("max_phases", max_phases)
    if max_phases < 1:
        raise InvalidSimulationConfig("max_phases must be at least 1")
    path, _, _ = _walker(m, start, max_phases)[0](seed, max_phases + 1)
    return [m.states[i] for i in path]


def iter_trajectories(
    m: TransitionMatrix, start: str, cfg: SimulationConfig
) -> Iterator[list[str]]:
    """The paths of trajectories ``0..cfg.num_trajectories-1``, in index order.

    Path ``i`` is ``sample_trajectory(m, start, derive_trajectory_seed(cfg.seed,
    i), cfg.max_phases)``, but the walk's tables are built once for all of
    them. The start state is checked before the first path is drawn.
    """
    walk, _ = _walker(m, start, cfg.max_phases)
    states = m.states
    keep = cfg.max_phases + 1
    return (
        [states[j] for j in walk(derive_trajectory_seed(cfg.seed, i), keep)[0]]
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
    walk, rows = _walker(m, start, cfg.max_phases)
    requested = tuple(phases_of_interest)
    for k in requested:
        _require_int("phase of interest", k)
        if not 0 <= k <= cfg.max_phases:
            raise InvalidSimulationConfig(
                f"phase of interest {k} outside [0, max_phases={cfg.max_phases}]"
            )
    phases = tuple(sorted(set(requested)))
    keep = phases[-1] + 1 if phases else 1

    lengths: list[int] = []
    censored = 0
    # Per phase of interest, a count per state index; the walk tallies the
    # transitions into its rows.
    at_phase = [(k, [0] * len(m.states)) for k in phases]

    for i in range(cfg.num_trajectories):
        path, last, absorbed = walk(derive_trajectory_seed(cfg.seed, i), keep)
        if absorbed:
            lengths.append(last + 1)
        else:
            censored += 1
        for k, counts in at_phase:
            # Beyond absorption the chain sits in its absorbing state. The
            # walk keeps phases 0..min(last, keep - 1), so path[last] exists
            # whenever k >= last.
            counts[path[k if k < last else last]] += 1

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
    for a, row in enumerate(rows):
        if row is None:
            continue
        targets, *_, counts = row
        observed = {m.states[b]: n for b, n in zip(targets, counts) if n}
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
