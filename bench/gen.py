"""Seeded input generators for the benchmark.

Standard library only, and independent of ``cbrchain``, so that the inputs
of a given seed stay the same whatever the program under test does. Every
generator draws from its own ``random.Random`` seeded with a string that
names the generator and the benchmark seed; exits are drawn exactly, as
integers over the common denominator of the exit probabilities.

Sizes are fixed and only the drawn content depends on the seed, so two
seeds give the same amount of work to within a fraction of a percent.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# R3 exit probabilities of generated walks: t + 1 = 8 completion steps.
WALK_P31 = Fraction(1, 3)
WALK_P33 = Fraction(1, 3)
# Walks in each hundred that are cut before R4.
WALK_CENSORED_PER_100 = 2
# Absorbing states of every generated chain.
CHAIN_ABSORBING = 3

_WALK_SEPARATORS = (" ", ",", ", ", "\t", " , ", "  ")


def draw_walk(rng: random.Random, p31: Fraction, p33: Fraction) -> list[str]:
    """One absorbed walk R1 R2 R3 ... R4 of the R1-R4 chain.

    Each exit from R3 is drawn exactly: an integer below the common
    denominator picks R1, R3 or R4 with probabilities p31, p33 and
    1 - p31 - p33.
    """
    den = p31.denominator * p33.denominator
    to_r1 = p31.numerator * p33.denominator
    to_r3 = to_r1 + p33.numerator * p31.denominator
    walk = ["R1", "R2", "R3"]
    while True:
        u = rng.randrange(den)
        if u < to_r1:
            walk += ["R1", "R2", "R3"]
        elif u < to_r3:
            walk.append("R3")
        else:
            walk.append("R4")
            return walk


def r3_exits(walk) -> tuple[int, int, int]:
    """Counts of R3 -> R1, R3 -> R3 and R3 -> R4 transitions in a walk."""
    counts = {"R1": 0, "R3": 0, "R4": 0}
    for a, b in zip(walk, walk[1:]):
        if a == "R3":
            counts[b] += 1
    return counts["R1"], counts["R3"], counts["R4"]


def walks(seed: int, n: int = 100_000):
    """A trajectory file of ``n`` walks and the tally an oracle checks.

    ``WALK_CENSORED_PER_100`` walks in each hundred are cut before R4. Labels
    are joined by a mix of separators, and comment and blank lines are
    interleaved. Returns ``(text, tally)``; the tally holds the walk count,
    the absorbed count, the R3 exit counts and the step count of every
    absorbed walk in file order.
    """
    rng = random.Random(f"walks:{seed}")
    censored = set()
    for block in range(0, n, 100):
        censored.update(rng.sample(range(block, min(block + 100, n)), WALK_CENSORED_PER_100))
    lines = [f"# {n} walks, seed {seed}"]
    to_r1 = to_r3 = to_r4 = 0
    step_counts = []
    for i in range(n):
        walk = draw_walk(rng, WALK_P31, WALK_P33)
        if i in censored:
            walk = walk[: rng.randrange(1, len(walk))]
        else:
            step_counts.append(len(walk))
        e1, e3, e4 = r3_exits(walk)
        to_r1 += e1
        to_r3 += e3
        to_r4 += e4
        sep = rng.choice(_WALK_SEPARATORS)
        lines.append(sep.join(walk) + ("," if rng.randrange(20) == 0 else ""))
        if rng.randrange(50) == 0:
            lines.append(rng.choice(("", "# comment", "   ", "#R1 R2 R3 R4")))
    tally = {
        "walks": n,
        "absorbed": len(step_counts),
        "r3_exit_counts": {"R1": to_r1, "R3": to_r3, "R4": to_r4},
        "step_counts": step_counts,
    }
    return "\n".join(lines) + "\n", tally


def _case(rng: random.Random, case_id: str) -> dict:
    kind = ("t", "params", "trajectory")[int(case_id[1:]) % 3]
    if kind == "t":
        den = rng.randrange(1, 13)
        t = Fraction(rng.randrange(3 * den, 20 * den + 1), den)
        return {"id": case_id, "t": t.numerator if t.denominator == 1 else str(t)}
    if kind == "params":
        den = rng.randrange(2, 30)
        p31 = rng.randrange(den)
        p33 = rng.randrange(den - p31)
        p34 = den - p31 - p33
        return {
            "id": case_id,
            "params": {"p31": f"{p31}/{den}", "p33": f"{p33}/{den}", "p34": f"{p34}/{den}"},
        }
    p31 = Fraction(rng.randrange(1, 4), 8)
    p33 = Fraction(rng.randrange(1, 4), 8)
    return {"id": case_id, "trajectory": draw_walk(rng, p31, p33)}


def library(seed: int, episodes: int = 100, cases_per_episode: int = 200) -> dict:
    """A case-library document with nested sub-episodes and shared cases.

    Each top-level episode defines ``cases_per_episode`` new cases: half in
    its own list, the rest in two sub-episodes, the first of which nests a
    third. Cases cycle through the three measure sources. Every episode
    also repeats a fortieth as many of its own cases in a sub-episode, and
    a twentieth as many cases defined by other episodes, with identical
    definitions, so case ids are shared within and across episode trees.
    """
    rng = random.Random(f"library:{seed}")
    defined: list[dict] = []
    top = []
    next_id = 0
    own_share, sub1_share, inner_share = cases_per_episode // 2, cases_per_episode // 5, cases_per_episode // 10
    shared, repeated = max(1, cases_per_episode // 20), max(1, cases_per_episode // 40)
    for e in range(episodes):
        fresh = []
        for _ in range(cases_per_episode):
            fresh.append(_case(rng, f"c{next_id}"))
            next_id += 1
        own = fresh[:own_share]
        sub1 = fresh[own_share : own_share + sub1_share]
        inner = fresh[own_share + sub1_share : own_share + sub1_share + inner_share]
        sub2 = fresh[own_share + sub1_share + inner_share :] + rng.sample(own, repeated)
        if defined:
            own = own + [rng.choice(defined) for _ in range(shared)]
        else:
            own = own + rng.sample(sub1, shared)
        rng.shuffle(own)
        defined.extend(fresh)
        top.append(
            {
                "name": f"episode-{e}",
                "cases": own,
                "sub_episodes": [
                    {
                        "name": f"episode-{e}.a",
                        "cases": sub1,
                        "sub_episodes": [{"name": f"episode-{e}.a.i", "cases": inner}],
                    },
                    {"name": f"episode-{e}.b", "cases": sub2, "sub_episodes": []},
                ],
            }
        )
    return {"episodes": top}


def chain(seed: int, kind: str, transient: int = 48) -> dict:
    """A random absorbing chain as ``{"states": [...], "rows": [[...], ...]}``.

    ``kind`` is ``dense`` (every transient row has positive weight on every
    state) or ``sparse`` (four successors per transient row). Entries are
    unreduced rational strings with small random integer weights. Labels
    are shuffled and the absorbing states sit at random positions, so the
    states are not listed in label order and canonical reordering has work
    to do.

    The transient states keep one fixed sparsity pattern in their relative
    order, because exact elimination runs in that order and its fill-in,
    and so its cost, would otherwise vary with the seed. In that pattern
    the k-th transient state moves to the (k-1)-th, and the first to an
    absorbing state, so every transient state can absorb.
    """
    if kind not in ("dense", "sparse"):
        raise ValueError(f"unknown chain kind {kind!r}")
    rng = random.Random(f"chain:{kind}:{seed}")
    n = transient + CHAIN_ABSORBING
    labels = [f"s{i:03d}" for i in range(n)]
    rng.shuffle(labels)
    absorbing_pos = sorted(rng.sample(range(n), CHAIN_ABSORBING))
    transient_pos = [i for i in range(n) if i not in absorbing_pos]
    rows: list[list[str]] = []
    for i in range(n):
        if i in absorbing_pos:
            rows.append(["1" if j == i else "0" for j in range(n)])
            continue
        r = transient_pos.index(i)
        if kind == "dense":
            targets = range(n)
        else:
            first = transient_pos[r - 1] if r else absorbing_pos[0]
            targets = [first] + [
                transient_pos[(r + off) % transient] for off in (1, 7, 20)
            ]
        weights = {j: rng.randrange(1, 10) for j in targets}
        total = sum(weights.values())
        rows.append([f"{weights[j]}/{total}" if j in weights else "0" for j in range(n)])
    return {"states": labels, "rows": rows}


def dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"
