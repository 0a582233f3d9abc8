"""Command-line surface for chain analysis, evolution, simulation,
estimation, and library efficiency.

Exit codes: 0 on success, 1 on a domain error (the error class is named in
the message on stderr), 2 on a usage error. Each command computes one
payload of exact values and renders it in the chosen format. Table output
renders every rational both as an exact fraction and as a
6-significant-digit decimal; machine output is the payload as JSON, in
which every exact quantity is a fraction string that parses back to the
identical value.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict
from fractions import Fraction

import click

from . import __version__
from .cbr import (
    STATES,
    CbrParameters,
    cbr_transition_matrix,
    estimate_from_counts,
    mean_phases,
    tally_trajectories,
)
from .errors import CbrChainError, NonAbsorbing
from .library import CaseRecord, efficiency_report, load_library
from .markov import (
    CanonicalChain,
    absorption_probabilities,
    canonical_form,
    evolve,
    expected_absorption_steps,
    fundamental_matrix,
    ProbabilityVector,
)
from .rationals import decimal_str, format_rational, parse_rational
from .simulate import (
    DEFAULT_MAX_PHASES,
    PHASE_BUDGET,
    SimulationConfig,
    check_step_budget,
    run_simulation,
)


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return parse_rational(value)
        except CbrChainError as exc:
            self.fail(str(exc), param, ctx)


RATIONAL = RationalType()


def _pair(q: Fraction) -> str:
    """Exact fraction followed by its decimal rendering."""
    return f"{format_rational(q)} ({decimal_str(q)})"


def _heading(text: str) -> str:
    if os.environ.get("NO_COLOR"):
        return text
    return click.style(text, bold=True)


def _grid(header, labels, rows) -> list[str]:
    """Aligned columns of exact values, one labelled row per entry of ``rows``."""
    cells = [["", *header]]
    cells += [[label, *[_pair(v) for v in row]] for label, row in zip(labels, rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]


def _param_options(f):
    f = click.option(
        "--p33",
        type=RATIONAL,
        required=True,
        help="Probability of staying at R3 for another revision.",
    )(f)
    f = click.option(
        "--p31",
        type=RATIONAL,
        required=True,
        help="Probability of returning from R3 to R1 after a failure.",
    )(f)
    return f


@click.group()
@click.version_option(__version__, prog_name="cbrchain")
def cli():
    """Exact analytics and Monte Carlo validation for the four-step
    Retrieve/Reuse/Revise/Retain process chain.

    R4 (retain) is absorbing; the revise step R3 either loops to R1,
    stays at R3, or completes to R4. p34 is always derived as
    1 - p31 - p33.
    """


def _command(name: str):
    """Register a function that computes a payload as subcommand ``name``.

    The function takes the command's own options and returns the payload of
    exact values and its table renderer, which reads only the payload and
    may yield its lines, so that a long text is never held whole. The
    subcommand adds ``--format``, listed last, puts ``"command": name``
    first in the payload and prints it as JSON or as the renderer's lines.
    A CbrChainError raised while computing or rendering is printed on
    stderr as ``error: Class: message`` and exits with code 1.
    """

    def decorate(compute):
        @functools.wraps(compute)
        def run(fmt, **options):
            try:
                payload, render_table = compute(**options)
                payload = {"command": name, **payload}
                if fmt == "machine":
                    click.echo(json.dumps(payload, indent=2, default=format_rational))
                    return
                for line in render_table(payload):
                    click.echo(line)
            except CbrChainError as exc:
                click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
                sys.exit(1)

        # Click lists the options of __click_params__ in reverse, so the one
        # at the front comes last in --help.
        run.__click_params__.insert(
            0,
            click.Option(
                ["--format", "fmt"],
                type=click.Choice(["table", "machine"]),
                default="table",
                show_default=True,
                help="Human-readable table or machine-readable JSON.",
            ),
        )
        return cli.command(name)(run)

    return decorate


def _fundamental(chain: CanonicalChain) -> dict:
    return {
        "states": list(chain.transient_states),
        "matrix": fundamental_matrix(chain),
        "row_sums": expected_absorption_steps(chain),
    }


def render_fundamental(fundamental: dict) -> list[str]:
    """Lines showing N, its visit-count meaning, and its row sums."""
    states = fundamental["states"]
    rows = [[*row, t] for row, t in zip(fundamental["matrix"], fundamental["row_sums"])]
    return [
        _heading("Fundamental matrix N = (I - Q)^-1"),
        "(N[i][j] = mean number of times in state j before absorption,"
        " starting from state i)",
        *_grid([*states, "row sum (t)"], states, rows),
    ]


@_command("cbr-analyze")
@_param_options
def cbr_analyze(p31, p33):
    """Closed-form analysis of the process chain for given parameters."""
    params = CbrParameters.from_p31_p33(p31, p33)
    t = mean_phases(params)
    payload = {
        "params": asdict(params),
        "mean_phases": t,
        "completion_steps": t + 1,
        "fundamental": _fundamental(canonical_form(cbr_transition_matrix(params))),
    }
    return payload, _analyze_table


def _analyze_table(payload: dict) -> list[str]:
    params = payload["params"]
    return [
        _heading("CBR chain analysis"),
        f"  p31 = {_pair(params['p31'])}   revise -> retrieve",
        f"  p33 = {_pair(params['p33'])}   revise -> revise",
        f"  p34 = {_pair(params['p34'])}   revise -> retain",
        "",
        f"  t = {_pair(payload['mean_phases'])}   mean phases before absorption,"
        " from R1",
        f"  completion steps = {_pair(payload['completion_steps'])}   (t + 1)",
        "",
        *render_fundamental(payload["fundamental"]),
    ]


@_command("chain-analyze")
@_param_options
def chain_analyze(p31, p33):
    """Generic absorbing-chain analysis of the constructed 4-state matrix.

    Runs the general engine (classification, canonical form, fundamental
    matrix, absorption statistics) rather than the closed form; the two
    must agree exactly.
    """
    params = CbrParameters.from_p31_p33(p31, p33)
    matrix = cbr_transition_matrix(params)
    chain = canonical_form(matrix)
    fundamental = _fundamental(chain)
    payload = {
        "params": asdict(params),
        "states": list(matrix.states),
        "transition_matrix": matrix.entries,
        "absorbing": sorted(chain.absorbing_states),
        "transient": sorted(chain.transient_states),
        "canonical_order": [*chain.absorbing_states, *chain.transient_states],
        "q_block": chain.q_block,
        "r_block": chain.r_block,
        "fundamental": fundamental,
        "expected_absorption_steps": dict(
            zip(chain.transient_states, fundamental["row_sums"])
        ),
        "absorption_probabilities": {
            s: dict(zip(chain.absorbing_states, row))
            for s, row in zip(chain.transient_states, absorption_probabilities(chain))
        },
    }
    return payload, _chain_table


def _chain_table(payload: dict) -> list[str]:
    states = payload["states"]
    b = payload["absorption_probabilities"]
    return [
        _heading("Generic absorbing-chain analysis"),
        f"  states: {' '.join(states)}",
        f"  absorbing: {' '.join(payload['absorbing'])}",
        f"  transient: {' '.join(payload['transient'])}",
        f"  canonical order: {' '.join(payload['canonical_order'])}",
        "",
        _heading("Transition matrix"),
        *_grid(states, states, payload["transition_matrix"]),
        "",
        *render_fundamental(payload["fundamental"]),
        "",
        _heading("Expected absorption"),
        *[
            f"  from {s}: t = {_pair(v)}, completion steps = {_pair(v + 1)}"
            for s, v in payload["expected_absorption_steps"].items()
        ],
        "",
        _heading("Absorption probabilities (B = N R)"),
        *_grid(next(iter(b.values())), b, [row.values() for row in b.values()]),
    ]


@_command("cbr-evolve")
@_param_options
@click.option(
    "--phases",
    type=click.IntRange(min=0),
    required=True,
    help="Evolve the phase distribution up to this phase index.",
)
def cbr_evolve(p31, p33, phases):
    """Exact distribution over the steps at phases 0..N, starting at R1."""
    params = CbrParameters.from_p31_p33(p31, p33)
    matrix = cbr_transition_matrix(params)
    start = ProbabilityVector.point(STATES, "R1")
    payload = {
        "params": asdict(params),
        "states": list(STATES),
        "distributions": [
            {"phase": k, "probs": dict(zip(v.states, v.probs))}
            for k, v in enumerate(evolve(start, matrix, phases))
        ],
    }
    return payload, _evolve_table


def _evolve_table(payload: dict) -> Iterator[str]:
    yield _heading(f"Phase distributions over {' '.join(payload['states'])}")
    for d in payload["distributions"]:
        fracs = " ".join(format_rational(q) for q in d["probs"].values())
        decs = " ".join(decimal_str(q) for q in d["probs"].values())
        yield f"P{d['phase']}: {fracs}  ({decs})"


@_command("cbr-simulate")
@_param_options
@click.option(
    "--samples",
    type=click.IntRange(min=1),
    default=100_000,
    show_default=True,
    help="Number of trajectories to sample.",
)
@click.option(
    "--seed",
    type=click.IntRange(min=0, max=2**64 - 1),
    default=0,
    show_default=True,
    help="Master seed; per-trajectory seeds are derived from it.",
)
@click.option(
    "--max-phases",
    type=click.IntRange(min=1),
    default=DEFAULT_MAX_PHASES,
    show_default=True,
    help="Truncation guard; longer trajectories are reported as censored.",
)
@click.option(
    "--phases",
    type=click.IntRange(min=0, max=PHASE_BUDGET),
    default=None,
    help="Also report empirical state frequencies at phases 0..N.",
)
def cbr_simulate(p31, p33, samples, seed, max_phases, phases):
    """Monte Carlo sampling of the chain, with analytic values alongside.

    A run expected to take more walk steps than the simulator's step budget
    is refused before it starts, and so is p33 = 1, where R3 holds every
    walk forever.
    """
    if phases is not None and phases > max_phases:
        raise click.BadParameter(
            f"{phases} is beyond --max-phases {max_phases}.", param_hint="'--phases'"
        )
    params = CbrParameters.from_p31_p33(p31, p33)
    if params.p33 == 1:
        raise NonAbsorbing("p33 = 1: every walk stays at R3 and never reaches R4")
    matrix = cbr_transition_matrix(params)
    cfg = SimulationConfig(seed=seed, num_trajectories=samples, max_phases=max_phases)
    analytic = mean_phases(params) + 1 if params.is_absorbing else None
    check_step_budget(cfg, analytic)
    phases_of_interest = tuple(range(phases + 1)) if phases is not None else ()
    report = run_simulation(matrix, "R1", cfg, phases_of_interest)
    payload = {
        "params": asdict(params),
        "report": report.to_dict(),
    }
    if analytic is not None:
        payload["analytic_completion_steps"] = analytic
    return payload, _simulate_table


def _simulate_table(payload: dict) -> Iterator[str]:
    report = payload["report"]
    cfg = report["config"]
    yield _heading(
        f"Simulation: {cfg['num_trajectories']} trajectories, seed {cfg['seed']}, "
        f"max phases {cfg['max_phases']}"
    )
    yield (
        f"  absorbed = {report['absorbed_count']}, "
        f"censored = {report['censored_count']}"
    )
    mean = report["empirical_mean_steps"]
    if mean is not None:
        yield f"  empirical mean completion steps = {mean:.6g}"
    if report["standard_error"] is not None:
        yield f"  standard error = {report['standard_error']:.6g}"
    analytic = payload.get("analytic_completion_steps")
    if analytic is not None:
        yield f"  analytic completion steps = {_pair(analytic)}"
    exits = report["transition_counts"].get("R3", {})
    if exits:
        total = sum(exits.values())
        yield _heading("Observed exits from R3")
        for target in ("R1", "R3", "R4"):
            count = exits.get(target, 0)
            yield f"  R3 -> {target}: {count}  (ratio {count / total:.6g})"
    for phase, dist in report["empirical_phase_distributions"].items():
        freqs = " ".join(f"{s}={dist.get(s, 0.0):.6g}" for s in STATES)
        yield f"  phase {phase} frequencies: {freqs}"


@_command("estimate")
@click.option(
    "--trajectories",
    "trajectories_path",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    help="Trajectory text file: one trajectory per line, labels separated "
    "by commas or whitespace, '#' starts a comment line.",
)
def estimate(trajectories_path):
    """Estimate exit probabilities from observed trajectories.

    Prints the maximum-likelihood parameters together with the implied
    mean phases t and completion steps t + 1.
    """
    walks, step_counts, counts = tally_trajectories(trajectories_path)
    params = estimate_from_counts(counts)
    payload = {
        "trajectories": walks,
        "absorbed_trajectories": len(step_counts),
        "observed_step_counts": step_counts,
        "r3_exit_counts": {
            "R1": counts.to_r1,
            "R3": counts.to_r3,
            "R4": counts.to_r4,
        },
        "params": asdict(params),
    }
    if params.is_absorbing:
        t = mean_phases(params)
        payload.update(mean_phases=t, completion_steps=t + 1)
    return payload, _estimate_table


def _estimate_table(payload: dict) -> Iterator[str]:
    counts = payload["r3_exit_counts"]
    yield _heading(
        f"Parameter estimation from {payload['trajectories']} trajectories "
        f"({sum(counts.values())} exits from R3)"
    )
    for target, count in counts.items():
        yield f"  R3 -> {target}: {count}"
    yield ""
    for name, p in payload["params"].items():
        yield f"  {name} = {_pair(p)}"
    yield ""
    if "mean_phases" in payload:
        yield f"  t = {_pair(payload['mean_phases'])}"
        yield f"  completion steps = {_pair(payload['completion_steps'])}"
    else:
        yield (
            "  no R3 -> R4 exits observed: the estimated chain is "
            "non-absorbing, t is undefined"
        )


@_command("library-efficiency")
@click.option(
    "--library",
    "library_path",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    help="Case library document (JSON).",
)
def library_efficiency(library_path):
    """Flat and per-episode efficiency of a case library."""
    lib = load_library(library_path)
    report = efficiency_report(lib)
    payload = {
        "n": len(lib.cases),
        "flat_efficiency": report.flat,
        "system_efficiency": report.system,
        "episodes": [
            {"name": name, "efficiency": efficiency, "cases": measures}
            for name, efficiency, measures in report.episodes
        ],
    }
    return payload, functools.partial(_library_table, records=lib.cases)


def _library_table(payload: dict, records: dict[str, CaseRecord]) -> Iterator[str]:
    yield _heading(
        f"Case library: {payload['n']} distinct cases, "
        f"{len(payload['episodes'])} top-level episodes"
    )
    flat, system = payload["flat_efficiency"], payload["system_efficiency"]
    yield f"  flat efficiency   = {_pair(flat)}   (mean over all cases)"
    yield f"  system efficiency = {_pair(system)}   (mean over episodes)"
    for episode in payload["episodes"]:
        cases = episode["cases"]
        yield ""
        yield (
            f"  {_escaped(episode['name'])}: "
            f"efficiency {_pair(episode['efficiency'])}, {len(cases)} cases"
        )
        for case_id, t in cases.items():
            yield f"    {_escaped(case_id)}: t = {_pair(t)} [{_case_kind(records[case_id])}]"


def _escaped(text: str) -> str:
    """``text`` with lone surrogates written as ``\\udXXX`` escapes, as in JSON."""
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _case_kind(c: CaseRecord) -> str:
    if c.measure is not None:
        return "direct"
    if c.params is not None:
        return "parameters"
    return "trajectory"


def main():
    cli(prog_name="cbrchain")


if __name__ == "__main__":
    main()
