"""Exact analytics and Monte Carlo validation for the four-step
Retrieve/Reuse/Revise/Retain process chain, from the command line.

R4 (retain) is absorbing; the revise step R3 either loops to R1, stays at
R3, or completes to R4. p34 is always derived as 1 - p31 - p33.

Exit codes: 0 on success, 1 on a domain error (the error class is named in
the message on stderr), 2 on a usage error. Each command computes one
payload of exact values and renders it in the chosen format. Table output
renders every rational both as an exact fraction and as a
6-significant-digit decimal; machine output is the payload as JSON, in
which every exact quantity is a fraction string that parses back to the
identical value. ``cbr-evolve`` evolves and renders its phases in
contiguous ranges, one per usable CPU, and prints the same bytes for any
split.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import accumulate

from . import DEFAULT_MAX_PHASES, __version__
from ._deferred import defer
from .cbr import (
    FLOW_EDGES,
    START_STATE,
    STATES,
    CbrParameters,
    cbr_transition_matrix,
    estimate_from_counts,
    mean_phases,
    tally_trajectories,
)
from .errors import CbrChainError, NonAbsorbing
from .markov import (
    CanonicalChain,
    ProbabilityVector,
    TransitionMatrix,
    absorption_probabilities,
    canonical_form,
    distribution_at,
    evolve,
    expected_absorption_steps,
    fundamental_matrix,
)
from .rationals import DIGITS, decimal_str, format_rational, parse_rational

# Only library-efficiency runs library, but the benchmark's tracer looks
# ``sys.modules["cbrchain.library"]`` up before any command has run, so it is
# registered here and runs on its first use (``_deferred``). ROADMAP item 18
# imports it where it runs, as _ranges and simulate are, once the tracer
# imports it itself.
_library = defer("cbrchain.library")

#: The last phase of interest ``cbr-simulate --phases`` may ask for. Each
#: phase of interest costs about 0.9 KiB and 18 µs before any walk is
#: drawn, so 10^5 take about 108 MiB and 1.5 s with one walk at
#: p31 = p33 = 1/3, and 10^6 would need about 0.9 GiB (Python 3.11,
#: 2-vCPU host). ``run_simulation`` takes any number.
PHASE_BUDGET = 10**5


def _pair(q: Fraction) -> str:
    """Exact fraction followed by its decimal rendering."""
    return f"{format_rational(q)} ({decimal_str(q)})"


def _heading(text: str) -> str:
    """``text`` in bold when stdout is a terminal and ``NO_COLOR`` is unset."""
    plain = os.environ.get("NO_COLOR") or not sys.stdout.isatty()
    return text if plain else f"\033[1m{text}\033[0m"


def _grid(header, labels, rows) -> list[str]:
    """Aligned columns of exact values, one labelled row per entry of ``rows``."""
    cells = [["", *header]]
    cells += [[label, *[_pair(v) for v in row]] for label, row in zip(labels, rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]


def _integer(low: int, high: int | None = None) -> Callable[[str], int]:
    """A converter of option text to an integer in [low, high]."""

    def convert(text: str) -> int:
        n = int(text)
        if n < low or high is not None and n > high:
            bound = f"x>={low}" if high is None else f"{low}<=x<={high}"
            raise ValueError(f"{n} is not in the range {bound}.")
        return n

    return convert


def _readable_file(text: str) -> str:
    """The path ``text``, if it names a file that can be read."""
    if not os.access(text, os.R_OK) or os.path.isdir(text):
        raise ValueError(f"{text!r} is not a readable file.")
    return text


def _output_format(text: str) -> str:
    if text not in ("table", "machine"):
        raise ValueError(f"{text!r} is not one of 'table', 'machine'.")
    return text


# An option is its converter, which raises ValueError on text it refuses, its
# value when it is not given, ... if it must be given, and its help.
_PARAMS = {
    "p31": (parse_rational, ..., "Probability of returning from R3 to R1 after a failure."),
    "p33": (parse_rational, ..., "Probability of staying at R3 for another revision."),
}
_FORMAT = (_output_format, "table", "table (human-readable) or machine (JSON).")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _joined(args: Iterable[str], valued: set[str]) -> Iterator[str]:
    """``args`` with each option of ``valued`` joined to the argument after
    it as ``--option=value``, so that argparse never takes a value such as
    ``-1/3`` for an option."""
    args = iter(args)
    for arg in args:
        value = next(args, None) if arg in valued else None
        yield arg if value is None else f"{arg}={value}"


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Help with descriptions as written, under a ``Usage:`` line."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """A parser whose failed write to stdout raises, as any other write of
    the command does, where argparse ignores it, so that ``--help`` and
    ``--version`` into a closed pipe exit 1 also when output is unbuffered."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


# No parser knows -h or an abbreviated option, and --help comes last.
_STRICT = dict(add_help=False, allow_abbrev=False, formatter_class=_Formatter)


@dataclass
class _Command:
    """A subcommand: its parser, its options by parameter name, and the
    callback that runs it on their values."""

    parser: argparse.ArgumentParser
    options: dict[str, tuple]
    callback: Callable[..., None]


class _Cli:
    """The ``cbrchain`` command: its parser, the subcommands that
    :func:`_command` registers in ``commands`` by name, and :meth:`main`,
    which runs a command line. ``name``, ``main`` and each command's
    ``callback`` are what the benchmark uses: it runs the CLI through
    click's test runner, the one user of click, and its tracer wraps each
    ``callback``."""

    name = "cbrchain"

    def __init__(self) -> None:
        self.parser = _Parser(prog=self.name, description=__doc__, **_STRICT)
        self.parser.add_argument("--version", action="version",
                                 version=f"cbrchain, version {__version__}",
                                 help="Show the version and exit.")
        self.parser.add_argument("--help", action="help", help="Show this message and exit.")
        self.subparsers = self.parser.add_subparsers(
            title="commands", dest="command", metavar="COMMAND", required=True)
        self.commands: dict[str, _Command] = {}

    def main(self, args: Sequence[str] | None = None, prog_name: str | None = None):
        """Run the command line ``args``, ``sys.argv[1:]`` by default, and exit.

        This is the one map from outcome to exit code. It exits 0 on
        success, 1 on a domain error, an interrupt or a closed stdout, and 2
        on a usage error; a closed stderr changes none of these. A domain
        error is a CbrChainError raised while a command computes or renders,
        printed on stderr as ``error: Class: message`` before stdout is
        flushed. An option takes the argument after it as its value, whatever
        that starts with. Values are converted once the whole line is read,
        so that ``--help`` anywhere wins and a repeated option takes its
        last value. ``prog_name``, which click's test runner passes as
        ``name``, is not used.
        """
        try:
            try:
                valued = {_flag(dest) for c in self.commands.values() for dest in c.options}
                args = _joined(sys.argv[1:] if args is None else args, valued)
                raw = vars(self.parser.parse_args(args))
                command = self.commands[raw["command"]]
                values = {}
                for dest, (convert, default, _) in command.options.items():
                    try:
                        values[dest] = default if raw[dest] is None else convert(raw[dest])
                    except ValueError as exc:
                        command.parser.error(f"argument {_flag(dest)}: {exc}")
                command.callback(**values)
            except CbrChainError as exc:
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                sys.exit(1)
            finally:  # on every exit, so that a closed pipe is seen here
                sys.stdout.flush()
        except BrokenPipeError:
            _discard(sys.stdout)
            sys.exit(1)
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)
        finally:  # a closed stderr keeps the exit code
            try:
                sys.stderr.flush()
            except OSError:
                _discard(sys.stderr)
        sys.exit(0)


def _discard(stream) -> None:
    """Send what Python writes to ``stream`` on exit nowhere, as the reader
    has closed it."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


cli = _Cli()


def _command(name: str, **options: tuple):
    """Register a function that computes a payload as subcommand ``name``.

    Each of ``options`` is a parameter of the function, a (converter,
    default, help) triple as in ``_PARAMS``, given on the command line by
    the flag that :func:`_flag` makes of its name. The function returns the
    payload of exact values and its table renderer, which reads only the
    payload and may yield its lines, so that a long text is never held
    whole. The subcommand adds ``--format``, listed last, puts ``"command":
    name`` first in the payload and prints it as JSON, once all of it is
    rendered (:func:`_json_pieces`), or as the renderer's lines. The
    subcommand's callback only computes and renders: a CbrChainError it
    raises goes to :meth:`_Cli.main`, which maps it to exit code 1.
    """

    def decorate(compute):
        def callback(format: str, **values) -> None:
            payload, render_table = compute(**values)
            payload = {"command": name, **payload}
            if format == "machine":
                sys.stdout.writelines(_json_pieces(payload))
            else:
                sys.stdout.writelines(f"{line}\n" for line in render_table(payload))

        doc = inspect.cleandoc(compute.__doc__ or "")
        parser = cli.subparsers.add_parser(
            name, help=doc.partition("\n")[0], description=doc, **_STRICT)
        specs = {**options, "format": _FORMAT}
        for dest, (_, default, text) in specs.items():
            shown = "" if default in (None, ...) else f" [default: {default}]"
            parser.add_argument(_flag(dest), required=default is ..., help=f"{text}{shown}")
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        cli.commands[name] = _Command(parser, specs, callback)
        return compute

    return decorate


def _json_pieces(payload: dict) -> list[str]:
    """``json.dumps(payload, indent=2, default=format_rational)`` and a
    newline, as a list of pieces.

    Each top-level value is dumped on its own and indented one level, as
    the whole dump nests it (a JSON string holds no raw newline), and a
    callable value, such as :func:`_phase_texts` bound to its phases, is
    called with :func:`_phase_object` to render its own items, so that no
    one string holds a long text.
    """
    import json

    pieces = []
    for key, value in payload.items():
        pieces.append(f"{',' if pieces else '{'}\n  {json.dumps(key)}: ")
        if callable(value):
            objects = value(_phase_object)
            pieces += ["[\n    ", next(objects)]
            for text in objects:
                pieces += [",\n    ", text]
            pieces.append("\n  ]")
        else:
            text = json.dumps(value, indent=2, default=format_rational)
            pieces.append(text.replace("\n", "\n  "))
    pieces.append("\n}\n")
    return pieces


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


@_command("cbr-analyze", **_PARAMS)
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


@_command("chain-analyze", **_PARAMS)
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


@_command(
    "cbr-evolve",
    **_PARAMS,
    phases=(_integer(0), ..., "Evolve the phase distribution up to this phase index."),
)
def cbr_evolve(p31, p33, phases):
    """Exact distribution over the steps at phases 0..N, starting at R1."""
    params = CbrParameters.from_p31_p33(p31, p33)
    start = ProbabilityVector.point(STATES, START_STATE)
    payload = {
        "params": asdict(params),
        "states": list(STATES),
        "distributions": functools.partial(
            _phase_texts, start, cbr_transition_matrix(params), phases),
    }
    return payload, _evolve_table


def _evolve_table(payload: dict) -> Iterator[str]:
    yield _heading(f"Phase distributions over {' '.join(payload['states'])}")
    yield from payload["distributions"](_phase_row)


def _phase_row(k: int, v: ProbabilityVector) -> str:
    fracs = " ".join(format_rational(q) for q in v.probs)
    decs = " ".join(decimal_str(q) for q in v.probs)
    return f"P{k}: {fracs}  ({decs})"


def _phase_object(k: int, v: ProbabilityVector) -> str:
    """Phase ``k``'s JSON object, as ``_json_pieces`` nests it in an array."""
    import json

    item = {"phase": k, "probs": dict(zip(v.states, v.probs))}
    return json.dumps(item, indent=2, default=format_rational).replace("\n", "\n    ")


#: A phase whose entries have d digits costs ``cbr-evolve`` about as much as
#: (d + _PHASE_DIGITS)**2 digit operations: a fixed cost per phase, a step
#: linear in d, and a decimal conversion quadratic in d. Fitted to the
#: step and either rendering of each phase up to 2000 at 2/7, 3/11
#: (Python 3.11, 2-vCPU host).
_PHASE_DIGITS = 800

#: The least predicted work ``cbr-evolve`` gives a range of phases of its
#: own. Forking a worker and reaping it take about 2 ms, and its
#: copy-on-write faults and pickled result more, so at 2/7, 3/11 two
#: ranges first beat one near 400 phases, at about 0.9 of one range's
#: time, and take 0.66 of it at 1000; this bound splits from 485 phases
#: (Python 3.11, 2-vCPU host).
_MIN_RANGE_WORK = 4 * 10**8


def _phase_work(matrix: TransitionMatrix, last: int) -> list[float]:
    """The predicted work of ``cbr-evolve`` over phases 0..i under
    ``matrix``, for each i up to ``last``.

    The entries of the phase-n distribution from a point have about
    n log10(L) digits, where L is the LCM of the matrix's denominators, so
    the work of every phase is known before the first one is taken.
    """
    digits = math.log10(math.lcm(*(q.denominator for row in matrix.entries for q in row)))
    return list(accumulate((_PHASE_DIGITS + n * digits) ** 2 for n in range(last + 1)))


def _phase_texts(start: ProbabilityVector, matrix: TransitionMatrix, last: int,
                 render: Callable[[int, ProbabilityVector], str]) -> Iterator[str]:
    """``render(k, P_k)`` for each phase k = 0..``last`` from the point
    ``start`` under ``matrix``, in order.

    The phases are split by their :func:`_phase_work` and run by
    :func:`_ranges.in_ranges`, the first range in process and each other one
    in a forked worker. A range starts from its exact first distribution,
    taken by repeated squaring (:func:`distribution_at`), and takes every
    later phase with :func:`evolve`'s checked step. A Fraction is
    canonical, so each phase renders to the same text for any split.

    Every range is rendered before the first text is given. A CbrChainError
    that ``render`` raises ends its range before that phase, and is raised,
    with its class and message, after the texts of the phases before it.
    """

    def run(lo: int, hi: int) -> tuple[list[str], CbrChainError | None]:
        texts = []
        try:
            first = distribution_at(start, matrix, lo)
            for k, v in enumerate(evolve(first, matrix, hi - 1 - lo), lo):
                texts.append(render(k, v))
        except CbrChainError as exc:
            return texts, exc
        return texts, None

    from . import _ranges

    bounds = _ranges.split(_phase_work(matrix, last), _MIN_RANGE_WORK)
    for texts, error in _ranges.in_ranges(run, bounds):
        yield from texts
        if error is not None:
            raise error


@_command(
    "cbr-simulate",
    **_PARAMS,
    samples=(_integer(1), 100_000, "Number of trajectories to sample."),
    seed=(_integer(0, 2**64 - 1), 0,
          "Master seed; per-trajectory seeds are derived from it."),
    max_phases=(_integer(1), DEFAULT_MAX_PHASES,
                "Truncation guard; longer trajectories are reported as censored."),
    phases=(_integer(0, PHASE_BUDGET), None,
            "Also report empirical state frequencies at phases 0..N."),
)
def cbr_simulate(p31, p33, samples, seed, max_phases, phases):
    """Monte Carlo sampling of the chain, with analytic values alongside.

    A run expected to take more walk steps than the simulator's step budget
    is refused before it starts, and so is p33 = 1, where R3 holds every
    walk forever.
    """
    if phases is not None and phases > max_phases:
        cli.commands["cbr-simulate"].parser.error(
            f"argument --phases: {phases} is beyond --max-phases {max_phases}."
        )
    params = CbrParameters.from_p31_p33(p31, p33)
    if params.p33 == 1:
        raise NonAbsorbing("p33 = 1: every walk stays at R3 and never reaches R4")
    from . import simulate

    matrix = cbr_transition_matrix(params)
    cfg = simulate.SimulationConfig(seed=seed, num_trajectories=samples, max_phases=max_phases)
    analytic = mean_phases(params) + 1 if params.is_absorbing else None
    simulate.check_step_budget(cfg, analytic)
    phases_of_interest = tuple(range(phases + 1)) if phases is not None else ()
    report = simulate.run_simulation(matrix, START_STATE, cfg, phases_of_interest)
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
        yield f"  empirical mean completion steps = {mean:.{DIGITS}g}"
    if report["standard_error"] is not None:
        yield f"  standard error = {report['standard_error']:.{DIGITS}g}"
    analytic = payload.get("analytic_completion_steps")
    if analytic is not None:
        yield f"  analytic completion steps = {_pair(analytic)}"
    exits = report["transition_counts"].get("R3", {})
    if exits:
        total = sum(exits.values())
        yield _heading("Observed exits from R3")
        for target in FLOW_EDGES["R3"]:
            count = exits.get(target, 0)
            yield f"  R3 -> {target}: {count}  (ratio {count / total:.{DIGITS}g})"
    for phase, dist in report["empirical_phase_distributions"].items():
        freqs = " ".join(f"{s}={dist.get(s, 0.0):.{DIGITS}g}" for s in STATES)
        yield f"  phase {phase} frequencies: {freqs}"


@_command(
    "estimate",
    trajectories=(_readable_file, ...,
                  "Trajectory text file: one trajectory per line, labels separated "
                  "by commas or whitespace, '#' starts a comment line."),
)
def estimate(trajectories):
    """Estimate exit probabilities from observed trajectories.

    Prints the maximum-likelihood parameters together with the implied
    mean phases t and completion steps t + 1.
    """
    walks, step_counts, counts = tally_trajectories(trajectories)
    params = estimate_from_counts(counts)
    payload = {
        "trajectories": walks,
        "absorbed_trajectories": len(step_counts),
        "observed_step_counts": step_counts,
        "r3_exit_counts": counts,
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


@_command(
    "library-efficiency",
    library=(_readable_file, ..., "Case library document (JSON)."),
)
def library_efficiency(library):
    """Flat and per-episode efficiency of a case library."""
    lib = _library.load_library(library)
    report = _library.efficiency_report(lib)
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


def _library_table(payload: dict, records: dict[str, _library.CaseRecord]) -> Iterator[str]:
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


def _case_kind(c: _library.CaseRecord) -> str:
    if c.measure is not None:
        return "direct"
    if c.params is not None:
        return "parameters"
    return "trajectory"


main = cli.main

if __name__ == "__main__":
    main()
