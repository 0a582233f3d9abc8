"""Benchmark of the cbrchain CLI and its exact engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. Inputs
are generated from ``--seed`` by ``gen.py``. Each workload is a job list,
run as a closed loop with one client and one job at a time, pass after
pass, for about ``--seconds``. A job is one CLI command, run as
``python -m cbrchain.cli`` with ``PYTHONPATH=src``, or one API analysis of
an absorbing chain, run in a child worker process (``solve.py``). Every
output is checked: the first of each job by an exact oracle
(``oracles.py``), every later one by being byte-identical to the first.

Workloads:

* ``sim-short``: ``cbr-simulate`` of 100k walks of about 8 phases each, at
  p31 = p33 = 1/3 with ``--phases 8``; per-trajectory set-up (seed
  derivation, RNG construction) is the largest part of the work.
* ``sim-long``: ``cbr-simulate`` of 10k walks at p31 = 1/10, p33 = 89/100,
  where t = 122; per-step sampling and transition counting dominate.
* ``exact``: ``cbr-analyze`` and ``chain-analyze`` at 1/3, 1/3;
  ``cbr-evolve`` for 2000 phases at 2/7, 3/11; ``estimate`` on 100k walks;
  ``library-efficiency`` on 20k cases in 100 episodes; and the API analysis
  of a dense and of a sparse chain with 48 transient states. The exact
  layers (rationals, markov, cbr, library, CLI rendering) do nearly all of
  their work here and almost none in the simulator workloads.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: median time from launching ``cbrchain --help`` to its exit;
* ``wall_s``: median wall time of one pass over the workload's job list;
* ``peak_rss_mib``: the highest ``ru_maxrss`` of any job process;
* ``success_ratio``: jobs that passed over jobs attempted.

The lines before it give the median, sample count and, where there are
enough samples, a tail percentile of each of these and of every command's
time (``simulate_s``, ``analyze_s``, ``evolve_s``, ``estimate_s``,
``library_s``, ``solve_dense_s``, ``solve_sparse_s``).

With ``--trace 1`` the jobs run in this process instead, each once
untraced and once under ``tracer.Tracer``; the two outputs must be
byte-identical. The last line holds the per-layer metrics, each the median
over passes of its per-pass value, and spans go to
``.bench/trace/<workload>-seed<seed>.json``.

The exit code is 0 when a result was printed (``correct`` is false if any
job failed), 1 when no result could be measured, and 2 when the checkout
has no ``src/cbrchain`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

IMPORT_LAUNCHES = 5
DEADLINE_S = 170

SIM_SHORT = dict(p31=Fraction(1, 3), p33=Fraction(1, 3), samples=100_000, phases=8)
SIM_LONG = dict(p31=Fraction(1, 10), p33=Fraction(89, 100), samples=10_000, phases=None)
ANALYZE = dict(p31=Fraction(1, 3), p33=Fraction(1, 3))
EVOLVE = dict(p31=Fraction(2, 7), p33=Fraction(3, 11), phases=2000)


@dataclass
class Job:
    """One CLI command (``argv``) or one API analysis (``chain``).

    ``metric`` names the per-command time the job adds to, as in
    ``simulate_s``; both analyze commands add to ``analyze_s``.
    """

    name: str
    metric: str
    check: Callable[[str], None]
    argv: list[str] = field(default_factory=list)
    chain: Path | None = None


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sim_job(seed: int, workload: str, p31, p33, samples, phases) -> Job:
    argv = [
        "cbr-simulate", "--p31", str(p31), "--p33", str(p33),
        "--samples", str(samples), "--seed", str(derive_seed(seed, workload)),
    ]
    if phases is not None:
        argv += ["--phases", str(phases)]
    return Job(
        "cbr-simulate",
        "simulate_s",
        lambda text: oracles.check_simulate(text, p31, p33, samples),
        argv + ["--format", "machine"],
    )


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _exact_jobs(seed: int, work: Path) -> list[Job]:
    a31, a33 = ANALYZE["p31"], ANALYZE["p33"]
    analyze = ["--p31", str(a31), "--p33", str(a33), "--format", "machine"]
    e31, e33, phases = EVOLVE["p31"], EVOLVE["p33"], EVOLVE["phases"]
    walks, tally = gen.walks(seed)
    walks_path = _write(work / "walks.txt", walks)
    library = gen.library(seed)
    library_path = _write(work / "library.json", gen.dumps(library))
    jobs = [
        Job("cbr-analyze", "analyze_s",
            lambda t: oracles.check_cbr_analyze(t, a31, a33), ["cbr-analyze", *analyze]),
        Job("chain-analyze", "analyze_s",
            lambda t: oracles.check_chain_analyze(t, a31, a33), ["chain-analyze", *analyze]),
        Job("cbr-evolve", "evolve_s",
            lambda t: oracles.check_evolve(t, e31, e33, phases),
            ["cbr-evolve", "--p31", str(e31), "--p33", str(e33), "--phases", str(phases),
             "--format", "machine"]),
        Job("estimate", "estimate_s", lambda t: oracles.check_estimate(t, tally),
            ["estimate", "--trajectories", str(walks_path), "--format", "machine"]),
        Job("library-efficiency", "library_s", lambda t: oracles.check_library(t, library),
            ["library-efficiency", "--library", str(library_path), "--format", "machine"]),
    ]
    for kind in ("dense", "sparse"):
        chain = gen.chain(seed, kind)
        path = _write(work / f"chain-{kind}.json", gen.dumps(chain))
        jobs.append(Job(f"solve-{kind}", f"solve_{kind}_s",
                        lambda t, chain=chain: oracles.check_solve(t, chain), chain=path))
    return jobs


def jobs_for(workload: str, seed: int, work: Path) -> list[Job]:
    """Generate the workload's inputs into ``work`` and return its job list."""
    if workload == "sim-short":
        return [_sim_job(seed, workload, **SIM_SHORT)]
    if workload == "sim-long":
        return [_sim_job(seed, workload, **SIM_LONG)]
    if workload == "exact":
        return _exact_jobs(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sim-short", "sim-long", "exact")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], out: Path, err: Path) -> tuple[float, int, int]:
    """Run ``argv`` to its exit; return wall seconds, exit code and peak RSS KiB."""
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        took = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, proc.returncode, usage.ru_maxrss


class Runner:
    """Runs child processes one at a time, checks outputs, keeps tallies.

    The first output of each job goes to its oracle; every later output
    must be byte-identical to it.
    """

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kib = 0
        self.errors: list[str] = []
        # job name -> its first output and the oracle's verdict on it
        self._first: dict[str, tuple[str, str | None]] = {}

    def check(self, job: Job, text: str) -> bool:
        if job.name not in self._first:
            try:
                job.check(text)
                verdict = None
            except (oracles.Mismatch, LookupError, TypeError, ValueError) as exc:
                verdict = f"{type(exc).__name__}: {exc}"
            self._first[job.name] = (text, verdict)
        first, verdict = self._first[job.name]
        error = verdict if text == first else "output differs from the first run of the job"
        if error is not None:
            self.errors.append(f"{job.name}: {error}")
        return error is None

    def _spawn(self, label: str, argv: list[str]) -> tuple[float, str] | None:
        out, err = self.work / "stdout", self.work / "stderr"
        took, code, rss = spawn(argv, out, err)
        self.attempted += 1
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        stderr = err.read_bytes()
        if code != 0 or b"Traceback" in stderr:
            self.failed += 1
            self.errors.append(f"{label}: exit {code}: {stderr[-300:]!r}")
            return None
        return took, out.read_text(encoding="utf-8")

    def launch(self, argv: list[str], parse: Callable[[str, float], float]) -> float | None:
        """Time a set-up launch; ``parse`` checks its output and picks the time."""
        done = self._spawn(" ".join(argv[1:]), argv)
        if done is None:
            return None
        try:
            return parse(done[1], done[0])
        except (oracles.Mismatch, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[1:])}: {exc}")
            return None

    def run(self, job: Job) -> float | None:
        """Run one job and check its output; return its time, None if it failed."""
        if job.chain is None:
            argv = [sys.executable, "-m", "cbrchain.cli", *job.argv]
        else:
            result = self.work / "result.json"
            argv = [sys.executable, str(HERE / "solve.py"), str(job.chain), str(result)]
        done = self._spawn(job.name, argv)
        if done is None:
            return None
        took, stdout = done
        if job.chain is not None:
            took, stdout = float(stdout), result.read_text(encoding="utf-8")
        if not self.check(job, stdout):
            self.failed += 1
            return None
        return took


def _help_time(text: str, took: float) -> float:
    oracles.check_help(text)
    return took


def _import_time(text: str, took: float) -> float:
    return float(text)


HELP_ARGV = [sys.executable, "-m", "cbrchain.cli", "--help"]
IMPORT_ARGV = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import cbrchain.cli; "
    "print(repr(time.perf_counter() - t))",
]


def tail(values: list[float]) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def describe(name: str, values: list[float], unit: str) -> str:
    return f"# {name}: median {statistics.median(values):.6g} {unit}, n={len(values)}{tail(values)}"


def closed_loop(seconds: float, one_pass: Callable[[], bool]) -> None:
    """Call ``one_pass`` until it fails or the next pass would end after
    ``seconds``, judging by the quickest pass so far (the first one also
    runs the oracles); always at least once."""
    start = perf_counter()
    clocks: list[float] = []
    while not clocks or perf_counter() - start + min(clocks) <= seconds:
        began = perf_counter()
        if not one_pass():
            return
        clocks.append(perf_counter() - began)


def run_untraced(jobs: list[Job], seconds: float, runner: Runner) -> dict:
    """End-to-end metrics. A set-up launch runs before every job, so that
    set-up is sampled across the whole run and not in one stretch of it."""
    runner.launch(HELP_ARGV, _help_time)  # warms the file cache and bytecode
    setup: list[float] = []
    walls: list[float] = []
    per_metric: dict[str, list[float]] = {}

    def one_pass() -> bool:
        times: dict[str, float] = {}
        for job in jobs:
            setup_s = runner.launch(HELP_ARGV, _help_time)
            took = runner.run(job)
            if setup_s is None or took is None:
                return False
            setup.append(setup_s)
            times[job.metric] = times.get(job.metric, 0.0) + took
        for metric, took in times.items():
            per_metric.setdefault(metric, []).append(took)
        walls.append(sum(times.values()))
        return True

    closed_loop(seconds, one_pass)
    if not setup or not walls:
        return {}
    for metric, values in per_metric.items():
        print(describe(metric, values, "s"))
    print(describe("setup_s", setup, "s"))
    print(describe("wall_s", walls, "s"))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (runner.peak_rss_kib / 1024, "MiB"),
        "success_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


# Per-layer metrics: name -> (unit, function of one job's tracer counters).
def _sum(measure, *names):
    return sum(measure(n) for n in names)


LAYER_METRICS: dict[str, tuple[str, Callable]] = {
    "rationals.parse_calls": ("count", lambda t: t.calls("rationals.parse_rational")),
    "rationals.coerce_calls": ("count", lambda t: t.calls("rationals.coerce_rational")),
    "rationals.s": ("s", lambda t: t.layer_inclusive("rationals")),
    "markov.s": ("s", lambda t: t.layer_inclusive("markov")),
    "markov.validate_s": ("s", lambda t: t.inclusive("markov.validate_stochastic")),
    "markov.canonical_calls": ("count", lambda t: t.calls("markov.canonical_form")),
    "markov.canonical_s": ("s", lambda t: t.inclusive("markov.canonical_form")),
    "markov.fundamental_s": ("s", lambda t: t.inclusive("markov.fundamental_matrix")),
    "markov.invert_s": ("s", lambda t: t.inclusive("markov.invert_matrix")),
    "markov.absorption_s": ("s", lambda t: _sum(
        t.self_time, "markov.expected_absorption_steps", "markov.absorption_probabilities")),
    "markov.evolve_s": ("s", lambda t: t.inclusive("markov.evolve")),
    "markov.step_calls": ("count", lambda t: t.calls("markov.step_distribution")),
    "cbr.parse_s": ("s", lambda t: t.inclusive("cbr.parse_trajectories")),
    "cbr.validate_trajectory_calls": ("count", lambda t: t.calls("cbr.validate_trajectory")),
    "cbr.estimate_s": ("s", lambda t: t.inclusive("cbr.estimate_parameters")),
    "cbr.mean_phases_calls": ("count", lambda t: t.calls("cbr.mean_phases")),
    "library.load_s": ("s", lambda t: t.inclusive("library.load_library")),
    "library.case_measure_calls": ("count", lambda t: t.calls("library.case_measure")),
    "library.case_measure_s": ("s", lambda t: t.inclusive("library.case_measure")),
    "library.aggregate_s": ("s", lambda t: _sum(
        t.self_time, "library.flat_efficiency", "library.system_efficiency",
        "library.episode_efficiency", "library.episode_cases", "library.efficiency_trend")),
    "simulate.run_s": ("s", lambda t: t.inclusive("simulate.run_simulation")),
    "simulate.seed_calls": ("count", lambda t: t.calls("simulate.derive_trajectory_seed")),
    "simulate.seed_s": ("s", lambda t: t.inclusive("simulate.derive_trajectory_seed")),
    "simulate.rng_setup_calls": ("count", lambda t: t.calls("simulate.Random")),
    "simulate.rng_setup_s": ("s", lambda t: t.inclusive("simulate.Random")),
    "simulate.sample_aggregate_s": ("s", lambda t: t.self_time("simulate.run_simulation")),
}
COMMANDS = ("cbr-analyze", "chain-analyze", "cbr-evolve", "cbr-simulate", "estimate",
            "library-efficiency")
for _command in COMMANDS:
    LAYER_METRICS[f"cli.{_command}.self_s"] = (
        "s", lambda t, c=_command: t.layer_self(f"cli.{c}"))


def output_counts(text: str) -> dict[str, float]:
    """Counts read off a CLI job's output, to normalise the layer timings."""
    doc = json.loads(text)
    if doc.get("command") == "cbr-simulate":
        report = doc["report"]
        return {
            "simulate.transitions": sum(
                n for row in report["transition_counts"].values() for n in row.values()),
            "simulate.absorbed_ratio":
                report["absorbed_count"] / report["config"]["num_trajectories"],
        }
    if doc.get("command") == "library-efficiency":
        return {"library.distinct_cases": doc["n"]}
    return {}


def run_in_process(job: Job) -> tuple[bytes, str | None]:
    """One job in this process: its output and, if it failed, why."""
    if job.chain is not None:
        import solve

        doc = json.loads(job.chain.read_text(encoding="utf-8"))
        return solve.to_json(solve.analyse(doc)).encode(), None
    from click.testing import CliRunner
    from cbrchain import cli

    result = CliRunner().invoke(cli.cli, job.argv)
    if result.exit_code != 0:
        return result.stdout_bytes, f"exit {result.exit_code}: {result.exception!r}"
    return result.stdout_bytes, None


OTHER_LAYER_UNITS = {
    "simulate.transitions": "count",
    "simulate.absorbed_ratio": "ratio",
    "library.case_measure_calls_per_case": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def run_traced(jobs: list[Job], seconds: float, runner: Runner, trace_file: Path) -> dict:
    """Per-layer metrics: each job runs in process untraced, then traced."""
    import tracer

    runner.launch(IMPORT_ARGV, _import_time)  # warms the file cache and bytecode
    import_s = [runner.launch(IMPORT_ARGV, _import_time) for _ in range(IMPORT_LAUNCHES)]
    if runner.failed:
        return {}
    sys.path.insert(0, str(SRC))
    tr = tracer.Tracer()
    passes: list[dict[str, float]] = []

    def one_pass() -> bool:
        values = dict.fromkeys([*LAYER_METRICS, *OTHER_LAYER_UNITS], 0.0)
        for job in jobs:
            began = perf_counter()
            plain, failure = run_in_process(job)
            plain_s = perf_counter() - began
            tr.reset()
            with tr.installed():
                began = perf_counter()
                traced, traced_failure = run_in_process(job)
                traced_s = perf_counter() - began
            runner.attempted += 2
            failure = failure or traced_failure
            if failure is None and traced != plain:
                failure = "the traced output differs from the untraced output"
            if failure is not None:
                runner.errors.append(f"{job.name}: {failure}")
            if failure is not None or not runner.check(job, traced.decode()):
                runner.failed += 1
                return False
            for name, (_, measure) in LAYER_METRICS.items():
                values[name] += measure(tr)
            values["trace.overhead_s"] += traced_s - plain_s
            if job.chain is None:
                values["cli.output_bytes"] += len(traced)
                counts = output_counts(traced.decode())
                for name in ("simulate.transitions", "simulate.absorbed_ratio"):
                    values[name] += counts.get(name, 0)
                if "library.distinct_cases" in counts:
                    values["library.case_measure_calls_per_case"] += (
                        tr.calls("library.case_measure") / counts["library.distinct_cases"])
        passes.append(values)
        return True

    closed_loop(seconds, one_pass)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(
        [dict(zip(("job", "name", "parent", "start", "end"), span)) for span in tr.spans]
    ))
    if not passes:
        return {}
    print(describe("cli.import_s", import_s, "s"))
    print(f"# per-layer metrics: median of n={len(passes)} traced passes; spans in {trace_file}")
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()} | OTHER_LAYER_UNITS
    metrics = {"cli.import_s": (statistics.median(import_s), "s")}
    for name, unit in units.items():
        metrics[name] = (statistics.median(p[name] for p in passes), unit)
    return metrics


def _deadline(signum, frame):
    raise TimeoutError(f"the run did not finish within {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cbrchain" / "__init__.py").is_file():
        print(f"error: no cbrchain sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    try:
        jobs = jobs_for(args.workload, args.seed, work)
        if args.trace:
            trace_file = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
            metrics = run_traced(jobs, args.seconds, runner, trace_file)
        else:
            metrics = run_untraced(jobs, args.seconds, runner)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for error in runner.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    if not metrics:
        return 1
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
