"""In-process tracing of ``cbrchain`` for the benchmark's traced run.

:class:`Tracer` wraps every public function of the ``rationals``,
``markov``, ``cbr``, ``library``, ``simulate`` and ``cli`` modules wherever
the package binds it. Bindings are found by object identity, because
modules import each other's functions by name. It also wraps the callback
of each CLI command and the ``random.Random`` that ``simulate`` draws its
per-trajectory streams from. Everything is restored on exit from
:meth:`Tracer.installed`.

Every wrapped call adds to a count and to cumulative times: inclusive,
self (not in any wrapped child) and layer-self (not in a wrapped child of
another layer). Times exclude the measured cost of the wrappers inside
them. Functions called once or a few times per job also record a
span; functions called per item, such as per walk, case or trajectory, do
not, so that memory stays bounded. All of it is kept in memory until the
run writes it out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import random
import statistics
import sys
import types
from time import perf_counter

LAYERS = ("rationals", "markov", "cbr", "library", "simulate", "cli")

SPANNED = frozenset(
    {
        "markov.validate_stochastic",
        "markov.classify_states",
        "markov.canonical_form",
        "markov.fundamental_matrix",
        "markov.invert_matrix",
        "markov.expected_absorption_steps",
        "markov.absorption_probabilities",
        "markov.evolve",
        "cbr.cbr_transition_matrix",
        "cbr.read_trajectories",
        "cbr.parse_trajectories",
        "library.load_library",
        "library.loads_library",
        "library.library_from_dict",
        "library.flat_efficiency",
        "library.system_efficiency",
        "simulate.run_simulation",
        "cli.render_fundamental",
    }
)


class Tracer:
    """Counters and spans of one traced job at a time; see the module doc."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._calls = [0]  # wrapped calls so far, of every function
        # name -> [calls, inclusive, self, layer-self, depth]
        self._stats: dict[str, list] = {}
        # layer -> [inclusive, depth]
        self._layers: dict[str, list] = {}
        self.overhead = 0.0
        self.overhead = self._calibrate()

    def _calibrate(self, calls: int = 20_000, rounds: int = 9) -> float:
        """Seconds a wrapped call adds to its caller, outside its own timing.

        Every time is corrected by this much per wrapped call made inside
        it, so that self times do not grow with the number of calls traced.
        """
        def noop(value):
            return value

        wrapped = self._wrap("calibrate.noop", "calibrate", noop)

        def plain_loop():
            for i in range(calls):
                noop(i)

        def traced_loop():
            for i in range(calls):
                wrapped(i)

        loop = self._wrap("calibrate.loop", "calibrate", traced_loop)
        costs = []
        for _ in range(rounds):
            start = perf_counter()
            plain_loop()
            plain = perf_counter() - start
            self.reset()
            loop()
            costs.append((self.self_time("calibrate.loop") - plain) / calls)
        del self._stats["calibrate.noop"], self._stats["calibrate.loop"]
        del self._layers["calibrate"]
        self.job = 0
        return max(0.0, statistics.median(costs))

    def reset(self) -> None:
        """Start the counters of a new job; spans are kept."""
        self.job += 1
        for stats in self._stats.values():
            stats[:] = [0, 0.0, 0.0, 0.0, 0]
        for stats in self._layers.values():
            stats[:] = [0.0, 0]

    def _stat(self, index: int, name: str):
        stats = self._stats.get(name)
        return stats[index] if stats else 0

    def calls(self, name: str) -> int:
        return self._stat(0, name)

    def inclusive(self, name: str) -> float:
        """Time in the outermost calls of ``name``."""
        return self._stat(1, name)

    def self_time(self, name: str) -> float:
        """Time in ``name`` outside every wrapped function it called."""
        return self._stat(2, name)

    def layer_self(self, name: str) -> float:
        """Time in ``name`` outside the wrapped functions of other layers."""
        return self._stat(3, name)

    def layer_inclusive(self, layer: str) -> float:
        """Time in the outermost calls into ``layer``."""
        stats = self._layers.get(layer)
        return stats[0] if stats else 0.0

    def _wrap(self, name: str, layer: str, fn, spanned: bool = False):
        stack, spans, calls = self._stack, self.spans, self._calls
        overhead = self.overhead
        spanned = spanned or name in SPANNED
        stats = self._stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        layer_stats = self._layers.setdefault(layer, [0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # name, layer, time in wrapped children, in other layers' children
            frame = [name, layer, 0.0, 0.0]
            stack.append(frame)
            stats[4] += 1
            layer_stats[1] += 1
            calls_before = calls[0]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start - (calls[0] - calls_before) * overhead
                calls[0] += 1
                stats[0] += 1
                stats[2] += took - frame[2]
                stats[3] += took - frame[3]
                stats[4] -= 1
                if not stats[4]:
                    stats[1] += took
                layer_stats[1] -= 1
                if not layer_stats[1]:
                    layer_stats[0] += took
                if stack:
                    parent = stack[-1]
                    parent[2] += took
                    if parent[1] != layer:
                        parent[3] += took
                    if spanned:
                        spans.append((self.job, name, parent[0], start, end))
                elif spanned:
                    spans.append((self.job, name, None, start, end))

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self) -> None:
        from cbrchain import cli, simulate

        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"cbrchain.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        for module_name in sorted(sys.modules):
            if module_name != "cbrchain" and not module_name.startswith("cbrchain."):
                continue
            module = sys.modules[module_name]
            for attr, obj in list(vars(module).items()):
                target = targets.get(id(obj))
                if target is not None and target[0] is obj:
                    self._patch(module, attr, target[1])
        for command_name, command in cli.cli.commands.items():
            self._patch(
                command,
                "callback",
                self._wrap(f"cli.{command_name}", "cli", command.callback, spanned=True),
            )
        rng_module = types.SimpleNamespace(**vars(random))
        rng_module.Random = self._wrap("simulate.Random", "simulate", random.Random)
        self._patch(simulate, "random", rng_module)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the ``with`` block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
