"""What a launch runs: the package root resolves its names on first use,
and ``cli`` defers ``_ranges``, ``library`` and ``simulate`` until a
command uses them (``cbrchain._deferred``).

Each check runs in a fresh interpreter, so that no module this suite
imported counts. A deferred module that has not run is registered in
``sys.modules`` as a subclass of the module type, and ``type()`` reads
that class without running it, so a module has run when its type is
exactly ``types.ModuleType``.
"""

import ast
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import cbrchain

FIXTURES = Path(__file__).parent / "fixtures"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
DEFERRED = ("cbrchain._ranges", "cbrchain.library", "cbrchain.simulate")


def in_fresh_interpreter(code: str, *options: str) -> str:
    """The last line that ``code`` prints, run by a new interpreter with ``options``."""
    out = subprocess.run([sys.executable, *options, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, check=True, env=ENV, timeout=120).stdout
    return out.splitlines()[-1]


def run_and_registered(code: str) -> tuple[set[str], set[str]]:
    """The modules of the package that ``code`` runs, and those it
    registers without running them."""
    line = in_fresh_interpreter(f"""
        import sys, types
        try:
            {code}
        except SystemExit:
            pass
        modules = {{n: m for n, m in sys.modules.items() if n.split(".")[0] == "cbrchain"}}
        print()
        print(repr(({{n for n, m in modules.items() if type(m) is types.ModuleType}},
                    {{n for n, m in modules.items() if type(m) is not types.ModuleType}})))
    """)
    return ast.literal_eval(line)


CLI = {"cbrchain", "cbrchain._deferred", "cbrchain.cbr", "cbrchain.cli", "cbrchain.errors",
       "cbrchain.markov", "cbrchain.rationals"}


def test_importing_the_package_runs_no_layer():
    assert run_and_registered("import cbrchain") == ({"cbrchain"}, set())


@pytest.mark.parametrize(
    "args, also_run",
    [
        (["--help"], set()),
        (["cbr-analyze", "--p31", "1/3", "--p33", "1/3"], set()),
        (["chain-analyze", "--p31", "1/3", "--p33", "1/3", "--format", "machine"], set()),
        (["estimate", "--trajectories", str(FIXTURES / "physician.txt")], set()),
        (["cbr-evolve", "--p31", "1/3", "--p33", "1/3", "--phases", "3"], {"cbrchain._ranges"}),
        (["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "10"],
         {"cbrchain._ranges", "cbrchain.simulate"}),
        (["library-efficiency", "--library", str(FIXTURES / "ge_example.json")],
         {"cbrchain.library"}),
    ],
)
def test_a_command_runs_only_the_layers_it_uses(args, also_run):
    ran, registered = run_and_registered(f"import cbrchain.cli; cbrchain.cli.main({args!r})")
    assert ran == CLI | also_run
    assert registered == set(DEFERRED) - also_run


@pytest.mark.parametrize(
    "args",
    [["estimate", "--trajectories", str(FIXTURES / "physician.txt")],
     ["library-efficiency", "--library", str(FIXTURES / "ge_example.json")]],
)
def test_a_command_that_reads_a_file_does_not_import_pathlib(args):
    # -S: without site, whose .pth files may import pathlib themselves.
    line = in_fresh_interpreter(f"""
        import sys, cbrchain.cli
        try:
            cbrchain.cli.main({args!r})
        except SystemExit as exc:
            assert exc.code == 0
        print("pathlib" in sys.modules)
    """, "-S")
    assert line == "False"


def test_the_markov_engine_runs_only_its_own_layers():
    ran, registered = run_and_registered(
        "from cbrchain import markov; "
        "markov.canonical_form(markov.validate_stochastic(('a', 'b'), [[1, 0], ['1/2', '1/2']]))"
    )
    assert ran == {"cbrchain", "cbrchain.errors", "cbrchain.markov", "cbrchain.rationals"}
    assert registered == set()


def test_every_public_name_is_the_object_its_module_defines():
    for name in cbrchain.__all__:
        value = getattr(cbrchain, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"cbrchain.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    assert set(cbrchain.__all__) <= set(dir(cbrchain))
    assert {"__version__", "DEFAULT_MAX_PHASES"} <= set(dir(cbrchain))
    namespace = {}
    exec("from cbrchain import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cbrchain.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cbrchain.no_such_name


def test_threads_that_first_use_the_deferred_layers_together_run_each_once():
    # Each thread starts on another deferred layer, so that threads wait for
    # one another's layers as well as for the same one.
    line = in_fresh_interpreter(f"""
        import sys, threading
        import cbrchain, cbrchain.cli

        DEFERRED = {DEFERRED!r}
        FUNCTION = dict(zip(DEFERRED, ("in_ranges", "load_library", "run_simulation")))
        THREADS = 8
        runs, errors = [], []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "<module>":
                runs.append(frame.f_code.co_filename)

        def use(i):
            try:
                barrier.wait()
                for name in DEFERRED[i % 3:] + DEFERRED[:i % 3]:
                    assert callable(getattr(sys.modules[name], FUNCTION[name]))
                assert cbrchain.efficiency_report is cbrchain.library.efficiency_report
                assert cbrchain.SimulationConfig is cbrchain.simulate.SimulationConfig
            except BaseException as exc:
                errors.append(repr(exc))

        barrier = threading.Barrier(THREADS)
        threads = [threading.Thread(target=use, args=(i,), daemon=True) for i in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threading.setprofile(profile)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            threading.setprofile(None)
            sys.setswitchinterval(interval)
        alive = sum(t.is_alive() for t in threads)
        ran = {{name: sum(f == sys.modules[name].__file__ for f in runs) for name in DEFERRED}}
        print()
        print(repr((alive, errors, ran)))
    """)
    alive, errors, ran = ast.literal_eval(line)
    assert not alive
    assert errors == []
    assert ran == dict.fromkeys(DEFERRED, 1)
