"""What a launch runs: the package root resolves its names on first use,
``cli`` imports ``_ranges`` and ``simulate`` in the commands that run
them, and it registers ``library`` in ``sys.modules`` to run on first use
(``cbrchain._deferred``).

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
DEFERRED = ("cbrchain.library",)


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


def test_the_cli_imports_only_the_standard_library():
    # The CLI runs some layers only when a command uses them, so every module
    # of the package is run before the loaded modules are listed.
    line = in_fresh_interpreter("""
        import importlib, pkgutil, sys
        before = set(sys.modules)
        import cbrchain.cli
        for module in pkgutil.iter_modules(cbrchain.__path__, 'cbrchain.'):
            vars(importlib.import_module(module.name))
        loaded = {m.split('.')[0] for m in set(sys.modules) - before}
        print(*sorted(loaded - set(sys.stdlib_module_names)))
    """)
    assert line == "cbrchain"


def test_the_cli_does_not_load_openssl_where_a_builtin_sha256_exists():
    # The CLI runs simulate only when a command uses it, so the probe runs it.
    builtin, hashlib_loaded = in_fresh_interpreter("""
        import importlib.util, sys
        builtin = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256'))
        import cbrchain.cli
        vars(cbrchain.simulate)
        print(builtin, '_hashlib' in sys.modules)
    """).split()
    if builtin == "True":
        assert hashlib_loaded == "False"


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


@pytest.mark.parametrize("first_use", ["from cbrchain import library",
                                       "library = cbrchain.library"])
def test_importing_a_deferred_layer_from_the_package_runs_it(first_use):
    line = in_fresh_interpreter(f"""
        import sys, types
        import cbrchain.cli
        {first_use}
        print(type(library) is types.ModuleType and library is sys.modules["cbrchain.library"])
    """)
    assert line == "True"


def test_threads_that_first_use_the_deferred_layers_together_run_each_once():
    # Each thread starts on another first use: library through sys.modules
    # and through the package root, and simulate and _ranges by import, so
    # that threads wait for one another's layers as well as for the same one.
    layers = ("cbrchain.library", "cbrchain.simulate", "cbrchain._ranges")
    line = in_fresh_interpreter(f"""
        import importlib, sys, threading
        import cbrchain, cbrchain.cli

        USES = (
            lambda: sys.modules["cbrchain.library"].load_library,
            lambda: cbrchain.library.efficiency_report,
            lambda: importlib.import_module("cbrchain.simulate").run_simulation,
            lambda: importlib.import_module("cbrchain._ranges").in_ranges,
        )
        THREADS = 8
        runs, errors = [], []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "<module>":
                runs.append(frame.f_code.co_filename)

        def use(i):
            try:
                barrier.wait()
                for first_use in USES[i % 4:] + USES[:i % 4]:
                    assert callable(first_use())
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
        ran = {{name: sum(f == sys.modules[name].__file__ for f in runs) for name in {layers!r}}}
        print()
        print(repr((alive, errors, ran)))
    """)
    alive, errors, ran = ast.literal_eval(line)
    assert not alive
    assert errors == []
    assert ran == dict.fromkeys(layers, 1)
