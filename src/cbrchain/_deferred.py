"""Modules that run on first use.

:func:`defer` registers a module of the package in ``sys.modules`` without
running it. The module runs on the first read, write or deletion of any of
its attributes, in whichever thread makes it, and from then on it is a
plain module. The package root does not hold it as an attribute, so
``cbrchain.<layer>`` and ``from cbrchain import <layer>`` resolve it
through the root's PEP 562 ``__getattr__``, whose import reads the
module's ``__spec__`` and so runs it, as an ``import`` statement does.

Its one client is ``cli``, which defers ``library``: only
``library-efficiency`` runs it, while the benchmark's tracer looks
``sys.modules["cbrchain.library"]`` up before any command has run. Once
the tracer imports ``library`` itself, ROADMAP item 18 imports it where it
runs and deletes this module.

``importlib.util.LazyLoader`` does the same without a lock before CPython
3.12.3, so a second thread that reads a module while the first runs it can
miss attributes that are not yet defined. Here each deferred module has its
own reentrant lock: the first thread to use the module runs it under the
lock, every other thread waits for the lock and then finds the module run,
and the running thread's own reads, which executing the module makes, go
straight to the attributes defined so far. A module of the package imports
only modules below it, as the package's import graph has no cycle, so
threads take these locks in import order and never wait for each other in
a ring.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types


class _Deferred(types.ModuleType):
    """A module that has not run yet; its first use runs it (:func:`_run`)."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _run(module: _Deferred) -> None:
    """Run ``module`` unless it has run, or this thread is running it."""
    spec = types.ModuleType.__getattribute__(module, "__spec__")
    state = spec.loader_state
    with state["lock"]:
        if type(module) is not _Deferred or state["running"]:
            return
        state["running"] = True
        try:
            spec.loader.exec_module(module)
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
        finally:
            state["running"] = False


def defer(name: str) -> types.ModuleType:
    """The module ``name`` of the package, registered to run on first use,
    or as it is if it is imported already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader_state = {"lock": threading.RLock(), "running": False}
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[name] = module
    return module
