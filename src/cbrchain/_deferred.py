"""Modules that run on first use.

:func:`defer` registers a module of the package in ``sys.modules``, and as
an attribute of its parent, without running it. The module runs on the
first read, write or deletion of any of its attributes, in whichever
thread makes it, and from then on it is a plain module. ``cli`` defers the
layers that only some commands run, so that a launch runs only what its
command uses, while every layer is in ``sys.modules`` for code that looks
modules up there.

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
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module
