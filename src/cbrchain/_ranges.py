"""Work over contiguous ranges of indexes, one range per usable CPU.

``run_simulation`` splits its walks and ``cbr-evolve`` its phases this way.
:func:`in_ranges` runs ``fn(lo, hi)`` for each range, the first in process
and each other one in a forked worker that sends its result back pickled,
and returns the results in range order. A caller whose result is the same
for any split, as an integer sum over walks or the exact text of each
phase is, gives the same output on any number of CPUs. A process that
cannot fork, or that runs other threads (forking a threaded process is
unsafe, and warns on Python 3.12+), keeps every range in process.
"""

from __future__ import annotations

import os
import threading


def range_count(work: float, least: float) -> int:
    """How many ranges to split ``work`` into: one per usable CPU, as many
    as get ``least`` of it, and at least one. Only one CPU is usable unless
    the interpreter can fork and no other thread runs."""
    ranges = int(work // least)
    if ranges < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        cpus = os.cpu_count() or 1
    return min(ranges, cpus)


def _fork(fn, lo: int, hi: int, dumps) -> tuple[int, int]:
    """Fork a child that writes ``dumps(fn(lo, hi))`` to a pipe and exits;
    return its pid and the pipe's read end.

    The child leaves by ``os._exit`` whatever happens, so it never flushes
    the caller's buffers or unwinds into the caller's stack; it exits 0 only
    once the whole payload is written.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(dumps(fn(lo, hi)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def in_ranges(fn, bounds: list[int]) -> list:
    """``fn(lo, hi)`` for each pair of consecutive ``bounds``, in range order.

    The first range runs here and each other one in a forked child. If a
    child fails, or this process raises while children run, every child
    still running is killed, each is reaped, and the error is raised; a
    child that exits other than 0, or whose result does not decode, raises
    ChildProcessError.
    """
    ranges = list(zip(bounds, bounds[1:]))
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    import pickle  # not loaded at launch, and needed only here

    children: dict[int, int] = {}  # pid -> the read end of its pipe
    try:
        for lo, hi in ranges[1:]:
            pid, read_end = _fork(fn, lo, hi, pickle.dumps)
            children[pid] = read_end
        results = [fn(*ranges[0])]
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(read_end)
            if code != 0:
                raise ChildProcessError(f"worker {pid} exited with code {code}")
            try:
                results.append(pickle.loads(payload))
            except (EOFError, pickle.UnpicklingError) as exc:
                raise ChildProcessError(
                    f"worker {pid} sent {len(payload)} bytes that do not decode"
                ) from exc
    except BaseException:
        import signal

        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return results
