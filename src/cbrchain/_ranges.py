"""Work over contiguous ranges of indexes, one range per usable CPU.

``run_simulation`` splits its walks and ``cbr-evolve`` its phases this way.
:func:`in_ranges` runs ``fn(lo, hi)`` for each range, the first in process
and each other one in a forked worker that sends its result back pickled,
and returns the results in range order. A caller whose result is the same
for any split, as an integer sum over walks or the exact text of each
phase is, gives the same output on any number of CPUs. A process that
cannot fork, or that runs other threads (forking a threaded process is
unsafe, and warns on Python 3.12+), keeps every range in process.

No worker outlives the call. A worker writes only to its own pipe, so it
never holds the caller's stdout or stderr open, and it ends itself once its
parent is gone, even when the parent was killed by SIGKILL. A SIGTERM that
would end the parent at once first kills and reaps every worker, and then
ends the parent by SIGTERM as before.
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


class _Terminated(SystemExit):
    """SIGTERM, received while workers run: :func:`in_ranges` kills and
    reaps them, then sends SIGTERM again with its default action restored.
    Should it escape, the process exits 143, as a shell reports a SIGTERM."""


def _terminate(signum, frame):
    import signal

    signal.signal(signum, signal.SIG_DFL)  # a second SIGTERM ends the process at once
    raise _Terminated(128 + signum)


def _exit_at_eof(fd: int) -> None:
    """Wait for the end of file on ``fd``, to which nothing is written, then
    end this process with status 1."""
    os.read(fd, 1)
    os._exit(1)


def _fork(fn, lo: int, hi: int, dumps, lifeline: tuple[int, int]) -> tuple[int, int]:
    """Fork a child that writes ``dumps(fn(lo, hi))`` to a pipe and exits;
    return its pid and the pipe's read end.

    The child leaves by ``os._exit`` whatever happens, so it never flushes
    the caller's buffers or unwinds into the caller's stack; it exits 0 only
    once the whole payload is written. Its stdout and stderr are
    ``os.devnull``, and SIGTERM takes its default action in it. It exits 1
    as soon as ``lifeline``, a pipe whose write end only its parent keeps,
    reaches the end of file: when the parent is gone.
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
            import signal

            os.close(read_end)
            os.close(lifeline[1])
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            threading.Thread(target=_exit_at_eof, args=(lifeline[0],), daemon=True).start()
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
    ChildProcessError. While children run, a SIGTERM that would end this
    process at once raises here instead, and once the children are reaped
    it is sent again with its default action, which ends the process; a
    SIGTERM handler of the caller's, or SIG_IGN, is left in place.
    """
    ranges = list(zip(bounds, bounds[1:]))
    if len(ranges) == 1:
        return [fn(*ranges[0])]
    import pickle  # not loaded at launch, and needed only here
    import signal

    catch = (signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
             and threading.current_thread() is threading.main_thread())
    if catch:
        signal.signal(signal.SIGTERM, _terminate)
    lifeline = os.pipe()
    children: dict[int, int] = {}  # pid -> the read end of its pipe
    try:
        for lo, hi in ranges[1:]:
            pid, read_end = _fork(fn, lo, hi, pickle.dumps, lifeline)
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
    except BaseException as exc:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if isinstance(exc, _Terminated):
            os.kill(os.getpid(), signal.SIGTERM)
        raise
    finally:
        os.close(lifeline[0])
        os.close(lifeline[1])
        if catch:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return results
