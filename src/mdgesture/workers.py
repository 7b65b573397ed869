"""Forked worker processes: how many cores a caller may fork onto, a fork
that reports the exception its child failed with, and the join.

The render pool forks through here. A child leaves through os._exit: it
never returns into the caller and never flushes the stdio buffers it
inherited.
"""

from __future__ import annotations

import os
import pickle


def usable_cores() -> int:
    """Cores this process may run on (`taskset -c 0` gives 1), and 1
    where the platform cannot fork, so a caller that forks one process
    per extra core forks none."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_call(fn, *args) -> tuple[int, int]:
    """Run fn(*args) in a forked child; returns its pid and the read end
    of a pipe on which the child sends the exception it failed with.
    The child exits 0 when fn returns and 1 when it raises."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        fn(*args)
        status = 0
    except BaseException as e:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(e))
    finally:
        os._exit(status)


def join(pid: int, read_fd: int, what: str) -> BaseException | None:
    """Wait for a forked child; returns the exception it failed with, or
    None. It raises nothing itself, so a caller joins every child before
    raising. A child that ended without a readable report (a signal, a
    report cut short) is reported by its exit code as an OSError naming
    it: `what` and its pid."""
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if payload:
        try:
            return pickle.loads(payload)
        except Exception:  # any unpickling failure: the report is unreadable
            return OSError(f"{what} {pid} ended with exit code {code} "
                           f"and an unreadable error report")
    if code:
        return OSError(f"{what} {pid} ended with exit code {code}")
    return None
