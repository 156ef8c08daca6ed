"""Child-process hygiene: every process the benchmark starts has ended
before the benchmark moves on or exits.

Each child runs in a session of its own, so processes it leaves behind
(``multiprocessing``'s resource tracker, pool workers of a killed CLI)
keep its session id after they are orphaned; :func:`wait_session` waits
for all of them.  :func:`become_subreaper` makes those orphans children
of the benchmark, so it can reap them too.  :func:`stop_own_children`
ends what this process itself started (its resource tracker above all,
which otherwise outlives the interpreter by a moment).
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import threading
import time

#: seconds a leftover process gets to end on its own before it is killed
GRACE_S = 30.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants reparented to this process (Linux)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _processes():
    """``(pid, state, ppid, session)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        yield int(entry), fields[0], int(fields[1]), int(fields[3])


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def _wait_gone(select, grace: float) -> None:
    """Wait until no live process matches ``select``; kill the rest after
    ``grace`` seconds.  Zombies have ended; ours are reaped."""
    me = os.getpid()
    deadline = time.monotonic() + grace
    killed = False
    while True:
        live = []
        for pid, state, ppid, sid in _processes():
            if pid == me or not select(pid, ppid, sid):
                continue
            if state == "Z":
                if ppid == me:
                    _reap(pid)
                continue
            live.append(pid)
        if not live:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {live} survived SIGKILL")
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + 10.0
        time.sleep(0.005)


def wait_session(sid: int, grace: float = GRACE_S) -> None:
    """Wait for every process of session ``sid`` to end."""
    _wait_gone(lambda pid, ppid, s: s == sid, grace)


@contextlib.contextmanager
def child(cmd: list[str], *, timeout: float = 170.0, **kwargs):
    """Start ``cmd`` in a new session and yield its ``Popen``.  On leaving
    the block the child is waited for (killed first if the block raised
    or ``timeout`` passed), then everything it left behind.  A caller that
    reaps the child itself (``os.wait4``) sets ``proc.returncode``."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
    watchdog.daemon = True
    watchdog.start()
    try:
        yield proc
    except BaseException:
        if proc.returncode is None:
            _kill_group(proc.pid)
        raise
    finally:
        try:
            if proc.returncode is None:
                proc.wait()
        finally:
            watchdog.cancel()
            wait_session(proc.pid)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def stop_own_children(grace: float = GRACE_S) -> None:
    """Stop this process's resource tracker and wait for every child."""
    import multiprocessing
    from multiprocessing import resource_tracker

    multiprocessing.active_children()
    tracker = resource_tracker._resource_tracker
    try:
        tracker._stop()
    except (OSError, ChildProcessError):
        pass
    me = os.getpid()
    _wait_gone(lambda pid, ppid, sid: ppid == me, grace)
