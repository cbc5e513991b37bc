"""Process helpers for the sweep-pool tests, read from Linux's /proc."""

import os
import time

HAS_PROC = os.path.exists("/proc/self/stat")


def _stat(pid):
    """(state, ppid) of a process, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # the command name may hold spaces and parentheses; the fields
            # after its closing parenthesis start with the state and the ppid
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return fields[0], int(fields[1])


def alive(pid):
    """Whether a process exists and is not a zombie."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def child_pids(pid):
    """Pids of the live processes whose parent is pid."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(entry)
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                out.append(int(entry))
    return sorted(out)


def wait_for_children(pid, count, timeout=60.0):
    """child_pids(pid) once it holds at least `count` pids; fails after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        found = child_pids(pid)
        if len(found) >= count:
            return found
        assert alive(pid) and time.monotonic() < deadline, f"{pid} started {found}"
        time.sleep(0.01)


def environ(pid):
    """The environment a process was started with."""
    with open(f"/proc/{pid}/environ", "rb") as fh:
        entries = fh.read().split(b"\0")
    return dict(e.decode().split("=", 1) for e in entries if b"=" in e)
