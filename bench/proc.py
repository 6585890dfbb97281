"""Run one child process and read its own resource use from ``os.wait4``.

``resource.getrusage(RUSAGE_CHILDREN)`` is not used: its ``ru_maxrss`` is a
running maximum over every child reaped so far, so a small command that runs
after a large one would report the large one's peak.  ``os.wait4`` returns the
usage of the one child it reaps, including the descendants that child waited
for (the CLI joins its pool workers, so their CPU time and peak are included).

The child is started through ``launch.py``, which calls ``os.wait4`` on it:
a child's ``ru_maxrss`` also counts the resident set of the process it was
forked from, and this process is larger than the commands it measures.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCH = Path(__file__).resolve().parent / "launch.py"


@dataclass
class ChildResult:
    code: int          # exit status; negative when ended by a signal
    out: str
    err: str
    wall_s: float
    cpu_s: float       # user + system time of the child and its waited-for descendants
    peak_rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], *, timeout: float, env: dict | None = None,
              cwd: str | None = None) -> ChildResult:
    """Run ``argv`` to completion; kill its whole process group after ``timeout`` seconds."""
    t0 = time.perf_counter()
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(LAUNCH), str(write_fd), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
            pass_fds=(write_fd,), start_new_session=True)
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as report:
        try:
            out, err = proc.communicate(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            out, err = proc.communicate()
        # pool workers left behind by a killed command would outlive it
        _kill_group(proc.pid)
        text = report.read()
    usage = json.loads(text) if text else {
        "code": proc.returncode or -signal.SIGKILL, "wall_s": time.perf_counter() - t0,
        "cpu_s": 0.0, "peak_rss_mb": 0.0}
    return ChildResult(out=out.decode(errors="replace"), err=err.decode(errors="replace"),
                       **usage)
