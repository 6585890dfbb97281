"""Run one command and report its own resource use, read from ``os.wait4``.

    python3 -I -S bench/launch.py <report-fd> <program> [<arg> ...]

The command inherits this process's standard streams and environment.  When
it has ended, one JSON object goes to the file descriptor <report-fd>: its
exit status, wall time, user + system CPU and peak RSS, each covering the
command and the descendants it waited for.

Linux counts in a child's ``ru_maxrss`` the resident set of the process it
was forked from.  This launcher imports four modules and no site packages, so
that floor (about 10 MB) stays below any Python command it measures.
"""

import json
import os
import sys
import time


def main() -> None:
    report_fd, argv = int(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with os.fdopen(report_fd, "w") as report:
        json.dump({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }, report)


if __name__ == "__main__":
    main()
