"""A background probe of the host's speed while the benchmark's commands run.

On a shared 2-core host the processor ran the same pure-Python code at full
speed or at about half of it, switching within seconds as other tenants came
and went, so one pass of a workload could take 7 s or 12 s.  A thread of the
benchmark's own process times a fixed pure-Python loop every 50 ms, on
whichever core is free, and each command's time is scaled by ``REF_S`` / the
loop's mean time while the command ran.  Over eight passes of
``census --scan-all --q 3`` on that host, the pass times ranged from 7.0 to
12.4 s, their correlation with the loop's mean wall time during each pass
was 0.99, and the scaled times stayed within 7% of their median.  Over ten
runs of each workload in a noisy period, scaling cut the spread of the
median pass time (quartile distance over median) from 0.12-0.20 to
0.08-0.11.  On a quiet host the correlation is weak, and scaling adds a few
percent of noise.

The loop is not part of the program, so a change to the program moves the
scaled times as much as the raw ones.  It is timed in thread CPU time, so a
command that keeps both cores busy delays the probe without slowing it, and
it does arithmetic on a few small objects: a probe of memory lookups would
also feel the program's own use of the shared caches.  The probe takes about
3% of one core.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.05
REF_S = 0.0012  # one probe's CPU time at full speed on the host the bounds were set on


def probe() -> float:
    """Thread CPU time of a fixed pure-Python loop."""
    t0 = time.thread_time()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.thread_time() - t0


class SpeedMonitor:
    """Times ``probe`` every ``INTERVAL_S`` in a background thread, inside a ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # wall start, wall end, CPU time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            cpu = probe()
            self.samples.append((t0, time.perf_counter(), cpu))

    def __enter__(self) -> SpeedMonitor:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_S`` / the mean probe time over the probes that overlap [t0, t1].

        A window too short to overlap any probe uses every probe so far.
        """
        samples = list(self.samples)
        window = ([cpu for s, e, cpu in samples if s <= t1 and e >= t0]
                  or [cpu for _, _, cpu in samples])
        return REF_S / statistics.fmean(window)
