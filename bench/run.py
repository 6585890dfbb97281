"""Benchmark of the twistfield CLI, run from the repository root.

    python3 bench/run.py --workload scan-q3 --seed 1 --seconds 44 --trace 0

With ``--trace 0`` it runs the workload's CLI commands as subprocesses in a
closed loop: one client starts each command only after the previous one has
finished, until ``--seconds`` would be exceeded by one more round (a set-up
probe, then one pass over the commands).  Every output is checked against
the closed forms in ``workloads.py``.  It reports the end-to-end metrics:

- ``wall_scaled_s``: median wall time of one pass over the workload's
  commands, scaled to a host of reference speed (see below).
- ``cpu_scaled_s``: median user + system CPU of one pass, pool workers
  included, scaled the same way.
- ``setup_s``: median wall time of a fresh process that starts the
  interpreter, imports ``twistfield.cli``, builds the field tower and the
  tensor, and classifies c, for the workload's q and c.
- ``peak_rss_mb``: the largest peak RSS of any invocation.
- ``success_ratio``: correct invocations / attempted, set-up probes
  included.  An invocation fails on a nonzero exit, a timeout, JSON that does
  not parse, a false verdict, or a count that differs from the closed forms.
  (``failed / attempted`` is the failure ratio; it is reported as the
  ``failed`` and ``attempted`` fields, because a metric must never read 0.)

With ``--trace 1`` it reports the per-layer metrics of ``layers.py`` instead;
that run does a fixed amount of work and ignores ``--seconds``.

Earlier lines of standard output give the machine facts, the samples and the
metrics by name and unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Numbers from
different hosts must not be compared.

Why the times are scaled: on a shared host the same command took from 7 to
12 s, as other tenants slowed the processor, and whole runs of one workload
differed by up to a third.  ``speed.py`` probes the host's speed while each
command runs; the scaled times are those of a host of fixed speed.  The raw
medians are printed before the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from proc import run_child
from speed import SpeedMonitor
from workloads import WORKLOADS, Inputs, check_output, commands

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PER_ROUND = 3

END_TO_END = (
    ("wall_scaled_s", "s"),
    ("cpu_scaled_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

SETUP_PROBE = """
import sys
import twistfield.cli
from twistfield.algebra3 import TwistedFieldSpec, isotopy_class, to_structure_constants
from twistfield.gf import FieldTower, parse_triple
tower = FieldTower.build(int(sys.argv[1]))
spec = TwistedFieldSpec(tower, parse_triple(tower, sys.argv[2]))
to_structure_constants(spec)
print(isotopy_class(spec).value)
"""


def machine_facts(workload: str, seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": loadavg,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


class Tally:
    """Attempted and failed invocations; problems are echoed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def end_to_end(workload, inputs, seconds: float, env: dict, deadline: float, tally: Tally):
    python = [sys.executable]

    def remaining() -> float:
        return deadline - time.perf_counter()

    def probe_setup() -> float:
        r = run_child(python + ["-c", SETUP_PROBE, str(workload.q), inputs.c],
                      env=env, timeout=remaining())
        ok = r.code == 0 and r.out.strip() == workload.algebra_class
        tally.add("set-up probe", [] if ok else [f"exit {r.code}, class {r.out.strip()!r}"])
        return r.wall_s

    probe_setup()  # the first probe may compile bytecode; not timed
    cmds = commands(workload, inputs, workers=min(2, os.cpu_count() or 1))
    setup, walls, cpus, scaled_walls, scaled_cpus, rounds, peak = [], [], [], [], [], [], 0.0
    setup_scaled = []
    by_command = [[] for _ in cmds]
    t0 = time.perf_counter()
    with SpeedMonitor() as speed:
        # one round: set-up probes spread over the run, then one pass over the commands
        while not rounds or (time.perf_counter() - t0 + statistics.median(rounds) <= seconds
                             and statistics.median(rounds) < remaining()):
            start = time.perf_counter()
            for _ in range(SETUP_PER_ROUND):
                began = time.perf_counter()
                setup.append(probe_setup())
                setup_scaled.append(setup[-1] * speed.factor(began, time.perf_counter()))
            wall = cpu = scaled_wall = scaled_cpu = 0.0
            for argv, samples in zip(cmds, by_command):
                began = time.perf_counter()
                r = run_child(python + ["-m", "twistfield.cli", *argv], env=env,
                              timeout=remaining())
                factor = speed.factor(began, time.perf_counter())
                tally.add(" ".join(argv), check_output(workload, inputs, argv, r.code, r.out))
                samples.append(r.wall_s)
                wall += r.wall_s
                cpu += r.cpu_s
                scaled_wall += r.wall_s * factor
                scaled_cpu += r.cpu_s * factor
                peak = max(peak, r.peak_rss_mb)
            walls.append(wall)
            cpus.append(cpu)
            scaled_walls.append(scaled_wall)
            scaled_cpus.append(scaled_cpu)
            rounds.append(time.perf_counter() - start)
    print(json.dumps({"samples": {"passes": len(walls), "wall_s": walls, "cpu_s": cpus,
                                  "wall_scaled_s": scaled_walls, "cpu_scaled_s": scaled_cpus,
                                  "setup_s": setup, "setup_scaled_s": setup_scaled,
                                  "by_command_wall_s": by_command}}))
    print(json.dumps({"raw": {"wall_s": statistics.median(walls),
                              "cpu_s": statistics.median(cpus)}}))
    return {
        "wall_scaled_s": statistics.median(scaled_walls),
        "cpu_scaled_s": statistics.median(scaled_cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak,
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }, END_TO_END


def per_layer(workload, inputs, env: dict, deadline: float, tally: Tally):
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, layer_metrics

    values, problems, spans = layer_metrics(workload, inputs, env,
                                            timeout=deadline - time.perf_counter())
    for found in problems:
        tally.add("traced pass", found)
    for name, rec in spans.items():
        print(f"span {name}: {rec['calls']} calls, {rec['total_s']:.4f} s total, "
              f"{rec['self_s']:.4f} s self")
    return values, PER_LAYER


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "twistfield" / "cli.py").is_file():
        print(f"error: {SRC / 'twistfield'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"machine": machine_facts(workload.name, args.seed)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    derived = run_child([sys.executable, str(BENCH / "derive.py"), workload.name, str(args.seed)],
                        env=env, timeout=deadline - time.perf_counter())
    if derived.code != 0:
        print(f"error: deriving the inputs failed:\n{derived.err}", file=sys.stderr)
        return 1
    inputs = Inputs(**json.loads(derived.out))
    print(json.dumps({"inputs": {"c": inputs.c, "v": inputs.v}}))
    tally = Tally()
    if args.trace:
        values, names = per_layer(workload, inputs, env, deadline, tally)
    else:
        values, names = end_to_end(workload, inputs, args.seconds, env, deadline, tally)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, rec in metrics.items():
        print(f"{name} = {rec['value']!r} {rec['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
