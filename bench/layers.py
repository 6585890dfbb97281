"""Per-layer metrics: spans around the package's public functions, plus direct timings.

The traced sweeps run the workload's CLI commands in this process at 1 worker,
because forked pool workers would record their spans in the children, where
they are lost.  Each traced function is replaced at every binding of it in the
loaded ``twistfield`` modules: ``engine.census``, ``engine.spaces`` and
``engine.verify`` import the linalg kernels by name, so patching only
``twistfield.linalg`` would miss their calls.

Two in-process passes run the same commands.  The phase pass wraps only the
few top-level functions (one call each), so its times are untraced for all
practical purposes.  The kernel pass wraps the kernels too; its calls and self
times give the kernel metrics, and its extra wall time is the tracing overhead.
A workload that never reaches a layer reports 0 for that layer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
from array import array

import twistfield.cli
from twistfield import algebra3, linalg, splitalbert
from twistfield.engine import census, normalform, spaces, verify
from twistfield.gf import FieldTower, parse_triple

from proc import run_child
from workloads import Inputs, Workload, check_output, commands

TOWER_QS = (3, 4, 5, 7, 8, 9)  # every q the CLI supports

PHASES = {
    "engine.census.scan_all_nondegenerate": (census, "scan_all_nondegenerate"),
    "engine.verify.theorem_A": (verify, "verify_theorem_A"),
    "engine.verify.theorem_B": (verify, "verify_theorem_B"),
    "engine.verify.split_3_1": (verify, "verify_split_theorem_3_1"),
    "engine.verify.normal_forms": (verify, "verify_normal_forms"),
    "engine.verify.analogue_7_2": (verify, "search_theorem_7_2_analogue"),
}

KERNELS = {
    "engine.spaces.pair_rows": (spaces, "pair_rows"),
    "linalg.rref_rows": (linalg, "rref_rows"),
    "linalg.added_rank": (linalg, "added_rank"),
    "linalg.intersect_rows": (linalg, "intersect_rows"),
    "linalg.kernel_rows": (linalg, "kernel_rows"),
    "engine.normalform.pair_normal_form": (normalform, "pair_normal_form"),
    "splitalbert.rmat": (splitalbert, "rmat"),
}

PER_LAYER = (
    [("cli.startup_s", "s"), ("gf.tower_build_s", "s")]
    + [(f"gf.tower_build_s.q{q}", "s") for q in TOWER_QS]
    + [
        ("algebra3.tensor_s", "s"),
        ("algebra3.isotopy_class_s", "s"),
        ("engine.spaces.pair_rows_calls", "count"),
        ("engine.spaces.pair_rows_s", "s"),
        ("linalg.rref_rows_calls", "count"),
        ("linalg.rref_rows_self_s", "s"),
        ("linalg.added_rank_calls", "count"),
        ("linalg.added_rank_self_s", "s"),
        ("linalg.added_rank_per_s", "1/s"),
        ("linalg.intersect_rows_calls", "count"),
        ("linalg.intersect_rows_self_s", "s"),
        ("linalg.kernel_rows_calls", "count"),
        ("linalg.kernel_rows_self_s", "s"),
        ("engine.census.inventory_s", "s"),
        ("engine.census.inventory_spaces", "count"),
        ("engine.census.inventory_vectors_per_s", "1/s"),
        ("engine.census.inventory_speedup_2w", "ratio"),
        ("engine.census.tally_s", "s"),
        ("engine.census.lines_s", "s"),
        ("engine.census.scan_s", "s"),
        ("engine.census.scan_vectors_checked", "count"),
        ("engine.verify.theorem_B_s", "s"),
        ("engine.verify.theorem_A_s", "s"),
        ("engine.verify.split_3_1_s", "s"),
        ("engine.verify.normal_forms_s", "s"),
        ("engine.verify.analogue_7_2_s", "s"),
        ("engine.normalform.pair_normal_form_calls", "count"),
        ("engine.normalform.pair_normal_form_self_s", "s"),
        ("splitalbert.rmat_calls", "count"),
        ("splitalbert.rmat_self_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Spans kept in memory, one slot per call: name, start, end and parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (total minus child spans)."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = array("d", bytes(8 * len(starts)))
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_ids):
            rec = out[self.names[nid]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out


@contextlib.contextmanager
def traced_bindings(tracer: Tracer, targets: dict):
    """Replace each target function at every binding in the loaded twistfield modules."""
    wrapped = {}
    for name, (module, attr) in targets.items():
        fn = getattr(module, attr)
        wrapped[id(fn)] = (fn, tracer.wrap(name, fn))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "twistfield":
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def run_cli_in_process(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = twistfield.cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def _median_time(fn, reps: int, batch: int = 1) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _traced_pass(workload: Workload, inputs: Inputs, targets: dict) -> tuple:
    """Run the workload's commands in process at 1 worker under ``targets`` spans."""
    tracer = Tracer()
    wall = 0.0
    runs = []
    with traced_bindings(tracer, targets):
        for argv in commands(workload, inputs, workers=1):
            code, out, dt = run_cli_in_process(argv)
            wall += dt
            runs.append((argv, code, out))
    return tracer.summary(), wall, runs


def layer_metrics(workload: Workload, inputs: Inputs, env: dict,
                  timeout: float) -> tuple[dict, list[list[str]], dict]:
    """All per-layer metrics for one workload; also the problems of each checked command."""
    m: dict[str, float] = {}
    problems: list[list[str]] = []

    startup = [run_child([sys.executable, "-c", "import twistfield.cli"], env=env, timeout=timeout)
               for _ in range(6)][1:]  # the first one may compile bytecode
    problems += [[f"startup exit code {r.code}"] if r.code else [] for r in startup]
    m["cli.startup_s"] = statistics.median(r.wall_s for r in startup)
    for q in TOWER_QS:
        m[f"gf.tower_build_s.q{q}"] = _median_time(lambda: FieldTower.build(q), reps=3)
    m["gf.tower_build_s"] = m[f"gf.tower_build_s.q{workload.q}"]

    tower = FieldTower.build(workload.q)
    spec = algebra3.TwistedFieldSpec(tower, parse_triple(tower, inputs.c))
    m["algebra3.tensor_s"] = _median_time(lambda: algebra3.to_structure_constants(spec),
                                          reps=5, batch=100)
    m["algebra3.isotopy_class_s"] = _median_time(lambda: algebra3.isotopy_class(spec),
                                                 reps=5, batch=1000)

    phases, untraced_wall, runs = _traced_pass(workload, inputs, PHASES)
    kernels, traced_wall, more_runs = _traced_pass(workload, inputs, {**PHASES, **KERNELS})
    checked = [check_output(workload, inputs, argv, code, out)
               for argv, code, out in runs + more_runs]
    problems += checked

    alg = algebra3.to_structure_constants(spec)
    cls = algebra3.isotopy_class(spec)
    v = twistfield.cli.parse_pair_vector(tower, inputs.v)
    inventory, t1 = _timed(lambda: census.build_inventory(alg, workers=1))
    _, t2 = _timed(lambda: census.build_inventory(alg, workers=2))
    m["engine.census.inventory_s"] = t1
    m["engine.census.inventory_spaces"] = len(inventory.spaces)
    m["engine.census.inventory_vectors_per_s"] = workload.q**6 / t1
    m["engine.census.inventory_speedup_2w"] = t1 / t2
    tally = _median_time(lambda: census.per_vector_profile(
        alg, v, inventory=inventory, algebra_class=cls), reps=3)
    lines = _median_time(lambda: census.line_profile(
        alg, v, inventory=inventory, algebra_class=cls), reps=3)
    m["engine.census.tally_s"] = tally
    m["engine.census.lines_s"] = lines - tally

    m["engine.census.scan_s"] = phases["engine.census.scan_all_nondegenerate"]["total_s"]
    m["engine.census.scan_vectors_checked"] = sum(
        json.loads(out)["report"]["observed"]["vectors_checked"]
        for (argv, _, out), found in zip(runs, checked) if "--scan-all" in argv and not found)
    for name in ("theorem_B", "theorem_A", "split_3_1", "normal_forms", "analogue_7_2"):
        m[f"engine.verify.{name}_s"] = phases[f"engine.verify.{name}"]["total_s"]
    for name in KERNELS:
        m[f"{name}_calls"] = kernels[name]["calls"]
        # pair_rows has no traced callees, so its self time is its whole time
        m[f"{name}_s" if name == "engine.spaces.pair_rows" else f"{name}_self_s"] = (
            kernels[name]["self_s"])
    calls, self_s = m["linalg.added_rank_calls"], m["linalg.added_rank_self_s"]
    m["linalg.added_rank_per_s"] = calls / self_s if self_s else 0.0
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m, problems, kernels
