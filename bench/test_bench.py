"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from twistfield import linalg  # noqa: E402
from twistfield.algebra3 import TwistedFieldSpec, isotopy_class, to_structure_constants  # noqa: E402
from twistfield.cli import parse_pair_vector  # noqa: E402
from twistfield.engine import census  # noqa: E402
from twistfield.engine.spaces import NONDEGENERATE, PairVector, classify  # noqa: E402
from twistfield.gf import FieldTower, parse_triple  # noqa: E402

from layers import KERNELS, PER_LAYER, Tracer, run_cli_in_process, traced_bindings  # noqa: E402
from proc import run_child  # noqa: E402
from run import END_TO_END  # noqa: E402
from speed import REF_S, SpeedMonitor  # noqa: E402
from derive import derive_inputs  # noqa: E402
from workloads import COMMUTATIVE, WORKLOADS, check_output, commands, expected_counts  # noqa: E402

CENSUS = WORKLOADS["census-q7"]
VERIFY = WORKLOADS["verify-q4"]
SCAN = WORKLOADS["scan-q3"]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_derives_a_valid_c_of_the_class_and_a_nondegenerate_v(name):
    workload = WORKLOADS[name]
    tower = FieldTower.build(workload.q)
    for seed in range(12):
        inputs = derive_inputs(workload, seed)
        assert derive_inputs(workload, seed) == inputs
        spec = TwistedFieldSpec(tower, parse_triple(tower, inputs.c))  # rejects c = 0, N(c) = 1
        assert isotopy_class(spec).value == workload.algebra_class
        if workload.algebra_class == COMMUTATIVE:
            assert to_structure_constants(spec).is_commutative()
        v = parse_pair_vector(tower, inputs.v)
        assert classify(tower.base, v) == NONDEGENERATE


@pytest.fixture(scope="module")
def census_runs():
    """Real census-q7 outputs for two seeds, at 1 worker."""
    runs = {}
    for seed in (3, 4):
        inputs = derive_inputs(CENSUS, seed)
        (argv,) = commands(CENSUS, inputs, workers=1)
        code, out, _ = run_cli_in_process(argv)
        runs[seed] = (inputs, argv, code, out)
    return runs


def test_two_seeds_give_identical_closed_form_counts(census_runs):
    (in3, argv3, code3, out3), (in4, argv4, code4, out4) = census_runs[3], census_runs[4]
    assert in3 != in4
    assert check_output(CENSUS, in3, argv3, code3, out3) == []
    assert check_output(CENSUS, in4, argv4, code4, out4) == []
    assert json.loads(out3)["report"]["observed"] == json.loads(out4)["report"]["observed"]
    assert expected_counts(CENSUS)["distinct_spaces"] == 19160


def _tampered(out: str, edit) -> str:
    payload = copy.deepcopy(json.loads(out))
    edit(payload)
    return json.dumps(payload)


def test_checker_counts_a_tampered_census_as_failed(census_runs):
    inputs, argv, code, out = census_runs[3]

    def bump_dim1(p):
        p["report"]["observed"]["vectors"]["dim1"] += 1

    def unmatch(p):
        p["report"]["match"] = False

    def swap_c(p):
        p["header"]["c"] = "[1,0,0]"

    for edit in (bump_dim1, unmatch, swap_c):
        assert check_output(CENSUS, inputs, argv, code, _tampered(out, edit))
    assert check_output(CENSUS, inputs, argv, 1, out)
    assert check_output(CENSUS, inputs, argv, 0, out[:-2])
    assert check_output(CENSUS, inputs, argv, 0, "{}")


def test_checker_counts_a_tampered_verdict_as_failed():
    inputs = derive_inputs(VERIFY, 1)
    by_theorem = {argv[argv.index("--theorem") + 1]: argv for argv in commands(VERIFY, inputs, 1)}
    for theorem, edit in (
        ("B", lambda p: p["report"].update(passed=False)),
        ("7.1", lambda p: p["report"]["details"]["tag_counts"].update(I=0)),
    ):
        argv = by_theorem[theorem]
        code, out, _ = run_cli_in_process(argv)
        assert check_output(VERIFY, inputs, argv, code, out) == []
        assert check_output(VERIFY, inputs, argv, code, _tampered(out, edit))


def test_checker_counts_a_tampered_scan_as_failed():
    inputs = derive_inputs(SCAN, 1)
    (argv,) = commands(SCAN, inputs, 1)
    good = {"header": {"q": 3, "c": inputs.c, "class": COMMUTATIVE},
            "report": {"match": True, "observed": {"vectors_checked": 624, "mismatches": 0}}}
    out = json.dumps(good)
    assert check_output(SCAN, inputs, argv, 0, out) == []
    for edit in (lambda p: p["report"]["observed"].update(mismatches=1),
                 lambda p: p["report"]["observed"].update(vectors_checked=623),
                 lambda p: p["report"].update(match=False)):
        assert check_output(SCAN, inputs, argv, 0, _tampered(out, edit))


def test_wait4_reports_each_childs_own_allocation():
    big = run_child([sys.executable, "-c", "b = bytearray(96 * 2**20)"], timeout=60)
    small = run_child([sys.executable, "-c", "pass"], timeout=60)
    assert big.code == small.code == 0
    assert big.peak_rss_mb >= 96
    # neither a running maximum over earlier children nor this large test process
    assert small.peak_rss_mb < 64
    assert big.cpu_s > 0


def test_speed_monitor_scales_by_the_probes_in_the_window():
    with SpeedMonitor() as speed:
        time.sleep(0.4)
    samples = speed.samples
    assert len(samples) >= 3
    start, end, cpu = samples[1]
    assert 0 < cpu and speed.factor(start, end) == pytest.approx(REF_S / cpu)
    # a window between two probes overlaps none of them, so every probe counts
    everything = REF_S / (sum(c for _, _, c in samples) / len(samples))
    gap = (samples[0][1] + 1e-6, samples[1][0] - 1e-6)
    assert speed.factor(*gap) == pytest.approx(everything)


def test_run_child_kills_on_timeout():
    r = run_child([sys.executable, "-c", "import time; time.sleep(60)"], timeout=0.5)
    assert r.code < 0
    assert r.wall_s < 30


def test_tracer_wraps_every_binding_and_restores_it():
    tower = FieldTower.build(3)
    spec = TwistedFieldSpec(tower, 2)
    alg = to_structure_constants(spec)
    inventory = census.build_inventory(alg)
    original = linalg.added_rank
    tracer = Tracer()
    with traced_bindings(tracer, KERNELS):
        assert census.added_rank is not original  # bound by name in engine.census
        census.per_vector_profile(alg, PairVector((1, 0, 0), (0, 1, 0)), inventory=inventory,
                                  algebra_class=isotopy_class(spec))
    assert census.added_rank is original and linalg.added_rank is original
    spans = tracer.summary()
    assert spans["linalg.added_rank"]["calls"] == len(inventory.spaces)
    assert spans["engine.spaces.pair_rows"]["calls"] == 1
    for rec in spans.values():
        assert 0 <= rec["self_s"] <= rec["total_s"] + 1e-9


def test_run_exits_nonzero_without_the_package():
    r = run_child([sys.executable, "run.py", "--workload", "scan-q3", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=str(BENCH), timeout=120)
    assert r.code != 0
    assert '"correct"' not in r.out
