from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from twistfield import cli, gf, splitalbert
from twistfield.engine import census, normalform, verify
from twistfield.engine.verify import Verdict


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtimes(payload):
    if isinstance(payload, dict):
        return {k: strip_runtimes(v) for k, v in payload.items() if k != "runtime_ms"}
    if isinstance(payload, list):
        return [strip_runtimes(v) for v in payload]
    return payload


def test_census_example(capsys):
    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["observed"]["vectors"]["dim2"] == 24
    assert payload["report"]["match"] is True
    assert payload["header"]["c"] == "[2,0,0]"
    assert payload["header"]["tower_modulus"] == ["1", "2", "0", "1"]


def test_census_csv_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,observed_vectors,predicted_vectors,observed_spaces,predicted_spaces,match"
    assert lines[1] == "3,2,2,1,1,true"
    assert lines[2] == "2,24,24,12,12,true"


def test_census_table_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]", "--format", "table")
    assert code == 0
    assert "observed_vectors" in out


def test_verify_theorem_b_q4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "B", "--q", "4",
                           "--norm-target", "u")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["details"]["expected"] == "no dim-2 pairs"


def test_build_q2_rejected(capsys):
    code, _, err = run_cli(capsys, "build", "--q", "2")
    assert code == 2
    assert "norm" in err


def test_unsupported_q(capsys):
    code, _, err = run_cli(capsys, "census", "--q", "6", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 2
    assert "q must be one of" in err


def test_build_report(capsys):
    code, out, _ = run_cli(capsys, "build", "--q", "3", "--c", "[2,0,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["division"] is True
    assert payload["report"]["commutative_tensor"] is True
    assert len(payload["report"]["algebra"]["tensor"]) == 27


def test_split_report(capsys):
    code, out, _ = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["splitting_identity"] is True
    assert payload["report"]["mode"] == "exhaustive"
    assert payload["report"]["d"] == ["[1,0,0]", "[1,0,0]", "[1,0,0]"]
    assert payload["report"]["d_product"] == payload["report"]["minus_norm_c"]


def test_passing_split_report_has_no_witness(capsys):
    code, out, _ = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == 0
    assert "witness" not in json.loads(out)["report"]


def test_split_failure_reports_witness(capsys, monkeypatch):
    # the identity holds, so break mu at two basis pairs of (1, t, t^2); the first in
    # sweep order is the witness
    real = splitalbert.twisted_product
    bad = {(3, 9), (9, 1)}
    monkeypatch.setattr(splitalbert, "twisted_product",
                        lambda tower, c, x, y: (real(tower, c, x, y) + ((x, y) in bad)) % 27)
    code, out, _ = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == cli.EXIT_COUNTEREXAMPLE == 1
    report = json.loads(out)["report"]
    assert report["splitting_identity"] is False
    assert report["pairs_checked"] == 27 * 27
    tower = gf.FieldTower.build(3)
    assert report["witness"] == {"x": gf.format_triple(tower, 3),
                                 "y": gf.format_triple(tower, 9)}


def test_error_inside_split_check_is_internal(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("embedding invariant broken")

    monkeypatch.setattr(splitalbert, "nu_product", broken)
    code, out, err = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out) == {"error": "RuntimeError: embedding invariant broken"}
    assert "Traceback" in err


@pytest.mark.parametrize("q, target", [("7", "-1"), ("7", "2"), ("8", "u"), ("8", "u+1"),
                                       ("9", "-1"), ("9", "u")])
def test_split_is_exhaustive_at_every_q(capsys, q, target):
    code, out, _ = run_cli(capsys, "split", "--q", q, "--norm-target", target)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["splitting_identity"] is True and report["mode"] == "exhaustive"
    assert report["pairs_checked"] == int(q) ** 6


def test_nonlinear_frobenius_table_is_internal(capsys, monkeypatch):
    real = cli.resolve_tower

    def corrupted(q):
        tower = real(q)
        tower.frob_t[1 + q] = tower.frob_t[2 + q]  # 1 + t maps where 2 + t does
        return tower

    monkeypatch.setattr(cli, "resolve_tower", corrupted)
    code, out, err = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out) == {"error": "RuntimeError: Frobenius is not F-linear at 4"}
    assert "Traceback" in err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--q", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ext_order"] == 64
    assert payload["report"]["expected_fiber_size"] == 21
    assert set(payload["report"]["norm_fiber_sizes"].values()) == {21}


def test_verify_theorem_a(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "A", "--q", "3",
                           "--norm-target", "-1")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_verify_31_and_71(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "3.1", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["header"]["d"] == ["1", "1", "1"]
    assert "seed" not in payload
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7.1", "--q", "3")
    assert code == 0
    assert json.loads(out)["report"]["details"]["tag_counts"]["I*"] > 0


def test_verify_72_analogue(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7.2-analogue", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["details"]["two_dim_hits"] > 0  # d = 1 here


@pytest.mark.parametrize("theorem, argv, ignored", [
    ("3.1", ["--c", "[2,0,0]"], "--c"),
    ("7.2-analogue", ["--norm-target", "-1", "--d", "1,1,1"], "--norm-target"),
    ("7.1", ["--norm-target", "-1", "--d", "1,1,1"], "--norm-target, --d"),
    ("A", ["--c", "[2,0,0]", "--d", "1,1,1"], "--d"),
    ("B", ["--c", "[2,0,0]", "--d", "1,1,1"], "--d"),
])
def test_verify_notes_ignored_options_on_stderr(capsys, theorem, argv, ignored):
    code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--q", "3", *argv)
    assert code == 0
    assert err == f"note: --theorem {theorem} ignores {ignored}\n"
    # the options that apply, alone: same report, no note
    applies = [a for flag, value in zip(argv[::2], argv[1::2]) if flag not in ignored.split(", ")
               for a in (flag, value)]
    code, plain, err = run_cli(capsys, "verify", "--theorem", theorem, "--q", "3", *applies)
    assert code == 0 and err == ""
    assert strip_runtimes(json.loads(out)) == strip_runtimes(json.loads(plain))


def test_verify_71_at_q9(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7.1", "--q", "9")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] is True and report["checked"] == 9**8
    assert sum(report["details"]["tag_counts"].values()) == 9**8


def test_malformed_inputs(capsys):
    code, _, err = run_cli(capsys, "census", "--q", "3", "--c", "[2,0]",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 2 and "literal" in err
    code, _, err = run_cli(capsys, "census", "--q", "3", "--norm-target", "1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 2 and "N(c) != 1" in err
    code, _, err = run_cli(capsys, "census", "--q", "3", "--c", "[1,0,0]",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 2 and "norm 1" in err
    code, _, err = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0]")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1")
    assert code == 2 and "--scan-all" in err


@pytest.mark.parametrize("command", ["split", "verify"])
def test_seed_option_is_gone(capsys, command):
    argv = [command, "--q", "3", "--norm-target", "-1", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + (["--theorem", "3.1"] if command == "verify" else []))
    assert exc.value.code == cli.EXIT_USAGE == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_line_census(capsys):
    code, out, _ = run_cli(capsys, "line-census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["observed"] == {
        "in_base_plane": {"18": 4}, "outside_base_plane": {"16": 9},
    }


def test_line_census_degenerate_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "line-census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[2,0,0]")
    assert code == 2 and "nondegenerate" in err


def test_json_determinism_across_runs_and_workers(capsys):
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                               "--v", "[0,1,0],[1,1,2]", "--workers", workers)
        assert code == 0
        outs.append(strip_runtimes(json.loads(out)))
    assert outs[0] == outs[1]
    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[0,1,0],[1,1,2]", "--workers", "1")
    assert strip_runtimes(json.loads(out)) == outs[0]


@pytest.mark.parametrize("theorem, q, c", [
    ("A", "3", "[2,0,0]"), ("B", "3", "[2,0,0]"),
    ("A", "4", "[0,u+1,0]"), ("B", "4", "[0,u+1,0]"),  # non-commutative
])
def test_verify_json_determinism_across_workers(capsys, theorem, q, c):
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--theorem", theorem, "--q", q, "--c", c,
                               "--workers", workers)
        assert code == 0
        outs.append(strip_runtimes(json.loads(out)))
    assert outs[0] == outs[1]


def test_exit_code_one_on_failed_verdict(capsys, monkeypatch):
    # the theorems hold, so force a failing verdict to check the exit mapping
    monkeypatch.setattr(verify, "verify_theorem_A",
                        lambda alg: Verdict("theorem-A", False, 1))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "A", "--q", "3",
                           "--norm-target", "-1")
    assert code == 1
    assert json.loads(out)["report"]["passed"] is False


def test_workers_below_one_is_usage_error(capsys):
    for workers in ("0", "-2"):
        code, out, err = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                                 "--v", "[1,0,0],[0,1,0]", "--workers", workers)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "--workers" in err


def test_internal_error_is_not_a_counterexample(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("fast sweep disagrees with direct intersection")

    monkeypatch.setattr(verify, "verify_theorem_B", broken)
    code, out, err = run_cli(capsys, "verify", "--theorem", "B", "--q", "3",
                             "--norm-target", "-1")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out) == {"error": "RuntimeError: fast sweep disagrees with direct intersection"}
    assert "Traceback" in err


def test_zero_census_vector_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                             "--v", "[0,0,0],[0,0,0]")
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert "nonzero" in err


def test_engine_value_error_is_internal(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("an invariant deep in the engine")

    monkeypatch.setattr(verify, "verify_theorem_B", broken)
    code, out, err = run_cli(capsys, "verify", "--theorem", "B", "--q", "3",
                             "--norm-target", "-1")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out) == {"error": "ValueError: an invariant deep in the engine"}
    assert "Traceback" in err


def test_scan_all_commutative_isotope_other_than_minus_one(capsys):
    code, out, _ = run_cli(capsys, "census", "--scan-all", "--q", "3", "--c", "[0,1,0]")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["observed"] == {"vectors_checked": 624, "mismatches": 0}
    assert report["match"] is True


@pytest.mark.parametrize("q, target", [(7, "-1"), (7, "2"), (9, "u")])
def test_scan_all_in_orbit_mode_at_q7_and_q9(capsys, q, target):
    code, out, _ = run_cli(capsys, "census", "--scan-all", "--q", str(q), "--norm-target", target)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["match"] is True
    assert report["observed"] == {"vectors_checked": (q**3 - 1) * (q**3 - q), "mismatches": 0}
    assert report["parameters"]["mode"] == "orbit"
    assert report["parameters"]["orbit"]["plane_orbit"] == q * q + q + 1


def test_theorem_b_at_q9_from_the_certified_representative(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "B", "--q", "9", "--norm-target", "u")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] is True and report["details"]["mode"] == "orbit"
    assert report["details"]["orbit"]["plane_orbit"] == 91
    assert report["checked"] == (9**3 - 1) * (9**3 - 9)


def test_corrupted_orbit_certificate_is_internal(capsys, monkeypatch):
    monkeypatch.setattr(census, "singer_element", lambda tower: 1)  # beta = 1 fixes every plane
    for argv in (["census", "--scan-all"], ["verify", "--theorem", "B"]):
        code, out, err = run_cli(capsys, *argv, "--q", "3", "--norm-target", "-1")
        assert code == cli.EXIT_INTERNAL == 3
        assert "not one orbit" in json.loads(out)["error"]
        assert "Traceback" in err


@pytest.mark.parametrize("broken", ["plane walk", "fiber"])
@pytest.mark.parametrize("command", ["census", "line-census"])
def test_failing_certificate_is_internal_for_census_v(capsys, monkeypatch, command, broken):
    # the dim-0 totals come from the certified orbit, and there is no exhaustive fallback
    if broken == "plane walk":
        monkeypatch.setattr(census, "singer_element", lambda tower: 1)
        message = "not one orbit"
    else:  # every class keyed as A(e_0, e_1): 2 * 13 * 27 = 702 vectors do not divide 624
        real = census.division_tables

        def division_tables(alg):
            division = real(alg)
            key = division.keys[1][3]
            for row in division.keys.values():
                row[:] = array("q", [key] * len(row))
            return division

        monkeypatch.setattr(census, "division_tables", division_tables)
        message = "do not divide"
    code, out, err = run_cli(capsys, command, "--q", "3", "--norm-target", "-1",
                             "--v", "[1,0,0],[0,1,0]")
    assert code == cli.EXIT_INTERNAL == 3
    assert message in json.loads(out)["error"]
    assert "Traceback" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "B"],
    ["census", "--scan-all"],
    ["census", "--v", "[1,0,0],[0,1,0]"],
    ["line-census", "--v", "[1,0,0],[0,1,0]"],
])
def test_certified_commands_run_the_census_kernel_once(capsys, monkeypatch, argv):
    # the representative's fiber comes from the key table, so only the kernel reaches
    calls, real = [], census._reach
    monkeypatch.setattr(census, "_reach", lambda alg, division, v: (
        calls.append(v), real(alg, division, v))[1])
    code, _, _ = run_cli(capsys, *argv, "--q", "3", "--norm-target", "-1")
    assert code == 0
    assert calls == [census.REPRESENTATIVE]


def test_failing_normal_form_step_names_the_pair(capsys, monkeypatch):
    # a template that is not the form's representative fails the (P, Q) check at the first
    # pair, the zero pair of the rank-0 row space: exit 3, with the pair to replay
    monkeypatch.setattr(normalform, "template", lambda fld, tag, params: (normalform.ID2,) * 2)
    code, out, err = run_cli(capsys, "verify", "--theorem", "7.1", "--q", "3")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out)["error"] == ("RuntimeError: normal form verification failed at "
                                        "(G0, G1) = (((0, 0), (0, 0)), ((0, 0), (0, 0)))")
    assert "Traceback" in err


def test_census_v_names_the_source_of_its_totals(capsys):
    for command in ("census", "line-census"):
        code, out, _ = run_cli(capsys, command, "--q", "3", "--norm-target", "-1",
                               "--v", "[1,0,0],[0,1,0]")
        assert code == 0
        parameters = json.loads(out)["report"]["parameters"]
        assert parameters["mode"] == "orbit" and parameters["orbit"]["plane_orbit"] == 13


def test_closed_stdout_is_internal_without_a_traceback():
    # the reader goes away before the report is written: exit 3, not a counterexample
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "twistfield.cli", "census", "--v",
                             "[1,0,0],[0,1,0]", "--q", "3", "--c", "[2,0,0]"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_INTERNAL == 3
    assert err == ""


def test_line_census_v_has_help(capsys):
    with pytest.raises(SystemExit):
        cli.main(["line-census", "--help"])
    out = capsys.readouterr().out
    assert '"[x0,x1,x2],[y0,y1,y2]"' in out and "nondegenerate" in out


@pytest.mark.parametrize("argv, name", [
    (["field-info", "--q", "3"], "field-info"),
    (["build", "--q", "3", "--c", "[2,0,0]"], "build"),
    (["split", "--q", "3", "--c", "[2,0,0]"], "split"),
    (["verify", "--theorem", "7.1", "--q", "3"], "verify"),
    (["census", "--q", "3", "--c", "[2,0,0]", "--v", "[1,0,0],[0,1,0]"], "census --v"),
    (["line-census", "--q", "3", "--c", "[2,0,0]", "--v", "[1,0,0],[0,1,0]"], "line-census"),
])
def test_commands_without_a_pool_note_ignored_workers(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert err == f"note: {name} ignores --workers\n"
    plain_code, plain, plain_err = run_cli(capsys, *argv)
    assert code == plain_code == 0 and plain_err == ""
    assert strip_runtimes(json.loads(out)) == strip_runtimes(json.loads(plain))


def test_scan_all_takes_workers_without_a_note(capsys):
    code, _, err = run_cli(capsys, "census", "--scan-all", "--q", "3", "--norm-target", "-1",
                           "--workers", "2")
    assert code == 0 and err == ""


def test_scan_all_notes_ignored_v(capsys):
    argv = ["census", "--scan-all", "--q", "3", "--norm-target", "-1"]
    code, out, err = run_cli(capsys, *argv, "--v", "[1,0,0],[0,1,0]")
    assert err == "note: census --scan-all ignores --v\n"
    plain_code, plain, plain_err = run_cli(capsys, *argv)
    assert code == plain_code == 0 and plain_err == ""
    assert strip_runtimes(json.loads(out)) == strip_runtimes(json.loads(plain))


def test_reports_reconstruct_from_json(capsys):
    from twistfield.engine.census import CensusReport

    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 0
    payload = json.loads(out)
    report = CensusReport(**payload["report"])
    assert report.to_json_dict() == payload["report"]
    assert report.parameters["Av"]["ambient"] == 6

    code, out, _ = run_cli(capsys, "verify", "--theorem", "A", "--q", "3",
                           "--norm-target", "-1")
    assert code == 0
    payload = json.loads(out)
    verdict = Verdict(**payload["report"])
    assert verdict.to_json_dict() == payload["report"]


@pytest.mark.parametrize("argv, message", [
    (["build", "--q", "3", "--norm-target", "1+"], "malformed norm target"),
    (["build", "--q", "3", "--norm-target", "0"], "norm target 0 is unreachable"),
    (["build", "--q", "3"], "provide --c or --norm-target"),
    (["build", "--q", "3", "--c", "[0,0,0]"], "c must be nonzero"),
    (["census", "--q", "3", "--norm-target", "-1", "--v", "[1,0],[0,1,0]"],
     "expected 3 coordinates in [1,0]"),
    (["verify", "--theorem", "3.1", "--q", "3", "--d", "1,1"], "split constants must look like"),
    (["verify", "--theorem", "3.1", "--q", "3", "--d", "1,x,1"], "malformed element literal"),
    (["verify", "--theorem", "3.1", "--q", "3", "--d", "1,1,2"], "d0*d1*d2 = -1 is excluded"),
    (["line-census", "--q", "3", "--norm-target", "-1"], "line-census needs --v"),
])
def test_boundary_inputs_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize("argv", [
    ["field-info", "--q", "3"],
    ["build", "--q", "3", "--norm-target", "-1"],
    ["split", "--q", "3", "--norm-target", "-1"],
    ["verify", "--theorem", "3.1", "--q", "7"],
    ["line-census", "--q", "3", "--norm-target", "-1", "--v", "[1,0,0],[0,1,0]"],
    ["census", "--scan-all", "--q", "3", "--norm-target", "-1"],
])
def test_format_other_than_json_fails_before_any_work(capsys, monkeypatch, argv, fmt):
    def work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "resolve_tower", work)
    for module, name in ((verify, "verify_theorem_A"), (verify, "verify_theorem_B"),
                         (verify, "verify_normal_forms"), (verify, "verify_split_theorem_3_1"),
                         (verify, "search_theorem_7_2_analogue"), (census, "scan_orbit"),
                         (census, "per_vector_profile"), (census, "line_profile")):
        monkeypatch.setattr(module, name, work)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: --format {fmt} is only available for census --v\n"


@pytest.mark.parametrize("broken", ["dropped orbit", "torus identity"])
def test_broken_torus_certificate_is_internal(capsys, monkeypatch, broken):
    if broken == "dropped orbit":  # the last plane is alone in its torus orbit
        real = verify.plane_representatives
        monkeypatch.setattr(verify, "plane_representatives", lambda fld: real(fld)[:-1])
        message = "the torus orbits cover 12 planes"
    else:  # alpha_0 gets the products of alpha_0 + alpha_1
        real = verify.left_mul_matrix
        monkeypatch.setattr(verify, "left_mul_matrix", lambda sp, a: real(
            sp, (1, 1, 0) if tuple(a) == (1, 0, 0) else a))
        message = "phi(t.alpha_"
    code, out, err = run_cli(capsys, "verify", "--theorem", "7.2-analogue", "--q", "3")
    assert code == cli.EXIT_INTERNAL == 3
    assert message in json.loads(out)["error"]
    assert "Traceback" in err


# the twistfield modules a fresh process holds after each command: `gf`, `algebra3` and
# `linalg` come with `import twistfield.cli`, every other module only with its command
BASE_MODULES = {"twistfield", "twistfield.cli", "twistfield.gf", "twistfield.algebra3",
                "twistfield.linalg"}
SRC = Path(__file__).resolve().parents[1] / "src"
LOADED_MODULES = """
import contextlib, io, json, sys
import twistfield.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = twistfield.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "twistfield" or m in ("dataclasses", "inspect"))))
"""
C3 = ["--q", "3", "--c", "[2,0,0]"]
V3 = ["--v", "[1,0,0],[0,1,0]", *C3]
CENSUS = {"engine", "census", "spaces"}
COMMAND_MODULES = {
    "import": ([], set()),
    "field-info": (["field-info", "--q", "3"], set()),
    "build": (["build", *C3], set()),
    "split": (["split", *C3], {"splitalbert"}),
    "census-scan-all": (["census", "--scan-all", *C3], CENSUS),
    "census-v": (["census", *V3], CENSUS),
    "census-v-csv": (["census", *V3, "--format", "csv"], CENSUS),
    "line-census": (["line-census", *V3], CENSUS),
    **{f"verify-{t}": (["verify", "--theorem", t, *C3], CENSUS | {"verify"}) for t in "AB"},
    "verify-7.1": (["verify", "--theorem", "7.1", "--q", "3"],
                   {"engine", "verify", "normalform", "spaces"}),
    **{f"verify-{t}": (["verify", "--theorem", t, "--q", "3"],
                       {"engine", "verify", "spaces", "splitalbert"})
       for t in ("3.1", "7.2-analogue")},
}


@pytest.mark.parametrize("name", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(name):
    # a fresh process compiles every module it imports, so no command loads another's engine,
    # and none loads dataclasses, which imports inspect: about 10 ms of start-up
    argv, more = COMMAND_MODULES[name]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    want = BASE_MODULES | {("twistfield." if m in ("engine", "splitalbert") else
                            "twistfield.engine.") + m for m in more}
    assert set(json.loads(done.stdout)) == want
