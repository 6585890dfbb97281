from __future__ import annotations

import json

import pytest

from twistfield import cli, gf, splitalbert
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
    # the identity holds, so break mu at two pairs; the first in sweep order is the witness
    real = splitalbert.twisted_mu
    bad = {(2, 5), (7, 3)}
    monkeypatch.setattr(splitalbert, "twisted_mu",
                        lambda tf, x, y: (real(tf, x, y) + ((x, y) in bad)) % 27)
    code, out, _ = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == cli.EXIT_COUNTEREXAMPLE == 1
    report = json.loads(out)["report"]
    assert report["splitting_identity"] is False
    assert report["pairs_checked"] == 27 * 27
    tower = gf.FieldTower.build(3)
    assert report["witness"] == {"x": gf.format_triple(tower, 2),
                                 "y": gf.format_triple(tower, 5)}


def test_error_inside_split_check_is_internal(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("embedding invariant broken")

    monkeypatch.setattr(splitalbert, "nu_product", broken)
    code, out, err = run_cli(capsys, "split", "--q", "3", "--norm-target", "-1")
    assert code == cli.EXIT_INTERNAL == 3
    assert json.loads(out) == {"error": "RuntimeError: embedding invariant broken"}
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
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7.1", "--q", "3")
    assert code == 0
    assert json.loads(out)["report"]["details"]["tag_counts"]["I*"] > 0


def test_verify_72_analogue(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "7.2-analogue", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["details"]["two_dim_hits"] > 0  # d = 1 here


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
    monkeypatch.setattr(cli.engine, "verify_theorem_A",
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

    monkeypatch.setattr(cli.engine, "verify_theorem_B", broken)
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

    monkeypatch.setattr(cli.engine, "verify_theorem_B", broken)
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


def test_reports_reconstruct_from_json(capsys):
    from twistfield.engine.census import CensusReport

    code, out, _ = run_cli(capsys, "census", "--q", "3", "--norm-target", "-1",
                           "--v", "[1,0,0],[0,1,0]")
    assert code == 0
    payload = json.loads(out)
    report = CensusReport.from_json_dict(payload["report"])
    assert report.to_json_dict() == payload["report"]
    assert report.parameters["Av"]["ambient"] == 6

    code, out, _ = run_cli(capsys, "verify", "--theorem", "A", "--q", "3",
                           "--norm-target", "-1")
    assert code == 0
    payload = json.loads(out)
    verdict = Verdict.from_json_dict(payload["report"])
    assert verdict.to_json_dict() == payload["report"]
