"""The benchmark's workloads: CLI commands, closed forms, and output checks.

Every workload runs over a fixed q and a fixed isotopy class; ``derive.py``
turns the seed into the CLI's inputs.  This module does not import the
package, so the process that launches the timed commands stays small (see
``proc.py``).

The closed forms are the benchmark's own copy.  The CLI's ``predicted`` fields
come from the code under test, so they cannot be the reference.  Effort counts
such as theorem B's ``checked`` are not checked: a valid symmetry reduction
would lower them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMUTATIVE = "commutative-isotopic"
NON_COMMUTATIVE = "non-commutative"
NONDEGENERATE = "nondegenerate"
THEOREMS = ("B", "A", "3.1", "7.1", "7.2-analogue")


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    algebra_class: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-q3", 3, COMMUTATIVE),
        Workload("census-q7", 7, NON_COMMUTATIVE),
        Workload("verify-q4", 4, NON_COMMUTATIVE),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The literals passed to the CLI."""

    c: str
    v: str


def commands(workload: Workload, inputs: Inputs, workers: int) -> list[list[str]]:
    """CLI argument lists for one pass of the workload, run in this order."""
    q = str(workload.q)
    if workload.name == "scan-q3":
        return [["census", "--scan-all", "--q", q, "--c", inputs.c, "--workers", "1"]]
    if workload.name == "census-q7":
        return [["census", "--v", inputs.v, "--q", q, "--c", inputs.c,
                 "--workers", str(workers)]]
    return [["verify", "--q", q, "--theorem", t, "--c", inputs.c] for t in THEOREMS]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def nondegenerate_vectors(q: int) -> int:
    return (q**3 - 1) * (q**3 - q)


def distinct_spaces(q: int) -> int:
    """Distinct Av' over nonzero v': (q^3-1)(q+1)q nondegenerate plus q+1 degenerate."""
    return (q**3 - 1) * (q + 1) * q + q + 1


def noncommutative_profile(q: int) -> tuple[dict, dict]:
    """(vector, space) tallies of dim(Av meet Av') for a nondegenerate v, non-commutative class."""
    vectors = {
        "dim3": q - 1,
        "dim2": 0,
        "dim1": q * (q + 1) * (q**3 - 1),
        "dim0_nondegenerate": (q - 1) * (q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1),
        "dim0_degenerate": (q**3 - 1) * (q + 1),
        "zero_vector": 1,
    }
    spaces = {
        "dim3": 1,
        "dim2": 0,
        "dim1": q * (q + 1) * (q**2 + q + 1),
        "dim0_nondegenerate": q**5 - 2 * q**3 - 3 * q**2 - 2 * q - 1,
        "dim0_degenerate": q + 1,
    }
    return vectors, spaces


def expected_counts(workload: Workload) -> dict:
    """The closed-form counts every run of the workload must reproduce."""
    q = workload.q
    if workload.name == "scan-q3":
        return {"vectors_checked": nondegenerate_vectors(q), "mismatches": 0}
    if workload.name == "census-q7":
        vectors, spaces = noncommutative_profile(q)
        return {"vectors": vectors, "spaces": spaces, "distinct_spaces": distinct_spaces(q)}
    return {"tag_total": q**8, "two_dim_hits": 0}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_output(workload: Workload, inputs: Inputs, argv: list[str], code: int,
                 out: str) -> list[str]:
    """Problems found in one invocation's exit code and JSON report; empty when correct."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["output is not JSON"]
    try:
        problems += _check_payload(workload, inputs, argv, payload)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _check_payload(workload: Workload, inputs: Inputs, argv: list[str], payload: dict) -> list[str]:
    q = workload.q
    want = expected_counts(workload)
    report = payload["report"]
    header = payload["header"]
    problems = []
    if header["q"] != q:
        problems.append(f"q {header['q']} != {q}")
    if workload.name in ("scan-q3", "census-q7"):
        if header["c"] != inputs.c or header["class"] != workload.algebra_class:
            problems.append(f"header c/class {header['c']}/{header['class']}")
        if report["match"] is not True:
            problems.append("match is not true")
    if workload.name == "scan-q3":
        observed = {key: report["observed"][key] for key in want}
        if observed != want:
            problems.append(f"observed {observed} != {want}")
        return problems
    if workload.name == "census-q7":
        observed = report["observed"]
        if report["parameters"]["v_kind"] != NONDEGENERATE:
            problems.append("v is not nondegenerate")
        if observed["vectors"] != want["vectors"]:
            problems.append(f"vectors {observed['vectors']} != {want['vectors']}")
        if observed["spaces"] != want["spaces"]:
            problems.append(f"spaces {observed['spaces']} != {want['spaces']}")
        if sum(observed["spaces"].values()) != want["distinct_spaces"]:
            problems.append("distinct space count differs")
        return problems
    theorem = argv[argv.index("--theorem") + 1]
    if payload["theorem"] != theorem:
        problems.append(f"theorem {payload['theorem']} != {theorem}")
    if report["passed"] is not True:
        problems.append(f"theorem {theorem}: verdict is not true")
    details = report["details"]
    if theorem in ("A", "B") and (header["c"] != inputs.c
                                  or header["class"] != workload.algebra_class):
        problems.append(f"header c/class {header['c']}/{header['class']}")
    if theorem == "B" and report["witnesses"]:
        problems.append("theorem B: a dim-2 witness for a non-commutative c")
    if theorem == "7.1" and sum(details["tag_counts"].values()) != want["tag_total"]:
        problems.append(f"7.1: tag counts sum to {sum(details['tag_counts'].values())}")
    if theorem == "7.2-analogue":
        if details["d_product"] == 1:  # element index 1 is the unit
            problems.append("7.2: default d has d0 d1 d2 = 1")
        if details["two_dim_hits"] != want["two_dim_hits"]:
            problems.append(f"7.2: {details['two_dim_hits']} two-dim hits")
    return problems
