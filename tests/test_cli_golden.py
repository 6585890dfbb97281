"""The JSON of census, line-census, --scan-all, Theorems A and B and the split side
(Theorems 3.1 and 7.1 and the 7.2 analogue) at q = 3, 4 and 5, pinned across versions.

`data/cli_golden.json` maps each command line of `GOLDEN_COMMANDS` to its exit code and
its stdout (JSON without the `runtime_ms` fields, or the CSV text).  Regenerate it with
`PYTHONPATH=src python3 tests/test_cli_golden.py` only from a tree whose reports are
trusted: the point of the file is that a refactor leaves them unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from twistfield import cli

from test_cli import strip_runtimes

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

NONDEGENERATE_V = "[1,0,0],[0,1,0]"
DEGENERATE_V = "[0,0,0],[0,1,1]"

# (q, c flag, c value): both classes wherever both exist; every c is
# commutative-isotopic at q=3 and non-commutative at q=4
ALGEBRAS = [("3", "--norm-target", "-1"), ("3", "--c", "[0,1,0]"), ("4", "--norm-target", "u"),
            ("5", "--norm-target", "-1"), ("5", "--norm-target", "2")]

GOLDEN_COMMANDS = [
    [*command, "--q", q, flag, value]
    for q, flag, value in ALGEBRAS
    for command in (["census", "--v", NONDEGENERATE_V], ["census", "--v", DEGENERATE_V],
                    ["line-census", "--v", NONDEGENERATE_V], ["census", "--scan-all"],
                    ["verify", "--theorem", "A"], ["verify", "--theorem", "B"])
] + [["census", "--v", "[1,1,0],[1,1,0]", "--q", "4", "--norm-target", "u", "--format", "csv"]] + [
    ["verify", "--theorem", theorem, "--q", q]
    for q in ("3", "4", "5") for theorem in ("3.1", "7.1", "7.2-analogue")
] + [["verify", "--theorem", "3.1", "--q", "5", "--d", "1,2,3"]]


def run(argv: list[str]) -> dict:
    """The exit code and stdout of one command, run in process; JSON loses `runtime_ms`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    stdout = text if "--format" in argv else strip_runtimes(json.loads(text))
    return {"exit": code, "stdout": stdout}


def test_reports_equal_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [" ".join(argv) for argv in GOLDEN_COMMANDS]
    for argv in GOLDEN_COMMANDS:
        assert run(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(argv): run(argv) for argv in GOLDEN_COMMANDS},
                                 indent=1) + "\n")
