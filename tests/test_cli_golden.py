"""The JSON of census, line-census, --scan-all, Theorems A and B and the split side
(Theorems 3.1 and 7.1 and the 7.2 analogue) at q = 3, 4 and 5, and of the benchmark's
seed-1 commands (q = 3, 4 and 7), pinned across versions.

`data/cli_golden.json` maps each command line of `GOLDEN_COMMANDS` to its exit code and
its stdout (JSON without the `runtime_ms` fields, or the CSV text).
`PYTHONPATH=src python3 tests/test_cli_golden.py` only appends: it adds the commands the
file lacks and exits nonzero, naming the command and writing nothing, when an entry
already there differs.  So a refactor cannot rewrite the contract it is checked
against; a change meant to alter a report deletes that entry first.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
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
] + [["verify", "--theorem", "3.1", "--q", "5", "--d", "1,2,3"]] + [
    # the benchmark's workloads at seed 1 (bench/workloads.py)
    ["census", "--v", "[4,6,6],[6,0,2]", "--q", "7", "--c", "[5,1,1]", "--workers", "2"],
    ["census", "--scan-all", "--q", "3", "--c", "[2,0,0]", "--workers", "1"],
] + [["verify", "--q", "4", "--theorem", theorem, "--c", "[0,u+1,0]"]
     for theorem in ("B", "A", "3.1", "7.1", "7.2-analogue")]


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


def regenerate() -> str | None:
    """Append the missing commands to the golden file; the first existing entry whose
    output differs, with the file left as it was, or None."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    commands = [" ".join(argv) for argv in GOLDEN_COMMANDS]
    for command, argv in zip(commands, GOLDEN_COMMANDS):
        fresh = run(argv)
        if golden.setdefault(command, fresh) != fresh:
            return command
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: golden[c] for c in commands}, indent=1) + "\n")
    return None


def test_regeneration_only_appends(tmp_path, monkeypatch):
    path = tmp_path / "golden.json"
    first = ["verify", "--theorem", "7.1", "--q", "3"]
    second = ["verify", "--theorem", "3.1", "--q", "3"]
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", path)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_COMMANDS", [first])
    assert regenerate() is None
    text = path.read_text()
    assert json.loads(text) == {" ".join(first): run(first)}
    # a missing command is appended after the entry already there
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_COMMANDS", [first, second])
    assert regenerate() is None
    assert list(json.loads(path.read_text()).items()) == [*json.loads(text).items(),
                                                          (" ".join(second), run(second))]
    # an entry whose output differs is named, and the file is left as it was
    edited = json.loads(path.read_text())
    edited[" ".join(second)]["exit"] = 1
    path.write_text(json.dumps(edited))
    assert regenerate() == " ".join(second)
    assert json.loads(path.read_text()) == edited


if __name__ == "__main__":
    changed = regenerate()
    if changed is not None:
        raise SystemExit(f"golden output differs for: {changed}")
