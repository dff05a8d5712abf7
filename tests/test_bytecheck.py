"""The byte check (tools/bytecheck.py): its table still fits the command
line, and its verdict on fixed outcomes, with no tree built or run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from test_cli import USAGE_ARGV, USAGE_DIRS

from nlbox import cli

_SPEC = importlib.util.spec_from_file_location(
    "bytecheck", Path(__file__).parent.parent / "tools" / "bytecheck.py"
)
bytecheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytecheck)


def _parses(argv) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


def test_every_entry_parses_as_declared():
    # a renamed option or command turns an accepted entry into a usage error
    assert [e.name for e in bytecheck.TABLE if _parses(e.argv) != e.parses] == []


def test_table_holds_every_usage_golden():
    table = {entry.name: entry for entry in bytecheck.TABLE}
    assert len(table) == len(bytecheck.TABLE)
    for name, argv in USAGE_ARGV.items():
        assert (table[name].argv, list(table[name].dirs)) == (argv, USAGE_DIRS.get(name, []))


@pytest.fixture
def fake_trees(monkeypatch):
    """Runs of no tree: every entry's outcome is the same on both sides, but
    for the names in the returned set, whose stdout differs."""
    differ = set()
    trees = {"parent": "p", "change": "c"}
    monkeypatch.setattr(bytecheck, "export_trees", lambda parent, into: trees)

    def run(entry, tree, where):
        stdout = tree.encode() if entry.name in differ else b""
        return bytecheck.Outcome(stdout, b"", 0, {})

    monkeypatch.setattr(bytecheck, "run", run)
    return differ


@pytest.mark.parametrize(
    "differ, expect, lines, counts, code",
    [
        ([], [], [], (0, 0), 0),
        (["bounds"], ["bounds"], ["declared  bounds: stdout"], (0, 0), 0),
        (["bounds"], [], ["DIFFERS  bounds: stdout"], (1, 0), 1),
        ([], ["bounds", "help"], ["UNCHANGED  bounds", "UNCHANGED  help"], (0, 2), 1),
    ],
    ids=["same", "declared", "undeclared", "stale-expect"],
)
def test_exit_code_and_report(fake_trees, capsys, differ, expect, lines, counts, code):
    fake_trees.update(differ)
    argv = ["HEAD", *(arg for name in expect for arg in ("--expect", name))]
    assert bytecheck.main(argv) == code
    *reported, summary = capsys.readouterr().out.splitlines()
    assert reported == lines
    assert summary.startswith(
        f"{len(bytecheck.TABLE)} entries, {counts[0]} undeclared differences, "
        f"{counts[1]} declared but unchanged, "
    )
