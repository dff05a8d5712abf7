"""The byte check's table (tools/bytecheck.py) still fits the command line."""

import contextlib
import importlib.util
import io
from pathlib import Path

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
