"""The byte check's table (tools/bytecheck.py) still fits the command line,
and its record holds every entry without a usage golden, with no entry run."""

import contextlib
import io
import json
from pathlib import Path

import bytecheck

from nlbox import cli


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
    # the record, the run directories and reach's count files go by name,
    # tests/test_cli.py runs a usage golden only for a table entry, and an
    # entry added to the table without rewriting the record fails here
    names = [entry.name for entry in bytecheck.TABLE]
    assert len(set(names)) == len(names)
    piped = {e.name for e in bytecheck.TABLE if (e.stdout, e.stderr) == ("pipe", "pipe")}
    goldens = {path.stem for path in (Path(__file__).parent / "golden" / "usage").glob("*.stdout")}
    assert goldens - piped == set()
    record = json.loads(bytecheck.RECORD.read_text())
    assert list(record) == [name for name in names if name not in goldens]
