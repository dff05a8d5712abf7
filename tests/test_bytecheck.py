"""The byte check's table (tools/bytecheck.py) still fits the command line,
and its record holds every entry, as the tool writes it, with no entry run."""

import contextlib
import io
import json

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


def test_record_holds_every_entry():
    # the record, the run directories and reach's count files go by name,
    # and an entry added to the table without rewriting the record, or a
    # record edited by hand, fails here
    names = [entry.name for entry in bytecheck.TABLE]
    assert len(set(names)) == len(names)
    text = bytecheck.RECORD.read_text()
    record = json.loads(text)
    assert list(record) == names
    # every stream is text or null, never a hash of its bytes
    assert {tuple(entry) for entry in record.values()} == {("code", "stdout", "stderr", "files")}
    assert text == json.dumps(record, indent=1) + "\n"
