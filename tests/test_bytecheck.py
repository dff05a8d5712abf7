"""The byte check's record (tools/bytecheck.py) holds every entry of its
table, as the tool writes it, and its reach verdict names the right lines of
fixed sources, with no entry run."""

import json

import bytecheck


def test_record_holds_every_entry():
    # the record, the run directories and the count files go by name,
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


def test_verdict_names_unreached_and_allowed_but_reached_lines():
    texts = {"/p/m.py": "x = 1\nif x:\n    y = 2\n    z = 3\n", "/p/n.py": "w = 0\n"}
    allowed = {("y = 2", "z = 3"): "a test"}  # one key over two lines
    ran = {("/p/m.py", 1), ("/p/m.py", 2), ("/p/n.py", 1)}
    assert bytecheck.verdict(texts, ran, allowed) == []
    assert bytecheck.verdict(texts, ran - {("/p/m.py", 2)}, allowed) == ["UNREACHED  m.py:2: if x:"]
    assert bytecheck.verdict(texts, ran | {("/p/m.py", 4)}, allowed) == [
        "ALLOWED BUT REACHED  m.py:4: z = 3"
    ]
    assert bytecheck.verdict(texts, ran, {}) == [
        "UNREACHED  m.py:3: y = 2",
        "UNREACHED  m.py:4: z = 3",
    ]
