"""The byte check's record (tools/bytecheck.py) holds every entry of its
table, as the tool writes it, and its reach verdict names the right lines of
fixed sources, with no entry run.  Comparisons between command lines are
properties of the record: test_cli.py's TestTable shows that the package
reproduces every entry, so each holds of the package, also once a declared
byte change rewrites the record."""

import hashlib
import itertools
import json
import re

import bytecheck

RECORD = json.loads(bytecheck.RECORD.read_text())


def test_record_holds_every_entry():
    # the record, the run directories and the count files go by name,
    # and an entry added to the table without rewriting the record, or a
    # record edited by hand, fails here
    names = [entry.name for entry in bytecheck.TABLE]
    assert len(set(names)) == len(names)
    assert list(RECORD) == names
    # every stream is text or null, never a hash of its bytes
    assert {tuple(entry) for entry in RECORD.values()} == {("code", "stdout", "stderr", "files")}
    assert bytecheck.RECORD.read_text() == json.dumps(RECORD, indent=1) + "\n"


def test_out_and_a_lost_stdout_change_no_written_byte():
    # what each entry with nothing made before it that exits 0, or 1 with
    # stdout closed or full, wrote: the SHA-256s of its files, or of a report
    # printed on a pipe; by its argv without the --out pair
    groups = {}
    for entry in bytecheck.TABLE:
        outcome = RECORD[entry.name]
        hashes = sorted(outcome["files"].values())
        if not hashes and outcome["stdout"] is not None:
            hashes = [hashlib.sha256("".join(outcome["stdout"]).encode()).hexdigest()]
        ok = outcome["code"] == 0 or (outcome["code"] == 1 and entry.stdout != "pipe")
        if hashes and ok and not (entry.dirs or entry.files):
            argv = re.sub(r" --out \S*", "", " ".join(entry.argv))
            groups.setdefault(argv, []).append(tuple(hashes))
    # each report format and its -out twin, and the runs with --out or a lost
    # stdout beside a plain one, so that the property is not vacuous
    reports = itertools.product(("verify-table3", "bounds", "swap-map"), ("json", "csv"))
    shared = {argv: len(group) for argv, group in groups.items() if len(group) > 1}
    assert shared == {
        **{f"{command} --format {fmt}": 2 for command, fmt in reports},
        **{"bounds": 4, "swap-map": 2, "sample --shots 10": 8},
    }
    for argv, group in groups.items():
        assert len(set(group)) == 1, argv


def test_sources_do_not_change_a_sample():
    # both sources emit the same labels, so their frames cancel and the
    # class map, hence every event and the summary, is the same for every pair
    outcomes = [RECORD[f"sample-{a}-{b}"] for a in bytecheck.CODES for b in bytecheck.CODES]
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_seeds_change_the_events():
    events = {RECORD[f"sample-50-{seed}"]["files"]["nlbox_sample/events.csv"] for seed in (0, 1)}
    assert len(events) == 2


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
