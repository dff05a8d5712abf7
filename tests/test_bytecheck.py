"""The byte check's record (tools/bytecheck.py) holds every entry of its
table, as the tool writes it, and its reach verdict names the right lines of
fixed sources, with no entry run.  Comparisons between command lines are
properties of the record: test_cli.py's TestTable shows that the package
reproduces every entry, so each holds of the package, also once a declared
byte change rewrites the record.  The reports the record holds, and the
sample summaries it hashes, are read back against the oracle, so that no
rewrite of the record can bless a wrong claim."""

import functools
import hashlib
import itertools
import json
import re
from fractions import Fraction

import bytecheck
import pytest
from oracle import (
    ALICE_PAIR,
    BOB_PAIR,
    OUTCOME_LABELS,
    PRODUCT_LABELS,
    PSI_MINUS,
    ROBOT_OUTCOMES,
    behavior_value,
    born_values,
    dense_swap,
    density_behavior,
    identify_bell_product,
    strategy_behavior,
    vertex_matrix,
)

RECORD = json.loads(bytecheck.RECORD.read_text())
GOLDEN = bytecheck.ROOT / "tests" / "golden"
CODES = bytecheck.CODES  # the command line's names of the oracle's Bell states 0..3


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


def test_a_lost_stderr_keeps_the_exit_code():
    # a closed or full stderr loses the error line or usage text, not the exit
    # code: each such entry against the entry of its argv with stderr on a pipe
    codes = {}
    for entry in bytecheck.TABLE:
        if entry.stdout == "pipe":
            codes.setdefault(" ".join(entry.argv), {})[entry.stderr] = RECORD[entry.name]["code"]
    lost = {argv: by_stderr for argv, by_stderr in codes.items() if len(by_stderr) > 1}
    assert sorted(lost) == [
        "frobnicate",
        "sample --shots 0",
        "sample --shots 10 --out f",
        "verify-table3",
    ]
    for argv, by_stderr in lost.items():
        assert set(by_stderr) == {"pipe", "closed", "full"}, argv
        assert len(set(by_stderr.values())) == 1, (argv, by_stderr)


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


def _printed(command):
    """(argv, format, stdout) of each entry of ``command`` that printed its report
    on a pipe: no --out, no -h, and some stdout."""
    for entry in bytecheck.TABLE:
        argv, stdout = entry.argv, RECORD[entry.name]["stdout"]
        if argv[:1] == [command] and stdout and "--out" not in argv and "-h" not in argv:
            assert RECORD[entry.name]["code"] == 0, entry.name
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            yield argv, fmt, "".join(stdout)


def _field(text: str):
    """A CSV field read back: a list where it holds a "|", a number or a bool, else text."""
    if "|" in text:
        return text.split("|")
    try:
        return json.loads(text)
    except ValueError:
        return text


def _csv(text: str) -> list[list]:
    """A CSV report read back, its header first."""
    return [list(map(_field, line.split(","))) for line in text.splitlines()]


def _sources(argv) -> tuple[int, int]:
    """The oracle's Bell states that ``argv`` names with --sources; SM,SM by default."""
    if "--sources" not in argv:
        return PSI_MINUS, PSI_MINUS
    first, second = argv[argv.index("--sources") + 1].split(",")
    return CODES.index(first.strip()), CODES.index(second.strip())


@functools.cache
def _swapped(sources) -> list[tuple]:
    """Each robot outcome's probability, resulting product's codes and the one
    expression that product reaches 9 on, by the dense collapse."""
    out = []
    for count, norm, rho in dense_swap(sources):
        counts, total = density_behavior(rho, ALICE_PAIR, BOB_PAIR)
        values = [Fraction(int(behavior_value(k, counts)), total) for k in range(16)]
        assert values.count(9) == 1
        state = [CODES[label] for label in identify_bell_product(rho)]
        out.append((Fraction(count, norm), state, values.index(9) + 1))
    return out


def test_verify_table3_prints_the_oracle_values():
    states = [f"{CODES[first]}.{CODES[second]}" for first, second in PRODUCT_LABELS]
    values, norm = born_values()
    want = [[Fraction(int(v), norm) for v in row] for row in values]
    formats = set()
    for _, fmt, text in _printed("verify-table3"):
        if fmt == "json":
            doc = json.loads(text)
            assert (doc["ok"], doc["matches"], doc["mismatches"]) == (True, 256, [])
            rows = [[state, *values] for state, values in zip(doc["state_order"], doc["values"])]
        else:
            header, *rows = _csv(text)
            assert header == ["state"] + [f"beta_{k}" for k in range(1, 17)]
        assert [row[0] for row in rows] == states
        assert [[Fraction(v) for v in row[1:]] for row in rows] == want
        formats.add(fmt)
    assert formats == {"json", "csv"}


def test_bounds_prints_the_oracle_bounds_and_winning_witnesses():
    vertices = vertex_matrix()
    saturators = [int((behavior_value(k, vertices) == 7).sum()) for k in range(16)]
    formats = set()
    for _, fmt, text in _printed("bounds"):
        if fmt == "json":
            doc = json.loads(text)
            d = doc["polytope_affine_dim"]
            expressions = [{**e, "polytope_affine_dim": d} for e in doc["expressions"]]
        else:
            header, *rows = _csv(text)
            expressions = [dict(zip(header, row)) for row in rows]
        assert [e["index"] for e in expressions] == list(range(1, 17))
        for row, e in enumerate(expressions):
            assert (e["lhv_max"], e["ns_value"], e["is_facet"]) == (7, 9, True)
            assert (e["polytope_affine_dim"], e["saturator_affine_dim"]) == (99, 98)
            assert e["num_saturators"] == saturators[row]
            witness = e["witness_alice"], e["witness_bob"]
            alice, bob = ([OUTCOME_LABELS.index(o) for o in labels] for labels in witness)
            assert behavior_value(row, strategy_behavior(alice, bob)) == 7, e
        formats.add(fmt)
    assert formats == {"json", "csv"}


def test_swap_map_prints_the_dense_collapse():
    read = set()
    for argv, fmt, text in _printed("swap-map"):
        sources = _sources(argv)
        if fmt == "json":
            doc = json.loads(text)
            assert doc["sources"] == [CODES[s] for s in sources]
            rows = [
                [*e["robot_outcome"], *e["resulting_state"]]
                + [e["matched_inequality"], e["probability"], e["beta"]]
                for e in doc["entries"]
            ]
        else:
            header, *rows = _csv(text)
        want = [
            [CODES[r1], CODES[r2], *state, expression, probability, 9]
            for (r1, r2), (probability, state, expression) in zip(ROBOT_OUTCOMES, _swapped(sources))
        ]
        assert rows == want, argv
        read.add((fmt, sources))
    # both formats, and every source pair
    assert {fmt for fmt, _ in read} == {"json", "csv"}
    assert {sources for _, sources in read} == set(itertools.product(range(4), repeat=2))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sample_summaries_read_back(fmt):
    # the committed summaries whose SHA-256 the record holds for an entry
    path = GOLDEN / f"sample-summary-400-0.{fmt}"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    argvs = [e.argv for e in bytecheck.TABLE if digest in RECORD[e.name]["files"].values()]
    assert argvs
    argv = argvs[0]
    shots = int(argv[argv.index("--shots") + 1])
    if fmt == "json":
        doc = json.loads(path.read_text())
        assert (doc["shots"], doc["sources"]) == (shots, [CODES[s] for s in _sources(argv)])
        for c in doc["classes"]:
            cells = [(i, j) for i in range(3) for j in range(3) if not c["cell_counts"][i][j]]
            assert c["insufficient_cells"] == [list(cell) for cell in cells]
            assert sum(map(sum, c["cell_counts"])) == c["count"]
        rows = [
            [*c["robot_outcome"], c["count"], c["matched_inequality"], c["beta_hat"]]
            + [c["insufficient_cells"]]
            for c in doc["classes"]
        ]
    else:
        header, *rows = _csv(path.read_text())
        assert header[2:5] == ["count", "matched_inequality", "beta_hat"]
    assert len(rows) == 16 and sum(row[2] for row in rows) == shots
    swapped = _swapped(_sources(argv))
    for (r1, r2), row, (_, _, expression) in zip(ROBOT_OUTCOMES, rows, swapped):
        assert row[:2] == [CODES[r1], CODES[r2]]
        assert row[3] == expression
        if row[4] in (None, ""):  # no estimate, for an empty cell
            assert row[5], row
        else:
            assert row[4] == 9, row
