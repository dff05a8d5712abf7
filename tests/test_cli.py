"""Command line behavior: exit codes, formats, and reproducible files."""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import sys
from pathlib import Path

import bytecheck
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import BELL_ORDER, decode

from nlbox import cli, polytope, sampler, swap
from nlbox.cli import main, sig12


GOLDEN = Path(__file__).parent / "golden"
RECORD = json.loads(bytecheck.RECORD.read_text())


PINNED_SHOTS = (4095, 4096, 4097, 12293, 100003)
# sha256 of events.csv under RNG contract 3, by seed, at PINNED_SHOTS
EVENTS_SHA256 = {
    0: (
        "63d03efb7b6937dc79b8e6fb9b1f9f3e34df71d1c96d2adb0192fdd3398416be",
        "841db1386edd6b15d9c0938f25ac8c005fa90c25f4f6b4097ab25f8030eff571",
        "81d82825e3d9f6f6a0493f91b37e32468f0be5cde57932ec248c1f0e6c407ca4",
        "e8032263cd5f5256290890f8d9e21dce611e36d29be011d814ed863366070d89",
        "bcf267a97b80f9f4bbd06b2b9392c575d5120622c594186e99e2673628189924",
    ),
    1: (
        "4194c1426fb862e67561f0e7bab7e90c9d4d7fe5ad619c27a6ec26af02be8ec6",
        "47153fc9f8bad91a61644f6c8bd9e5d56ea55eadd6b673e011fdd5c5768a71e5",
        "99f9076acd2388cbf6e533282e46ad6d7f03b1d28f4dcadf05a2880fdd2aa721",
        "d7079525100f5740dadba74de8ac60c1d90f7ac49136a42687a3b7c900ec9f88",
        "e2777b74b85d0d5c545a4262c6adefdfb71ed8426ef4f0a28f5baea8deabfca3",
    ),
    2**63: (
        "158650aa584d4ecc4b6011fe89ff2fe516c44ce9049d5f4c0bf2361d5d2f06f1",
        "7ca97cb60f43fee567eb152159bad99c71b34358435b4671505d1ee5f9d9dacf",
        "315775d16c325aff47e670a55feca275dc3e217b541765544715fa946bde5033",
        "50b2e3c61ebb6d884effbcc1cc904c9dee93217aa895d71af2479aa3b30f2bf7",
        "47bb66a64fcf863b528e81cd8ffc5266895e7b9520e295e5cb24a74037ca9d17",
    ),
}


@functools.cache
def _event_suffixes() -> tuple[str, ...]:
    """The text after run_id of each code's events.csv line, from the oracle's decode."""
    signs, robots = ("+1", "-1"), ("PP", "PM", "SP", "SM")
    suffixes = []
    for code in range(2304):
        x, y, a, b, r1, r2 = decode(code)
        fields = [x, y, signs[a >> 1], signs[a & 1], signs[b >> 1], signs[b & 1]]
        fields += [robots[r1], robots[r2]]
        suffixes.append("".join(f",{v}" for v in fields) + "\n")
    return tuple(suffixes)


def one_line_per_run(codes) -> str:
    """events.csv for ``codes``, one f-string per run."""
    suffixes = _event_suffixes()
    lines = [f"{run_id}{suffixes[code]}" for run_id, code in enumerate(codes)]
    return "run_id,x,y,a1,a2,b1,b2,r1,r2\n" + "".join(lines)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def corrupt_reference(monkeypatch):
    """Make the reference value of PP.SP on expression 6 read 4 instead of -3."""
    broken = json.loads(json.dumps(cli.load_reference_table()))
    broken["values"][2][5] = 4.0
    monkeypatch.setattr(cli, "load_reference_table", lambda: broken)


class TestVerifyTable3:
    def test_detects_a_corrupted_reference(self, capsys, monkeypatch):
        corrupt_reference(monkeypatch)
        code, doc = run_json(capsys, ["verify-table3"])
        assert code == 1
        assert doc["ok"] is False
        assert doc["matches"] == 255
        assert doc["mismatches"][0]["state"] == "PP.SP"
        assert doc["mismatches"][0]["expression"] == 6

    @pytest.mark.parametrize(
        "doc",
        [
            {"schema_version": 1},
            {"schema_version": 1, "values": 5},
            {"schema_version": 1, "values": [None] + [[0.0] * 16] * 15},
            {"schema_version": 1, "values": [[0.0] * 15] + [[0.0] * 16] * 15},
            {"schema_version": 1, "values": [["9"] * 16] * 16},
            {"schema_version": 1, "values": [[0.0] * 16] * 15},
            {"schema_version": 1, "values": [[math.nan] + [0.0] * 15] * 16},
            {"schema_version": 1, "values": [[0.0] * 15 + [-math.inf]] * 16},
            {"schema_version": 1, "values": [[9.0] * 16] * 15 + [[True] + [1.0] * 15]},
            {"schema_version": 1, "values": [[10**400] + [0.0] * 15] * 16},
            [1],
        ],
        ids=[
            "missing",
            "number",
            "none-row",
            "short-row",
            "text",
            "fifteen-rows",
            "nan",
            "infinity",
            "bool",
            "huge-int",
            "list",
        ],
    )
    def test_malformed_reference_is_an_error(self, tmp_path, capsys, monkeypatch, doc):
        path = tmp_path / "beta_reference.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "REFERENCE_PATH", path)
        code = main(["verify-table3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        if isinstance(doc, dict):
            message = "values are not 16 rows of 16 numbers"
        else:
            message = "schema None is not supported (expected 1)"
        assert captured.err == f"error: reference table {message}\n"

    def test_schema_mismatch_is_an_error(self, tmp_path, capsys, monkeypatch):
        # the shipped values under another schema; true and 1.0 compare
        # equal to 1 but are not the integer 1
        doc = json.loads(cli.REFERENCE_PATH.read_text(encoding="utf-8"))
        path = tmp_path / "beta_reference.json"
        monkeypatch.setattr(cli, "REFERENCE_PATH", path)
        for schema in (0, 2, True, 1.0, "1", None):
            path.write_text(json.dumps({**doc, "schema_version": schema}))
            code = main(["verify-table3"])
            captured = capsys.readouterr()
            assert code == 1, schema
            assert captured.out == ""
            want = f"error: reference table schema {schema} is not supported (expected 1)\n"
            assert captured.err == want


class TestBounds:
    def test_evaluates_each_deterministic_maximum_once(self, capsys, monkeypatch):
        # every expression's maximum, count and witness come from expression 1's values
        calls = []
        real = polytope.vertex_values
        monkeypatch.setattr(polytope, "vertex_values", lambda k: calls.append(k) or real(k))
        assert main(["bounds"]) == 0
        capsys.readouterr()
        assert calls == [0]

    def test_ranks_twice(self, capsys, monkeypatch):
        # one rank for the polytope, one for expression 1's saturators
        calls = []
        real = polytope.integer_rank
        monkeypatch.setattr(polytope, "integer_rank", lambda m: calls.append(len(m)) or real(m))
        assert main(["bounds"]) == 0
        capsys.readouterr()
        assert len(calls) == 2
        assert max(calls) <= 144
        # the 64x12 party table and the 100 kept columns of the saturators
        assert sorted(calls) == [64, 100]

    def test_an_expression_off_the_orbit_is_an_error(self, capsys, monkeypatch):
        # expression 5 (row 4) with the sign of cell (1, 2) flipped is no
        # relabeling of expression 1
        row = list(polytope.C[4])
        row[16 * 5 : 16 * 6] = [-v for v in row[16 * 5 : 16 * 6]]
        monkeypatch.setattr(polytope, "C", (*polytope.C[:4], tuple(row), *polytope.C[5:]))
        code = main(["bounds"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: expression 5 is not a relabeling of expression 1\n"

    def test_out_below_a_file_is_an_error(self, tmp_path, capsys):
        # the message names the parent directory that could not be made
        blocker = tmp_path / "file"
        blocker.write_text("x")
        for argv, parent in (
            (["bounds", "--out", str(blocker / "x.json")], blocker),
            (["bounds", "--out", str(blocker / "sub" / "x.json")], blocker / "sub"),
            (["sample", "--shots", "10", "--out", str(blocker)], blocker),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err == f"error: {parent} is not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "x"


class TestSwapMap:
    @pytest.mark.parametrize(
        "text, error",
        [(" SP , PM ", None), ("", "expected two comma-separated Bell codes, e.g. SM,SM")],
        ids=["spaced", "empty"],
    )
    def test_sources_forms(self, capsys, text, error):
        # spaces around a code are dropped; every other form is a usage error
        argv = ["swap-map", "--sources", text]
        if error is None:
            assert cli._read_argv(argv).sources == (2, 1)
            return
        assert main(argv) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"nlbox swap-map: error: argument --sources: {error}"


class TestSample:
    def test_writes_events_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            ["sample", "--shots", "240", "--seed", "9", "--out", str(out_dir)]
        )
        msgs = capsys.readouterr().out
        assert code == 0
        assert "wrote" in msgs
        events = (out_dir / "events.csv").read_text().strip().split("\n")
        assert events[0] == "run_id,x,y,a1,a2,b1,b2,r1,r2"
        assert len(events) == 241
        fields = events[1].split(",")
        assert fields[0] == "0"
        assert fields[3] in {"+1", "-1"}
        assert fields[7] in {"PP", "PM", "SP", "SM"}
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["shots"] == 240
        assert summary["seed"] == 9
        assert sum(c["count"] for c in summary["classes"]) == 240

    def test_csv_summary_variant(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "sample",
                "--shots", "120",
                "--seed", "2",
                "--out", str(out_dir),
                "--format", "csv",
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 17
        assert lines[0].startswith("robot_first,robot_second,count,")

    def test_small_runs_report_insufficient_cells(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["sample", "--shots", "20", "--seed", "1", "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        shallow = [c for c in summary["classes"] if c["beta_hat"] is None]
        assert shallow
        for entry in shallow:
            assert entry["insufficient_cells"]

    @pytest.mark.parametrize(
        "seed, shots, sha256",
        [
            (seed, shots, EVENTS_SHA256[seed][i])
            for seed in EVENTS_SHA256
            for i, shots in enumerate(PINNED_SHOTS)
            if (seed, shots) != (1, 100003)  # the record's sample-100003-1
        ],
    )
    def test_events_hashes_are_pinned(self, tmp_path, capsys, seed, shots, sha256):
        # whole blocks, one short of a block, one past it, several blocks, and
        # six-digit run_ids ending in a partial ten
        out_dir = tmp_path / "run"
        argv = ["sample", "--shots", str(shots), "--seed", str(seed), "--out", str(out_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256((out_dir / "events.csv").read_bytes()).hexdigest() == sha256

    def test_record_holds_a_pinned_hash(self):
        # TestTable reruns sample-100003-1, the pinned run at seed 1 and 100 003 shots
        digest = RECORD["sample-100003-1"]["files"]["nlbox_sample/events.csv"]
        assert digest == EVENTS_SHA256[1][-1]

    def test_every_code_has_its_event_line(self):
        # only 1152 of the 2304 codes occur in events.csv, so the pinned
        # hashes miss the rest: render all of them, 1000 to a chunk, and
        # compare each line with the oracle's decode of its code
        codes = list(range(2304))
        assert "".join(cli._event_text(codes, 1000)) == one_line_per_run(codes)

    @pytest.mark.parametrize("block", [1, 7, 10, 1000, 4096])
    @pytest.mark.parametrize(
        "length", [0, 1, 9, 10, 11, 99, 100, 101, 1009, 4090, 4096, 10_001, 100_003]
    )
    def test_event_text_matches_one_line_per_run(self, length, block):
        # events.csv writes ten runs per f-string; the reference writes one
        # line per run from the oracle's decode, over codes of every kind
        codes = random.Random(length).choices(range(2304), k=length)
        got = "".join(cli._event_text(codes, block)).split("\n")
        want = one_line_per_run(codes).split("\n")
        # name the first line that differs instead of diffing megabytes
        bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
        assert len(got) == len(want)

    def test_summary_counts_match_the_events_file(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["sample", "--shots", "9000", "--seed", "3", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "events.csv").read_text().splitlines()[1:]
        recount = {}
        for line in lines:
            fields = line.split(",")
            robot, cell = (fields[7], fields[8]), (int(fields[1]), int(fields[2]))
            recount.setdefault(robot, []).append(cell)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [int(line.split(",")[0]) for line in lines] == list(range(9000))
        for entry in summary["classes"]:
            cells = recount.get(tuple(entry["robot_outcome"]), [])
            assert entry["count"] == len(cells)
            grid = [[cells.count((i, j)) for j in range(3)] for i in range(3)]
            assert entry["cell_counts"] == grid

    def test_builds_the_class_map_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = swap.class_map
        monkeypatch.setattr(swap, "class_map", lambda *a: calls.append(a) or real(*a))
        assert main(["sample", "--shots", "20", "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # no traceback, and the run fails before it writes any file
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(sampler, "sample_events", out_of_memory)
        assert main(["sample", "--shots", "100000000", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert list(tmp_path.iterdir()) == []


class TestParsing:
    def test_report_schema_is_not_the_reference_schema(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "REPORT_SCHEMA_VERSION", 2)
        code, doc = run_json(capsys, ["verify-table3"])
        assert code == 0
        assert doc["schema_version"] == 2
        assert cli.load_reference_table()["schema_version"] == 1

    def test_sig12_rounding(self):
        assert sig12(1, 3) == 0.333333333333
        assert sig12(9 * 10**15 + 1, 10**15) == 9.0

    def test_csv_cell_rules(self):
        cells = [cli._cell(v) for v in (True, False, None, 1 / 3, 9.0, ["++", "+-"], 7)]
        assert cells == ["true", "false", "", "0.333333333333", "9", "++|+-", "7"]


# --shots and --seed texts: edge and bad integers; no valid shot count exceeds 5000
INTEGER_TEXTS = st.one_of(
    st.integers(-3, 5000).map(str),
    st.integers(1, 5000).map(str),
    st.sampled_from(["", " 7", "1_000", "0x10", "1e3", "2.5", "abc", "-0", "\u0663", "9" * 5000]),
)
OPTION_VALUES = {
    "--shots": INTEGER_TEXTS,
    "--seed": st.one_of(INTEGER_TEXTS, st.sampled_from([str(2**64), str(-(2**70))])),
    "--sources": st.one_of(
        st.sampled_from(["PM,PP", "SP,SM", "sm, pp", "SM", "SM,SM,SM", ",", "XX,SM"]),
        st.text(max_size=6),
    ),
    "--format": st.sampled_from(["json", "csv", "json", "csv", "xml", "", "JSON"]),
    # --out: a fresh directory, a path below a file, a directory holding an
    # events.csv file, a directory holding an events.csv directory, an
    # existing file, a path with a NUL byte
    "--out": st.sampled_from(["fresh", "below-file", "events-file", "events-dir", "file", "nul"]),
}
# the options each command takes; the others take only --format and --out
COMMAND_OPTIONS = {"sample": list(OPTION_VALUES), "swap-map": ["--sources", "--format", "--out"]}
# the report failure lines of the four commands
FAILURE_LINE = re.compile(r"verification failed|bound or facet check failed|swap map is not")


def _out_paths(root: Path) -> dict[str, str]:
    """Each kind of --out below ``root``, with the files and directories it needs."""
    (root / "file").write_text("x")
    for name in ("events-file", "events-dir"):
        (root / name).mkdir()
    (root / "events-file" / "events.csv").write_text("old\n")
    (root / "events-dir" / "events.csv").mkdir()
    return {
        "fresh": str(root / "fresh" / "report"),
        "below-file": str(root / "file" / "report"),
        "events-file": str(root / "events-file"),
        "events-dir": str(root / "events-dir"),
        "file": str(root / "file"),
        "nul": str(root / "a\0b"),
    }


class TestFuzz:
    @settings(max_examples=150)
    @given(
        command=st.sampled_from(["verify-table3", "bounds", "swap-map", "sample", "nope"]),
        data=st.data(),
        # nothing, an option of another command, help, an unknown option
        extra=st.sampled_from([(), (), (), ("--seed", "5"), ("-h",), ("--bogus",)]),
    )
    def test_every_input_exits_cleanly(self, tmp_path_factory, command, data, extra):
        root = tmp_path_factory.mktemp("fuzz")
        outs = _out_paths(root)
        names = COMMAND_OPTIONS.get(command, ["--format", "--out"])
        optional = {name: OPTION_VALUES[name] for name in names}
        options = data.draw(st.fixed_dictionaries({}, optional=optional))
        if "--out" in options:
            options["--out"] = outs[options["--out"]]
        elif command == "sample":
            options["--out"] = str(root / "default")
        argv = [command, *(text for pair in options.items() for text in pair), *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        stderr = err.getvalue()
        assert code in (0, 1, 2), (argv, code, stderr)
        assert "Traceback" not in stderr, (argv, stderr)
        last = stderr.splitlines()[-1] if stderr else ""
        if code == 1:
            assert last.startswith("error: ") or FAILURE_LINE.match(last), (argv, stderr)
        elif code == 2:
            assert stderr.startswith("usage: nlbox") and ": error: " in last, (argv, stderr)


class TestDirectReader:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--out", "-h"],
            ["bounds", "--out", "--format", "csv"],
            ["sample", "--seed", "-0"],
            ["sample", "--shots", "5", "--shots", "6"],
            ["sample", "--sh", "5"],
            ["bounds", "--format=csv"],
            ["bounds", "--out"],
            ["bounds", "--seed", "5"],
            ["-h", "bounds"],
            ["swap-map", "--sources", "-h"],
        ],
    )
    def test_every_other_form_is_a_usage_error(self, capsys, argv):
        # the usage line of the command, or of nlbox, and one error line
        assert main(argv) == 2
        out, err = capsys.readouterr()
        prog = f"nlbox {argv[0]}" if argv[0] in ("bounds", "sample", "swap-map") else "nlbox"
        usage, error = err.splitlines()
        assert out == "" and usage.startswith(f"usage: {prog} [-h]")
        assert error.startswith(f"{prog}: error: argument ")

    def test_defaults(self):
        assert vars(cli._read_argv(["sample"])) == {
            "command": "sample",
            "func": cli.cmd_sample,
            "shots": 1000,
            "seed": 0,
            "sources": swap.DEFAULT_SOURCES,
            "out": "nlbox_sample",
            "format": "json",
        }
        for command in ("verify-table3", "bounds", "swap-map"):
            fields = vars(cli._read_argv([command]))
            assert (fields["out"], fields["format"]) == (None, "json")

    def test_commands_run_the_functions_bound_at_parse_time(self, capsys, monkeypatch):
        calls = []
        real = cli.cmd_swap_map
        monkeypatch.setattr(cli, "cmd_swap_map", lambda args: calls.append(args) or real(args))
        assert main(["swap-map"]) == 0
        assert main(["swap-map", "--sources", "PM,PP"]) == 0
        capsys.readouterr()
        assert len(calls) == 2


class TestGoldenOutput:
    """The golden files beside the record: the two sample summaries, which it
    hashes, and the report of a failed verification, which no entry makes."""

    @pytest.mark.parametrize(
        "name, entry, path",
        [
            ("sample-summary-400-0.json", "sample-400-0-json", "nlbox_sample/summary.json"),
            ("sample-summary-400-0.csv", "sample-400-0-csv", "nlbox_sample/summary.csv"),
        ],
        ids=["summary-json", "summary-csv"],
    )
    def test_sample_file_is_the_recorded_one(self, name, entry, path):
        # the files of the record's runs; at 400 shots and seed 0, 7 of 16
        # classes have an empty cell
        digest = hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()
        assert digest == RECORD[entry]["files"][path]

    @pytest.mark.parametrize(
        "fmt, name", [("json", "verify-table3-corrupted.json"), ("csv", "verify-table3.csv")]
    )
    def test_failed_verification_is_byte_identical(self, capsys, monkeypatch, fmt, name):
        # the CSV report holds only the computed values, so it does not change
        # from the one the record holds
        corrupt_reference(monkeypatch)
        assert main(["verify-table3", "--format", fmt]) == 1
        captured = capsys.readouterr()
        if fmt == "csv":
            golden = "".join(RECORD["verify-table3-csv"]["stdout"]).encode("utf-8")
        else:
            golden = (GOLDEN / name).read_bytes()
        assert captured.out.encode("utf-8") == golden
        stderr = (GOLDEN / "verify-table3-corrupted.stderr").read_bytes()
        assert captured.err.encode("utf-8") == stderr


def _run_in_process(entry, where, capsys, monkeypatch) -> bytecheck.Outcome:
    """Run ``entry``, whose stdout and stderr are pipes, through ``main`` in this
    process, from the fresh directory ``where``, as ``bytecheck.run`` runs it."""
    bytecheck.prepare(entry, where)
    monkeypatch.chdir(where)
    code = main(list(entry.argv))
    captured = capsys.readouterr()
    out, err = captured.out.encode("utf-8"), captured.err.encode("utf-8")
    return bytecheck.Outcome(out, err, code, bytecheck.files_in(where))


ENTRIES = {entry.name: entry for entry in bytecheck.TABLE}


class TestTable:
    """Every entry of the byte check's table against its record in
    tests/golden/table.json, which ``python tools/bytecheck.py`` rewrites."""

    @pytest.mark.parametrize("name", list(RECORD))
    def test_outcome_matches_the_record(self, tmp_path, capsys, monkeypatch, name):
        entry = ENTRIES[name]
        if (entry.stdout, entry.stderr) == ("pipe", "pipe"):
            done = _run_in_process(entry, tmp_path / "run", capsys, monkeypatch)
        elif "full" in (entry.stdout, entry.stderr) and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        else:
            done = bytecheck.run(entry, tmp_path / "run")
        assert bytecheck.recorded(done) == RECORD[name]


class TestAtomicWrites:
    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "events.csv"

        def chunks():
            yield "run_id\n"
            raise OSError("disk full")

        with pytest.raises(OSError):
            cli._write_atomic({target: chunks()})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old")

        def chunks():
            yield "new"
            raise OSError("disk full")

        with pytest.raises(OSError):
            cli._write_atomic({target: chunks()})
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old"

    @pytest.mark.parametrize("failure", ["summary is a directory", "events write fails"])
    def test_failed_sample_changes_no_file(self, tmp_path, capsys, monkeypatch, failure):
        out = tmp_path / "run"
        assert main(["sample", "--shots", "50", "--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}/events.csv\nwrote {out}/summary.csv\n"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        if failure == "summary is a directory":
            (out / "summary.json").mkdir()
        else:

            def full_disk(codes, block):
                yield "run_id\n"
                raise OSError("disk full")

            monkeypatch.setattr(cli, "_event_text", full_disk)
        assert main(["sample", "--shots", "60", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        after = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        assert after == before

    def test_failed_print_comes_after_the_renames(self, tmp_path, capsys, monkeypatch):
        # the wrote lines are printed once both files are renamed, so a full
        # stdout fails the run with the new pair in place
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        out = tmp_path / "run"
        assert main(["sample", "--shots", "50", "--out", str(out)]) == 0
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["sample", "--shots", "60", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert sorted(path.name for path in out.iterdir()) == ["events.csv", "summary.json"]
        assert json.loads((out / "summary.json").read_text())["shots"] == 60
        assert len((out / "events.csv").read_text().splitlines()) == 61

    def test_write_replaces_the_target(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old")
        cli._write_atomic({target: ["a", "b\n"]})
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "ab\n"

    @pytest.mark.parametrize("node", ["symlink", "fifo"])
    def test_target_that_is_not_a_regular_file_is_an_error(self, tmp_path, capsys, node):
        # the rename would replace the link itself, not the file it names,
        # and a FIFO or a device by a regular file
        target = tmp_path / "target.json"
        target.write_text("old")
        out = tmp_path / "out.json"
        if node == "symlink":
            out.symlink_to(target.name)
        else:
            os.mkfifo(out)
        before = out.lstat()
        assert main(["swap-map", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {out} is not a regular file\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.json", "target.json"]
        after = out.lstat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert target.read_text() == "old"


class TestEntryPoint:
    """``python -m nlbox`` as a whole process, through ``bytecheck.run``: the
    sample summaries against their goldens and, with a patched ``main``, its
    freeze and its Ctrl-C.  The table's process entries, and test_layout.py's
    probe, cover the commands themselves."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_goldens_end_to_end(self, tmp_path, fmt):
        argv = ["sample", "--shots", "400", "--seed", "0", "--format", fmt, "--out", "run"]
        done = bytecheck.run(bytecheck.Entry("", argv), tmp_path / "cwd")
        assert (done.code, done.stderr) == (0, b"")
        assert done.stdout == f"wrote run/events.csv\nwrote run/summary.{fmt}\n".encode()
        golden = (GOLDEN / f"sample-summary-400-0.{fmt}").read_bytes()
        assert (tmp_path / "cwd" / "run" / f"summary.{fmt}").read_bytes() == golden

    def test_freezes_after_main_and_exits_with_its_status(self, tmp_path):
        # a patched main sees no frozen object, and an atexit hook, which runs
        # after entry_point has raised SystemExit, sees the frozen heap
        code = (
            "import atexit, gc\n"
            "from nlbox import cli\n"
            "def main():\n"
            "    print('main', gc.get_freeze_count())\n"
            "    return 3\n"
            "cli.main = main\n"
            "atexit.register(lambda: print('exit', gc.get_freeze_count() > 0))\n"
            "cli.entry_point()\n"
        )
        entry = bytecheck.Entry("", [])
        done = bytecheck.run(entry, tmp_path / "cwd", ("-c", code))
        assert (done.code, done.stderr) == (3, b"")
        assert done.stdout == b"main 0\nexit True\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_interrupt_is_one_error_line(self, tmp_path):
        # Ctrl-C prints one line, no traceback, and then ends the process by
        # SIGINT, so that a shell reports 130 and a loop around nlbox stops
        interrupted = (-signal.SIGINT, b"", b"error: interrupted\n")
        in_main = (
            "import os, signal\n"
            "from nlbox import cli\n"
            "cli.main = lambda: os.kill(os.getpid(), signal.SIGINT)\n"
            "cli.entry_point()\n"
        )
        head = ("-c", in_main)
        # also where the tests run with SIGINT ignored, as a job started with & does
        ignored = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            done = bytecheck.run(bytecheck.Entry("", []), tmp_path / "pipe", head)
        finally:
            signal.signal(signal.SIGINT, ignored)
        assert (done.code, done.stdout, done.stderr) == interrupted
        # a closed or full stderr loses the line and keeps the signal
        for how in ("closed", "full"):
            entry = bytecheck.Entry("", [], stderr=how)
            done = bytecheck.run(entry, tmp_path / how, head)
            assert (done.code, done.stdout) == interrupted[:2]
        # partway through the events of a run over an older one: the older
        # files stay as they were, and no temporary file is left
        entry = bytecheck.Entry("", ["sample", "--shots", "50", "--out", "d"])
        older = bytecheck.run(entry, tmp_path / "older")
        assert older.code == 0
        files = {f"d/{path.name}": path.read_text() for path in (tmp_path / "older/d").iterdir()}
        in_writer = (
            "import os, signal\n"
            "from nlbox import cli\n"
            "event_text = cli._event_text\n"
            "def interrupted(codes, block):\n"
            "    chunks = event_text(codes, block)\n"
            "    yield next(chunks)\n"
            "    os.kill(os.getpid(), signal.SIGINT)\n"
            "    yield from chunks\n"
            "cli._event_text = interrupted\n"
            "cli.entry_point()\n"
        )
        argv = ["sample", "--shots", "60", "--out", "d"]
        entry = bytecheck.Entry("", argv, dirs=("d",), files=files)
        done = bytecheck.run(entry, tmp_path / "writer", ("-c", in_writer))
        assert (done.code, done.stdout, done.stderr) == interrupted
        assert done.files == older.files


class TestBellStates:
    def test_code_roundtrip(self):
        for label, code in zip(BELL_ORDER, ("PP", "PM", "SP", "SM")):
            assert cli.BELL_CODES[label] == code
            assert cli._sources(f"{code},{code}") == (label, label)
        for code in ("XX", "sm", ""):
            message = f"{code!r} is not one of ['PP', 'PM', 'SP', 'SM']"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cli._sources(f"{code},PP")
