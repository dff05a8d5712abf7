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
from argparse import ArgumentTypeError
from pathlib import Path

import bytecheck
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import BELL_ORDER, decode

from nlbox import cli, polytope, swap
from nlbox.cli import main, sig12


GOLDEN = Path(__file__).parent / "golden"
RECORD = json.loads(bytecheck.RECORD.read_text())


def recorded_stdout(argv) -> bytes:
    """The stdout that the record holds for ``python -m nlbox ARGV`` run with pipes."""
    (name,) = (
        e.name for e in bytecheck.TABLE if e.argv == argv and e.stdout == e.stderr == "pipe"
    )
    return "".join(RECORD[name]["stdout"]).encode("utf-8")


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
    def test_json_report(self, capsys):
        code, doc = run_json(capsys, ["verify-table3"])
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["ok"] is True
        assert doc["matches"] == 256
        assert doc["mismatches"] == []
        assert len(doc["state_order"]) == 16
        assert doc["state_order"][0] == "PP.PP"
        assert len(doc["values"]) == 16
        flat = [v for row in doc["values"] for v in row]
        assert set(flat) == {9.0, 1.0, -3.0}

    def test_csv_report(self, capsys):
        code = main(["verify-table3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 17
        assert lines[0].startswith("state,beta_1,")
        first = lines[1].split(",")
        assert first[0] == "PP.PP"
        assert first[1] == "9"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["verify-table3", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote {target}" in out
        doc = json.loads(target.read_text())
        assert doc["ok"] is True

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
    def test_json_report(self, capsys):
        code, doc = run_json(capsys, ["bounds"])
        assert code == 0
        assert doc["polytope_affine_dim"] == 99
        assert len(doc["expressions"]) == 16
        for entry in doc["expressions"]:
            assert entry["lhv_max"] == 7
            assert entry["ns_value"] == 9
            assert entry["saturator_affine_dim"] == 98
            assert entry["is_facet"] is True
            assert len(entry["witness_alice"]) == 3

    def test_csv_report(self, capsys):
        code = main(["bounds", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 17
        assert all(line.split(",")[6] == "true" for line in lines[1:])

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
    def test_default_sources(self, capsys):
        code, doc = run_json(capsys, ["swap-map"])
        assert code == 0
        assert doc["sources"] == ["SM", "SM"]
        assert len(doc["entries"]) == 16
        matched = sorted(e["matched_inequality"] for e in doc["entries"])
        assert matched == list(range(1, 17))
        for entry in doc["entries"]:
            assert entry["probability"] == 0.0625
            assert entry["beta"] == 9.0

    def test_explicit_sources(self, capsys):
        code, doc = run_json(capsys, ["swap-map", "--sources", "PM,PP"])
        assert code == 0
        assert doc["sources"] == ["PM", "PP"]
        matched = sorted(e["matched_inequality"] for e in doc["entries"])
        assert matched == list(range(1, 17))

    def test_invalid_source_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["swap-map", "--sources", "XX,SM"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text, error",
        [
            (" SP , PM ", None),
            (",", "unknown Bell code '', expected one of PP, PM, SP, SM"),
            ("PP,", "unknown Bell code '', expected one of PP, PM, SP, SM"),
            ("SM,SM,SM", "expected two comma-separated Bell codes, e.g. SM,SM"),
            ("", "expected two comma-separated Bell codes, e.g. SM,SM"),
            ("sm,pp", "unknown Bell code 'sm', expected one of PP, PM, SP, SM"),
        ],
        ids=["spaced", "comma", "half", "three", "empty", "lower-case"],
    )
    def test_sources_forms(self, capsys, text, error):
        # spaces around a code are dropped; every other form is a usage error
        argv = ["swap-map", "--sources", text]
        if error is None:
            assert cli._read_argv(argv).sources == (2, 1)
            assert cli.build_parser().parse_args(argv).sources == (2, 1)
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"nlbox swap-map: error: argument --sources: {error}"

    def test_csv_has_sixteen_rows(self, capsys):
        code = main(["swap-map", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().split("\n")) == 17


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

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["sample", "--shots", "150", "--seed", "4", "--out", str(dir_a)]) == 0
        assert main(["sample", "--shots", "150", "--seed", "4", "--out", str(dir_b)]) == 0
        capsys.readouterr()
        assert (dir_a / "events.csv").read_bytes() == (dir_b / "events.csv").read_bytes()
        assert (dir_a / "summary.json").read_bytes() == (dir_b / "summary.json").read_bytes()

    def test_different_seed_changes_events(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["sample", "--shots", "150", "--seed", "4", "--out", str(dir_a)]) == 0
        assert main(["sample", "--shots", "150", "--seed", "5", "--out", str(dir_b)]) == 0
        capsys.readouterr()
        assert (dir_a / "events.csv").read_bytes() != (dir_b / "events.csv").read_bytes()

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

    def test_out_on_an_existing_file_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("x")
        code = main(["sample", "--shots", "20", "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert target.read_text() == "x"

    def test_events_match_the_pinned_contract(self, tmp_path, capsys):
        # rng contract 3: a change to the draws or the event format fails here
        out_dir = tmp_path / "run"
        assert main(["sample", "--shots", "50", "--seed", "0", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        golden = (GOLDEN / "sample-events-50-0.csv").read_bytes()
        assert (out_dir / "events.csv").read_bytes() == golden
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["rng_contract"] == 3

    @pytest.mark.parametrize(
        "seed, shots, sha256",
        [
            (seed, shots, EVENTS_SHA256[seed][i])
            for seed in EVENTS_SHA256
            for i, shots in enumerate(PINNED_SHOTS)
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

    def test_sources_do_not_change_the_events(self, tmp_path, capsys):
        # both sources emit the same labels, so their frames cancel and the
        # class map, hence every event, is the same for every source choice
        for sources in ("SM,SM", "PP,PM", "SP,PP"):
            argv = ["sample", "--shots", "5000", "--seed", "11", "--sources", sources]
            assert main(argv + ["--out", str(tmp_path / sources)]) == 0
        capsys.readouterr()
        events = {(tmp_path / s / "events.csv").read_bytes() for s in ("SM,SM", "PP,PM", "SP,PP")}
        assert len(events) == 1

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("0", "must be a positive integer"),
            ("-3", "must be a positive integer"),
            ("abc", "'abc' is not an integer"),
        ],
        ids=["0", "-3", "abc"],
    )
    def test_rejects_bad_shot_counts(self, capsys, bad, message):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--shots", bad])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --shots: {message}\n")


class TestParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: seed must be non-negative\n")

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
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
        stderr = err.getvalue()
        assert code in (0, 1, 2), (argv, code, stderr)
        assert "Traceback" not in stderr, (argv, stderr)
        last = stderr.splitlines()[-1] if stderr else ""
        if code == 1:
            assert last.startswith("error: ") or FAILURE_LINE.match(last), (argv, stderr)
        elif code == 2:
            assert stderr.startswith("usage: nlbox") and ": error: " in last, (argv, stderr)


# forms of one option that only argparse reads, from its full name and a value
FALLBACK_FORMS = {
    "equals": lambda flag, value: [f"{flag}={value}"],
    "abbreviation": lambda flag, value: [flag[:4], value],
    "repeated": lambda flag, value: [flag, value, flag, value],
    "dash value": lambda flag, value: [flag, "-5"],
    "help as value": lambda flag, value: [flag, "-h"],
    "empty value": lambda flag, value: [flag, ""],
}


# valid values of each option, drawn as often as TestFuzz's edge and bad ones
VALID_VALUES = {
    "--shots": st.integers(1, 10**6).map(str),
    "--seed": st.integers(0, 2**64).map(str),
    "--sources": st.sampled_from(["SM,SM", "PM,PP", "sp, sm"]),
    "--format": st.sampled_from(["json", "csv"]),
    "--out": st.sampled_from(["run", "a/b.json", "x y", "-"]),
}


def _parsed_by_argparse(argv):
    """argparse's fields for ``argv``, func by name, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None
    return {**fields, "func": fields["func"].__name__}


class TestDirectReader:
    @settings(max_examples=300)
    @given(
        command=st.sampled_from(["verify-table3", "bounds", "swap-map", "sample", "nope"]),
        data=st.data(),
        form=st.sampled_from([None] * 8 + list(FALLBACK_FORMS)),
        extra=st.sampled_from([()] * 8 + [("--seed", "5"), ("--bogus",)]),
    )
    def test_reads_what_argparse_reads_or_nothing(self, command, data, form, extra):
        names = COMMAND_OPTIONS.get(command, ["--format", "--out"])
        optional = {name: st.one_of(VALID_VALUES[name], OPTION_VALUES[name]) for name in names}
        pairs = [list(p) for p in data.draw(st.fixed_dictionaries({}, optional=optional)).items()]
        if pairs and form is not None:
            i = data.draw(st.integers(0, len(pairs) - 1))
            pairs[i] = FALLBACK_FORMS[form](*pairs[i])
        argv = [command, *(text for pair in pairs for text in pair), *extra]
        if data.draw(st.integers(0, 3)) == 0:  # -h at any position, in a quarter of the draws
            argv.insert(data.draw(st.integers(0, len(argv))), "-h")
        fields = cli._read_argv(argv)
        if fields is not None:
            assert {**vars(fields), "func": fields.func.__name__} == _parsed_by_argparse(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-table3"],
            ["bounds", "--out", "b.csv", "--format", "csv"],
            ["swap-map", "--format", "csv", "--sources", "PM,PP", "--out", "s.csv"],
            ["sample"],
            ["sample", "--format", "csv", "--sources", "SP,SM", "--shots", "500", "--seed", "7"]
            + ["--out", "run"],
        ],
    )
    def test_reads_the_documented_forms(self, argv):
        fields = cli._read_argv(argv)
        assert {**vars(fields), "func": fields.func.__name__} == _parsed_by_argparse(argv)

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
            ["swap-map", "-h"],
        ],
    )
    def test_leaves_every_other_form_to_argparse(self, argv):
        assert cli._read_argv(argv) is None

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
        assert main(["swap-map", "--sources=PM,PP"]) == 0
        capsys.readouterr()
        assert len(calls) == 2


class TestGoldenOutput:
    """The reports, the sample files and the failed verification, captured once."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify-table3", "--format", "json"], "verify-table3.json"),
            (["verify-table3", "--format", "csv"], "verify-table3.csv"),
            (["bounds", "--format", "json"], "bounds.json"),
            (["bounds", "--format", "csv"], "bounds.csv"),
            (["swap-map", "--format", "json"], "swap-map.json"),
            (["swap-map", "--format", "csv"], "swap-map.csv"),
            (["swap-map", "--sources", "PM,PP"], "swap-map-PM-PP.json"),
        ],
    )
    def test_stdout_is_byte_identical(self, tmp_path, capsys, argv, name):
        # and --out NAME writes the same bytes as the report on stdout
        golden = recorded_stdout(argv)
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name).read_bytes() == golden

    @pytest.mark.parametrize(
        "name, entry, path",
        [
            ("sample-summary-400-0.json", "sample-400-0-json", "nlbox_sample/summary.json"),
            ("sample-summary-400-0.csv", "sample-400-0-csv", "nlbox_sample/summary.csv"),
            ("sample-events-50-0.csv", "sample-50-0", "nlbox_sample/events.csv"),
        ],
        ids=["summary-json", "summary-csv", "events"],
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
            golden = recorded_stdout(["verify-table3", "--format", "csv"])
        else:
            golden = (GOLDEN / name).read_bytes()
        assert captured.out.encode("utf-8") == golden
        stderr = (GOLDEN / "verify-table3-corrupted.stderr").read_bytes()
        assert captured.err.encode("utf-8") == stderr


def _run_in_process(entry, where, capsys, monkeypatch) -> bytecheck.Outcome:
    """Run ``entry``, whose stdout and stderr are pipes, through ``main`` in this
    process, from the fresh directory ``where``, as ``bytecheck.run`` runs it."""
    # COLUMNS fixes the width argparse wraps its help to
    monkeypatch.setenv("COLUMNS", "80")
    bytecheck.prepare(entry, where)
    monkeypatch.chdir(where)
    try:
        code = main(list(entry.argv))
    except SystemExit as stop:
        code = stop.code
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
            done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "run")
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


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["verify-table3", "bounds", "swap-map"])
    def test_closed_stdout_is_an_error(self, capsys, monkeypatch, command):
        # python >&- starts with sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        assert main([command]) == 1
        assert capsys.readouterr().err == "error: stdout is closed\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--out", "b.json"],
            ["swap-map", "--out", "s.json"],
            ["sample", "--shots", "10", "--out", "run"],
        ],
        ids=["bounds", "swap-map", "sample"],
    )
    def test_closed_stdout_fails_after_the_files_are_written(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # the wrote lines obey the report's rule, once every file is in place
        def run(side):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            code = main(argv)
            files = {
                str(path.relative_to(tmp_path / side)): path.read_bytes()
                for path in sorted((tmp_path / side).rglob("*"))
                if path.is_file()
            }
            return code, capsys.readouterr().err, files

        opened = run("open")
        monkeypatch.setattr(sys, "stdout", None)
        closed = run("closed")
        assert opened[:2] == (0, "")
        assert closed[:2] == (1, "error: stdout is closed\n")
        assert closed[2] == opened[2] != {}


class TestEntryPoint:
    """``python -m nlbox`` as a whole process, through ``bytecheck.run``: its
    bytes, its flush, its broken stderr, and, with a patched ``main``, its
    freeze and its Ctrl-C."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify-table3", "--format", "json"], "verify-table3.json"),
            (["bounds", "--format", "csv"], "bounds.csv"),
            (["swap-map", "--sources", "PM,PP"], "swap-map-PM-PP.json"),
            (["sample", "--shots", "400", "--seed", "0", "--out", "run"], "json"),
            (["sample", "--shots", "400", "--seed", "0", "--format", "csv", "--out", "run"], "csv"),
        ],
    )
    def test_goldens_end_to_end(self, tmp_path, argv, name):
        done = bytecheck.run(bytecheck.Entry("", argv, True), bytecheck.ROOT, tmp_path / "cwd")
        assert (done.code, done.stderr) == (0, b"")
        if argv[0] != "sample":
            assert done.stdout == recorded_stdout(argv)
            return
        assert done.stdout == f"wrote run/events.csv\nwrote run/summary.{name}\n".encode()
        golden = (GOLDEN / f"sample-summary-400-0.{name}").read_bytes()
        assert (tmp_path / "cwd" / "run" / f"summary.{name}").read_bytes() == golden

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["swap-map", "--format", "csv"],
            ["sample", "--shots", "10", "--out", "d"],
            ["verify-table3"],
            ["-h"],
        ],
        ids=["swap-map-csv", "sample", "verify-table3", "help"],
    )
    def test_full_stdout_at_the_final_flush(self, tmp_path, argv):
        # the text fits stdout's buffer, so only the flush at the end fails
        entry = bytecheck.Entry("", argv, True, stdout="full")
        done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "cwd")
        assert done.code == 1
        assert done.stderr == b"error: [Errno 28] No space left on device\n"
        if argv[0] == "sample":
            assert sorted(done.files) == ["d/events.csv", "d/summary.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("stderr", ["closed", "full"])
    @pytest.mark.parametrize(
        "argv, status",
        [(["bogus"], 2), (["sample", "--shots", "10", "--out", "f"], 1), (["verify-table3"], 0)],
        ids=["usage-error", "io-error", "success"],
    )
    def test_broken_stderr_keeps_the_exit_status(self, tmp_path, stderr, argv, status):
        # with nowhere to report, the status is all that is left, and a lost
        # error line goes nowhere rather than to stdout
        entry = bytecheck.Entry("", argv, True, files={"f": "old\n"}, stderr=stderr)
        done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "cwd")
        assert done.code == status
        assert done.stdout == (recorded_stdout(argv) if status == 0 else b"")

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
        entry = bytecheck.Entry("", [], True)
        done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "cwd", ("-c", code))
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
        done = bytecheck.run(bytecheck.Entry("", [], True), bytecheck.ROOT, tmp_path / "pipe", head)
        assert (done.code, done.stdout, done.stderr) == interrupted
        # a closed or full stderr loses the line and keeps the signal
        for how in ("closed", "full"):
            entry = bytecheck.Entry("", [], True, stderr=how)
            done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / how, head)
            assert (done.code, done.stdout) == interrupted[:2]
        # partway through the events of a run over an older one: the older
        # files stay as they were, and no temporary file is left
        entry = bytecheck.Entry("", ["sample", "--shots", "50", "--out", "d"], True)
        older = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "older")
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
        entry = bytecheck.Entry("", argv, True, dirs=("d",), files=files)
        done = bytecheck.run(entry, bytecheck.ROOT, tmp_path / "writer", ("-c", in_writer))
        assert (done.code, done.stdout, done.stderr) == interrupted
        assert done.files == older.files


class TestBellStates:
    def test_code_roundtrip(self):
        for label, code in zip(BELL_ORDER, ("PP", "PM", "SP", "SM")):
            assert cli.BELL_CODES[label] == code
            assert cli._sources(f"{code},{code}") == (label, label)
        for code in ("XX", "sm", ""):
            message = f"unknown Bell code {code!r}, expected one of PP, PM, SP, SM"
            with pytest.raises(ArgumentTypeError, match=f"^{re.escape(message)}$"):
                cli._sources(f"{code},PP")
