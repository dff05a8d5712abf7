"""The command line's table, and the committed record of its outcomes.

Usage: python tools/bytecheck.py

Each entry of ``TABLE`` is one ``python -m nlbox ARGV``, run in a fresh
directory of its own, with ``COLUMNS=80`` so that argparse wraps help the
same way, and without ``PYTHONUNBUFFERED``, so that stdout is buffered as
it is by default and a full device fails only at the final flush.  An
entry's outcome is its exit code, stdout, stderr, and the name and SHA-256
of every file in its directory afterwards.

With no arguments, the tool runs every entry as a process on the working
tree, and rewrites ``tests/golden/table.json`` with their outcomes.
``tests/test_cli.py::TestTable`` compares each entry with the record, so a
change to the command line's bytes is the record's diff.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One command line: its name, argv after ``nlbox``, whether argparse accepts
# argv, the directories and files made before it runs, and where its stdout
# and its stderr go: a pipe, nowhere (the fd closed), or /dev/full.
Entry = namedtuple(
    "Entry", "name argv parses dirs files stdout stderr", defaults=((), {}, "pipe", "pipe")
)

CODES = ("PP", "PM", "SP", "SM")
TABLE = (
    # the reports in each format, the sample runs whose files tests/golden/
    # holds, and the defaults
    *(
        Entry(f"{command}-{fmt}", [command, "--format", fmt], True)
        for command in ("verify-table3", "bounds", "swap-map")
        for fmt in ("json", "csv")
    ),
    *(Entry(c, [c], True) for c in ("verify-table3", "bounds", "swap-map", "sample")),
    Entry("sample-50-0", ["sample", "--shots", "50", "--seed", "0"], True),
    *(
        Entry(f"sample-400-0-{f}", ["sample", "--shots", "400", "--seed", "0", "--format", f], True)
        for f in ("json", "csv")
    ),
    Entry("sample-100003-1", ["sample", "--shots", "100003", "--seed", "1"], True),
    # help, usage errors and the forms that only argparse reads
    Entry("no-command", [], False),
    Entry("help", ["-h"], False),
    Entry("sample-help", ["sample", "-h"], False),
    Entry("swap-map-help", ["swap-map", "-h"], False),
    Entry("unknown-command", ["frobnicate"], False),
    Entry("zero-shots", ["sample", "--shots", "0"], False),
    Entry("shots-not-integer", ["sample", "--shots", "abc"], False),
    Entry("bad-format", ["bounds", "--format", "xml"], False),
    Entry("abbreviation", ["sample", "--sh", "5"], True),
    Entry("equals-form", ["bounds", "--format=xml"], False),
    Entry("bad-source", ["swap-map", "--sources", "XX,SM"], False),
    Entry("one-source", ["sample", "--sources", "SM"], False),
    Entry("lower-case-source", ["swap-map", "--sources", "sm,pp"], False),
    # how --out is printed: "." parts and repeated slashes dropped, ".." kept
    Entry("out-dot-slash", ["sample", "--shots", "10", "--out", "./d"], True),
    Entry("out-trailing-slash", ["sample", "--shots", "10", "--out", "d/"], True),
    Entry("out-double-slash", ["sample", "--shots", "10", "--out", "d//x"], True),
    Entry("out-dot", ["sample", "--shots", "10", "--out", "."], True),
    Entry("out-empty", ["sample", "--shots", "10", "--out", ""], True),
    Entry("out-parent", ["sample", "--shots", "10", "--out", "a/../b"], True),
    Entry("bounds-out-double-slash", ["bounds", "--out", "./r//b.json"], True),
    Entry("bounds-out-empty", ["bounds", "--out", ""], True),
    Entry("out-is-directory", ["bounds", "--out", "d"], True, dirs=("d",)),
    # every --sources pair, for the map and one sample, and the bad forms
    *(
        Entry(f"swap-map-{a}-{b}", ["swap-map", "--sources", f"{a},{b}"], True)
        for a, b in itertools.product(CODES, repeat=2)
    ),
    *(
        Entry(
            f"sample-{a}-{b}",
            ["sample", "--shots", "300", "--format", "csv", "--sources", f"{a},{b}"],
            True,
        )
        for a, b in itertools.product(CODES, repeat=2)
    ),
    Entry("sources-spaced", ["swap-map", "--sources", " SP , PM "], True),
    Entry("sources-comma", ["swap-map", "--sources", ","], False),
    Entry("sources-three", ["swap-map", "--sources", "SM,SM,SM"], False),
    Entry("sources-half", ["swap-map", "--sources", "PP,"], False),
    Entry("sources-empty", ["sample", "--sources", ""], False),
    # --out on a file, below a file, and on a directory in a sample run
    *(
        Entry(name, argv, True, files={"f": "old\n"})
        for name, argv in (
            ("out-on-file", ["bounds", "--out", "f"]),
            ("out-below-file", ["bounds", "--out", "f/x.json"]),
            ("out-two-below-file", ["bounds", "--out", "f/sub/x.json"]),
            ("sample-out-on-file", ["sample", "--shots", "10", "--out", "f"]),
        )
    ),
    Entry(
        "sample-events-dir",
        ["sample", "--shots", "10", "--out", "r"],
        True,
        dirs=("r", "r/events.csv"),
    ),
    # stdout closed, and stdout on a full device
    *(
        Entry(f"closed-{c}", [c], True, stdout="closed")
        for c in ("verify-table3", "bounds", "swap-map")
    ),
    Entry("closed-sample", ["sample", "--shots", "10"], True, stdout="closed"),
    Entry("closed-bounds-out", ["bounds", "--out", "b.json"], True, stdout="closed"),
    Entry("closed-swap-map-out", ["swap-map", "--out", "s.json"], True, stdout="closed"),
    Entry("closed-help", ["-h"], False, stdout="closed"),  # argparse falls back to stderr
    Entry("full-verify-table3", ["verify-table3"], True, stdout="full"),
    Entry("full-swap-map-csv", ["swap-map", "--format", "csv"], True, stdout="full"),
    Entry("full-sample", ["sample", "--shots", "10"], True, stdout="full"),
    Entry("full-bounds-out", ["bounds", "--out", "b.json"], True, stdout="full"),
    Entry("full-help", ["-h"], False, stdout="full"),
    # stderr closed, and stderr on a full device: a usage error, an I/O error
    # and a success keep their exit status, and a lost error line goes
    # nowhere rather than to stdout
    *(
        Entry(f"stderr-{how}-{name}", argv, parses, files={"f": "old\n"}, stderr=how)
        for how in ("closed", "full")
        for name, argv, parses in (
            ("unknown-command", ["frobnicate"], False),
            ("zero-shots", ["sample", "--shots", "0"], False),
            ("sample-out-on-file", ["sample", "--shots", "10", "--out", "f"], True),
            ("verify-table3", ["verify-table3"], True),
        )
    ),
)

Outcome = namedtuple("Outcome", "stdout stderr code files")

RECORD = ROOT / "tests" / "golden" / "table.json"


def prepare(entry: Entry, where: Path) -> None:
    """Make the fresh directory ``where`` with the directories and files of ``entry``."""
    where.mkdir(parents=True)
    for name in entry.dirs:
        (where / name).mkdir()
    for name, text in entry.files.items():
        (where / name).write_text(text)


def files_in(where: Path) -> dict[str, str]:
    """The SHA-256 of every file below ``where``, by its name relative to ``where``."""
    return {
        str(path.relative_to(where)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(where.rglob("*"))
        if path.is_file()
    }


def run(entry: Entry, tree: Path, where: Path, head=("-m", "nlbox")) -> Outcome:
    """Run one entry with the package of ``tree``, from the fresh directory ``where``,
    as ``python HEAD ARGV``."""
    prepare(entry, where)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(tree / "src"), COLUMNS="80")
    argv = [sys.executable, *head, *entry.argv]
    hows = (entry.stdout, entry.stderr)
    closed = [fd for fd, how in enumerate(hows, 1) if how == "closed"]
    with open("/dev/full" if "full" in hows else os.devnull, "w") as sink:
        stdout, stderr = (subprocess.PIPE if how == "pipe" else sink for how in hows)
        proc = subprocess.run(
            argv,
            cwd=where,
            env=env,
            stdout=stdout,
            stderr=stderr,
            preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None,
        )
    return Outcome(proc.stdout, proc.stderr, proc.returncode, files_in(where))


def recorded(outcome: Outcome) -> dict:
    """``outcome`` as the record holds it: stdout and stderr as lines of text, or null
    where the stream was not a pipe, and each file's SHA-256."""
    stdout, stderr = (
        None if data is None else data.decode().splitlines(keepends=True)
        for data in (outcome.stdout, outcome.stderr)
    )
    return {"code": outcome.code, "stdout": stdout, "stderr": stderr, "files": outcome.files}


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        record = {e.name: recorded(run(e, ROOT, Path(tmp) / e.name)) for e in TABLE}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    seconds = time.perf_counter() - start
    print(f"{len(record)} entries recorded in {RECORD.relative_to(ROOT)}, {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
