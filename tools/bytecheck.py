"""Compare the command line's bytes in the working tree with those of a commit.

Usage: python tools/bytecheck.py PARENT [--expect NAME]...

Exports the ``src/`` tree of commit PARENT with ``git archive``, copies
the working tree's ``src/``, and compiles both trees' bytecode once, so
that no run compiles the package again.  Each entry of ``TABLE`` then
runs once per tree as ``python -m nlbox ARGV`` in a fresh directory of
its own, with ``COLUMNS=80`` so that argparse wraps help the same way, and
without ``PYTHONUNBUFFERED``, so that stdout is buffered as it is by
default and a full device fails only at the final flush.
An entry's outcome is its stdout, stderr, exit code, and the name and
SHA-256 of every file in its directory afterwards.  A difference is
allowed only on an entry declared with ``--expect NAME``; the check
reports it and exits 1 on any other, and on a declared entry whose
outcome did not change (``UNCHANGED  NAME``).  ``tests/test_bytecheck.py``
checks that every entry's options still parse, and the verdict on fixed
outcomes; running the two trees stays out of the test suite.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tarfile
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
    # the golden reports and sample runs of tests/test_cli.py, and the defaults
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
    # the usage goldens (tests/test_cli.py USAGE_ARGV), under the same names
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
    # stderr closed, and stderr on a full device: a usage error, an I/O error
    *(
        Entry(f"stderr-{how}-{name}", argv, parses, files={"f": "old\n"}, stderr=how)
        for how in ("closed", "full")
        for name, argv, parses in (
            ("unknown-command", ["frobnicate"], False),
            ("zero-shots", ["sample", "--shots", "0"], False),
            ("sample-out-on-file", ["sample", "--shots", "10", "--out", "f"], True),
        )
    ),
)

Outcome = namedtuple("Outcome", "stdout stderr code files")


def export_trees(parent: str, into: Path) -> dict[str, Path]:
    """``src/`` of commit ``parent`` and of the working tree, below ``into``, compiled."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", parent, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into / "parent")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", into / "change" / "src", ignore=ignore)
    trees = {"parent": into / "parent", "change": into / "change"}
    for tree in trees.values():
        compileall.compile_dir(tree / "src", quiet=1)
    return trees


def prepare(entry: Entry, where: Path) -> None:
    """Make the fresh directory ``where`` with the directories and files of ``entry``."""
    where.mkdir(parents=True)
    for name in entry.dirs:
        (where / name).mkdir()
    for name, text in entry.files.items():
        (where / name).write_text(text)


def run(entry: Entry, tree: Path, where: Path) -> Outcome:
    """Run one entry with the package of ``tree``, from the fresh directory ``where``."""
    prepare(entry, where)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(tree / "src"), COLUMNS="80")
    argv = [sys.executable, "-m", "nlbox", *entry.argv]
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
    files = {
        str(path.relative_to(where)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(where.rglob("*"))
        if path.is_file()
    }
    return Outcome(proc.stdout, proc.stderr, proc.returncode, files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="the commit to compare with, such as HEAD~1")
    parser.add_argument(
        "--expect", action="append", default=[], metavar="NAME", help="an entry allowed to differ"
    )
    args = parser.parse_args(argv)
    unknown = set(args.expect) - {entry.name for entry in TABLE}
    if unknown:
        parser.error(f"no entries named {sorted(unknown)}")
    start = time.perf_counter()
    failed = unchanged = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = export_trees(args.parent, Path(tmp))
        for entry in TABLE:
            parent, change = (
                run(entry, tree, Path(tmp) / side / "runs" / entry.name)
                for side, tree in trees.items()
            )
            parts = [field for field, a, b in zip(Outcome._fields, parent, change) if a != b]
            declared = entry.name in args.expect
            if parts:
                failed += not declared
                print(f"{'declared' if declared else 'DIFFERS'}  {entry.name}: {', '.join(parts)}")
            elif declared:
                unchanged += 1
                print(f"UNCHANGED  {entry.name}")
    seconds = time.perf_counter() - start
    print(
        f"{len(TABLE)} entries, {failed} undeclared differences, "
        f"{unchanged} declared but unchanged, {seconds:.1f} s"
    )
    return 1 if failed or unchanged else 0


if __name__ == "__main__":
    sys.exit(main())
