"""The command line's table, the committed record of its outcomes, and the
lines of the package that the table reaches.

Usage: python tools/bytecheck.py

Each entry of ``TABLE`` is one ``python -m nlbox ARGV``, run in a fresh
directory of its own, without ``PYTHONUNBUFFERED``, so that stdout is
buffered as it is by default and a full device fails only at the final
flush.  An entry's outcome is its exit code, stdout, stderr, and the name
and SHA-256 of every file in its directory afterwards.

With no arguments, the tool runs every entry once, as a process on the
working tree, and rewrites ``tests/golden/table.json`` with their
outcomes.  ``tests/test_cli.py::TestTable`` compares each entry with the
record, so a change to the command line's bytes is the record's diff.

Each of those processes runs ``TRACED`` in place of ``python -m nlbox``:
the package's ``__main__`` under the standard library's ``trace``, which
writes the counts of the lines run to a file outside the entry's
directory as the process exits.  Tracing starts before the package is
imported, so its module-level lines count too, and ``entry_point``'s
handling of the streams counts as any other line.  A line of
``src/nlbox`` is executable when the bytecode compiled from its file
starts a line there.  Once the record is written, the tool prints every
executable line that no entry reached and that ``ALLOWED`` does not name,
and every line that ``ALLOWED`` names but an entry reached, and exits 1
if there is any.  A key of ``ALLOWED`` is the exact text of one line, or
of consecutive lines, stripped, and must stand once in the package; its
value names the test that reaches those lines.  ``tests/test_layout.py``
checks both, and runs one entry under ``TRACED``; running the whole table
stays out of the test suite.
"""

import dis
import hashlib
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One command line: its name, argv after ``nlbox``, the directories and files
# made before it runs, and where its stdout and its stderr go: a pipe, nowhere
# (the fd closed), or /dev/full.
Entry = namedtuple("Entry", "name argv dirs files stdout stderr", defaults=((), {}, "pipe", "pipe"))

CODES = ("PP", "PM", "SP", "SM")
TABLE = (
    # the reports in each format, the sample runs whose files tests/golden/
    # holds, and the defaults
    *(
        Entry(f"{command}-{fmt}", [command, "--format", fmt])
        for command in ("verify-table3", "bounds", "swap-map")
        for fmt in ("json", "csv")
    ),
    *(Entry(c, [c]) for c in ("verify-table3", "bounds", "swap-map", "sample")),
    Entry("sample-50-0", ["sample", "--shots", "50", "--seed", "0"]),
    Entry("sample-50-1", ["sample", "--shots", "50", "--seed", "1"]),
    *(
        Entry(f"sample-400-0-{f}", ["sample", "--shots", "400", "--seed", "0", "--format", f])
        for f in ("json", "csv")
    ),
    Entry("sample-100003-1", ["sample", "--shots", "100003", "--seed", "1"]),
    # help, also after a command's options, and usage errors: a bad value, an
    # abbreviation, --option=value, an option with no value, a repeated one
    # and one of another command
    Entry("no-command", []),
    Entry("help", ["-h"]),
    Entry("sample-help", ["sample", "-h"]),
    Entry("swap-map-help", ["swap-map", "-h"]),
    Entry("unknown-command", ["frobnicate"]),
    Entry("zero-shots", ["sample", "--shots", "0"]),
    Entry("shots-not-integer", ["sample", "--shots", "abc"]),
    Entry("negative-shots", ["sample", "--shots", "-3"]),
    Entry("negative-seed", ["sample", "--seed", "-1"]),
    Entry("bad-format", ["bounds", "--format", "xml"]),
    Entry("abbreviation", ["sample", "--sh", "5"]),
    Entry("equals-form", ["bounds", "--format=xml"]),
    Entry("bad-source", ["swap-map", "--sources", "XX,SM"]),
    Entry("one-source", ["sample", "--sources", "SM"]),
    Entry("lower-case-source", ["swap-map", "--sources", "sm,pp"]),
    Entry("no-value", ["bounds", "--out"]),
    Entry("repeated-option", ["sample", "--shots", "5", "--shots", "6"]),
    Entry("other-command-option", ["bounds", "--seed", "5"]),
    Entry("help-after-options", ["sample", "--shots", "5", "-h"]),
    # the reports in each format written with --out
    *(
        Entry(f"{command}-{fmt}-out", [command, "--format", fmt, "--out", f"r.{fmt}"])
        for command in ("verify-table3", "bounds", "swap-map")
        for fmt in ("json", "csv")
    ),
    # how --out is printed: "." parts and repeated slashes dropped, ".." kept
    Entry("out-dot-slash", ["sample", "--shots", "10", "--out", "./d"]),
    Entry("out-trailing-slash", ["sample", "--shots", "10", "--out", "d/"]),
    Entry("out-double-slash", ["sample", "--shots", "10", "--out", "d//x"]),
    Entry("out-dot", ["sample", "--shots", "10", "--out", "."]),
    Entry("out-empty", ["sample", "--shots", "10", "--out", ""]),
    Entry("out-parent", ["sample", "--shots", "10", "--out", "a/../b"]),
    Entry("bounds-out-double-slash", ["bounds", "--out", "./r//b.json"]),
    Entry("bounds-out-empty", ["bounds", "--out", ""]),
    Entry("out-is-directory", ["bounds", "--out", "d"], dirs=("d",)),
    # every --sources pair, for the map and one sample, and the bad forms
    *(
        Entry(f"swap-map-{a}-{b}", ["swap-map", "--sources", f"{a},{b}"])
        for a, b in itertools.product(CODES, repeat=2)
    ),
    *(
        Entry(
            f"sample-{a}-{b}",
            ["sample", "--shots", "300", "--format", "csv", "--sources", f"{a},{b}"],
        )
        for a, b in itertools.product(CODES, repeat=2)
    ),
    Entry("sources-spaced", ["swap-map", "--sources", " SP , PM "]),
    Entry("sources-comma", ["swap-map", "--sources", ","]),
    Entry("sources-three", ["swap-map", "--sources", "SM,SM,SM"]),
    Entry("sources-half", ["swap-map", "--sources", "PP,"]),
    Entry("sources-empty", ["sample", "--sources", ""]),
    # --out on a file, below a file, and on a directory in a sample run
    *(
        Entry(name, argv, files={"f": "old\n"})
        for name, argv in (
            ("out-on-file", ["bounds", "--out", "f"]),
            ("out-below-file", ["bounds", "--out", "f/x.json"]),
            ("out-two-below-file", ["bounds", "--out", "f/sub/x.json"]),
            ("sample-out-on-file", ["sample", "--shots", "10", "--out", "f"]),
        )
    ),
    Entry(
        "sample-events-dir", ["sample", "--shots", "10", "--out", "r"], dirs=("r", "r/events.csv")
    ),
    # stdout closed, and stdout on a full device
    *(Entry(f"closed-{c}", [c], stdout="closed") for c in ("verify-table3", "bounds", "swap-map")),
    Entry("closed-sample", ["sample", "--shots", "10"], stdout="closed"),
    Entry("closed-bounds-out", ["bounds", "--out", "b.json"], stdout="closed"),
    Entry("closed-swap-map-out", ["swap-map", "--out", "s.json"], stdout="closed"),
    Entry("closed-help", ["-h"], stdout="closed"),
    Entry("full-verify-table3", ["verify-table3"], stdout="full"),
    Entry("full-swap-map-csv", ["swap-map", "--format", "csv"], stdout="full"),
    Entry("full-sample", ["sample", "--shots", "10"], stdout="full"),
    Entry("full-bounds-out", ["bounds", "--out", "b.json"], stdout="full"),
    Entry("full-help", ["-h"], stdout="full"),
    # stderr closed, and stderr on a full device: a usage error, an I/O error
    # and a success keep their exit status, and a lost error line goes
    # nowhere rather than to stdout
    *(
        Entry(f"stderr-{how}-{name}", argv, files={"f": "old\n"}, stderr=how)
        for how in ("closed", "full")
        for name, argv in (
            ("unknown-command", ["frobnicate"]),
            ("zero-shots", ["sample", "--shots", "0"]),
            ("sample-out-on-file", ["sample", "--shots", "10", "--out", "f"]),
            ("verify-table3", ["verify-table3"]),
        )
    ),
)

Outcome = namedtuple("Outcome", "stdout stderr code files")

RECORD = ROOT / "tests" / "golden" / "table.json"
PACKAGE = ROOT / "src" / "nlbox"
CLI_TESTS = "tests/test_cli.py::"

# python -c TRACED COUNTS ARGV: python -m nlbox ARGV, with its line counts
# pickled to the file COUNTS however it exits
TRACED = """\
import pickle, runpy, sys, trace
counts = sys.argv.pop(1)
tracer = trace.Trace(count=1, trace=0)
try:
    tracer.runfunc(runpy.run_module, "nlbox", run_name="__main__", alter_sys=True)
finally:
    with open(counts, "wb") as fh:
        pickle.dump(tracer.results().counts, fh)
"""

# Lines that no command line of the table reaches, and the test that does.
ALLOWED = {
    # the claim checks, which a test with a patched input trips
    (
        "raise RuntimeError(",
        'f"expression {row + 1}: matched state reaches {attained}/16, "',
        'f"expected the algebraic bound {bound}"',
    ): "tests/test_polytope.py::TestBounds::test_ns_bound_checks_the_matched_product",
    (
        'raise RuntimeError(f"expression {row + 1}: matched state signals: a marginal is not 1/4")',
    ): "tests/test_polytope.py::TestBounds::test_ns_bound_checks_no_signaling",
    ('raise RuntimeError(f"expression {row + 1} is not a relabeling of expression 1")',): (
        CLI_TESTS + "TestBounds::test_an_expression_off_the_orbit_is_an_error"
    ),
    ('raise RuntimeError("the joint table is not 1/128 on 128 outcomes per cell")',): (
        "tests/test_sampler.py::TestExactTable::test_a_table_off_the_premise_is_an_error"
    ),
    (
        "raise RuntimeError(",
        'f"reference table schema {schema} is not "',
        'f"supported (expected {REFERENCE_SCHEMA_VERSION})"',
    ): CLI_TESTS + "TestVerifyTable3::test_schema_mismatch_is_an_error",
    ('raise RuntimeError("reference table values are not 16 rows of 16 numbers")',): (
        CLI_TESTS + "TestVerifyTable3::test_malformed_reference_is_an_error"
    ),
    # _write_atomic's cleanup after a failed write
    ("tmp.unlink(missing_ok=True)",): (
        CLI_TESTS + "TestAtomicWrites::test_failed_write_leaves_no_partial_file"
    ),
    # --out on a symlink or a FIFO, which the table's entries cannot make
    ('raise OSError(f"{path} is not a regular file")',): (
        CLI_TESTS + "TestAtomicWrites::test_target_that_is_not_a_regular_file_is_an_error"
    ),
    # a sample too large for memory
    ("except MemoryError:", 'failure = "error: out of memory"'): (
        CLI_TESTS + "TestSample::test_out_of_memory_is_one_error_line"
    ),
    # verify-table3's mismatch records
    (
        "{",
        '"state": states[row],',
        '"expression": col + 1,',
        '"computed": values[row][col],',
        '"expected": float(expected),',
    ): CLI_TESTS + "TestVerifyTable3::test_detects_a_corrupted_reference",
    # Ctrl-C, which a test sends from a patched main or a patched writer
    (
        "except KeyboardInterrupt:  # Ctrl-C: one line, then the end by SIGINT a shell expects",
        "import signal",
        "",
        "try:",
        'print("error: interrupted", file=sys.stderr)',
        "except OSError:  # a full stderr loses the line, not the signal",
        "pass",
        "signal.signal(signal.SIGINT, signal.SIG_DFL)",
        "os.kill(os.getpid(), signal.SIGINT)",
    ): CLI_TESTS + "TestEntryPoint::test_interrupt_is_one_error_line",
}


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


def run(entry: Entry, where: Path, head=("-m", "nlbox")) -> Outcome:
    """Run one entry with the package of this tree, from the fresh directory ``where``,
    as ``python HEAD ARGV``, with SIGINT at its default even where this process
    ignores it, as a job started with ``&`` does."""
    prepare(entry, where)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, *head, *entry.argv]
    hows = (entry.stdout, entry.stderr)
    closed = [fd for fd, how in enumerate(hows, 1) if how == "closed"]

    def in_child() -> None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        for fd in closed:
            os.close(fd)

    with open("/dev/full" if "full" in hows else os.devnull, "w") as sink:
        stdout, stderr = (subprocess.PIPE if how == "pipe" else sink for how in hows)
        proc = subprocess.run(
            argv,
            cwd=where,
            env=env,
            stdout=stdout,
            stderr=stderr,
            preexec_fn=in_child,
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


def package_texts() -> dict[str, str]:
    """The text of each module of the package, by its path."""
    return {str(path): path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def occurrences(key: tuple[str, ...], texts: dict[str, str]) -> list[tuple[str, int]]:
    """Each path of ``texts`` and first line number at which the stripped lines of ``key``
    stand."""
    found = []
    for path, text in texts.items():
        lines = [line.strip() for line in text.splitlines()]
        found += [
            (path, start + 1)
            for start in range(len(lines))
            if tuple(lines[start : start + len(key)]) == key
        ]
    return found


def executable_lines(text: str) -> set[int]:
    """The lines at which the bytecode compiled from ``text`` starts a line."""
    lines, stack = set(), [compile(text, "<module>", "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack += [const for const in code.co_consts if hasattr(const, "co_code")]
    return lines


def verdict(texts: dict[str, str], ran: set[tuple[str, int]], allowed) -> list[str]:
    """One line for each executable line of ``texts`` that is not in ``ran`` and that no
    key of ``allowed`` covers, and for each that is in ``ran`` and that a key covers."""
    covered = {
        (path, first + i)
        for key in allowed
        for path, first in occurrences(key, texts)
        for i in range(len(key))
    }
    failures = []
    for path, text in texts.items():
        lines = text.splitlines()
        for number in sorted(executable_lines(text)):
            reached = (path, number) in ran
            if reached == ((path, number) in covered):
                kind = "ALLOWED BUT REACHED" if reached else "UNREACHED"
                failures.append(f"{kind}  {Path(path).name}:{number}: {lines[number - 1].strip()}")
    return failures


def main() -> int:
    start = time.perf_counter()
    record, ran = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        for entry in TABLE:
            counts = Path(tmp) / f"{entry.name}.counts"
            head = ("-c", TRACED, str(counts))
            record[entry.name] = recorded(run(entry, Path(tmp) / entry.name, head))
            ran.update(pickle.loads(counts.read_bytes()))
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    seconds = time.perf_counter() - start
    texts = package_texts()
    failures = verdict(texts, ran, ALLOWED)
    for line in failures:
        print(line)
    total = sum(len(executable_lines(text)) for text in texts.values())
    print(
        f"{len(record)} entries recorded in {RECORD.relative_to(ROOT)}, {total} executable lines, "
        f"{len(ALLOWED)} allowed texts, {len(failures)} reach failures, {seconds:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
