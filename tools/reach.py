"""Check that every line of the package is reached by a command line.

Usage: python tools/reach.py

Runs each entry of ``tools/bytecheck.py``'s ``TABLE`` in this process, as
``cli.main(ARGV)`` in a fresh directory of its own made by
``bytecheck.prepare``, under the standard library's ``trace``.  A ``pipe``
entry writes to a buffer, a ``closed`` one finds ``sys.stdout`` None, as a
process started with fd 1 closed does, and a ``full`` one writes to
/dev/full.  Every entry's stderr is a buffer: a closed or full stderr
changes only what ``entry_point`` does, which only a whole process runs.
Tracing starts before the package is imported, so its module-level lines
count too.  A line of ``src/nlbox`` is executable when the bytecode
compiled from its file starts a line there.

The check exits 1 on any executable line that no entry reached and that
``ALLOWED`` does not name, and on any line that ``ALLOWED`` names but an
entry reached.  A key of ``ALLOWED`` is the exact text of one line, or of
consecutive lines, stripped, and must stand once in the package; its value
names the test that reaches those lines.  ``tests/test_layout.py`` checks
both; running the table under ``trace`` stays out of the test suite.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import sys
import tempfile
import time
import trace
from pathlib import Path

import bytecheck

PACKAGE = bytecheck.ROOT / "src" / "nlbox"
CLI_TESTS = "tests/test_cli.py::"
ENTRY_POINT_TEST = CLI_TESTS + "TestEntryPoint::test_full_stdout_at_the_final_flush"
STDERR_TEST = CLI_TESTS + "TestEntryPoint::test_broken_stderr_keeps_the_exit_status"

# Lines that no in-process run of the table reaches, and the test that does.
ALLOWED = {
    # the claim checks, which a test with a patched input trips
    (
        "raise RuntimeError(",
        'f"expression {row + 1}: matched state reaches {attained}/16, "',
        'f"expected the algebraic bound {bound}"',
    ): "tests/test_polytope.py::TestBounds::test_ns_bound_checks_the_matched_product",
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
    # verify-table3's mismatch records
    (
        "{",
        '"state": states[row],',
        '"expression": col + 1,',
        '"computed": values[row][col],',
        '"expected": float(expected),',
    ): CLI_TESTS + "TestVerifyTable3::test_detects_a_corrupted_reference",
    # what only a whole process reaches: python -m nlbox and its entry point
    ("from .cli import entry_point", "", "entry_point()"): ENTRY_POINT_TEST,
    ("import gc",): ENTRY_POINT_TEST,
    (
        "if sys.stderr is None:  # fd 2 closed: print would fall back to stdout",
        'sys.stderr = open(os.devnull, "w")',
    ): STDERR_TEST,
    (
        "try:",
        "status = main()",
        "except SystemExit as stop:  # argparse's help and usage errors",
        "status = stop.code",
    ): ENTRY_POINT_TEST,
    ("except OSError:  # stderr failed while main printed its failure line", "status = 1"): (
        STDERR_TEST
    ),
    (
        "try:",
        "try:",
        "if sys.stdout is not None:",
        "sys.stdout.flush()",
        "except OSError as err:",
        "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
        "status = 1",
        'print(f"error: {err}", file=sys.stderr)',
        "sys.stderr.flush()",
    ): ENTRY_POINT_TEST,
    ("except OSError:", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())"): (
        STDERR_TEST
    ),
    ("gc.freeze()", "sys.exit(status)"): ENTRY_POINT_TEST,
}


def occurrences(key: tuple[str, ...]) -> list[tuple[Path, int]]:
    """Each file and first line number at which the stripped lines of ``key`` stand."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
        found += [
            (path, start + 1)
            for start in range(len(lines))
            if tuple(lines[start : start + len(key)]) == key
        ]
    return found


def executable_lines(path: Path) -> set[int]:
    """The lines at which the bytecode compiled from ``path`` starts a line."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack += [const for const in code.co_consts if hasattr(const, "co_code")]
    return lines


def run_table(where: Path) -> None:
    """Run every entry of the table with ``cli.main``, each in a directory below ``where``."""
    from nlbox import cli

    home = os.getcwd()
    for entry in bytecheck.TABLE:
        bytecheck.prepare(entry, where / entry.name)
        os.chdir(where / entry.name)
        if entry.stdout == "full":
            sink = open("/dev/full", "w")
        else:
            sink = io.StringIO() if entry.stdout == "pipe" else None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(entry.argv))
                except SystemExit:  # argparse's help and usage errors
                    pass
        finally:
            os.chdir(home)
            if entry.stdout == "full":
                with contextlib.suppress(OSError):  # the write to /dev/full fails here
                    sink.close()


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    start = time.perf_counter()
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(run_table, Path(tmp))
    seconds = time.perf_counter() - start
    counts = tracer.results().counts
    allowed = {
        (path, first + i)
        for key in ALLOWED
        for path, first in occurrences(key)
        for i in range(len(key))
    }
    failures, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for number in sorted(executable_lines(path)):
            total += 1
            reached = counts.get((str(path), number), 0) > 0
            if reached == ((path, number) in allowed):
                verdict = "ALLOWED BUT REACHED" if reached else "UNREACHED"
                failures.append(f"{verdict}  {path.name}:{number}: {text[number - 1].strip()}")
    for line in failures:
        print(line)
    print(
        f"{len(bytecheck.TABLE)} entries, {total} executable lines, "
        f"{len(ALLOWED)} allowed texts, {len(failures)} failures, {seconds:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
