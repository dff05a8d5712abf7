"""Check that every line of the package is reached by a command line.

Usage: python tools/reach.py

Runs each entry of ``tools/bytecheck.py``'s ``TABLE`` as a whole process,
through ``bytecheck.run``, as the byte check does: a fresh directory of
its own, and stdout and stderr on a pipe, closed or on /dev/full.  The
process runs ``TRACED`` in place of ``python -m nlbox``: the package's
``__main__`` under the standard library's ``trace``, which writes the
counts of the lines run to a file outside the entry's directory as the
process exits.  Tracing starts before the package is imported, so its
module-level lines count too, and ``entry_point``'s handling of the
streams counts as any other line.  A line of ``src/nlbox`` is executable
when the bytecode compiled from its file starts a line there.

The check exits 1 on any executable line that no entry reached and that
``ALLOWED`` does not name, and on any line that ``ALLOWED`` names but an
entry reached.  A key of ``ALLOWED`` is the exact text of one line, or of
consecutive lines, stripped, and must stand once in the package; its value
names the test that reaches those lines.  ``tests/test_layout.py`` checks
both, and runs one entry under ``TRACED``; running the whole table stays
out of the test suite.
"""

import dis
import pickle
import sys
import tempfile
import time
from pathlib import Path

import bytecheck

PACKAGE = bytecheck.ROOT / "src" / "nlbox"
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


def reached_lines(where: Path) -> set[tuple[str, int]]:
    """Each (file, line) that some entry of the table ran, each entry in a directory below
    ``where``."""
    reached = set()
    for entry in bytecheck.TABLE:
        counts = where / f"{entry.name}.counts"
        head = ("-c", TRACED, str(counts))
        bytecheck.run(entry, bytecheck.ROOT, where / "runs" / entry.name, head)
        reached.update(pickle.loads(counts.read_bytes()))
    return reached


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        ran = reached_lines(Path(tmp))
    seconds = time.perf_counter() - start
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
            reached = (str(path), number) in ran
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
