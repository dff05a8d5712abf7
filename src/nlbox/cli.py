"""Command line interface: verify-table3, bounds, swap-map, sample.

Exit codes: 0 on success, 1 when a verification fails, a computation
reports an inconsistency or an output file cannot be written, 2 on usage
errors.  Only this module holds text.  An expression is printed as its
paper number, its row + 1.  Values are integer numerators until ``sig12``
makes the one float of each, printed at 12 significant digits; identical
invocations with the same seed produce byte-identical files and stdout.
``main`` runs one command line in process; ``entry_point`` runs it as a
whole process, flushes stdout and stderr, and freezes the heap before the
exit, so that no process pays for collecting it at shutdown.
"""

import functools
import os
import stat
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from . import inequalities, polytope, sampler, swap

OUTCOMES = ("++", "+-", "-+", "--")  # indexed by outcome
BELL_CODES = ("PP", "PM", "SP", "SM")  # indexed by Bell state
REPORT_SCHEMA_VERSION = 1
REFERENCE_SCHEMA_VERSION = 1
REFERENCE_PATH = Path(__file__).parent / "data" / "beta_reference.json"

# What a command prints, and why it fails: the JSON document (the renderer
# puts schema_version first), the CSV header and rows, the failure message or
# None, and sample's events file as {path: text chunks}, written with the summary.
Report = namedtuple("Report", "doc header rows failure files", defaults=(None,))


def sig12(numerator: int, denominator: int) -> float:
    """numerator / denominator, correctly rounded, then cut to 12 significant digits."""
    return float(f"{numerator / denominator:.12g}")


def load_reference_table() -> dict:
    """The packaged reference table of the 256 expected expression values.

    Raises RuntimeError on another schema or on values not 16 rows of 16
    numbers; a number is an int or a float within the float range, never a
    bool, NaN or an infinity.
    """
    import json

    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(schema) is not int or schema != REFERENCE_SCHEMA_VERSION:
        raise RuntimeError(
            f"reference table schema {schema} is not "
            f"supported (expected {REFERENCE_SCHEMA_VERSION})"
        )
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != 16 or not all(
        isinstance(row, list)
        and len(row) == 16
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in row)
        for row in values
    ):
        raise RuntimeError("reference table values are not 16 rows of 16 numbers")
    return doc


def _write_atomic(files: dict) -> None:
    """Write each path's text chunks to a temporary file beside it, creating
    parent directories, and rename them all once all are written.  A
    directory at a path, a symlink, FIFO or device there, a file where a
    parent directory should be, or a failed write, changes no path and
    leaves no temporary file behind."""
    tmps = {}
    try:
        for path, chunks in files.items():
            if path.is_dir():
                raise IsADirectoryError(f"{path} is a directory")
            try:
                mode = path.lstat().st_mode
            except OSError:  # nothing there yet, or a file on the way
                mode = stat.S_IFREG
            if not stat.S_ISREG(mode):  # the rename would replace the link or node itself
                raise OSError(f"{path} is not a regular file")
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):  # a file on the way
                raise NotADirectoryError(f"{path.parent} is not a directory") from None
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "x", encoding="utf-8") as fh:
                tmps[tmp] = path
                fh.writelines(chunks)
        for tmp, path in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _cell(value) -> str:
    """A CSV field: bools lower-case, None empty, floats to 12 digits, lists |-joined."""
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return "|".join(map(_cell, value))
    return str(value)


def _render(fmt: str, report: Report) -> str:
    """A report as JSON or as CSV text."""
    if fmt == "json":
        import json

        doc = {"schema_version": REPORT_SCHEMA_VERSION, **report.doc}
        return json.dumps(doc, indent=2) + "\n"
    lines = [report.header, *report.rows]
    return "".join(",".join(map(_cell, line)) + "\n" for line in lines)


def _codes(states) -> list[str]:
    """The command line's codes of some Bell states."""
    return [BELL_CODES[state] for state in states]


def cmd_verify_table3(args) -> Report:
    """Recompute all 256 expression values and compare to the reference.

    The values are computed in sixteenths, as integers, so the comparison
    with the reference is exact.
    """
    products, reference = inequalities.product_counts(), load_reference_table()["values"]
    sixteenths = [[inequalities.dot(p, row) for row in inequalities.C] for p in products]
    values = [[sig12(v, 16) for v in row] for row in sixteenths]
    states = [f"{first}.{second}" for first in BELL_CODES for second in BELL_CODES]
    mismatches = [
        {
            "state": states[row],
            "expression": col + 1,
            "computed": values[row][col],
            "expected": float(expected),
        }
        for row, (got, want) in enumerate(zip(sixteenths, reference, strict=True))
        for col, (v, expected) in enumerate(zip(got, want, strict=True))
        if v != 16 * expected
    ]
    doc = {
        "command": "verify-table3",
        "ok": not mismatches,
        "matches": 256 - len(mismatches),
        "mismatches": mismatches,
        "state_order": states,
        "values": values,
    }
    header = ["state"] + [f"beta_{k}" for k in range(1, 17)]
    rows = [[state] + row for state, row in zip(states, values)]
    failure = f"verification failed: {len(mismatches)} of 256 values differ"
    return Report(doc, header, rows, failure if mismatches else None)


def cmd_bounds(args) -> Report:
    """Deterministic and no-signaling bounds plus facet certificates."""
    d, lhv_max, num_saturators, sat_dim, witnesses = polytope.facets()
    expressions = [
        {
            "index": row + 1,
            "lhv_max": lhv_max,
            "ns_value": polytope.ns_bound(row),
            "saturator_affine_dim": sat_dim,
            "num_saturators": num_saturators,
            "is_facet": sat_dim == d - 1,
            "witness_alice": [OUTCOMES[o] for o in alice],
            "witness_bob": [OUTCOMES[o] for o in bob],
        }
        for row, (alice, bob) in enumerate(witnesses)
    ]
    doc = {"command": "bounds", "polytope_affine_dim": d, "expressions": expressions}
    # a CSV row is an expression's record with the polytope's dimension after ns_value
    keys = list(expressions[0])
    header = keys[:3] + ["polytope_affine_dim"] + keys[3:]
    rows = [[{**e, "polytope_affine_dim": d}[key] for key in header] for e in expressions]
    bad = [e["index"] for e in expressions if e["lhv_max"] != 7 or not e["is_facet"]]
    failure = f"bound or facet check failed for expressions {bad}"
    return Report(doc, header, rows, failure if bad else None)


def cmd_swap_map(args) -> Report:
    """Robot outcome -> resulting Bell product, with matched expressions."""
    entries = [
        {
            "robot_outcome": _codes(divmod(c, 4)),
            "resulting_state": _codes(divmod(row, 4)),
            "matched_inequality": row + 1,
            "probability": sig12(swap.WEIGHT, 16),
            "beta": sig12(inequalities.matched_beta(row), 16),
        }
        for c, row in enumerate(swap.class_map(args.sources))
    ]
    doc = {"command": "swap-map", "sources": _codes(args.sources), "entries": entries}
    header = [
        "robot_first",
        "robot_second",
        "result_first",
        "result_second",
        "matched_inequality",
        "probability",
        "beta",
    ]
    rows = [
        [*e["robot_outcome"], *e["resulting_state"]]
        + [e["matched_inequality"], e["probability"], e["beta"]]
        for e in entries
    ]
    bijective = sorted(e["matched_inequality"] for e in entries) == list(range(1, 17))
    failure = "swap map is not a bijection onto expressions 1..16"
    return Report(doc, header, rows, None if bijective else failure)


def _event_text(codes, block: int):
    """events.csv in chunks of ``block`` events, rounded up to whole tens."""
    # the text after run_id of every event line, indexed by event code
    # 256 * (3x + y) + 16 * (4 r1 + r2) + 4a + b: ",x,y," + "a1,a2,b1,b2" + ",r1,r2\n"
    settings = [f",{x},{y}," for x in range(3) for y in range(3)]
    halves = [f"{first}1,{second}1" for first, second in OUTCOMES]
    signs = [f"{a},{b}" for a in halves for b in halves]
    robots = [f",{r1},{r2}\n" for r1 in BELL_CODES for r2 in BELL_CODES]
    s = [xy + ab + r for xy in settings for r in robots for ab in signs]
    yield "run_id,x,y,a1,a2,b1,b2,r1,r2\n"
    # runs 10k .. 10k + 9 have the run_ids str(k) + "0" .. str(k) + "9" ("" for
    # k = 0), so one f-string writes ten lines and formats one integer for them
    decades, step = len(codes) // 10, -(-block // 10)
    for first in range(0, decades, step):
        ks = range(first, min(first + step, decades))
        prefixes = [str(k) if k else "" for k in ks]
        runs = zip(*[iter(codes[10 * ks.start : 10 * ks.stop])] * 10)
        yield "".join(
            [
                f"{k}0{s[a]}{k}1{s[b]}{k}2{s[c]}{k}3{s[d]}{k}4{s[e]}"
                f"{k}5{s[f]}{k}6{s[g]}{k}7{s[h]}{k}8{s[i]}{k}9{s[j]}"
                for k, (a, b, c, d, e, f, g, h, i, j) in zip(prefixes, runs)
            ]
        )
    tail = enumerate(codes[10 * decades :], 10 * decades)
    yield "".join([f"{run_id}{s[code]}" for run_id, code in tail])


def cmd_sample(args) -> Report:
    """Report the per-class summary of seeded events, with the events file to write."""
    rows = swap.class_map(args.sources)
    codes = sampler.sample_events(args.shots, args.seed, rows)
    events_path = Path(args.out) / "events.csv"
    classes = []
    for c, (row, counts) in enumerate(zip(rows, sampler.class_counts(codes))):
        numerator, L, cells, empty = sampler.estimate_beta(counts, row)
        classes.append(
            {
                "robot_outcome": _codes(divmod(c, 4)),
                "count": sum(counts),
                "matched_inequality": row + 1,
                "beta_hat": None if empty else sig12(numerator, L),
                "cell_counts": cells,
                "insufficient_cells": empty,
            }
        )
    doc = {
        "command": "sample",
        "shots": args.shots,
        "seed": args.seed,
        "rng_contract": sampler.RNG_CONTRACT,
        "sources": _codes(args.sources),
        "events_file": events_path.name,
        "classes": classes,
    }
    header = [
        "robot_first",
        "robot_second",
        "count",
        "matched_inequality",
        "beta_hat",
        "insufficient_cells",
    ]
    rows = [
        [*c["robot_outcome"], c["count"], c["matched_inequality"], c["beta_hat"]]
        + [[f"{i}{j}" for i, j in c["insufficient_cells"]]]
        for c in classes
    ]
    return Report(doc, header, rows, None, {events_path: _event_text(codes, sampler.BLOCK)})


class UsageError(Exception):
    """A bad command line: its text is the usage line and one ``error:`` line."""


def _choice(choices, text: str) -> str:
    """``text``, if it is one of ``choices``."""
    if text not in choices:
        raise ValueError(f"{text!r} is not one of {list(choices)}")
    return text


def _int_at_least(low: int, text: str) -> int:
    """An integer argument of at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer")
    if value < low:
        raise ValueError(f"must be at least {low}")
    return value


def _sources(text: str):
    codes = [code.strip() for code in text.split(",")]
    if len(codes) != 2:
        raise ValueError("expected two comma-separated Bell codes, e.g. SM,SM")
    return tuple(BELL_CODES.index(_choice(BELL_CODES, code)) for code in codes)


def _commands() -> dict:
    """Each command's function, help and options in help order, as (flag, converter,
    default, help).  Built at each parse, not at import, so that wrappers installed
    on the module after its import are the ones that run."""
    out = ("--out", str, None, "write the report here instead of stdout")
    fmt = ("--format", functools.partial(_choice, ("json", "csv")), "json", "json (default) or csv")
    pair = "source Bell codes as FIRST,SECOND (default SM,SM)"
    sources = ("--sources", _sources, swap.DEFAULT_SOURCES, pair)
    shots = ("--shots", functools.partial(_int_at_least, 1), 1000, "number of runs (default 1000)")
    seed = ("--seed", functools.partial(_int_at_least, 0), 0, "seed of the runs (default 0)")
    run_dir = "directory for events.csv and the summary (default nlbox_sample)"
    sample = [shots, seed, sources, ("--out", str, "nlbox_sample", run_dir), fmt]
    std = [out, fmt]  # the options of verify-table3 and bounds
    return {
        "verify-table3": (cmd_verify_table3, "recompute the 256 reference expression values", std),
        "bounds": (cmd_bounds, "deterministic maxima, no-signaling values, facet checks", std),
        "swap-map": (cmd_swap_map, "robot outcome to resulting Bell product map", [*std, sources]),
        "sample": (cmd_sample, "run seeded shots of the protocol", sample),
    }


def _help(commands: dict, name=None) -> str:
    """The help text of the command ``name``, or of nlbox; its first line is the usage."""
    if name is None:
        rows = [(command, text) for command, (_, text, _) in commands.items()]
        head = "nlbox [-h] COMMAND ...\n\n"
        head += "Verify the sixteen Bell expressions and the swap protocol.\n\ncommands"
    else:
        rows = [("-h", "show this help message and exit")]
        rows += [(f"{flag} {flag[2:].upper()}", text) for flag, _, _, text in commands[name][2]]
        head = f"nlbox {name}" + "".join(f" [{left}]" for left, _ in rows) + "\n\noptions"
    return f"usage: {head}:\n" + "".join(f"  {left:18} {text}\n" for left, text in rows)


def _read_argv(argv):
    """The command's fields, or the help text, from ``-h`` alone or a command and
    ``--option value`` pairs of its full option names, each at most once, no value
    starting with "-", and ``-h`` for any pair.  Any other form raises UsageError."""
    commands, name, flag, fields = _commands(), None, "command", {}
    try:
        if argv in (["-h"], ["--help"]):
            return _help(commands)
        name = _choice(commands, argv[0] if argv else "")
        func, _, options = commands[name]
        converters = {flag: convert for flag, convert, _, _ in options}
        for flag, text in zip(argv[1::2], argv[2::2] + ["-"]):  # no last value reads as "-"
            if flag in ("-h", "--help"):
                return _help(commands, name)
            if flag not in converters or flag[2:] in fields:
                raise ValueError("given twice" if flag in converters else "unknown option")
            if text.startswith("-"):
                raise ValueError("expected one argument")
            fields[flag[2:]] = converters[flag](text)
    except ValueError as err:
        usage, prog = _help(commands, name).splitlines()[0], f"nlbox {name or ''}".strip()
        raise UsageError(f"{usage}\n{prog}: error: argument {flag}: {err}") from None
    defaults = {flag[2:]: default for flag, _, default, _ in options}
    return SimpleNamespace(command=name, func=func, **{**defaults, **fields})


def main(argv=None) -> int:
    """Run one command line; return its exit code.  The one write to stdout, the
    help, the report or a ``wrote`` line per file, comes after every rename, so no
    line names a file that was not renamed; a closed stdout fails the run."""
    failure, status, files = None, 1, {}
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # the help text
            text = args
        else:
            report = args.func(args)
            failure = report.failure
            text = _render(args.format, report)
            if args.command == "sample":
                files = {**report.files, Path(args.out) / f"summary.{args.format}": [text]}
            elif args.out is not None:
                files = {Path(args.out): [text]}
        _write_atomic(files)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        sys.stdout.write("".join(f"wrote {path}\n" for path in files) or text)
    except UsageError as err:
        failure, status = str(err), 2
    except (OSError, RuntimeError, ValueError) as err:
        failure = f"error: {err}"
    except MemoryError:
        failure = "error: out of memory"
    if failure is None:
        return 0
    try:
        print(failure, file=sys.stderr)
    except OSError:  # a full stderr loses the line, not the exit status
        pass
    return status


def entry_point() -> None:
    """Run ``main`` as a whole process, for ``python -m nlbox`` and ``nlbox``.

    It flushes stdout and stderr itself.  A stdout that fails only at that
    flush (``> /dev/full``) gets one ``error:`` line and exit 1; a closed or
    failing stderr keeps the exit status, with nowhere left to report.  A
    failed stream's fd then points at the null device, so that shutdown's
    own flush cannot fail again.  Then it freezes the heap: every tracked
    object moves to the permanent generation, which the collections at
    shutdown skip.  ``main`` does none of this, so in-process callers keep
    their streams and their heap.
    """
    import gc

    if sys.stderr is None:  # fd 2 closed: print would fall back to stdout
        sys.stderr = open(os.devnull, "w")
    try:
        status = main()
    except KeyboardInterrupt:  # Ctrl-C: one line, then the end by SIGINT a shell expects
        import signal

        try:
            print("error: interrupted", file=sys.stderr)
        except OSError:  # a full stderr loses the line, not the signal
            pass
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    try:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as err:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            status = 1
            print(f"error: {err}", file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    gc.freeze()
    sys.exit(status)
