"""Command line interface: verify-table3, bounds, swap-map, sample.

Exit codes: 0 on success, 1 when a verification fails, a computation
reports an inconsistency or an output file cannot be written, 2 on usage
errors.  All numeric output is printed at 12 significant digits, and
identical invocations with the same seed produce byte-identical files and
stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import inequalities, polytope, sampler, swap
from .observables import OUTCOME_BITS, OUTCOMES
from .states import BELL_ORDER, PRODUCT_LABELS, bell_label_from_code

SCHEMA_VERSION = 1
EVENT_HEADER = "run_id,x,y,a1,a2,b1,b2,r1,r2"


def sig12(x: float) -> float:
    """Round a float to 12 significant digits for stable reports."""
    return float(f"{x:.12g}")


def fmt12(x: float) -> str:
    return f"{x:.12g}"


def load_reference_table() -> dict:
    """The packaged reference table of the 256 expected expression values."""
    path = resources.files("nlbox.data") / "beta_reference.json"
    with path.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise RuntimeError(
            f"reference table schema {doc.get('schema_version')} is not "
            f"supported (expected {SCHEMA_VERSION})"
        )
    return doc


def _state_code(first, second) -> str:
    return f"{first.code}.{second.code}"


def _write_atomic(path: Path, chunks) -> None:
    """Write text chunks to a temporary file beside ``path``, then rename it.

    A write that fails partway leaves neither a partial ``path`` nor the
    temporary file behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, [text])
        print(f"wrote {path}")


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_verify_table3(args) -> int:
    """Recompute all 256 expression values and compare to the reference.

    The values are computed in sixteenths, as integers, so the comparison
    with the reference is exact.
    """
    reference = load_reference_table()
    expected = np.array(reference["values"], dtype=float)
    sixteenths = inequalities.product_counts() @ inequalities.C.T
    computed = sixteenths / 16
    mismatches = [
        {
            "state": _state_code(*PRODUCT_LABELS[row]),
            "expression": int(col) + 1,
            "computed": sig12(computed[row, col]),
            "expected": expected[row, col],
        }
        for row, col in zip(*np.nonzero(sixteenths != 16 * expected))
    ]
    ok = not mismatches
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify-table3",
            "ok": ok,
            "matches": 256 - len(mismatches),
            "mismatches": mismatches,
            "state_order": [_state_code(f, s) for f, s in PRODUCT_LABELS],
            "values": [[sig12(v) for v in row] for row in computed],
        }
        _emit(args, _json_text(doc))
    else:
        header = ["state"] + [f"beta_{k}" for k in range(1, 17)]
        rows = [
            [_state_code(f, s)] + [fmt12(v) for v in computed[r]]
            for r, (f, s) in enumerate(PRODUCT_LABELS)
        ]
        _emit(args, _csv_text(header, rows))
    if not ok:
        print(
            f"verification failed: {len(mismatches)} of 256 values differ",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bounds(args) -> int:
    """Deterministic and no-signaling bounds plus facet certificates."""
    entries = [
        (polytope.facet_check(index), polytope.ns_bound(index)) for index in range(1, 17)
    ]
    d = polytope.polytope_affine_dim()
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "bounds",
            "polytope_affine_dim": d,
            "expressions": [
                {
                    "index": report.index,
                    "lhv_max": report.lhv_max,
                    "ns_value": ns,
                    "saturator_affine_dim": report.saturator_affine_dim,
                    "num_saturators": report.num_saturators,
                    "is_facet": report.is_facet,
                    "witness_alice": [OUTCOMES[o] for o in report.witness.alice],
                    "witness_bob": [OUTCOMES[o] for o in report.witness.bob],
                }
                for report, ns in entries
            ],
        }
        _emit(args, _json_text(doc))
    else:
        header = [
            "index",
            "lhv_max",
            "ns_value",
            "polytope_affine_dim",
            "saturator_affine_dim",
            "num_saturators",
            "is_facet",
            "witness_alice",
            "witness_bob",
        ]
        rows = [
            [
                str(report.index),
                str(report.lhv_max),
                str(ns),
                str(d),
                str(report.saturator_affine_dim),
                str(report.num_saturators),
                str(report.is_facet).lower(),
                "|".join(OUTCOMES[o] for o in report.witness.alice),
                "|".join(OUTCOMES[o] for o in report.witness.bob),
            ]
            for report, ns in entries
        ]
        _emit(args, _csv_text(header, rows))
    bad = [r.index for r, _ in entries if r.lhv_max != 7 or not r.is_facet]
    if bad:
        print(f"bound or facet check failed for expressions {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_swap_map(args) -> int:
    """Robot outcome -> resulting Bell product, with matched expressions."""
    rows = [(entry, swap.matched_beta(entry)) for entry in swap.class_map(args.sources)]
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "swap-map",
            "sources": [label.code for label in args.sources],
            "entries": [
                {
                    "robot_outcome": list(entry.outcome.codes),
                    "resulting_state": [
                        entry.resulting_state[0].code,
                        entry.resulting_state[1].code,
                    ],
                    "matched_inequality": entry.matched_inequality,
                    "probability": sig12(entry.probability),
                    "beta": sig12(beta),
                }
                for entry, beta in rows
            ],
        }
        _emit(args, _json_text(doc))
    else:
        header = [
            "robot_first",
            "robot_second",
            "result_first",
            "result_second",
            "matched_inequality",
            "probability",
            "beta",
        ]
        csv_rows = [
            [
                entry.outcome.first.code,
                entry.outcome.second.code,
                entry.resulting_state[0].code,
                entry.resulting_state[1].code,
                str(entry.matched_inequality),
                fmt12(entry.probability),
                fmt12(beta),
            ]
            for entry, beta in rows
        ]
        _emit(args, _csv_text(header, csv_rows))
    matched = sorted(entry.matched_inequality for entry, _ in rows)
    if matched != list(range(1, 17)):
        print("swap map is not a bijection onto expressions 1..16", file=sys.stderr)
        return 1
    return 0


def _event_suffixes() -> list[str]:
    """The text after run_id of every event line, indexed by event code."""

    def sign(v: int) -> str:
        return "+1" if v > 0 else "-1"

    return [
        f",{x},{y},{sign(a1)},{sign(a2)},{sign(b1)},{sign(b2)},{r1.code},{r2.code}"
        for x, y, r1, r2, (a1, a2), (b1, b2) in itertools.product(
            range(3), range(3), BELL_ORDER, BELL_ORDER, OUTCOME_BITS, OUTCOME_BITS
        )
    ]


def _event_text(codes: np.ndarray):
    """events.csv in chunks of one sampler block: run_id,x,y,a1,a2,b1,b2,r1,r2."""
    suffixes = _event_suffixes()
    yield EVENT_HEADER + "\n"
    for start in range(0, codes.size, sampler.BLOCK):
        chunk = codes[start : start + sampler.BLOCK].tolist()
        yield "".join(
            f"{run_id}{suffixes[code]}\n" for run_id, code in enumerate(chunk, start)
        )


def cmd_sample(args) -> int:
    """Run seeded shots, write the event list and a per-class summary."""
    codes = sampler.sample_events(args.shots, args.seed, args.sources)
    entries = sampler.protocol_tables(args.sources).entries
    counts = sampler.class_counts(codes)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.csv"
    _write_atomic(events_path, _event_text(codes))

    summaries = []
    for entry, behavior_counts in zip(entries, counts):
        cells = behavior_counts.reshape(3, 3, 16).sum(axis=2)
        insufficient = np.argwhere(cells == 0).tolist()
        beta_hat = None
        if not insufficient:
            beta_hat = sampler.estimate_beta(behavior_counts, entry.matched_inequality)[0]
        summaries.append(
            {
                "robot_outcome": list(entry.outcome.codes),
                "count": int(cells.sum()),
                "matched_inequality": entry.matched_inequality,
                "beta_hat": None if beta_hat is None else sig12(beta_hat),
                "cell_counts": cells.tolist(),
                "insufficient_cells": insufficient,
            }
        )

    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "sample",
            "shots": args.shots,
            "seed": args.seed,
            "rng_contract": sampler.RNG_CONTRACT,
            "sources": [label.code for label in args.sources],
            "events_file": events_path.name,
            "classes": summaries,
        }
        summary_path = out_dir / "summary.json"
        _write_atomic(summary_path, [_json_text(doc)])
    else:
        header = [
            "robot_first",
            "robot_second",
            "count",
            "matched_inequality",
            "beta_hat",
            "insufficient_cells",
        ]
        rows = []
        for s in summaries:
            rows.append(
                [
                    s["robot_outcome"][0],
                    s["robot_outcome"][1],
                    str(s["count"]),
                    str(s["matched_inequality"]),
                    "" if s["beta_hat"] is None else fmt12(s["beta_hat"]),
                    "|".join(f"{i}{j}" for i, j in s["insufficient_cells"]),
                ]
            )
        summary_path = out_dir / "summary.csv"
        _write_atomic(summary_path, [_csv_text(header, rows)])

    print(f"wrote {events_path}")
    print(f"wrote {summary_path}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _sources(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated Bell codes, e.g. SM,SM"
        )
    try:
        return tuple(bell_label_from_code(p.strip()) for p in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbox",
        description="Verify the sixteen Bell expressions and the swap protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = dict(default=None, help="write the report here instead of stdout")

    p_verify = sub.add_parser(
        "verify-table3", help="recompute the 256 reference expression values"
    )
    p_verify.add_argument("--out", **common)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify_table3)

    p_bounds = sub.add_parser(
        "bounds", help="deterministic maxima, no-signaling values, facet checks"
    )
    p_bounds.add_argument("--out", **common)
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(func=cmd_bounds)

    p_map = sub.add_parser(
        "swap-map", help="robot outcome to resulting Bell product map"
    )
    p_map.add_argument("--out", **common)
    p_map.add_argument("--format", choices=("json", "csv"), default="json")
    p_map.add_argument(
        "--sources",
        type=_sources,
        default=swap.DEFAULT_SOURCES,
        help="source Bell codes as FIRST,SECOND (default SM,SM)",
    )
    p_map.set_defaults(func=cmd_swap_map)

    p_sample = sub.add_parser("sample", help="run seeded shots of the protocol")
    p_sample.add_argument("--shots", type=_positive_int, default=1000)
    p_sample.add_argument("--seed", type=_seed_int, default=0)
    p_sample.add_argument(
        "--sources",
        type=_sources,
        default=swap.DEFAULT_SOURCES,
        help="source Bell codes as FIRST,SECOND (default SM,SM)",
    )
    p_sample.add_argument(
        "--out",
        default="nlbox_sample",
        help="directory for events.csv and the summary (default nlbox_sample)",
    )
    p_sample.add_argument("--format", choices=("json", "csv"), default="json")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
