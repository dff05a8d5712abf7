"""Output checks for every nlbox invocation the benchmark makes.

Each check returns a list of what is wrong with one command's output,
empty when the output is correct.  ``check_bounds`` and ``check_sample``
also return a dict of figures the benchmark reports, such as the events
file hash.  No check compares sampled events against stored bytes,
because the sampler's random-number contract is allowed to change;
repeated invocations are compared with each other instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

TOL = 1e-9
LHV_MAX = 7
NS_VALUE = 9
POLYTOPE_AFFINE_DIM = 99
NUM_CLASSES = 16
EVENT_HEADER = "run_id,x,y,a1,a2,b1,b2,r1,r2"


def _close(value, expected: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= TOL


def check_verify_table3(doc: dict, reference: list[list[float]]) -> list[str]:
    problems = []
    if doc.get("ok") is not True:
        problems.append(f"ok is {doc.get('ok')!r}")
    if doc.get("matches") != 256:
        problems.append(f"{doc.get('matches')!r} matches, expected 256")
    values = doc.get("values")
    if not (isinstance(values, list) and [len(row) for row in values] == [16] * 16):
        return problems + ["values is not a 16x16 table"]
    wrong = sum(
        not _close(v, e)
        for row, ref_row in zip(values, reference)
        for v, e in zip(row, ref_row)
    )
    if wrong:
        problems.append(f"{wrong} values differ from the reference table")
    return problems


def check_bounds(doc: dict) -> tuple[list[str], dict]:
    problems = []
    if doc.get("polytope_affine_dim") != POLYTOPE_AFFINE_DIM:
        problems.append(f"polytope_affine_dim {doc.get('polytope_affine_dim')!r}")
    entries = doc.get("expressions") or []
    if sorted(e.get("index") for e in entries) != list(range(1, 17)):
        problems.append("expressions are not 1..16")
    for e in entries:
        if e.get("lhv_max") != LHV_MAX or e.get("ns_value") != NS_VALUE:
            problems.append(f"expression {e.get('index')}: bounds {e.get('lhv_max')}, {e.get('ns_value')}")
        if e.get("is_facet") is not True:
            problems.append(f"expression {e.get('index')}: not a facet")
    saturators = sum(int(e.get("num_saturators") or 0) for e in entries)
    return problems, {"saturators": saturators}


def check_swap_map(doc: dict, sources: str) -> list[str]:
    problems = []
    if doc.get("sources") != sources.split(","):
        problems.append(f"sources {doc.get('sources')!r}, expected {sources}")
    entries = doc.get("entries") or []
    if sorted(e.get("matched_inequality") for e in entries) != list(range(1, 17)):
        problems.append("matched expressions are not a bijection onto 1..16")
    if not all(_close(e.get("probability"), 1 / 16) for e in entries):
        problems.append("a robot outcome probability differs from 1/16")
    if not all(_close(e.get("beta"), NS_VALUE) for e in entries):
        problems.append("a matched value differs from 9")
    return problems


def _class_rows(out_dir: Path, fmt: str) -> list[dict]:
    """Summary rows as dicts with robot, count, matched, beta_hat, insufficient."""
    if fmt == "json":
        doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        return [
            {
                "robot": tuple(c["robot_outcome"]),
                "count": c["count"],
                "matched": c["matched_inequality"],
                "beta_hat": c["beta_hat"],
                "insufficient": bool(c["insufficient_cells"]),
            }
            for c in doc["classes"]
        ]
    text = (out_dir / "summary.csv").read_text(encoding="utf-8")
    return [
        {
            "robot": (row["robot_first"], row["robot_second"]),
            "count": int(row["count"]),
            "matched": int(row["matched_inequality"]),
            "beta_hat": float(row["beta_hat"]) if row["beta_hat"] else None,
            "insufficient": bool(row["insufficient_cells"]),
        }
        for row in csv.DictReader(io.StringIO(text))
    ]


def check_sample(out_dir: Path, shots: int, fmt: str) -> tuple[list[str], dict]:
    data = (out_dir / "events.csv").read_bytes()
    lines = data.decode("ascii").splitlines()
    problems = []
    if len(lines) != shots + 1 or lines[:1] != [EVENT_HEADER]:
        problems.append(f"events.csv has {len(lines)} lines, expected {shots + 1}")
    robots = Counter(tuple(line.rsplit(",", 2)[1:]) for line in lines[1:])
    rows = _class_rows(out_dir, fmt)
    if len(rows) != NUM_CLASSES:
        problems.append(f"{len(rows)} classes in the summary")
    if sum(r["count"] for r in rows) != shots:
        problems.append("class counts do not sum to the shots")
    if any(robots[r["robot"]] != r["count"] for r in rows):
        problems.append("class counts differ from the events file")
    if sorted(r["matched"] for r in rows) != list(range(1, 17)):
        problems.append("matched expressions are not a bijection onto 1..16")
    for r in rows:
        if r["beta_hat"] is None and not r["insufficient"]:
            problems.append(f"class {r['robot']}: no estimate and no empty cell")
        if r["beta_hat"] is not None and not _close(r["beta_hat"], NS_VALUE):
            problems.append(f"class {r['robot']}: estimate {r['beta_hat']}, expected 9")
    facts = {
        "events_sha256": hashlib.sha256(data).hexdigest(),
        "empty_cell_classes": sum(r["beta_hat"] is None for r in rows),
    }
    return problems, facts
