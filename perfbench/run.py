"""Fresh-process benchmark of the nlbox command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Every nlbox command is run as its own child process, one at a time, with
``PYTHONPATH`` pointing at the checkout's ``src``.  Each child is timed
with ``os.wait4`` (wall time, user+sys CPU time and peak RSS), writes
into a fresh temporary directory under ``.perfbench_tmp`` that is removed
afterwards, and has its output checked.  A non-zero exit or a failed
check counts as a failed operation and is left out of every timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of operations twice each, plain and under ``trace_child.py``, and
reports per-layer figures from the traced runs together with the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
from spans import SpanSummary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BETA_TABLE = SRC / "nlbox" / "data" / "beta_reference.json"
TMP_ROOT = ROOT / ".perfbench_tmp"
TRACE_CHILD = HERE / "trace_child.py"

WORKLOADS = ("certify", "sample_bulk", "sample_burst")
BELL_CODES = ("PP", "PM", "SP", "SM")
SOURCE_PAIRS = tuple(f"{a},{b}" for a in BELL_CODES for b in BELL_CODES)
BULK_SHOTS = 100_000
BURST_SHOTS = 500
# Distinct (seed, sources) pairs a sample workload cycles through, so that
# repeated invocations can be checked for identical events files.
BULK_CONFIGS = 2
BURST_CONFIGS = 8
SETUP_PROBES = 9
# A fixed task that does not use nlbox: interpreter start, numpy import,
# small complex matrix-vector products and a dict loop, the same mix as an
# nlbox command.  It runs beside the setup probes, and the operation times
# are reported as multiples of it.  The machine the benchmark was tuned on
# (2 vCPUs shared with other tenants) changes speed by 20-30% over minutes;
# every process slows alike, so the ratio stays within a few percent.
REFERENCE_TASK = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
s = 0.0
for i in range(3000):
    s += float(np.vdot(a[i % 64], a @ a[:, i % 64]).real)
d = {}
for i in range(200000):
    d[i % 97] = d.get(i % 97, 0) + i
"""
TRACED_OPS = {"certify": 3, "sample_bulk": 2, "sample_burst": 16}
# A hung child is killed so that the whole run ends within 180 s.
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Call:
    """One nlbox invocation."""

    command: str
    sources: str | None = None
    shots: int = 0
    seed: int = 0
    fmt: str = "json"

    def argv(self, out: Path) -> list[str]:
        args = [self.command, "--format", self.fmt]
        if self.sources is not None:
            args += ["--sources", self.sources]
        if self.command == "sample":
            return args + ["--shots", str(self.shots), "--seed", str(self.seed), "--out", str(out / "run")]
        return args + ["--out", str(out / "report.json")]


def operations(workload: str, seed: int):
    """The endless sequence of operations of a workload, each a tuple of Calls.

    Every seed, source pair and format is drawn from ``seed``, so the same
    seed gives the same sequence.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        while True:
            yield (
                Call("verify-table3"),
                Call("bounds"),
                Call("swap-map", sources=rng.choice(SOURCE_PAIRS)),
            )
    bulk = workload == "sample_bulk"
    shots, count = (BULK_SHOTS, BULK_CONFIGS) if bulk else (BURST_SHOTS, BURST_CONFIGS)
    configs = [(rng.randrange(2**32), rng.choice(SOURCE_PAIRS)) for _ in range(count)]
    for i in itertools.count():
        sample_seed, sources = configs[i % count]
        fmt = "json" if bulk else rng.choice(("json", "csv"))
        yield (Call("sample", sources=sources, shots=shots, seed=sample_seed, fmt=fmt),)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> Child:
    """Run one process to completion; stdout and stderr go to files in cwd."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


@dataclass
class OpResult:
    ok: bool
    wall_s: float
    children: list[tuple[Call, Child]]
    facts: dict = field(default_factory=dict)
    spans: SpanSummary | None = None


class Bench:
    """Runs operations one child at a time and keeps the tally of failures."""

    def __init__(self, beta_table: list[list[float]], tmp_root: Path = TMP_ROOT, nlbox: list[str] | None = None):
        self.beta_table = beta_table
        self.tmp_root = tmp_root
        self.nlbox = nlbox or [sys.executable, "-m", "nlbox"]
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[tuple, str] = {}
        tmp_root.mkdir(exist_ok=True)

    def _spawn(self, argv: list[str], tmp: Path) -> Child:
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        return run_child(argv, tmp, env, remaining)

    def _tally(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def probe(self, what: str, code: str) -> Child | None:
        """Time a fresh interpreter running ``code``; None if it fails."""
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            child = self._spawn([sys.executable, "-c", code], tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        ok = self._tally(what, [f"exit code {child.returncode}"] if child.returncode else [])
        return child if ok else None

    def check(self, call: Call, out: Path) -> tuple[list[str], dict]:
        try:
            if call.command == "sample":
                problems, facts = checks.check_sample(out / "run", call.shots, call.fmt)
                key = (call.seed, call.sources, call.shots)
                digest = self.hashes.setdefault(key, facts["events_sha256"])
                if digest != facts["events_sha256"]:
                    problems.append("events.csv differs from an earlier run with the same seed")
                return problems, facts
            doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if call.command == "verify-table3":
                return checks.check_verify_table3(doc, self.beta_table), {}
            if call.command == "bounds":
                return checks.check_bounds(doc)
            return checks.check_swap_map(doc, call.sources), {}
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
            return [f"unreadable output: {err!r}"], {}

    def run_call(self, call: Call, spans: SpanSummary | None = None) -> tuple[bool, Child, dict]:
        """Run one call, traced when ``spans`` is given, and check its output."""
        traced = spans is not None
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            prefix = [sys.executable, str(TRACE_CHILD), str(tmp / "spans.npz")] if traced else self.nlbox
            child = self._spawn(prefix + call.argv(tmp), tmp)
            if child.returncode:
                problems, facts = [f"exit code {child.returncode}"], {}
            else:
                problems, facts = self.check(call, tmp)
                if traced and not problems:
                    spans.add_file(tmp / "spans.npz")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return self._tally(call.command, problems), child, facts

    def run_op(self, op: tuple[Call, ...], traced: bool = False) -> OpResult:
        result = OpResult(ok=True, wall_s=0.0, children=[], spans=SpanSummary() if traced else None)
        for call in op:
            ok, child, facts = self.run_call(call, result.spans)
            result.ok &= ok
            result.wall_s += child.wall_s
            result.children.append((call, child))
            for key in ("saturators", "empty_cell_classes"):
                result.facts[key] = result.facts.get(key, 0) + facts.get(key, 0)
            result.facts["shots"] = result.facts.get("shots", 0) + call.shots
        return result


def prepare() -> list[list[float]]:
    """Check that the checkout's package imports; return its table of the 256 values."""
    if not (SRC / "nlbox" / "cli.py").is_file() or not BETA_TABLE.is_file():
        raise SystemExit(f"no nlbox package under {SRC}")
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        # Also compiles the package's bytecode, so no timed child pays for it.
        probe = subprocess.run(
            [sys.executable, "-c", "import nlbox.cli; print(nlbox.cli.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if probe.returncode or Path(probe.stdout.strip()).resolve() != (SRC / "nlbox" / "cli.py").resolve():
        raise SystemExit(f"nlbox does not import from {SRC}: {probe.stderr.strip()[-500:]}")
    return json.loads(BETA_TABLE.read_text(encoding="utf-8"))["values"]


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def end_to_end(setup: list[Child], reference: list[Child], results: list[OpResult]) -> tuple[dict, dict]:
    """End-to-end metrics from the probes and the operations that succeeded.

    Also returns, per command, its median wall and CPU seconds and its
    sample count.  A failed operation contributes to no timing.
    """
    walls, cpus = defaultdict(list), defaultdict(list)
    rss = []
    for result in results:
        if not result.ok:
            continue
        for call, child in result.children:
            walls[call.command].append(child.wall_s)
            cpus[call.command].append(child.cpu_s)
            rss.append(child.rss_mb)
    if not walls or not setup or not reference:
        return {}, {}
    median = statistics.median
    per_command = {command: (median(walls[command]), median(cpus[command]), len(walls[command])) for command in walls}
    op_s = sum(wall for wall, _, _ in per_command.values())
    cpu_s = sum(cpu for _, cpu, _ in per_command.values())
    metrics = {
        "setup_s": (median(c.wall_s for c in setup), "s"),
        "op_ref": (op_s / median(c.wall_s for c in reference), "ratio"),
        "cpu_ref": (cpu_s / median(c.cpu_s for c in reference), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, per_command


def measure(bench: Bench, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced run, and report lines for people."""
    setup: list[Child | None] = []
    reference: list[Child | None] = []
    results: list[OpResult] = []
    ops = operations(workload, seed)

    def probe() -> None:
        setup.append(bench.probe("import", "import nlbox.cli"))
        reference.append(bench.probe("reference", REFERENCE_TASK))

    start = time.perf_counter()
    while True:
        # Spread the probes over the run, so that they see the same
        # machine as the operations do.
        due = 1 + int(SETUP_PROBES * (time.perf_counter() - start) / seconds)
        while len(setup) < min(due, SETUP_PROBES):
            probe()
        results.append(bench.run_op(next(ops)))
        # Start no operation that would likely end after the measuring time.
        typical = statistics.median(r.wall_s for r in results)
        if time.perf_counter() - start + typical > seconds:
            break
    while len(setup) < SETUP_PROBES:
        probe()
    setup = [c for c in setup if c]
    reference = [c for c in reference if c]
    metrics, per_command = end_to_end(setup, reference, results)
    if not metrics:
        return {}, []
    median = statistics.median
    ref_wall, ref_cpu = median(c.wall_s for c in reference), median(c.cpu_s for c in reference)
    lines = [f"setup_s          {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} fresh imports)"]
    if workload == "certify":
        for command in ("verify-table3", "bounds", "swap-map"):
            wall, _, n = per_command[command]
            lines.append(f"{command.replace('-', '_') + '_s':<16} {wall:.4f} s   (median of {n})")
        name, shots = "certify_s", 0
    else:
        name = "sample_bulk_s" if workload == "sample_bulk" else "sample_small_s"
        shots = BULK_SHOTS if workload == "sample_bulk" else BURST_SHOTS
    op_s = sum(wall for wall, _, _ in per_command.values())
    cpu_s = sum(cpu for _, cpu, _ in per_command.values())
    n = min(count for _, _, count in per_command.values())
    lines.append(f"{name:<16} {op_s:.4f} s   (sum of per-command medians, {n} samples each)")
    if shots:
        lines.append(f"shots_per_s      {shots / op_s:.1f} 1/s   ({shots} shots per invocation)")
    lines += [
        f"cpu_s            {cpu_s:.4f} s   (child user+sys, sum of per-command medians)",
        f"peak_rss_mb      {metrics['peak_rss_mb'][0]:.1f} MB",
        f"reference_s      {ref_wall:.4f} s wall, {ref_cpu:.4f} s cpu   (median of {len(reference)} reference tasks)",
        f"op_ref           {metrics['op_ref'][0]:.4f}   (operation wall time / reference wall time)",
        f"cpu_ref          {metrics['cpu_ref'][0]:.4f}   (operation cpu time / reference cpu time)",
    ]
    return metrics, lines


TIMED_SPANS = (
    "inequalities.beta_quantum",
    "qla.embed",
    "polytope.vertex_matrix",
    "polytope.integer_rank",
    "polytope.facet_check",
    "polytope.ns_bound",
    "polytope.lhv_bound",
    "swap.class_map",
    "swap.robot_outcome_distribution",
    "swap.identify_bell_product",
    "sampler.run_rng",
    "sampler.sort_events",
    "sampler.estimate_beta",
    "cli.event_line",
)
COUNTED_SPANS = (
    "inequalities.beta_quantum",
    "qla.embed",
    "polytope.integer_rank",
    "swap.class_map",
    "sampler.run_rng",
)
MODULES = ("qla", "states", "observables", "inequalities", "polytope", "swap", "sampler", "cli")


def layer_metrics(traced: list[OpResult], plain: list[OpResult]) -> dict:
    """Per-layer figures: medians over the traced operations of per-operation totals."""
    med = statistics.median
    metrics = {"import.nlbox_ms": (med(ms for op in traced for ms in op.spans.import_ms), "ms")}
    for label in TIMED_SPANS:
        metrics[f"{label}_ms"] = (med(op.spans.ms[label] for op in traced), "ms")
    for label in COUNTED_SPANS:
        metrics[f"{label}_calls"] = (med(op.spans.calls[label] for op in traced), "count")
    metrics["polytope.saturators"] = (med(op.facts["saturators"] for op in traced), "count")
    metrics["sampler.protocol_tables_ms"] = (med(op.spans.ms["sampler.ProtocolTables"] for op in traced), "ms")
    metrics["sampler.us_per_shot"] = (
        med(
            (op.spans.ms["sampler.sample_events"] - op.spans.ms["sampler.ProtocolTables"]) * 1e3 / op.facts["shots"]
            if op.facts["shots"]
            else 0.0
            for op in traced
        ),
        "us",
    )
    metrics["sampler.empty_cell_classes"] = (med(op.facts["empty_cell_classes"] for op in traced), "count")
    metrics["cli.cmd_self_ms"] = (med(op.spans.cmd_self_ms for op in traced), "ms")
    for module in MODULES:
        metrics[f"{module}.self_ms"] = (med(op.spans.self_ms[module] for op in traced), "ms")
    metrics["trace.spans"] = (med(op.spans.spans for op in traced), "count")
    overhead = med(op.wall_s for op in traced) - med(op.wall_s for op in plain)
    metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
    return metrics


def measure_traced(bench: Bench, workload: str, seed: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from a fixed number of operations, each run plain and traced."""
    ops = operations(workload, seed)
    plain, traced = [], []
    for i, op in enumerate(itertools.islice(ops, TRACED_OPS[workload])):
        # Alternate which side runs first, so neither always runs second.
        for is_traced in (i % 2 == 1, i % 2 == 0):
            (traced if is_traced else plain).append(bench.run_op(op, traced=is_traced))
    traced = [op for op in traced if op.ok]
    plain = [op for op in plain if op.ok]
    if not traced or not plain:
        return {}, []
    metrics = layer_metrics(traced, plain)
    lines = [f"{name:<36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"({len(traced)} operations, each run plain and traced)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(prepare())
        if args.trace:
            metrics, lines = measure_traced(bench, args.workload, args.seed)
        else:
            metrics, lines = measure(bench, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    for problem in bench.problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    if not metrics:
        print("no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))
    print(f"workload {args.workload}, seed {args.seed}: {bench.attempted} invocations, {bench.failed} failed")
    for line in lines:
        print("  " + line)
    print(f"  error_rate       {bench.failed / bench.attempted:.4g}   ({bench.failed}/{bench.attempted})")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
