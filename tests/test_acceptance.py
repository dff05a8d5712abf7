"""Acceptance suite: one check per release criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines;
each test prints exactly one line of the form ``ACCEPTANCE nn PASS ...``
or the matching FAIL line before the assertion fires.
"""

import json
import time

import numpy as np
from oracle import (
    ALICE_PAIR,
    BOB_PAIR,
    KEPT_QUBITS,
    ROBOT_PAIRS,
    behavior_value,
    bell_projectors,
    class_state,
    dense_swap,
    density_behavior,
    eight_qubit_initial,
    event_counts,
    integer_rank,
    is_pure,
    partial_trace,
    party_projectors,
    protocol_joint_table,
    sequential_joint_distribution,
    source_product,
    vertex_matrix,
)

from nlbox import cli, polytope, sampler, swap
from nlbox.inequalities import C, NUM_EXPRESSIONS, matched_beta, product_counts


def _report(num: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {description}")
    assert ok, f"criterion {num:02d}: {description}"


def test_criterion_01_reference_values():
    """All 256 expression values match the shipped reference exactly."""
    reference = np.array(cli.load_reference_table()["values"], dtype=float)
    start = time.perf_counter()
    sixteenths = np.asarray(product_counts()) @ np.asarray(C).T
    elapsed = time.perf_counter() - start
    mismatches = int(np.count_nonzero(sixteenths != 16 * reference))
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        1,
        ok,
        f"256 expression values match the reference exactly, in integer "
        f"sixteenths ({mismatches} mismatches), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_deterministic_maxima():
    """Brute force over all 4096 strategies gives exactly 7, per expression."""
    start = time.perf_counter()
    bounds = [max(polytope.vertex_values(k)) for k in range(NUM_EXPRESSIONS)]
    elapsed = time.perf_counter() - start
    ok = bounds == [7] * NUM_EXPRESSIONS and elapsed < 5.0
    _report(
        2,
        ok,
        f"deterministic maxima {sorted(set(bounds))} == [7] for all 16 "
        f"expressions, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_03_facet_dimension():
    """Saturating vertices span affine dimension exactly dim(polytope) - 1.

    Both dimensions are ranked directly: all 4095 vertex differences, and
    each expression's own saturators; the certificates must agree."""
    verts = vertex_matrix()
    d = integer_rank(verts[1:] - verts[0])
    polytope_dim, _, _, sat_dim, witnesses = polytope.facets()
    direct = [
        integer_rank(sat[1:] - sat[0])
        for sat in (verts[verts @ np.asarray(C[k]) == 7] for k in range(NUM_EXPRESSIONS))
    ]
    sat_dims = sorted(set(direct))
    ok = (
        d == polytope_dim
        and len(witnesses) == NUM_EXPRESSIONS
        and all(sat_dim == dim == d - 1 for dim in direct)
    )
    _report(
        3,
        ok,
        f"saturator affine dimension {sat_dims} == polytope dim {d} - 1 "
        f"for all 16 expressions (exact integer rank)",
    )


def test_criterion_04_algebraic_maximum_attained():
    """Each expression has algebraic value 9, reached by its matched state."""
    values = []
    for k in range(NUM_EXPRESSIONS):
        ns = polytope.ns_bound(k)  # raises if the matched state misses it
        values.append(ns)
    ok = values == [9] * NUM_EXPRESSIONS
    _report(
        4,
        ok,
        "algebraic maximum 9 attained by the matched Bell product, "
        "all 16 expressions",
    )


def test_criterion_05_swap_class_map():
    """The 16 robot outcomes are uniform and map bijectively onto the
    expressions, each reaching 9 on its resulting Bell product."""
    rows = swap.class_map(swap.DEFAULT_SOURCES)
    # probabilities and reduced states from the dense eight-qubit collapse,
    # each probability count / norm
    dense = dense_swap(swap.DEFAULT_SOURCES)
    uniform = swap.WEIGHT == 1 and all(16 * count == norm for count, norm, _ in dense)
    pure = sum(is_pure(rho, class_state(row)) for row, (_, _, rho) in zip(rows, dense))
    matched = sorted(rows)
    betas = sorted({matched_beta(row) for row in rows})
    ok = uniform and pure == 16 and matched == list(range(16)) and betas == [144]
    _report(
        5,
        ok,
        f"swap map: outcome probabilities exactly 1/16: {uniform}, {pure} of 16 "
        f"reduced states exactly their class's Bell product, bijection onto "
        f"expressions 1..16, betas in sixteenths {betas} == [144]",
    )


def test_criterion_06_premeasurement_marginal(premeasurement_marginal):
    """Before the robot measures, the parties see no correlation at all."""
    marginal = np.asarray(premeasurement_marginal)
    # second route: Born behavior of the partial trace of the dense
    # eight-qubit source state
    dense = partial_trace(eight_qubit_initial(), KEPT_QUBITS)
    born, norm = density_behavior(dense, ALICE_PAIR, BOB_PAIR)
    uniform = bool(np.all(marginal == 16))
    mixed = np.array_equal(16 * dense.entries, dense.norm * np.eye(16, dtype=int))
    route = np.array_equal(256 * born, norm * marginal)
    ok = uniform and mixed and route
    _report(
        6,
        ok,
        f"behavior of (1,3),(6,8) is 1/16 in all 144 entries: {uniform}; the "
        f"dense marginal is exactly I/16: {mixed}; its Born behavior is "
        f"exactly the package's: {route}",
    )


def test_criterion_07_sampled_saturation():
    """1e5 seeded shots: every event saturates its class's expression and
    every per-class estimate equals 9.0 exactly."""
    shots = 100_000
    rows = swap.class_map(swap.DEFAULT_SOURCES)
    codes = sampler.sample_events(shots, 20240501, rows)
    # each event scores +1 on its class's expression if it saturates it and
    # -1 if not, so a class of n events scoring v holds (n - v) / 2 misses
    violations = sum(
        int(counts.sum() - behavior_value(row, counts)) // 2
        for row, counts in zip(rows, event_counts(codes))
    )
    estimates = [
        sampler.estimate_beta(counts, row)[:2]
        for row, counts in zip(rows, sampler.class_counts(codes))
    ]
    ok = violations == 0 and all(num == 9 * L for num, L in estimates)
    _report(
        7,
        ok,
        f"{shots} shots: {violations} saturation violations, per-class "
        f"estimates {sorted({num / L for num, L in estimates})} == [9.0] exactly",
    )


def test_criterion_08_measurement_order_invariance():
    """Measuring the robot before or after the parties gives the same joint
    distribution over (r1, r2, a, b) for every setting pair."""
    state = source_product(*swap.DEFAULT_SOURCES)
    labels = state.labels
    robot1 = bell_projectors(ROBOT_PAIRS[0], labels)
    robot2 = bell_projectors(ROBOT_PAIRS[1], labels)
    alice, bob = party_projectors(ALICE_PAIR, BOB_PAIR, labels)
    # the same state collapsed robot first, [3x + y, r1, r2, a, b], in
    # integer counts over one norm
    robot_first_table, norm = protocol_joint_table(swap.DEFAULT_SOURCES)
    robot_first_table = robot_first_table.reshape(9, 4, 4, 4, 4)
    agree = 0
    for x in range(3):
        for y in range(3):
            robot_last, last_norm = sequential_joint_distribution(
                state, [alice[x], bob[y], robot1, robot2]
            )
            agree += last_norm == norm and np.array_equal(
                robot_first_table[3 * x + y], robot_last.transpose(2, 3, 0, 1)
            )
    ok = agree == 9
    _report(
        8,
        ok,
        f"robot-first and robot-last joint distributions agree exactly for "
        f"{agree} of 9 setting pairs",
    )


def test_criterion_09_cli_reproducibility(tmp_path, capsys):
    """Identical command invocations produce byte-identical outputs."""
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    args = ["sample", "--shots", "500", "--seed", "31415"]
    assert cli.main(args + ["--out", str(dir_a)]) == 0
    assert cli.main(args + ["--out", str(dir_b)]) == 0

    report_a = tmp_path / "table_a.json"
    report_b = tmp_path / "table_b.json"
    assert cli.main(["verify-table3", "--out", str(report_a)]) == 0
    assert cli.main(["verify-table3", "--out", str(report_b)]) == 0
    capsys.readouterr()

    same = (
        (dir_a / "events.csv").read_bytes() == (dir_b / "events.csv").read_bytes()
        and (dir_a / "summary.json").read_bytes()
        == (dir_b / "summary.json").read_bytes()
        and report_a.read_bytes() == report_b.read_bytes()
    )
    ok = same and json.loads(report_a.read_text())["ok"] is True
    with capsys.disabled():
        _report(
            9,
            ok,
            "repeated sample and verify-table3 invocations are byte-identical",
        )
