"""Seeded event sampling: reproducibility, statistics, and estimation."""

import bisect
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    MASKS,
    MATCHED_PAIRS,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    SIGN_TABLES,
    behavior_value,
    decode,
    dense_behavior,
    event_counts,
    four_qubit_product,
    protocol_joint_table,
)

from nlbox import inequalities, sampler, swap
from nlbox.sampler import BLOCK, class_counts, code_table, estimate_beta, sample_events
from nlbox.swap import DEFAULT_SOURCES, class_map

ROWS = class_map(DEFAULT_SOURCES)
LARGEST_U = math.nextafter(1.0, 0.0)


@pytest.fixture(scope="module")
def table():
    """The default sources' code table, built by the first test that asks,
    so that a ``code_table`` that raises fails those tests, not collection."""
    return code_table(ROWS)


@pytest.fixture(scope="module")
def joint():
    """p(c, a, b | x, y) of the default sources by dense collapse, as integer
    counts [3x + y, 16c + 4a + b] over one norm: (counts, norm)."""
    return protocol_joint_table(DEFAULT_SOURCES)


def sample(shots, seed):
    return sample_events(shots, seed, ROWS)


def chi2_sf(stat: float, df: int) -> float:
    """P(chi-squared with ``df`` degrees of freedom > ``stat``).

    The regularized upper incomplete gamma Q(a, x) at a = df / 2 and
    x = stat / 2: one minus the lower series below a + 1, and the modified
    Lentz continued fraction above it (Numerical Recipes, 6.2).
    """
    a, x = df / 2, stat / 2
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        for n in itertools.count(1):
            term *= x / (a + n)
            total += term
            if term < total * 1e-16:
                return 1 - scale * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in itertools.count(1):
        an, b = -i * (i - a), b + 2
        d = 1 / (an * d + b or tiny)
        c = b + an / c or tiny
        h *= d * c
        if abs(d * c - 1) < 1e-15:
            return scale * h


def replay(monkeypatch, us, rows=ROWS):
    """The codes that sample_events makes of the uniforms ``us``, in order."""
    values = iter(us)

    class Replay:
        def __init__(self, seed):
            pass

        def random(self):
            return next(values, 0.0)

    monkeypatch.setattr(sampler, "random", SimpleNamespace(Random=Replay))
    return sample_events(len(us), 0, rows)


class TestReproducibility:
    def test_identical_seeds_identical_events(self):
        assert sample(300, 7) == sample(300, 7)

    def test_different_seeds_differ(self):
        assert sample(300, 7) != sample(300, 8)

    @settings(max_examples=10)
    @given(st.integers(0, 2**31), st.integers(1, 40))
    def test_prefix_stability(self, seed, shots):
        # extending a sample never rewrites earlier runs
        short = sample(shots, seed)
        long = sample(shots + 17, seed)
        assert long[: len(short)] == short

    @pytest.mark.parametrize(
        "shots", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
    )
    def test_prefix_stability_across_blocks(self, shots):
        long = sample(4 * BLOCK, 2718)
        assert sample(shots, 2718) == long[:shots]

    def test_substreams_are_independent_of_shot_count(self, table):
        # block 1 is drawn from random.Random("123:1") alone: BLOCK
        # uniforms, each picking one of the 1152 codes
        rng = random.Random("123:1")
        block = [table[int(1152 * rng.random())] for _ in range(BLOCK)]
        for shots in (BLOCK + 1, BLOCK + 300, 2 * BLOCK, 2 * BLOCK + 7):
            tail = sample(shots, 123)[BLOCK : 2 * BLOCK]
            assert tail == block[: len(tail)]

    def test_draws_one_uniform_per_run(self, monkeypatch):
        # a sample shorter than a block draws no uniform it does not use
        calls = []

        class Counting(random.Random):
            def random(self):
                calls.append(None)
                return super().random()

        expected = sample(500, 11)
        monkeypatch.setattr(sampler, "random", SimpleNamespace(Random=Counting))
        assert sample(500, 11) == expected
        assert len(calls) == 500


class TestEventValidity:
    def test_fields_in_range(self):
        codes = sample(500, 11)
        assert len(codes) == 500
        assert all(type(code) is int and 0 <= code < 2304 for code in codes)
        for x, y, a, b, r1, r2 in map(decode, codes):
            assert 0 <= x <= 2
            assert 0 <= y <= 2
            assert 0 <= a <= 3
            assert 0 <= b <= 3
            assert 0 <= r1 <= 3 and 0 <= r2 <= 3


class TestStatistics:
    def test_class_frequencies_are_uniform(self):
        shots = 16000
        counts = [sum(row) for row in class_counts(sample(shots, 2024))]
        expected = shots / 16.0
        sigma = math.sqrt(shots * (1 / 16.0) * (15 / 16.0))
        assert all(abs(n - expected) < 5 * sigma for n in counts)

    def test_every_event_saturates_its_class(self):
        # conditioned on the robot's result, each event's signed product
        # equals the sign-table entry of the matched expression: each event
        # scores +-1, so a class scores its size only if every event is +1
        counts = event_counts(sample(4000, 31))
        for row, members in zip(ROWS, counts):
            assert behavior_value(row, members) == members.sum()

    def test_setting_choices_are_uniform(self):
        shots = 18000
        counts = Counter(code // 256 for code in sample(shots, 5))
        expected = shots / 9.0
        sigma = math.sqrt(shots * (1 / 9.0) * (8 / 9.0))
        assert all(abs(counts[cell] - expected) < 5 * sigma for cell in range(9))


class TestEstimation:
    def test_matched_estimates_are_exactly_nine(self):
        codes = sample(20000, 404)
        for row, counts, members in zip(ROWS, class_counts(codes), event_counts(codes)):
            assert counts == members.tolist()
            num, L, grid, empty = estimate_beta(counts, row)
            assert sum(map(sum, grid)) == members.sum() and empty == []
            # per-event saturation makes every cell mean +-1, so the
            # estimate is exact, not merely close
            assert num == 9 * L

    def test_synthetic_single_event_per_cell(self):
        # one hand-built event per cell, each saturating expression 1
        signs = np.asarray(SIGN_TABLES[0])
        events = [0] * 144
        for i in range(3):
            for j in range(3):
                # alice outcome ++ has all masked bits +1, so bob's outcome
                # alone sets the product sign: ++ gives +1, -- gives +1 on
                # mask 11 but -1 on 10/01; pick per cell to hit signs[i, j]
                b = 0
                if signs[i, j] == -1:
                    b = 3 if MASKS[i] != "11" else 1
                events[16 * (3 * i + j) + b] = 1
        # nine events of +-1 each score 9 only if every one saturates
        assert behavior_value(0, events) == 9
        # one event per cell: L = 1, and the numerator is the score 9
        assert estimate_beta(events, 0) == (9, 1, [[1, 1, 1]] * 3, [])

    def test_insufficient_cells_are_reported(self):
        empty = (1, 8)  # cells (0, 1) and (2, 2)
        events = [int(i % 16 == 0 and i // 16 not in empty) for i in range(144)]
        num, L, grid, empty = estimate_beta(events, 0)
        assert num is None
        assert empty == [(0, 1), (2, 2)]
        assert grid == [[1, 0, 1], [1, 1, 1], [1, 1, 0]]

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 10**6), min_size=144, max_size=144), st.integers(0, 15))
    def test_estimate_is_the_float_nearest_the_exact_value(self, counts, k):
        # second route: the same sum in Fractions, rounded once
        row = inequalities.C[k]
        cells = [counts[16 * cell : 16 * cell + 16] for cell in range(9)]
        if not all(map(sum, cells)):
            return
        exact = sum(
            Fraction(sum(c * v for c, v in zip(cell, row[16 * k : 16 * k + 16])), sum(cell))
            for k, cell in enumerate(cells)
        )
        num, L, _, _ = estimate_beta(counts, k)
        assert Fraction(num, L) == exact
        assert num / L == float(exact)

    def test_mismatched_expression_estimates_track_reference(self, reference_doc):
        # events from one class, scored against expressions they do not
        # maximize, must stay within sampling error of the exact values
        ref = np.array(reference_doc["values"], dtype=float)
        members = class_counts(sample(60000, 77))[0]
        row = ROWS[0]
        for k in (1, 6, 15):
            num, L, grid, _ = estimate_beta(members, k)
            # each cell mean has variance at most 1/n; the signed sum over
            # nine cells then has standard error sqrt(sum 1/n_ij)
            se = math.sqrt(sum(1.0 / n for cells in grid for n in cells))
            assert abs(num / L - ref[row, k]) < 5 * se


class TestEstimatorAgainstBehavior:
    def test_estimate_converges_to_behavior_value(self):
        # independent oracle: draw settings and outcomes straight from the
        # behavior table of the matched state, then compare the estimator
        # with the exact behavior value of a different expression
        behavior = np.asarray(inequalities.product_counts()[0]) / 16
        rng = np.random.default_rng(900913)
        n = 90000
        flat = behavior.reshape(9, 16)
        # all n cells in one draw, then each cell's outcomes in one draw
        cells = rng.integers(9, size=n)
        drawn = np.zeros(144, dtype=np.int64)
        for cell in range(9):
            n_cell = int(np.count_nonzero(cells == cell))
            ab = rng.choice(16, size=n_cell, p=flat[cell] / flat[cell].sum())
            drawn[16 * cell : 16 * cell + 16] = np.bincount(ab, minlength=16)
        num, L, grid, _ = estimate_beta(drawn.tolist(), 1)
        born, norm = dense_behavior(four_qubit_product(PHI_PLUS, PHI_PLUS), *MATCHED_PAIRS)
        want = behavior_value(1, born) / norm
        se = math.sqrt(sum(1.0 / n for cells in grid for n in cells))
        assert abs(num / L - want) < 5 * se


class TestExactTable:
    def test_rows_are_distributions(self, joint, table):
        # the dense collapse's rows: every entry is exactly 0 or 1/128, 128
        # of them positive, and the code table lists each row's positive columns
        counts, norm = joint
        assert counts.shape == (9, 256)
        assert set(np.unique(128 * counts)) == {0, norm}
        assert np.all(np.count_nonzero(counts, axis=1) == 128)
        support = [256 * cell + col for cell, col in zip(*np.nonzero(counts))]
        assert list(table) == support
        assert len(table) == 1152

    @pytest.mark.parametrize(
        "sources",
        [
            (PSI_MINUS, PSI_MINUS),
            (PHI_MINUS, PHI_PLUS),
        ],
    )
    def test_largest_variate_picks_a_possible_outcome(self, monkeypatch, sources):
        rows = class_map(sources)
        table = code_table(rows)
        # the largest variate below 1 reads the last entry of the table,
        # an outcome of cell (2, 2) that the class's behavior allows
        assert replay(monkeypatch, [LARGEST_U, 0.0], rows) == [table[1151], table[0]]
        cell, rest = divmod(table[1151], 256)
        c, ab = divmod(rest, 16)
        behavior = inequalities.product_counts()[rows[c]]
        assert cell == 8 and behavior[16 * cell + ab] > 0

    def test_floor_draw_is_the_contract_truncation(self, monkeypatch, table):
        # contract 3 reads entry int(1152 u) and the sampler computes
        # floor(u * 1152.0): they must agree at 0, at LARGEST_U, at every
        # bucket edge k/1152 and at both float neighbours of each edge
        edges = [k / 1152 for k in range(1153)]
        u = [0.0, LARGEST_U, *edges[:-1]]
        u += [math.nextafter(e, 0.0) for e in edges[1:]]
        u += [math.nextafter(e, 1.0) for e in edges[:-1]]
        assert all(0.0 <= v < 1.0 for v in u) and len(set(u)) == 3 * 1152
        assert [math.floor(v * 1152.0) for v in u] == [int(1152 * v) for v in u]
        assert replay(monkeypatch, u) == [table[int(1152 * v)] for v in u]

    @pytest.mark.parametrize(
        "weight, rows",
        [
            # robot weight 2/16 on every class: its outcomes are 1/64
            (2, ROWS),
            # a class listed twice: 136 outcomes of 1/128 per cell
            (1, (*ROWS, ROWS[0])),
        ],
        ids=["probability", "duplicate"],
    )
    def test_a_table_off_the_premise_is_an_error(self, monkeypatch, weight, rows):
        monkeypatch.setattr(swap, "WEIGHT", weight)
        with pytest.raises(RuntimeError, match="not 1/128 on 128 outcomes"):
            code_table(rows)

    def test_lookup_is_the_inverse_cdf(self, monkeypatch, joint):
        # second route: the flattened joint table of the dense collapse, in
        # exact counts of 1/1152, searched at the exact rational 1152 u; the
        # bucket edge 1/128 is a float, so 1152 u is exact there
        counts, norm = joint
        units, rest = np.divmod(128 * counts.ravel(), norm)
        assert not rest.any()
        cum = list(itertools.accumulate(int(n) for n in units))
        assert cum[-1] == 1152
        rng = random.Random(5)
        u = [0.0, 1 / 128, 0.5, LARGEST_U]
        u += [(i + 0.5) / 1152 for i in range(1152)] + [rng.random() for _ in range(20000)]
        want = [bisect.bisect_right(cum, 1152 * Fraction(v)) for v in u]
        assert replay(monkeypatch, u) == want

    def test_sampled_table_fits_the_dense_collapse(self, joint):
        # independent route: the full (x, y, r1, r2, a, b) table from
        # sequential collapse of the eight-qubit state, uniform settings
        collapse, norm = joint
        exact = collapse.ravel() / (9 * norm)
        positive = collapse.ravel() > 0
        assert positive.sum() == 1152
        shots = 115_200  # 100 expected events in each positive cell
        counts = Counter(sample(shots, 20261017))
        observed = np.array([counts[code] for code in range(exact.size)])
        assert observed[~positive].sum() == 0
        expected = shots * exact[positive] / exact[positive].sum()
        statistic = float(((observed[positive] - expected) ** 2 / expected).sum())
        p_value = chi2_sf(statistic, int(positive.sum()) - 1)
        assert p_value > 1e-3
