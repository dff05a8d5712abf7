"""Seeded event sampling: reproducibility, statistics, and estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    MATCHED_PAIRS,
    EventRecord,
    behavior_counts,
    beta_quantum,
    decode,
    event_masked_product,
    four_qubit_product,
    protocol_joint_table,
    sort_events,
)
from scipy.stats import chisquare

from nlbox import inequalities
from nlbox.sampler import (
    BLOCK,
    InsufficientSamplesError,
    ProtocolTables,
    class_counts,
    estimate_beta,
    protocol_tables,
    sample_events,
)
from nlbox.states import BellLabel
from nlbox.swap import ROBOT_OUTCOMES

TABLES = protocol_tables()


def sample(shots, seed):
    return sample_events(shots, seed)


class TestReproducibility:
    def test_identical_seeds_identical_events(self):
        assert np.array_equal(sample(300, 7), sample(300, 7))

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample(300, 7), sample(300, 8))

    @settings(max_examples=10)
    @given(st.integers(0, 2**31), st.integers(1, 40))
    def test_prefix_stability(self, seed, shots):
        # extending a sample never rewrites earlier runs
        short = sample(shots, seed)
        long = sample(shots + 17, seed)
        assert np.array_equal(long[: len(short)], short)

    @pytest.mark.parametrize(
        "shots", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
    )
    def test_prefix_stability_across_blocks(self, shots):
        long = sample(4 * BLOCK, 2718)
        assert np.array_equal(sample(shots, 2718), long[:shots])

    def test_substreams_are_independent_of_shot_count(self):
        # block 1 is drawn from SeedSequence(seed, spawn_key=(1,)) alone:
        # BLOCK setting cells, then BLOCK uniforms, then the inverse CDF
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(123, spawn_key=(1,)))
        )
        cells = rng.integers(0, 9, size=BLOCK)
        u = rng.random(BLOCK)
        block = 256 * cells + TABLES.outcomes(cells, u)
        for shots in (BLOCK + 1, BLOCK + 300, 2 * BLOCK, 2 * BLOCK + 7):
            tail = sample(shots, 123)[BLOCK : 2 * BLOCK]
            assert np.array_equal(tail, block[: tail.size])

    def test_tables_reuse_matches_fresh_computation(self):
        # the cached tables that sample_events draws from are the ones a
        # fresh construction gives
        fresh = ProtocolTables()
        assert np.array_equal(fresh.joint, protocol_tables().joint)
        assert np.array_equal(fresh.support, protocol_tables().support)

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            sample_events(0, 1)


class TestEventValidity:
    def test_fields_in_range(self):
        codes = sample(500, 11)
        assert codes.dtype == np.int16
        events = decode(codes)
        assert [e.run_id for e in events] == list(range(500))
        for e in events:
            assert 0 <= e.alice_setting <= 2
            assert 0 <= e.bob_setting <= 2
            assert 0 <= e.alice_outcome <= 3
            assert 0 <= e.bob_outcome <= 3
            assert e.robot in ROBOT_OUTCOMES

    def test_sort_events_partitions(self):
        events = decode(sample(800, 3))
        classes = sort_events(events)
        assert set(classes) == set(ROBOT_OUTCOMES)
        assert sum(len(v) for v in classes.values()) == len(events)
        for outcome, members in classes.items():
            assert all(e.robot == outcome for e in members)

    def test_sort_events_empty_input(self):
        classes = sort_events([])
        assert set(classes) == set(ROBOT_OUTCOMES)
        assert all(v == [] for v in classes.values())


class TestStatistics:
    def test_class_frequencies_are_uniform(self):
        shots = 16000
        counts = class_counts(sample(shots, 2024)).sum(axis=1)
        expected = shots / 16.0
        sigma = math.sqrt(shots * (1 / 16.0) * (15 / 16.0))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_every_event_saturates_its_class(self):
        # conditioned on the robot's result, each event's signed product
        # equals the sign-table entry of the matched expression
        classes = sort_events(decode(sample(4000, 31)))
        by_outcome = {e.outcome: e for e in TABLES.entries}
        for outcome, members in classes.items():
            signs = np.asarray(inequalities.sign_table(by_outcome[outcome].matched_inequality))
            for event in members:
                i, j = event.alice_setting, event.bob_setting
                assert event_masked_product(event) == signs[i, j]

    def test_setting_choices_are_uniform(self):
        shots = 18000
        counts = np.bincount(sample(shots, 5) // 256, minlength=9)
        expected = shots / 9.0
        sigma = math.sqrt(shots * (1 / 9.0) * (8 / 9.0))
        assert np.all(np.abs(counts - expected) < 5 * sigma)


class TestEstimation:
    def test_matched_estimates_are_exactly_nine(self):
        codes = sample(20000, 404)
        classes = sort_events(decode(codes))
        for entry, row in zip(TABLES.entries, class_counts(codes)):
            members = classes[entry.outcome]
            np.testing.assert_array_equal(row, behavior_counts(members))
            beta_hat, counts = estimate_beta(row, entry.matched_inequality)
            assert counts.sum() == len(members)
            # per-event saturation makes every cell mean +-1, so the
            # estimate is exact, not merely close
            assert beta_hat == 9.0

    def test_synthetic_single_event_per_cell(self):
        # one hand-built event per cell, each saturating expression 1
        signs = np.asarray(inequalities.sign_table(1))
        outcome = ROBOT_OUTCOMES[0]
        events = []
        for i in range(3):
            for j in range(3):
                # alice outcome ++ has all masked bits +1, so bob's outcome
                # alone sets the product sign: ++ gives +1, -- gives +1 on
                # mask 11 but -1 on 10/01; pick per cell to hit signs[i, j]
                want = signs[i, j]
                b = 0
                if want == -1:
                    _, bob_mask = inequalities.mask_pattern(i, j)
                    b = 3 if bob_mask != "11" else 1
                event = EventRecord(0, i, 0, j, b, outcome)
                assert event_masked_product(event) == want
                events.append(event)
        beta_hat, counts = estimate_beta(behavior_counts(events), 1)
        assert beta_hat == 9.0
        np.testing.assert_array_equal(counts, np.ones((3, 3), dtype=np.int64))

    def test_insufficient_cells_are_reported(self):
        outcome = ROBOT_OUTCOMES[0]
        events = [
            EventRecord(0, i, 0, j, 0, outcome)
            for i in range(3)
            for j in range(3)
            if (i, j) != (2, 2)
        ]
        with pytest.raises(InsufficientSamplesError) as exc:
            estimate_beta(behavior_counts(events), 1)
        assert exc.value.cells == [(2, 2)]
        grid = np.ones((3, 3), dtype=np.int64)
        grid[2, 2] = 0
        np.testing.assert_array_equal(exc.value.grid, grid)

    def test_mismatched_expression_estimates_track_reference(self, reference_doc):
        # events from one class, scored against expressions they do not
        # maximize, must stay within sampling error of the exact values
        ref = np.array(reference_doc["values"], dtype=float)
        members = class_counts(sample(60000, 77))[0]
        entry = TABLES.entries[0]
        assert entry.outcome == ROBOT_OUTCOMES[0]
        row = entry.matched_inequality - 1
        for index in (2, 7, 16):
            beta_hat, counts = estimate_beta(members, index)
            # each cell mean has variance at most 1/n; the signed sum over
            # nine cells then has standard error sqrt(sum 1/n_ij)
            se = math.sqrt(float(np.sum(1.0 / counts)))
            assert abs(beta_hat - ref[row, index - 1]) < 5 * se


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
        beta_hat, counts = estimate_beta(drawn, 2)
        state = four_qubit_product(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        want = beta_quantum(state, 2, *MATCHED_PAIRS)
        se = math.sqrt(float(np.sum(1.0 / counts)))
        assert abs(beta_hat - want) < 5 * se


class TestExactTable:
    def test_rows_are_distributions(self):
        assert TABLES.joint.shape == (9, 256)
        # every entry is 0 or 1/128, so the rows sum to 1 exactly
        assert set(np.unique(TABLES.joint)) == {0.0, 1 / 128}
        assert np.all(TABLES.joint.sum(axis=1) == 1.0)
        # the lookup table lists each row's 128 positive columns in order
        assert TABLES.support.shape == (9, 128)
        assert np.all(np.diff(TABLES.support, axis=1) > 0)
        assert np.all(TABLES.joint[np.arange(9)[:, None], TABLES.support] == 1 / 128)

    @pytest.mark.parametrize(
        "sources",
        [
            (BellLabel.PSI_MINUS, BellLabel.PSI_MINUS),
            (BellLabel.PHI_MINUS, BellLabel.PHI_PLUS),
        ],
    )
    def test_largest_variate_picks_a_possible_outcome(self, sources):
        tables = protocol_tables(sources)
        cells = np.arange(9)
        picked = tables.outcomes(cells, np.full(9, np.nextafter(1.0, 0.0)))
        # the largest variate below 1 reads the last column of the lookup
        assert np.array_equal(picked, tables.support[:, 127])
        assert np.all(tables.joint[cells, picked] > 0.0)

    def test_lookup_is_the_inverse_cdf(self):
        # second route: binary search over each row's cumulative sum
        u = np.concatenate(
            [[0.0, 1 / 128, 0.5, np.nextafter(1.0, 0.0)], np.random.default_rng(5).random(20000)]
        )
        cells = np.arange(u.size) % 9
        cum = np.cumsum(TABLES.joint, axis=1)
        want = np.empty(u.size, dtype=np.int64)
        for cell in range(9):
            hit = cells == cell
            want[hit] = np.searchsorted(cum[cell], u[hit], side="right")
        assert np.array_equal(TABLES.outcomes(cells, u), want)

    def test_sampled_table_fits_the_dense_collapse(self):
        # independent route: the full (x, y, r1, r2, a, b) table from
        # sequential collapse of the eight-qubit state, uniform settings
        exact = protocol_joint_table(TABLES.sources).ravel() / 9.0
        positive = exact > 1e-12
        assert positive.sum() == 1152
        shots = 115_200  # 100 expected events in each positive cell
        observed = np.bincount(sample(shots, 20261017), minlength=exact.size)
        assert observed[~positive].sum() == 0
        expected = shots * exact[positive] / exact[positive].sum()
        _, p_value = chisquare(observed[positive], expected)
        assert p_value > 1e-3
