"""Seeded event sampling: reproducibility, statistics, and estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import beta_quantum, event_masked_product

from nlbox import inequalities, states
from nlbox.sampler import (
    EventRecord,
    InsufficientSamplesError,
    ProtocolTables,
    estimate_beta,
    run_rng,
    sample_events,
    sort_events,
)
from nlbox.states import BELL_ORDER, BellLabel
from nlbox.swap import ROBOT_OUTCOMES, RobotOutcome

TABLES = ProtocolTables()


def sample(shots, seed):
    return sample_events(shots, seed, tables=TABLES)


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

    def test_substreams_are_independent_of_shot_count(self):
        rng_a = run_rng(123, 5)
        rng_b = run_rng(123, 5)
        assert rng_a.random() == rng_b.random()

    def test_tables_reuse_matches_fresh_computation(self):
        direct = sample_events(50, 99)
        reused = sample_events(50, 99, tables=TABLES)
        assert direct == reused

    def test_rejects_nonpositive_shots(self):
        with pytest.raises(ValueError):
            sample_events(0, 1)


class TestEventValidity:
    def test_fields_in_range(self):
        events = sample(500, 11)
        assert [e.run_id for e in events] == list(range(500))
        for e in events:
            assert 0 <= e.alice_setting <= 2
            assert 0 <= e.bob_setting <= 2
            assert 0 <= e.alice_outcome <= 3
            assert 0 <= e.bob_outcome <= 3
            assert e.robot in ROBOT_OUTCOMES

    def test_sort_events_partitions(self):
        events = sample(800, 3)
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
        events = sample(shots, 2024)
        classes = sort_events(events)
        expected = shots / 16.0
        sigma = math.sqrt(shots * (1 / 16.0) * (15 / 16.0))
        for members in classes.values():
            assert abs(len(members) - expected) < 5 * sigma

    def test_every_event_saturates_its_class(self):
        # conditioned on the robot's result, each event's signed product
        # equals the sign-table entry of the matched expression
        events = sample(4000, 31)
        classes = sort_events(events)
        by_outcome = {e.outcome: e for e in TABLES.entries}
        for outcome, members in classes.items():
            signs = inequalities.sign_table(by_outcome[outcome].matched_inequality)
            for event in members:
                i, j = event.alice_setting, event.bob_setting
                assert event_masked_product(event) == signs[i, j]

    def test_setting_choices_are_uniform(self):
        events = sample(18000, 5)
        counts = np.zeros((3, 3))
        for e in events:
            counts[e.alice_setting, e.bob_setting] += 1
        expected = len(events) / 9.0
        sigma = math.sqrt(len(events) * (1 / 9.0) * (8 / 9.0))
        assert np.all(np.abs(counts - expected) < 5 * sigma)


class TestEstimation:
    def test_matched_estimates_are_exactly_nine(self):
        events = sample(20000, 404)
        classes = sort_events(events)
        by_outcome = {e.outcome: e for e in TABLES.entries}
        for outcome, members in classes.items():
            index = by_outcome[outcome].matched_inequality
            beta_hat, counts = estimate_beta(members, index)
            assert counts.sum() == len(members)
            # per-event saturation makes every cell mean +-1, so the
            # estimate is exact, not merely close
            assert beta_hat == 9.0

    def test_synthetic_single_event_per_cell(self):
        # one hand-built event per cell, each saturating expression 1
        signs = inequalities.sign_table(1)
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
        beta_hat, counts = estimate_beta(events, 1)
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
            estimate_beta(events, 1)
        assert exc.value.cells == [(2, 2)]

    def test_mismatched_expression_estimates_track_reference(self, reference_doc):
        # events from one class, scored against expressions they do not
        # maximize, must stay within sampling error of the exact values
        ref = np.array(reference_doc["values"], dtype=float)
        events = sample(60000, 77)
        classes = sort_events(events)
        entry = TABLES.entries[0]
        members = classes[entry.outcome]
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
        state = inequalities.matched_state(1)
        pairs = inequalities.MATCHED_PAIRS
        behavior = inequalities.state_behavior(state, *pairs)
        rng = np.random.default_rng(900913)
        n = 90000
        outcome = ROBOT_OUTCOMES[0]
        events = []
        flat = behavior.reshape(9, 16)
        for run in range(n):
            cell = int(rng.integers(9))
            i, j = divmod(cell, 3)
            ab = int(rng.choice(16, p=flat[cell] / flat[cell].sum()))
            a, b = divmod(ab, 4)
            events.append(EventRecord(run, i, a, j, b, outcome))
        beta_hat, counts = estimate_beta(events, 2)
        want = beta_quantum(state, 2, *pairs)
        se = math.sqrt(float(np.sum(1.0 / counts)))
        assert abs(beta_hat - want) < 5 * se
