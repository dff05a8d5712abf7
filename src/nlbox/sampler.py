"""Seeded simulation of the full run: robot swap, then local measurements.

Reproducibility contract: run ``k`` draws from its own substream, derived
from the user seed as SeedSequence(seed, spawn_key=(k,)).  Within a run
the draw order is fixed: Alice's setting, Bob's setting, the robot's two
Bell results, Alice's outcome, Bob's outcome.  Identical (shots, seed,
sources) therefore reproduce identical event lists, and adding shots
never changes earlier runs.

All outcome draws compare a uniform variate against cumulative Born
probabilities.  The robot's measurements commute with the local ones
(disjoint qubits), so simulating the robot first is a faithful ordering;
the distributions are precomputed once per source choice and are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states, swap
from .inequalities import coefficients, state_behavior
from .qla import StateVector
from .states import BELL_ORDER, BellLabel
from .swap import ROBOT_OUTCOMES, RobotOutcome


@dataclass(frozen=True)
class EventRecord:
    """One full run: settings, local outcomes, and the robot's Bell results."""

    run_id: int
    alice_setting: int
    alice_outcome: int
    bob_setting: int
    bob_outcome: int
    robot: RobotOutcome


class InsufficientSamplesError(ValueError):
    """An estimate needs at least one event in every cell of the 3x3 grid."""

    def __init__(self, cells: list[tuple[int, int]]):
        self.cells = cells
        super().__init__(f"no events in cells {cells}")


def run_rng(seed: int, run_id: int) -> np.random.Generator:
    """The dedicated random substream of one run."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run_id,)))
    )


class ProtocolTables:
    """Exact Born distributions of every stage, for one source choice."""

    def __init__(self, sources: tuple[BellLabel, BellLabel] = swap.DEFAULT_SOURCES):
        self.sources = sources
        initial = states.source_product(*sources)

        # Robot stage: marginal of the (2,5) result and the conditional
        # distribution of the (4,7) result given it.
        joint = swap.robot_outcome_distribution(initial)
        marginal = joint.sum(axis=1)
        conditional = joint / marginal[:, None]
        self.robot_first_cum = np.cumsum(marginal)
        self.robot_second_cum = np.cumsum(conditional, axis=1)

        # Post-robot products on (1,3,6,8), indexed by 4*first + second.
        self.entries = swap.class_map(sources)
        self.class_states: list[StateVector] = [
            swap.resulting_state_vector(e) for e in self.entries
        ]

        # Alice's outcome distribution and Bob's conditional on her result,
        # read off the class behaviors p(a, b | x, y).  Alice's marginal is
        # taken at Bob's setting 0; no signaling makes every setting agree.
        behaviors = np.array(
            [
                state_behavior(state, swap.ALICE_PAIR, swap.BOB_PAIR)
                for state in self.class_states
            ]
        ).reshape(16, 3, 3, 4, 4)
        alice = behaviors[:, :, 0].sum(axis=3)  # [c, x, a]
        self.alice_cum = np.cumsum(alice, axis=2)
        self.bob_cum = np.ones((16, 3, 4, 3, 4))
        for c, x, a in zip(*np.nonzero(alice > 0.0)):
            self.bob_cum[c, x, a] = np.cumsum(
                behaviors[c, x, :, a] / alice[c, x, a], axis=1
            )


def _pick(cum: np.ndarray, rand: float) -> int:
    """Smallest index whose cumulative probability exceeds the variate."""
    return int(min(np.searchsorted(cum, rand, side="right"), cum.size - 1))


def sample_events(
    shots: int,
    seed: int,
    sources: tuple[BellLabel, BellLabel] = swap.DEFAULT_SOURCES,
    tables: ProtocolTables | None = None,
) -> list[EventRecord]:
    """Simulate ``shots`` full runs of the protocol."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if tables is None or tables.sources != sources:
        tables = ProtocolTables(sources)
    events = []
    for run_id in range(shots):
        rng = run_rng(seed, run_id)
        x = int(rng.integers(0, 3))
        y = int(rng.integers(0, 3))
        r1 = _pick(tables.robot_first_cum, rng.random())
        r2 = _pick(tables.robot_second_cum[r1], rng.random())
        c = 4 * r1 + r2
        a = _pick(tables.alice_cum[c, x], rng.random())
        b = _pick(tables.bob_cum[c, x, a, y], rng.random())
        events.append(
            EventRecord(
                run_id=run_id,
                alice_setting=x,
                alice_outcome=a,
                bob_setting=y,
                bob_outcome=b,
                robot=RobotOutcome(BELL_ORDER[r1], BELL_ORDER[r2]),
            )
        )
    return events


def sort_events(events: list[EventRecord]) -> dict[RobotOutcome, list[EventRecord]]:
    """Partition events by robot outcome; all 16 classes are always present."""
    classes: dict[RobotOutcome, list[EventRecord]] = {
        outcome: [] for outcome in ROBOT_OUTCOMES
    }
    for event in events:
        classes[event.robot].append(event)
    return classes


def estimate_beta(
    events: list[EventRecord], index: int
) -> tuple[float, np.ndarray]:
    """Estimate an expression value from events of a single class.

    Returns the estimate and the 3x3 matrix of per-cell event counts.
    Raises InsufficientSamplesError when any cell has no event at all;
    an empty cell cannot be silently skipped without biasing the sum.
    """
    columns = [
        16 * (3 * e.alice_setting + e.bob_setting) + 4 * e.alice_outcome + e.bob_outcome
        for e in events
    ]
    frequencies = np.bincount(np.array(columns, dtype=np.int64), minlength=144)
    counts = frequencies.reshape(3, 3, 16).sum(axis=2)
    empty = [(i, j) for i in range(3) for j in range(3) if counts[i, j] == 0]
    if empty:
        raise InsufficientSamplesError(empty)
    signed = (coefficients(index) * frequencies).reshape(3, 3, 16).sum(axis=2)
    beta_hat = float(np.sum(signed / counts))
    return beta_hat, counts
