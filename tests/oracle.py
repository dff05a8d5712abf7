"""Independent second routes to the values the package computes.

The package evaluates every Bell expression as one row of the integer
coefficient matrix ``inequalities.C`` dotted with a 144-entry behavior.
The routes here never touch that matrix: dense cell operators built from
masked observables, scalar sums over one deterministic strategy, the
masked product of one sampled event, and a validated behavior table read
cell by cell.  Tests compare the package against them.

The sampler's integer event codes are decoded here into one record per
event, and the swap protocol's exact joint table is rebuilt by sequential
collapse of the dense eight-qubit state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nlbox.inequalities import mask_pattern, sign_table
from nlbox.observables import (
    MASKS,
    FourOutcomeObservable,
    alice_observable,
    bob_observable,
    mask_value,
)
from nlbox.qla import ATOL_STRUCT, StateVector, embed, expectation, tensor
from nlbox.states import BELL_ORDER, source_product
from nlbox.swap import (
    ALICE_PAIR,
    BOB_PAIR,
    ROBOT_OUTCOMES,
    ROBOT_PAIRS,
    RobotOutcome,
    bell_projectors,
)


def masked_operator(obs: FourOutcomeObservable, mask: str) -> np.ndarray:
    """The +-1-valued observable obtained by masking the outcome bits."""
    if mask not in MASKS:
        raise ValueError(f"invalid mask {mask!r}, expected one of {MASKS}")
    out = np.zeros_like(obs.projectors[0])
    for outcome in range(4):
        out = out + mask_value(outcome, mask) * obs.projectors[outcome]
    return out


def cell_operator(
    i: int,
    j: int,
    alice_pair: tuple[int, int],
    bob_pair: tuple[int, int],
    context: tuple[int, ...],
) -> np.ndarray:
    """Product of the two masked observables of cell (i, j) on a register."""
    alice_mask, bob_mask = mask_pattern(i, j)
    ma = masked_operator(alice_observable(i), alice_mask)
    mb = masked_operator(bob_observable(j), bob_mask)
    return embed(tensor(ma, mb), tuple(alice_pair) + tuple(bob_pair), context)


def correlator_quantum(
    state: StateVector,
    i: int,
    j: int,
    alice_pair: tuple[int, int],
    bob_pair: tuple[int, int],
) -> float:
    """Masked correlator of cell (i, j) on a four-qubit pure state."""
    op = cell_operator(i, j, alice_pair, bob_pair, state.labels)
    return expectation(state, op)


def beta_quantum(
    state: StateVector,
    index: int,
    alice_pair: tuple[int, int],
    bob_pair: tuple[int, int],
) -> float:
    """Value of expression ``index`` on a four-qubit pure state."""
    signs = sign_table(index)
    total = 0.0
    for i in range(3):
        for j in range(3):
            total += signs[i, j] * correlator_quantum(state, i, j, alice_pair, bob_pair)
    return total


def lhv_value(index: int, strategy) -> int:
    """Exact expression value of one deterministic strategy."""
    signs = sign_table(index)
    total = 0
    for i in range(3):
        for j in range(3):
            alice_mask, bob_mask = mask_pattern(i, j)
            total += int(signs[i, j]) * mask_value(
                strategy.alice[i], alice_mask
            ) * mask_value(strategy.bob[j], bob_mask)
    return total


@dataclass(frozen=True)
class EventRecord:
    """One full run: settings, local outcomes, and the robot's Bell results."""

    run_id: int
    alice_setting: int
    alice_outcome: int
    bob_setting: int
    bob_outcome: int
    robot: RobotOutcome


def decode(codes) -> list[EventRecord]:
    """One record per event code 256*(3x + y) + 16*(4*r1 + r2) + 4a + b."""
    events = []
    for run_id, code in enumerate(int(c) for c in codes):
        cell, rest = divmod(code, 256)
        r, ab = divmod(rest, 16)
        x, y = divmod(cell, 3)
        a, b = divmod(ab, 4)
        r1, r2 = divmod(r, 4)
        robot = RobotOutcome(BELL_ORDER[r1], BELL_ORDER[r2])
        events.append(EventRecord(run_id, x, a, y, b, robot))
    return events


def sort_events(events: list[EventRecord]) -> dict[RobotOutcome, list[EventRecord]]:
    """Partition events by robot outcome; all 16 classes are always present."""
    classes: dict[RobotOutcome, list[EventRecord]] = {
        outcome: [] for outcome in ROBOT_OUTCOMES
    }
    for event in events:
        classes[event.robot].append(event)
    return classes


def behavior_counts(events: list[EventRecord]) -> np.ndarray:
    """Event counts at the behavior columns 16*(3x + y) + 4a + b."""
    counts = np.zeros(144, dtype=np.int64)
    for e in events:
        cell = 3 * e.alice_setting + e.bob_setting
        counts[16 * cell + 4 * e.alice_outcome + e.bob_outcome] += 1
    return counts


def sequential_joint_distribution(state: StateVector, projector_sets) -> np.ndarray:
    """Exact joint distribution of sequential projective measurements."""
    shape = (4,) * len(projector_sets)
    out = np.zeros(shape)

    def recurse(vec, prob, prefix):
        depth = len(prefix)
        if depth == len(projector_sets):
            out[prefix] = prob
            return
        for idx, proj in enumerate(projector_sets[depth]):
            v = proj @ vec
            q = float(np.vdot(vec, v).real)
            if prob * q <= 0.0:
                continue  # the whole subtree stays at probability zero
            recurse(v / np.sqrt(q), prob * q, prefix + (idx,))

    recurse(state.amplitudes, 1.0, ())
    return out


def protocol_joint_table(sources) -> np.ndarray:
    """p(c, a, b | x, y) as [3x + y, 16c + 4a + b], by collapsing the dense
    eight-qubit state: the robot's two Bell measurements, then Alice, then Bob."""
    state = source_product(*sources)
    labels = state.labels
    robot = [bell_projectors(pair, labels) for pair in ROBOT_PAIRS]
    alice = [
        [embed(p, ALICE_PAIR, labels) for p in alice_observable(x).projectors]
        for x in range(3)
    ]
    bob = [
        [embed(p, BOB_PAIR, labels) for p in bob_observable(y).projectors]
        for y in range(3)
    ]
    return np.array(
        [
            sequential_joint_distribution(state, robot + [alice[x], bob[y]]).ravel()
            for x in range(3)
            for y in range(3)
        ]
    )


def event_masked_product(event) -> int:
    """The +-1 product of the masked bits of one event's cell."""
    alice_mask, bob_mask = mask_pattern(event.alice_setting, event.bob_setting)
    return mask_value(event.alice_outcome, alice_mask) * mask_value(
        event.bob_outcome, bob_mask
    )


@dataclass(frozen=True)
class Behavior:
    """Conditional outcome table p(a, b | x, y), indexed [x, y, a, b]."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.shape != (3, 3, 4, 4):
            raise ValueError(f"behavior shape {arr.shape}, expected (3, 3, 4, 4)")
        if arr.min() < -ATOL_STRUCT:
            raise ValueError("behavior has a negative probability")
        sums = arr.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise ValueError("behavior columns are not normalized")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def no_signaling_defect(self) -> float:
        """Largest change of either party's marginal across the other's settings."""
        alice = self.probs.sum(axis=3)  # [x, y, a]
        bob = self.probs.sum(axis=2)  # [x, y, b]
        d_alice = np.max(np.abs(alice - alice[:, :1, :]))
        d_bob = np.max(np.abs(bob - bob[:1, :, :]))
        return float(max(d_alice, d_bob))


def bob_bit_conditionals(behavior: Behavior, i: int, j: int) -> np.ndarray:
    """P(Bob's masked bit = +1 | Alice's outcome) for cell (i, j).

    Entries for Alice outcomes of zero probability are returned as nan.
    On a product of Bell states these conditionals are all 0 or 1: either
    party's full outcome fixes the other's masked bit with certainty.
    """
    _, bob_mask = mask_pattern(i, j)
    cond = np.full(4, np.nan)
    for a in range(4):
        p_a = float(behavior.probs[i, j, a, :].sum())
        if p_a <= ATOL_STRUCT:
            continue
        p_plus = sum(
            behavior.probs[i, j, a, b]
            for b in range(4)
            if mask_value(b, bob_mask) == 1
        )
        cond[a] = p_plus / p_a
    return cond
