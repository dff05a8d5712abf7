"""Entanglement swapping: the robot's Bell measurements and the class map.

Two sources emit four Bell pairs on qubits (1,2), (3,4), (5,6), (7,8).
A robot measures the Bell basis on qubits (2,5) and (4,7), which leaves
(1,6) and (3,8) in a product of two Bell states even though those qubits
never interacted.  Each of the 16 robot outcomes occurs with probability
1/16 and selects one such product, which maximally violates exactly one
of the sixteen Bell expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .inequalities import coefficients, state_behavior
from .qla import (
    DensityMatrix,
    StateVector,
    embed,
    fidelity_with_pure,
    partial_trace,
    projective_measure,
)
from .states import BELL_ORDER, BellLabel

ROBOT_PAIRS = ((2, 5), (4, 7))
ALICE_PAIR = (1, 3)
BOB_PAIR = (6, 8)
KEPT_QUBITS = (1, 3, 6, 8)

DEFAULT_SOURCES = (BellLabel.PSI_MINUS, BellLabel.PSI_MINUS)

_FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class RobotOutcome:
    """Bell results of the robot's two measurements, on (2,5) then (4,7)."""

    first: BellLabel
    second: BellLabel

    @property
    def codes(self) -> tuple[str, str]:
        return self.first.code, self.second.code


ROBOT_OUTCOMES = tuple(
    RobotOutcome(first, second) for first in BELL_ORDER for second in BELL_ORDER
)


@dataclass(frozen=True)
class ClassMapEntry:
    outcome: RobotOutcome
    resulting_state: tuple[BellLabel, BellLabel]
    matched_inequality: int
    probability: float


def bell_projectors(pair: tuple[int, int], context: tuple[int, ...]) -> list[np.ndarray]:
    """The four Bell projectors of a qubit pair, embedded in a register."""
    projs = []
    for label in BELL_ORDER:
        v = states.bell(label, pair).amplitudes
        projs.append(embed(np.outer(v, v.conj()), pair, context))
    return projs


def bell_measurement_pair(
    state: StateVector, rand1: float, rand2: float
) -> tuple[RobotOutcome, StateVector]:
    """Sequential Bell measurements on (2,5) and (4,7) of an 8-qubit state."""
    first_projs = bell_projectors(ROBOT_PAIRS[0], state.labels)
    idx1, post, _ = projective_measure(state, first_projs, rand1)
    second_projs = bell_projectors(ROBOT_PAIRS[1], state.labels)
    idx2, post, _ = projective_measure(post, second_projs, rand2)
    return RobotOutcome(BELL_ORDER[idx1], BELL_ORDER[idx2]), post


def robot_outcome_distribution(
    state: StateVector, first_pair_first: bool = True
) -> np.ndarray:
    """Exact joint distribution over the 16 robot outcomes.

    Computed by sequential collapse; ``first_pair_first`` selects which
    pair is measured first.  The measurements act on disjoint qubits, so
    both orders must agree, which the tests check.
    """
    pairs = ROBOT_PAIRS if first_pair_first else ROBOT_PAIRS[::-1]
    probs = np.zeros((4, 4))
    projs_a = bell_projectors(pairs[0], state.labels)
    projs_b = bell_projectors(pairs[1], state.labels)
    for i, pa in enumerate(projs_a):
        va = pa @ state.amplitudes
        p_i = float(np.vdot(state.amplitudes, va).real)
        if p_i <= 0.0:
            continue
        collapsed = va / np.sqrt(p_i)
        for k, pb in enumerate(projs_b):
            vb = pb @ collapsed
            p_k = float(np.vdot(collapsed, vb).real)
            if first_pair_first:
                probs[i, k] = p_i * p_k
            else:
                probs[k, i] = p_i * p_k
    return probs


def _post_robot_state(
    initial: StateVector, outcome: RobotOutcome
) -> tuple[float, StateVector]:
    """Probability of a robot outcome and the collapsed 8-qubit state."""
    p1 = embed(
        np.outer(
            states.bell(outcome.first, ROBOT_PAIRS[0]).amplitudes,
            states.bell(outcome.first, ROBOT_PAIRS[0]).amplitudes.conj(),
        ),
        ROBOT_PAIRS[0],
        initial.labels,
    )
    p2 = embed(
        np.outer(
            states.bell(outcome.second, ROBOT_PAIRS[1]).amplitudes,
            states.bell(outcome.second, ROBOT_PAIRS[1]).amplitudes.conj(),
        ),
        ROBOT_PAIRS[1],
        initial.labels,
    )
    v = p2 @ (p1 @ initial.amplitudes)
    prob = float(np.vdot(initial.amplitudes, v).real)
    if prob <= 0.0:
        raise RuntimeError(f"robot outcome {outcome} has zero probability")
    return prob, StateVector(v / np.sqrt(prob), initial.labels)


def reduced_pair_product(post: StateVector) -> DensityMatrix:
    """Reduced state of the kept qubits (1,3,6,8) after the robot measured."""
    return partial_trace(post, KEPT_QUBITS)


def identify_bell_product(rho: DensityMatrix) -> tuple[BellLabel, BellLabel]:
    """Match a reduced state on (1,3,6,8) to a Bell product on (1,6)x(3,8).

    Identification requires fidelity at least 1 - 1e-9 against one of the
    sixteen references; anything less raises, since the swap must produce
    an exact Bell product.
    """
    for first, second in states.PRODUCT_LABELS:
        ref = states.bell_product(first, second, (1, 6), (3, 8))
        if fidelity_with_pure(rho, ref) >= 1.0 - _FIDELITY_TOL:
            return first, second
    raise RuntimeError("reduced state matches no Bell-state product")


def class_map(
    sources: tuple[BellLabel, BellLabel] = DEFAULT_SOURCES,
) -> list[ClassMapEntry]:
    """Robot outcome -> resulting Bell product, for all 16 outcomes.

    Works for any source choice because Bell measurements on halves of two
    Bell pairs always produce uniformly random outcomes and leave the
    spectator qubits in a Bell product determined by the outcome.
    """
    initial = states.source_product(*sources)
    entries = []
    for outcome in ROBOT_OUTCOMES:
        prob, post = _post_robot_state(initial, outcome)
        rho = reduced_pair_product(post)
        first, second = identify_bell_product(rho)
        matched = states.product_index(first, second) + 1
        entries.append(
            ClassMapEntry(
                outcome=outcome,
                resulting_state=(first, second),
                matched_inequality=matched,
                probability=prob,
            )
        )
    return entries


def resulting_state_vector(entry: ClassMapEntry) -> StateVector:
    """The four-qubit pure state a class leaves on qubits (1,3,6,8)."""
    first, second = entry.resulting_state
    return states.bell_product(first, second, (1, 6), (3, 8))


def matched_beta(entry: ClassMapEntry) -> float:
    """Value of the matched expression on the class's resulting state."""
    behavior = state_behavior(resulting_state_vector(entry), ALICE_PAIR, BOB_PAIR)
    return float(behavior @ coefficients(entry.matched_inequality))


def premeasurement_marginal(
    sources: tuple[BellLabel, BellLabel] = DEFAULT_SOURCES,
) -> DensityMatrix:
    """Reduced state of (1,3,6,8) before the robot measures anything.

    This marginal is maximally mixed: without the robot's outcomes the
    kept qubits show no correlations at all, so every Bell expression
    averages to zero on it.
    """
    return partial_trace(states.source_product(*sources), KEPT_QUBITS)
