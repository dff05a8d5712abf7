"""Entanglement swapping: the robot's Bell measurements and the class map.

Two sources emit four Bell pairs on qubits (1,2), (3,4), (5,6), (7,8).
A robot measures the Bell basis on qubits (2,5) and (4,7), which leaves
(1,6) and (3,8) in a product of two Bell states even though those qubits
never interacted.  Each of the 16 robot outcomes occurs with probability
1/16 and selects one such product, which maximally violates exactly one
of the sixteen Bell expressions.

Nothing here builds the eight-qubit state.  Every Bell state is a Pauli
frame (x, z) in GF(2)^2, the state X^x Z^z on the first qubit of Phi+,
and entanglement swapping adds frames: swapping (1,2) in frame s with
(5,6) in frame t, with robot result r on (2,5), leaves (1,6) in frame
s + t + r (Aaronson and Gottesman, PRA 70, 052328 (2004)).  Qubits 2 and
5 are halves of two Bell pairs, so they are jointly maximally mixed and
each of the four results has probability 1/4.  The tests check both
facts against the dense collapse of the eight-qubit state.

``RobotOutcome`` and ``ClassMapEntry`` are named tuples: they compare,
hash and unpack as plain tuples of their fields.  Weights and values are
integer sixteenths; only the CLI's ``sig12`` makes floats of them.
"""

from __future__ import annotations

from collections import namedtuple

from . import states
from .inequalities import coefficients, dot, product_counts
from .states import BELL_ORDER, FRAMES, BellLabel

DEFAULT_SOURCES = (BellLabel.PSI_MINUS, BellLabel.PSI_MINUS)

_LABEL_OF_FRAME = {frame: label for label, frame in FRAMES.items()}


# Bell results of the robot's two measurements, on (2,5) then (4,7), in class order.
RobotOutcome = namedtuple("RobotOutcome", "first second")
ROBOT_OUTCOMES = tuple(RobotOutcome(r1, r2) for r1 in BELL_ORDER for r2 in BELL_ORDER)


# One class of the map: the robot's outcome, the Bell product it leaves on
# (1,6) x (3,8), the expression that product saturates, and its weight: the
# outcome's probability in integer sixteenths.
ClassMapEntry = namedtuple("ClassMapEntry", "outcome resulting_state matched_inequality weight")


def swapped_pair(left: BellLabel, right: BellLabel, robot: BellLabel) -> BellLabel:
    """Bell state of the outer qubits after a Bell measurement on the inner ones.

    ``left`` and ``right`` are the two swapped pairs, ``robot`` the result
    on their inner qubits; the outer pair's frame is the GF(2) sum of the
    three frames.
    """
    (lx, lz), (rx, rz), (mx, mz) = FRAMES[left], FRAMES[right], FRAMES[robot]
    return _LABEL_OF_FRAME[(lx ^ rx ^ mx, lz ^ rz ^ mz)]


def class_map(
    sources: tuple[BellLabel, BellLabel] = DEFAULT_SOURCES,
) -> list[ClassMapEntry]:
    """Robot outcome -> resulting Bell product, for all 16 outcomes.

    The measurement on (2,5) swaps (1,2) with (5,6), and the one on (4,7)
    swaps (3,4) with (7,8).  Both sources emit the same labels, so each
    swap adds a source frame to itself, which cancels: the product left on
    (1,6) x (3,8) is the robot outcome itself, for every source choice,
    and every outcome has probability exactly 1/16.
    """
    first, second = sources
    entries = []
    for outcome in ROBOT_OUTCOMES:
        resulting = (
            swapped_pair(first, first, outcome.first),
            swapped_pair(second, second, outcome.second),
        )
        entries.append(
            ClassMapEntry(
                outcome=outcome,
                resulting_state=resulting,
                matched_inequality=states.product_index(*resulting) + 1,
                weight=1,
            )
        )
    return entries


def matched_beta(entry: ClassMapEntry) -> int:
    """Value of the matched expression on the class's resulting state, in sixteenths."""
    counts = product_counts()[states.product_index(*entry.resulting_state)]
    return dot(counts, coefficients(entry.matched_inequality))

