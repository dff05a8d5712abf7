"""Entanglement swapping: the robot's Bell measurements and the class map.

Two sources emit four Bell pairs on qubits (1,2), (3,4), (5,6), (7,8).
A robot measures the Bell basis on qubits (2,5) and (4,7), which leaves
(1,6) and (3,8) in a product of two Bell states even though those qubits
never interacted.  Each of the 16 robot outcomes occurs with probability
1/16 and selects one such product, which maximally violates exactly one
of the sixteen Bell expressions.

Nothing here builds the eight-qubit state.  A Bell state is named by its
Pauli frame (x, z) in GF(2)^2, the state X^x Z^z on the first qubit of
Phi+, and held as the int i = 2x + z: 0, 1, 2 and 3 are Phi+, Phi-, Psi+
and Psi-.  Only the CLI names them, by two-letter codes.  A product of
two Bell states (first, second) is row 4 * first + second of the
sixteen, in the order of the reference table, and it is the nonlocal box
of the expression of the same row of ``inequalities.C``.  Entanglement
swapping adds frames: swapping (1,2) in frame s with (5,6) in frame t,
with robot result r on (2,5), leaves (1,6) in frame s + t + r (Aaronson
and Gottesman, PRA 70, 052328 (2004)), the XOR of the three ints.  Qubits 2 and 5 are halves of
two Bell pairs, so they are jointly maximally mixed and each of the four
results has probability 1/4.  The tests check both facts against the
dense collapse of the eight-qubit state.

A robot outcome (r1, r2) is its class c = 4 * r1 + r2, and the class map
is the tuple of the sixteen rows that the classes leave.  Every class has
the weight ``WEIGHT``, an integer number of sixteenths, and only the
CLI's ``sig12`` makes a float of it.
"""

DEFAULT_SOURCES = (3, 3)  # SM,SM: both sources emit singlets
WEIGHT = 1  # every robot outcome's probability, in sixteenths


def swapped_pair(left: int, right: int, robot: int) -> int:
    """Bell state of the outer qubits after a Bell measurement on the inner ones.

    ``left`` and ``right`` are the two swapped pairs, ``robot`` the result
    on their inner qubits; the outer pair's frame is the GF(2) sum of the
    three frames.
    """
    return left ^ right ^ robot


def class_map(sources: tuple[int, int]) -> tuple[int, ...]:
    """The row of the Bell product each of the 16 robot outcomes leaves.

    Entry c = 4 * r1 + r2 is the class of the robot results r1 on (2,5)
    and r2 on (4,7).  The measurement on (2,5) swaps (1,2) with (5,6), and
    the one on (4,7) swaps (3,4) with (7,8).  Both sources emit the same
    labels, so each swap adds a source frame to itself, which cancels: the
    product left on (1,6) x (3,8) is the robot outcome itself, for every
    source choice, and every outcome has probability exactly 1/16.
    """
    s1, s2 = sources
    return tuple(
        4 * swapped_pair(s1, s1, r1) + swapped_pair(s2, s2, r2)
        for r1 in range(4)
        for r2 in range(4)
    )

