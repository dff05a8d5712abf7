"""The scenario's settings and the sixteen Bell expressions, as integers.

Each party has three settings on its two qubits, with outcomes a in 0..3:
two sign bits, the first in bit 1, a set bit for a minus.  A mask m keeps
the first sign (0b10), the second (0b01) or their product (0b11), so the
masked sign is the GF(2) character chi_m(a) = (-1)^popcount(a & m).  Each
masked observable is a signed two-qubit Pauli string whose first letter
acts on the party's qubit of the first Bell pair: Alice's settings are the
rows of the Mermin-Peres square, Bob's its columns.  The projector onto
outcome a is (1/4) sum_m chi_m(a) P^m over m = 0 and the masks, P^0 = I.

Row k of every table here is expression k + 1 of the paper, and it is
also Bell product k: the product that saturates it.  The sixteen rows are
one expression.  Expression 1 is a signed sum over a 3x3 grid of setting
pairs, ``SIGNS``.  In cell (i, j) Alice measures her setting i and Bob
his setting j; the correlator multiplies Alice's signs masked by the
column mask ``MASKS[j]`` with Bob's signs masked by the row mask
``MASKS[i]``.  Expression k + 1 is expression 1 with Alice's outcome a at
setting i read as a ^ h_i, h = ``flip(k)``, the Pauli frames of product
k.  As chi_m(a ^ h_i) = chi_m(a) chi_m(h_i), that multiplies the sign of
cell (i, j) by chi_m(h_i), m = ``MASKS[j]``.  Expanding the correlators
turns every expression into one integer row of the 16x144 coefficient
matrix ``C`` over the behavior p(a, b | x, y), so each value, quantum,
deterministic or sampled, is a dot product with a behavior.

The Born behaviors of the sixteen Bell-state products are one exact
integer table, :func:`product_counts`, holding 16 p(a, b | x, y), derived
from the parties' signed Pauli strings with no float step.  Row k of it
is row 0 with Alice's outcomes permuted, ``relabel(row, flip(k))``, and
``polytope.facets`` checks that the same permutation takes row 0 of
``C`` to its row k, built from the flipped signs.  Every entry is 0 or 2,
so each product is the nonlocal box of its expression, 16 p = C[k] + 1 on
row k.  Every expression is bounded by 7 for local deterministic models
and by 9 algebraically; each product reaches 9 on exactly one expression,
and the dot products of the rows of ``product_counts()`` with those of
``C`` are 16 times the table of all 256 values.  Every table here is a
tuple of Python int tuples: exact, with no overflow, and immutable by type.
"""

import functools
import itertools
import operator

NUM_EXPRESSIONS = 16
MASKS = (0b10, 0b01, 0b11)
# Masked observables [setting][mask], masks in MASKS order.  Each setting's
# third string is the product of its first two.
ALICE_PAULIS = (("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "YY"))
BOB_PAULIS = (("ZI", "IX", "ZX"), ("IZ", "XI", "XZ"), ("ZZ", "XX", "-YY"))


def mask_value(outcome: int, mask: int) -> int:
    """Sign of an outcome under a mask: (-1)^popcount(outcome & mask)."""
    return (-1) ** (outcome & mask).bit_count()


# Expression 1's sign of cell (x, y), as 3 rows of 3.
SIGNS = ((1, 1, 1), (1, 1, 1), (1, 1, -1))


def coefficient_rows(sign_tables) -> tuple[tuple[int, ...], ...]:
    """Integer coefficient rows over the 144-entry behavior space.

    ``sign_tables`` must hold n 3x3 tables of integers; nothing checks it.
    Row k holds, at column 16*(3x + y) + 4a + b, the sign of cell (x, y)
    times Alice's masked sign of outcome a times Bob's masked sign of
    outcome b, so the row dotted with a behavior p(a, b | x, y) is the
    expression's value on it.  Cell (x, y) masks Alice's outcome with
    ``MASKS[y]`` and Bob's with ``MASKS[x]``.
    """
    bits = [
        [mask_value(a, MASKS[y]) * mask_value(b, MASKS[x]) for a in range(4) for b in range(4)]
        for x, y in itertools.product(range(3), repeat=2)
    ]
    signs = map(itertools.chain.from_iterable, sign_tables)
    return tuple(tuple(s * v for s, cell in zip(row, bits) for v in cell) for row in signs)


def dot(row, behavior) -> int:
    """An integer row dotted with an integer behavior, exactly."""
    return sum(map(operator.mul, row, behavior))


def matched_beta(row: int) -> int:
    """Value of the expression of row ``row`` on the product of that row, in sixteenths."""
    return dot(product_counts()[row], C[row])


# (x, y, a, b) of behavior column 16*(3x + y) + 4a + b, in column order
COLUMNS = tuple(itertools.product(range(3), range(3), range(4), range(4)))


def relabel(row, h: int) -> tuple[int, ...]:
    """``row`` with Alice's outcome a at setting x read as a ^ h_x, h = 16 h_0 + 4 h_1 + h_2."""
    return tuple(
        row[16 * (3 * x + y) + 4 * (a ^ (h >> 4 - 2 * x) & 3) + b] for x, y, a, b in COLUMNS
    )


def flip(k: int) -> int:
    """Alice's relabeling h that takes row 0 to row k, as 16 h_0 + 4 h_1 + h_2.

    Product k is Phi+ (x) Phi+ with X^x1 Z^z1 (x) X^x2 Z^z2 on Alice's
    qubits, (x1, z1) and (x2, z2) being the frames of its two pairs.  Bit 1
    of h_x is set iff that Pauli anticommutes with ``ALICE_PAULIS[x][0]``,
    bit 0 iff it anticommutes with ``ALICE_PAULIS[x][1]``.
    """
    frames = (divmod(k >> 2, 2), divmod(k & 3, 2))
    # a letter anticommutes with X^x Z^z when it is X and z = 1, Y and x ^ z = 1, or Z and x = 1
    bits = [
        sum({"X": z, "Y": x ^ z, "Z": x}.get(p, 0) for p, (x, z) in zip(string, frames)) & 1
        for first, second, _ in ALICE_PAULIS
        for string in (first, second)
    ]
    return sum(bit << 5 - i for i, bit in enumerate(bits))


# Row k is expression k + 1; column 16 * (3x + y) + 4a + b is p(a, b | x, y).
C = coefficient_rows(
    [[SIGNS[x][y] * mask_value(h >> 4 - 2 * x & 3, MASKS[y]) for y in range(3)] for x in range(3)]
    for h in map(flip, range(NUM_EXPRESSIONS))
)


@functools.cache
def product_counts() -> tuple[tuple[int, ...], ...]:
    """16 p(a, b | x, y) of every Bell product: 16 tuples of 144 ints.

    Row 4 * first + second is the Bell product (first, second), Bell states
    numbered 2x + z by their Pauli frames (x, z) as in ``swap``: bell(first)
    on the parties' first qubits and bell(second) on their second ones.
    Entry 16*(3x + y) + 4a + b is sum_{m, n} chi_m(a) chi_n(b) <A_x^m (x) B_y^n>
    over the masks of both parties' Pauli strings, computed on Phi+ (x) Phi+.
    A Pauli on Alice's qubits flips the sign of each of her strings it
    anticommutes with, so product k is product 0 with her outcomes
    relabeled by ``flip(k)``.
    """
    # <P (x) P> on Phi+ is -1 for P = Y and 1 otherwise, and <P (x) Q> is 0 for
    # P != Q: a term survives where the strings' letters agree on both pairs
    chi = [tuple(mask_value(a, m) for a in range(4)) for m in (0, *MASKS)]
    row = []
    for x, y in itertools.product(range(3), repeat=2):
        terms = [
            ((-1) ** (alice.count("-") + bob.count("-") + alice.count("Y")), chi[m], chi[n])
            for m, alice in enumerate(("II", *ALICE_PAULIS[x]))
            for n, bob in enumerate(("II", *BOB_PAULIS[y]))
            if alice.lstrip("-") == bob.lstrip("-")
        ]
        row += (sum(e * u[a] * v[b] for e, u, v in terms) for a in range(4) for b in range(4))
    return tuple(relabel(row, flip(k)) for k in range(NUM_EXPRESSIONS))
