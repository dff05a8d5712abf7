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
also Bell product k: the product that saturates it.  Each expression is a
signed sum over a 3x3 grid of setting pairs.  In cell (i, j) Alice
measures her setting i and Bob his setting j; the correlator multiplies
Alice's signs masked by the column mask ``MASKS[j]`` with Bob's signs
masked by the row mask ``MASKS[i]``.  Expanding the correlators turns
every expression into one integer row of the 16x144 coefficient matrix
``C`` over the behavior p(a, b | x, y), so each value, quantum,
deterministic or sampled, is a dot product with a behavior.

The Born behaviors of the sixteen Bell-state products are one exact
integer table, :func:`product_counts`, holding 16 p(a, b | x, y), derived
from the parties' signed Pauli strings with no float step.  Row k of it
and of ``C`` is row 0 with Alice's outcomes relabeled by the Pauli frames
of product k, ``relabel(row, flip(k))``.  Every entry is 0 or 2, so each
product is the nonlocal box of its expression, 16 p = C[k] + 1 on row k.
Every expression is bounded by 7 for local deterministic models and by 9
algebraically; each product reaches 9 on exactly one expression, and the
dot products of the rows of ``product_counts()`` with those of ``C`` are
16 times the table of all 256 values.  Every table here is a tuple of
Python int tuples: exact, with no overflow, and immutable by type.
"""

from __future__ import annotations

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


# Sign tables come in mirror pairs, numbered from 1 as in the paper:
# expanding the upper signs of a row yields the lower-numbered expression,
# the lower signs the higher one.  Entries are row-major over cells
# (0,0) .. (2,2).
_PAIRED_ROWS = (
    ((1, 16), ("pm", "pm", "+", "pm", "pm", "+", "+", "+", "-")),
    ((2, 15), ("pm", "pm", "+", "mp", "pm", "-", "-", "+", "+")),
    ((3, 14), ("pm", "mp", "-", "pm", "pm", "+", "+", "-", "+")),
    ((4, 13), ("pm", "mp", "-", "mp", "pm", "-", "-", "-", "-")),
    ((5, 12), ("pm", "pm", "+", "pm", "mp", "-", "+", "-", "+")),
    ((6, 11), ("pm", "pm", "+", "mp", "mp", "+", "-", "-", "-")),
    ((7, 10), ("pm", "mp", "-", "pm", "mp", "-", "+", "+", "-")),
    ((8, 9), ("pm", "mp", "-", "mp", "mp", "+", "-", "+", "+")),
)


def _expand_sign_tables() -> tuple:
    tables = [None] * NUM_EXPRESSIONS
    expand = {
        "upper": {"pm": 1, "mp": -1, "+": 1, "-": -1},
        "lower": {"pm": -1, "mp": 1, "+": 1, "-": -1},
    }
    for (upper_idx, lower_idx), entries in _PAIRED_ROWS:
        for variant, idx in (("upper", upper_idx), ("lower", lower_idx)):
            row = [expand[variant][e] for e in entries]
            tables[idx - 1] = (tuple(row[:3]), tuple(row[3:6]), tuple(row[6:]))
    return tuple(tables)


# Row k is the 3x3 sign table of expression k + 1, a tuple of rows.
SIGN_TABLES = _expand_sign_tables()


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


# Row k is expression k + 1; column 16 * (3x + y) + 4a + b is p(a, b | x, y).
C = coefficient_rows(SIGN_TABLES)


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
