"""The two parties' four-outcome measurements as signed Pauli strings.

Each setting is a projective measurement on the party's two qubits.  An
outcome carries two sign bits; the label order is fixed as ++, +-, -+,
--.  A mask keeps an outcome's first bit, its second bit, or their
product, and the masked observable of every setting and mask is a signed
two-qubit Pauli string: Alice's settings are the rows of the Mermin-Peres
square and Bob's its columns.  A party's first qubit belongs to the first
Bell pair of a product and its second qubit to the second pair; a
string's first letter acts on the first qubit.  The projector onto
outcome a is (1/4) sum_m chi_m(a) P^m over the masks m = 00, 10, 01, 11,
where chi_m(a) is the masked sign and P^00 the identity.
"""

from __future__ import annotations

# Outcome labels in canonical order and the sign bits they carry.
OUTCOMES = ("++", "+-", "-+", "--")
OUTCOME_BITS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# The three masks: keep the first bit, the second bit, or their product.
MASKS = ("10", "01", "11")

# Masked observables [setting][mask], masks in MASKS order.  Each setting's
# third string is the product of its first two.
ALICE_PAULIS = (("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "YY"))
BOB_PAULIS = (("ZI", "IX", "ZX"), ("IZ", "XI", "XZ"), ("ZZ", "XX", "-YY"))
PAULI_LETTERS = "IXYZ"


def mask_value(outcome: int, mask: str) -> int:
    """Sign assigned to an outcome index under a mask."""
    first, second = OUTCOME_BITS[outcome]
    if mask == "10":
        return first
    if mask == "01":
        return second
    if mask == "11":
        return first * second
    raise ValueError(f"invalid mask {mask!r}, expected one of {MASKS}")


def pauli_table(strings) -> tuple[tuple, tuple]:
    """Signs [setting][mask] and letters [setting][mask][qubit] of a party's strings.

    Both are tuples of int tuples.  The mask axis runs over 00, 10, 01, 11,
    so the identity comes first; a letter is its index in ``PAULI_LETTERS``.
    """
    rows = [("II", *row) for row in strings]
    signs = tuple(tuple(-1 if s.startswith("-") else 1 for s in row) for row in rows)
    letters = tuple(
        tuple(tuple(PAULI_LETTERS.index(c) for c in s.lstrip("-")) for s in row) for row in rows
    )
    return signs, letters
