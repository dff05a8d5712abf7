"""The two parties' four-outcome measurements as signed Pauli strings.

Each setting is a projective measurement on the party's two qubits.  An
outcome a in 0..3 is two sign bits, the first sign in bit 1, a set bit
for a minus: the labels ++, +-, -+, --.  A mask m keeps the first sign
(0b10), the second (0b01) or their product (0b11), so the masked sign is
the GF(2) character chi_m(a) = (-1)^popcount(a & m).  The masked
observable of every setting and mask is a signed two-qubit Pauli string:
Alice's settings are the rows of the Mermin-Peres square and Bob's its
columns.  A party's first qubit belongs to the first Bell pair of a
product and its second qubit to the second pair; a string's first letter
acts on the first qubit.  The projector onto outcome a is (1/4) sum_m
chi_m(a) P^m over m = 0 and the masks, P^0 being the identity.
"""

from __future__ import annotations

# Outcome labels, indexed by outcome.
OUTCOMES = ("++", "+-", "-+", "--")

# The three masks: keep the first sign, the second sign, or their product.
MASKS = (0b10, 0b01, 0b11)

# Masked observables [setting][mask], masks in MASKS order.  Each setting's
# third string is the product of its first two.
ALICE_PAULIS = (("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "YY"))
BOB_PAULIS = (("ZI", "IX", "ZX"), ("IZ", "XI", "XZ"), ("ZZ", "XX", "-YY"))


def mask_value(outcome: int, mask: int) -> int:
    """Sign of an outcome under a mask: (-1)^popcount(outcome & mask)."""
    return (-1) ** (outcome & mask).bit_count()
