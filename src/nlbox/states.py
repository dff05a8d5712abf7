"""The Bell states, their Pauli frames, and the labels of their products.

The protocol works with the four two-qubit Bell states and the sixteen
products of two Bell states, listed in ``PRODUCT_LABELS`` order.  A Bell
state is named by its Pauli frame: the state X^x Z^z on the first qubit
of Phi+, for (x, z) in GF(2)^2.
"""

from __future__ import annotations

from enum import Enum


class BellLabel(Enum):
    """The four Bell states, with the two-letter codes used in CLI output."""

    PHI_PLUS = "PP"
    PHI_MINUS = "PM"
    PSI_PLUS = "SP"
    PSI_MINUS = "SM"

    @property
    def code(self) -> str:
        return self.value


BELL_ORDER = (
    BellLabel.PHI_PLUS,
    BellLabel.PHI_MINUS,
    BellLabel.PSI_PLUS,
    BellLabel.PSI_MINUS,
)

# Pauli frame (x, z) of each Bell state: X^x Z^z on the first qubit of Phi+.
FRAMES = {
    BellLabel.PHI_PLUS: (0, 0),
    BellLabel.PHI_MINUS: (0, 1),
    BellLabel.PSI_PLUS: (1, 0),
    BellLabel.PSI_MINUS: (1, 1),
}

# All sixteen two-pair products, in the row order of the reference table:
# the second label varies fastest.
PRODUCT_LABELS = tuple(
    (first, second) for first in BELL_ORDER for second in BELL_ORDER
)


def bell_label_from_code(code: str) -> BellLabel:
    try:
        return BellLabel(code)
    except ValueError:
        valid = ", ".join(l.code for l in BELL_ORDER)
        raise ValueError(f"unknown Bell code {code!r}, expected one of {valid}")


def product_index(first: BellLabel, second: BellLabel) -> int:
    """Index of a Bell product in the canonical sixteen-row order (0-based)."""
    return PRODUCT_LABELS.index((first, second))
