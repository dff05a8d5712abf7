"""Constructors for the Bell states and the labels of their products.

The protocol works with two-qubit Bell states, the chi/omega basis that
mixes a computational qubit with a diagonal one, and the sixteen products
of two Bell states, listed in ``PRODUCT_LABELS`` order.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qla import StateVector

_SQ2 = np.sqrt(2.0)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / _SQ2
KET_MINUS = np.array([1, -1], dtype=complex) / _SQ2


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

# All sixteen two-pair products, in the row order of the reference table:
# the second label varies fastest.
PRODUCT_LABELS = tuple(
    (first, second) for first in BELL_ORDER for second in BELL_ORDER
)

_BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / _SQ2,
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / _SQ2,
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
}


def bell(label: BellLabel, qubits: tuple[int, int] = (1, 2)) -> StateVector:
    """Bell state on the given qubit pair (labels in listed order)."""
    return StateVector(_BELL_AMPLITUDES[label], qubits)


def bell_label_from_code(code: str) -> BellLabel:
    try:
        return BellLabel(code)
    except ValueError:
        valid = ", ".join(l.code for l in BELL_ORDER)
        raise ValueError(f"unknown Bell code {code!r}, expected one of {valid}")


def chi_omega(kind: str, qubits: tuple[int, int] = (1, 2)) -> StateVector:
    """One of the chi/omega states, keyed as 'chi+', 'chi-', 'omega+', 'omega-'.

    chi+- superpose |0+> and |1->; omega+- superpose |1+> and |0->.  They
    form an orthonormal basis of common eigenvectors of sz (x) sx and
    sx (x) sz.
    """
    zero_plus = np.kron(KET_0, KET_PLUS)
    zero_minus = np.kron(KET_0, KET_MINUS)
    one_plus = np.kron(KET_1, KET_PLUS)
    one_minus = np.kron(KET_1, KET_MINUS)
    table = {
        "chi+": (zero_plus + one_minus) / _SQ2,
        "chi-": (zero_plus - one_minus) / _SQ2,
        "omega+": (one_plus + zero_minus) / _SQ2,
        "omega-": (one_plus - zero_minus) / _SQ2,
    }
    if kind not in table:
        raise ValueError(f"unknown chi/omega kind {kind!r}")
    return StateVector(table[kind], qubits)


def product_index(first: BellLabel, second: BellLabel) -> int:
    """Index of a Bell product in the canonical sixteen-row order (0-based)."""
    return PRODUCT_LABELS.index((first, second))

