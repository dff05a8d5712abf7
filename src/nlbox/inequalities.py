"""The sixteen Bell expressions as integer rows over the behavior space.

Each expression is a signed sum over a 3x3 grid of setting pairs.  In cell
(i, j) Alice measures her setting i and Bob his setting j; the correlator
multiplies Alice's bits masked by the column mask mu(j) with Bob's bits
masked by the row mask mu(i), where mu = (10, 01, 11).  Expanding the
correlators turns every expression into one integer row of the 16x144
coefficient matrix ``C`` over the behavior p(a, b | x, y), so each value,
quantum, deterministic or sampled, is a dot product with a behavior.
Every expression is bounded by 7 for local deterministic models and by 9
algebraically; each of the sixteen Bell-state products reaches 9 on
exactly one expression.
"""

from __future__ import annotations

import numpy as np

from . import observables, states
from .observables import MASKS, mask_value
from .qla import StateVector

NUM_EXPRESSIONS = 16

# Sign tables come in mirror pairs: expanding the upper signs of a row
# yields the lower-numbered expression, the lower signs the higher one.
# Entries are row-major over cells (0,0) .. (2,2).
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


def _expand_sign_tables() -> np.ndarray:
    tables = np.zeros((NUM_EXPRESSIONS, 3, 3), dtype=np.int64)
    expand = {
        "upper": {"pm": 1, "mp": -1, "+": 1, "-": -1},
        "lower": {"pm": -1, "mp": 1, "+": 1, "-": -1},
    }
    for (upper_idx, lower_idx), entries in _PAIRED_ROWS:
        for variant, idx in (("upper", upper_idx), ("lower", lower_idx)):
            row = [expand[variant][e] for e in entries]
            tables[idx - 1] = np.array(row, dtype=np.int64).reshape(3, 3)
    return tables


SIGN_TABLES = _expand_sign_tables()
SIGN_TABLES.flags.writeable = False


def sign_table(index: int) -> np.ndarray:
    """3x3 sign table of expression ``index`` (1-based)."""
    if not 1 <= index <= NUM_EXPRESSIONS:
        raise ValueError(f"expression index {index} outside 1..{NUM_EXPRESSIONS}")
    return SIGN_TABLES[index - 1]


def mask_pattern(i: int, j: int) -> tuple[str, str]:
    """(alice_mask, bob_mask) for cell (i, j) of every expression.

    Alice's mask follows Bob's setting j and vice versa: cell (i, j) uses
    (mu(j), mu(i)) with mu = (10, 01, 11).
    """
    if not (0 <= i <= 2 and 0 <= j <= 2):
        raise ValueError(f"cell ({i}, {j}) outside the 3x3 grid")
    return MASKS[j], MASKS[i]


def coefficient_rows(sign_tables) -> np.ndarray:
    """Integer coefficient rows over the 144-entry behavior space.

    ``sign_tables`` has shape (n, 3, 3).  Row k holds, at column
    16*(3x + y) + 4a + b, the sign of cell (x, y) times Alice's masked bit
    of outcome a times Bob's masked bit of outcome b, so the row dotted
    with a behavior p(a, b | x, y) is the expression's value on it.
    """
    signs = np.asarray(sign_tables, dtype=np.int64)
    if signs.ndim != 3 or signs.shape[1:] != (3, 3):
        raise ValueError(f"sign tables of shape {signs.shape}, expected (n, 3, 3)")
    bits = np.zeros((3, 3, 4, 4), dtype=np.int64)
    for x in range(3):
        for y in range(3):
            alice_mask, bob_mask = mask_pattern(x, y)
            bits[x, y] = np.outer(
                [mask_value(a, alice_mask) for a in range(4)],
                [mask_value(b, bob_mask) for b in range(4)],
            )
    return (signs[:, :, :, None, None] * bits).reshape(len(signs), 144)


# Row k - 1 is expression k; the columns follow polytope.vertex_matrix.
C = coefficient_rows(SIGN_TABLES)
C.flags.writeable = False


def coefficients(index: int) -> np.ndarray:
    """Coefficient row of expression ``index`` (1-based)."""
    if not 1 <= index <= NUM_EXPRESSIONS:
        raise ValueError(f"expression index {index} outside 1..{NUM_EXPRESSIONS}")
    return C[index - 1]


# Measurement kets indexed [setting, outcome, two-qubit basis index].
_ALICE_KETS = np.array([observables.alice_kets(x) for x in range(3)], dtype=complex)
_BOB_KETS = np.array([observables.bob_kets(y) for y in range(3)], dtype=complex)


def state_behavior(
    state: StateVector, alice_pair: tuple[int, int], bob_pair: tuple[int, int]
) -> np.ndarray:
    """The 144-entry behavior p(a, b | x, y) of a four-qubit pure state.

    Alice measures the qubits ``alice_pair`` and Bob the qubits
    ``bob_pair``, the first qubit of a pair being the more significant
    bit of the party's kets.  Entry 16*(3x + y) + 4a + b is the Born
    probability of outcomes (a, b) under settings (x, y).
    """
    order = tuple(alice_pair) + tuple(bob_pair)
    if sorted(order) != sorted(state.labels):
        raise ValueError(
            f"pairs {alice_pair} and {bob_pair} do not cover the qubits {state.labels}"
        )
    axes = [state.labels.index(q) for q in order]
    psi = state.amplitudes.reshape((2,) * 4).transpose(axes).reshape(4, 4)
    amps = np.einsum("xai,ybj,ij->xyab", _ALICE_KETS.conj(), _BOB_KETS.conj(), psi)
    return (np.abs(amps) ** 2).reshape(144)


# Alice's and Bob's qubits in matched_state: bell(first) sits on (1, 2)
# and bell(second) on (3, 4).
MATCHED_PAIRS = ((1, 3), (2, 4))


def matched_state(index: int) -> StateVector:
    """The Bell-state product that reaches 9 on expression ``index``."""
    first, second = states.PRODUCT_LABELS[index - 1]
    return states.four_qubit_product(first, second)
