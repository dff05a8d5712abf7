"""The sixteen Bell expressions as integer rows over the behavior space.

Each expression is a signed sum over a 3x3 grid of setting pairs.  In cell
(i, j) Alice measures her setting i and Bob his setting j; the correlator
multiplies Alice's bits masked by the column mask mu(j) with Bob's bits
masked by the row mask mu(i), where mu = (10, 01, 11).  Expanding the
correlators turns every expression into one integer row of the 16x144
coefficient matrix ``C`` over the behavior p(a, b | x, y), so each value,
quantum, deterministic or sampled, is a dot product with a behavior.

The Born behaviors of the sixteen Bell-state products are one exact
integer table, :func:`product_counts`, holding 16 p(a, b | x, y), derived
from the parties' signed Pauli strings and the pairs' Pauli frames with
no float step.  Every entry is 0 or 2, so each product is the nonlocal
box of its expression, 16 p = C[k] + 1.  Every expression is bounded by 7 for local
deterministic models and by 9 algebraically; each product reaches 9 on
exactly one expression, and ``product_counts() @ C.T`` is 16 times the
table of all 256 values, in integers.
"""

from __future__ import annotations

import functools

import numpy as np

from . import observables, states
from .observables import MASKS, mask_value

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


@functools.cache
def product_counts() -> np.ndarray:
    """16 p(a, b | x, y) of every Bell product: a read-only 16x144 int64 array.

    Row k - 1 is Bell product k, ``states.PRODUCT_LABELS[k - 1]`` = (first,
    second): bell(first) on the parties' first qubits and bell(second) on
    their second ones.  Entry 16*(3x + y) + 4a + b is
    sum_{m, n} chi_m(a) chi_n(b) <A_x^m (x) B_y^n>, summed over the masks
    of both parties' Pauli strings (see ``observables``).  On a Bell
    product each <A (x) B> is the product of one expectation per pair, and
    each of those is 0 or +-1, read off the pair's Pauli frame.
    """
    # pair[f, P, Q] = <P (x) Q> on the Bell pair of frame f, in the letter
    # order IXYZ: 0 unless P == Q; on Phi+ 1 for II, XX, ZZ and -1 for YY;
    # the frame's z flips the sign of XX and YY, its x that of YY and ZZ.
    frame_x, frame_z = np.array([states.FRAMES[label] for label in states.BELL_ORDER]).T
    flips = np.outer(frame_z, [0, 1, 1, 0]) + np.outer(frame_x, [0, 0, 1, 1])
    pair = (-1) ** flips[:, :, None] * np.diag([1, 1, -1, 1])
    alice_signs, alice = observables.pauli_table(observables.ALICE_PAULIS)
    bob_signs, bob = observables.pauli_table(observables.BOB_PAULIS)
    # per-pair expectations [frame, x, m, y, n] on the first and second pair
    first = pair[:, alice[:, :, None, None, 0], bob[None, None, :, :, 0]]
    second = pair[:, alice[:, :, None, None, 1], bob[None, None, :, :, 1]]
    chi = np.array([[1] * 4] + [[mask_value(a, m) for a in range(4)] for m in MASKS])
    counts = np.einsum(
        "xm,yn,fxmyn,gxmyn,ma,nb->fgxyab",
        alice_signs, bob_signs, first, second, chi, chi,
    ).reshape(16, 144)
    counts.flags.writeable = False
    return counts
