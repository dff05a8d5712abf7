"""The two parties' four-outcome two-qubit measurements and their bit masks.

Each setting is a projective measurement onto an orthonormal basis of the
party's qubit pair.  An outcome carries two sign bits; the label order is
fixed as ++, +-, -+, -- and every basis below is listed in that order.
A mask keeps an outcome's first bit, its second bit, or their product.
"""

from __future__ import annotations

import numpy as np

from . import states
from .states import BellLabel

# Outcome labels in canonical order and the sign bits they carry.
OUTCOMES = ("++", "+-", "-+", "--")
OUTCOME_BITS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# The three masks: keep the first bit, the second bit, or their product.
MASKS = ("10", "01", "11")


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


def alice_kets(setting: int):
    """Alice's four measurement kets of a setting, in outcome order.

    Setting 0 is the computational product basis, setting 1 the diagonal
    product basis (with the mixed outcomes +- and -+ attached to |-+> and
    |+-> respectively), and setting 2 the chi/omega basis.
    """
    k0, k1 = states.KET_0, states.KET_1
    kp, km = states.KET_PLUS, states.KET_MINUS
    if setting == 0:
        return [np.kron(k0, k0), np.kron(k0, k1), np.kron(k1, k0), np.kron(k1, k1)]
    if setting == 1:
        return [np.kron(kp, kp), np.kron(km, kp), np.kron(kp, km), np.kron(km, km)]
    if setting == 2:
        return [
            states.chi_omega("chi+").amplitudes,
            states.chi_omega("chi-").amplitudes,
            states.chi_omega("omega+").amplitudes,
            states.chi_omega("omega-").amplitudes,
        ]
    raise ValueError(f"setting {setting} outside 0..2")


def bob_kets(setting: int):
    """Bob's four measurement kets of a setting, in outcome order.

    Setting 0 pairs a computational first qubit with a diagonal second one,
    setting 1 the other way round, and setting 2 is the Bell basis.
    """
    k0, k1 = states.KET_0, states.KET_1
    kp, km = states.KET_PLUS, states.KET_MINUS
    if setting == 0:
        return [np.kron(k0, kp), np.kron(k0, km), np.kron(k1, kp), np.kron(k1, km)]
    if setting == 1:
        return [np.kron(kp, k0), np.kron(km, k0), np.kron(kp, k1), np.kron(km, k1)]
    if setting == 2:
        return [
            states.bell(BellLabel.PHI_PLUS).amplitudes,
            states.bell(BellLabel.PHI_MINUS).amplitudes,
            states.bell(BellLabel.PSI_PLUS).amplitudes,
            states.bell(BellLabel.PSI_MINUS).amplitudes,
        ]
    raise ValueError(f"setting {setting} outside 0..2")

