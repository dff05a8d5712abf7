"""Verification toolkit for maximally nonlocal quantum boxes.

The package reconstructs a family of sixteen three-setting, four-outcome
bipartite Bell expressions with deterministic bound 7 and algebraic bound
9, the sixteen Bell-state products that each reach 9 on exactly one
expression, and the entanglement-swapping protocol that distributes those
products between parties whose systems never interacted.  Everything is
checked by exact computation: integer enumeration for the deterministic
bound, fraction-free integer ranks for facet certificates, and seeded
sampling for the simulated runs.  Every expression value is one row of a
16x144 integer coefficient matrix dotted with a behavior p(a, b | x, y):
the Born behavior of a Bell-state product, a deterministic vertex, or the
event counts of a sampled class.
"""

from .inequalities import (
    C,
    MATCHED_PAIRS,
    coefficient_rows,
    coefficients,
    matched_state,
    state_behavior,
)
from .polytope import facet_check, lhv_bound, ns_bound
from .sampler import class_counts, estimate_beta, sample_events
from .states import BellLabel, eight_qubit_initial, four_qubit_product
from .swap import class_map, premeasurement_marginal

__all__ = [
    "BellLabel",
    "C",
    "MATCHED_PAIRS",
    "class_counts",
    "class_map",
    "coefficient_rows",
    "coefficients",
    "eight_qubit_initial",
    "estimate_beta",
    "facet_check",
    "four_qubit_product",
    "lhv_bound",
    "matched_state",
    "ns_bound",
    "premeasurement_marginal",
    "sample_events",
    "state_behavior",
]

__version__ = "0.1.0"
