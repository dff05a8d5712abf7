"""Verification toolkit for maximally nonlocal quantum boxes.

The package reconstructs a family of sixteen three-setting, four-outcome
bipartite Bell expressions with deterministic bound 7 and algebraic bound
9, the sixteen Bell-state products that each reach 9 on exactly one
expression, and the entanglement-swapping protocol that distributes those
products between parties whose systems never interacted.  Everything is
checked by exact computation: integer enumeration for the deterministic
bound, sixteen relabelings of one expression and two fraction-free
integer ranks for facet certificates, and seeded sampling for the
simulated runs.  Every value is one row of a 16x144 integer coefficient
matrix dotted with a behavior p(a, b | x, y): the Born behavior of a
Bell-state product, a deterministic vertex, or the event counts of a
sampled class.  The Born behaviors are integers by construction: the
parties measure the rows and columns of the Mermin-Peres square, signed
Pauli strings whose expectations on Phi+ (x) Phi+ are 0 or +-1, and each
other product's Pauli frames relabel Alice's outcomes.  The package
holds no complex number and runs on the standard library alone.
``import nlbox`` loads no submodule: import each name from its module,
such as ``nlbox.cli`` for the commands.
"""

__version__ = "0.1.0"
