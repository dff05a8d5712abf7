"""Bell states, the chi/omega basis, and the multi-qubit product states.

The kets and the labeled products on explicit pairs live in the oracle;
the package holds a Bell state as its Pauli frame's index 2x + z, and
names it by a two-letter code only on the command line.
"""

import re
from argparse import ArgumentTypeError

import numpy as np
import pytest
from oracle import (
    BELL_ORDER,
    PHI_MINUS,
    PHI_PLUS,
    PRODUCT_LABELS,
    PSI_MINUS,
    PSI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    bell,
    bell_product,
    chi_omega,
    eight_qubit_initial,
    expectation,
    four_qubit_product,
    is_pure,
    partial_trace,
    pauli_frame,
    source_product,
    tensor,
)

from nlbox import cli, swap


class TestBellStates:
    @pytest.mark.parametrize(
        "label,amps",
        [
            (PHI_PLUS, [1, 0, 0, 1]),
            (PHI_MINUS, [1, 0, 0, -1]),
            (PSI_PLUS, [0, 1, 1, 0]),
            (PSI_MINUS, [0, 1, -1, 0]),
        ],
        # the names these cases have had since the Bell states were an Enum
        ids=[
            "BellLabel.PHI_PLUS-amps0",
            "BellLabel.PHI_MINUS-amps1",
            "BellLabel.PSI_PLUS-amps2",
            "BellLabel.PSI_MINUS-amps3",
        ],
    )
    def test_amplitudes(self, label, amps):
        # each Bell ket is held as sqrt(2) times the state
        np.testing.assert_array_equal(bell(label).amplitudes, amps)

    @pytest.mark.parametrize(
        "label,zz,xx",
        [
            (PHI_PLUS, 1, 1),
            (PHI_MINUS, 1, -1),
            (PSI_PLUS, -1, 1),
            (PSI_MINUS, -1, -1),
        ],
        ids=[
            "BellLabel.PHI_PLUS-1-1",
            "BellLabel.PHI_MINUS-1--1",
            "BellLabel.PSI_PLUS--1-1",
            "BellLabel.PSI_MINUS--1--1",
        ],
    )
    def test_parity_eigenvalues(self, label, zz, xx):
        state = bell(label)
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_Z)) == zz
        assert expectation(state, np.kron(SIGMA_X, SIGMA_X)) == xx

    def test_orthonormal(self):
        vecs = np.array([bell(l).amplitudes for l in BELL_ORDER])
        np.testing.assert_array_equal(vecs @ vecs.T, 2 * np.eye(4, dtype=int))

    def test_each_half_is_maximally_mixed(self):
        for label in BELL_ORDER:
            rho = partial_trace(bell(label), [1])
            np.testing.assert_array_equal(2 * rho.entries, rho.norm * np.eye(2, dtype=int))

    def test_index_is_the_pauli_frame(self):
        # the package's state i is the frame (x, z) = divmod(i, 2)
        assert [pauli_frame(label) for label in BELL_ORDER] == [divmod(i, 2) for i in range(4)]

    def test_code_roundtrip(self):
        for label, code in zip(BELL_ORDER, ("PP", "PM", "SP", "SM")):
            assert cli.BELL_CODES[label] == code
            assert cli._sources(f"{code},{code}") == (label, label)
        for code in ("XX", "sm", ""):
            message = f"unknown Bell code {code!r}, expected one of PP, PM, SP, SM"
            with pytest.raises(ArgumentTypeError, match=f"^{re.escape(message)}$"):
                cli._sources(f"{code},PP")


class TestChiOmega:
    # Hand expansion of the defining superpositions of |0+>, |0->, |1+>, |1->.
    @pytest.mark.parametrize(
        "kind,amps",
        [
            ("chi+", [1, 1, 1, -1]),
            ("chi-", [1, 1, -1, 1]),
            ("omega+", [1, -1, 1, 1]),
            ("omega-", [-1, 1, 1, 1]),
        ],
    )
    def test_amplitudes(self, kind, amps):
        # each ket is held as 2 times the state
        np.testing.assert_array_equal(chi_omega(kind).amplitudes, amps)

    @pytest.mark.parametrize(
        "kind,zx,xz",
        [
            ("chi+", 1, 1),
            ("chi-", 1, -1),
            ("omega+", -1, 1),
            ("omega-", -1, -1),
        ],
    )
    def test_cross_parity_eigenvalues(self, kind, zx, xz):
        state = chi_omega(kind)
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_X)) == zx
        assert expectation(state, np.kron(SIGMA_X, SIGMA_Z)) == xz

    def test_orthonormal_basis(self):
        kinds = ["chi+", "chi-", "omega+", "omega-"]
        vecs = np.array([chi_omega(k).amplitudes for k in kinds])
        np.testing.assert_array_equal(vecs @ vecs.T, 4 * np.eye(4, dtype=int))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="chi/omega"):
            chi_omega("chi")


class TestProducts:
    def test_product_label_order(self):
        assert PRODUCT_LABELS[0] == (PHI_PLUS, PHI_PLUS)
        assert PRODUCT_LABELS[3] == (PHI_PLUS, PSI_MINUS)
        assert PRODUCT_LABELS[12] == (PSI_MINUS, PHI_PLUS)
        assert len(PRODUCT_LABELS) == 16
        # the package's row of a class's product is its matched expression's
        # row, and the default sources leave every product once
        rows = swap.class_map()
        assert sorted(rows) == list(range(16))
        assert [PRODUCT_LABELS[row] for row in rows] == [divmod(row, 4) for row in rows]

    def test_four_qubit_product_labels_and_norm(self):
        state = four_qubit_product(PHI_PLUS, PSI_MINUS)
        assert state.labels == (1, 2, 3, 4)
        assert state.norm == 4

    def test_sixteen_products_are_orthonormal(self):
        vecs = np.array([four_qubit_product(f, s).amplitudes for f, s in PRODUCT_LABELS])
        np.testing.assert_array_equal(vecs @ vecs.T, 4 * np.eye(16, dtype=int))

    def test_alice_pair_is_maximally_mixed(self):
        state = four_qubit_product(PSI_PLUS, PHI_MINUS)
        rho = partial_trace(state, [1, 3])
        np.testing.assert_array_equal(4 * rho.entries, rho.norm * np.eye(4, dtype=int))

    def test_bell_product_on_swap_pairs(self):
        state = bell_product(
            PHI_MINUS, PSI_PLUS, (1, 6), (3, 8)
        )
        assert state.labels == (1, 6, 3, 8)
        assert is_pure(partial_trace(state, [1, 6]), bell(PHI_MINUS, (1, 6)))

    def test_bell_product_matches_explicit_tensor(self):
        direct = bell_product(
            PSI_MINUS, PHI_PLUS, (1, 2), (3, 4)
        )
        manual = tensor(
            bell(PSI_MINUS, (1, 2)),
            bell(PHI_PLUS, (3, 4)),
        )
        np.testing.assert_array_equal(direct.amplitudes, manual.amplitudes)


class TestEightQubitInitial:
    def test_labels_and_norm(self):
        state = eight_qubit_initial()
        assert state.labels == tuple(range(1, 9))
        assert state.norm == 16

    def test_singlet_correlations_on_each_pair(self):
        state = eight_qubit_initial()
        for pair in [(1, 2), (3, 4), (5, 6), (7, 8)]:
            assert is_pure(partial_trace(state, pair), bell(PSI_MINUS, pair))

    def test_source_product_places_labels(self):
        state = source_product(PHI_MINUS, PHI_PLUS)
        # first source label sits on (1,2) and (5,6), second on (3,4) and (7,8)
        placed = {(1, 2): PHI_MINUS, (5, 6): PHI_MINUS, (3, 4): PHI_PLUS, (7, 8): PHI_PLUS}
        for pair, label in placed.items():
            assert is_pure(partial_trace(state, pair), bell(label, pair))
