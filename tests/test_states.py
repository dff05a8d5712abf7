"""Bell states, the chi/omega basis, and the multi-qubit product states.

The kets and the labeled products on explicit pairs live in the oracle;
the package names the Bell states by label and Pauli frame only.
"""

import numpy as np
import pytest
from oracle import (
    SIGMA_X,
    SIGMA_Z,
    bell,
    bell_product,
    chi_omega,
    eight_qubit_initial,
    expectation,
    four_qubit_product,
    partial_trace,
    source_product,
    tensor,
)

from nlbox import states
from nlbox.states import BELL_ORDER, PRODUCT_LABELS, BellLabel

SQ2 = np.sqrt(2.0)


class TestBellStates:
    @pytest.mark.parametrize(
        "label,amps",
        [
            (BellLabel.PHI_PLUS, [1, 0, 0, 1]),
            (BellLabel.PHI_MINUS, [1, 0, 0, -1]),
            (BellLabel.PSI_PLUS, [0, 1, 1, 0]),
            (BellLabel.PSI_MINUS, [0, 1, -1, 0]),
        ],
    )
    def test_amplitudes(self, label, amps):
        np.testing.assert_allclose(
            bell(label).amplitudes, np.array(amps) / SQ2, atol=1e-15
        )

    @pytest.mark.parametrize(
        "label,zz,xx",
        [
            (BellLabel.PHI_PLUS, 1, 1),
            (BellLabel.PHI_MINUS, 1, -1),
            (BellLabel.PSI_PLUS, -1, 1),
            (BellLabel.PSI_MINUS, -1, -1),
        ],
    )
    def test_parity_eigenvalues(self, label, zz, xx):
        state = bell(label)
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_Z)) == pytest.approx(zz)
        assert expectation(state, np.kron(SIGMA_X, SIGMA_X)) == pytest.approx(xx)

    def test_orthonormal(self):
        vecs = [bell(l).amplitudes for l in BELL_ORDER]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_each_half_is_maximally_mixed(self):
        for label in BELL_ORDER:
            rho = partial_trace(bell(label), [1])
            np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_code_roundtrip(self):
        for label in BELL_ORDER:
            assert states.bell_label_from_code(label.code) is label
        with pytest.raises(ValueError, match="unknown Bell code"):
            states.bell_label_from_code("XX")


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
        np.testing.assert_allclose(
            chi_omega(kind).amplitudes, np.array(amps) / 2.0, atol=1e-15
        )

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
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_X)) == pytest.approx(zx)
        assert expectation(state, np.kron(SIGMA_X, SIGMA_Z)) == pytest.approx(xz)

    def test_orthonormal_basis(self):
        kinds = ["chi+", "chi-", "omega+", "omega-"]
        vecs = [chi_omega(k).amplitudes for k in kinds]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="chi/omega"):
            chi_omega("chi")


class TestProducts:
    def test_product_label_order(self):
        assert PRODUCT_LABELS[0] == (BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        assert PRODUCT_LABELS[3] == (BellLabel.PHI_PLUS, BellLabel.PSI_MINUS)
        assert PRODUCT_LABELS[12] == (BellLabel.PSI_MINUS, BellLabel.PHI_PLUS)
        assert len(PRODUCT_LABELS) == 16
        for idx, (first, second) in enumerate(PRODUCT_LABELS):
            assert states.product_index(first, second) == idx

    def test_four_qubit_product_labels_and_norm(self):
        state = four_qubit_product(BellLabel.PHI_PLUS, BellLabel.PSI_MINUS)
        assert state.labels == (1, 2, 3, 4)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_sixteen_products_are_orthonormal(self):
        vecs = [four_qubit_product(f, s).amplitudes for f, s in PRODUCT_LABELS]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-12)

    def test_alice_pair_is_maximally_mixed(self):
        state = four_qubit_product(BellLabel.PSI_PLUS, BellLabel.PHI_MINUS)
        rho = partial_trace(state, [1, 3])
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_bell_product_on_swap_pairs(self):
        state = bell_product(
            BellLabel.PHI_MINUS, BellLabel.PSI_PLUS, (1, 6), (3, 8)
        )
        assert state.labels == (1, 3, 6, 8)
        rho16 = partial_trace(state, [1, 6])
        ref = bell(BellLabel.PHI_MINUS).amplitudes
        np.testing.assert_allclose(rho16.entries, np.outer(ref, ref.conj()), atol=1e-12)

    def test_bell_product_matches_explicit_tensor(self):
        direct = bell_product(
            BellLabel.PSI_MINUS, BellLabel.PHI_PLUS, (1, 2), (3, 4)
        )
        manual = tensor(
            bell(BellLabel.PSI_MINUS, (1, 2)),
            bell(BellLabel.PHI_PLUS, (3, 4)),
        )
        np.testing.assert_allclose(direct.amplitudes, manual.amplitudes, atol=1e-15)


class TestEightQubitInitial:
    def test_labels_and_norm(self):
        state = eight_qubit_initial()
        assert state.labels == tuple(range(1, 9))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_singlet_correlations_on_each_pair(self):
        state = eight_qubit_initial()
        for pair in [(1, 2), (3, 4), (5, 6), (7, 8)]:
            rho = partial_trace(state, pair)
            sm = bell(BellLabel.PSI_MINUS).amplitudes
            np.testing.assert_allclose(
                rho.entries, np.outer(sm, sm.conj()), atol=1e-12
            )

    def test_source_product_places_labels(self):
        state = source_product(BellLabel.PHI_MINUS, BellLabel.PHI_PLUS)
        # first source label sits on (1,2) and (5,6), second on (3,4) and (7,8)
        pm = bell(BellLabel.PHI_MINUS).amplitudes
        pp = bell(BellLabel.PHI_PLUS).amplitudes
        for pair, ref in [((1, 2), pm), ((5, 6), pm), ((3, 4), pp), ((7, 8), pp)]:
            rho = partial_trace(state, pair)
            np.testing.assert_allclose(rho.entries, np.outer(ref, ref.conj()), atol=1e-12)
