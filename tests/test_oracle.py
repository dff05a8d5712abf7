"""The oracle itself, in integers: its dense linear algebra (tensor
products, embedding, expectations, tracing), its Bell states, the chi/omega
basis and the multi-qubit products.  Its four-outcome observables are
checked in ``test_observables.py``.

The kets and the labeled products on explicit pairs live in the oracle;
the package holds a Bell state as its Pauli frame's index 2x + z, and
names it by a two-letter code only on the command line.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    BELL_ORDER,
    ID2,
    PHI_MINUS,
    PHI_PLUS,
    PRODUCT_LABELS,
    PSI_MINUS,
    PSI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    J,
    StateVector,
    bell,
    bell_product,
    chi_omega,
    eight_qubit_initial,
    embed,
    four_qubit_product,
    is_pure,
    partial_trace,
    source_product,
    tensor,
)

from nlbox import swap

KET0 = np.array([1, 0])
KET1 = np.array([0, 1])
PLUS = np.array([1, 1])
PHI_PLUS_KET = np.array([1, 0, 0, 1])


# Only the oracle's own checks below read a pure state's expectation, so it
# lives here rather than in the oracle.
def expectation(state: StateVector, op: np.ndarray) -> Fraction:
    """Expectation value of a Hermitian integer operator on a pure state."""
    op = np.asarray(op)
    if not np.array_equal(op, op.T):
        raise ValueError("expectation requires a Hermitian operator")
    v = state.amplitudes
    return Fraction(int(v @ op @ v), state.norm)


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.integers(-9, 10, size=2**num_qubits)
    amps[0] = 10  # never the zero ket
    return StateVector(amps, tuple(range(1, num_qubits + 1)))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.integers(-9, 10, size=(dim, dim))
    return m + m.T


class TestStateVector:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector(np.zeros(4, dtype=int), (1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(np.zeros(3, dtype=int), (1, 2))

    def test_rejects_non_integer_amplitudes(self):
        with pytest.raises(ValueError, match="not integers"):
            StateVector(np.array([1.0, 0.0]), (1,))

    def test_amplitudes_are_read_only(self):
        state = StateVector(KET0, (1,))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5


class TestTensor:
    def test_operator_kron(self):
        np.testing.assert_array_equal(tensor(SIGMA_Z, ID2), np.kron(SIGMA_Z, ID2))

    def test_state_labels_concatenate(self):
        a = StateVector(KET0, (3,))
        b = StateVector(KET1, (1,))
        ab = tensor(a, b)
        assert ab.labels == (3, 1)
        np.testing.assert_array_equal(ab.amplitudes, [0, 1, 0, 0])

    def test_rejects_label_collision(self):
        a = StateVector(KET0, (1,))
        with pytest.raises(ValueError, match="both factors"):
            tensor(a, StateVector(KET1, (1,)))

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            tensor(StateVector(KET0, (1,)), SIGMA_Z)


class TestEmbed:
    def test_single_qubit_placement(self):
        np.testing.assert_array_equal(embed(SIGMA_Z, [1], [1, 2]), np.kron(SIGMA_Z, ID2))
        np.testing.assert_array_equal(embed(SIGMA_Z, [2], [1, 2]), np.kron(ID2, SIGMA_Z))

    def test_target_order_is_explicit(self):
        lhs = embed(np.kron(SIGMA_Z, SIGMA_X), [3, 1], [1, 2, 3])
        rhs = embed(np.kron(SIGMA_X, SIGMA_Z), [1, 3], [1, 2, 3])
        np.testing.assert_array_equal(lhs, rhs)

    def test_disjoint_embeddings_commute_and_factor(self):
        a = random_hermitian(2, seed=1)
        b = random_hermitian(2, seed=2)
        ea = embed(a, [1], [1, 2])
        eb = embed(b, [2], [1, 2])
        np.testing.assert_array_equal(ea @ eb, np.kron(a, b))
        np.testing.assert_array_equal(ea @ eb, eb @ ea)

    def test_pair_embedding_matches_manual_kron(self):
        a = random_hermitian(2, seed=3)
        b = random_hermitian(2, seed=4)
        lhs = embed(np.kron(a, b), [3, 1], [1, 2, 3])
        rhs = embed(b, [1], [1, 2, 3]) @ embed(a, [3], [1, 2, 3])
        np.testing.assert_array_equal(lhs, rhs)

    def test_errors(self):
        with pytest.raises(ValueError, match="not in context"):
            embed(SIGMA_Z, [4], [1, 2])
        with pytest.raises(ValueError, match="duplicate target"):
            embed(np.eye(4, dtype=int), [1, 1], [1, 2])
        with pytest.raises(ValueError, match="shape"):
            embed(np.eye(3, dtype=int), [1], [1, 2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_reversed_targets_with_swapped_operator(self, seed):
        # Listing the targets backwards while conjugating the operator by
        # SWAP must give the identical embedded matrix.
        op = random_hermitian(4, seed)
        perm = [0, 2, 1, 3]
        swapped = op[np.ix_(perm, perm)]
        np.testing.assert_array_equal(
            embed(op, [1, 3], [1, 2, 3]),
            embed(swapped, [3, 1], [1, 2, 3]),
        )


class TestExpectation:
    def test_basic_values(self):
        assert expectation(StateVector(KET0, (1,)), SIGMA_Z) == 1
        assert expectation(StateVector(PLUS, (1,)), SIGMA_Z) == 0
        state = StateVector(PHI_PLUS_KET, (1, 2))
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_Z)) == 1
        assert expectation(state, np.kron(SIGMA_X, SIGMA_X)) == 1
        # sigma_y (x) sigma_y = -(J (x) J)
        assert expectation(state, -np.kron(J, J)) == -1

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(StateVector(KET0, (1,)), np.array([[0, 1], [0, 0]]))


class TestPartialTrace:
    def test_bell_pair_reduces_to_mixed(self):
        state = StateVector(PHI_PLUS_KET, (1, 2))
        rho = partial_trace(state, [1])
        np.testing.assert_array_equal(2 * rho.entries, rho.norm * np.eye(2, dtype=int))
        assert 2 * np.trace(rho.entries @ rho.entries) == rho.norm**2

    def test_product_state_reduces_pure(self):
        state = tensor(StateVector(KET0, (1,)), StateVector(KET1, (2,)))
        rho = partial_trace(state, [2])
        np.testing.assert_array_equal(rho.entries, rho.norm * np.outer(KET1, KET1))

    def test_keep_order_is_respected(self):
        state = tensor(StateVector(KET0, (1,)), StateVector(KET1, (2,)))
        rho12 = partial_trace(state, [1, 2])
        rho21 = partial_trace(state, [2, 1])
        # |01> kept as (1,2) versus |10> kept as (2,1)
        assert rho12.entries[1, 1] == rho12.norm
        assert rho21.entries[2, 2] == rho21.norm

    def test_keep_all_is_projector_onto_state(self):
        state = random_state(2, seed=5)
        rho = partial_trace(state, [1, 2])
        np.testing.assert_array_equal(
            rho.entries, np.outer(state.amplitudes, state.amplitudes)
        )

    def test_errors(self):
        state = StateVector(PHI_PLUS_KET, (1, 2))
        with pytest.raises(ValueError, match="not part"):
            partial_trace(state, [7])
        with pytest.raises(ValueError, match="duplicate"):
            partial_trace(state, [1, 1])


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[1, 1], [0, 1]]), (1,))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.zeros((2, 2), dtype=int), (1,))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([3, -1]), (1,))
        # a non-negative diagonal, and a zero pivot on a nonzero row
        for entries in ([[1, 2], [2, 1]], [[0, 1], [1, 1]]):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(np.array(entries), (1,))

    def test_is_pure(self):
        rho = DensityMatrix(np.outer(PHI_PLUS_KET, PHI_PLUS_KET), (1, 2))
        assert is_pure(rho, StateVector(3 * PHI_PLUS_KET, (1, 2)))
        orth = np.array([1, 0, 0, -1])
        assert not is_pure(rho, StateVector(orth, (1, 2)))
        assert not is_pure(rho, StateVector(PHI_PLUS_KET, (2, 3)))


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
        rows = swap.class_map(swap.DEFAULT_SOURCES)
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

