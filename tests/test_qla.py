"""The oracle's dense linear algebra, in integers: tensor products,
embedding, expectations, tracing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    J,
    StateVector,
    embed,
    expectation,
    is_pure,
    partial_trace,
    tensor,
)

KET0 = np.array([1, 0])
KET1 = np.array([0, 1])
PLUS = np.array([1, 1])
PHI_PLUS = np.array([1, 0, 0, 1])


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
        state = StateVector(PHI_PLUS, (1, 2))
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_Z)) == 1
        assert expectation(state, np.kron(SIGMA_X, SIGMA_X)) == 1
        # sigma_y (x) sigma_y = -(J (x) J)
        assert expectation(state, -np.kron(J, J)) == -1

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(StateVector(KET0, (1,)), np.array([[0, 1], [0, 0]]))


class TestPartialTrace:
    def test_bell_pair_reduces_to_mixed(self):
        state = StateVector(PHI_PLUS, (1, 2))
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
        state = StateVector(PHI_PLUS, (1, 2))
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
        rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS), (1, 2))
        assert is_pure(rho, StateVector(3 * PHI_PLUS, (1, 2)))
        orth = np.array([1, 0, 0, -1])
        assert not is_pure(rho, StateVector(orth, (1, 2)))
        assert not is_pure(rho, StateVector(PHI_PLUS, (2, 3)))
