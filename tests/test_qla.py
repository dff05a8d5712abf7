"""The oracle's dense linear algebra: tensor products, embedding,
expectations, tracing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    StateVector,
    canonicalize,
    embed,
    expectation,
    fidelity_with_pure,
    partial_trace,
    tensor,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, tuple(range(1, num_qubits + 1)))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestStateVector:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector(np.zeros(4), (1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(np.zeros(3), (1, 2))

    def test_amplitudes_are_read_only(self):
        state = StateVector(KET0, (1,))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 5.0


class TestTensor:
    def test_operator_kron(self):
        np.testing.assert_allclose(tensor(SIGMA_Z, ID2), np.kron(SIGMA_Z, ID2))

    def test_state_labels_concatenate(self):
        a = StateVector(KET0, (3,))
        b = StateVector(KET1, (1,))
        ab = tensor(a, b)
        assert ab.labels == (3, 1)
        np.testing.assert_allclose(ab.amplitudes, [0, 1, 0, 0])

    def test_rejects_label_collision(self):
        a = StateVector(KET0, (1,))
        with pytest.raises(ValueError, match="both factors"):
            tensor(a, StateVector(KET1, (1,)))

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            tensor(StateVector(KET0, (1,)), SIGMA_Z)


class TestCanonicalize:
    def test_noop_on_sorted_labels(self):
        state = StateVector(PHI_PLUS, (1, 2))
        assert canonicalize(state) is state

    def test_reorders_axes(self):
        # |0> on qubit 2 times |1> on qubit 1 is |10> once labels ascend.
        state = tensor(StateVector(KET0, (2,)), StateVector(KET1, (1,)))
        sorted_state = canonicalize(state)
        assert sorted_state.labels == (1, 2)
        np.testing.assert_allclose(sorted_state.amplitudes, [0, 0, 1, 0])

    def test_preserves_norm_and_overlaps(self):
        state = random_state(3, seed=11)
        shuffled = StateVector(state.amplitudes, (5, 2, 9))
        again = canonicalize(canonicalize(shuffled))
        assert again.labels == (2, 5, 9)
        assert np.linalg.norm(again.amplitudes) == pytest.approx(1.0)


class TestEmbed:
    def test_single_qubit_placement(self):
        np.testing.assert_allclose(embed(SIGMA_Z, [1], [1, 2]), np.kron(SIGMA_Z, ID2))
        np.testing.assert_allclose(embed(SIGMA_Z, [2], [1, 2]), np.kron(ID2, SIGMA_Z))

    def test_target_order_is_explicit(self):
        lhs = embed(np.kron(SIGMA_Z, SIGMA_X), [3, 1], [1, 2, 3])
        rhs = embed(np.kron(SIGMA_X, SIGMA_Z), [1, 3], [1, 2, 3])
        np.testing.assert_allclose(lhs, rhs)

    def test_disjoint_embeddings_commute_and_factor(self):
        a = random_hermitian(2, seed=1)
        b = random_hermitian(2, seed=2)
        ea = embed(a, [1], [1, 2])
        eb = embed(b, [2], [1, 2])
        np.testing.assert_allclose(ea @ eb, np.kron(a, b), atol=1e-12)
        np.testing.assert_allclose(ea @ eb, eb @ ea, atol=1e-12)

    def test_pair_embedding_matches_manual_kron(self):
        a = random_hermitian(2, seed=3)
        b = random_hermitian(2, seed=4)
        lhs = embed(np.kron(a, b), [3, 1], [1, 2, 3])
        rhs = embed(b, [1], [1, 2, 3]) @ embed(a, [3], [1, 2, 3])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="not in context"):
            embed(SIGMA_Z, [4], [1, 2])
        with pytest.raises(ValueError, match="duplicate target"):
            embed(np.eye(4), [1, 1], [1, 2])
        with pytest.raises(ValueError, match="shape"):
            embed(np.eye(3), [1], [1, 2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_reversed_targets_with_swapped_operator(self, seed):
        # Listing the targets backwards while conjugating the operator by
        # SWAP must give the identical embedded matrix.
        op = random_hermitian(4, seed)
        perm = [0, 2, 1, 3]
        swapped = op[np.ix_(perm, perm)]
        np.testing.assert_allclose(
            embed(op, [1, 3], [1, 2, 3]),
            embed(swapped, [3, 1], [1, 2, 3]),
            atol=1e-12,
        )


class TestExpectation:
    def test_basic_values(self):
        assert expectation(StateVector(KET0, (1,)), SIGMA_Z) == pytest.approx(1.0)
        assert expectation(StateVector(PLUS, (1,)), SIGMA_Z) == pytest.approx(0.0)
        state = StateVector(PHI_PLUS, (1, 2))
        assert expectation(state, np.kron(SIGMA_Z, SIGMA_Z)) == pytest.approx(1.0)
        assert expectation(state, np.kron(SIGMA_X, SIGMA_X)) == pytest.approx(1.0)
        assert expectation(state, np.kron(SIGMA_Y, SIGMA_Y)) == pytest.approx(-1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(StateVector(KET0, (1,)), np.array([[0, 1], [0, 0]]))


class TestPartialTrace:
    def test_bell_pair_reduces_to_mixed(self):
        state = StateVector(PHI_PLUS, (1, 2))
        rho = partial_trace(state, [1])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(0.5)

    def test_product_state_reduces_pure(self):
        state = tensor(StateVector(KET0, (1,)), StateVector(KET1, (2,)))
        rho = partial_trace(state, [2])
        np.testing.assert_allclose(rho.entries, np.outer(KET1, KET1), atol=1e-12)

    def test_keep_order_is_respected(self):
        state = tensor(StateVector(KET0, (1,)), StateVector(KET1, (2,)))
        rho12 = partial_trace(state, [1, 2])
        rho21 = partial_trace(state, [2, 1])
        # |01> kept as (1,2) versus |10> kept as (2,1)
        assert rho12.entries[1, 1] == pytest.approx(1.0)
        assert rho21.entries[2, 2] == pytest.approx(1.0)

    def test_keep_all_is_projector_onto_state(self):
        state = random_state(2, seed=5)
        rho = partial_trace(state, [1, 2])
        np.testing.assert_allclose(
            rho.entries, np.outer(state.amplitudes, state.amplitudes.conj()), atol=1e-12
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
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), (1,))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (1,))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]), (1,))

    def test_fidelity_with_pure(self):
        rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (1, 2))
        assert fidelity_with_pure(rho, StateVector(PHI_PLUS, (1, 2))) == pytest.approx(1.0)
        orth = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
        assert fidelity_with_pure(rho, StateVector(orth, (1, 2))) == pytest.approx(0.0)
