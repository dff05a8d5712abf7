"""Four-outcome observables and their masked two-outcome coarse-grainings.

The package holds the masked observables as signed Pauli strings; the
oracle builds the same measurements from integer kets, each projector P
held as SCALE P.  The frozen Pauli products below tie the two together.
"""

import numpy as np
import pytest
from oracle import (
    ID2,
    MASKS,
    OUTCOME_LABELS,
    PHI_MINUS,
    SCALE,
    SIGMA_X,
    SIGMA_Z,
    J,
    alice_observable,
    bell,
    bob_observable,
    chi_omega,
    masked_operator,
    masked_sign,
)

from nlbox import inequalities
from nlbox.cli import OUTCOMES
from nlbox.inequalities import mask_value

SX, SZ, I2 = SIGMA_X, SIGMA_Z, ID2
# sigma_y = i J, so sigma_y (x) sigma_y = -(J (x) J)
YY = -np.kron(J, J)


def all_observables():
    return [alice_observable(k) for k in range(3)] + [
        bob_observable(k) for k in range(3)
    ]


class TestMaskValue:
    def test_table(self):
        # the package's bit masks, in order, give the signs that the oracle
        # reads off the labels: "10" the first sign, "01" the second, "11"
        # their product
        assert OUTCOMES == OUTCOME_LABELS
        table = [[mask_value(o, m) for o in range(4)] for m in inequalities.MASKS]
        assert table == [[masked_sign(o, m) for o in range(4)] for m in MASKS]


class TestProjectorStructure:
    @pytest.mark.parametrize("obs", all_observables(), ids=lambda o: f"{o.party}{o.setting}")
    def test_complete_orthogonal_rank_one(self, obs):
        # each projector is held as SCALE P
        total = np.zeros((4, 4), dtype=int)
        for proj in obs.projectors:
            np.testing.assert_array_equal(proj, proj.T)
            np.testing.assert_array_equal(proj @ proj, SCALE * proj)
            assert np.trace(proj) == SCALE
            total += proj
        np.testing.assert_array_equal(total, SCALE * np.eye(4, dtype=int))
        for i in range(4):
            for j in range(i + 1, 4):
                prod = obs.projectors[i] @ obs.projectors[j]
                np.testing.assert_array_equal(prod, np.zeros((4, 4), dtype=int))

    def test_alice_0_outcome_assignment(self):
        obs = alice_observable(0)
        ket01 = np.zeros(4, dtype=int)
        ket01[1] = 1  # |01>
        np.testing.assert_array_equal(obs.projectors[1], SCALE * np.outer(ket01, ket01))

    def test_alice_1_crosses_outcomes(self):
        # the middle outcomes attach to the opposite sign pattern
        obs = alice_observable(1)
        plus = np.array([1, 1])
        minus = np.array([1, -1])
        mp = np.kron(minus, plus)  # |-+>, squared norm 4
        pm = np.kron(plus, minus)
        np.testing.assert_array_equal(obs.projectors[1], np.outer(mp, mp))
        np.testing.assert_array_equal(obs.projectors[2], np.outer(pm, pm))

    def test_alice_2_uses_chi_omega(self):
        obs = alice_observable(2)
        chi_p = chi_omega("chi+").amplitudes  # squared norm 4
        om_m = chi_omega("omega-").amplitudes
        np.testing.assert_array_equal(obs.projectors[0], np.outer(chi_p, chi_p))
        np.testing.assert_array_equal(obs.projectors[3], np.outer(om_m, om_m))

    def test_bob_0_and_1_assignments(self):
        zero = np.array([1, 0])
        one = np.array([0, 1])
        minus = np.array([1, -1])
        b0 = bob_observable(0)
        v = np.kron(one, minus)  # |1->, squared norm 2
        np.testing.assert_array_equal(b0.projectors[3], 2 * np.outer(v, v))
        b1 = bob_observable(1)
        w = np.kron(minus, zero)  # |-0>
        np.testing.assert_array_equal(b1.projectors[1], 2 * np.outer(w, w))

    def test_bob_2_uses_bell_basis(self):
        obs = bob_observable(2)
        pm = bell(PHI_MINUS).amplitudes  # squared norm 2
        np.testing.assert_array_equal(obs.projectors[1], 2 * np.outer(pm, pm))


# Every masked observable reduces to a Pauli product.  Derived once by
# expanding sum_r masked_sign(r, m) |r><r| in each eigenbasis, then frozen.
MASKED_IDENTITY = {
    ("alice", 0): {"10": np.kron(SZ, I2), "01": np.kron(I2, SZ), "11": np.kron(SZ, SZ)},
    ("alice", 1): {"10": np.kron(I2, SX), "01": np.kron(SX, I2), "11": np.kron(SX, SX)},
    ("alice", 2): {"10": np.kron(SZ, SX), "01": np.kron(SX, SZ), "11": YY},
    ("bob", 0): {"10": np.kron(SZ, I2), "01": np.kron(I2, SX), "11": np.kron(SZ, SX)},
    ("bob", 1): {"10": np.kron(I2, SZ), "01": np.kron(SX, I2), "11": np.kron(SX, SZ)},
    ("bob", 2): {"10": np.kron(SZ, SZ), "01": np.kron(SX, SX), "11": -YY},
}


PAULI = {"I": I2, "X": SX, "Y": J, "Z": SZ}


def render(string: str) -> np.ndarray:
    """Dense Kronecker product of a signed two-letter Pauli string whose Ys
    come in a pair: sigma_y (x) sigma_y is -(J (x) J)."""
    first, second = string.lstrip("-")
    assert string.count("Y") in (0, 2), string
    sign = (-1) ** (string.startswith("-") + string.count("Y") // 2)
    return sign * np.kron(PAULI[first], PAULI[second])


class TestMaskedOperators:
    @pytest.mark.parametrize("party,setting", MASKED_IDENTITY.keys())
    def test_pauli_product_identity(self, party, setting):
        # the oracle's kets and the package's Pauli strings both give the
        # frozen products
        obs = alice_observable(setting) if party == "alice" else bob_observable(setting)
        strings = inequalities.ALICE_PAULIS if party == "alice" else inequalities.BOB_PAULIS
        for mask, string in zip(MASKS, strings[setting]):
            want = MASKED_IDENTITY[(party, setting)][mask]
            np.testing.assert_array_equal(
                masked_operator(obs, mask), want, err_msg=f"{party} {setting} mask {mask}"
            )
            np.testing.assert_array_equal(
                render(string), want, err_msg=f"{party} {setting} mask {mask}: {string}"
            )

    @pytest.mark.parametrize("obs", all_observables(), ids=lambda o: f"{o.party}{o.setting}")
    def test_involution_and_product_rule(self, obs):
        ops = {m: masked_operator(obs, m) for m in MASKS}
        for m, op in ops.items():
            np.testing.assert_array_equal(op @ op, np.eye(4, dtype=int))
            np.testing.assert_array_equal(op, op.T)
        # the joint mask is the product of the two marginal masks
        np.testing.assert_array_equal(ops["11"], ops["10"] @ ops["01"])

    def test_rejects_unknown_mask(self):
        with pytest.raises(ValueError, match="mask"):
            masked_operator(alice_observable(0), "00")

    def test_observable_factories_reject_bad_setting(self):
        with pytest.raises(ValueError):
            alice_observable(3)
        with pytest.raises(ValueError):
            bob_observable(-1)
