"""Deterministic strategies, exact integer ranks, and facet certificates."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    NUM_JOINT_STRATEGIES,
    PRODUCT_LABELS,
    SIGN_TABLES,
    Behavior,
    affine_dimension,
    behavior_value,
    pauli_frame,
    strategy_behavior,
    vertex_matrix,
)
from oracle import integer_rank as oracle_rank

from nlbox import inequalities, polytope
from nlbox.inequalities import ALICE_PAULIS, NUM_EXPRESSIONS, C, coefficient_rows, flip
from nlbox.polytope import (
    NUM_PARTY_STRATEGIES,
    facets,
    integer_rank,
    ns_bound,
    party_strategies,
    party_table,
    polytope_affine_dim,
    vertex_values,
)


@pytest.fixture(scope="module")
def loop_flips():
    """Row k -> every f with C[k] equal to C[0] with Alice's outcome a read as
    a ^ f_x, flipping one f per setting by loop over all 64."""
    base = np.asarray(C[0]).reshape(3, 3, 4, 4)
    hits = {}
    for f in party_strategies():
        image = np.zeros_like(base)
        for x, y, a, b in itertools.product(range(3), range(3), range(4), range(4)):
            image[x, y, a, b] = base[x, y, a ^ f[x], b]
        for k in range(NUM_EXPRESSIONS):
            if np.array_equal(image.reshape(144), C[k]):
                hits.setdefault(k, []).append(f)
    return hits


def flipped(string, frames) -> int:
    """1 where the two-qubit Pauli ``string`` anticommutes with X^fx Z^fz on
    each qubit, (fx, fz) the qubit's entry of ``frames``, else 0."""
    pairs = zip(string, frames)
    return sum((p in "ZY") * fx + (p in "XY") * fz for p, (fx, fz) in pairs) % 2


class TestStrategies:
    def test_party_count_and_uniqueness(self):
        singles = party_strategies()
        assert len(singles) == NUM_PARTY_STRATEGIES
        assert len(set(singles)) == NUM_PARTY_STRATEGIES
        assert all(len(s) == 3 and set(s) <= {0, 1, 2, 3} for s in singles)

    def test_joint_count(self):
        seen = set(itertools.product(party_strategies(), repeat=2))
        assert len(seen) == NUM_JOINT_STRATEGIES


class TestIntegerRank:
    def test_known_ranks(self):
        assert integer_rank(np.eye(4, dtype=np.int64).tolist()) == 4
        assert integer_rank(np.zeros((3, 5), dtype=np.int64).tolist()) == 0
        assert integer_rank(np.array([[2, 4], [1, 2]]).tolist()) == 1
        assert integer_rank(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).tolist()) == 2

    def test_large_entries_rank_exactly(self):
        big = 2**40
        mat = np.array([[big, 1], [1, big]], dtype=np.int64)
        assert integer_rank(mat.tolist()) == 2
        assert integer_rank(np.array([[big, big], [big, big]], dtype=np.int64).tolist()) == 1

    @settings(max_examples=80)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_three_routes_agree(self, nrows, ncols, data):
        # the package's sparse rank on Python integers, of the matrix and of
        # its transpose, and the oracle's numpy rank with its int64 guard;
        # entries near 2**62 drive the oracle onto its object-dtype path
        near = st.sampled_from([2**62, -(2**62), 2**62 - 1, 2**61 + 3])
        entry = st.integers(-4, 4) | near
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
        mat = np.array(rows, dtype=np.int64)
        assert integer_rank(rows) == integer_rank(list(zip(*rows))) == oracle_rank(mat)

    def test_affine_dimension_basics(self):
        assert affine_dimension(np.array([[3, 1, 4]])) == 0
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert affine_dimension(pts) == 3
        shifted = pts + np.array([7, -2, 5])
        assert affine_dimension(shifted) == 3
        with pytest.raises(ValueError):
            affine_dimension(np.zeros((0, 3), dtype=np.int64))


class TestVertices:
    def test_matrix_shape_and_content(self):
        verts = vertex_matrix()
        assert verts.shape == (NUM_JOINT_STRATEGIES, 144)
        assert set(np.unique(verts)) == {0, 1}
        np.testing.assert_array_equal(verts.sum(axis=1), np.full(4096, 9))

    def test_values_and_saturators_match_the_vertex_matrix(self):
        # the package sums partial tables per Alice strategy and maps
        # expression 1's saturators v to v ^ (h << 6); the vertex matrix is
        # multiplied in full
        verts = vertex_matrix()
        _, saturators, _ = polytope._orbit_of_one()
        for k in range(NUM_EXPRESSIONS):
            values = verts @ np.asarray(C[k])
            assert np.array_equal(vertex_values(k), values)
            if k in (0, 8, 15):
                h = flip(k)
                mapped = sorted(v ^ (h << 6) for v in saturators)
                assert mapped == np.flatnonzero(values == values.max()).tolist()

    def test_rows_distinct(self):
        verts = vertex_matrix()
        assert len({row.tobytes() for row in np.ascontiguousarray(verts)}) == 4096

    def test_affine_dim_matches_product_formula(self):
        # the package takes r**2 - 1 from the 64x12 party table; the
        # independent route ranks all 4095 vertex differences directly
        direct = oracle_rank(vertex_matrix()[1:] - vertex_matrix()[0])
        assert direct == polytope_affine_dim() == 99
        # and the per-party dims, from a one-hot table built by loop, give
        # dim = d_A + d_B + d_A d_B
        singles = party_strategies()
        onehot = np.zeros((NUM_PARTY_STRATEGIES, 12), dtype=np.int64)
        for s, strat in enumerate(singles):
            for setting in range(3):
                onehot[s, 4 * setting + strat[setting]] = 1
        assert np.array_equal(onehot, party_table())
        d_party = affine_dimension(onehot)
        assert d_party == 9
        assert direct == d_party + d_party + d_party * d_party


class TestBounds:
    def test_lhv_maximum_is_seven_everywhere(self):
        _, lhv_max, _, _, witnesses = facets()
        assert lhv_max == 7
        assert len(witnesses) == NUM_EXPRESSIONS
        for k, witness in enumerate(witnesses):
            # recompute the witness value through the scalar route
            assert behavior_value(k, strategy_behavior(*witness)) == 7

    def test_witness_realizes_seven_as_a_behavior(self):
        witnesses = facets()[4]
        for k in (0, 7, 15):
            assert strategy_behavior(*witnesses[k]) @ C[k] == 7

    def test_beta_matrix_agrees_with_scalar_route(self):
        mat = np.asarray(vertex_values(2)).reshape(NUM_PARTY_STRATEGIES, NUM_PARTY_STRATEGIES)
        singles = party_strategies()
        rng = np.random.default_rng(20240811)
        for _ in range(40):
            f = int(rng.integers(NUM_PARTY_STRATEGIES))
            g = int(rng.integers(NUM_PARTY_STRATEGIES))
            strat = (singles[f], singles[g])
            assert mat[f, g] == behavior_value(2, strategy_behavior(*strat))

    def test_ns_bound_is_nine_and_attained(self):
        for k in range(NUM_EXPRESSIONS):
            assert ns_bound(k) == 9

    def test_ns_bound_checks_the_matched_product(self, monkeypatch):
        # a product one sixteenth short of the bound is a construction bug
        monkeypatch.setattr(polytope, "matched_beta", lambda row: 16 * 9 - 1)
        message = "expression 3: matched state reaches 143/16, expected the algebraic bound 9"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            ns_bound(2)

    def test_ns_bound_checks_no_signaling(self, monkeypatch):
        # boxes that win every cell of expression 1, so reach 9, yet signal:
        # all 16 counts on one winning pair, Alice's outcome x + y mod 4; and
        # 4 counts on each outcome of one party, paired with the other
        # party's first winning outcome, which two of the four share
        def wins(k, a, b):
            return C[0][16 * k + 4 * a + b] > 0

        both, alice_uniform, bob_uniform = ([0] * 144 for _ in range(3))
        for k in range(9):
            a = sum(divmod(k, 3)) % 4
            both[16 * k + 4 * a + min(b for b in range(4) if wins(k, a, b))] = 16
            for o in range(4):
                alice_uniform[16 * k + 4 * o + min(b for b in range(4) if wins(k, o, b))] = 4
                bob_uniform[16 * k + 4 * min(a for a in range(4) if wins(k, a, o)) + o] = 4
        message = "expression 1: matched state signals: a marginal is not 1/4"
        for box in (both, alice_uniform, bob_uniform):
            assert sum(p * c for p, c in zip(box, C[0])) == 16 * 9
            for module in (inequalities, polytope):
                monkeypatch.setattr(module, "product_counts", lambda: (box, *C[1:]))
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                ns_bound(0)

    def test_party_swap_leaves_value_multiset_invariant(self):
        for k in range(NUM_EXPRESSIONS):
            orig = np.asarray(vertex_values(k))
            swapped = vertex_matrix() @ coefficient_rows(np.asarray(SIGN_TABLES[k]).T[None])[0]
            assert sorted(orig) == sorted(swapped)
            assert orig.max() == swapped.max()


class TestFacets:
    def test_every_expression_is_a_facet(self):
        d, lhv_max, num_saturators, sat_dim, witnesses = facets()
        assert (d, lhv_max, num_saturators, sat_dim) == (99, 7, 144, 98)
        assert sat_dim == d - 1
        assert len(witnesses) == NUM_EXPRESSIONS

    def test_saturator_dims_match_direct_ranks(self):
        # the package ranks expression 1's saturators and reads every
        # relabeling's maximum, count and witness off expression 1's values;
        # here each expression is evaluated and ranked on its own, and the
        # witness is the first maximum of the vertex matrix, row 64f + g
        verts, singles = vertex_matrix(), party_strategies()
        _, lhv_max, num_saturators, sat_dim, witnesses = facets()
        for k in range(NUM_EXPRESSIONS):
            values = verts @ np.asarray(C[k])
            sat = verts[values == 7]
            assert oracle_rank(sat[1:] - sat[0]) == sat_dim == 98
            assert sat.shape[0] == num_saturators == vertex_values(k).count(7)
            f, g = divmod(int(np.argmax(values)), NUM_PARTY_STRATEGIES)
            assert (lhv_max, witnesses[k]) == (values.max(), (singles[f], singles[g]))

    @pytest.mark.parametrize("other", [2, 9, 16, 0])
    def test_saturator_rank_holds_off_expression_one(self, monkeypatch, other):
        # the 100-column rank of the saturators, minus 1, is their affine
        # dimension for any set of vertices: rank the 128 common saturators
        # of expressions 1 and ``other`` (row other - 1), or the 64 left when
        # expression 1 loses Alice's setting 0, against the direct rank of the set
        row = np.asarray(C[0])
        if other:
            row = row + np.asarray(C[other - 1])
        else:
            row[:48] = 0
        values = vertex_matrix() @ row
        sat = vertex_matrix()[values == values.max()]
        monkeypatch.setattr(polytope, "C", (tuple(int(v) for v in row), *C[1:]))
        bound, saturators, dim = polytope._orbit_of_one()
        assert (bound, len(saturators)) == (values.max(), sat.shape[0])
        assert dim == oracle_rank(sat[1:] - sat[0]) == (55 if other else 45)

    def test_every_expression_is_a_relabeling_of_expression_one(self, loop_flips):
        # flipping Alice's outcome a -> a ^ f_x, one f per setting, by loop
        hits = loop_flips
        assert sorted(hits) == list(range(NUM_EXPRESSIONS))
        assert all(len(fs) == 1 and fs[0][2] == fs[0][0] ^ fs[0][1] for fs in hits.values())
        # the package derives the same flip from the frames, as 16 f_0 + 4 f_1 + f_2
        for k, ((f0, f1, f2),) in hits.items():
            assert flip(k) == 16 * f0 + 4 * f1 + f2

        # the flip is the matched product's Pauli frame read through Alice's
        # strings: bit m of f_x is set where her mask-m string at setting x
        # anticommutes with X^x Z^z of the pairs' frames
        for k, (f,) in hits.items():
            frames = [pauli_frame(label) for label in PRODUCT_LABELS[k]]
            want = [2 * flipped(hi, frames) + flipped(lo, frames) for hi, lo, _ in ALICE_PAULIS]
            assert list(f) == want

    def test_flip_reads_the_frames_through_strings_with_y(self, monkeypatch):
        # Alice's shipped first two strings of each setting hold no Y, so
        # the package's rule for Y is checked on strings that do: each bit
        # against the oracle's frames, found by trying the Bell kets
        strings = (("YI", "IY", "YY"), ("IX", "XI", "XX"), ("YX", "XY", "ZZ"))
        monkeypatch.setattr(inequalities, "ALICE_PAULIS", strings)
        for k, labels in enumerate(PRODUCT_LABELS):
            frames = [pauli_frame(label) for label in labels]
            want = [2 * flipped(hi, frames) + flipped(lo, frames) for hi, lo, _ in strings]
            assert flip(k) == 16 * want[0] + 4 * want[1] + want[2]

    def test_saturators_of_expression_one(self):
        verts = vertex_matrix()
        sat = verts[verts @ np.asarray(C[0]) == 7]
        assert sat.shape[0] == facets()[2]
        # every saturating vertex really evaluates to 7: read its strategy
        # off the one-hot cells and score it through the scalar route
        for row in sat[:20]:
            cells = Behavior(row.reshape(3, 3, 4, 4)).counts
            alice = tuple(int(np.argmax(cells[x, 0].sum(axis=1))) for x in range(3))
            bob = tuple(int(np.argmax(cells[0, y].sum(axis=0))) for y in range(3))
            assert behavior_value(0, strategy_behavior(alice, bob)) == 7

    def test_flips_are_linear_in_the_product(self, loop_flips):
        # product k ^ j carries the frames of k and j composed, so its flip is
        # the XOR of theirs, setting by setting: the sixteen form a group
        flips = {k: fs[0] for k, fs in loop_flips.items()}
        for k, j in itertools.product(range(NUM_EXPRESSIONS), repeat=2):
            assert flips[k ^ j] == tuple(u ^ v for u, v in zip(flips[k], flips[j]))
        assert len(set(flips.values())) == NUM_EXPRESSIONS

    def test_third_setting_flip_is_the_mermin_peres_product(self, loop_flips):
        # Alice's third setting's strings are products of her first two
        # settings' strings, so their sign flips multiply: f_2 = f_0 ^ f_1
        (f,) = loop_flips[0]
        assert f == (0, 0, 0)
        for k, ((f0, f1, f2),) in loop_flips.items():
            assert f2 == f0 ^ f1
        assert {fs[0][:2] for fs in loop_flips.values()} == set(
            itertools.product(range(4), repeat=2)
        )
