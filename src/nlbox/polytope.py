"""Local deterministic polytope: bounds, vertices, and facet certificates.

The scenario has two parties, three settings each, four outcomes each, so
a party has 4**3 = 64 deterministic strategies and the local polytope has
4096 vertices.  Everything here is exact: expression values over
strategies are the integer products of the vertex matrix with the
coefficient rows, and the two ranks that certify all sixteen facets, of
the 64x12 party table and of expression 1's saturators, are computed by
fraction-free integer elimination, never floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .inequalities import NUM_EXPRESSIONS, coefficients, product_counts, sign_table

NUM_PARTY_STRATEGIES = 64
NUM_JOINT_STRATEGIES = NUM_PARTY_STRATEGIES**2


@dataclass(frozen=True)
class DeterministicStrategy:
    """One deterministic outcome assignment per party, setting -> outcome."""

    alice: tuple[int, int, int]
    bob: tuple[int, int, int]


@dataclass(frozen=True)
class FacetReport:
    index: int
    lhv_max: int
    witness: DeterministicStrategy
    polytope_affine_dim: int
    saturator_affine_dim: int
    num_saturators: int
    is_facet: bool


def party_strategies() -> tuple[tuple[int, int, int], ...]:
    """All 64 single-party strategies, in lexicographic order."""
    return tuple(itertools.product(range(4), repeat=3))


def party_table() -> np.ndarray:
    """64x12 one-hot table: entry [s, 4x + a] is 1 where strategy s answers a to x."""
    return np.eye(4, dtype=np.int64)[list(party_strategies())].reshape(-1, 12)


@lru_cache(maxsize=NUM_EXPRESSIONS)
def vertex_values(index: int) -> np.ndarray:
    """Exact values of expression ``index`` on all 4096 vertices, in row order."""
    values = vertex_matrix() @ coefficients(index)
    values.flags.writeable = False
    return values


def lhv_bound(index: int) -> tuple[int, DeterministicStrategy]:
    """Exact deterministic maximum of an expression and a witness strategy."""
    values = vertex_values(index)
    flat = int(np.argmax(values))
    f, g = divmod(flat, NUM_PARTY_STRATEGIES)
    singles = party_strategies()
    witness = DeterministicStrategy(singles[f], singles[g])
    return int(values[flat]), witness


def ns_bound(index: int) -> int:
    """Algebraic maximum of an expression, checked to be quantum-attainable.

    The bound is the sum of the absolute sign entries.  The matched
    Bell-state product must reach it exactly, in sixteenths; a miss
    signals a construction bug.
    """
    bound = int(np.abs(sign_table(index)).sum())
    attained = int(product_counts()[index - 1] @ coefficients(index))
    if attained != 16 * bound:
        raise RuntimeError(
            f"expression {index}: matched state reaches {attained / 16}, "
            f"expected the algebraic bound {bound}"
        )
    return bound


@lru_cache(maxsize=1)
def vertex_matrix() -> np.ndarray:
    """All 4096 vertex behaviors as rows of a 0/1 matrix.

    Row order matches the flattening of the 64x64 strategy grid
    (Alice-major).  Column layout: cell (x, y) contributes the 16 entries
    p(a, b | x, y) at offset 16*(3x + y) + 4a + b.
    """
    onehot = party_table().reshape(NUM_PARTY_STRATEGIES, 3, 4)
    # rows[f, g, x, y, a, b] = onehot[f, x, a] * onehot[g, y, b]
    rows = (
        onehot[:, None, :, None, :, None] * onehot[None, :, None, :, None, :]
    ).reshape(NUM_JOINT_STRATEGIES, 144)
    rows.flags.writeable = False
    return rows


def integer_rank(mat: np.ndarray) -> int:
    """Exact rank over the rationals of an integer matrix.

    Fraction-free Gaussian elimination with gcd normalization; rows are
    promoted to Python integers if entries would overflow 64-bit products,
    so the result is never a floating-point estimate.
    """
    a = np.array(mat, dtype=np.int64, copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        prow = a[rank].copy()
        pval = int(prow[col])
        below = a[rank + 1 :]
        coeffs = below[:, col]
        hit = coeffs != 0
        if hit.any():
            # int64 products must stay below 2**62; the guard promotes to
            # arbitrary precision instead of wrapping around.  The bound is
            # computed in Python integers so it cannot itself overflow.
            bound = int(np.abs(below[hit]).max()) * abs(pval) + int(
                np.abs(coeffs[hit]).max()
            ) * int(np.abs(prow).max())
            if a.dtype == np.int64 and bound >= 2**62:
                a = a.astype(object)
                prow = a[rank].copy()
                below = a[rank + 1 :]
                coeffs = below[:, col]
            below[hit] = below[hit] * pval - np.outer(coeffs[hit], prow)
            if a.dtype == np.int64:
                reduced = np.abs(below[hit])
                big = reduced.max(axis=1) >= 2**20
                if big.any():
                    idx = np.nonzero(hit)[0][big]
                    g = np.gcd.reduce(np.abs(below[idx]), axis=1)
                    g[g == 0] = 1
                    below[idx] //= g[:, None]
        rank += 1
    return rank


def affine_dimension(points: np.ndarray) -> int:
    """Affine dimension of a set of integer points (rank of differences)."""
    points = np.asarray(points)
    if points.shape[0] == 0:
        raise ValueError("no points given")
    if points.shape[0] == 1:
        return 0
    return integer_rank(points[1:] - points[0])


@lru_cache(maxsize=1)
def polytope_affine_dim() -> int:
    """Affine dimension of the local polytope, r**2 - 1 for r = rank of the party table.

    Up to column order each vertex row is a tensor product of two table rows,
    so rank r**2, and sums to 9, so the hull misses the origin: one dim less.
    """
    return integer_rank(party_table()) ** 2 - 1


def saturating_vertices(index: int) -> np.ndarray:
    """Vertex rows whose expression value equals the deterministic maximum."""
    values = vertex_values(index)
    return vertex_matrix()[values == values.max()]


@lru_cache(maxsize=1)
def _orbit_of_one() -> tuple[np.ndarray, int]:
    """Expression 1 under the 64 relabelings a -> a ^ f_x of Alice's outcomes,
    f = ``party_strategies()[s]`` in row s, and its saturators' affine dimension.
    A relabeling permutes columns and vertices, so each image shares that dimension.
    """
    x, y, a, b = np.indices((3, 3, 4, 4))
    cols = 16 * (3 * x + y) + 4 * (a ^ np.array(party_strategies())[:, x]) + b
    return coefficients(1)[cols.reshape(-1, 144)], affine_dimension(saturating_vertices(1))


def facet_check(index: int) -> FacetReport:
    """Certify whether an expression supports a facet of the local polytope.

    The expression is a facet iff its saturating vertices span an affine
    subspace of dimension exactly one less than the polytope's.  The row
    must equal a relabeling of expression 1, whose saturator dimension it
    then shares, or this raises ``RuntimeError``.
    """
    images, sat_dim = _orbit_of_one()
    if not (images == coefficients(index)).all(axis=1).any():
        raise RuntimeError(f"expression {index} is not a relabeling of expression 1")
    bound, witness = lhv_bound(index)
    d = polytope_affine_dim()
    return FacetReport(
        index=index,
        lhv_max=bound,
        witness=witness,
        polytope_affine_dim=d,
        saturator_affine_dim=sat_dim,
        num_saturators=int(np.count_nonzero(vertex_values(index) == bound)),
        is_facet=sat_dim == d - 1,
    )
