"""Local deterministic polytope: bounds, vertices, and facet certificates.

The scenario has two parties, three settings each, four outcomes each, so
a party has 4**3 = 64 deterministic strategies and the local polytope has
4096 vertices.  Everything here is exact and in Python integers: an
expression's values on the vertices come from one 3x4 partial-sum table
per Alice strategy, with no vertex matrix, and the two ranks that certify
all sixteen facets, of the 64x12 party table and of expression 1's
saturators, are computed by fraction-free integer elimination, never
floating point.  An expression is named by its row in ``inequalities.C``,
row k being expression k + 1.  Row k is row 0 with Alice's outcomes
relabeled by ``inequalities.flip(k)``, a -> a ^ h_x, so ``facets``
evaluates and ranks row 0 alone, once, and reads every row's witness off
row 0's saturators.
"""

import itertools
import math

from .inequalities import COLUMNS, C, flip, matched_beta, relabel

NUM_PARTY_STRATEGIES = 64


def party_strategies() -> tuple[tuple[int, int, int], ...]:
    """All 64 single-party strategies, in lexicographic order."""
    return tuple(itertools.product(range(4), repeat=3))


def party_table() -> tuple[tuple[int, ...], ...]:
    """64x12 one-hot table: entry [s][4x + a] is 1 where strategy s answers a to x."""
    return tuple(
        tuple(int(a == s[x]) for x in range(3) for a in range(4)) for s in party_strategies()
    )


def vertex_values(row: int) -> tuple[int, ...]:
    """Exact values of the expression of row ``row`` on all 4096 vertices, Alice-major.

    Alice's strategy f fixes her outcome in every cell, which leaves the
    3x4 table t[y][b] = sum_x C[row][16*(3x + y) + 4 f_x + b]; the value at
    Bob's strategy g is then t[0][g_0] + t[1][g_1] + t[2][g_2].
    """
    # quad[12x + 4y + a]: Bob's four coefficients in cell (x, y) when Alice answers a
    quad = [C[row][k : k + 4] for k in range(0, 144, 4)]
    values = []
    for f in party_strategies():
        t0, t1, t2 = (
            [sum(b) for b in zip(*(quad[12 * x + 4 * y + f[x]] for x in range(3)))]
            for y in range(3)
        )
        pairs = [u + v for u in t0 for v in t1]
        values += [u + w for u in pairs for w in t2]
    return tuple(values)


def ns_bound(row: int) -> int:
    """Algebraic maximum of the expression of row ``row``, checked to be quantum-attainable.

    The bound, the most any behavior gives, is the sum over the nine cells of
    the cell's largest coefficient.  The Bell-state product of the same row
    must reach it exactly, in sixteenths; a miss signals a construction bug.
    """
    bound = sum(max(C[row][k : k + 16]) for k in range(0, 144, 16))
    attained = matched_beta(row)
    if attained != 16 * bound:
        raise RuntimeError(
            f"expression {row + 1}: matched state reaches {attained}/16, "
            f"expected the algebraic bound {bound}"
        )
    return bound


def integer_rank(mat) -> int:
    """Exact rank over the rationals of an integer matrix, given as rows.

    Fraction-free elimination on Python integers, which cannot overflow:
    each row, kept sparse, is reduced against the pivot row of its leading
    column, r -> (p r - c pivot) / gcd(p, c), and divided by the gcd of its
    entries; it becomes a pivot row if anything is left.  ``mat`` must be
    rows of Python integers; nothing checks it.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    pivots = {}  # leading column -> pivot row
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.setdefault(lead, row)
            if pivot is row:
                break
            g = math.gcd(pivot[lead], row[lead])
            p, c = pivot[lead] // g, row[lead] // g
            row = {j: p * v for j, v in row.items()}
            for j, v in pivot.items():
                row[j] = row.get(j, 0) - c * v
                if not row[j]:
                    del row[j]
            g = math.gcd(*row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
    return len(pivots)


def polytope_affine_dim() -> int:
    """Affine dimension of the local polytope, r**2 - 1 for r = rank of the party table.

    Up to column order each vertex row is a tensor product of two table rows,
    so rank r**2, and sums to 9, so the hull misses the origin: one dim less.
    """
    return integer_rank(party_table()) ** 2 - 1


def _orbit_of_one() -> tuple[int, tuple[int, ...], int]:
    """Row 0's maximum, the vertices v = 64f + g that reach it, and their affine dimension.

    Vertex (f, g) is 1 at column (x, y, a, b) iff f_x = a and g_y = b.  On
    a vertex, column (x, a = 0) is column (0, a = 0..3) minus (x, a = 1..3),
    and likewise for Bob, so the 100 other columns have the same rank; every
    vertex sums to 9, so the affine hull misses the origin and its dimension
    is that rank - 1.
    """
    values, singles = vertex_values(0), party_strategies()
    bound = max(values)
    saturators = tuple(v for v, value in enumerate(values) if value == bound)
    pairs = [(singles[v >> 6], singles[v & 63]) for v in saturators]
    kept = [(x, y, a, b) for x, y, a, b in COLUMNS if (a or not x) and (b or not y)]
    rank = integer_rank([[int(f[x] == a and g[y] == b) for f, g in pairs] for x, y, a, b in kept])
    return bound, saturators, rank - 1


def facets() -> tuple:
    """Certify every expression of ``C`` as a facet of the local polytope.

    Returns the polytope's affine dimension; the maximum, saturator count
    and saturators' affine dimension that every expression shares with
    row 0; and each row's witness, an (alice, bob) pair of strategies.  An
    expression is a facet iff its saturators' dimension is one less than
    the polytope's.  Row k must equal row 0 relabeled by h = ``flip(k)``,
    or this raises ``RuntimeError``.  Strategy indices are 16 f_0 + 4 f_1 + f_2,
    so the relabeling maps vertex v to v ^ (h << 6), and a row's witness,
    its first maximum in Alice-major order, is the least mapped saturator.
    """
    bound, saturators, sat_dim = _orbit_of_one()
    singles, witnesses = party_strategies(), []
    for row in range(len(C)):
        h = flip(row)
        if C[row] != relabel(C[0], h):
            raise RuntimeError(f"expression {row + 1} is not a relabeling of expression 1")
        f, g = divmod(min(v ^ (h << 6) for v in saturators), NUM_PARTY_STRATEGIES)
        witnesses.append((singles[f], singles[g]))
    return polytope_affine_dim(), bound, len(saturators), sat_dim, tuple(witnesses)
