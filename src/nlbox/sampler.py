"""Seeded simulation of the full run: robot swap, then local measurements.

The robot's measurements commute with the local ones (disjoint qubits),
so the joint table p(c, a, b | x, y) is the robot's outcome distribution
times the Born behavior of the Bell product each robot outcome leaves
behind: under a class map ``rows`` (``swap.class_map``), class c leaves
the product of row ``rows[c]``.  Both are integer sixteenths, every
setting cell's row is 1/128 on exactly 128 outcomes, and the cell is
uniform over 9: one run is one of 1152 equally likely events, listed in
``code_table``.  An event is one integer code
``256 * (3x + y) + 16 * c + 4a + b``, where ``c = 4 * r1 + r2`` is the
robot's outcome (its class) and ``a``, ``b`` the parties' outcomes.

Reproducibility contract 3: runs are drawn in fixed blocks of ``BLOCK``.
Block ``k`` draws from its own ``random.Random(f"{seed}:{k}")``, which
Python seeds through the string's SHA-512 digest, a version-stable rule.
Run ``k * BLOCK + i`` takes the block's i-th ``random()`` u (the one method
whose sequence Python promises to keep), and its code is
``table[int(1152 * u)]``, computed as ``floor(u * 1152.0)``: the same float
product (1152 is exact as a float), and floor truncates for u >= 0.  The
last block draws only the runs it needs, so identical (shots, seed,
sources) reproduce identical events and adding shots never changes
earlier runs.

``int(1152 * u) <= 1151`` for every u < 1.  The largest u is 1 - 2**-53,
and 1152 (1 - 2**-53) = 1152 - 9 * 2**-46.  Floats near 1152 are
2**-42 = 16 * 2**-46 apart, and 9 * 2**-46 is more than half of that, so
the product rounds down to 1152 - 2**-42; rounding is monotone, so no
smaller u reaches 1152.  The u are the multiples of 2**-53 in [0, 1), and
each of the 1152 buckets holds the floor or the ceiling of 2**53 / 1152 of
them: every event's probability is within 2**-53 of 1/1152.
"""

import random
from collections import Counter
from itertools import repeat
from math import floor, lcm

from . import swap
from .inequalities import C, dot, product_counts

RNG_CONTRACT = 3
BLOCK = 4096


def code_table(rows) -> tuple[int, ...]:
    """The 1152 event codes of positive probability under the class map ``rows``, in order.

    Class c's Born counts are row ``rows[c]`` of ``product_counts()``.
    ``table[i] = 256 * (i >> 7) + support[i >> 7][i & 127]``, where
    ``support[3x + y]`` lists the columns 16c + 4a + b at which the cell's
    row of the joint table, in 256ths (``swap.WEIGHT`` times Born count), is
    positive.  Raises RuntimeError unless every row is 2/256 on exactly 128
    columns.
    """
    behaviors = [product_counts()[row] for row in rows]
    table = []
    for cell in range(9):
        row = [swap.WEIGHT * behavior[16 * cell + ab] for behavior in behaviors for ab in range(16)]
        support = [column for column, p in enumerate(row) if p]
        if len(support) != 128 or any(row[column] != 2 for column in support):
            raise RuntimeError("the joint table is not 1/128 on 128 outcomes per cell")
        table += [256 * cell + column for column in support]
    return tuple(table)


def sample_events(shots: int, seed: int, rows) -> list[int]:
    """Simulate ``shots`` full runs under the class map ``rows``; one code per run.

    ``shots`` must be positive; the command line refuses any other count.
    """
    table = code_table(rows)
    codes = []
    for start in range(0, shots, BLOCK):
        u = random.Random(f"{seed}:{start // BLOCK}").random
        codes += [table[floor(u() * 1152.0)] for _ in repeat(None, min(BLOCK, shots - start))]
    return codes


def class_counts(codes) -> list[list[int]]:
    """Event counts [c][16 * (3x + y) + 4a + b]: one behavior row per class."""
    counts = Counter(codes)
    return [[counts[256 * (i >> 4) + 16 * c + (i & 15)] for i in range(144)] for c in range(16)]


def estimate_beta(counts: list[int], row: int) -> tuple:
    """Estimate the value of the expression of row ``row`` from one class's 144 event counts.

    The estimate, the sum over the nine cells of the cell's signed count
    over its count, is the expression's row dotted with the counts scaled
    to their common denominator L = lcm(cell counts), over L.  Returns the
    exact integer numerator and L, the 3x3 per-cell event counts and the
    (x, y) of the cells with no event at all.  The numerator is None when
    there is such a cell: an empty cell cannot be skipped without biasing
    the sum.
    """
    cells = [sum(counts[16 * cell : 16 * cell + 16]) for cell in range(9)]
    grid = [cells[3 * x : 3 * x + 3] for x in range(3)]
    empty = [divmod(cell, 3) for cell, n in enumerate(cells) if n == 0]
    if empty:
        return None, None, grid, empty
    L = lcm(*cells)
    scaled = [n * (L // cells[i >> 4]) for i, n in enumerate(counts)]
    return dot(C[row], scaled), L, grid, empty
