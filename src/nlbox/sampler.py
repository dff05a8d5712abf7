"""Seeded simulation of the full run: robot swap, then local measurements.

The one module of the package that imports numpy, for its random stream.

Reproducibility contract 2: runs are drawn in fixed blocks of ``BLOCK``.
Block ``k`` draws from its own substream, derived from the user seed as
SeedSequence(seed, spawn_key=(k,)), in a fixed order: ``BLOCK`` setting
cells ``3x + y`` from ``integers(0, 9)``, then ``BLOCK`` uniforms.  Run
``k * BLOCK + i`` takes the i-th cell and the i-th uniform, and its
outcome is the inverse CDF of that uniform over the cell's row of the
exact joint table, read off a lookup table.  Every block is drawn whole
and then truncated, so identical (shots, seed, sources) reproduce
identical events and adding shots never changes earlier runs.

The robot's measurements commute with the local ones (disjoint qubits),
so the joint table is the robot's outcome distribution times the Born
behavior of the Bell product each robot outcome leaves behind.  Both are
exact sixteenths, and every cell row is 1/128 on exactly 128 outcomes.

An event is one integer code ``256 * (3x + y) + 16 * c + 4a + b``, where
``c = 4 * r1 + r2`` is the robot's outcome (its class) and ``a``, ``b``
are the parties' outcomes.
"""

from __future__ import annotations

import functools

import numpy as np

from . import swap
from .inequalities import coefficients, product_counts
from .states import BellLabel, product_index

RNG_CONTRACT = 2
BLOCK = 4096
NUM_CODES = 9 * 256


class InsufficientSamplesError(ValueError):
    """An estimate needs at least one event in every cell of the 3x3 grid."""

    def __init__(self, cells: list[tuple[int, int]], grid: np.ndarray):
        self.cells, self.grid = cells, grid  # the empty cells, the 3x3 event counts
        super().__init__(f"no events in cells {cells}")


class ProtocolTables:
    """The exact joint table p(c, a, b | x, y) of one source choice."""

    def __init__(self, sources: tuple[BellLabel, BellLabel] = swap.DEFAULT_SOURCES):
        self.sources = sources
        self.entries = tuple(swap.class_map(sources))
        robot = np.array([entry.probability for entry in self.entries])
        rows = [product_index(*entry.resulting_state) for entry in self.entries]
        behaviors = (np.array(product_counts())[rows] / 16).reshape(16, 9, 16)
        # joint[3x + y, 16c + 4a + b]
        self.joint = (robot.reshape(16, 1, 1) * behaviors).transpose(1, 0, 2).reshape(9, 256)
        self.joint.flags.writeable = False
        positive = self.joint > 0.0
        if not (np.all(positive.sum(axis=1) == 128) and np.all(self.joint[positive] == 1 / 128)):
            raise RuntimeError("the joint table is not 1/128 on 128 outcomes per cell")
        # support[3x + y, k] is the column of the k-th positive entry of the row
        self.support = np.nonzero(positive)[1].reshape(9, 128)
        self.support.flags.writeable = False

    def outcomes(self, cells: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Column 16c + 4a + b that each uniform picks in its cell's row.

        The row's cumulative sum is exactly k / 128 after its k-th positive
        entry, so the inverse CDF of u is support[cell, floor(128 u)]; 128 u
        is exact and below 128 for every u < 1.
        """
        return self.support[cells, (128 * u).astype(np.int64)]


@functools.lru_cache(maxsize=16)
def protocol_tables(
    sources: tuple[BellLabel, BellLabel] = swap.DEFAULT_SOURCES,
) -> ProtocolTables:
    """The read-only tables of one of the 16 source choices, built once."""
    return ProtocolTables(sources)


def sample_events(
    shots: int,
    seed: int,
    sources: tuple[BellLabel, BellLabel] = swap.DEFAULT_SOURCES,
) -> np.ndarray:
    """Simulate ``shots`` full runs of the protocol; one int16 code per run."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    tables = protocol_tables(sources)
    blocks = []
    for block in range(-(-shots // BLOCK)):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,)))
        )
        cells = rng.integers(0, 9, size=BLOCK)
        u = rng.random(BLOCK)
        blocks.append((256 * cells + tables.outcomes(cells, u)).astype(np.int16))
    return np.concatenate(blocks)[:shots]


def class_counts(codes: np.ndarray) -> np.ndarray:
    """Event counts [c, 16 * (3x + y) + 4a + b]: one behavior row per class."""
    counts = np.bincount(codes, minlength=NUM_CODES).reshape(9, 16, 16)
    return counts.transpose(1, 0, 2).reshape(16, 144)


def estimate_beta(counts: np.ndarray, index: int) -> tuple[float, np.ndarray]:
    """Estimate an expression value from one class's 144 event counts.

    Returns the estimate and the 3x3 matrix of per-cell event counts.
    Raises InsufficientSamplesError, carrying that matrix, when a cell has
    no event at all; an empty cell cannot be skipped without biasing the sum.
    """
    cells = counts.reshape(3, 3, 16).sum(axis=2)
    empty = [(int(i), int(j)) for i, j in np.argwhere(cells == 0)]
    if empty:
        raise InsufficientSamplesError(empty, cells)
    signed = (np.array(coefficients(index)) * counts).reshape(3, 3, 16).sum(axis=2)
    return float(np.sum(signed / cells)), cells
