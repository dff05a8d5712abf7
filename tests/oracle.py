"""Independent second routes to the values the package computes, one per claim.

The package evaluates every Bell expression as one row of the integer
coefficient matrix ``inequalities.C`` dotted with a 144-entry behavior,
and derives the Born behaviors of the sixteen Bell products in integers
from the parties' signed Pauli strings and the pairs' Pauli frames.  The
routes here read neither that matrix nor that table, and they are exact
as well: every ket of the protocol is real with entries in {0, +-1} / 2^(e/2),
so each is held as an int64 vector, 2^(e/2) times the state, whose squared
norm ``norm`` is 2^e.  The Bell states have norm 2, Alice's three bases 1,
4 and 4, Bob's 2 and the eight-qubit source state 16.  sigma_y is i J, with
J = [[0, -1], [1, 0]], and enters only as YY = -(J (x) J).  A projector P
is held as the integer matrix ``SCALE`` P, a density matrix as an integer
matrix over its trace, and every probability as ``count / norm``, two
integers: nothing is normalized and no route divides.

- Born behaviors: integer kets of the Bell states and of the parties'
  measurement bases, labeled product states on explicit qubit pairs, and
  all 144 probabilities of a state from dense projectors in one einsum.
- Expression values: ``behavior_value``, the signed sum over cells of the
  masked correlators of a behavior, built from the paper's sixteen sign
  tables, written out here as ``SIGN_TABLES`` (the package derives fifteen
  of them from expression 1), and the oracle's own masks, which read the
  signs off the outcome labels rather than the package's bit rule.
  It scores Born behaviors, deterministic vertices and sampled event
  counts alike, and ``born_values`` holds its 256 values on the sixteen
  Bell products.
- The local polytope: the 4096x144 vertex matrix, built from base-4
  digits rather than the package's party table, the behavior of one
  deterministic strategy pair, and a numpy fraction-free rank with its
  int64 overflow guard.
- Sampled runs: one decode of the sampler's integer event codes, and the
  event counts per robot outcome.
- The swap: dense collapse of the eight-qubit source state, with 256x256
  Bell projectors, each robot outcome's probability, the reduced state of
  the kept qubits and its exact identification among the sixteen Bell
  products, which the package's Pauli-frame class map and its
  pre-measurement behavior are checked against, and the full joint table
  that the sampled events are fitted against.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from nlbox.swap import DEFAULT_SOURCES, class_map

NUM_JOINT_STRATEGIES = 4**3 * 4**3

ID2 = np.eye(2, dtype=np.int64)
SIGMA_X = np.array([[0, 1], [1, 0]])
SIGMA_Z = np.array([[1, 0], [0, -1]])
# sigma_y = i J, so sigma_y (x) sigma_y = -(J (x) J)
J = np.array([[0, -1], [1, 0]])

KET_0 = np.array([1, 0])
KET_1 = np.array([0, 1])
KET_PLUS = np.array([1, 1])
KET_MINUS = np.array([1, -1])

# Every projector P is held as SCALE * P, an integer matrix: each ket of the
# parties' bases has a squared norm of 1, 2 or 4.
SCALE = 4

# The four Bell states, named as the package holds them: the ints 0..3 in
# the order PP, PM, SP, SM, with kets of the oracle's own.  The sixteen
# products are in the row order of the reference table, the second state
# varying fastest.
PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS = BELL_ORDER = (0, 1, 2, 3)
PRODUCT_LABELS = tuple(itertools.product(BELL_ORDER, repeat=2))
_BELL_AMPLITUDES = (
    np.array([1, 0, 0, 1]),
    np.array([1, 0, 0, -1]),
    np.array([0, 1, 1, 0]),
    np.array([0, 1, -1, 0]),
)

# Outcome a carries the two signs of OUTCOME_LABELS[a] ("+-": first sign +,
# second -).  A mask keeps the first sign ("10"), the second ("01") or their
# product ("11"); in cell (x, y) Alice's mask follows Bob's setting y and
# Bob's follows Alice's setting x.
OUTCOME_LABELS = ("++", "+-", "-+", "--")
MASKS = ("10", "01", "11")

# The paper's sixteen expressions: row k is the sign of cell (x, y) of
# expression k + 1, as 3 rows of 3.
SIGN_TABLES = (
    ((1, 1, 1), (1, 1, 1), (1, 1, -1)),
    ((1, 1, 1), (-1, 1, -1), (-1, 1, 1)),
    ((1, -1, -1), (1, 1, 1), (1, -1, 1)),
    ((1, -1, -1), (-1, 1, -1), (-1, -1, -1)),
    ((1, 1, 1), (1, -1, -1), (1, -1, 1)),
    ((1, 1, 1), (-1, -1, 1), (-1, -1, -1)),
    ((1, -1, -1), (1, -1, -1), (1, 1, -1)),
    ((1, -1, -1), (-1, -1, 1), (-1, 1, 1)),
    ((-1, 1, -1), (1, 1, 1), (-1, 1, 1)),
    ((-1, 1, -1), (-1, 1, -1), (1, 1, -1)),
    ((-1, -1, 1), (1, 1, 1), (-1, -1, -1)),
    ((-1, -1, 1), (-1, 1, -1), (1, -1, 1)),
    ((-1, 1, -1), (1, -1, -1), (-1, -1, -1)),
    ((-1, 1, -1), (-1, -1, 1), (1, -1, 1)),
    ((-1, -1, 1), (1, -1, -1), (-1, 1, 1)),
    ((-1, -1, 1), (-1, -1, 1), (1, 1, -1)),
)


def masked_sign(outcome: int, mask: str) -> int:
    """The product of the outcome's signs where the mask has a 1."""
    signs = [1 if c == "+" else -1 for c in OUTCOME_LABELS[outcome]]
    return math.prod(s for s, keep in zip(signs, mask) if keep == "1")


# Two labelings of one layout.  In four_qubit_product bell(first) sits on
# (1, 2) and bell(second) on (3, 4); Alice measures (1, 3), Bob (2, 4).
MATCHED_PAIRS = ((1, 3), (2, 4))
# In the swap protocol the robot measures (2, 5) and (4, 7), and the Bell
# product is left on (1, 6) x (3, 8): Alice measures (1, 3), Bob (6, 8).
ROBOT_PAIRS = ((2, 5), (4, 7))
SWAP_PAIRS = ((1, 6), (3, 8))
# The robot's Bell results (r1, r2) on ROBOT_PAIRS, in the order of dense_swap.
ROBOT_OUTCOMES = tuple(itertools.product(BELL_ORDER, repeat=2))
ALICE_PAIR = (1, 3)
BOB_PAIR = (6, 8)
# The kept qubits in the order of the swapped pairs, as class_state labels them.
KEPT_QUBITS = SWAP_PAIRS[0] + SWAP_PAIRS[1]


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``len(labels)`` qubits with an explicit label order, as
    an integer ket: the state times a positive factor.

    The first label is the most significant bit of the basis index.
    """

    amplitudes: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes).reshape(-1)
        labels = tuple(int(q) for q in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels {labels}")
        if amps.size != 2 ** len(labels):
            raise ValueError(
                f"{amps.size} amplitudes do not fit {len(labels)} qubits"
            )
        if amps.dtype.kind != "i":
            raise ValueError(f"amplitudes of dtype {amps.dtype} are not integers")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def norm(self) -> int:
        """The squared norm <psi|psi>, over which every Born count is read."""
        return int(self.amplitudes @ self.amplitudes)


def _semidefinite(mat: np.ndarray) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, exactly:
    Gaussian elimination in Python integers, each Schur complement scaled by
    its positive pivot, and a zero pivot allowed only on a zero row."""
    mat = mat.astype(object)
    while mat.size:
        pivot, row = mat[0, 0], mat[0, 1:]
        if pivot < 0 or (pivot == 0 and row.any()):
            return False
        mat = mat[1:, 1:] if pivot == 0 else pivot * mat[1:, 1:] - np.outer(row, row)
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on labeled qubits, entries / trace(entries) with integer
    entries, validated on construction."""

    entries: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.entries)
        labels = tuple(int(q) for q in self.labels)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"shape {mat.shape} does not fit labels {labels}")
        if mat.dtype.kind != "i":
            raise ValueError(f"entries of dtype {mat.dtype} are not integers")
        if not np.array_equal(mat, mat.T):
            raise ValueError("density matrix is not Hermitian")
        if np.trace(mat) <= 0:
            raise ValueError("density matrix trace is not positive")
        if not _semidefinite(mat):
            raise ValueError("density matrix has a negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def norm(self) -> int:
        """The trace, over which the entries are read."""
        return int(np.trace(self.entries))


def bell(label: int, qubits: tuple[int, int] = (1, 2)) -> StateVector:
    """Bell state on the given qubit pair (labels in listed order), norm 2."""
    return StateVector(_BELL_AMPLITUDES[label], qubits)


def pauli_frame(label: int) -> tuple[int, int]:
    """The frame (x, z) with bell(label) = X^x Z^z on the first qubit of
    Phi+, up to a sign, found by trying all four."""
    for x, z in itertools.product(range(2), repeat=2):
        flip = np.linalg.matrix_power(SIGMA_X, x) @ np.linalg.matrix_power(SIGMA_Z, z)
        image = np.kron(flip, ID2) @ _BELL_AMPLITUDES[PHI_PLUS]
        if abs(image @ _BELL_AMPLITUDES[label]) == image @ image:
            return x, z
    raise RuntimeError(f"Bell state {label} is in no Pauli frame of Phi+")


def chi_omega(kind: str, qubits: tuple[int, int] = (1, 2)) -> StateVector:
    """One of the chi/omega states, keyed as 'chi+', 'chi-', 'omega+', 'omega-'.

    chi+- superpose |0+> and |1->; omega+- superpose |1+> and |0->.  They
    form an orthogonal basis, each of norm 4, of common eigenvectors of
    sz (x) sx and sx (x) sz.
    """
    zero_plus = np.kron(KET_0, KET_PLUS)
    zero_minus = np.kron(KET_0, KET_MINUS)
    one_plus = np.kron(KET_1, KET_PLUS)
    one_minus = np.kron(KET_1, KET_MINUS)
    table = {
        "chi+": zero_plus + one_minus,
        "chi-": zero_plus - one_minus,
        "omega+": one_plus + zero_minus,
        "omega-": one_plus - zero_minus,
    }
    if kind not in table:
        raise ValueError(f"unknown chi/omega kind {kind!r}")
    return StateVector(table[kind], qubits)


def alice_kets(setting: int):
    """Alice's four measurement kets of a setting, in outcome order.

    Setting 0 is the computational product basis, setting 1 the diagonal
    product basis (with the mixed outcomes +- and -+ attached to |-+> and
    |+-> respectively), and setting 2 the chi/omega basis.
    """
    k0, k1, kp, km = KET_0, KET_1, KET_PLUS, KET_MINUS
    if setting == 0:
        return [np.kron(k0, k0), np.kron(k0, k1), np.kron(k1, k0), np.kron(k1, k1)]
    if setting == 1:
        return [np.kron(kp, kp), np.kron(km, kp), np.kron(kp, km), np.kron(km, km)]
    if setting == 2:
        return [chi_omega(kind).amplitudes for kind in ("chi+", "chi-", "omega+", "omega-")]
    raise ValueError(f"setting {setting} outside 0..2")


def bob_kets(setting: int):
    """Bob's four measurement kets of a setting, in outcome order.

    Setting 0 pairs a computational first qubit with a diagonal second one,
    setting 1 the other way round, and setting 2 is the Bell basis.
    """
    k0, k1, kp, km = KET_0, KET_1, KET_PLUS, KET_MINUS
    if setting == 0:
        return [np.kron(k0, kp), np.kron(k0, km), np.kron(k1, kp), np.kron(k1, km)]
    if setting == 1:
        return [np.kron(kp, k0), np.kron(km, k0), np.kron(kp, k1), np.kron(km, k1)]
    if setting == 2:
        return [bell(label).amplitudes for label in BELL_ORDER]
    raise ValueError(f"setting {setting} outside 0..2")


def tensor(a, b):
    """Kronecker product of two states or two operators.

    For states the result's labeling is the concatenation of the factors'
    labelings, which must be disjoint.  Mixing a state with an operator is
    rejected.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        common = set(a.labels) & set(b.labels)
        if common:
            raise ValueError(f"labels {sorted(common)} appear in both factors")
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.labels + b.labels)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError("tensor expects two StateVectors or two operator arrays")


def bell_product(
    first: int,
    second: int,
    first_pair: tuple[int, int],
    second_pair: tuple[int, int],
) -> StateVector:
    """Product of two Bell states on arbitrary pairs, labeled in pair order."""
    return tensor(bell(first, first_pair), bell(second, second_pair))


def four_qubit_product(first: int, second: int) -> StateVector:
    """bell(first) on qubits (1,2) times bell(second) on qubits (3,4)."""
    return bell_product(first, second, (1, 2), (3, 4))


def class_state(row: int) -> StateVector:
    """The Bell product of a class map row on (1,6) x (3,8), on KEPT_QUBITS."""
    return bell_product(*PRODUCT_LABELS[row], *SWAP_PAIRS)


def source_product(first: int, second: int) -> StateVector:
    """Eight-qubit state emitted by the two identical sources, on labels 1..8.

    Each source emits one pair in ``bell(first)`` and one in ``bell(second)``:
    the first source feeds qubits (1,2) and (3,4), the second feeds (5,6)
    and (7,8).
    """
    return tensor(
        tensor(bell(first, (1, 2)), bell(second, (3, 4))),
        tensor(bell(first, (5, 6)), bell(second, (7, 8))),
    )


def eight_qubit_initial() -> StateVector:
    """The all-singlet eight-qubit initial state on labels 1..8."""
    return source_product(PSI_MINUS, PSI_MINUS)


@dataclass(frozen=True)
class FourOutcomeObservable:
    """A four-outcome projective measurement on two qubits, each projector
    held as SCALE P."""

    party: str
    setting: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.projectors) != 4:
            raise ValueError("expected one projector per outcome label")


def _projectors_from_kets(kets) -> tuple[np.ndarray, ...]:
    return tuple(SCALE // (ket @ ket) * np.outer(ket, ket) for ket in kets)


def alice_observable(setting: int) -> FourOutcomeObservable:
    """Alice's measurement for a setting in 0..2."""
    return FourOutcomeObservable(
        "alice", setting, _projectors_from_kets(alice_kets(setting))
    )


def bob_observable(setting: int) -> FourOutcomeObservable:
    """Bob's measurement for a setting in 0..2."""
    return FourOutcomeObservable(
        "bob", setting, _projectors_from_kets(bob_kets(setting))
    )


def embed(op: np.ndarray, targets: Sequence[int], context: Sequence[int]) -> np.ndarray:
    """Extend an operator on ``targets`` to the full register ``context``.

    ``op`` acts on the target qubits in their listed order; the result acts
    on all context qubits in context order.  The identity is applied to the
    untouched qubits, so embed(sz (x) sx, [3, 1], ctx) and
    embed(sx (x) sz, [1, 3], ctx) are the same matrix.
    """
    targets = [int(t) for t in targets]
    context = [int(c) for c in context]
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target labels {targets}")
    if len(set(context)) != len(context):
        raise ValueError(f"duplicate context labels {context}")
    missing = [t for t in targets if t not in context]
    if missing:
        raise ValueError(f"target labels {missing} not in context {context}")
    n, k = len(context), len(targets)
    op = np.asarray(op)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not fit {k} targets")
    rest = [q for q in context if q not in targets]
    order = targets + rest
    full = np.kron(op, np.eye(2 ** (n - k), dtype=op.dtype))
    perm = [order.index(q) for q in context]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def is_pure(rho: DensityMatrix, state: StateVector) -> bool:
    """Whether rho is the pure state ``state`` on the same labels, exactly:
    <psi|psi> rho == tr(rho) |psi><psi|."""
    v = state.amplitudes
    return rho.labels == state.labels and np.array_equal(
        state.norm * rho.entries, rho.norm * np.outer(v, v)
    )


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (in listed order), tracing the rest."""
    keep = [int(q) for q in keep]
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate labels in keep list {keep}")
    missing = [q for q in keep if q not in state.labels]
    if missing:
        raise ValueError(f"labels {missing} not part of the state")
    n = len(state.labels)
    positions = [state.labels.index(q) for q in keep]
    rest = [i for i in range(n) if i not in positions]
    k = len(keep)
    t = state.amplitudes.reshape((2,) * n).transpose(positions + rest)
    m = t.reshape(2**k, 2 ** (n - k))
    return DensityMatrix(m @ m.T, tuple(keep))


def bell_projectors(pair: tuple[int, int], context: tuple[int, ...]) -> list[np.ndarray]:
    """The four Bell projectors of a qubit pair, each SCALE P, embedded in a register."""
    kets = [bell(label).amplitudes for label in BELL_ORDER]
    return [embed(p, pair, context) for p in _projectors_from_kets(kets)]


def identify_bell_product(rho: DensityMatrix) -> tuple[int, int]:
    """Match a reduced state on KEPT_QUBITS to a Bell product on (1,6)x(3,8).

    Identification is exact equality with one of the sixteen class states;
    anything else raises, since the swap must produce an exact Bell product.
    """
    for row, labels in enumerate(PRODUCT_LABELS):
        if is_pure(rho, class_state(row)):
            return labels
    raise RuntimeError("reduced state matches no Bell-state product")


def dense_swap(sources) -> list[tuple[int, int, DensityMatrix]]:
    """Each robot outcome's probability count / norm and reduced state on
    KEPT_QUBITS, as (count, norm, rho) in ROBOT_OUTCOMES order, by collapsing
    the dense eight-qubit source state."""
    initial = source_product(*sources)
    robot = [bell_projectors(pair, initial.labels) for pair in ROBOT_PAIRS]
    # two projectors, each SCALE P, leave SCALE^2 P1 P2 |psi>
    norm = SCALE**4 * initial.norm
    out = []
    for r1, r2 in ROBOT_OUTCOMES:
        post = StateVector(robot[0][r1] @ (robot[1][r2] @ initial.amplitudes), initial.labels)
        out.append((post.norm, norm, partial_trace(post, KEPT_QUBITS)))
    return out


def premeasurement_state(sources=DEFAULT_SOURCES) -> DensityMatrix:
    """Reduced state of KEPT_QUBITS before the robot's outcome is known: the
    equal mixture of the class states that the package's class map selects."""
    kets = np.array([class_state(row).amplitudes for row in class_map(sources)])
    return DensityMatrix(kets.T @ kets, KEPT_QUBITS)


@functools.cache
def vertex_matrix() -> np.ndarray:
    """All 4096 vertex behaviors as rows of a 0/1 matrix, read-only.

    Strategy s answers digit x of s in base 4, most significant first, to
    setting x, and row 64f + g is Alice's strategy f with Bob's g.  Column
    layout: cell (x, y) contributes the 16 entries p(a, b | x, y) at offset
    16*(3x + y) + 4a + b.
    """
    digits = np.arange(64)[:, None] // 4 ** np.arange(2, -1, -1) % 4
    onehot = (digits[:, :, None] == np.arange(4)).astype(np.int64)
    # rows[f, g, x, y, a, b] = onehot[f, x, a] * onehot[g, y, b]
    rows = (
        onehot[:, None, :, None, :, None] * onehot[None, :, None, :, None, :]
    ).reshape(NUM_JOINT_STRATEGIES, 144)
    rows.flags.writeable = False
    return rows


def strategy_behavior(alice, bob) -> np.ndarray:
    """The 144-entry 0/1 behavior of deterministic strategies that answer outcome
    ``alice[x]`` to Alice's setting x and ``bob[y]`` to Bob's setting y."""
    behavior = np.zeros(144, dtype=np.int64)
    for x, y in itertools.product(range(3), repeat=2):
        behavior[16 * (3 * x + y) + 4 * alice[x] + bob[y]] = 1
    return behavior


def integer_rank(mat: np.ndarray) -> int:
    """Exact rank over the rationals of an integer matrix, with numpy.

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


def affine_dimension(points) -> int:
    """Affine dimension of a set of integer points (rank of differences)."""
    if len(points) == 0:
        raise ValueError("no points given")
    points = np.asarray(points, dtype=np.int64)
    return integer_rank(points[1:] - points[0])


def masked_operator(obs: FourOutcomeObservable, mask: str) -> np.ndarray:
    """The +-1-valued observable sum_a chi(a) P_a obtained by masking the
    outcome bits, an integer matrix: the signed sum of the SCALE P_a, which
    SCALE must divide exactly."""
    if mask not in MASKS:
        raise ValueError(f"invalid mask {mask!r}, expected one of {MASKS}")
    scaled = sum(masked_sign(o, mask) * p for o, p in enumerate(obs.projectors))
    op, rest = np.divmod(scaled, SCALE)
    if rest.any():
        raise ValueError(f"mask {mask} gives no integer observable")
    return op


@functools.cache
def party_projectors(alice_pair, bob_pair, labels):
    """Alice's and Bob's projectors [setting][outcome], each SCALE P, embedded
    on their pairs of the register ``labels``, built once per pairs and register."""
    return [
        [[embed(p, pair, labels) for p in observable(s).projectors] for s in range(3)]
        for observable, pair in ((alice_observable, alice_pair), (bob_observable, bob_pair))
    ]


def dense_behavior(
    state: StateVector, alice_pair: tuple[int, int], bob_pair: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """The 144 Born probabilities <psi| P_a (x) P_b |psi> at 16*(3x + y) + 4a + b,
    as (counts, norm)."""
    return density_behavior(partial_trace(state, state.labels), alice_pair, bob_pair)


def density_behavior(
    rho: DensityMatrix, alice_pair: tuple[int, int], bob_pair: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """The 144 Born probabilities tr(rho P_a (x) P_b) at 16*(3x + y) + 4a + b,
    as (counts, norm): p = counts / norm, integers both."""
    alice, bob = (np.array(p) for p in party_projectors(alice_pair, bob_pair, rho.labels))
    counts = np.einsum("ij,xajk,ybki->xyab", rho.entries, alice, bob, optimize=True)
    return counts.reshape(144), SCALE**2 * rho.norm


def behavior_value(row: int, behavior) -> np.ndarray:
    """Value of the expression of row ``row`` (expression ``row + 1``) on
    behaviors along the last axis, 144 long.

    The sum over cells (x, y) of the sign times sum_ab chi(a) chi(b)
    p(a, b | x, y), chi being the two masked signs of the cell: read off the
    sign table and the masks, never the coefficient matrix.  Integer
    behaviors give exact integers.
    """
    p = np.asarray(behavior)
    cells = p.reshape(p.shape[:-1] + (3, 3, 4, 4))
    signs = SIGN_TABLES[row]
    total = 0
    for x, y in itertools.product(range(3), repeat=2):
        masks = MASKS[y], MASKS[x]
        alice, bob = ([masked_sign(o, mask) for o in range(4)] for mask in masks)
        cell = cells[..., x, y, :, :]
        total = total + signs[x][y] * np.einsum("...ab,a,b->...", cell, alice, bob)
    return total


@functools.cache
def born_values() -> tuple[np.ndarray, int]:
    """All 256 values [product, expression] of the dense Born behaviors of the
    sixteen Bell products on their matched pairs, as (values, norm): integers
    over the behaviors' one norm, read-only."""
    born = [dense_behavior(four_qubit_product(*pair), *MATCHED_PAIRS) for pair in PRODUCT_LABELS]
    (norm,) = {norm for _, norm in born}
    counts = np.array([counts for counts, _ in born])
    values = np.array([behavior_value(k, counts) for k in range(len(SIGN_TABLES))]).T
    values.flags.writeable = False
    return values, norm


def decode(code: int) -> tuple[int, int, int, int, int, int]:
    """Fields (x, y, a, b, r1, r2) of event code 256*(3x + y) + 16*(4*r1 + r2) + 4a + b."""
    cell, rest = divmod(code, 256)
    robot, ab = divmod(rest, 16)
    return (*divmod(cell, 3), *divmod(ab, 4), *divmod(robot, 4))


def event_counts(codes) -> np.ndarray:
    """Event counts [4*r1 + r2, 16*(3x + y) + 4a + b], each distinct code decoded once."""
    counts = np.zeros((16, 144), dtype=np.int64)
    for code, n in Counter(codes).items():
        x, y, a, b, r1, r2 = decode(code)
        counts[4 * r1 + r2, 16 * (3 * x + y) + 4 * a + b] += n
    return counts


def sequential_joint_distribution(state: StateVector, projector_sets) -> tuple[np.ndarray, int]:
    """Joint distribution of sequential projective measurements, each
    projector SCALE P, as (counts, norm): an outcome sequence's count is the
    squared norm of the ket its projectors leave, so nothing is normalized."""
    counts = np.zeros((4,) * len(projector_sets), dtype=np.int64)

    def recurse(vec, prefix):
        depth = len(prefix)
        if depth == len(projector_sets):
            counts[prefix] = vec @ vec
            return
        # every projector is symmetric, so proj @ vec is vec @ proj, which
        # reads only the rows on the ket's support
        support = np.flatnonzero(vec)
        for idx, proj in enumerate(projector_sets[depth]):
            v = vec[support] @ proj[support]
            if v.any():  # a zero ket leaves its whole subtree at zero
                recurse(v, prefix + (idx,))

    recurse(state.amplitudes, ())
    return counts, SCALE ** (2 * len(projector_sets)) * state.norm


@functools.cache
def protocol_joint_table(sources) -> tuple[np.ndarray, int]:
    """p(c, a, b | x, y) as (counts, norm), counts [3x + y, 16c + 4a + b], by
    collapsing the dense eight-qubit state: the robot's two Bell measurements,
    then Alice, then Bob.  Built once per sources, and read-only."""
    state = source_product(*sources)
    robot = [bell_projectors(pair, state.labels) for pair in ROBOT_PAIRS]
    alice, bob = party_projectors(ALICE_PAIR, BOB_PAIR, state.labels)
    joint = [
        sequential_joint_distribution(state, robot + [alice[x], bob[y]])
        for x in range(3)
        for y in range(3)
    ]
    table = np.array([counts.ravel() for counts, _ in joint])
    table.flags.writeable = False
    return table, joint[0][1]


@dataclass(frozen=True)
class Behavior:
    """Conditional outcome table p(a, b | x, y) as integer counts [x, y, a, b]
    over one total that every cell (x, y) sums to."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts)
        if arr.shape != (3, 3, 4, 4):
            raise ValueError(f"behavior shape {arr.shape}, expected (3, 3, 4, 4)")
        if arr.dtype.kind != "i":
            raise ValueError(f"behavior counts of dtype {arr.dtype} are not integers")
        if arr.min() < 0:
            raise ValueError("behavior has a negative probability")
        totals = arr.sum(axis=(2, 3))
        if totals.min() != totals.max() or totals.min() == 0:
            raise ValueError("behavior cells are not normalized to one total")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    def no_signaling_defect(self) -> int:
        """Largest change, in counts, of either party's marginal across the
        other's settings."""
        alice = self.counts.sum(axis=3)  # [x, y, a]
        bob = self.counts.sum(axis=2)  # [x, y, b]
        d_alice = np.max(np.abs(alice - alice[:, :1, :]))
        d_bob = np.max(np.abs(bob - bob[:1, :, :]))
        return int(max(d_alice, d_bob))


def bob_bit_conditionals(behavior: Behavior, i: int, j: int) -> list[tuple[int, int]]:
    """P(Bob's masked bit = +1 | Alice's outcome) for cell (i, j), as the
    pair (count of +1, count) of each Alice outcome that occurs.

    On a product of Bell states these conditionals are all 0 or 1: either
    party's full outcome fixes the other's masked bit with certainty.
    """
    plus = np.array([masked_sign(b, MASKS[i]) == 1 for b in range(4)])
    return [(int(row[plus].sum()), int(row.sum())) for row in behavior.counts[i, j] if row.any()]
