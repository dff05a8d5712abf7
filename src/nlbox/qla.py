"""Validated states of small registers of labeled qubits.

States are plain numpy arrays in the computational basis.  A register
carries integer qubit labels; the first label is the most significant bit
of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances used by structural assertions throughout the package.
ATOL_STRUCT = 1e-10
ATOL_HERM = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``len(labels)`` qubits with an explicit label order."""

    amplitudes: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        labels = tuple(int(q) for q in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels {labels}")
        if amps.size != 2 ** len(labels):
            raise ValueError(
                f"{amps.size} amplitudes do not fit {len(labels)} qubits"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < 1e-12:
            raise ValueError("cannot normalize a null vector")
        return StateVector(self.amplitudes / n, self.labels)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on labeled qubits, validated on construction."""

    entries: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=complex)
        labels = tuple(int(q) for q in self.labels)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"shape {mat.shape} does not fit labels {labels}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_HERM:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL_HERM:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(mat).min() < -ATOL_STRUCT:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "labels", labels)

