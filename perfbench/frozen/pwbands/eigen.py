"""Dense Hermitian eigendecomposition with verified contracts.

The decomposition itself is delegated to LAPACK's divide-and-conquer
driver (numpy.linalg.eigh); this module owns the contract: ascending
eigenvalues, orthonormal eigenvectors, and a residual bound checked on
every solve.  Non-Hermitian input and solver non-convergence raise
distinct errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import HERMITICITY_TOL, BlochMatrix

# Residual and orthonormality bounds, relative to the Frobenius norm.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge or to meet its contract."""


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(h) -> EigenResult:
    """Full spectrum of a Hermitian matrix (BlochMatrix or ndarray).

    Guarantees on return: values ascending, columns orthonormal to 1e-8,
    and ||H v_i - lambda_i v_i|| <= 1e-8 ||H||_F for every i.
    """
    entries = h.entries if isinstance(h, BlochMatrix) else np.asarray(h)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NonHermitianError(f"matrix must be square, got {entries.shape}")
    scale = np.abs(entries).max()
    herm = np.abs(entries - entries.conj().T).max()
    if herm > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {herm:.3e} "
            f"(max entry {scale:.3e})")
    try:
        values, vectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    _verify(entries, values, vectors)
    return EigenResult(values=values, vectors=vectors)


def _verify(entries, values, vectors) -> None:
    n = entries.shape[0]
    if np.any(np.diff(values) < 0):
        raise SolverError("eigenvalues are not ascending")
    gram = vectors.conj().T @ vectors
    ortho = np.abs(gram - np.eye(n)).max()
    if ortho > ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho:.3e}")
    fro = np.linalg.norm(entries)
    residual = np.linalg.norm(entries @ vectors - vectors * values, axis=0)
    if np.any(residual > RESIDUAL_TOL * max(fro, 1e-300)):
        raise SolverError(
            f"residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.1e} ||H||_F")
