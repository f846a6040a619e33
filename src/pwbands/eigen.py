"""Dense Hermitian eigendecomposition with verified contracts.

The decomposition itself is delegated to LAPACK's divide-and-conquer
solvers through numpy.linalg.eigh, which runs the real-symmetric routine
(dsyevd) for float64 input and the complex Hermitian one (zheevd) for
complex input; callers choose the path by the dtype they pass.  This
module owns the contract: ascending eigenvalues, orthonormal eigenvectors,
and a residual bound relative to max|H|, checked on every solve for exactly
the eigenpairs returned.  It is also the one place a matrix is checked for
Hermiticity and finiteness before LAPACK sees it: non-Hermitian or
non-finite input and solver non-convergence raise distinct errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import BlochMatrix

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12

# Residual bound, relative to max|H|, and orthonormality bound.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance, or not finite."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge or to meet its contract."""


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match."""

    values: np.ndarray
    vectors: np.ndarray


def eigh(h, count: int | None = None) -> EigenResult:
    """Lowest ``count`` eigenpairs (default: all) of a Hermitian matrix.

    ``h`` is a BlochMatrix or an ndarray; real input is solved as real
    symmetric, complex input as complex Hermitian.  Guarantees on return,
    for the ``count`` pairs returned: values ascending, columns orthonormal
    to 1e-8, and ||H v_i - lambda_i v_i|| <= 1e-8 max|H| for every i.
    A ``count`` outside 1..dim raises ValueError (sweeps rely on this).
    """
    entries = h.entries if isinstance(h, BlochMatrix) else np.asarray(h)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NonHermitianError(f"matrix must be square, got {entries.shape}")
    n = entries.shape[0]
    if count is None:
        count = n
    elif not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    scale = np.abs(entries).max()
    if not np.isfinite(scale):
        raise NonHermitianError("matrix has non-finite entries")
    herm = np.abs(entries - entries.conj().T).max()
    if herm > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {herm:.3e} "
            f"(max entry {scale:.3e})")
    try:
        values, vectors = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    values, vectors = values[:count], vectors[:, :count]
    _verify(entries, values, vectors, scale)
    return EigenResult(values=values, vectors=vectors)


def _verify(entries, values, vectors, scale) -> None:
    if np.any(np.diff(values) < 0):
        raise SolverError("eigenvalues are not ascending")
    gram = vectors.conj().T @ vectors
    ortho = np.abs(gram - np.eye(len(values))).max()
    if ortho > ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho:.3e}")
    # Scaled before the norm, whose squares overflow once |H| passes 1e154.
    residual = np.linalg.norm(
        (entries @ vectors - vectors * values) / max(scale, 1e-300), axis=0)
    if np.any(residual > RESIDUAL_TOL):
        raise SolverError(f"residual {residual.max():.3e} max|H| exceeds "
                          f"{RESIDUAL_TOL:.1e} max|H|")
