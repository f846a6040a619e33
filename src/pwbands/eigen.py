"""Dense Hermitian eigendecomposition with verified contracts.

The decomposition itself is delegated to LAPACK's MRRR subset solvers,
which compute only the lowest ``count`` eigenpairs: dsyevr for real input
and zheevr for complex input; callers choose the path by the dtype they
pass.  Both are called through ctypes from the OpenBLAS that numpy itself
links (the ILP64 ``scipy_LAPACKE_dsyevr64_`` and ``..._zheevr64_`` symbols
of numpy's wheels), so they cost no import and no dependency.  A numpy whose LAPACK lacks those
symbols falls back to numpy.linalg.eigh, which solves the full spectrum
(dsyevd / zheevd), and keeps the lowest ``count`` pairs.  This
module owns the contract: ascending eigenvalues, orthonormal eigenvectors,
and a residual bound relative to max|H|, checked on every solve for exactly
the eigenpairs returned.  It is also the one place a matrix is checked for
Hermiticity and finiteness before LAPACK sees it: non-Hermitian or
non-finite input and solver non-convergence raise distinct errors.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .hamiltonian import BlochMatrix

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12

# Residual bound, relative to max|H|, and orthonormality bound.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8


def _bind() -> dict:
    """LAPACKE subset drivers keyed by the dtype they solve; {} if absent."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        drivers = {np.float64: lib.scipy_LAPACKE_dsyevr64_,
                   np.complex128: lib.scipy_LAPACKE_zheevr64_}
    except (OSError, AttributeError):
        return {}
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for driver in drivers.values():
        # (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
        #  m, w, z, ldz, isuppz); the 64 suffix means 64-bit integers.
        driver.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                           ctypes.c_char, i64, ptr, i64, ctypes.c_double,
                           ctypes.c_double, i64, i64, ctypes.c_double, ptr,
                           ptr, ptr, i64, ptr]
        driver.restype = i64
    return drivers


_DRIVERS = _bind()
_COL_MAJOR = 102


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance, or not finite."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge or to meet its contract."""


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match, and
    the max|H| that the residual bound is relative to."""

    values: np.ndarray
    vectors: np.ndarray
    scale: float


def eigh(h, count: int | None = None) -> EigenResult:
    """Lowest ``count`` eigenpairs (default: all) of a Hermitian matrix.

    ``h`` is a BlochMatrix or an ndarray; real input is solved as real
    symmetric, complex input as complex Hermitian.  Guarantees on return,
    for the ``count`` pairs returned, which are all LAPACK computes
    (range 'I' of ?syevr): values ascending, columns orthonormal
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
        info, values, vectors = _solve(entries, count)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    if info != 0 or len(values) != count:
        raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                          f"{len(values)} of {count} eigenpairs")
    _verify(entries, values, vectors, scale)
    return EigenResult(values=values, vectors=vectors, scale=float(scale))


def _solve(entries, count):
    """LAPACK's lowest ``count`` eigenpairs: (info, values, vectors)."""
    dtype = np.complex128 if np.iscomplexobj(entries) else np.float64
    driver = _DRIVERS.get(dtype)
    if driver is None:
        values, vectors = np.linalg.eigh(entries)
        return 0, values[:count], vectors[:, :count]
    n = entries.shape[0]
    # ?syevr overwrites its input, so it gets a private copy.  Read as
    # column-major, this C-order conj(H) is H itself, and its upper
    # triangle is the lower triangle numpy.linalg.eigh reads.
    a = np.empty((n, n), dtype)
    np.conjugate(entries, out=a)
    m = np.zeros(1, np.int64)
    w = np.empty(n)
    z = np.empty((count, n), dtype)  # column-major n x count
    isuppz = np.empty(2 * count, np.int64)
    info = driver(_COL_MAJOR, b"V", b"I", b"U", n, a.ctypes.data, n, 0.0, 0.0,
                  1, count, 0.0, m.ctypes.data, w.ctypes.data, z.ctypes.data,
                  n, isuppz.ctypes.data)
    found = int(m[0])
    return info, w[:found], z[:found].T


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
