"""Dense Hermitian eigendecomposition with verified contracts.

A matrix reaches the solver as a ``BlochMatrix``: a ``CheckedBlock`` V plus
a real diagonal T, H = V + diag(T).  Along a sweep only T changes, and
H - H^dagger equals V - V^dagger entry for entry, so every pass over the
dim x dim entries that checks H is made once per block, by
``CheckedBlock.of``: the shape, max|V - V^dagger| and the off-diagonal
max|V|.  Each solve then costs, outside LAPACK, O(dim) for max|H| (the
larger of the off-diagonal max|V| and max|diag V + T|), one dim x dim write
of conj(V) + T into the buffer LAPACK overwrites, and the residual product
V X + T X on the pairs returned.  Non-finite entries, of V or of an
overflowing T, make max|H| non-finite and are rejected there, before LAPACK
sees the matrix; so is a stored deviation above 1e-12 max|H|.  An ndarray
is solved on the same path, as a block with T = 0.

The decomposition itself is delegated to LAPACK's MRRR subset solvers,
which compute only the lowest ``count`` eigenpairs: dsyevr for a real block
and zheevr for a complex one.  Both are called through ctypes from the
OpenBLAS that numpy itself links (the ILP64 ``scipy_LAPACKE_dsyevr64_`` and
``..._zheevr64_`` symbols of numpy's wheels), so they cost no import and no
dependency.  A numpy whose LAPACK lacks those symbols falls back to
numpy.linalg.eigh on the dense H, which solves the full spectrum
(dsyevd / zheevd), and keeps the lowest ``count`` pairs.  This module owns
the contract: ascending eigenvalues, orthonormal eigenvectors, and a
residual bound relative to max|H|, checked on every solve for exactly the
eigenpairs returned, whose figures the result carries.  Non-Hermitian or
non-finite input and solver non-convergence raise distinct errors.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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
class CheckedBlock:
    """A square matrix V with the figures ``eigh`` needs from it, taken once.

    ``herm`` is max|V - V^dagger|, ``off_max`` the largest off-diagonal
    |V_ij| and ``diag`` a copy of V's diagonal.  ``matrix`` is V itself (as
    float64 or complex128), not a copy, so it must not change while the
    block is in use.  Non-finite entries are kept, not raised here: they
    make max|H| non-finite at every solve, so the error names the first
    k-point solved.
    """

    matrix: np.ndarray
    herm: float
    off_max: float
    diag: np.ndarray

    @classmethod
    def of(cls, v) -> "CheckedBlock":
        v = np.asarray(v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise NonHermitianError(f"matrix must be square, got {v.shape}")
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64,
                     copy=False)
        with np.errstate(invalid="ignore"):  # inf - inf; max|H| rejects it
            herm = np.abs(v - v.conj().T).max()
        off = np.abs(v)
        off.flat[::len(v) + 1] = 0.0
        return cls(v, herm, off.max(), v.diagonal().copy())

    @property
    def dim(self) -> int:
        return len(self.diag)


@dataclass(frozen=True, eq=False)
class BlochMatrix:
    """Hermitian H = V + diag(kinetic) at one Bloch vector, in eV."""

    block: CheckedBlock
    kinetic: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.kinetic)

    @property
    def entries(self) -> np.ndarray:
        """H as a dense array, assembled anew at each access."""
        h = self.block.matrix.copy()
        h.flat[::self.dim + 1] += self.kinetic
        return h


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match, and
    the figures the solve was verified by: ``scale`` is max|H| (eV),
    ``residual`` the worst ||H v - lambda v|| / max|H| (at most 1e-8),
    ``orthonormality`` max|X^dagger X - I| (at most 1e-8) and
    ``hermiticity`` max|H - H^dagger| (eV, at most 1e-12 max|H|)."""

    values: np.ndarray
    vectors: np.ndarray
    scale: float
    residual: float
    orthonormality: float
    hermiticity: float


def eigh(h, count: int | None = None) -> EigenResult:
    """Lowest ``count`` eigenpairs (default: all) of a Hermitian matrix.

    ``h`` is a BlochMatrix or an ndarray, which is checked as a block with
    a zero diagonal; a real block is solved as real symmetric, a complex
    one as complex Hermitian.  Guarantees on return, for the ``count``
    pairs returned, which are all LAPACK computes (range 'I' of ?syevr):
    values ascending, columns orthonormal to 1e-8, and
    ||H v_i - lambda_i v_i|| <= 1e-8 max|H| for every i.
    A ``count`` outside 1..dim raises ValueError (sweeps rely on this).
    """
    if not isinstance(h, BlochMatrix):
        block = CheckedBlock.of(h)
        h = BlochMatrix(block, np.zeros(block.dim))
    n = h.dim
    if count is None:
        count = n
    elif not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    block = h.block
    # Off the diagonal H is V, so max|H| needs only diag V + T; the same
    # number np.abs(H).max() gives, NaN included.
    scale = np.maximum(block.off_max, np.abs(block.diag + h.kinetic).max())
    if not np.isfinite(scale):
        raise NonHermitianError("matrix has non-finite entries")
    if block.herm > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {block.herm:.3e} "
            f"(max entry {scale:.3e})")
    try:
        info, values, vectors = _solve(h, count)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    if info != 0 or len(values) != count:
        raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                          f"{len(values)} of {count} eigenpairs")
    residual, ortho = _verify(h, values, vectors, scale)
    return EigenResult(values=values, vectors=vectors, scale=float(scale),
                       residual=residual, orthonormality=ortho,
                       hermiticity=float(block.herm))


def _solve(h, count):
    """LAPACK's lowest ``count`` eigenpairs of a BlochMatrix:
    (info, values, vectors)."""
    v = h.block.matrix
    driver = _DRIVERS.get(v.dtype.type)
    if driver is None:
        values, vectors = np.linalg.eigh(h.entries)
        return 0, values[:count], vectors[:, :count]
    n = h.dim
    # ?syevr overwrites its input, so it gets a private H, written as
    # conj(V) + T.  Read as column-major, this C-order conj(H) is H itself,
    # and its upper triangle is the lower triangle numpy.linalg.eigh reads.
    a = np.empty((n, n), v.dtype)
    np.conjugate(v, out=a)
    a.flat[::n + 1] += h.kinetic
    m = np.zeros(1, np.int64)
    w = np.empty(n)
    z = np.empty((count, n), v.dtype)  # column-major n x count
    isuppz = np.empty(2 * count, np.int64)
    info = driver(_COL_MAJOR, b"V", b"I", b"U", n, a.ctypes.data, n, 0.0, 0.0,
                  1, count, 0.0, m.ctypes.data, w.ctypes.data, z.ctypes.data,
                  n, isuppz.ctypes.data)
    found = int(m[0])
    return info, w[:found], z[:found].T


def _verify(h, values, vectors, scale):
    """Check the pairs; return (worst residual / max|H|, orthonormality)."""
    if np.any(np.diff(values) < 0):
        raise SolverError("eigenvalues are not ascending")
    gram = vectors.conj().T @ vectors
    ortho = float(np.abs(gram - np.eye(len(values))).max())
    if ortho > ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho:.3e}")
    # H X - X diag(lambda) = V X + (T - lambda) X.  Scaled before the norm,
    # whose squares overflow once |H| passes 1e154.
    r = h.block.matrix @ vectors + (h.kinetic[:, None] - values) * vectors
    residual = float(np.linalg.norm(r / max(scale, 1e-300), axis=0).max())
    if residual > RESIDUAL_TOL:
        raise SolverError(f"residual {residual:.3e} max|H| exceeds "
                          f"{RESIDUAL_TOL:.1e} max|H|")
    return residual, ortho
