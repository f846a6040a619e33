"""Dense Hermitian eigendecomposition with verified contracts.

A matrix reaches the solver as a ``BlochMatrix``: V, a real diagonal T,
H = V + diag(T), and V's figures.  Along a sweep only T changes, and
H - H^dagger equals V - V^dagger entry for entry, so every pass over the
dim x dim entries that checks H is made once per V, by ``BlochMatrix.of``:
the shape, max|V - V^dagger| and the off-diagonal max|V|; a smaller
cutoff's V, a leading block, is checked anew by ``BlochMatrix.leading``.
Each solve then costs, outside LAPACK, O(dim) for max|H| (the larger of
the off-diagonal max|V| and max|diag V + T|), one dim x dim write of
conj(V) + T into the buffer LAPACK overwrites, and the residual product
V X + T X on the pairs returned.  Non-finite entries, of V or of an
overflowing T, make max|H| non-finite and are rejected there, before LAPACK
sees the matrix; so is a stored deviation above 1e-12 max|H|.  An ndarray
is solved on the same path, as V with T = 0.

A BlochMatrix may carry ``sectors``: one row of each irrep of the Bloch
vector's little group (``hamiltonian.row_blocks``).  Each row's block plus
T is solved once, for the lowest ceil(count/d) pairs of a d-dimensional
irrep, whose d partner rows repeat its levels; the lowest ``count`` of all
are kept, mapped back to the whole basis and verified against the whole H,
so a wrong split, or rows that do not span the basis, raise SolverError
instead of writing energies.  With no sectors H is solved whole.

The decomposition itself is delegated to LAPACK's MRRR subset solvers,
which compute only the lowest ``count`` eigenpairs: dsyevr for a real block
and zheevr for a complex one.  Both are called through ctypes from the
OpenBLAS that numpy itself links (the ILP64 ``scipy_LAPACKE_dsyevr64_`` and
``..._zheevr64_`` symbols of numpy's wheels), so they cost no import and no
dependency.  A numpy whose LAPACK lacks those symbols falls back to
numpy.linalg.eigh on the dense, unsplit H, which solves the full spectrum
(dsyevd / zheevd), and keeps the lowest ``count`` pairs.  This module owns
the contract: ascending eigenvalues, orthonormal eigenvectors, and a
residual bound relative to max|H|, checked on every solve for exactly the
eigenpairs returned, whose figures the result carries.  Non-Hermitian or
non-finite input and solver non-convergence raise distinct errors.

A matrix whose largest LAPACK block has fewer than ONE_THREAD_BELOW (512)
rows is solved and verified on one OpenBLAS thread, a larger one at the
caller's thread count.  On 2 cores a dsyevr solve for 8 pairs takes, on one
thread against two, 0.75x as long at 128 rows, within 4% from 256 to 450,
1.1-1.15x at 512 to 600, 1.35-1.4x at 800 and 1.65x at 1100; below the
crossover the second thread only busy-waits, doubling the CPU time.  The
count is OpenBLAS's one setting for the whole process (numpy's
``scipy_openblas_{get,set}_num_threads64_``), so while any such solve runs,
every BLAS call in the process runs on one thread; the count in force
before the first of them is put back when the last returns or raises.
Without those symbols the count is left alone.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12

# Residual bound, relative to max|H|, and orthonormality bound.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8

# A matrix whose largest LAPACK block has fewer rows than this is solved
# and verified on one OpenBLAS thread: the crossover measured below which
# a second thread saves no time (see the module docstring).
ONE_THREAD_BELOW = 512


def _bind():
    """numpy's OpenBLAS: the LAPACKE subset drivers keyed by the dtype they
    solve, {} if absent, and its (get, set) thread count pair, None if
    absent."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return {}, None
    try:
        drivers = {np.float64: lib.scipy_LAPACKE_dsyevr64_,
                   np.complex128: lib.scipy_LAPACKE_zheevr64_}
    except AttributeError:
        drivers = {}
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for driver in drivers.values():
        # (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
        #  m, w, z, ldz, isuppz); the 64 suffix means 64-bit integers.
        driver.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                           ctypes.c_char, i64, ptr, i64, ctypes.c_double,
                           ctypes.c_double, i64, i64, ctypes.c_double, ptr,
                           ptr, ptr, i64, ptr]
        driver.restype = i64
    try:  # int get(void) and void set(int), C ints despite the suffix
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return drivers, None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return drivers, (get, put)


_DRIVERS, _THREADS = _bind()
_COL_MAJOR = 102

# OpenBLAS's thread count is one per process, so its scope is too: the
# first of any concurrent one-thread solves saves the count and the last
# to leave puts it back.
_scope = threading.Lock()
_held = {"depth": 0, "count": 0}


@contextmanager
def _one_thread(rows: int):
    """OpenBLAS on one thread inside, for a largest block of fewer than
    ONE_THREAD_BELOW ``rows``; the caller's count again on every exit.  No
    effect for a larger block or without the thread binding."""
    threads = _THREADS
    if threads is None or rows >= ONE_THREAD_BELOW:
        yield
        return
    get, put = threads
    with _scope:
        if not _held["depth"]:
            _held["count"] = get()
            put(1)
        _held["depth"] += 1
    try:
        yield
    finally:
        with _scope:
            _held["depth"] -= 1
            if not _held["depth"]:
                put(_held["count"])


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance, or not finite."""


class SolverError(RuntimeError):
    """The eigensolver failed to converge or to meet its contract."""


class Sector(NamedTuple):
    """One row of an irrep of a group of symmetries of V, and V's block in it.

    U_j, the dim x n basis of partner row j < d, has U_j[i, column[i, e]] =
    coef[j, i, e].  Each column lies in one orbit of the group, whose first
    basis row ``rows`` holds, ascending, so leading columns span leading
    rows.  ``matrix`` is U_0^T V U_0 (every partner's block; unchecked,
    ``eigh`` checks H), T enters as T[rows], and ``label`` is the irrep's
    symbol, "" for H solved whole."""

    label: str
    rows: np.ndarray
    column: np.ndarray
    coef: np.ndarray
    matrix: np.ndarray

    def expand(self, ys: np.ndarray) -> np.ndarray:
        """(U_j y)^T for each partner j, then each row y of ys."""
        xs = sum(np.take(ys, col, axis=1) * coef[:, None] for col, coef in
                 zip(self.column.T, self.coef.transpose(2, 0, 1)))
        return xs.reshape(-1, xs.shape[-1])


class BlochMatrix(NamedTuple):
    """Hermitian H = V + diag(kinetic) at one Bloch vector, in eV, with the
    figures ``eigh`` needs from V, taken once by ``of``.

    ``matrix`` is V itself (as float64 or complex128), not a copy, so it
    must not change while H is in use.  ``herm`` is max|V - V^dagger|,
    ``off_max`` the largest off-diagonal |V_ij| and ``diag`` a copy of V's
    diagonal.  Non-finite entries are kept, not raised here: they make
    max|H| non-finite at every solve, so the error names the first k-point
    solved.  ``sectors`` splits the basis into rows of the irreps of a
    group of symmetries of H, which ``eigh`` solves one by one; empty, H is
    whole.
    """

    matrix: np.ndarray
    herm: float
    off_max: float
    diag: np.ndarray
    kinetic: np.ndarray
    sectors: tuple = ()

    @classmethod
    def of(cls, v, kinetic=None, sectors=()) -> "BlochMatrix":
        """V checked in one O(dim^2) pass; T = 0 unless ``kinetic``."""
        v = np.asarray(v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise NonHermitianError(f"matrix must be square, got {v.shape}")
        v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64,
                     copy=False)
        # One dim x dim float scratch holds |V - V^dagger|, then |V|.
        with np.errstate(invalid="ignore"):  # inf - inf; max|H| rejects it
            dev = v - v.conj().T
        scratch = np.abs(dev, out=dev if dev.dtype == np.float64 else None)
        herm = scratch.max()
        off = np.abs(v, out=scratch)
        off.flat[::len(v) + 1] = 0.0
        return cls(v, herm, off.max(), v.diagonal().copy(),
                   np.zeros(len(v)) if kinetic is None else kinetic, sectors)

    @property
    def dim(self) -> int:
        return len(self.diag)

    @property
    def entries(self) -> np.ndarray:
        """H as a dense array, assembled anew at each access."""
        h = self.matrix.copy()
        h.flat[::self.dim + 1] += self.kinetic
        return h

    def leading(self, dim: int) -> "BlochMatrix":
        """H on the first ``dim`` rows (a smaller cutoff's): V's leading
        block, checked anew, T[:dim] and views of the row blocks, or no row
        blocks if some orbit straddles row ``dim``.  At the whole dim, H
        itself, not checked again."""
        if dim == self.dim:
            return self
        lead = []
        for sector in self.sectors:
            m = np.searchsorted(sector.rows, dim)
            if np.any((sector.coef[:, dim:] != 0) & (sector.column[dim:] < m)):
                lead = []
                break
            if m:
                lead.append(sector._replace(
                    rows=sector.rows[:m], column=sector.column[:dim],
                    coef=sector.coef[:, :dim], matrix=sector.matrix[:m, :m]))
        return BlochMatrix.of(self.matrix[:dim, :dim], self.kinetic[:dim],
                              tuple(lead))


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match, and
    the figures the solve was verified by: ``scale`` is max|H| (eV),
    ``residual`` the worst ||H v - lambda v|| / max|H| (at most 1e-8),
    ``orthonormality`` max|X^dagger X - I| (at most 1e-8) and
    ``hermiticity`` max|H - H^dagger| (eV, at most 1e-12 max|H|).
    ``sectors`` holds the dims of the matrices LAPACK solved: one per
    irrep of the little group, or H's own dim when it was solved whole, and
    ``labels`` each level's irrep symbol ("" when H was solved whole)."""

    values: np.ndarray
    vectors: np.ndarray
    scale: float
    residual: float
    orthonormality: float
    hermiticity: float
    sectors: tuple
    labels: tuple


def eigh(h, count: int | None = None) -> EigenResult:
    """Lowest ``count`` eigenpairs (default: all) of a Hermitian matrix.

    ``h`` is a BlochMatrix or an ndarray, which is checked as a block with
    a zero diagonal; a real block is solved as real symmetric, a complex
    one as complex Hermitian, one LAPACK call (range 'I' of ?syevr) per
    row of an irrep ``h`` carries, or one for H whole.  Guarantees on
    return, for the ``count`` pairs returned, as vectors of the whole basis:
    values ascending, columns orthonormal to 1e-8, and
    ||H v_i - lambda_i v_i|| <= 1e-8 max|H| for every i.
    A ``count`` outside 1..dim raises ValueError (sweeps rely on this).
    """
    if not isinstance(h, BlochMatrix):
        h = BlochMatrix.of(h)
    n = h.dim
    if count is None:
        count = n
    elif not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    # Off the diagonal H is V, so max|H| needs only diag V + T; the same
    # number np.abs(H).max() gives, NaN included.
    scale = np.maximum(h.off_max, np.abs(h.diag + h.kinetic).max())
    if not np.isfinite(scale):
        raise NonHermitianError("matrix has non-finite entries")
    if h.herm > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {h.herm:.3e} "
            f"(max entry {scale:.3e})")
    # The fallback solves H whole: it is the reference a split is held to.
    split = h.sectors if h.matrix.dtype.type in _DRIVERS else ()
    if not split:  # the trivial split: H as one row
        every = np.arange(n)
        split = (Sector("", every, every[:, None], np.ones((1, n, 1)),
                        h.matrix),)
    if sum(len(s.coef) * len(s.rows) for s in split) != n:
        raise SolverError("symmetry rows do not span the basis")
    with _one_thread(max(len(s.rows) for s in split)):
        values, vectors, labels = _lowest(split, h.kinetic, count)
        residual, ortho = _verify(h, values, vectors, scale)
    return EigenResult(values=values, vectors=vectors, scale=float(scale),
                       residual=residual, orthonormality=ortho,
                       hermiticity=float(h.herm),
                       sectors=tuple(len(s.rows) for s in split),
                       labels=labels)


def _lowest(split, kinetic, count):
    """The lowest ``count`` of the pairs of every row in ``split``, as
    (ascending values, vectors of the whole basis, each level's label)."""
    values, rows, labels = [], [], []  # eigenvectors as rows, C-ordered
    for sector in split:
        # A row of a d-dimensional irrep holds every d-th level.
        partners = len(sector.coef)
        want = min(-(-count // partners), len(sector.rows))
        try:
            info, w, z = _solve(sector.matrix, kinetic[sector.rows], want)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigensolver did not converge: {exc}") from exc
        if info != 0 or len(w) != want:
            raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                              f"{len(w)} of {want} eigenpairs")
        values += [w] * partners
        rows.append(sector.expand(z.T))
        labels += [sector.label] * (partners * want)
    values = np.concatenate(values)
    if not np.isfinite(values).all():  # NaN would sort past the kept
        raise SolverError("eigensolver returned non-finite eigenvalues")
    keep = np.argsort(values, kind="stable")[:count]
    return (values[keep], np.concatenate(rows)[keep].T,
            tuple(labels[i] for i in keep.tolist()))


def _solve(v, kinetic, count):
    """LAPACK's lowest ``count`` eigenpairs of V + diag(kinetic):
    (info, values, vectors)."""
    n = len(kinetic)
    driver = _DRIVERS.get(v.dtype.type)
    if driver is None:
        h = v.copy()
        h.flat[::n + 1] += kinetic
        values, vectors = np.linalg.eigh(h)
        return 0, values[:count], vectors[:, :count]
    # ?syevr overwrites its input, so it gets a private H, written as
    # conj(V) + T: read as column-major, this C-order conj(H) is H itself,
    # its upper triangle numpy.linalg.eigh's lower.  One buffer of 8-byte
    # words holds H, the n x count vectors, the values, m and isuppz.
    k = v.itemsize // 8
    w = k * n * (n + int(count))  # the values' first word
    buf = np.empty(w + n + 1 + 2 * count)
    a = buf[:k * n * n].view(v.dtype).reshape(n, n)
    np.conjugate(v, out=a)
    a.reshape(-1)[::n + 1] += kinetic
    at = buf.ctypes.data
    info = driver(_COL_MAJOR, b"V", b"I", b"U", n, at, n, 0.0, 0.0, 1, count,
                  0.0, at + 8 * (w + n), at + 8 * w, at + 8 * k * n * n, n,
                  at + 8 * (w + n + 1))
    found = int(buf[w + n:w + n + 1].view(np.int64)[0])
    z = buf[k * n * n:w].view(v.dtype).reshape(count, n)[:found]
    return info, buf[w:w + found].copy(), z.copy().T


def _verify(h, values, vectors, scale):
    """Check the pairs; return (worst residual / max|H|, orthonormality).

    Each test is written as ``not figure <= bound``, so a NaN fails it."""
    if not np.all(values[1:] >= values[:-1]):
        raise SolverError("eigenvalues are not ascending")
    gram = vectors.conj().T @ vectors
    gram.flat[::len(values) + 1] -= 1.0
    ortho = float(np.abs(gram).max())
    if not ortho <= ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho:.3e}")
    # H X - X diag(lambda) = V X + (T - lambda) X.  Scaled before the norm,
    # whose squares overflow once |H| passes 1e154.
    r = h.matrix @ vectors
    r += (h.kinetic[:, None] - values) * vectors
    r /= max(scale, 1e-300)
    residual = float(np.linalg.norm(r, axis=0).max())
    if not residual <= RESIDUAL_TOL:
        raise SolverError(f"residual {residual:.3e} max|H| exceeds "
                          f"{RESIDUAL_TOL:.1e} max|H|")
    return residual, ortho
