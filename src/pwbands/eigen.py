"""Dense Hermitian eigendecomposition with verified contracts.

A matrix reaches the solver as a ``BlochMatrix``: V, a real diagonal T,
H = V + diag(T), and V's figures, taken once per V by ``BlochMatrix.of``,
so a solve costs, outside LAPACK, O(dim) for max|H|, one write of each
row's block plus T, and the residual V X + T X on the pairs returned.
Bad input is rejected before LAPACK; an ndarray is V with T = 0.

Its ``sectors`` (``hamiltonian.row_blocks``) are one row of each irrep
of the k-point's little group; without them H is one row.  LAPACK
solves a k-point once: ?sytrd (?hetrd) reduces each row's block to a
tridiagonal, one ?stemr (MRRR) on those laid end to end, uncoupled, finds
the lowest min(count, rows) levels of all rows in O(rows x levels) work,
and ?ormtr (?unmtr) back-transforms each row's vectors.  The reduction
runs with a 16-column panel and the back-transform unblocked, its work one
word a vector: for the few vectors kept, LAPACK's blocked path spends more
forming a triangular factor per 32 reflectors than applying them (a
197-row block, 5 vectors: 125 us blocked, 51 us unblocked).  ?stemr picks
levels across rows by bisection, to about 1e-8 |E|, so one Sturm count
(?larrc) of the stacked tridiagonal checks that no level lies more than
SELECTION_TOL max|H| below the highest returned but was passed over; if
one does, each row is solved alone, where the pick is exact.  A row's
level is H's once per partner row; the lowest ``count``, so repeated, are
verified against the whole H.  The stages are numpy's own
``scipy_LAPACKE_*_work64_`` and ``scipy_dlarrc_64_``, via ctypes; without
them numpy.linalg.eigh solves the unsplit H whole.

A matrix whose largest row has fewer than ONE_THREAD_BELOW (512) rows is
solved and verified on one OpenBLAS thread (a process-wide count, put back
after): below that a second thread saves at most a tenth of the time
but spins between calls, doubling CPU time.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12

# Residual bound, relative to max|H|, and orthonormality bound.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8

# A level ?stemr passes over lies at most this times max|H| below the
# highest it returns; a lower one makes each row be solved alone (see the
# module docstring).
SELECTION_TOL = 1e-12

# A matrix whose largest LAPACK block has fewer rows than this is solved
# on one OpenBLAS thread (see the module docstring).
ONE_THREAD_BELOW = 512


def _bind():
    """numpy's OpenBLAS: the three LAPACKE stages and the Sturm count
    ?larrc by the dtype they solve ({} if one is absent), and its thread
    count's (get, set) or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return {}, None
    try:
        drivers = {dtype: tuple(getattr(lib, f"scipy_LAPACKE_{name}_work64_")
                                for name in names) for dtype, names in (
            (np.float64, ("dsytrd", "dstemr", "dormtr")),
            (np.complex128, ("zhetrd", "zstemr", "zunmtr")))}
        sturm = lib.scipy_dlarrc_64_  # the tridiagonal is real for both
    except AttributeError:
        drivers = {}
    # Arguments after the layout: c(har), i(nt64), p(ointer), d(ouble).
    kinds = {"c": ctypes.c_char, "i": ctypes.c_int64, "p": ctypes.c_void_p,
             "d": ctypes.c_double}
    for stages in drivers.values():
        for stage, sig in zip(stages, ("cipippppi", "ccippddiipppiipppipi",
                                       "ccciipippipi")):
            stage.argtypes = [ctypes.c_int] + [kinds[c] for c in sig]
            stage.restype = ctypes.c_int64
    if drivers:  # Fortran: every argument by reference, then jobt's length
        sturm.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [
            ctypes.c_size_t]
        sturm.restype = None
        drivers = {dtype: (*stages, sturm) for dtype, stages in drivers.items()}
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

# One thread count per process, so one scope: the first of any concurrent
# one-thread solves saves the count and the last to leave puts it back.
_scope = threading.Lock()
_held = {"depth": 0, "count": 0}


@contextmanager
def _one_thread(rows: int):
    """OpenBLAS on one thread inside, for a largest block of fewer than
    ONE_THREAD_BELOW ``rows``, else as it was; the caller's count after."""
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

    ``matrix`` is V itself (float64 or complex128), not a copy, so it must
    not change while H is in use.  ``herm`` is max|V - V^dagger|,
    ``off_max`` the largest off-diagonal |V_ij| and ``diag`` a copy of V's
    diagonal.  Non-finite entries are kept: they make max|H| non-finite at
    every solve, so the error names the first k-point solved.  ``sectors``
    splits the basis into rows of the irreps of a group of symmetries of H;
    empty, H is whole."""

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
    ``sectors`` holds the dims of the row blocks solved (H's own dim for H
    whole), ``labels`` each level's irrep symbol ("" for H whole)."""

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

    ``h`` is a BlochMatrix or an ndarray (a block with a zero diagonal),
    solved real symmetric or complex Hermitian as its dtype is.  Guaranteed
    for the pairs returned, as vectors of the whole basis: values ascending,
    columns orthonormal to 1e-8, ||H v_i - lambda_i v_i|| <= 1e-8 max|H|.
    A ``count`` outside 1..dim raises ValueError."""
    if not isinstance(h, BlochMatrix):
        h = BlochMatrix.of(h)
    n = h.dim
    count = n if count is None else count
    if not 1 <= count <= n:
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
        values, vectors, labels = _lowest(split, h.kinetic, count, scale)
        residual, ortho = _verify(h, values, vectors, scale)
    return EigenResult(values=values, vectors=vectors, scale=float(scale),
                       residual=residual, orthonormality=ortho,
                       hermiticity=float(h.herm),
                       sectors=tuple(len(s.rows) for s in split),
                       labels=labels)


def _lowest(split, kinetic, count, scale):
    """H's lowest ``count`` pairs from one solve of the rows in ``split``:
    (ascending values, vectors of the whole basis, each level's label)."""
    want = min(count, sum(len(s.rows) for s in split))
    try:
        info, pairs = _solve([(s.matrix, kinetic[s.rows]) for s in split],
                             want, scale)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    found = sum(len(w) for w, _ in pairs)
    if info != 0 or found != want:
        raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                          f"{found} of {want} eigenpairs")
    values, rows, labels = [], [], []  # eigenvectors as rows, C-ordered
    for sector, (w, z) in zip(split, pairs):  # by row, partner, level
        partners = len(sector.coef)
        values += [w] * partners
        rows.append(sector.expand(z.T))
        labels += [sector.label] * (partners * len(w))
    values = np.concatenate(values)
    if not np.isfinite(values).all():  # NaN would sort past the kept
        raise SolverError("eigensolver returned non-finite eigenvalues")
    keep = np.argsort(values, kind="stable")[:count]
    return (values[keep], np.concatenate(rows)[keep].T,
            tuple(labels[i] for i in keep.tolist()))


def _solve(blocks, count, scale):
    """The lowest ``count`` levels of blocks V_s + diag(T_s) of max|H|
    ``scale``, each counted once: (info, [(values, vectors) per block])."""
    v = blocks[0][0]
    stages = _DRIVERS.get(v.dtype.type)
    if stages is None:  # eigh splits nothing without a driver
        (v, kinetic), = blocks
        h = v.copy()
        h.flat[::len(v) + 1] += kinetic
        values, vectors = np.linalg.eigh(h)
        return 0, [(values[:count], vectors[:, :count])]
    reduce, stemr, back, sturm = stages
    # max|H| scaled near 1 by a power of two, exactly: ?stemr meets no
    # absolute threshold (z05 at a = 1e-6 A, max|H| 1e15 eV, gave info 22).
    f = 2.0 ** min(-round(math.log2(scale)), 1023) if scale else 1.0
    sizes = [len(kinetic) for _, kinetic in blocks]
    n, rows, k, info = sum(sizes), [0, *accumulate(sizes)], v.itemsize // 8, 0
    # One buffer of 8-byte words, as a ctypes pointer costs ~2 us: work
    # (?sytrd's 16-wide panel, ?stemr's, ?ormtr's one word a vector), d, e,
    # copies of d and e then ?larrc's point and pivmin, w, ?stemr's ints
    # (isuppz, m, tryrac, iwork) then ?larrc's (n and four counts), z, z by
    # block, blocks.
    at = [0, *accumulate([max(18 * n, 16 * k * max(sizes)), n, n, 2 * n + 2,
                          n, 2 * count + 7 + 10 * n, k * n * count,
                          k * n * count] + [k * (m * m + m) for m in sizes])]
    buf = np.empty(at[-1])
    base = buf.ctypes.data
    ptr = [base + 8 * o for o in at]
    buf[at[2]:at[3]] = 0.0  # e: no coupling between blocks
    for s, ((v, kinetic), m) in enumerate(zip(blocks, sizes)):
        a = buf[at[8 + s]:at[8 + s] + k * m * m].view(v.dtype).reshape(m, m)
        np.multiply(v, f, out=a)  # C-order conj(H) is H column-major
        if k == 2:
            np.conjugate(a, out=a)
        a.reshape(-1)[::m + 1] += kinetic * f
        info = info or reduce(_COL_MAJOR, b"U", m, ptr[8 + s], m,
                              ptr[1] + 8 * rows[s], ptr[2] + 8 * rows[s],
                              ptr[8 + s] + 8 * k * m * m, ptr[0], 16 * m)
    buf[at[3]:at[3] + 2 * n] = buf[at[1]:at[3]]  # ?stemr overwrites d, e
    ints, tail = buf[at[5]:at[6]].view(np.int64), ptr[5] + 16 * count
    ints[2 * count + 1] = 1  # TRYRAC: try for relative accuracy
    info = info or stemr(_COL_MAJOR, b"V", b"I", n, ptr[1], ptr[2], 0.0, 0.0,
                         1, count, tail, ptr[4], ptr[6], n, count, ptr[5],
                         tail + 8, ptr[0], 18 * n, tail + 16, 10 * n)
    found = 0 if info else int(ints[2 * count])
    if found == count and len(sizes) > 1:
        # ?stemr picks across blocks by bisection, to about 1e-8 |E|: one
        # Sturm count of the copies finds a level it passed over below the
        # highest returned, less SELECTION_TOL max|H|.  One block's pick is
        # exact, so each block is then solved alone.
        w = buf[at[4]:at[4] + found].tolist()  # ascending
        buf[at[4] - 2] = point = w[-1] - SELECTION_TOL * scale * f
        buf[at[4] - 1] = 0.0  # pivmin
        ints[-5] = n
        counts = tail + 16 + 80 * n  # n, then eigcnt, lcnt, rcnt, info
        sturm(b"T", counts, ptr[4] - 16, ptr[4] - 16, ptr[3], ptr[3] + 8 * n,
              ptr[4] - 8, counts + 8, counts + 16, counts + 24, counts + 32, 1)
        below = found  # levels of w at or below the point
        while below and w[below - 1] > point:
            below -= 1
        if ints[-3] > below:
            return _by_row(blocks, count, scale)
    # Each level's block: where its vector's support starts.  By block,
    # a block's p vectors are a column-major m x p matrix of z.
    owner = np.searchsorted(rows[1:], ints[:2 * found:2] - 1, side="right")
    order = np.argsort(owner, kind="stable")
    ends = [0, *accumulate(np.bincount(owner, None, len(sizes)).tolist())]
    z = buf[at[7]:at[8]].view(v.dtype).reshape(count, n)[:found]
    np.take(buf[at[6]:at[7]].view(v.dtype).reshape(count, n), order, 0, z)
    w, pairs = buf[at[4]:at[4] + found][order] / f, []
    for s, (m, i, j) in enumerate(zip(sizes, ends, ends[1:])):
        # Work of one word a vector: the unblocked back-transform, cheaper
        # than forming a triangular factor per panel for so few vectors.
        info = info or back(_COL_MAJOR, b"L", b"U", b"N", m, j - i, ptr[8 + s],
                            m, ptr[8 + s] + 8 * k * m * m, ptr[7] + 8 * k
                            * (i * n + rows[s]), n, ptr[0], max(1, j - i))
        pairs.append((w[i:j], z[i:j, rows[s]:rows[s] + m].T))
    return info, pairs


def _by_row(blocks, count, scale):
    """``_solve`` on each block alone, whose levels ?stemr picks exactly,
    then the lowest ``count`` of them all: (info, pairs) as ``_solve``."""
    solved = [_solve([block], min(count, len(block[1])), scale)
              for block in blocks]
    pairs = [pair for _, (pair,) in solved]
    owner = np.repeat(np.arange(len(pairs)), [len(w) for w, _ in pairs])
    kept = owner[np.argsort(np.concatenate([w for w, _ in pairs]),
                            kind="stable")[:count]]
    return (next((info for info, _ in solved if info), 0),
            [(w[:p], z[:, :p]) for (w, z), p in
             zip(pairs, np.bincount(kept, None, len(pairs)).tolist())])


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
