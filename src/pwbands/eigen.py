"""Dense Hermitian eigendecomposition with verified contracts.

A matrix reaches the solver as a ``BlochMatrix``: V, a real diagonal T,
H = V + diag(T), and V's figures, taken once per V by ``BlochMatrix.of``
(and those of its leading blocks in one more pass, by ``leading``), so a
solve costs, outside LAPACK, O(dim) for max|H|, one write of each
row's block plus T, and the residual V X + T X on the pairs returned.
Bad input is rejected before LAPACK; an ndarray is V with T = 0.

T may hold one row per point, shape (points, dim): a batch of Bloch
vectors that share V and its row blocks, as consecutive samples of one
line do.  ``eigh`` then takes each point's max|H| and the checks for all
points at once, sets the thread count once, picks every point's lowest
levels in one sort, expands the kept vectors of every row and point
slot by slot, a few array operations a slot, and verifies with one
X^T V^T over every point's columns, each point held to its own max|H|;
its per-point fields gain a leading point axis, as numpy's stacked
linalg does.  A 1-D T is one point and gives unbatched fields.

Its ``sectors`` (``hamiltonian.row_blocks``) are one row of each irrep of
the k-point's little group; without them H is one row.  LAPACK solves each
point once: ?sytrd (?hetrd) reduces each row's block to a tridiagonal,
one ?stemr (MRRR) on those laid end to end, uncoupled, finds the lowest
min(count, rows) levels of all rows in O(rows x levels) work, and ?ormtr
(?unmtr) back-transforms each row's vectors.  The reduction runs with a
16-column panel and the back-transform unblocked, its work one word a
vector: cheaper for the few vectors kept.  ?stemr picks levels across rows
by bisection, to about 1e-8 |E|, so ?larrc counts the stacked tridiagonal's
levels at SELECTION_TOL max|H| below the highest returned: a count that
differs from the levels returned at the point (a NaN pivot stops it short)
has each row solved alone, where the pick is exact.  A row's level is H's
once per partner row; the lowest ``count``, so repeated, are verified
against the whole H.  A returned vector belongs to the row that holds the
first entry of its support, isuppz's first index: the rows' tridiagonals
are uncoupled, so ?stemr solves each apart and no vector leaves its row.
Its own 2 x 2 path (n = 2) names the other row there when it swaps the
two levels, so at n <= 2 the first nonzero entry is read instead.  The
stages, numpy's own (``_SYMBOLS``, via ctypes;
without them numpy.linalg.eigh solves the unsplit H whole), share one
buffer per batch of 8-byte words in regions named for the argument each
holds (``_layout``): work, d, e, d copy and e copy (?stemr overwrites the
copies, ?larrc counts on d and e), point, pivmin, w, isuppz, m, tryrac,
iwork, ?larrc's n, eigcnt, lcnt, rcnt and larrc info, z, each point's w
and z by row, which its returned pairs view, and each row's block, laid
end to end, then each row's tau; all but w and z by row are reused point
after point.  Every pointer, and every argument but a back-transform's
vectors, is worked out once a batch; a point then costs, outside LAPACK,
a few array operations and one call per stage.

A matrix whose largest row has fewer than ONE_THREAD_BELOW (512) rows is
solved and verified on one OpenBLAS thread (a process-wide count, put back
after): below that a second thread saves at most a tenth of the time
but spins between calls, doubling CPU time.
"""

from __future__ import annotations

import ctypes
import math
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12

# Residual bound, relative to max|H|, and orthonormality bound.
RESIDUAL_TOL = 1e-8
ORTHONORMALITY_TOL = 1e-8

# ?larrc checks ?stemr's pick this times max|H| below the highest level
# returned (see the module docstring).
SELECTION_TOL = 1e-12

# A matrix whose largest LAPACK block has fewer rows than this is solved
# on one OpenBLAS thread (see the module docstring).
ONE_THREAD_BELOW = 512

# What _bind binds in numpy's OpenBLAS: each dtype's stages in _DRIVERS'
# order, and the thread count's int get(void) and void set(int).
_SYMBOLS = {dtype: (*(f"scipy_LAPACKE_{name}_work64_" for name in names),
                    "scipy_dlarrc_64_") for dtype, names in (
    (np.float64, ("dsytrd", "dstemr", "dormtr")),
    (np.complex128, ("zhetrd", "zstemr", "zunmtr")))} | {
    "threads": ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_set_num_threads64_")}


def _bind():
    """numpy's OpenBLAS: {dtype: (reduce, stemr, back, sturm)}, {} if one
    is absent, and its thread count's (get, set) or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return {}, None
    bound = {key: tuple(getattr(lib, name) for name in names) for key, names
             in _SYMBOLS.items() if all(hasattr(lib, n) for n in names)}
    threads = bound.pop("threads", None)
    drivers = bound if len(bound) == 2 else {}  # both dtypes or neither
    # Arguments after the layout: c(har), i(nt64), p(ointer), d(ouble).
    kinds = {"c": ctypes.c_char, "i": ctypes.c_int64, "p": ctypes.c_void_p,
             "d": ctypes.c_double}
    for *stages, sturm in drivers.values():
        for stage, sig in zip(stages, ("cipippppi", "ccippddiipppiipppipi",
                                       "ccciipippipi")):
            stage.argtypes = [ctypes.c_int] + [kinds[c] for c in sig]
            stage.restype = ctypes.c_int64
        # Fortran: every argument by reference, then jobt's length
        sturm.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 10 + [
            ctypes.c_size_t]
        sturm.restype = None
    if threads:  # C ints despite the suffix
        get, put = threads
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
    return drivers, threads


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
    coef[j, e, i]: ``coef`` is slot-major, (d, slots, dim), so each slot's
    coefficients lie contiguous.  Each column lies in one orbit of the
    group, whose first basis row ``rows`` holds, ascending, so leading
    columns span leading rows.  ``matrix`` is U_0^T V U_0 (every partner's
    block; unchecked, ``eigh`` checks H), T enters as T[rows], and
    ``label`` is the irrep's symbol, "" for H solved whole."""

    label: str
    rows: np.ndarray
    column: np.ndarray
    coef: np.ndarray
    matrix: np.ndarray


class BlochMatrix(NamedTuple):
    """Hermitian H = V + diag(kinetic) at one Bloch vector, in eV, with the
    figures ``eigh`` needs from V, taken once by ``of``; ``kinetic`` of
    shape (points, dim) is one H per point, a batch sharing V.

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
        """H as a dense array (one per point), assembled anew at each
        access."""
        h = np.array(np.broadcast_to(
            self.matrix, self.kinetic.shape[:-1] + self.matrix.shape))
        every = np.arange(self.dim)
        h[..., every, every] += self.kinetic
        return h

    def leading(self, dims) -> list:
        """H on the first d rows (a smaller cutoff's) for each d of the
        ascending ``dims``: V's leading block, T[:d] and views of the row
        blocks, or no row blocks if some orbit straddles row d.  At the
        whole dim, H itself.  The figures of all the blocks come from one
        pass over V: each block's extend the previous block's by the two
        strips that border it, so they are the ones ``of`` takes of the
        block alone, NaN included."""
        v, lead, herm, off, done = self.matrix, [], 0.0, 0.0, 0
        reach = [_reach(sector) for sector in self.sectors]
        for dim in dims:
            if dim == self.dim:
                lead.append(self)
                continue
            # |V - V^dagger| is symmetric, so its rows done:dim hold the
            # border's deviations; |V|'s border is those rows and the
            # columns done:dim above them, less the diagonal.
            with np.errstate(invalid="ignore"):  # inf - inf, as in ``of``
                dev = v[done:dim, :dim] - v[:dim, done:dim].conj().T
            rows = np.abs(v[done:dim, :dim])
            rows.flat[done::dim + 1] = 0.0
            herm = np.maximum(herm, np.abs(dev).max())
            off = np.maximum(off, np.maximum(rows.max(), np.abs(
                v[:done, done:dim]).max(initial=0.0)))
            done = dim
            lead.append(BlochMatrix(v[:dim, :dim], herm, off,
                                    self.diag[:dim], self.kinetic[..., :dim],
                                    self._sectors(dim, reach)))
        return lead

    def _sectors(self, dim: int, reach: list) -> tuple:
        """Views of the row blocks on the first ``dim`` rows, or () if some
        orbit straddles row ``dim``: the first m columns, whose orbits start
        below it, reach it (``_reach``)."""
        lead = []
        for s, last in zip(self.sectors, reach):
            m = int(s.rows.searchsorted(dim))
            if m and last[m - 1] >= dim:
                return ()
            if m:
                lead.append(Sector(s.label, s.rows[:m], s.column[:dim],
                                   s.coef[..., :dim], s.matrix[:m, :m]))
        return tuple(lead)


def _reach(sector: Sector) -> list:
    """The last basis row of a row block's first c + 1 columns, for each c:
    a column's last nonzero coefficient, as a running maximum."""
    held = np.any(sector.coef != 0, axis=0)  # (slot, basis row)
    last = np.zeros(len(sector.rows), int)
    np.maximum.at(last, sector.column.T[held], np.nonzero(held)[1])
    return np.maximum.accumulate(last).tolist()


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Ascending eigenvalues (eV) with eigenvector columns to match, and
    the figures the solve was verified by: ``scale`` is max|H| (eV),
    ``residual`` the worst ||H v - lambda v|| / max|H| (at most 1e-8),
    ``orthonormality`` max|X^dagger X - I| (at most 1e-8) and
    ``hermiticity`` max|H - H^dagger| (eV, at most 1e-12 max|H|).
    ``sectors`` holds the dims of the row blocks solved (H's own dim for H
    whole), ``labels`` each level's irrep symbol ("" for H whole).  For a
    batch, ``values``, ``vectors``, ``scale``, ``residual``,
    ``orthonormality`` and ``labels`` have a leading point axis; V's
    ``hermiticity`` and the ``sectors`` are the batch's."""

    values: np.ndarray
    vectors: np.ndarray
    scale: float | np.ndarray
    residual: float | np.ndarray
    orthonormality: float | np.ndarray
    hermiticity: float
    sectors: tuple
    labels: tuple


def eigh(h, count: int | None = None) -> EigenResult:
    """Lowest ``count`` eigenpairs (default: all) of a Hermitian matrix, or
    of each matrix of a batch (``BlochMatrix`` with 2-D ``kinetic``).

    ``h`` is a BlochMatrix or an ndarray (a block with a zero diagonal),
    solved real symmetric or complex Hermitian as its dtype is.  Guaranteed
    for the pairs returned, as vectors of the whole basis: values ascending,
    columns orthonormal to 1e-8, ||H v_i - lambda_i v_i|| <= 1e-8 max|H|,
    each point of a batch against its own max|H|.  A ``count`` outside
    1..dim raises ValueError."""
    if not isinstance(h, BlochMatrix):
        h = BlochMatrix.of(h)
    n = h.dim
    count = n if count is None else count
    if not 1 <= count <= n:
        raise ValueError(f"count={count} outside 1..{n}")
    kinetic = h.kinetic.reshape(-1, n)  # one row per point
    # Off the diagonal H is V, so max|H| needs only diag V + T; the same
    # number np.abs(H).max() gives, NaN included.
    scales = np.abs(h.diag + kinetic).max(axis=1, initial=h.off_max)
    listed = scales.tolist()
    if not all(map(math.isfinite, listed)):
        raise NonHermitianError("matrix has non-finite entries")
    if h.herm > HERMITICITY_TOL * min(listed):
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {h.herm:.3e} "
            f"(max entry {min(listed):.3e})")
    # The fallback solves H whole: it is the reference a split is held to.
    split = h.sectors if h.matrix.dtype.type in _DRIVERS else ()
    if not split:  # the trivial split: H as one row
        every = np.arange(n)
        split = (Sector("", every, every[:, None], np.ones((1, 1, n)),
                        h.matrix),)
    if sum(len(s.coef) * len(s.rows) for s in split) != n:
        raise SolverError("symmetry rows do not span the basis")
    with _one_thread(max(len(s.rows) for s in split)):
        values, vectors, labels = _lowest(split, kinetic, count, scales)
        residual, ortho = _verify(h.matrix, kinetic, values, vectors, scales)
    if h.kinetic.ndim == 1:  # one point, unbatched
        values, vectors, labels = values[0], vectors[0], labels[0]
        scales, residual, ortho = (float(scales[0]), float(residual[0]),
                                   float(ortho[0]))
    return EigenResult(values=values, vectors=vectors, scale=scales,
                       residual=residual, orthonormality=ortho,
                       hermiticity=float(h.herm),
                       sectors=tuple(len(s.rows) for s in split),
                       labels=labels)


def _lowest(split, kinetic, count, scales):
    """Each point's lowest ``count`` pairs of H from one solve of the rows
    in ``split``: ascending values (points, count), vectors of the whole
    basis (points, dim, count) and each point's levels' labels."""
    want = min(count, sum(len(s.rows) for s in split))
    try:
        solved = _solve([(s.matrix, kinetic.take(s.rows, 1)) for s in split],
                        want, scales)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    pairs = [pair for _, point in solved for pair in point]  # (point, row)
    points, rows = len(solved), len(split)
    found = np.array([len(w) for w, _ in pairs]).reshape(points, rows)
    for (info, _), m in zip(solved, found.sum(axis=1).tolist()):
        if info != 0 or m != want:
            raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                              f"{m} of {want} eigenpairs")
    values = np.concatenate([w for w, _ in pairs])  # by point, row, level
    if not np.isfinite(values).all():  # NaN would sort past the kept
        raise SolverError("eigensolver returned non-finite eigenvalues")
    # A row's level is H's once per partner row: H's levels on a grid by
    # point, slot (row and partner) and level, +inf past a row's levels,
    # ascending along each point's, ties in that order; the lowest
    # ``count``.
    wide = found.max()
    grid = np.full((points, rows, wide), np.inf)
    grid[np.arange(wide) < found[..., None]] = values
    of = np.arange(rows).repeat([len(s.coef) for s in split])  # slot's row
    keep = grid[:, of].reshape(points, -1).argsort(
        axis=1, kind="stable")[:, :count].ravel()
    slot, level = np.divmod(keep, wide)
    row = of[slot]
    # Each kept level's place among the values, and its vector's in
    # ``flat``: every row's vectors of every point, laid end to end.
    block = np.arange(0, points * rows, rows).repeat(count) + row
    sizes = np.array([len(s.rows) for s in split])
    numbers = found * sizes
    at = (found.cumsum() - found.ravel())[block] + level
    start = (numbers.cumsum() - numbers.ravel())[block] + level * sizes[row]
    flat = np.concatenate([z.T for _, z in pairs], axis=None)
    # That vector y expanded in its partner row j, U_j y (``Sector``):
    # every basis row's slots in turn, summed in slot order.
    spans = [s.column.shape[1] for s in split]
    for e in range(max(spans)):
        # A row with no slot e repeats its last, which is not read.
        last = [min(e, span - 1) for span in spans]
        cols = np.concatenate([s.column[:, c] for s, c in zip(split, last)])
        coefs = np.concatenate([s.coef[:, c] for s, c in zip(split, last)])
        has = (np.array(spans)[row] > e).nonzero()[0] if e else slice(None)
        index = cols.reshape(rows, -1).take(row[has], 0)
        index += start[has, None]
        term = flat.take(index)
        term *= coefs.take(slot[has], 0)
        if e:
            vectors[has] += term
        else:
            vectors = term
    names = [s.label for s in split].__getitem__
    return (values[at].reshape(points, count),
            vectors.reshape(points, count, -1).transpose(0, 2, 1),
            tuple(tuple(map(names, point))
                  for point in row.reshape(points, count).tolist()))


def _solve(blocks, count, scales):
    """The lowest ``count`` levels of blocks V_s + diag(T_s) at each point,
    T_s of shape (points, rows), of max|H| ``scales[i]`` at point i, each
    counted once: [(info, [(values, vectors) per block]) per point]."""
    v = blocks[0][0]
    stages = _DRIVERS.get(v.dtype.type)
    if stages is None:  # eigh splits nothing without a driver
        (v, kinetic), = blocks
        solved = []
        for t in kinetic:
            h = v.copy()
            h.flat[::len(v) + 1] += t
            values, vectors = np.linalg.eigh(h)
            solved.append((0, [(values[:count], vectors[:, :count])]))
        return solved
    reduce, stemr, back, sturm = stages
    sizes = [kinetic.shape[1] for _, kinetic in blocks]
    n, rows, k = sum(sizes), [0, *accumulate(sizes)], v.itemsize // 8
    at, total = _layout(tuple(sizes), count, k, len(scales))
    buf = np.empty(total)  # one buffer, as a ctypes pointer costs ~2 us
    ints, base = buf.view(np.int64), buf.ctypes.data
    ptr = {name: base + 8 * span.start for name, span in at.items()}
    # max|H| scaled near 1 by a power of two, exactly: ?stemr meets no
    # absolute threshold (z05 at a = 1e-6 A, max|H| 1e15 eV, info 22).
    scales = np.asarray(scales, float).tolist()
    fs = [2.0 ** min(-round(math.log2(scale)), 1023) if scale else 1.0
          for scale in scales]
    by_point = np.array(fs)[:, None]
    # Every point's scaled T, by block as d holds it, for the diagonals of
    # the blocks, which lie end to end.
    scaled = np.concatenate([t for _, t in blocks], axis=1)
    scaled *= by_point
    vs = [v for v, _ in blocks]
    packed = buf[at["block", 0].start:at["block", len(sizes) - 1].stop].view(
        v.dtype)
    squares = [packed[o - m * m:o].reshape(m, m)
               for o, m in zip(accumulate(m * m for m in sizes), sizes)]
    diagonal, block = _blocks(tuple(sizes))
    first = ints[at["isuppz"]][::2]
    z_all = buf[at["z"]].view(v.dtype).reshape(count, n)
    z_point = buf[at["z by row"]].view(v.dtype).reshape(-1, count, n)
    w_all, w_point = buf[at["w"]], buf[at["w by row"]].reshape(-1, count)
    w_point[:] = 0.0  # scaled back after the loop; unwritten rows stay 0
    # ?stemr takes copies of d and e, which it overwrites: ?larrc counts
    # on d and e, whose entries between blocks no reduction writes.
    buf[at["e"]] = 0.0
    de = buf[at["d"].start:at["e"].stop]
    de_copy = buf[at["d copy"].start:at["e copy"].stop]
    buf[at["pivmin"]], ints[at["n"]] = 0.0, n
    # Each call's arguments, made once: only a back-transform's vectors
    # change from point to point.
    reduces = [(_COL_MAJOR, b"U", m, ptr["block", s], m,
                ptr["d"] + 8 * rows[s], ptr["e"] + 8 * rows[s], ptr["tau", s],
                ptr["work"], 16 * m) for s, m in enumerate(sizes)]
    stemr_args = (_COL_MAJOR, b"V", b"I", n, ptr["d copy"], ptr["e copy"],
                  0.0, 0.0, 1, count, ptr["m"], ptr["w"], ptr["z"], n, count,
                  ptr["isuppz"], ptr["tryrac"], ptr["work"], 18 * n,
                  ptr["iwork"], 10 * n)
    sturm_args = (b"T", ptr["n"], ptr["point"], ptr["point"], ptr["d"],
                  ptr["e"], ptr["pivmin"], ptr["eigcnt"], ptr["lcnt"],
                  ptr["rcnt"], ptr["larrc info"], 1)
    step = 8 * k * n * count
    i_m, i_tryrac, i_lcnt, i_point = (at[name].start for name in (
        "m", "tryrac", "lcnt", "point"))
    solved = []
    for i, (f, scale) in enumerate(zip(fs, scales)):
        for v, a in zip(vs, squares):
            np.multiply(v, f, out=a)  # C-order conj(H) is H column-major
        if k == 2:
            np.conjugate(packed, out=packed)
        packed[diagonal] += scaled[i]
        info = 0
        for args in reduces:
            info = info or reduce(*args)
        de_copy[:] = de
        ints[i_tryrac] = 1  # try for relative accuracy
        info = info or stemr(*stemr_args)
        found = 0 if info else int(ints[i_m])
        if found == count and len(sizes) > 1:
            w = w_all[:found].tolist()  # ascending
            buf[i_point] = point = w[-1] - SELECTION_TOL * scale * f
            sturm(*sturm_args)
            if ints[i_lcnt] != bisect_right(w, point):
                solved.append(_by_row([(v, kinetic[i:i + 1])
                                       for v, kinetic in blocks], count,
                                      scale))
                continue
        # Each returned vector's block.  For n > 2 ?stemr's vectors of a
        # split tridiagonal lie in their block, whose row isuppz names
        # first; its own 2 x 2 path (n = 2) swaps the two levels without
        # their support, so there the first nonzero entry is read.
        owner = block[first[:found] if n > 2 else
                      1 + np.argmax(z_all[:found] != 0, axis=1)]
        order = owner.argsort(kind="stable")
        ends = [0, *accumulate(np.bincount(owner, None, len(sizes)).tolist())]
        w, z, pairs = w_point[i, :found], z_point[i, :found], []
        w_all.take(order, 0, w)
        z_all.take(order, 0, z)
        at_z = ptr["z by row"] + i * step
        for s, (m, lo, hi) in enumerate(zip(sizes, ends, ends[1:])):
            if hi > lo:  # a block that holds no vector is not transformed
                info = info or back(_COL_MAJOR, b"L", b"U", b"N", m, hi - lo,
                                    ptr["block", s], m, ptr["tau", s],
                                    at_z + 8 * k * (lo * n + rows[s]), n,
                                    ptr["work"], hi - lo)
            pairs.append((w[lo:hi], z[lo:hi, rows[s]:rows[s] + m].T))
        solved.append((info, pairs))
    w_point /= by_point
    return solved


@lru_cache(maxsize=256)
def _blocks(sizes):
    """For blocks of ``sizes`` rows laid end to end: where each diagonal
    entry lies among their entries, and each row's block, indexed by the
    row counted from 1, as isuppz counts (index 0 is block 0's too)."""
    ends = [*accumulate(m * m for m in sizes)]
    return (np.concatenate([np.arange(end - m * m, end, m + 1)
                            for end, m in zip(ends, sizes)]),
            np.repeat(np.arange(len(sizes)), [sizes[0] + 1, *sizes[1:]]))


@lru_cache(maxsize=256)
def _layout(sizes, count, k, points):
    """_solve's regions as slices of words, k words a number, and the total:
    the blocks lie end to end, as do d and e, and d copy and e copy."""
    n = sum(sizes)
    words = {"work": max(18 * n, 16 * k * max(sizes)), "d": n, "e": n,
             "d copy": n, "e copy": n, "point": 1, "pivmin": 1, "w": n,
             "isuppz": 2 * count, "m": 1, "tryrac": 1, "iwork": 10 * n,
             "n": 1, "eigcnt": 1, "lcnt": 1, "rcnt": 1, "larrc info": 1,
             "z": k * n * count, "w by row": points * count,
             "z by row": points * k * n * count}
    words |= {("block", s): k * m * m for s, m in enumerate(sizes)}
    words |= {("tau", s): k * m for s, m in enumerate(sizes)}
    ends = [*accumulate(words.values(), initial=0)]
    return dict(zip(words, map(slice, ends, ends[1:]))), ends[-1]


def _by_row(blocks, count, scale):
    """``_solve`` at one point, whose blocks' T are (1, rows), on each block
    alone, whose levels ?stemr picks exactly, then the lowest ``count`` of
    them all: (info, pairs) as each point's of ``_solve``."""
    solved = [_solve([block], min(count, block[1].shape[1]), [scale])[0]
              for block in blocks]
    pairs = [pair for _, (pair,) in solved]
    owner = np.repeat(np.arange(len(pairs)), [len(w) for w, _ in pairs])
    kept = owner[np.argsort(np.concatenate([w for w, _ in pairs]),
                            kind="stable")[:count]]
    return (next((info for info, _ in solved if info), 0),
            [(w[:p], z[:, :p]) for (w, z), p in
             zip(pairs, np.bincount(kept, None, len(pairs)).tolist())])


def _verify(v, kinetic, values, vectors, scales):
    """Check each point's pairs against its H = V + diag(T) and max|H|;
    return each point's (worst residual / max|H|, orthonormality).

    Each test is written as ``not figure <= bound``, so a NaN fails it."""
    if not (values[:, 1:] >= values[:, :-1]).all():
        raise SolverError("eigenvalues are not ascending")
    points, dim, count = vectors.shape
    x = vectors.transpose(0, 2, 1)  # (points, count, dim), each row C-order
    gram = x.conj() @ vectors
    gram.reshape(points, -1)[:, ::count + 1] -= 1.0
    ortho = np.abs(gram).max(axis=(1, 2))
    if not ortho.max() <= ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho.max():.3e}")
    # (H X - X diag(lambda))^T = X^T V^T + X^T (T - lambda), one X^T V^T for
    # the batch's columns, laid out as the vectors are.  Scaled before the
    # squares, which overflow once |H| passes 1e154.
    r = (x.reshape(-1, dim) @ v.T).reshape(x.shape)
    t = (kinetic[:, None] - values[..., None]).astype(x.dtype, copy=False)
    t *= x  # in place, as r: a batch's columns are many
    r += t
    del t
    r /= np.maximum(scales, 1e-300)[:, None, None]
    r = r.view(np.float64)  # |r|^2 as the squares of re and im
    residual = np.sqrt(np.einsum("pcd,pcd->pc", r, r).max(axis=1))
    if not residual.max() <= RESIDUAL_TOL:
        raise SolverError(f"residual {residual.max():.3e} max|H| exceeds "
                          f"{RESIDUAL_TOL:.1e} max|H|")
    return residual, ortho
