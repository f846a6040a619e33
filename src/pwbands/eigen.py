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
points at once, sets the thread count once, expands each row's vectors
for all points in one call and verifies with one V X over every point's
columns, each point held to its own max|H|; its per-point fields gain a
leading point axis, as numpy's stacked linalg does.  A 1-D T is one point
and gives unbatched fields.

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
against the whole H.  The stages, numpy's own (``_SYMBOLS``, via ctypes;
without them numpy.linalg.eigh solves the unsplit H whole), share one
buffer per batch of 8-byte words in regions named for the argument each
holds (``_layout``): work, d, e, d copy and e copy (?stemr overwrites d
and e), point, pivmin, w, isuppz, m, tryrac, iwork, ?larrc's n, eigcnt,
lcnt, rcnt and larrc info, z, each point's z by row, which its returned
vectors view, and each row's block and tau; all but z by row are reused
point after point.

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
        terms = (np.take(ys, col, axis=1) * coef[:, None] for col, coef in
                 zip(self.column.T, self.coef.transpose(2, 0, 1)))
        xs = next(terms)
        for term in terms:  # summed in place: a batch's rows are many
            xs += term
        return xs.reshape(-1, xs.shape[-1])


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
        for dim in dims:
            if dim == self.dim:
                lead.append(self)
                continue
            # |V - V^dagger| is symmetric, so its rows done:dim hold the
            # border's deviations; |V|'s border is those rows and the
            # columns done:dim above them, less the diagonal.
            with np.errstate(invalid="ignore"):  # inf - inf, as in ``of``
                dev = v[done:dim, :dim] - v[:dim, done:dim].conj().T
            rows, k = np.abs(v[done:dim, :dim]), np.arange(dim - done)
            rows[k, k + done] = 0.0
            herm = np.maximum(herm, np.abs(dev).max())
            off = np.maximum(off, np.maximum(rows.max(), np.abs(
                v[:done, done:dim]).max(initial=0.0)))
            done = dim
            lead.append(BlochMatrix(v[:dim, :dim], herm, off,
                                    self.diag[:dim], self.kinetic[..., :dim],
                                    self._sectors(dim)))
        return lead

    def _sectors(self, dim: int) -> tuple:
        """Views of the row blocks on the first ``dim`` rows, or () if some
        orbit straddles row ``dim``."""
        lead = []
        for sector in self.sectors:
            m = np.searchsorted(sector.rows, dim)
            if np.any((sector.coef[:, dim:] != 0) & (sector.column[dim:] < m)):
                return ()
            if m:
                lead.append(sector._replace(
                    rows=sector.rows[:m], column=sector.column[:dim],
                    coef=sector.coef[:, :dim], matrix=sector.matrix[:m, :m]))
        return tuple(lead)


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
    scales = np.maximum(h.off_max, np.abs(h.diag + kinetic).max(axis=1))
    if not np.isfinite(scales).all():
        raise NonHermitianError("matrix has non-finite entries")
    if h.herm > HERMITICITY_TOL * scales.min():
        raise NonHermitianError(
            f"matrix is not Hermitian: max deviation {h.herm:.3e} "
            f"(max entry {scales.min():.3e})")
    # The fallback solves H whole: it is the reference a split is held to.
    split = h.sectors if h.matrix.dtype.type in _DRIVERS else ()
    if not split:  # the trivial split: H as one row
        every = np.arange(n)
        split = (Sector("", every, every[:, None], np.ones((1, n, 1)),
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
        solved = _solve([(s.matrix, kinetic[:, s.rows]) for s in split],
                        want, scales)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge: {exc}") from exc
    # Each row's vectors at every point, by point and level, copied out of
    # the solver's buffer, which is then let go; the values to match.
    infos = [info for info, _ in solved]
    ys = [np.concatenate([pairs[s][1].T for _, pairs in solved])
          for s in range(len(split))]
    found = np.array([[len(w) for w, _ in pairs] for _, pairs in solved])
    partners = [len(s.coef) for s in split]
    values = np.concatenate([pairs[s][0] for _, pairs in solved
                             for s, d in enumerate(partners)
                             for _ in range(d)])
    del solved
    for info, m in zip(infos, found.sum(axis=1).tolist()):
        if info != 0 or m != want:
            raise SolverError(f"eigensolver failed: LAPACK info {info}, "
                              f"{m} of {want} eigenpairs")
    if not np.isfinite(values).all():  # NaN would sort past the kept
        raise SolverError("eigensolver returned non-finite eigenvalues")
    # Where each level, in the order ``values`` holds them (by point, row,
    # partner, level), sits among its row's expanded vectors (by partner,
    # point, level), and its row.
    totals, ends = found.sum(axis=0).tolist(), [0] * len(split)
    spots, row = [], []
    for point in found.tolist():
        for s, (m, d) in enumerate(zip(point, partners)):
            for j in range(d):
                spots += range(ends[s] + j * totals[s],
                               ends[s] + j * totals[s] + m)
            row += [s] * (d * m)
            ends[s] += m
    spots, row = np.array(spots), np.array(row)
    levels = found @ partners
    # Ascending within each point, ties in that order, the lowest ``count``.
    order = np.lexsort((values, np.repeat(np.arange(len(levels)), levels)))
    keep = order[(np.cumsum(levels) - levels)[:, None] + np.arange(count)]
    # Each row that holds a kept level expanded once for the whole batch,
    # and the kept levels' vectors taken from those rows.
    # (Not np.unique: its first call imports numpy.ma, about 1 MiB.)
    used = sorted(set(row[keep].ravel().tolist()))
    xs = [split[s].expand(ys[s]) for s in used]
    first = np.zeros(len(split), int)
    first[used] = np.cumsum([len(x) for x in xs]) - [len(x) for x in xs]
    vectors = np.concatenate(xs)[(first[row] + spots)[keep.ravel()]]
    names = [s.label for s in split]
    return (values[keep],
            vectors.reshape(len(levels), count, -1).transpose(0, 2, 1),
            tuple(tuple(names[r] for r in point)
                  for point in row[keep].tolist()))


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
    # The regions numpy reads and writes at every point, viewed once.
    squares = [buf[at["block", s]].view(v.dtype).reshape(m, m)
               for s, m in enumerate(sizes)]
    diagonals = [a.reshape(-1)[::m + 1] for a, m in zip(squares, sizes)]
    tops = np.array(rows[1:])
    z_all = buf[at["z"]].view(v.dtype).reshape(count, n)
    solved = []
    for i, scale in enumerate(scales):
        # max|H| scaled near 1 by a power of two, exactly: ?stemr meets no
        # absolute threshold (z05 at a = 1e-6 A, max|H| 1e15 eV, info 22).
        f = 2.0 ** min(-round(math.log2(scale)), 1023) if scale else 1.0
        info = 0
        buf[at["e"]] = 0.0  # no coupling between blocks
        for s, ((v, kinetic), a, m) in enumerate(zip(blocks, squares,
                                                     sizes)):
            np.multiply(v, f, out=a)  # C-order conj(H) is H column-major
            if k == 2:
                np.conjugate(a, out=a)
            diagonals[s] += kinetic[i] * f
            info = info or reduce(_COL_MAJOR, b"U", m, ptr["block", s], m,
                                  ptr["d"] + 8 * rows[s],
                                  ptr["e"] + 8 * rows[s], ptr["tau", s],
                                  ptr["work"], 16 * m)
        buf[at["d copy"]], buf[at["e copy"]] = buf[at["d"]], buf[at["e"]]
        ints[at["tryrac"]] = 1  # try for relative accuracy
        info = info or stemr(_COL_MAJOR, b"V", b"I", n, ptr["d"], ptr["e"],
                             0.0, 0.0, 1, count, ptr["m"], ptr["w"],
                             ptr["z"], n, count, ptr["isuppz"],
                             ptr["tryrac"], ptr["work"], 18 * n,
                             ptr["iwork"], 10 * n)
        found = 0 if info else int(ints[at["m"]][0])
        if found == count and len(sizes) > 1:
            w = buf[at["w"]][:found].tolist()  # ascending
            buf[at["point"]] = point = w[-1] - SELECTION_TOL * scale * f
            buf[at["pivmin"]], ints[at["n"]] = 0.0, n
            sturm(b"T", ptr["n"], ptr["point"], ptr["point"], ptr["d copy"],
                  ptr["e copy"], ptr["pivmin"], ptr["eigcnt"], ptr["lcnt"],
                  ptr["rcnt"], ptr["larrc info"], 1)
            if ints[at["lcnt"]][0] != bisect_right(w, point):
                solved.append(_by_row([(v, kinetic[i:i + 1])
                                       for v, kinetic in blocks], count,
                                      scale))
                continue
        # Each level's block: where its vector's first nonzero lies.  Not
        # isuppz: ?stemr's own 2 x 2 path (n = 2), when it swaps the two
        # levels, gives the other row's index there.  By block, a block's
        # p vectors are a column-major m x p matrix of z.
        owner = np.searchsorted(tops, np.argmax(z_all[:found] != 0, axis=1),
                                side="right")
        order = np.argsort(owner, kind="stable")
        ends = [0, *accumulate(np.bincount(owner, None, len(sizes)).tolist())]
        z = buf[at["z by row", i]].view(v.dtype).reshape(count, n)[:found]
        np.take(z_all, order, 0, z)
        w, pairs = buf[at["w"]][:found][order] / f, []
        at_z = ptr["z by row", i]
        for s, (m, lo, hi) in enumerate(zip(sizes, ends, ends[1:])):
            info = info or back(_COL_MAJOR, b"L", b"U", b"N", m, hi - lo,
                                ptr["block", s], m, ptr["tau", s],
                                at_z + 8 * k * (lo * n + rows[s]), n,
                                ptr["work"], max(1, hi - lo))
            pairs.append((w[lo:hi], z[lo:hi, rows[s]:rows[s] + m].T))
        solved.append((info, pairs))
    return solved


@lru_cache(maxsize=256)
def _layout(sizes, count, k, points):
    """_solve's regions as slices of words, k words a number, and the total."""
    n = sum(sizes)
    words = {"work": max(18 * n, 16 * k * max(sizes)), "d": n, "e": n,
             "d copy": n, "e copy": n, "point": 1, "pivmin": 1, "w": n,
             "isuppz": 2 * count, "m": 1, "tryrac": 1, "iwork": 10 * n,
             "n": 1, "eigcnt": 1, "lcnt": 1, "rcnt": 1, "larrc info": 1,
             "z": k * n * count}
    for i in range(points):
        words["z by row", i] = k * n * count
    for s, m in enumerate(sizes):
        words["block", s], words["tau", s] = k * m * m, k * m
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
    if not np.all(values[:, 1:] >= values[:, :-1]):
        raise SolverError("eigenvalues are not ascending")
    points, dim, count = vectors.shape
    gram = vectors.conj().transpose(0, 2, 1) @ vectors
    gram.reshape(points, -1)[:, ::count + 1] -= 1.0
    ortho = np.abs(gram).max(axis=(1, 2))
    if not ortho.max() <= ORTHONORMALITY_TOL:
        raise SolverError(f"eigenvectors not orthonormal: {ortho.max():.3e}")
    # H X - X diag(lambda) = V X + (T - lambda) X, one V X for the batch's
    # columns.  Scaled before the norm, whose squares overflow once |H|
    # passes 1e154.
    x = vectors.transpose(1, 0, 2)  # (dim, points, count), a view
    r = (v @ x.reshape(dim, -1)).reshape(x.shape)
    t = (kinetic.T[:, :, None] - values).astype(x.dtype, copy=False)
    t *= x  # in place, as r: a batch's columns are many
    r += t
    del t
    r /= np.maximum(scales, 1e-300)[:, None]
    residual = np.linalg.norm(r, axis=0).max(axis=1)
    if not residual.max() <= RESIDUAL_TOL:
        raise SolverError(f"residual {residual.max():.3e} max|H| exceeds "
                          f"{RESIDUAL_TOL:.1e} max|H|")
    return residual, ortho
