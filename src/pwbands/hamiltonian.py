"""Assembly of the Bloch Hamiltonian over a truncated plane-wave basis.

For each Bloch vector kappa the Hamiltonian restricted to the coupled
family of plane waves |kappa + G> is a finite Hermitian matrix: kinetic
terms hbar^2 |kappa + G|^2 / 2m on the diagonal, potential matrix elements
V(G - G') everywhere.  Couplings exist only between basis members, i.e.
between states differing by a reciprocal lattice vector.

The basis is a pair of arrays (integer coefficients and cartesian G).
V(G - G') depends only on the coefficient difference d, so one table t(d)
over the differences the basis spans (``differences``) holds all of V;
the potential block is gathered from it once per basis and shared by
every k-point, whose Hamiltonian is that block plus a kinetic diagonal.
A smaller cutoff's basis is the leading rows of a larger one, and its
potential block the leading principal block (``PlaneWaveBasis.truncate``).
``eigen.BlochMatrix.of`` checks the block once, from the table, with the
figures of every leading block (a bare array handed to ``build`` is
scanned whole); a k-point then costs O(dim) here, the kinetic diagonal,
and the dense H exists only in the solver's buffer, or as ``entries``.

Symmetry splits the solve: the crystal's operations {R|t} act on the
basis as signed permutations Q (``operations``), those whose R fixes kappa
and whose Q commutes with V form its little group (``little_group``), and
H(kappa) is block diagonal in the rows of the group's irreps, whose blocks
``row_blocks`` gathers once per basis and group; a smaller cutoff's are
slices (``BlochMatrix.leading``).  Q commutes with V when V's table does,
V(R (G - G')) = exp(-i R (G - G') . t) V(G - G'), so each {R|t} is tested
on the table (``_symmetry``), not at V's dim^2 entries.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import BlochMatrix, Sector, SolverError, _solve
from .lattice import (CUTOFF_SLACK, RealLattice, ReciprocalLattice, cartesian,
                      cubic_operations, enumerate_g)
from .potential import HBAR2_OVER_2M, Potential, matrix_element


# Q V may differ from V Q by this times max|V|: each entry of V is
# evaluated on its own, so its symmetries hold only to rounding.
SYMMETRY_TOL = 1e-12

# G . t / pi may miss an integer by this much and still give a sign.
PHASE_TOL = 1e-6

# Bytes of int64 index in a strip of rows (30 at dim 531), not dim x dim.
STRIP_BYTES = 128 * 1024


class AssemblyError(RuntimeError):
    """A Hamiltonian was requested at an invalid Bloch vector."""


@dataclass(frozen=True, eq=False)
class PlaneWaveBasis:
    """Ordered plane-wave basis: the G enumeration for a fixed |G|^2 cutoff.

    ``coeffs`` holds the (dim, 3) integer coefficients in ``enumerate_g``
    order (G = 0 first) and ``cart`` the matching cartesian vectors.
    """

    coeffs: np.ndarray
    cart: np.ndarray

    @classmethod
    def from_cutoff(cls, recip: ReciprocalLattice, g2_max: float) -> "PlaneWaveBasis":
        coeffs = enumerate_g(recip, g2_max)
        return cls(coeffs, cartesian(recip, coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def g2(self) -> np.ndarray:
        """|G|^2 of each row, in 1/A^2."""
        return np.einsum("ij,ij->i", self.cart, self.cart)

    def truncate(self, g2_max: float) -> "PlaneWaveBasis":
        """Leading rows up to a smaller cutoff, counted by enumerate_g's test
        (not bisected: |G|^2 can step down an ulp inside a shell)."""
        n = np.count_nonzero(self.g2 <= g2_max * (1.0 + CUTOFF_SLACK))
        return PlaneWaveBasis(self.coeffs[:n], self.cart[:n])


Spans = namedtuple("Spans", "shape key origin diffs pairs first")


def differences(coeffs: np.ndarray) -> Spans:
    """The box of the coefficient differences a basis spans, 2 span + 1
    wide on each axis (``shape``), each row's flat index in it from the
    basis's lowest corner (``key``) and the zero difference's (``origin``):
    G_i - G_j sits at key_i - key_j + origin.  Each difference spanned,
    ascending (``diffs``), with rows (i, j) of it (``pairs``) and the first
    leading dim that spans it (``first``, the least max(i, j) + 1), found
    in strips of STRIP_BYTES of index, not dim x dim.  Made once a sweep."""
    span = np.ptp(coeffs, axis=0)
    shape, dim = 2 * span + 1, len(coeffs)
    strides = [shape[1] * shape[2], shape[2], 1]
    key, origin = (coeffs - coeffs.min(axis=0)) @ strides, int(span @ strides)
    fresh = np.ones(np.prod(shape), bool)  # met at no pair yet
    pair, first = np.zeros(len(fresh), int), np.full(len(fresh), dim)
    fresh[origin], first[origin] = False, 1  # the diagonal; pair (0, 0)
    rows = max(1, STRIP_BYTES // (8 * dim))
    for a in range(0, dim, rows):  # rows i = a.., j <= i (j > i reads 0)
        flat = np.subtract.outer(key[a:a + rows] + origin, key[:a + rows])
        np.copyto(flat[:, a:], origin, where=~np.tri(len(flat), dtype=bool))
        at = np.flatnonzero(fresh[flat])
        d, (i, j) = flat.flat[at], np.divmod(at + a * flat.shape[1],
                                             flat.shape[1])
        for d, ij in ((d, i * dim + j), (2 * origin - d, j * dim + i)):
            fresh[d], pair[d] = False, ij  # and -d at (j, i), from row i on
            np.minimum.at(first, d, i + 1)
    diffs = np.flatnonzero(~fresh)
    return Spans(shape, key, origin, diffs, np.divmod(pair[diffs], dim),
                 first[diffs])


def potential_matrix(model: Potential, lattice: RealLattice,
                     recip: ReciprocalLattice, basis: PlaneWaveBasis,
                     spans: Spans | None = None) -> np.ndarray:
    """Kappa-independent potential block V[i,j] = <G_i|V|G_j>.

    Matrix elements are evaluated once at each integer coefficient
    difference the basis spans (``differences``, or ``spans`` if given),
    V's table, then gathered strip by strip, so entries depend only on the
    coefficient difference, never on list position.  The block is returned
    as float64 when those elements are exactly real, as for a lattice whose
    origin is an inversion centre (the diamond basis at +/-(a/8)(1,1,1),
    where S(G) = 2 cos(G.tau)); otherwise it is complex.
    """
    shape, key, origin, diffs, _, _ = (differences(basis.coeffs)
                                       if spans is None else spans)
    table = matrix_element(model, lattice, recip, np.stack(
        np.unravel_index(diffs, shape), axis=-1) - shape // 2)
    if not np.any(table.imag):
        table = table.real
    box = np.empty(np.prod(shape), table.dtype)  # read only at diffs
    box[diffs] = table
    v = np.empty((len(key), len(key)), table.dtype)
    rows = max(1, STRIP_BYTES // (8 * len(key)))
    for a in range(0, len(key), rows):  # in range, so take need not buffer
        box.take(np.subtract.outer(key[a:a + rows] + origin, key),
                 out=v[a:a + rows], mode="clip")
    return v


class Operations(NamedTuple):
    """Operations {R|t} on a basis as signed permutations Q e_i = sign[i]
    e_perm[i], G_perm[i] = R G_i, sign[i] = exp(-i R G_i . t): integer R
    (identity first), a perm row per R, signs (n, c, dim) per candidate t
    (int8, 0 unless +/-1; c = 1 in a group), R_a R_b = R_table[a, b], and
    ``pairs``, rows (i, j) with one pair for each coefficient difference
    G_i - G_j the basis spans: V[i, j] over them is V's table."""

    ops: np.ndarray
    perm: np.ndarray
    signs: np.ndarray
    table: np.ndarray
    pairs: tuple

    def fixes(self, kappas: np.ndarray) -> np.ndarray:
        """(points, n): R kappa == kappa, exactly (R's entries are 0, +/-1)."""
        return np.all(kappas @ self.ops.transpose(0, 2, 1) == kappas, -1).T


def operations(lattice: RealLattice, recip: ReciprocalLattice,
               basis: PlaneWaveBasis, spans: Spans | None = None
               ) -> Operations:
    """Each R of ``cubic_operations`` that maps the basis onto itself (a
    group), with the signs of each of its translations; which t, if any,
    commutes with V is left to ``little_group``.  The non-symmorphic ones
    (the glides and screws of diamond) give the zone's lines their groups.
    ``spans`` is the basis's ``differences``, made here if not given.
    """
    ops, shifts = cubic_operations(lattice)
    # G = c B, so R G = c B R^T = c M with M = B R^T B^-1.
    m = recip.matrix @ ops.transpose(0, 2, 1) @ np.linalg.inv(recip.matrix)
    whole = np.abs(m - np.rint(m)).max(axis=(1, 2)) <= 1e-9
    ops, shifts, m = ops[whole], shifts[whole], np.rint(m[whole])
    # exp(-i R G_i . t) is (-1)^turns when turns = G_i . R^T t / pi is
    # whole: one t at a time, so that no (R, t, row) array of floats is made.
    g = basis.cart.T / np.pi
    signs = np.empty((len(ops), shifts.shape[1], basis.dim), np.int8)
    turns, nearest = np.empty((2, len(ops), basis.dim))
    for t, shift in enumerate((shifts @ ops).transpose(1, 0, 2)):
        np.matmul(shift, g, out=turns)
        np.rint(turns, out=nearest)
        signs[:, t] = 1 - 2 * (nearest.astype(np.int8) & 1)
        turns -= nearest
        signs[:, t] *= np.abs(turns, out=turns).max(axis=1,
                                                    keepdims=True) <= PHASE_TOL
    del turns, nearest
    # Each R G_i's row by one key into a cube about G = 0 that holds every
    # image, |(c M)_k| <= max|c| sum_j |M_jk| = reach, so that no image
    # aliases a row; an image on no row is not in the basis.  The keys are
    # whole numbers, exact in one matmul of doubles; the table holds int32
    # rows, which keeps its keys and images below the (R, row, 3) images.
    c = basis.coeffs
    reach = int(np.abs(c).max() * np.abs(m).sum(axis=1).max())
    side = 2 * reach + 1
    strides = np.array([side * side, side, 1])
    row = np.full(side ** 3, -1, np.int32)
    row[c @ strides + reach * strides.sum()] = np.arange(basis.dim)
    keys = (m @ strides) @ c.T
    keys += reach * strides.sum()
    keys = keys.astype(int)  # the doubles go first
    perm = row[keys]
    del row, keys
    keep = perm.min(axis=1) >= 0
    perm = perm[keep].astype(int)
    signs = signs[keep]
    ops = np.rint(ops[keep]).astype(int)
    # R is known by R (1, 2, 3), a signed permutation, as base-7 digits.
    sig, index = ops @ [1, 2, 3], np.zeros(343, int)
    index[(sig + 3) @ [49, 7, 1]] = np.arange(len(ops))
    return Operations(ops, perm, signs, index[
        (ops[:, None] @ sig[None, :, :, None])[..., 0] @ [49, 7, 1] + 171],
        (differences(basis.coeffs) if spans is None else spans).pairs)


def _symmetry(block: BlochMatrix, perm: np.ndarray, signs: np.ndarray,
              pairs: tuple) -> int:
    """The first row of ``signs`` (none zero) with which Q V Q^T = V to
    1e-12 max|V|, or -1 if none; a V that is not finite has no symmetry.
    V[i, j] is V's table at G_i - G_j, so V is read at one pair (i, j) of
    ``pairs`` a difference: V[perm i, perm j] sign_i sign_j must be V[i, j].
    """
    v, (i, j) = block.matrix, pairs
    bound = SYMMETRY_TOL * np.maximum(block.off_max, np.abs(block.diag).max())
    table, image = v[i, j], v[perm[i], perm[j]]
    for t, sign in enumerate(signs if np.isfinite(bound) else ()):
        if sign.all() and np.abs(
                image * (sign[i] * sign[j]) - table).max() <= bound:
            return t
    return -1


def little_group(crystal: Operations, block: BlochMatrix,
                 fixing: np.ndarray) -> Operations:
    """The operations ``fixing`` marks (R kappa = kappa) whose Q commutes
    with V: each R not yet held is tested once on V's table (``_symmetry``)
    and, passing, generates; each Q's signs are a product of theirs (its
    permutation is R's).  If Q_s Q_a = Q_sa fails (a translation the
    lattice lacks), the group is the identity alone."""
    at, elems, sign = {0: 0}, [0], [crystal.signs[0, 0]]
    table, gens = crystal.table.tolist(), [(0, sign[0])]  # 1, for the check
    # Rotations of high order first (C4, C3 make O): fewer generators.
    first = np.lexsort((np.abs(np.trace(crystal.ops, axis1=1, axis2=2) - 0.5),
                        np.linalg.det(crystal.ops) < 0))
    for g in first[fixing[first]].tolist():
        t = -1 if g in at else _symmetry(block, crystal.perm[g],
                                         crystal.signs[g], crystal.pairs)
        if t < 0:
            continue
        gens.append((g, crystal.signs[g, t]))
        for a, e in enumerate(elems):  # elems grows: each times each gen
            for s, s_sign in gens:
                if table[s][e] not in at:
                    at[table[s][e]] = len(elems)
                    elems.append(table[s][e])
                    sign.append(sign[a] * s_sign[crystal.perm[e]])
    perm, sign, spot = crystal.perm[elems], np.array(sign), 0 * first
    spot[elems] = np.arange(len(elems))
    if not all(np.array_equal(g_sign[perm] * sign,
                              sign[spot[crystal.table[g, elems]]])
               for g, g_sign in gens):
        elems, perm, sign = [0], perm[:1], sign[:1]
    return Operations(crystal.ops[elems], perm, sign[:, None],
                      spot[crystal.table[np.ix_(elems, elems)]], crystal.pairs)


# Kinds of O_h's elements by (det R, tr R, R diagonal); ' = face diagonal.
_KINDS = {(1, 3, 1): "E", (1, 1, 0): "C4", (1, 0, 0): "C3", (1, -1, 0): "C2'",
          (1, -1, 1): "C2", (-1, -3, 1): "I", (-1, 1, 0): "m'", (-1, 1, 1): "m",
          (-1, -1, 0): "S4", (-1, 0, 0): "S6"}
_IRREPS = {}  # ``irreps`` by the group's R, in order: nothing else moves them


def _symbol(chi: dict) -> str:
    """Mulliken symbol of an irrep of a subgroup of O_h, from its character
    on each kind of element (``_KINDS``)."""
    d = round(chi["E"])
    axis = next((chi[k] for k in ("C4", "C3", "C2'", "C2") if k in chi), None)
    mirror = chi.get("m", chi.get("m'"))
    if axis is None:
        return "A" if mirror is None else "A" + "'" * (1 if mirror > 0 else 2)
    cubic = "C3" in chi and ("C4" in chi or "S4" in chi)
    name = "B" if d == 1 and axis < 0 and not cubic else " AET"[d]
    ref = chi.get("C4", chi.get("S4")) if cubic else mirror
    name += "" if d == 2 or ref is None else "1" if ref > 0 else "2"
    return name + ("" if "I" not in chi else "g" if chi["I"] > 0 else "u")


def irreps(group: Operations) -> list:
    """Each irrep of a group as (Mulliken symbol, real orthogonal D(g)),
    computed once per list of R: M = sum_g L_g x x^T L_g^T commutes with
    the regular representation L, so for a generic x each eigenspace of M
    is a copy of a (real) irrep, on which L_g is D(g); one per character."""
    key = group.ops.tobytes()
    if key in _IRREPS:
        return _IRREPS[key]
    n = len(group.ops)
    back = group.table[np.argmax(group.table == 0, axis=1)]  # g^-1 a
    orbit = (np.sin(12.9898 * np.arange(1, n + 1)) * 43758.5453 % 1.0)[back]
    # LAPACK's solve, as for H: numpy's dsyevd wakes OpenBLAS's threads.
    gram = orbit.T @ orbit
    (info, pairs), = _solve([(gram, np.zeros((1, n)))], n,
                            [np.abs(gram).max()])
    if info != 0 or len(pairs[0][0]) != n:
        raise SolverError(f"little group's irreps: LAPACK info {info}")
    w, e = pairs[0]
    starts = np.flatnonzero(np.r_[True, np.diff(w) > 1e-8 * np.abs(w).max()])
    kinds = [_KINDS[k] for k in zip(
        np.rint(np.linalg.det(group.ops)).astype(int).tolist(),
        np.trace(group.ops, axis1=1, axis2=2).tolist(),
        np.all(group.ops.diagonal(axis1=1, axis2=2) != 0, axis=1).tolist())]
    found = {}
    for space in np.split(e, starts[1:], axis=1):
        rep = space.T @ space[back]  # (L_g e)[a] = e[g^-1 a]
        chi = np.rint(np.trace(rep, axis1=1, axis2=2)).astype(int).tolist()
        found.setdefault(tuple(chi), rep)
    return _IRREPS.setdefault(key, sorted(
        ((_symbol(dict(zip(kinds, chi))), rep) for chi, rep in found.items()),
        key=lambda r: r[0]))


def row_blocks(v: np.ndarray, group: Operations) -> tuple:
    """V's block in row 1 of each irrep of ``group`` (Schur-orthogonal, or
    SolverError) as ``eigen.Sector``s with partner rows; () for identity.
    With P_jl = (d/|G|) sum_g D_jl(g) Q_g, row 1 on the orbit of first row
    h is spanned by the P_1l e_h, orthonormal through their Gram matrix
    e_h^T P_ll' e_h (eigenvalues d/m or 0, m rows); P_j1 maps it to row j."""
    order, dim = group.perm.shape
    if order == 1:
        return ()
    reps = irreps(group)
    dims = np.array([len(rep[0]) for _, rep in reps])
    scale = np.repeat(dims, dims ** 2) / order
    # sqrt(d/|G|) D_jl(g), column by (irrep, j, l): an orthogonal matrix.
    fourier = np.concatenate([rep.reshape(order, -1) for _, rep in reps],
                             axis=1) * np.sqrt(scale)
    if fourier.shape != (order, order) or not np.abs(
            fourier.T @ fourier - np.eye(order)).max() <= 1e-9:
        raise SolverError("little group's irreps fail Schur's orthogonality")
    head = group.perm.min(axis=0)  # each row's orbit, by its first row
    heads = np.flatnonzero(head == np.arange(dim))
    size, of = np.bincount(head)[heads], np.searchsorted(heads, head)
    hits = np.zeros((order, dim))  # Q_g e_h, summed over the heads h
    hits[np.arange(order)[:, None], group.perm[:, heads]] = \
        group.signs[:, 0, heads]
    # (P_jl e_h)[i] for h the first row of row i's orbit, by (irrep, j, l).
    units = (fourier * np.sqrt(scale)).T @ hits
    span = np.arange(size.max())  # each orbit's rows, padded with its first
    members = np.argsort(of, kind="stable")[np.where(
        span < size[:, None], (np.cumsum(size) - size)[:, None] + span, 0)]
    split = {}
    for d in set(dims.tolist()):  # the irreps of one dimension at once
        at = np.flatnonzero(dims == d)
        unit = units[scale == d / order].reshape(len(at), d, d, dim)
        lam, vec = np.linalg.eigh(unit[..., heads].transpose(0, 3, 1, 2))
        keep = lam[..., ::-1] * size[:, None] > 0.5 * d  # largest first
        counts = np.count_nonzero(keep, axis=-1)
        mixes = vec[..., ::-1] * (keep * np.sqrt(size / d)[:, None])[
            ..., None, :]
        coefs = (unit.transpose(0, 3, 1, 2) @ mixes[:, of, :, :counts.max()]
                 ).transpose(0, 2, 3, 1)  # (irrep, partner, slot, row)
        for r, count, coef, mix in zip(at, counts, coefs, mixes):
            if not count.any():
                continue
            start, slots = np.cumsum(count) - count, np.arange(count.max())
            column = (slots < count[of, None]) * (slots + start[of, None])
            # u = sum_l c_l P_1l e_h: u'^T V u = sum_l c_l (P_l1 u')^T V e_h.
            o = np.repeat(np.arange(len(heads)), count)  # each column's orbit
            slot = np.arange(len(o)) - start[o]
            coef = np.ascontiguousarray(coef[:, :len(slots)])
            frame = coef[:, slot[:, None], members[o]] * (span < size[o, None])
            # Each column's frames times V on its orbit, one matmul over
            # the columns (no temporary of it outlives the row), then the
            # sum over partners l with the mixes.
            split[r] = Sector(reps[r][0], heads[o], column, coef, np.einsum(
                "clb,lb->cb", frame.transpose(1, 0, 2)
                @ v[members[o][..., None], heads[o]], mix[o, :, slot].T))
    return tuple(split[r] for r in sorted(split))


def build(kappa, basis: PlaneWaveBasis, potential) -> BlochMatrix:
    """Bloch Hamiltonian at kappa: the potential block plus kinetic terms;
    at each row of a (points, 3) ``kappa``, a batch for ``eigen.eigh``.

    ``potential`` is the ``potential_matrix`` of ``basis``, or the
    ``BlochMatrix`` of it that a sweep makes once; a bare array is checked
    here, at O(dim^2).  The block does not depend on kappa, so with a
    checked block this is O(dim) a point: it computes hbar^2 |kappa + G|^2
    / 2m and leaves V untouched.  The matrix keeps V's dtype (real
    symmetric for a real block, complex Hermitian otherwise) and
    ``sectors``, which tell ``eigh`` how to split it.  A basis not of V's
    dim raises AssemblyError.
    """
    kappa = np.asarray(kappa, dtype=float)
    if (kappa.ndim not in (1, 2) or kappa.shape[-1] != 3 or not kappa.size
            or not np.all(np.isfinite(kappa))):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    if not isinstance(potential, BlochMatrix):
        potential = BlochMatrix.of(potential)
    if basis.dim != potential.dim:
        raise AssemblyError(f"basis dim {basis.dim} is not V's {potential.dim}")
    # |kappa + G|^2 summed over x, y, z in that order, as np.sum does.
    with np.errstate(over="ignore"):  # an inf T is rejected by eigh
        kinetic = (kappa[..., :1] + basis.cart[:, 0]) ** 2
        for axis in (1, 2):
            kinetic += (kappa[..., axis, None] + basis.cart[:, axis]) ** 2
        kinetic *= HBAR2_OVER_2M
    return potential._replace(kinetic=kinetic)
