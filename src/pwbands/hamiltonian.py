"""Assembly of the Bloch Hamiltonian over a truncated plane-wave basis.

For each Bloch vector kappa the Hamiltonian restricted to the coupled
family of plane waves |kappa + G> is a finite Hermitian matrix: kinetic
terms hbar^2 |kappa + G|^2 / 2m on the diagonal, potential matrix elements
V(G - G') everywhere.  Couplings exist only between basis members, i.e.
between states differing by a reciprocal lattice vector.

The basis is a pair of arrays (integer coefficients and cartesian G).
V(G - G') depends only on the integer coefficient difference, so the
potential block is a gather from one table of matrix elements over the
box of possible differences; it is built once per basis and shared by
every k-point, whose Hamiltonian is that block plus a kinetic diagonal.
A smaller cutoff's basis is the leading rows of a larger one, and its
potential block the leading principal block (``PlaneWaveBasis.truncate``).

The block is checked once, as an ``eigen.CheckedBlock``, when a sweep
makes it (or when ``build`` is handed a bare array): that is where its
finiteness and Hermiticity are measured.  A k-point then costs O(dim) here,
the kinetic diagonal; ``build`` returns the block and that diagonal, and
the dense matrix exists only in the solver's buffer, or as ``entries``.

Symmetry splits the solve.  An operation {R|t} of the crystal with R R = 1
acts on the basis as a signed permutation Q (``involutions`` finds the
candidates among the cubic group's involutions, ``Involution.commutes``
tests one against V).  Q commutes with V, and with the kinetic diagonal
wherever R fixes kappa, so H(kappa) is block diagonal in Q's +1 and -1
eigenspaces.  ``sectors`` gathers V's block in each, once per basis and
symmetry, as plain arrays in ``eigen.Sector``s that ``build`` attaches to
the matrix; a smaller cutoff's are slices of them (``leading_sectors``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import BlochMatrix, CheckedBlock, Sector
from .lattice import (CUTOFF_SLACK, RealLattice, ReciprocalLattice, cartesian,
                      cubic_involutions, enumerate_g)
from .potential import HBAR2_OVER_2M, Potential, matrix_element


# Q V may differ from V Q by this times max|V|: each entry of V is
# evaluated on its own, so its symmetries hold only to rounding.
SYMMETRY_TOL = 1e-12

# G . t / pi may miss an integer by this much and still give a sign.
PHASE_TOL = 1e-6


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


def potential_matrix(model: Potential, lattice: RealLattice,
                     recip: ReciprocalLattice, basis: PlaneWaveBasis) -> np.ndarray:
    """Kappa-independent potential block V[i,j] = <G_i|V|G_j>.

    Matrix elements are evaluated once over the box of integer coefficient
    differences the basis spans, then gathered by flat index, so entries
    depend only on the coefficient difference, never on list position.
    The block is returned as float64 when the table is exactly real, as for
    a lattice whose origin is an inversion centre (the diamond basis at
    +/-(a/8)(1,1,1), where S(G) = 2 cos(G.tau)); otherwise it is complex.
    """
    span = np.ptp(basis.coeffs, axis=0)
    shape = 2 * span + 1
    box = np.indices(shape).reshape(3, -1).T - span
    table = matrix_element(model, lattice, recip, box)
    if not np.any(table.imag):
        table = table.real
    # Row-major flat index of a box point is linear in its coefficients, so
    # the index of G_i - G_j is key_i - key_j plus the index of the origin.
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    key = basis.coeffs @ strides
    return table[np.subtract.outer(key + span @ strides, key)]


@dataclass(frozen=True, eq=False)
class Involution:
    """A candidate crystal operation {R|t} with R R = 1, acting on a basis
    as the signed permutation Q e_i = sign[i] e_perm[i]: G_perm[i] = R G_i
    and sign[i] = exp(-i R G_i . t), which is +/-1, with Q Q = 1.  It is a
    symmetry of the crystal if Q also commutes with V (``commutes``); then
    at a Bloch vector R fixes, H(kappa) has no element between Q's +1 and
    -1 eigenspaces, whose dims differ by ``trace``.
    """

    op: np.ndarray
    perm: np.ndarray
    sign: np.ndarray
    trace: int

    def fixes(self, kappas) -> np.ndarray:
        """Whether R kappa == kappa exactly, for each row of kappas."""
        kappas = np.asarray(kappas)
        axes = np.abs(self.op).argmax(axis=1)
        # A signed permutation, applied without multiplying by 0.
        image = kappas[..., axes] * self.op[np.arange(3), axes]
        return np.all(image == kappas, axis=-1)

    def commutes(self, block: CheckedBlock) -> bool:
        """Q V = V Q to 1e-12 max|V|, for the Hermitian V of ``block``.

        Q is real symmetric, so this is Q V = (Q V)^dagger: one row gather
        (Q V)[a] = sign[a] V[perm[a]], not a gather of Q V Q^T.  A V that
        is not finite commutes with nothing.
        """
        v, perm, sign = block.matrix, self.perm, self.sign
        vmax = max(block.off_max, np.abs(block.diag).max())
        if not np.isfinite(vmax):
            return False
        dev = 0.0
        # A band of rows of Q V against the same band of its columns, so
        # that no dim x dim temporary is made.
        for start in range(0, len(perm), 64):
            band = slice(start, start + 64)
            rows = v[perm[band]] * sign[band, None]
            cols = v[perm, band] * sign[:, None]
            with np.errstate(over="ignore"):
                dev = max(dev, np.abs(rows - cols.conj().T).max())
        return bool(dev <= SYMMETRY_TOL * vmax)


def involutions(lattice: RealLattice, recip: ReciprocalLattice,
                basis: PlaneWaveBasis) -> list:
    """Candidate involutions of a basis, in ``cubic_involutions`` order.

    For each R that maps the basis onto itself, each candidate t whose Q
    has only +/-1 phases and squares to 1 gives one (a t repeating the
    previous one's signs is dropped).  Whether Q commutes with V is left
    to ``Involution.commutes``; the non-symmorphic pairs (t not 0: the
    glides and screws of diamond) are what make every point of a zone tour
    fixed by a symmetry.
    """
    ops, shifts = cubic_involutions(lattice)
    # G = c B, so R G = c B R^T = c M with M = B R^T B^-1.
    m = recip.matrix @ ops.transpose(0, 2, 1) @ np.linalg.inv(recip.matrix)
    whole = np.abs(m - np.rint(m)).max(axis=(1, 2)) <= 1e-9
    image = basis.coeffs @ np.rint(m).astype(basis.coeffs.dtype)
    # A row is found by its coefficients' flat index in the basis's box.
    low = basis.coeffs.min(axis=0)
    shape = basis.coeffs.max(axis=0) - low + 1
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    key = (basis.coeffs - low) @ strides
    order = np.argsort(key)
    spot = np.searchsorted(key, (image - low) @ strides, sorter=order)
    perm = order[spot.clip(max=basis.dim - 1)]  # (op, row)
    onto = whole & np.all(basis.coeffs[perm] == image, axis=(1, 2))
    # exp(-i R G_i . t) is (-1)^turns when turns = R G_i . t / pi is whole;
    # one row of signs per candidate t.
    turns = shifts @ basis.cart[perm].transpose(0, 2, 1) / np.pi
    half = np.rint(turns)
    sign = 1.0 - 2.0 * np.mod(half, 2.0)
    squares = sign * np.take_along_axis(sign, perm[:, None, :], axis=2)
    good = (np.abs(turns - half).max(axis=2) <= PHASE_TOL) \
        & np.all(squares == 1.0, axis=2)
    fixed = perm == np.arange(basis.dim)
    found = []
    for o in np.flatnonzero(onto):
        last = None
        for t in np.flatnonzero(good[o]):
            if last is None or not np.array_equal(sign[o, t], last):
                last = sign[o, t]
                found.append(Involution(ops[o], perm[o], last,
                                        int(last[fixed[o]].sum())))
    return found


def sectors(v: np.ndarray, inv: Involution) -> tuple:
    """V's blocks in the +1 and -1 eigenspaces of Q.

    Q must commute with V.  The blocks do not depend on kappa.  Each orbit
    of Q (a row it fixes, or a pair it swaps) gives a column, placed by its
    smaller row, and (U^T V U)[a, b] is gathered from V's rows at those
    smaller rows: for any y that Q maps to +/-y, (U^T y)_a is y at row a
    over U's entry there.
    """
    n = len(inv.perm)
    rows = np.flatnonzero(np.arange(n) <= inv.perm)
    mates = inv.perm[rows]
    pair = mates != rows
    half = np.sqrt(0.5)
    split = []
    for parity in (1.0, -1.0):
        keep = pair | (inv.sign[rows] == parity)
        r, m, p = rows[keep], mates[keep], pair[keep]
        weight = np.where(p, half, 1.0)
        mate_weight = np.where(p, parity * inv.sign[r] * half, 0.0)
        column = np.zeros(n, int)
        column[m] = column[r] = np.arange(len(r))
        coef = np.zeros(n)
        coef[m] = mate_weight
        coef[r] = weight
        u = v[np.ix_(r, r)]
        u *= weight
        mate = v[np.ix_(r, m)]
        mate *= mate_weight
        u += mate
        del mate
        u /= weight[:, None]
        split.append(Sector(r, m, column, coef, u))
    return tuple(split)


def leading_sectors(split: tuple, dim: int) -> tuple:
    """The sectors of a basis's first ``dim`` rows (a smaller cutoff's), or
    () if some orbit straddles row ``dim``: views of ``split``, no copies."""
    lead = []
    for sector in split:
        m = np.searchsorted(sector.rows, dim)
        if np.any(sector.mates[:m] >= dim):
            return ()
        if m:
            lead.append(Sector(sector.rows[:m], sector.mates[:m],
                               sector.column[:dim], sector.coef[:dim],
                               sector.matrix[:m, :m]))
    return tuple(lead)


def build(kappa, basis: PlaneWaveBasis, potential, sectors=()) -> BlochMatrix:
    """Bloch Hamiltonian at kappa: the potential block plus kinetic terms.

    ``potential`` is the ``potential_matrix`` of ``basis``, or the
    ``CheckedBlock`` of it that a sweep makes once; a bare array is checked
    here, at O(dim^2).  The block does not depend on kappa, so with a
    checked block this is O(dim): it computes hbar^2 |kappa + G|^2 / 2m and
    leaves V untouched.  The matrix keeps V's dtype: real symmetric for a
    real block, complex Hermitian otherwise.  ``sectors``, from ``sectors``
    for a symmetry whose R fixes kappa, tell ``eigh`` how to split it.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (3,) or not np.all(np.isfinite(kappa)):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    if not isinstance(potential, CheckedBlock):
        potential = CheckedBlock.of(potential)
    kinetic = HBAR2_OVER_2M * np.sum((kappa + basis.cart) ** 2, axis=1)
    return BlochMatrix(potential, kinetic, sectors)
