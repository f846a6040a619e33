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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import BlochMatrix, CheckedBlock
from .lattice import (CUTOFF_SLACK, RealLattice, ReciprocalLattice, cartesian,
                      enumerate_g)
from .potential import HBAR2_OVER_2M, Potential, matrix_element


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


def build(kappa, basis: PlaneWaveBasis, potential) -> BlochMatrix:
    """Bloch Hamiltonian at kappa: the potential block plus kinetic terms.

    ``potential`` is the ``potential_matrix`` of ``basis``, or the
    ``CheckedBlock`` of it that a sweep makes once; a bare array is checked
    here, at O(dim^2).  The block does not depend on kappa, so with a
    checked block this is O(dim): it computes hbar^2 |kappa + G|^2 / 2m and
    leaves V untouched.  The matrix keeps V's dtype: real symmetric for a
    real block, complex Hermitian otherwise.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (3,) or not np.all(np.isfinite(kappa)):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    if not isinstance(potential, CheckedBlock):
        potential = CheckedBlock.of(potential)
    kinetic = HBAR2_OVER_2M * np.sum((kappa + basis.cart) ** 2, axis=1)
    return BlochMatrix(potential, kinetic)
