"""Assembly of the Bloch Hamiltonian over a truncated plane-wave basis.

For each Bloch vector kappa the Hamiltonian restricted to the coupled
family of plane waves |kappa + G> is a finite Hermitian matrix: kinetic
terms hbar^2 |kappa + G|^2 / 2m on the diagonal, potential matrix elements
V(G - G') everywhere.  Couplings exist only between basis members, i.e.
between states differing by a reciprocal lattice vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import RealLattice, ReciprocalLattice, enumerate_g, g_difference
from .potential import HBAR2_OVER_2M, PotentialModel, matrix_element

# max|H - H^dagger| must stay below this times max|H|.
HERMITICITY_TOL = 1e-12


class AssemblyError(RuntimeError):
    """Assembled matrix violated a structural invariant."""


@dataclass(frozen=True, eq=False)
class PlaneWaveBasis:
    """Ordered plane-wave basis: the G enumeration for a fixed |G|^2 cutoff."""

    g_list: tuple
    g2_max: float

    def __post_init__(self):
        if not self.g_list:
            raise AssemblyError("plane-wave basis is empty")
        origin = self.g_list[0]
        if origin.coeffs != (0, 0, 0):
            raise AssemblyError("basis must contain and start at G = 0")

    @classmethod
    def from_cutoff(cls, recip: ReciprocalLattice, g2_max: float) -> "PlaneWaveBasis":
        return cls(tuple(enumerate_g(recip, g2_max)), g2_max)

    @property
    def dim(self) -> int:
        return len(self.g_list)

    @property
    def cart(self) -> np.ndarray:
        """(dim, 3) array of cartesian G vectors."""
        return np.array([g.cart for g in self.g_list])


@dataclass(frozen=True, eq=False)
class BlochMatrix:
    """Hermitian Hamiltonian at one Bloch vector, in eV."""

    kappa: np.ndarray
    dim: int
    entries: np.ndarray


def potential_matrix(model: PotentialModel, lattice: RealLattice,
                     recip: ReciprocalLattice, basis: PlaneWaveBasis) -> np.ndarray:
    """Kappa-independent potential block V[i,j] = <G_i|V|G_j>.

    Differences G_i - G_j are formed in integer coefficients, so entries
    depend only on the coefficient difference, never on list position.
    The block is returned as float64 when every entry is exactly real, as
    for a lattice whose origin is an inversion centre (the diamond basis at
    +/-(a/8)(1,1,1), where S(G) = 2 cos(G.tau)); otherwise it stays complex.
    """
    n = basis.dim
    v = np.zeros((n, n), dtype=complex)
    cache = {}
    for i, gi in enumerate(basis.g_list):
        for j, gj in enumerate(basis.g_list):
            key = (gi.n - gj.n, gi.m - gj.m, gi.l - gj.l)
            if key not in cache:
                dg = g_difference(recip, gi, gj)
                cache[key] = matrix_element(model, lattice, recip, dg)
            v[i, j] = cache[key]
    if not np.any(v.imag):
        return v.real.copy()
    return v


def build(kappa, basis: PlaneWaveBasis, model: PotentialModel,
          lattice: RealLattice, recip: ReciprocalLattice,
          potential: np.ndarray | None = None) -> BlochMatrix:
    """Assemble the Bloch Hamiltonian at kappa.

    ``potential`` may carry a precomputed potential_matrix for the same
    basis/model (it does not depend on kappa); sweeps reuse it across
    k-points.  The matrix has the potential's dtype: real symmetric for a
    real potential block, complex Hermitian otherwise.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (3,) or not np.all(np.isfinite(kappa)):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    if potential is None:
        potential = potential_matrix(model, lattice, recip, basis)
    kinetic = HBAR2_OVER_2M * np.sum((kappa + basis.cart) ** 2, axis=1)
    h = potential + np.diag(kinetic)
    _check_invariants(h, potential)
    return BlochMatrix(kappa=kappa, dim=basis.dim, entries=h)


def _check_invariants(h: np.ndarray, potential: np.ndarray) -> None:
    scale = np.abs(h).max()
    if not np.isfinite(scale):
        raise AssemblyError("assembled matrix has non-finite entries")
    herm = np.abs(h - h.conj().T).max()
    if herm > HERMITICITY_TOL * scale:
        raise AssemblyError(
            f"assembled matrix is not Hermitian: deviation {herm:.3e}")
    # Kinetic terms are nonnegative, so no diagonal entry may dip below the
    # potential's constant diagonal.
    floor = potential[0, 0].real - 1e-9 * max(scale, 1.0)
    if np.min(h.diagonal().real) < floor:
        raise AssemblyError("diagonal fell below the potential constant")
