"""Band-structure sweeps along k-paths and cutoff convergence studies, both
on a plane-wave basis the caller enumerates and both one loop over (kappa,
dim) pairs, and gap detection.  A sweep solves each row of ``path.kappas``
in one row of each irrep of its little group."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import BlochMatrix, NonHermitianError, SolverError, eigh
from .hamiltonian import (AssemblyError, PlaneWaveBasis, build, little_group,
                          operations, potential_matrix, row_blocks)
from .lattice import KPath, RealLattice, ReciprocalLattice
from .potential import HBAR2_OVER_2M, Potential

# A level may rise by at most this times max|H| from one cutoff to the next.
INTERLACING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Lowest eigenvalues (eV) at every sample of ``path``: ``energies``
    has shape (n_points, num_bands), ascending along each row."""

    path: KPath
    energies: np.ndarray

    @property
    def num_bands(self) -> int:
        return self.energies.shape[1]


@dataclass(frozen=True)
class GapEntry:
    """Energy window between band ``below_band`` (1-based) and the next one."""

    below_band: int
    gap_bottom: float
    gap_top: float
    width: float


@dataclass(frozen=True, eq=False)
class ConvergenceRow:
    """Spectrum retained at one basis cutoff."""

    g2_max: float
    dim: int
    values: np.ndarray


class SweepError(RuntimeError):
    """Solve failure in a sweep or a convergence study.

    ``index`` is the offending k-point's position on the path (sweep) or
    the offending cutoff's position in the list (convergence study).
    """

    def __init__(self, message: str, index: int, kappa: np.ndarray):
        super().__init__(message)
        self.index = index
        self.kappa = kappa


def sweep(path: KPath, model: Potential, lattice: RealLattice,
          recip: ReciprocalLattice, basis: PlaneWaveBasis,
          num_bands: int) -> BandStructure:
    """Diagonalize the Bloch Hamiltonian over ``basis`` at every path point:
    only the kinetic diagonal changes with kappa, and each point is solved
    in one row of each irrep of its little group (whole, if only the
    identity fixes it) for its lowest ``num_bands`` pairs, verified."""
    energies = np.array([result.values for result in _solves(
        path.kappas, [basis.dim] * len(path.kappas), model, lattice, recip,
        basis, num_bands, lambda i, kappa: f"k-point {i} kappa={kappa}")])
    return BandStructure(path=path, energies=energies)


def _solves(kappas, dims, model, lattice, recip, basis, num_bands, where):
    """Eigenpairs at each (kappa, dim) pair in turn, on the first dim rows of
    ``basis``; a failure raises SweepError located by where(index, kappa).
    V and the crystal's operations are built once, and each little group's
    row blocks once, on the whole basis; a smaller dim solves V's leading
    block and views of those row blocks (``BlochMatrix.leading``)."""
    crystal = operations(lattice, recip, basis)
    v = BlochMatrix.of(potential_matrix(model, lattice, recip, basis))
    groups = {}
    for idx, (kappa, fixing, dim) in enumerate(zip(kappas,
                                                   crystal.fixes(kappas), dims)):
        key = fixing.tobytes()
        if key not in groups:
            groups[key] = v._replace(sectors=row_blocks(
                v.matrix, little_group(crystal, v, fixing)))
        h = groups[key].leading(dim)
        sub = PlaneWaveBasis(basis.coeffs[:dim], basis.cart[:dim])
        try:  # result lives until the next solve, or malloc re-faults pages
            result = eigh(build(kappa, sub, h), num_bands)
        except (SolverError, NonHermitianError) as exc:
            raise SweepError(f"solve failed at {where(idx, kappa)}: {exc}",
                             index=idx, kappa=kappa) from exc
        yield result


def free_electron_reference(path: KPath, lattice: RealLattice,
                            recip: ReciprocalLattice, g2_max: float,
                            num_bands: int) -> BandStructure:
    """Sorted free-electron energies hbar^2 |kappa + G|^2 / 2m, no matrices."""
    basis = PlaneWaveBasis.from_cutoff(recip, g2_max)
    if num_bands > basis.dim:
        raise ValueError(
            f"num_bands={num_bands} exceeds basis dimension {basis.dim}")
    energies = np.empty((len(path.kappas), num_bands))
    for idx, kappa in enumerate(path.kappas):  # O(dim) scratch, not O(n dim)
        levels = HBAR2_OVER_2M * np.sum((kappa + basis.cart) ** 2, axis=1)
        levels.sort()
        energies[idx] = levels[:num_bands]
    return BandStructure(path=path, energies=energies)


def detect_gaps(bs: BandStructure) -> list:
    """Gaps between adjacent bands over the sampled path.

    For each band index n the gap interval runs from max_k E_n(k) up to
    min_k E_{n+1}(k); only intervals with positive width are reported.
    Band indices are 1-based.  These are path gaps, not zone-wide gaps.
    """
    report = []
    for n in range(bs.num_bands - 1):
        bottom = float(bs.energies[:, n].max())
        top = float(bs.energies[:, n + 1].min())
        if top > bottom:
            report.append(GapEntry(below_band=n + 1, gap_bottom=bottom,
                                   gap_top=top, width=top - bottom))
    return report


def convergence_study(kappa, model: Potential, lattice: RealLattice,
                      recip: ReciprocalLattice, basis: PlaneWaveBasis,
                      cutoffs, num_bands: int) -> list:
    """Solve at one kappa for each cutoff in an ascending list: leading blocks
    of ``basis`` (holding every G up to the largest) and of V there, so levels
    interlace (Cauchy): no level may rise as the cutoff grows.  Each row is
    checked; a rise beyond 1e-9 max|H| raises SweepError naming the cutoff."""
    cutoffs = [float(c) for c in cutoffs]
    if not cutoffs or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"need strictly ascending cutoffs, got {cutoffs}")
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (3,):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    basis = basis.truncate(cutoffs[-1])
    dims = [basis.truncate(g2_max).dim for g2_max in cutoffs]

    def where(idx, _):
        return f"cutoff g2_max={cutoffs[idx]:g} 1/A^2 (cutoffs[{idx}])"

    rows = []
    for idx, result in enumerate(_solves(
            np.tile(kappa, (len(cutoffs), 1)), dims, model, lattice, recip,
            basis, num_bands, where)):
        rise = result.values - rows[-1].values if rows else 0.0
        over = rise > INTERLACING_TOL * result.scale
        if np.any(over):
            level = int(np.argmax(over))
            raise SweepError(
                f"levels do not interlace at {where(idx, kappa)}: "
                f"E{level + 1} rose by {rise[level]:.3e} eV from the "
                "previous cutoff", index=idx, kappa=kappa)
        rows.append(ConvergenceRow(cutoffs[idx], dims[idx], result.values))
    return rows
