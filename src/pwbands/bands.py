"""Band-structure sweeps along k-paths, gap detection, convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import CheckedBlock, NonHermitianError, SolverError, eigh
from .hamiltonian import PlaneWaveBasis, build, potential_matrix
from .lattice import KPath, RealLattice, ReciprocalLattice
from .potential import HBAR2_OVER_2M, Potential

# A level may rise by at most this times max|H| from one cutoff to the next.
INTERLACING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Lowest ``num_bands`` eigenvalues (eV) at every point of ``path``.

    ``energies`` has shape (n_points, num_bands), ascending along each row.
    """

    path: KPath
    num_bands: int
    energies: np.ndarray


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
          recip: ReciprocalLattice, g2_max: float, num_bands: int) -> BandStructure:
    """Diagonalize the Bloch Hamiltonian at every path point.

    The potential block is assembled and checked once and reused; only the
    kinetic diagonal changes with kappa.  Each solve returns and verifies
    only the lowest ``num_bands`` eigenpairs.
    """
    basis = PlaneWaveBasis.from_cutoff(recip, g2_max)
    v = CheckedBlock.of(potential_matrix(model, lattice, recip, basis))
    energies = np.empty((len(path.points), num_bands))
    for idx, point in enumerate(path.points):
        # Live until the next solve, or malloc trims and re-faults its pages.
        result = _solve(point.kappa, basis, v, num_bands, idx,
                        lambda: f"k-point {idx} kappa={point.kappa}")
        energies[idx] = result.values
    return BandStructure(path=path, num_bands=num_bands, energies=energies)


def _solve(kappa, basis, v, num_bands, index, where):
    """Eigenpairs at kappa; a failure raises SweepError located by where()."""
    try:
        return eigh(build(kappa, basis, v), num_bands)
    except (SolverError, NonHermitianError) as exc:
        raise SweepError(f"solve failed at {where()}: {exc}",
                         index=index, kappa=kappa) from exc


def free_electron_reference(path: KPath, lattice: RealLattice,
                            recip: ReciprocalLattice, g2_max: float,
                            num_bands: int) -> BandStructure:
    """Sorted free-electron energies hbar^2 |kappa + G|^2 / 2m, no matrices."""
    basis = PlaneWaveBasis.from_cutoff(recip, g2_max)
    if num_bands > basis.dim:
        raise ValueError(
            f"num_bands={num_bands} exceeds basis dimension {basis.dim}")
    energies = np.empty((len(path.points), num_bands))
    for idx, point in enumerate(path.points):
        levels = HBAR2_OVER_2M * np.sum((point.kappa + basis.cart) ** 2, axis=1)
        levels.sort()
        energies[idx] = levels[:num_bands]
    return BandStructure(path=path, num_bands=num_bands, energies=energies)


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
                      recip: ReciprocalLattice, cutoffs, num_bands: int) -> list:
    """Solve at one kappa for each cutoff in an ascending list: leading blocks
    of one basis and V built at the largest, so levels interlace (Cauchy):
    no level may rise as the cutoff grows.  Each row is checked for that;
    a rise beyond 1e-9 max|H| raises SweepError naming the cutoff."""
    cutoffs = [float(c) for c in cutoffs]
    if not cutoffs or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"need strictly ascending cutoffs, got {cutoffs}")
    basis = PlaneWaveBasis.from_cutoff(recip, cutoffs[-1])
    v = potential_matrix(model, lattice, recip, basis)
    rows = []
    for idx, g2_max in enumerate(cutoffs):
        sub = basis.truncate(g2_max)

        def where():
            return f"cutoff g2_max={g2_max:g} 1/A^2 (cutoffs[{idx}])"

        result = _solve(kappa, sub, v[:sub.dim, :sub.dim], num_bands, idx,
                        where)
        rise = result.values - rows[-1].values if rows else 0.0
        over = rise > INTERLACING_TOL * result.scale
        if np.any(over):
            level = int(np.argmax(over))
            raise SweepError(
                f"levels do not interlace at {where()}: E{level + 1} rose by "
                f"{rise[level]:.3e} eV from the previous cutoff",
                index=idx, kappa=kappa)
        rows.append(ConvergenceRow(g2_max, sub.dim, result.values))
    return rows
