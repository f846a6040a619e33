"""Band-structure sweeps along k-paths and cutoff convergence studies, both
on a plane-wave basis the caller enumerates and both one loop over (kappa,
dim) pairs, and gap detection.  A sweep solves each row of ``path.kappas``
in one row of each irrep of its little group."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .eigen import BlochMatrix, NonHermitianError, SolverError, eigh
from .hamiltonian import (AssemblyError, PlaneWaveBasis, build, little_group,
                          operations, potential_matrix, row_blocks)
from .lattice import KPath, RealLattice, ReciprocalLattice
from .potential import HBAR2_OVER_2M, Potential

# A level may rise by at most this times max|H| from one cutoff to the next.
INTERLACING_TOL = 1e-9

# A batch of k-points solved together (``_solves``) returns at most this
# many bytes of eigenvectors, dim x num_bands numbers a point, or is one
# point.  The solver's buffer and the expansion and verification
# temporaries grow with it, so it bounds the memory a batch adds to a
# sweep.  At 128 KiB (23 points at dim 89, 6 at dim 339, 8 bands,
# float64) most of the per-call cost the points of a batch share is saved,
# and peak RSS stayed within 1.6% of one point at a time (BENCH_20.json).
BATCH_BYTES = 128 * 1024


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
    def where(idx, kappa):
        return idx, f"k-point {idx} kappa={kappa}"

    energies = np.array([values for values, _ in _solves(
        path.kappas, [basis.dim] * len(path.kappas), model, lattice, recip,
        basis, num_bands, where)])
    return BandStructure(path=path, energies=energies)


def _solves(kappas, dims, model, lattice, recip, basis, num_bands, where):
    """(values, max|H|) at each (kappa, dim) pair in turn, on the first dim
    rows of ``basis``; a failure raises SweepError at where(index, kappa),
    an (index, place) pair.  V and the crystal's operations are built once,
    and each little group's row blocks once, on the whole basis; the
    smaller dims solve V's leading blocks and views of those row blocks,
    whose figures one pass over V gives (``BlochMatrix.leading``).
    Consecutive pairs of one little group and dim are built and solved as
    one batch of at most BATCH_BYTES of vectors; a batch that fails is
    solved again point by point, so that the error names its point."""
    crystal = operations(lattice, recip, basis)
    v = BlochMatrix.of(potential_matrix(model, lattice, recip, basis))
    fixes, groups, cuts = crystal.fixes(kappas), {}, sorted(set(dims))
    keys = [fixing.tobytes() for fixing in fixes]
    for (key, dim), run in groupby(range(len(kappas)),
                                   lambda idx: (keys[idx], dims[idx])):
        run = list(run)
        if key not in groups:
            groups[key] = dict(zip(cuts, v._replace(sectors=row_blocks(
                v.matrix, little_group(crystal, v, fixes[run[0]])))
                .leading(cuts)))
        h = groups[key][dim]
        sub = PlaneWaveBasis(basis.coeffs[:dim], basis.cart[:dim])
        size = max(1, BATCH_BYTES // max(1, dim * num_bands
                                         * v.matrix.itemsize))
        for start in range(run[0], run[-1] + 1, size):
            at = slice(start, min(start + size, run[-1] + 1))
            try:  # result lives until the next solve, or malloc re-faults
                result = eigh(build(kappas[at], sub, h), num_bands)
                solved = zip(result.values, result.scale)
            except (SolverError, NonHermitianError):
                solved = _one_by_one(kappas, at, sub, h, num_bands, where)
            yield from solved


def _one_by_one(kappas, at, sub, h, num_bands, where):
    """(values, max|H|) at each point of kappas[at], solved as batches of
    one; SweepError at where(index, kappa) for the first that fails."""
    for idx in range(at.start, at.stop):
        try:
            result = eigh(build(kappas[idx:idx + 1], sub, h), num_bands)
        except (SolverError, NonHermitianError) as exc:
            index, place = where(idx, kappas[idx])
            raise SweepError(f"solve failed at {place}: {exc}", index=index,
                             kappa=kappas[idx]) from exc
        yield result.values[0], result.scale[0]


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
    interlace (Cauchy): no level may rise as the cutoff grows.  Each dim is
    solved once, and cutoffs that add no shell share its row, as they share
    its H.  Each row is checked; a rise beyond 1e-9 max|H| raises SweepError
    naming the first cutoff of that dim."""
    cutoffs = [float(c) for c in cutoffs]
    if not cutoffs or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"need strictly ascending cutoffs, got {cutoffs}")
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (3,):
        raise AssemblyError(f"bad Bloch vector: {kappa}")
    basis = basis.truncate(cutoffs[-1])
    dims = [basis.truncate(g2_max).dim for g2_max in cutoffs]
    distinct = sorted(set(dims))
    first = [dims.index(dim) for dim in distinct]

    def where(idx, _):
        at = first[idx]
        return at, f"cutoff g2_max={cutoffs[at]:g} 1/A^2 (cutoffs[{at}])"

    levels = []
    for idx, (values, scale) in enumerate(_solves(
            np.tile(kappa, (len(distinct), 1)), distinct, model, lattice,
            recip, basis, num_bands, where)):
        rise = values - levels[-1] if levels else 0.0
        over = rise > INTERLACING_TOL * scale
        if np.any(over):
            level = int(np.argmax(over))
            at, place = where(idx, kappa)
            raise SweepError(
                f"levels do not interlace at {place}: E{level + 1} rose by "
                f"{rise[level]:.3e} eV from the previous cutoff", index=at,
                kappa=kappa)
        levels.append(values)
    by_dim = dict(zip(distinct, levels))
    return [ConvergenceRow(g2_max, dim, by_dim[dim])
            for g2_max, dim in zip(cutoffs, dims)]
