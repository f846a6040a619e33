"""Plane-wave band structures of cubic crystals.

Assembles and diagonalizes the Bloch Hamiltonian of a single electron in
a lattice-periodic potential over a truncated plane-wave basis, sweeping
labeled tours of the first Brillouin zone to produce band diagrams, gap
reports, and cutoff convergence tables.
"""

from .bands import (BandStructure, ConvergenceRow, GapEntry, SweepError,
                    convergence_study, detect_gaps, free_electron_reference,
                    sweep)
from .eigen import (BlochMatrix, EigenResult, NonHermitianError,
                    SolverError, eigh)
from .hamiltonian import AssemblyError, PlaneWaveBasis, build
from .lattice import (KPath, KPoint, LatticeError, RealLattice,
                      ReciprocalLattice, enumerate_g, fcc_symmetry_points,
                      make_cubic, make_kpath, reciprocal_of)
from .potential import (E2, HBAR2_OVER_2M, Potential, PotentialError,
                        ion_ft, matrix_element, structure_factor)

__version__ = "0.1.0"

__all__ = [
    "BandStructure", "BlochMatrix", "ConvergenceRow", "EigenResult",
    "GapEntry", "KPath", "KPoint", "PlaneWaveBasis", "Potential",
    "RealLattice", "ReciprocalLattice", "SweepError",
    "AssemblyError", "LatticeError", "NonHermitianError", "PotentialError",
    "SolverError",
    "E2", "HBAR2_OVER_2M",
    "build", "convergence_study", "detect_gaps", "eigh", "enumerate_g",
    "fcc_symmetry_points", "free_electron_reference", "ion_ft",
    "make_cubic", "make_kpath", "matrix_element", "reciprocal_of",
    "structure_factor", "sweep",
]
