"""Ionic potentials in reciprocal space and crystal matrix elements.

The single-ion potential enters the Bloch Hamiltonian only through its
Fourier components, modulated by the phase sum over the atoms of the unit
cell (structure factor) and normalized by the cell volume.  One record,
``Potential``, describes it: a screened ion -z e^2 exp(-mu r) / r, which
is bare Coulomb at mu = 0, optionally with some shells replaced by
tabulated matrix elements (the empirical pseudopotential model).
Every function here takes scalars or arrays alike: the crystal's whole
potential table is one vectorized ``matrix_element`` call over integer
coefficient differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import RealLattice, ReciprocalLattice, cartesian, shell_index

# hbar^2 / 2 m_e in eV * A^2 and q^2 = e^2/(4 pi eps0) in eV * A.
HBAR2_OVER_2M = 3.80998212
E2 = 14.39964

# Structure factors below this magnitude count as exact zeros (suppressed
# couplings).
STRUCTURE_FACTOR_TOL = 1e-12


class PotentialError(ValueError):
    """Invalid potential model parameters."""


@dataclass(frozen=True)
class Potential:
    """Screened ion -z_eff e^2 exp(-mu r) / r (mu in 1/A; 0 is bare Coulomb),
    with optional per-shell matrix-element overrides (shell n^2 -> eV).

    override_mode "element": the tabulated value is the final matrix
    element, applied as-is wherever the structure factor is nonzero and
    zero where it vanishes.  override_mode "form_factor": the tabulated
    value is a symmetric per-atom form factor, multiplied at runtime by
    S(G)/n_atoms.
    """

    z_eff: float
    mu: float = 0.0
    overrides: dict = field(default_factory=dict)
    override_mode: str = "element"

    def __post_init__(self):
        if self.z_eff < 0:
            raise PotentialError(f"z_eff must be nonnegative, got {self.z_eff}")
        if self.mu < 0:
            raise PotentialError(f"mu must be nonnegative, got {self.mu}")
        if self.override_mode not in ("element", "form_factor"):
            raise PotentialError(
                f"override_mode must be 'element' or 'form_factor', "
                f"got {self.override_mode!r}")
        clean = {}
        for shell, value in self.overrides.items():
            s = int(shell)
            if s < 0:
                raise PotentialError(f"override shell must be >= 0, got {s}")
            clean[s] = float(value)
        object.__setattr__(self, "overrides", clean)


def ion_ft(model: Potential, g2):
    """Fourier transform of the single-ion potential at |G|^2 = g2 (eV*A^3).

    ``g2`` is a scalar or an array.  The transform is
    -4 pi z e^2 / (g2 + mu^2), finite everywhere for mu > 0 and 0 where
    mu^2 overflows (full screening).  At mu = 0 (bare Coulomb) its
    divergence at g2 = 0 is dropped (a constant energy shift), returning 0.
    """
    g2 = np.asarray(g2, dtype=float)
    if np.any(g2 < 0):
        raise PotentialError(f"g2 must be nonnegative, got {g2.min()}")
    denom = g2 + model.mu * model.mu  # inf, not OverflowError, for huge mu
    numer = -4.0 * math.pi * model.z_eff * E2
    return np.divide(numer, denom, out=np.zeros(denom.shape),
                     where=denom != 0.0)[()]


def structure_factor(basis_offsets, g):
    """Phase sum sum_j exp(-i G . tau_j) over the atomic basis.

    ``g`` holds cartesian vectors in its last axis, shape (3,) or (..., 3).
    """
    g = np.asarray(g, dtype=float)
    return sum(np.exp(-1j * (g @ tau)) for tau in basis_offsets)


def matrix_element(model: Potential, lattice: RealLattice,
                   recip: ReciprocalLattice, dg):
    """Crystal potential matrix elements for momentum transfers dg = G - G'.

    ``dg`` holds integer coefficients (n, m, l) in its last axis, shape (3,)
    or (..., 3); the result has the leading shape and is complex.
    The ion gives (1/omega) * ion_ft(|dg|^2) * S(dg).  Overrides replace
    the value on their shells according to the model's override_mode;
    shells absent from the table keep the ion's value.  The dg = 0 element
    is a constant energy shift and is dropped (even where the screened ion
    is finite there); only an explicit n^2 = 0 override reinstates it.
    Values too large for float64 come out non-finite, silently;
    ``eigen.eigh`` rejects any matrix holding them.
    """
    dg = np.asarray(dg)
    cart = cartesian(recip, dg)
    g2 = np.einsum("...i,...i->...", cart, cart)
    s = structure_factor(lattice.basis_offsets, cart)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.where(np.any(dg, axis=-1),
                         ion_ft(model, g2) * s / recip.omega, 0j)
        if model.overrides:
            shell = shell_index(g2, recip.lattice_constant)
            suppressed = np.abs(s) < STRUCTURE_FACTOR_TOL
            for key, tabulated in model.overrides.items():
                if model.override_mode == "form_factor":
                    tabulated = tabulated * s / len(lattice.basis_offsets)
                value = np.where(shell == key,
                                 np.where(suppressed, 0j, tabulated), value)
    return value[()]
