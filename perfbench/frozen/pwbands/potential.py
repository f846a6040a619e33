"""Ionic potentials in reciprocal space and crystal matrix elements.

The single-ion potential enters the Bloch Hamiltonian only through its
Fourier components, modulated by the phase sum over the atoms of the unit
cell (structure factor) and normalized by the cell volume.  Three model
families are supported: bare screened Coulomb, Yukawa, and an empirical
model that overrides specific shells with hand-chosen matrix elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .lattice import GVector, RealLattice, ReciprocalLattice

# hbar^2 / 2 m_e in eV * A^2 and q^2 = e^2/(4 pi eps0) in eV * A.
HBAR2_OVER_2M = 3.80998212
E2 = 14.39964

# Structure factors below this magnitude count as exact zeros (suppressed
# couplings).
STRUCTURE_FACTOR_TOL = 1e-12


class PotentialError(ValueError):
    """Invalid potential model parameters."""


@dataclass(frozen=True)
class Coulomb:
    """Screened point charge -z_eff e^2 / r."""

    z_eff: float

    def __post_init__(self):
        if self.z_eff < 0:
            raise PotentialError(f"z_eff must be nonnegative, got {self.z_eff}")


@dataclass(frozen=True)
class Yukawa:
    """Exponentially screened charge -z_eff e^2 exp(-mu r) / r, mu in 1/A."""

    z_eff: float
    mu: float

    def __post_init__(self):
        if self.z_eff < 0:
            raise PotentialError(f"z_eff must be nonnegative, got {self.z_eff}")
        if self.mu < 0:
            raise PotentialError(f"mu must be nonnegative, got {self.mu}")


@dataclass(frozen=True)
class Empirical:
    """Base model with per-shell matrix-element overrides (shell n^2 -> eV).

    override_mode "element": the tabulated value is the final matrix
    element, applied as-is wherever the structure factor is nonzero and
    zero where it vanishes.  override_mode "form_factor": the tabulated
    value is a symmetric per-atom form factor, multiplied at runtime by
    S(G)/n_atoms.
    """

    base: Union[Coulomb, Yukawa]
    overrides: dict = field(default_factory=dict)
    override_mode: str = "element"

    def __post_init__(self):
        if isinstance(self.base, Empirical):
            raise PotentialError("empirical base must not itself be empirical")
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


PotentialModel = Union[Coulomb, Yukawa, Empirical]


def ion_ft(model: PotentialModel, g2: float) -> float:
    """Fourier transform of the single-ion potential at |G|^2 = g2 (eV*A^3).

    The Coulomb transform is -4 pi z e^2 / g2; its divergence at g2 = 0 is
    dropped (a constant energy shift), returning 0.  The Yukawa transform
    -4 pi z e^2 / (g2 + mu^2) is finite everywhere for mu > 0.
    """
    if g2 < 0:
        raise PotentialError(f"g2 must be nonnegative, got {g2}")
    if isinstance(model, Empirical):
        return ion_ft(model.base, g2)
    if isinstance(model, Coulomb):
        denom = g2
    else:
        denom = g2 + model.mu**2
    if denom == 0.0:
        return 0.0
    return -4.0 * math.pi * model.z_eff * E2 / denom


def structure_factor(basis_offsets, g) -> complex:
    """Phase sum sum_j exp(-i G . tau_j) over the atomic basis."""
    g = np.asarray(g, dtype=float)
    total = 0.0 + 0.0j
    for tau in basis_offsets:
        total += np.exp(-1j * float(g @ tau))
    return complex(total)


def matrix_element(model: PotentialModel, lattice: RealLattice,
                   recip: ReciprocalLattice, dg: GVector) -> complex:
    """Crystal potential matrix element for momentum transfer dg = G - G'.

    Base models give (1/omega) * ion_ft(|dg|^2) * S(dg).  Empirical
    overrides replace the value on their shells according to the model's
    override_mode; shells absent from the table fall through to the base.
    The dg = 0 element is a constant energy shift and is dropped for every
    base model (even the finite Yukawa one); only an explicit n^2 = 0
    override reinstates it.
    """
    s = structure_factor(lattice.basis_offsets, dg.cart)
    if isinstance(model, Empirical) and dg.shell is not None \
            and dg.shell in model.overrides:
        if abs(s) < STRUCTURE_FACTOR_TOL:
            return 0.0 + 0.0j
        value = model.overrides[dg.shell]
        if model.override_mode == "element":
            return complex(value)
        return value * s / len(lattice.basis_offsets)
    if dg.coeffs == (0, 0, 0):
        return 0.0 + 0.0j
    return ion_ft(model, dg.g2) * s / recip.omega
