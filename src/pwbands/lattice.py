"""Bravais lattices, reciprocal lattices, G-vector enumeration, and k-paths.

Real-space lattices are defined by three primitive vectors (in Angstrom)
plus the offsets of the atoms repeated at every lattice point.  The
reciprocal lattice carries the dual vectors (in 1/Angstrom) and the unit
cell volume, and is the geometry source for plane-wave basis enumeration
and Brillouin-zone tours.  A reciprocal lattice vector is an integer
coefficient row (n, m, l); sets of them are (k, 3) int arrays, mapped to
cartesian 1/A by ``cartesian`` and to n^2 shell labels by ``shell_index``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative slack on |G|^2 <= g2_max so shells sitting exactly at the cutoff
# are kept regardless of rounding.
CUTOFF_SLACK = 1e-9

# |g_i . a_j - 2 pi delta_ij| must stay below this times 2 pi.
DUALITY_TOL = 1e-12


class LatticeError(ValueError):
    """Invalid lattice geometry (degenerate vectors, bad parameters)."""


class LatticeConstantError(LatticeError):
    """Lattice constant not positive, or its cell volume not a normal float."""


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise LatticeError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise LatticeError(f"vector has non-finite components: {arr}")
    return arr


@dataclass(frozen=True, eq=False)
class RealLattice:
    """Bravais lattice: primitive vectors a1,a2,a3 plus atomic basis offsets.

    Offsets are reduced modulo the lattice into the centered cell
    (fractional coordinates in [-1/2, 1/2)), which keeps the two-atom
    diamond basis in its symmetric +/-(a/8)(1,1,1) form.

    ``lattice_constant`` is the conventional cube edge for the cubic
    catalog; hand-built non-cubic lattices may leave it None.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    basis_offsets: tuple = (np.zeros(3),)
    lattice_constant: float | None = None

    def __post_init__(self):
        a1, a2, a3 = _vec3(self.a1), _vec3(self.a2), _vec3(self.a3)
        mat = np.array([a1, a2, a3])
        det = np.linalg.det(mat)
        scale = np.abs(mat).max()
        if scale == 0.0 or abs(det) < 1e-12 * scale**3:
            raise LatticeError("primitive vectors are linearly dependent")
        offsets = []
        for tau in self.basis_offsets:
            frac = np.linalg.solve(mat.T, _vec3(tau))
            frac = frac - np.round(frac)
            offsets.append(mat.T @ frac)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "basis_offsets", tuple(offsets))

    @property
    def matrix(self) -> np.ndarray:
        """Rows are the primitive vectors."""
        return np.array([self.a1, self.a2, self.a3])

    @property
    def volume(self) -> float:
        return abs(np.linalg.det(self.matrix))


@dataclass(frozen=True, eq=False)
class ReciprocalLattice:
    """Dual lattice vectors g1,g2,g3 (1/Angstrom) and cell volume omega (A^3)."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    omega: float
    lattice_constant: float | None = None

    @property
    def matrix(self) -> np.ndarray:
        """Rows are the reciprocal primitive vectors."""
        return np.array([self.g1, self.g2, self.g3])

    def dual_vectors(self) -> np.ndarray:
        """Recover the real-space primitive vectors (rows) from g1,g2,g3."""
        return TWO_PI * np.linalg.inv(self.matrix.T)


_CUBIC_VECTORS = {
    "SC": [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
    "BCC": [(-0.5, 0.5, 0.5), (0.5, -0.5, 0.5), (0.5, 0.5, -0.5)],
    "FCC": [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)],
}


def make_cubic(kind: str, a: float) -> RealLattice:
    """Construct a cubic-catalog lattice: SC, BCC, FCC, or DIAMOND.

    DIAMOND is FCC with the centered two-atom basis +/-(a/8)(1,1,1).
    """
    if a <= 0:
        raise LatticeConstantError(
            f"lattice constant must be positive, got {a}")
    # Cell volumes, a^3 (SC) down to a^3/4 (FCC), must be normal floats;
    # then a^2 and (2 pi/a)^2, which k-paths and G enumeration take, are
    # finite too.
    cube = a * a * a
    if not (math.isfinite(cube) and cube / 4 >= sys.float_info.min):
        raise LatticeConstantError(
            f"{a:g} gives a cell volume out of float range")
    tag = kind.upper()
    if tag == "DIAMOND":
        vecs = _CUBIC_VECTORS["FCC"]
        tau = np.array([a / 8.0, a / 8.0, a / 8.0])
        offsets = (tau, -tau)
    elif tag in _CUBIC_VECTORS:
        vecs = _CUBIC_VECTORS[tag]
        offsets = (np.zeros(3),)
    else:
        raise LatticeError(f"unknown cubic lattice kind: {kind!r}")
    a1, a2, a3 = (a * np.array(v) for v in vecs)
    return RealLattice(a1, a2, a3, offsets, lattice_constant=a)


def cubic_operations(real: RealLattice) -> tuple:
    """The 48 operations R of the cubic group O_h, identity first, each
    with the translations t that may pair with it in the crystal's space
    group: 0 first, then o_j - R o_0 for every atom offset o_j.

    Returns (ops, shifts): ops is (48, 3, 3), each R a signed permutation of
    the cartesian axes (entries 0 and +/-1) in a fixed order, and shifts is
    (48, 1 + atoms, 3).  Which pairs {R|t} are symmetries of a given
    crystal is left to the caller, who has its potential.
    """
    perms = np.eye(3)[list(itertools.permutations(range(3)))]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    ops = (signs[None, :, :, None] * perms[:, None]).reshape(48, 3, 3)
    offsets = np.array(real.basis_offsets)
    shifts = offsets[None] - (ops @ offsets[0])[:, None]
    return ops, np.concatenate([np.zeros((48, 1, 3)), shifts], axis=1)


def reciprocal_of(real: RealLattice) -> ReciprocalLattice:
    """Dual lattice: g vectors are 2 pi times the columns of [a1;a2;a3]^-1."""
    mat = real.matrix
    det = np.linalg.det(mat)
    if abs(det) < 1e-12 * max(np.abs(mat).max(), 1e-300) ** 3:
        raise LatticeError("cannot invert a degenerate lattice")
    inv = np.linalg.inv(mat)
    g1, g2, g3 = TWO_PI * inv[:, 0], TWO_PI * inv[:, 1], TWO_PI * inv[:, 2]
    recip = ReciprocalLattice(g1, g2, g3, omega=abs(det),
                              lattice_constant=real.lattice_constant)
    err = np.abs(recip.matrix @ mat.T - TWO_PI * np.eye(3)).max()
    if err >= DUALITY_TOL * TWO_PI:
        raise LatticeError(f"duality violated by {err:.3e}")
    return recip


def cartesian(recip: ReciprocalLattice, coeffs) -> np.ndarray:
    """Cartesian vectors n*g1 + m*g2 + l*g3 for rows (..., 3) of coefficients."""
    c = np.asarray(coeffs)
    return (c[..., 0, None] * recip.g1 + c[..., 1, None] * recip.g2
            + c[..., 2, None] * recip.g3)


def shell_index(g2, lattice_constant: float | None) -> np.ndarray:
    """Integer n^2 with |G|^2 = n^2 (pi/a)^2, or -1 where none is near.

    Every entry is -1 when no cubic lattice constant is available.
    """
    g2 = np.asarray(g2, dtype=float)
    if lattice_constant is None:
        return np.full(g2.shape, -1)
    x = g2 * (lattice_constant / math.pi) ** 2
    s = np.rint(x)
    return np.where(np.abs(x - s) > 1e-6 * np.maximum(1.0, x), -1,
                    s.astype(int))


def enumerate_g(recip: ReciprocalLattice, g2_max: float) -> np.ndarray:
    """Integer coefficients (n, 3) of every G with |G|^2 <= g2_max.

    Rows are sorted ascending by |G|^2 with lexicographic (n, m, l)
    tie-break inside each shell; shells at the cutoff are included.  So the
    rows at a smaller cutoff are the leading rows at a larger one, as
    ``PlaneWaveBasis.truncate`` relies on.  The integer search box is derived
    from the real-space vector norms (|n_i| <= |G||a_i|/2pi), so it provably
    covers the cutoff ball.
    """
    if g2_max < 0:
        raise LatticeError(f"g2_max must be nonnegative, got {g2_max}")
    cut = g2_max * (1.0 + CUTOFF_SLACK)
    radius = math.sqrt(cut) if cut > 0 else 0.0
    duals = recip.dual_vectors()
    b = [int(math.floor(radius * np.linalg.norm(duals[i]) / TWO_PI + 1e-9))
         for i in range(3)]
    box = np.mgrid[-b[0]:b[0] + 1, -b[1]:b[1] + 1, -b[2]:b[2] + 1]
    coeffs = box.reshape(3, -1).T
    cart = cartesian(recip, coeffs)
    g2 = np.einsum("ij,ij->i", cart, cart)
    keep = g2 <= cut
    coeffs, g2 = coeffs[keep], g2[keep]
    order = np.argsort(g2, kind="stable")
    coeffs, g2 = coeffs[order], g2[order]
    # Collapse float noise so equal shells really tie before the
    # lexicographic pass.
    group = np.concatenate(
        ([0], np.cumsum(np.diff(g2) > 1e-9 * np.maximum(1.0, g2[1:]))))
    return coeffs[np.lexsort((coeffs[:, 2], coeffs[:, 1], coeffs[:, 0],
                              group))]


def fcc_symmetry_points(a: float) -> dict:
    """High-symmetry points of the FCC Brillouin zone, in cartesian 1/A."""
    if a <= 0:
        raise LatticeError(f"lattice constant must be positive, got {a}")
    unit = TWO_PI / a
    table = {
        "Γ": (0.0, 0.0, 0.0),
        "X": (1.0, 0.0, 0.0),
        "L": (0.5, 0.5, 0.5),
        "W": (1.0, 0.5, 0.0),
        "K": (0.75, 0.75, 0.0),
        "U": (1.0, 0.25, 0.25),
    }
    return {label: unit * np.array(v) for label, v in table.items()}


@dataclass(frozen=True, eq=False)
class KPoint:
    """One sample on a k-path; ``label`` is set only at tour vertices."""

    kappa: np.ndarray
    arc_distance: float
    label: str | None = None


@dataclass(frozen=True, eq=False)
class KPath:
    """Piecewise-linear tour through reciprocal space.

    ``points`` holds every sample exactly once (shared segment endpoints are
    not duplicated) with cumulative Euclidean arc distance.
    """

    vertices: tuple
    samples_per_segment: int
    points: tuple

    @property
    def arc_distances(self) -> np.ndarray:
        return np.array([p.arc_distance for p in self.points])

    @property
    def kappas(self) -> np.ndarray:
        return np.array([p.kappa for p in self.points])


def make_kpath(points: Sequence, samples_per_segment: int) -> KPath:
    """Interpolate a labeled vertex list into a sampled KPath.

    ``points`` is a sequence of (label, coordinate) pairs in cartesian 1/A.
    Each segment is sampled with ``samples_per_segment`` points including
    both endpoints; interior vertices appear once, carrying their label.
    """
    verts = [(str(label), _vec3(coord)) for label, coord in points]
    if len(verts) < 2:
        raise LatticeError("a k-path needs at least two points")
    if samples_per_segment < 2:
        raise LatticeError("samples_per_segment must be at least 2")
    samples = []
    arc = 0.0
    samples.append(KPoint(verts[0][1], 0.0, verts[0][0]))
    for (_, start), (label_b, end) in zip(verts, verts[1:]):
        with np.errstate(over="ignore"):  # past 1e154 the arc is inf
            seg_len = float(np.linalg.norm(end - start))
        for j in range(1, samples_per_segment):
            t = j / (samples_per_segment - 1)
            kappa = (1.0 - t) * start + t * end
            label = label_b if j == samples_per_segment - 1 else None
            samples.append(KPoint(kappa, arc + t * seg_len, label))
        arc += seg_len
    return KPath(tuple(verts), samples_per_segment, tuple(samples))
