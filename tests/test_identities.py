"""Physics identities every band structure must obey, whatever the code path:
Cauchy interlacing across nested cutoffs, time reversal, cubic point-group
invariance and the level pairing of the diamond space group at X, on the
presets and on drawn crystals; and the split of each k-point's solve into
one row of each irrep of its little group, which must give the energies
of the whole solve."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwbands.bands as bands_mod
from pwbands.bands import convergence_study, sweep
from pwbands.cli import load_config
from pwbands.eigen import BlochMatrix
from pwbands.hamiltonian import (PlaneWaveBasis, little_group, operations,
                                 potential_matrix, row_blocks)
from pwbands.lattice import (RealLattice, fcc_symmetry_points, make_cubic,
                             make_kpath, reciprocal_of)
from pwbands.potential import Potential
from pwbands.presets import preset_path

A_SI = 5.431
SHELL = (math.pi / A_SI) ** 2
UNIT = 2.0 * math.pi / A_SI
TOL = 1e-9

# The 48 operations of O_h on cartesian k: signed permutations of the axes.
CUBIC_OPS = [np.diag(signs)[list(perm)]
             for perm in itertools.permutations(range(3))
             for signs in itertools.product((1, -1), repeat=3)]


TOUR = ("L", "Γ", "X", "U", "Γ")

# Row dims at the 13 points of the 4-sample tour at 76 (pi/a)^2 (dim 89):
# C3v on L-Gamma, O_h at Gamma, C4v on Gamma-X and at X, and a mirror on
# X-U and U-Gamma.  z05's diamond potential needs the glides and screws for
# its full groups; si_empirical's is symmorphic, so O_h and C4v split it
# otherwise.
LINE, MIRROR = (28, 5, 28), (56, 33)
GAMMA = {"z05": (7, 5, 4, 3, 2, 8, 8, 3),
         "si_empirical": (8, 4, 5, 2, 2, 9, 7, 3)}
DELTA = {"z05": (19, 5, 7, 16, 21), "si_empirical": (22, 4, 8, 13, 21)}
TOUR_DIMS = {name: [LINE] * 3 + [GAMMA[name]] + [DELTA[name]] * 3
             + [MIRROR] * 5 + [GAMMA[name]] for name in GAMMA}


def preset(name):
    cfg = load_config(preset_path(name))
    return cfg.model, cfg.lattice, cfg.recip


def non_centered():
    """FCC with offsets {0, (a/4)(1,1,1)}: complex V, solved as Hermitian."""
    fcc = make_cubic("FCC", A_SI)
    lat = RealLattice(fcc.a1, fcc.a2, fcc.a3,
                      (np.zeros(3), (A_SI / 4.0) * np.ones(3)),
                      lattice_constant=A_SI)
    return preset("z05")[0], lat, reciprocal_of(lat)


def bands_at(kappas, model, lat, rec, g2_max=44 * SHELL, num_bands=8):
    """Lowest bands at each kappa: a two-sample path hits only vertices."""
    path = make_kpath([(str(i), k) for i, k in enumerate(kappas)], 2)
    basis = PlaneWaveBasis.from_cutoff(rec, g2_max)
    return sweep(path, model, lat, rec, basis, num_bands).energies


@pytest.mark.parametrize("name", ["z05", "si_empirical"])
@pytest.mark.parametrize("kappa", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                   (0.31, -0.17, 0.42)], ids=["G", "X", "k"])
def test_cauchy_interlacing(name, kappa):
    # A smaller cutoff's Hamiltonian is a principal submatrix of a larger
    # one's, so no band may rise as the cutoff grows.
    model, lat, rec = preset(name)
    cutoffs = [c * SHELL for c in (12, 20, 44, 76, 108)]
    rows = convergence_study(UNIT * np.array(kappa), model, lat, rec,
                             PlaneWaveBasis.from_cutoff(rec, cutoffs[-1]),
                             cutoffs, 8)
    assert [row.dim for row in rows] == sorted({row.dim for row in rows})
    energies = np.array([row.values for row in rows])
    assert np.all(np.diff(energies, axis=0) <= TOL)


@pytest.mark.parametrize("crystal", ["z05", "si_empirical", "non_centered"])
def test_time_reversal(crystal):
    # A real potential has V(-G) = V(G)*, so H(-k) is H(k)* up to relabeling
    # G -> -G; this holds for the complex non-centred crystal as well.
    model, lat, rec = non_centered() if crystal == "non_centered" \
        else preset(crystal)
    if crystal == "non_centered":
        basis = PlaneWaveBasis.from_cutoff(rec, 44 * SHELL)
        assert np.iscomplexobj(potential_matrix(model, lat, rec, basis))
    kappas = UNIT * np.random.RandomState(17).uniform(-1.0, 1.0, (6, 3))
    forward = bands_at(kappas, model, lat, rec)
    backward = bands_at(-kappas, model, lat, rec)
    np.testing.assert_allclose(backward, forward, rtol=0, atol=TOL)


@pytest.mark.parametrize("name", ["z05", "si_empirical"])
def test_cubic_point_group_invariance(name):
    # The cutoff sphere and the diamond lattice are O_h-invariant; the
    # non-symmorphic operations only rephase eigenvectors.
    model, lat, rec = preset(name)
    kappa = UNIT * np.array([0.31, 0.17, 0.42])
    energies = bands_at([op @ kappa for op in CUBIC_OPS], model, lat, rec)
    assert len({tuple(op.ravel()) for op in CUBIC_OPS}) == 48
    np.testing.assert_allclose(energies, np.broadcast_to(
        energies[0], energies.shape), rtol=0, atol=TOL)


def levels_at_x(name, cutoff, num_bands=8):
    """Lowest levels at X for a preset at a cutoff in (pi/a)^2."""
    model, lat, rec = preset(name)
    x = fcc_symmetry_points(A_SI)["X"]
    basis = PlaneWaveBasis.from_cutoff(rec, cutoff * SHELL)
    return convergence_study(x, model, lat, rec, basis, [cutoff * SHELL],
                             num_bands)[0].values


def test_levels_pair_at_x():
    # The diamond space group is nonsymmorphic, so every level at X is at
    # least doubly degenerate.  The Gamma-centred cutoff sphere splits the
    # pairs only by truncation: the lowest pair by 1.3e-3 eV at 200 (pi/a)^2
    # and 3.5e-5 eV at 400 (higher pairs converge more slowly).  A
    # structure-factor phase or sign error breaks the pairing, which cubic
    # invariance alone does not see.
    levels = levels_at_x("z05", 400, 2)
    assert levels[1] - levels[0] <= 1e-4


def test_element_mode_does_not_pair_at_x():
    # si_empirical applies one value per shell whatever the sign of
    # cos(G.tau): its potential is symmorphic about the bond centre, so its
    # X levels need not pair (-9.82 and -6.60 eV at 200 (pi/a)^2).
    levels = levels_at_x("si_empirical", 200, 2)
    assert levels[1] - levels[0] > 3.0


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["SC", "BCC", "FCC", "DIAMOND"]),
       a=st.floats(3.0, 8.0),
       model=st.builds(Potential, z_eff=st.floats(0.0, 2.0),
                       mu=st.one_of(st.just(0.0), st.floats(0.05, 2.0))),
       small=st.integers(12, 32), extra=st.integers(1, 28),
       frac=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       op=st.sampled_from(CUBIC_OPS))
def test_identities_on_drawn_crystals(kind, a, model, small, extra, frac, op):
    # Interlacing across the nested cutoffs (in (pi/a)^2) at k, ascending
    # rows, and E(k) = E(-k) = E(Rk) at the smaller cutoff for one drawn
    # cubic operation R, for any cubic crystal and ion.
    lat = make_cubic(kind, a)
    rec = reciprocal_of(lat)
    shell = (math.pi / a) ** 2
    kappa = (2.0 * math.pi / a) * np.array(frac)
    cutoffs = [small * shell, (small + extra) * shell]
    rows = convergence_study(kappa, model, lat, rec,
                             PlaneWaveBasis.from_cutoff(rec, cutoffs[-1]),
                             cutoffs, 6)
    energies = np.array([row.values for row in rows])
    tol = TOL * max(1.0, np.abs(energies).max())
    assert np.all(energies[1] - energies[0] <= tol)
    images = bands_at([kappa, -kappa, op @ kappa], model, lat, rec,
                      small * shell, 6)
    assert np.all(np.diff(energies, axis=1) >= 0)
    assert np.all(np.diff(images, axis=1) >= 0)
    np.testing.assert_allclose(images, np.broadcast_to(
        energies[0], images.shape), rtol=0, atol=tol)


def solve_tour(monkeypatch, bands_eigh, crystal, op, whole=False):
    """Energies and per-point sector dims on the 4-sample tour turned by op;
    ``whole`` forces one sector at every point."""
    pts = fcc_symmetry_points(A_SI)
    path = make_kpath([(s, op @ pts[s]) for s in TOUR], 4)
    bands_eigh.results.clear()
    with monkeypatch.context() as patch:
        if whole:
            patch.setattr(bands_mod, "row_blocks", lambda *_: ())
        basis = PlaneWaveBasis.from_cutoff(crystal[2], 76 * SHELL)
        energies = sweep(path, *crystal, basis, 8).energies
    return energies, [r.sectors for r in bands_eigh.results
                      for _ in r.values]  # per k-point


@pytest.mark.parametrize("name", ["z05", "si_empirical"])
def test_split_matches_whole_under_every_cubic_operation(monkeypatch,
                                                        bands_eigh, name):
    # z05's diamond potential needs the glide and screw operations to split
    # every point; si_empirical's is symmorphic.  Either way the split is
    # the same at every turn of the tour, and so are the energies.
    crystal = preset(name)
    for op in CUBIC_OPS:
        split, dims = solve_tour(monkeypatch, bands_eigh, crystal, op)
        whole, whole_dims = solve_tour(monkeypatch, bands_eigh, crystal, op,
                                       whole=True)
        assert dims == TOUR_DIMS[name]
        assert whole_dims == [(89,)] * len(TOUR_DIMS[name])
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", ["z05", "si_empirical"])
def test_111_plane_waves_at_gamma(name):
    # G = 0 and the eight {111} waves, the first nine rows: under O_h, with
    # diamond's glides or without them, the eight are Gamma1 + Gamma2' +
    # Gamma15 + Gamma25' (A1g + A2u + T1u + T2g), and G = 0 one more A1g.
    model, lat, rec = preset(name)
    basis = PlaneWaveBasis.from_cutoff(rec, 12 * SHELL)
    v = BlochMatrix.of(potential_matrix(model, lat, rec, basis))
    crystal = operations(lat, rec, basis)
    group = little_group(crystal, v, crystal.fixes(np.zeros((1, 3)))[0])
    assert basis.dim == 9 and len(group.ops) == 48
    assert {s.label: (len(s.coef), len(s.rows))
            for s in row_blocks(v.matrix, group)} == {
        "A1g": (1, 2), "A2u": (1, 1), "T1u": (3, 1), "T2g": (3, 1)}


def test_broken_symmetry_falls_back_to_one_sector(monkeypatch, bands_eigh,
                                                   break_v):
    # Symmetric noise at 1e-6 max|V| breaks every operation: no split, and
    # the solves are the forced whole ones.
    crystal = preset("z05")
    intact, dims = solve_tour(monkeypatch, bands_eigh, crystal, np.eye(3))
    assert dims == TOUR_DIMS["z05"]
    break_v("noise")
    split, dims = solve_tour(monkeypatch, bands_eigh, crystal, np.eye(3))
    whole, _ = solve_tour(monkeypatch, bands_eigh, crystal, np.eye(3),
                          whole=True)
    assert dims == [(89,)] * len(TOUR_DIMS["z05"])
    np.testing.assert_array_equal(split, whole)
    assert 0 < np.abs(split - intact).max() < 1e-4
