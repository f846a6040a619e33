"""Physics identities every band structure must obey, whatever the code path:
Cauchy interlacing across nested cutoffs, time reversal, and cubic
point-group invariance, on the presets and on drawn crystals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwbands.bands import convergence_study, sweep
from pwbands.cli import load_config
from pwbands.hamiltonian import PlaneWaveBasis, potential_matrix
from pwbands.lattice import RealLattice, make_cubic, make_kpath, reciprocal_of
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
    return sweep(path, model, lat, rec, g2_max, num_bands).energies


@pytest.mark.parametrize("name", ["z05", "si_empirical"])
@pytest.mark.parametrize("kappa", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                                   (0.31, -0.17, 0.42)], ids=["G", "X", "k"])
def test_cauchy_interlacing(name, kappa):
    # A smaller cutoff's Hamiltonian is a principal submatrix of a larger
    # one's, so no band may rise as the cutoff grows.
    model, lat, rec = preset(name)
    cutoffs = [c * SHELL for c in (12, 20, 44, 76, 108)]
    rows = convergence_study(UNIT * np.array(kappa), model, lat, rec,
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
    rows = convergence_study(kappa, model, lat, rec,
                             [small * shell, (small + extra) * shell], 6)
    energies = np.array([row.values for row in rows])
    tol = TOL * max(1.0, np.abs(energies).max())
    assert np.all(energies[1] - energies[0] <= tol)
    images = bands_at([kappa, -kappa, op @ kappa], model, lat, rec,
                      small * shell, 6)
    assert np.all(np.diff(energies, axis=1) >= 0)
    assert np.all(np.diff(images, axis=1) >= 0)
    np.testing.assert_allclose(images, np.broadcast_to(
        energies[0], images.shape), rtol=0, atol=tol)
