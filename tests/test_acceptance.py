"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them on success)."""

import json
import math
import time

import numpy as np
import pytest

from pwbands.bands import (convergence_study, detect_gaps,
                           free_electron_reference, sweep)
from pwbands.cli import cmd_bands, cmd_converge, cmd_gaps
from pwbands.eigen import eigh
from pwbands.hamiltonian import PlaneWaveBasis, build, potential_matrix
from pwbands.lattice import (cartesian, enumerate_g, fcc_symmetry_points,
                             make_cubic, make_kpath, reciprocal_of,
                             shell_index)
from pwbands.potential import Potential, structure_factor
from pwbands.presets import preset_path

A_SI = 5.431
TWO_PI = 2.0 * math.pi
SHELL = (math.pi / A_SI) ** 2
FIG4A_TABLE = {0: -9.50, 12: 2.42, 32: 0.80, 44: -0.82, 64: 0.88, 76: 0.00}

# Pinned regression values, computed by this implementation on its first
# verified run (no literature numbers exist for them).
PINNED_BASIS_SIZE_76 = 89
PINNED_GAP_4_5 = 0.1315434403717546
PINNED_CONVERGED_108 = np.array([
    -0.5410432227290275, 11.464644742332137, 13.739696783278987,
    15.396354959383062, 15.396354959383098, 15.396354959383107,
    15.623292015428191, 15.623292015428195,
])


class criterion:
    """Prints the criterion's pass/fail line whatever the test outcome."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status}")
        return False


def basis(rec, units):
    """Every G up to a cutoff of ``units`` (pi/a)^2."""
    return PlaneWaveBasis.from_cutoff(rec, units * SHELL)


def default_tour(samples=50):
    pts = fcc_symmetry_points(A_SI)
    return make_kpath([(s, pts[s]) for s in ("L", "Γ", "X", "U", "Γ")],
                      samples)


@pytest.fixture(scope="module")
def diamond():
    lat = make_cubic("DIAMOND", A_SI)
    return lat, reciprocal_of(lat)


def test_criterion_1_reciprocal_duality():
    with criterion(1, "reciprocal duality suite"):
        start = time.perf_counter()
        for kind in ("SC", "BCC", "FCC", "DIAMOND"):
            lat = make_cubic(kind, A_SI)
            rec = reciprocal_of(lat)
            err = np.abs(rec.matrix @ lat.matrix.T
                         - TWO_PI * np.eye(3)).max()
            assert err < 1e-12 * TWO_PI
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        unit = TWO_PI / A_SI
        np.testing.assert_allclose(rec.g1, unit * np.array([-1, 1, 1]),
                                   atol=1e-12)
        np.testing.assert_allclose(rec.g2, unit * np.array([1, -1, 1]),
                                   atol=1e-12)
        np.testing.assert_allclose(rec.g3, unit * np.array([1, 1, -1]),
                                   atol=1e-12)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_free_electron_oracle(diamond):
    with criterion(2, "free-electron oracle"):
        start = time.perf_counter()
        lat, rec = diamond
        tour = default_tour(50)
        bs = sweep(tour, Potential(0.0), lat, rec, basis(rec, 76), 8)
        ref = free_electron_reference(tour, lat, rec, 76 * SHELL, 8)
        assert np.abs(bs.energies - ref.energies).max() < 1e-9

        arcs = tour.arc_distances
        labels = list(tour.labels)
        i_gamma = labels.index("Γ")
        i_x = labels.index("X")
        assert bs.energies[i_gamma, 0] == pytest.approx(0.0, abs=1e-12)
        seg_arc = arcs[i_gamma:i_x + 1] - arcs[i_gamma]
        seg_e = bs.energies[i_gamma:i_x + 1, 0]
        coeffs = np.polyfit(seg_arc, seg_e, 2)
        fit = np.polyval(coeffs, seg_arc)
        residual = np.linalg.norm(fit - seg_e) / np.linalg.norm(seg_e)
        assert residual < 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_3_gamma_degeneracy_multiplicities(diamond):
    with criterion(3, "free-electron multiplicities at Gamma"):
        _, rec = diamond
        # independent oracle: direct norm computation over enumerated G
        levels = np.sort([3.80998212 * float(g @ g) for g in
                          cartesian(rec, enumerate_g(rec, 76 * SHELL))])
        multiplicities = [1]
        for lower, upper in zip(levels, levels[1:]):
            if upper - lower < 1e-9:
                multiplicities[-1] += 1
            else:
                multiplicities.append(1)
        assert multiplicities[0] == 1
        assert multiplicities[1] == 8


def test_criterion_4_structure_factor_zeros(diamond):
    with criterion(4, "diamond structure-factor zeros"):
        lat, rec = diamond
        g200 = (TWO_PI / A_SI) * np.array([2.0, 0.0, 0.0])
        assert abs(structure_factor(lat.basis_offsets, g200)) < 1e-12
        cart = cartesian(rec, enumerate_g(rec, 16 * SHELL))
        shells = shell_index([float(g @ g) for g in cart], A_SI)
        shell16 = cart[shells == 16]
        assert len(shell16)
        for g in shell16:
            assert abs(structure_factor(lat.basis_offsets, g)) < 1e-12
        # and the shell contributes no coupling in an assembled matrix
        basis = PlaneWaveBasis.from_cutoff(rec, 76 * SHELL)
        h = build(np.zeros(3), basis,
                  potential_matrix(Potential(1.0), lat, rec, basis)).entries
        hit = 0
        for i, gi in enumerate(basis.coeffs):
            for j, gj in enumerate(basis.coeffs):
                dg = cartesian(rec, gi - gj)
                if i != j and shell_index(float(dg @ dg), A_SI) == 16:
                    assert abs(h[i, j]) < 1e-12
                    hit += 1
        assert hit > 0


def test_criterion_5_hermiticity_and_solver_contract(diamond):
    with criterion(5, "Hermiticity and solver contract"):
        lat, rec = diamond
        basis = PlaneWaveBasis.from_cutoff(rec, 76 * SHELL)
        tour = default_tour(4)
        models = [Potential(0.5), Potential(2.0),
                  Potential(0.0, overrides=FIG4A_TABLE)]
        for model in models:
            v = potential_matrix(model, lat, rec, basis)
            for kappa in tour.kappas:
                h = build(kappa, basis, v).entries
                assert np.abs(h - h.conj().T).max() \
                    <= 1e-12 * np.abs(h).max()
                result = eigh(h)
                fro = np.linalg.norm(h)
                residual = np.linalg.norm(
                    h @ result.vectors - result.vectors * result.values,
                    axis=0)
                assert residual.max() <= 1e-8 * fro
                gram = result.vectors.conj().T @ result.vectors
                assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-8
                assert abs(result.values.sum() - np.trace(h).real) \
                    <= 1e-8 * fro


def test_criterion_6_coulomb_phenomenology(diamond):
    with criterion(6, "level splitting and gap formation vs z_eff"):
        start = time.perf_counter()
        lat, rec = diamond
        tour = default_tour(50)
        runs = {}
        for z in (0.0, 0.25, 0.5, 2.0):
            runs[z] = sweep(tour, Potential(z), lat, rec, basis(rec, 76), 8)
        # (a) free bands overlap everywhere
        assert detect_gaps(runs[0.0]) == []
        # (b) band-1/band-2 splitting at L is nondecreasing in z_eff
        splits = [runs[z].energies[0, 1] - runs[z].energies[0, 0]
                  for z in (0.0, 0.25, 0.5, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(splits, splits[1:]))
        # (c) strong coupling opens at least one path gap
        assert len(detect_gaps(runs[2.0])) >= 1
        # (d) the lowest band narrows between z=0.5 and z=2.0
        width = {z: np.ptp(runs[z].energies[:, 0]) for z in (0.5, 2.0)}
        assert width[2.0] < width[0.5]
        assert time.perf_counter() - start < 60.0


def test_criterion_7_empirical_preset_gap(diamond):
    with criterion(7, "empirical form-factor preset"):
        lat, rec = diamond
        tour = default_tour(50)
        model = Potential(0.0, overrides=FIG4A_TABLE,
                          override_mode="element")
        bs = sweep(tour, model, lat, rec, basis(rec, 76), 8)
        gaps = {g.below_band: g for g in detect_gaps(bs)}
        assert 4 in gaps and gaps[4].width > 0
        band4 = bs.energies[:, 3]
        labels = tour.labels
        assert labels[int(np.argmax(band4))] == "Γ"
        assert gaps[4].width == pytest.approx(PINNED_GAP_4_5, abs=1e-9)


def test_criterion_8_convergence(diamond):
    with criterion(8, "basis cutoff convergence"):
        lat, rec = diamond
        cutoffs = [44 * SHELL, 76 * SHELL, 108 * SHELL]
        rows = convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                                 basis(rec, 108), cutoffs, 8)
        d1 = np.abs(rows[1].values - rows[0].values)
        d2 = np.abs(rows[2].values - rows[1].values)
        assert np.all(d2 < d1)
        np.testing.assert_allclose(rows[2].values, PINNED_CONVERGED_108,
                                   atol=1e-8)
        assert rows[1].dim == PINNED_BASIS_SIZE_76


def test_criterion_9_deterministic_artifacts(tmp_path):
    with criterion(9, "byte-identical artifacts"):
        config = preset_path("si_empirical")
        runs = (tmp_path / "run1", tmp_path / "run2")
        for out in runs:
            assert cmd_bands(config, out=out) == 0
            assert cmd_gaps(config, out=out) == 0
            assert cmd_converge(config, out=out) == 0
        names = ("bands.csv", "bands.json", "bands.svg", "gaps.json",
                 "converge.csv", "converge.json")
        for name in names:
            assert (runs[0] / name).read_bytes() \
                == (runs[1] / name).read_bytes(), name
