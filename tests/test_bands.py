import dataclasses
import math

import numpy as np
import pytest

import pwbands.bands as bands_mod
from pwbands.bands import (BandStructure, GapEntry, SweepError,
                           convergence_study, detect_gaps,
                           free_electron_reference, sweep)
from pwbands.eigen import SolverError, eigh
from pwbands.hamiltonian import PlaneWaveBasis, build, potential_matrix
from pwbands.lattice import fcc_symmetry_points, make_cubic, make_kpath, \
    reciprocal_of
from pwbands.potential import HBAR2_OVER_2M, Potential

A_SI = 5.431
SHELL = (math.pi / A_SI) ** 2
FIG4A_TABLE = {0: -9.50, 12: 2.42, 32: 0.80, 44: -0.82, 64: 0.88, 76: 0.00}


@pytest.fixture(scope="module")
def diamond():
    lat = make_cubic("DIAMOND", A_SI)
    return lat, reciprocal_of(lat)


@pytest.fixture(scope="module")
def quick_tour():
    pts = fcc_symmetry_points(A_SI)
    return make_kpath([(s, pts[s]) for s in ("L", "Γ", "X", "U", "Γ")], 15)


class TestSweep:
    def test_free_sweep_matches_reference(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(0.0), lat, rec, 76 * SHELL, 8)
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert np.abs(bs.energies - ref.energies).max() < 1e-9

    def test_rows_ascending(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(0.5), lat, rec, 44 * SHELL, 8)
        assert np.all(np.diff(bs.energies, axis=1) >= 0)

    def test_folded_parabola_along_l_gamma(self, diamond):
        # z=0 bands are the sorted free values, branches folding at L.
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("L", pts["L"]), ("Γ", pts["Γ"])], 12)
        bs = sweep(path, Potential(0.0), lat, rec, 44 * SHELL, 6)
        for i, point in enumerate(path.points):
            cart = bands_mod.PlaneWaveBasis.from_cutoff(rec, 44 * SHELL).cart
            levels = np.sort(
                HBAR2_OVER_2M * np.sum((point.kappa + cart) ** 2, axis=1))
            np.testing.assert_allclose(bs.energies[i], levels[:6], atol=1e-9)

    def test_rejects_num_bands_beyond_basis(self, diamond, quick_tour):
        lat, rec = diamond
        with pytest.raises(ValueError):
            sweep(quick_tour, Potential(0.0), lat, rec, 0.0, 2)

    def test_solver_failure_carries_kpoint(self, diamond, quick_tour,
                                           monkeypatch):
        lat, rec = diamond

        def fail(*_):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(bands_mod, "eigh", fail)
        with pytest.raises(SweepError) as excinfo:
            sweep(quick_tour, Potential(0.0), lat, rec, 12 * SHELL, 4)
        assert excinfo.value.index == 0
        np.testing.assert_allclose(excinfo.value.kappa,
                                   quick_tour.points[0].kappa)


class TestRealPath:
    @pytest.mark.parametrize("model", [
        Potential(0.5), Potential(0.0, overrides=FIG4A_TABLE)],
        ids=["z05", "si_empirical"])
    def test_complex_potential_gives_same_bands(self, diamond, quick_tour,
                                                model, monkeypatch):
        lat, rec = diamond
        real = sweep(quick_tour, model, lat, rec, 76 * SHELL, 8)
        assembled = []

        def complex_potential(*args):
            v = potential_matrix(*args)
            assembled.append(v.dtype)
            return v.astype(complex)

        monkeypatch.setattr(bands_mod, "potential_matrix", complex_potential)
        forced = sweep(quick_tour, model, lat, rec, 76 * SHELL, 8)
        assert assembled == [np.float64]
        np.testing.assert_allclose(forced.energies, real.energies,
                                   rtol=0, atol=1e-10)


def corrupt(v, kind):
    """A copy of the block broken one way: off-Hermitian, NaN or infinite."""
    v = v.copy()
    if kind == "asymmetric":
        v[0, 1] += 1e-6 * np.abs(v).max()
    elif kind == "nan":
        v[0, 0] = np.nan
    else:
        v[1, 2] = v[2, 1] = np.inf
    return v


class TestBlockPath:
    """The sweep checks its potential block once; each k-point's solve must
    still be the dense matrix's solve, and a bad block must still fail at
    the first k-point."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["real", "forced-complex"])
    def test_sweep_equals_dense_solves_bit_for_bit(self, diamond, quick_tour,
                                                   monkeypatch, dtype):
        lat, rec = diamond
        model = Potential(0.5)
        basis = PlaneWaveBasis.from_cutoff(rec, 76 * SHELL)
        v = potential_matrix(model, lat, rec, basis).astype(dtype)
        monkeypatch.setattr(bands_mod, "potential_matrix", lambda *_: v)
        solve, results = bands_mod.eigh, []

        def recording(h, count):
            results.append(solve(h, count))
            return results[-1]

        monkeypatch.setattr(bands_mod, "eigh", recording)
        bs = sweep(quick_tour, model, lat, rec, 76 * SHELL, 8)
        assert len(results) == len(quick_tour.points)
        for point, energies, result in zip(quick_tour.points, bs.energies,
                                           results):
            dense = build(point.kappa, basis, v).entries
            assert dense.dtype == dtype
            expected = eigh(dense, 8)
            np.testing.assert_array_equal(energies, expected.values)
            assert result.scale == expected.scale == np.abs(dense).max()

    @pytest.mark.parametrize("kind, message", [
        ("asymmetric", "not Hermitian"), ("nan", "non-finite"),
        ("inf", "non-finite")])
    def test_bad_block_fails_at_the_first_kpoint(self, diamond, quick_tour,
                                                 monkeypatch, kind, message):
        lat, rec = diamond

        def broken(*args):
            return corrupt(potential_matrix(*args), kind)

        monkeypatch.setattr(bands_mod, "potential_matrix", broken)
        with pytest.raises(SweepError, match=f"at k-point 0 .*{message}") \
                as excinfo:
            sweep(quick_tour, Potential(0.5), lat, rec, 44 * SHELL, 4)
        assert excinfo.value.index == 0
        np.testing.assert_array_equal(excinfo.value.kappa,
                                      quick_tour.points[0].kappa)


class TestFreeElectronReference:
    def test_gamma_degeneracies(self, diamond):
        # Lowest level is G=0 alone; the next eight all sit on the first
        # nonzero shell.
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 2)
        ref = free_electron_reference(path, lat, rec, 76 * SHELL, 9)
        at_gamma = ref.energies[0]
        assert at_gamma[0] == pytest.approx(0.0, abs=1e-12)
        assert at_gamma[1] > 1.0
        assert np.ptp(at_gamma[1:9]) < 1e-9

    def test_matches_sweep_at_x(self, diamond):
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 3)
        ref = free_electron_reference(path, lat, rec, 44 * SHELL, 8)
        bs = sweep(path, Potential(0.0), lat, rec, 44 * SHELL, 8)
        np.testing.assert_allclose(ref.energies[-1], bs.energies[-1],
                                   atol=1e-9)

    def test_lowest_band_monotone_gamma_to_x(self, diamond):
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 20)
        ref = free_electron_reference(path, lat, rec, 44 * SHELL, 4)
        assert np.all(np.diff(ref.energies[:, 0]) > 0)

    def test_perturbative_limit_tracks_free_bands(self, diamond, quick_tour):
        # A tiny charge shifts every band by far less than 1e-2 eV.
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(1e-4), lat, rec, 76 * SHELL, 8)
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert np.abs(bs.energies - ref.energies).max() < 1e-2


class TestDetectGaps:
    def test_free_bands_overlap(self, diamond, quick_tour):
        lat, rec = diamond
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert detect_gaps(ref) == []

    def test_strong_coupling_opens_gap(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(2.0), lat, rec, 76 * SHELL, 8)
        gaps = detect_gaps(bs)
        assert len(gaps) >= 1
        for gap in gaps:
            assert gap.width > 0
            assert gap.width == pytest.approx(gap.gap_top - gap.gap_bottom)

    def test_single_point_path_gives_level_differences(self, diamond):
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("L", pts["L"]), ("L", pts["L"])], 2)
        bs = sweep(path, Potential(0.5), lat, rec, 44 * SHELL, 4)
        gaps = detect_gaps(bs)
        levels = bs.energies[0]
        expected = [(n + 1, levels[n + 1] - levels[n])
                    for n in range(3) if levels[n + 1] > levels[n]]
        assert [(g.below_band, pytest.approx(g.width)) for g in gaps] \
            == expected

    def test_splitting_at_l_grows_with_charge(self, diamond, quick_tour):
        lat, rec = diamond
        splits = []
        for z in (0.0, 0.25, 0.5, 2.0):
            bs = sweep(quick_tour, Potential(z), lat, rec, 76 * SHELL, 2)
            splits.append(bs.energies[0, 1] - bs.energies[0, 0])
        assert all(b >= a - 1e-12 for a, b in zip(splits, splits[1:]))

    def test_lowest_band_narrows_at_high_charge(self, diamond, quick_tour):
        lat, rec = diamond
        widths = {}
        for z in (0.5, 2.0):
            bs = sweep(quick_tour, Potential(z), lat, rec, 76 * SHELL, 1)
            widths[z] = np.ptp(bs.energies[:, 0])
        assert widths[2.0] < widths[0.5]

    def test_empirical_gap_between_bands_4_and_5(self, diamond, quick_tour):
        lat, rec = diamond
        model = Potential(0.0, overrides=FIG4A_TABLE,
                          override_mode="element")
        bs = sweep(quick_tour, model, lat, rec, 76 * SHELL, 8)
        gaps = {g.below_band: g for g in detect_gaps(bs)}
        assert 4 in gaps
        assert gaps[4].width > 0


class TestConvergence:
    def test_free_spectrum_exact_at_every_cutoff(self, diamond):
        lat, rec = diamond
        cutoffs = [12 * SHELL, 44 * SHELL, 76 * SHELL]
        rows = convergence_study(np.zeros(3), Potential(0.0), lat, rec,
                                 cutoffs, 4)
        assert len(rows) == 3
        for a, b in zip(rows, rows[1:]):
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_shrinking_deltas_for_coulomb(self, diamond):
        lat, rec = diamond
        cutoffs = [44 * SHELL, 76 * SHELL, 108 * SHELL]
        rows = convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                                 cutoffs, 8)
        d1 = np.abs(rows[1].values - rows[0].values)
        d2 = np.abs(rows[2].values - rows[1].values)
        assert np.all(d2 < d1)

    def test_single_cutoff_single_row(self, diamond):
        lat, rec = diamond
        rows = convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                                 [44 * SHELL], 8)
        assert len(rows) == 1
        assert rows[0].dim == 51

    def test_rejects_unsorted_cutoffs(self, diamond):
        lat, rec = diamond
        with pytest.raises(ValueError):
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              [76 * SHELL, 44 * SHELL], 8)

    def test_rejects_num_bands_beyond_smallest_basis(self, diamond):
        # The largest basis holds 8 bands; the first cutoff's (dim 1) not.
        lat, rec = diamond
        with pytest.raises(ValueError, match="outside 1..1"):
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              [0.0, 44 * SHELL], 8)


def skip_lowest_level_on_call(monkeypatch, call):
    """Stub eigh so that solve number ``call`` skips the lowest level, as a
    subset solve that missed an eigenvalue would."""
    solve, calls = bands_mod.eigh, []

    def skipping(h, count):
        calls.append(h)
        if len(calls) != call:
            return solve(h, count)
        result = solve(h, count + 1)
        return dataclasses.replace(result, values=result.values[1:],
                                   vectors=result.vectors[:, 1:])

    monkeypatch.setattr(bands_mod, "eigh", skipping)


class TestInterlacing:
    def test_skipped_level_raises_naming_the_cutoff(self, diamond,
                                                    monkeypatch):
        lat, rec = diamond
        skip_lowest_level_on_call(monkeypatch, 2)
        with pytest.raises(SweepError, match=r"\(cutoffs\[1\]\): E1 rose") \
                as excinfo:
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              [16 * SHELL, 44 * SHELL, 76 * SHELL], 4)
        assert excinfo.value.index == 1
        np.testing.assert_array_equal(excinfo.value.kappa, np.zeros(3))

    def test_skip_at_the_largest_cutoff_is_caught(self, diamond,
                                                  monkeypatch):
        lat, rec = diamond
        skip_lowest_level_on_call(monkeypatch, 3)
        with pytest.raises(SweepError, match="do not interlace") as excinfo:
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              [16 * SHELL, 44 * SHELL, 76 * SHELL], 4)
        assert excinfo.value.index == 2

    def test_rise_within_tolerance_passes(self, diamond, monkeypatch):
        # Free levels are equal at every cutoff; a rise of 1e-10 max|H|
        # is rounding, not a violation.
        lat, rec = diamond
        solve, calls = bands_mod.eigh, []

        def nudged(h, count):
            calls.append(h)
            result = solve(h, count)
            rise = 1e-10 * result.scale if len(calls) == 2 else 0.0
            return dataclasses.replace(result, values=result.values + rise)

        monkeypatch.setattr(bands_mod, "eigh", nudged)
        rows = convergence_study(np.zeros(3), Potential(0.0), lat, rec,
                                 [12 * SHELL, 44 * SHELL], 4)
        assert len(rows) == 2


class TestTypes:
    def test_band_structure_shape(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(0.0), lat, rec, 12 * SHELL, 4)
        assert isinstance(bs, BandStructure)
        assert bs.energies.shape == (len(quick_tour.points), 4)

    def test_gap_entry_width_consistency(self):
        gap = GapEntry(below_band=2, gap_bottom=1.0, gap_top=3.5, width=2.5)
        assert gap.width == gap.gap_top - gap.gap_bottom
