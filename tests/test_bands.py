import itertools
import math
import re

import numpy as np
import pytest

import pwbands.bands as bands_mod
import pwbands.hamiltonian as hamiltonian_mod
from pwbands.bands import (BandStructure, GapEntry, SweepError,
                           convergence_study, detect_gaps,
                           free_electron_reference, sweep)
from pwbands.cli import load_config
from pwbands.eigen import BlochMatrix, eigh
from pwbands.hamiltonian import (AssemblyError, PlaneWaveBasis, build,
                                 operations, potential_matrix)
from pwbands.lattice import fcc_symmetry_points, make_cubic, make_kpath, \
    reciprocal_of
from pwbands.potential import HBAR2_OVER_2M, Potential
from pwbands.presets import preset_path

A_SI = 5.431
SHELL = (math.pi / A_SI) ** 2
FIG4A_TABLE = {0: -9.50, 12: 2.42, 32: 0.80, 44: -0.82, 64: 0.88, 76: 0.00}


def basis(rec, units):
    """Every G up to a cutoff of ``units`` (pi/a)^2."""
    return PlaneWaveBasis.from_cutoff(rec, units * SHELL)


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
        bs = sweep(quick_tour, Potential(0.0), lat, rec, basis(rec, 76), 8)
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert np.abs(bs.energies - ref.energies).max() < 1e-9

    def test_rows_ascending(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(0.5), lat, rec, basis(rec, 44), 8)
        assert np.all(np.diff(bs.energies, axis=1) >= 0)

    def test_folded_parabola_along_l_gamma(self, diamond):
        # z=0 bands are the sorted free values, branches folding at L.
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("L", pts["L"]), ("Γ", pts["Γ"])], 12)
        bs = sweep(path, Potential(0.0), lat, rec, basis(rec, 44), 6)
        for i, kappa in enumerate(path.kappas):
            cart = bands_mod.PlaneWaveBasis.from_cutoff(rec, 44 * SHELL).cart
            levels = np.sort(
                HBAR2_OVER_2M * np.sum((kappa + cart) ** 2, axis=1))
            np.testing.assert_allclose(bs.energies[i], levels[:6], atol=1e-9)

    def test_rejects_num_bands_beyond_basis(self, diamond, quick_tour):
        lat, rec = diamond
        with pytest.raises(ValueError):
            sweep(quick_tour, Potential(0.0), lat, rec, basis(rec, 0), 2)

    def test_solver_failure_carries_kpoint(self, diamond, quick_tour,
                                           bands_eigh):
        lat, rec = diamond
        bands_eigh.inject("raise")
        with pytest.raises(SweepError) as excinfo:
            sweep(quick_tour, Potential(0.0), lat, rec, basis(rec, 12), 4)
        assert excinfo.value.index == 0
        np.testing.assert_allclose(excinfo.value.kappa,
                                   quick_tour.kappas[0])


class TestBatches:
    """A sweep solves runs of k-points of one little group as batches of at
    most BATCH_BYTES of vectors; an error still names its own k-point."""

    @pytest.mark.parametrize("kind, arg, message, index", [
        pytest.param(kind, arg, message, index,
                     id=f"{name}-{index}" if name else str(index))
        for name, kind, arg, message in [
            ("", "nan values", None, "non-finite"),
            ("info", "info", 7, "LAPACK info 7,"),
            ("linalg", "raise", None, "did not converge"),
            ("drop", "drop", 1, "7 of 8 eigenpairs")]
        for index in (23, 30)])
    def test_failure_inside_a_batch_names_its_kpoint(
            self, solver, bands_eigh, kind, arg, message, index):
        # z05's L-Gamma points 0-48 share C3v: at dim 89, 8 bands, batches
        # of 23 start at 0, 23 and 46, so 23 heads one and 30 lies inside.
        cfg = load_config(preset_path("z05"))
        size = bands_mod.BATCH_BYTES // (89 * 8 * 8)
        assert (cfg.basis.dim, cfg.num_bands, size) == (89, 8, 23)
        solver.inject(kind, arg, at=(cfg, index))
        with pytest.raises(SweepError, match=rf"^solve failed at k-point "
                           rf"{index} kappa=.*{message}") as excinfo:
            sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
                  cfg.num_bands)
        assert excinfo.value.index == index
        np.testing.assert_array_equal(excinfo.value.kappa,
                                      cfg.path.kappas[index])
        # The batch 23-45 failed whole, then its points one by one up to
        # the faulty one.
        points = [len(h.kinetic) for h in bands_eigh.calls]
        assert points == [23, 23] + [1] * (index - 23 + 1)

    @pytest.mark.parametrize("g2_units, size", [(76, 23), (200, 6)])
    def test_batches_on_the_preset_tour(self, bands_eigh, g2_units, size):
        # The 197-point z05 tour: every point in one batch, no batch across
        # a change of little group, each within the byte budget and as few
        # as the budget allows.
        cfg = load_config(preset_path("z05"))
        b = basis(cfg.recip, g2_units)
        sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip, b, cfg.num_bands)
        batches = [h.kinetic.shape for h in bands_eigh.calls]
        points = [p for p, _ in batches]
        assert sum(points) == len(cfg.path.kappas) == 197
        assert {dim for _, dim in batches} == {b.dim}
        width = b.dim * cfg.num_bands * 8  # float64 vectors of one point
        assert max(points) * width <= bands_mod.BATCH_BYTES \
            < (max(points) + 1) * width
        assert max(points) == size
        keys = [fixing.tobytes() for fixing in operations(
            cfg.lattice, cfg.recip, b).fixes(cfg.path.kappas)]
        starts = np.cumsum(points) - points
        for start, p in zip(starts, points):
            assert len(set(keys[start:start + p])) == 1
        # A new batch starts only at a change of group or at a full batch.
        runs = [len(list(run)) for _, run in itertools.groupby(keys)]
        assert len(points) == sum(-(-run // size) for run in runs)


class TestRealPath:
    @pytest.mark.parametrize("model", [
        Potential(0.5), Potential(0.0, overrides=FIG4A_TABLE)],
        ids=["z05", "si_empirical"])
    def test_complex_potential_gives_same_bands(self, diamond, quick_tour,
                                                model, monkeypatch):
        lat, rec = diamond
        real = sweep(quick_tour, model, lat, rec, basis(rec, 76), 8)
        assembled = []

        def complex_potential(*args):
            v = potential_matrix(*args)
            assembled.append(v.dtype)
            return v.astype(complex)

        monkeypatch.setattr(bands_mod, "potential_matrix", complex_potential)
        forced = sweep(quick_tour, model, lat, rec, basis(rec, 76), 8)
        assert assembled == [np.float64]
        np.testing.assert_allclose(forced.energies, real.energies,
                                   rtol=0, atol=1e-10)


class TestBlockPath:
    """The sweep checks its potential block once; each k-point's solve must
    still be the dense matrix's solve, and a bad block must still fail at
    the first k-point."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                             ids=["real", "forced-complex"])
    def test_sweep_equals_dense_solves_bit_for_bit(self, diamond, quick_tour,
                                                   monkeypatch, bands_eigh,
                                                   dtype):
        lat, rec = diamond
        model = Potential(0.5)
        basis = PlaneWaveBasis.from_cutoff(rec, 76 * SHELL)
        v = potential_matrix(model, lat, rec, basis).astype(dtype)
        monkeypatch.setattr(bands_mod, "potential_matrix", lambda *_: v)
        bs = sweep(quick_tour, model, lat, rec, basis, 8)
        calls = list(zip(bands_eigh.calls, bands_eigh.results))
        # One solve per batch, one batch entry per k-point.
        assert sum(len(result.values) for _, result in calls) \
            == len(quick_tour.kappas)
        # Every tour point is split: C3v on L-Gamma, O_h at Gamma, C4v on
        # Gamma-X and at X, the mirror on X-U-Gamma.
        gamma = (7, 5, 4, 3, 2, 8, 8, 3)
        rows = ([(28, 5, 28)] * 14 + [gamma] + [(19, 5, 7, 16, 21)] * 14
                + [(56, 33)] * 27 + [gamma])
        points = [(h, result, i) for h, result in calls
                  for i in range(len(result.values))]
        for kappa, energies, (h, result, i), dims in zip(
                quick_tour.kappas, bs.energies, points, rows):
            # The block checked once solves as the dense block checked at
            # this k-point, split the same way, bit for bit ...
            fresh = eigh(build(kappa, basis, BlochMatrix.of(
                v.copy(), sectors=h.sectors)), 8)
            np.testing.assert_array_equal(energies, fresh.values)
            assert result.sectors == dims
            # ... and as the dense matrix solved whole, to rounding.
            dense = build(kappa, basis, v).entries
            assert dense.dtype == dtype
            expected = eigh(dense, 8)
            np.testing.assert_allclose(energies, expected.values, rtol=0,
                                       atol=1e-10)
            assert result.scale[i] == expected.scale == np.abs(dense).max()

    @pytest.mark.parametrize("kind, message", [
        ("asymmetric", "not Hermitian"), ("nan", "non-finite"),
        ("inf", "non-finite")])
    def test_bad_block_fails_at_the_first_kpoint(self, diamond, quick_tour,
                                                 break_v, kind, message):
        lat, rec = diamond
        break_v(kind)
        with pytest.raises(SweepError, match=f"at k-point 0 .*{message}") \
                as excinfo:
            sweep(quick_tour, Potential(0.5), lat, rec, basis(rec, 44), 4)
        assert excinfo.value.index == 0
        np.testing.assert_array_equal(excinfo.value.kappa,
                                      quick_tour.kappas[0])


def per_point(batches):
    """The sector dims of each k-point that the batched solves held."""
    return [r.sectors for r in batches.results for _ in r.values]


class TestSectors:
    def test_sector_dims_on_the_dense_tour_basis(self, diamond, bands_eigh):
        # z05 at 200 (pi/a)^2, dim 339: O_h splits Gamma into one row of each
        # of its ten irreps, and C4v splits Delta and X into five; the E row
        # holds one level of each pair.
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("Γ", pts["Γ"]), ("Δ", 0.37 * pts["X"]),
                           ("X", pts["X"])], 2)
        sweep(path, Potential(0.5), lat, rec, basis(rec, 200), 8)
        assert per_point(bands_eigh) == [
            (17, 2, 2, 15, 14, 13, 13, 27, 28, 15), (58, 28, 31, 56, 83),
            (58, 28, 31, 56, 83)]

    @pytest.mark.parametrize("g2_units", [76, 200])
    def test_symmetry_search_cost_on_the_preset_tour(self, monkeypatch,
                                                     g2_units):
        # The 197-point z05 tour has four little groups: C3v on L-Gamma, O_h
        # at Gamma, C4v on Gamma-X and at X, C_s on X-U-Gamma.  V is tested
        # once per generator (2 + 3 + 2 + 1), and each group's blocks are
        # built once, not at every point.
        cfg = load_config(preset_path("z05"))
        found, tested, built = [], [], []
        search, symmetry, split = (bands_mod.operations,
                                   hamiltonian_mod._symmetry,
                                   bands_mod.row_blocks)
        monkeypatch.setattr(bands_mod, "operations", lambda *args: (
            found.append(search(*args)) or found[-1]))
        monkeypatch.setattr(hamiltonian_mod, "_symmetry", lambda *args: (
            tested.append(args[1]) or symmetry(*args)))
        monkeypatch.setattr(bands_mod, "row_blocks", lambda v, group: (
            built.append(len(group.ops)) or split(v, group)))
        sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
              basis(cfg.recip, g2_units), cfg.num_bands)
        assert len(cfg.path.kappas) == 197
        assert len(found) == 1 and len(found[0].ops) == 48
        assert len(tested) == 8
        assert built == [6, 48, 8, 2]

    def test_point_no_symmetry_fixes_is_solved_whole(self, diamond,
                                                     bands_eigh):
        lat, rec = diamond
        path = make_kpath([("a", (0.31, 0.17, 0.42)), ("b", (0.3, 0.2, 0.1))],
                          2)
        sweep(path, Potential(0.5), lat, rec, basis(rec, 44), 8)
        assert per_point(bands_eigh) == [(51,), (51,)]

    def test_convergence_rows_are_leading_sector_blocks(self, diamond,
                                                        monkeypatch,
                                                        bands_eigh):
        # One split at the largest cutoff; each smaller cutoff solves the
        # leading columns of its rows, and the levels match whole solves.
        lat, rec = diamond
        x = fcc_symmetry_points(A_SI)["X"]
        cutoffs = [c * SHELL for c in (12, 44, 76)]
        rows = convergence_study(x, Potential(0.5), lat, rec, basis(rec, 76),
                                 cutoffs, 8)
        results = bands_eigh.results
        assert [r.sectors for r in results] == [
            (3, 2, 2), (10, 3, 4, 10, 12), (19, 5, 7, 16, 21)]
        assert [len(r.sectors) for r in results] == [3, 5, 5]
        monkeypatch.setattr(bands_mod, "row_blocks", lambda *_: ())
        whole = convergence_study(x, Potential(0.5), lat, rec,
                                  basis(rec, 76), cutoffs, 8)
        assert all(len(r.sectors) == 1 for r in results[3:])
        for row, ref in zip(rows, whole):
            np.testing.assert_allclose(row.values, ref.values, rtol=0,
                                       atol=1e-10)


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
        bs = sweep(path, Potential(0.0), lat, rec, basis(rec, 44), 8)
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
        bs = sweep(quick_tour, Potential(1e-4), lat, rec, basis(rec, 76), 8)
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert np.abs(bs.energies - ref.energies).max() < 1e-2


class TestDetectGaps:
    def test_free_bands_overlap(self, diamond, quick_tour):
        lat, rec = diamond
        ref = free_electron_reference(quick_tour, lat, rec, 76 * SHELL, 8)
        assert detect_gaps(ref) == []

    def test_strong_coupling_opens_gap(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(2.0), lat, rec, basis(rec, 76), 8)
        gaps = detect_gaps(bs)
        assert len(gaps) >= 1
        for gap in gaps:
            assert gap.width > 0
            assert gap.width == pytest.approx(gap.gap_top - gap.gap_bottom)

    def test_single_point_path_gives_level_differences(self, diamond):
        lat, rec = diamond
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("L", pts["L"]), ("L", pts["L"])], 2)
        bs = sweep(path, Potential(0.5), lat, rec, basis(rec, 44), 4)
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
            bs = sweep(quick_tour, Potential(z), lat, rec, basis(rec, 76), 2)
            splits.append(bs.energies[0, 1] - bs.energies[0, 0])
        assert all(b >= a - 1e-12 for a, b in zip(splits, splits[1:]))

    def test_lowest_band_narrows_at_high_charge(self, diamond, quick_tour):
        lat, rec = diamond
        widths = {}
        for z in (0.5, 2.0):
            bs = sweep(quick_tour, Potential(z), lat, rec, basis(rec, 76), 1)
            widths[z] = np.ptp(bs.energies[:, 0])
        assert widths[2.0] < widths[0.5]

    def test_empirical_gap_between_bands_4_and_5(self, diamond, quick_tour):
        lat, rec = diamond
        model = Potential(0.0, overrides=FIG4A_TABLE,
                          override_mode="element")
        bs = sweep(quick_tour, model, lat, rec, basis(rec, 76), 8)
        gaps = {g.below_band: g for g in detect_gaps(bs)}
        assert 4 in gaps
        assert gaps[4].width > 0


class TestConvergence:
    def test_free_spectrum_exact_at_every_cutoff(self, diamond):
        lat, rec = diamond
        cutoffs = [12 * SHELL, 44 * SHELL, 76 * SHELL]
        rows = convergence_study(np.zeros(3), Potential(0.0), lat, rec,
                                 basis(rec, 76), cutoffs, 4)
        assert len(rows) == 3
        for a, b in zip(rows, rows[1:]):
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_shrinking_deltas_for_coulomb(self, diamond):
        lat, rec = diamond
        cutoffs = [44 * SHELL, 76 * SHELL, 108 * SHELL]
        rows = convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                                 basis(rec, 108), cutoffs, 8)
        d1 = np.abs(rows[1].values - rows[0].values)
        d2 = np.abs(rows[2].values - rows[1].values)
        assert np.all(d2 < d1)

    def test_single_cutoff_single_row(self, diamond):
        lat, rec = diamond
        rows = convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                                 basis(rec, 44), [44 * SHELL], 8)
        assert len(rows) == 1
        assert rows[0].dim == 51

    def test_rejects_unsorted_cutoffs(self, diamond):
        lat, rec = diamond
        with pytest.raises(ValueError):
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              basis(rec, 76), [76 * SHELL, 44 * SHELL], 8)

    def test_rejects_num_bands_beyond_smallest_basis(self, diamond):
        # The largest basis holds 8 bands; the first cutoff's (dim 1) not.
        lat, rec = diamond
        with pytest.raises(ValueError, match="outside 1..1"):
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              basis(rec, 44), [0.0, 44 * SHELL], 8)

    def test_bloch_vector_of_two_components_rejected_before_any_solve(
            self, diamond, bands_eigh):
        lat, rec = diamond
        with pytest.raises(AssemblyError, match="bad Bloch vector"):
            convergence_study(np.zeros(2), Potential(0.5), lat, rec,
                              basis(rec, 44), [12 * SHELL, 44 * SHELL], 4)
        assert bands_eigh.calls == []


class TestOneLoop:
    """A sweep and a convergence study run the same loop, which builds V
    and the crystal's operations once, however many points or cutoffs."""

    @pytest.mark.parametrize("study", ["sweep", "convergence_study"])
    def test_operations_and_potential_built_once(self, diamond, quick_tour,
                                                 monkeypatch, study):
        lat, rec = diamond
        calls = {"operations": 0, "potential_matrix": 0}
        for name in calls:
            def counting(*args, _build=getattr(bands_mod, name), _name=name):
                calls[_name] += 1
                return _build(*args)

            monkeypatch.setattr(bands_mod, name, counting)
        if study == "sweep":
            sweep(quick_tour, Potential(0.5), lat, rec, basis(rec, 44), 4)
        else:
            convergence_study(fcc_symmetry_points(A_SI)["X"], Potential(0.5),
                              lat, rec, basis(rec, 76),
                              [c * SHELL for c in (12, 16, 44, 76)], 4)
        assert calls == {"operations": 1, "potential_matrix": 1}


# converge-ladder's study: Yukawa at X, cutoffs 44 to 248 (pi/a)^2 in steps
# of 12, which hold 15 dims: 113, 331 and 531 twice each.
LADDER = [c * SHELL for c in range(44, 249, 12)]
LADDER_DIMS = [51, 59, 65, 113, 113, 137, 169, 181, 229, 259, 283, 331, 331,
               339, 411, 459, 531, 531]


def ladder(bands_eigh):
    """The ladder's rows, and the (points, dim) of each eigh call."""
    lat = make_cubic("DIAMOND", A_SI)
    rec = reciprocal_of(lat)
    rows = convergence_study(fcc_symmetry_points(A_SI)["X"],
                             Potential(0.5, mu=1.0), lat, rec,
                             basis(rec, 248), LADDER, 8)
    return rows, [h.kinetic.shape for h in bands_eigh.calls]


class TestOneSolvePerDim:
    """Cutoffs that add no shell share their dim's H, so a convergence
    study solves each dim once and repeats its row."""

    def test_ladder_solves_15_points_for_18_cutoffs(self, bands_eigh):
        rows, calls = ladder(bands_eigh)
        assert [row.dim for row in rows] == LADDER_DIMS
        assert [row.g2_max for row in rows] == LADDER
        assert sum(points for points, _ in calls) == 15
        assert [dim for _, dim in calls] == sorted(set(LADDER_DIMS))

    def test_repeated_dims_repeat_their_row_bit_for_bit(self, bands_eigh):
        rows, _ = ladder(bands_eigh)
        repeats = 0
        for a, b in zip(rows, rows[1:]):
            if a.dim == b.dim:
                np.testing.assert_array_equal(a.values, b.values)
                repeats += 1
            else:
                assert np.any(a.values != b.values)
        assert repeats == 3

    @pytest.mark.parametrize("failure", ["solve", "interlacing"])
    def test_failure_at_a_repeated_dim_names_its_first_cutoff(
            self, bands_eigh, failure):
        # dim 331 holds cutoffs[11] (176) and cutoffs[12] (188); a skipped
        # E1 makes the levels rise.
        bands_eigh.inject("raise" if failure == "solve" else "skip", dim=331)
        message = ("solve failed at" if failure == "solve"
                   else "levels do not interlace at")
        place = f"cutoff g2_max={LADDER[11]:g} 1/A^2 (cutoffs[11])"
        with pytest.raises(SweepError, match=f"^{message} {re.escape(place)}"
                           ) as excinfo:
            ladder(bands_eigh)
        assert excinfo.value.index == 11


class TestInterlacing:
    def test_skipped_level_raises_naming_the_cutoff(self, diamond,
                                                    bands_eigh):
        # Each solve is a batch of one cutoff.
        lat, rec = diamond
        bands_eigh.inject("skip", call=2)
        with pytest.raises(SweepError, match=r"\(cutoffs\[1\]\): E1 rose") \
                as excinfo:
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              basis(rec, 76),
                              [16 * SHELL, 44 * SHELL, 76 * SHELL], 4)
        assert excinfo.value.index == 1
        np.testing.assert_array_equal(excinfo.value.kappa, np.zeros(3))

    def test_skip_at_the_largest_cutoff_is_caught(self, diamond,
                                                  bands_eigh):
        lat, rec = diamond
        bands_eigh.inject("skip", call=3)
        with pytest.raises(SweepError, match="do not interlace") as excinfo:
            convergence_study(np.zeros(3), Potential(0.5), lat, rec,
                              basis(rec, 76),
                              [16 * SHELL, 44 * SHELL, 76 * SHELL], 4)
        assert excinfo.value.index == 2

    def test_rise_within_tolerance_passes(self, diamond, bands_eigh):
        # Free levels are equal at every cutoff; a rise of 1e-10 max|H|
        # is rounding, not a violation.
        lat, rec = diamond
        bands_eigh.inject("nudge", 1e-10, call=2)
        rows = convergence_study(np.zeros(3), Potential(0.0), lat, rec,
                                 basis(rec, 44), [12 * SHELL, 44 * SHELL], 4)
        assert len(rows) == 2


class TestTypes:
    def test_band_structure_shape(self, diamond, quick_tour):
        lat, rec = diamond
        bs = sweep(quick_tour, Potential(0.0), lat, rec, basis(rec, 12), 4)
        assert isinstance(bs, BandStructure)
        assert bs.energies.shape == (len(quick_tour.kappas), 4)

    def test_gap_entry_width_consistency(self):
        gap = GapEntry(below_band=2, gap_bottom=1.0, gap_top=3.5, width=2.5)
        assert gap.width == gap.gap_top - gap.gap_bottom
