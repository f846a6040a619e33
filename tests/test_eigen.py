import dataclasses
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwbands import eigen as eigen_mod
from pwbands.eigen import (BlochMatrix, EigenResult, NonHermitianError,
                           SolverError, eigh)
import pwbands.bands as bands_mod
import pwbands.hamiltonian as hamiltonian_mod
from pwbands.bands import (SweepError, convergence_study,
                           free_electron_reference, sweep)
from pwbands.cli import load_config
from pwbands.hamiltonian import (PlaneWaveBasis, build, little_group,
                                 operations, potential_matrix, row_blocks)
from pwbands.lattice import (RealLattice, fcc_symmetry_points, make_cubic,
                             make_kpath, reciprocal_of)
from pwbands.potential import Potential
from pwbands.presets import preset_path


def random_hermitian(n, seed, complex_entries=True):
    rng = np.random.RandomState(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def hermitian_3x3_eigenvalues(a):
    """Closed-form (trigonometric) roots of the characteristic cubic."""
    q = np.trace(a).real / 3.0
    b = a - q * np.eye(3)
    p2 = (np.abs(b) ** 2).sum()
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return np.array([q, q, q])
    c = b / p
    # hand-rolled 3x3 determinant, real for Hermitian input
    det = (c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
           - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
           + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0]))
    r = max(-1.0, min(1.0, det.real / 2.0))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))


class TestExamples:
    def test_diagonal_matrix(self):
        result = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(result.values, [1.0, 2.0, 3.0], atol=1e-14)

    def test_two_level_flip(self):
        result = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(result.values, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_3x3_against_characteristic_cubic(self, seed, complex_entries):
        h = random_hermitian(3, seed, complex_entries)
        expected = hermitian_3x3_eigenvalues(h)
        np.testing.assert_allclose(eigh(h).values, expected, atol=1e-10)


class TestContract:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_residual_orthonormality_ordering(self, seed):
        h = random_hermitian(40, seed)
        result = eigh(h)
        assert np.all(np.diff(result.values) >= 0)
        gram = result.vectors.conj().T @ result.vectors
        assert np.abs(gram - np.eye(40)).max() <= 1e-8
        residual = np.linalg.norm(h @ result.vectors
                                  - result.vectors * result.values, axis=0)
        assert residual.max() <= 1e-8 * np.abs(h).max()

    @pytest.mark.parametrize("seed", [9, 10])
    def test_trace_preservation(self, seed):
        h = random_hermitian(25, seed)
        result = eigh(h)
        assert abs(result.values.sum() - np.trace(h).real) \
            <= 1e-8 * np.linalg.norm(h)

    def test_unitary_similarity_invariance(self):
        h = random_hermitian(20, seed=12)
        rng = np.random.RandomState(13)
        p = np.eye(20)[rng.permutation(20)]
        e1 = eigh(h).values
        e2 = eigh(p @ h @ p.T).values
        np.testing.assert_allclose(e1, e2, atol=1e-10)

    def test_deterministic_across_calls(self):
        h = random_hermitian(30, seed=14)
        r1 = eigh(h)
        r2 = eigh(h)
        np.testing.assert_array_equal(r1.values, r2.values)
        np.testing.assert_array_equal(r1.vectors, r2.vectors)

    def test_accepts_bloch_matrix(self):
        lat = make_cubic("DIAMOND", 5.431)
        rec = reciprocal_of(lat)
        basis = PlaneWaveBasis.from_cutoff(rec, 12 * (math.pi / 5.431) ** 2)
        h = build(np.zeros(3), basis,
                  potential_matrix(Potential(0.5), lat, rec, basis))
        result = eigh(h)
        assert isinstance(result, EigenResult)
        assert len(result.values) == basis.dim

    def test_complex_hermitian_path(self):
        h = random_hermitian(15, seed=21, complex_entries=True)
        assert np.abs(h.imag).max() > 0.1
        result = eigh(h)
        assert np.iscomplexobj(result.vectors)
        assert np.isrealobj(result.values)


class TestSubset:
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("count", [1, 8, 40])
    def test_lowest_pairs_meet_contract(self, count, complex_entries):
        h = random_hermitian(40, seed=30, complex_entries=complex_entries)
        result = eigh(h, count)
        assert result.values.shape == (count,)
        assert result.vectors.shape == (40, count)
        gram = result.vectors.conj().T @ result.vectors
        assert np.abs(gram - np.eye(count)).max() <= 1e-8
        residual = np.linalg.norm(h @ result.vectors
                                  - result.vectors * result.values, axis=0)
        assert residual.max() <= 1e-8 * np.abs(h).max()
        np.testing.assert_allclose(result.values, eigh(h).values[:count],
                                   rtol=0, atol=1e-10)

    def test_real_input_gives_real_vectors(self):
        h = random_hermitian(12, seed=31, complex_entries=False)
        result = eigh(h, 3)
        assert np.isrealobj(result.vectors)

    @pytest.mark.parametrize("count", [0, 13])
    def test_count_out_of_range(self, count):
        with pytest.raises(ValueError):
            eigh(random_hermitian(12, seed=32), count)


class TestVerificationFigures:
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("count", [3, None])
    def test_each_figure_lies_within_its_tolerance(self, count,
                                                   complex_entries):
        # Off-Hermitian by 1e-14, well inside 1e-12 max|H|: accepted, and
        # the deviation is reported as measured, not as zero.
        h = random_hermitian(30, seed=50, complex_entries=complex_entries)
        h[3, 7] += 1e-14
        result = eigh(h, count)
        assert 0.0 < result.residual <= eigen_mod.RESIDUAL_TOL
        assert 0.0 <= result.orthonormality <= eigen_mod.ORTHONORMALITY_TOL
        assert 0.0 < result.hermiticity \
            <= eigen_mod.HERMITICITY_TOL * result.scale
        x = result.vectors
        assert result.hermiticity == np.abs(h - h.conj().T).max()
        assert result.orthonormality == np.abs(
            x.conj().T @ x - np.eye(x.shape[1])).max()
        residual = np.linalg.norm(h @ x - x * result.values, axis=0)
        assert abs(residual.max() / result.scale - result.residual) < 1e-13

    def test_bloch_matrix_reports_its_block_deviation(self):
        v = random_hermitian(20, seed=51)
        v[0, 4] += 2e-13
        h = BlochMatrix.of(v, np.linspace(0.0, 40.0, 20))
        result = eigh(h, 5)
        assert result.hermiticity == h.herm \
            == abs(v[0, 4] - np.conj(v[4, 0]))
        assert result.residual <= eigen_mod.RESIDUAL_TOL


class TestCheckedBlock:
    """V's figures, taken once by ``BlochMatrix.of``."""

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_block_figures(self, complex_entries):
        v = random_hermitian(15, seed=52, complex_entries=complex_entries)
        v[2, 9] += 3e-14
        block = BlochMatrix.of(v)
        assert block.matrix is v  # checked in place, not copied
        assert block.dim == 15
        assert block.herm == np.abs(v - v.conj().T).max()
        off = np.abs(v)
        np.fill_diagonal(off, 0.0)
        assert block.off_max == off.max()
        np.testing.assert_array_equal(block.diag, v.diagonal())

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("seed", [53, 54, 55])
    def test_scale_is_max_abs_of_the_dense_matrix(self, seed,
                                                  complex_entries):
        # max|H| from the block's figures and diag V + T, in O(dim), is
        # np.abs(H).max() bit for bit, whichever part holds the maximum.
        rng = np.random.RandomState(seed)
        v = random_hermitian(25, seed, complex_entries)
        kinetic = rng.uniform(-4.0, 4.0, 25) * (seed - 53)
        h = BlochMatrix.of(v, kinetic)
        assert eigh(h, 4).scale == np.abs(h.entries).max()
        assert eigh(h.entries, 4).scale == np.abs(h.entries).max()

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("placed", [
        [], [(3, 40, np.nan)], [(200, 150, np.nan)], [(120, 120, np.nan)],
        [(100, 300, np.inf), (300, 100, np.inf)], [(60, 5, np.inf)],
        [(10, 500, -np.inf)], [(250, 7, 1e-9)], [(530, 530, np.nan)]],
        ids=["clean", "nan-early", "nan-at-200", "nan-on-diagonal",
             "inf-pair", "inf-below", "inf-above", "asymmetric",
             "nan-last-row"])
    def test_leading_figures_are_each_block_checked_alone(
            self, complex_entries, placed):
        # The ladder's V (Yukawa, dim 531) with NaN, inf or an asymmetry
        # placed inside some leading blocks and outside the others: each
        # block's figures, extended from the last one's, are ``of``'s.
        lat = make_cubic("DIAMOND", 5.431)
        rec = reciprocal_of(lat)
        dims = [51, 59, 65, 113, 137, 169, 181, 229, 259, 283, 331, 339,
                411, 459, 531]
        basis = PlaneWaveBasis.from_cutoff(rec, 248 * (math.pi / 5.431) ** 2)
        v = potential_matrix(Potential(0.5, mu=1.0), lat, rec, basis)
        assert basis.dim == 531
        if complex_entries:
            v = v + 1j * np.triu(0.1 * v, 1) - 1j * np.triu(0.1 * v, 1).T
        for i, j, value in placed:
            v[i, j] = value if np.isinf(value) or np.isnan(value) \
                else v[i, j] + value
        kinetic = np.arange(2.0 * 531).reshape(2, 531)
        h = BlochMatrix.of(v, kinetic)
        leads = h.leading(dims)
        assert len(leads) == len(dims) and leads[-1] is h
        for dim, lead in zip(dims, leads):
            alone = BlochMatrix.of(v[:dim, :dim])
            np.testing.assert_array_equal([lead.herm, lead.off_max],
                                          [alone.herm, alone.off_max])
            np.testing.assert_array_equal(lead.diag, alone.diag)
            np.testing.assert_array_equal(lead.kinetic, kinetic[:, :dim])
            assert lead.matrix.shape == (dim, dim)
            assert np.shares_memory(lead.matrix, v)

    def test_integer_input_is_solved_as_float(self):
        block = BlochMatrix.of([[2, 1], [1, 2]])
        assert block.matrix.dtype == np.float64
        np.testing.assert_allclose(eigh([[2, 1], [1, 2]]).values, [1.0, 3.0],
                                   atol=1e-14)

    def test_overflowing_kinetic_diagonal_rejected(self):
        # A finite Bloch vector whose |k + G|^2 overflows: V is fine, T is
        # not, and the per-solve max|H| still catches it before LAPACK.
        lat = make_cubic("DIAMOND", 5.431)
        rec = reciprocal_of(lat)
        basis = PlaneWaveBasis.from_cutoff(rec, 12 * (math.pi / 5.431) ** 2)
        block = BlochMatrix.of(potential_matrix(Potential(0.5), lat, rec,
                                                basis))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is silent
            h = build(np.full(3, 1e160), basis, block)
        assert np.isfinite(block.off_max) and np.isinf(h.kinetic).all()
        with pytest.raises(NonHermitianError, match="non-finite"):
            eigh(h, 4)

    def test_dropping_an_imaginary_part_is_an_error(self):
        # pytest turns numpy's ComplexWarning into an error, so a complex
        # block written into a real buffer cannot lose its imaginary part.
        buffer = np.empty(2)
        with pytest.raises(np.exceptions.ComplexWarning):
            buffer[:] = np.array([1.0 + 1e-3j, 2.0])


def bloch_entries(lattice, point="X", cutoff=76):
    """z05-style Hamiltonian entries at an FCC symmetry point."""
    a = lattice.lattice_constant
    rec = reciprocal_of(lattice)
    basis = PlaneWaveBasis.from_cutoff(rec, cutoff * (math.pi / a) ** 2)
    v = potential_matrix(Potential(0.5), lattice, rec, basis)
    return build(fcc_symmetry_points(a)[point], basis, v).entries


def non_centered(a=5.431):
    """FCC with offsets {0, (a/4)(1,1,1)}: no inversion centre, complex H."""
    fcc = make_cubic("FCC", a)
    return RealLattice(fcc.a1, fcc.a2, fcc.a3, (np.zeros(3), a / 4 * np.ones(3)),
                       lattice_constant=a)


def fallback(h, count):
    values, vectors = np.linalg.eigh(h)
    return values[:count], vectors[:, :count]


class TestSolverPaths:
    """The LAPACK subset solve against the full-spectrum fallback."""

    @pytest.mark.parametrize("centred", [True, False])
    @pytest.mark.parametrize("count", [1, 8, None])
    def test_subset_matches_fallback(self, centred, count):
        h = bloch_entries(make_cubic("DIAMOND", 5.431) if centred
                          else non_centered(), point="L")
        assert np.iscomplexobj(h) != centred
        count = count or len(h)
        result = eigh(h, count)
        values, vectors = fallback(h, count)
        np.testing.assert_allclose(result.values, values, rtol=0, atol=1e-10)
        # Same spanned subspace: L's level count+1 is well separated.
        projector = result.vectors @ result.vectors.conj().T
        assert np.abs(projector - vectors @ vectors.conj().T).max() < 1e-8

    @pytest.mark.parametrize("centred", [True, False])
    def test_degenerate_pair_split_at_count(self, centred):
        # At X levels pair; count 5 keeps one member of the 5th/6th pair.
        h = bloch_entries(make_cubic("DIAMOND", 5.431) if centred
                          else non_centered())
        full = np.linalg.eigvalsh(h)
        assert full[5] - full[4] < 1e-10 < full[4] - full[3]
        result = eigh(h, 5)
        np.testing.assert_allclose(result.values, full[:5], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_empty_binding_table_falls_back(self, monkeypatch,
                                            complex_entries):
        h = random_hermitian(30, seed=40, complex_entries=complex_entries)
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        result = eigh(h, 8)
        values, vectors = fallback(h, 8)
        np.testing.assert_array_equal(result.values, values)
        np.testing.assert_array_equal(result.vectors, vectors)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_subset_path_does_not_call_numpy_eigh(self, monkeypatch,
                                                  complex_entries):
        if not eigen_mod._DRIVERS:
            pytest.skip("this numpy's LAPACK lacks a ?sytrd, ?stemr or "
                        "?ormtr symbol")

        def unused(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", unused)
        h = random_hermitian(20, seed=41, complex_entries=complex_entries)
        assert eigh(h, 4).values.shape == (4,)

    def test_drivers_bound_on_scipy_openblas(self):
        try:
            config = np.show_config(mode="dicts")
        except TypeError:
            pytest.skip("numpy.show_config has no dicts mode")
        lapack = config["Build Dependencies"]["lapack"]["name"]
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy links {lapack}, not scipy-openblas")
        assert set(eigen_mod._DRIVERS) == {np.float64, np.complex128}
        assert eigen_mod._THREADS is not None


def split_x_matrix(lattice, cutoff=76, point="X"):
    """z05-style H at a symmetry point with the rows of its little group."""
    a = lattice.lattice_constant
    rec = reciprocal_of(lattice)
    basis = PlaneWaveBasis.from_cutoff(rec, cutoff * (math.pi / a) ** 2)
    block = BlochMatrix.of(potential_matrix(Potential(0.5), lattice, rec,
                                            basis))
    kappa = fcc_symmetry_points(a)[point]
    crystal = operations(lattice, rec, basis)
    group = little_group(crystal, block, crystal.fixes(kappa[None])[0])
    return build(kappa, basis,
                 block._replace(sectors=row_blocks(block.matrix, group)))


class TestSectors:
    """Solving in a symmetry's sectors against solving H whole."""

    @pytest.mark.parametrize("centred", [True, False])
    def test_split_matches_whole(self, centred):
        h = split_x_matrix(make_cubic("DIAMOND", 5.431) if centred
                           else non_centered())
        whole = eigh(h._replace(sectors=()), 8)
        split = eigh(h, 8)
        assert whole.sectors == (h.dim,)
        assert split.sectors == tuple(len(s.rows) for s in h.sectors)
        assert len(split.sectors) == (5 if centred else 4)  # C4v; C2v
        assert sum(len(s.coef) * n for s, n in zip(h.sectors, split.sectors)) \
            == h.dim
        np.testing.assert_allclose(split.values, whole.values, rtol=0,
                                   atol=1e-10)
        # Back-mapped to the whole basis, verified against the whole H.
        assert split.vectors.shape == (h.dim, 8)
        assert split.residual <= eigen_mod.RESIDUAL_TOL
        assert split.scale == whole.scale
        assert split.hermiticity == whole.hermiticity

    def test_sectors_are_orthogonal_eigenspaces(self):
        # The rows of every irrep, partners included, span the basis, and
        # V's block in each partner row is the row's one block.  O_h's
        # two- and three-dimensional irreps are eigenvectors of a 48 x 48
        # matrix, a few ulps off: at Gamma the basis is orthonormal to
        # 1.6e-15, not 1e-15.
        for point, atol in (("X", 1e-15), ("Γ", 1e-14), ("L", 1e-15)):
            h = split_x_matrix(make_cubic("DIAMOND", 5.431), point=point)
            u = [s.expand(np.eye(len(s.rows))).T for s in h.sectors]
            q = np.hstack(u)
            np.testing.assert_allclose(q.T @ q, np.eye(h.dim), atol=atol)
            for s, us in zip(h.sectors, u):
                np.testing.assert_allclose(us.T @ h.matrix @ us, np.kron(
                    np.eye(len(s.coef)), s.matrix), atol=1e-12)

    def test_orbit_straddling_the_cut_is_solved_whole(self):
        # Cut the basis inside its 12 shell (rows 15 to 26), past the first
        # row of an orbit of the group: the leading block has no rows of the
        # group, so it is solved whole, to the energies of the unsplit solve.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        first = h.sectors[0]
        dim = first.rows[first.rows >= 15][0] + 1  # its orbit runs past
        assert dim < 27
        lead, = h.leading([dim])
        assert lead.sectors == ()
        result = eigh(lead, 8)
        assert result.sectors == (dim,)
        values, _ = fallback(lead.entries, 8)
        np.testing.assert_allclose(result.values, values, rtol=0, atol=1e-10)

    def test_leading_block_is_checked_anew_on_views(self):
        # Past the 12 shell (27 rows) no orbit straddles the cut: V's
        # leading block gets its own figures, as if checked alone, and the
        # row blocks are views of the whole basis's.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        noise = np.zeros((h.dim, h.dim))
        noise[3, 20] = 2e-14  # inside the leading block
        noise[40, 2] = 5e-14  # outside it, and larger
        h = BlochMatrix.of(h.matrix + noise, h.kinetic, h.sectors)
        assert h.leading([h.dim])[0] is h
        (lead,), alone = h.leading([27]), BlochMatrix.of(h.matrix[:27, :27])
        assert 0 < lead.herm == alone.herm < h.herm
        assert lead.off_max == alone.off_max
        np.testing.assert_array_equal(lead.diag, alone.diag)
        np.testing.assert_array_equal(lead.kinetic, h.kinetic[:27])
        assert np.shares_memory(lead.matrix, h.matrix)
        assert len(lead.sectors) == len(h.sectors)
        for part, whole in zip(lead.sectors, h.sectors):
            assert part.label == whole.label
            for field in ("rows", "column", "coef", "matrix"):
                assert np.shares_memory(getattr(part, field),
                                        getattr(whole, field))
        result = eigh(lead, 8)
        assert sum(result.sectors) < 27 == sum(
            len(s.coef) * len(s.rows) for s in lead.sectors)
        values, _ = fallback(lead.entries, 8)
        np.testing.assert_allclose(result.values, values, rtol=0, atol=1e-10)

    def test_fallback_solves_whole(self, monkeypatch):
        # numpy.linalg.eigh is the unsplit reference a split is held to.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        result = eigh(h, 8)
        assert result.sectors == (h.dim,)
        values, _ = fallback(h.entries, 8)
        np.testing.assert_array_equal(result.values, values)

    def test_nan_in_one_sector_is_solver_error(self, monkeypatch):
        # The highest level returned is not kept, so a NaN there would sort
        # past the kept ones and vanish unverified; it must raise instead.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        solve, tops = eigen_mod._solve, []

        def poisoned(blocks, count, scales):
            (info, pairs), = solve(blocks, count, scales)
            top = max(range(len(pairs)), key=lambda s: max(pairs[s][0],
                                                            default=-np.inf))
            values, vectors = pairs[top]
            tops.append(values[-1])
            pairs[top] = np.r_[values[:-1], np.nan], vectors
            return [(info, pairs)]

        kept = eigh(h, 8).values
        monkeypatch.setattr(eigen_mod, "_solve", poisoned)
        with pytest.raises(SolverError, match="non-finite"):
            eigh(h, 8)
        assert tops[0] > kept.max()

    def test_e_levels_pair_bit_for_bit(self):
        # A row of E is solved once; its partner row repeats the levels.
        for point in ("X", "L"):
            result = eigh(split_x_matrix(make_cubic("DIAMOND", 5.431), 200,
                                         point), 16)
            pair = result.values[np.array(result.labels) == "E"]
            pair = pair[:len(pair) // 2 * 2]
            assert len(pair) >= 4
            np.testing.assert_array_equal(pair[0::2], pair[1::2])

    def test_flipped_character_is_solver_error(self, monkeypatch):
        # One character of one irrep flipped: not a representation, so the
        # blocks are never built, let alone solved.
        lattice = make_cubic("DIAMOND", 5.431)
        assert len(split_x_matrix(lattice).sectors) == 5
        compute = hamiltonian_mod.irreps

        def flipped(group):
            reps = compute(group)
            label, rep = reps[1]  # A2, whose matrices are its characters
            rep = rep.copy()
            rep[1] *= -1.0
            return [reps[0], (label, rep)] + reps[2:]

        monkeypatch.setattr(hamiltonian_mod, "irreps", flipped)
        with pytest.raises(SolverError, match="orthogonality"):
            split_x_matrix(lattice)

    def test_wrong_partner_is_solver_error(self):
        # The partner row of E carries row 0's vectors moved to other basis
        # rows: the repeated levels' vectors miss the whole H.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        e = [s for s in h.sectors if s.label == "E"][0]
        coef = e.coef.copy()
        coef[1] = np.roll(coef[1], 1, axis=0)
        sectors = tuple(e._replace(coef=coef) if s is e else s
                        for s in h.sectors)
        assert eigh(h, 8).sectors == eigh(h._replace(sectors=sectors),
                                          1).sectors
        with pytest.raises(SolverError):
            eigh(h._replace(sectors=sectors), 8)

    def test_wrong_sector_is_solver_error(self):
        # Sectors of a symmetry H does not have: the back-mapped pairs miss
        # the whole H, and the verification, not the energies, says so.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        rng = np.random.RandomState(60)
        noise = rng.standard_normal((h.dim, h.dim))
        v = h.matrix + 1e-2 * (noise + noise.T)
        with pytest.raises(SolverError, match="residual"):
            eigh(BlochMatrix.of(v, h.kinetic, h.sectors), 8)


def symmetric_v(group, rng, complex_entries):
    """A random Hermitian V (eV) that commutes with every Q of ``group``:
    the group average of Q R Q^T."""
    dim = group.perm.shape[1]
    r = rng.standard_normal((dim, dim))
    if complex_entries:
        r = r + 1j * rng.standard_normal((dim, dim))
    r = 2.0 * (r + r.conj().T)
    v = np.zeros_like(r)
    for perm, sign in zip(group.perm, group.signs[:, 0]):
        v[np.ix_(perm, perm)] += sign[:, None] * sign * r
    return v / len(group.perm)


_GROUPS = {}


def z05_group(point):
    """z05's dim-89 basis, a Bloch vector and its little group: C3v at L,
    C4v at X, O_h at Gamma and a mirror halfway along U-Gamma."""
    if point not in _GROUPS:
        lattice, rec, basis = z05_basis()
        pts = fcc_symmetry_points(5.431)
        kappa = 0.5 * pts["U"] if point == "U/2" else pts[point]
        crystal = operations(lattice, rec, basis)
        block = BlochMatrix.of(potential_matrix(Potential(0.5), lattice, rec,
                                                basis))
        _GROUPS[point] = basis, kappa, little_group(
            crystal, block, crystal.fixes(kappa[None])[0])
    return _GROUPS[point]


def record_by_row(monkeypatch):
    """The count of each k-point that eigh re-solves row by row."""
    by_row, resolved = eigen_mod._by_row, []

    def recording(blocks, count, scale):
        resolved.append(count)
        return by_row(blocks, count, scale)

    monkeypatch.setattr(eigen_mod, "_by_row", recording)
    return resolved


needs_drivers = pytest.mark.skipif(
    not eigen_mod._DRIVERS,
    reason="this numpy's LAPACK lacks a ?sytrd, ?stemr, ?ormtr or ?larrc "
           "symbol")


class TestSelection:
    """One LAPACK solve per k-point picks the lowest levels of all its irrep
    rows, each row's level once; partner rows then repeat them."""

    def test_one_solve_per_kpoint_for_min_bands_rows(self, monkeypatch):
        # At Gamma's first cutoff (dim 15) 8 rows hold 12 bands: fewer
        # levels can be asked for than bands are kept.
        lattice, rec, basis = z05_basis()
        pts = fcc_symmetry_points(5.431)
        path = make_kpath([("L", pts["L"]), ("Γ", pts["Γ"]),
                           ("X", pts["X"]), ("U", pts["U"])], 3)
        cutoffs = [16 * (math.pi / 5.431) ** 2, basis.g2.max()]
        solve, calls = eigen_mod._solve, []

        def recording(blocks, count, scales):  # one entry per k-point
            calls.extend([(sum(kinetic.shape[1] for _, kinetic in blocks),
                           count)] * len(scales))
            return solve(blocks, count, scales)

        monkeypatch.setattr(eigen_mod, "_solve", recording)

        def run():
            return (sweep(path, Potential(0.5), lattice, rec, basis,
                          12).energies,
                    [row.values for row in convergence_study(
                        pts["Γ"], Potential(0.5), lattice, rec, basis,
                        cutoffs, 12)])

        energies, ladder = run()
        assert len(calls) == len(path.kappas) + len(cutoffs)
        assert [count for _, count in calls] == [min(12, rows)
                                                 for rows, _ in calls]
        assert calls[len(path.kappas)] == (8, 8)
        # Those levels hold the lowest 12 of H whole.
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        whole, whole_ladder = run()
        np.testing.assert_allclose(energies, whole, rtol=0, atol=1e-10)
        np.testing.assert_allclose(ladder, whole_ladder, rtol=0, atol=1e-10)

    def test_free_levels_tie_across_rows(self):
        # V = 0: the levels of different rows tie exactly, and a row of a
        # d-dimensional irrep stands for d of them.
        cfg = load_config(preset_path("free"))
        bs = sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
                   cfg.num_bands)
        ref = free_electron_reference(cfg.path, cfg.lattice, cfg.recip,
                                      cfg.g2_max, cfg.num_bands)
        np.testing.assert_allclose(bs.energies, ref.energies, rtol=0,
                                   atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(point=st.sampled_from(["L", "X", "Γ", "U/2"]),
           complex_entries=st.booleans(), count=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_random_symmetric_v_matches_whole_spectrum(
            self, point, complex_entries, count, seed):
        # Counts 1 to 12 cut through E and T multiplets at will.
        basis, kappa, group = z05_group(point)
        v = symmetric_v(group, np.random.default_rng(seed), complex_entries)
        h = build(kappa, basis, BlochMatrix.of(v, sectors=row_blocks(v,
                                                                   group)))
        assert len(h.sectors) > 1
        result = eigh(h, count)
        whole = np.linalg.eigvalsh(h.entries)[:count]
        np.testing.assert_allclose(result.values, whole, rtol=0,
                                   atol=1e-10 * result.scale)

    @needs_drivers
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_levels_a_hair_apart_across_rows(self, monkeypatch,
                                             complex_entries):
        # ?stemr picks its levels across rows by bisection, to about
        # 1e-8 |E|: at a gap of 1e-9 |E| it returned the 9th level for the
        # 8th in 39 of these 100 real pairs and 48 of the complex ones.  A
        # Sturm count of the stacked tridiagonal finds the level passed
        # over, and the rows are solved one by one.
        resolved = record_by_row(monkeypatch)
        rng = np.random.default_rng(0)
        for trial in range(100):
            blocks, lowest = pair_tied_at_the_cut(rng, 1e-9, complex_entries)
            (info, pairs), = eigen_mod._solve(
                [(b, np.zeros((1, 20))) for b in blocks], 8,
                [max(np.abs(b).max() for b in blocks)])
            assert info == 0
            np.testing.assert_allclose(
                np.sort(np.concatenate([w for w, _ in pairs])), lowest,
                rtol=0, atol=1e-11, err_msg=f"trial {trial}")
            for b, (w, z) in zip(blocks, pairs):
                assert np.abs(b @ z - z * w).max() < 1e-10
        assert 0 < len(resolved) < 100

    @needs_drivers
    def test_nearly_free_electrons_match_the_fallback(self, monkeypatch,
                                                       tmp_path):
        # z05 at a = 1e-6 A: max|H| is kinetic, V a 1e-13 perturbation, so
        # rows' levels nearly tie across the cut; the one-call pick was off
        # by 3.7e-9 max|E| against H solved whole.
        resolved = record_by_row(monkeypatch)
        raw = json.loads(preset_path("z05").read_text(encoding="utf-8"))
        raw["lattice"]["a"] = 1e-6
        raw["path"]["samples_per_segment"] = 11
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        cfg = load_config(config)

        def energies():
            return sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                         cfg.basis, cfg.num_bands).energies

        split = energies()
        assert resolved
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        whole = energies()
        np.testing.assert_allclose(split, whole, rtol=0,
                                   atol=1e-10 * np.abs(whole).max())

    def test_no_preset_point_is_solved_by_row(self, monkeypatch):
        # free's rows tie exactly across the cut (at Gamma its 2nd to 9th
        # levels are the eight (111) waves, in four irreps); the Sturm
        # count's tolerance must not take a tie for a level passed over.
        resolved = record_by_row(monkeypatch)
        for name in ("free", "z025", "z05", "z20", "si_empirical"):
            cfg = load_config(preset_path(name))
            sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
                  cfg.num_bands)
            if cfg.cutoffs_units:
                convergence_study(cfg.converge_kappa, cfg.model, cfg.lattice,
                                  cfg.recip, cfg.basis, [
                                      c * cfg.shell_unit
                                      for c in cfg.cutoffs_units],
                                  cfg.num_bands)
            if name == "free":
                ref = free_electron_reference(
                    cfg.path, cfg.lattice, cfg.recip, cfg.g2_max,
                    cfg.num_bands + 1).energies
                assert np.any(ref[:, -1] == ref[:, -2])
        assert resolved == []

    @needs_drivers
    def test_count_stopped_by_a_nan_pivot_resolves_by_row(self, monkeypatch):
        # With no tolerance the Sturm point is the highest level returned,
        # which free's V = 0 puts exactly on a diagonal entry: ?larrc's pivot
        # there is 0, the next coupling is 0, and 0/0 stops the count short.
        # A count that differs from the levels returned at the point must
        # re-solve by row, not pass the pick.
        monkeypatch.setattr(eigen_mod, "SELECTION_TOL", 0.0)
        resolved = record_by_row(monkeypatch)
        cfg = load_config(preset_path("free"))

        def energies():
            return sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                         cfg.basis, cfg.num_bands).energies

        split = energies()
        assert resolved
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        whole = energies()  # max|E| kept is at most max|H|
        np.testing.assert_allclose(split, whole, rtol=0,
                                   atol=1e-10 * np.abs(whole).max())


def pair_tied_at_the_cut(rng, gap, complex_entries=False):
    """Two random Hermitian 20-row blocks, in random order, whose 8th and
    9th levels of 40 lie in different blocks ``gap`` |E| apart, each 1e-3
    or more from the 7th and 10th; and their lowest 8 levels."""
    while True:
        m = rng.standard_normal((2, 20, 20))
        if complex_entries:
            m = m + 1j * rng.standard_normal((2, 20, 20))
        a, b = m + m.conj().transpose(0, 2, 1)
        alpha, beta = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
        j = int(rng.integers(1, 8))  # alpha's j-th, beta's (9-j)-th
        b += (alpha[j - 1] + gap * abs(alpha[j - 1]) - beta[8 - j]) \
            * np.eye(20)
        levels = np.concatenate([alpha, np.linalg.eigvalsh(b)])
        order = np.argsort(levels)
        e = levels[order]
        if ((order[7] < 20) != (order[8] < 20) and abs(e[7]) > 0.5
                and 0.5 * gap < (e[8] - e[7]) / abs(e[7]) < 2 * gap
                and min(e[7] - e[6], e[9] - e[8]) > 1e-3):
            return ((a, b) if rng.integers(2) else (b, a)), e[:8]


def two_rows(n, cut, seed, complex_entries):
    """H = V + diag(T), a random V of no coupling between rows [0, cut)
    and [cut, n), with those rows as two irrep rows; T in [0, 20) eV."""
    rng = np.random.default_rng(seed)
    v = np.zeros((n, n), complex if complex_entries else float)
    sectors, every = [], np.arange(n)
    for label, rows in (("A", every[:cut]), ("B", every[cut:])):
        v[np.ix_(rows, rows)] = random_hermitian(
            len(rows), int(rng.integers(2**31)), complex_entries)
        inside = np.isin(every, rows)
        sectors.append(eigen_mod.Sector(
            label, rows, np.where(inside, every - rows[0], 0)[:, None],
            inside.astype(float)[None, :, None], v[np.ix_(rows, rows)]))
    return BlochMatrix.of(v, rng.uniform(0.0, 20.0, n), tuple(sectors))


def rows_and_batch(rng, sizes, complex_entries, v_power, powers):
    """V (max|V| near 2**v_power) of no coupling between rows of ``sizes``,
    those rows as irrep rows, and T for a batch: one row per power p in
    ``powers``, in [0, 4 * 2**p) eV."""
    n = sum(sizes)
    v = np.zeros((n, n), complex if complex_entries else float)
    sectors, every = [], np.arange(n)
    for label, start, m in zip("ABCDEF", np.cumsum(sizes) - sizes, sizes):
        rows = every[start:start + m]
        v[np.ix_(rows, rows)] = random_hermitian(
            m, int(rng.integers(2**31)), complex_entries) * 2.0 ** v_power
        inside = np.isin(every, rows)
        sectors.append(eigen_mod.Sector(
            label, rows, np.where(inside, every - rows[0], 0)[:, None],
            inside.astype(float)[None, :, None], v[np.ix_(rows, rows)]))
    kinetic = rng.uniform(0.0, 4.0, (len(powers), n)) * np.exp2(powers)[
        :, None]
    return v, kinetic, tuple(sectors)


def assert_batch_is_each_point(h, count):
    """eigh of a batch gives, point by point, eigh of that point alone, bit
    for bit; returns the batch's result."""
    batch = eigh(h, count)
    assert batch.values.shape == (len(h.kinetic), count)
    assert batch.vectors.shape == (len(h.kinetic), h.dim, count)
    for i, kinetic in enumerate(h.kinetic):
        one = eigh(h._replace(kinetic=kinetic), count)
        np.testing.assert_array_equal(batch.values[i], one.values)
        np.testing.assert_array_equal(batch.vectors[i], one.vectors)
        assert batch.labels[i] == one.labels
        assert batch.scale[i] == one.scale
        assert batch.residual[i] <= eigen_mod.RESIDUAL_TOL
        assert batch.orthonormality[i] <= eigen_mod.ORTHONORMALITY_TOL
        assert batch.sectors == one.sectors
        assert batch.hermiticity == one.hermiticity
    return batch


class TestBatch:
    """A 2-D kinetic diagonal is a batch of points sharing V: each point's
    pairs are those it gets alone, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           complex_entries=st.booleans(), v_power=st.integers(-30, 30),
           powers=st.lists(st.integers(-30, 30), min_size=1, max_size=8),
           strict=st.booleans(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_batch_equals_each_point(self, sizes, complex_entries, v_power,
                                     powers, strict, seed, data):
        # max|H| runs from 2^-30 to 2^30 within a batch, so its points are
        # scaled by different powers of two; with no selection tolerance
        # some points re-solve by row and their neighbours do not.
        count = data.draw(st.integers(1, sum(sizes)), label="count")
        v, kinetic, sectors = rows_and_batch(
            np.random.default_rng(seed), sizes, complex_entries, v_power,
            powers)
        with pytest.MonkeyPatch.context() as patch:
            if strict:
                patch.setattr(eigen_mod, "SELECTION_TOL", 0.0)
            assert_batch_is_each_point(BlochMatrix.of(v, kinetic, sectors),
                                       count)

    @needs_drivers
    def test_point_solved_by_row_inside_a_batch(self, monkeypatch):
        # z05's L-Gamma points 10-17 with no selection tolerance: some of
        # them re-solve by row, the rest do not, in one batch.
        monkeypatch.setattr(eigen_mod, "SELECTION_TOL", 0.0)
        resolved = record_by_row(monkeypatch)
        cfg = load_config(preset_path("z05"))
        kappas = cfg.path.kappas[10:18]
        crystal = operations(cfg.lattice, cfg.recip, cfg.basis)
        fixes = crystal.fixes(kappas)
        assert (fixes == fixes[0]).all()
        v = BlochMatrix.of(potential_matrix(cfg.model, cfg.lattice, cfg.recip,
                                            cfg.basis))
        h = build(kappas, cfg.basis, v._replace(sectors=row_blocks(
            v.matrix, little_group(crystal, v, fixes[0]))))
        assert eigh(h, 8).sectors == (28, 5, 28)
        assert 0 < len(resolved) < len(kappas)
        assert_batch_is_each_point(h, 8)

    def test_one_point_is_unbatched(self):
        # A 1-D T gives the fields of one solve; a batch of one has the
        # point axis.
        v, kinetic, sectors = rows_and_batch(np.random.default_rng(3),
                                             [5, 7], False, 0, [0])
        one = eigh(BlochMatrix.of(v, kinetic[0], sectors), 4)
        batch = eigh(BlochMatrix.of(v, kinetic, sectors), 4)
        assert one.values.shape == (4,) and batch.values.shape == (1, 4)
        assert one.vectors.shape == (12, 4)
        assert batch.vectors.shape == (1, 12, 4)
        assert isinstance(one.scale, float) and batch.scale.shape == (1,)
        assert isinstance(one.residual, float)
        assert batch.residual.shape == batch.orthonormality.shape == (1,)
        assert len(one.labels) == 4 and batch.labels == (one.labels,)

    def test_build_gives_a_batch_and_rejects_a_bad_one(self):
        lattice, rec, basis = z05_basis()
        v = potential_matrix(Potential(0.5), lattice, rec, basis)
        kappas = fcc_symmetry_points(5.431)["X"] * np.linspace(0, 1, 5)[
            :, None]
        h = build(kappas, basis, v)
        assert h.kinetic.shape == (5, basis.dim)
        for kappa, kinetic in zip(kappas, h.kinetic):
            np.testing.assert_array_equal(build(kappa, basis, v).kinetic,
                                          kinetic)
        np.testing.assert_array_equal(h.entries[2],
                                      build(kappas[2], basis, v).entries)
        for bad in (np.zeros((0, 3)), np.zeros((2, 2)), np.zeros((1, 1, 3)),
                    np.array([[0.0, np.nan, 0.0]])):
            with pytest.raises(hamiltonian_mod.AssemblyError,
                               match="bad Bloch vector"):
                build(bad, basis, v)

    def test_non_finite_point_fails_the_batch(self):
        v, kinetic, sectors = rows_and_batch(np.random.default_rng(4),
                                             [5, 7], False, 0, [0, 0, 0])
        kinetic[1, 3] = np.inf
        with pytest.raises(NonHermitianError, match="non-finite"):
            eigh(BlochMatrix.of(v, kinetic, sectors), 4)


@needs_drivers
class TestWorkspaces:
    """?sytrd reduces with a 16-column panel and ?ormtr back-transforms
    unblocked, with one word of work for each vector it applies."""

    @pytest.mark.parametrize("count", [8, 340])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_two_rows_match_fallback(self, monkeypatch, complex_entries,
                                     count):
        # count 340 = dim: every vector, as hamiltonian.irreps asks.
        h = two_rows(340, 200, 80, complex_entries)
        result = eigh(h, count)
        assert result.sectors == (200, 140)
        assert result.residual <= eigen_mod.RESIDUAL_TOL
        assert result.orthonormality <= eigen_mod.ORTHONORMALITY_TOL
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        whole = eigh(h, count)
        assert whole.sectors == (340,)
        np.testing.assert_allclose(result.values, whole.values, rtol=0,
                                   atol=1e-10)
        overlap = np.abs(np.sum(whole.vectors.conj() * result.vectors, 0))
        np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_row_with_no_level_solves(self, complex_entries):
        # The second row lies 100 eV up: its back-transform applies no
        # vector, on the workspace's floor of one word.
        a, b = (random_hermitian(30, seed, complex_entries)
                for seed in (81, 82))
        (info, pairs), = eigen_mod._solve(
            [(a, np.zeros((1, 30))), (b, np.full((1, 30), 100.0))], 8,
            [104.0])
        assert info == 0
        assert [z.shape for _, z in pairs] == [(30, 8), (30, 0)]
        np.testing.assert_allclose(pairs[0][0], np.linalg.eigvalsh(a)[:8],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("first", [0, 1])
    def test_two_rows_of_one(self, complex_entries, first):
        # n = 2 takes ?stemr's own 2 x 2 path, whose support indices name
        # the other row when it swaps the two levels: each level must still
        # reach its own row, with its unit vector.
        dtype = complex if complex_entries else float
        rows = [np.array([[0.5]], dtype), np.array([[-0.7]], dtype)]
        if first:
            rows.reverse()
        (info, pairs), = eigen_mod._solve(
            [(v, np.zeros((1, 1))) for v in rows], 1, [0.7])
        assert info == 0
        low = 1 - first
        assert [len(w) for w, _ in pairs] == [1 - low, low]
        np.testing.assert_array_equal(pairs[low][0], [-0.7])
        np.testing.assert_array_equal(np.abs(pairs[low][1]), [[1.0]])

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           complex_entries=st.booleans(), power=st.integers(-30, 30),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rows_of_any_size_and_scale(self, sizes, complex_entries, power,
                                        seed, data):
        # Regions of the one buffer that overlapped or fell short would
        # corrupt some row's levels or vectors.
        count = data.draw(st.integers(1, sum(sizes)), label="count")
        rng = np.random.default_rng(seed)
        blocks = [(random_hermitian(m, int(rng.integers(2**31)),
                                    complex_entries) * 2.0 ** power,
                   rng.uniform(0.0, 4.0, (1, m)) * 2.0 ** power)
                  for m in sizes]
        hs = [v + np.diag(kinetic[0]) for v, kinetic in blocks]
        scale = max(np.abs(h).max() for h in hs)
        (info, pairs), = eigen_mod._solve(blocks, count, [scale])
        assert info == 0
        lowest = np.sort(np.concatenate([np.linalg.eigvalsh(h)
                                         for h in hs]))[:count]
        np.testing.assert_allclose(
            np.sort(np.concatenate([w for w, _ in pairs])), lowest, rtol=0,
            atol=1e-12 * scale)
        for h, (w, z) in zip(hs, pairs):
            assert z.shape == (len(h), len(w))
            assert np.linalg.norm(h @ z - z * w, axis=0).max(
                initial=0.0) <= 1e-10 * scale

    def test_back_transform_workspace_is_its_vector_count(self, monkeypatch):
        seen = []

        def recording(stage, kind, cols):
            def call(*args):
                seen.append((kind, args[cols], args[-1]))
                return stage(*args)
            return call

        monkeypatch.setattr(eigen_mod, "_DRIVERS", {
            dtype: (recording(reduce, "reduce", 2), stemr,
                    recording(back, "back", 5), *rest)
            for dtype, (reduce, stemr, back, *rest)
            in eigen_mod._DRIVERS.items()})
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        eigh(h, 8)
        eigh(two_rows(340, 200, 80, True), 340)
        reduced = [(m, lwork) for kind, m, lwork in seen if kind == "reduce"]
        applied = [(p, lwork) for kind, p, lwork in seen if kind == "back"]
        assert [m for m, _ in reduced] == [len(s.rows) for s in h.sectors] \
            + [200, 140]
        assert all(lwork == 16 * m for m, lwork in reduced)
        assert sum(p for p, _ in applied[:-2]) == 8
        assert [p for p, _ in applied[-2:]] == [200, 140]
        assert all(lwork == max(1, p) for p, lwork in applied)
        assert any(p == 0 for p, _ in applied)


class TestErrors:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NonHermitianError):
            eigh(bad)
        # distinct from solver failure
        with pytest.raises(NonHermitianError) as excinfo:
            eigh(bad)
        assert not isinstance(excinfo.value, SolverError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_non_finite_rejected(self, bad, complex_entries):
        h = random_hermitian(4, seed=33, complex_entries=complex_entries)
        h[1, 2] = h[2, 1] = bad
        with pytest.raises(NonHermitianError):
            eigh(h)

    def test_non_square_rejected(self):
        with pytest.raises(NonHermitianError):
            eigh(np.zeros((2, 3)))

    def test_convergence_failure_is_solver_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(eigen_mod, "_solve", broken)
        with pytest.raises(SolverError):
            eigh(np.eye(3))

    def test_fallback_convergence_failure_is_solver_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(eigen_mod, "_DRIVERS", {})
        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(SolverError):
            eigh(np.eye(3))

    @pytest.mark.parametrize("info, found", [(2, 3), (0, 2), (-1011, 0)])
    def test_driver_failure_is_solver_error(self, monkeypatch, info, found):
        # info > 0: no convergence; m < count: a level went missing;
        # info < 0: LAPACKE rejected an argument or ran out of memory.
        solve = eigen_mod._solve

        def reporting(blocks, count, scales):
            return [(info, [(values[:found], vectors[:, :found])
                            for values, vectors in pairs])
                    for _, pairs in solve(blocks, count, scales)]

        monkeypatch.setattr(eigen_mod, "_solve", reporting)
        with pytest.raises(SolverError, match=f"info {info}, {found} of 3"):
            eigh(random_hermitian(6, seed=42), 3)

    @pytest.mark.parametrize("bad", ["values", "vectors"])
    def test_nan_pairs_are_solver_error(self, monkeypatch, bad):
        # LAPACK info 0 and the right count, but NaN figures: every test of
        # the contract must fail on NaN, not pass it.
        solve = eigen_mod._solve

        def poisoned(blocks, count, scales):
            if bad == "values":
                return [(info, [(np.full_like(values, np.nan), vectors)
                                for values, vectors in pairs])
                        for info, pairs in solve(blocks, count, scales)]
            return [(info, [(values, np.full_like(vectors, np.nan))
                            for values, vectors in pairs])
                    for info, pairs in solve(blocks, count, scales)]

        monkeypatch.setattr(eigen_mod, "_solve", poisoned)
        with pytest.raises(SolverError):
            eigh(np.diag([1.0, 2.0, 3.0]), 2)
        with pytest.raises(SolverError):
            eigh(np.diag([1.0, 2.0, 3.0]), 1)

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    def test_residual_bound_at_huge_scale(self, monkeypatch, shift):
        # ||H||_F overflows here; the bound is relative to max|H|, so exact
        # pairs pass and eigenvalues off by 1e-6 max|H| are caught.
        h = 1e200 * random_hermitian(6, seed=11)
        solve = eigen_mod._solve

        def shifted(blocks, count, scales):
            (info, pairs), = solve(blocks, count, scales)
            (v, kinetic), = blocks
            h = v + np.diag(kinetic[0])
            return [(info, [(values + shift * np.abs(h).max(), vectors)
                            for values, vectors in pairs])]

        monkeypatch.setattr(eigen_mod, "_solve", shifted)
        if shift:
            with pytest.raises(SolverError, match="residual"):
                eigh(h)
        else:
            assert np.all(np.isfinite(eigh(h).values))


# The binding as imported, read even where a test replaces eigen's.
THREADS = eigen_mod._THREADS
needs_threads = pytest.mark.skipif(
    THREADS is None,
    reason="numpy's OpenBLAS exports no scipy_openblas_get_num_threads64_ "
           "or scipy_openblas_set_num_threads64_")


def blas_threads():
    return THREADS[0]()


@pytest.fixture
def two_threads():
    """OpenBLAS at 2 threads for the test; the count found is put back."""
    get, put = THREADS
    before = get()
    put(2)
    yield
    put(before)


def record_threads(monkeypatch):
    """(block rows, thread count) for each block of each LAPACK call
    through eigh."""
    solve, seen = eigen_mod._solve, []

    def recording(blocks, count, scales):
        seen.extend((kinetic.shape[1], blas_threads())
                    for _, kinetic in blocks)
        return solve(blocks, count, scales)

    monkeypatch.setattr(eigen_mod, "_solve", recording)
    return seen


def z05_basis():
    """Diamond, its reciprocal lattice and the basis at g2_max 76."""
    lattice = make_cubic("DIAMOND", 5.431)
    rec = reciprocal_of(lattice)
    return lattice, rec, PlaneWaveBasis.from_cutoff(
        rec, 76 * (math.pi / 5.431) ** 2)


@needs_threads
@pytest.mark.usefixtures("two_threads")
class TestThreadScope:
    """OpenBLAS on one thread while a matrix whose largest block has fewer
    than 512 rows is solved; the caller's count otherwise and afterwards."""

    @pytest.mark.parametrize("n, inside", [
        (eigen_mod.ONE_THREAD_BELOW - 1, 1), (eigen_mod.ONE_THREAD_BELOW, 2)])
    def test_count_inside_the_solve(self, monkeypatch, n, inside):
        seen = record_threads(monkeypatch)
        eigh(random_hermitian(n, seed=70, complex_entries=False), 4)
        assert seen == [(n, inside)]
        assert blas_threads() == 2

    def test_every_row_block_solves_on_one_thread(self, monkeypatch):
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        seen = record_threads(monkeypatch)
        eigh(h, 8)
        assert [rows for rows, _ in seen] == [len(s.rows) for s in h.sectors]
        assert {count for _, count in seen} == {1}
        assert blas_threads() == 2

    def test_sweep_and_convergence_study_put_the_count_back(self,
                                                            monkeypatch):
        lattice, rec, basis = z05_basis()
        pts = fcc_symmetry_points(5.431)
        seen = record_threads(monkeypatch)
        sweep(make_kpath([("L", pts["L"]), ("Γ", pts["Γ"])], 3),
              Potential(0.5), lattice, rec, basis, 8)
        assert blas_threads() == 2
        convergence_study(pts["X"], Potential(0.5), lattice, rec, basis,
                          [16 * (math.pi / 5.431) ** 2, basis.g2.max()], 8)
        assert blas_threads() == 2
        assert seen and {count for _, count in seen} == {1}

    def test_solver_error_puts_the_count_back(self, monkeypatch):
        solve = eigen_mod._solve

        def poisoned(blocks, count, scales):
            assert blas_threads() == 1
            return [(info, [(np.full_like(values, np.nan), vectors)
                            for values, vectors in pairs])
                    for info, pairs in solve(blocks, count, scales)]

        monkeypatch.setattr(eigen_mod, "_solve", poisoned)
        with pytest.raises(SolverError, match="non-finite"):
            eigh(random_hermitian(30, seed=71), 4)
        assert blas_threads() == 2

    def test_interlacing_error_puts_the_count_back(self, monkeypatch):
        # The second cutoff's solve skips its lowest level, so E1 rises.
        lattice, rec, basis = z05_basis()
        solve, calls = bands_mod.eigh, []

        def skipping(h, count):
            calls.append(h)
            if len(calls) != 2:
                return solve(h, count)
            result = solve(h, count + 1)  # a batch of one cutoff
            return dataclasses.replace(result, values=result.values[:, 1:],
                                       vectors=result.vectors[:, :, 1:])

        monkeypatch.setattr(bands_mod, "eigh", skipping)
        with pytest.raises(SweepError, match="interlace"):
            convergence_study(fcc_symmetry_points(5.431)["X"], Potential(0.5),
                              lattice, rec, basis,
                              [16 * (math.pi / 5.431) ** 2, basis.g2.max()], 8)
        assert blas_threads() == 2

    def test_overlapping_callers_put_the_count_back(self, monkeypatch):
        # The first caller in leaves first: a save and restore per call
        # would put 2 back while the second still solves, and the second
        # would then leave the process at 1.
        solve = eigen_mod._solve
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        inside, errors = {}, []

        def staged(blocks, count, scales):
            if threading.current_thread().name == "first":
                first_in.set()
                assert second_in.wait(10)
            else:
                second_in.set()
                assert first_out.wait(10)
                inside["after the first left"] = blas_threads()
            return solve(blocks, count, scales)

        def call(seed, done=None):
            try:
                eigh(random_hermitian(40, seed), 4)
            except BaseException as exc:  # reported below
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()

        monkeypatch.setattr(eigen_mod, "_solve", staged)
        first = threading.Thread(target=call, args=(72, first_out),
                                 name="first")
        second = threading.Thread(target=call, args=(73,), name="second")
        first.start()
        assert first_in.wait(10)
        second.start()
        for thread in (first, second):
            thread.join(20)
            assert not thread.is_alive()
        assert errors == []
        assert inside == {"after the first left": 1}
        assert blas_threads() == 2

    def test_many_concurrent_callers_put_the_count_back(self):
        # More callers than cores, switching often: a lost update of the
        # depth would leave the process at 1 thread, or at 2 mid-solve.
        switch = sys.getswitchinterval()
        errors = []

        def calls(seed):
            try:
                for i in range(20):
                    eigh(random_hermitian(8 + i, seed), 3)
            except BaseException as exc:  # reported below
                errors.append(exc)

        workers = [threading.Thread(target=calls, args=(80 + i,))
                   for i in range(4)]
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert blas_threads() == 2

    @pytest.mark.parametrize("point, cutoff, whole, atol", [
        ("L", 200, False, 0), ("X", 200, False, 0), ("Γ", 200, False, 0),
        ("L", 120, True, 0), ("X", 120, True, 0),
        ("L", 200, True, 1e-12), ("X", 200, True, 1e-12)])
    def test_energies_without_the_binding(self, monkeypatch, point, cutoff,
                                          whole, atol):
        # One thread against two gives the same bits for every row block of
        # the tour at dim 339 (at most 110 rows) and for H whole at dim
        # 169.  Whole at dim 339, OpenBLAS's threaded reduction rounds
        # differently: the levels move by up to 1e-13 eV.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431), cutoff, point)
        if whole:
            h = h._replace(sectors=())
        scoped = eigh(h, 8)
        monkeypatch.setattr(eigen_mod, "_THREADS", None)
        seen = record_threads(monkeypatch)
        unscoped = eigh(h, 8)
        assert {count for _, count in seen} == {2}
        if atol:
            np.testing.assert_allclose(scoped.values, unscoped.values,
                                       rtol=0, atol=atol)
        else:
            np.testing.assert_array_equal(scoped.values, unscoped.values)
            np.testing.assert_array_equal(scoped.vectors, unscoped.vectors)
