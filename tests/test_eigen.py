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
    def test_empty_binding_table_falls_back(self, without_drivers,
                                            complex_entries):
        h = random_hermitian(30, seed=40, complex_entries=complex_entries)
        without_drivers()
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


def expand(sector, ys, partner):
    """(U_j y)^T for each row y of ys and its partner row j, slot by slot:
    the expansion ``eigen._lowest`` makes of the kept vectors."""
    coef = sector.coef  # a lone partner row's coefficients broadcast
    if len(coef) > 1:
        coef = coef[partner]
    xs = ys[:, sector.column[:, 0]] * coef[:, 0]
    for e in range(1, sector.column.shape[1]):
        xs += ys[:, sector.column[:, e]] * coef[:, e]
    return xs


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


def little_group_blocks(name):
    """V with the row blocks of each little group (other than the identity)
    of z05's L-G-X-U-G tour at dim 89, or of the converge ladder's X
    (Yukawa z 0.5, mu 1, diamond, dim 531)."""
    lattice = make_cubic("DIAMOND", 5.431)
    rec = reciprocal_of(lattice)
    if name == "z05-tour":
        cfg = load_config(preset_path("z05"))
        model, basis, kappas = cfg.model, cfg.basis, cfg.path.kappas
    else:
        model = Potential(0.5, mu=1.0)
        basis = PlaneWaveBasis.from_cutoff(rec, 248 * (math.pi / 5.431) ** 2)
        kappas = fcc_symmetry_points(5.431)["X"][None]
    block = BlochMatrix.of(potential_matrix(model, lattice, rec, basis))
    crystal = operations(lattice, rec, basis)
    fixes = {fixing.tobytes(): fixing for fixing in crystal.fixes(kappas)}
    blocks = [block._replace(sectors=row_blocks(block.matrix, little_group(
        crystal, block, fixing))) for fixing in fixes.values()]
    return [h for h in blocks if h.sectors]


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
            u = [expand(s, np.tile(np.eye(len(s.rows)), (len(s.coef), 1)),
                        np.repeat(np.arange(len(s.coef)), len(s.rows))).T
                 for s in h.sectors]
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

    @pytest.mark.parametrize("groups", ["z05-tour", "yukawa-ladder"])
    def test_straddle_bound_is_the_scan_at_every_dim(self, groups):
        # Every leading dim of each little group of z05's tour (dim 89),
        # and of the converge ladder's X group (dim 531): the row blocks
        # go exactly where a scan of the rows past the cut finds a nonzero
        # coefficient in a column whose orbit starts below it.
        for h in little_group_blocks(groups):
            for d, lead in enumerate(h.leading(range(1, h.dim + 1)), 1):
                straddles = False
                for s in h.sectors:
                    m = np.count_nonzero(s.rows < d)
                    straddles |= bool(np.any((s.coef[:, :, d:] != 0)
                                             & (s.column[d:].T < m)))
                assert (lead.sectors == ()) == straddles, d

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

    def test_fallback_solves_whole(self, without_drivers):
        # numpy.linalg.eigh is the unsplit reference a split is held to.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        without_drivers()
        result = eigh(h, 8)
        assert result.sectors == (h.dim,)
        values, _ = fallback(h.entries, 8)
        np.testing.assert_array_equal(result.values, values)

    def test_nan_in_one_sector_is_solver_error(self, solver):
        # The highest level returned is not kept, so a NaN there would sort
        # past the kept ones and vanish unverified; it must raise instead.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        kept = eigh(h, 8).values
        solver.inject("nan top")
        with pytest.raises(SolverError, match="non-finite"):
            eigh(h, 8)
        assert max(w.max(initial=-np.inf) for w in solver.calls[-1].values) \
            > kept.max()

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
        coef[1] = np.roll(coef[1], 1, axis=1)
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


def by_row(solver):
    """Each point that was re-solved row by row."""
    return [point for point in solver.calls if point.by_row]


needs_drivers = pytest.mark.skipif(
    not eigen_mod._DRIVERS,
    reason="this numpy's LAPACK lacks a ?sytrd, ?stemr, ?ormtr or ?larrc "
           "symbol")


class TestSelection:
    """One LAPACK solve per k-point picks the lowest levels of all its irrep
    rows, each row's level once; partner rows then repeat them."""

    def test_one_solve_per_kpoint_for_min_bands_rows(self, solver,
                                                      without_drivers):
        # At Gamma's first cutoff (dim 15) 8 rows hold 12 bands: fewer
        # levels can be asked for than bands are kept.
        lattice, rec, basis = z05_basis()
        pts = fcc_symmetry_points(5.431)
        path = make_kpath([("L", pts["L"]), ("Γ", pts["Γ"]),
                           ("X", pts["X"]), ("U", pts["U"])], 3)
        cutoffs = [16 * (math.pi / 5.431) ** 2, basis.g2.max()]

        def run():
            return (sweep(path, Potential(0.5), lattice, rec, basis,
                          12).energies,
                    [row.values for row in convergence_study(
                        pts["Γ"], Potential(0.5), lattice, rec, basis,
                        cutoffs, 12)])

        energies, ladder = run()
        calls = [(sum(point.rows), point.count) for point in solver.calls]
        assert len(calls) == len(path.kappas) + len(cutoffs)
        assert [count for _, count in calls] == [min(12, rows)
                                                 for rows, _ in calls]
        assert calls[len(path.kappas)] == (8, 8)
        # Those levels hold the lowest 12 of H whole.
        without_drivers()
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
    def test_levels_a_hair_apart_across_rows(self, solver, complex_entries):
        # ?stemr picks its levels across rows by bisection, to about
        # 1e-8 |E|: at a gap of 1e-9 |E| it returned the 9th level for the
        # 8th in 39 of these 100 real pairs and 48 of the complex ones.  A
        # Sturm count of the stacked tridiagonal finds the level passed
        # over, and the rows are solved one by one.
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
        assert 0 < len(by_row(solver)) < 100

    @needs_drivers
    def test_nearly_free_electrons_match_the_fallback(self, solver,
                                                       without_drivers,
                                                       tmp_path):
        # z05 at a = 1e-6 A: max|H| is kinetic, V a 1e-13 perturbation, so
        # rows' levels nearly tie across the cut; the one-call pick was off
        # by 3.7e-9 max|E| against H solved whole.
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
        assert by_row(solver)
        without_drivers()
        whole = energies()
        np.testing.assert_allclose(split, whole, rtol=0,
                                   atol=1e-10 * np.abs(whole).max())

    def test_no_preset_point_is_solved_by_row(self, solver):
        # free's rows tie exactly across the cut (at Gamma its 2nd to 9th
        # levels are the eight (111) waves, in four irreps); the Sturm
        # count's tolerance must not take a tie for a level passed over.
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
        assert by_row(solver) == []

    @needs_drivers
    def test_count_stopped_by_a_nan_pivot_resolves_by_row(self, monkeypatch,
                                                          solver,
                                                          without_drivers):
        # With no tolerance the Sturm point is the highest level returned,
        # which free's V = 0 puts exactly on a diagonal entry: ?larrc's pivot
        # there is 0, the next coupling is 0, and 0/0 stops the count short.
        # A count that differs from the levels returned at the point must
        # re-solve by row, not pass the pick.
        monkeypatch.setattr(eigen_mod, "SELECTION_TOL", 0.0)
        cfg = load_config(preset_path("free"))

        def energies():
            return sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip,
                         cfg.basis, cfg.num_bands).energies

        split = energies()
        assert by_row(solver)
        without_drivers()
        whole = energies()  # max|E| kept is at most max|H|
        np.testing.assert_allclose(split, whole, rtol=0,
                                   atol=1e-10 * np.abs(whole).max())


def lowest_by_loops(split, solved, count):
    """The kept levels, vectors and rows of each point as per-point loops
    pick them: every row's levels once per partner, by point, row, partner
    and level, lexsorted within each point, and each row's vectors of the
    whole batch expanded in every partner row."""
    found = np.array([[len(w) for w, _ in pairs] for _, pairs in solved])
    partners = [len(s.coef) for s in split]
    values = np.concatenate([pairs[s][0] for _, pairs in solved
                             for s, d in enumerate(partners)
                             for _ in range(d)])
    ys = [np.concatenate([pairs[s][1].T for _, pairs in solved])
          for s in range(len(split))]
    totals, ends = found.sum(axis=0).tolist(), [0] * len(split)
    spots, row = [], []
    for point in found.tolist():
        for s, (m, d) in enumerate(zip(point, partners)):
            for j in range(d):
                spots += range(ends[s] + j * totals[s],
                               ends[s] + j * totals[s] + m)
            row += [s] * (d * m)
            ends[s] += m
    spots, row = np.array(spots), np.array(row)
    levels = found @ partners
    order = np.lexsort((values, np.repeat(np.arange(len(levels)), levels)))
    keep = order[(np.cumsum(levels) - levels)[:, None] + np.arange(count)]
    xs = [expand(s, np.tile(y, (len(s.coef), 1)),
                 np.repeat(np.arange(len(s.coef)), len(y)))
          for s, y in zip(split, ys)]
    first = np.cumsum([len(x) for x in xs]) - [len(x) for x in xs]
    vectors = np.concatenate(xs)[(first[row] + spots)[keep.ravel()]]
    return (values[keep],
            vectors.reshape(len(levels), count, -1).transpose(0, 2, 1),
            row[keep])


@pytest.mark.parametrize("point", ["L", "X", "Γ", "U/2"])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_kept_levels_are_the_loops_picks(solver, point, complex_entries):
    # Levels drawn from a few values, so that ties across rows, partners
    # and levels of one row are many: the one sort over the batch keeps
    # the levels, vectors and labels the per-point loops kept, bit for
    # bit.
    basis, kappa, group = z05_group(point)
    rng = np.random.default_rng(len(point) + 7 * complex_entries)
    split = row_blocks(symmetric_v(group, rng, complex_entries), group)
    rows = [len(s.rows) for s in split]
    for count in (1, 5, 12):
        want, points = min(count, sum(rows)), 9
        solved = []
        for _ in range(points):
            taken = rng.multinomial(want, np.array(rows) / sum(rows))
            while np.any(taken > rows):  # no row gives more than it has
                taken = rng.multinomial(want, np.array(rows) / sum(rows))
            solved.append((0, [(np.sort(rng.integers(0, 4, p) / 4.0),
                                rng.standard_normal((m, p)) * (
                                    1 + 1j * complex_entries))
                               for m, p in zip(rows, taken)]))
        solver.inject("answer", solved)
        values, vectors, labels = eigen_mod._lowest(
            split, np.zeros((points, basis.dim)), count, np.ones(points))
        ref_values, ref_vectors, ref_rows = lowest_by_loops(split, solved,
                                                            count)
        np.testing.assert_array_equal(values, ref_values)
        assert vectors.tobytes() == ref_vectors.tobytes()
        assert labels == tuple(tuple(split[r].label for r in point)
                               for point in ref_rows.tolist())


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
            inside.astype(float)[None, None, :], v[np.ix_(rows, rows)]))
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
            inside.astype(float)[None, None, :], v[np.ix_(rows, rows)]))
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
    def test_point_solved_by_row_inside_a_batch(self, monkeypatch, solver):
        # z05's L-Gamma points 10-17 with no selection tolerance: some of
        # them re-solve by row, the rest do not, in one batch.
        monkeypatch.setattr(eigen_mod, "SELECTION_TOL", 0.0)
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
        assert 0 < len(by_row(solver)) < len(kappas)
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
    def test_two_rows_match_fallback(self, without_drivers, complex_entries,
                                     count):
        # count 340 = dim: every vector, as hamiltonian.irreps asks.
        h = two_rows(340, 200, 80, complex_entries)
        result = eigh(h, count)
        assert result.sectors == (200, 140)
        assert result.residual <= eigen_mod.RESIDUAL_TOL
        assert result.orthonormality <= eigen_mod.ORTHONORMALITY_TOL
        without_drivers()
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

        # Made first: its group's irreps, solved by LAPACK once a process,
        # are not H's.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        monkeypatch.setattr(eigen_mod, "_DRIVERS", {
            dtype: (recording(reduce, "reduce", 2), stemr,
                    recording(back, "back", 5), *rest)
            for dtype, (reduce, stemr, back, *rest)
            in eigen_mod._DRIVERS.items()})
        eigh(h, 8)
        eigh(two_rows(340, 200, 80, True), 340)
        reduced = [(m, lwork) for kind, m, lwork in seen if kind == "reduce"]
        applied = [(p, lwork) for kind, p, lwork in seen if kind == "back"]
        assert [m for m, _ in reduced] == [len(s.rows) for s in h.sectors] \
            + [200, 140]
        assert all(lwork == 16 * m for m, lwork in reduced)
        assert sum(p for p, _ in applied[:-2]) == 8
        assert [p for p, _ in applied[-2:]] == [200, 140]
        assert all(lwork == p > 0 for p, lwork in applied)
        # A row that holds no returned vector is not transformed.
        assert len(applied) - 2 < len(h.sectors)

    @pytest.mark.parametrize("where", ["tour", "Γ"])
    def test_each_point_calls_each_stage_once_a_row(self, monkeypatch,
                                                    solver, where):
        # Per point: a reduction of each row, one ?stemr, one Sturm count
        # if there are rows to pick across, and a back-transform of each
        # row that holds a returned vector, of those vectors.
        calls = []

        def counting(stage, name):
            def call(*args):
                if solver.inside:  # not the little groups' irreps
                    calls.append((name, args))
                return stage(*args)
            return call

        monkeypatch.setattr(eigen_mod, "_DRIVERS", {
            dtype: tuple(map(counting, stages,
                             ("reduce", "stemr", "back", "sturm")))
            for dtype, stages in eigen_mod._DRIVERS.items()})
        if where == "tour":
            cfg = load_config(preset_path("z05"))
            assert cfg.basis.dim == 89
            sweep(cfg.path, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
                  cfg.num_bands)
            assert len(solver.calls) == len(cfg.path.kappas)
        else:
            h = split_x_matrix(make_cubic("DIAMOND", 5.431), point="Γ")
            assert (h.dim, len(h.sectors)) == (89, 8)
            eigh(h, 8)
            assert len(solver.calls) == 1
        calls = iter(calls)
        for sizes, found in ((p.rows, [len(w) for w in p.values])
                             for p in solver.calls):
            expected = [("reduce", m) for m in sizes] + [("stemr", None)] \
                + [("sturm", None)] * (len(sizes) > 1) + [
                    ("back", (m, p)) for m, p in zip(sizes, found) if p]
            got = [next(calls) for _ in expected]
            assert [(name, args[2] if name == "reduce" else
                     (args[4], args[5]) if name == "back" else None)
                    for name, args in got] == expected
        assert next(calls, None) is None


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

    def test_convergence_failure_is_solver_error(self, solver):
        solver.inject("raise")
        with pytest.raises(SolverError):
            eigh(np.eye(3))

    def test_fallback_convergence_failure_is_solver_error(self, monkeypatch,
                                                          without_drivers):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        without_drivers()
        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(SolverError):
            eigh(np.eye(3))

    @pytest.mark.parametrize("info, found", [(2, 3), (0, 2), (-1011, 0)])
    def test_driver_failure_is_solver_error(self, solver, info, found):
        # info > 0: no convergence; m < count: a level went missing;
        # info < 0: LAPACKE rejected an argument or ran out of memory.
        solver.inject("info", info)
        solver.inject("drop", 3 - found)
        with pytest.raises(SolverError, match=f"info {info}, {found} of 3"):
            eigh(random_hermitian(6, seed=42), 3)

    @pytest.mark.parametrize("bad", ["values", "vectors"])
    def test_nan_pairs_are_solver_error(self, solver, bad):
        # LAPACK info 0 and the right count, but NaN figures: every test of
        # the contract must fail on NaN, not pass it.
        solver.inject(f"nan {bad}")
        with pytest.raises(SolverError):
            eigh(np.diag([1.0, 2.0, 3.0]), 2)
        with pytest.raises(SolverError):
            eigh(np.diag([1.0, 2.0, 3.0]), 1)

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    def test_residual_bound_at_huge_scale(self, solver, shift):
        # ||H||_F overflows here; the bound is relative to max|H|, so exact
        # pairs pass and eigenvalues off by 1e-6 max|H| are caught.
        h = 1e200 * random_hermitian(6, seed=11)
        solver.inject("shift", shift)
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


def threads_seen(solver):
    """(block rows, thread count) for each block of each LAPACK call
    through eigh."""
    return [(rows, point.threads) for point in solver.calls
            for rows in point.rows]


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
    def test_count_inside_the_solve(self, solver, n, inside):
        eigh(random_hermitian(n, seed=70, complex_entries=False), 4)
        assert threads_seen(solver) == [(n, inside)]
        assert blas_threads() == 2

    def test_every_row_block_solves_on_one_thread(self, solver):
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        eigh(h, 8)
        seen = threads_seen(solver)
        assert [rows for rows, _ in seen] == [len(s.rows) for s in h.sectors]
        assert {count for _, count in seen} == {1}
        assert blas_threads() == 2

    def test_sweep_and_convergence_study_put_the_count_back(self, solver):
        lattice, rec, basis = z05_basis()
        pts = fcc_symmetry_points(5.431)
        sweep(make_kpath([("L", pts["L"]), ("Γ", pts["Γ"])], 3),
              Potential(0.5), lattice, rec, basis, 8)
        assert blas_threads() == 2
        convergence_study(pts["X"], Potential(0.5), lattice, rec, basis,
                          [16 * (math.pi / 5.431) ** 2, basis.g2.max()], 8)
        assert blas_threads() == 2
        seen = threads_seen(solver)
        assert seen and {count for _, count in seen} == {1}

    def test_solver_error_puts_the_count_back(self, solver):
        solver.inject("nan values")
        with pytest.raises(SolverError, match="non-finite"):
            eigh(random_hermitian(30, seed=71), 4)
        assert threads_seen(solver) == [(30, 1)]
        assert blas_threads() == 2

    def test_interlacing_error_puts_the_count_back(self, bands_eigh):
        # The second cutoff's solve skips its lowest level, so E1 rises.
        lattice, rec, basis = z05_basis()
        bands_eigh.inject("skip", call=2)
        with pytest.raises(SweepError, match="interlace"):
            convergence_study(fcc_symmetry_points(5.431)["X"], Potential(0.5),
                              lattice, rec, basis,
                              [16 * (math.pi / 5.431) ** 2, basis.g2.max()], 8)
        assert blas_threads() == 2

    def test_overlapping_callers_put_the_count_back(self, solver):
        # The first caller in leaves first: a save and restore per call
        # would put 2 back while the second still solves, and the second
        # would then leave the process at 1.
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        inside, errors = {}, []

        def staged():
            if threading.current_thread().name == "first":
                first_in.set()
                assert second_in.wait(10)
            else:
                second_in.set()
                assert first_out.wait(10)
                inside["after the first left"] = blas_threads()

        def call(seed, done=None):
            try:
                eigh(random_hermitian(40, seed), 4)
            except BaseException as exc:  # reported below
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()

        solver.inject("run", staged)
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
    def test_energies_without_the_binding(self, monkeypatch, solver, point,
                                          cutoff, whole, atol):
        # One thread against two gives the same bits for every row block of
        # the tour at dim 339 (at most 110 rows) and for H whole at dim
        # 169.  Whole at dim 339, OpenBLAS's threaded reduction rounds
        # differently: the levels move by up to 1e-13 eV.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431), cutoff, point)
        if whole:
            h = h._replace(sectors=())
        scoped = eigh(h, 8)
        monkeypatch.setattr(eigen_mod, "_THREADS", None)
        solver.calls.clear()
        unscoped = eigh(h, 8)
        assert {count for _, count in threads_seen(solver)} == {2}
        if atol:
            np.testing.assert_allclose(scoped.values, unscoped.values,
                                       rtol=0, atol=atol)
        else:
            np.testing.assert_array_equal(scoped.values, unscoped.values)
            np.testing.assert_array_equal(scoped.vectors, unscoped.vectors)
