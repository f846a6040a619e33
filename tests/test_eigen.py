import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from pwbands import eigen as eigen_mod
from pwbands.eigen import (BlochMatrix, EigenResult, NonHermitianError,
                           SolverError, eigh)
import pwbands.bands as bands_mod
import pwbands.hamiltonian as hamiltonian_mod
from pwbands.bands import SweepError, convergence_study, sweep
from pwbands.hamiltonian import (PlaneWaveBasis, build, little_group,
                                 operations, potential_matrix, row_blocks)
from pwbands.lattice import (RealLattice, fcc_symmetry_points, make_cubic,
                             make_kpath, reciprocal_of)
from pwbands.potential import Potential


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
            pytest.skip("this numpy's LAPACK has no ?syevr/?heevr symbols")

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
        lead = h.leading(dim)
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
        assert h.leading(h.dim) is h
        lead, alone = h.leading(27), BlochMatrix.of(h.matrix[:27, :27])
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
        # The other sector holds the lowest pairs, so a NaN would sort past
        # the kept ones and vanish unverified; it must raise instead.
        h = split_x_matrix(make_cubic("DIAMOND", 5.431))
        solve, calls = eigen_mod._solve, []

        def poisoned(v, kinetic, count):
            info, values, vectors = solve(v, kinetic, count)
            calls.append(len(kinetic))
            if len(calls) == 2:
                values = np.full_like(values, np.nan)
            return info, values, vectors

        monkeypatch.setattr(eigen_mod, "_solve", poisoned)
        with pytest.raises(SolverError, match="non-finite"):
            eigh(h, 8)

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

        def reporting(v, kinetic, count):
            _, values, vectors = solve(v, kinetic, count)
            return info, values[:found], vectors[:, :found]

        monkeypatch.setattr(eigen_mod, "_solve", reporting)
        with pytest.raises(SolverError, match=f"info {info}, {found} of 3"):
            eigh(random_hermitian(6, seed=42), 3)

    @pytest.mark.parametrize("bad", ["values", "vectors"])
    def test_nan_pairs_are_solver_error(self, monkeypatch, bad):
        # LAPACK info 0 and the right count, but NaN figures: every test of
        # the contract must fail on NaN, not pass it.
        solve = eigen_mod._solve

        def poisoned(v, kinetic, count):
            info, values, vectors = solve(v, kinetic, count)
            if bad == "values":
                return info, np.full_like(values, np.nan), vectors
            return info, values, np.full_like(vectors, np.nan)

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

        def shifted(v, kinetic, count):
            info, values, vectors = solve(v, kinetic, count)
            h = v + np.diag(kinetic)
            return info, values + shift * np.abs(h).max(), vectors

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
    """(block rows, thread count) at each LAPACK call through eigh."""
    solve, seen = eigen_mod._solve, []

    def recording(v, kinetic, count):
        seen.append((len(kinetic), blas_threads()))
        return solve(v, kinetic, count)

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

        def poisoned(v, kinetic, count):
            assert blas_threads() == 1
            info, values, vectors = solve(v, kinetic, count)
            return info, np.full_like(values, np.nan), vectors

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
            result = solve(h, count + 1)
            return dataclasses.replace(result, values=result.values[1:],
                                       vectors=result.vectors[:, 1:])

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

        def staged(v, kinetic, count):
            if threading.current_thread().name == "first":
                first_in.set()
                assert second_in.wait(10)
            else:
                second_in.set()
                assert first_out.wait(10)
                inside["after the first left"] = blas_threads()
            return solve(v, kinetic, count)

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
