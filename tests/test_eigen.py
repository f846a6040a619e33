import math

import numpy as np
import pytest

from pwbands import eigen as eigen_mod
from pwbands.eigen import (EigenResult, NonHermitianError, SolverError, eigh)
from pwbands.hamiltonian import PlaneWaveBasis, build, potential_matrix
from pwbands.lattice import (RealLattice, fcc_symmetry_points, make_cubic,
                             reciprocal_of)
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

        def reporting(a, count):
            _, values, vectors = solve(a, count)
            return info, values[:found], vectors[:, :found]

        monkeypatch.setattr(eigen_mod, "_solve", reporting)
        with pytest.raises(SolverError, match=f"info {info}, {found} of 3"):
            eigh(random_hermitian(6, seed=42), 3)

    @pytest.mark.parametrize("shift", [0.0, 1e-6])
    def test_residual_bound_at_huge_scale(self, monkeypatch, shift):
        # ||H||_F overflows here; the bound is relative to max|H|, so exact
        # pairs pass and eigenvalues off by 1e-6 max|H| are caught.
        h = 1e200 * random_hermitian(6, seed=11)
        solve = eigen_mod._solve

        def shifted(a, count):
            info, values, vectors = solve(a, count)
            return info, values + shift * np.abs(a).max(), vectors

        monkeypatch.setattr(eigen_mod, "_solve", shifted)
        if shift:
            with pytest.raises(SolverError, match="residual"):
                eigh(h)
        else:
            assert np.all(np.isfinite(eigh(h).values))
