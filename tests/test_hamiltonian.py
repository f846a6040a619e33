import math
import tracemalloc

import numpy as np
import pytest

from pwbands.cli import load_config
from pwbands.eigen import BlochMatrix, NonHermitianError, eigh
from pwbands.hamiltonian import (SYMMETRY_TOL, AssemblyError,
                                 PlaneWaveBasis, _symmetry, build,
                                 differences, little_group, operations,
                                 potential_matrix, row_blocks)
from pwbands.lattice import (RealLattice, cartesian, cubic_operations,
                             fcc_symmetry_points, make_cubic, reciprocal_of,
                             shell_index)
from pwbands.potential import HBAR2_OVER_2M, Potential, matrix_element
from pwbands.presets import PRESETS, preset_path

A_SI = 5.431
SHELL = (math.pi / A_SI) ** 2
TWO_PI = 2.0 * math.pi
FIG4A_TABLE = {0: -9.50, 12: 2.42, 32: 0.80, 44: -0.82, 64: 0.88, 76: 0.00}


def hamiltonian(kappa, basis, model, lat, rec):
    """Bloch matrix at kappa, assembling the potential block on the way."""
    return build(kappa, basis, potential_matrix(model, lat, rec, basis))


def non_centered():
    """FCC with offsets {0, (a/4)(1,1,1)}: no inversion centre at the origin,
    so structure factors, and V, are genuinely complex."""
    fcc = make_cubic("FCC", A_SI)
    return RealLattice(fcc.a1, fcc.a2, fcc.a3,
                       (np.zeros(3), (A_SI / 4.0) * np.ones(3)),
                       lattice_constant=A_SI)


@pytest.fixture(scope="module")
def diamond():
    lat = make_cubic("DIAMOND", A_SI)
    return lat, reciprocal_of(lat)


@pytest.fixture(scope="module")
def basis12(diamond):
    _, rec = diamond
    return PlaneWaveBasis.from_cutoff(rec, 12.0 * SHELL)


@pytest.fixture(scope="module")
def basis76(diamond):
    _, rec = diamond
    return PlaneWaveBasis.from_cutoff(rec, 76.0 * SHELL)


class TestBasis:
    def test_dim_matches_enumeration_count(self, basis76):
        assert basis76.dim == 89

    def test_starts_at_origin(self, basis76):
        assert tuple(basis76.coeffs[0]) == (0, 0, 0)

    def test_arrays_agree(self, diamond, basis76):
        _, rec = diamond
        assert basis76.coeffs.shape == basis76.cart.shape == (89, 3)
        np.testing.assert_array_equal(basis76.cart,
                                      cartesian(rec, basis76.coeffs))

    def test_single_vector_basis(self, diamond):
        _, rec = diamond
        basis = PlaneWaveBasis.from_cutoff(rec, 0.0)
        assert basis.dim == 1

    def test_g2_is_squared_norm(self, basis76):
        np.testing.assert_allclose(
            basis76.g2, np.linalg.norm(basis76.cart, axis=1) ** 2,
            rtol=1e-14)

    @pytest.mark.parametrize("kind, a", [("SC", 3.7), ("BCC", 7.9),
                                         ("FCC", 5.431), ("DIAMOND", 5.431)])
    def test_smaller_cutoff_is_a_leading_block(self, kind, a):
        # enumerate_g's order nests the bases, so the basis at a smaller
        # cutoff, and its potential block, are leading blocks of the
        # larger ones, bit for bit.  Stride 4 lands on shells exactly.
        lat = make_cubic(kind, a)
        rec = reciprocal_of(lat)
        model = Potential(0.5, mu=0.3, overrides=FIG4A_TABLE)
        shell = (math.pi / a) ** 2
        big = PlaneWaveBasis.from_cutoff(rec, 120 * shell)
        v = potential_matrix(model, lat, rec, big)
        for units in range(0, 121, 4):
            small = PlaneWaveBasis.from_cutoff(rec, units * shell)
            sub = big.truncate(units * shell)
            assert sub.dim == small.dim
            assert np.array_equal(sub.coeffs, small.coeffs)
            assert np.array_equal(sub.cart, small.cart)
            assert np.array_equal(potential_matrix(model, lat, rec, small),
                                  v[:sub.dim, :sub.dim])


class TestBuild:
    def test_free_particle_is_diagonal(self, diamond, basis76):
        lat, rec = diamond
        kappa = np.array([0.2, -0.1, 0.3])
        h = hamiltonian(kappa, basis76, Potential(0.0), lat, rec)
        entries = h.entries
        off = entries - np.diag(entries.diagonal())
        assert np.abs(off).max() == 0.0
        expected = HBAR2_OVER_2M * np.sum((kappa + basis76.cart) ** 2, axis=1)
        np.testing.assert_allclose(entries.diagonal().real, expected,
                                   rtol=1e-12)

    def test_real_symmetric_at_gamma(self, diamond, basis76):
        # The centered diamond basis keeps every structure factor real.
        lat, rec = diamond
        h = hamiltonian(np.zeros(3), basis76, Potential(0.5), lat, rec)
        assert np.abs(h.entries.imag).max() < 1e-12
        np.testing.assert_allclose(h.entries, h.entries.T, atol=1e-12)

    def test_dim_field(self, diamond, basis76):
        lat, rec = diamond
        h = hamiltonian(np.zeros(3), basis76, Potential(0.5), lat, rec)
        assert h.dim == basis76.dim == h.entries.shape[0]

    def test_hermiticity(self, diamond, basis76):
        lat, rec = diamond
        rng = np.random.RandomState(11)
        for _ in range(3):
            kappa = (TWO_PI / A_SI) * rng.uniform(-0.5, 0.5, size=3)
            h = hamiltonian(kappa, basis76, Potential(1.0), lat, rec).entries
            dev = np.abs(h - h.conj().T).max()
            assert dev <= 1e-12 * np.abs(h).max()

    def test_entries_match_scalar_matrix_element(self, diamond):
        # The gathered block against one scalar matrix_element call per
        # pair, on the diamond lattice (real V) and on the non-centred one
        # (complex V), which must come out exactly Hermitian.
        kappa = np.array([0.1, 0.0, -0.2])
        for lat in (diamond[0], non_centered()):
            rec = reciprocal_of(lat)
            basis = PlaneWaveBasis.from_cutoff(rec, 12.0 * SHELL)
            for model in (Potential(0.25),
                          Potential(0.1, overrides=FIG4A_TABLE,
                                    override_mode="form_factor")):
                h = hamiltonian(kappa, basis, model, lat, rec).entries
                np.testing.assert_array_equal(h, h.conj().T)
                for i, gi in enumerate(basis.coeffs):
                    for j, gj in enumerate(basis.coeffs):
                        expected = matrix_element(model, lat, rec, gi - gj)
                        if i == j:
                            expected += HBAR2_OVER_2M * float(
                                np.sum((kappa + basis.cart[i]) ** 2))
                        assert h[i, j] == pytest.approx(expected, abs=1e-12)

    def test_precomputed_potential_matches(self, diamond, basis12):
        # A block shared across k-points gives what a fresh one gives:
        # build copies V and adds the kinetic diagonal, leaving V intact.
        lat, rec = diamond
        model = Potential(0.7)
        kappa = np.array([0.3, 0.2, 0.1])
        v = potential_matrix(model, lat, rec, basis12)
        build(np.zeros(3), basis12, v)
        h1 = hamiltonian(kappa, basis12, model, lat, rec)
        h2 = build(kappa, basis12, v)
        np.testing.assert_array_equal(h1.entries, h2.entries)
        kinetic = HBAR2_OVER_2M * np.sum((kappa + basis12.cart) ** 2, axis=1)
        np.testing.assert_array_equal(h2.entries, v + np.diag(kinetic))

    def test_rejects_bad_kappa(self, diamond, basis12):
        lat, rec = diamond
        with pytest.raises(AssemblyError):
            hamiltonian(np.array([np.nan, 0.0, 0.0]), basis12, Potential(0.0),
                        lat, rec)

    def test_non_centered_basis_gives_complex_hermitian(self):
        # Offsets {0, (a/4)(1,1,1)} produce genuinely complex couplings;
        # the complex path must assemble and solve.
        lat = non_centered()
        rec = reciprocal_of(lat)
        basis = PlaneWaveBasis.from_cutoff(rec, 12.0 * SHELL)
        h = hamiltonian(np.zeros(3), basis, Potential(0.5), lat, rec)
        assert np.abs(h.entries.imag).max() > 1e-3
        result = eigh(h)
        assert np.all(np.diff(result.values) >= 0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_diamond_presets_give_real_potential(self, name, basis12):
        # The diamond origin is an inversion centre, so V is exactly real
        # and the Hamiltonian is real symmetric.
        cfg = load_config(preset_path(name))
        v = potential_matrix(cfg.model, cfg.lattice, cfg.recip, basis12)
        assert v.dtype == np.float64
        h = build(np.array([0.3, 0.2, 0.1]), basis12, v)
        assert h.entries.dtype == np.float64
        np.testing.assert_array_equal(h.entries, h.entries.T)

    @pytest.mark.parametrize("cutoff", [0, 44], ids=["dim-1", "dim-51"])
    @pytest.mark.parametrize("checked", [True, False],
                             ids=["checked", "bare"])
    def test_rejects_a_basis_not_of_the_blocks_dim(self, diamond, basis76,
                                                   cutoff, checked):
        # V has 89 rows; a smaller basis cannot carry them.
        lat, rec = diamond
        v = potential_matrix(Potential(0.5), lat, rec, basis76)
        small = basis76.truncate(cutoff * SHELL)
        with pytest.raises(AssemblyError,
                           match=f"basis dim {small.dim} is not V's 89"):
            build(np.zeros(3), small, BlochMatrix.of(v) if checked else v)

    def test_keeps_the_blocks_irrep_rows(self, diamond, basis76):
        # The rows a sweep attaches to V once reach eigh through build.
        lat, rec = diamond
        v = BlochMatrix.of(potential_matrix(Potential(0.5), lat, rec, basis76))
        crystal = operations(lat, rec, basis76)
        x = fcc_symmetry_points(A_SI)["X"]
        split = v._replace(sectors=row_blocks(v.matrix, little_group(
            crystal, v, crystal.fixes(x[None])[0])))
        h = build(x, basis76, split)
        assert h.sectors is split.sectors and len(h.sectors) == 5  # C4v
        assert eigh(h, 8).sectors == tuple(len(s.rows) for s in h.sectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_potential(self, diamond, basis12, bad):
        # The block's figures carry the NaN/inf; eigh rejects it per solve.
        lat, rec = diamond
        v = potential_matrix(Potential(0.5), lat, rec, basis12)
        v[1, 2] = v[2, 1] = bad
        with pytest.raises(NonHermitianError):
            eigh(build(np.zeros(3), basis12, v))


class TestStructureProperties:
    def test_translation_covariance(self, diamond):
        # Spectra at kappa and kappa - G0 agree once the cutoff is large
        # enough that truncation asymmetry is below tolerance.
        lat, rec = diamond
        model = Potential(5e-4)
        basis = PlaneWaveBasis.from_cutoff(rec, 250.0 * SHELL)
        kappa = (TWO_PI / A_SI) * np.array([0.3, 0.1, -0.2])
        g0 = cartesian(rec, (1, 0, 0))
        v = potential_matrix(model, lat, rec, basis)
        e1 = eigh(build(kappa, basis, v)).values
        e2 = eigh(build(kappa - g0, basis, v)).values
        assert np.abs(e1[:8] - e2[:8]).max() < 1e-8

    def test_permutation_of_basis_preserves_spectrum(self, diamond, basis12):
        # Entries depend only on coefficient differences, so conjugating
        # by a permutation leaves the eigenvalues fixed.
        lat, rec = diamond
        h = hamiltonian(np.array([0.2, 0.1, 0.0]), basis12, Potential(0.8),
                        lat, rec).entries
        rng = np.random.RandomState(5)
        perm = rng.permutation(h.shape[0])
        p = np.eye(h.shape[0])[perm]
        permuted = p @ h @ p.T
        e1 = eigh(h).values
        e2 = eigh(permuted).values
        np.testing.assert_allclose(e1, e2, atol=1e-10)

    def test_shell16_couplings_vanish(self, diamond, basis76):
        # The structure factor kills the 16 (pi/a)^2 shell, so no
        # assembled matrix carries those couplings.
        lat, rec = diamond
        h = hamiltonian(np.zeros(3), basis76, Potential(1.0), lat, rec).entries
        checked = 0
        for i, gi in enumerate(basis76.coeffs):
            for j, gj in enumerate(basis76.coeffs):
                if i == j:
                    continue
                dg = cartesian(rec, gi - gj)
                if shell_index(float(dg @ dg), A_SI) == 16:
                    assert abs(h[i, j]) < 1e-12
                    checked += 1
        assert checked > 0


def scanned_symmetry(block, perm, signs):
    """The dim^2 scan the table test replaced: the first row of ``signs``
    (none zero) with which Q V Q^T = V over every entry of V, by bands of
    64 rows, or -1."""
    v = block.matrix
    bound = SYMMETRY_TOL * max(block.off_max, np.abs(block.diag).max())
    for t, sign in enumerate(signs if np.isfinite(bound) else ()):
        if not sign.all():
            continue
        for start in range(0, len(perm), 64):
            band = slice(start, start + 64)
            image = v[perm[band]][:, perm] * sign * sign[band, None]
            if not np.abs(image - v[band]).max() <= bound:
                break
        else:
            return t
    return -1


def searched_perm(lattice, recip, basis):
    """The image rows of each R that maps the basis onto itself, found by
    the sorted-key search the box lookup replaced."""
    ops, _ = cubic_operations(lattice)
    m = recip.matrix @ ops.transpose(0, 2, 1) @ np.linalg.inv(recip.matrix)
    whole = np.abs(m - np.rint(m)).max(axis=(1, 2)) <= 1e-9
    base = 6 * np.abs(basis.coeffs).max() * round(np.abs(m).max()) + 1
    key = basis.coeffs @ (np.rint(m) @ [base**2, base, 1]).astype(int).T
    order = np.argsort(key[:, 0])
    perm = order[np.searchsorted(key[order, 0], key.T).clip(max=len(key) - 1)]
    return perm[whole & np.all(key[perm, 0] == key.T, axis=1)]


# Cohen and Bergstresser's silicon form factors (Phys. Rev. 141, 789, 1966):
# -0.21, 0.04 and 0.08 Ry on the 3, 8 and 11 (2 pi/a)^2 shells.
COHEN_BERGSTRESSER = Potential(0.0, overrides={12: -2.857, 32: 0.544,
                                               44: 1.088},
                               override_mode="form_factor")


def symmetry_fixtures():
    """(id, model, lattice, recip, basis, the set of t picked over O_h):
    the five presets at their own cutoff, Cohen-Bergstresser form factors
    at dim 229, the non-centred FCC (complex V), and z05 on bases of dim 1
    and 9 (cutoffs 0 and 12).  Diamond's glides and screws need a t other
    than 0 for 36 of the 48 operations (si_empirical's element-mode table
    is symmorphic), and the non-centred FCC loses half of them, so every
    answer is reached."""
    fixtures = []
    diamond_picks = {0, 1, 2}
    for name in PRESETS:
        cfg = load_config(preset_path(name))
        fixtures.append((name, cfg.model, cfg.lattice, cfg.recip, cfg.basis,
                         {0} if name in ("free", "si_empirical")
                         else diamond_picks))
    lat = make_cubic("DIAMOND", A_SI)
    rec = reciprocal_of(lat)
    fixtures.append(("cohen-bergstresser", COHEN_BERGSTRESSER, lat, rec,
                     PlaneWaveBasis.from_cutoff(rec, 140 * SHELL),
                     diamond_picks))
    odd = non_centered()
    odd_rec = reciprocal_of(odd)
    fixtures.append(("non-centred", Potential(0.5), odd, odd_rec,
                     PlaneWaveBasis.from_cutoff(odd_rec, 44 * SHELL), {0, -1}))
    for cutoff, picks in ((0, {0}), (12, diamond_picks)):
        fixtures.append((f"z05-{cutoff}", Potential(0.5), lat, rec,
                         PlaneWaveBasis.from_cutoff(rec, cutoff * SHELL),
                         picks))
    return fixtures


SYMMETRY_FIXTURES = symmetry_fixtures()


class TestSymmetryOnTheTable:
    """Each generator is tested on V's table (V at one pair of rows per
    coefficient difference), not on V's dim^2 entries."""

    @pytest.mark.parametrize("fixture", SYMMETRY_FIXTURES,
                             ids=[f[0] for f in SYMMETRY_FIXTURES])
    def test_table_test_picks_what_the_scan_picks(self, fixture):
        _, model, lat, rec, basis, answers = fixture
        block = BlochMatrix.of(potential_matrix(model, lat, rec, basis))
        crystal = operations(lat, rec, basis)
        assert len(crystal.ops) == 48
        picks = [_symmetry(block, perm, signs, crystal.pairs)
                 for perm, signs in zip(crystal.perm, crystal.signs)]
        assert picks == [scanned_symmetry(block, perm, signs)
                         for perm, signs in zip(crystal.perm, crystal.signs)]
        assert picks[0] == 0 and set(picks) == answers  # 0: the identity

    @pytest.mark.parametrize("fixture", SYMMETRY_FIXTURES,
                             ids=[f[0] for f in SYMMETRY_FIXTURES])
    def test_block_is_the_box_table_gathered(self, fixture):
        # V's elements are evaluated only at the differences the basis
        # spans; V is still the whole box's table gathered, bit for bit, and
        # one shared table of differences gives the same V and operations.
        _, model, lat, rec, basis, _ = fixture
        spans = differences(basis.coeffs)
        shape, _, key, origin, flat, diffs, _ = spans
        box = np.indices(shape).reshape(3, -1).T - shape // 2
        table = matrix_element(model, lat, rec, box)
        if not np.any(table.imag):
            table = table.real
        v = potential_matrix(model, lat, rec, basis)
        assert v.dtype == table.dtype
        assert np.array_equal(v, table[np.subtract.outer(key + origin, key)])
        assert np.array_equal(diffs, np.unique(flat))
        assert np.array_equal(potential_matrix(model, lat, rec, basis, spans),
                              v)
        alone, shared = (operations(lat, rec, basis),
                         operations(lat, rec, basis, spans))
        for a, b in zip(alone, shared):
            for x, y in zip(*((a, b) if isinstance(a, tuple) else
                              ((a,), (b,)))):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("fixture", SYMMETRY_FIXTURES,
                             ids=[f[0] for f in SYMMETRY_FIXTURES])
    def test_pairs_hold_each_difference_once(self, fixture):
        _, _, lat, rec, basis, _ = fixture
        i, j = operations(lat, rec, basis).pairs
        c = basis.coeffs
        every = np.unique((c[:, None] - c[None]).reshape(-1, 3), axis=0)
        held = c[i] - c[j]
        assert len(np.unique(held, axis=0)) == len(held) == len(every)
        assert {tuple(d) for d in held.tolist()} == \
            {tuple(d) for d in every.tolist()}

    @pytest.mark.parametrize("fixture", SYMMETRY_FIXTURES,
                             ids=[f[0] for f in SYMMETRY_FIXTURES])
    def test_box_lookup_finds_the_searched_image_rows(self, fixture):
        _, _, lat, rec, basis, _ = fixture
        np.testing.assert_array_equal(operations(lat, rec, basis).perm,
                                      searched_perm(lat, rec, basis))

    @pytest.mark.parametrize("rows, kept", [
        (np.arange(1, 51), 48), (np.r_[0, 2:51], 6), (np.r_[:30, 31:51], 2),
        (np.array([0, 7]), 6)], ids=["without-0", "without-1",
                                     "without-30", "two-rows"])
    def test_box_lookup_keeps_only_the_operations_of_the_basis(self, rows,
                                                               kept):
        # Rows of the 44 (pi/a)^2 sphere: each R that fixes the G missing
        # from it (or the G beside G = 0) maps the basis onto itself, as
        # the search finds: all 48 for G = 0, C3v's 6 for (-1, -1, -1) or
        # (-1, 1, 1) and a mirror's 2 for (1, -3, -1) (in units of
        # 2 pi / a).  G = 0 and coefficients (1, 0, 0) alone: in a box that
        # held only the basis, of shape (3, 1, 1), the image (0, 1, 0)
        # would take the flat index of (1, 0, 0); the lookup's cube holds
        # every image.
        lat = make_cubic("DIAMOND", A_SI)
        rec = reciprocal_of(lat)
        whole = PlaneWaveBasis.from_cutoff(rec, 44 * SHELL)
        basis = PlaneWaveBasis(whole.coeffs[rows], whole.cart[rows])
        perm = operations(lat, rec, basis).perm
        np.testing.assert_array_equal(perm, searched_perm(lat, rec, basis))
        assert len(perm) == kept

    @pytest.mark.parametrize("kind", ["SC", "BCC"])
    def test_box_lookup_on_sc_and_bcc(self, kind):
        # The images c M lie in a cube max|c| times M's largest column sum
        # of |M| wide each way: 1 on SC and 3 on BCC (2 on FCC and
        # diamond), so each lattice sizes the lookup differently.  Two
        # cutoffs, then G = 0 and coefficients (-1, -1, -1) alone, a G
        # along [111] (C3v's 6 keep it): on BCC some R maps it to 3 in
        # one coefficient, past a cube of M's row sums, 2.
        lat = make_cubic(kind, A_SI)
        rec = reciprocal_of(lat)
        for cutoff in (12, 76):
            basis = PlaneWaveBasis.from_cutoff(rec, cutoff * SHELL)
            perm = operations(lat, rec, basis).perm
            np.testing.assert_array_equal(perm,
                                          searched_perm(lat, rec, basis))
            assert len(perm) == 48
        rows = [0, np.flatnonzero((basis.coeffs == -1).all(axis=1))[0]]
        two = PlaneWaveBasis(basis.coeffs[rows], basis.cart[rows])
        perm = operations(lat, rec, two).perm
        np.testing.assert_array_equal(perm, searched_perm(lat, rec, two))
        assert len(perm) == 6

    def test_operations_make_no_image_array(self):
        # At the converge ladder's dim 531 the (48, dim, 3) int64 images
        # the row lookup once made were 597 KiB; no temporary of operations
        # reaches that now, what it returns included.
        lat = make_cubic("DIAMOND", A_SI)
        rec = reciprocal_of(lat)
        basis = PlaneWaveBasis.from_cutoff(rec, 248 * SHELL)
        assert basis.dim == 531
        spans = differences(basis.coeffs)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            operations(lat, rec, basis, spans)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 48 * basis.dim * 3 * 8
