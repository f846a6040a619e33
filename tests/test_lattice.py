import math
import warnings

import numpy as np
import pytest

from pwbands.lattice import (LatticeConstantError, LatticeError, RealLattice,
                             cartesian, enumerate_g, fcc_symmetry_points,
                             make_cubic, make_kpath, reciprocal_of,
                             shell_index)

A_SI = 5.431
TWO_PI = 2.0 * math.pi


def det3(a, b, c):
    """Independent 3x3 determinant (cofactor expansion)."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def bcc_recip_vectors(a):
    """FCC reciprocal basis straight from the catalog definition."""
    u = TWO_PI / a
    return (u * np.array([-1.0, 1.0, 1.0]),
            u * np.array([1.0, -1.0, 1.0]),
            u * np.array([1.0, 1.0, -1.0]))


def norms(rec, coeffs):
    """|G|^2 of each coefficient row, one scalar dot product at a time."""
    return [float(g @ g) for g in cartesian(rec, coeffs)]


def brute_force_g(a, g2_max, reach=6):
    """Enumerate FCC reciprocal vectors by exhaustive integer search."""
    g1, g2, g3 = bcc_recip_vectors(a)
    out = set()
    for n in range(-reach, reach + 1):
        for m in range(-reach, reach + 1):
            for l in range(-reach, reach + 1):
                cart = n * g1 + m * g2 + l * g3
                if cart @ cart <= g2_max * (1 + 1e-9):
                    out.add((n, m, l))
    return out


class TestMakeCubic:
    def test_simple_cubic(self):
        lat = make_cubic("SC", 1.0)
        np.testing.assert_allclose(lat.a1, [1, 0, 0])
        np.testing.assert_allclose(lat.a2, [0, 1, 0])
        np.testing.assert_allclose(lat.a3, [0, 0, 1])
        assert len(lat.basis_offsets) == 1
        np.testing.assert_allclose(lat.basis_offsets[0], [0, 0, 0])

    def test_fcc_volume_against_determinant_oracle(self):
        lat = make_cubic("FCC", A_SI)
        vol = abs(det3(lat.a1, lat.a2, lat.a3))
        assert vol == pytest.approx(A_SI**3 / 4.0, rel=1e-12)
        assert lat.volume == pytest.approx(40.05, abs=0.01)

    def test_diamond_two_atom_basis(self):
        lat = make_cubic("DIAMOND", A_SI)
        assert len(lat.basis_offsets) == 2
        t1, t2 = lat.basis_offsets
        np.testing.assert_allclose(t1 - t2, (A_SI / 4.0) * np.ones(3),
                                   atol=1e-12)
        np.testing.assert_allclose(t1, (A_SI / 8.0) * np.ones(3), atol=1e-12)

    def test_bcc_vectors(self):
        lat = make_cubic("BCC", 2.0)
        np.testing.assert_allclose(lat.a1, [-1, 1, 1])

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_rejects_nonpositive_constant(self, a):
        with pytest.raises(LatticeError):
            make_cubic("FCC", a)

    @pytest.mark.parametrize("kind", ["SC", "BCC", "FCC", "DIAMOND"])
    @pytest.mark.parametrize("a", [1e-200, 1e-150, 1e110, 1e154, 1e200,
                                   math.inf, math.nan])
    def test_rejects_unrepresentable_constant_without_warning(self, kind, a):
        # The cell volume a^3 (a^3/4 for FCC) overflows or underflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LatticeConstantError, match="out of float"):
                make_cubic(kind, a)

    @pytest.mark.parametrize("kind", ["SC", "BCC", "FCC", "DIAMOND"])
    @pytest.mark.parametrize("a", [2.2e-102, 5.6e102])
    def test_extreme_representable_constant_runs_clean(self, kind, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recip = reciprocal_of(make_cubic(kind, a))
        assert 0.0 < recip.omega < math.inf

    def test_rejects_unknown_kind(self):
        with pytest.raises(LatticeError):
            make_cubic("HEX", 1.0)

    def test_offsets_reduced_into_cell(self):
        a = 2.0
        lat = make_cubic("FCC", a)
        shifted = lat.a1 + 2 * lat.a2 + np.array([0.1, 0.2, 0.05])
        lat2 = RealLattice(lat.a1, lat.a2, lat.a3, (shifted,))
        np.testing.assert_allclose(lat2.basis_offsets[0],
                                   [0.1, 0.2, 0.05], atol=1e-12)

    def test_rejects_degenerate_vectors(self):
        with pytest.raises(LatticeError):
            RealLattice(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]),
                        np.array([0.0, 0, 1]))


class TestReciprocal:
    def test_simple_cubic_identity(self):
        rec = reciprocal_of(make_cubic("SC", 1.0))
        np.testing.assert_allclose(rec.g1, [TWO_PI, 0, 0], atol=1e-12)
        np.testing.assert_allclose(rec.g2, [0, TWO_PI, 0], atol=1e-12)
        np.testing.assert_allclose(rec.g3, [0, 0, TWO_PI], atol=1e-12)

    def test_fcc_reciprocal_is_bcc(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        b1, b2, b3 = bcc_recip_vectors(A_SI)
        np.testing.assert_allclose(rec.g1, b1, atol=1e-12)
        np.testing.assert_allclose(rec.g2, b2, atol=1e-12)
        np.testing.assert_allclose(rec.g3, b3, atol=1e-12)

    @pytest.mark.parametrize("kind", ["SC", "BCC", "FCC", "DIAMOND"])
    @pytest.mark.parametrize("a", [1.0, 3.17, A_SI])
    def test_duality_identity(self, kind, a):
        lat = make_cubic(kind, a)
        rec = reciprocal_of(lat)
        product = rec.matrix @ lat.matrix.T
        err = np.abs(product - TWO_PI * np.eye(3)).max()
        assert err < 1e-12 * TWO_PI

    def test_omega_is_cell_volume(self):
        lat = make_cubic("FCC", A_SI)
        rec = reciprocal_of(lat)
        assert rec.omega == pytest.approx(A_SI**3 / 4.0, rel=1e-12)
        assert rec.omega > 0

    def test_double_dual_recovers_original(self):
        lat = make_cubic("FCC", A_SI)
        rec = reciprocal_of(lat)
        as_real = RealLattice(rec.g1, rec.g2, rec.g3)
        rec2 = reciprocal_of(as_real)
        np.testing.assert_allclose(rec2.g1, lat.a1, atol=1e-12)
        np.testing.assert_allclose(rec2.g2, lat.a2, atol=1e-12)
        np.testing.assert_allclose(rec2.g3, lat.a3, atol=1e-12)


class TestEnumerateG:
    def test_zero_cutoff_is_origin_only(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        gs = enumerate_g(rec, 0.0)
        assert gs.shape == (1, 3)
        assert tuple(gs[0]) == (0, 0, 0)
        assert shell_index(norms(rec, gs), A_SI)[0] == 0

    def test_first_shell_against_brute_force(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        g2_max = 3.0 * (TWO_PI / A_SI) ** 2
        gs = enumerate_g(rec, g2_max)
        expected = brute_force_g(A_SI, g2_max, reach=3)
        assert len(gs) == 9
        assert {tuple(g) for g in gs} == expected

    def test_ball_count_matches_brute_force(self):
        # 19 (2pi/a)^2 is the production cutoff 76 (pi/a)^2.
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        g2_max = 19.0 * (TWO_PI / A_SI) ** 2
        gs = enumerate_g(rec, g2_max)
        expected = brute_force_g(A_SI, g2_max)
        assert {tuple(g) for g in gs} == expected
        assert len(gs) == 89  # pinned regression value

    def test_sorted_by_norm_with_lexicographic_ties(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        gs = enumerate_g(rec, 8.0 * (TWO_PI / A_SI) ** 2)
        g2 = norms(rec, gs)
        assert all(b >= a - 1e-9 for a, b in zip(g2, g2[1:]))
        for i in range(len(gs) - 1):
            if abs(g2[i] - g2[i + 1]) <= 1e-9 * max(1.0, g2[i + 1]):
                assert tuple(gs[i]) < tuple(gs[i + 1])

    def test_difference_closure(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        cut = 6.0 * (TWO_PI / A_SI) ** 2
        gs = enumerate_g(rec, cut)
        coeff_set = {tuple(g) for g in gs}
        for ga in gs:
            for gb in gs:
                d = ga - gb
                if norms(rec, [d])[0] <= cut:
                    assert tuple(d) in coeff_set

    @pytest.mark.parametrize("kind", ["SC", "BCC", "FCC", "DIAMOND"])
    def test_shell_assignment(self, kind):
        a = A_SI
        rec = reciprocal_of(make_cubic(kind, a))
        gs = enumerate_g(rec, 30.0 * (math.pi / a) ** 2)
        g2 = norms(rec, gs)
        for g, norm, shell in zip(gs, g2, shell_index(g2, a)):
            assert shell >= 0
            assert (shell == 0) == (tuple(g) == (0, 0, 0))
            target = shell * (math.pi / a) ** 2
            assert norm == pytest.approx(target, rel=1e-9, abs=1e-12)

    def test_shell_index_without_lattice_constant(self):
        assert shell_index([0.0, 1.0], None).tolist() == [-1, -1]

    def test_matches_object_enumeration_order(self):
        # The former per-G enumeration: triple loop, stable sort by |G|^2,
        # float-noise shell groups, then (group, n, m, l).
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        cut = 76 * (math.pi / A_SI) ** 2 * (1 + 1e-9)
        found = sorted(((float(c @ c), g) for g in brute_force_g(A_SI, cut)
                        for c in [cartesian(rec, g)]), key=lambda t: t[0])
        group, prev, keyed = 0, None, []
        for g2, g in found:
            if prev is not None and g2 - prev > 1e-9 * max(1.0, g2):
                group += 1
            keyed.append((group, *g))
            prev = g2
        expected = [k[1:] for k in sorted(keyed)]
        assert [tuple(g) for g in enumerate_g(rec, 76 * (math.pi / A_SI) ** 2)
                ] == expected

    def test_rejects_negative_cutoff(self):
        rec = reciprocal_of(make_cubic("FCC", A_SI))
        with pytest.raises(LatticeError):
            enumerate_g(rec, -1.0)


class TestSymmetryPoints:
    def test_gamma_and_x(self):
        pts = fcc_symmetry_points(A_SI)
        np.testing.assert_allclose(pts["Γ"], [0, 0, 0])
        np.testing.assert_allclose(pts["X"], [TWO_PI / A_SI, 0, 0])

    def test_coordinates_in_conventional_units(self):
        pts = fcc_symmetry_points(A_SI)
        u = TWO_PI / A_SI
        np.testing.assert_allclose(pts["L"], u * np.array([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(pts["W"], u * np.array([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(pts["K"], u * np.array([0.75, 0.75, 0.0]))
        np.testing.assert_allclose(pts["U"], u * np.array([1.0, 0.25, 0.25]))

    @pytest.mark.parametrize("label,halving", [
        ("X", (2, 0, 0)), ("L", (1, 1, 1)), ("W", (2, 0, 0)),
        ("K", (1, 1, 1)), ("U", (2, 0, 0)),
    ])
    def test_boundary_points_bisect_a_lattice_vector(self, label, halving):
        # Zone boundary: equidistant from the origin and from G.
        pts = fcc_symmetry_points(A_SI)
        kappa = pts[label]
        g = (TWO_PI / A_SI) * np.array(halving, dtype=float)
        assert np.linalg.norm(kappa) == pytest.approx(
            np.linalg.norm(kappa - g), rel=1e-12)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(LatticeError):
            fcc_symmetry_points(0.0)


class TestKPath:
    def test_two_point_interpolation(self):
        a = A_SI
        pts = fcc_symmetry_points(a)
        path = make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 3)
        assert len(path.kappas) == 3
        np.testing.assert_allclose(path.kappas[0], [0, 0, 0])
        np.testing.assert_allclose(path.kappas[1], [math.pi / a, 0, 0])
        np.testing.assert_allclose(path.kappas[2], [TWO_PI / a, 0, 0])

    def test_gamma_x_arc_length(self):
        pts = fcc_symmetry_points(A_SI)
        path = make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 10)
        assert path.arc_distances[-1] == pytest.approx(
            TWO_PI / A_SI, rel=1e-12)

    def test_default_tour_arc_strictly_increasing(self):
        pts = fcc_symmetry_points(A_SI)
        tour = [(s, pts[s]) for s in ("L", "Γ", "X", "U", "Γ")]
        path = make_kpath(tour, 50)
        arcs = path.arc_distances
        assert np.all(np.diff(arcs) > 0)
        # 4 segments, shared endpoints counted once
        assert len(path.kappas) == 50 + 3 * 49

    def test_vertex_labels(self):
        pts = fcc_symmetry_points(A_SI)
        tour = [(s, pts[s]) for s in ("L", "Γ", "X")]
        path = make_kpath(tour, 5)
        labels = path.labels
        assert labels[0] == "L"
        assert labels[4] == "Γ"
        assert labels[-1] == "X"
        assert all(lab is None for i, lab in enumerate(labels)
                   if i not in (0, 4, 8))

    def test_arrays_equal_the_per_sample_formula(self):
        # Sample j of a segment is (1 - t) start + t end at arc distance
        # arc + t |end - start|, t = j / (n - 1), bit for bit.
        pts = fcc_symmetry_points(A_SI)
        tour = [(s, pts[s]) for s in ("L", "Γ", "X", "U", "Γ")]
        path = make_kpath(tour, 7)
        kappas, arcs, labels, arc = [tour[0][1]], [0.0], ["L"], 0.0
        for (_, start), (label, end) in zip(tour, tour[1:]):
            seg_len = float(np.linalg.norm(end - start))
            for j in range(1, 7):
                t = j / 6
                kappas.append((1.0 - t) * start + t * end)
                arcs.append(arc + t * seg_len)
                labels.append(label if j == 6 else None)
            arc += seg_len
        assert path.kappas.shape == (25, 3)
        np.testing.assert_array_equal(path.kappas, kappas)
        np.testing.assert_array_equal(path.arc_distances, arcs)
        assert path.labels == tuple(labels)

    def test_rejects_too_few_points(self):
        pts = fcc_symmetry_points(A_SI)
        with pytest.raises(LatticeError):
            make_kpath([("Γ", pts["Γ"])], 5)

    def test_rejects_too_few_samples(self):
        pts = fcc_symmetry_points(A_SI)
        with pytest.raises(LatticeError):
            make_kpath([("Γ", pts["Γ"]), ("X", pts["X"])], 1)
