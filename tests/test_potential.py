import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pwbands.lattice import (RealLattice, cartesian, make_cubic,
                             reciprocal_of, shell_index)
from pwbands.potential import (E2, HBAR2_OVER_2M, Coulomb, Empirical,
                               PotentialError, Yukawa, ion_ft, matrix_element,
                               structure_factor)

A_SI = 5.431
TWO_PI = 2.0 * math.pi

FIG4A_TABLE = {0: -9.50, 12: 2.42, 32: 0.80, 44: -0.82, 64: 0.88, 76: 0.00}


@pytest.fixture(scope="module")
def diamond():
    lat = make_cubic("DIAMOND", A_SI)
    return lat, reciprocal_of(lat)


def shell_of(rec, dg):
    """n^2 shell label of the coefficient triple dg, or -1."""
    cart = cartesian(rec, dg)
    return int(shell_index(float(cart @ cart), rec.lattice_constant))


def yukawa_ft_by_quadrature(z_eff, mu, k):
    """Radial Fourier integral of -z e^2 exp(-mu r)/r, done numerically."""
    integrand = lambda r: math.exp(-mu * r)
    integral, _ = quad(integrand, 0.0, np.inf, weight="sin", wvar=k)
    return -4.0 * math.pi * z_eff * E2 / k * integral


class TestConstants:
    def test_values(self):
        assert HBAR2_OVER_2M == 3.80998212
        assert E2 == 14.39964


class TestIonFT:
    def test_coulomb_zero_g2_drops_constant_shift(self):
        assert ion_ft(Coulomb(z_eff=1.0), 0.0) == 0.0

    @pytest.mark.parametrize("g2", [0.0, 0.5, 3.0, 40.0])
    def test_zero_charge(self, g2):
        assert ion_ft(Coulomb(z_eff=0.0), g2) == 0.0

    def test_coulomb_closed_form(self):
        g2 = 2.5
        assert ion_ft(Coulomb(z_eff=1.3), g2) == pytest.approx(
            -4.0 * math.pi * 1.3 * E2 / g2, rel=1e-14)

    def test_yukawa_closed_form(self):
        value = ion_ft(Yukawa(z_eff=1.0, mu=1.0), 3.0)
        assert value == pytest.approx(-4.0 * math.pi * E2 / 4.0, rel=1e-14)
        assert value == pytest.approx(-45.239, abs=5e-3)

    def test_yukawa_finite_at_zero(self):
        value = ion_ft(Yukawa(z_eff=2.0, mu=0.5), 0.0)
        assert value == pytest.approx(-4.0 * math.pi * 2.0 * E2 / 0.25,
                                      rel=1e-14)

    @pytest.mark.parametrize("mu,k", [(1.0, math.sqrt(3.0)), (0.7, 2.2),
                                      (2.5, 0.4)])
    def test_yukawa_against_quadrature_oracle(self, mu, k):
        expected = yukawa_ft_by_quadrature(0.8, mu, k)
        assert ion_ft(Yukawa(z_eff=0.8, mu=mu), k * k) == pytest.approx(
            expected, rel=1e-8)

    def test_coulomb_is_yukawa_limit(self):
        g2 = 4.0
        coulomb = ion_ft(Coulomb(z_eff=1.0), g2)
        yukawa = ion_ft(Yukawa(z_eff=1.0, mu=1e-7), g2)
        assert yukawa == pytest.approx(coulomb, rel=1e-10)

    def test_empirical_delegates_to_base(self):
        base = Coulomb(z_eff=0.5)
        model = Empirical(base=base, overrides={12: 1.0})
        assert ion_ft(model, 3.0) == ion_ft(base, 3.0)

    def test_rejects_negative_g2(self):
        with pytest.raises(PotentialError):
            ion_ft(Coulomb(z_eff=1.0), -1.0)


class TestStructureFactor:
    def test_single_atom_at_origin(self):
        s = structure_factor((np.zeros(3),), np.array([1.0, 2.0, 3.0]))
        assert s == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_diamond_zero_on_200(self, diamond):
        lat, _ = diamond
        g = (TWO_PI / A_SI) * np.array([2.0, 0.0, 0.0])
        assert abs(structure_factor(lat.basis_offsets, g)) < 1e-12

    def test_diamond_111_phase(self, diamond):
        lat, _ = diamond
        g = (TWO_PI / A_SI) * np.array([1.0, 1.0, 1.0])
        s = structure_factor(lat.basis_offsets, g)
        assert s == pytest.approx(-math.sqrt(2.0) + 0j, abs=1e-12)
        # complex-sum oracle over the two offsets
        tau = (A_SI / 8.0) * np.ones(3)
        oracle = cmath.exp(-1j * float(g @ tau)) + cmath.exp(1j * float(g @ tau))
        assert s == pytest.approx(oracle, abs=1e-14)

    def test_diamond_factor_is_real(self, diamond):
        lat, rec = diamond
        rng = np.random.RandomState(7)
        for _ in range(20):
            g = cartesian(rec, rng.randint(-4, 5, size=3))
            s = structure_factor(lat.basis_offsets, g)
            assert abs(s.imag) < 1e-12


class TestMatrixElement:
    def test_zero_transfer_no_override(self, diamond):
        lat, rec = diamond
        dg = (0, 0, 0)
        for model in (Coulomb(1.0), Yukawa(1.0, 0.8),
                      Empirical(base=Coulomb(1.0), overrides={12: 2.0})):
            assert matrix_element(model, lat, rec, dg) == 0.0

    def test_composition_against_independent_pipeline(self, diamond):
        # Recompute the shell-12 element with plain scalar arithmetic.
        lat, rec = diamond
        dg = (1, 1, 1)  # cart = (2pi/a)(1,1,1)
        omega = A_SI**3 / 4.0
        g2 = 3.0 * (TWO_PI / A_SI) ** 2
        u = -4.0 * math.pi * 0.25 * E2 / g2
        phase = (TWO_PI / A_SI) * 3.0 * (A_SI / 8.0)
        s = 2.0 * math.cos(phase)
        expected = u * s / omega
        got = matrix_element(Coulomb(z_eff=0.25), lat, rec, dg)
        assert got.real == pytest.approx(expected, rel=1e-12)
        assert abs(got.imag) < 1e-15
        assert expected == pytest.approx((1 / 40.05) * u * -math.sqrt(2.0),
                                         rel=1e-3)

    def test_override_element_mode(self, diamond):
        lat, rec = diamond
        model = Empirical(base=Coulomb(0.0), overrides=FIG4A_TABLE,
                          override_mode="element")
        by_shell = {}
        reach = range(-4, 5)
        for n in reach:
            for m in reach:
                for l in reach:
                    dg = (n, m, l)
                    by_shell.setdefault(shell_of(rec, dg), []).append(dg)
        # shell 12: tabulated value applied as-is (structure factor nonzero)
        for dg in by_shell[12]:
            assert matrix_element(model, lat, rec, dg) == pytest.approx(
                2.42 + 0j, abs=1e-14)
        # shell 16: structure factor vanishes, coupling suppressed
        for dg in by_shell[16]:
            assert matrix_element(model, lat, rec, dg) == 0.0
        # shell 76 tabulates an explicit zero
        for dg in by_shell[76]:
            assert abs(matrix_element(model, lat, rec, dg)) == 0.0
        # zero transfer picks up the n^2=0 override
        assert matrix_element(model, lat, rec, (0, 0, 0)) == pytest.approx(
            -9.50 + 0j, abs=1e-14)

    def test_override_form_factor_mode(self, diamond):
        lat, rec = diamond
        model = Empirical(base=Coulomb(0.0), overrides=FIG4A_TABLE,
                          override_mode="form_factor")
        dg = (1, 1, 1)
        s = structure_factor(lat.basis_offsets, cartesian(rec, dg))
        assert matrix_element(model, lat, rec, dg) == pytest.approx(
            2.42 * s / 2.0, abs=1e-12)
        assert matrix_element(model, lat, rec, (0, 0, 0)) == pytest.approx(
            -9.50 + 0j, abs=1e-12)

    def test_override_completeness(self, diamond):
        # Tabulated shells are replaced; every other shell keeps the base
        # model's value.
        lat, rec = diamond
        base = Coulomb(z_eff=0.5)
        model = Empirical(base=base, overrides=FIG4A_TABLE,
                          override_mode="element")
        reach = range(-3, 4)
        seen_base_shells = set()
        for n in reach:
            for m in reach:
                for l in reach:
                    dg = (n, m, l)
                    shell = shell_of(rec, dg)
                    got = matrix_element(model, lat, rec, dg)
                    if shell in FIG4A_TABLE:
                        s = structure_factor(lat.basis_offsets,
                                             cartesian(rec, dg))
                        expected = FIG4A_TABLE[shell] if abs(s) > 1e-12 else 0.0
                        assert got == pytest.approx(expected + 0j, abs=1e-14)
                    else:
                        assert got == pytest.approx(
                            matrix_element(base, lat, rec, dg), abs=1e-14)
                        seen_base_shells.add(shell)
        assert seen_base_shells  # the loop exercised non-tabulated shells

    def test_hermiticity_feed(self, diamond):
        lat, rec = diamond
        noncentered = RealLattice(lat.a1, lat.a2, lat.a3,
                                  (np.zeros(3), (A_SI / 4.0) * np.ones(3)),
                                  lattice_constant=A_SI)
        models = [Coulomb(0.7), Yukawa(0.7, 1.1),
                  Empirical(base=Coulomb(0.3), overrides=FIG4A_TABLE,
                            override_mode="element"),
                  Empirical(base=Coulomb(0.3), overrides=FIG4A_TABLE,
                            override_mode="form_factor")]
        rng = np.random.RandomState(3)
        for crystal in (lat, noncentered):
            for model in models:
                for _ in range(15):
                    dg = rng.randint(-4, 5, size=3)
                    neg = -dg
                    forward = matrix_element(model, crystal, rec, dg)
                    backward = matrix_element(model, crystal, rec, neg)
                    assert backward == pytest.approx(forward.conjugate(),
                                                     abs=1e-13)

    def test_coulomb_decay_across_shells(self, diamond):
        # Shells 12, 44, 76 all carry |S| = sqrt(2); the magnitude must
        # fall strictly with |dG|^2.
        lat, rec = diamond
        model = Coulomb(z_eff=1.0)
        picks = {12: (1, 1, 1), 44: (3, 1, 1), 76: (3, 3, 1)}
        mags = {}
        for shell, (h, k, l) in picks.items():
            cart = (TWO_PI / A_SI) * np.array([h, k, l], dtype=float)
            coeff = np.linalg.solve(rec.matrix.T, cart)
            dg = tuple(int(round(c)) for c in coeff)
            assert shell_of(rec, dg) == shell
            s = structure_factor(lat.basis_offsets, cartesian(rec, dg))
            assert abs(s) == pytest.approx(math.sqrt(2.0), rel=1e-12)
            mags[shell] = abs(matrix_element(model, lat, rec, dg))
        assert mags[12] > mags[44] > mags[76] > 0


class TestModelValidation:
    def test_rejects_negative_z_eff(self):
        with pytest.raises(PotentialError):
            Coulomb(z_eff=-0.1)
        with pytest.raises(PotentialError):
            Yukawa(z_eff=-0.1, mu=1.0)

    def test_rejects_negative_mu(self):
        with pytest.raises(PotentialError):
            Yukawa(z_eff=1.0, mu=-1.0)

    def test_rejects_nested_empirical(self):
        inner = Empirical(base=Coulomb(0.0), overrides={})
        with pytest.raises(PotentialError):
            Empirical(base=inner, overrides={})

    def test_rejects_bad_override_mode(self):
        with pytest.raises(PotentialError):
            Empirical(base=Coulomb(0.0), overrides={}, override_mode="tables")

    def test_rejects_negative_shell(self):
        with pytest.raises(PotentialError):
            Empirical(base=Coulomb(0.0), overrides={-4: 1.0})
