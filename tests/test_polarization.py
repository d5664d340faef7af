import numpy as np
import pytest

from weakdelay import (DomainError, PolarizationState, QwpModel,
                       SingularWeakValueError, dispersive_weak_values,
                       ideal_weak_values, port_projections,
                       postselection_state, qwp_jones_matrix)


class TestIdealWeakValues:
    def test_balanced_postselection(self):
        wv = ideal_weak_values(np.pi / 2)
        assert wv.aw1 == pytest.approx(1j, abs=1e-15)
        assert wv.aw2 == pytest.approx(-1j, abs=1e-15)

    def test_unbalanced_postselection(self):
        # phi = 0.03 is the strongly unbalanced configuration used in the
        # amplification sweeps; values computed from the tan/cot closed form.
        wv = ideal_weak_values(0.03)
        assert wv.aw1 == pytest.approx(1j * np.tan(0.015), rel=1e-15)
        assert wv.aw2 == pytest.approx(-1j / np.tan(0.015), rel=1e-15)
        assert abs(wv.aw2) > 60  # anomalously large dark-port weak value

    def test_product_identity(self):
        for phi in np.linspace(0.01, np.pi - 0.01, 211):
            wv = ideal_weak_values(phi)
            assert wv.aw1 * wv.aw2 == pytest.approx(1.0, abs=1e-12)

    def test_weighted_average_vanishes(self):
        # overlap-weighted weak values average to <i|sigma_z|i> = 0
        for phi in np.linspace(0.01, np.pi - 0.01, 211):
            wv = ideal_weak_values(phi)
            avg = np.cos(phi / 2) ** 2 * wv.aw1 + np.sin(phi / 2) ** 2 * wv.aw2
            assert abs(avg) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, -0.1, np.pi, np.pi + 0.2])
    def test_singular_phi_rejected(self, phi):
        with pytest.raises(SingularWeakValueError):
            ideal_weak_values(phi)


class TestQwpJonesMatrix:
    def test_near_zero_retardance_is_identity(self):
        m = qwp_jones_matrix(omega=1.0, tau0=1e-13)
        assert np.allclose(m, np.eye(2), atol=1e-12)

    def test_design_frequency(self):
        # omega tau0 = pi/4 -> entries sqrt(2)/2 with -i off-diagonals
        m = qwp_jones_matrix(omega=np.pi / 4, tau0=1.0)
        r = np.sqrt(2) / 2
        assert np.allclose(m, [[r, -1j * r], [-1j * r, r]], atol=1e-15)

    def test_unitarity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            omega = rng.uniform(1e14, 1e16)
            tau0 = rng.uniform(1e-17, 1e-14)
            m = qwp_jones_matrix(omega, tau0)
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DomainError):
            qwp_jones_matrix(0.0, 1e-16)
        with pytest.raises(DomainError):
            qwp_jones_matrix(1e15, -1e-16)


class TestDispersiveWeakValues:
    def test_reduces_to_ideal_at_design_frequency(self):
        # at omega tau0 = pi/4 the dispersive pair must equal the ideal pair
        # for gamma = pi/4 - phi/2
        tau0 = 1.0
        omega = np.pi / 4
        for gamma in np.linspace(1e-3, np.pi / 4 - 1e-3, 100):
            phi = np.pi / 2 - 2 * gamma
            disp = dispersive_weak_values(gamma, omega, tau0)
            ideal = ideal_weak_values(phi)
            assert disp.aw1 == pytest.approx(ideal.aw1, rel=1e-10)
            assert disp.aw2 == pytest.approx(ideal.aw2, rel=1e-10)

    def test_gamma_zero(self):
        omega, tau0 = 2.4e15, 1e-16
        wv = dispersive_weak_values(0.0, omega, tau0)
        phase = np.exp(2j * omega * tau0)
        assert wv.aw1 == pytest.approx(phase, rel=1e-12)
        assert wv.aw2 == pytest.approx(-phase, rel=1e-12)

    def test_modulus_frequency_independent(self):
        omega = np.linspace(2.0e15, 2.8e15, 500)
        wv = dispersive_weak_values(0.2, omega, 3.2e-16)
        assert np.ptp(np.abs(wv.aw1)) < 1e-12
        assert np.ptp(np.abs(wv.aw2)) < 1e-12

    def test_orthogonal_postselection_rejected(self):
        with pytest.raises(SingularWeakValueError):
            dispersive_weak_values(np.pi / 4, 2.4e15, 1e-16)

    def test_negative_gamma_for_phi_beyond_half_pi(self):
        # phi = 2.5 > pi/2 maps to gamma = pi/4 - 1.25 < 0
        omega = np.array([2.3e15, 2.4e15])
        wv = dispersive_weak_values(np.pi / 4 - 1.25, omega, (np.pi / 4) / 2.4e15)
        ideal = ideal_weak_values(2.5)
        assert wv.aw1[1] == pytest.approx(ideal.aw1, rel=1e-10)
        assert wv.aw2[1] == pytest.approx(ideal.aw2, rel=1e-10)
        with pytest.raises(DomainError):
            dispersive_weak_values(-np.pi / 2, omega, 1e-16)

    def test_zero_retardance_gives_real_scalars(self):
        wv = dispersive_weak_values(0.3, np.linspace(2e15, 3e15, 5), 0.0)
        assert np.ndim(wv.aw1) == 0 and np.ndim(wv.aw2) == 0
        assert np.imag(wv.aw1) == 0 and np.imag(wv.aw2) == 0


class TestPostselectionState:
    def test_gamma_zero_ports(self):
        s1 = postselection_state(0.0, 1)
        s2 = postselection_state(0.0, 2)
        # port 1 -> |H>, port 2 -> -|V> up to a global phase
        assert abs(abs(s1.h) - 1) < 1e-12 and abs(s1.v) < 1e-12
        assert abs(s2.h) < 1e-12 and abs(abs(s2.v) - 1) < 1e-12

    def test_gamma_quarter_pi(self):
        s1 = postselection_state(np.pi / 4, 1)
        s2 = postselection_state(np.pi / 4, 2)
        r = 1 / np.sqrt(2)
        assert s1.h == pytest.approx(r, abs=1e-12)
        assert s1.v == pytest.approx(r, abs=1e-12)
        assert abs(abs(s2.h) - r) < 1e-12 and abs(abs(s2.v) - r) < 1e-12

    def test_ports_orthogonal(self):
        for gamma in np.linspace(0, np.pi / 2, 57):
            s1 = postselection_state(gamma, 1)
            s2 = postselection_state(gamma, 2)
            assert abs(s1.inner(s2)) < 1e-12

    def test_bad_port(self):
        with pytest.raises(DomainError):
            postselection_state(0.1, 3)


class TestPortProjections:
    def test_ideal_overlaps(self):
        phi = 0.7
        _, ov1, ov2 = port_projections(phi, np.array([2.4e15]), QwpModel())
        assert ov1 == pytest.approx(np.cos(phi / 2) ** 2, rel=1e-15)
        assert ov2 == pytest.approx(np.sin(phi / 2) ** 2, rel=1e-15)

    def test_dispersive_overlaps_match_ideal(self):
        omega = np.linspace(2.1e15, 2.7e15, 11)
        qwp = QwpModel(variant="dispersive", tau0=3.25e-16)
        for phi in (0.03, 0.8, np.pi / 2 + 0.071):
            _, ov1, ov2 = port_projections(phi, omega, qwp)
            assert ov1 == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)
            assert ov2 == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-12)
            assert ov1 + ov2 == pytest.approx(1.0, abs=1e-12)

    def test_absent_plate_gives_real_weak_values(self):
        wv, _, _ = port_projections(0.5, np.array([2.4e15]), QwpModel(variant="absent"))
        assert np.imag(wv.aw1) == 0
        assert np.imag(wv.aw2) == 0

    def test_weak_values_come_from_the_weak_value_functions(self):
        omega = np.linspace(2.1e15, 2.7e15, 7)
        tau0 = 3.25e-16
        for phi in (0.03, 0.8, 2.5):
            gamma = np.pi / 4 - phi / 2
            ideal, _, _ = port_projections(phi, omega, QwpModel())
            disp, _, _ = port_projections(phi, omega, QwpModel("dispersive", tau0))
            absent, _, _ = port_projections(phi, omega, QwpModel("absent"))
            assert ideal == ideal_weak_values(phi)
            want = dispersive_weak_values(gamma, omega, tau0)
            np.testing.assert_array_equal(disp.aw1, want.aw1)
            np.testing.assert_array_equal(disp.aw2, want.aw2)
            assert absent == dispersive_weak_values(gamma, omega, 0.0)
            assert not absent.is_frequency_dependent()

    def test_dispersive_matches_ideal_at_design_frequency(self):
        phi = 0.9
        omega0 = 2.4e15
        qwp = QwpModel(variant="dispersive", tau0=(np.pi / 4) / omega0)
        wv, _, _ = port_projections(phi, np.array([omega0]), qwp)
        ideal = ideal_weak_values(phi)
        assert wv.aw1[0] == pytest.approx(ideal.aw1, rel=1e-10)
        assert wv.aw2[0] == pytest.approx(ideal.aw2, rel=1e-10)


class TestPolarizationState:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            PolarizationState(h=1.0, v=1.0)

    def test_qwp_model_validation(self):
        with pytest.raises(DomainError):
            QwpModel(variant="dispersive")
        with pytest.raises(DomainError):
            QwpModel(variant="ideal", tau0=1e-16)
        with pytest.raises(DomainError):
            QwpModel(variant="half-wave")
