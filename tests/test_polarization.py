import numpy as np
import pytest

from weakdelay import _kernels
from weakdelay import (DomainError, QwpModel, SingularWeakValueError,
                       ideal_weak_values, port_projections)

VARIANTS = [QwpModel(), QwpModel("dispersive", 3.25e-16), QwpModel("absent")]


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


class TestDispersiveWeakValues:
    """The fixed-retardance plate; gamma = pi/4 - phi/2 is the splitter angle."""

    def test_reduces_to_ideal_at_design_frequency(self):
        # at omega tau0 = pi/4 the dispersive pair must equal the ideal pair
        qwp = QwpModel("dispersive", tau0=1.0)
        omega = np.pi / 4
        for gamma in np.linspace(1e-3, np.pi / 4 - 1e-3, 100):
            phi = np.pi / 2 - 2 * gamma
            disp, _, _ = port_projections(phi, omega, qwp)
            ideal = ideal_weak_values(phi)
            assert disp.aw1 == pytest.approx(ideal.aw1, rel=1e-10)
            assert disp.aw2 == pytest.approx(ideal.aw2, rel=1e-10)

    def test_gamma_zero(self):
        omega, tau0 = 2.4e15, 1e-16
        wv, _, _ = port_projections(np.pi / 2, omega, QwpModel("dispersive", tau0))
        phase = np.exp(2j * omega * tau0)
        assert wv.aw1 == pytest.approx(phase, rel=1e-12)
        assert wv.aw2 == pytest.approx(-phase, rel=1e-12)

    def test_modulus_frequency_independent(self):
        omega = np.linspace(2.0e15, 2.8e15, 500)
        wv, _, _ = port_projections(np.pi / 2 - 0.4, omega,
                                    QwpModel("dispersive", 3.2e-16))
        assert np.ptp(np.abs(wv.aw1)) < 1e-12
        assert np.ptp(np.abs(wv.aw2)) < 1e-12

    def test_orthogonal_postselection_rejected(self):
        # gamma = pi/4 is phi = 0: port 2 orthogonal to the preselection
        with pytest.raises(SingularWeakValueError):
            port_projections(0.0, 2.4e15, QwpModel("dispersive", 1e-16))

    @pytest.mark.parametrize("phi", [1e-136, 1e-140, 1e-150])
    def test_weak_value_whose_tangent_form_overflows_is_singular(self, phi):
        # zeta = floor + (u + v tan x)^2 cos^2 x squares v tan x, with |tan x|
        # up to 2^61 and v^2 up to 2 cot^2(phi/2)
        with pytest.raises(SingularWeakValueError, match="2\\^122"):
            ideal_weak_values(phi)

    def test_smallest_regular_phi_keeps_every_zeta_finite(self):
        # the double nearest pi/2 is 6e-17 from it: tan is 1.6e16 there
        wv = ideal_weak_values(1e-134)
        x = np.array([np.pi / 2, -np.pi / 2, 1e3 * np.pi + np.pi / 2])
        with np.errstate(all="raise"):
            z = _kernels.zeta(x, _kernels.zeta_terms(wv.aw2))
        assert np.all(np.isfinite(z))

    def test_negative_gamma_for_phi_beyond_half_pi(self):
        # phi = 2.5 > pi/2 maps to gamma = pi/4 - 1.25 < 0
        omega = np.array([2.3e15, 2.4e15])
        qwp = QwpModel("dispersive", (np.pi / 4) / 2.4e15)
        wv, _, _ = port_projections(2.5, omega, qwp)
        ideal = ideal_weak_values(2.5)
        assert wv.aw1[1] == pytest.approx(ideal.aw1, rel=1e-10)
        assert wv.aw2[1] == pytest.approx(ideal.aw2, rel=1e-10)
        # gamma = -pi/2 is phi = 3 pi/2, beyond the port-1 singularity
        with pytest.raises(SingularWeakValueError):
            port_projections(1.5 * np.pi, omega, qwp)

    def test_zero_retardance_gives_real_scalars(self):
        wv, _, _ = port_projections(np.pi / 2 - 0.6, np.linspace(2e15, 3e15, 5),
                                    QwpModel("absent"))
        assert np.ndim(wv.aw1) == 0 and np.ndim(wv.aw2) == 0
        assert np.imag(wv.aw1) == 0 and np.imag(wv.aw2) == 0


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
        # every variant is (tan(phi/2) phase, -phase/tan(phi/2)), with phase
        # i, exp(2i omega tau0) and 1
        omega = np.linspace(2.1e15, 2.7e15, 7)
        tau0 = 3.25e-16
        for phi in (0.03, 0.8, 2.5):
            t = np.tan(phi / 2)
            for qwp, phase in ((QwpModel(), 1j),
                               (QwpModel("dispersive", tau0), np.exp(2j * omega * tau0)),
                               (QwpModel("absent"), 1 + 0j)):
                wv, _, _ = port_projections(phi, omega, qwp)
                np.testing.assert_array_equal(wv.aw1, t * phase)
                np.testing.assert_array_equal(wv.aw2, -phase / t)
            assert port_projections(phi, omega, QwpModel())[0] == ideal_weak_values(phi)

    @pytest.mark.parametrize("qwp", VARIANTS, ids=["ideal", "dispersive", "absent"])
    @pytest.mark.parametrize("phi", [0.0, np.pi, 3.5, -0.2])
    def test_phi_outside_open_interval_rejected(self, phi, qwp):
        with pytest.raises(SingularWeakValueError):
            port_projections(phi, np.array([2.4e15]), qwp)

    def test_dispersive_matches_ideal_at_design_frequency(self):
        phi = 0.9
        omega0 = 2.4e15
        qwp = QwpModel(variant="dispersive", tau0=(np.pi / 4) / omega0)
        wv, _, _ = port_projections(phi, np.array([omega0]), qwp)
        ideal = ideal_weak_values(phi)
        assert wv.aw1[0] == pytest.approx(ideal.aw1, rel=1e-10)
        assert wv.aw2[0] == pytest.approx(ideal.aw2, rel=1e-10)


class TestPolarizationState:
    def test_qwp_model_validation(self):
        with pytest.raises(DomainError):
            QwpModel(variant="dispersive")
        with pytest.raises(DomainError):
            QwpModel(variant="ideal", tau0=1e-16)
        with pytest.raises(DomainError):
            QwpModel(variant="half-wave")
