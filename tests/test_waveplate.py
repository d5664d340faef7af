import numpy as np
import pytest

from weakdelay import (DomainError, PlateStack, TiltAngles,
                       compound_retardance, default_quartz_stack,
                       effective_path_length, pivot_delay, quartz_indices,
                       single_plate_retardance, theta_for_delay)
from weakdelay.constants import C_VACUUM

LAM = 780e-9


@pytest.fixture(scope="module")
def stack():
    return default_quartz_stack(LAM)


def zero_order_retardance(stack, lam):
    n_o, n_e, _ = quartz_indices(lam)
    return 2 * np.pi * (n_e - n_o) * (stack.h1 - stack.h2) / lam


class TestEffectivePathLength:
    def test_in_plane_perpendicular_ray(self):
        h = 1.3e-3
        assert effective_path_length(0.0, h, 0.0) == pytest.approx(h, rel=1e-15)

    def test_ray_along_axis_limit(self):
        # x = 0, y -> 0 with z fixed: no effective path
        assert effective_path_length(0.0, 1e-12, 2e-3) < 1e-20

    def test_angle_form_agreement(self):
        # C = L sin^2(eta) with eta the ray/axis angle, as an independent path
        rng = np.random.default_rng(11)
        for _ in range(500):
            x, z = rng.normal(size=2) * 1e-3
            y = rng.uniform(1e-5, 2e-3)
            length = np.sqrt(x * x + y * y + z * z)
            eta = np.arccos(np.clip(z / length, -1, 1))
            assert effective_path_length(x, y, z) == pytest.approx(
                length * np.sin(eta) ** 2, rel=1e-12)

    def test_rejects_surface_point(self):
        with pytest.raises(DomainError):
            effective_path_length(1e-3, 0.0, 0.0)


class TestSinglePlate:
    def test_normal_incidence(self):
        n_o, n_e, _ = quartz_indices(LAM)
        h = 0.9e-3
        delta = single_plate_retardance(LAM, h, TiltAngles())
        assert delta == pytest.approx(2 * np.pi * (n_e - n_o) * h / LAM, rel=1e-12)

    def test_linear_in_thickness(self):
        tilt = TiltAngles(xi=0.02, psi=0.01)
        d1 = single_plate_retardance(LAM, 1e-3, tilt)
        d2 = single_plate_retardance(LAM, 2e-3, tilt)
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_small_azimuth_taylor(self):
        # delta(xi) - delta(0) = delta(0) xi^2 / 2 + O(xi^4) at psi = 0
        h, xi = 1e-3, 1e-3
        d0 = single_plate_retardance(LAM, h, TiltAngles())
        dx = single_plate_retardance(LAM, h, TiltAngles(xi=xi))
        assert abs((dx - d0) - d0 * xi ** 2 / 2) < d0 * xi ** 4


class TestCompoundRetardance:
    def test_normal_incidence_zero_order(self, stack):
        delta = compound_retardance(LAM, stack, TiltAngles())
        assert delta == pytest.approx(zero_order_retardance(stack, LAM), rel=1e-12)
        # the default stack is cut for a half wave at 780 nm
        assert delta == pytest.approx(np.pi, rel=1e-9)

    def test_swap_antisymmetry(self, stack):
        swapped = PlateStack(h1=stack.h2, h2=stack.h1)
        d = compound_retardance(LAM, stack, TiltAngles())
        d_swapped = compound_retardance(LAM, swapped, TiltAngles())
        assert d_swapped == pytest.approx(-d, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.005, 0.02, 0.05])
    def test_small_azimuth_expansion(self, stack, angle):
        # (h1 - h2) + xi^2 (h1 + h2)/2 expansion of the psi = 0 section
        n_o, n_e, _ = quartz_indices(LAM)
        exact = compound_retardance(LAM, stack, TiltAngles(xi=angle))
        approx = 2 * np.pi * (n_e - n_o) / LAM * (
            (stack.h1 - stack.h2) + angle ** 2 * (stack.h1 + stack.h2) / 2)
        assert exact == pytest.approx(approx, rel=1e-4)

    @pytest.mark.parametrize("angle", [0.005, 0.02, 0.05])
    def test_small_elevation_expansion(self, stack, angle):
        # the xi = 0 section carries the opposite-sign quadratic term
        n_o, n_e, _ = quartz_indices(LAM)
        exact = compound_retardance(LAM, stack, TiltAngles(psi=angle))
        approx = 2 * np.pi * (n_e - n_o) / LAM * (
            (stack.h1 - stack.h2) - angle ** 2 * (stack.h1 + stack.h2) / 2)
        assert exact == pytest.approx(approx, rel=1e-4)


class TestPivotDelay:
    def test_zero_angle(self, stack):
        assert pivot_delay(0.0, stack, LAM) == 0.0

    def test_quadratic_scaling(self, stack):
        assert pivot_delay(2e-4, stack, LAM) == pytest.approx(
            4 * pivot_delay(1e-4, stack, LAM), rel=1e-12)

    def test_sign_convention(self, stack):
        assert pivot_delay(1e-4, stack, LAM, sign=-1) == -pivot_delay(1e-4, stack, LAM)

    @pytest.mark.parametrize("theta", [0.01, 0.03, 0.05])
    def test_consistency_with_compound_retardance(self, stack, theta):
        # the pivot delay must equal the oblique-incidence retardance excess
        # over the zero-order term, divided by the optical frequency, with
        # the external angle refracted to xi = theta / n
        _, _, n_avg = quartz_indices(LAM)
        xi = theta / n_avg
        excess = compound_retardance(LAM, stack, TiltAngles(xi=xi)) \
            - zero_order_retardance(stack, LAM)
        omega = 2 * np.pi * C_VACUUM / LAM
        assert pivot_delay(theta, stack, LAM) == pytest.approx(excess / omega, rel=1e-2)

    def test_large_angle_warns(self, stack):
        with pytest.warns(UserWarning):
            pivot_delay(0.3, stack, LAM)

    def test_theta_for_delay_round_trip(self, stack):
        tau = 1e-17
        theta = theta_for_delay(tau, stack, LAM)
        assert pivot_delay(theta, stack, LAM) == pytest.approx(tau, rel=1e-12)


class TestDispersionModel:
    def test_positive_uniaxial(self):
        for lam in (690e-9, 780e-9, 900e-9):
            n_o, n_e, n_avg = quartz_indices(lam)
            assert n_e > n_o > 1.5
            assert n_avg == pytest.approx((n_o + n_e) / 2)

    def test_birefringence_nearly_constant_across_band(self):
        # the tilt-to-delay map relies on (n_e - n_o) varying only weakly
        # over the source band; the explicit 1/lambda factor dominates
        lams = np.linspace(690e-9, 900e-9, 64)
        dn = np.array([quartz_indices(l)[1] - quartz_indices(l)[0] for l in lams])
        assert np.ptp(dn) / dn.mean() < 0.02

    def test_wavelength_domain(self):
        with pytest.raises(DomainError):
            quartz_indices(50e-9)

    def test_stack_validation(self):
        with pytest.raises(DomainError):
            PlateStack(h1=-1e-3, h2=1e-3)
        with pytest.raises(DomainError):
            TiltAngles(xi=np.pi / 2)
