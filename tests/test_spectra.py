import warnings

import numpy as np
import pytest

from weakdelay import _kernels, spectra
from weakdelay import (DegenerateRecordError, DomainError, MeasurementRecord, ModelError,
                       QwpModel, SourceConfig, Spectrum, completeness_defect,
                       ideal_weak_values, make_source,
                       pooled_variance, port_projections,
                       postselected_distribution,
                       postselection_probabilities_exact, record_moments,
                       wavelength_to_angular_frequency, zeta)
from conftest import PHI_JWM, noise_free_config


def moments(port, normalize_by_total):
    """One port's moments, sub-normalized by ``normalize_by_total``, as a
    record computes them."""
    return spectra._moments(port.weights, port.omega, normalize_by_total)


def _one_column(x, aw):
    """A prepared record of one column of weight 1 at w = 1, whose score
    is d log zeta / dx itself, and a workspace for phases x as its rows."""
    p = _kernels.prepare(np.ones(1), np.ones(1), np.zeros(1), aw, aw)
    shape = (np.size(x), 1)
    return p, (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))


def _slope(x, aw):
    """d log zeta / dx at the phases x by the score's row function, and
    the slope form it reads."""
    p, work = _one_column(x, aw)
    return _kernels.score_rows(np.reshape(x, (-1, 1)).copy(), work, p), p.form


class TestWavelengthConversion:
    def test_reference_value(self):
        # independent arithmetic: 2 pi * 2.99792458e8 / 780e-9
        expected = 2.0 * np.pi * 2.99792458e8 / 780e-9
        assert expected == pytest.approx(2.4149379068e15, rel=1e-9)
        assert wavelength_to_angular_frequency(780.0) == pytest.approx(expected, rel=1e-12)

    def test_inverse_proportionality(self):
        assert wavelength_to_angular_frequency(500.0) == pytest.approx(
            2 * wavelength_to_angular_frequency(1000.0), rel=1e-12)

    def test_band_edges_bracket_default_grid(self):
        w_low = wavelength_to_angular_frequency(900.0)
        w_high = wavelength_to_angular_frequency(690.0)
        grid_omega = make_source(SourceConfig()).omega
        assert w_low <= grid_omega.min() and grid_omega.max() <= w_high

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            wavelength_to_angular_frequency(0.0)
        with pytest.raises(DomainError):
            wavelength_to_angular_frequency(-5.0)

    @pytest.mark.parametrize("lambda_nm", [1e-300, 1e-320, [780.0, 1e-300]],
                             ids=["1e-300", "1e-320", "array"])
    def test_rejects_overflowing_frequency(self, lambda_nm):
        # 2 pi c / (lambda nm) overflows, or lambda nm underflows to 0
        with pytest.raises(DomainError, match="overflows"):
            wavelength_to_angular_frequency(lambda_nm)


class TestZeta:
    def test_nan_delay_is_a_model_error(self):
        with pytest.raises(ModelError) as raised:
            zeta(np.linspace(2.1e15, 2.7e15, 4), np.nan, 1j)
        assert str(raised.value) == ("zeta produced non-finite values; "
                                     "inconsistent (omega, g, aw) inputs")

    def test_zero_coupling(self):
        omega = np.linspace(2.1e15, 2.7e15, 64)
        for aw in (0.3 + 0.0j, 1j * 5, -2.0 + 1.5j):
            assert np.allclose(zeta(omega, 0.0, aw), 1.0, atol=1e-15)

    def test_real_weak_value_has_no_interference_term(self):
        # cos^2 + sin^2 |aw|^2: the minimum over the phase is min(1, |aw|^2)
        x = np.linspace(0.0, 2 * np.pi, 100_001)
        for aw in (0.25, 3.0):
            vals = zeta(x, 1.0, aw + 0.0j)
            assert vals.min() == pytest.approx(min(1.0, aw ** 2), rel=1e-6)

    def test_per_frequency_completeness_ideal(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            omega = rng.uniform(2.0e15, 2.8e15)
            tau = rng.uniform(0.0, 1e-15)
            phi = rng.uniform(0.01, np.pi - 0.01)
            wv = ideal_weak_values(phi)
            total = (np.cos(phi / 2) ** 2 * zeta(omega, tau, wv.aw1)
                     + np.sin(phi / 2) ** 2 * zeta(omega, tau, wv.aw2))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_nonnegative_for_any_complex_weak_value(self):
        rng = np.random.default_rng(2)
        omega = rng.uniform(2.0e15, 2.8e15, size=512)
        for _ in range(200):
            aw = complex(rng.normal(scale=30), rng.normal(scale=30))
            vals = zeta(omega, rng.uniform(0, 1e-15), aw)
            assert np.all(vals >= 0)

    def test_dense_scan_through_dark_port_null(self):
        # crossing the exact zero of a strongly suppressed port must not
        # trip the negativity guard (three-term cancellation rounds at
        # ~1e-13 scale there); values stay clamped at >= 0
        aw = ideal_weak_values(0.03).aw2      # |aw| ~ 67
        x_null = np.arctan(np.tan(0.015))
        omega = 2.4e15
        for g in (x_null + np.linspace(-1e-10, 1e-10, 20001)) / omega:
            assert zeta(omega, g, aw) >= 0.0

    def test_caller_buffers_hold_the_allocated_value(self):
        # into caller buffers, with x overwritten as scratch, zeta takes the
        # same steps as when it allocates; the score's tangent goes into its
        # workspace and leaves x as it is
        x = np.random.default_rng(3).uniform(-3e3, 3e3, 2000)
        for aw in (ideal_weak_values(0.03).aw2, ideal_weak_values(PHI_JWM).aw1):
            terms = _kernels.zeta_terms(aw)
            z = _kernels.zeta(x, terms)
            scratch, out = x.copy(), np.empty((2, x.size))
            z0 = _kernels.zeta(scratch, terms, out=out[0])
            assert np.shares_memory(z0, out[0])
            assert np.array_equal(z0, z)
            assert np.array_equal(_kernels.zeta(x, terms), z)
            p, work = _one_column(x, aw)
            kept = x.reshape(-1, 1).copy()
            tangent, den, zeros = _kernels._tangent(kept, work, p)
            assert zeros is None
            assert np.shares_memory(tangent, work[0]) and np.shares_memory(den, work[1])
            assert np.array_equal(kept[:, 0], x)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    def test_tangent_form_against_long_double_reference(self):
        # |x| up to 3e3 rad is the widest solver bracket, 1e-12 s, times
        # the largest frequency; next to the odd multiples of pi/2, t = tan x
        # is largest and cos^2 x = 1/(1 + t^2) smallest
        rng = np.random.default_rng(17)
        k = np.arange(-955, 955)
        poles = ((2 * k + 1) * (np.pi / np.longdouble(2))).astype(float)
        x = np.concatenate([[0.0], rng.uniform(-3e3, 3e3, 4000),
                            rng.uniform(-1.0, 1.0, 1000), poles,
                            np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf)])
        pairs = [ideal_weak_values(PHI_JWM), ideal_weak_values(0.03),
                 port_projections(0.9, np.array([2.4e15]),
                                  QwpModel("dispersive", 3.25e-16))[0],
                 port_projections(0.9, 2.4e15, QwpModel("absent"))[0]]
        weak_values = [complex(np.ravel(aw)[0]) for pair in pairs
                       for aw in (pair.aw1, pair.aw2)]
        xl = x.astype(np.longdouble)
        c, s = np.cos(xl), np.sin(xl)
        eps = np.finfo(float).eps
        for aw in weak_values:
            terms = _kernels.zeta_terms(aw)
            z = _kernels.zeta(x, terms)
            slope, form = _slope(x, aw)
            re, im = np.longdouble(aw.real), np.longdouble(aw.imag)
            h, dh = c + s * im, c * im - s
            z_ref = h ** 2 + (s * re) ** 2
            slope_ref = (2 * h * dh + 2 * re * re * s * c) / z_ref
            curvature_ref = (2 * (dh ** 2 - h ** 2) + 2 * re * re * (c * c - s * s)) / z_ref \
                - slope_ref ** 2
            scale = 4 * eps * (terms.floor + terms.u ** 2 + terms.v ** 2)
            assert np.max(np.abs(z - z_ref)) <= scale, aw
            # the log-slope's one extra rounding is that of x - phase,
            # eps |x - phase| / 2, with the null or peak phase off by a few
            # eps: it moves the slope by the curvature times that, and the
            # positive terms of A / (A^2 + level) add a few eps of the value
            phase = eps * (np.abs(x - form.phase) / 2 + 4)
            bound = np.abs(curvature_ref) * phase + 8 * eps * np.abs(slope_ref)
            assert np.all(np.abs(slope - slope_ref) <= bound), aw

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    def test_log_slope_next_to_a_peak_or_null_at_zero(self):
        # an absent plate's real weak values put the peak (|A| < 1) or the
        # null (|A| > 1) of zeta at x = 0, where the solver's small delays
        # sit: x - phase is then x itself, and the slope, proportional to x
        # there, keeps its relative accuracy (from the other phase, pi/2
        # away, the rounding of x - phase alone would cost eps / x of it)
        x = np.concatenate([-np.logspace(-8, -1, 50), np.logspace(-8, -1, 50)])
        xl = x.astype(np.longdouble)
        c, s = np.cos(xl), np.sin(xl)
        pair = port_projections(0.9, 2.4e15, QwpModel("absent"))[0]
        for aw in (complex(pair.aw1), complex(pair.aw2)):
            slope, form = _slope(x, aw)
            assert form.phase == 0.0, aw
            re = np.longdouble(aw.real)
            ref = 2 * (re * re - 1) * s * c / (c * c + (s * re) ** 2)
            assert np.max(np.abs(slope / ref - 1)) <= 8 * np.finfo(float).eps, aw

    def test_constant_zeta_has_no_slope(self):
        # an exactly real |A| = 1 gives u = v = 0 and zeta = 1 at every
        # phase: its log-slope is 0 everywhere, x = 0 included, without a
        # NaN or a RuntimeWarning (which fail the test)
        x = np.concatenate([[0.0, np.pi / 2, -np.pi / 2], np.linspace(-3e3, 3e3, 1001)])
        for aw in (1.0 + 0.0j, -1.0 + 0.0j):
            terms = _kernels.zeta_terms(aw)
            assert terms.u == 0.0 and terms.v == 0.0
            assert np.array_equal(_kernels.zeta(x, terms), np.ones(x.size))
            slope, _ = _slope(x, aw)
            assert np.array_equal(slope, np.zeros(x.size))


class TestPostselectedDistribution:
    def test_zero_coupling_scales_source(self, source):
        out = postselected_distribution(source, 0.0, 1j * 0.5, 0.25)
        assert np.allclose(out.weights, 0.25 * source.weights, rtol=1e-15)

    def test_two_port_totals_sum_to_one(self, source):
        phi, tau = 0.8, 3e-17
        wv = ideal_weak_values(phi)
        p1 = postselected_distribution(source, tau, wv.aw1, np.cos(phi / 2) ** 2)
        p2 = postselected_distribution(source, tau, wv.aw2, np.sin(phi / 2) ** 2)
        assert p1.total() + p2.total() == pytest.approx(1.0, abs=1e-9)

    def test_balanced_port_total_linearization(self, source, omega0):
        # at phi = pi/2 and small tau port 1 collects (1 + 2 w0 tau)/2
        tau = 1e-19
        wv = ideal_weak_values(np.pi / 2)
        p1 = postselected_distribution(source, tau, wv.aw1, 0.5).total()
        assert p1 == pytest.approx(0.5 * (1 + 2 * omega0 * tau), rel=1e-6)

    def test_requires_normalized_source(self, source):
        bumpy = Spectrum(source.grid_nm, source.weights * 3.0)
        with pytest.raises(DomainError):
            postselected_distribution(bumpy, 0.0, 1j, 0.5)

    @pytest.mark.parametrize("overlap_sq", [-0.1, 1.5, np.nan])
    def test_overlap_outside_the_unit_interval_is_rejected(self, source, overlap_sq):
        with pytest.raises(DomainError) as raised:
            postselected_distribution(source, 0.0, 1j, overlap_sq)
        assert str(raised.value) == "overlap_sq must lie in [0, 1]"


class TestPostselectionProbabilities:
    def test_zero_delay(self, source):
        for phi in (0.03, 0.9, PHI_JWM):
            p1, p2 = postselection_probabilities_exact(source, 0.0, phi)
            assert p1 == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)
            assert p2 == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-12)

    def test_balanced_linearization(self, source, omega0):
        # quadratic-form limit: P_f1 ~ cos^2(phi/2)(1 + 2 tan(phi/2) w0 tau)
        phi = PHI_JWM
        tau = 4e-19
        p1, p2 = postselection_probabilities_exact(source, tau, phi)
        t = np.tan(phi / 2)
        lin1 = np.cos(phi / 2) ** 2 * (1 + 2 * t * omega0 * tau)
        lin2 = np.sin(phi / 2) ** 2 * (1 - 2 / t * omega0 * tau)
        assert abs(p1 - lin1) < 5 * (omega0 * tau) ** 2
        assert abs(p2 - lin2) < 5 * (omega0 * tau) ** 2

    def test_unbalanced_linearization(self, source, omega0):
        # phi ~ 0 limit needs w0 tau << phi^2; the dark port empties as
        # P_f2 ~ sin^2(phi/2)(1 - 2 cot(phi/2) w0 tau)
        phi = 0.03
        tau = 1e-21
        assert omega0 * tau < phi ** 2 / 100
        p1, p2 = postselection_probabilities_exact(source, tau, phi)
        lin1 = np.cos(phi / 2) ** 2 * (1 + 2 * np.tan(phi / 2) * omega0 * tau)
        lin2 = np.sin(phi / 2) ** 2 * (1 - 2 / np.tan(phi / 2) * omega0 * tau)
        assert abs(p1 - lin1) < 5 * (omega0 * tau) ** 2
        assert abs(p2 - lin2) < 5 * (omega0 * tau) ** 2


class TestMoments:
    def test_delta_like_spectrum(self):
        grid = np.array([779.9, 780.0, 780.1])
        port = Spectrum(grid, np.array([0.0, 10.0, 0.0]))
        m = moments(port, normalize_by_total=10.0)
        w0 = wavelength_to_angular_frequency(780.0)
        assert m.p0 == pytest.approx(1.0)
        assert m.m1 == pytest.approx(w0, rel=1e-12)
        assert m.m2 == pytest.approx(w0 ** 2, rel=1e-12)
        assert m.m1_bar == pytest.approx(w0, rel=1e-12)
        assert m.m2_bar >= m.m1_bar ** 2 * (1 - 1e-12)

    def test_even_split_symmetric(self, source):
        rec = MeasurementRecord(
            port1=Spectrum(source.grid_nm, 0.5 * source.weights),
            port2=Spectrum(source.grid_nm, 0.5 * source.weights),
            total_events=0)
        m1, m2 = record_moments(rec)
        assert m1.p0 == pytest.approx(0.5, abs=1e-12)
        assert m2.p0 == pytest.approx(0.5, abs=1e-12)
        assert m1.m1_bar == pytest.approx(m2.m1_bar, rel=1e-14)

    def test_moments_are_computed_once_per_record(self, source):
        # every estimator reads the moments and the pooled variance held on
        # the record, so they agree bit for bit
        rec = MeasurementRecord(port1=Spectrum(source.grid_nm, 0.3 * source.weights),
                                port2=Spectrum(source.grid_nm, 0.7 * source.weights),
                                total_events=0)
        first = record_moments(rec)
        assert record_moments(rec) is first
        total = rec.total_weight()
        assert first == (moments(rec.port1, total), moments(rec.port2, total))
        assert pooled_variance(rec) is pooled_variance(rec)

    def test_empty_port_barred_undefined(self, source):
        m = moments(Spectrum(source.grid_nm, np.zeros_like(source.weights)), 1.0)
        assert m.p0 == 0.0
        assert np.isnan(m.m1_bar) and np.isnan(m.m2_bar)

    def test_variance_inequality(self, source):
        m = moments(source, 1.0)
        assert m.m2_bar >= m.m1_bar ** 2

    def test_mean_difference_against_fine_grid_quadrature(self):
        # oracle: the same forward model integrated on a 10x finer grid
        from weakdelay import simulate
        phi, tau = PHI_JWM, 1e-17
        coarse = simulate(noise_free_config(phi, tau))
        fine_src = SourceConfig(grid_step_nm=0.01)
        fine = simulate(noise_free_config(phi, tau, source=fine_src))

        def barred_diff(rec):
            a, b = record_moments(rec)
            return a.m1_bar - b.m1_bar

        dc, df = barred_diff(coarse), barred_diff(fine)
        assert dc == pytest.approx(df, rel=1e-6)
        # analytic scale of the effect: 2 tau Var(w) (tan + cot)(phi/2)
        src = make_source(SourceConfig())
        m = moments(src, 1.0)
        var = m.m2_bar - m.m1_bar ** 2
        t = np.tan(phi / 2)
        assert dc == pytest.approx(2 * tau * var * (t + 1 / t), rel=1e-2)

    def test_grid_convergence(self):
        phi, tau = PHI_JWM, 1e-17
        m_a = record_moments(simulate_record(phi, tau, 0.1))[0]
        m_b = record_moments(simulate_record(phi, tau, 0.05))[0]
        assert abs(m_a.m1 - m_b.m1) / abs(m_b.m1) < 1e-6

    def test_rejects_zero_total(self, source):
        with pytest.raises(DegenerateRecordError):
            moments(source, 0.0)


def simulate_record(phi, tau, step_nm):
    from weakdelay import simulate
    return simulate(noise_free_config(phi, tau, source=SourceConfig(grid_step_nm=step_nm)))


class TestCompleteness:
    def test_dispersive_completeness(self, source, omega0):
        # orthogonal resolution port-by-port at each frequency survives the
        # frequency-dependent analyzer
        qwp = QwpModel(variant="dispersive", tau0=(np.pi / 4) / omega0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.02, np.pi - 0.02)
            tau = rng.uniform(0, 1e-15)
            wv, ov1, ov2 = port_projections(phi, source.omega, qwp)
            assert completeness_defect(source, tau, wv, ov1, ov2) < 1e-10

    def test_port_totals_for_normalized_source(self, source):
        rng = np.random.default_rng(4)
        for _ in range(25):
            phi = rng.uniform(0.02, np.pi - 0.02)
            tau = rng.uniform(0, 1e-16)
            p1, p2 = postselection_probabilities_exact(source, tau, phi)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-9)


class TestSpectrumValidation:
    def test_grid_monotonicity(self):
        with pytest.raises(DomainError):
            Spectrum(np.array([700.0, 700.0, 701.0]), np.ones(3))

    def test_negative_weights(self):
        with pytest.raises(DomainError):
            Spectrum(np.array([700.0, 701.0]), np.array([1.0, -0.5]))

    @pytest.mark.parametrize("grid, weights, message", [
        ([700.0, 701.0, 702.0], [1.0, np.nan, 1.0], "finite and nonnegative"),
        ([700.0, 701.0, 702.0], [1.0, np.inf, 1.0], "finite and nonnegative"),
        ([700.0, 701.0, 702.0], [1.0, -np.inf, 1.0], "finite and nonnegative"),
        ([700.0, 701.0, 702.0], [1.0, -0.5, 1.0], "finite and nonnegative"),
        ([700.0, 701.0, 701.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([700.0, np.nan, 702.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([700.0], [1.0], "at least 2 samples"),
        ([700.0, 701.0, 702.0], [1.0, 1.0], "equal length"),
    ], ids=["nan", "inf", "-inf", "negative", "repeated", "nan-wavelength", "one-sample",
            "mismatched-lengths"])
    def test_rejects_bad_values(self, grid, weights, message):
        with pytest.raises(DomainError, match=message):
            Spectrum(np.array(grid), np.array(weights))

    def test_accepts_zero_weights_and_a_shared_grid(self):
        grid = np.array([700.0, 701.0, 702.0])
        one, two = Spectrum(grid, np.zeros(3)), Spectrum(grid, np.array([0.0, 2.0, 1.0]))
        assert one.grid_nm is two.grid_nm
        assert MeasurementRecord(port1=one, port2=two, total_events=3.0).total_weight() == 3.0

    def test_record_grid_mismatch(self, source):
        other = Spectrum(source.grid_nm + 0.05, source.weights)
        with pytest.raises(DomainError):
            MeasurementRecord(port1=source, port2=other, total_events=0)

    def test_record_count_mismatch(self, source):
        with pytest.raises(DomainError):
            MeasurementRecord(port1=source, port2=source, total_events=5.0)

    @pytest.mark.parametrize("w1, w2, total_events", [
        ([1e308, 1e308], [1e308, 1e308], np.inf), ([1e308, 1e308], [0.0, 1.0], 0),
        ([1e308, 0.0], [1e308, 0.0], 0)], ids=["counts", "one_port", "two_ports"])
    def test_record_total_past_the_float_range(self, w1, w2, total_events):
        # the count check read inf - inf with a RuntimeWarning, and prepare
        # then counted no bin: the solver's screen raised a raw ValueError
        grid = np.array([780.0, 781.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sum past the float range"):
                MeasurementRecord(port1=Spectrum(grid, np.array(w1)),
                                  port2=Spectrum(grid, np.array(w2)),
                                  total_events=total_events)

    def test_pooled_variance_of_an_empty_record_is_degenerate(self, source):
        empty = Spectrum(source.grid_nm, np.zeros_like(source.weights))
        rec = MeasurementRecord(port1=empty, port2=empty, total_events=0)
        with pytest.raises(DegenerateRecordError) as raised:
            pooled_variance(rec)
        assert str(raised.value) == "empty record"

    def test_pooled_variance_matches_direct(self, source):
        rec = MeasurementRecord(
            port1=Spectrum(source.grid_nm, 0.25 * source.weights),
            port2=Spectrum(source.grid_nm, 0.75 * source.weights),
            total_events=0)
        m = moments(source, 1.0)
        assert pooled_variance(rec) == pytest.approx(m.m2_bar - m.m1_bar ** 2, rel=1e-12)
