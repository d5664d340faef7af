import numpy as np
import pytest

from weakdelay import (DomainError, ExperimentConfig, ModelError,
                       SourceConfig, alpha_min, default_dispersive_qwp,
                       default_quartz_stack, first_order, make_source,
                       pivot_delay, postselection_probabilities_exact,
                       resolution_factor, simulate, snr_sweep, sweep_theta,
                       wva_uncertainty)

from conftest import PHI_JWM, PHI_WVA, noise_free_config


class TestSource:
    def test_default_grid_has_2101_bins(self):
        cfg = SourceConfig()
        assert cfg.n_bins() == 2101
        src = make_source(cfg)
        assert src.grid_nm[0] == 690.0 and src.grid_nm[-1] == 900.0
        assert src.is_normalized()

    def test_shapes(self):
        for shape in ("gaussian", "lorentzian", "flat"):
            src = make_source(SourceConfig(shape=shape))
            assert src.is_normalized()
            assert src.weights.max() > 0

    def test_validation(self):
        with pytest.raises(DomainError):
            SourceConfig(grid_step_nm=0.0)
        with pytest.raises(DomainError):
            SourceConfig(grid_min_nm=900.0, grid_max_nm=690.0)
        with pytest.raises(DomainError):
            SourceConfig(shape="voigt")


class TestSimulate:
    def test_balanced_zero_delay_splits_source_evenly(self, source):
        rec = simulate(noise_free_config(np.pi / 2, 0.0))
        assert np.allclose(rec.port1.weights, 0.5 * source.weights, atol=1e-15)
        assert np.allclose(rec.port2.weights, 0.5 * source.weights, atol=1e-15)

    def test_fixed_seed_is_bit_identical(self):
        cfg = ExperimentConfig(phi_actual=PHI_JWM, tau_true=1e-17,
                               photons=200_000, seed=99)
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.port1.weights, b.port1.weights)
        assert np.array_equal(a.port2.weights, b.port2.weights)

    def test_port_totals_match_exact_probabilities(self, source):
        tau, phi = 1e-17, PHI_JWM
        rec = simulate(noise_free_config(phi, tau))
        p1, p2 = postselection_probabilities_exact(source, tau, phi)
        assert rec.port1.total() == pytest.approx(p1, abs=1e-12)
        assert rec.port2.total() == pytest.approx(p2, abs=1e-12)

    def test_dispersive_totals_still_sum_to_one(self):
        rec = simulate(noise_free_config(PHI_WVA, 1e-17, qwp=default_dispersive_qwp()))
        assert rec.total_weight() == pytest.approx(1.0, abs=1e-9)

    def test_multinomial_conserves_photon_count(self):
        cfg = ExperimentConfig(phi_actual=PHI_JWM, tau_true=0.0,
                               photons=123_456, seed=5)
        rec = simulate(cfg)
        assert rec.total_weight() == 123_456
        assert rec.total_events == 123_456

    def test_poisson_option(self):
        cfg = ExperimentConfig(phi_actual=PHI_JWM, tau_true=0.0,
                               photons=50_000, seed=5, noise="poisson")
        rec = simulate(cfg)
        assert rec.total_weight() == rec.total_events
        assert abs(rec.total_weight() - 50_000) < 5 * np.sqrt(50_000)

    def test_delay_via_plate_pivot(self):
        stack = default_quartz_stack()
        theta = 2e-5
        cfg = ExperimentConfig(phi_actual=PHI_JWM, theta=theta, stack=stack,
                               photons=0)
        rec = simulate(cfg)
        assert rec.metadata["tau_true_s"] == pytest.approx(
            pivot_delay(theta, stack, 780e-9), rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(phi_actual=0.0, tau_true=1e-18)
        with pytest.raises(DomainError):
            ExperimentConfig(phi_actual=1.0, tau_true=1e-18, theta=1e-5)
        with pytest.raises(DomainError):
            ExperimentConfig(phi_actual=1.0)
        with pytest.raises(DomainError):
            ExperimentConfig(phi_actual=1.0, theta=1e-5)  # stack missing
        with pytest.raises(DomainError):
            ExperimentConfig(phi_actual=1.0, tau_true=0.0, photons=-1)


class TestStatisticalSoundness:
    def test_first_order_mean_converges_to_noise_free(self):
        tau, phi, photons = 2e-18, PHI_JWM, 1_000_000
        noise_free = first_order(simulate(noise_free_config(phi, tau)),
                                 phi).tau_hat
        cfg = ExperimentConfig(phi_actual=phi, tau_true=tau, photons=photons)
        estimates = np.empty(1000)
        for k in range(1000):
            rng = np.random.default_rng((42, k))
            estimates[k] = first_order(simulate(cfg, rng), phi).tau_hat
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - noise_free) < 3 * se


@pytest.fixture(scope="module")
def stack():
    return default_quartz_stack()


class TestSweepTheta:
    def test_zero_angle_row(self, stack):
        cfg = noise_free_config(PHI_JWM, 0.0)
        rows = sweep_theta([0.0], stack, cfg)
        for est in rows[0].estimates.values():
            assert abs(est) < 1e-24

    def test_jwm_tracks_theory(self, stack):
        from weakdelay import theta_for_delay
        cfg = noise_free_config(PHI_JWM, 0.0)
        thetas = [theta_for_delay(t, stack, 780e-9) for t in (2e-18, 1e-17)]
        rows = sweep_theta(thetas, stack, cfg, mode="jwm")
        for row in rows:
            assert row.estimates["exact"] == pytest.approx(row.tau_theory, rel=1e-6)
            assert row.estimates["first_order"] == pytest.approx(row.tau_theory, rel=1e-2)
            assert row.estimates["jwm_simplified"] == pytest.approx(row.tau_theory, rel=1e-2)

    def test_wva_mode_has_no_jwm_column(self, stack):
        cfg = noise_free_config(PHI_WVA, 0.0)
        rows = sweep_theta([1e-5], stack, cfg)
        assert "jwm_simplified" not in rows[0].estimates

    def test_jwm_shortcut_scatters_more_under_shot_noise(self):
        # the balanced shortcut cancels two large port moments, so photon
        # noise blows up its scatter relative to the first-order estimator
        import warnings
        from weakdelay import jwm_simplified
        phi, tau = PHI_JWM, 1e-17
        cfg = ExperimentConfig(phi_actual=phi, tau_true=tau, photons=1_000_000)
        err_fo, err_jwm = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in range(120):
                rec = simulate(cfg, np.random.default_rng((5, k)))
                err_fo.append(first_order(rec, phi).tau_hat - tau)
                err_jwm.append(jwm_simplified(rec).tau_hat - tau)
        assert np.std(err_jwm) > 3 * np.std(err_fo)

    def test_wva_dispersive_deviation_grows(self, stack):
        from weakdelay import theta_for_delay
        cfg = noise_free_config(PHI_WVA, 0.0, qwp=default_dispersive_qwp())
        thetas = [theta_for_delay(t, stack, 780e-9) for t in (5e-18, 1e-17, 2e-17)]
        rows = sweep_theta(thetas, stack, cfg, mode="wva")
        devs = [row.tau_theory - row.estimates["first_order"] for row in rows]
        assert devs[0] < devs[1] < devs[2]

    def test_empty_theta_list_rejected(self, stack):
        with pytest.raises(DomainError):
            sweep_theta([], stack, noise_free_config(PHI_JWM, 0.0))


class TestSnrSweep:
    def test_point_layout_and_determinism(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=200_000, seed=17)
        pts_a = snr_sweep([0.005, 0.01], PHI_WVA, [PHI_WVA, 0.05], 30, cfg)
        pts_b = snr_sweep([0.005, 0.01], PHI_WVA, [PHI_WVA, 0.05], 30, cfg)
        assert len(pts_a) == 4
        assert [p.snr_db for p in pts_a] == [p.snr_db for p in pts_b]

    def test_equals_explicit_loop_of_simulate(self):
        # one forward model per alpha must draw exactly what a fresh
        # simulate per trial draws from the same substream
        from dataclasses import replace
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=100_000, seed=5, noise="poisson")
        alphas, phis, trials = [0.004, 0.012], [PHI_WVA, 0.05], 30
        pts = snr_sweep(alphas, PHI_WVA, phis, trials, cfg)
        want = []
        for ia, alpha in enumerate(alphas):
            tau = alpha / cfg.source.omega0
            point_cfg = replace(cfg, tau_true=tau)
            for ip, phi in enumerate(phis):
                errors = [first_order(simulate(point_cfg, np.random.default_rng(
                    (cfg.seed, ia, ip, k))), phi).tau_hat - tau for k in range(trials)]
                want.append(10.0 * np.log10(tau ** 2 / np.mean(np.square(errors))))
        assert [p.snr_db for p in pts] == want

    def test_matched_curve_sanity(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=1_000_000, seed=23)
        pts = snr_sweep([0.005], PHI_WVA, [PHI_WVA], 30, cfg)
        assert pts[0].snr_db > 10.0

    def test_trial_floor_enforced(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError):
            snr_sweep([0.005], PHI_WVA, [PHI_WVA], 10, cfg)

    def test_zero_alpha_excluded(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError):
            snr_sweep([0.0], PHI_WVA, [PHI_WVA], 30, cfg)

    def test_snr_flatness_guard_matched_phi(self):
        # regression guard: with matched phi the SNR curve should stay
        # within a 5 dB band over alpha in [0.002, 0.02].
        #
        # KNOWN DEFECT: the first-order estimator's bias at phi = 0.03 is
        # strongly alpha dependent (zero near alpha = tan(phi/2), about
        # -40% at alpha = 0.02), so the measured spread is ~10-12 dB and
        # this guard fails; the assertion message carries the curve.
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=10_000_000, seed=31)
        alphas = [0.002, 0.005, 0.01, 0.02]
        pts = snr_sweep(alphas, PHI_WVA, [PHI_WVA], 100, cfg)
        snrs = [p.snr_db for p in pts]
        spread = max(snrs) - min(snrs)
        assert spread <= 5.0, (
            f"matched-phi SNR spread {spread:.1f} dB over alpha={alphas}: "
            f"curve={[round(s, 1) for s in snrs]} dB")


class TestAnalyticFormulas:
    def test_resolution_factor(self):
        c = resolution_factor(780.0, 17.6, 0.1)
        assert c == pytest.approx(780.0 * 0.1 / (4 * 17.6 ** 2), rel=1e-12)

    def test_alpha_min_reference_coefficient(self):
        assert alpha_min(1.0) == pytest.approx(3.7165, abs=5e-4)

    def test_alpha_min_linear_in_epsilon(self):
        assert alpha_min(0.002) == pytest.approx(2 * alpha_min(0.001), rel=1e-12)

    def test_alpha_min_for_typical_misalignment(self):
        assert alpha_min(0.0027) == pytest.approx(0.010, abs=2e-4)

    def test_alpha_min_is_fixed_point_of_uncertainty(self):
        # substituting alpha = alpha_min, beta = epsilon back into the
        # uncertainty formula must return alpha_min
        eps = 0.0027
        a_min = alpha_min(eps)
        assert wva_uncertainty(a_min, eps) == pytest.approx(a_min, rel=1e-9)

    def test_alpha_min_requires_small_resolution_factor(self):
        with pytest.raises(ModelError):
            alpha_min(0.001, lambda0_nm=780.0, delta_lambda_nm=8.0,
                      resolution_nm=1.0)

    def test_uncertainty_beta_optimum(self):
        # numeric minimization over beta confirms the beta = alpha optimum
        alpha = 0.01
        betas = np.linspace(0.001, 0.05, 2000)
        vals = [wva_uncertainty(alpha, b) for b in betas]
        assert betas[int(np.argmin(vals))] == pytest.approx(alpha, rel=0.01)
        assert min(vals) == pytest.approx(wva_uncertainty(alpha, alpha), rel=1e-4)

    def test_uncertainty_scalings(self):
        base = wva_uncertainty(0.01, 0.01, resolution_nm=0.1)
        assert wva_uncertainty(0.01, 0.01, resolution_nm=0.2) == pytest.approx(
            2 * base, rel=1e-12)
        assert wva_uncertainty(0.01, 0.01, delta_lambda_nm=35.2) == pytest.approx(
            base / 4, rel=1e-12)

    def test_uncertainty_rejects_singular_inputs(self):
        with pytest.raises(DomainError):
            wva_uncertainty(0.0, 0.01)
        with pytest.raises(DomainError):
            wva_uncertainty(0.01, 0.0)

    def test_default_dispersive_qwp_design(self):
        qwp = default_dispersive_qwp()
        assert qwp.tau0 * SourceConfig().omega0 == pytest.approx(np.pi / 4, rel=1e-12)
