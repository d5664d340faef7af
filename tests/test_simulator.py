import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from weakdelay import (DegenerateRecordError, DomainError, ExperimentConfig,
                       ModelError, QwpModel, SourceConfig, alpha_min,
                       default_dispersive_qwp, default_quartz_stack,
                       first_order, make_source,
                       pivot_delay, postselection_probabilities_exact,
                       resolution_factor, simulate, snr_sweep, sweep_theta,
                       wva_uncertainty)
from weakdelay import simulator
from weakdelay.simulator import MAX_PHASE, expected_record

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

    @pytest.mark.parametrize("field, value, phase", [
        ("tau_true", np.inf, "inf"), ("tau_true", np.nan, "nan"), ("tau_true", 1e300, "inf"),
        ("tau_true", 1e-8, "2.73e+07"), ("tau_true", -1e-8, "2.73e+07"),
        ("theta", np.inf, "inf"), ("theta", np.nan, "nan"), ("theta", 1e200, "inf"),
    ], ids=["tau_inf", "tau_nan", "tau_overflow", "tau_past_bound", "tau_negative_past_bound",
            "theta_inf", "theta_nan", "theta_overflow"])
    def test_delay_input_must_keep_the_phases_within_the_bound(self, field, value, phase, stack):
        # such a delay reached zeta's tangent as an invalid value and then
        # a ModelError blaming zeta, or pivot_delay's theta ** 2 as a raw
        # OverflowError; one whose phases were finite but past the range the
        # likelihood core's model-zero screen covers simulated, and its
        # exact estimate was a meaningless alias
        kw = {field: value, "stack": stack if field == "theta" else None}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as raised:
                simulate(ExperimentConfig(phi_actual=0.3, photons=0, **kw))
        assert str(raised.value) == (f"{field} = {value!r}: its delay overflows the phase "
                                     f"bound (largest phase {phase} rad on the grid, above "
                                     f"2^22 rad)")

    def test_delay_at_the_phase_bound_is_accepted(self):
        # 2^22 rad of phase at the grid's shortest wavelength: 1.54e-9 s
        source = SourceConfig()
        tau = MAX_PHASE / source.largest_phase(1.0)
        assert 1.53e-9 < tau < 1.55e-9
        ExperimentConfig(phi_actual=0.3, tau_true=tau * (1 - 1e-15), photons=0)
        with pytest.raises(DomainError, match="phase bound"):
            ExperimentConfig(phi_actual=0.3, tau_true=tau * (1 + 1e-15), photons=0)


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
        rows = sweep_theta(thetas, stack, cfg)
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
        from weakdelay import jwm_simplified
        phi, tau = PHI_JWM, 1e-17
        cfg = ExperimentConfig(phi_actual=phi, tau_true=tau, photons=1_000_000)
        err_fo, err_jwm = [], []
        for k in range(120):
            rec = simulate(cfg, np.random.default_rng((5, k)))
            err_fo.append(first_order(rec, phi).tau_hat - tau)
            err_jwm.append(jwm_simplified(rec).tau_hat - tau)
        assert np.std(err_jwm) > 3 * np.std(err_fo)

    def test_wva_dispersive_deviation_grows(self, stack):
        from weakdelay import theta_for_delay
        cfg = noise_free_config(PHI_WVA, 0.0, qwp=default_dispersive_qwp())
        thetas = [theta_for_delay(t, stack, 780e-9) for t in (5e-18, 1e-17, 2e-17)]
        rows = sweep_theta(thetas, stack, cfg)
        devs = [row.tau_theory - row.estimates["first_order"] for row in rows]
        assert devs[0] < devs[1] < devs[2]

    def test_empty_theta_list_rejected(self, stack):
        with pytest.raises(DomainError):
            sweep_theta([], stack, noise_free_config(PHI_JWM, 0.0))

    def test_angle_whose_delay_overflows_rejected(self, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="theta = 1e"):
                sweep_theta([1e200], stack, noise_free_config(PHI_JWM, 0.0))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("sweep", ["snr_sweep", "sweep_theta"])
def test_non_finite_sweep_values_rejected_before_simulating(sweep, value, stack, monkeypatch):
    # a NaN passes alpha <= 0, and an inf alpha reached zeta's tangent
    def simulating(*args, **kwargs):
        raise AssertionError("simulated a non-finite sweep value")

    monkeypatch.setattr(simulator, "simulate", simulating)
    monkeypatch.setattr(simulator, "expected_record", simulating)
    cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
    name = "alpha" if sweep == "snr_sweep" else "theta"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{name} = {value!r} is not finite"):
            if sweep == "snr_sweep":
                snr_sweep([0.01, value], PHI_WVA, [PHI_WVA], 30, cfg)
            else:
                sweep_theta([0.0, value], stack, cfg)


def explicit_loop_snr(cfg, alphas, phis, trials):
    """snr_sweep's SNRs, from first_order on a fresh simulate per trial."""
    want = []
    for ia, alpha in enumerate(alphas):
        tau = alpha / cfg.source.omega0
        point_cfg = replace(cfg, tau_true=tau)
        for ip, phi in enumerate(phis):
            errors = [first_order(simulate(point_cfg, np.random.default_rng(
                (cfg.seed, ia, ip, k))), phi).tau_hat - tau for k in range(trials)]
            want.append(10.0 * np.log10(tau ** 2 / np.mean(np.square(errors))))
    return want


#: Share counts for snr_sweep's trials: serial, two, three, and one more
#: than the 30 trials of a point (capped at 30, a thread per trial).
SHARES = [1, 2, 3, 31]


@pytest.fixture()
def shares(request, monkeypatch):
    """Deal each snr_sweep point's trials to ``request.param`` shares."""
    def no_thread(*args, **kwargs):
        raise AssertionError("one share started a thread")

    monkeypatch.setattr(simulator, "_usable_cores", lambda: request.param)
    if request.param == 1:
        monkeypatch.setattr(simulator.threading, "Thread", no_thread)
    return request.param


class TestSnrSweep:
    def test_point_layout_and_determinism(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=200_000, seed=17)
        pts_a = snr_sweep([0.005, 0.01], PHI_WVA, [PHI_WVA, 0.05], 30, cfg)
        pts_b = snr_sweep([0.005, 0.01], PHI_WVA, [PHI_WVA, 0.05], 30, cfg)
        assert len(pts_a) == 4
        assert [p.snr_db for p in pts_a] == [p.snr_db for p in pts_b]

    @pytest.mark.parametrize("shares", SHARES, indirect=True)
    @pytest.mark.parametrize("qwp", [QwpModel(), default_dispersive_qwp()],
                             ids=["ideal", "dispersive"])
    def test_equals_explicit_loop_of_simulate(self, qwp, shares):
        # one forward model per alpha must draw exactly what a fresh
        # simulate per trial draws from the same substream; a dispersive
        # actual analyzer pins per-bin weak values too.  Any share count
        # gives the serial loop's errors, bit for bit
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, qwp=qwp,
                               photons=100_000, seed=5, noise="poisson")
        alphas, phis, trials = [0.004, 0.012], [PHI_WVA, 0.05], 30
        pts = snr_sweep(alphas, PHI_WVA, phis, trials, cfg)
        assert [p.snr_db for p in pts] == explicit_loop_snr(cfg, alphas, phis, trials)

    @pytest.mark.parametrize("shares", SHARES, indirect=True)
    @pytest.mark.parametrize("qwp", [QwpModel(), default_dispersive_qwp()],
                             ids=["ideal", "dispersive"])
    def test_multinomial_equals_explicit_loop_of_simulate(self, qwp, shares):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, qwp=qwp,
                               photons=200_000, seed=11)
        alphas, phis, trials = [0.003, 0.015], [PHI_WVA, 0.06], 30
        pts = snr_sweep(alphas, PHI_WVA, phis, trials, cfg)
        assert [p.snr_db for p in pts] == explicit_loop_snr(cfg, alphas, phis, trials)

    @pytest.mark.parametrize("shares", [1, 3], indirect=True)
    def test_empty_poisson_draw_raises(self, shares):
        # one expected photon per trial: some trial of the 30 draws none
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1,
                               seed=2, noise="poisson")
        before = threading.active_count()
        with pytest.raises(ModelError, match="Poisson draw produced an empty record"):
            snr_sweep([0.01], PHI_WVA, [PHI_WVA], 30, cfg)
        assert threading.active_count() == before

    @pytest.mark.parametrize("shares", [*SHARES, 5], indirect=True)
    def test_lowest_failing_trial_raises(self, shares, monkeypatch):
        # trials 4 and 7 fail with distinct errors.  Where they fall in
        # different shares, trial 4 waits until trial 7 has failed; the
        # serial loop's error, trial 4's, must still be the one raised,
        # after every lower trial has run.  Five shares put trial 7 in a
        # lower share than trial 4
        ran, seven_failed = [], threading.Event()
        sampler = simulator._sampler

        def failing(expected, cfg):
            draw = sampler(expected, cfg)

            def failing_draw(rng):
                k = rng.bit_generator.seed_seq.entropy[-1]
                ran.append(k)
                if k == 7:
                    seven_failed.set()
                    raise ModelError("trial 7 failed")
                if k == 4:
                    if 4 % shares != 7 % shares:
                        assert seven_failed.wait(timeout=10)
                    raise ModelError("trial 4 failed")
                return draw(rng)
            return failing_draw

        monkeypatch.setattr(simulator, "_sampler", failing)
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000, seed=3)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with pytest.raises(ModelError, match="^trial 4 failed$"):
                snr_sweep([0.01], PHI_WVA, [PHI_WVA], 30, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert set(range(5)) <= set(ran)

    @pytest.mark.parametrize("shares", [1, 3], indirect=True)
    def test_interrupt_stops_every_share(self, shares, monkeypatch):
        # an interrupt of the calling thread, in trial 0, is raised after
        # the join; every other share ends the trial it is in, which lasts
        # well past the interrupt, and runs no further one
        ran, interrupted = [], threading.Event()
        sampler = simulator._sampler

        def interrupting(expected, cfg):
            draw = sampler(expected, cfg)

            def interrupting_draw(rng):
                k = rng.bit_generator.seed_seq.entropy[-1]
                ran.append(k)
                if k == 0:
                    interrupted.set()
                    raise KeyboardInterrupt
                interrupted.wait(timeout=10)
                time.sleep(0.05)
                return draw(rng)
            return interrupting_draw

        monkeypatch.setattr(simulator, "_sampler", interrupting)
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000, seed=3)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            snr_sweep([0.01], PHI_WVA, [PHI_WVA], 30, cfg)
        assert threading.active_count() == before
        assert 0 in ran and set(ran) <= set(range(shares))

    @pytest.mark.parametrize("count, cores", [(6, 6), (None, 1)])
    def test_usable_cores_without_an_affinity_set(self, count, cores, monkeypatch):
        # where the OS has no affinity call, the cores are its CPU count,
        # and one core where it cannot tell
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: count)
        assert simulator._usable_cores() == cores

    @pytest.mark.parametrize("alphas, phis", [([], [PHI_WVA]), ([0.01], [])],
                             ids=["no_alphas", "no_phis"])
    def test_empty_list_rejected(self, alphas, phis):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError):
            snr_sweep(alphas, PHI_WVA, phis, 30, cfg)

    def test_scalar_assumed_phi_is_a_list_of_one(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000, seed=2)
        assert (snr_sweep(0.01, PHI_WVA, PHI_WVA, 30, cfg)
                == snr_sweep([0.01], PHI_WVA, [PHI_WVA], 30, cfg))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_assumed_phi_rejected(self, value):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError, match=f"phi_assumed = {value!r} is not finite"):
            snr_sweep([0.01], PHI_WVA, [PHI_WVA, value], 30, cfg)

    def test_matched_curve_sanity(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0,
                               photons=1_000_000, seed=23)
        pts = snr_sweep([0.005], PHI_WVA, [PHI_WVA], 30, cfg)
        assert pts[0].snr_db > 10.0

    def test_trial_floor_enforced(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError):
            snr_sweep([0.005], PHI_WVA, [PHI_WVA], 10, cfg)

    @pytest.mark.parametrize("trials", [30.0, 30.5, "30", None])
    @pytest.mark.parametrize("photons", [0, 1000])
    def test_non_integer_trials_rejected_before_simulating(self, trials, photons, monkeypatch):
        # 30.0 and 30.5 reached np.empty (or, noise-free, the returned
        # points); "30" and None failed the comparison with 30
        def simulating(*args, **kwargs):
            raise AssertionError("simulated with non-integer trials")

        monkeypatch.setattr(simulator, "_sampler", simulating)
        monkeypatch.setattr(simulator, "expected_record", simulating)
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=photons)
        with pytest.raises(DomainError) as raised:
            snr_sweep([0.005], PHI_WVA, [PHI_WVA], trials, cfg)
        assert str(raised.value) == f"trials must be an integer, got {trials!r}"

    def test_integer_like_trials_is_an_int(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000, seed=4)
        point, = snr_sweep([0.005], PHI_WVA, [PHI_WVA], np.int64(30), cfg)
        assert point.trials == 30 and type(point.trials) is int

    def test_overflowing_coefficients_raise_on_the_first_trial(self):
        # cot^2(phi/2) w^2 times ~1e10 dark-port events passes the float
        # range; the CLI rejects such a flag before it gets here
        cfg = ExperimentConfig(phi_actual=0.5, tau_true=0.0, photons=10**10, seed=1)
        with pytest.raises(DegenerateRecordError) as raised:
            snr_sweep([0.005], 0.5, [2e-135], 30, cfg)
        assert str(raised.value) == "first-order coefficients are not finite"

    def test_noise_free_point_is_the_first_order_bias(self, monkeypatch):
        # photons 0: every trial would draw the expected counts, so each
        # point draws once and its SNR is that of the first-order bias
        draws = []
        sampler = simulator._sampler

        def counting(expected, cfg):
            draw = sampler(expected, cfg)

            def counted(rng):
                draws.append(1)
                return draw(rng)
            return counted

        monkeypatch.setattr(simulator, "_sampler", counting)
        # every alpha shares the grid: one power matrix per sweep
        matrices = []
        powers = simulator._powers

        def counting_powers(*args):
            matrices.append(args)
            return powers(*args)

        monkeypatch.setattr(simulator, "_powers", counting_powers)
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=0, seed=3)
        alphas, phis = [0.002, 0.005, 0.01, 0.02], [PHI_WVA, 0.05, 0.08]
        pts = snr_sweep(alphas, PHI_WVA, phis, 100, cfg)
        assert len(draws) == len(pts) == 12
        assert len(matrices) == 1
        for p in pts:
            tau = p.alpha / cfg.source.omega0
            bias = first_order(expected_record(replace(cfg, tau_true=tau)),
                               p.phi_assumed).tau_hat - tau
            assert p.trials == 100
            assert p.snr_db == pytest.approx(10.0 * np.log10(tau ** 2 / bias ** 2), rel=1e-12)

    def test_zero_alpha_excluded(self):
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with pytest.raises(DomainError):
            snr_sweep([0.0], PHI_WVA, [PHI_WVA], 30, cfg)

    def test_underflowing_squared_delay_rejected_before_simulating(self, monkeypatch):
        # tau^2 read 0, and the SNR -inf with a RuntimeWarning
        def simulating(*args, **kwargs):
            raise AssertionError("simulated an underflowing alpha")

        monkeypatch.setattr(simulator, "expected_record", simulating)
        cfg = ExperimentConfig(phi_actual=PHI_WVA, tau_true=0.0, photons=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="alpha = 1e-300: its squared delay underflows"):
                snr_sweep([0.01, 1e-300], PHI_WVA, [PHI_WVA], 30, cfg)

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

    @pytest.mark.parametrize("formula, args, message", [
        (wva_uncertainty, (1e-300, 1e-300), "underflows to 0"),
        (wva_uncertainty, (1e-320, 1.0), "is not finite"),
        (wva_uncertainty, (1e200, 1.0), "is not finite"),
        (alpha_min, (1e308,), "epsilon = 1e[+]308"),
        (wva_uncertainty, (1e-10, 1e300), "alpha = 1e-10, beta = 1e[+]300"),
        (resolution_factor, (780.0, 1e-200, 0.1), "delta_lambda_nm = 1e-200"),
        (resolution_factor, (780.0, 1e200, 0.1), "delta_lambda_nm = 1e[+]200"),
        (resolution_factor, (1e-10, 17.6, 1e-320), "resolution_nm = 1e-320 [(]factor 0.0[)]"),
        (resolution_factor, (1e308, 17.6, 1e308), "lambda0_nm = 1e[+]308, .*[(]factor inf[)]"),
        (alpha_min, (1.0, 1.0, 17.6, 1e-320), "epsilon = 1.0"),
    ], ids=["underflowing_denominator", "overflowing_uncertainty", "overflowing_square",
            "overflowing_alpha_min", "overflowing_beta_square", "underflowing_line_square",
            "overflowing_line_square", "underflowing_factor", "overflowing_factor",
            "subnormal_factor"])
    def test_closed_forms_reject_results_out_of_range(self, formula, args, message):
        # a raw ZeroDivisionError; inf; a raw OverflowError; inf with a
        # RuntimeWarning; an errno tuple as message; a raw ZeroDivisionError;
        # a raw OverflowError; a factor of 0 (a RuntimeWarning in alpha_min);
        # an infinite factor (a ModelError in alpha_min); and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                formula(*args)

    def test_default_dispersive_qwp_design(self):
        qwp = default_dispersive_qwp()
        assert qwp.tau0 * SourceConfig().omega0 == pytest.approx(np.pi / 4, rel=1e-12)
