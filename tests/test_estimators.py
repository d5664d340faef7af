import inspect
import warnings

import numpy as np
import pytest

from weakdelay import _kernels
from weakdelay import (DegenerateRecordError, DomainError, ExperimentConfig,
                       MeasurementRecord, Method, ModelError, QwpModel,
                       SolverError, SourceConfig, Spectrum,
                       default_dispersive_qwp, estimate, first_order,
                       general_first_order, ideal_weak_values,
                       jwm_simplified, likelihood_equation_residual,
                       likelihood_profile, log_likelihood,
                       pooled_variance, port_projections, prepare_likelihood,
                       quartic, record_moments, score_residual, simulate,
                       solve_exact, strubi_reference, wva_first_order,
                       wva_mean_shift)
from weakdelay.estimators import _ScoreSeries

from conftest import PHI_JWM, PHI_WVA, noise_free_config

OMEGA0 = SourceConfig().omega0
ZERO_FLOOR = 1e-12 / OMEGA0  # "indistinguishable from zero" scale, ~4e-28 s


def record_at(phi, tau, **kw):
    return simulate(noise_free_config(phi, tau, **kw))


@pytest.fixture(scope="module")
def jwm_record():
    return record_at(PHI_JWM, 1e-17)


@pytest.fixture(scope="module")
def jwm_wv():
    return ideal_weak_values(PHI_JWM)


class TestLogLikelihood:
    def test_maximized_at_true_delay(self, jwm_record, jwm_wv):
        # oracle: coarse grid search over [0, 10 tau*], then a local refine
        tau = 1e-17
        grid = np.linspace(0, 10 * tau, 2001)
        vals = [log_likelihood(g, jwm_record, jwm_wv) for g in grid]
        k = int(np.argmax(vals))
        local = np.linspace(grid[k - 1], grid[k + 1], 401)
        vals_local = [log_likelihood(g, jwm_record, jwm_wv) for g in local]
        g_best = local[int(np.argmax(vals_local))]
        assert g_best == pytest.approx(tau, rel=1e-3, abs=0)

    def test_port_exchange_symmetry(self, jwm_record, jwm_wv):
        from weakdelay import WeakValuePair
        swapped_rec = MeasurementRecord(port1=jwm_record.port2,
                                        port2=jwm_record.port1,
                                        total_events=jwm_record.total_events)
        swapped_wv = WeakValuePair(aw1=jwm_wv.aw2, aw2=jwm_wv.aw1)
        for g in (0.0, 5e-18, 2e-17):
            assert log_likelihood(g, jwm_record, jwm_wv) == pytest.approx(
                log_likelihood(g, swapped_rec, swapped_wv), rel=1e-12,
                abs=1e-14 * jwm_record.total_weight())

    def test_score_identity_at_generating_delay(self, jwm_wv):
        # Q_j proportional to P_j(.; g0) makes the score vanish at g0
        for tau in (0.0, 3e-18, 1e-17):
            rec = record_at(PHI_JWM, tau)
            score = score_residual(tau, rec, jwm_wv)
            scale = sum(abs(np.imag(a)) for a in (jwm_wv.aw1, jwm_wv.aw2)) * OMEGA0
            assert abs(score) < 1e-9 * scale

    def test_singular_bin_sentinel(self):
        # counts where the model reshaping vanishes give -inf, not a raise
        wv = ideal_weak_values(PHI_WVA)
        rec = record_at(PHI_WVA, 0.0)
        g_wall = np.arctan(np.tan(PHI_WVA / 2)) / rec.omega[1000]
        assert log_likelihood(g_wall, rec, wv) == -np.inf

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64")
    def test_accuracy_next_to_dark_port_null(self):
        # the scan crosses the nulls of the amplified port (|A| ~ 67), where
        # a three-term zeta loses digits to cancelling terms of size |A|^2
        rec = record_at(PHI_WVA, 5e-17)
        wv = ideal_weak_values(PHI_WVA)
        omega = rec.omega.astype(np.longdouble)
        grid = np.linspace(0.0, 1e-16, 100_000)[4000:9001:7]
        for g in grid:
            ref = np.longdouble(0.0)
            for port, aw in ((rec.port1, wv.aw1), (rec.port2, wv.aw2)):
                x = np.longdouble(g) * omega
                re, im = np.longdouble(aw.real), np.longdouble(aw.imag)
                z = (np.cos(x) + np.sin(x) * im) ** 2 + (np.sin(x) * re) ** 2
                q = port.weights.astype(np.longdouble)
                ref += (q[q > 0] * np.log(z[q > 0])).sum()
            assert log_likelihood(g, rec, wv) == pytest.approx(float(ref), abs=1e-10), g


class TestArrayEvaluation:
    """Array g: element by element the scalar result, NaN / -inf where singular."""

    @staticmethod
    def _scalar(fn, g, rec, wv):
        try:
            return fn(g, rec, wv)
        except ModelError:
            return np.nan

    @pytest.mark.parametrize("case", ["jwm", "wva", "dispersive"])
    def test_array_call_equals_scalar_calls(self, case):
        qwp = default_dispersive_qwp() if case == "dispersive" else QwpModel()
        phi = PHI_JWM if case == "jwm" else PHI_WVA
        rec = record_at(phi, 1e-17, qwp=qwp)
        wv = port_projections(phi, rec.omega, qwp)[0]
        gs = np.concatenate([[0.0], np.linspace(-3e-17, 3e-17, 21), [1e-17]])
        prepared = prepare_likelihood(rec, wv)
        for fn in (log_likelihood, score_residual, likelihood_equation_residual):
            got = fn(gs, rec, wv)
            want = np.array([self._scalar(fn, g, rec, wv) for g in gs])
            assert got.shape == gs.shape
            np.testing.assert_array_equal(got, want, err_msg=fn.__name__)
            # a prepared record stands in for (record, weak values) exactly
            np.testing.assert_array_equal(fn(gs, prepared), got, err_msg=fn.__name__)
            np.testing.assert_array_equal(
                [self._scalar(fn, g, prepared, None) for g in gs], want,
                err_msg=fn.__name__)

    def test_dark_port_null_row(self):
        wv = ideal_weak_values(PHI_WVA)
        rec = record_at(PHI_WVA, 0.0)
        g_wall = np.arctan(np.tan(PHI_WVA / 2)) / rec.omega[1000]
        gs = np.array([0.5 * g_wall, g_wall, 2.0 * g_wall])
        ll = log_likelihood(gs, rec, wv)
        score = score_residual(gs, rec, wv)
        assert ll[1] == -np.inf and np.isnan(score[1])
        assert np.all(np.isfinite(ll[[0, 2]])) and np.all(np.isfinite(score[[0, 2]]))
        with pytest.raises(ModelError):
            score_residual(g_wall, rec, wv)


class TestCountedBins:
    """A bin is counted when its weight exceeds eps sum(q) / (2 bins)."""

    @pytest.mark.parametrize("photons", [100_000, 10_000_000])
    def test_count_record_counts_every_nonzero_bin(self, photons):
        rec = simulate(ExperimentConfig(phi_actual=PHI_WVA, tau_true=3e-18,
                                        photons=photons, seed=3))
        counted = prepare_likelihood(rec, ideal_weak_values(PHI_WVA)).q.size
        assert counted == np.count_nonzero(rec.port1.weights) + \
            np.count_nonzero(rec.port2.weights)

    @pytest.mark.parametrize("phi,tau", [(PHI_WVA, 1e-17), (PHI_JWM, 1e-17),
                                         (2.4883, -4.59e-17)])
    def test_noise_free_record_drops_at_most_eps_of_its_weight(self, phi, tau):
        rec = record_at(phi, tau)
        q = np.sort(np.concatenate([rec.port1.weights, rec.port2.weights]))
        counted = np.sort(prepare_likelihood(rec, ideal_weak_values(phi)).q)
        dropped = q.size - counted.size
        # the tail weights below eps total / bins are what is left out
        assert 0 < dropped < q.size // 2
        np.testing.assert_array_equal(counted, q[dropped:])
        assert q[:dropped].sum() <= np.finfo(float).eps * q.sum()

    def test_tail_bin_on_its_null_leaves_the_likelihood_finite(self):
        # a 874.5 nm bin of weight 5.3e-39 sits on its null at this delay;
        # counted, it read -inf where the profile reads -0.09
        phi, g = 2.4883, -1.516481167428668e-16
        rec, wv = record_at(phi, -4.59e-17), ideal_weak_values(phi)
        direct = log_likelihood(g, rec, wv)
        _, vals = likelihood_profile(rec, wv, g, g + 1e-19, 101)
        assert np.isfinite(direct)
        assert vals[0] == pytest.approx(direct, rel=0, abs=1e-10 * rec.total_weight())


class TestRationalResidual:
    def test_zero_at_zero_delay_symmetric_record(self, jwm_wv):
        rec = record_at(PHI_JWM, 0.0)
        scale = OMEGA0  # residual scale of one fully unbalanced event
        assert abs(likelihood_equation_residual(0.0, rec, jwm_wv)) < 1e-12 * scale

    def test_residual_at_zero_equals_linear_coefficient(self, jwm_record, jwm_wv):
        (e1,), (e2,) = _ScoreSeries(jwm_record.omega, jwm_wv, 0)(jwm_record.port1.weights,
                                                                  jwm_record.port2.weights)
        res0 = likelihood_equation_residual(0.0, jwm_record, jwm_wv)
        assert res0 == pytest.approx(e1 + e2, rel=1e-12)

    def test_sign_change_brackets_truth(self, jwm_record, jwm_wv):
        tau = 1e-17
        lo = likelihood_equation_residual(0.8 * tau, jwm_record, jwm_wv)
        hi = likelihood_equation_residual(1.2 * tau, jwm_record, jwm_wv)
        assert lo > 0 > hi

    def test_first_order_nearly_zeroes_residual(self, jwm_record, jwm_wv):
        est = first_order(jwm_record, PHI_JWM).tau_hat
        r_fo = likelihood_equation_residual(est, jwm_record, jwm_wv)
        r_0 = likelihood_equation_residual(0.0, jwm_record, jwm_wv)
        assert abs(r_fo) < 1e-2 * abs(r_0)

    def test_warns_outside_weak_regime(self):
        # pick a (phi, g) where max g*omega > 0.5 but every quadratic
        # denominator is still positive, so only the warning fires
        rec = record_at(0.5, 0.0)
        with pytest.warns(UserWarning):
            likelihood_equation_residual(3e-16, rec, ideal_weak_values(0.5))

    def test_model_error_in_forbidden_band(self):
        # for strongly unbalanced postselection the quadratic denominator of
        # the dark port crosses zero near g w = tan(phi/2)
        rec = record_at(PHI_WVA, 1e-17)
        wv = ideal_weak_values(PHI_WVA)
        g_band = np.tan(PHI_WVA / 2) / OMEGA0
        with pytest.raises(ModelError):
            likelihood_equation_residual(g_band, rec, wv)


class TestSolveExact:
    @pytest.mark.parametrize("phi,tau", [
        (PHI_JWM, 1e-18), (PHI_JWM, 5e-17),
        (PHI_WVA, 1e-18), (PHI_WVA, 5e-17),
    ])
    def test_noise_free_recovery(self, phi, tau):
        rec = record_at(phi, tau)
        res = solve_exact(rec, ideal_weak_values(phi))
        assert res.tau_hat == pytest.approx(tau, rel=1e-6, abs=0)
        assert res.diagnostics["bracket_width"] > 0
        assert res.warnings == ()

    def test_negative_delay(self):
        rec = record_at(PHI_JWM, -2e-18)
        res = solve_exact(rec, ideal_weak_values(PHI_JWM))
        assert res.tau_hat == pytest.approx(-2e-18, rel=1e-6, abs=0)

    def test_zero_delay(self):
        rec = record_at(PHI_JWM, 0.0)
        res = solve_exact(rec, ideal_weak_values(PHI_JWM))
        assert abs(res.tau_hat) < ZERO_FLOOR

    def test_dispersive_weak_values_recover_where_ideal_biased(self):
        # analyzer wavelength dependence: the exact solver fed the matching
        # frequency-dependent weak values recovers the truth, while the
        # ideal-analyzer first-order formula is visibly biased
        tau = 1e-17
        qwp = default_dispersive_qwp()
        rec = record_at(PHI_WVA, tau, qwp=qwp)
        wv_disp, _, _ = port_projections(PHI_WVA, rec.omega, qwp)
        res = solve_exact(rec, wv_disp)
        assert res.tau_hat == pytest.approx(tau, rel=1e-3, abs=0)
        fo = first_order(rec, PHI_WVA).tau_hat
        assert abs(fo - tau) / tau > 0.05

    @pytest.mark.parametrize("tau,photons,mirror", [
        (0.0, 10_000_000, 4.9894878969186465e-18), (-1e-17, 0, 1e-17),
    ], ids=["seed_320", "noise_free_negative"])
    def test_real_weak_values_return_nonnegative_mirror_root(self, tau, photons,
                                                             mirror):
        # without a plate the log-likelihood is even in g, so the roots +-x
        # tie; the ranking kept -4.99e-18 s on this 1e7-photon record
        phi, qwp = 0.8997, QwpModel(variant="absent")
        cfg = ExperimentConfig(phi_actual=phi, tau_true=tau, photons=photons,
                               qwp=qwp, seed=320)
        rec = simulate(cfg)
        res = solve_exact(rec, port_projections(phi, rec.omega, qwp)[0])
        assert res.tau_hat >= 0
        assert res.tau_hat == pytest.approx(mirror, rel=1e-6, abs=0)
        assert res.warnings == (
            f"real weak values: the delay's sign is not identifiable "
            f"(mirror pair +-{res.tau_hat:.6g} s)",)

    def test_one_ladder_scan_and_one_ranking_per_solve(self, jwm_record, jwm_wv,
                                                        monkeypatch):
        import weakdelay._kernels as kernels
        import weakdelay.estimators as est
        calls = []

        def counting(name, fn):
            def wrapper(g, *args):
                calls.append((name, np.size(g)))
                return fn(g, *args)
            return wrapper

        for name in ("score_residual", "log_likelihood"):
            monkeypatch.setattr(est, name, counting(name, getattr(est, name)))
        monkeypatch.setattr(kernels, "prepare", counting("prepare", kernels.prepare))
        res = est.solve_exact(jwm_record, jwm_wv)
        assert [name for name, _ in calls].count("prepare") == 1
        ladders = [n for name, n in calls if name == "score_residual" and n > 1]
        assert len(ladders) == 1
        assert [n for name, n in calls if name == "log_likelihood"] == \
            [res.diagnostics["candidate_roots"]]
        # a ladder candidate on an exact zero of the score is the root itself
        assert 0 <= res.diagnostics["iterations"] <= 20
        if res.diagnostics["iterations"] == 0:
            assert res.diagnostics["likelihood_residual"] == 0.0

    @pytest.mark.parametrize("tau", [1.5e-15, -1.2e-15])
    def test_bracket_widens_once_past_default(self, tau, monkeypatch):
        # on a 1550 nm grid no root lies inside +-1e-15 s, so the ladder is
        # scanned a second time over the tenfold bracket
        import weakdelay.estimators as est
        source = SourceConfig(center_nm=1550, fwhm_nm=30, grid_min_nm=1400,
                              grid_max_nm=1700)
        rec = simulate(ExperimentConfig(phi_actual=0.3, tau_true=tau, photons=0,
                                        source=source))
        sizes = []

        def counting(g, *args):
            sizes.append(np.size(g))
            return score_residual(g, *args)

        monkeypatch.setattr(est, "score_residual", counting)
        res = est.solve_exact(rec, ideal_weak_values(0.3))
        assert res.tau_hat == pytest.approx(tau, rel=1e-6, abs=0)
        assert len([n for n in sizes if n > 1]) == 2


class TestQuartic:
    def test_linear_ratio_matches_first_order(self, jwm_record, jwm_wv):
        # the root-selection hint is -e/d
        assert quartic(jwm_record, jwm_wv).diagnostics["hint"] == pytest.approx(
            first_order(jwm_record, PHI_JWM).tau_hat, rel=1e-12, abs=0)

    def test_zero_delay_record_selects_zero_root(self):
        rec = record_at(PHI_JWM, 0.0)
        res = quartic(rec, ideal_weak_values(PHI_JWM))
        assert abs(res.tau_hat) < ZERO_FLOOR

    def test_balanced_recovery(self):
        # at exactly balanced postselection the truncation error is smallest
        tau = 1e-17
        rec = record_at(np.pi / 2, tau)
        res = quartic(rec, ideal_weak_values(np.pi / 2))
        assert res.tau_hat == pytest.approx(tau, rel=5e-3, abs=0)

    def test_matches_exact_solver_in_deep_weak_regime(self):
        tau = 4e-19  # omega0 tau ~ 1e-3
        rec = record_at(PHI_JWM, tau)
        wv = ideal_weak_values(PHI_JWM)
        root = quartic(rec, wv).tau_hat
        exact = solve_exact(rec, wv).tau_hat
        assert root == pytest.approx(exact, rel=1e-2, abs=0)

    @pytest.mark.parametrize("phi", [PHI_JWM, PHI_WVA], ids=["jwm", "wva"])
    def test_coefficients_are_taylor_series_of_rational_residual(self, phi):
        # the quartic is the g^0..g^4 Taylor polynomial of the rationalized
        # score; reference coefficients come from a degree-10 fit at
        # Chebyshev nodes on |g| w_max (|A|_max + 1) <= 0.05, well inside
        # the series' radius of convergence
        rec = record_at(phi, 1e-17)
        wv = ideal_weak_values(phi)
        aw_max = max(abs(wv.aw1), abs(wv.aw2))
        h = 0.05 / (rec.omega.max() * (aw_max + 1.0))
        t = np.cos(np.pi * (np.arange(41) + 0.5) / 41)
        vals = [likelihood_equation_residual(h * ti, rec, wv) for ti in t]
        taylor = np.polynomial.polynomial.polyfit(t, vals, 10)[:5] / h ** np.arange(5)
        p1, p2 = _ScoreSeries(rec.omega, wv, 4)(rec.port1.weights, rec.port2.weights)
        coeffs = (p1 + p2).tolist()
        assert coeffs == pytest.approx(taylor, rel=1e-6)

    def test_rejects_frequency_dependent_weak_values(self, jwm_record):
        qwp = default_dispersive_qwp()
        wv, _, _ = port_projections(PHI_JWM, jwm_record.omega, qwp)
        with pytest.raises(DomainError):
            quartic(jwm_record, wv)

    def test_real_weak_values_raise_naming_the_mirror_pair(self):
        # without a plate Im A = 0, so the constant coefficient is exactly 0
        # and the real roots are 0 and +-tau: the sign is not identifiable
        tau = 1e-17
        qwp = QwpModel(variant="absent")
        rec = record_at(PHI_JWM, tau, qwp=qwp)
        with pytest.raises(DegenerateRecordError, match="mirror pair") as exc:
            quartic(rec, port_projections(PHI_JWM, rec.omega, qwp)[0])
        mirror = float(str(exc.value).rsplit("+-", 1)[1].split()[0])
        assert mirror == pytest.approx(tau, rel=1e-3, abs=0)

    def test_no_real_roots_raises(self):
        # strongly unbalanced and outside the deep weak regime
        rec = record_at(PHI_WVA, 2e-17)
        with pytest.raises(SolverError):
            quartic(rec, ideal_weak_values(PHI_WVA))


class TestFirstOrder:
    def test_zero_delay_cancels_exactly(self):
        rec = record_at(PHI_JWM, 0.0)
        assert abs(first_order(rec, PHI_JWM).tau_hat) < ZERO_FLOOR

    def test_balanced_recovery_within_one_percent(self):
        rec = record_at(PHI_JWM, 1e-17)
        assert first_order(rec, PHI_JWM).tau_hat == pytest.approx(1e-17, rel=1e-2, abs=0)

    def test_specialization_of_general_form(self):
        # the tan/cot formula is the general -e/d estimate evaluated at the
        # ideal-analyzer weak values, for any record
        rng = np.random.default_rng(8)
        grid = np.linspace(700.0, 860.0, 321)
        for phi in (0.21, 1.1, PHI_JWM):
            w1 = rng.random(321)
            w2 = rng.random(321)
            rec = MeasurementRecord(port1=Spectrum(grid, w1),
                                    port2=Spectrum(grid, w2), total_events=0)
            wv = ideal_weak_values(phi)
            assert first_order(rec, phi).tau_hat == pytest.approx(
                general_first_order(rec, wv), rel=1e-10, abs=0)

    def test_equals_tan_cot_moment_formula(self):
        # computed as the truncated series, it must still equal the tan/cot
        # ratio of sub-normalized moments its docstring states
        rng = np.random.default_rng(21)
        grid = np.linspace(690.0, 900.0, 421)
        for phi in rng.uniform(0.05, np.pi - 0.05, 20):
            rec = MeasurementRecord(port1=Spectrum(grid, rng.random(421)),
                                    port2=Spectrum(grid, rng.random(421)), total_events=0)
            m1, m2 = record_moments(rec)
            t = np.tan(phi / 2)
            tau = ((np.sin(phi / 2) ** 2 * m1.m1 - np.cos(phi / 2) ** 2 * m2.m1)
                   / (t * m1.m2 + m2.m2 / t))
            res = first_order(rec, phi)
            assert res.tau_hat == pytest.approx(tau, rel=1e-10, abs=0)
            assert res.diagnostics["port_probabilities"] == pytest.approx((m1.p0, m2.p0))

    def test_rejects_bad_phi(self, jwm_record):
        with pytest.raises(DomainError):
            first_order(jwm_record, 0.0)

    def test_general_form_with_dispersive_weak_values_per_bin(self):
        # frequency-dependent weak values go through the same table, with
        # per-bin coefficients: -c0/c1 written out bin by bin
        rng = np.random.default_rng(34)
        grid = np.linspace(690.0, 900.0, 421)
        qwp = default_dispersive_qwp()
        for phi in rng.uniform(0.05, np.pi - 0.05, 12):
            rec = MeasurementRecord(port1=Spectrum(grid, rng.random(421)),
                                    port2=Spectrum(grid, rng.random(421)), total_events=0)
            wv = port_projections(phi, rec.omega, qwp)[0]
            assert wv.is_frequency_dependent()
            c0 = c1 = 0.0
            for q, aw in ((rec.port1.weights, wv.aw1), (rec.port2.weights, wv.aw2)):
                c0 += np.sum(q * rec.omega * aw.imag)
                c1 += np.sum(q * rec.omega ** 2 * ((np.abs(aw) ** 2 - 1) - 2 * aw.imag ** 2))
            # abs=0: pytest's default 1e-12 absolute tolerance would pass any
            # delay of order 1e-17 s
            assert general_first_order(rec, wv) == pytest.approx(-c0 / c1, rel=1e-10, abs=0)

    @pytest.mark.parametrize("phi", [0.7, 1.0, 2.3133, 1.5302, 2.0])
    def test_general_form_degenerate_without_plate_at_zero_delay(self, phi):
        # real weak values: the two port terms of c1 cancel exactly on a
        # noise-free zero-delay record, so its rounded remainder is no signal
        qwp = QwpModel(variant="absent")
        rec = record_at(phi, 0.0, qwp=qwp)
        wv = port_projections(phi, rec.omega, qwp)[0]
        with pytest.raises(DegenerateRecordError):
            general_first_order(rec, wv)

    def test_general_form_degenerate_for_real_weak_values(self):
        # Im A = 0 makes c0 exactly 0, so -c0/c1 read -0.0 whatever the delay
        qwp = QwpModel(variant="absent")
        rec = record_at(PHI_JWM, 1e-17, qwp=qwp)
        wv = port_projections(PHI_JWM, rec.omega, qwp)[0]
        assert solve_exact(rec, wv).tau_hat == pytest.approx(1e-17, rel=1e-6, abs=0)
        with pytest.raises(DegenerateRecordError, match="real weak values"):
            general_first_order(rec, wv)


class TestJwmSimplified:
    def test_zero_delay(self):
        rec = record_at(PHI_JWM, 0.0)
        assert abs(jwm_simplified(rec).tau_hat) < ZERO_FLOOR

    def test_raw_moment_combination_is_minus_tau(self):
        # as printed, (P_f1 <w>_2 - P_f2 <w>_1)/Var evaluates to -tau at
        # balanced postselection; the shipped estimator carries the
        # calibrated sign flip
        tau = 1e-18
        rec = record_at(np.pi / 2, tau)
        m1, m2 = record_moments(rec)
        raw = (m1.p0 * m2.m1 - m2.p0 * m1.m1) / pooled_variance(rec)
        assert raw == pytest.approx(-tau, rel=1e-3, abs=0)
        assert jwm_simplified(rec).tau_hat == pytest.approx(tau, rel=1e-3, abs=0)

    def test_numerator_magnitude_is_tau_times_variance(self):
        tau = 1e-18
        rec = record_at(np.pi / 2, tau)
        m1, m2 = record_moments(rec)
        num = m1.p0 * m2.m1 - m2.p0 * m1.m1
        assert abs(num) == pytest.approx(tau * pooled_variance(rec), rel=1e-3)

    def test_unbalanced_record_warns(self):
        # the balance caveat travels in the result, not as a Python warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [fn(record_at(phi, 1e-18)) for phi in (PHI_WVA, PHI_JWM)
                       for fn in (jwm_simplified, strubi_reference)]
        for res in results[:2]:
            assert res.warnings == ("record is not near-balanced (port probabilities "
                                    "1.000/0.000); balanced-regime estimators degrade",)
        assert all(res.warnings == () for res in results[2:])

    @pytest.mark.parametrize("k,c1,c2", [(1500, 1234567, 89), (2100, 5, 7)])
    def test_single_bin_record_rejected(self, source, k, c1, c2):
        # all counts in one bin: the pooled variance is exactly 0, not the
        # rounding residue of E[w^2] - E[w]^2
        w1, w2 = np.zeros(source.grid_nm.size), np.zeros(source.grid_nm.size)
        w1[k], w2[k] = c1, c2
        rec = MeasurementRecord(port1=Spectrum(source.grid_nm, w1),
                                port2=Spectrum(source.grid_nm, w2), total_events=c1 + c2)
        assert pooled_variance(rec) == 0.0
        for fn in (jwm_simplified, strubi_reference):
            with pytest.raises(DegenerateRecordError):
                fn(rec)


class TestStrubiReference:
    def test_zero_delay_balanced(self):
        rec = record_at(np.pi / 2, 0.0)
        assert abs(strubi_reference(rec).tau_hat) < ZERO_FLOOR

    def test_finite_for_valid_records(self):
        for tau in (1e-18, 5e-18, 2e-17):
            rec = record_at(PHI_JWM, tau)
            assert np.isfinite(strubi_reference(rec).tau_hat)

    def test_large_systematic_deviation(self):
        # the comparison formula disagrees strongly with ground truth where
        # the balanced-port shortcut tracks it
        tau = 5e-18
        rec = record_at(PHI_JWM, tau)
        jwm_err = abs(jwm_simplified(rec).tau_hat - tau) / tau
        strubi_err = abs(strubi_reference(rec).tau_hat - tau) / tau
        assert jwm_err < 0.05
        assert strubi_err > 10 * jwm_err

    def test_empty_port_is_named(self):
        grid = np.array([700.0, 701.0])
        rec = MeasurementRecord(port1=Spectrum(grid, np.array([5.0, 5.0])),
                                port2=Spectrum(grid, np.zeros(2)), total_events=10)
        with pytest.raises(DegenerateRecordError,
                           match="^empty port 2: barred moments undefined$"):
            strubi_reference(rec)


class TestWvaEstimators:
    def test_zero_delay(self):
        rec = record_at(PHI_WVA, 0.0)
        assert abs(wva_first_order(rec, PHI_WVA).tau_hat) < ZERO_FLOOR

    def test_recovery_deep_in_amplification_regime(self):
        # valid for w0 tau << phi: at tau = 1e-19 the residual bias is the
        # known +cot(phi/2) w0 tau / 2 level, a couple of percent
        tau = 1e-19
        rec = record_at(PHI_WVA, tau)
        assert wva_first_order(rec, PHI_WVA).tau_hat == pytest.approx(tau, rel=0.03, abs=0)

    def test_dispersive_bias_grows(self):
        qwp = default_dispersive_qwp()
        biases = []
        for tau in (1e-18, 2e-18, 4e-18):
            rec = record_at(PHI_WVA, tau, qwp=qwp)
            biases.append(abs(wva_first_order(rec, PHI_WVA).tau_hat - tau) / tau)
        assert biases[0] < biases[1] < biases[2]

    def test_large_phi_warns(self):
        # the regime caveat travels in the result, not as a Python warning
        rec = record_at(0.5, 1e-19)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = wva_first_order(rec, 0.5)
        assert res.warnings == ("phi = 0.500 rad is outside the unbalanced regime",)
        assert wva_first_order(record_at(0.2, 1e-19), 0.2).warnings == ()

    def test_mean_shift_zero(self):
        var = 5e26
        assert wva_mean_shift(0.0, 10.0, var).tau_hat == 0.0

    def test_mean_shift_inverse_proportionality(self):
        a = wva_mean_shift(1e10, 30.0, 5e26).tau_hat
        b = wva_mean_shift(1e10, 60.0, 5e26).tau_hat
        assert a == pytest.approx(2 * b, rel=1e-12, abs=0)

    def test_mean_shift_consistency_with_first_order(self):
        # feed back the dark-port mean shift measured on a simulated record
        tau = 1e-19
        rec = record_at(PHI_WVA, tau)
        m1, m2 = record_moments(rec)
        est = wva_mean_shift(delta_omega=m1.m1_bar - m2.m1_bar,
                             im_aw2=1 / np.tan(PHI_WVA / 2),
                             variance=pooled_variance(rec))
        ref = wva_first_order(rec, PHI_WVA)
        assert est.tau_hat == pytest.approx(ref.tau_hat, rel=0.1, abs=0)

    def test_mean_shift_rejects_zero_divisors(self):
        with pytest.raises(DomainError):
            wva_mean_shift(1e10, 0.0, 5e26)
        with pytest.raises(DomainError):
            wva_mean_shift(1e10, 10.0, 0.0)


class TestEstimatorFamilyProperties:
    def test_scale_covariance(self):
        # multiplying all counts by a constant changes no estimate
        rec = record_at(PHI_JWM, 5e-18)
        scaled = MeasurementRecord(
            port1=Spectrum(rec.grid_nm, rec.port1.weights * 1000.0),
            port2=Spectrum(rec.grid_nm, rec.port2.weights * 1000.0),
            total_events=0)
        wv = ideal_weak_values(PHI_JWM)
        assert first_order(scaled, PHI_JWM).tau_hat == pytest.approx(
            first_order(rec, PHI_JWM).tau_hat, rel=1e-12, abs=0)
        assert jwm_simplified(scaled).tau_hat == pytest.approx(
            jwm_simplified(rec).tau_hat, rel=1e-12, abs=0)
        assert quartic(scaled, wv).tau_hat == pytest.approx(
            quartic(rec, wv).tau_hat, rel=1e-9, abs=0)
        assert solve_exact(scaled, wv).tau_hat == pytest.approx(
            solve_exact(rec, wv).tau_hat, rel=1e-9, abs=0)

    def test_no_estimator_consumes_source_spectrum(self):
        # the likelihood equation eliminates the source distribution, so no
        # estimating function may even accept one
        for fn in (solve_exact, quartic, first_order, jwm_simplified,
                   strubi_reference, wva_first_order, wva_mean_shift,
                   general_first_order, log_likelihood,
                   likelihood_equation_residual, score_residual):
            params = set(inspect.signature(fn).parameters)
            assert not params & {"source", "source_spectrum", "p0"}, fn.__name__

    def test_ordering_hierarchy_in_the_mean(self):
        # approximation-hierarchy guard over random weak-regime configs:
        # mean |exact - tau*| <= mean |quartic - tau*| <= mean |first - tau*|
        #
        # The quartic is the Taylor polynomial of the rationalized score
        # through g^4; measured means are in the assertion messages.
        rng = np.random.default_rng(7)
        phis = [PHI_WVA, 0.5, np.pi / 2, PHI_JWM]
        err_exact, err_quartic, err_first = [], [], []
        for k in range(100):
            phi = phis[k % 4]
            wv = ideal_weak_values(phi)
            aw_max = max(abs(wv.aw1), abs(wv.aw2))
            hi = min(1e-16, 0.1 / (aw_max * OMEGA0))
            tau = 10 ** rng.uniform(-19, np.log10(hi))
            rec = record_at(phi, tau)
            err_exact.append(abs(solve_exact(rec, wv).tau_hat - tau))
            err_quartic.append(abs(quartic(rec, wv).tau_hat - tau))
            err_first.append(abs(first_order(rec, phi).tau_hat - tau))
        mean_e, mean_q, mean_f = (float(np.mean(v)) for v in
                                  (err_exact, err_quartic, err_first))
        assert mean_e <= mean_q, f"exact {mean_e:.3e} > quartic {mean_q:.3e}"
        assert mean_q <= mean_f, (
            f"quartic mean error {mean_q:.3e} exceeds first-order {mean_f:.3e}: "
            "the truncated-polynomial root is not between the exact root and "
            "the first-order ratio on this forward model")

    def test_solver_robustness_fuzz(self):
        # randomized end-to-end recoveries across postselection offsets,
        # delay signs/magnitudes and analyzer models
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(40):
            phi = rng.uniform(0.011, np.pi - 0.011)
            tau = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, np.log10(2e-16))
            kind = rng.choice(["ideal", "dispersive", "absent"])
            qwp = default_dispersive_qwp() if kind == "dispersive" \
                else QwpModel(variant=kind)
            rec = record_at(phi, float(tau), qwp=qwp)
            wv = port_projections(phi, rec.omega, qwp)[0]
            est = solve_exact(rec, wv).tau_hat
            if kind == "absent":
                # no analyzer plate: the coupling is second order in tau and
                # the two delay signs are exactly degenerate
                assert abs(est) == pytest.approx(abs(tau), rel=1e-4)
            else:
                assert est == pytest.approx(float(tau), rel=1e-5)
            checked += 1
        assert checked == 40

    @pytest.mark.slow
    def test_oracle_equivalence_on_dense_grid(self):
        # 50 random noise-free configurations: the score root must agree
        # with the argmax of the log-likelihood on a 1e5-point grid to
        # within one grid step
        rng = np.random.default_rng(13)
        phis = [PHI_WVA, 0.5, np.pi / 2, PHI_JWM]
        n_grid = 100_000
        for k in range(50):
            phi = phis[k % 4]
            tau = 10 ** rng.uniform(-19, -16)
            rec = record_at(phi, tau)
            wv = ideal_weak_values(phi)
            est = solve_exact(rec, wv).tau_hat
            grid, vals = likelihood_profile(rec, wv, 0.0, 2 * tau, n_grid)
            step = grid[1] - grid[0]
            g_star = grid[int(np.argmax(vals))]
            assert abs(est - g_star) <= step, (phi, tau)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("phi", [PHI_JWM, PHI_WVA], ids=["balanced", "unbalanced"])
def test_estimate_equals_direct_call(method, phi):
    rec, qwp = record_at(phi, 1e-18), QwpModel()
    wv = port_projections(phi, rec.omega, qwp)[0]
    m1, m2 = record_moments(rec)
    direct = {
        Method.EXACT: lambda: solve_exact(rec, wv),
        Method.QUARTIC: lambda: quartic(rec, wv),
        Method.FIRST_ORDER: lambda: first_order(rec, phi),
        Method.JWM_SIMPLIFIED: lambda: jwm_simplified(rec),
        Method.STRUBI_REFERENCE: lambda: strubi_reference(rec),
        Method.WVA_FIRST_ORDER: lambda: wva_first_order(rec, phi),
        Method.WVA_MEAN_SHIFT: lambda: wva_mean_shift(
            m1.m1_bar - m2.m1_bar,
            abs(port_projections(phi, m1.m1 + m2.m1, qwp)[0].aw2.imag),
            pooled_variance(rec)),
    }[method]
    assert repr(estimate(method.value, rec, phi, qwp)) == repr(direct())


class TestDiagnostics:
    def test_exact_reports_residual_and_iterations(self, jwm_record, jwm_wv):
        # 1e-17 s is itself a ladder candidate: a score of exactly 0 there
        # is returned at step 0; 1.3e-17 s is no ladder point
        res = solve_exact(jwm_record, jwm_wv)
        assert res.diagnostics["iterations"] > 0 or \
            res.diagnostics["likelihood_residual"] == 0.0
        off_ladder = solve_exact(record_at(PHI_JWM, 1.3e-17), jwm_wv)
        assert off_ladder.diagnostics["iterations"] > 0
        for r in (res, off_ladder):
            assert np.isfinite(r.diagnostics["likelihood_residual"])
            assert r.diagnostics["final_width"] <= 1e-30

    def test_profile_matches_pointwise_likelihood(self, jwm_record, jwm_wv):
        # interpolated and exact columns must agree with the plain evaluator
        # at both ends and the middle of a 1e5-point grid, for a strongly
        # amplified port and for frequency-dependent weak values
        qwp = default_dispersive_qwp()
        wva_record = record_at(PHI_WVA, 1e-17)
        disp_record = record_at(PHI_WVA, 1e-17, qwp=qwp)
        disp_wv = port_projections(PHI_WVA, disp_record.omega, qwp)[0]
        far = (0, 1, 50_000, 99_968, 99_998, 99_999)
        cases = [(jwm_record, jwm_wv, 4096, (0, 1, 1777, 4095)),
                 (wva_record, ideal_weak_values(PHI_WVA), 100_000, far),
                 (disp_record, disp_wv, 100_000, far)]
        for rec, wv, n, indices in cases:
            grid, vals = likelihood_profile(rec, wv, 0.0, 3e-17, n)
            for idx in indices:
                direct = log_likelihood(grid[idx], rec, wv)
                assert vals[idx] == pytest.approx(direct, abs=1e-10), (n, idx)

    def test_profile_matches_pointwise_likelihood_on_random_records(self):
        # interpolated and exact columns alike: 40 seeded records over all
        # three analyzers and three photon counts, on grids that hold the
        # delay, zero and the dark port's null at the central frequency
        rng = np.random.default_rng(1414)
        for k in range(40):
            phi = rng.uniform(0.011, np.pi - 0.011)
            tau = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, np.log10(2e-16)))
            kind = ("ideal", "dispersive", "absent")[k % 3]
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            photons = (0, 10_000, 10_000_000)[k // 3 % 3]
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=tau, photons=photons,
                                            seed=k, qwp=qwp))
            wv = port_projections(phi, rec.omega, qwp)[0]
            mid = rec.omega.size // 2
            dark = max((np.broadcast_to(a, rec.omega.shape)[mid] for a in (wv.aw1, wv.aw2)),
                       key=abs)
            terms = _kernels.zeta_terms(dark)
            x_null = np.remainder(np.arctan2(terms.v, terms.u), np.pi) - 0.5 * np.pi
            ends = (0.0, 2.0 * tau, float(x_null / rec.omega[mid]))
            span = max(ends) - min(ends)
            # random margins: a bin whose wavelength is a simple multiple
            # of the central one would put the grid's end on its null
            g_lo, g_hi = min(ends) - span * rng.uniform(0.05, 0.2), \
                max(ends) + span * rng.uniform(0.05, 0.2)
            n = 100_000
            grid, vals = likelihood_profile(rec, wv, g_lo, g_hi, n)
            tol = 1e-10 * rec.total_weight()
            picks = np.unique(np.concatenate([[0, n - 1, int(np.argmax(vals))],
                                              rng.integers(0, n, 60)]))
            assert picks.size >= 60
            for idx in picks:
                direct = log_likelihood(grid[idx], rec, wv)
                assert vals[idx] == pytest.approx(direct, abs=tol), (k, idx)

    def test_profile_matches_pointwise_likelihood_on_random_windows(self):
        # random windows of 1e-19 to 1e-16 s anywhere within 2e-16 s of the
        # delay, on grids of 1e3 to 1e6 points, over all three analyzers and
        # three photon counts: every range length and rho the split makes
        rng = np.random.default_rng(2718)
        for k in range(24):
            phi = rng.uniform(0.011, np.pi - 0.011)
            tau = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, np.log10(2e-16)))
            kind = ("ideal", "dispersive", "absent")[k % 3]
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            photons = (0, 100_000, 10_000_000)[k // 3 % 3]
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=tau, photons=photons,
                                            seed=k, qwp=qwp))
            wv = port_projections(phi, rec.omega, qwp)[0]
            width = 10 ** rng.uniform(-19, -16)
            g_lo = tau + rng.uniform(-2e-16, 2e-16 - width)
            n = int(10 ** rng.uniform(3, 6))
            grid, vals = likelihood_profile(rec, wv, g_lo, g_lo + width, n)
            tol = 1e-12 * rec.total_weight()
            picks = np.unique(np.concatenate([[0, n - 1, int(np.argmax(vals))],
                                              rng.integers(0, n, 40)]))
            for idx in picks:
                direct = log_likelihood(grid[idx], rec, wv)
                assert vals[idx] == pytest.approx(direct, abs=tol), (k, n, idx)

    def test_profile_on_a_counted_null_reads_finite_and_low(self):
        # the dark port's weak value -i cot(phi/2) zeroes zeta at
        # w g = phi/2: a grid starting there reads a finite value far
        # below its neighbour, where the likelihood itself is -inf
        rec = simulate(ExperimentConfig(phi_actual=PHI_WVA, tau_true=1e-17,
                                        photons=10_000_000, seed=5))
        wv = ideal_weak_values(PHI_WVA)
        j = int(np.argmax(rec.port2.weights))
        g_null = 0.5 * PHI_WVA / rec.omega[j]
        grid, vals = likelihood_profile(rec, wv, g_null, g_null + 1e-19, 1001)
        assert log_likelihood(g_null, rec, wv) == -np.inf
        assert np.isfinite(vals[0])
        assert vals[0] < vals[1] - 20.0 * rec.port2.weights[j]

    @pytest.mark.parametrize("g_lo, g_hi, n", [
        (0.0, 2e-17, 1), (0.0, 2e-17, 10.7), (0.0, np.nan, 11),
        (-np.inf, 2e-17, 11), (0.0, np.inf, 11), (0.0, 2e-17, 10**15),
        (0.0, 1e300, 1000), (-1e308, 1e308, 11)])
    def test_profile_rejects_bad_grid(self, jwm_record, jwm_wv, g_lo, g_hi, n):
        with pytest.raises(DomainError):
            likelihood_profile(jwm_record, jwm_wv, g_lo, g_hi, n)


class TestProfileWorkers:
    """Where the profile's exact (not interpolated) work goes."""

    def test_profile_exact_kernel_only_near_nulls(self, monkeypatch):
        # grid points x columns evaluated exactly: none for a balanced
        # record, about 1% for an unbalanced one, around its dark port's
        # nulls (w g = 0.015: 5.5e-18 to 7.2e-18 s)
        exact, work = _kernels._exact, []

        def counting(lo, hi, p, *args):
            work.append((hi - lo) * p.q.size)
            return exact(lo, hi, p, *args)

        monkeypatch.setattr(_kernels, "_exact", counting)
        n = 100_000
        likelihood_profile(record_at(PHI_JWM, 1e-17), ideal_weak_values(PHI_JWM),
                           0.0, 2e-17, n)
        assert sum(work) == 0
        rec = record_at(PHI_WVA, 1e-17)
        columns = np.count_nonzero(rec.port1.weights) + np.count_nonzero(rec.port2.weights)
        likelihood_profile(rec, ideal_weak_values(PHI_WVA), 0.0, 2e-17, n)
        assert 0 < sum(work) < 0.05 * n * columns


class TestProfileSeries:
    """How the profile evaluates an interpolated range's Chebyshev series."""

    @staticmethod
    def _spy(monkeypatch):
        # per _interpolate call: grid points, a-priori nodes, the delays of
        # each sample, the last fitted and the evaluated (chopped) series,
        # the values the series added and the points of each Clenshaw run
        interpolate, chop, chebyshev, clenshaw = (_kernels._interpolate, _kernels._chop,
                                                  _kernels._chebyshev, _kernels._clenshaw)
        rows = _kernels.Prepared.rows
        calls = []

        def counting_interpolate(lo, hi, p, nodes, *args):
            calls.append({"n": hi - lo, "nodes": nodes, "columns": p.q.size,
                          "samples": [], "points": []})
            try:
                return interpolate(lo, hi, p, nodes, *args)
            finally:
                calls[-1]["done"] = True

        def sampling_rows(p, g, row_values):
            if calls and "done" not in calls[-1]:
                calls[-1]["samples"].append(np.array(g, dtype=float))
            return rows(p, g, row_values)

        def capturing_chop(coef):
            calls[-1]["fitted"] = coef.copy()
            return chop(coef)

        def capturing_chebyshev(coef, n):
            calls[-1]["coef"] = coef.copy()
            calls[-1]["values"] = chebyshev(coef, n)
            return calls[-1]["values"]

        def counting_clenshaw(coef, t):
            calls[-1]["points"].append(t.copy())
            return clenshaw(coef, t)

        monkeypatch.setattr(_kernels, "_interpolate", counting_interpolate)
        monkeypatch.setattr(_kernels.Prepared, "rows", sampling_rows)
        monkeypatch.setattr(_kernels, "_chop", capturing_chop)
        monkeypatch.setattr(_kernels, "_chebyshev", capturing_chebyshev)
        monkeypatch.setattr(_kernels, "_clenshaw", counting_clenshaw)
        return calls

    @staticmethod
    def _chebval(coef, n):
        """sum_k coef[k] T_k(t) at the n uniform points of [-1, 1]."""
        return np.polynomial.chebyshev.chebval(np.arange(n) / (0.5 * (n - 1)) - 1.0, coef)

    def _evaluated(self, monkeypatch, record, wv, n, nodes):
        """A series of exactly ``nodes`` terms, fitted by NumPy to the
        record's likelihood at the nodes first-kind points of an n-point
        range over [0, 2e-17], _chebyshev's values of it and the points its
        recurrence ran on."""
        p, half = prepare_likelihood(record, wv), 0.5 * (n - 1)
        coef = np.polynomial.chebyshev.chebinterpolate(
            lambda t: p.rows((half + half * t) * (2e-17 / (n - 1)), _kernels._log_rows),
            nodes - 1)
        clenshaw, points = _kernels._clenshaw, []

        def counting_clenshaw(c, t):
            points.append(t.copy())
            return clenshaw(c, t)

        monkeypatch.setattr(_kernels, "_clenshaw", counting_clenshaw)
        return coef, _kernels._chebyshev(coef, n), points[0]

    @pytest.mark.parametrize("nodes", [8, 67, 133])
    @pytest.mark.parametrize("size", ["nodes+1", "one block", "partial block", "1e5"])
    def test_block_evaluation_equals_the_series(self, monkeypatch, jwm_record, jwm_wv,
                                                nodes, size):
        # a block of 8 x nodes grid points: just above nodes points, exactly
        # one block, two blocks and a partial last one, and 1e5 points
        n = {"nodes+1": nodes + 1, "one block": 8 * nodes,
             "partial block": 16 * nodes + 37, "1e5": 100_000}[size]
        coef, values, _ = self._evaluated(monkeypatch, jwm_record, jwm_wv, n, nodes)
        assert coef.size == nodes
        assert np.max(np.abs(values - self._chebval(coef, n))) <= 1e-14 * np.abs(coef).sum()

    def test_grid_point_on_a_block_node_reads_the_series(self, monkeypatch, jwm_record,
                                                         jwm_wv):
        # an odd block width and an odd node count put the middle grid
        # point exactly on the middle node, t = 0: the barycentric weights
        # divide by zero there
        coef, values, points = self._evaluated(monkeypatch, jwm_record, jwm_wv, 301, 67)
        assert coef.size == 67
        assert 0.0 in points
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values - self._chebval(coef, 301))) <= 1e-14 * np.abs(coef).sum()

    def test_unconverged_first_sample_falls_back_to_the_nested_set(self, monkeypatch,
                                                                   jwm_record, jwm_wv):
        # 8 points cannot resolve the likelihood over [0, 2e-17]: the 16
        # other points of the 24-point set are sampled, none twice, and the
        # series through all 24 is the one a fresh 24-point fit gives
        calls = self._spy(monkeypatch)
        n, nodes = 10_000, 24
        p, dg = prepare_likelihood(jwm_record, jwm_wv), 2e-17 / (n - 1)
        _kernels._interpolate(0, n, p, nodes, 0.0, dg, np.zeros(n))
        call = calls[0]
        assert [g.size for g in call["samples"]] == [8, 16]
        assert np.unique(np.concatenate(call["samples"])).size == 24
        # the 24 delays formed as _interpolate forms them
        cosines, half = _kernels._cosines(24), 0.5 * (n - 1)
        g = 0.0 + (half + half * cosines[1:48:2]) * dg
        fresh = _kernels._fit(p.rows(g, _kernels._log_rows), cosines, 1)
        assert call["fitted"].size == 24
        assert np.abs(call["fitted"] - fresh).sum() <= 1e-15 * np.abs(fresh).sum()

    def test_converged_first_sample_is_accepted(self, monkeypatch, jwm_record, jwm_wv):
        # 45 points resolve the likelihood over [0, 2e-17] to its rounding
        # plateau: nothing more is sampled and at least _PLATEAU terms go
        calls = self._spy(monkeypatch)
        n = 10_000
        _kernels._interpolate(0, n, prepare_likelihood(jwm_record, jwm_wv), 133, 0.0,
                              2e-17 / (n - 1), np.zeros(n))
        call = calls[0]
        assert [g.size for g in call["samples"]] == [45]
        assert call["fitted"].size == 45
        assert call["coef"].size <= 45 - _kernels._PLATEAU

    def test_recurrence_runs_on_block_nodes_only(self, monkeypatch):
        # per interpolated range of n grid points, Clenshaw's recurrence
        # runs once, on at most ceil(n / width) x kept points (width =
        # min(n, 8 kept), kept the evaluated length of the series), not on
        # every grid point
        calls = self._spy(monkeypatch)
        n = 100_000
        for phi in (PHI_JWM, PHI_WVA):
            likelihood_profile(record_at(phi, 1e-17), ideal_weak_values(phi), 0.0, 2e-17, n)
        assert len(calls) > 2
        for call in calls:
            kept = call["coef"].size
            width = min(call["n"], 8 * kept)
            assert len(call["points"]) == 1
            assert 0 < call["points"][0].size <= -(-call["n"] // width) * kept
        assert sum(c["points"][0].size for c in calls) < sum(c["n"] for c in calls) / 4

    def test_profile_evaluates_each_series_to_its_plateau(self, monkeypatch):
        # on an unbalanced record each range's series is fitted at a third of
        # its a-priori nodes or at the nested set of three times as many;
        # none is evaluated beyond its fitted length, one fitted at the
        # third is cut by at least _PLATEAU terms, and some range's series
        # is cut to at most half its a-priori nodes
        calls = self._spy(monkeypatch)
        likelihood_profile(record_at(PHI_WVA, 1e-17), ideal_weak_values(PHI_WVA),
                           0.0, 2e-17, 100_000)
        for c in calls:
            third = -(-c["nodes"] // 3)
            assert c["fitted"].size in (third, 3 * third)
            assert c["coef"].size <= c["fitted"].size
            if c["fitted"].size == third:
                assert c["coef"].size <= third - _kernels._PLATEAU
        assert any(2 * c["coef"].size <= c["nodes"] for c in calls)

    def test_profile_samples_at_most_two_thirds_of_the_a_priori_nodes(self, monkeypatch):
        # on the unbalanced 1e5-point profile most ranges stop at their first
        # sample: sampled nodes x columns stay within 0.65 of the a-priori
        # total, some ranges fall back, and no range samples a point twice
        calls = self._spy(monkeypatch)
        likelihood_profile(record_at(PHI_WVA, 1e-17), ideal_weak_values(PHI_WVA),
                           0.0, 2e-17, 100_000)
        sampled = sum(sum(g.size for g in c["samples"]) * c["columns"] for c in calls)
        assert sampled <= 0.65 * sum(c["nodes"] * c["columns"] for c in calls)
        assert any(len(c["samples"]) == 2 for c in calls)
        for c in calls:
            g = np.concatenate(c["samples"])
            assert np.unique(g).size == g.size

    def test_chop_cuts_at_the_rounding_plateau(self):
        bound = _kernels._CHOP * np.finfo(float).eps
        # geometric decay down to a plateau of 1e-17 from k = 29 on
        k = np.arange(80)
        coef = np.maximum(0.25 ** k, 1e-17) * np.where(k % 3, 1.0, -1.0)
        kept = _kernels._chop(coef).size
        assert np.array_equal(_kernels._chop(coef), coef[:kept])
        assert 20 <= kept <= 29
        scale = np.abs(coef).sum()
        assert np.abs(coef[kept:]).sum() <= bound * scale
        assert np.abs(coef[kept - 1:]).sum() > bound * scale
        # nothing to keep but one term; nothing that decays is cut
        assert _kernels._chop(np.zeros(10)).size == 1
        assert _kernels._chop(np.ones(50)).size == 50
        assert _kernels._chop(np.random.default_rng(3).standard_normal(133)).size == 133

    def test_chopped_series_stays_within_the_dropped_sum(self, monkeypatch):
        # where a range's series was cut, its values differ from the whole
        # fitted series by at most the dropped sum |c_k|, plus rounding
        calls = self._spy(monkeypatch)
        likelihood_profile(record_at(PHI_WVA, 1e-17), ideal_weak_values(PHI_WVA),
                           0.0, 2e-17, 100_000)
        chopped = [c for c in calls if c["coef"].size < c["fitted"].size]
        assert chopped
        for call in chopped:
            fitted, kept = call["fitted"], call["coef"].size
            error = np.max(np.abs(call["values"] - self._chebval(fitted, call["n"])))
            assert error <= np.abs(fitted[kept:]).sum() + 1e-14 * np.abs(fitted).sum()

    def test_profile_is_deterministic(self):
        # the block products run through BLAS, with its threads unpinned
        rec, wv = record_at(PHI_WVA, 1e-17), ideal_weak_values(PHI_WVA)
        first = likelihood_profile(rec, wv, 0.0, 2e-17, 100_000)[1]
        assert np.array_equal(first, likelihood_profile(rec, wv, 0.0, 2e-17, 100_000)[1])
