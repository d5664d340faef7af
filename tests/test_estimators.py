import inspect
import math
import warnings

import numpy as np
import pytest

from weakdelay import _kernels
from weakdelay import (BracketingError, DegenerateRecordError, DomainError,
                       ExperimentConfig, MeasurementRecord, Method, ModelError, QwpModel,
                       SolverError, SourceConfig, Spectrum, WeakValuePair,
                       default_dispersive_qwp, estimate, first_order,
                       general_first_order, ideal_weak_values,
                       jwm_simplified, likelihood_profile, log_likelihood,
                       pooled_variance, port_projections, prepare_likelihood,
                       quartic, record_moments, score_curvature, score_residual,
                       simulate, solve_exact, strubi_reference, wva_first_order,
                       wva_mean_shift)
import weakdelay.estimators as est
from weakdelay.estimators import _first_order, _powers, _series, _series_sums

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
        for fn in (log_likelihood, score_residual):
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


class TestNullPhaseScore:
    """The score from each bin's null or peak phase against long double and
    the likelihood's null rule."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64")
    def test_accuracy_next_to_dark_port_null(self):
        # the scan of test_accuracy_next_to_dark_port_null: d log zeta / dx
        # is 2 cot(x - p) next to the amplified port's nulls, so it is as
        # exact as the phase x - p there (with p = delta + pi/2 formed by
        # an addition the error reads 2e-8)
        rec = record_at(PHI_WVA, 5e-17)
        wv = ideal_weak_values(PHI_WVA)
        omega = rec.omega.astype(np.longdouble)
        grid = np.linspace(0.0, 1e-16, 100_000)[4000:9001:7]
        got = score_residual(grid, rec, wv)
        for g, score in zip(grid, got):
            ref = np.longdouble(0.0)
            for port, aw in ((rec.port1, wv.aw1), (rec.port2, wv.aw2)):
                x = np.longdouble(g) * omega
                c, s = np.cos(x), np.sin(x)
                im = np.longdouble(aw.imag)
                q = port.weights.astype(np.longdouble)
                live = q > 0
                h = (c + s * im)[live]
                ref += (q[live] * omega[live] * 2 * (c * im - s)[live] / h).sum()
            assert score == pytest.approx(float(ref), rel=1e-9, abs=0), g

    @pytest.mark.parametrize("photons", [0, 10_000_000])
    def test_undefined_exactly_where_the_likelihood_is_minus_inf(self, photons):
        # dense scans through the nulls of the dark port's five heaviest
        # bins: g a few ulps apart across the null next to x = 0, and at
        # x ~ 3e3 rad, the widest bracket, an ulp of g apart
        wv = ideal_weak_values(PHI_WVA)
        rec = simulate(ExperimentConfig(phi_actual=PHI_WVA, tau_true=5e-17,
                                        photons=photons, seed=4))
        x_null = np.arctan(np.tan(PHI_WVA / 2))
        singular = total = 0
        for j in np.argsort(rec.port2.weights)[-5:]:
            for turns, ulps in ((0, 4), (950, 1)):
                step = np.arange(-1000, 1001) * (ulps * np.finfo(float).eps)
                g = (x_null + turns * np.pi) / rec.omega[j] * (1.0 + step)
                ll, score = log_likelihood(g, rec, wv), score_residual(g, rec, wv)
                np.testing.assert_array_equal(np.isnan(score), ll == -np.inf)
                assert np.all(np.isfinite(score[ll > -np.inf]))
                singular += np.count_nonzero(ll == -np.inf)
                total += g.size
        assert 0.1 * total < singular < 0.5 * total

    def test_constant_zeta_column_has_no_slope(self):
        # exactly real |A| = 1 in both ports: zeta = 1 at every delay, so
        # the score is 0 everywhere, g = 0 included, never NaN
        from weakdelay import WeakValuePair
        rec = record_at(PHI_JWM, 1e-17)
        wv = WeakValuePair(aw1=1.0 + 0.0j, aw2=-1.0 + 0.0j)
        gs = np.concatenate([[0.0], np.linspace(-1e-12, 1e-12, 101)])
        assert np.array_equal(score_residual(gs, rec, wv), np.zeros(gs.size))
        assert score_residual(0.0, rec, wv) == 0.0


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


class TestPortWeakValues:
    """prepare computes the terms of scalar weak values once per port and
    gathers them to the columns by port; the same weak values broadcast to
    per-bin arrays take the per-column path and give the same prepared
    record, solve and profile bit for bit."""

    CASES = [("ideal", PHI_WVA), ("ideal", PHI_JWM), ("absent", 2.4883), ("gainless", PHI_JWM)]

    @staticmethod
    def _forms(kind, phi, photons):
        variant = "absent" if kind == "absent" else "ideal"
        rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=7e-18, photons=photons,
                                        qwp=QwpModel(variant=variant), seed=5))
        if kind == "gainless":
            # exactly real |A| = 1: every column has a constant zeta and gain 0
            wv = WeakValuePair(1.0 + 0j, -1.0 + 0j)
        else:
            wv = port_projections(phi, rec.omega, QwpModel(variant=variant))[0]
        assert np.ndim(wv.aw1) == np.ndim(wv.aw2) == 0
        per_bin = WeakValuePair(*(np.full(rec.omega.shape, a) for a in (wv.aw1, wv.aw2)))
        return rec, wv, per_bin

    @staticmethod
    def _fields(p):
        return [(f.dtype, f.shape, f.tobytes())
                for f in (p.omega, p.q, p.score_weight, p.curvature_weight, *p.terms,
                          *p.form)]

    @staticmethod
    def _solve(rec, wv):
        try:
            res = solve_exact(rec, wv)
        except ModelError as exc:
            return type(exc), str(exc)
        return res.tau_hat.hex(), repr(res.diagnostics), res.warnings

    @pytest.mark.parametrize("photons", [10_000_000, 0], ids=["counts", "noise_free"])
    @pytest.mark.parametrize("kind,phi", CASES, ids=[f"{k}-{phi:.3f}" for k, phi in CASES])
    def test_scalar_weak_values_equal_their_per_bin_arrays(self, kind, phi, photons):
        rec, wv, per_bin = self._forms(kind, phi, photons)
        scalar, columns = prepare_likelihood(rec, wv), prepare_likelihood(rec, per_bin)
        assert self._fields(scalar) == self._fields(columns)
        if kind == "gainless":
            assert not scalar.form.gain.any()
        assert self._solve(rec, wv) == self._solve(rec, per_bin)
        _, ours = likelihood_profile(rec, wv, -2e-17, 2e-17, 2001)
        _, theirs = likelihood_profile(rec, per_bin, -2e-17, 2e-17, 2001)
        assert ours.tobytes() == theirs.tobytes()


class TestCandidateLadder:
    """A bracket's candidate ladder is its formula: zero, both log ladders,
    the hint window and the ends, inside the bracket, sorted and unique."""

    @staticmethod
    def _fresh(lo, hi, hint):
        top = max(abs(lo), abs(hi))
        ladder = np.logspace(-21, np.log10(top), 61)
        cands = [np.array([0.0]), ladder, -ladder]
        if hint is not None and np.isfinite(hint) and hint != 0.0:
            cands.append(hint * np.linspace(0.2, 5.0, 49))
        allc = np.concatenate(cands)
        allc = allc[(allc >= lo) & (allc <= hi)]
        return np.unique(np.concatenate([allc, [lo, hi]]))

    def test_ladder_equals_its_formula(self):
        lo, hi = est.DEFAULT_BRACKET
        for widening in range(4):
            if widening:
                # the widenings of solve_exact
                lo, hi = lo * 10.0, hi * 10.0
            # none, zero, NaN, two inside the bracket, one across its end
            # and one wholly outside it
            for hint in (None, 0.0, math.nan, 3.7e-18, -0.31 * hi, 3.0 * hi, -10.0 * hi):
                for _ in range(2):
                    got = est._candidate_ladder(lo, hi, hint)
                    want = self._fresh(lo, hi, hint)
                    assert got.tobytes() == want.tobytes(), (lo, hint)


class TestRationalResidual:
    """The rationalized series behind the truncated estimators against the
    exact score: through first order in g it is half the score, so its
    -c0/c1 is -score(0) / curvature(0), the solver's hint and
    general_first_order."""

    def test_zero_at_zero_delay_symmetric_record(self, jwm_wv):
        rec = record_at(PHI_JWM, 0.0)
        scale = OMEGA0  # score scale of one fully unbalanced event
        assert abs(score_residual(0.0, rec, jwm_wv)) < 1e-12 * scale

    def test_residual_at_zero_equals_linear_coefficient(self, jwm_record, jwm_wv):
        (s1, p1), (s2, p2) = _series_sums(jwm_record, jwm_wv, 0)
        e1, e2 = s1[0] * p1[0], s2[0] * p2[0]
        res0 = score_residual(0.0, jwm_record, jwm_wv)
        assert res0 == pytest.approx(2.0 * (e1 + e2), rel=1e-12)

    def test_sign_change_brackets_truth(self, jwm_record, jwm_wv):
        tau = 1e-17
        lo = score_residual(0.8 * tau, jwm_record, jwm_wv)
        hi = score_residual(1.2 * tau, jwm_record, jwm_wv)
        assert lo > 0 > hi

    def test_first_order_nearly_zeroes_residual(self, jwm_record, jwm_wv):
        est = first_order(jwm_record, PHI_JWM).tau_hat
        r_fo = score_residual(est, jwm_record, jwm_wv)
        r_0 = score_residual(0.0, jwm_record, jwm_wv)
        assert abs(r_fo) < 1e-2 * abs(r_0)

    @pytest.mark.parametrize("photons", [0, 100_000, 10_000_000])
    @pytest.mark.parametrize("plate", ["ideal", "dispersive", "absent"])
    def test_newton_step_from_zero_is_general_first_order(self, plate, photons):
        qwp = {"ideal": QwpModel(), "dispersive": default_dispersive_qwp(),
               "absent": QwpModel(variant="absent")}[plate]
        rng = np.random.default_rng(photons + len(plate))
        for seed in range(3):
            phi = rng.uniform(0.02, np.pi - 0.02)
            tau = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, -16)
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=tau, photons=photons,
                                            qwp=qwp, seed=seed))
            wv = port_projections(phi, rec.omega, qwp)[0]
            p = prepare_likelihood(rec, wv)
            score, curvature, _ = score_curvature(0.0, p)
            if plate == "absent":
                # real weak values: the score is odd in g, and the solver
                # takes no hint
                assert score == 0.0 and est._hint(p) is None
                continue
            # the one step of both, bit for bit
            assert general_first_order(rec, wv) == est._hint(p) == -score / curvature


def _window_peak(rec, wv, centre, half):
    """(delay, log-likelihood) of the largest point of a 20001-point profile
    on [centre - half, centre + half]; it must lie inside the window."""
    grid, vals = likelihood_profile(rec, wv, centre - half, centre + half, 20_001)
    i = int(np.argmax(vals))
    assert 0 < i < grid.size - 1, (centre, half)
    return grid[i], vals[i]


class TestModeGaps:
    """The likelihood's secondary maxima on 1e7-photon expected records,
    in units of (sigma / w_bar)^2, the source's relative spread: L2, the
    mirror phi / w_bar - g, and L5, the fringe-order aliases g + k pi / w_bar."""

    N = 1e7

    @pytest.fixture(scope="class")
    def spread(self, source):
        w_bar = source.weights @ source.omega
        return w_bar, (source.weights @ (source.omega - w_bar) ** 2) / w_bar ** 2

    @pytest.mark.parametrize("phi, tau", [(0.03, 1e-18), (0.03, 3e-18), (0.05, 5e-18)])
    def test_mirror_gap(self, phi, tau, spread):
        w_bar, rel2 = spread
        rec = record_at(phi, tau)
        wv = ideal_weak_values(phi)
        _, top = _window_peak(rec, wv, tau, 0.2 * tau)
        _, mirror = _window_peak(rec, wv, phi / w_bar - tau, 0.2 * tau)
        gap = self.N * (top - mirror)
        assert gap == pytest.approx(2.0 * self.N * phi ** 2 * rel2, rel=1e-2)

    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_alias_gap_at_balanced_phi(self, k, spread):
        w_bar, rel2 = spread
        tau = 1e-17
        rec = record_at(np.pi / 2, tau)
        wv = ideal_weak_values(np.pi / 2)
        _, top = _window_peak(rec, wv, tau, 0.5 * tau)
        _, alias = _window_peak(rec, wv, tau + k * np.pi / w_bar, 0.02 * np.pi / w_bar)
        gap = self.N * (top - alias)
        assert gap == pytest.approx(2.0 * self.N * (k * np.pi) ** 2 * rel2, rel=5e-2)


def _descending(vals):
    """The descending pairs (i, i + 1) of a ladder scan, as solve_exact takes them."""
    a, b = vals[:-1], vals[1:]
    return np.flatnonzero(np.isfinite(a) & np.isfinite(b)
                          & (((a > 0) & (b <= 0)) | ((a >= 0) & (b < 0))))


def _scan(rec, wv):
    """A solve's first ladder scan: (prepared record, first-order hint,
    ladder, scored candidates, their scores)."""
    p = prepare_likelihood(rec, wv)
    hint = est._hint(p)
    cands = est._candidate_ladder(*est.DEFAULT_BRACKET, hint)
    return (p, hint, cands, *est._ladder_scores(cands, p))


def _score_terms(x, p):
    """The terms q w d log zeta / dx that the score sums, at the phases x
    (delays x columns of p), from the score's tangent."""
    work = (np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, dtype=bool))
    tangent, den, _ = _kernels._tangent(x.copy(), work, p)
    return tangent / den * p.score_weight


def _pairs(points, vals):
    """The brackets (a, b, fa, fb) that solve_exact refines: a scan's descending pairs."""
    return [(points[i], points[i + 1], vals[i], vals[i + 1]) for i in _descending(vals)]


class TestRisingBands:
    """L6: outside every counted bin's rising band |x - p - k pi| <
    atan(sqrt(ratio)) its log zeta is strictly concave, so the score falls
    strictly and a stretch of delays that meets no band holds at most one
    sign change, from + to -."""

    @staticmethod
    def _records(n, seed=25):
        # ideal, dispersive and absent plates x noise-free, 1e5 and 1e7
        # photons; every tenth delay is zero, and record 2 is the absent
        # plate at phi = pi/2, whose weak values are real and 1 +- 2 eps in
        # size: every column has ratio 1 and gain below 1e-15
        rng = np.random.default_rng(seed)
        for k in range(n):
            kind = ("ideal", "dispersive", "absent")[k % 3]
            phi = np.pi / 2 if k == 2 else rng.uniform(0.02, np.pi - 0.02)
            tau = 0.0 if k % 10 == 9 else rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, -15)
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=float(tau), qwp=qwp,
                                            photons=(0, 100_000, 10_000_000)[(k // 3) % 3],
                                            seed=k))
            yield rec, port_projections(phi, rec.omega, qwp)[0]

    @staticmethod
    def _meets(grid, p):
        """Per interval of the delay grid and column with gain: whether the
        interval meets one of the column's rising bands, from their definition."""
        live = p.form.gain != 0
        phase, half = (f[live] for f in _kernels.rising_bands(p.form))
        w = p.omega[live]
        meets = np.empty((grid.size - 1, w.size), dtype=bool)
        for i in range(0, grid.size - 1, 64):
            x0, x1 = grid[:-1][i:i + 64, None] * w, grid[1:][i:i + 64, None] * w
            # band k meets [x0, x1] when (x0 - p - half) / pi < k < (x1 - p + half) / pi
            first = np.floor((x0 - phase - half) / np.pi) + 1
            last = np.ceil((x1 - phase + half) / np.pi) - 1
            meets[i:i + 64] = first <= last
        return meets, live

    def test_each_term_falls_outside_its_bands(self):
        # the law column by column: a term q w d log zeta / dx does not rise
        # across an interval that meets none of its bands
        grid = np.linspace(-1e-15, 1e-15, 401)
        for rec, wv in self._records(9):
            p = prepare_likelihood(rec, wv)
            meets, live = self._meets(grid, p)
            x = np.multiply.outer(grid, p.omega[live])
            terms = _score_terms(x, _kernels._take(p, live))
            rise = np.diff(terms, axis=0) > 0
            assert not np.any(rise & ~meets)
            assert np.any(meets)

    def test_clean_stretches_change_sign_at_most_once_downwards(self, jwm_record):
        # plus weak values of size exactly 1, whose columns have gain 0
        from weakdelay import WeakValuePair
        grid = np.unique(np.concatenate([np.linspace(-1e-15, 1e-15, 601),
                                         (np.logspace(-21, -15, 150) * [[-1], [1]]).ravel()]))
        gainless = stretches = 0
        for rec, wv in [*self._records(27), (jwm_record, WeakValuePair(1.0 + 0j, -1.0 + 0j))]:
            p = prepare_likelihood(rec, wv)
            clean = ~self._meets(grid, p)[0].any(axis=1)
            gainless += not np.any(p.form.gain)
            score = score_residual(grid, p)
            for first, last in np.flatnonzero(np.diff(np.r_[False, clean, False])).reshape(-1, 2):
                sign = np.sign(score[first:last + 1])
                assert np.all(np.isfinite(sign))
                assert np.all(np.diff(sign) <= 0), (first, last, sign)
                stretches += 1
        assert gainless == 1 and stretches > 27

    @staticmethod
    def _brackets(cands, points, vals):
        """(first, last) ladder index of each descending pair of the scored
        candidates, the brackets solve_exact refines."""
        ends = np.searchsorted(cands, points)
        return np.stack([ends[:-1], ends[1:]], axis=1)[_descending(vals)]

    @staticmethod
    def _unmatched(down, brackets, full):
        """The full ladder's descending pairs that lie in no bracket, or in a
        bracket that holds more than one sign change: one whose full-ladder
        scores do not fall in sign (a stretch of exact zeros is one change)."""
        inside = (brackets[:, :1] <= down) & (down + 1 <= brackets[:, 1:])
        falls = np.array([np.all(np.diff(np.sign(full[lo:hi + 1])) <= 0) for lo, hi in brackets])
        return down[~inside.any(axis=0) | (inside & ~falls[:, None]).any(axis=0)]

    def test_pruned_scan_finds_the_full_ladders_descending_pairs(self):
        # each descending pair of the full ladder lies in a refined bracket
        # that holds one sign change, except where the score is
        # rounding-level next to a root (none on these 306 records)
        near_root = 0
        for rec, wv in self._records(306):
            p, _, cands, points, vals = _scan(rec, wv)
            full = score_residual(cands, p)
            assert np.isin(points, cands).all() and points[[0, -1]].tolist() == \
                cands[[0, -1]].tolist()
            np.testing.assert_array_equal(vals, full[np.isin(cands, points)])
            brackets = self._brackets(cands, points, vals)
            assert brackets.size
            differ = self._unmatched(_descending(full), brackets, full)
            if not differ.size:
                continue
            # such a pair must have an end whose score is rounding-level
            # against the sum of its terms' sizes
            ends = cands[np.stack([differ, differ + 1])]
            x = np.multiply.outer(ends, p.omega)
            terms = _score_terms(x, p)
            band = 1e3 * np.finfo(float).eps * np.abs(terms).sum(axis=-1)
            assert np.all(np.any(np.abs(full[np.stack([differ, differ + 1])]) <= band, axis=0))
            near_root += 1
        print(f"L6: {near_root} of 306 ladders differ within the rounding band of a root")
        assert near_root <= 3

    def test_exact_zero_scores_give_the_full_ladders_pairs(self, jwm_record, jwm_wv,
                                                            monkeypatch):
        # no candidate of a seeded record is known to score exactly 0 (the
        # 1e-17 s one of this record scores -0.5), so the score is replaced
        # by c_j - g, exactly 0 at candidate j and falling, and then by 0
        p = prepare_likelihood(jwm_record, jwm_wv)
        cands = est._candidate_ladder(*est.DEFAULT_BRACKET, est._hint(p))
        for j in range(cands.size):
            monkeypatch.setattr(est, "score_residual", lambda g, _, root=cands[j]: root - g)
            points, vals = est._ladder_scores(cands, p)
            full = cands[j] - cands
            brackets = self._brackets(cands, points, vals)
            assert brackets.size
            assert self._unmatched(_descending(full), brackets, full).size == 0, j
        # the last root is the top candidate, a run end: the solver returns
        # it at step 0
        res = solve_exact(jwm_record, jwm_wv)
        assert res.tau_hat == cands[-1] and res.diagnostics["iterations"] == 0
        monkeypatch.setattr(est, "score_residual", lambda g, _: np.zeros_like(g))
        assert _descending(est._ladder_scores(cands, p)[1]).size == 0

    def test_lockstep_refinement_matches_each_bracket_alone(self):
        # each bracket's (root, steps) bit for bit, refined with the others
        # or alone
        several = 0
        for rec, wv in self._records(306):
            p, hint, _, points, vals = _scan(rec, wv)
            pairs = _pairs(points, vals)
            together = est._refine(p, pairs, hint)
            alone = [est._refine(p, [pair], hint)[0] for pair in pairs]
            assert [(r.hex(), s) for r, s in together] == [(r.hex(), s) for r, s in alone]
            several += len(pairs) > 1
        assert several > 300

    def test_lockstep_refinement_raises_on_a_singular_score(self):
        # the second bracket starts on a dark-port null
        rec = record_at(PHI_WVA, 5e-17)
        p = prepare_likelihood(rec, ideal_weak_values(PHI_WVA))
        g = np.arctan(np.tan(PHI_WVA / 2)) / rec.omega[np.argmax(rec.port2.weights)]
        g = g * (1.0 + np.arange(-400, 401) * np.finfo(float).eps)
        singular = float(g[np.isnan(score_curvature(g, p)[0])][0])
        pairs = [(0.0, 1e-18, 1.0, -1.0), (0.5 * singular, 2.0 * singular, 1.0, -1.0)]
        with pytest.raises(ModelError):
            est._refine(p, pairs, singular)


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

    def test_unbracketed_score_names_the_searched_range(self, jwm_record):
        # weak values +-1 make every zeta 1, so the score is 0 at every
        # delay of every widening and brackets no root
        with pytest.raises(BracketingError) as info:
            solve_exact(jwm_record, WeakValuePair(1.0, -1.0))
        assert str(info.value) == ("could not bracket a score root inside the "
                                   "searched range [-1.000e-12, 1.000e-12] s")

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

    @staticmethod
    def _scans(calls, ladders):
        """Split the multi-delay score calls into one scan per ladder: each
        scan makes at most two calls, on distinct candidates of its ladder,
        and the first call of a scan holds the ladder's ends."""
        calls = [g for g in calls if g.size > 1]
        starts = [min([i for i, g in enumerate(calls) if np.isin(ladder[[0, -1]], g).all()],
                      default=-1) for ladder in ladders]
        assert starts[0] == 0 and starts == sorted(set(starts))
        for ladder, lo, hi in zip(ladders, starts, starts[1:] + [len(calls)]):
            scored = np.concatenate(calls[lo:hi])
            assert hi - lo <= 2
            assert np.isin(scored, ladder).all()
            assert np.unique(scored).size == scored.size

    def test_one_ladder_scan_and_one_ranking_per_solve(self, jwm_record, jwm_wv,
                                                        monkeypatch):
        import weakdelay._kernels as kernels
        import weakdelay.estimators as est
        calls = []

        def counting(name, fn):
            def wrapper(g, *args):
                calls.append((name, np.atleast_1d(g).copy()))
                return fn(g, *args)
            return wrapper

        for name in ("score_residual", "log_likelihood"):
            monkeypatch.setattr(est, name, counting(name, getattr(est, name)))
        monkeypatch.setattr(kernels, "prepare", counting("prepare", kernels.prepare))
        res = est.solve_exact(jwm_record, jwm_wv)
        assert [name for name, _ in calls].count("prepare") == 1
        # the scan scores the ladder in at most two calls, on distinct candidates
        hint = est._hint(prepare_likelihood(jwm_record, jwm_wv))
        self._scans([g for name, g in calls if name == "score_residual"],
                    [est._candidate_ladder(*est.DEFAULT_BRACKET, hint)])
        assert [g.size for name, g in calls if name == "log_likelihood"] == \
            [res.diagnostics["candidate_roots"]]
        # a ladder candidate on an exact zero of the score is the root itself
        assert 0 <= res.diagnostics["iterations"] <= 20
        if res.diagnostics["iterations"] == 0:
            assert res.diagnostics["likelihood_residual"] == 0.0

    def test_null_band_records_reach_the_window_maximum(self):
        # unbalanced delays in [4.5e-18, 8.5e-18] s put the dark port's
        # nulls beside the maximum, where two ladder candidates in one null
        # band bracket nothing; the candidates around the first-order hint
        # find it here (without them 9 of these 24 records miss)
        rng = np.random.default_rng(2024)
        for k in range(24):
            qwp = default_dispersive_qwp() if k % 2 else QwpModel()
            cfg = ExperimentConfig(phi_actual=PHI_WVA, qwp=qwp, seed=k,
                                   photons=(0, 10_000_000)[(k // 2) % 2],
                                   tau_true=rng.uniform(4.5e-18, 8.5e-18))
            rec = simulate(cfg)
            wv = port_projections(PHI_WVA, rec.omega, qwp)[0]
            tau = cfg.tau_true
            _, window = likelihood_profile(rec, wv, 0.5 * tau, 1.5 * tau, 20_001)
            found = log_likelihood(solve_exact(rec, wv).tau_hat, rec, wv)
            assert found >= window.max() - 1e-9 * rec.total_weight(), (k, tau)

    @pytest.mark.parametrize("tau", [1.5e-15, -1.2e-15])
    def test_bracket_widens_once_past_default(self, tau, monkeypatch):
        # on a 1550 nm grid no root lies inside +-1e-15 s, so the ladder is
        # scanned a second time over the tenfold bracket
        import weakdelay.estimators as est
        source = SourceConfig(center_nm=1550, fwhm_nm=30, grid_min_nm=1400,
                              grid_max_nm=1700)
        rec = simulate(ExperimentConfig(phi_actual=0.3, tau_true=tau, photons=0,
                                        source=source))
        calls = []

        def counting(g, *args):
            calls.append(np.atleast_1d(g).copy())
            return score_residual(g, *args)

        monkeypatch.setattr(est, "score_residual", counting)
        res = est.solve_exact(rec, ideal_weak_values(0.3))
        assert res.tau_hat == pytest.approx(tau, rel=1e-6, abs=0)
        hint = est._hint(prepare_likelihood(rec, ideal_weak_values(0.3)))
        lo, hi = est.DEFAULT_BRACKET
        self._scans(calls, [est._candidate_ladder(lo * f, hi * f, hint) for f in (1.0, 10.0)])


def _bisect(p, a, b, fa, fb, tol=1e-30):
    """The root of score_residual in a bracket [a, b] of a descending pair,
    by bisection to width tol."""
    if fa == 0:
        return a
    if fb == 0:
        return b
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = score_residual(m, p)
        if fm == 0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


class TestScoreCurvature:
    def test_score_is_score_residual_and_curvature_its_slope(self):
        # the score bit for bit, NaN rows included (a dense scan through a
        # dark-port null), and the curvature against a central difference
        for k, (qwp, phi) in enumerate([(QwpModel(), PHI_WVA), (default_dispersive_qwp(), 1.2),
                                        (QwpModel("absent"), 2.3)]):
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=5e-17, qwp=qwp,
                                            photons=(0, 10_000_000)[k % 2], seed=k))
            p = prepare_likelihood(rec, port_projections(phi, rec.omega, qwp)[0])
            x_null = np.arctan(np.tan(phi / 2))
            g = np.concatenate([np.linspace(-2e-16, 2e-16, 77),
                                x_null / rec.omega[np.argmax(rec.port2.weights)]
                                * (1.0 + np.arange(-300, 301) * 4 * np.finfo(float).eps)])
            score, curvature, scale = score_curvature(g, p)
            np.testing.assert_array_equal(score, score_residual(g, p))
            assert np.all(scale[np.isfinite(score)] >= np.abs(score[np.isfinite(score)]))
            h = 1e-22
            for g0 in g[:77:7]:
                slope = (score_residual(g0 + h, p) - score_residual(g0 - h, p)) / (2 * h)
                assert curvature[g == g0][0] == pytest.approx(slope, rel=1e-5, abs=0)
            s0, c0, m0 = score_curvature(float(g[3]), p)
            assert (s0, c0, m0) == (score[3], curvature[3], scale[3])
            assert all(type(v) is float for v in (s0, c0, m0))

    def test_model_zero_raises_for_a_scalar_delay(self):
        rec = record_at(PHI_WVA, 5e-17)
        wv = ideal_weak_values(PHI_WVA)
        g = np.arctan(np.tan(PHI_WVA / 2)) / rec.omega[np.argmax(rec.port2.weights)]
        g = g * (1.0 + np.arange(-400, 401) * np.finfo(float).eps)
        singular = g[np.isnan(score_curvature(g, rec, wv)[0])]
        assert singular.size
        with pytest.raises(ModelError):
            score_curvature(float(singular[0]), rec, wv)


class TestNewtonRefiner:
    @staticmethod
    def _records(n, seed=26):
        # ideal, dispersive and absent plates x noise-free, 1e5 and 1e7
        # photons; every other record at phi = 0.03 with its delay outside
        # the null band [4.5e-18, 8.5e-18] s of test_null_band_records_...
        rng = np.random.default_rng(seed)
        for k in range(n):
            kind = ("ideal", "dispersive", "absent")[k % 3]
            phi = PHI_WVA if k % 2 else float(rng.uniform(0.1, np.pi - 0.1))
            while True:
                tau = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-19, -15.5))
                if phi != PHI_WVA or not 4.5e-18 <= abs(tau) <= 8.5e-18:
                    break
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=tau, qwp=qwp,
                                            photons=(0, 100_000, 10_000_000)[(k // 3) % 3],
                                            seed=k))
            yield rec, port_projections(phi, rec.omega, qwp)[0]

    def test_returned_roots_equal_a_bisection_of_the_score(self):
        # the root each solve returns, against a bisection of score_residual
        # to 1e-30 s on the bracket it was refined in: a marked ladder
        # interval or a whole clean run.  (A marked interval far from the
        # maximum may hold several roots where the bins' rising bands make
        # the score wiggle; each method then finds one of them.)
        worst = 0
        for rec, wv in self._records(63):
            p, hint, _, points, vals = _scan(rec, wv)
            pairs = _pairs(points, vals)
            tau = solve_exact(rec, wv).tau_hat
            found = 0
            for (a, b, fa, fb), (root, steps) in zip(pairs, est._refine(p, pairs, hint)):
                assert a <= root <= b
                worst = max(worst, steps)
                if root == tau or (wv.is_real() and root == -tau):
                    assert root == pytest.approx(_bisect(p, a, b, fa, fb), rel=1e-9, abs=4e-28)
                    found += 1
            assert found >= 1  # both members of a mirror pair tie on an absent plate
        assert worst <= 10  # 8 on one-interval brackets

    def test_offset_error_moves_the_root_by_half_over_the_mean_frequency(self):
        # L1: p1 = cos^2(phi/2 - g w), so a solve at phi + dphi returns the
        # delay + dphi / (2 w) of each bin, dphi / (2 w_mean) on the record
        for phi, tau in [(0.3, 2e-18), (PHI_JWM, -5e-17), (2.5, 1e-17), (PHI_WVA, 2e-18)]:
            rec = record_at(phi, tau)
            m1, m2 = record_moments(rec)
            base = solve_exact(rec, ideal_weak_values(phi)).tau_hat
            for dphi in (-2e-3, 1e-3):
                moved = solve_exact(rec, ideal_weak_values(phi + dphi)).tau_hat
                assert moved - base == pytest.approx(dphi / (2 * (m1.m1 + m2.m1)),
                                                     rel=1e-3, abs=0), (phi, tau, dphi)


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

        def rational(g):
            # sum Q w N/D at x = g w: N = Im A + u2 x - u1 x^2,
            # D = 1 + u1 x + u2 x^2, u1 = 2 Im A, u2 = |A|^2 - 1
            total, x = 0.0, g * rec.omega
            for q, aw in ((rec.port1.weights, wv.aw1), (rec.port2.weights, wv.aw2)):
                u1, u2 = 2.0 * aw.imag, abs(aw) ** 2 - 1.0
                total += np.sum(q * rec.omega * (aw.imag + u2 * x - u1 * x * x)
                                / (1.0 + u1 * x + u2 * x * x))
            return total

        vals = [rational(h * ti) for ti in t]
        taylor = np.polynomial.polynomial.polyfit(t, vals, 10)[:5] / h ** np.arange(5)
        port1, port2 = _series_sums(rec, wv, 4)
        coeffs = [s1 * p1 + s2 * p2 for s1, p1, s2, p2 in zip(*port1, *port2)]
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
        # frequency-dependent weak values: the exact score's Newton step
        # from zero equals -c0/c1 written out bin by bin
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
        # real weak values: the score at zero is exactly 0, and the two
        # port terms of c1 cancel on a noise-free zero-delay record
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

    # one bin at w = 2e15 rad/s per port: the weak values and counts each
    # reach one rejection of the step; "ratio" sets c0 = 1e300, c1 = 1e-300
    # through the coefficients, with unit power sums
    @pytest.mark.parametrize("aw, q, coefficients, error, message", [
        ((1e150j, -1j), (1.0, 1.0), None, DegenerateRecordError,
         "first-order coefficients are not finite"),
        ((2.0, 0.0), (1.0, 3.0), None, DegenerateRecordError,
         "degenerate record: linear score coefficient vanishes"),
        ((1j, -1j), (1.0, 0.0), ([1e300, 1e-300], [0.0, 0.0]), SolverError,
         "estimator Method.FIRST_ORDER produced non-finite tau"),
    ], ids=["non_finite_coefficients", "vanishing_linear_coefficient", "non_finite_ratio"])
    def test_step_rejections(self, aw, q, coefficients, error, message):
        powers = _powers(np.array([2e15]), 1)
        ports = [(_series(a, 1), (powers @ [n]).tolist()) for a, n in zip(aw, q)]
        if coefficients is not None:
            ports = [(c, [1.0, 1.0]) for c in coefficients]
        with pytest.raises(error) as raised:
            _first_order(*ports)
        assert str(raised.value) == message

    def test_general_form_names_real_weak_values(self):
        # one counted bin at w = 2e15 rad/s per port, real weak values (2, 0)
        grid = np.array([2.0 * np.pi * 299792458.0 / 2e15 / 1e-9, 950.0])
        rec = MeasurementRecord(port1=Spectrum(grid, [1.0, 0.0]),
                                port2=Spectrum(grid, [1.0, 0.0]), total_events=0)
        with pytest.raises(DegenerateRecordError) as raised:
            general_first_order(rec, WeakValuePair(2.0, 0.0))
        assert str(raised.value) == "real weak values: the constant score term vanishes"

    def test_general_form_rejects_an_empty_record(self, jwm_wv):
        grid = np.linspace(700.0, 860.0, 11)
        empty = MeasurementRecord(port1=Spectrum(grid, np.zeros(11)),
                                  port2=Spectrum(grid, np.zeros(11)), total_events=0)
        with pytest.raises(DegenerateRecordError) as raised:
            general_first_order(empty, jwm_wv)
        assert str(raised.value) == "record holds no events"


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
                   general_first_order, log_likelihood, score_residual):
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
        # would be returned at step 0 (it reads -0.5 with NumPy 2.4 on
        # x86-64, so one step is taken); 1.3e-17 s is no ladder point
        res = solve_exact(jwm_record, jwm_wv)
        assert res.diagnostics["iterations"] > 0 or \
            res.diagnostics["likelihood_residual"] == 0.0
        off_ladder = solve_exact(record_at(PHI_JWM, 1.3e-17), jwm_wv)
        assert off_ladder.diagnostics["iterations"] > 0
        for r in (res, off_ladder):
            assert np.isfinite(r.diagnostics["likelihood_residual"])
            assert r.diagnostics["final_width"] <= 1e-30

    def test_noise_free_record_has_no_standard_error(self, jwm_record, jwm_wv):
        # the weights of a noise-free record are probabilities, not counts
        res = solve_exact(jwm_record, jwm_wv)
        assert res.diagnostics["se_s"] is None
        assert 0 < res.diagnostics["convergence_s"] < 1e-30

    @pytest.mark.parametrize("phi", [PHI_WVA, np.pi / 2], ids=["unbalanced", "balanced"])
    def test_standard_error_meets_the_information_bound(self, phi):
        # L4: two ports hold 4 <w^2> per photon whatever phi, so at 1e7
        # photons the observed information at the root gives an SE within
        # 5% of 1 / sqrt(N 4 <w^2>) = 6.55e-20 s
        for seed in range(3):
            rec = simulate(ExperimentConfig(phi_actual=phi, tau_true=3e-18,
                                            photons=10_000_000, seed=seed))
            res = solve_exact(rec, ideal_weak_values(phi))
            m1, m2 = record_moments(rec)
            bound = 1.0 / np.sqrt(rec.total_events * 4.0 * (m1.m2 + m2.m2))
            assert bound == pytest.approx(6.55e-20, rel=2e-3, abs=0)
            assert res.diagnostics["se_s"] == pytest.approx(bound, rel=0.05, abs=0)
            assert 0 < res.diagnostics["convergence_s"] < 1e-30

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

    @pytest.mark.parametrize("n", [1000, 12345, 100_000])
    def test_profile_grid_is_the_uniform_formula(self, jwm_record, jwm_wv, n):
        g_lo, g_hi = -3.7e-18, 2.1e-17
        grid, _ = likelihood_profile(jwm_record, jwm_wv, g_lo, g_hi, n)
        want = g_lo + (g_hi - g_lo) / (n - 1) * np.arange(n)
        assert np.array_equal(grid.view(np.uint64), want.view(np.uint64))


class TestProfileNulls:
    """The profile's complex zeta zeros, read from each column's slope form."""

    @pytest.mark.parametrize("phi", [PHI_WVA, PHI_JWM, 2.4883])
    def test_zeta_vanishes_at_every_column_null(self, phi):
        # ideal plates give floor-0 null-referenced columns; dispersive and
        # absent ones null- and peak-referenced columns with a floor
        refs = set()
        for qwp in (QwpModel(), default_dispersive_qwp(), QwpModel(variant="absent")):
            rec = record_at(phi, 3e-18, qwp=qwp)
            p = prepare_likelihood(rec, port_projections(phi, rec.omega, qwp)[0])
            phase, offset = _kernels._nulls(p.form)
            floor, u, v = p.terms.floor, p.terms.u, p.terms.v
            top = floor + u ** 2 + v ** 2
            for z in (phase + 1j * offset, phase - 1j * offset):
                zeros = floor + (u * np.cos(z) + v * np.sin(z)) ** 2
                assert np.max(np.abs(zeros) / top) <= 8 * np.finfo(float).eps
            refs |= {("peak" if level > 1 else "null", bool(f > 0))
                     for level, f in zip(p.form.level, floor)}
        assert refs == {("null", False), ("null", True), ("peak", True)}

    def test_constant_column_has_no_zero(self):
        # |A| = 1 real: u = v = 0 and zeta = 1 everywhere, so no zero at any
        # finite offset (and no RuntimeWarning from atanh(1) or 1 / level)
        from weakdelay import WeakValuePair
        rec = record_at(PHI_JWM, 1e-17)
        p = prepare_likelihood(rec, WeakValuePair(aw1=1.0 + 0.0j, aw2=-1.0 + 0.0j))
        assert not np.any(p.terms.u) and not np.any(p.terms.v)
        _, offset = _kernels._nulls(p.form)
        assert np.all(offset == np.inf)


class TestProfileWorkers:
    """Where the profile's exact (not interpolated) work goes."""

    def test_profile_exact_kernel_only_near_nulls(self, monkeypatch):
        # grid points x columns evaluated exactly: none for a balanced
        # record; for an unbalanced one, around its dark port's nulls (w g =
        # 0.015: 5.5e-18 to 7.2e-18 s), under 5% of them, all by the log
        # kernel of the near field and none by a column's whole zeta.  The
        # final ranges evaluate through _split_rows without split columns;
        # the row functions handed to _interpolate only sample
        work = {"kernel": 0, "zeta": 0}
        split_rows, interpolate = _kernels._split_rows, _kernels._interpolate

        def counting(zetas, splits, centre, offset):
            rows = split_rows(zetas, splits, centre, offset)

            def count(x, scratch, p):
                work["zeta"] += x.shape[0] * zetas
                work["kernel"] += x.shape[0] * (x.shape[1] - zetas)
                return rows(x, scratch, p)

            count.sampled = rows
            return count

        def sampling(*args):
            *args, rows = args
            return interpolate(*args, getattr(rows, "sampled", rows))

        monkeypatch.setattr(_kernels, "_split_rows", counting)
        monkeypatch.setattr(_kernels, "_interpolate", sampling)
        n = 100_000
        likelihood_profile(record_at(PHI_JWM, 1e-17), ideal_weak_values(PHI_JWM),
                           0.0, 2e-17, n)
        assert work == {"kernel": 0, "zeta": 0}
        rec = record_at(PHI_WVA, 1e-17)
        columns = np.count_nonzero(rec.port1.weights) + np.count_nonzero(rec.port2.weights)
        likelihood_profile(rec, ideal_weak_values(PHI_WVA), 0.0, 2e-17, n)
        assert work["zeta"] == 0
        assert 0 < work["kernel"] < 0.05 * n * columns


class TestProfileNearField:
    """A column with one zeta zero near a range: its kernel log((x - x0)^2 +
    eta^2) and the regular rest, log zeta less the kernel."""

    @pytest.mark.parametrize("kind", ["ideal", "dispersive"])
    def test_regular_part_interpolant_matches_its_row(self, monkeypatch, kind):
        # the dark port's central bin at phi = 0.03 alone (offset 0 on the
        # ideal plate, 4.4e-4 on the dispersive one), profiled over +-0.01
        # rad of phase about its null: the whole range interpolates the
        # bin's regular part, which must match that part's own row within
        # 1e-14 of the bin's weight.  That needs the kernel's offset to be
        # atanh(sqrt(ratio)), where zeta vanishes, not sinh of it.  The
        # kernel plus the series must match log zeta's own row as closely
        # wherever that row keeps its digits (it carries a rounding of
        # about eps |x| / |x - x0|, so 1e-3 rad or more from the null).
        # That needs the kernel's zero x0 to be the null phase itself, not
        # one reduced about the range's centre, which is off by about eps pi.
        qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel()
        rec = record_at(PHI_WVA, 1e-17, qwp=qwp)
        wv = port_projections(PHI_WVA, rec.omega, qwp)[0]
        mid = rec.omega.size // 2
        q1, q2 = np.zeros(rec.omega.size), np.zeros(rec.omega.size)
        q2[mid] = rec.port2.weights[mid]
        p = _kernels.prepare(rec.omega, q1, q2, wv.aw1, wv.aw2)
        (x0,), (eta,) = _kernels._nulls(p.form)
        assert p.q.size == 1 and 0 < x0 < 0.02
        assert (eta == 0) if kind == "ideal" else (4e-4 < eta < 5e-4)
        interpolate, calls = _kernels._interpolate, []

        def capturing(lo, hi, p, nodes, g0, dg, out, scratch, row_values=_kernels._log_rows):
            before = out[lo:hi].copy()
            interpolate(lo, hi, p, nodes, g0, dg, out, scratch, row_values)
            calls.append((lo, hi, row_values, out[lo:hi] - before))

        monkeypatch.setattr(_kernels, "_interpolate", capturing)
        n, w = 2001, p.omega[0]
        dg = 0.02 / w / (n - 1)
        g0 = (x0 - 0.01) / w + 0.37 * dg
        values = _kernels.profile(g0, dg, n, rec.omega, q1, q2, wv.aw1, wv.aw2)
        (lo, hi, row_values, series), = calls
        assert (lo, hi) == (0, n) and row_values is not _kernels._log_rows
        g = g0 + np.arange(n) * dg
        tol = 1e-14 * p.q[0]
        assert np.max(np.abs(series - p.rows(g, row_values))) <= tol
        outside = np.abs(g * w - x0) >= 1e-3
        assert np.count_nonzero(outside) > 0.8 * n
        assert np.max(np.abs(values - p.rows(g, _kernels._log_rows))[outside]) <= tol

    def test_profile_matches_pointwise_likelihood_next_to_nulls(self):
        # 12 unbalanced records (phi = 0.03) over [0, 2 tau] with tau from
        # 4e-18 to 2e-17 s, so the dark port's nulls (5.5e-18 to 7.2e-18 s)
        # lie inside: ideal, dispersive and absent plates x noise-free, 1e5
        # and 1e7 photons, at 60 random grid points and the argmax +- 1
        rng = np.random.default_rng(3030)
        for k in range(12):
            tau = float(10 ** rng.uniform(np.log10(4e-18), np.log10(2e-17)))
            kind = ("ideal", "dispersive", "absent")[k % 3]
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            photons = (0, 100_000, 10_000_000)[k // 3 % 3]
            rec = simulate(ExperimentConfig(phi_actual=PHI_WVA, tau_true=tau, photons=photons,
                                            seed=k, qwp=qwp))
            wv = port_projections(PHI_WVA, rec.omega, qwp)[0]
            n = 100_000
            grid, vals = likelihood_profile(rec, wv, 0.0, 2.0 * tau, n)
            top = int(np.argmax(vals))
            picks = np.unique(np.concatenate([[max(top - 1, 0), top, min(top + 1, n - 1)],
                                              rng.integers(0, n, 60)]))
            tol = 1e-13 * rec.total_weight()
            for idx in picks:
                direct = log_likelihood(grid[idx], rec, wv)
                assert vals[idx] == pytest.approx(direct, abs=tol), (k, idx)


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

        def capturing_chebyshev(coef, n, out):
            calls[-1]["coef"] = coef.copy()
            values = chebyshev(coef, n, out)
            calls[-1]["values"] = values.copy()
            return values

        def counting_clenshaw(coef, t):
            calls[-1]["points"].append(t.copy())
            return clenshaw(coef, t)

        monkeypatch.setattr(_kernels, "_interpolate", counting_interpolate)
        monkeypatch.setattr(_kernels.Prepared, "rows", sampling_rows)
        monkeypatch.setattr(_kernels.Columns, "rows", sampling_rows)
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
        return coef, _kernels._chebyshev(coef, n, np.empty(n)), points[0]

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
        _kernels._interpolate(0, n, p, nodes, 0.0, dg, np.zeros(n), np.empty(n))
        call = calls[0]
        assert [g.size for g in call["samples"]] == [8, 16]
        assert np.unique(np.concatenate(call["samples"])).size == 24
        # the 24 delays formed as _interpolate forms them
        cosines, half = _kernels._cosines(24), 0.5 * (n - 1)
        g = 0.0 + (half + half * cosines[1:48:2]) * dg
        fresh = _kernels._fit(p.rows(g, _kernels._log_rows), 1)
        assert call["fitted"].size == 24
        assert np.abs(call["fitted"] - fresh).sum() <= 1e-15 * np.abs(fresh).sum()

    def test_converged_first_sample_is_accepted(self, monkeypatch, jwm_record, jwm_wv):
        # 45 points resolve the likelihood over [0, 2e-17] to its rounding
        # plateau: nothing more is sampled and at least _PLATEAU terms go
        calls = self._spy(monkeypatch)
        n = 10_000
        _kernels._interpolate(0, n, prepare_likelihood(jwm_record, jwm_wv), 133, 0.0,
                              2e-17 / (n - 1), np.zeros(n), np.empty(n))
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


class TestProfileTables:
    """The profile's fixed tables, cached per node count: the cosine tables,
    the fit matrices and the full-width barycentric matrices."""

    CACHES = ("_cosines", "_fit_matrix", "_block_matrix")

    @classmethod
    def _clear(cls):
        for name in cls.CACHES:
            getattr(_kernels, name).cache_clear()

    @staticmethod
    def _cases():
        # unbalanced records whose range holds the dark port's nulls, on
        # ideal, dispersive and absent plates, noise-free and at 1e5 photons
        for k, kind in enumerate(("ideal", "dispersive", "absent")):
            qwp = default_dispersive_qwp() if kind == "dispersive" else QwpModel(variant=kind)
            for photons in (0, 100_000):
                rec = simulate(ExperimentConfig(phi_actual=PHI_WVA, tau_true=8e-18,
                                                photons=photons, seed=k, qwp=qwp))
                yield rec, port_projections(PHI_WVA, rec.omega, qwp)[0]

    @pytest.mark.parametrize("m", [1, 2, 8, 9, 24, 45, 67, 133, 135])
    def test_cached_tables_are_read_only_fresh_builds(self, m):
        # each table, looked up twice (a miss, then a hit), is the array a
        # fresh build gives, bit for bit, and refuses writes
        self._clear()
        cosines = np.sin(np.pi / (2 * m) * (m - np.arange(4 * m)))
        tables = [(_kernels._cosines(m), _kernels._cosines(m), cosines),
                  (_kernels._block_matrix(m), _kernels._block_matrix(m),
                   _kernels._barycentric(_kernels._BLOCK * m, m))]
        for step in (1, 3):
            fresh = np.sin(np.pi / (2 * step * m) * (step * m - np.arange(4 * step * m)))
            angle = step * np.outer(np.arange(m), 2 * np.arange(m) + 1) % fresh.size
            tables.append((_kernels._fit_matrix(m, step), _kernels._fit_matrix(m, step),
                           fresh[angle]))
        for miss, hit, fresh in tables:
            assert hit is miss
            assert miss.shape == fresh.shape
            assert np.array_equal(miss.view(np.uint64), fresh.view(np.uint64))
            assert not miss.flags.writeable
            with pytest.raises(ValueError):
                miss[0] = 0.0

    @pytest.mark.parametrize("n", [150, 1000, 16 * 67 + 37, 100_000])
    def test_profile_is_bit_identical_with_cold_and_warm_tables(self, n):
        # each profile with every cache cleared before it, then again after
        # all the others have filled the caches with their own tables; at
        # 150 points most ranges are one block narrower than _BLOCK nodes,
        # which builds its own matrix, and at 1109 every range ends in a
        # partial block
        cases = list(self._cases())
        cold = []
        for rec, wv in cases:
            self._clear()
            cold.append(likelihood_profile(rec, wv, 0.0, 1.6e-17, n)[1])
        for (rec, wv), first in zip(cases, cold):
            warm = likelihood_profile(rec, wv, 0.0, 1.6e-17, n)[1]
            assert np.array_equal(warm.view(np.uint64), first.view(np.uint64))

    def test_caches_stay_within_their_bound(self, monkeypatch):
        # profiles at 30 grid sizes from 20 to 1e5 points key the
        # barycentric cache by node count alone: it holds no more matrices
        # than there were distinct evaluated lengths, and no cache holds
        # more than _TABLES entries
        chebyshev, kept = _kernels._chebyshev, set()

        def counting(coef, n, out):
            kept.add(coef.size)
            return chebyshev(coef, n, out)

        monkeypatch.setattr(_kernels, "_chebyshev", counting)
        self._clear()
        for n in np.geomspace(20, 100_000, 30).astype(int):
            for rec, wv in self._cases():
                likelihood_profile(rec, wv, 0.0, 1.6e-17, int(n))
        assert kept
        for name in self.CACHES:
            info = getattr(_kernels, name).cache_info()
            assert info.maxsize == _kernels._TABLES
            assert 0 < info.currsize <= _kernels._TABLES
        assert _kernels._block_matrix.cache_info().currsize <= len(kept)
