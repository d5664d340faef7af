"""Synthetic experiment generation, parameter sweeps, and error analysis.

The forward model draws photon events over (wavelength bin x output port)
with probabilities proportional to |<f_j|i>|^2 P_0(w) zeta_j(w, tau), using
the exact reshaping factor and, when requested, the frequency-dependent
weak values of a fixed-retardance analyzer plate.  Shot noise is
multinomial at fixed total count by default (conditioning on the detected
totals the way spectrometer histograms do); Poisson-per-bin is available
behind a flag.  Everything is deterministic for a fixed seed, with
Monte Carlo substreams derived from (seed, point index, trial index).

SNR convention: SNR_dB = 10 log10(tau^2 / MSE) with MSE the mean squared
error over trials.  This penalizes bias as well as variance, which is what
a misalignment comparison has to measure.  It is a choice made by this
package; see the README.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import NM, wavelength_to_angular_frequency
from .errors import DomainError, ModelError
from .estimators import Method, _first_order, _powers, _series, estimate
from .polarization import QwpModel, ideal_weak_values, port_projections
from .spectra import MeasurementRecord, Spectrum, postselected_distribution
from .waveplate import PlateStack, pivot_caveats, pivot_delay


#: Largest wavelength grid a source may have.  The default grid has 2101
#: bins; a million bins keep every per-bin array of a record under 8 MB.
MAX_BINS = 1_000_000

#: Most Monte Carlo trials per point, and most angles of a tilt sweep; a
#: million keep every per-trial or per-angle array under 8 MB.
MAX_TRIALS = 1_000_000

#: Largest phase |tau| w a delay may reach on the grid [rad], 2^22: inside
#: the 8e6 rad up to which the likelihood core's model-zero screen holds
#: (:data:`weakdelay._kernels._SCREEN`).  On the default grid it is a delay
#: of 1.54e-9 s, or alpha = w0 tau = 3.7e6.
MAX_PHASE = 2.0 ** 22


@dataclass(frozen=True)
class SourceConfig:
    """Source spectrum parameters; defaults model a broadband LED line.

    These field defaults, with those of :class:`ExperimentConfig` and
    :class:`~weakdelay.polarization.QwpModel`, are the one statement of
    the default experiment; the configuration loader and the CLI read them.

    The grid is limited to :data:`MAX_BINS` bins, and the line is at least
    one grid step wide; a Lorentzian line's squared half-width must not
    overflow.
    """

    center_nm: float = 780.0
    fwhm_nm: float = 17.6
    grid_min_nm: float = 690.0
    grid_max_nm: float = 900.0
    grid_step_nm: float = 0.1
    shape: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.center_nm < np.inf:
            raise DomainError("centre wavelength must be positive and finite")
        if not self.grid_step_nm > 0:
            raise DomainError("grid step must be positive")
        if not 0.0 < self.grid_min_nm < self.grid_max_nm < np.inf:
            raise DomainError("grid must be positive wavelengths of finite, positive extent")
        if self.n_bins() > MAX_BINS:
            raise DomainError(f"grid of {self.n_bins()} bins exceeds the cap of {MAX_BINS}")
        if not self.grid_step_nm <= self.fwhm_nm < np.inf:
            raise DomainError(f"line width fwhm_nm = {self.fwhm_nm!r} must be finite and "
                              f"at least the grid step grid_step_nm = {self.grid_step_nm!r}")
        if self.shape not in ("gaussian", "lorentzian", "flat"):
            raise DomainError(f"unknown source shape {self.shape!r}")
        gamma = self.fwhm_nm / 2.0
        if self.shape == "lorentzian" and not gamma * gamma < np.inf:
            raise DomainError(f"Lorentzian line width fwhm_nm = {self.fwhm_nm!r}: "
                              f"its squared half-width overflows")

    @property
    def omega0(self) -> float:
        """Angular frequency of the centre wavelength [rad/s]."""
        return wavelength_to_angular_frequency(self.center_nm)

    def largest_phase(self, delay: float) -> float:
        """The largest phase of ``delay`` on the grid: times the frequency of
        its shortest wavelength, in Python floats (inf past the float range)."""
        return float(delay) * wavelength_to_angular_frequency(self.grid_min_nm)

    def check_delay(self, name: str, value, delay: float) -> None:
        """Raise DomainError naming the input ``name`` = ``value`` when the
        largest phase of its ``delay`` is not within :data:`MAX_PHASE`."""
        phase = abs(self.largest_phase(delay))
        if not phase <= MAX_PHASE:
            raise DomainError(f"{name} = {value!r}: its delay overflows the phase bound "
                              f"(largest phase {phase:.3g} rad on the grid, above 2^22 rad)")

    def n_bins(self) -> int:
        return int(round((self.grid_max_nm - self.grid_min_nm) / self.grid_step_nm)) + 1


def make_source(cfg: SourceConfig) -> Spectrum:
    """Normalized source histogram over the configured wavelength grid.

    A squared offset that overflows weighs exactly 0.  Raises DomainError
    when the line leaves no weight on the grid (a centre far off it).
    """
    grid = np.linspace(cfg.grid_min_nm, cfg.grid_max_nm, cfg.n_bins())
    x = grid - cfg.center_nm
    with np.errstate(over="ignore"):
        if cfg.shape == "gaussian":
            sigma = cfg.fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            w = np.exp(-0.5 * (x / sigma) ** 2)
        elif cfg.shape == "lorentzian":
            gamma = cfg.fwhm_nm / 2.0
            w = gamma ** 2 / (x ** 2 + gamma ** 2)
        else:
            w = np.where(np.abs(x) <= cfg.fwhm_nm / 2.0, 1.0, 0.0)
    total = w.sum()
    if total <= 0:
        raise DomainError(f"source line at center_nm = {cfg.center_nm!r} with fwhm_nm = "
                          f"{cfg.fwhm_nm!r} leaves no weight on the grid")
    return Spectrum(grid, w / total)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full synthetic-experiment description.

    The delay is given either directly (``tau_true`` [s]) or through a plate
    pivot (``theta`` [rad] plus ``stack``), in which case the tilt-to-delay
    map supplies the ground truth at the source centre wavelength.
    ``photons == 0`` is the noise-free sentinel: the record then holds the
    expected per-bin weights instead of sampled counts.  The delay's
    largest phase on the grid must lie within :data:`MAX_PHASE`
    (:meth:`SourceConfig.check_delay`): a ``tau_true`` or ``theta`` that is
    not finite, or whose delay passes that bound, raises DomainError naming
    the field.
    """

    phi_actual: float
    source: SourceConfig = field(default_factory=SourceConfig)
    phi_assumed: float | None = None
    qwp: QwpModel = field(default_factory=QwpModel)
    photons: int = 10_000_000
    seed: int = 0
    tau_true: float | None = None
    theta: float | None = None
    stack: PlateStack | None = None
    noise: str = "multinomial"

    def __post_init__(self):
        if not 0.0 < self.phi_actual < np.pi:
            raise DomainError("phi_actual must lie in (0, pi)")
        if self.phi_assumed is not None and not 0.0 < self.phi_assumed < np.pi:
            raise DomainError("phi_assumed must lie in (0, pi)")
        if not 0 <= self.photons <= np.iinfo(np.int64).max:
            raise DomainError("photon count must lie in [0, 2^63 - 1] (0 = noise-free)")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.noise not in ("multinomial", "poisson"):
            raise DomainError(f"unknown noise model {self.noise!r}")
        if (self.tau_true is None) == (self.theta is None):
            raise DomainError("specify exactly one of tau_true or theta")
        if self.theta is not None and self.stack is None:
            raise DomainError("theta requires a plate stack")
        name = "tau_true" if self.theta is None else "theta"
        self.source.check_delay(name, getattr(self, name), self.delay())

    @property
    def phi_for_estimation(self) -> float:
        return self.phi_actual if self.phi_assumed is None else self.phi_assumed

    def delay(self) -> float:
        if self.tau_true is not None:
            return self.tau_true
        return pivot_delay(self.theta, self.stack, self.source.center_nm * NM)


def default_dispersive_qwp(source: SourceConfig | None = None) -> QwpModel:
    """Quarter-wave plate matched to the source centre: tau0 = (pi/4)/omega0."""
    cfg = source if source is not None else SourceConfig()
    return QwpModel(variant="dispersive", tau0=(np.pi / 4.0) / cfg.omega0)


def expected_record(config: ExperimentConfig) -> MeasurementRecord:
    """Noise-free record: the expected port distributions of the configuration.

    Each port holds |<f_j|i>|^2 P_0(w) zeta_j(w, tau) per bin, so the two
    ports sum to 1; ``total_events`` is 0, the noise-free sentinel.  The
    metadata holds the delay under ``tau_true_s`` and, for a pivot-angle
    configuration, the tilt-to-delay map's small-angle caveat under
    ``warnings`` (a list, empty when the map is trusted).
    """
    source = make_source(config.source)
    tau = config.delay()
    wv, ov1, ov2 = port_projections(config.phi_actual, source.omega, config.qwp)
    metadata = {
        "phi_nominal": config.phi_actual,
        "phi_assumed": config.phi_for_estimation,
        "seed": config.seed,
        "qwp": {"variant": config.qwp.variant, "tau0_s": config.qwp.tau0},
        "photons": config.photons,
        "noise": config.noise,
        "tau_true_s": tau,
        "warnings": [] if config.theta is None else list(pivot_caveats(config.theta)),
    }
    return MeasurementRecord(port1=postselected_distribution(source, tau, wv.aw1, ov1),
                             port2=postselected_distribution(source, tau, wv.aw2, ov2),
                             total_events=0, metadata=metadata)


def _sampler(expected: MeasurementRecord, config: ExperimentConfig):
    """Shot-noise sampler of ``config.photons`` events over the expected ports.

    The event probabilities are normalized once.  The returned ``draw(rng)``
    gives (counts as two rows, port 1 then port 2, total events) from one
    generator: multinomial at the fixed total, or Poisson per bin, which
    raises ModelError on an empty draw.  With ``photons == 0`` it gives the
    expected weights and the noise-free total 0.
    """
    p = np.concatenate([expected.port1.weights, expected.port2.weights])
    photons = config.photons
    if photons == 0:
        return lambda rng: (p.reshape(2, -1), 0)
    total = p.sum()
    if total <= 0:
        raise ModelError("all-zero event probabilities; nothing to sample")
    if config.noise == "multinomial":
        pvals = p / total

        def draw(rng):
            return rng.multinomial(photons, pvals).astype(float).reshape(2, -1), float(photons)
    else:
        means = photons * p / total

        def draw(rng):
            counts = rng.poisson(means).astype(float)
            total_events = float(counts.sum())
            if total_events == 0:
                raise ModelError("Poisson draw produced an empty record")
            return counts.reshape(2, -1), total_events
    return draw


def simulate(config: ExperimentConfig,
             rng: np.random.Generator | None = None) -> MeasurementRecord:
    """Generate one measurement record under the configured forward model.

    Deterministic for a fixed config: the generator defaults to
    ``default_rng(config.seed)``.  Pass an explicit generator to consume a
    Monte Carlo substream instead.
    """
    expected = expected_record(config)
    if config.photons == 0:
        return expected
    if rng is None:
        rng = np.random.default_rng(config.seed)
    (q1, q2), total_events = _sampler(expected, config)(rng)
    grid = expected.grid_nm
    return MeasurementRecord(port1=Spectrum(grid, q1), port2=Spectrum(grid, q2),
                             total_events=total_events, metadata=dict(expected.metadata))


@dataclass(frozen=True)
class SweepRow:
    """One tilt angle of a theta sweep with per-method estimates [s].

    ``warnings`` holds the caveats of the angle's simulated record: the
    tilt-to-delay map's small-angle caveat where the map is not trusted.
    """

    theta: float
    tau_theory: float
    estimates: dict
    warnings: tuple[str, ...] = ()


def _require_finite(values: np.ndarray, name: str) -> None:
    """DomainError naming the first non-finite entry of ``values``."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise DomainError(f"{name} = {float(bad[0])!r} is not finite")


def sweep_theta(thetas, stack: PlateStack, config: ExperimentConfig) -> list[SweepRow]:
    """Reproduce the tilt-sweep comparison of estimators against theory.

    Each pivot angle and ``stack`` replace the configuration's delay, so
    the simulated record carries the tilt-to-delay map's delay and its
    small-angle caveat in its metadata; the row reads both back from it
    (the caveat as data, not a Python warning).  The record is estimated
    with the exact solver and the first-order formula, plus the
    balanced-postselection shortcut ``jwm_simplified`` when the
    configuration is balanced, phi_actual within 0.35 rad of pi/2.  An
    empty or non-finite theta list raises DomainError before any simulation.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.size == 0:
        raise DomainError("theta list must be nonempty")
    _require_finite(thetas, "theta")
    methods = [Method.EXACT, Method.FIRST_ORDER]
    if abs(config.phi_actual - np.pi / 2) < 0.35:
        methods.append(Method.JWM_SIMPLIFIED)
    rows = []
    for i, theta in enumerate(thetas):
        cfg = replace(config, tau_true=None, theta=float(theta), stack=stack)
        record = simulate(cfg, np.random.default_rng((config.seed, i)))
        estimates = {m.value: estimate(m, record, cfg.phi_for_estimation, cfg.qwp).tau_hat
                     for m in methods}
        rows.append(SweepRow(theta=float(theta), tau_theory=record.metadata["tau_true_s"],
                             estimates=estimates, warnings=tuple(record.metadata["warnings"])))
    return rows


@dataclass(frozen=True)
class SnrPoint:
    """Monte Carlo SNR at one (alpha, assumed phi) setting."""

    alpha: float
    snr_db: float
    trials: int
    phi_assumed: float


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _deal_trials(trial, n: int) -> None:
    """Run ``trial(k)`` for k in range(n) in shares, one thread per usable core.

    With m shares (the usable cores, at most n), share j runs trials j,
    j + m, j + 2m, ... in order; the calling thread runs share 0 and one
    thread per other share is started and joined here, so none outlives
    the call.  The exception of the lowest failing trial is raised, as a
    serial loop would raise it: a share stops at its first trial past the
    lowest failure seen so far, so every lower trial still runs.  An
    interrupt of the calling thread stops every share at its next trial and
    is raised after the join.  ``trial`` must call no public function of
    the package: the benchmark's tracer is not thread-safe.
    """
    m = min(_usable_cores(), n)
    failed = [n] * m  # each share's failing trial, n while it has none
    raised: list[Exception | None] = [None] * m
    interrupt = None  # once set, every share stops at its next trial

    def share(j):
        for k in range(j, n, m):
            if interrupt is not None or k > min(failed):
                return
            try:
                trial(k)
            except Exception as exc:
                failed[j], raised[j] = k, exc
                return

    threads = []
    try:
        for j in range(1, m):
            threads.append(threading.Thread(target=share, args=(j,)))
            threads[-1].start()
        share(0)
    except BaseException as exc:  # an interrupt, or a thread that would not start
        interrupt = exc
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # interrupted while waiting
                interrupt = interrupt or exc
    if interrupt is not None:
        raise interrupt
    lowest = min(range(m), key=failed.__getitem__)
    if raised[lowest] is not None:
        raise raised[lowest]


def snr_sweep(alphas, phi_actual: float, phi_assumed_list, trials: int,
              config: ExperimentConfig) -> list[SnrPoint]:
    """Monte Carlo SNR of the first-order estimator under phi misalignment.

    For each dimensionless delay alpha = w0 tau and each assumed phi, run
    ``trials`` seeded simulations at the actual phi and estimate with the
    assumed one.  Per alpha the expected port distributions and their
    sampler are built once; for the whole sweep, the [w; w^2] matrix of the
    source grid, which every alpha shares, and per assumed phi the two
    ports' first-order series coefficients.  Trial k of point (ia, ip) is
    then a draw with the generator ``default_rng((seed, ia, ip, k))``, as
    ``simulate`` would make it, one matrix-vector product per port for its
    power sums and the first-order step in Python floats
    (:func:`~weakdelay.estimators._first_order`): the same delay as
    ``first_order(simulate(...), phi)``, with no record built.  A point's
    trials are dealt in shares, one per usable core (:func:`_deal_trials`):
    share j of m runs trials j, j + m, ..., the calling thread share 0.
    Each trial keeps its generator and writes its own error, so every
    point is bit-identical to a serial loop's for any core count, and the
    exception of the lowest failing trial is the one raised.  A trial
    checks no record: a multinomial draw holds ``photons`` events and an
    empty Poisson draw raises ModelError.  A noise-free configuration
    (``photons`` 0) has one error per point, the first-order bias on the
    expected record, evaluated once.
    SNR_dB = 10 log10(tau^2 / MSE); a degenerate zero MSE is reported as
    +inf.  ``trials`` must be an integer in [30, :data:`MAX_TRIALS`] and
    every alpha finite and positive, with a squared delay (alpha / w0)^2
    that does not underflow (at or above the smallest normal double), and
    every assumed phi finite, else DomainError before any simulation; a
    scalar alpha or assumed phi is a list of one.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, got {trials!r}") from None
    if trials < 30:
        raise DomainError("at least 30 trials per point are required")
    if trials > MAX_TRIALS:
        raise DomainError(f"{trials} trials per point exceed the cap of {MAX_TRIALS}")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    phis = np.atleast_1d(np.asarray(phi_assumed_list, dtype=float))
    if alphas.size == 0 or phis.size == 0:
        raise DomainError("alpha and phi lists must be nonempty")
    _require_finite(alphas, "alpha")
    _require_finite(phis, "phi_assumed")
    if np.any(alphas <= 0):
        raise DomainError("alpha values must be positive (alpha = 0 is excluded)")
    omega0 = config.source.omega0
    tiny = alphas[np.square(alphas / omega0) < np.finfo(float).tiny]
    if tiny.size:
        raise DomainError(f"alpha = {float(tiny[0])!r}: its squared delay underflows")
    series = [(_series(wv.aw1, 1), _series(wv.aw2, 1))
              for wv in map(ideal_weak_values, phis.tolist())]
    points = []
    for ia, alpha in enumerate(alphas):
        tau = float(alpha) / omega0
        cfg = replace(config, phi_actual=phi_actual, tau_true=tau,
                      theta=None, stack=None)
        expected = expected_record(cfg)
        draw = _sampler(expected, cfg)
        # every alpha shares the source grid
        powers = _powers(expected.omega, 1) if ia == 0 else powers
        for ip, (phi_assumed, (s1, s2)) in enumerate(zip(phis.tolist(), series)):
            # noise-free trials all draw the expected counts: one is enough
            errors = np.empty(1 if config.photons == 0 else trials)

            def trial(k):
                (q1, q2), _ = draw(np.random.default_rng((config.seed, ia, ip, k)))
                errors[k] = _first_order((s1, (powers @ q1).tolist()),
                                         (s2, (powers @ q2).tolist())) - tau
            _deal_trials(trial, errors.size)
            mse = float(np.mean(errors ** 2))
            snr = np.inf if mse == 0 else 10.0 * np.log10(tau ** 2 / mse)
            points.append(SnrPoint(alpha=float(alpha), snr_db=float(snr),
                                   trials=trials, phi_assumed=phi_assumed))
    return points


def resolution_factor(lambda0_nm: float, delta_lambda_nm: float,
                      resolution_nm: float) -> float:
    """Dimensionless spectrometer-resolution factor lam0 res / (4 dlam^2).

    A length that is not positive, or a factor that is not positive and
    finite (a product past the float range or one that underflows to 0),
    raises DomainError naming the three lengths.
    """
    try:  # a float power past the range raises, and so does dividing by 0
        c = lambda0_nm * resolution_nm / (4.0 * delta_lambda_nm ** 2)
    except (OverflowError, ZeroDivisionError):
        c = math.nan
    if min(lambda0_nm, delta_lambda_nm, resolution_nm) <= 0 or not 0 < c < math.inf:
        raise DomainError(f"lengths must be positive with a positive, finite resolution "
                          f"factor, got lambda0_nm = {lambda0_nm!r}, delta_lambda_nm = "
                          f"{delta_lambda_nm!r}, resolution_nm = {resolution_nm!r} "
                          f"(factor {c!r})")
    return c


def wva_uncertainty(alpha: float, beta: float, lambda0_nm: float = SourceConfig.center_nm,
                    delta_lambda_nm: float = SourceConfig.fwhm_nm,
                    resolution_nm: float = SourceConfig.grid_step_nm) -> float:
    """Resolution-limited uncertainty of alpha in the amplification scheme.

    d(alpha) = [lam0/(4 dlam^2)] (alpha^2 + beta^2)^2 / (alpha beta^2) res,
    minimized over the postselection offset beta at beta = alpha.  The
    lengths default to the default source's centre, FWHM and grid step
    (its sampling resolution).  A denominator alpha beta^2 that underflows
    to 0 or a result that is not finite raises DomainError.
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive (formula singular "
                          "otherwise; use alpha_min for the beta -> 0 limit)")
    c = resolution_factor(lambda0_nm, delta_lambda_nm, resolution_nm)
    try:  # a float power past the range raises
        den = alpha * beta ** 2
        if den == 0:
            raise DomainError(f"alpha beta^2 underflows to 0 at alpha = {alpha!r}, "
                              f"beta = {beta!r}")
        value = c * (alpha ** 2 + beta ** 2) ** 2 / den
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"d(alpha) = {value!r} is not finite at alpha = {alpha!r}, "
                          f"beta = {beta!r}")
    return value


def alpha_min(epsilon: float, lambda0_nm: float = SourceConfig.center_nm,
              delta_lambda_nm: float = SourceConfig.fwhm_nm,
              resolution_nm: float = SourceConfig.grid_step_nm) -> float:
    """Minimum detectable alpha under a residual misalignment epsilon.

    alpha_min = sqrt[(sqrt(1 - 4C) - 2C + 1) / (2C)] * epsilon with
    C the resolution factor; it is the fixed point alpha = d(alpha) of the
    uncertainty formula at beta = epsilon, and requires C < 1/4.  A
    product that is not finite raises DomainError.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    c = resolution_factor(lambda0_nm, delta_lambda_nm, resolution_nm)
    if c >= 0.25:
        raise ModelError(f"resolution factor C = {c:.4f} >= 1/4: formula invalid")
    value = math.sqrt((math.sqrt(1.0 - 4.0 * c) - 2.0 * c + 1.0) / (2.0 * c)) * float(epsilon)
    if not math.isfinite(value):
        raise DomainError(f"alpha_min = {value!r} is not finite at epsilon = {epsilon!r}")
    return value
