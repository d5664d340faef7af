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

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import NM, wavelength_to_angular_frequency
from .errors import DomainError, ModelError
from .estimators import Method, first_order, jwm_simplified, solve_exact
from .polarization import QwpModel, port_projections
from .spectra import MeasurementRecord, Spectrum, postselected_distribution
from .waveplate import PlateStack, pivot_delay


#: Largest wavelength grid a source may have.  The default grid has 2101
#: bins; a million bins keep every per-bin array of a record under 8 MB.
MAX_BINS = 1_000_000


@dataclass(frozen=True)
class SourceConfig:
    """Source spectrum parameters; defaults model a broadband LED line.

    The grid is limited to :data:`MAX_BINS` bins.
    """

    center_nm: float = 780.0
    fwhm_nm: float = 17.6
    grid_min_nm: float = 690.0
    grid_max_nm: float = 900.0
    grid_step_nm: float = 0.1
    shape: str = "gaussian"

    def __post_init__(self):
        if not self.grid_step_nm > 0:
            raise DomainError("grid step must be positive")
        if not -np.inf < self.grid_min_nm < self.grid_max_nm < np.inf:
            raise DomainError("grid must have finite, positive extent")
        if self.n_bins() > MAX_BINS:
            raise DomainError(f"grid of {self.n_bins()} bins exceeds the cap of {MAX_BINS}")
        if not self.fwhm_nm > 0:
            raise DomainError("line width must be positive")
        if self.shape not in ("gaussian", "lorentzian", "flat"):
            raise DomainError(f"unknown source shape {self.shape!r}")

    @property
    def omega0(self) -> float:
        """Angular frequency of the centre wavelength [rad/s]."""
        return wavelength_to_angular_frequency(self.center_nm)

    def n_bins(self) -> int:
        return int(round((self.grid_max_nm - self.grid_min_nm) / self.grid_step_nm)) + 1


def make_source(cfg: SourceConfig) -> Spectrum:
    """Normalized source histogram over the configured wavelength grid."""
    grid = np.linspace(cfg.grid_min_nm, cfg.grid_max_nm, cfg.n_bins())
    x = grid - cfg.center_nm
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
        raise ModelError("source spectrum vanishes on the grid")
    return Spectrum(grid, w / total)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full synthetic-experiment description.

    The delay is given either directly (``tau_true`` [s]) or through a plate
    pivot (``theta`` [rad] plus ``stack``), in which case the tilt-to-delay
    map supplies the ground truth at the source centre wavelength.
    ``photons == 0`` is the noise-free sentinel: the record then holds the
    expected per-bin weights instead of sampled counts.
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
        if self.photons < 0:
            raise DomainError("photon count must be nonnegative (0 = noise-free)")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.noise not in ("multinomial", "poisson"):
            raise DomainError(f"unknown noise model {self.noise!r}")
        if (self.tau_true is None) == (self.theta is None):
            raise DomainError("specify exactly one of tau_true or theta")
        if self.theta is not None and self.stack is None:
            raise DomainError("theta requires a plate stack")

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
    ports sum to 1; ``total_events`` is 0, the noise-free sentinel.
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
    }
    return MeasurementRecord(port1=postselected_distribution(source, tau, wv.aw1, ov1),
                             port2=postselected_distribution(source, tau, wv.aw2, ov2),
                             total_events=0, metadata=metadata)


def _draw(expected: MeasurementRecord, config: ExperimentConfig,
          rng: np.random.Generator) -> MeasurementRecord:
    """Shot-noise record of ``config.photons`` events over the expected ports."""
    if config.photons == 0:
        return expected
    n_bins = expected.omega.size
    p = np.concatenate([expected.port1.weights, expected.port2.weights])
    total = p.sum()
    if total <= 0:
        raise ModelError("all-zero event probabilities; nothing to sample")
    if config.noise == "multinomial":
        counts = rng.multinomial(config.photons, p / total).astype(float)
        total_events = float(config.photons)
    else:
        counts = rng.poisson(config.photons * p / total).astype(float)
        total_events = float(counts.sum())
        if total_events == 0:
            raise ModelError("Poisson draw produced an empty record")
    grid = expected.grid_nm
    return MeasurementRecord(port1=Spectrum(grid, counts[:n_bins]),
                             port2=Spectrum(grid, counts[n_bins:]),
                             total_events=total_events, metadata=dict(expected.metadata))


def simulate(config: ExperimentConfig,
             rng: np.random.Generator | None = None) -> MeasurementRecord:
    """Generate one measurement record under the configured forward model.

    Deterministic for a fixed config: the generator defaults to
    ``default_rng(config.seed)``.  Pass an explicit generator to consume a
    Monte Carlo substream instead.
    """
    if rng is None and config.photons:
        rng = np.random.default_rng(config.seed)
    return _draw(expected_record(config), config, rng)


@dataclass(frozen=True)
class SweepRow:
    """One tilt angle of a theta sweep with per-method estimates [s]."""

    theta: float
    tau_theory: float
    estimates: dict


def _estimation_weak_values(config: ExperimentConfig, omega: np.ndarray):
    wv, _, _ = port_projections(config.phi_for_estimation, omega, config.qwp)
    return wv


def sweep_theta(thetas, stack: PlateStack, config: ExperimentConfig,
                mode: str = "auto") -> list[SweepRow]:
    """Reproduce the tilt-sweep comparison of estimators against theory.

    For each pivot angle the ground-truth delay comes from the tilt-to-delay
    map; a record is simulated and estimated with the exact solver and the
    first-order formula, plus the balanced-postselection shortcut when the
    configuration is balanced (``mode="jwm"``, or ``"auto"`` with phi within
    0.35 rad of pi/2).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.size == 0:
        raise DomainError("theta list must be nonempty")
    if mode == "auto":
        mode = "jwm" if abs(config.phi_actual - np.pi / 2) < 0.35 else "wva"
    if mode not in ("jwm", "wva"):
        raise DomainError(f"unknown sweep mode {mode!r}")

    lam0_m = config.source.center_nm * NM
    rows = []
    for i, theta in enumerate(thetas):
        tau_theory = pivot_delay(float(theta), stack, lam0_m) if theta else 0.0
        cfg = replace(config, tau_true=tau_theory, theta=None, stack=None)
        rng = np.random.default_rng((config.seed, i))
        record = simulate(cfg, rng)
        wv = _estimation_weak_values(cfg, record.omega)
        estimates = {
            Method.EXACT.value: solve_exact(record, wv).tau_hat,
            Method.FIRST_ORDER.value: first_order(record, cfg.phi_for_estimation).tau_hat,
        }
        if mode == "jwm":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                estimates[Method.JWM_SIMPLIFIED.value] = jwm_simplified(record).tau_hat
        rows.append(SweepRow(theta=float(theta), tau_theory=tau_theory,
                             estimates=estimates))
    return rows


@dataclass(frozen=True)
class SnrPoint:
    """Monte Carlo SNR at one (alpha, assumed phi) setting."""

    alpha: float
    snr_db: float
    trials: int
    phi_assumed: float

    def __post_init__(self):
        if self.trials < 30:
            raise DomainError("reported SNR points need at least 30 trials")


def snr_sweep(alphas, phi_actual: float, phi_assumed_list, trials: int,
              config: ExperimentConfig) -> list[SnrPoint]:
    """Monte Carlo SNR of the first-order estimator under phi misalignment.

    For each dimensionless delay alpha = w0 tau and each assumed phi, run
    ``trials`` seeded simulations at the actual phi and estimate with the
    assumed one.  The expected port distributions are built once per
    alpha; trial k of point (ia, ip) draws from them with the generator
    ``default_rng((seed, ia, ip, k))``, as ``simulate`` would.
    SNR_dB = 10 log10(tau^2 / MSE); a degenerate zero MSE is reported as
    +inf.
    """
    if trials < 30:
        raise DomainError("at least 30 trials per point are required")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(alphas <= 0):
        raise DomainError("alpha values must be positive (alpha = 0 is excluded)")
    omega0 = config.source.omega0
    points = []
    for ia, alpha in enumerate(alphas):
        tau = float(alpha) / omega0
        cfg = replace(config, phi_actual=phi_actual, tau_true=tau,
                      theta=None, stack=None)
        expected = expected_record(cfg)
        for ip, phi_assumed in enumerate(phi_assumed_list):
            errors = np.empty(trials)
            for k in range(trials):
                rng = np.random.default_rng((config.seed, ia, ip, k))
                record = _draw(expected, cfg, rng)
                errors[k] = first_order(record, phi_assumed).tau_hat - tau
            mse = float(np.mean(errors ** 2))
            snr = np.inf if mse == 0 else 10.0 * np.log10(tau ** 2 / mse)
            points.append(SnrPoint(alpha=float(alpha), snr_db=float(snr),
                                   trials=trials, phi_assumed=float(phi_assumed)))
    return points


def resolution_factor(lambda0_nm: float, delta_lambda_nm: float,
                      resolution_nm: float) -> float:
    """Dimensionless spectrometer-resolution factor lam0 res / (4 dlam^2)."""
    if min(lambda0_nm, delta_lambda_nm, resolution_nm) <= 0:
        raise DomainError("all lengths must be positive")
    return lambda0_nm * resolution_nm / (4.0 * delta_lambda_nm ** 2)


def wva_uncertainty(alpha: float, beta: float, lambda0_nm: float = 780.0,
                    delta_lambda_nm: float = 17.6,
                    resolution_nm: float = 0.1) -> float:
    """Resolution-limited uncertainty of alpha in the amplification scheme.

    d(alpha) = [lam0/(4 dlam^2)] (alpha^2 + beta^2)^2 / (alpha beta^2) res,
    minimized over the postselection offset beta at beta = alpha.
    """
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive (formula singular "
                          "otherwise; use alpha_min for the beta -> 0 limit)")
    c = resolution_factor(lambda0_nm, delta_lambda_nm, resolution_nm)
    return c * (alpha ** 2 + beta ** 2) ** 2 / (alpha * beta ** 2)


def alpha_min(epsilon: float, lambda0_nm: float = 780.0,
              delta_lambda_nm: float = 17.6, resolution_nm: float = 0.1) -> float:
    """Minimum detectable alpha under a residual misalignment epsilon.

    alpha_min = sqrt[(sqrt(1 - 4C) - 2C + 1) / (2C)] * epsilon with
    C the resolution factor; it is the fixed point alpha = d(alpha) of the
    uncertainty formula at beta = epsilon, and requires C < 1/4.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    c = resolution_factor(lambda0_nm, delta_lambda_nm, resolution_nm)
    if c >= 0.25:
        raise ModelError(f"resolution factor C = {c:.4f} >= 1/4: formula invalid")
    return float(np.sqrt((np.sqrt(1.0 - 4.0 * c) - 2.0 * c + 1.0) / (2.0 * c)) * epsilon)
