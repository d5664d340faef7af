"""Spectra, postselected pointer distributions, and spectral moments.

A :class:`Spectrum` is a histogram of photon counts (or probability mass)
over a strictly increasing wavelength grid.  Each bin contributes a point
mass at its centre frequency omega(lambda) = 2 pi c / lambda; integrals over
frequency are plain weighted sums.  No d(lambda) -> d(omega) Jacobian is
applied because the data are per-bin counts, which is what a spectrometer
reports and what the moment integrals consume.

The postselected distribution of port j is

    P_j(omega) = |<f_j|i>|^2 * P_0(omega) * zeta_j(omega, g)
    zeta_j     = |cos(g w) - i sin(g w) A_wj|^2

with the exact trigonometric reshaping factor zeta (no small-g expansion
anywhere in the forward model), evaluated by the likelihood core as
floor + (u cos(g w) + v sin(g w))^2 in tangent form (see
:mod:`weakdelay._kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .constants import wavelength_to_angular_frequency
from .errors import DegenerateRecordError, DomainError, ModelError
from .polarization import QwpModel, WeakValuePair, port_projections


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative weights over a strictly increasing wavelength grid [nm]."""

    grid_nm: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid_nm, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "grid_nm", grid)
        object.__setattr__(self, "weights", weights)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("spectrum grid needs at least 2 samples")
        if weights.shape != grid.shape:
            raise DomainError("weights and grid must have equal length")
        # a NaN fails these comparisons, so it is rejected with the other bad values
        if not (grid[1:] > grid[:-1]).all():
            raise DomainError("wavelength grid must be strictly increasing")
        if not (weights.min() >= 0 and weights.max() < np.inf):
            raise DomainError("weights must be finite and nonnegative")

    @cached_property
    def omega(self) -> np.ndarray:
        """Bin-centre angular frequencies [rad/s], computed once."""
        return wavelength_to_angular_frequency(self.grid_nm)

    def total(self) -> float:
        return float(self.weights.sum())

    def is_normalized(self, tol: float = 1e-9) -> bool:
        return abs(self.total() - 1.0) <= tol


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-port spectra on a shared grid plus acquisition metadata.

    For raw photon-count records ``total_events`` equals the summed counts
    of both ports; noise-free (expected-value) records carry total weight 1
    and ``total_events == 0`` as a sentinel.  A record is immutable once
    built: its moments are computed once and held on it, as its spectra
    hold their frequencies.
    """

    port1: Spectrum
    port2: Spectrum
    total_events: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.port1.grid_nm is not self.port2.grid_nm
                and not np.array_equal(self.port1.grid_nm, self.port2.grid_nm)):
            raise DomainError("port spectra must share one wavelength grid")
        if self.total_events:
            counted = self.port1.total() + self.port2.total()
            if abs(counted - self.total_events) > 1e-6 * max(1.0, self.total_events):
                raise DomainError(
                    f"count mismatch: ports sum to {counted}, expected {self.total_events}"
                )

    @property
    def grid_nm(self) -> np.ndarray:
        return self.port1.grid_nm

    @property
    def omega(self) -> np.ndarray:
        return self.port1.omega

    def total_weight(self) -> float:
        """Normalizer for the sub-normalized measures Q_j (counts or mass)."""
        return self.port1.total() + self.port2.total()

    @cached_property
    def port_moments(self) -> tuple[SpectralMoments, SpectralMoments]:
        """Both ports' moments against the two-port total, computed once:
        every estimator reads the same values (see :func:`record_moments`)."""
        total = self.total_weight()
        return (_moments(self.port1.weights, self.omega, total),
                _moments(self.port2.weights, self.omega, total))

    @cached_property
    def pooled_variance(self) -> float:
        """Frequency variance of both ports pooled, computed once (see
        :func:`pooled_variance`).

        The moments are taken of the offsets from the most heavily weighted
        bin, so E[d^2] - E[d]^2 keeps its digits (E[w^2] ~ 6e30 would leave
        a rounding residue of order 1e15) and a one-bin record gives
        exactly 0.
        """
        w = self.port1.weights + self.port2.weights
        tot = w.sum()
        if tot <= 0:
            raise DegenerateRecordError("empty record")
        d = self.omega - self.omega[np.argmax(w)]
        mean = (w * d).sum() / tot
        return float((w * d ** 2).sum() / tot - mean ** 2)


@dataclass(frozen=True)
class SpectralMoments:
    """Zeroth, first and second frequency moments of one port.

    p0 is the port probability (integral of the sub-normalized Q_j); m1 and
    m2 are moments against the same sub-normalized measure, so m1 -> p0 *
    <omega> for a narrow line.  The barred variants divide by p0 and are NaN
    for an empty port.
    """

    p0: float
    m1: float
    m2: float
    m1_bar: float
    m2_bar: float


def moments(port: Spectrum, normalize_by_total: float) -> SpectralMoments:
    """Moments of one port spectrum, sub-normalized by the two-port total."""
    return _moments(port.weights, port.omega, normalize_by_total)


def _moments(weights, omega, normalize_by_total: float) -> SpectralMoments:
    """Moments of one port's weights on the frequencies ``omega``."""
    if not normalize_by_total > 0:
        raise DegenerateRecordError("total event count must be positive")
    q = weights / normalize_by_total
    p0 = float(q.sum())
    m1 = float((q * omega).sum())
    m2 = float((q * omega ** 2).sum())
    if p0 > 0:
        m1_bar, m2_bar = m1 / p0, m2 / p0
    else:
        m1_bar = m2_bar = float("nan")
    return SpectralMoments(p0=p0, m1=m1, m2=m2, m1_bar=m1_bar, m2_bar=m2_bar)


def record_moments(record: MeasurementRecord) -> tuple[SpectralMoments, SpectralMoments]:
    """Moments of both ports against the shared two-port normalizer, held
    on the record once computed (``MeasurementRecord.port_moments``)."""
    return record.port_moments


def pooled_variance(record: MeasurementRecord) -> float:
    """Frequency variance of the two ports pooled into one spectrum, held
    on the record once computed (``MeasurementRecord.pooled_variance``)."""
    return record.pooled_variance


def zeta(omega, g: float, aw):
    """Spectral reshaping factor |cos(g w) - i sin(g w) aw|^2 of a postselected port.

    Evaluated as (Re aw)^2/(a + r) + 2 r cos^2(g w - delta/2), a sum of two
    nonnegative terms (see :mod:`weakdelay._kernels`), so it needs no clamp
    and keeps its digits next to a port null.  Non-finite inputs are
    reported as a model error.
    """
    om = np.asarray(omega, dtype=float)
    out = _kernels.zeta(g * om, _kernels.zeta_terms(aw))
    if not np.all(np.isfinite(out)):
        raise ModelError("zeta produced non-finite values; "
                         "inconsistent (omega, g, aw) inputs")
    return float(out) if (np.ndim(omega) == 0 and np.ndim(aw) == 0) else out


def postselected_distribution(source: Spectrum, g: float, aw, overlap_sq: float) -> Spectrum:
    """Unnormalized port distribution overlap^2 * P0(w) * zeta(w, g, aw).

    The total of the returned spectrum is the postselection probability of
    the port, so the output is deliberately not renormalized.
    """
    if not source.is_normalized():
        raise DomainError("source spectrum must be normalized")
    if not 0.0 <= overlap_sq <= 1.0:
        raise DomainError("overlap_sq must lie in [0, 1]")
    shape = zeta(source.omega, g, aw)
    return Spectrum(source.grid_nm, overlap_sq * source.weights * shape)


def postselection_probabilities_exact(source: Spectrum, tau: float, phi: float):
    """Exact port probabilities (P_f1, P_f2) for an ideal analyzer.

    Integrates the exact reshaping factor against the source histogram.  In
    the small-tau limit this reduces to the quadratic form

        P_f1 ~ cos^2(phi/2) [1 + (tan^2(phi/2)-1) w0^2 t^2 + 2 tan(phi/2) w0 t]

    but only when the spectral spread is small against w0; the second-order
    term of the exact integral carries <w^2>, not w0^2.
    """
    wv, ov1, ov2 = port_projections(phi, source.omega, QwpModel())
    p1 = postselected_distribution(source, tau, wv.aw1, ov1).total()
    p2 = postselected_distribution(source, tau, wv.aw2, ov2).total()
    return p1, p2


def completeness_defect(source: Spectrum, tau: float, weak_values: WeakValuePair,
                        overlap_sq_1: float, overlap_sq_2: float) -> float:
    """Max deviation of sum_j overlap_j^2 zeta_j(w, tau) from 1 over the grid.

    Zero (to rounding) whenever the two postselection ports form an
    orthogonal resolution at each frequency, dispersive analyzers included.
    """
    z1 = zeta(source.omega, tau, weak_values.aw1)
    z2 = zeta(source.omega, tau, weak_values.aw2)
    return float(np.abs(overlap_sq_1 * z1 + overlap_sq_2 * z2 - 1.0).max())
