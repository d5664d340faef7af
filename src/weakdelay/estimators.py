"""Maximum-likelihood delay estimators for two-port postselected records.

The measured record holds per-bin counts Q_j(omega) for the two
postselection ports.  Because the port distributions factor as
P_j = |<f_j|i>|^2 P_0(w) zeta_j(w, g), the source spectrum P_0 drops out of
the likelihood equation entirely; every estimator below consumes only the
record (and the assumed postselection parameters), never P_0.

Estimator family, from most to least rigorous:

* ``solve_exact``      - bracketed root of the likelihood score.  The
  default residual is the exact trigonometric score d/dg sum Q_j log zeta_j;
  the rationalized small-(g w) form is available as ``residual_form=
  "rational"`` and as :func:`likelihood_equation_residual`.
* ``solve_quartic``    - the rationalized score N/D with 1/D expanded as a
  power series in g w, truncated at fourth order in g; solved by
  companion-matrix eigenvalues.
* ``first_order``      - the linear truncation of the quartic, specialized
  to ideal-analyzer weak values (tan/cot coefficients).
* ``jwm_simplified``   - balanced-postselection shortcut that needs no
  knowledge of phi, only the pooled spectral variance.
* ``strubi_reference`` - a published alternative balanced-port formula kept
  for comparison sweeps only; it disagrees with ``jwm_simplified`` and the
  comparison quantifies that disagreement.
* ``wva_first_order`` / ``wva_mean_shift`` - unbalanced (amplification)
  regime estimators built from normalized per-port moments.

Sign conventions calibrated against the simulator are module constants and
are never absorbed silently (see ``JWM_SIGN``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .errors import (BracketingError, DegenerateRecordError, DomainError,
                     ModelError, SolverError)
from .polarization import WeakValuePair, ideal_weak_values
from .spectra import MeasurementRecord, pooled_variance, record_moments

#: Default search bracket for the score root [s].
DEFAULT_BRACKET = (-1e-15, 1e-15)

#: Default bisection tolerance on the bracket width [s].  Chosen so that a
#: zero-delay record resolves to zero at the 1e-12/omega0 level.
DEFAULT_TOL = 1e-30

#: Sign constant of the balanced-postselection shortcut estimator.  The raw
#: moment combination (P_f1 <w>_2 - P_f2 <w>_1)/Var(w) evaluates to -tau on
#: simulated balanced records (first order in tau at phi = pi/2), so the
#: calibrated estimator flips it.  Fixed once against the simulator.
JWM_SIGN = -1.0

#: Weak-measurement regime guard for the rationalized residual: warn when
#: max |g| omega exceeds this.
WEAK_REGIME_MAX_GW = 0.5


class Method(str, Enum):
    EXACT = "exact"
    QUARTIC = "quartic"
    FIRST_ORDER = "first_order"
    JWM_SIMPLIFIED = "jwm_simplified"
    STRUBI_REFERENCE = "strubi_reference"
    WVA_FIRST_ORDER = "wva_first_order"
    WVA_MEAN_SHIFT = "wva_mean_shift"


@dataclass(frozen=True)
class EstimationResult:
    """A delay estimate with method identifier and solver diagnostics."""

    tau_hat: float
    method: Method
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.tau_hat):
            raise SolverError(f"estimator {self.method} produced non-finite tau")


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients a g^4 + b g^3 + c g^2 + d g + e of the truncated score."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e])


def _port_arrays(record: MeasurementRecord, weak_values: WeakValuePair):
    q1 = record.port1.weights
    q2 = record.port2.weights
    if q1.sum() + q2.sum() <= 0:
        raise DegenerateRecordError("record holds no events")
    return q1, q2, record.omega, weak_values.aw1, weak_values.aw2


def _counted_ports(record: MeasurementRecord, weak_values: WeakValuePair):
    """Counted bins of each port as (omega, q, zeta terms)."""
    q1, q2, omega, aw1, aw2 = _port_arrays(record, weak_values)
    return [_kernels.counted_bins(omega, q, aw) for q, aw in ((q1, aw1), (q2, aw2))]


def log_likelihood(g: float, record: MeasurementRecord,
                   weak_values: WeakValuePair) -> float:
    """Log-likelihood of delay g, up to a g-independent additive constant.

    Only the reshaping factors depend on g, so the source spectrum and the
    postselection overlaps contribute constants and are omitted.  Bins with
    zero counts contribute nothing; a counted bin on a model zero (see
    :mod:`weakdelay._kernels`) yields -inf (sentinel, not an exception).
    """
    out = 0.0
    for omega, q, terms in _counted_ports(record, weak_values):
        z, _ = _kernels.zeta(g * omega, terms)
        if np.any(z <= terms.null):
            return -np.inf
        out += float((q * np.log(z)).sum())
    return out


def score_residual(g: float, record: MeasurementRecord,
                   weak_values: WeakValuePair) -> float:
    """Exact derivative of the log-likelihood with respect to g.

    Vanishes at the maximum-likelihood delay; positive below it near a
    smooth maximum.  Raises ModelError where a counted bin sits on a model
    zero of its reshaping factor (the likelihood is singular there).
    """
    out = 0.0
    for omega, q, terms in _counted_ports(record, weak_values):
        z, slope = _kernels.zeta(g * omega, terms)
        if not np.all(z > terms.null):
            raise ModelError(f"likelihood score singular at g = {g!r}")
        out += float((q * omega * slope / z).sum())
    return out


def likelihood_equation_residual(g: float, record: MeasurementRecord,
                                 weak_values: WeakValuePair) -> float:
    """Rationalized likelihood-equation residual (small g w expansion).

    Polynomial-over-quadratic integrand obtained by expanding the exact
    score to second order in g w; zero at the estimate.  Valid only in the
    weak-measurement regime (warns when max |g| omega exceeds
    ``WEAK_REGIME_MAX_GW``) and raises ModelError when any counted bin's
    quadratic denominator is nonpositive.
    """
    q1, q2, omega, aw1, aw2 = _port_arrays(record, weak_values)
    if abs(g) * omega.max() > WEAK_REGIME_MAX_GW:
        warnings.warn("rational residual evaluated outside the weak-measurement regime",
                      stacklevel=2)
    out = 0.0
    for q, aw in ((q1, aw1), (q2, aw2)):
        sq = np.abs(aw) ** 2
        im = np.imag(aw)
        num = -2.0 * im * omega ** 3 * g ** 2 + (sq - 1.0) * omega ** 2 * g + im * omega
        den = (sq - 1.0) * (omega * g) ** 2 + 2.0 * im * g * omega + 1.0
        live = q > 0
        if np.any(den[live] <= 0):
            raise ModelError(f"rational residual outside validity region at g = {g!r}")
        out += float((q[live] * num[live] / den[live]).sum())
    return out


def likelihood_profile(record: MeasurementRecord, weak_values: WeakValuePair,
                       g_lo: float, g_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood on a uniform n-point delay grid (diagnostic scan).

    Suitable for dense grids (1e5 points): runs the block-rotation profile
    of :mod:`weakdelay._kernels` over counted bins only.  Returns (grid,
    values), values offset by the same g-independent constant as
    :func:`log_likelihood`.  Model probabilities are kept at or above
    1e-300 before the log, so grid points sitting on a likelihood
    singularity read as huge negative values rather than -inf.
    """
    if n < 2:
        raise DomainError("profile needs at least 2 grid points")
    q1, q2, omega, aw1, aw2 = _port_arrays(record, weak_values)
    dg = (g_hi - g_lo) / (n - 1)
    values = _kernels.profile(g_lo, dg, n, omega, q1, q2, aw1, aw2)
    return g_lo + dg * np.arange(n), values


def phi_likelihood_scan(record: MeasurementRecord, phis, g: float) -> np.ndarray:
    """Log-likelihood versus assumed postselection offset (diagnostic only).

    Unlike the delay likelihood, the postselection overlaps depend on the
    scanned parameter, so their log-weights are kept.
    """
    n1 = record.port1.total()
    n2 = record.port2.total()
    out = []
    for phi in phis:
        overlap_term = 2.0 * (n1 * np.log(np.cos(phi / 2))
                              + n2 * np.log(np.sin(phi / 2)))
        out.append(overlap_term + log_likelihood(g, record, ideal_weak_values(phi)))
    return np.array(out)


def general_first_order(record: MeasurementRecord,
                        weak_values: WeakValuePair) -> float:
    """First-order estimate -E/D from the truncated score, any weak values.

    Uses the self-consistent linear coefficient sum_j [ (|A|^2 - 1)
    - 2 (Im A)^2 ] <w^2>_j; reduces to the tan/cot form of
    :func:`first_order` for ideal-analyzer weak values.
    """
    q1, q2, omega, aw1, aw2 = _port_arrays(record, weak_values)
    e = d = 0.0
    for q, aw in ((q1, aw1), (q2, aw2)):
        sq = np.abs(aw) ** 2
        im = np.imag(aw)
        e += float((q * omega * im).sum())
        d += float((q * omega ** 2 * ((sq - 1.0) - 2.0 * im ** 2)).sum())
    if d == 0:
        raise DegenerateRecordError("degenerate record: linear score coefficient vanishes")
    return -e / d


def _candidate_ladder(lo: float, hi: float, hint: float | None) -> np.ndarray:
    """Global localization grid: log ladders both signs, zero, hint window."""
    top = max(abs(lo), abs(hi))
    ladder = np.logspace(-21, np.log10(top), 61)
    cands = [np.array([0.0]), ladder, -ladder]
    if hint is not None and np.isfinite(hint) and hint != 0.0:
        cands.append(hint * np.linspace(0.2, 5.0, 49))
    allc = np.concatenate(cands)
    allc = allc[(allc >= lo) & (allc <= hi)]
    return np.unique(np.concatenate([allc, [lo, hi]]))


def solve_exact(record: MeasurementRecord, weak_values: WeakValuePair,
                bracket: tuple[float, float] | None = None,
                tol: float = DEFAULT_TOL,
                residual_form: str = "exact") -> EstimationResult:
    """Maximum-likelihood delay as a bracketed root of the score.

    The root is localized by a likelihood sweep over a candidate ladder
    inside the bracket (default ±1e-15 s, widened tenfold up to three times
    when the optimum presses against it), then refined by bisection of the
    residual to width ``tol``.  ``residual_form`` selects the exact
    trigonometric score (default) or the rationalized weak-regime form;
    frequency-dependent weak values are supported by both, staying inside
    the bin sums.
    """
    if residual_form == "exact":
        def res(g):
            return score_residual(g, record, weak_values)
    elif residual_form == "rational":
        def res(g):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return likelihood_equation_residual(g, record, weak_values)
    else:
        raise DomainError(f"unknown residual form {residual_form!r}")

    explicit = bracket is not None
    lo, hi = bracket if explicit else DEFAULT_BRACKET
    if not lo < hi:
        raise DomainError("bracket must satisfy g_lo < g_hi")

    if explicit:
        try:
            rlo, rhi = res(lo), res(hi)
        except ModelError:
            rlo = rhi = None
        if rlo is not None and np.sign(rlo) == np.sign(rhi) and rlo != 0 and rhi != 0:
            raise BracketingError("no sign change across requested bracket",
                                  lo, hi, rlo, rhi)

    try:
        hint = general_first_order(record, weak_values)
    except ModelError:
        hint = None

    for expansion in range(4):
        cands = _candidate_ladder(lo, hi, hint)
        brackets = _brackets_from_candidates(cands, record, weak_values, res)
        if brackets or explicit or expansion == 3:
            if not brackets:
                raise BracketingError("could not bracket a score root inside "
                                      "the search range", lo, hi,
                                      float("nan"), float("nan"))
            # refine every descending crossing; keep the most likely root
            best = None
            for g_lo, g_hi, f_lo, f_hi in brackets:
                root, iters = _bisect(res, g_lo, g_hi, f_lo, f_hi, tol)
                ll = log_likelihood(root, record, weak_values)
                if best is None or ll > best[0]:
                    best = (ll, root, iters, g_hi - g_lo)
            _, root, iters, width = best
            try:
                residual_at_root = res(root)
            except ModelError:
                residual_at_root = float("nan")
            mom1, mom2 = record_moments(record)
            return EstimationResult(
                tau_hat=root,
                method=Method.EXACT,
                diagnostics={
                    "likelihood_residual": residual_at_root,
                    "iterations": iters,
                    "bracket_width": width,
                    "final_width": tol,
                    "candidate_roots": len(brackets),
                    "residual_form": residual_form,
                    "port_probabilities": (mom1.p0, mom2.p0),
                },
            )
        # nothing bracketed inside the range: widen per the x10 policy
        lo, hi = lo * 10.0, hi * 10.0


def _brackets_from_candidates(cands, record, weak_values, res):
    """All candidate intervals holding a likelihood-maximum score crossing.

    At a likelihood maximum the score falls through zero (+ to -), while
    likelihood singularities jump the other way (-inf to +inf), so only
    descending sign changes are admitted; competing local maxima are all
    returned for the caller to rank.  When no candidate pair straddles a
    root, densify around the likelihood argmax instead.
    """
    vals = np.empty(len(cands))
    for i, g in enumerate(cands):
        try:
            vals[i] = res(g)
        except ModelError:
            vals[i] = np.nan
    brackets = []
    for i in range(len(cands) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and (a > 0 >= b or a >= 0 > b):
            brackets.append((cands[i], cands[i + 1], a, b))
    if brackets:
        return brackets
    # no straddle at ladder resolution: densify around the likelihood optimum
    lls = np.array([log_likelihood(g, record, weak_values) for g in cands])
    if np.all(np.isneginf(lls)):
        raise SolverError("likelihood is -inf over the whole candidate ladder")
    found = _refine_to_bracket(cands, int(np.argmax(lls)), res)
    return [found] if found is not None else []


def _refine_to_bracket(cands: np.ndarray, k: int, res, max_depth: int = 10):
    """Find adjacent points straddling the score root near candidate k.

    Recursively densifies the interval around the likelihood argmax until an
    adjacent pair with finite, opposite-sign residuals emerges (isolated
    likelihood singularities are skipped over by the densification).
    """
    window = cands[max(k - 2, 0):min(k + 3, len(cands))]
    for _ in range(max_depth):
        vals = []
        for g in window:
            try:
                vals.append(res(g))
            except ModelError:
                vals.append(np.nan)
        vals = np.array(vals)
        for i in range(len(window) - 1):
            a, b = vals[i], vals[i + 1]
            if np.isfinite(a) and np.isfinite(b) and (a > 0 >= b or a >= 0 > b):
                return window[i], window[i + 1], a, b
        finite = np.isfinite(vals)
        if not finite.any():
            centre = len(window) // 2
            lo_g, hi_g = window[0], window[-1]
        else:
            # keep the subinterval holding the sign structure closest to a root
            centre = int(np.nanargmin(np.abs(vals)))
            lo_g = window[max(centre - 1, 0)]
            hi_g = window[min(centre + 1, len(window) - 1)]
            if lo_g == hi_g:
                return None
        window = np.linspace(lo_g, hi_g, 33)
    return None


def _bisect(res, g_lo, g_hi, f_lo, f_hi, tol, max_iter=260):
    if f_lo == 0:
        return g_lo, 0
    if f_hi == 0:
        return g_hi, 0
    iters = 0
    while g_hi - g_lo > tol and iters < max_iter:
        mid = 0.5 * (g_lo + g_hi)
        try:
            fm = res(mid)
        except ModelError:
            fm = None
            for frac in (0.381966011, 0.618033989, 0.271, 0.729):
                cand = g_lo + (g_hi - g_lo) * frac
                try:
                    fm = res(cand)
                    mid = cand
                    break
                except ModelError:
                    continue
            if fm is None:
                raise SolverError("residual singular across the working bracket")
        if fm == 0:
            return mid, iters
        if (fm > 0) == (f_lo > 0):
            g_lo, f_lo = mid, fm
        else:
            g_hi, f_hi = mid, fm
        iters += 1
    return 0.5 * (g_lo + g_hi), iters


def quartic_coefficients(record: MeasurementRecord, weak_values: WeakValuePair,
                         printed_d_form: bool = False) -> QuarticCoefficients:
    """Coefficients of the fourth-order truncation of the rationalized score.

    Per bin the rationalized score is N/D with x = g w, u1 = 2 Im A and
    u2 = |A|^2 - 1:

        N = w (n0 + n1 x + n2 x^2),  n = (Im A, u2, -u1)
        D = 1 + u1 x + u2 x^2,       1/D = sum_k r_k x^k

    with r0 = 1, r1 = -u1, r2 = u1^2 - u2, r3 = 2 u1 u2 - u1^3 and
    r4 = u2^2 - 3 u1^2 u2 + u1^4.  The coefficient of g^k is
    sum_w Q w^(k+1) sum_i n_i r_(k-i), so the quartic agrees with
    :func:`likelihood_equation_residual` through g^4.

    Requires frequency-independent weak values.  The linear coefficient d
    is that series term, the self-consistent form (|A|^2 - 1) - 2 (Im A)^2,
    whose ratio -e/d reproduces the first-order estimator;
    ``printed_d_form`` switches to the variant with an unsquared imaginary
    part, retained only for comparison (the two differ and only the squared
    form is consistent with the first-order limit).
    """
    if weak_values.is_frequency_dependent():
        raise DomainError("quartic coefficients need frequency-independent weak values")
    q1, q2, omega, aw1, aw2 = _port_arrays(record, weak_values)
    series = [0.0] * 5
    printed_d = 0.0
    for q, aw in ((q1, aw1), (q2, aw2)):
        im = float(np.imag(aw))
        u1, u2 = 2.0 * im, abs(aw) ** 2 - 1.0
        n = (im, u2, -u1)
        r = (1.0, -u1, u1 ** 2 - u2, 2.0 * u1 * u2 - u1 ** 3,
             u2 ** 2 - 3.0 * u1 ** 2 * u2 + u1 ** 4)
        p = [float((q * omega ** (k + 1)).sum()) for k in range(5)]
        for k in range(5):
            series[k] += p[k] * sum(n[i] * r[k - i] for i in range(min(k, 2) + 1))
        printed_d += p[1] * (u2 - 2.0 * im)
    e, d, c, b, a = series
    if printed_d_form:
        d = printed_d
    coeffs = QuarticCoefficients(a=a, b=b, c=c, d=d, e=e)
    if not np.all(np.isfinite(coeffs.as_array())):
        raise DegenerateRecordError("quartic coefficients are not finite")
    if np.all(coeffs.as_array() == 0.0):
        raise DegenerateRecordError("all-zero record: quartic is degenerate")
    return coeffs


def solve_quartic(coeffs: QuarticCoefficients, hint: float) -> EstimationResult:
    """Real root of the quartic closest to the hint (first-order estimate).

    The polynomial is rescaled to an O(1) variable before the
    companion-matrix eigenvalue solve to keep the wildly mixed coefficient
    units conditioned.
    """
    arr = coeffs.as_array()
    if not np.all(np.isfinite(arr)):
        raise SolverError("quartic coefficients are not finite")
    if coeffs.a == coeffs.b == coeffs.c == 0.0:
        if coeffs.d == 0.0:
            raise SolverError("degenerate quartic: no linear term")
        root = -coeffs.e / coeffs.d
        return EstimationResult(tau_hat=root, method=Method.QUARTIC,
                                diagnostics={"real_roots": [root], "hint": hint})
    scale = abs(hint) if hint else 0.0
    if not scale:
        scale = abs(coeffs.e / coeffs.d) if coeffs.d else 1e-18
    if not np.isfinite(scale) or scale == 0.0:
        scale = 1e-18
    scaled = arr * scale ** np.array([4.0, 3.0, 2.0, 1.0, 0.0])
    roots = np.roots(scaled)
    mags = np.abs(roots)
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(mags, 1e-300)].real * scale
    if real.size == 0:
        raise SolverError(f"quartic has no real roots (coefficients {arr.tolist()})")
    best = float(real[np.argmin(np.abs(real - hint))])
    return EstimationResult(tau_hat=best, method=Method.QUARTIC,
                            diagnostics={"real_roots": sorted(real.tolist()),
                                         "hint": hint})


def quartic(record: MeasurementRecord, weak_values: WeakValuePair) -> EstimationResult:
    """Convenience wrapper: coefficients + root selection seeded by -e/d."""
    coeffs = quartic_coefficients(record, weak_values)
    hint = -coeffs.e / coeffs.d if coeffs.d else 0.0
    return solve_quartic(coeffs, hint)


def first_order(record: MeasurementRecord, phi: float) -> EstimationResult:
    """First-order delay estimate for an ideal analyzer at offset phi.

    tau = [sin^2(phi/2) <w>_1 - cos^2(phi/2) <w>_2]
          / [tan(phi/2) <w^2>_1 + cot(phi/2) <w^2>_2]

    with sub-normalized per-port moments, so a zero-delay record cancels the
    numerator exactly regardless of the spectrum.
    """
    if not 0.0 < phi < np.pi:
        raise DomainError(f"phi = {phi!r} outside (0, pi)")
    m1, m2 = record_moments(record)
    t = np.tan(phi / 2)
    num = np.sin(phi / 2) ** 2 * m1.m1 - np.cos(phi / 2) ** 2 * m2.m1
    den = t * m1.m2 + m2.m2 / t
    if den == 0:
        raise DegenerateRecordError("degenerate record: zero moment denominator")
    return EstimationResult(
        tau_hat=num / den,
        method=Method.FIRST_ORDER,
        diagnostics={"port_probabilities": (m1.p0, m2.p0),
                     "moments_used": {"m1": (m1.m1, m2.m1), "m2": (m1.m2, m2.m2)}},
    )


def _check_balanced(p1: float, p2: float):
    if not (0.3 <= p1 <= 0.7 and 0.3 <= p2 <= 0.7):
        warnings.warn(f"record is not near-balanced (port probabilities "
                      f"{p1:.3f}/{p2:.3f}); balanced-regime estimators degrade",
                      stacklevel=3)


def jwm_simplified(record: MeasurementRecord,
                   variance_source: float | None = None) -> EstimationResult:
    """Balanced-postselection estimate needing no knowledge of phi.

    tau = JWM_SIGN * (P_f1 <w>_2 - P_f2 <w>_1) / variance, with the pooled
    two-port frequency variance as the default divisor and sub-normalized
    first moments.
    """
    m1, m2 = record_moments(record)
    _check_balanced(m1.p0, m2.p0)
    var = pooled_variance(record) if variance_source is None else variance_source
    if not var > 0:
        raise DegenerateRecordError("spectral variance must be positive")
    tau = JWM_SIGN * (m1.p0 * m2.m1 - m2.p0 * m1.m1) / var
    return EstimationResult(
        tau_hat=tau,
        method=Method.JWM_SIMPLIFIED,
        diagnostics={"port_probabilities": (m1.p0, m2.p0), "variance": var,
                     "sign_constant": JWM_SIGN},
    )


def strubi_reference(record: MeasurementRecord,
                     omega_stats: tuple[float, float] | None = None) -> EstimationResult:
    """Published alternative balanced-port formula, for comparison only.

    tau = 1/4 [ (<w>_2 - <w>_1)/var - (P_f2 - P_f1)/sqrt(var) ] with
    normalized (barred) first moments, after Struebi and Bruder,
    Phys. Rev. Lett. 110, 083605 (2013).  The moment normalization is not
    stated there; barred moments are assumed here.  On simulated sweeps
    this deviates from ground truth where ``jwm_simplified`` tracks it,
    which is the point of carrying it.
    """
    m1, m2 = record_moments(record)
    _check_balanced(m1.p0, m2.p0)
    if omega_stats is None:
        var = pooled_variance(record)
        spread = float(np.sqrt(var))
    else:
        var, spread = omega_stats
    if not (var > 0 and spread > 0):
        raise DegenerateRecordError("spectral variance must be positive")
    if m1.p0 == 0 or m2.p0 == 0:
        raise DegenerateRecordError("empty port: barred moments undefined")
    tau = 0.25 * ((m2.m1_bar - m1.m1_bar) / var - (m2.p0 - m1.p0) / spread)
    return EstimationResult(
        tau_hat=tau,
        method=Method.STRUBI_REFERENCE,
        diagnostics={"port_probabilities": (m1.p0, m2.p0),
                     "variance": var, "spread": spread},
    )


def wva_first_order(record: MeasurementRecord, phi: float,
                    omega0: float | None = None) -> EstimationResult:
    """Unbalanced-regime first-order estimate from normalized moments.

    tau = (phi/2) (<w>_1^bar - <w>_2^bar)
          / (<w^2>_1^bar + <w^2>_2^bar - 2 w0 <w>_2^bar)

    omega0 defaults to the bright-port mean <w>_1^bar, which approximates
    the source mean when the postselection is strongly unbalanced.
    """
    if not 0.0 < phi < np.pi:
        raise DomainError(f"phi = {phi!r} outside (0, pi)")
    if phi > 0.2:
        warnings.warn(f"phi = {phi:.3f} rad is outside the unbalanced regime",
                      stacklevel=2)
    m1, m2 = record_moments(record)
    if m2.p0 == 0:
        raise DegenerateRecordError("empty port 2: barred moments undefined")
    if m1.p0 == 0:
        raise DegenerateRecordError("empty port 1: barred moments undefined")
    w0 = m1.m1_bar if omega0 is None else omega0
    den = m1.m2_bar + m2.m2_bar - 2.0 * w0 * m2.m1_bar
    if den == 0:
        raise DegenerateRecordError("degenerate record: zero barred denominator")
    tau = (phi / 2.0) * (m1.m1_bar - m2.m1_bar) / den
    return EstimationResult(
        tau_hat=tau,
        method=Method.WVA_FIRST_ORDER,
        diagnostics={"port_probabilities": (m1.p0, m2.p0), "omega0": w0},
    )


def wva_mean_shift(delta_omega: float, im_aw2: float, variance: float) -> EstimationResult:
    """Classic amplification-regime estimate from the dark-port mean shift.

    tau = delta_omega / (2 im_aw2 variance).  Callers supply the dark-port
    shift delta_omega = <w>_1^bar - <w>_2^bar and the weak-value magnitude
    |Im A_w2| = cot(phi/2); the simulator round-trip fixes this convention
    (the shift carries the sign, the weak value enters through its size).
    """
    if im_aw2 == 0:
        raise DomainError("im_aw2 must be nonzero")
    if not variance > 0:
        raise DomainError("variance must be positive")
    return EstimationResult(
        tau_hat=delta_omega / (2.0 * im_aw2 * variance),
        method=Method.WVA_MEAN_SHIFT,
        diagnostics={"delta_omega": delta_omega, "im_aw2": im_aw2,
                     "variance": variance},
    )
