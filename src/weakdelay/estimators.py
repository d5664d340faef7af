"""Maximum-likelihood delay estimators for two-port postselected records.

The measured record holds per-bin counts Q_j(omega) for the two
postselection ports.  Because the port distributions factor as
P_j = |<f_j|i>|^2 P_0(w) zeta_j(w, g), the source spectrum P_0 drops out of
the likelihood equation entirely; every estimator below consumes only the
record (and the assumed postselection parameters), never P_0.

Estimator family, from most to least rigorous:

* ``solve_exact``      - bracketed root of the exact trigonometric score
  d/dg sum Q_j log zeta_j.  The rationalized small-(g w) form of the score
  is :func:`likelihood_equation_residual`.
* ``quartic``          - the rationalized score N/D with 1/D expanded as a
  power series in g w, truncated at fourth order in g; solved by
  companion-matrix eigenvalues.
* ``general_first_order`` / ``first_order`` - the same series truncated at
  first order in g, for any weak values or at the ideal-analyzer ones.
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

#: Root tolerance on the bracket width [s] of ``solve_exact``.  Chosen so
#: that a zero-delay record resolves to zero at the 1e-12/omega0 level.
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


def _ports(record: MeasurementRecord, weak_values: WeakValuePair):
    """(counts, weak value) of port 1 and of port 2; an empty record is degenerate."""
    if record.total_weight() <= 0:
        raise DegenerateRecordError("record holds no events")
    return ((record.port1.weights, weak_values.aw1),
            (record.port2.weights, weak_values.aw2))


def _residual(g, out, what: str):
    """Scalar g: ModelError where singular (NaN); array g: NaN marks kept."""
    if not np.ndim(g) and np.isnan(out):
        raise ModelError(f"{what} at g = {g!r}")
    return out


def prepare_likelihood(record, weak_values=None) -> _kernels.Prepared:
    """Both ports' counted bins, stacked once (see :mod:`weakdelay._kernels`).

    The likelihood functions accept the result in place of ``(record,
    weak_values)``; a prepared record is returned as it is.
    """
    if isinstance(record, _kernels.Prepared):
        return record
    (q1, aw1), (q2, aw2) = _ports(record, weak_values)
    return _kernels.prepare(record.omega, q1, q2, aw1, aw2)


def _rational_terms(aw):
    """Per-bin terms of the rationalized score, u1 = 2 Im A and u2 = |A|^2 - 1.

    At x = g w the score of a bin is Q w N/D with N = n0 + n1 x + n2 x^2,
    n = (Im A, u2, -u1), and D = 1 + u1 x + u2 x^2.  Returns (n, (u1, u2)).
    """
    im = np.imag(aw)
    u1, u2 = 2.0 * im, np.abs(aw) ** 2 - 1.0
    return (im, u2, -u1), (u1, u2)


def _score_series(record: MeasurementRecord, weak_values: WeakValuePair,
                  order: int) -> list[list[float]]:
    """Per-port coefficients c_0..c_order of the rationalized score in powers of g.

    With 1/D = sum_k r_k x^k, r_0 = 1, r_1 = -u1 and r_k = -u1 r_(k-1) -
    u2 r_(k-2), port j's coefficient of g^k is sum_w Q_j w^(k+1) sum_i n_i
    r_(k-i) (terms of :func:`_rational_terms`).  Returns [port 1's, port
    2's]; the score's series is their sum.  Zero-count bins add nothing,
    so every bin is summed unmasked.
    """
    omega = record.omega
    powers = [omega] + [omega ** k for k in range(2, order + 2)]
    series = []
    for q, aw in _ports(record, weak_values):
        n, (u1, u2) = _rational_terms(aw)
        r = [1.0, -u1]
        while len(r) <= order:
            r.append(-u1 * r[-1] - u2 * r[-2])
        coefs = [sum(n[i] * r[k - i] for i in range(min(k, 2) + 1)) for k in range(order + 1)]
        series.append([(q * w * coef).sum() for w, coef in zip(powers, coefs)])
    return series


def log_likelihood(g: float | np.ndarray, record: MeasurementRecord,
                   weak_values: WeakValuePair | None = None) -> float | np.ndarray:
    """Log-likelihood of delay g, up to a g-independent additive constant.

    Only the reshaping factors depend on g, so the source spectrum and the
    postselection overlaps contribute constants and are omitted.  Bins with
    zero counts contribute nothing; a counted bin on a model zero (see
    :mod:`weakdelay._kernels`) yields -inf (sentinel, not an exception).
    A 1-D array g gives an array of log-likelihoods.
    """
    def rows(g, p):
        z, _ = _kernels.zeta(g * p.omega, p.terms)
        return np.where(np.any(z <= p.terms.null, axis=1), -np.inf,
                        (p.q * np.log(z)).sum(axis=1))

    return prepare_likelihood(record, weak_values).rows(g, rows)


def score_residual(g: float | np.ndarray, record: MeasurementRecord,
                   weak_values: WeakValuePair | None = None) -> float | np.ndarray:
    """Exact derivative of the log-likelihood with respect to g.

    Vanishes at the maximum-likelihood delay; positive below it near a
    smooth maximum.  Raises ModelError where a counted bin sits on a model
    zero of its reshaping factor (the likelihood is singular there); a 1-D
    array g gives an array with NaN at such delays.
    """
    def rows(g, p):
        z, slope = _kernels.zeta(g * p.omega, p.terms)
        return np.where(np.any(z <= p.terms.null, axis=1), np.nan,
                        (p.q * p.omega * slope / z).sum(axis=1))

    out = prepare_likelihood(record, weak_values).rows(g, rows)
    return _residual(g, out, "likelihood score singular")


def likelihood_equation_residual(g: float | np.ndarray, record: MeasurementRecord,
                                 weak_values: WeakValuePair | None = None
                                 ) -> float | np.ndarray:
    """Rationalized likelihood-equation residual (small g w expansion).

    Polynomial-over-quadratic integrand sum Q w N/D (see
    :func:`_rational_terms`) obtained by expanding the exact score to
    second order in g w; zero at the estimate.  Valid only in the
    weak-measurement regime (warns when max |g| omega over the counted
    bins exceeds ``WEAK_REGIME_MAX_GW``) and raises ModelError when any
    counted bin's quadratic denominator is nonpositive; a 1-D array g gives
    an array with NaN at such delays.
    """
    prepared = prepare_likelihood(record, weak_values)
    if np.max(np.abs(g)) * prepared.omega.max() > WEAK_REGIME_MAX_GW:
        warnings.warn("rational residual evaluated outside the weak-measurement regime",
                      stacklevel=2)
    (n0, n1, n2), (u1, u2) = _rational_terms(prepared.aw)

    def rows(g, p):
        x = g * p.omega
        num = n0 + n1 * x + n2 * x * x
        den = 1.0 + u1 * x + u2 * x * x
        return np.where(np.any(den <= 0, axis=1), np.nan,
                        (p.q * p.omega * num / den).sum(axis=1))

    out = prepared.rows(g, rows)
    return _residual(g, out, "rational residual outside validity region")


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
    (q1, aw1), (q2, aw2) = _ports(record, weak_values)
    dg = (g_hi - g_lo) / (n - 1)
    values = _kernels.profile(g_lo, dg, n, record.omega, q1, q2, aw1, aw2)
    return g_lo + dg * np.arange(n), values


def general_first_order(record: MeasurementRecord,
                        weak_values: WeakValuePair) -> float:
    """First-order estimate -c0/c1: the rationalized score truncated at g^1.

    c0 = sum_j Im A_j <w>_j and c1 = sum_j [(|A_j|^2 - 1) - 2 (Im A_j)^2]
    <w^2>_j, with sub-normalized moments; any weak values, frequency
    dependent ones included.  A c1 within roundoff (64 eps) of its two port
    terms, as real weak values give on a zero-delay record, is degenerate.
    """
    (a0, a1), (b0, b1) = _score_series(record, weak_values, 1)
    c0, c1 = a0 + b0, a1 + b1
    if abs(c1) <= 2.0 ** -46 * (abs(a1) + abs(b1)):  # 64 eps
        raise DegenerateRecordError("degenerate record: linear score coefficient vanishes")
    return float(-c0 / c1)


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
                bracket: tuple[float, float] | None = None) -> EstimationResult:
    """Maximum-likelihood delay as a bracketed root of the score.

    The residual is evaluated once over a candidate ladder inside the
    bracket (default ±1e-15 s, widened tenfold up to three times while no
    root is bracketed).  At a likelihood maximum the score falls through
    zero, while a likelihood singularity jumps the other way (-inf to
    +inf), so every descending sign change between neighbouring candidates
    brackets a local maximum.  Each is refined to width ``DEFAULT_TOL`` by the
    Illinois method, and the root with the highest likelihood wins.  The
    counted bins are prepared once per solve; frequency-dependent weak
    values stay inside the bin sums.
    """
    explicit = bracket is not None
    lo, hi = bracket if explicit else DEFAULT_BRACKET
    if not lo < hi:
        raise DomainError("bracket must satisfy g_lo < g_hi")
    prepared = prepare_likelihood(record, weak_values)

    def res(g):
        return score_residual(g, prepared)

    try:
        hint = general_first_order(record, weak_values)
    except ModelError:
        hint = None

    for expansion in range(4):
        if expansion:
            lo, hi = lo * 10.0, hi * 10.0
        cands = _candidate_ladder(lo, hi, hint)
        vals = res(cands)
        # the ladder ends are the bracket ends
        if explicit and np.sign(vals[0]) * np.sign(vals[-1]) > 0:
            raise BracketingError("no sign change across requested bracket",
                                  lo, hi, vals[0], vals[-1])
        a, b = vals[:-1], vals[1:]
        down = np.flatnonzero(np.isfinite(a) & np.isfinite(b)
                              & (((a > 0) & (b <= 0)) | ((a >= 0) & (b < 0))))
        if down.size or explicit:
            break
    if not down.size:
        raise BracketingError("could not bracket a score root inside the search range",
                              lo, hi, float("nan"), float("nan"))

    refined = [_illinois(res, cands[i], cands[i + 1], a[i], b[i], DEFAULT_TOL)
               for i in down]
    best = int(np.argmax(log_likelihood(np.array([r for r, _ in refined]), prepared)))
    (root, iters), width = refined[best], cands[down[best] + 1] - cands[down[best]]
    mom1, mom2 = record_moments(record)
    return EstimationResult(
        tau_hat=root,
        method=Method.EXACT,
        diagnostics={
            "likelihood_residual": float(res(np.array([root]))[0]),  # NaN if singular
            "iterations": iters,
            "bracket_width": width,
            "final_width": DEFAULT_TOL,
            "candidate_roots": len(refined),
            "port_probabilities": (mom1.p0, mom2.p0),
        },
    )


def _illinois(res, a, b, fa, fb, tol, max_iter=100):
    """Root of res between a < b, where fa and fb differ in sign or vanish.

    False position, halving the residual of an end that is kept twice in a
    row (the Illinois rule) so both ends close in.  A step closer than
    tol/2 to an end is moved to tol/2 from it, so a root next to an end
    ends the search in one more step; a step that still leaves (a, b) is
    replaced by the midpoint.  Returns (root, steps) once b - a <= tol.
    """
    if fa == 0:
        return a, 0
    if fb == 0:
        return b, 0
    steps, moved = 0, None
    while b - a > tol and steps < max_iter:
        # a false-position step, kept at least tol/2 inside the bracket
        g = min(max(a - fa * (b - a) / (fb - fa), a + 0.5 * tol), b - 0.5 * tol)
        if not a < g < b:
            g = 0.5 * (a + b)
            if not a < g < b:
                break
        fg = res(g)
        steps += 1
        if fg == 0:
            return g, steps
        if (fg > 0) == (fa > 0):
            a, fa = g, fg
            if moved == "a":
                fb *= 0.5
            moved = "a"
        else:
            b, fb = g, fg
            if moved == "b":
                fa *= 0.5
            moved = "b"
    return 0.5 * (a + b), steps


def quartic(record: MeasurementRecord, weak_values: WeakValuePair) -> EstimationResult:
    """Real root of the fourth-order truncation of the rationalized score.

    The coefficients e + d g + c g^2 + b g^3 + a g^4 are the first five
    terms of the series of :func:`_score_series`, so the quartic agrees with
    :func:`likelihood_equation_residual` through g^4 and its ratio -e/d is
    :func:`general_first_order`.  Requires frequency-independent weak
    values.  The root nearest the hint -e/d wins; the polynomial is
    rescaled by |hint| (1e-18 s when the hint is zero or not finite) before
    the companion-matrix eigenvalue solve to keep the wildly mixed
    coefficient units conditioned.
    """
    if weak_values.is_frequency_dependent():
        raise DomainError("quartic coefficients need frequency-independent weak values")
    e, d, c, b, a = (float(x + y) for x, y in zip(*_score_series(record, weak_values, 4)))
    arr = np.array([a, b, c, d, e])
    if not np.all(np.isfinite(arr)):
        raise DegenerateRecordError("quartic coefficients are not finite")
    if np.all(arr == 0.0):
        raise DegenerateRecordError("all-zero record: quartic is degenerate")
    hint = -e / d if d else 0.0
    scale = abs(hint) if hint and np.isfinite(hint) else 1e-18
    roots = np.roots(arr * scale ** np.array([4.0, 3.0, 2.0, 1.0, 0.0]))
    mags = np.abs(roots)
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(mags, 1e-300)].real * scale
    if real.size == 0:
        raise SolverError(f"quartic has no real roots (coefficients {arr.tolist()})")
    best = float(real[np.argmin(np.abs(real - hint))])
    return EstimationResult(tau_hat=best, method=Method.QUARTIC,
                            diagnostics={"real_roots": sorted(real.tolist()),
                                         "hint": hint})


def first_order(record: MeasurementRecord, phi: float) -> EstimationResult:
    """First-order delay estimate for an ideal analyzer at offset phi.

    :func:`general_first_order` at the weak values (i tan(phi/2),
    -i cot(phi/2)), which reads

    tau = [sin^2(phi/2) <w>_1 - cos^2(phi/2) <w>_2]
          / [tan(phi/2) <w^2>_1 + cot(phi/2) <w^2>_2]

    with sub-normalized per-port moments, so a zero-delay record cancels the
    numerator regardless of the spectrum.
    """
    tau = general_first_order(record, ideal_weak_values(phi))
    p1, p2 = record.port1.total(), record.port2.total()
    return EstimationResult(
        tau_hat=tau,
        method=Method.FIRST_ORDER,
        diagnostics={"port_probabilities": (p1 / (p1 + p2), p2 / (p1 + p2))},
    )


def _check_balanced(p1: float, p2: float):
    if not (0.3 <= p1 <= 0.7 and 0.3 <= p2 <= 0.7):
        warnings.warn(f"record is not near-balanced (port probabilities "
                      f"{p1:.3f}/{p2:.3f}); balanced-regime estimators degrade",
                      stacklevel=3)


def jwm_simplified(record: MeasurementRecord) -> EstimationResult:
    """Balanced-postselection estimate needing no knowledge of phi.

    tau = JWM_SIGN * (P_f1 <w>_2 - P_f2 <w>_1) / variance, with the pooled
    two-port frequency variance as the divisor and sub-normalized first
    moments.
    """
    m1, m2 = record_moments(record)
    _check_balanced(m1.p0, m2.p0)
    var = pooled_variance(record)
    if not var > 0:
        raise DegenerateRecordError("spectral variance must be positive")
    tau = JWM_SIGN * (m1.p0 * m2.m1 - m2.p0 * m1.m1) / var
    return EstimationResult(
        tau_hat=tau,
        method=Method.JWM_SIMPLIFIED,
        diagnostics={"port_probabilities": (m1.p0, m2.p0), "variance": var,
                     "sign_constant": JWM_SIGN},
    )


def strubi_reference(record: MeasurementRecord) -> EstimationResult:
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
    var = pooled_variance(record)
    if not var > 0:
        raise DegenerateRecordError("spectral variance must be positive")
    spread = float(np.sqrt(var))
    if m1.p0 == 0 or m2.p0 == 0:
        raise DegenerateRecordError("empty port: barred moments undefined")
    tau = 0.25 * ((m2.m1_bar - m1.m1_bar) / var - (m2.p0 - m1.p0) / spread)
    return EstimationResult(
        tau_hat=tau,
        method=Method.STRUBI_REFERENCE,
        diagnostics={"port_probabilities": (m1.p0, m2.p0),
                     "variance": var, "spread": spread},
    )


def wva_first_order(record: MeasurementRecord, phi: float) -> EstimationResult:
    """Unbalanced-regime first-order estimate from normalized moments.

    tau = (phi/2) (<w>_1^bar - <w>_2^bar)
          / (<w^2>_1^bar + <w^2>_2^bar - 2 w0 <w>_2^bar)

    with w0 the bright-port mean <w>_1^bar, which approximates the source
    mean when the postselection is strongly unbalanced.
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
    w0 = m1.m1_bar
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
