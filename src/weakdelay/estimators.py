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
  Both read the series from one per-port weight table, ``_ScoreSeries``.
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

import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .errors import (BracketingError, DegenerateRecordError, DomainError,
                     ModelError, SolverError)
from .polarization import QwpModel, WeakValuePair, ideal_weak_values, port_projections
from .spectra import MeasurementRecord, pooled_variance, record_moments

#: Search bracket for the score root [s], widened tenfold up to three times.
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
    """A delay estimate with method identifier, diagnostics and regime caveats."""

    tau_hat: float
    method: Method
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.tau_hat):
            raise SolverError(f"estimator {self.method} produced non-finite tau")


def _require_events(q1: np.ndarray, q2: np.ndarray) -> None:
    """An empty record (no counts or mass in either port) is degenerate."""
    if float(q1.sum()) + float(q2.sum()) <= 0:
        raise DegenerateRecordError("record holds no events")


def _ports(record: MeasurementRecord, weak_values: WeakValuePair):
    """(counts, weak value) of port 1 and of port 2; an empty record is degenerate."""
    q1, q2 = record.port1.weights, record.port2.weights
    _require_events(q1, q2)
    return (q1, weak_values.aw1), (q2, weak_values.aw2)


def _residual(g, out, what: str):
    """Scalar g: ModelError where singular (NaN); array g: NaN marks kept."""
    if isinstance(out, float) and math.isnan(out):
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


class _ScoreSeries:
    """Per-port coefficients c_0..c_order of the rationalized score in powers of g.

    Port j's coefficient of g^k is sum_w Q_j w^(k+1) sum_i n_i r_(k-i), with
    n from :func:`_rational_terms` and 1/D = sum_k r_k x^k: r_0 = 1,
    r_1 = -u1, r_k = -u1 r_(k-1) - u2 r_(k-2).  The weights depend on the
    grid and the weak values only (per bin for dispersive ones), so each
    port's are built once as an (order + 1) x bins matrix; calling the
    table on a record's port counts (q1, q2) is one matrix-vector product
    per port.  Zero-count bins add nothing, so every bin is summed unmasked.
    """

    def __init__(self, omega: np.ndarray, weak_values: WeakValuePair, order: int):
        self.weak_values = weak_values
        powers = omega ** np.arange(1.0, order + 2)[:, None]
        self.weights = []
        for aw in (weak_values.aw1, weak_values.aw2):
            n, (u1, u2) = _rational_terms(aw)
            r = [1.0, -u1]
            while len(r) <= order:
                r.append(-u1 * r[-1] - u2 * r[-2])
            coefs = [sum(n[i] * r[k - i] for i in range(min(k, 2) + 1))
                     for k in range(order + 1)]
            self.weights.append(powers * np.reshape(coefs, (order + 1, -1)))

    def __call__(self, q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _require_events(q1, q2)
        return self.weights[0] @ q1, self.weights[1] @ q2

    def first_order(self, q1: np.ndarray, q2: np.ndarray) -> float:
        """:func:`general_first_order` of the counts (q1, q2): -c0/c1 after its checks.

        Monte Carlo loops use it to estimate sampled counts without
        building a record per trial.
        """
        (a0, a1, *_), (b0, b1, *_) = self(q1, q2)
        c0, c1 = a0 + b0, a1 + b1
        if abs(c1) <= 2.0 ** -46 * (abs(a1) + abs(b1)):  # 64 eps
            raise DegenerateRecordError("degenerate record: linear score coefficient vanishes")
        if c0 == 0 and self.weak_values.is_real():
            raise DegenerateRecordError("real weak values: the constant score term vanishes")
        return EstimationResult(tau_hat=float(-c0 / c1), method=Method.FIRST_ORDER).tau_hat


def _zeta_rows(x, work, p, order):
    """zeta, for order 1 its slope, and the mask of counted bins on a model
    zero; x is overwritten."""
    z, slope, mask = work
    _kernels.zeta(x, p.terms, order, out=work)
    return z, slope, np.less_equal(z, p.terms.null, out=mask)


def _singular(sums, mask, sentinel) -> np.ndarray:
    """sums with ``sentinel`` at the rows that have a counted bin on a model zero."""
    if mask.any():
        sums[mask.any(axis=1)] = sentinel
    return sums


def _log_likelihood_rows(x, work, p) -> np.ndarray:
    z, _, mask = _zeta_rows(x, work, p, 0)
    np.log(z, out=z)
    z *= p.q
    return _singular(z.sum(axis=1), mask, -np.inf)


def _score_rows(x, work, p) -> np.ndarray:
    z, slope, mask = _zeta_rows(x, work, p, 1)
    slope *= p.qw
    slope /= z
    return _singular(slope.sum(axis=1), mask, np.nan)


def log_likelihood(g: float | np.ndarray, record: MeasurementRecord,
                   weak_values: WeakValuePair | None = None) -> float | np.ndarray:
    """Log-likelihood of delay g, up to a g-independent additive constant.

    Only the reshaping factors depend on g, so the source spectrum and the
    postselection overlaps contribute constants and are omitted.  A bin
    counts when its weight exceeds eps sum Q / (2 bins), which a count
    record's every nonzero bin does; the bins left out weigh at most eps
    sum Q together.  A counted bin on a model zero (see
    :mod:`weakdelay._kernels`) yields -inf (sentinel, not an exception).
    A 1-D array g gives an array of log-likelihoods.
    """
    return prepare_likelihood(record, weak_values).rows(g, _log_likelihood_rows)


def score_residual(g: float | np.ndarray, record: MeasurementRecord,
                   weak_values: WeakValuePair | None = None) -> float | np.ndarray:
    """Exact derivative of the log-likelihood with respect to g.

    Vanishes at the maximum-likelihood delay; positive below it near a
    smooth maximum.  Raises ModelError where a counted bin sits on a model
    zero of its reshaping factor (the likelihood is singular there); a 1-D
    array g gives an array with NaN at such delays.
    """
    out = prepare_likelihood(record, weak_values).rows(g, _score_rows)
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
    # a bare residual has no result to carry a caveat, so it warns
    if np.max(np.abs(g)) * prepared.omega.max() > WEAK_REGIME_MAX_GW:
        warnings.warn("rational residual evaluated outside the weak-measurement regime",
                      stacklevel=2)
    (n0, n1, n2), (u1, u2) = _rational_terms(prepared.aw)

    def rows(x, work, p):
        num = n0 + n1 * x + n2 * x * x
        den = 1.0 + u1 * x + u2 * x * x
        return np.where(np.any(den <= 0, axis=1), np.nan,
                        (p.q * p.omega * num / den).sum(axis=1))

    out = prepared.rows(g, rows)
    return _residual(g, out, "rational residual outside validity region")


#: Most grid points of a likelihood profile; a million keep the grid, the
#: values and every per-point work array under 8 MB each.
MAX_PROFILE_POINTS = 1_000_000


def likelihood_profile(record: MeasurementRecord, weak_values: WeakValuePair,
                       g_lo: float, g_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood on a uniform n-point delay grid (diagnostic scan).

    Suitable for dense grids (1e5 points): the profile of
    :mod:`weakdelay._kernels` over counted bins only.  A bin's term is
    interpolated (Chebyshev) on the stretches of grid where its zeta has
    no zero nearby, and evaluated exactly, like :func:`log_likelihood`, on
    the stretch around its null.  Returns (grid, values), values offset
    by the same g-independent constant as :func:`log_likelihood` and
    within 1e-10 times the record's total weight of it (1.5e-14 at most on
    40 seeded records).  The exact terms keep model probabilities at or
    above 1e-300 before the log, so a grid point sitting on a likelihood
    singularity reads a finite value far below its neighbours rather
    than -inf.  ``n`` must be an integer in [2, :data:`MAX_PROFILE_POINTS`]
    and the bounds, the grid step and the largest phase |g| w finite,
    else DomainError.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"profile grid size must be an integer, got {n!r}") from None
    if n < 2:
        raise DomainError("profile needs at least 2 grid points")
    if n > MAX_PROFILE_POINTS:
        raise DomainError(f"{n} profile grid points exceed the cap of {MAX_PROFILE_POINTS}")
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise DomainError(f"profile bounds must be finite, got [{g_lo}, {g_hi}]")
    dg = (g_hi - g_lo) / (n - 1)
    phase = max(abs(g_lo), abs(g_hi)) * float(np.max(record.omega))
    if not (math.isfinite(dg) and math.isfinite(phase)):
        raise DomainError(f"profile grid [{g_lo}, {g_hi}] overflows its step or phase")
    (q1, aw1), (q2, aw2) = _ports(record, weak_values)
    values = _kernels.profile(g_lo, dg, n, record.omega, q1, q2, aw1, aw2)
    return g_lo + dg * np.arange(n), values


def general_first_order(record: MeasurementRecord,
                        weak_values: WeakValuePair) -> float:
    """First-order estimate -c0/c1: the rationalized score truncated at g^1.

    c0 = sum_j Im A_j <w>_j and c1 = sum_j [(|A_j|^2 - 1) - 2 (Im A_j)^2]
    <w^2>_j, with sub-normalized moments; any weak values, frequency
    dependent ones included.  A c1 within roundoff (64 eps) of its two port
    terms, as real weak values give on a zero-delay record, is degenerate,
    and so are real weak values, whose c0 is exactly 0 whatever the delay.
    A non-finite ratio raises SolverError.
    """
    return _ScoreSeries(record.omega, weak_values, 1).first_order(record.port1.weights,
                                                                  record.port2.weights)


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


def solve_exact(record: MeasurementRecord, weak_values: WeakValuePair) -> EstimationResult:
    """Maximum-likelihood delay as a bracketed root of the score.

    The residual is evaluated once over a candidate ladder inside
    ``DEFAULT_BRACKET``, widened tenfold up to three times while no root is
    bracketed.  At a likelihood maximum the score falls through
    zero, while a likelihood singularity jumps the other way (-inf to
    +inf), so every descending sign change between neighbouring candidates
    brackets a local maximum.  Each is refined to width ``DEFAULT_TOL`` by the
    Illinois method, and the root with the highest likelihood wins.  The
    counted bins are prepared once per solve; frequency-dependent weak
    values stay inside the bin sums.  Real weak values (an even likelihood)
    give the nonnegative member of the mirror pair, with a caveat.
    """
    lo, hi = DEFAULT_BRACKET
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
        a, b = vals[:-1], vals[1:]
        down = np.flatnonzero(np.isfinite(a) & np.isfinite(b)
                              & (((a > 0) & (b <= 0)) | ((a >= 0) & (b < 0))))
        if down.size:
            break
    if not down.size:
        raise BracketingError("could not bracket a score root inside the search range",
                              lo, hi, float("nan"), float("nan"))

    refined = [_illinois(res, cands[i], cands[i + 1], a[i], b[i], DEFAULT_TOL)
               for i in down]
    best = int(np.argmax(log_likelihood(np.array([r for r, _ in refined]), prepared)))
    (root, iters), width = refined[best], cands[down[best] + 1] - cands[down[best]]
    caveats = ()
    if weak_values.is_real():
        root = abs(root)
        caveats = (f"real weak values: the delay's sign is not identifiable "
                   f"(mirror pair +-{root:.6g} s)",)
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
        warnings=caveats,
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
    terms of the series of :class:`_ScoreSeries`, so the quartic agrees with
    :func:`likelihood_equation_residual` through g^4 and its ratio -e/d is
    :func:`general_first_order`.  Requires frequency-independent weak
    values.  The root nearest the hint -e/d wins; the polynomial is
    rescaled by |hint| (1e-18 s when the hint is zero or not finite) before
    the companion-matrix eigenvalue solve to keep the wildly mixed
    coefficient units conditioned.

    Real weak values (no analyzer plate) make the score odd in g: e = 0,
    the root 0 is exact and the record cannot tell the sign of the delay,
    so they raise DegenerateRecordError naming the mirror pair +-|tau| of
    the real roots.
    """
    if weak_values.is_frequency_dependent():
        raise DomainError("quartic coefficients need frequency-independent weak values")
    p1, p2 = _ScoreSeries(record.omega, weak_values, 4)(record.port1.weights,
                                                        record.port2.weights)
    e, d, c, b, a = (p1 + p2).tolist()
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
    if weak_values.is_real():
        raise DegenerateRecordError(
            f"real weak values: the delay's sign is not identifiable "
            f"(mirror pair +-{np.max(np.abs(real)):.6g} s)")
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


def _balanced_regime(record: MeasurementRecord, m1, m2) -> tuple[float, tuple[str, ...]]:
    """Pooled variance and balance caveat of a balanced-regime estimate.

    A variance that is not positive is degenerate; port probabilities
    outside [0.3, 0.7] give the caveat.
    """
    var = pooled_variance(record)
    if not var > 0:
        raise DegenerateRecordError("spectral variance must be positive")
    if 0.3 <= m1.p0 <= 0.7 and 0.3 <= m2.p0 <= 0.7:
        return var, ()
    return var, (f"record is not near-balanced (port probabilities "
                 f"{m1.p0:.3f}/{m2.p0:.3f}); balanced-regime estimators degrade",)


def jwm_simplified(record: MeasurementRecord) -> EstimationResult:
    """Balanced-postselection estimate needing no knowledge of phi.

    tau = JWM_SIGN * (P_f1 <w>_2 - P_f2 <w>_1) / variance, with the pooled
    two-port frequency variance as the divisor and sub-normalized first
    moments.
    """
    m1, m2 = record_moments(record)
    var, caveats = _balanced_regime(record, m1, m2)
    tau = JWM_SIGN * (m1.p0 * m2.m1 - m2.p0 * m1.m1) / var
    return EstimationResult(
        tau_hat=tau,
        method=Method.JWM_SIMPLIFIED,
        diagnostics={"port_probabilities": (m1.p0, m2.p0), "variance": var,
                     "sign_constant": JWM_SIGN},
        warnings=caveats,
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
    m1, m2 = _barred_moments(record)
    var, caveats = _balanced_regime(record, m1, m2)
    spread = float(np.sqrt(var))
    tau = 0.25 * ((m2.m1_bar - m1.m1_bar) / var - (m2.p0 - m1.p0) / spread)
    return EstimationResult(
        tau_hat=tau,
        method=Method.STRUBI_REFERENCE,
        diagnostics={"port_probabilities": (m1.p0, m2.p0),
                     "variance": var, "spread": spread},
        warnings=caveats,
    )


def _barred_moments(record: MeasurementRecord):
    """Both ports' moments; an empty port, whose barred moments are NaN, is degenerate."""
    m1, m2 = record_moments(record)
    if m2.p0 == 0:
        raise DegenerateRecordError("empty port 2: barred moments undefined")
    if m1.p0 == 0:
        raise DegenerateRecordError("empty port 1: barred moments undefined")
    return m1, m2


def wva_first_order(record: MeasurementRecord, phi: float) -> EstimationResult:
    """Unbalanced-regime first-order estimate from normalized moments.

    tau = (phi/2) (<w>_1^bar - <w>_2^bar)
          / (<w^2>_1^bar + <w^2>_2^bar - 2 w0 <w>_2^bar)

    with w0 the bright-port mean <w>_1^bar, which approximates the source
    mean when the postselection is strongly unbalanced.
    """
    if not 0.0 < phi < np.pi:
        raise DomainError(f"phi = {phi!r} outside (0, pi)")
    m1, m2 = _barred_moments(record)
    w0 = m1.m1_bar
    den = m1.m2_bar + m2.m2_bar - 2.0 * w0 * m2.m1_bar
    if den == 0:
        raise DegenerateRecordError("degenerate record: zero barred denominator")
    tau = (phi / 2.0) * (m1.m1_bar - m2.m1_bar) / den
    return EstimationResult(
        tau_hat=tau,
        method=Method.WVA_FIRST_ORDER,
        diagnostics={"port_probabilities": (m1.p0, m2.p0), "omega0": w0},
        warnings=(f"phi = {phi:.3f} rad is outside the unbalanced regime",)
        if phi > 0.2 else (),
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


def estimate(method: Method | str, record: MeasurementRecord, phi: float,
             qwp: QwpModel) -> EstimationResult:
    """One method's estimate of the record at assumed offset phi and analyzer ``qwp``.

    Builds the inputs the method reads: the analyzer's weak values on the
    record's grid for ``exact`` and ``quartic``; for ``wva_mean_shift`` the
    barred dark-port mean shift, |Im A_w2| at the pooled mean frequency and
    the pooled variance.  The other methods take phi or the record alone.
    """
    method = Method(method)
    if method in (Method.EXACT, Method.QUARTIC):
        wv, _, _ = port_projections(phi, record.omega, qwp)
        return (solve_exact if method is Method.EXACT else quartic)(record, wv)
    if method is Method.FIRST_ORDER:
        return first_order(record, phi)
    if method is Method.JWM_SIMPLIFIED:
        return jwm_simplified(record)
    if method is Method.STRUBI_REFERENCE:
        return strubi_reference(record)
    if method is Method.WVA_FIRST_ORDER:
        return wva_first_order(record, phi)
    m1, m2 = _barred_moments(record)
    aw2 = port_projections(phi, m1.m1 + m2.m1, qwp)[0].aw2
    return wva_mean_shift(delta_omega=m1.m1_bar - m2.m1_bar, im_aw2=abs(np.imag(aw2)),
                          variance=pooled_variance(record))
