"""Maximum-likelihood delay estimators for two-port postselected records.

The measured record holds per-bin counts Q_j(omega) for the two
postselection ports.  Because the port distributions factor as
P_j = |<f_j|i>|^2 P_0(w) zeta_j(w, g), the source spectrum P_0 drops out of
the likelihood equation entirely; every estimator below consumes only the
record (and the assumed postselection parameters), never P_0.

Estimator family, from most to least rigorous:

* ``solve_exact``      - bracketed root of the exact trigonometric score
  d/dg sum Q_j log zeta_j, refined by Newton steps on its curvature.  The
  rationalized small-(g w) form of the score is
  :func:`likelihood_equation_residual`.
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

import functools
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

#: Root tolerance on the bracket width [s] of ``solve_exact``, which also
#: stops once its Newton step lies inside the score's rounding band.  Chosen
#: so that a zero-delay record resolves to zero at the 1e-12/omega0 level.
DEFAULT_TOL = 1e-30

#: The score's rounding band as a share of sum |Q w d log zeta / dx|, the
#: size of the terms it sums: 4 eps.  A score this small reads rounding noise.
_BAND = 4.0 * np.finfo(float).eps

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
    A weight or coefficient that overflows (a large weak value at a high
    order) reads inf or NaN, which its callers reject.
    """

    @np.errstate(over="ignore", invalid="ignore")
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

    @np.errstate(over="ignore", invalid="ignore")
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
        if not (math.isfinite(c0) and math.isfinite(c1)):
            raise DegenerateRecordError("first-order coefficients are not finite")
        if abs(c1) <= 2.0 ** -46 * (abs(a1) + abs(b1)):  # 64 eps
            raise DegenerateRecordError("degenerate record: linear score coefficient vanishes")
        if c0 == 0 and self.weak_values.is_real():
            raise DegenerateRecordError("real weak values: the constant score term vanishes")
        return EstimationResult(tau_hat=float(-c0 / c1), method=Method.FIRST_ORDER).tau_hat


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
    return prepare_likelihood(record, weak_values).rows(g, _kernels.log_likelihood_rows)


def score_residual(g: float | np.ndarray, record: MeasurementRecord,
                   weak_values: WeakValuePair | None = None) -> float | np.ndarray:
    """Exact derivative of the log-likelihood with respect to g.

    Vanishes at the maximum-likelihood delay; positive below it near a
    smooth maximum.  Raises ModelError where a counted bin sits on a model
    zero of its reshaping factor (the likelihood is singular there); a 1-D
    array g gives an array with NaN at such delays.
    """
    out = prepare_likelihood(record, weak_values).rows(g, _kernels.score_rows)
    return _residual(g, out, "likelihood score singular")


def score_curvature(g: float | np.ndarray, record: MeasurementRecord,
                    weak_values: WeakValuePair | None = None) -> tuple:
    """(score, curvature, scale) of the log-likelihood at delay g.

    The score is :func:`score_residual`'s, bit for bit; the curvature is
    its derivative sum Q w^2 d^2 log zeta / dx^2, and the scale sum |Q w
    d log zeta / dx| the size of the terms the score sums, which sets its
    rounding.  All three come from one tangent per bin.  Raises ModelError
    where a counted bin sits on a model zero; a 1-D array g gives three
    arrays, NaN at such delays.
    """
    out = prepare_likelihood(record, weak_values).rows(g, _kernels.score_curvature_rows)
    if isinstance(out, tuple):
        return _residual(g, out[0], "likelihood score singular"), out[1], out[2]
    return tuple(out.T)


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
    no zero nearby; around its null, only the log of its distance to that
    zero, log((w g - x0)^2 + eta^2), is evaluated exactly, and the rest of
    the term is interpolated.  Returns (grid, values), values offset by the
    same g-independent constant as :func:`log_likelihood` and within 1e-10
    times the record's total weight of it (at most 2.0e-14 on 40 seeded
    records and 1.8e-15 on 24 seeded windows, the worst next to the
    real-axis nulls of an ideal plate's bins, where the float64 phase g w
    alone moves a 1e5-photon record's likelihood by about 4e-14 of its
    total weight; 1.5e-16 on 12 unbalanced records over [0, 2 tau] with the
    dark port's nulls inside).  The exact terms keep model probabilities,
    and the kernels' eta^2, at or above 1e-300 before the log, so a grid
    point sitting on a likelihood singularity reads a finite value far
    below its neighbours rather than -inf.  ``n`` must be an integer in [2, :data:`MAX_PROFILE_POINTS`]
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
    and so are real weak values, whose c0 is exactly 0 whatever the delay,
    and coefficients that overflow (|A|^2 w^2 past the float range).  A
    non-finite ratio raises SolverError.
    """
    return _ScoreSeries(record.omega, weak_values, 1).first_order(record.port1.weights,
                                                                  record.port2.weights)


#: The hint window of the candidate ladder, as multiples of the hint.
_HINT_WINDOW = np.linspace(0.2, 5.0, 49)


@functools.lru_cache(maxsize=8)
def _bracket_ladder(lo: float, hi: float) -> np.ndarray:
    """The fixed part of the candidate ladder of a bracket, built once per
    bracket and read-only: zero, log ladders both signs and the ends."""
    top = max(abs(lo), abs(hi))
    ladder = np.logspace(-21, np.log10(top), 61)
    cands = np.concatenate([[0.0], ladder, -ladder])
    cands = np.unique(np.concatenate([cands[(cands >= lo) & (cands <= hi)], [lo, hi]]))
    cands.flags.writeable = False
    return cands


def _candidate_ladder(lo: float, hi: float, hint: float | None) -> np.ndarray:
    """Global localization grid: log ladders both signs, zero, hint window."""
    cands = _bracket_ladder(lo, hi)
    if hint is None or not np.isfinite(hint) or hint == 0.0:
        return cands
    window = hint * _HINT_WINDOW
    return np.union1d(cands, window[(window >= lo) & (window <= hi)])


def _runs(marked: np.ndarray) -> np.ndarray:
    """(first, last) candidate of each maximal run of unmarked ladder intervals."""
    return np.flatnonzero(np.diff(np.concatenate([[True], marked, [True]]))).reshape(-1, 2)


def _rising(cands: np.ndarray, prepared: _kernels.Prepared) -> np.ndarray:
    """Per ladder interval [c_i, c_i+1]: whether it meets a rising band of a
    counted column (:func:`_kernels.rising_bands`).  Columns of gain 0 have
    no slope and are skipped, and so are columns whose bands are not finite,
    whose score is NaN at every delay.

    An interval wider than pi / min w spans more than pi of phase in every
    column, so it is marked outright.  On a run [a, b] of narrower ones,
    column j's bands run from the first whose upper edge passes a w_j to the
    last whose lower edge falls short of b w_j.  Each band marks the
    intervals that meet its edges (p + k pi +- half) / w, found by
    searchsorted, through a bincount of their ends.
    """
    n = cands.size
    phase, half = _kernels.rising_bands(prepared.form)
    live = (prepared.form.gain != 0) & np.isfinite(phase + half)
    if not live.any():
        return np.zeros(n - 1, dtype=bool)
    w, phase, half = prepared.omega[live], phase[live], half[live]
    marked = np.diff(cands) > np.pi / w.min()
    runs = _runs(marked)
    if not runs.size:
        return marked
    a, b = cands[runs].T[:, :, None]
    low = np.floor((a * w - phase - half) / np.pi) + 1.0
    high = np.ceil((b * w - phase + half) / np.pi) - 1.0
    orders = np.arange(max(int((high - low).max()) + 1, 0))
    centre = phase + np.pi * (low[:, None] + orders[:, None])
    # band (L, R) meets the intervals whose right ends are c[s] .. c[t],
    # s = #(c <= L) and t = #(c < R): +1 at s and -1 past t in a running sum
    s = np.searchsorted(cands, ((centre - half) / w).ravel(), "right")
    t = np.searchsorted(cands, ((centre + half) / w).ravel(), "left")
    ends = np.bincount(s, minlength=n + 2) - np.bincount(t + 1, minlength=n + 2)
    return marked | (np.cumsum(ends)[1:n] > 0)


def _ladder_scores(cands: np.ndarray, prepared: _kernels.Prepared):
    """The ladder candidates that end a marked interval or a clean run, and
    their scores, in one call.

    Outside every rising band (:func:`_rising`) each counted term of the
    score falls strictly with g, so a run of clean intervals holds at most
    one root: exactly one when its end scores fall from + to -, an exact
    zero at an end included.  A candidate inside a run is not scored, so
    neighbouring scored candidates span one marked interval or one whole
    clean run, and each descending pair of them holds a descending pair of
    the full ladder.  Returns (candidates, scores).
    """
    marked = np.concatenate([[True], _rising(cands, prepared), [True]])
    points = cands[marked[:-1] | marked[1:]]
    return points, score_residual(points, prepared)


def solve_exact(record: MeasurementRecord, weak_values: WeakValuePair) -> EstimationResult:
    """Maximum-likelihood delay as a bracketed root of the score.

    The residual is scanned over a candidate ladder inside
    ``DEFAULT_BRACKET``, widened tenfold up to three times while no root is
    bracketed.  At a likelihood maximum the score falls through
    zero, while a likelihood singularity jumps the other way (-inf to
    +inf), so every descending sign change between neighbouring scored
    candidates brackets a local maximum.  The scan (:func:`_ladder_scores`)
    scores, in one call, both ends of every interval that meets a counted
    bin's rising band, where its log zeta may curve up, and both ends of
    every clean run between the bands, where the score falls strictly and
    holds at most one root.  The brackets, marked intervals and whole clean
    runs, are refined together by safeguarded Newton steps on the curvature
    (:func:`_newton`, :func:`_refine`), the one that holds the first-order
    hint starting at the hint, and the root with the highest likelihood
    wins.  The counted bins are prepared once per solve; frequency-dependent
    weak values stay inside the bin sums.  Real weak values (an even
    likelihood) give the nonnegative member of the mirror pair, with a
    caveat.

    The diagnostics read the score, its curvature and its scale at the
    root: ``bracket_width`` is the width of the scored pair it was refined
    in (a marked interval or a whole clean run), ``convergence_s`` the
    score's rounding band 4 eps scale / |curvature| in seconds, and
    ``se_s`` the standard error 1 / sqrt(-curvature) of the observed
    information on a count record (None on a noise-free one, whose weights
    are not counts; inf where the curvature is not negative).
    """
    lo, hi = DEFAULT_BRACKET
    prepared = prepare_likelihood(record, weak_values)
    try:
        hint = general_first_order(record, weak_values)
    except ModelError:
        hint = None

    for expansion in range(4):
        if expansion:
            lo, hi = lo * 10.0, hi * 10.0
        points, vals = _ladder_scores(_candidate_ladder(lo, hi, hint), prepared)
        a, b = vals[:-1], vals[1:]
        down = np.flatnonzero(np.isfinite(a) & np.isfinite(b)
                              & (((a > 0) & (b <= 0)) | ((a >= 0) & (b < 0))))
        if down.size:
            break
    if not down.size:
        raise BracketingError("could not bracket a score root inside the search range",
                              lo, hi, float("nan"), float("nan"))

    refined = _refine(prepared, [(points[i], points[i + 1], a[i], b[i]) for i in down], hint)
    best = int(np.argmax(log_likelihood(np.array([r for r, _ in refined]), prepared)))
    (root, iters), width = refined[best], points[down[best] + 1] - points[down[best]]
    caveats = ()
    if weak_values.is_real():
        root = abs(root)
        caveats = (f"real weak values: the delay's sign is not identifiable "
                   f"(mirror pair +-{root:.6g} s)",)
    score, curvature, scale = (float(v[0]) for v in score_curvature(np.array([root]), prepared))
    se = None
    if record.total_events > 0:
        se = 1.0 / math.sqrt(-curvature) if curvature < 0 else math.inf
    mom1, mom2 = record_moments(record)
    return EstimationResult(
        tau_hat=root,
        method=Method.EXACT,
        diagnostics={
            "likelihood_residual": score,  # NaN if singular
            "iterations": iters,
            "bracket_width": width,
            "final_width": DEFAULT_TOL,
            "convergence_s": _BAND * scale / abs(curvature) if curvature else math.inf,
            "se_s": se,
            "candidate_roots": len(refined),
            "port_probabilities": (mom1.p0, mom2.p0),
        },
        warnings=caveats,
    )


def _refine(prepared: _kernels.Prepared, brackets, start=None) -> list:
    """(root, steps) of :func:`_newton` on each bracket (a, b, fa, fb), all
    in lockstep: each round scores the point of every bracket still open in
    one :func:`score_curvature` call.  :meth:`~weakdelay._kernels.Prepared.rows`
    sums each delay's row alike alone or in an array, so every bracket takes
    the steps it takes alone.  A point where the score is singular raises
    ModelError.
    """
    refiners = [_newton(*bracket, DEFAULT_TOL, start) for bracket in brackets]
    results, replies = [None] * len(refiners), [None] * len(refiners)
    while True:
        live, points = [], []
        for i, refiner in enumerate(refiners):
            if results[i] is None:
                try:
                    points.append(refiner.send(replies[i]))
                    live.append(i)
                except StopIteration as done:
                    results[i] = done.value
        if not live:
            return results
        scored = score_curvature(np.array(points), prepared)
        for i, g, (s, c, scale) in zip(live, points, zip(*(v.tolist() for v in scored))):
            replies[i] = _residual(g, s, "likelihood score singular"), c, scale


def _newton(a, b, fa, fb, tol, start=None, max_iter=100):
    """Root of the score between a < b, where fa and fb differ in sign or vanish.

    A generator: it yields each delay it needs scored and is sent back the
    (score, curvature, scale) of :func:`score_curvature` there, so that
    :func:`_refine` can score many brackets in one call; it returns
    (root, steps).  It starts at ``start`` when that lies inside (a, b),
    else at the bracket's false-position point.  Each step reads the score
    s and curvature c, keeps the bracket end on the side of the sign of s,
    and takes the Newton step d = -s / c.  Where c is not negative, the
    step leaves the bracket or it is longer than half the step before it
    (the first: than half the bracket), as it can be where the counted
    bins' rising bands make the score wiggle, it takes the Illinois step
    instead: false position, halving the residual of an end kept twice in a
    row, moved to tol/2 from an end it comes closer to, or the midpoint if
    that still leaves the bracket.

    Stops once the Newton step lies inside the score's rounding band,
    band = 4 eps scale / |c| (``_BAND``), and returns its end point g + d.
    Newton steps shrink quadratically, the next one to about |d|^3 / d'^2
    for the Newton step d' just before d, so it also returns g + d without
    scoring it when that predicted step lies inside the band.  Otherwise it
    stops once b - a <= tol and returns the midpoint.  A bracket end whose
    score is exactly 0 is returned at step 0.
    """
    if fa == 0:
        return a, 0
    if fb == 0:
        return b, 0
    steps, moved = 0, None
    g = start if start is not None and a < start < b else _false_position(a, b, fa, fb, tol)
    prev, newton = b - a, 0.0
    while g is not None and steps < max_iter:
        s, c, scale = yield g
        steps += 1
        if s == 0:
            return g, steps
        if (s > 0) == (fa > 0):
            a, fa = g, s
            if moved == "a":
                fb *= 0.5
            moved = "a"
        else:
            b, fb = g, s
            if moved == "b":
                fa *= 0.5
            moved = "b"
        if b - a <= tol:
            break
        d = -s / c if c < 0 else math.inf
        if a < g + d < b:
            band = _BAND * scale / -c
            if abs(d) <= band or abs(d) ** 3 <= band * newton ** 2:
                return g + d, steps
            if abs(d) <= 0.5 * prev:
                g, prev, newton = g + d, abs(d), abs(d)
                continue
        nxt = _false_position(a, b, fa, fb, tol)
        if nxt is None:
            break
        g, prev, newton = nxt, abs(nxt - g), 0.0
    return 0.5 * (a + b), steps


def _false_position(a, b, fa, fb, tol):
    """The false-position point of [a, b], kept tol/2 inside it, or the
    midpoint if that leaves (a, b); None if (a, b) holds no double."""
    g = min(max(a - fa * (b - a) / (fb - fa), a + 0.5 * tol), b - 0.5 * tol)
    if a < g < b:
        return g
    g = 0.5 * (a + b)
    return g if a < g < b else None


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
