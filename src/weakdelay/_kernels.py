"""Likelihood core: zeta terms, the prepared record, dense profile.

Every reshaping factor zeta = |cos(g w) - i sin(g w) A|^2 in the package is
evaluated from the terms :func:`zeta_terms` derives from the weak value A.
With a = (1 + |A|^2)/2, b = (1 - |A|^2)/2, r = hypot(b, Im A) and
delta = atan2(Im A, b),

    zeta = a + r cos(2 g w - delta)
         = (Re A)^2 / (a + r) + 2 r cos^2(g w - delta/2)
         = floor + (u cos(g w) + v sin(g w))^2,

with floor = (Re A)^2 / (a + r), u = sqrt(2 r) cos(delta/2) and
v = sqrt(2 r) sin(delta/2).  It is a sum of two nonnegative terms, so next
to the null of a strongly amplified port no digits are lost to cancelling
terms of size |A|^2.  u^2 = r + b and v^2 = r - b are formed without
cancellation (their product is (Im A)^2) and without delta itself, so
the phase sum is exact to a few ulps of sqrt(u^2 + v^2) = sqrt(2 r).
The terms depend on the weak value alone: spectra.zeta keeps them scalar
for a frequency-independent analyzer; a prepared record holds one per column.

:func:`zeta` evaluates the last form with one tangent per element instead
of a cosine and a sine: with t = tan(g w) and h = u + v t,
u cos + v sin = h cos(g w) and cos^2(g w) = 1/(1 + t^2), so

    zeta = floor + h^2 cos^2(g w).

The tangent's argument reduction is as exact as the cosine's, and even at
the double nearest an odd multiple of pi/2, t^2 is far below overflow;
the value stays within a few eps (floor + u^2 + v^2) of exact.

The score reads d log zeta / dx from each column's null phase instead of
forming zeta' and zeta and dividing.  With p = atan(-u / v) in
[-pi/2, pi/2], the real phase of the column's nulls (delta + pi/2 up to a
multiple of pi, without its cancellation next to x = 0), top = floor +
u^2 + v^2 (the largest zeta, at least zeta(0) = 1), ratio = floor / top
and S = tan(x - p),

    zeta            = top (ratio + (1 - ratio) sin^2(x - p)),
    d log zeta / dx = gain S / (S^2 + ratio),   gain = 2 (u^2 + v^2) / top,

which is 2 cot(x - p) for floor = 0: one tangent and cheap passes per
element (:func:`_tangent`, which both score row functions call), with the
phase and both factors derived once per prepared record
(:func:`slope_form`), as are the weights gain Q w of the score and gain
Q w^2 of its curvature (:func:`prepare`).  Every term of the denominator
is nonnegative, so the value is as exact as S, whose one extra rounding is
that of the phase x - p: eps |x - p| / 2 and a few eps from p.  Next to
the peak m = p +- pi/2 of a column that rounding is large against the
distance x - m that sets the slope: for an absent plate's real weak value
|A| < 1, m = 0, so it costs eps / |x| of the slope at the small phases of
the solver's roots, where a noise-free record's score is flat enough to
move a root by 4e-7 relative.  So a column whose peak lies nearer x = 0
than its null takes T = tan(x - m) = -1 / S,

    d log zeta / dx = -(gain / ratio) T / (T^2 + 1 / ratio),

the same passes with other factors, unless ratio is at or below
``_SCREEN``: 1 / ratio would overflow for floor = 0, and such a column may
hold a model zero, which the screen below reads from the null form.  A
constant zeta (u = v = 0, an exactly real |A| = 1) has gain 0, so its
slope is 0 at every x.  The slope's derivative, for a Newton step on the
score, follows from dA/dx = 1 + A^2 whichever phase is the reference:

    d^2 log zeta / dx^2 = gain (1 + A^2) (level - A^2) / (A^2 + level)^2

(:func:`score_curvature_rows`).  With |A| below 2^61 (the double nearest an
odd multiple of pi/2 lies at least 4.7e-19 from it) and level at most
2^60, no factor of it overflows.

Null rule: a counted bin whose zeta is at or below ``null`` =
(32 eps)^2 (u^2 + v^2), the square of a generous bound on the roundoff of
the phase sum u cos(g w) + v sin(g w), is a model zero: the likelihood
reads -inf there (:func:`log_likelihood_rows`) and the score is undefined
(:func:`score_rows` reads NaN).  In null-phase variables the rule reads
S^2 + ratio <= (32 eps)^2 (1 - ratio) (1 + S^2), which needs
ratio < (32 eps)^2 and S^2 + ratio < 2 (32 eps)^2.  The score takes its
mask from zeta itself, the likelihood's rule, and only on a block that
holds a denominator at or below ``_SCREEN`` (a peak-referenced column's
is at least 1 / ratio >= 1): a zeta at or below null needs
|sin(x - p)| <= 35 eps, and S is off from that by the rounding of x - p,
so the screen is wide enough up to |x| = 8e6 rad.

Prepared record: :func:`prepare`, the one constructor of :class:`Prepared`,
keeps the bins of both ports whose weight Q exceeds eps sum Q / (2 bins),
stacked as one set of columns (port 1 first): w, Q, the score weight
gain Q w and the curvature weight gain Q w^2, the bin's zeta terms and the
slope form of the score.  The terms and the slope form are
computed once per weak value: when both ports' weak values are scalars
(an ideal or absent plate), once per port and gathered to the columns by
port; for per-bin weak values, once per column.  The profile's recursion
reads only w, q and the zeta terms floor, u and v (:class:`Columns`),
and :func:`_take` slices every field alike.  The bins left out weigh at most
eps sum Q together, so their terms add at most eps sum Q max |log zeta|
to the likelihood, the order of the rounding of the sum itself.  On a
count record they are exactly the bins without counts; on a noise-free
record, the far spectral tail (weights down to 3e-60), whose nulls would
make the likelihood -inf at delays where its counted terms are finite, and
widen the profile's exact work.  The
likelihood functions of :mod:`weakdelay.estimators` hand the row functions
:func:`log_likelihood_rows`, :func:`score_rows` and
:func:`score_curvature_rows` to
:meth:`Prepared.rows`, which evaluates them in blocks of delays of about
``_CHUNK`` elements.  Each block is evaluated with ``out=`` ufuncs into
one workspace that the call allocates once, so a block allocates nothing
of its size; every row is reduced by the same pairwise sum whether its
delay came alone or in an array.  The dense profile reads the same
columns with its own row function, :func:`_log_rows`.

The dense profile evaluates the source-free log-likelihood

    l(g_k) = sum_j sum_i Q_ji * log zeta_j(g_k w_i)

on a uniform g grid, interpolating the columns that are smooth over a
stretch of grid and evaluating the others exactly.  A column's zeta =
top (ratio + (1 - ratio) sin^2(x - p)) vanishes at the complex phases

    x = p + k pi +- i atanh(sqrt(ratio)),

and log zeta is analytic everywhere else.  :func:`_nulls` reads both from
the slope form: p is its phase, or its peak phase plus pi/2, and ratio its
level, or 1 / level for a peak-referenced column.  With a range of grid
points mapped onto [-1, 1], a column is analytic inside the Bernstein ellipse
E_rho (foci +-1, semi-axes (rho +- 1/rho)/2) through its nearest zero.  A
column's zeros lie pi/w apart on a line of constant imaginary part, and
rho grows along that line with the distance from the range's centre, so
the zero whose real part lies nearest the centre sets the column's rho.

Smooth columns, rho >= ``_RHO_MIN`` = 2, are summed as one function S(g)
= sum q log zeta, analytic in E_rho for the smallest rho among them.
Its Chebyshev interpolant p_m at m first-kind points obeys (Trefethen,
Approximation Theory and Approximation Practice, Thm 8.2, taken in
E_sqrt(rho), inside which S is bounded)

    max |S - p_m| <= 4 M rho^(-m/2) / (sqrt(rho) - 1)

on the range, M the largest |S| on E_sqrt(rho): at most sum q times the
largest |log zeta| there, which stays moderate as zeta has no zero in
E_rho.  (Against :func:`weakdelay.estimators.log_likelihood`, 40 seeded
records of all three analyzers agree to 2.0e-14 sum q, chop, nested
sampling and near field included, and 24 seeded windows of 1e3 to 1e6
points to 1.8e-15.  The worst of these sit next to the real-axis nulls of
floor-0 columns, which every bin of an ideal plate has.  There log zeta is
ill-conditioned in the phase: the float64 phase g w alone moves a
1e5-photon record's likelihood by about 4e-14 sum q, whatever evaluates
it, long double included, and the pointwise likelihood's own tangent form
carries a rounding of about eps |x| / |x - x0| relative at a distance
x - x0 from the null.)
The degree rule m = max(``_MIN_NODES``, ceil(``_DIGITS`` / log10 rho)) =
max(8, ceil(40 / log10 rho)) makes rho^(-m/2) <= 1e-20, and rho >= 2
keeps m <= 133.  S is sampled with :func:`zeta` through
:meth:`Prepared.rows`, and its coefficients are sums against exact
cosines cos(k theta_i) (a three-term recurrence for T_k loses ~k^2 eps),
taken from one table of the distinct angles per node count.

The rule for m is an a-priori cap; the coefficients mostly fall to a
rounding plateau of 1e-16 to 1e-17 sum |c_k| well before it.  So the
series is chopped (Aurentz & Trefethen, "Chopping a Chebyshev series",
ACM Trans. Math. Softw. 43, 33 (2017)): the longest trailing run of
coefficients whose sum |c_k| is at most ``_CHOP`` eps sum |c_k| =
32 eps sum |c_k| is dropped, keeping at least one.  As |T_k| <= 1 on the
range, the chopped series p_kept differs from p_m by at most the dropped
sum |c_k| there.  A series that never reaches its plateau is kept whole.

S is also sampled only as far as its series converges, as Chebfun
constructs a function (Battles & Trefethen, SIAM J. Sci. Comput. 25, 1743
(2004)).  With third = ceil(m / 3), S is sampled first at third
first-kind points, and the series through them is accepted when the chop
drops a trailing run of at least ``_PLATEAU`` = 2 coefficients: the
series has reached its plateau, and the coefficients it aliases onto the
kept ones are below it too.  (One dropped coefficient may be an accidental
zero.)  Otherwise S is sampled at the 2 third other points of the 3 third
first-kind set and the series through all of them is fitted and chopped:
3 third >= m keeps the a-priori bound.  First-kind points nest under
tripling, the third points being every third of the 3 third from index 1,
so no point is sampled twice.

The range's grid points are cut into blocks of ``_BLOCK`` = 8 points per
kept coefficient.  On each block p_kept is a polynomial of degree kept - 1
in the block's own coordinate, so its values at the block's kept
first-kind Chebyshev points determine it exactly: Clenshaw's recurrence
evaluates the series at those points only, and one barycentric matrix
(second form, shared by every block of every range that keeps as many
coefficients) maps them onto the block's grid points in one matrix
product.  This re-evaluates p_kept, it
does not approximate it further, and the barycentric formula at Chebyshev
points is forward stable (Higham, IMA J. Numer. Anal. 24, 547 (2004);
Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).  A range of no more grid
points than nodes is evaluated exactly, which is cheaper.  The cosine
table, the fit matrix and the full-width barycentric matrix depend on the
node count alone, so each is built once per process and kept read-only in
a cache of ``_TABLES`` entries; a range of one block narrower than
``_BLOCK`` x nodes points builds its own matrix.

A column that is not smooth on a range has a zero near it.  When only
its nearest null x0 = p + k pi is (the zeros pi beyond it give rho >=
``_RHO_MIN``), the column is split, a singularity subtracted ahead of the
interpolation (Trefethen, Approximation Theory and Approximation Practice,
2013; Boyd, Chebyshev and Fourier Spectral Methods, 2001).  With y = x -
x0 and eta = atanh(sqrt(ratio)), zeta = (u^2 + v^2) (sin^2 y + sinh^2 eta),
whose zeros x0 +- i eta are those of the kernel y^2 + eta^2, so

    log zeta = log(y^2 + eta^2)
             + [log(u^2 + v^2) + log((sin^2 y + sinh^2 eta) / (y^2 + eta^2))].

The bracket, the column's regular part, is analytic out to the zeros pi
away and is sampled into the range's one series with the smooth columns:
one fit, one chop, one evaluation.  Taken as that ratio it keeps its
digits next to x0 too, where zeta's tangent form carries its rounding,
which a Chebyshev point there would spread over the range.  The kernel
goes on as a column of its own with its one zero x0 + i eta: it is
interpolated like any column on the stretches of grid away from x0 and
evaluated exactly only on the final ranges around it, by a subtraction, a
square, an addition and a log per element (:func:`_split_rows`) in place
of zeta's tangent, log and nine other passes.  x0 is the null phase plus k
pi: a zero reduced about the range's centre is off by that reduction's
rounding, about eps pi, which moves the column's null (kernel and regular
part add up to zeta about x0) and left 1.0e-13 sum q on the 40 records
above.  The kernel's offset is eta, where zeta vanishes, not sinh eta:
sin^2 y + sinh^2 eta vanishes at y = +- i eta, and a kernel with zeros at
+- i sinh eta leaves the regular part a pair of singularities (3.5e-7 sum
q on those records).

Columns neither smooth nor split, a zeta column with two zeros near the
range or a kernel whose zero is near, stay with the range while it is
halved: a range that still has such columns and more than ``_LEAF`` =
1024 points is split in two, and each half interpolates or splits the
columns that are smooth on it (a column's rho only grows on a subrange).
So exact work stays on the stretch of grid around each column's null:
none on a balanced record over [0, 2 tau], about 0.1-1% of the grid
points x columns on an unbalanced one whose range holds the dark port's
nulls, and all of it on kernels.  A final range evaluates its zeta
columns (two zeros near, or all of a range of no more points than nodes)
and its kernels in one :meth:`Prepared.rows` call, through the row
function :func:`_split_rows` that samples split ranges, with no split
columns: log zeta by :func:`_log_rows`, the row function that samples the
smooth ones, and the kernels by their log.  Every zeta is kept
at or above ``_Z_FLOOR``, and so is each kernel's eta^2, so a grid point
on a likelihood singularity reads finite and far below its neighbours,
never as -inf or as the largest.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Floor for the profile's model probability before the log.
_Z_FLOOR = 1e-300

#: Machine epsilon of a double, 2^-52.
_EPS = np.finfo(float).eps

#: Model-zero bound per unit r: (32 eps)^2 (u^2 + v^2) = (32 eps)^2 2 r.
_NULL = 2.0 * (32.0 * _EPS) ** 2

#: Score denominator S^2 + ratio at or below which a block is checked for
#: model zeros: |S| up to 2^-30 = 4.2e6 eps, which covers the 35 eps of a
#: zeta at or below null plus the rounding eps |x| / 2 of x - p up to |x| =
#: 8e6 rad, past the widest bracket of the solver (3e3 rad).  Only a column
#: whose ratio exceeds it may take its peak phase, whose denominator is >= 1.
_SCREEN = 2.0 ** -60

#: Bernstein ellipse parameter rho from which a profile column is interpolated.
_RHO_MIN = 2.0

#: Grid points up to which a profile range with columns neither smooth nor
#: split is not split.  Smaller leaves evaluate fewer kernel elements exactly
#: but interpolate more ranges of small rho.  On the 12 records of the
#: benchmark's `profile` workload at seed 1, 1e5 points each, 4096 / 2048 /
#: 1024 / 512 evaluate 11.4 / 5.0 / 2.2 / 1.0M kernel elements exactly and
#: sample 1.21 / 1.35 / 1.49 / 1.61M; the 24 records of seeds 1 and 2 took
#: 1.091 / 0.877 / 0.837 / 0.910 of the time of the full-zeta near field
#: with 1024 (sums of per-record medians of 15 interleaved calls, one
#: thread, 2-core Xeon, NumPy 2.4.6).
_LEAF = 1024

#: Trailing coefficients the chop must drop for a range's first sample, at a
#: third of its a-priori points, to be accepted.  On the 12 seed-1 records
#: above, 1 / 2 / 3 / 4 sample 1.33 / 1.64 / 1.83 / 1.94M elements, against
#: 3.10M at the a-priori counts.
_PLATEAU = 2

#: Chebyshev nodes of an interpolated range: max(_MIN_NODES, ceil(_DIGITS / log10 rho)).
_DIGITS = 40.0
_MIN_NODES = 8

#: Rounding plateau of a fitted series: a trailing run of coefficients with
#: sum |c_k| <= _CHOP eps sum |c_k| is dropped before evaluation.  On the 24
#: records of the benchmark's `profile` workload at seeds 1 and 2 the ranges
#: kept 47 / 34 / 30 / 28% of their sampled coefficients with 16 / 32 / 64 /
#: 128, and the worst profile error on the 40 seeded records of the tests
#: read 1.4 / 0.9 / 2.4 / 5.2e-14 sum q (1.8e-14 unchopped).  The 12
#: unbalanced records took 305 / 278 / 289 / 281 ms (medians of 15
#: interleaved rounds, one thread, 2-core Xeon, NumPy 2.4.6): 16 is slower,
#: the others agree within the noise, and 32 is the most accurate.
_CHOP = 32.0

#: Grid points per kept coefficient in a block of an interpolated range.
#: Wider blocks run the recurrence on fewer points (n / _BLOCK points x
#: coefficients) but keep a larger barycentric matrix per node count
#: (_BLOCK kept^2 elements).  With one matrix built per range, the 24
#: records of the benchmark's `profile` workload at seeds 1 and 2, 1e5
#: points each, took 40.5 / 36.0 / 34.6 ms balanced and 232 / 224 / 225 ms
#: unbalanced with 4 / 8 / 16 (medians of 25 interleaved rounds, one
#: thread, 2-core Xeon, NumPy 2.4.6); a second set read 248 / 260 ms
#: unbalanced with 8 / 16.  With the matrices cached (``_TABLES``), 6
#: alternating 10 s pairs of that workload at seed 5 read record_ms_p90
#: 13.54 [13.47, 13.69] ms with 8 and 13.34 [13.32, 13.50] with 16 (16
#: lower in 4 of 6), 118.2 and 120.9 records/s and a peak RSS of 67.4 and
#: 68.1 MB: 16 does not win p90 outright, and 8 keeps the profile's values.
_BLOCK = 8

#: Entries each cache of the profile's fixed tables holds: the cosine
#: tables, the fit matrices and the full-width barycentric matrices, keyed
#: by node count (a fit matrix also by its step), never by grid size.  The
#: 36 profiles of the benchmark's `profile` workload at seeds 1 to 3 use 61,
#: 45 and 32 keys: 0.1, 0.5 and 2.1 MB.  A barycentric matrix takes 64
#: nodes^2 bytes (nodes <= 135), so the bound caps that cache at 45.3 MB.
_TABLES = 64

#: Elements (delays x columns) evaluated together by :meth:`Prepared.rows`,
#: 256 KiB per workspace array.  The 172-delay ladder of a 4202-column record
#: took 9.5 ns per element with it, against 15.3 with 8192, 10.8 with 16384
#: and 11.0 with 131072 (2-core Xeon, 2 MiB L2 per core, NumPy 2.4.6).
_CHUNK = 32768


class ZetaTerms(NamedTuple):
    """zeta = floor + (u cos x + v sin x)^2 at phase x = g w; model zero at or below null."""

    floor: np.ndarray
    u: np.ndarray
    v: np.ndarray
    null: np.ndarray


def zeta_terms(aw) -> ZetaTerms:
    """Terms of the reshaping factor for weak value(s) ``aw``."""
    aw = np.asarray(aw)
    re, im = np.real(aw), np.imag(aw)
    re2, im2 = re * re, im * im
    half_sq = 0.5 * (re2 + im2)
    b = 0.5 - half_sq
    r = np.hypot(b, im)
    # u^2 = r + b and v^2 = r - b: one is r + |b|, the other r - |b|,
    # formed as (Im A)^2 / (r + |b|) to avoid cancellation
    big = r + np.abs(b)
    small = im2 / np.maximum(big, np.finfo(float).tiny)
    pos = b >= 0
    u2, v2 = np.where(pos, big, small), np.where(pos, small, big)
    return ZetaTerms(re2 / (0.5 + half_sq + r), np.sqrt(u2),
                     np.copysign(np.sqrt(v2), im), _NULL * r)


def zeta(x, terms: ZetaTerms, out=None):
    """Reshaping factor at phase x = g w.

    Tangent form: with t = tan x, h = u + v t and cos^2 x = 1/(1 + t^2),
    zeta = floor + h^2 cos^2 x.  ``out``, a float array of the result's
    shape, takes the result without allocating; x, of the same shape, is
    then overwritten as scratch.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(x), np.shape(terms.u))
        x = np.array(np.broadcast_to(x, shape), dtype=float)
        out = np.empty(shape)
    t = np.tan(x, out=x)
    cos2 = np.square(t, out=out)
    cos2 += 1.0
    np.reciprocal(cos2, out=cos2)
    h = np.multiply(t, terms.v, out=x)
    h += terms.u
    np.square(h, out=h)
    np.multiply(h, cos2, out=out)
    out += terms.floor
    return out


class SlopeForm(NamedTuple):
    """d log zeta / dx = gain A / (A^2 + level) with A = tan(x - phase)."""

    phase: np.ndarray
    level: np.ndarray
    gain: np.ndarray


def slope_form(terms: ZetaTerms) -> SlopeForm:
    """Per column: the reference phase of :func:`_tangent` and its two factors.

    With top = floor + u^2 + v^2 and ratio = floor / top, the reference is
    the null phase p = atan(-u / v), where A = S = tan(x - p), level =
    ratio and gain = 2 (u^2 + v^2) / top, or the peak phase m = atan(v / u)
    = p +- pi/2, where A = T = tan(x - m) = -1 / S, level = 1 / ratio and
    gain = -2 (u^2 + v^2) / floor.  The peak is the reference when it lies
    nearer x = 0 and ratio exceeds ``_SCREEN``; no model zero can lie in
    such a column.  Both phases lie in [-pi/2, pi/2] and are formed by
    arctan2 from a nonnegative second argument, so each is as exact
    relative to itself as the terms.  A constant zeta (u = v = 0, an
    exactly real |A| = 1) has phase 0, level 1 and gain 0: no slope.
    """
    u, v, floor = terms.u, terms.v, terms.floor
    radius2 = u ** 2 + v ** 2
    top = floor + radius2
    # |m| < pi/4 < |p| exactly when |v| < u
    at_peak = (floor > _SCREEN * top) & (np.abs(v) < u)
    phase = np.arctan2(np.where(at_peak, v, -np.copysign(u, v)), np.where(at_peak, u, np.abs(v)))
    scale = np.where(at_peak, floor, top)
    return SlopeForm(phase, np.where(at_peak, top, floor) / scale,
                     np.where(at_peak, -2.0, 2.0) * radius2 / scale)


class Prepared(NamedTuple):
    """Counted bins of both ports as columns: w, q, the score weight gain q w
    and the curvature weight gain q w^2, zeta terms and the score's slope form."""

    omega: np.ndarray
    q: np.ndarray
    score_weight: np.ndarray
    curvature_weight: np.ndarray
    terms: ZetaTerms
    form: SlopeForm

    @np.errstate(divide="ignore", invalid="ignore")
    def rows(self, g, row_values) -> float | tuple | np.ndarray:
        """row_values(x, work, self) per block of delays of g.

        x is the block's phase g w (delays x columns) and work two float
        arrays and a bool array of its shape: one workspace, allocated once
        per call, that row_values may overwrite.  row_values gives one value
        per delay, or a row of values per delay; scalar g gives a float, or
        a tuple of floats.
        """
        g = np.asarray(g, dtype=float)
        gs = g.reshape(-1)
        n = self.omega.size
        step = max(1, min(gs.size, _CHUNK // max(n, 1)))
        x, z, slope = np.empty((3, step, n))
        mask = np.empty((step, n), dtype=bool)
        blocks = []
        for lo in range(0, gs.size, step):
            m = min(step, gs.size - lo)
            np.multiply(gs[lo:lo + m, None], self.omega, out=x[:m])
            blocks.append(row_values(x[:m], (z[:m], slope[:m], mask[:m]), self))
        out = np.concatenate(blocks) if blocks else np.empty(0)
        if g.ndim:
            return out
        return float(out[0]) if out.ndim == 1 else tuple(out[0].tolist())


def prepare(omega, q1, q2, aw1, aw2) -> Prepared:
    """The counted bins of both ports, stacked as columns with the score
    and curvature weights, zeta terms and slope form; the one place a
    record's bins are masked.

    A bin is counted when its weight exceeds eps sum(q) / q.size over both
    ports, so the bins left out weigh at most eps sum(q) together.  On the
    default 2101-bin grid every nonzero bin of a count record of fewer
    than ~1.9e19 events is counted.
    """
    omega = np.asarray(omega, dtype=float)
    q = np.concatenate([q1, q2]).astype(float)
    live = q > _EPS * q.sum() / q.size
    w, q = np.tile(omega, 2)[live], q[live]
    if np.ndim(aw1) == np.ndim(aw2) == 0:
        # one weak value per port: its terms are gathered to the columns
        aw = np.concatenate([np.broadcast_to(a, (1,)) for a in (aw1, aw2)])
        entry = np.repeat([0, 1], omega.size)[live]
    else:
        aw = np.concatenate([np.broadcast_to(a, omega.shape) for a in (aw1, aw2)])[live]
        entry = slice(None)
    terms = zeta_terms(aw)
    form = _take(slope_form(terms), entry)
    score_weight = form.gain * (q * w)
    return Prepared(w, q, score_weight, score_weight * w, _take(terms, entry), form)


class Columns(NamedTuple):
    """What the profile's recursion reads of a prepared record: w, q and
    the zeta terms floor, u and v, which are also its ``terms``."""

    omega: np.ndarray
    q: np.ndarray
    floor: np.ndarray
    u: np.ndarray
    v: np.ndarray

    rows = Prepared.rows
    terms = property(lambda self: self)


def _take(p: tuple, keep) -> tuple:
    """The columns ``keep`` (a mask or indices) of a prepared record, or of
    its zeta terms or slope form: every field is sliced alike."""
    return type(p)(*(_take(f, keep) if isinstance(f, tuple) else f[keep] for f in p))


def _model_zeros(x, z, mask, p: Prepared) -> np.ndarray:
    """zeta into z and, into mask, the counted bins on a model zero; x is overwritten."""
    zeta(x, p.terms, out=z)
    return np.less_equal(z, p.terms.null, out=mask)


def _singular(sums, mask, sentinel) -> np.ndarray:
    """sums with ``sentinel`` at the rows that have a counted bin on a model zero."""
    if mask.any():
        sums[mask.any(axis=1)] = sentinel
    return sums


def log_likelihood_rows(x, work, p: Prepared) -> np.ndarray:
    """sum q log zeta per row of :meth:`Prepared.rows`; -inf on a model zero."""
    z, _, mask = work
    _model_zeros(x, z, mask, p)
    np.log(z, out=z)
    z *= p.q
    return _singular(z.sum(axis=1), mask, -np.inf)


def _tangent(x, work, p: Prepared):
    """A = tan(x - phase) and its denominator den = A^2 + level per element
    (see :func:`slope_form`), into work[0] and work[1], and the mask of the
    counted bins on a model zero, or None when no den is at or below
    ``_SCREEN``.

    Only a block that holds such a den can hold a model zero; its mask is
    taken from zeta itself, the rule of :func:`log_likelihood_rows`, into
    work[2], with x overwritten as scratch.
    """
    a, den, mask = work
    np.subtract(x, p.form.phase, out=a)
    np.tan(a, out=a)
    np.square(a, out=den)
    den += p.form.level
    if den.min() > _SCREEN:
        return a, den, None
    return a, den, _model_zeros(x, np.empty_like(x), mask, p)


def score_rows(x, work, p: Prepared) -> np.ndarray:
    """sum q w d log zeta / dx per row of :meth:`Prepared.rows`, gain A / den
    times q w from each column's null or peak phase (:func:`_tangent`); NaN
    where the likelihood is -inf."""
    a, den, zeros = _tangent(x, work, p)
    a /= den
    a *= p.score_weight
    sums = a.sum(axis=1)
    return sums if zeros is None else _singular(sums, zeros, np.nan)


def score_curvature_rows(x, work, p: Prepared) -> np.ndarray:
    """Per row of :meth:`Prepared.rows`: the score sum q w d log zeta / dx,
    bit for bit that of :func:`score_rows`, the curvature sum q w^2
    d^2 log zeta / dx^2 and the score's scale sum |q w d log zeta / dx|,
    all from the one tangent of :func:`_tangent` per element; NaN rows
    where the likelihood is -inf.

    The curvature term is gain (1 + A^2) (level - A^2) / (A^2 + level)^2
    (module docstring), with A^2 formed on its own so that neither factor
    loses digits to cancellation against level.
    """
    a, den, zeros = _tangent(x, work, p)
    term = np.divide(a, den, out=x)
    term *= p.score_weight
    out = np.empty((x.shape[0], 3))
    out[:, 0] = term.sum(axis=1)
    out[:, 2] = np.abs(term, out=term).sum(axis=1)
    sq = np.square(a, out=a)
    np.subtract(p.form.level, sq, out=term)
    sq += 1.0
    term *= sq
    term /= den
    term /= den
    term *= p.curvature_weight
    out[:, 1] = term.sum(axis=1)
    return out if zeros is None else _singular(out, zeros, np.nan)


def profile(g0: float, dg: float, n_g: int, omega, q1, q2, aw1, aw2) -> np.ndarray:
    """Source-free log-likelihood on the uniform grid g0 + k*dg, k < n_g.

    The nulls are taken from the prepared record's slope form; the
    recursion gets only the :class:`Columns` it reads.
    """
    p = prepare(omega, q1, q2, aw1, aw2)
    nulls = _nulls(p.form)
    columns = Columns(p.omega, p.q, p.terms.floor, p.terms.u, p.terms.v)
    out = np.zeros(int(n_g))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _bisect(0, out.size, columns, nulls, np.arange(p.q.size),
                (np.arange(0), np.empty(0)), float(g0), float(dg), out, np.empty(out.size))
    return out


def _nulls(form: SlopeForm) -> np.ndarray:
    """Per column: the real phase of its zeta zeros and their imaginary
    offset, from its slope form.

    zeta = top (ratio + (1 - ratio) sin^2(x - p)) vanishes at x = p + k pi
    +- i atanh(sqrt(ratio)).  A null-referenced column (level = ratio <= 1)
    has p as its phase; a peak-referenced one (level = 1 / ratio > 1) has
    its peak m = p +- pi/2, so m + pi/2 is a null phase, the nulls being pi
    apart.  So the phase is as exact as the score's, without the
    cancellation of delta + pi/2 next to x = 0.  A floor-0 column (level 0)
    has real zeros, offset 0; a constant zeta (u = v = 0, level 1) has none,
    offset inf.
    """
    phase, ratio = _null_phase(form)
    with np.errstate(divide="ignore"):
        return np.stack([phase, np.arctanh(np.sqrt(ratio))])


def _null_phase(form: SlopeForm) -> tuple[np.ndarray, np.ndarray]:
    """Per column: the real phase p of its zeta zeros and ratio = floor / top."""
    with np.errstate(divide="ignore"):
        ratio = np.minimum(form.level, 1.0 / form.level)
    return np.where(form.level > 1.0, form.phase + 0.5 * np.pi, form.phase), ratio


def rising_bands(form: SlopeForm) -> tuple[np.ndarray, np.ndarray]:
    """Per column: the centre p and half-width of its rising bands
    |x - p - k pi| < half, outside which its log zeta is strictly concave.

    The curvature gain (1 + S^2) (ratio - S^2) / (S^2 + ratio)^2 (module
    docstring) is negative where S^2 = tan^2(x - p) exceeds ratio, so the
    half-width is atan(sqrt(ratio)), which is atan(tanh(offset)) for the
    offset of :func:`_nulls`.  It is widened by 2^-30 rad, the tangent bound
    sqrt(``_SCREEN``), so every model-zero neighbourhood lies inside a band.
    A constant column (gain 0) has no slope, so its bands bound nothing.
    """
    phase, ratio = _null_phase(form)
    return phase, np.arctan(np.sqrt(ratio)) + np.sqrt(_SCREEN)


def _bernstein(d, offset, half) -> np.ndarray:
    """Per column: rho of the smallest Bernstein ellipse of a grid range that
    reaches the zero d + i offset, d its phase from the range's centre and
    ``half`` the range's half-width in phase.

    In the range's coordinate t = (d + i offset) / half the ellipse E_rho
    through t has foci +-1, so its semi-major axis is s = (|t - 1| +
    |t + 1|) / 2 and rho = s + sqrt(s^2 - 1).
    """
    a, b2 = d / half, np.square(offset / half)
    s = np.sqrt(np.square(a - 1.0) + b2)
    s += np.sqrt(np.square(a + 1.0) + b2)
    s *= 0.5
    return s + np.sqrt(s * s - 1.0)


def _bisect(lo: int, hi: int, p: Columns, nulls, zetas, kernels, g0: float, dg: float,
            out: np.ndarray, scratch: np.ndarray) -> None:
    """Add the zeta columns ``zetas`` and the kernel columns ``kernels`` of
    ``p`` to the grid range [lo, hi) of the output.

    ``nulls`` holds the null phase and offset of every column of ``p``
    (:func:`_nulls`); ``kernels`` is the kernel columns and the zero x0 of
    each kernel log((x - x0)^2 + offset^2).  Columns whose rho reaches
    ``_RHO_MIN`` are interpolated.  A zeta column that falls short of it
    only through its nearest null x0 = phase + k pi is split into its
    kernel and its regular part, whose nearest zeros lie pi away: the
    regular part is interpolated, the kernel goes on as a kernel column.
    The other columns are split with the range while it holds more than
    ``_LEAF`` points, then evaluated exactly.  ``scratch``, a float array
    of at least hi - lo elements, takes each interpolated range's values
    before they are added.
    """
    centre = g0 + 0.5 * (lo + hi - 1) * dg
    half = 0.5 * (hi - 1 - lo) * abs(dg)
    # one set of columns, the zeta columns first, each with its zero
    # nearest the centre: a kernel's x0, or a zeta column's null phase plus
    # whole turns of pi (reduced about the centre, it would be off by that
    # reduction's rounding, and split the column about a moved null)
    columns, centres = kernels
    count = zetas.size
    if count:
        phase = nulls[0, zetas]
        turns = np.rint((centre * p.omega[zetas] - phase) / np.pi)
        columns = np.concatenate([zetas, columns])
        centres = np.concatenate([phase + turns * np.pi, centres])
    w, offset = p.omega[columns], nulls[1, columns]
    d = centres - centre * w
    rho = _bernstein(d, offset, half * w)
    smooth = rho >= _RHO_MIN
    rough = np.flatnonzero(~smooth[:count])
    # the rough zeta columns' regular parts: their next zeros lie pi beyond
    regular = np.empty(0)
    if rough.size:
        regular = _bernstein(d[rough] - np.copysign(np.pi, d[rough]), offset[rough],
                             half * w[rough])
    lone = regular >= _RHO_MIN
    rho_min = min(rho.min(initial=np.inf, where=smooth),
                  regular.min(initial=np.inf, where=lone))
    # per-column temporaries, not to be held through the series and halves
    del w, d, rho, regular
    if rho_min < np.inf:
        nodes = max(_MIN_NODES, int(np.ceil(_DIGITS / np.log10(rho_min))))
        if hi - lo > nodes:
            split = rough[lone]
            # sampled: smooth zeta columns, split ones, smooth kernels
            near = np.concatenate([split, count + np.flatnonzero(smooth[count:])])
            sampled = np.concatenate([np.flatnonzero(smooth[:count]), near])
            rows = _log_rows
            if near.size:
                rows = _split_rows(sampled.size - near.size, split.size, centres[near],
                                   offset[near])
            _interpolate(lo, hi, _take(p, columns[sampled]), nodes, g0, dg, out, scratch,
                         rows)
            keep = np.concatenate([split, count + np.flatnonzero(~smooth[count:])])
            zetas, kernels = columns[rough[~lone]], (columns[keep], centres[keep])
    if not (zetas.size or kernels[0].size):
        return
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        _bisect(lo, mid, p, nulls, zetas, kernels, g0, dg, out, scratch)
        _bisect(mid, hi, p, nulls, zetas, kernels, g0, dg, out, scratch)
        return
    out[lo:hi] += _take(p, np.concatenate([zetas, kernels[0]])).rows(
        g0 + np.arange(lo, hi) * dg, _split_rows(zetas.size, 0, kernels[1], nulls[1, kernels[0]]))


def _log_rows(x, work, p) -> np.ndarray:
    """sum q log zeta per row of the profile, every zeta kept at or above
    ``_Z_FLOOR``."""
    z = np.maximum(zeta(x, p.terms, out=work[0]), _Z_FLOOR, out=work[0])
    return np.log(z, out=z) @ p.q


def _split_rows(zetas: int, splits: int, centre, offset):
    """Row function of the profile over three runs of columns: the first
    ``zetas`` take log zeta, kept at or above ``_Z_FLOOR``; the next
    ``splits`` their regular part, log zeta less their kernel; the rest
    their kernel log((x - centre)^2 + offset^2).  ``centre`` and ``offset``
    hold the last two runs' x0 and offset.

    With y = x - x0 and s = floor / (u^2 + v^2) = sinh^2 offset, the
    regular part is log((u^2 + v^2) (sin^2 y + s) / (y^2 + offset^2)): zeta
    in its null form over the kernel, a ratio that keeps its digits next to
    x0, where zeta's tangent form carries a rounding of about eps |x| / |y|
    relative.  s and offset^2 are kept at or above ``_Z_FLOOR``, so a
    kernel on a real null reads finite and the ratio u^2 + v^2 there.
    """
    eta2 = np.maximum(np.square(offset), _Z_FLOOR)

    def rows(x, work, p) -> np.ndarray:
        y = np.subtract(x[:, zetas:], centre, out=work[0][:, zetas:])
        value = np.square(y, out=work[1][:, zetas:])
        value += eta2
        if splits:
            terms = _take(p.terms, slice(zetas, zetas + splits))
            r2 = np.square(terms.u) + np.square(terms.v)
            ratio = np.sin(y[:, :splits], out=y[:, :splits])
            np.square(ratio, out=ratio)
            ratio += np.maximum(terms.floor / r2, _Z_FLOOR)
            ratio *= r2
            np.divide(ratio, value[:, :splits], out=value[:, :splits])
        total = np.log(value, out=value) @ p.q[zetas:]
        if zetas:
            total += _log_rows(x[:, :zetas], (work[1][:, :zetas],), _take(p, slice(zetas)))
        return total

    return rows


def _interpolate(lo: int, hi: int, p: Columns, nodes: int, g0: float, dg: float,
                 out: np.ndarray, scratch: np.ndarray, row_values=_log_rows) -> None:
    """Add the columns of ``p``, as ``row_values`` reads them (sum q log
    zeta with the default :func:`_log_rows`), to out[lo:hi] from their
    Chebyshev interpolant, sampled only as far as its series converges.

    ``nodes`` is the a-priori count m.  With third = ceil(m / 3), the
    columns are sampled at the third first-kind points that are every third
    of the 3 third ones, from index 1, and the series through them is
    fitted and chopped.  If :func:`_chop` drops at least ``_PLATEAU``
    coefficients, the series has reached its rounding plateau and is
    evaluated.  Otherwise the 2 third other points are sampled and the
    series through all 3 third >= m is fitted and chopped: the same fit at
    more points, within the a-priori bound, and no point sampled twice.
    The chop moves no value on the range by more than the dropped sum
    |c_k| <= ``_CHOP`` eps sum |c_k|, and :func:`_chebyshev` evaluates the
    kept terms on the range's grid points into ``scratch``, block by block
    from the values at each block's own Chebyshev points.
    """
    centre, half = 0.5 * (lo + hi - 1), 0.5 * (hi - 1 - lo)
    third = -(-nodes // 3)
    g = g0 + (centre + half * _cosines(3 * third)[1:6 * third:2]) * dg
    values = np.empty(3 * third)
    values[1::3] = p.rows(g[1::3], row_values)
    coef = _chop(_fit(values[1::3], 3))
    if coef.size > third - _PLATEAU:
        new = np.arange(3 * third) % 3 != 1
        values[new] = p.rows(g[new], row_values)
        coef = _chop(_fit(values, 1))
    out[lo:hi] += _chebyshev(coef, hi - lo, scratch)


@functools.lru_cache(maxsize=_TABLES)
def _cosines(m: int) -> np.ndarray:
    """cos(pi a / (2 m)) for a = 0 .. 4 m - 1, read-only.

    At the m first-kind Chebyshev points x_i = cos theta_i, theta_i =
    pi (2 i + 1) / (2 m), entry 2 i + 1 is x_i, entry |m - 1 - 2 i|
    is sin theta_i and entry k (2 i + 1) mod 4 m is cos(k theta_i) = T_k(x_i),
    the angle reduced in integers.  Each is taken as sin(pi (m - a) / (2 m)):
    the points are exactly odd in i, and the middle one of an odd m is
    exactly 0.
    """
    return _frozen(np.sin(np.pi / (2 * m) * (m - np.arange(4 * m))))


@functools.lru_cache(maxsize=_TABLES)
def _fit_matrix(m: int, step: int) -> np.ndarray:
    """cos(k theta_i) at row k, column i, for the m first-kind points, taken
    from _cosines(step * m) at the angle k (2 i + 1) step; read-only."""
    cosines = _cosines(step * m)
    return _frozen(cosines[step * np.outer(np.arange(m), 2 * np.arange(m) + 1) % cosines.size])


def _fit(values: np.ndarray, step: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through ``values`` at the
    values.size first-kind points, from the cosine table of step *
    values.size points (:func:`_fit_matrix`)."""
    m = values.size
    coef = _fit_matrix(m, step) @ values * (2.0 / m)
    coef[0] *= 0.5
    return coef


def _chop(coef: np.ndarray) -> np.ndarray:
    """coef without its longest trailing run whose sum |c_k| is at most
    ``_CHOP`` eps sum |c_k|; at least one coefficient is kept.

    As |T_k| <= 1 on [-1, 1], the chopped series differs from the full one
    by at most the dropped sum |c_k| anywhere on the range.
    """
    # tail[i] = sum |c_k| over the last i + 1 coefficients; nondecreasing,
    # so the coefficients to drop are those of the tail sums within bound
    tail = np.cumsum(np.abs(coef[::-1]))
    drop = np.searchsorted(tail, _CHOP * _EPS * tail[-1], side="right")
    return coef[:max(1, coef.size - drop)]


def _chebyshev(coef: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t) at the n uniform points t_j = 2 j / (n - 1) - 1,
    written into out[:n], which is returned.

    With nodes = coef.size (the kept length of a chopped series), the
    points are cut into blocks of width = min(n, ``_BLOCK`` * nodes)
    consecutive points, the last block ending at t = 1 (it rewrites the
    points it shares with the block before it).  On a block the series is
    a polynomial of degree nodes - 1 in the block's own coordinate s_j =
    (j - h) / h, h = (width - 1) / 2, so its values at the first-kind
    Chebyshev points x_i = cos theta_i, theta_i = pi (2 i + 1) / (2 nodes),
    determine it exactly.  :func:`_clenshaw` evaluates the series at each
    block's x_i, and one barycentric matrix W (:func:`_barycentric`),
    shared by every block, maps those values onto the block's points: one
    matrix product for the whole range.  A full-width W depends on nodes
    alone and is built once per process (:func:`_block_matrix`); a range
    of one block narrower than that builds its own.
    """
    nodes = coef.size
    width = min(n, _BLOCK * nodes)
    h, c = 0.5 * (width - 1), 0.5 * (n - 1)
    x = _cosines(nodes)[1:2 * nodes:2]
    starts = np.minimum(np.arange(0, n, width), n - width)
    node_values = _clenshaw(coef, ((starts[:, None] + (h - c)) + h * x) / c)
    w = _block_matrix(nodes) if width == _BLOCK * nodes else _barycentric(width, nodes)
    values = out[:n]
    full = n // width
    np.dot(node_values[:full], w.T, out=values[:full * width].reshape(full, width))
    if full < starts.size:
        np.dot(w, node_values[-1], out=values[n - width:])
    return values


def _barycentric(width: int, nodes: int) -> np.ndarray:
    """The barycentric matrix W (width x nodes, second form, weights
    (-1)^i sin theta_i) from the values at the nodes first-kind points x_i
    to those at the width uniform points s_j = (j - h) / h, h = (width -
    1) / 2, of [-1, 1]."""
    cosines, odd = _cosines(nodes), 2 * np.arange(nodes) + 1
    x = cosines[odd]
    h = 0.5 * (width - 1)
    # the points s_j and the nodes are symmetric about 0 in floating point
    # too, so row width - 1 - j of W is row j reversed: only the rows with
    # s_j <= 0 are formed
    mid = (width + 1) // 2
    s = (np.arange(mid) - h) / h
    w = np.empty((width, nodes))
    top = np.subtract.outer(s, x, out=w[:mid])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.where(np.arange(nodes) % 2, -1.0, 1.0) * cosines[np.abs(nodes - odd)],
                  top, out=top)
        total = top.sum(axis=1)
        top /= total[:, None]
    # a point on a node (1/0 makes its row sum infinite) takes that node's value
    on_node = np.isinf(total)
    top[on_node] = np.equal.outer(s[on_node], x)
    w[mid:] = top[width - mid - 1::-1, ::-1]
    return w


@functools.lru_cache(maxsize=_TABLES)
def _block_matrix(nodes: int) -> np.ndarray:
    """:func:`_barycentric` at the full block width ``_BLOCK`` nodes; read-only."""
    return _frozen(_barycentric(_BLOCK * nodes, nodes))


def _frozen(table: np.ndarray) -> np.ndarray:
    """``table``, made read-only: a cached table is shared by every caller."""
    table.flags.writeable = False
    return table


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t) by Clenshaw's recurrence; t is overwritten."""
    t2 = 2.0 * t
    b1, b2, tmp = np.zeros((3,) + t.shape)
    for c in coef[:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    t *= b1
    t -= b2
    t += coef[0]
    return t
