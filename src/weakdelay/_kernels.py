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

    zeta  = floor + h^2 cos^2(g w),
    zeta' = 2 h (v - u t) cos^2(g w)        (d/dx at x = g w),

the slope only for derivative order 1: the likelihood and the profile ask
for order 0, the score for order 1.

The tangent's argument reduction is as exact as the cosine's, and even at
the double nearest an odd multiple of pi/2, t^2 is far below overflow;
both values stay within a few eps (floor + u^2 + v^2) of exact.

Null rule: a counted bin whose zeta is at or below ``null`` =
(32 eps)^2 (u^2 + v^2), the square of a generous bound on the roundoff of
the phase sum u cos(g w) + v sin(g w), is a model zero: the likelihood
reads -inf there and the score is undefined.

Prepared record: :func:`prepare` keeps the bins of both ports whose
weight Q exceeds eps sum Q / (2 bins), stacked as one set of columns (port
1 first): w, Q, Q w, the bin's weak value and its zeta terms.  The bins
left out weigh at most eps sum Q together, so their terms add at most eps
sum Q max |log zeta| to the likelihood, the order of the rounding of the
sum itself.  On a count record they are exactly the bins without counts;
on a noise-free record, the far spectral tail (weights down to 3e-60),
whose nulls would make the likelihood -inf at delays where its counted
terms are finite, and widen the profile's exact work.  The likelihood
functions of :mod:`weakdelay.estimators` read the columns through
:meth:`Prepared.rows`, in blocks of delays of about ``_CHUNK`` elements.  Each block is evaluated
with ``out=`` ufuncs into one workspace that the call allocates once, so a
block allocates nothing of its size; every row is reduced by the same
pairwise sum whether its delay came alone or in an array.  The dense
profile reads the same columns.

The dense profile evaluates the source-free log-likelihood

    l(g_k) = sum_j sum_i Q_ji * log zeta_j(g_k w_i)

on a uniform g grid, interpolating the columns that are smooth over a
stretch of grid and evaluating the others exactly.  A column's zeta =
floor + (u^2 + v^2) cos^2(x - delta), delta = atan2(v, u), vanishes at
the complex phases

    x = delta + pi/2 + k pi +- i asinh(sqrt(floor / (u^2 + v^2))),

and log zeta is analytic everywhere else.  With a range of grid points
mapped onto [-1, 1], a column is analytic inside the Bernstein ellipse
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
records of all three analyzers agree to 1.5e-14 sum q, chop and nested
sampling included, and 24 seeded windows of 1e3 to 1e6 points to 2e-15.)
The degree rule m = max(``_MIN_NODES``, ceil(``_DIGITS`` / log10 rho)) =
max(8, ceil(40 / log10 rho)) makes rho^(-m/2) <= 1e-20, and rho >= 2
keeps m <= 133.  S is sampled with :func:`zeta` through
:meth:`Prepared.rows`, and its coefficients are sums against exact
cosines cos(k theta_i) (a three-term recurrence for T_k loses ~k^2 eps),
taken from one table of the distinct angles.

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
(second form, shared by every block of the range) maps them onto the
block's grid points in one matrix product.  This re-evaluates p_kept, it
does not approximate it further, and the barycentric formula at Chebyshev
points is forward stable (Higham, IMA J. Numer. Anal. 24, 547 (2004);
Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).  A range of no more grid
points than nodes is evaluated exactly, which is cheaper.

The rest, the singular columns, stay with the range while it is halved:
a range that still has singular columns and more than ``_LEAF`` = 1024
points is split in two, and each half interpolates the columns that are
smooth on it (a column's rho only grows on a subrange).  So exact work
stays on the stretch of grid around each column's null: none on a
balanced record over [0, 2 tau], about 0.1-1% of the grid points x
columns on an unbalanced one whose range holds the dark port's nulls.

The exact columns of each final range are evaluated by :func:`zeta`
through :meth:`Prepared.rows`, like every other likelihood, with the
floor term raised to ``_Z_FLOOR``: every zeta stays at or above it, so a
grid point on a likelihood singularity reads finite and far below its
neighbours, never as -inf or as the largest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Floor for the profile's model probability before the log.
_Z_FLOOR = 1e-300

#: Machine epsilon of a double, 2^-52.
_EPS = np.finfo(float).eps

#: Model-zero bound per unit r: (32 eps)^2 (u^2 + v^2) = (32 eps)^2 2 r.
_NULL = 2.0 * (32.0 * _EPS) ** 2

#: Bernstein ellipse parameter rho from which a profile column is interpolated.
_RHO_MIN = 2.0

#: Grid points up to which a profile range with singular columns is not split.
#: Smaller leaves evaluate fewer elements exactly but interpolate more ranges
#: of small rho.  On the 12 records of the benchmark's `profile` workload at
#: seed 1, 1e5 points each, 2048 / 1024 / 512 evaluate 5.0 / 2.2 / 1.0M
#: elements exactly and sample 1.50 / 1.64 / 1.77M; the 24 records of seeds
#: 1 and 2 took 315 / 285 / 296 ms of CPU time, 294 with 768 (medians of 25
#: interleaved rounds, one thread, 2-core Xeon, NumPy 2.4.6).
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
#: coefficients) but build a larger barycentric matrix (_BLOCK kept^2 / 2
#: elements).  On the 24 records of the benchmark's `profile` workload at
#: seeds 1 and 2, 1e5 points each, the 12 balanced took 40.5 / 36.0 / 34.6
#: ms and the 12 unbalanced 232 / 224 / 225 ms with 4 / 8 / 16 (medians of
#: 25 interleaved rounds, one thread, 2-core Xeon, NumPy 2.4.6); a second
#: set read 248 / 260 ms unbalanced with 8 / 16.
_BLOCK = 8

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


def zeta(x, terms: ZetaTerms, order: int, out=None):
    """Reshaping factor at phase x = g w and, for ``order`` 1, its slope d zeta / dx.

    Tangent form: with t = tan x, h = u + v t and cos^2 x = 1/(1 + t^2),
    zeta = floor + h^2 cos^2 x and zeta' = 2 h (v - u t) cos^2 x.  Returns
    the tuple (zeta,) for order 0 and (zeta, zeta') for order 1.  ``out``,
    a sequence of at least order + 1 float arrays of the result's shape,
    takes the results without allocating; x, of the same shape, is then
    overwritten as scratch.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(x), np.shape(terms.u))
        x = np.array(np.broadcast_to(x, shape), dtype=float)
        out = [np.empty(shape) for _ in range(order + 1)]
    z = out[0]
    t = np.tan(x, out=out[1] if order else x)
    cos2 = np.square(t, out=z)
    cos2 += 1.0
    np.reciprocal(cos2, out=cos2)
    h = np.multiply(t, terms.v, out=x)
    h += terms.u
    if order:
        slope = np.multiply(t, terms.u, out=t)
        np.subtract(terms.v, slope, out=slope)
        slope *= h
        slope *= 2.0
        slope *= cos2
    np.square(h, out=h)
    np.multiply(h, cos2, out=z)
    z += terms.floor
    return tuple(out[:order + 1])


class Prepared(NamedTuple):
    """Counted bins of both ports as columns: w, q, q w, weak value, zeta terms."""

    omega: np.ndarray
    q: np.ndarray
    qw: np.ndarray
    aw: np.ndarray
    terms: ZetaTerms

    @np.errstate(divide="ignore", invalid="ignore")
    def rows(self, g, row_values) -> float | np.ndarray:
        """row_values(x, work, self) per block of delays of g; a float for scalar g.

        x is the block's phase g w (delays x columns) and work two float
        arrays and a bool array of its shape: one workspace, allocated once
        per call, that row_values may overwrite.
        """
        g = np.asarray(g, dtype=float)
        gs = g.reshape(-1)
        n = self.omega.size
        step = max(1, min(gs.size, _CHUNK // max(n, 1)))
        x, z, slope = np.empty((3, step, n))
        mask = np.empty((step, n), dtype=bool)
        out = np.empty(gs.size)
        for lo in range(0, gs.size, step):
            m = min(step, gs.size - lo)
            np.multiply(gs[lo:lo + m, None], self.omega, out=x[:m])
            out[lo:lo + m] = row_values(x[:m], (z[:m], slope[:m], mask[:m]), self)
        return out if g.ndim else float(out[0])


def prepare(omega, q1, q2, aw1, aw2) -> Prepared:
    """Stack the counted bins of both ports; the one place they are masked.

    A bin is counted when its weight exceeds eps sum(q) / q.size over both
    ports, so the bins left out weigh at most eps sum(q) together.  On the
    default 2101-bin grid every nonzero bin of a count record of fewer
    than ~1.9e19 events is counted.
    """
    omega = np.asarray(omega, dtype=float)
    q = np.concatenate([q1, q2]).astype(float)
    aw = np.concatenate([np.broadcast_to(a, omega.shape) for a in (aw1, aw2)])
    live = q > _EPS * q.sum() / q.size
    w, q, aw = np.tile(omega, 2)[live], q[live], aw[live]
    return Prepared(w, q, q * w, aw, zeta_terms(aw))


def profile(g0: float, dg: float, n_g: int, omega, q1, q2, aw1, aw2) -> np.ndarray:
    """Source-free log-likelihood on the uniform grid g0 + k*dg, k < n_g."""
    prepared = prepare(omega, q1, q2, aw1, aw2)
    out = np.zeros(int(n_g))
    _bisect(0, out.size, prepared, _nulls(prepared.terms), float(g0), float(dg), out)
    return out


def _take(p: Prepared, keep) -> Prepared:
    """The columns ``keep`` (a mask or indices) of a prepared record."""
    return Prepared(p.omega[keep], p.q[keep], p.qw[keep], p.aw[keep],
                    ZetaTerms(*(t[keep] for t in p.terms)))


def _nulls(terms: ZetaTerms) -> np.ndarray:
    """Per column: the real phase delta + pi/2 of its zeta zeros and their
    imaginary offset asinh(sqrt(floor / (u^2 + v^2)))."""
    with np.errstate(divide="ignore"):
        offset = np.arcsinh(np.sqrt(terms.floor / (terms.u ** 2 + terms.v ** 2)))
    return np.stack([np.arctan2(terms.v, terms.u) + 0.5 * np.pi, offset])


def _bernstein(lo: int, hi: int, g0: float, dg: float, omega, nulls) -> np.ndarray:
    """Per column: rho of the smallest Bernstein ellipse of the grid range
    [lo, hi) that reaches a zeta zero.

    The zeros of a column lie pi/w apart on one line of constant imaginary
    part, and rho grows along such a line with the distance from the
    range's centre, so the zero whose real part is nearest the centre
    decides.
    """
    centre, half = 0.5 * (lo + hi - 1), 0.5 * (hi - 1 - lo)
    phase, offset = nulls
    d = np.remainder(phase - (g0 + centre * dg) * omega + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (d + 1j * offset) / (half * abs(dg) * omega)
        root = np.sqrt(t * t - 1.0)
        return np.fmax(np.abs(t + root), np.abs(t - root))


def _bisect(lo: int, hi: int, p: Prepared, nulls, g0: float, dg: float,
            out: np.ndarray) -> None:
    """Add the columns of ``p`` to the grid range [lo, hi) of the output.

    Columns whose rho reaches ``_RHO_MIN`` are interpolated; the rest are
    split with the range while it holds more than ``_LEAF`` points, then
    evaluated exactly.
    """
    rho = _bernstein(lo, hi, g0, dg, p.omega, nulls)
    smooth = rho >= _RHO_MIN
    if smooth.any():
        nodes = max(_MIN_NODES, int(np.ceil(_DIGITS / np.log10(rho[smooth].min()))))
        if hi - lo > nodes:
            _interpolate(lo, hi, _take(p, smooth), nodes, g0, dg, out)
            p, nulls = _take(p, ~smooth), nulls[:, ~smooth]
    if not p.q.size:
        return
    if hi - lo > _LEAF:
        mid = (lo + hi) // 2
        _bisect(lo, mid, p, nulls, g0, dg, out)
        _bisect(mid, hi, p, nulls, g0, dg, out)
        return
    _exact(lo, hi, p, g0, dg, out)


def _exact(lo: int, hi: int, p: Prepared, g0: float, dg: float, out: np.ndarray) -> None:
    """Add sum q log zeta over the columns of ``p`` to out[lo:hi], with
    every zeta kept at or above ``_Z_FLOOR``."""
    p = p._replace(terms=p.terms._replace(floor=np.maximum(p.terms.floor, _Z_FLOOR)))
    out[lo:hi] += p.rows(g0 + np.arange(lo, hi) * dg, _log_rows)


def _log_rows(x, work, p) -> np.ndarray:
    z, = zeta(x, p.terms, 0, out=work)
    return np.log(z, out=z) @ p.q


def _interpolate(lo: int, hi: int, p: Prepared, nodes: int, g0: float, dg: float,
                 out: np.ndarray) -> None:
    """Add sum q log zeta over the columns of ``p`` to out[lo:hi] from its
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
    kept terms on the range's grid points, block by block from the values
    at each block's own Chebyshev points.
    """
    centre, half = 0.5 * (lo + hi - 1), 0.5 * (hi - 1 - lo)
    third = -(-nodes // 3)
    cosines = _cosines(3 * third)
    g = g0 + (centre + half * cosines[1:6 * third:2]) * dg
    values = np.empty(3 * third)
    values[1::3] = p.rows(g[1::3], _log_rows)
    coef = _chop(_fit(values[1::3], cosines, 3))
    if coef.size > third - _PLATEAU:
        new = np.arange(3 * third) % 3 != 1
        values[new] = p.rows(g[new], _log_rows)
        coef = _chop(_fit(values, cosines, 1))
    out[lo:hi] += _chebyshev(coef, hi - lo)


def _cosines(m: int) -> np.ndarray:
    """cos(pi a / (2 m)) for a = 0 .. 4 m - 1.

    At the m first-kind Chebyshev points x_i = cos theta_i, theta_i =
    pi (2 i + 1) / (2 m), entry 2 i + 1 is x_i, entry |m - 1 - 2 i|
    is sin theta_i and entry k (2 i + 1) mod 4 m is cos(k theta_i) = T_k(x_i),
    the angle reduced in integers.  Each is taken as sin(pi (m - a) / (2 m)):
    the points are exactly odd in i, and the middle one of an odd m is
    exactly 0.
    """
    return np.sin(np.pi / (2 * m) * (m - np.arange(4 * m)))


def _fit(values: np.ndarray, cosines: np.ndarray, step: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through ``values`` at the
    values.size first-kind points, from ``cosines`` = _cosines(step *
    values.size)."""
    m = values.size
    angle = step * np.outer(np.arange(m), 2 * np.arange(m) + 1) % cosines.size
    coef = cosines[angle] @ values * (2.0 / m)
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


def _chebyshev(coef: np.ndarray, n: int) -> np.ndarray:
    """sum_k coef[k] T_k(t) at the n uniform points t_j = 2 j / (n - 1) - 1.

    With nodes = coef.size (the kept length of a chopped series), the
    points are cut into blocks of width = min(n, ``_BLOCK`` * nodes)
    consecutive points, the last block ending at t = 1 (it rewrites the
    points it shares with the block before it).  On a block the series is
    a polynomial of degree nodes - 1 in the block's own coordinate s_j =
    (j - h) / h, h = (width - 1) / 2, so its values at the first-kind
    Chebyshev points x_i = cos theta_i, theta_i = pi (2 i + 1) / (2 nodes),
    determine it exactly.  :func:`_clenshaw` evaluates the series at each
    block's x_i, and one barycentric matrix W (width x nodes, second form,
    weights (-1)^i sin theta_i), shared by every block, maps those values
    onto the block's points: one matrix product for the whole range.
    """
    nodes = coef.size
    width = min(n, _BLOCK * nodes)
    h, c = 0.5 * (width - 1), 0.5 * (n - 1)
    cosines, odd = _cosines(nodes), 2 * np.arange(nodes) + 1
    x = cosines[odd]
    starts = np.minimum(np.arange(0, n, width), n - width)
    node_values = _clenshaw(coef, ((starts[:, None] + (h - c)) + h * x) / c)
    # the block's points s_j and the nodes are symmetric about 0 in floating
    # point too, so row width - 1 - j of W is row j reversed: only the rows
    # with s_j <= 0 are formed
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
    values = np.empty(n)
    full = n // width
    np.dot(node_values[:full], w.T, out=values[:full * width].reshape(full, width))
    if full < starts.size:
        np.dot(w, node_values[-1], out=values[n - width:])
    return values


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
