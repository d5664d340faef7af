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

Null rule: a counted bin whose zeta is at or below ``null`` =
(32 eps)^2 (u^2 + v^2), the square of a generous bound on the roundoff of
the phase sum u cos(g w) + v sin(g w), is a model zero: the likelihood
reads -inf there and the score is undefined.

Prepared record: bins without counts add exactly nothing to the
likelihood, so :func:`prepare` keeps the bins with Q > 0 of both ports,
stacked as one set of columns (port 1 first): w, Q, the bin's weak value
and its zeta terms.  The likelihood functions of
:mod:`weakdelay.estimators` read the columns through :meth:`Prepared.rows`,
in blocks of delays of about ``_CHUNK`` elements; the dense profile reads
the same columns.

The dense profile evaluates the source-free log-likelihood

    l(g_k) = sum_j sum_i Q_ji * log zeta_j(g_k w_i)

on a uniform g grid.  Along the grid, g_k w_i is an arithmetic progression
per bin, so cos/sin are advanced by angle addition instead of libm calls
per element.  Grid points are taken in blocks of ``_BLOCK``: a per-block
table of cos/sin(k dg w) rotates the block's start phasor to every row,
the start phasor is advanced block to block by the same rotation and
re-anchored with exact trig every ``_ANCHOR`` blocks, so the drift stays
at roundoff.  The log-model block is reduced against Q with a BLAS
mat-vec.  The floor term is raised to ``_Z_FLOOR``, which keeps every zeta
at or above it, so a grid point on a likelihood singularity reads as a
huge negative value, never as -inf or as the largest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Floor for the profile's model probability before the log.
_Z_FLOOR = 1e-300

#: Model-zero bound per unit r: (32 eps)^2 (u^2 + v^2) = (32 eps)^2 2 r.
_NULL = 2.0 * (32.0 * np.finfo(float).eps) ** 2

#: Grid points per block of the profile.
_BLOCK = 32

#: Blocks between exact-trig re-anchors of the profile's block phasor.
_ANCHOR = 16

#: Elements (delays x columns) evaluated together by :meth:`Prepared.rows`,
#: 64 KiB per temporary; blocks twice as large ran 1.5-2x slower per element.
_CHUNK = 8192


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


def zeta(x, terms: ZetaTerms):
    """Reshaping factor and its derivative d zeta / dx at phase x = g w."""
    c, s = np.cos(x), np.sin(x)
    p = terms.u * c + terms.v * s
    return terms.floor + p * p, 2.0 * p * (terms.v * c - terms.u * s)


class Prepared(NamedTuple):
    """Counted bins of both ports as columns: w, q, weak value, zeta terms."""

    omega: np.ndarray
    q: np.ndarray
    aw: np.ndarray
    terms: ZetaTerms

    def rows(self, g, row_values) -> float | np.ndarray:
        """row_values(delays as a column, self) per delay of g; a float for scalar g."""
        gs = np.atleast_1d(np.asarray(g, dtype=float))
        out = np.empty(gs.size)
        step = max(1, _CHUNK // max(self.omega.size, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, gs.size, step):
                out[lo:lo + step] = row_values(gs[lo:lo + step, None], self)
        return out if np.ndim(g) else float(out[0])


def prepare(omega, q1, q2, aw1, aw2) -> Prepared:
    """Stack the counted bins of both ports; the one place they are masked."""
    omega = np.asarray(omega, dtype=float)
    q = np.concatenate([q1, q2]).astype(float)
    aw = np.concatenate([np.broadcast_to(a, omega.shape) for a in (aw1, aw2)])
    live = q > 0
    aw = aw[live]
    return Prepared(np.tile(omega, 2)[live], q[live], aw, zeta_terms(aw))


def profile(g0: float, dg: float, n_g: int, omega, q1, q2, aw1, aw2) -> np.ndarray:
    """Source-free log-likelihood on the uniform grid g0 + k*dg, k < n_g."""
    w, q, _, (floor, u, v, _) = prepare(omega, q1, q2, aw1, aw2)
    g0, dg, n_g = float(g0), float(dg), int(n_g)
    z_min = np.maximum(floor, _Z_FLOOR)
    # zeta = z_min + rc^2 with the phasor (rc, rs) = (u cos x + v sin x,
    # u sin x - v cos x); rows of a block rotate the block's start phasor by
    # the table angle k dg w
    step = dg * w
    table = np.arange(_BLOCK)[:, None] * step
    cos_t, sin_t = np.cos(table), np.sin(table)
    cos_b, sin_b = np.cos(_BLOCK * step), np.sin(_BLOCK * step)
    z = np.empty_like(cos_t)
    tmp = np.empty_like(cos_t)
    out = np.empty(n_g)
    for block, lo in enumerate(range(0, n_g, _BLOCK)):
        if block % _ANCHOR == 0:
            x = (g0 + lo * dg) * w
            c, s = np.cos(x), np.sin(x)
            rc, rs = u * c + v * s, u * s - v * c
        else:
            rc, rs = rc * cos_b - rs * sin_b, rs * cos_b + rc * sin_b
        m = min(_BLOCK, n_g - lo)
        zm, tm = z[:m], tmp[:m]
        np.multiply(cos_t[:m], rc, out=zm)
        np.multiply(sin_t[:m], rs, out=tm)
        np.subtract(zm, tm, out=zm)
        np.square(zm, out=zm)
        np.add(zm, z_min, out=zm)
        np.log(zm, out=zm)
        np.dot(zm, q, out=out[lo:lo + m])
    return out
