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
    zeta' = 2 h (v - u t) cos^2(g w)        (d/dx at x = g w).

The tangent's argument reduction is as exact as the cosine's, and even at
the double nearest an odd multiple of pi/2, t^2 is far below overflow;
both values stay within a few eps (floor + u^2 + v^2) of exact.

Null rule: a counted bin whose zeta is at or below ``null`` =
(32 eps)^2 (u^2 + v^2), the square of a generous bound on the roundoff of
the phase sum u cos(g w) + v sin(g w), is a model zero: the likelihood
reads -inf there and the score is undefined.

Prepared record: bins without counts add exactly nothing to the
likelihood, so :func:`prepare` keeps the bins with Q > 0 of both ports,
stacked as one set of columns (port 1 first): w, Q, Q w, the bin's weak
value and its zeta terms.  The likelihood functions of
:mod:`weakdelay.estimators` read the columns through :meth:`Prepared.rows`,
in blocks of delays of about ``_CHUNK`` elements.  Each block is evaluated
with ``out=`` ufuncs into one workspace that the call allocates once, so a
block allocates nothing of its size; every row is reduced by the same
pairwise sum whether its delay came alone or in an array.  The dense
profile reads the same columns.

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

The ``_BLOCK * _ANCHOR`` = 512 grid points from one exact-trig anchor to
the next form an anchor group, the profile's unit of parallel work.
Groups are dealt round robin to min(usable CPUs, groups) workers, the
usable CPUs being the affinity mask where the platform has one, else the
CPU count: the calling thread takes one share and a thread each of the
others, which run in parallel because NumPy releases the GIL inside the
ufuncs and the BLAS mat-vec.  Where threads can be pinned, each worker
runs on its own CPU of the mask (the caller's mask is restored after its
share): unpinned, the two threads of a 2-core VM often stayed stacked on
one CPU, handing the GIL back and forth between the short ufunc calls of
a 1379-column record, and ran no faster than one.  Every group runs the same operations in the
same order whatever the worker count, so the output is bit-identical to
the one-worker run, and a grid of one group starts no thread.  The
cos/sin tables and the prepared columns are shared read-only; each worker
owns a 32 x N z and scratch workspace (512 N bytes, 2.2 MB for the 4202
columns of a noise-free record) and writes only its groups' slices of
the output.  An exception in a worker is raised in the caller.
"""

from __future__ import annotations

import os
import threading
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
    """Reshaping factor and its derivative d zeta / dx at phase x = g w.

    Tangent form: with t = tan x, h = u + v t and cos^2 x = 1/(1 + t^2),
    zeta = floor + h^2 cos^2 x and zeta' = 2 h (v - u t) cos^2 x.
    ``out`` = (zeta, slope), two float arrays of the result's shape, takes
    the results without allocating; x, of the same shape, is then
    overwritten as scratch.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(x), np.shape(terms.u))
        x = np.array(np.broadcast_to(x, shape), dtype=float)
        out = np.empty(shape), np.empty(shape)
    z, slope = out
    t = np.tan(x, out=slope)
    cos2 = np.square(t, out=z)
    cos2 += 1.0
    np.reciprocal(cos2, out=cos2)
    h = np.multiply(t, terms.v, out=x)
    h += terms.u
    np.multiply(t, terms.u, out=slope)
    np.subtract(terms.v, slope, out=slope)
    slope *= h
    slope *= 2.0
    slope *= cos2
    np.square(h, out=h)
    np.multiply(h, cos2, out=z)
    z += terms.floor
    return z, slope


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
    """Stack the counted bins of both ports; the one place they are masked."""
    omega = np.asarray(omega, dtype=float)
    q = np.concatenate([q1, q2]).astype(float)
    aw = np.concatenate([np.broadcast_to(a, omega.shape) for a in (aw1, aw2)])
    live = q > 0
    w, q, aw = np.tile(omega, 2)[live], q[live], aw[live]
    return Prepared(w, q, q * w, aw, zeta_terms(aw))


def profile(g0: float, dg: float, n_g: int, omega, q1, q2, aw1, aw2) -> np.ndarray:
    """Source-free log-likelihood on the uniform grid g0 + k*dg, k < n_g."""
    w, q, _, _, (floor, u, v, _) = prepare(omega, q1, q2, aw1, aw2)
    g0, dg, n_g = float(g0), float(dg), int(n_g)
    # zeta = z_min + rc^2 with the phasor (rc, rs) = (u cos x + v sin x,
    # u sin x - v cos x); rows of a block rotate the block's start phasor by
    # the table angle k dg w
    step = dg * w
    table = np.arange(_BLOCK)[:, None] * step
    cos_t = np.cos(table)
    cols = (w, q, u, v, np.maximum(floor, _Z_FLOOR), cos_t, np.sin(table, out=table),
            np.cos(_BLOCK * step), np.sin(_BLOCK * step))
    out = np.empty(n_g)
    groups = range(0, n_g, _BLOCK * _ANCHOR)
    cpus = _cpus()
    workers = min(len(cpus), len(groups)) or 1
    errors = []

    def work(k):
        try:
            _pinned(cpus[k] if workers > 1 else None, _profile_share,
                    groups[k::workers], g0, dg, cols, out)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def _cpus() -> list:
    """One entry per CPU this process may run on: its number where a thread
    can be pinned to it, else None."""
    if hasattr(os, "sched_setaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None] * (os.cpu_count() or 1)


def _pinned(cpu, fn, *args):
    """fn(*args) with the calling thread pinned to ``cpu`` (None: left as it is)."""
    if cpu is None:
        return fn(*args)
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return fn(*args)
    finally:
        os.sched_setaffinity(0, mask)


def _profile_share(starts, g0: float, dg: float, cols, out: np.ndarray) -> None:
    """Anchor groups of the profile that begin at the grid indices ``starts``."""
    w, q, u, v, z_min, cos_t, sin_t, cos_b, sin_b = cols
    z = np.empty_like(cos_t)
    tmp = np.empty_like(cos_t)
    n_g = out.size
    for start in starts:
        for block, lo in enumerate(range(start, min(start + _BLOCK * _ANCHOR, n_g), _BLOCK)):
            if block == 0:
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
