"""Weak values and postselection overlaps of the three analyzer variants.

Conventions
-----------
The two-level system is photon polarization in the {|H>, |V>} basis and the
measured operator is sigma_z = |H><H| - |V><V|.  The preselected state is
|+> = (|H> + |V>)/sqrt(2).  Postselection is a polarizing splitter rotated by
gamma = pi/4 - phi/2 relative to the preselection axis, optionally preceded
by a quarter-wave plate at 45 degrees.  Every variant follows one law,

    A_w1 = tan(phi/2) e^{i theta},   A_w2 = -cot(phi/2) e^{i theta},

with overlaps |<f_1|i>|^2 = cos^2(phi/2) and |<f_2|i>|^2 = sin^2(phi/2),
and only the phase differs:

* ideal QWP       -> e^{i theta} = i, imaginary weak values
* dispersive QWP  -> e^{i theta} = exp(2i omega tau0), exact only at the
  design frequency omega0 = (pi/4)/tau0
* no QWP          -> e^{i theta} = 1, real weak values

Why a plate contributes exp(2i omega tau0): a plate at 45 degrees with
retardance time tau0 has the Jones matrix cos(omega tau0) - i sin(omega tau0)
sigma_x.  Its eigenstates are |+> and |-> = (|H> - |V>)/sqrt(2), which it
multiplies by exp(-i omega tau0) and exp(+i omega tau0).  The preselection is
|+> and sigma_z|+> = |->, so in A_w = <f|U sigma_z|i>/<f|U|i> the numerator
gains exp(2i omega tau0) over the denominator, while the overlaps
|<f|U|i>|^2 = |<f|+>|^2 do not depend on frequency.  The splitter sets the
modulus: <f_1|->/<f_1|+> = (cos gamma - sin gamma)/(cos gamma + sin gamma)
= tan(phi/2), and port 2 gives -cot(phi/2).

phi -> 0 makes port 2 orthogonal to the preselection and phi -> pi does the
same for port 1, so phi must lie in (0, pi) for every variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularWeakValueError


@dataclass(frozen=True)
class WeakValuePair:
    """Weak values (aw1, aw2) of sigma_z for the two postselection ports.

    Entries are complex scalars for frequency-independent postselection or
    complex arrays over the frequency grid for a dispersive analyzer.
    """

    aw1: complex | np.ndarray
    aw2: complex | np.ndarray

    def is_frequency_dependent(self) -> bool:
        return np.ndim(self.aw1) > 0 or np.ndim(self.aw2) > 0

    def is_real(self) -> bool:
        return not (np.any(np.imag(self.aw1)) or np.any(np.imag(self.aw2)))


@dataclass(frozen=True)
class QwpModel:
    """Analyzer quarter-wave plate model.

    variant: "ideal" (exact quarter-wave at every frequency), "dispersive"
    (fixed retardance time tau0, exact only at omega0 = (pi/4)/tau0), or
    "absent" (no plate, real weak values).
    """

    variant: str = "ideal"
    tau0: float | None = None

    def __post_init__(self):
        if self.variant not in ("ideal", "dispersive", "absent"):
            raise DomainError(f"unknown QWP variant {self.variant!r}")
        if self.variant == "dispersive":
            if self.tau0 is None or not self.tau0 > 0:
                raise DomainError("dispersive QWP requires tau0 > 0")
        elif self.tau0 is not None:
            raise DomainError(f"tau0 is only meaningful for the dispersive variant")


#: Bound on tan^2 x for every double x: the double nearest an odd multiple
#: of pi/2 lies at least 4.7e-19 from it (Muller, Elementary Functions,
#: worst cases of argument reduction), so |tan x| < 2^61.
_TAN2_MAX = 2.0 ** 122


def _weak_values(phi: float, phase) -> WeakValuePair:
    """The analyzer law (tan(phi/2) phase, -cot(phi/2) phase).

    phi must lie in (0, pi), and 2 cot^2(phi/2) ``_TAN2_MAX`` must be
    finite.  The tangent form of zeta (:mod:`weakdelay._kernels`) squares
    v tan(g w), with v^2 up to twice the squared modulus of the weak value
    and |tan| below 2^61; a port's first-order series coefficient, of size
    |A|^2, stays finite too, and so does its product with w^2, w being
    below 2^61 rad/s on any grid down to 1 nm.
    So a phi below about 4.9e-136 rad is singular too.
    """
    if not 0.0 < phi < np.pi:
        raise SingularWeakValueError(
            f"phi = {phi!r} outside (0, pi): postselection degenerate or weak value singular"
        )
    t = np.tan(0.5 * phi)
    with np.errstate(divide="ignore", over="ignore"):
        if not np.isfinite(2.0 * np.square(1.0 / t) * _TAN2_MAX):
            raise SingularWeakValueError(
                f"phi = {phi!r}: the squared weak value cot^2(phi/2) overflows "
                f"against the largest squared tangent of a phase, 2^122")
    return WeakValuePair(aw1=phase * t, aw2=-phase / t)


def ideal_weak_values(phi: float) -> WeakValuePair:
    """Port weak values (i tan(phi/2), -i cot(phi/2)) for an ideal analyzer."""
    return _weak_values(phi, 1j)


def port_projections(phi: float, omega, qwp: QwpModel):
    """Per-port weak values and postselection overlaps for a full analyzer.

    Returns (weak_values, overlap_sq_1, overlap_sq_2) where overlap_sq_j is
    |<postselection_j|preselection>|^2.  For the dispersive variant the weak
    values follow the shape of omega; the overlaps are frequency independent
    because the plate only dephases the projection.
    """
    if qwp.variant == "dispersive":
        phase = np.exp(2j * np.asarray(omega, dtype=float) * qwp.tau0)
    else:
        phase = 1j if qwp.variant == "ideal" else 1 + 0j
    return _weak_values(phi, phase), np.cos(phi / 2) ** 2, np.sin(phi / 2) ** 2
