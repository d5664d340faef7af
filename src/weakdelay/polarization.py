"""Polarization states and weak values for postselected delay measurement.

Conventions
-----------
The two-level system is photon polarization in the {|H>, |V>} basis and the
measured operator is sigma_z = |H><H| - |V><V|.  The preselected state is
(|H> + |V>)/sqrt(2).  Postselection is a polarizing splitter rotated by
gamma = pi/4 - phi/2 relative to the preselection axis, optionally preceded
by a quarter-wave plate at 45 degrees:

* ideal QWP       -> port weak values (i tan(phi/2), -i cot(phi/2))
* dispersive QWP  -> the plate retardance is exact only at the design
  frequency omega_0 = (pi/4)/tau_0, so the weak values pick up a frequency
  dependent phase exp(2i omega tau_0) and a real prefactor set by gamma
* no QWP          -> purely real weak values (no imaginary amplification)

All functions are pure; arrays broadcast over omega where noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularWeakValueError

#: Tolerance below which a postselection state is treated as orthogonal to
#: the preselection (weak value diverges).
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class PolarizationState:
    """Jones vector (h, v) for the {|H>, |V>} basis, normalized to 1."""

    h: complex
    v: complex

    def __post_init__(self):
        norm = abs(self.h) ** 2 + abs(self.v) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"polarization state not normalized: |h|^2+|v|^2 = {norm!r}")

    def inner(self, other: "PolarizationState") -> complex:
        """<self|other>."""
        return np.conj(self.h) * other.h + np.conj(self.v) * other.v


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


def ideal_weak_values(phi: float) -> WeakValuePair:
    """Port weak values (i tan(phi/2), -i cot(phi/2)) for an ideal analyzer.

    phi parametrizes the postselection offset; phi -> 0 sends port 2 toward
    orthogonality with the preselection and phi -> pi does the same for
    port 1, so both limits are rejected.
    """
    if not 0.0 < phi < np.pi:
        raise SingularWeakValueError(
            f"phi = {phi!r} outside (0, pi): postselection degenerate or weak value singular"
        )
    half = 0.5 * phi
    return WeakValuePair(aw1=1j * np.tan(half), aw2=-1j / np.tan(half))


def qwp_jones_matrix(omega: float, tau0: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with retardance time tau0.

    Returns [[cos(w t0), -i sin(w t0)], [-i sin(w t0), cos(w t0)]]; unitary
    for all arguments.  The plate acts as an exact quarter-wave plate at the
    design frequency where omega * tau0 = pi/4.
    """
    if not omega > 0:
        raise DomainError("omega must be positive")
    if not tau0 > 0:
        raise DomainError("tau0 must be positive")
    x = omega * tau0
    c, s = np.cos(x), np.sin(x)
    return np.array([[c, -1j * s], [-1j * s, c]])


def dispersive_weak_values(gamma: float, omega, tau0: float) -> WeakValuePair:
    """Weak values behind a fixed-retardance QWP followed by a splitter at gamma.

    aw1 = [(cos g - sin g)/(cos g + sin g)] exp(2i w tau0)
    aw2 = [(cos g + sin g)/(sin g - cos g)] exp(2i w tau0)

    omega may be an array; the moduli are frequency independent.  gamma lies
    in (-pi/2, pi/2) (phi > pi/2 gives gamma < 0); gamma near pi/4 makes
    port 2 orthogonal to the preselection and is rejected.  tau0 = 0 is the
    plate-free limit: the phase is 1 and the weak values are real scalars.
    """
    if not -np.pi / 2 < gamma < np.pi / 2:
        raise DomainError(f"gamma = {gamma!r} outside (-pi/2, pi/2)")
    if np.any(np.asarray(omega) <= 0):
        raise DomainError("omega must be positive")
    cg, sg = np.cos(gamma), np.sin(gamma)
    if abs(cg - sg) < _SINGULAR_TOL:
        raise SingularWeakValueError(
            "gamma = pi/4: port-2 postselection orthogonal to preselection"
        )
    phase = np.exp(2j * np.asarray(omega, dtype=float) * tau0) if tau0 else 1.0
    aw1 = (cg - sg) / (cg + sg) * phase
    aw2 = (cg + sg) / (sg - cg) * phase
    if np.ndim(aw1) == 0:
        return WeakValuePair(aw1=complex(aw1), aw2=complex(aw2))
    return WeakValuePair(aw1=aw1, aw2=aw2)


def postselection_state(gamma: float, port: int) -> PolarizationState:
    """Linear polarizer state of the given output port at splitter angle gamma.

    Port 1 is cos(g)|H> + sin(g)|V>, port 2 is sin(g)|H> - cos(g)|V>; the
    two are orthogonal for every gamma.
    """
    if not 0.0 <= gamma <= np.pi / 2:
        raise DomainError(f"gamma = {gamma!r} outside [0, pi/2]")
    if port == 1:
        return PolarizationState(h=complex(np.cos(gamma)), v=complex(np.sin(gamma)))
    if port == 2:
        return PolarizationState(h=complex(np.sin(gamma)), v=complex(-np.cos(gamma)))
    raise DomainError(f"port must be 1 or 2, got {port!r}")


def port_projections(phi: float, omega, qwp: QwpModel):
    """Per-port weak values and postselection overlaps for a full analyzer.

    Returns (weak_values, overlap_sq_1, overlap_sq_2) where overlap_sq_j is
    |<postselection_j|preselection>|^2.  For the dispersive variant the weak
    values are arrays over omega; the overlaps are frequency independent
    because the plate only dephases the projection.
    """
    if qwp.variant == "ideal":
        return ideal_weak_values(phi), np.cos(phi / 2) ** 2, np.sin(phi / 2) ** 2
    # "absent" is the tau0 -> 0 limit of the dispersive analyzer
    gamma = np.pi / 4 - phi / 2
    tau0 = qwp.tau0 if qwp.variant == "dispersive" else 0.0
    cg, sg = np.cos(gamma), np.sin(gamma)
    return (dispersive_weak_values(gamma, omega, tau0),
            (cg + sg) ** 2 / 2.0, (sg - cg) ** 2 / 2.0)
