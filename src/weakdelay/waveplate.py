"""Compound binary zero-order waveplate geometry.

Two multi-order plates with crossed fast/slow axes nearly cancel each
other's retardance; pivoting the second plate around its optic axis by a
small angle theta leaves a residual delay quadratic in theta.

Geometry: the optic axis lies along Z, the plate surface is the X-Z plane,
the origin sits at the point of incidence.  For a ray exiting at (x, y, z)
the retardance is delta = (2 pi / lambda) (n_e - n_o) C with the effective
path length C = (x^2 + y^2) / sqrt(x^2 + y^2 + z^2).  Tilt is parametrized
by an azimuth angle xi and an elevation angle psi through
x = h tan(xi), z = h tan(psi).

Refraction between the two plates is neglected and the external pivot angle
theta maps to the internal ray angle theta/n (small-angle Snell with the
average index n), which produces the 1/n^2 factor of the tilt-to-delay map

    tau(theta) = +/- (n_e - n_o) (h1 + h2) theta^2 / (2 c n^2).

The sign is + for a pivot in the xi plane (psi = 0) and - for the psi plane.
The map is the retardance excess over the zero-order term divided by the
optical frequency; the 1/lambda of the retardance cancels against the
lambda/c of the phase-to-delay conversion, so wavelength enters only
through the dispersion of the indices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_VACUUM
from .errors import DomainError


def quartz_indices(lambda_m: float) -> tuple[float, float, float]:
    """Crystalline quartz (n_o, n_e, n_avg) from a Sellmeier model.

    Coefficients from G. Ghosh, Opt. Commun. 163, 95-102 (1999), valid
    0.198-2.05 um at 20 C.
    """
    lam_um2 = (np.asarray(lambda_m, dtype=float) * 1e6) ** 2
    if np.any(lam_um2 <= 0.0103) or np.any(lam_um2 >= 100.0):
        raise DomainError("wavelength outside the quartz Sellmeier validity range")
    n_o = np.sqrt(1.28604141
                  + 1.07044083 * lam_um2 / (lam_um2 - 0.0100585997)
                  + 1.10202242 * lam_um2 / (lam_um2 - 100.0))
    n_e = np.sqrt(1.28851804
                  + 1.09509924 * lam_um2 / (lam_um2 - 0.0102101864)
                  + 1.15662475 * lam_um2 / (lam_um2 - 100.0))
    return n_o, n_e, 0.5 * (n_o + n_e)


@dataclass(frozen=True)
class TiltAngles:
    """Azimuth (xi) and elevation (psi) of the internal ray, radians."""

    xi: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        if not (abs(self.xi) < np.pi / 2 and abs(self.psi) < np.pi / 2):
            raise DomainError("tilt angles must satisfy |xi|, |psi| < pi/2")
        if np.sin(self.xi) ** 2 * np.sin(self.psi) ** 2 >= 1.0:
            raise DomainError("degenerate tilt: sin^2(xi) sin^2(psi) >= 1")


@dataclass(frozen=True)
class PlateStack:
    """Two crystalline quartz plates with crossed axes, thicknesses in m."""

    h1: float
    h2: float

    def __post_init__(self):
        if not (self.h1 > 0 and self.h2 > 0):
            raise DomainError("plate thicknesses must be positive")


def default_quartz_stack(lambda0_m: float = 780e-9) -> PlateStack:
    """Multi-order pair whose thickness difference is a half wave at lambda0.

    The thinner plate is 1 mm thick.
    """
    n_o, n_e, _ = quartz_indices(lambda0_m)
    h2 = 1e-3
    return PlateStack(h1=h2 + lambda0_m / (2.0 * (n_e - n_o)), h2=h2)


def effective_path_length(x: float, y: float, z: float) -> float:
    """Effective path C = (x^2 + y^2)/sqrt(x^2 + y^2 + z^2) of an exit point.

    Equivalently L sin^2(eta) with L the geometric path and eta the angle
    between ray and optic axis.  y is the depth reached inside the plate and
    must be positive; the origin is undefined.
    """
    if not y > 0:
        raise DomainError("exit point must have y > 0")
    r2 = x * x + y * y
    norm = np.sqrt(r2 + z * z)
    if norm == 0:
        raise DomainError("effective path length undefined at the origin")
    return r2 / norm


def single_plate_retardance(lambda_m: float, h: float, tilt: TiltAngles) -> float:
    """Retardance of one plate under oblique incidence.

    Built from the exit-point geometry: the ray through a plate of thickness
    h at tilt (xi, psi) exits at (h tan xi, h, h tan psi), giving

        delta = 2 pi (n_e - n_o) h cos(psi) /
                [lambda cos(xi) sqrt(1 - sin^2 xi sin^2 psi)].
    """
    n_o, n_e, _ = quartz_indices(lambda_m)
    if not h > 0:
        raise DomainError("plate thickness must be positive")
    c_path = effective_path_length(h * np.tan(tilt.xi), h, h * np.tan(tilt.psi))
    return 2.0 * np.pi * (n_e - n_o) * c_path / lambda_m


def compound_retardance(lambda_m: float, stack: PlateStack, tilt: TiltAngles) -> float:
    """Net retardance of the crossed pair under oblique incidence.

    The difference of the two single-plate retardances.  The second plate
    sees the tilt with azimuth and elevation exchanged (its frame is rotated
    by 90 degrees and inter-plate refraction is neglected), which gives

    delta = 2 pi (n_e - n_o) (h1 cos psi / cos xi - h2 cos xi / cos psi)
            / (lambda sqrt(1 - sin^2 xi sin^2 psi)).
    """
    swapped = TiltAngles(xi=tilt.psi, psi=tilt.xi)
    return (single_plate_retardance(lambda_m, stack.h1, tilt)
            - single_plate_retardance(lambda_m, stack.h2, swapped))


def pivot_delay(theta: float, stack: PlateStack, lambda_m: float, sign: int = +1) -> float:
    """Time delay induced by pivoting the second plate by theta [rad].

    tau = sign * (n_e - n_o) (h1 + h2) theta^2 / (2 c n^2), with n the
    average index evaluated at lambda_m.  sign = +1 corresponds to a pivot
    in the azimuth plane (psi = 0) and sign = -1 to the elevation plane.
    Equals the oblique-incidence retardance excess divided by the optical
    frequency; wavelength enters only through the index dispersion.
    """
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    if abs(theta) > 0.2:
        warnings.warn(f"pivot angle {theta!r} rad is outside the small-angle regime",
                      stacklevel=2)
    n_o, n_e, n_avg = quartz_indices(lambda_m)
    return sign * (n_e - n_o) * (stack.h1 + stack.h2) * theta ** 2 / (
        2.0 * C_VACUUM * n_avg ** 2)


def theta_for_delay(tau: float, stack: PlateStack, lambda_m: float) -> float:
    """Pivot angle producing the requested delay (inverse of pivot_delay)."""
    if tau < 0:
        raise DomainError("tau must be nonnegative for the + pivot branch")
    n_o, n_e, n_avg = quartz_indices(lambda_m)
    return float(np.sqrt(2.0 * C_VACUUM * n_avg ** 2 * tau /
                         ((n_e - n_o) * (stack.h1 + stack.h2))))
