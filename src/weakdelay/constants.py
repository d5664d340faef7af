"""Physical constants and unit conversions used throughout the package.

Internal units are SI: delays in seconds, angular frequencies in rad/s,
lengths in metres.  The CLI boundary accepts nanometres and femtoseconds.
"""

from __future__ import annotations

import numpy as np

#: Vacuum speed of light [m/s] (CODATA exact value).
C_VACUUM = 2.99792458e8

NM = 1e-9
MM = 1e-3
FS = 1e-15


def wavelength_to_angular_frequency(lambda_nm):
    """Convert vacuum wavelength [nm] to angular frequency [rad/s].

    omega = 2 pi c / lambda.  Accepts scalars or arrays; rejects
    nonpositive wavelengths.
    """
    lam = np.asarray(lambda_nm, dtype=float)
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        from .errors import DomainError
        raise DomainError("wavelength must be positive and finite")
    omega = 2.0 * np.pi * C_VACUUM / (lam * NM)
    return float(omega) if np.isscalar(lambda_nm) else omega

