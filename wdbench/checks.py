"""Computations made apart from weakdelay, used to check its outputs.

Nothing here imports the package.  The likelihood, moments, closed-form
estimators, expected records and shot-noise variance are written out again
from their documented formulas, so an error in the program cannot hide in
the check that is meant to catch it.
"""

from __future__ import annotations

import numpy as np

C_VACUUM = 2.99792458e8

#: Centre frequency of the default 780 nm source [rad/s].
OMEGA0 = 2.0 * np.pi * C_VACUUM / 780e-9

#: Likelihood differences are sums of q log(zeta_a / zeta_b); this absolute
#: slack covers their roundoff on 1e7-photon records (measured below 1e-9).
LL_TOL = 1e-7

#: Step for the local-maximum probe of the MLE [s].  On 1e7-photon records
#: the likelihood drops by about 1e-4 over it at a true maximum.
LOCAL_STEP = 1e-21


def omega_of(grid_nm):
    """Bin-centre angular frequency 2 pi c / lambda [rad/s]."""
    return 2.0 * np.pi * C_VACUUM / (np.asarray(grid_nm, dtype=float) * 1e-9)


def zeta(g, omega, aw):
    """|cos(g w) - i sin(g w) A|^2 written as two nonnegative squares."""
    x = g * omega
    c, s = np.cos(x), np.sin(x)
    return (c + s * np.imag(aw)) ** 2 + (s * np.real(aw)) ** 2


def weak_values(phi, omega, dispersive):
    """Port weak values: (i tan(phi/2), -i cot(phi/2)) for an ideal analyzer.

    Behind a quarter-wave plate of retardance time tau0 = (pi/4)/omega0 the
    splitter angle gamma = pi/4 - phi/2 gives
    ((c - s)/(c + s), (c + s)/(s - c)) exp(2i w tau0), c = cos gamma,
    s = sin gamma.
    """
    if not dispersive:
        return 1j * np.tan(phi / 2), -1j / np.tan(phi / 2)
    gamma = np.pi / 4 - phi / 2
    c, s = np.cos(gamma), np.sin(gamma)
    phase = np.exp(2j * omega * (np.pi / 4) / OMEGA0)
    return (c - s) / (c + s) * phase, (c + s) / (s - c) * phase


def read_csv(path):
    """(grid_nm, counts port 1, counts port 2) parsed without the package."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


class Likelihood:
    """Source-free log-likelihood sum_j sum_i Q_ji log zeta_j(g w_i).

    Only counted bins enter.  ``diff(a, b)`` returns l(a) - l(b) as one sum
    of log ratios, which keeps its digits when the two are close.
    """

    def __init__(self, grid_nm, q1, q2, aw1, aw2):
        omega = omega_of(grid_nm)
        q = np.concatenate([q1, q2])
        aw = np.concatenate([np.broadcast_to(aw1, omega.shape),
                             np.broadcast_to(aw2, omega.shape)])
        live = q > 0
        self.q = q[live]
        self.omega = np.concatenate([omega, omega])[live]
        self.aw = aw[live]

    def at(self, g):
        return float(self.q @ np.log(zeta(g, self.omega, self.aw)))

    def diff(self, a, b):
        za = zeta(a, self.omega, self.aw)
        zb = zeta(b, self.omega, self.aw)
        return float(self.q @ np.log(za / zb))


def mle_violations(like: Likelihood, tau_hat, rivals):
    """Reasons tau_hat is not a likelihood maximum; empty when it is.

    ``rivals`` maps a label to a delay; tau_hat must be at least as likely
    as each finite one, and no less likely than its neighbours at
    +/- ``LOCAL_STEP``.
    """
    out = []
    for label, g in rivals.items():
        if np.isfinite(g):
            d = like.diff(tau_hat, g)
            if d < -LL_TOL:
                out.append(f"l(tau_hat) - l({label}) = {d:.4g}")
    for h in (LOCAL_STEP, -LOCAL_STEP):
        d = like.diff(tau_hat + h, tau_hat)
        if d > LL_TOL:
            out.append(f"l(tau_hat {h:+.0e}) - l(tau_hat) = {d:.4g}: not a local maximum")
    return out


class Moments:
    """Per-port moments against the two-port total, as the estimators use."""

    def __init__(self, grid_nm, q1, q2):
        omega = omega_of(grid_nm)
        tot = q1.sum() + q2.sum()
        self.p = [q1.sum() / tot, q2.sum() / tot]
        self.m1 = [(q1 * omega).sum() / tot, (q2 * omega).sum() / tot]
        self.m2 = [(q1 * omega ** 2).sum() / tot, (q2 * omega ** 2).sum() / tot]
        self.m1_bar = [self.m1[k] / self.p[k] for k in range(2)]
        self.m2_bar = [self.m2[k] / self.p[k] for k in range(2)]
        w = q1 + q2
        mean = (w * omega).sum() / w.sum()
        self.var = (w * omega ** 2).sum() / w.sum() - mean ** 2


def closed_forms(grid_nm, q1, q2, phi):
    """Moment closed-form estimates [s] recomputed from the counts.

    first_order, jwm_simplified (sign -1), strubi_reference,
    wva_first_order (omega0 = bright-port mean) and wva_mean_shift
    (dark-port shift over 2 cot(phi/2) var).
    """
    m = Moments(grid_nm, q1, q2)
    t = np.tan(phi / 2)
    out = {
        "first_order": (np.sin(phi / 2) ** 2 * m.m1[0] - np.cos(phi / 2) ** 2 * m.m1[1])
        / (t * m.m2[0] + m.m2[1] / t),
        "jwm_simplified": -(m.p[0] * m.m1[1] - m.p[1] * m.m1[0]) / m.var,
        "strubi_reference": 0.25 * ((m.m1_bar[1] - m.m1_bar[0]) / m.var
                                    - (m.p[1] - m.p[0]) / np.sqrt(m.var)),
        "wva_first_order": (phi / 2) * (m.m1_bar[0] - m.m1_bar[1])
        / (m.m2_bar[0] + m.m2_bar[1] - 2.0 * m.m1_bar[0] * m.m1_bar[1]),
        "wva_mean_shift": (m.m1_bar[0] - m.m1_bar[1]) / (2.0 / t * m.var),
    }
    return out


def quartic_root(grid_nm, q1, q2, aw1, aw2):
    """Root nearest -e/d of the fourth-order series of the rational score.

    Per bin the score is w N/D with N = Im A + u2 x - u1 x^2 and
    D = 1 + u1 x + u2 x^2 (x = g w, u1 = 2 Im A, u2 = |A|^2 - 1); 1/D is
    expanded by the recurrence r_k = -u1 r_(k-1) - u2 r_(k-2).
    """
    omega = omega_of(grid_nm)
    coef = np.zeros(5)  # g^0 .. g^4
    for q, aw in ((q1, aw1), (q2, aw2)):
        u1, u2 = 2.0 * aw.imag, abs(aw) ** 2 - 1.0
        n = (aw.imag, u2, -u1)
        r = [1.0, -u1]
        for _ in range(3):
            r.append(-u1 * r[-1] - u2 * r[-2])
        for k in range(5):
            pk = float((q * omega ** (k + 1)).sum())
            coef[k] += pk * sum(n[i] * r[k - i] for i in range(min(k, 2) + 1))
    hint = -coef[0] / coef[1]
    scale = abs(hint) if hint else 1e-18
    roots = np.roots((coef * scale ** np.arange(5))[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(np.abs(roots), 1e-300)].real
    return float(real[np.argmin(np.abs(real * scale - hint))] * scale)


def close(a, b, rel=1e-9, abs_s=1e-25):
    """Delays [s] agree to ``rel`` or within ``abs_s``."""
    return abs(a - b) <= max(rel * abs(b), abs_s)


# -- Monte Carlo reference -------------------------------------------------

def source_weights(grid_nm, center_nm=780.0, fwhm_nm=17.6):
    sigma = fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    w = np.exp(-0.5 * ((grid_nm - center_nm) / sigma) ** 2)
    return w / w.sum()


def expected_cells(grid_nm, phi, tau):
    """Cell probabilities (port 1 bins, then port 2) of an ideal analyzer."""
    omega = omega_of(grid_nm)
    p0 = source_weights(grid_nm)
    aw1, aw2 = weak_values(phi, omega, False)
    p1 = np.cos(phi / 2) ** 2 * p0 * zeta(tau, omega, aw1)
    p2 = np.sin(phi / 2) ** 2 * p0 * zeta(tau, omega, aw2)
    p = np.concatenate([p1, p2])
    return p / p.sum()


def first_order_bias_and_sd(grid_nm, phi_actual, phi_assumed, tau, photons):
    """First-order error e on the expected record, and its shot-noise sd.

    The estimate is a ratio sum(n a) / sum(n b) of linear functionals of the
    cell counts, so it depends only on the cell shares.  The delta method
    gives Var = [sum p f^2 - (sum p f)^2] / N with f = (a - t b) / B; this
    holds for multinomial counts and for Poisson counts conditioned on
    their total.
    """
    omega = omega_of(grid_nm)
    p = expected_cells(grid_nm, phi_actual, tau)
    half = phi_assumed / 2
    t = np.tan(half)
    a = np.concatenate([np.sin(half) ** 2 * omega, -np.cos(half) ** 2 * omega])
    b = np.concatenate([t * omega ** 2, omega ** 2 / t])
    big_a, big_b = p @ a, p @ b
    est = big_a / big_b
    f = (a - est * b) / big_b
    var = (p @ (f * f) - (p @ f) ** 2) / photons
    return est - tau, float(np.sqrt(var))


#: SNR slack in units of the Monte Carlo standard error of the mean error.
MC_SIGMAS = 6.0

#: Bias-dominated points (|e| >= BIAS_DOMINANT sd) must lie within this many
#: dB of the bias bound.
BIAS_DOMINANT = 10.0
BIAS_MARGIN_DB = 1.0


def snr_violations(snr_db, tau, e, sd, trials):
    """Reasons an SNR point contradicts the first-order error law.

    MSE >= (mean error)^2 and the mean error lies within MC_SIGMAS sd/sqrt(T)
    of e, so SNR may exceed the bias bound -20 log10(|e|/tau) only by the
    slack that shift allows.  Where |e| >= BIAS_DOMINANT sd the SNR must
    also lie within BIAS_MARGIN_DB of the bound.
    """
    out = []
    bound = -20.0 * np.log10(abs(e) / tau)
    shift = MC_SIGMAS * sd / np.sqrt(trials)
    if shift < abs(e):
        slack = -20.0 * np.log10(1.0 - shift / abs(e))
        if snr_db > bound + slack:
            out.append(f"SNR {snr_db:.3f} dB above bias bound {bound:.3f} + {slack:.3f} dB")
    if abs(e) >= BIAS_DOMINANT * sd and abs(snr_db - bound) > BIAS_MARGIN_DB:
        out.append(f"bias-dominated SNR {snr_db:.3f} dB not within "
                   f"{BIAS_MARGIN_DB} dB of bound {bound:.3f} dB")
    return out
