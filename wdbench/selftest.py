"""Quick self-test of the benchmark's own checks (about 10 s).

    python3 wdbench/selftest.py

Exits 0 when every test passes.  The functions are named ``test_*`` so
that ``python3 -m pytest wdbench/selftest.py`` runs them too.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import weakdelay as wd  # noqa: E402

#: What solve_exact returns on the named analyse record (on the null).
NAMED_MISS = 6.210239111889613e-18


def _expect(ok, message):
    if not ok:
        raise AssertionError(message)


def _named_config(seed):
    return wd.ExperimentConfig(phi_actual=0.03, tau_true=6e-18, photons=10_000_000,
                               seed=seed)


def _likelihood(record, phi, dispersive):
    aw1, aw2 = checks.weak_values(phi, record.omega, dispersive)
    return checks.Likelihood(record.grid_nm, record.port1.weights, record.port2.weights,
                             aw1, aw2)


def test_likelihood_matches_log_likelihood_on_noise_free_records():
    phi = np.pi / 2 + 0.071
    for qwp, dispersive in ((wd.QwpModel(), False), (wd.default_dispersive_qwp(), True)):
        record = wd.simulate(wd.ExperimentConfig(phi_actual=phi, tau_true=3e-18,
                                                 photons=0, qwp=qwp))
        wv, _, _ = wd.port_projections(phi, record.omega, qwp)
        like = _likelihood(record, phi, dispersive)
        for a, b in ((3e-18, 0.0), (1e-17, 3e-18), (-2e-18, 5e-18)):
            want = wd.log_likelihood(a, record, wv) - wd.log_likelihood(b, record, wv)
            got = like.diff(a, b)
            _expect(abs(got - want) <= 1e-12, f"{dispersive=} {a=} {b=}: {got!r} vs {want!r}")


def _scan_maximum(like, lo, hi):
    """Likelihood maximum on [lo, hi] by a dense scan and golden sections."""
    grid = np.linspace(lo, hi, 4001)
    k = int(np.argmax([like.at(g) for g in grid]))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    r = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        c, d = b - r * (b - a), a + r * (b - a)
        if like.diff(c, d) > 0:
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def test_mle_check_flags_the_named_record():
    record = wd.simulate(_named_config(0))
    like = _likelihood(record, 0.03, False)
    rivals = {"true delay": 6e-18}
    _expect(checks.mle_violations(like, NAMED_MISS, rivals),
            "the null-point estimate passed the MLE check")
    best = _scan_maximum(like, 5.9e-18, 6.1e-18)
    _expect(abs(best - 5.996e-18) < 1e-21, f"scan maximum at {best!r}")
    _expect(not checks.mle_violations(like, best, rivals),
            f"the scan maximum failed: {checks.mle_violations(like, best, rivals)}")


def test_mle_check_passes_the_neighbours():
    for seed in (1, 2):
        record = wd.simulate(_named_config(seed))
        tau_hat = wd.solve_exact(record, wd.ideal_weak_values(0.03)).tau_hat
        problems = checks.mle_violations(_likelihood(record, 0.03, False), tau_hat,
                                         {"true delay": 6e-18})
        _expect(not problems, f"seed {seed}: {problems}")


def main():
    warnings.simplefilter("ignore")
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
