"""The benchmark's three workloads.

Each workload makes its inputs from the seed, prepares them (the part that
``setup_s`` times), runs one operation at a time through weakdelay's public
functions, and checks every output with :mod:`checks`.  A round is every
operation once, in a fixed order, so each run attempts whole rounds of the
same operations.

The first time an operation runs its output is checked in full.  Later
rounds of analyse and profile repeat the same inputs, so their output must
be identical to the checked one; if it is not, it is checked in full again.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from weakdelay import estimators, io, polarization, simulator, spectra, waveplate

import checks

PHI_BALANCED = np.pi / 2 + 0.071
PHI_UNBALANCED = 0.03
PHOTONS = 10_000_000
MAX_DELAY = 2e-17

#: For unbalanced (phi = 0.03) records the dark port's null,
#: g = atan(tan 0.015)/w, crosses the counted bins for delays in this band
#: [s].  solve_exact misses the maximum there on some inputs (2 of 28 count
#: records, 1 of 40 noise-free ones in probes), so seeded records skip the
#: band; the named analyse record stays in it.
NULL_BAND = (4.5e-18, 8.5e-18)

#: Delays up to MAX_DELAY come from pivot angles up to this [rad].
STACK = waveplate.default_quartz_stack()
THETA_MAX = waveplate.theta_for_delay(MAX_DELAY, STACK, 780e-9)


def null_span(name):
    """Stand-in for ``Tracer.span`` when the run is not traced."""
    return contextlib.nullcontext()


@dataclass(frozen=True)
class RecordSpec:
    """One synthetic record: analyzer, delay (direct or by pivot), noise."""

    label: str
    phi: float
    dispersive: bool
    photons: int
    seed: int
    tau: float | None = None
    theta: float | None = None
    noise: str = "multinomial"

    def qwp(self):
        return simulator.default_dispersive_qwp() if self.dispersive else polarization.QwpModel()

    def config(self):
        return simulator.ExperimentConfig(
            phi_actual=self.phi, qwp=self.qwp(), photons=self.photons, seed=self.seed,
            tau_true=self.tau, theta=self.theta,
            stack=STACK if self.theta is not None else None, noise=self.noise)

    def true_delay(self):
        if self.tau is not None:
            return self.tau
        return waveplate.pivot_delay(self.theta, STACK, 780e-9)


def _draw(rng, label, phi, dispersive, photons, by_pivot, noise="multinomial",
          low=0.0):
    while True:
        if by_pivot:
            spec = RecordSpec(label, phi, dispersive, photons, int(rng.integers(2**31)),
                              theta=float(rng.uniform(0.0, THETA_MAX)), noise=noise)
        else:
            spec = RecordSpec(label, phi, dispersive, photons, int(rng.integers(2**31)),
                              tau=float(rng.uniform(low, MAX_DELAY)), noise=noise)
        tau = spec.true_delay()
        near_null = phi == PHI_UNBALANCED and NULL_BAND[0] <= tau <= NULL_BAND[1]
        if tau >= low and not near_null:
            return spec


def _classes():
    for phi, pname in ((PHI_BALANCED, "balanced"), (PHI_UNBALANCED, "unbalanced")):
        for dispersive in (False, True):
            for photons in (0, PHOTONS):
                name = (f"{pname}-{'dispersive' if dispersive else 'ideal'}-"
                        f"{'counts' if photons else 'noise_free'}")
                yield name, phi, dispersive, photons


def quartic_applies(wv, omega, tau_hat):
    """The quartic's preconditions: scalar weak values, weak regime.

    Its fourth-order series of the rational score holds only while
    max |A| w |tau| stays under the package's weak-regime guard; beyond it
    the truncated polynomial can have no real root at all (phi = 0.03,
    tau = 2e-17 s).
    """
    if wv.is_frequency_dependent():
        return False
    amp = max(abs(wv.aw1), abs(wv.aw2))
    return amp * omega.max() * abs(tau_hat) <= estimators.WEAK_REGIME_MAX_GW


def _same(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a)


class Workload:
    """Shared round bookkeeping; subclasses define inputs, op and check."""

    name = ""
    records_per_op = 1
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.span = null_span
        self._verdicts: dict = {}

    def op_ids(self):
        return range(len(self.specs))

    def verdict(self, i, rnd, output):
        """Problems with the output of operation i; empty when correct."""
        ref = self._verdicts.get(i)
        if ref is not None and _same(ref[0], output):
            return ref[1]
        problems = self.check(i, rnd, output)
        self._verdicts[i] = (output, problems)
        return problems

    def reference(self):
        """Untimed precomputation for the checks."""


class Analyse(Workload):
    """Read a record CSV, solve the exact score, run the closed forms."""

    name = "analyse"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        specs = []
        for name, phi, dispersive, photons in _classes():
            specs.append(_draw(rng, f"{name}-direct", phi, dispersive, photons, False))
            specs.append(_draw(rng, f"{name}-pivot", phi, dispersive, photons, True))
            if photons:
                specs.append(_draw(rng, f"{name}-poisson", phi, dispersive, photons,
                                   False, noise="poisson"))
            else:
                specs.append(RecordSpec(f"{name}-zero", phi, dispersive, 0,
                                        int(rng.integers(2**31)), tau=0.0))
        # Named solver fault, kept whatever the seed: solve_exact returns
        # 6.2102e-18 s on the dark-port null; the maximum is near 5.996e-18 s.
        specs.append(RecordSpec("null-miss-phi0.03-tau6e-18-seed0", PHI_UNBALANCED,
                                False, PHOTONS, 0, tau=6e-18))
        self.known_faults = frozenset({len(specs) - 1})
        self.specs = specs
        self.paths = [workdir / f"record{i:02d}.csv" for i in range(len(specs))]
        self.written = []

    def prepare(self):
        for spec, path in zip(self.specs, self.paths):
            record = simulator.simulate(spec.config())
            io.write_record(path, record)
            self.written.append(record)
        self.run_op(0, 0)

    def run_op(self, i, rnd):
        spec = self.specs[i]
        record = io.read_record(self.paths[i])
        wv, _, _ = polarization.port_projections(spec.phi, record.omega, spec.qwp())
        tau_hat = estimators.solve_exact(record, wv).tau_hat
        with self.span("closed_forms"):
            forms = {
                "first_order": estimators.first_order(record, spec.phi).tau_hat,
                "jwm_simplified": estimators.jwm_simplified(record).tau_hat,
                "strubi_reference": estimators.strubi_reference(record).tau_hat,
                "wva_first_order": estimators.wva_first_order(record, spec.phi).tau_hat,
            }
            m1, m2 = spectra.record_moments(record)
            forms["wva_mean_shift"] = estimators.wva_mean_shift(
                m1.m1_bar - m2.m1_bar, 1.0 / np.tan(spec.phi / 2),
                spectra.pooled_variance(record)).tau_hat
            if quartic_applies(wv, record.omega, tau_hat):
                forms["quartic"] = estimators.quartic(record, wv).tau_hat
        return {"grid": record.grid_nm, "q1": record.port1.weights,
                "q2": record.port2.weights, "total": record.total_events,
                "tau_hat": tau_hat, **forms}

    def check(self, i, rnd, out):
        spec, written = self.specs[i], self.written[i]
        problems = []
        if not (np.array_equal(out["grid"], written.grid_nm)
                and np.array_equal(out["q1"], written.port1.weights)
                and np.array_equal(out["q2"], written.port2.weights)
                and out["total"] == written.total_events):
            problems.append("record read back differs from the record written")
        grid, q1, q2 = checks.read_csv(self.paths[i])
        aw1, aw2 = checks.weak_values(spec.phi, checks.omega_of(grid), spec.dispersive)
        expect = checks.closed_forms(grid, q1, q2, spec.phi)
        if "quartic" in out:
            expect["quartic"] = checks.quartic_root(grid, q1, q2, aw1, aw2)
        for key, value in expect.items():
            if key not in out or not checks.close(out[key], value, rel=1e-6 if key == "quartic" else 1e-9):
                problems.append(f"{key} = {out.get(key)!r}, recomputed {value!r}")
        tau, tau_hat = written.metadata["tau_true_s"], out["tau_hat"]
        if spec.photons == 0:
            limit = 1e-6 * tau if tau else 1e-12 / checks.OMEGA0
            if abs(tau_hat - tau) > limit:
                problems.append(f"noise-free tau_hat {tau_hat!r} misses tau {tau!r} by > {limit:.3g}")
        else:
            like = checks.Likelihood(grid, q1, q2, aw1, aw2)
            rivals = {"true delay": tau, **{k: out[k] for k in expect}}
            problems += checks.mle_violations(like, tau_hat, rivals)
        return problems


#: The README's misalignment grid.
MC_ALPHAS = (0.002, 0.005, 0.01, 0.02)
MC_PHI_ASSUMED = (0.03, 0.05, 0.08)
MC_TRIALS = 100


class MonteCarlo(Workload):
    """snr_sweep point by point over the misalignment grid, both noise models."""

    name = "montecarlo"
    records_per_op = MC_TRIALS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs = [(noise, alpha, pa) for noise in ("multinomial", "poisson")
                      for alpha in MC_ALPHAS for pa in MC_PHI_ASSUMED]
        self.omega0 = simulator.SourceConfig().omega0

    def _config(self, i, rnd):
        noise = self.specs[i][0]
        return simulator.ExperimentConfig(phi_actual=PHI_UNBALANCED, tau_true=0.0,
                                          photons=PHOTONS, noise=noise,
                                          seed=self.seed * 1_000_000 + rnd * 100 + i)

    def prepare(self):
        simulator.snr_sweep([MC_ALPHAS[0]], PHI_UNBALANCED, [MC_PHI_ASSUMED[0]], 30,
                            self._config(0, 0))

    def reference(self):
        grid = np.linspace(690.0, 900.0, 2101)
        self.bias_sd = [checks.first_order_bias_and_sd(grid, PHI_UNBALANCED, pa,
                                                       alpha / checks.OMEGA0, PHOTONS)
                        for _, alpha, pa in self.specs]

    def run_op(self, i, rnd):
        _, alpha, pa = self.specs[i]
        point = simulator.snr_sweep([alpha], PHI_UNBALANCED, [pa], MC_TRIALS,
                                    self._config(i, rnd))[0]
        return {"alpha": point.alpha, "phi_assumed": point.phi_assumed,
                "trials": point.trials, "snr_db": point.snr_db, "rnd": rnd}

    def check(self, i, rnd, out):
        noise, alpha, pa = self.specs[i]
        problems = []
        if (out["alpha"], out["phi_assumed"], out["trials"]) != (alpha, pa, MC_TRIALS):
            problems.append(f"point echoes {out} for alpha {alpha}, phi {pa}")
        e, sd = self.bias_sd[i]
        problems += checks.snr_violations(out["snr_db"], alpha / checks.OMEGA0, e, sd,
                                          MC_TRIALS)
        if rnd == 0:
            cfg = replace(self._config(i, rnd), tau_true=alpha / self.omega0)
            record = simulator.simulate(cfg, np.random.default_rng((cfg.seed, 0, 0, 0)))
            counts = np.concatenate([record.port1.weights, record.port2.weights])
            if not np.array_equal(counts, np.round(counts)) or counts.min() < 0:
                problems.append("sampled record holds non-integer or negative counts")
            if noise == "multinomial" and counts.sum() != PHOTONS:
                problems.append(f"multinomial record sums to {counts.sum()}, not {PHOTONS}")
        return problems


PROFILE_POINTS = 100_000

#: Profile differences must match the independent likelihood to this share
#: of the record's total weight.
PROFILE_TOL = 1e-10


class Profile(Workload):
    """solve_exact, then a dense likelihood profile over [0, 2 tau]."""

    name = "profile"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        # Two count records per noise-free one: the median record is then a
        # sparse one and p90 a dense one, rather than both sitting in the
        # gap between the two costs.
        self.specs = []
        for name, phi, dispersive, photons in _classes():
            for k in range(2 if photons else 1):
                self.specs.append(_draw(rng, f"{name}-{k}", phi, dispersive, photons,
                                        False, low=2e-18))

    def prepare(self):
        self.records = [simulator.simulate(spec.config()) for spec in self.specs]
        self._scan(0, 1000)

    def _scan(self, i, n):
        spec, record = self.specs[i], self.records[i]
        wv, _, _ = polarization.port_projections(spec.phi, record.omega, spec.qwp())
        tau_hat = estimators.solve_exact(record, wv).tau_hat
        grid, values = estimators.likelihood_profile(record, wv, 0.0, 2.0 * spec.tau, n)
        return {"tau_hat": tau_hat, "grid": grid, "values": values}

    def run_op(self, i, rnd):
        return self._scan(i, PROFILE_POINTS)

    def check(self, i, rnd, out):
        spec, record = self.specs[i], self.records[i]
        grid, values = out["grid"], out["values"]
        step = 2.0 * spec.tau / (PROFILE_POINTS - 1)
        problems = []
        if not np.allclose(grid, step * np.arange(PROFILE_POINTS), rtol=1e-12, atol=0):
            problems.append("profile grid is not the uniform grid over [0, 2 tau]")
        k = int(np.argmax(values))
        q1, q2 = record.port1.weights, record.port2.weights
        aw1, aw2 = checks.weak_values(spec.phi, checks.omega_of(record.grid_nm), spec.dispersive)
        like = checks.Likelihood(record.grid_nm, q1, q2, aw1, aw2)
        tau_hat = out["tau_hat"]
        if grid[0] <= tau_hat <= grid[-1]:
            if abs(grid[k] - tau_hat) > 1.0001 * step:
                problems.append(f"profile argmax {grid[k]!r} over a step from tau_hat {tau_hat!r}")
        elif like.diff(tau_hat, grid[k]) < -checks.LL_TOL:
            # The likelihood can peak outside [0, 2 tau] (unbalanced,
            # dispersive records have a second mode near -1.6e-18 s); then
            # no grid point may beat the estimate.
            problems.append(f"profile argmax {grid[k]!r} more likely than tau_hat {tau_hat!r}")
        if spec.photons == 0 and abs(grid[k] - spec.tau) > 1.0001 * step:
            problems.append(f"noise-free profile argmax {grid[k]!r} over a step from tau {spec.tau!r}")
        tol = PROFILE_TOL * (q1.sum() + q2.sum())
        n = PROFILE_POINTS
        for j in sorted({0, n // 7, n // 3, n // 2, 2 * n // 3, n - 1, max(k - 1, 0), k,
                         min(k + 1, n - 1)}):
            got = values[j] - values[k]
            want = like.diff(grid[j], grid[k])
            if abs(got - want) > tol:
                problems.append(f"profile difference at point {j}: {got!r}, "
                                f"independent likelihood {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (Analyse, MonteCarlo, Profile)}


def probe(workdir: Path, span):
    """One call of every traced layer on fixed inputs.

    A traced run reports a layer that its workload never calls from these
    calls, so that every per-layer metric holds a measured value.
    """
    spec = RecordSpec("probe", PHI_BALANCED, False, PHOTONS, 0, tau=3e-18)
    record = simulator.simulate(spec.config())
    path = workdir / "probe.csv"
    io.write_record(path, record)
    record = io.read_record(path)
    wv, _, _ = polarization.port_projections(spec.phi, record.omega, spec.qwp())
    estimators.solve_exact(record, wv)
    with span("closed_forms"):
        estimators.first_order(record, spec.phi)
        estimators.jwm_simplified(record)
        estimators.strubi_reference(record)
        estimators.wva_first_order(record, spec.phi)
        m1, m2 = spectra.record_moments(record)
        estimators.wva_mean_shift(m1.m1_bar - m2.m1_bar, 1.0 / np.tan(spec.phi / 2),
                                  spectra.pooled_variance(record))
        estimators.quartic(record, wv)
    estimators.likelihood_profile(record, wv, 0.0, 6e-18, 10_000)
    simulator.snr_sweep([0.005], PHI_UNBALANCED, [0.03], 30, spec.config())
