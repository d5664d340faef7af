"""In-memory span tracer around the public functions of weakdelay's layers.

A module calls another module's function through the name its own globals
hold (``estimators.solve_exact`` calls ``score_residual`` from the
estimators namespace), so the tracer replaces a function under every name
any ``weakdelay`` module binds it to.  Each call records a span: name,
start, end and the span that was open when it began.  Counts that the
spans cannot give (roots refined, counted bins) are taken from the
arguments and results of the calls.  The benchmark opens its own spans
(``setup``, ``loop``, ``probe``, ``op``, ``closed_forms``) around them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

import numpy as np

#: Modules whose public functions are traced; a tuple limits the names.
LAYERS = {
    "io": None,
    "polarization": None,
    "spectra": None,
    "simulator": None,
    "estimators": None,
    "waveplate": None,
    "_kernels": ("profile",),
}


def _count_solve(tracer, args, kwargs, result):
    tracer.count("estimators.roots_refined", result.diagnostics["candidate_roots"])


def _count_kernel(tracer, args, kwargs, result):
    n_g, q1, q2 = args[2], args[4], args[5]
    bins = int(np.count_nonzero(q1) + np.count_nonzero(q2))
    tracer.count("kernels.counted_bins", bins)
    tracer.count("kernels.bin_evals", bins * int(n_g))


HOOKS = {"estimators.solve_exact": _count_solve, "_kernels.profile": _count_kernel}


class Tracer:
    """Spans and counts of one run, kept in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open = [-1]
        self.counts: Counter = Counter()
        self._sites: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def _begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _finish(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()

    def span(self, name):
        return _Span(self, name)

    def count(self, key, n):
        """Add n to ``key`` under the outermost open span (the phase)."""
        phase = self.names[self._open[1]] if len(self._open) > 1 else ""
        self.counts[phase, key] += n

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of a traced function in weakdelay modules."""
        targets = {}
        for short, only in LAYERS.items():
            mod = sys.modules[f"weakdelay.{short}"]
            for attr, val in vars(mod).items():
                if (callable(val) and getattr(val, "__module__", None) == mod.__name__
                        and not attr.startswith("_") and not isinstance(val, type)
                        and (only is None or attr in only)):
                    targets[id(val)] = (val, f"{short}.{attr}")
        for fid, (fn, name) in targets.items():
            self._wrappers.setdefault(fid, self._wrap(fn, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "weakdelay" and not modname.startswith("weakdelay."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in targets:
                    self._sites.append((mod, attr, val))
                    setattr(mod, attr, self._wrappers[id(val)])

    def uninstall(self):
        for mod, attr, val in self._sites:
            setattr(mod, attr, val)
        self._sites.clear()

    def write(self, path):
        doc = {"spans": {"name": self.names, "start": self.start, "end": self.end,
                         "parent": self.parent},
               "counts": [[phase, key, n] for (phase, key), n in self.counts.items()]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.i = self.tracer._begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._finish(self.i)
        return False


class SpanTable:
    """Array view of a tracer's spans with roots, durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = np.array(tracer.names, dtype=object)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        n = len(self.names)
        root = np.empty(n, dtype=object)
        for i in range(n):
            p = self.parent[i]
            root[i] = self.names[i] if p < 0 else root[p]
        self.root = root
        child = np.zeros(n)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child

    def select(self, name, roots):
        return np.flatnonzero((self.names == name) & np.isin(self.root, roots))

    def has_ancestor(self, idx, name):
        """Mask over ``idx``: whether some enclosing span is called ``name``."""
        out = np.zeros(len(idx), dtype=bool)
        for k, i in enumerate(idx):
            p = self.parent[i]
            while p >= 0:
                if self.names[p] == name:
                    out[k] = True
                    break
                p = self.parent[p]
        return out


#: Phases a per-layer metric is read from, in order of preference: the
#: workload's timed loop, its set-up, then the fixed probe.
PHASES = ("loop", "setup", "probe")


def layer_metrics(tracer: Tracer, import_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics: name -> (value, unit, note on where it was read)."""
    t = SpanTable(tracer)
    out = {"package.import_s": (import_s, "s", "fresh interpreter, median of set-ups")}

    def pick(name):
        for phase in PHASES:
            idx = t.select(name, [phase])
            if idx.size:
                return idx, phase
        raise RuntimeError(f"no span of {name} in any phase")

    def count(phase, key):
        return tracer.counts[phase, key]

    def put(metric, value, unit, idx, phase):
        out[metric] = (float(value), unit, f"{phase}, {idx.size} spans")

    def median(metric, name, unit, scale):
        idx, phase = pick(name)
        put(metric, np.median(t.dur[idx]) * scale, unit, idx, phase)

    median("io.read_record_ms", "io.read_record", "ms", 1e3)
    median("io.write_record_ms", "io.write_record", "ms", 1e3)

    solves, phase = pick("estimators.solve_exact")
    put("estimators.solve_exact_ms", np.median(t.dur[solves]) * 1e3, "ms", solves, phase)
    for metric, name in (("estimators.score_evals_per_solve", "estimators.score_residual"),
                         ("estimators.loglik_evals_per_solve", "estimators.log_likelihood")):
        idx = t.select(name, [phase])
        put(metric, t.has_ancestor(idx, "estimators.solve_exact").sum() / solves.size,
            "count", solves, phase)
    put("estimators.roots_refined_per_solve",
        count(phase, "estimators.roots_refined") / solves.size, "count", solves, phase)
    scores = t.select("estimators.score_residual", [phase])
    scores = scores[t.has_ancestor(scores, "estimators.solve_exact")]
    median("estimators.score_residual_us", "estimators.score_residual", "us", 1e6)
    put("estimators.score_self_share", t.dur[scores].sum() / t.dur[solves].sum(),
        "ratio", solves, phase)
    median("estimators.closed_form_us", "closed_forms", "us", 1e6)
    median("estimators.first_order_us", "estimators.first_order", "us", 1e6)

    sims, phase = pick("simulator.simulate")
    put("simulator.simulate_ms", np.median(t.dur[sims]) * 1e3, "ms", sims, phase)
    put("simulator.sampling_ms", np.median(t.self_time[sims]) * 1e3, "ms", sims, phase)
    builds = t.select("simulator.make_source", [phase])
    put("simulator.source_builds_per_trial",
        t.has_ancestor(builds, "simulator.simulate").sum() / sims.size, "count", sims, phase)
    median("simulator.make_source_us", "simulator.make_source", "us", 1e6)
    median("polarization.port_projections_us", "polarization.port_projections", "us", 1e6)
    median("spectra.postselected_distribution_us", "spectra.postselected_distribution",
           "us", 1e6)
    median("spectra.record_moments_us", "spectra.record_moments", "us", 1e6)

    profiles, phase = pick("estimators.likelihood_profile")
    kernels = t.select("_kernels.profile", [phase])
    in_kernel = np.zeros(t.dur.size)
    np.add.at(in_kernel, t.parent[kernels], t.dur[kernels])
    put("estimators.profile_prep_ms",
        np.median(t.dur[profiles] - in_kernel[profiles]) * 1e3, "ms", profiles, phase)
    put("kernels.profile_s", np.median(t.dur[kernels]), "s", kernels, phase)
    put("kernels.counted_bins", count(phase, "kernels.counted_bins") / kernels.size,
        "count", kernels, phase)
    put("kernels.bin_evals_per_s", count(phase, "kernels.bin_evals") / t.dur[kernels].sum(),
        "1/s", kernels, phase)
    out["trace.overhead_pct"] = (overhead_pct, "%", "traced loop against untraced loop")
    return out
