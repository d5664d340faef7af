"""Command-line front end.

Subcommands: ``simulate`` (record generation), ``estimate`` (run estimators
on a record file), ``sweep`` (tilt-angle sweep against theory), ``snr``
(Monte Carlo misalignment robustness), and ``analytic`` (closed-form
resolution-limit calculator).  Outputs are CSV or JSON so the results feed
external plotting directly.

Exit codes: 0 success, 1 model or estimator error, 2 input format error.
``sweep`` and ``snr`` check that ``--out`` can be written before they run,
so an unwritable path exits 2 with one IOError JSON line and nothing run.
``estimate --method all`` puts a failing method's error in its slot of the
output and exits 1 only when every method failed.  Caveats are JSON fields,
never Python warnings: each estimate lists its regime caveats under
``warnings``, ``simulate``'s line lists the tilt-to-delay map's small-angle
caveat of a pivot-angle configuration under ``warnings``, and ``sweep``'s
summary line lists that caveat of each of its angles under ``warnings``.

Flags are checked before a command runs: every float flag and every entry
of a float list must be finite, and the phi flags (``estimate --phi``,
``snr --phi-actual``, each ``snr --phi-assumed`` entry) must lie in
(0, pi); ``snr``'s, which it simulates and estimates with, must also give
finite weak values, as a configuration's phi does (:mod:`weakdelay.io`).
``estimate`` reports a phi whose weak values are singular as each failing
method's error instead.  A flag that breaks the rule is a format error:
exit 2 with one JSON line on stderr.  The ``snr`` and ``analytic`` commands take every
library input from a flag, so a library ``DomainError`` there (too few
or too many trials, a nonpositive alpha or length, a negative epsilon,
an uncertainty or alpha_min out of the float range) is a format error
too, and so are ``sweep --steps`` outside [1,
``simulator.MAX_TRIALS``], a ``sweep`` angle or an ``snr --alphas``
entry whose delay passes the phase bound of a configuration's delay
(largest phase on the grid 2^22 rad, ``simulator.MAX_PHASE``), an ``snr
--alphas`` entry whose squared delay error could overflow the SNR or
whose squared delay underflows, and an ``snr
--phi-assumed`` entry whose
first-order coefficient could overflow (cot^2(phi/2) times the grid's
largest w^2 times ``max(photons, 1)`` not finite); their messages name
the flag.  A ``simulate`` configuration whose source line leaves no
weight on its grid (a ``center_nm`` far off the grid) is a format error
too, named in the message, and so is an ``estimate`` record whose weights
sum past the float range, named by its path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimators, io, simulator
from .constants import FS, NM
from .errors import FormatError, WeakDelayError
from .estimators import Method
from .polarization import QwpModel
from .simulator import SourceConfig


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="generate a synthetic record file")
    p.add_argument("--config", required=True, help="run-configuration JSON")
    p.add_argument("--out", required=True, help="output record CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="override the configuration seed")
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    config, resolved = io.load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise FormatError("--seed must be nonnegative")
        config = replace(config, seed=args.seed)
        resolved["seed"] = args.seed
    with io._format_errors("invalid configuration"):
        record = simulator.simulate(config)
    io.write_record(args.out, record)
    sidecar = Path(args.out).with_suffix(".config.json")
    sidecar.write_text(json.dumps(resolved, indent=2) + "\n")
    print(json.dumps({"record": str(args.out), "sidecar": str(sidecar),
                      "tau_true_fs": record.metadata["tau_true_s"] / FS,
                      "total_events": record.total_events,
                      "warnings": record.metadata["warnings"]}))
    return 0


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="estimate the delay from a record file")
    p.add_argument("--records", required=True, help="record CSV path")
    p.add_argument("--method", default="all",
                   choices=[m.value for m in Method] + ["all"])
    p.add_argument("--phi", type=float, required=True,
                   help="assumed postselection offset [rad]")
    p.add_argument("--qwp", default=QwpModel.variant, choices=["ideal", "dispersive", "absent"])
    p.add_argument("--tau0-fs", type=float, default=None,
                   help="dispersive analyzer retardance time [fs] "
                        "(default pi/4 over the centre frequency)")
    p.add_argument("--center-nm", type=float, default=SourceConfig.center_nm,
                   help="centre wavelength used for analyzer defaults")
    p.set_defaults(func=cmd_estimate)


def cmd_estimate(args) -> int:
    _phi(args.phi, "--phi")
    record = io.read_record(args.records)
    qwp = io._qwp_model({"model": args.qwp, "tau0_fs": args.tau0_fs}, args.center_nm)
    single = args.method != "all"
    methods = [args.method] if single else [m.value for m in Method]
    results = []
    for method in methods:
        try:
            results.append(io.result_to_dict(
                estimators.estimate(method, record, args.phi, qwp)))
        except WeakDelayError as exc:
            if single:
                raise
            results.append({"method": method, "error": {
                "type": type(exc).__name__, "message": str(exc)}})
    print(json.dumps(results[0] if single else results, indent=2))
    return 1 if all("error" in r for r in results) else 0


def _check_writable(path: str) -> None:
    """Raise the OSError of writing ``path`` now, not after a long run.

    An existing file is opened for appending and left as it was; a file
    this check creates is removed again.
    """
    out = Path(path)
    existed = out.exists()
    with out.open("a"):
        pass
    if not existed:
        out.unlink()


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="tilt-angle sweep of estimators vs theory")
    p.add_argument("--config", required=True, help="run-configuration JSON "
                   "(must include a stack or use defaults)")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_sweep)


def cmd_sweep(args) -> int:
    config, _ = io.load_config(args.config)
    if not 1 <= args.steps <= simulator.MAX_TRIALS:
        raise FormatError(f"--steps must lie in [1, {simulator.MAX_TRIALS}]")
    from .waveplate import default_quartz_stack
    stack = config.stack or default_quartz_stack(config.source.center_nm * NM)
    with io._format_errors("invalid sweep angles"):
        for flag, theta in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
            io._check_pivot(flag, theta, stack, config.source)
        _check_writable(args.out)
        rows = simulator.sweep_theta(np.linspace(args.theta_min, args.theta_max, args.steps),
                                     stack, config)
    columns = {"exact": "tau_exact_s", "first_order": "tau_first_order_s",
               "jwm_simplified": "tau_jwm_s"}  # the last at balanced phi only
    methods = [m for m in columns if m in rows[0].estimates]
    lines = [",".join(["theta_rad", "tau_theory_s"] + [columns[m] for m in methods])]
    lines += [",".join(f"{v:.17g}" for v in (row.theta, row.tau_theory,
                                              *(row.estimates[m] for m in methods)))
              for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(json.dumps({"rows": len(rows), "out": str(args.out),
                      "warnings": [w for row in rows for w in row.warnings]}))
    return 0


def _add_snr(sub):
    p = sub.add_parser("snr", help="Monte Carlo SNR under phi misalignment")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True,
                   help="comma-separated dimensionless delays (omega0 tau)")
    p.add_argument("--phi-actual", type=float, required=True)
    p.add_argument("--phi-assumed", required=True,
                   help="comma-separated assumed phi values [rad]")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_snr)


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise FormatError(f"{flag} must be a finite number, got {value!r}")
    return value


def _phi(value: float, flag: str) -> float:
    if not 0.0 < value < np.pi:
        raise FormatError(f"{flag} = {value!r} lies outside (0, pi)")
    return value


def _parse_floats(text: str, flag: str, check=_finite) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise FormatError(f"could not parse {flag} list {text!r}") from None
    if not values:
        raise FormatError(f"{flag} list is empty")
    return [check(v, flag) for v in values]


def _weak_phi(value: float, flag: str) -> float:
    """A phi flag the command simulates or estimates with: in (0, pi), and
    with weak values that are not singular."""
    return io._check_phi(flag, _phi(value, flag))


def cmd_snr(args) -> int:
    _weak_phi(args.phi_actual, "--phi-actual")
    alphas = _parse_floats(args.alphas, "--alphas")
    phis = _parse_floats(args.phi_assumed, "--phi-assumed", _weak_phi)
    config, _ = io.load_config(args.config)
    with io._format_errors("invalid snr flags"):
        # each delay alpha / omega0 keeps its phases within the bound.  The
        # SNR's MSE sums up to MAX_TRIALS squared delay errors of about
        # alpha / omega0 each; the limit leaves each error a factor of 2 (a
        # grid of wavelengths past 1e171 nm reaches it inside the bound).
        # The squared delay the MSE divides must not underflow either
        omega0 = config.source.omega0
        limit = 0.5 * math.sqrt(sys.float_info.max / simulator.MAX_TRIALS) * omega0
        for alpha in alphas:
            config.source.check_delay("--alphas entry", alpha, alpha / omega0)
            if alpha > limit:
                raise FormatError(f"--alphas entry {alpha!r}: its SNR's squared error overflows")
            if 0 < alpha and (alpha / omega0) ** 2 < sys.float_info.min:
                raise FormatError(f"--alphas entry {alpha!r}: its squared delay underflows")
        # the first-order estimate sums cot^2(phi/2) w^2 over up to
        # max(photons, 1) dark-port events, most at the smallest phi
        phi = min(phis)
        cot_w = config.source.largest_phase(1.0) / math.tan(phi / 2)
        if not math.isfinite(cot_w * cot_w * max(config.photons, 1)):
            raise FormatError(f"--phi-assumed entry {phi!r}: its first-order coefficient overflows")
        _check_writable(args.out)
        points = simulator.snr_sweep(alphas, args.phi_actual, phis, args.trials, config)
    lines = ["alpha,phi_assumed,snr_db,trials"] + [
        f"{pt.alpha:.17g},{pt.phi_assumed:.17g},{pt.snr_db:.17g},{pt.trials}" for pt in points]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(json.dumps({"points": len(points), "out": str(args.out)}))
    return 0


def _add_analytic(sub):
    p = sub.add_parser("analytic", help="closed-form resolution-limit formulas")
    p.add_argument("--alpha-min", action="store_true",
                   help="minimum detectable alpha for a misalignment epsilon")
    p.add_argument("--uncertainty", action="store_true",
                   help="uncertainty of alpha at a given postselection beta")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--lambda0-nm", type=float, default=SourceConfig.center_nm)
    p.add_argument("--delta-lambda-nm", type=float, default=SourceConfig.fwhm_nm)
    p.add_argument("--resolution-nm", type=float, default=SourceConfig.grid_step_nm)
    p.set_defaults(func=cmd_analytic)


def cmd_analytic(args) -> int:
    if args.alpha_min == args.uncertainty:
        raise FormatError("choose exactly one of --alpha-min / --uncertainty")
    lengths = (args.lambda0_nm, args.delta_lambda_nm, args.resolution_nm)
    out = {"lambda0_nm": args.lambda0_nm, "delta_lambda_nm": args.delta_lambda_nm,
           "resolution_nm": args.resolution_nm}
    with io._format_errors("invalid analytic flags"):
        out["resolution_factor"] = simulator.resolution_factor(*lengths)
        if args.alpha_min:
            eps = 1.0 if args.epsilon is None else args.epsilon
            out["epsilon"] = eps
            out["alpha_min"] = simulator.alpha_min(eps, *lengths)
            out["alpha_min_per_epsilon"] = simulator.alpha_min(1.0, *lengths)
        else:
            if args.alpha is None or args.beta is None:
                raise FormatError("--uncertainty requires --alpha and --beta")
            out["alpha"] = args.alpha
            out["beta"] = args.beta
            out["delta_alpha"] = simulator.wva_uncertainty(args.alpha, args.beta, *lengths)
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakdelay",
        description="Simulate and estimate postselected weak-measurement "
                    "time delays.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_estimate(sub)
    _add_sweep(sub)
    _add_snr(sub)
    _add_analytic(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, "--" + name.replace("_", "-"))
        return args.func(args)
    except FormatError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except WeakDelayError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
