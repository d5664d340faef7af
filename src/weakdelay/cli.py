"""Command-line front end.

Subcommands: ``simulate`` (record generation), ``estimate`` (run estimators
on a record file), ``sweep`` (tilt-angle sweep against theory), ``snr``
(Monte Carlo misalignment robustness), and ``analytic`` (closed-form
resolution-limit calculator).  Outputs are CSV or JSON so the results feed
external plotting directly.

Exit codes: 0 success, 1 model or estimator error, 2 input format error.
``estimate --method all`` puts a failing method's error in its slot of the
output and exits 1 only when every method failed.

Flags are checked before a command runs: every float flag and every entry
of a float list must be finite, and the phi flags (``estimate --phi``,
``snr --phi-actual``, each ``snr --phi-assumed`` entry) must lie in
(0, pi).  A flag that breaks the rule is a format error: exit 2 with one
JSON line on stderr.  The ``snr`` and ``analytic`` commands take every
library input from a flag, so a library ``DomainError`` there (too few
trials, a nonpositive alpha or length, a negative epsilon) is a format
error too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimators, io, simulator
from .constants import FS
from .errors import FormatError, WeakDelayError
from .estimators import Method
from .polarization import port_projections
from .spectra import pooled_variance, record_moments


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
    record = simulator.simulate(config)
    io.write_record(args.out, record)
    sidecar = Path(args.out).with_suffix(".config.json")
    sidecar.write_text(json.dumps(resolved, indent=2) + "\n")
    print(json.dumps({"record": str(args.out), "sidecar": str(sidecar),
                      "tau_true_fs": record.metadata["tau_true_s"] / FS,
                      "total_events": record.total_events}))
    return 0


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="estimate the delay from a record file")
    p.add_argument("--records", required=True, help="record CSV path")
    p.add_argument("--method", default="all",
                   choices=[m.value for m in Method] + ["all"])
    p.add_argument("--phi", type=float, required=True,
                   help="assumed postselection offset [rad]")
    p.add_argument("--qwp", default="ideal", choices=["ideal", "dispersive", "absent"])
    p.add_argument("--tau0-fs", type=float, default=None,
                   help="dispersive analyzer retardance time [fs] "
                        "(default pi/4 over the centre frequency)")
    p.add_argument("--center-nm", type=float, default=780.0,
                   help="centre wavelength used for analyzer defaults")
    p.set_defaults(func=cmd_estimate)


def _estimate_one(method: str, record, args, qwp):
    # only exact, quartic and wva_mean_shift read the analyzer's weak values
    if method in (Method.EXACT.value, Method.QUARTIC.value):
        wv, _, _ = port_projections(args.phi, record.omega, qwp)
        if method == Method.EXACT.value:
            return estimators.solve_exact(record, wv)
        return estimators.quartic(record, wv)
    if method == Method.FIRST_ORDER.value:
        return estimators.first_order(record, args.phi)
    if method == Method.JWM_SIMPLIFIED.value:
        return estimators.jwm_simplified(record)
    if method == Method.STRUBI_REFERENCE.value:
        return estimators.strubi_reference(record)
    if method == Method.WVA_FIRST_ORDER.value:
        return estimators.wva_first_order(record, args.phi)
    if method == Method.WVA_MEAN_SHIFT.value:
        m1, m2 = record_moments(record)
        # the analyzer's port-2 weak value at the pooled mean frequency
        aw2 = port_projections(args.phi, m1.m1 + m2.m1, qwp)[0].aw2
        return estimators.wva_mean_shift(
            delta_omega=m1.m1_bar - m2.m1_bar,
            im_aw2=abs(np.imag(aw2)),
            variance=pooled_variance(record))
    raise FormatError(f"unknown method {method!r}")


def cmd_estimate(args) -> int:
    _phi(args.phi, "--phi")
    record = io.read_record(args.records)
    qwp = io._qwp_model({"model": args.qwp, "tau0_fs": args.tau0_fs}, args.center_nm)
    single = args.method != "all"
    methods = [args.method] if single else [m.value for m in Method]
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in methods:
            try:
                results.append(io.result_to_dict(_estimate_one(method, record, args, qwp)))
            except WeakDelayError as exc:
                if single:
                    raise
                results.append({"method": method, "error": {
                    "type": type(exc).__name__, "message": str(exc)}})
    print(json.dumps(results[0] if single else results, indent=2))
    return 1 if all("error" in r for r in results) else 0


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="tilt-angle sweep of estimators vs theory")
    p.add_argument("--config", required=True, help="run-configuration JSON "
                   "(must include a stack or use defaults)")
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "jwm", "wva"])
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_sweep)


def cmd_sweep(args) -> int:
    config, _ = io.load_config(args.config)
    if args.steps < 1:
        raise FormatError("steps must be >= 1")
    from .waveplate import default_quartz_stack
    stack = config.stack or default_quartz_stack(config.source.center_nm * 1e-9)
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    rows = simulator.sweep_theta(thetas, stack, config, mode=args.mode)
    jwm_mode = Method.JWM_SIMPLIFIED.value in rows[0].estimates
    header = "theta_rad,tau_theory_s,tau_exact_s,tau_first_order_s"
    if jwm_mode:
        header += ",tau_jwm_s"
    lines = [header]
    for row in rows:
        fields = [f"{row.theta:.17g}", f"{row.tau_theory:.17g}",
                  f"{row.estimates['exact']:.17g}",
                  f"{row.estimates['first_order']:.17g}"]
        if jwm_mode:
            fields.append(f"{row.estimates['jwm_simplified']:.17g}")
        lines.append(",".join(fields))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(json.dumps({"rows": len(rows), "out": str(args.out)}))
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


def cmd_snr(args) -> int:
    _phi(args.phi_actual, "--phi-actual")
    alphas = _parse_floats(args.alphas, "--alphas")
    phis = _parse_floats(args.phi_assumed, "--phi-assumed", _phi)
    config, _ = io.load_config(args.config)
    with io._format_errors("invalid snr flags"):
        points = simulator.snr_sweep(alphas, args.phi_actual, phis, args.trials, config)
    lines = ["alpha,phi_assumed,snr_db,trials"]
    for pt in points:
        lines.append(f"{pt.alpha:.17g},{pt.phi_assumed:.17g},"
                     f"{pt.snr_db:.17g},{pt.trials}")
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
    p.add_argument("--lambda0-nm", type=float, default=780.0)
    p.add_argument("--delta-lambda-nm", type=float, default=17.6)
    p.add_argument("--resolution-nm", type=float, default=0.1)
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
