"""File formats: record CSV, run-configuration JSON, result JSON.

Record files are plain CSV with header ``wavelength_nm,counts_port1,
counts_port2``, one row per wavelength bin, wavelengths strictly
increasing.  Values are written with 17 significant digits so that a
write/read round trip is lossless for doubles.

Run configurations are JSON documents mirroring
:class:`~weakdelay.simulator.ExperimentConfig`.  Every physical quantity
carries its unit in the key name (``center_nm``, ``tau_true_fs``,
``theta_rad``).  Unknown keys are rejected; missing keys are filled from
the documented defaults (780 nm centre, 17.6 nm FWHM, 690-900 nm grid at
0.1 nm).  Every other number must be finite (not NaN, not infinite, not a
boolean); ``photons`` and ``seed`` must be whole numbers, ``seed``
nonnegative, and the grid at most :data:`~weakdelay.simulator.MAX_BINS`
bins.  Every rejected document or file raises
:class:`~weakdelay.errors.FormatError`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .constants import FS, MM
from .errors import FormatError
from .estimators import EstimationResult
from .polarization import QwpModel
from .simulator import ExperimentConfig, SourceConfig, default_dispersive_qwp
from .spectra import MeasurementRecord, Spectrum
from .waveplate import PlateStack, default_quartz_stack

RECORD_HEADER = "wavelength_nm,counts_port1,counts_port2"


def write_record(path, record: MeasurementRecord) -> None:
    """Write a two-port record as CSV with full double precision."""
    lines = [RECORD_HEADER]
    for lam, c1, c2 in zip(record.grid_nm, record.port1.weights, record.port2.weights):
        lines.append(f"{lam:.17g},{c1:.17g},{c2:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_record(path) -> MeasurementRecord:
    """Parse a record CSV, rejecting malformed rows with their row number."""
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty record file")
    if lines[0].strip() != RECORD_HEADER:
        raise FormatError(f"bad header; expected {RECORD_HEADER!r}", row=1)
    lams, c1s, c2s = [], [], []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"expected 3 comma-separated fields, got {len(parts)}",
                              row=idx)
        try:
            lam, c1, c2 = (float(p) for p in parts)
        except ValueError:
            raise FormatError(f"non-numeric field in {line!r}", row=idx) from None
        if not (np.isfinite(lam) and np.isfinite(c1) and np.isfinite(c2)):
            raise FormatError("NaN or infinite value", row=idx)
        if lam <= 0:
            raise FormatError(f"nonpositive wavelength {lam!r}", row=idx)
        if c1 < 0 or c2 < 0:
            raise FormatError("negative count", row=idx)
        if lams and lam <= lams[-1]:
            raise FormatError(f"wavelength {lam!r} not strictly increasing "
                              f"(previous {lams[-1]!r})", row=idx)
        lams.append(lam)
        c1s.append(c1)
        c2s.append(c2)
    if len(lams) < 2:
        raise FormatError("record needs at least 2 bins")
    grid = np.array(lams)
    w1 = np.array(c1s)
    w2 = np.array(c2s)
    total = w1.sum() + w2.sum()
    integral = np.allclose(w1, np.round(w1), atol=1e-9) and \
        np.allclose(w2, np.round(w2), atol=1e-9)
    total_events = total if (integral and total >= 1.0) else 0
    return MeasurementRecord(port1=Spectrum(grid, w1), port2=Spectrum(grid, w2),
                             total_events=total_events,
                             metadata={"path": str(path)})


_QWP_KEYS = {"model", "tau0_fs"}
_STACK_KEYS = {"h1_mm", "h2_mm", "material"}
_TOP_KEYS = {"source", "phi_actual_rad", "phi_assumed_rad", "qwp", "photons",
             "noise", "seed", "tau_true_fs", "theta_rad", "stack"}


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


@contextmanager
def _format_errors(what: str):
    """Report a TypeError, ValueError or OverflowError of the block as a FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: {exc}") from None


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"unknown key(s) {sorted(unknown)} in {where}")


def _whole_number(doc: dict, key: str, default: int) -> int:
    """doc[key] as an int; bools, fractions and non-numbers are rejected."""
    value = doc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FormatError(f"{key!r} must be a whole number, got {value!r}")


def _finite_number(doc: dict, key: str, default: float | None) -> float | None:
    """doc[key] as a float; None only for an optional key (default None).

    Bools, non-numbers, NaN and infinities are rejected.
    """
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value):
        return float(value)
    raise FormatError(f"{key!r} must be a finite number, got {value!r}")


def _object(doc: dict, key: str, default: dict | None) -> dict | None:
    """doc[key] as a dict; None only for an optional key (default None)."""
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, dict):
        raise FormatError(f"{key!r} must be an object")
    return value


def _qwp_model(doc: dict, center_nm: float) -> QwpModel:
    """Analyzer plate of a ``qwp`` block (``model``, ``tau0_fs``).

    The dispersive plate's ``tau0_fs`` defaults to pi/4 over the frequency
    of ``center_nm``, which must be a valid source centre.  Shared by the
    configuration loader and the ``estimate`` flags.
    """
    with _format_errors("invalid analyzer"):
        _reject_unknown(doc, _QWP_KEYS, "qwp")
        source = SourceConfig(center_nm=center_nm)
        model = doc.get("model", "ideal")
        tau0_fs = _finite_number(doc, "tau0_fs", None)
        if model == "dispersive" and tau0_fs is None:
            return default_dispersive_qwp(source)
        return QwpModel(variant=model, tau0=None if tau0_fs is None else tau0_fs * FS)


def load_config(source) -> tuple[ExperimentConfig, dict]:
    """Load a run configuration from a JSON file path or a parsed dict.

    Returns the validated config together with the fully resolved document
    (defaults filled in) suitable for the reproducibility sidecar.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(_read_text(source))
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {source}: {exc}") from None
    else:
        doc = dict(source)
    if not isinstance(doc, dict):
        raise FormatError("configuration document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "configuration")

    with _format_errors("invalid configuration"):
        src_doc = _object(doc, "source", {})
        defaults = asdict(SourceConfig())
        _reject_unknown(src_doc, set(defaults), "source")
        source_cfg = SourceConfig(
            **{key: _finite_number(src_doc, key, default)
               for key, default in defaults.items() if key != "shape"},
            shape=src_doc.get("shape", defaults["shape"]))
        qwp = _qwp_model(_object(doc, "qwp", {}), source_cfg.center_nm)

        stack = None
        stack_doc = _object(doc, "stack", None)
        if stack_doc is not None:
            _reject_unknown(stack_doc, _STACK_KEYS, "stack")
            if stack_doc.get("material", "quartz") != "quartz":
                raise FormatError("only the quartz dispersion model ships with the package")
            default = default_quartz_stack(source_cfg.center_nm * 1e-9)
            stack = PlateStack(h1=_finite_number(stack_doc, "h1_mm", default.h1 / MM) * MM,
                               h2=_finite_number(stack_doc, "h2_mm", default.h2 / MM) * MM)

        theta = _finite_number(doc, "theta_rad", None)
        tau_fs = _finite_number(doc, "tau_true_fs", None)
        if theta is None and tau_fs is None:
            tau_fs = 0.0
        if theta is not None and stack is None:
            stack = default_quartz_stack(source_cfg.center_nm * 1e-9)

        config = ExperimentConfig(
            phi_actual=_finite_number(doc, "phi_actual_rad", np.pi / 2 + 0.071),
            source=source_cfg,
            phi_assumed=_finite_number(doc, "phi_assumed_rad", None),
            qwp=qwp,
            photons=_whole_number(doc, "photons", 10_000_000),
            seed=_whole_number(doc, "seed", 0),
            tau_true=None if tau_fs is None else tau_fs * FS,
            theta=theta,
            stack=stack,
            noise=doc.get("noise", "multinomial"),
        )
    return config, resolved_config_dict(config)


def resolved_config_dict(config: ExperimentConfig) -> dict:
    """Fully resolved configuration document (defaults included)."""
    doc = {
        "source": asdict(config.source),
        "phi_actual_rad": config.phi_actual,
        "phi_assumed_rad": config.phi_assumed,
        "qwp": {"model": config.qwp.variant},
        "photons": config.photons,
        "noise": config.noise,
        "seed": config.seed,
    }
    if config.qwp.variant == "dispersive":
        doc["qwp"]["tau0_fs"] = config.qwp.tau0 / FS
    if config.theta is not None:
        doc["theta_rad"] = config.theta
        doc["stack"] = {"h1_mm": config.stack.h1 / MM,
                        "h2_mm": config.stack.h2 / MM,
                        "material": "quartz"}
    else:
        doc["tau_true_fs"] = config.tau_true / FS
    return doc


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def result_to_dict(result: EstimationResult) -> dict:
    """JSON-ready view of an estimate, delay in both seconds and fs."""
    return {
        "method": result.method.value,
        "tau_s": result.tau_hat,
        "tau_fs": result.tau_hat / FS,
        "diagnostics": _json_safe(result.diagnostics),
    }
