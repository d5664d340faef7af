"""File formats: record CSV, run-configuration JSON, result JSON.

Record files are plain CSV with header ``wavelength_nm,counts_port1,
counts_port2``, one row per wavelength bin, wavelengths strictly
increasing.  Each value is written as its shortest round-trip decimal,
``repr`` of the float (``789.9``, not ``789.89999999999998``), so a
write/read round trip is bit-lossless.  The reader converts every body
row in one ``np.loadtxt`` call, NumPy's C text reader, and the grammar is
what ``np.loadtxt`` accepts: three fields, each a ``float()`` literal in
ASCII without underscores (``1e5``, ``+1``, ``1.``, ``.5``, ``inf``,
``nan``) with any surrounding whitespace; ``1_0``, ``１`` (a non-ASCII
digit), ``0x10`` and an empty field are rejected.  Blank lines are
skipped.  The lines after a header on the first line are parsed as they
are; only when that parse is rejected or gives fewer rows than lines
(NumPy skips empty lines and rejects whitespace-only ones) are the blank
lines filtered out and the rest parsed again.  When the reader rejects
the body, the first rejected row is found by bisection, the same reader
run on prefixes of the body.  The row checks run as one column mask, and
a rejected row is reported with its 1-based line number in the file,
blank lines counted.  The weights of both ports must sum to a finite
total.  A record holds counts when every weight lies within
1e-9 of a whole number and the weights sum to at least 1; its
``total_events`` is then that sum, and otherwise 0, the noise-free
sentinel.

Run configurations are JSON documents mirroring
:class:`~weakdelay.simulator.ExperimentConfig`.  Every physical quantity
carries its unit in the key name (``center_nm``, ``tau_true_fs``,
``theta_rad``).  Unknown keys are rejected; missing keys take the field
defaults of :class:`~weakdelay.simulator.SourceConfig`,
:class:`~weakdelay.simulator.ExperimentConfig` and
:class:`~weakdelay.polarization.QwpModel` (780 nm centre, 17.6 nm FWHM,
690-900 nm grid at 0.1 nm, 1e7 photons, multinomial noise, seed 0, an
ideal plate).  Every other number must be finite (not NaN, not infinite,
not a boolean); ``photons`` and ``seed`` must be whole numbers, ``seed``
nonnegative, the grid at most :data:`~weakdelay.simulator.MAX_BINS`
bins and the source line (``fwhm_nm``) no narrower than its step nor, for
a Lorentzian, so wide that its squared half-width overflows; the delay of
a pivot angle (``theta_rad``) or a direct delay (``tau_true_fs``) must
keep its largest phase on the grid within
:data:`~weakdelay.simulator.MAX_PHASE` (2^22 rad), and ``phi_actual_rad`` and
``phi_assumed_rad`` must give finite weak values (twice cot^2(phi/2)
times the largest squared tangent of a phase, 2^122, finite, so phi
above about 4.9e-136 rad).  Every rejected document or
file raises :class:`~weakdelay.errors.FormatError`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .constants import FS, MM, NM
from .errors import FormatError, SingularWeakValueError
from .estimators import EstimationResult
from .polarization import QwpModel, ideal_weak_values
from .simulator import ExperimentConfig, SourceConfig, default_dispersive_qwp
from .spectra import MeasurementRecord, Spectrum
from .waveplate import PlateStack, default_quartz_stack, pivot_delay

RECORD_HEADER = "wavelength_nm,counts_port1,counts_port2"


def write_record(path, record: MeasurementRecord) -> None:
    """Write a two-port record as CSV, each value as its shortest round-trip
    decimal (``repr`` of the float), so reading it back is bit-lossless."""
    rows = zip(record.grid_nm.tolist(), record.port1.weights.tolist(),
               record.port2.weights.tolist())
    Path(path).write_text(RECORD_HEADER + "\n" +
                          "".join([f"{lam!r},{c1!r},{c2!r}\n" for lam, c1, c2 in rows]))


def read_record(path) -> MeasurementRecord:
    """Parse a record CSV, rejecting malformed rows with their line number.

    The lines after a header on the first line are converted by one
    ``np.loadtxt`` call.  Only when it rejects them or skips a blank line
    are the blank lines filtered out and the rest converted again, and only
    when that is rejected does a bisection over prefixes look for the first
    bad line.
    """
    lines = _read_text(path).splitlines()
    # a table here has a row for every line after the header: none is blank
    table = _load_rows(lines[1:]) if lines and lines[0].strip() == RECORD_HEADER else None
    if table is None:
        table = _load_nonblank(lines)
    columns = table.T.copy()
    _check_rows(columns, lines)
    if len(table) < 2:
        raise FormatError("record needs at least 2 bins")
    grid, w1, w2 = columns
    with np.errstate(over="ignore"):
        total = w1.sum() + w2.sum()
    counts = columns[1:]
    integral = np.abs(counts - np.round(counts)).max() <= 1e-9
    total_events = total if (integral and total >= 1.0) else 0
    with _format_errors(f"invalid record {path}"):
        record = MeasurementRecord(port1=Spectrum(grid, w1), port2=Spectrum(grid, w2),
                                   total_events=total_events,
                                   metadata={"path": str(path)})
        record.omega  # the frequencies, formed here: one past the float range is bad input
    return record


def _load_nonblank(lines: list[str]) -> np.ndarray:
    """The table of a record's non-blank lines after its header; raises for
    a bad header or the first unparsable row."""
    kept = list(filter(str.strip, lines))
    if not kept:
        raise FormatError("empty record file")
    if kept[0].strip() != RECORD_HEADER:
        raise FormatError(f"bad header; expected {RECORD_HEADER!r}",
                          row=_line_number(lines, 0))
    body = kept[1:]
    table = _load_rows(body)
    if table is None:
        # the rows before the first unparsable one parse, and an error
        # among them comes first
        k, why = _first_unparsable(body)
        _check_rows(_load_rows(body[:k]).T, lines)
        raise FormatError(why, row=_line_number(lines, k + 1))
    return table


def _line_number(lines: list[str], k: int) -> int:
    """1-based line number of the k-th (from 0) non-blank line."""
    return [i for i, ln in enumerate(lines, start=1) if ln.strip()][k]


def _load_rows(body: list[str]) -> np.ndarray | None:
    """Rows of three numbers as an n x 3 array, converted by NumPy's C text
    reader with the correctly rounded ``PyOS_string_to_double`` of
    ``float()``; None if a row is anything else or an empty line was
    skipped."""
    if not body:
        return np.empty((0, 3))
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (len(body), 3) else None


def _first_unparsable(body: list[str]) -> tuple[int, str]:
    """Index and error of the first row of a body that ``_load_rows``
    rejects, found by bisecting it on prefixes of the body."""
    parsed, rejected = 0, len(body)  # body[:parsed] parses, body[:rejected] not
    while rejected - parsed > 1:
        mid = (parsed + rejected) // 2
        if _load_rows(body[:mid]) is None:
            rejected = mid
        else:
            parsed = mid
    line = body[parsed]
    fields = line.count(",") + 1
    if fields != 3:
        return parsed, f"expected 3 comma-separated fields, got {fields}"
    return parsed, f"non-numeric field in {line!r}"


def _check_rows(columns: np.ndarray, lines: list[str]) -> None:
    """Raise for the first bad row of a parsed table, given as its three
    columns, its first failed check."""
    lam, c1, c2 = columns
    bad = ~np.isfinite(columns).all(axis=0)
    bad |= lam <= 0
    bad |= c1 < 0
    bad |= c2 < 0
    bad[1:] |= lam[1:] <= lam[:-1]
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if not np.isfinite(columns[:, k]).all():
        message = "NaN or infinite value"
    elif lam[k] <= 0:
        message = f"nonpositive wavelength {float(lam[k])!r}"
    elif c1[k] < 0 or c2[k] < 0:
        message = "negative count"
    else:
        message = (f"wavelength {float(lam[k])!r} not strictly increasing "
                   f"(previous {float(lam[k - 1])!r})")
    raise FormatError(message, row=_line_number(lines, k + 1))


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
        model = doc.get("model", QwpModel.variant)
        tau0_fs = _finite_number(doc, "tau0_fs", None)
        if model == "dispersive" and tau0_fs is None:
            return default_dispersive_qwp(source)
        return QwpModel(variant=model, tau0=None if tau0_fs is None else tau0_fs * FS)


def _check_pivot(name: str, theta: float, stack: PlateStack, source: SourceConfig) -> None:
    """Reject a pivot angle whose delay passes the phase bound of the grid
    (:meth:`~weakdelay.simulator.SourceConfig.check_delay`, a DomainError
    that its callers report as a FormatError).

    An angle's delay is pivot_delay(1 rad) theta^2, in Python floats, so an
    angle past the float range reads an infinite delay.  The message names
    the input, ``name``.  Shared by the configuration loader and the
    ``sweep`` flags.
    """
    delay = theta * theta * float(pivot_delay(1.0, stack, source.center_nm * NM))
    source.check_delay(name, theta, delay)


def _check_phi(name: str, phi: float) -> float:
    """phi, unless its weak values are singular (see
    :func:`~weakdelay.polarization.ideal_weak_values`); the message names
    the input, ``name``.  Shared by the configuration loader and the ``snr``
    flags."""
    try:
        ideal_weak_values(phi)
    except SingularWeakValueError as exc:
        raise FormatError(f"{name}: {exc}") from None
    return phi


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
        if theta is not None:
            if stack is None:
                stack = default_quartz_stack(source_cfg.center_nm * 1e-9)
            _check_pivot("theta_rad", theta, stack, source_cfg)
        else:
            source_cfg.check_delay("tau_true_fs", tau_fs, tau_fs * FS)

        config = ExperimentConfig(
            phi_actual=_finite_number(doc, "phi_actual_rad", np.pi / 2 + 0.071),
            source=source_cfg,
            phi_assumed=_finite_number(doc, "phi_assumed_rad", None),
            qwp=qwp,
            photons=_whole_number(doc, "photons", ExperimentConfig.photons),
            seed=_whole_number(doc, "seed", ExperimentConfig.seed),
            tau_true=None if tau_fs is None else tau_fs * FS,
            theta=theta,
            stack=stack,
            noise=doc.get("noise", ExperimentConfig.noise),
        )
        _check_phi("phi_actual_rad", config.phi_actual)
        if config.phi_assumed is not None:
            _check_phi("phi_assumed_rad", config.phi_assumed)
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
    """A diagnostics value for JSON: tuples as lists, and a non-finite float
    as its string, ``"inf"``, ``"-inf"`` or ``"nan"``.  The estimators give
    Python numbers only."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def result_to_dict(result: EstimationResult) -> dict:
    """JSON-ready view of an estimate, delay in both seconds and fs."""
    return {
        "method": result.method.value,
        "tau_s": result.tau_hat,
        "tau_fs": result.tau_hat / FS,
        "diagnostics": _json_safe(result.diagnostics),
        "warnings": list(result.warnings),
    }
