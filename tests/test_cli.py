import json
import warnings

import numpy as np
import pytest

from weakdelay import (FormatError, QwpModel, load_config, port_projections,
                       read_record, record_moments, simulator, write_record)
from weakdelay.cli import main
from weakdelay.constants import FS

from conftest import PHI_JWM


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "phi_actual_rad": PHI_JWM,
        "photons": 0,
        "tau_true_fs": 0.01,  # 1e-17 s
        "seed": 7,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulateCommand:
    def test_writes_record_and_sidecar(self, config_path, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        code, stdout, _ = run(["simulate", "--config", str(config_path),
                               "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "wavelength_nm,counts_port1,counts_port2"
        assert len(lines) == 2101 + 1
        sidecar = json.loads((tmp_path / "rec.config.json").read_text())
        assert sidecar["seed"] == 7
        assert sidecar["source"]["center_nm"] == 780.0

    def test_noise_free_weights_sum_to_one(self, config_path, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        run(["simulate", "--config", str(config_path), "--out", str(out)], capsys)
        rec = read_record(out)
        assert rec.total_weight() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_output(self, tmp_path, capsys):
        doc = {"phi_actual_rad": PHI_JWM, "photons": 50_000,
               "tau_true_fs": 0.01, "seed": 3}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", str(cfg), "--out", str(a)], capsys)
        run(["simulate", "--config", str(cfg), "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_pivot_caveat_is_a_json_field(self, config_path, tmp_path, capsys):
        # beyond 0.2 rad the small-angle caveat goes to the JSON line and
        # no Python warning reaches stderr; a tau_true_fs config has none
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 1.6407963267948966,
                                   "theta_rad": 0.5, "photons": 0, "seed": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(["simulate", "--config", str(cfg),
                                     "--out", str(tmp_path / "a.csv")], capsys)
        assert code == 0 and err == ""
        assert json.loads(stdout)["warnings"] == [
            "pivot angle 0.5 rad is outside the small-angle regime"]
        code, stdout, err = run(["simulate", "--config", str(config_path),
                                 "--out", str(tmp_path / "b.csv")], capsys)
        assert code == 0 and err == ""
        assert json.loads(stdout)["warnings"] == []

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_rad": 1.0}))
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "phi_rad" in err


class TestConfigBoundary:
    @pytest.mark.parametrize("doc", [{"seed": -1}, {"seed": 1.5}, {"photons": 1.7},
                                     {"photons": True}, {"seed": "3"},
                                     {"photons": 10 ** 30}],
                             ids=["negative_seed", "fractional_seed",
                                  "fractional_photons", "bool_photons", "string_seed",
                                  "photons_beyond_int64"])
    def test_bad_integer_field_exits_2(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": PHI_JWM, **doc}))
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"

    def test_whole_float_is_accepted(self):
        config, resolved = load_config({"photons": 1e4, "seed": 3.0})
        assert (config.photons, config.seed) == (10_000, 3)
        assert isinstance(resolved["photons"], int)

    def test_negative_seed_flag_exits_2(self, config_path, tmp_path, capsys):
        code, _, err = run(["simulate", "--config", str(config_path), "--seed", "-1",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"

    def test_bin_cap_rejects_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 2.1e9 bins: the cap must reject the grid before any source is built
        def no_source(cfg):
            raise AssertionError("make_source called on an over-cap grid")

        monkeypatch.setattr(simulator, "make_source", no_source)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"source": {"grid_step_nm": 1e-7}}))
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "FormatError"
        assert str(simulator.MAX_BINS) in err


    @pytest.mark.parametrize("center_nm", [1e-300, 1e-320])
    def test_overflowing_centre_frequency_exits_2(self, center_nm, tmp_path, capsys):
        # 2 pi c / lambda overflows (1e-300 nm) or divides by an underflowed
        # zero (1e-320 nm) when the dispersive plate takes its default tau0
        doc = {"source": {"center_nm": center_nm}, "qwp": {"model": "dispersive"}}
        with pytest.raises(FormatError, match="overflows"):
            load_config(doc)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():  # a Python warning would be a second line
            warnings.simplefilter("error")
            code, stdout, err = run(["simulate", "--config", str(cfg),
                                     "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FormatError"

    @pytest.mark.parametrize("doc, key", [
        ({"tau_true_fs": float("nan"), "photons": 0}, "tau_true_fs"),
        ({"theta_rad": float("nan")}, "theta_rad"),
        ({"source": {"center_nm": float("nan")}}, "center_nm"),
        ({"qwp": {"model": "dispersive", "tau0_fs": float("nan")}}, "tau0_fs"),
        ({"stack": {"h1_mm": "a"}, "theta_rad": 0.01}, "h1_mm"),
        ({"source": {"fwhm_nm": float("inf")}}, "fwhm_nm"),
        ({"phi_actual_rad": "x"}, "phi_actual_rad"),
    ], ids=["nan_tau", "nan_theta", "nan_center", "nan_tau0", "string_h1",
            "infinite_fwhm", "string_phi"])
    def test_bad_number_exits_2_naming_the_key(self, doc, key, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "FormatError"
        assert key in report["message"]

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b'{"seed": 1, "tau_true_fs": 0.01\xff}')
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FormatError"


class TestEstimateCommand:
    @pytest.fixture()
    def record_path(self, config_path, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        run(["simulate", "--config", str(config_path), "--out", str(out)], capsys)
        return out

    def test_round_trip_exact(self, record_path, capsys):
        code, stdout, _ = run(["estimate", "--records", str(record_path),
                               "--method", "exact", "--phi", str(PHI_JWM)], capsys)
        assert code == 0
        result = json.loads(stdout)
        assert result["method"] == "exact"
        assert result["tau_s"] == pytest.approx(1e-17, rel=1e-4)
        assert result["tau_fs"] == pytest.approx(0.01, rel=1e-4)

    def test_all_methods_emits_seven_results(self, record_path, capsys):
        code, stdout, _ = run(["estimate", "--records", str(record_path),
                               "--phi", str(PHI_JWM)], capsys)
        assert code == 0
        results = json.loads(stdout)
        assert len(results) == 7
        assert {r["method"] for r in results} == {
            "exact", "quartic", "first_order", "jwm_simplified",
            "strubi_reference", "wva_first_order", "wva_mean_shift"}

    def test_all_methods_keeps_estimates_when_one_fails(self, tmp_path, capsys):
        # the truncated quartic has no real root on this unbalanced record
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 0.03, "tau_true_fs": 0.02}))
        rec = tmp_path / "r.csv"
        run(["simulate", "--config", str(cfg), "--out", str(rec)], capsys)
        code, stdout, _ = run(["estimate", "--records", str(rec),
                               "--phi", "0.03", "--method", "all"], capsys)
        assert code == 0
        results = {r["method"]: r for r in json.loads(stdout)}
        assert len(results) == 7
        assert results["quartic"]["error"]["type"] == "SolverError"
        assert "tau_s" not in results["quartic"]
        assert results["exact"]["tau_fs"] == pytest.approx(0.02, rel=0.01)
        assert all("tau_s" in r for m, r in results.items() if m != "quartic")

    def test_all_methods_carry_caveats_and_leave_stderr_empty(self, tmp_path, capsys):
        # on an unbalanced record the balanced-port methods name the
        # imbalance in their JSON; no Python warning reaches stderr
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 0.03, "tau_true_fs": 0.02}))
        rec = tmp_path / "r.csv"
        run(["simulate", "--config", str(cfg), "--out", str(rec)], capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(["estimate", "--records", str(rec),
                                     "--phi", "0.03", "--method", "all"], capsys)
        assert code == 0 and err == ""
        results = {r["method"]: r for r in json.loads(stdout) if "error" not in r}
        assert len(results) == 6
        for method, result in results.items():
            if method in ("jwm_simplified", "strubi_reference"):
                assert len(result["warnings"]) == 1
                assert result["warnings"][0].startswith("record is not near-balanced")
            else:
                assert result["warnings"] == []

    def test_all_methods_failing_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("wavelength_nm,counts_port1,counts_port2\n"
                         "700.0,0,0\n701.0,0,0\n")
        code, stdout, _ = run(["estimate", "--records", str(empty),
                               "--phi", "0.03", "--method", "all"], capsys)
        assert code == 1
        results = json.loads(stdout)
        assert len(results) == 7
        assert all(r["error"]["type"] == "DegenerateRecordError" for r in results)

    def test_wva_mean_shift_ideal_uses_cot_half_phi(self, record_path, capsys):
        code, stdout, _ = run(["estimate", "--records", str(record_path),
                               "--method", "wva_mean_shift", "--phi", str(PHI_JWM)],
                              capsys)
        assert code == 0
        assert json.loads(stdout)["diagnostics"]["im_aw2"] == 1.0 / np.tan(PHI_JWM / 2)

    def test_wva_mean_shift_dispersive_uses_analyzer_weak_value(self, record_path, capsys):
        # a plate off its design frequency at the pooled mean frequency
        rec = read_record(record_path)
        m1, m2 = record_moments(rec)
        qwp = QwpModel(variant="dispersive", tau0=0.36 * FS)
        aw2 = port_projections(PHI_JWM, m1.m1 + m2.m1, qwp)[0].aw2
        code, stdout, _ = run(["estimate", "--records", str(record_path),
                               "--method", "wva_mean_shift", "--phi", str(PHI_JWM),
                               "--qwp", "dispersive", "--tau0-fs", "0.36"], capsys)
        assert code == 0
        im_aw2 = json.loads(stdout)["diagnostics"]["im_aw2"]
        assert im_aw2 == abs(aw2.imag)
        assert im_aw2 != pytest.approx(1.0 / np.tan(PHI_JWM / 2), rel=1e-2)

    def test_wva_mean_shift_without_plate_is_domain_error(self, record_path, capsys):
        # a plate-free analyzer has real weak values: Im A_w2 = 0
        code, _, err = run(["estimate", "--records", str(record_path),
                            "--method", "wva_mean_shift", "--phi", str(PHI_JWM),
                            "--qwp", "absent"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_malformed_row_exits_2_with_row_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength_nm,counts_port1,counts_port2\n"
                       "700.0,1.0,2.0\n700.0,1.0,2.0\n")
        code, _, err = run(["estimate", "--records", str(bad),
                            "--method", "first_order", "--phi", "1.0"], capsys)
        assert code == 2
        assert "row 3" in err

    def test_non_utf8_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"wavelength_nm,counts_port1,counts_port2\n"
                        b"700.0,1.0,2.0\n701.0,1.0\xe9,2.0\n")
        code, _, err = run(["estimate", "--records", str(bad),
                            "--method", "first_order", "--phi", "1.0"], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FormatError"

    @pytest.mark.parametrize("flags", [
        ["--qwp", "ideal", "--tau0-fs", "0.36"],
        ["--qwp", "dispersive", "--tau0-fs", "-1"],
        ["--qwp", "dispersive", "--center-nm", "-5"],
    ], ids=["ideal_with_tau0", "negative_tau0", "negative_center"])
    def test_bad_analyzer_flags_exit_2(self, flags, record_path, capsys):
        code, stdout, err = run(["estimate", "--records", str(record_path),
                                 "--method", "all", "--phi", str(PHI_JWM), *flags],
                                capsys)
        assert code == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FormatError"

    def test_wva_mean_shift_empty_dark_port_is_degenerate(self, tmp_path, capsys):
        # 100 photons at phi = 0.03 leave the dark port empty; its barred
        # mean is undefined, not a non-finite estimate
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 0.03, "tau_true_fs": 0.003,
                                   "photons": 100, "seed": 3}))
        rec = tmp_path / "r.csv"
        run(["simulate", "--config", str(cfg), "--out", str(rec)], capsys)
        assert read_record(rec).port2.total() == 0
        code, stdout, err = run(["estimate", "--records", str(rec),
                                 "--method", "wva_mean_shift", "--phi", "0.03"], capsys)
        assert code == 1 and stdout == ""
        assert json.loads(err) == {"error": "DegenerateRecordError",
                                   "message": "empty port 2: barred moments undefined"}

    def test_model_error_exits_1(self, tmp_path, capsys):
        empty_port = tmp_path / "empty.csv"
        empty_port.write_text("wavelength_nm,counts_port1,counts_port2\n"
                              "700.0,5,0\n701.0,5,0\n")
        code, _, err = run(["estimate", "--records", str(empty_port),
                            "--method", "wva_first_order", "--phi", "0.03"],
                           capsys)
        assert code == 1
        assert "error" in err


def output_per_delay(argv, doc, tmp_path, capsys):
    """CSV that ``argv`` writes for ``doc`` with no delay, a tau_true_fs and a theta_rad.

    The sweep and snr commands set each point's delay themselves, so the
    configuration's own delay, given either way, must not change the output.
    ``argv`` names the config ``{config}`` and the output ``{out}``.
    """
    texts = []
    for k, delay in enumerate(({}, {"tau_true_fs": 0.01}, {"theta_rad": 2e-5})):
        cfg, out = tmp_path / f"c{k}.json", tmp_path / f"out{k}.csv"
        cfg.write_text(json.dumps({**doc, **delay}))
        code, _, _ = run([a.format(config=cfg, out=out) for a in argv], capsys)
        assert code == 0
        texts.append(out.read_text())
    assert texts[1] == texts[0] and texts[2] == texts[0]
    return texts[0]


class TestSweepCommand:
    def test_three_step_sweep_with_zero(self, tmp_path, capsys):
        text = output_per_delay(
            ["sweep", "--config", "{config}", "--theta-min", "0", "--theta-max", "4e-5",
             "--steps", "3", "--out", "{out}"],
            {"phi_actual_rad": PHI_JWM, "photons": 0, "seed": 7}, tmp_path, capsys)
        lines = text.splitlines()
        assert lines[0] == "theta_rad,tau_theory_s,tau_exact_s,tau_first_order_s,tau_jwm_s"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert all(abs(v) < 1e-22 for v in first)

    def test_wva_mode_drops_jwm_column(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 0.03, "photons": 0}))
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--config", str(cfg), "--theta-min", "1e-5",
                          "--theta-max", "3e-5", "--steps", "2",
                          "--out", str(out)], capsys)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "theta_rad,tau_theory_s,tau_exact_s,tau_first_order_s"


    def test_wide_angles_report_caveats_as_json(self, tmp_path, capsys):
        # beyond 0.2 rad the small-angle caveat goes to the summary line,
        # one per angle, and no Python warning reaches stderr
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi_actual_rad": 0.03, "photons": 0}))
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(["sweep", "--config", str(cfg), "--theta-min", "0.3",
                                     "--theta-max", "10", "--steps", "3",
                                     "--out", str(out)], capsys)
        assert code == 0 and err == ""
        caveats = json.loads(stdout)["warnings"]
        assert len(caveats) == 3
        assert all("outside the small-angle regime" in c for c in caveats)
        assert len(out.read_text().splitlines()) == 4


class TestSnrCommand:
    def test_row_per_alpha_phi_pair(self, tmp_path, capsys):
        text = output_per_delay(
            ["snr", "--config", "{config}", "--alphas", "0.005,0.01",
             "--phi-actual", "0.03", "--phi-assumed", "0.03,0.05",
             "--trials", "30", "--out", "{out}"],
            {"phi_actual_rad": 0.03, "photons": 100000, "seed": 1}, tmp_path, capsys)
        lines = text.splitlines()
        assert lines[0] == "alpha,phi_assumed,snr_db,trials"
        assert len(lines) == 1 + 4


class TestAnalyticCommand:
    def test_alpha_min_defaults(self, capsys):
        code, stdout, _ = run(["analytic", "--alpha-min", "--epsilon", "0.0027"],
                              capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["alpha_min"] == pytest.approx(0.010, abs=2e-4)
        assert doc["alpha_min_per_epsilon"] == pytest.approx(3.7165, abs=5e-4)

    def test_uncertainty_requires_alpha_beta(self, capsys):
        code, _, err = run(["analytic", "--uncertainty"], capsys)
        assert code == 2

    def test_uncertainty_value(self, capsys):
        code, stdout, _ = run(["analytic", "--uncertainty", "--alpha", "0.01",
                               "--beta", "0.01"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        c = 780.0 * 0.1 / (4 * 17.6 ** 2)
        assert doc["delta_alpha"] == pytest.approx(4 * c * 0.01, rel=1e-9)

    def test_invalid_resolution_factor_exits_1(self, capsys):
        # every flag is in range, but C >= 1/4 leaves the formula's model
        code, stdout, err = run(["analytic", "--alpha-min", "--resolution-nm", "100"],
                                capsys)
        assert code == 1 and stdout == ""
        assert json.loads(err)["error"] == "ModelError"


class TestFlagBoundary:
    """Non-finite float flags and phi flags outside (0, pi) exit 2 before any work."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--records", "{record}", "--method", "jwm_simplified", "--phi", "nan"],
        ["estimate", "--records", "{record}", "--phi", "4"],
        ["estimate", "--records", "{record}", "--phi", "0"],
        ["estimate", "--records", "{record}", "--phi", "1", "--center-nm", "inf"],
        ["estimate", "--records", "{record}", "--phi", "0.03", "--qwp", "dispersive",
         "--center-nm", "1e-300"],
        ["snr", "--config", "{config}", "--alphas", "0.01", "--phi-actual", "0.03",
         "--phi-assumed", "nan", "--out", "{out}"],
        ["snr", "--config", "{config}", "--alphas", "0.01", "--phi-actual", "nan",
         "--phi-assumed", "0.03", "--out", "{out}"],
        ["snr", "--config", "{config}", "--alphas", "nan", "--phi-actual", "0.03",
         "--phi-assumed", "0.03", "--out", "{out}"],
        ["snr", "--config", "{config}", "--alphas", "", "--phi-actual", "0.03",
         "--phi-assumed", "0.03", "--out", "{out}"],
        ["snr", "--config", "{config}", "--alphas", "0.01", "--phi-actual", "0.03",
         "--phi-assumed", ",", "--out", "{out}"],
        ["sweep", "--config", "{config}", "--theta-min", "nan", "--theta-max", "1e-5",
         "--steps", "2", "--out", "{out}"],
        ["sweep", "--config", "{config}", "--theta-min", "0", "--theta-max", "1e300",
         "--steps", "2", "--out", "{out}"],
        ["analytic", "--alpha-min", "--epsilon", "nan"],
        ["analytic", "--uncertainty", "--alpha", "nan", "--beta", "0.1"],
        ["analytic", "--alpha-min", "--lambda0-nm", "inf"],
        ["snr", "--config", "{config}", "--alphas", "0.01", "--phi-actual", "0.03",
         "--phi-assumed", "0.03", "--trials", "10", "--out", "{out}"],
        ["snr", "--config", "{config}", "--alphas", "-0.01", "--phi-actual", "0.03",
         "--phi-assumed", "0.03", "--out", "{out}"],
        ["analytic", "--uncertainty", "--alpha", "0", "--beta", "1"],
        ["analytic", "--alpha-min", "--epsilon", "-1"],
        ["analytic", "--alpha-min", "--lambda0-nm", "-5"],
        # over the cap, rejected before anything is allocated or run
        ["snr", "--config", "{config}", "--alphas", "0.01", "--phi-actual", "0.03",
         "--phi-assumed", "0.03", "--trials", str(10 ** 15), "--out", "{out}"],
        ["sweep", "--config", "{config}", "--theta-min", "0", "--theta-max", "1e-5",
         "--steps", str(10 ** 15), "--out", "{out}"],
        ["sweep", "--config", "{config}", "--theta-min", "0", "--theta-max", "1e-5",
         "--steps", "0", "--out", "{out}"],
    ], ids=["jwm_nan_phi", "phi_4", "phi_0", "inf_center", "overflowing_center",
            "nan_phi_assumed",
            "nan_phi_actual", "nan_alpha", "empty_alphas", "empty_phi_assumed",
            "nan_theta_min", "overflowing_theta", "nan_epsilon",
            "nan_uncertainty_alpha", "inf_lambda0", "few_trials", "negative_alpha",
            "zero_uncertainty_alpha", "negative_epsilon", "negative_lambda0",
            "huge_trials", "huge_steps", "zero_steps"])
    def test_bad_flag_exits_2(self, argv, config_path, tmp_path, capsys):
        record = tmp_path / "rec.csv"
        run(["simulate", "--config", str(config_path), "--out", str(record)], capsys)
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():  # a Python warning would be a second line
            warnings.simplefilter("error")
            code, stdout, err = run([a.format(record=record, config=config_path, out=out)
                                     for a in argv], capsys)
        assert code == 2
        assert stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "FormatError"


class TestRecordRoundTrip:
    def test_write_read_write_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        from weakdelay import MeasurementRecord, Spectrum
        grid = np.linspace(690.0, 900.0, 2101)
        w1 = rng.random(2101) * 1e-3
        w2 = rng.random(2101) * 1e-3
        rec = MeasurementRecord(port1=Spectrum(grid, w1),
                                port2=Spectrum(grid, w2), total_events=0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_record(p1, rec)
        rec2 = read_record(p1)
        assert np.array_equal(rec2.port1.weights, w1)
        assert np.array_equal(rec2.port2.weights, w2)
        write_record(p2, rec2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reject_negative_counts(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength_nm,counts_port1,counts_port2\n"
                       "700.0,-1.0,2.0\n701.0,1.0,2.0\n")
        with pytest.raises(FormatError, match="row 2"):
            read_record(bad)

    def test_reject_nan(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wavelength_nm,counts_port1,counts_port2\n"
                       "700.0,nan,2.0\n701.0,1.0,2.0\n")
        with pytest.raises(FormatError, match="row 2"):
            read_record(bad)
