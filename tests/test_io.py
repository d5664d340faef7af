"""Tests of the configuration and record file boundaries: seeded mutations,
the record grammar and the bit-lossless record round trip."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from weakdelay import (FormatError, ideal_weak_values, load_config, read_record, simulate,
                       solve_exact, write_record)
from weakdelay.io import RECORD_HEADER

#: Valid documents: every key of the schema appears in one of them.
BASE_DOCS = [
    {
        "source": {"center_nm": 780.0, "fwhm_nm": 17.6, "grid_min_nm": 690.0,
                   "grid_max_nm": 900.0, "grid_step_nm": 0.5, "shape": "gaussian"},
        "phi_actual_rad": 1.6,
        "phi_assumed_rad": 1.5,
        "qwp": {"model": "dispersive", "tau0_fs": 0.33},
        "photons": 1000,
        "noise": "poisson",
        "seed": 4,
        "tau_true_fs": 0.01,
    },
    {
        "source": {"grid_step_nm": 0.5},
        "phi_actual_rad": 0.3,
        "qwp": {"model": "ideal"},
        "photons": 1000,
        "theta_rad": 0.02,
        "stack": {"h1_mm": 1.04, "h2_mm": 1.0, "material": "quartz"},
    },
]

#: Mutations of one value: NaN, +-Infinity, string, bool, list, object and
#: a negative number.
MUTATIONS = [
    lambda v, rng: float("nan"),
    lambda v, rng: float("inf"),
    lambda v, rng: float("-inf"),
    lambda v, rng: "x",
    lambda v, rng: bool(rng.integers(2)),
    lambda v, rng: [v],
    lambda v, rng: {"value": v},
    lambda v, rng: -rng.uniform(0.5, 2.0) * (abs(v) if isinstance(v, (int, float)) else 1.0),
]

#: Keys whose negative values are valid (signed delays and pivot angles).
SIGNED = {"tau_true_fs", "theta_rad"}


def key_paths(doc, prefix=()):
    """Paths of every key, nested ones first."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))
        yield prefix + (key,)


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, value):
    out = copy.deepcopy(doc)
    get_at(out, path[:-1])[path[-1]] = value
    return out


def config_mutations():
    """(doc, must_reject) pairs: every single mutation, then seeded multiples."""
    rng = np.random.default_rng(5)
    cases = []
    for base in BASE_DOCS:
        paths = list(key_paths(base))
        for path in paths:
            for k, mutate in enumerate(MUTATIONS):
                must = k < len(MUTATIONS) - 1 or path[-1] not in SIGNED
                cases.append((mutated(base, path, mutate(get_at(base, path), rng)), must))
        for _ in range(150):
            doc, must = base, False
            for i in rng.choice(len(paths), size=rng.integers(2, 4), replace=False):
                k = int(rng.integers(len(MUTATIONS)))
                path = paths[i]
                if path[:-1] and not isinstance(get_at(doc, path[:-1]), dict):
                    continue
                doc = mutated(doc, path, MUTATIONS[k](get_at(doc, path), rng))
                must = must or k < len(MUTATIONS) - 1 or path[-1] not in SIGNED
            cases.append((doc, must))
    return cases


class TestConfigMutations:
    def test_mutations_raise_only_format_error(self):
        # a mutated document either raises FormatError or, for a negative
        # delay or pivot angle, loads a configuration that simulates
        for doc in BASE_DOCS:
            assert simulate(load_config(doc)[0]).total_events > 0
        for doc, must_reject in config_mutations():
            try:
                config, _ = load_config(doc)
            except FormatError:
                continue
            assert not must_reject, f"accepted {doc!r}"
            assert simulate(config).total_events > 0


def record_text(rng, rows=12):
    lam = 700.0 + np.cumsum(rng.uniform(0.1, 1.0, rows))
    counts = rng.integers(0, 50, size=(rows, 2))
    return [RECORD_HEADER] + [f"{float(l)!r},{a},{b}" for l, (a, b) in zip(lam, counts)]


def record_mutation(lines, rng):
    """One seeded corruption of a valid record's lines: (bytes, line, kind).

    Kinds 0-5 break the row on 1-based line ``line`` of the file; kinds 6-7
    insert a byte that is not UTF-8 anywhere (line None).
    """
    lines = list(lines)
    row = int(rng.integers(2, len(lines)))
    fields = lines[row].split(",")
    kind = int(rng.integers(8))
    col = int(rng.integers(3))
    if kind == 0:
        fields[col] = "abc"
    elif kind == 1:
        fields[col] = "nan"
    elif kind == 2:
        fields[col] = str(rng.choice(["inf", "-inf", "Infinity"]))
    elif kind == 3:
        fields[1 + col % 2] = str(-int(rng.integers(1, 9)))
    elif kind == 4:
        fields[0] = lines[row - 1].split(",")[0]
    elif kind == 5:
        fields = fields + ["1"] if rng.integers(2) else fields[:2]
    lines[row] = ",".join(fields)
    data = ("\n".join(lines) + "\n").encode()
    if kind >= 6:
        cut = int(rng.integers(len(data)))
        data = data[:cut] + bytes([int(rng.integers(0x80, 0x100))]) + data[cut:]
    return data, (row + 1 if kind < 6 else None), kind


class TestRecordMutations:
    def test_mutations_raise_format_error(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "r.csv"
        for _ in range(300):
            lines = record_text(rng)
            path.write_text("\n".join(lines) + "\n")
            assert read_record(path).grid_nm.size == len(lines) - 1
            data, line, kind = record_mutation(lines, rng)
            path.write_bytes(data)
            with pytest.raises(FormatError) as exc:
                read_record(path)
            if line is not None:
                assert exc.value.row == line, (kind, data)

    def test_earlier_of_two_bad_rows_is_reported(self, tmp_path):
        # line 4 is reported before line 7, whether the vectorized checks
        # or the row-by-row parse finds either error
        rng = np.random.default_rng(12)
        lines = record_text(rng)
        path = tmp_path / "r.csv"
        for early, late in (("701.5,-2,3", "1,2"), ("1,2", "701.5,-2,3"),
                            ("nan,1,2", "abc,1,2")):
            bad = list(lines)
            bad[3], bad[6] = early, late
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(FormatError) as exc:
                read_record(path)
            assert exc.value.row == 4, (early, late)

    @pytest.mark.parametrize("field, message", [
        ("nan", "NaN or infinite value"), ("inf", "NaN or infinite value"),
        ("-inf", "NaN or infinite value"), ("-2", "negative count"),
        (None, "not strictly increasing")],
        ids=["nan", "inf", "-inf", "negative", "repeated"])
    def test_bad_value_names_its_line(self, tmp_path, field, message):
        # a count of NaN, +-inf or below zero, or a wavelength repeated from
        # the line before, on line 5
        lines = record_text(np.random.default_rng(14))
        wavelength, a, _ = lines[4].split(",")
        if field is None:
            wavelength = lines[3].split(",")[0]
        lines[4] = ",".join([wavelength, a, field or "1"])
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            read_record(path)
        assert exc.value.row == 5

    def test_blank_lines_count_in_the_line_number(self, tmp_path):
        rng = np.random.default_rng(13)
        lines = record_text(rng)
        bad = lines[:4] + ["", "  "] + lines[4:]
        bad[7] = "abc,1,2"  # line 8 of the file, the 6th non-blank one
        path = tmp_path / "r.csv"
        path.write_text("\n\n" + "\n".join(bad) + "\n")
        with pytest.raises(FormatError, match="non-numeric") as exc:
            read_record(path)
        assert exc.value.row == 10
        path.write_text("\n" + "\n".join(lines[:4] + [""] + lines[4:]) + "\n")
        rec = read_record(path)
        assert rec.grid_nm.size == len(lines) - 1


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestLosslessRoundTrip:
    @pytest.mark.parametrize("doc", [
        {"phi_actual_rad": 0.03, "photons": 0, "tau_true_fs": 0.006},
        {"phi_actual_rad": 1.6408, "photons": 0, "tau_true_fs": 0.01,
         "qwp": {"model": "dispersive"}},
        {"phi_actual_rad": 2.4883, "photons": 0, "tau_true_fs": -0.0459,
         "qwp": {"model": "absent"}},
        {"phi_actual_rad": 0.03, "photons": 10_000_000, "tau_true_fs": 0.006, "seed": 3},
    ], ids=["ideal", "dispersive", "absent", "counts_1e7"])
    def test_every_value_reads_back_bit_for_bit(self, doc, tmp_path):
        record = simulate(load_config(doc)[0])
        if not doc["photons"]:
            # the far tails hold weights down to about 1e-60; add a subnormal
            assert record.port1.weights.min() < 1e-50
            w1 = record.port1.weights.copy()
            w1[0] = 5e-324
            record = replace(record, port1=replace(record.port1, weights=w1))
        path = tmp_path / "r.csv"
        write_record(path, record)
        back = read_record(path)
        for ours, theirs in ((back.grid_nm, record.grid_nm),
                             (back.port1.weights, record.port1.weights),
                             (back.port2.weights, record.port2.weights)):
            assert np.array_equal(bits(ours), bits(theirs))
        assert back.total_events == record.total_events
        assert back.total_events == doc["photons"]
        # the shortest round-trip decimal, not 17 digits
        assert "\n789.9," in path.read_text()


class TestRecordGrammar:
    def rows(self, fields, ending="\n"):
        lines = [RECORD_HEADER, "700.5,1,2", f"{fields[0]},{fields[1]},{fields[2]}", "702.5,3,4"]
        return ending.join(lines) + ending

    @pytest.mark.parametrize("field", ["1_0", "１", "0x10", "1d5", ""])
    def test_rejected_field_is_named_with_its_line(self, field, tmp_path):
        # underscores and non-ASCII digits pass float() but not the C reader
        path = tmp_path / "r.csv"
        for col in range(3):
            fields = ["701.5", "5", "6"]
            fields[col] = field
            path.write_text(self.rows(fields), encoding="utf-8")
            with pytest.raises(FormatError, match="non-numeric") as exc:
                read_record(path)
            assert exc.value.row == 3

    def test_whitespace_and_crlf_are_accepted(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(self.rows([" 701.5\t", "　+5.", " .5e1 "], "\r\n").encode())
        back = read_record(path)
        assert back.grid_nm.tolist() == [700.5, 701.5, 702.5]
        assert back.port1.weights.tolist() == [1.0, 5.0, 3.0]
        assert back.port2.weights.tolist() == [2.0, 5.0, 4.0]
        assert back.total_events == 20.0

    def test_reader_and_line_search_accept_the_same_fields(self, tmp_path):
        # a seeded field in the middle row either reads as float() of its
        # stripped text or is reported on line 3; the row-by-row search never
        # disagrees with the array reader
        rng = np.random.default_rng(23)
        alphabet = list("0123456789.eE+-_ ,\t\x1f\x00xjnaif") + [
            "　", " ", "１", "١", "​", "inf", "nan", "1e5"]
        path = tmp_path / "r.csv"
        accepted = 0
        for _ in range(1000):
            field = "".join(rng.choice(alphabet, size=int(rng.integers(1, 6))))
            path.write_text(self.rows(["701.5", field, "6"]), encoding="utf-8")
            try:
                back = read_record(path)
            except FormatError as exc:
                assert exc.row == 3, field
                continue
            accepted += 1
            assert bits(back.port1.weights[1]) == bits(float(field.strip())), field
        assert accepted > 50


class TestCountRule:
    """A record holds counts when every weight lies within 1e-9 of a whole
    number and the weights sum to at least 1; otherwise its total_events is
    0, the noise-free sentinel, and the exact solve reports no se_s."""

    @staticmethod
    def _with_peak_weights(path, w1, w2):
        """A seeded count record whose port-1 peak bin holds the weights
        (w1, w2), as written; returns its phi."""
        phi = 1.6407963267948966
        record = simulate(load_config({"phi_actual_rad": phi, "photons": 1_000_000,
                                       "tau_true_fs": 0.01, "seed": 2})[0])
        write_record(path, record)
        lines = path.read_text().splitlines()
        k = int(np.argmax(record.port1.weights)) + 1
        lines[k] = f"{lines[k].split(',')[0]},{w1},{w2}"
        path.write_text("\n".join(lines) + "\n")
        return phi

    def test_fractional_weights_are_not_counts(self, tmp_path):
        # both lie within rtol 1e-5 of a whole number, but 0.3 and 0.4 off it
        path = tmp_path / "r.csv"
        phi = self._with_peak_weights(path, "123456.7", "200000.4")
        record = read_record(path)
        assert record.total_events == 0
        res = solve_exact(record, ideal_weak_values(phi))
        assert res.diagnostics["se_s"] is None

    @pytest.mark.parametrize("w1,w2", [("123457", "200000"), ("123457.0000000005", "2e5")])
    def test_whole_numbers_within_1e_9_are_counts(self, w1, w2, tmp_path):
        path = tmp_path / "r.csv"
        phi = self._with_peak_weights(path, w1, w2)
        record = read_record(path)
        assert record.total_events > 0
        assert record.total_events == record.port1.weights.sum() + record.port2.weights.sum()
        se = solve_exact(record, ideal_weak_values(phi)).diagnostics["se_s"]
        assert isinstance(se, float) and 0 < se < 1e-18


class TestReaderPaths:
    """A file whose first line is the header and that holds no blank line is
    parsed in one call; any other is parsed again without its blank lines.
    Both paths give the written record bit for bit."""

    @staticmethod
    def _variants(lines):
        """(name, lines, has a blank line) of a record file's lines."""
        mid = len(lines) // 2
        yield "clean", lines, False
        yield "blank_before_header", ["", "\t "] + lines, True
        yield "blank_inside", lines[:mid] + [""] + lines[mid:], True
        yield "spaces_inside", lines[:mid] + ["  ", "\t"] + lines[mid:], True
        yield "blank_at_end", lines + ["", " "], True
        yield "all_three", ["  "] + lines[:mid] + ["", " "] + lines[mid:] + [""], True

    @pytest.mark.parametrize("photons", [10_000_000, 0], ids=["counts", "noise_free"])
    def test_blank_lines_and_crlf_read_as_the_clean_record(self, photons, tmp_path,
                                                           monkeypatch):
        import weakdelay.io as wio
        record = simulate(load_config({"phi_actual_rad": 0.03, "photons": photons,
                                       "tau_true_fs": 0.006, "seed": 7})[0])
        path = tmp_path / "r.csv"
        write_record(path, record)
        lines = path.read_text().splitlines()
        if not photons:
            digits = [len(f.split("e")[0].replace(".", "").lstrip("-0"))
                      for ln in lines[1:] for f in ln.split(",")[1:]]
            assert max(digits) == 17
        filtered = []
        load_nonblank = wio._load_nonblank
        monkeypatch.setattr(wio, "_load_nonblank",
                            lambda ls: filtered.append(1) or load_nonblank(ls))
        for name, variant, blank in self._variants(lines):
            for ending in ("\n", "\r\n"):
                path.write_bytes((ending.join(variant) + ending).encode())
                filtered.clear()
                back = read_record(path)
                for ours, theirs in ((back.grid_nm, record.grid_nm),
                                     (back.port1.weights, record.port1.weights),
                                     (back.port2.weights, record.port2.weights)):
                    assert np.array_equal(bits(ours), bits(theirs)), (name, ending)
                assert back.total_events == record.total_events, (name, ending)
                assert bool(filtered) == blank, (name, ending)

    def test_a_read_record_and_its_moments_convert_the_grid_once(self, tmp_path, monkeypatch):
        # both ports share the grid array read_record parses, and both
        # ports' moments read the record's one frequency conversion
        from weakdelay import spectra
        record = simulate(load_config({"phi_actual_rad": 0.03, "photons": 10_000_000,
                                       "tau_true_fs": 0.006, "seed": 7})[0])
        path = tmp_path / "r.csv"
        write_record(path, record)
        convert, calls = spectra.wavelength_to_angular_frequency, []
        monkeypatch.setattr(spectra, "wavelength_to_angular_frequency",
                            lambda grid: calls.append(1) or convert(grid))
        back = read_record(path)
        assert back.port1.grid_nm is back.port2.grid_nm
        m1, m2 = spectra.record_moments(back)
        assert len(calls) == 1
        total = back.total_weight()
        assert (m1, m2) == (spectra.moments(back.port1, total), spectra.moments(back.port2, total))
