"""Seeded mutation tests of the configuration and record file boundaries."""

import copy

import numpy as np
import pytest

from weakdelay import FormatError, load_config, read_record, simulate
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
