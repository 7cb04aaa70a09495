"""CSV ingestion, command execution, exit codes, determinism, and round-trips."""

import argparse
import csv
import gzip
import io
import json
import math
import os
import pickle
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout, suppress
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bvconc.bounds import BoundParams, TailSide, tail_bound, tail_bound_raw
from bvconc import cli
from bvconc.cli import (
    _clustered_header,
    _ingest_clustered,
    _read_table,
    ingest_clustered_csv,
    ingest_trajectory_csv,
    main,
)
from bvconc.empirical import ClusteredSample, TrajectoryPanel
from bvconc.errors import DataFormatError, LipschitzConsistencyError
from bvconc.kstests import DEFAULT_ALPHAS

CLUSTERED = "value,cluster\n1.0,a\n2.0,a\n3.0,b\n"


def _read_reference(path, check_header):
    """The reference reader on the bytes of ``path``."""
    return cli._read_reference(path, check_header, Path(path).read_bytes())


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestClusteredIngestion:
    def test_basic_file(self, tmp_path):
        sample = ingest_clustered_csv(write(tmp_path, "a.csv", CLUSTERED))
        assert sample.n == 3
        spec = sample.cluster_spec()
        assert sorted(spec.sizes) == [1, 2]
        assert spec.nu_n == pytest.approx(1.8)

    def test_single_column_degrades_to_iid(self, tmp_path, capsys):
        sample = ingest_clustered_csv(write(tmp_path, "v.csv", "value\n1.0\n2.0\n"))
        assert sample.cluster_spec().nu_n == pytest.approx(2.0)
        assert "own cluster" in capsys.readouterr().err

    def test_parse_error_names_row(self, tmp_path):
        path = write(tmp_path, "bad.csv", "value,cluster\n1.0,a\nxyz,a\n")
        with pytest.raises(DataFormatError, match="row 3"):
            ingest_clustered_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            ingest_clustered_csv(write(tmp_path, "e.csv", ""))

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="row 1"):
            ingest_clustered_csv(write(tmp_path, "h.csv", "x,y\n1,2\n"))

    def test_row_order_irrelevant(self, tmp_path):
        a = ingest_clustered_csv(write(tmp_path, "o1.csv", CLUSTERED))
        b = ingest_clustered_csv(
            write(tmp_path, "o2.csv", "value,cluster\n3.0,b\n2.0,a\n1.0,a\n")
        )
        from bvconc.empirical import ecdf

        assert np.array_equal(ecdf(a).jump_points, ecdf(b).jump_points)
        assert a.cluster_spec().nu_n == b.cluster_spec().nu_n


class TestTrajectoryIngestion:
    def test_two_row_panel(self, tmp_path):
        panel = ingest_trajectory_csv(
            write(tmp_path, "t.csv", "time,unit_1\n0.0,0.0\n1.0,0.0\n"), k_lip=1.0
        )
        assert panel.delta == pytest.approx(1.0)
        assert panel.n_units == 1

    def test_consistency_violation_cites_slope(self, tmp_path):
        path = write(tmp_path, "fast.csv", "time,unit_1\n0.0,0.0\n0.5,1.0\n")
        with pytest.raises(LipschitzConsistencyError, match="slope 2"):
            ingest_trajectory_csv(path, k_lip=1.0)

    def test_identity_grid_accepted(self, tmp_path):
        rows = ["time,unit_1"] + [f"{t/10:.1f},{t/10:.1f}" for t in range(11)]
        panel = ingest_trajectory_csv(write(tmp_path, "id.csv", "\n".join(rows) + "\n"), 1.0)
        assert panel.times.size == 11

    def test_nonmonotone_times_rejected(self, tmp_path):
        path = write(tmp_path, "nm.csv", "time,unit_1\n0.5,0.0\n0.2,0.0\n")
        with pytest.raises(DataFormatError):
            ingest_trajectory_csv(path, 1.0)


class TestBoundCommands:
    def test_eval_example(self, capsys):
        assert main(["bound", "eval", "--c", "100", "--d", "1", "--side", "two", "--eps", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_upper"] == 1.0
        assert payload["p_upper_raw"] == pytest.approx(2 * math.exp(-0.5), abs=1e-15)

    def test_eval_matches_library_exactly(self, capsys):
        main(["bound", "eval", "--c", "9", "--d", "2", "--side", "plus", "--eps", "1.25"])
        payload = json.loads(capsys.readouterr().out)
        params = BoundParams(9.0, 2.0)
        assert payload["p_upper"] == tail_bound(params, TailSide.PLUS, 1.25)
        assert payload["p_upper_raw"] == tail_bound_raw(params, TailSide.PLUS, 1.25)

    def test_eval_curve_csv(self, capsys):
        main(["bound", "eval", "--c", "4", "--d", "1", "--eps", "0", "0.5", "1", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eps,bound"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "1.0"

    def test_critical_round_trip(self, capsys):
        main(["bound", "critical", "--c", "100", "--d", "1", "--alpha", "0.05"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["critical"]["0.05"] == pytest.approx(0.5745922782728424, abs=1e-12)

    def test_vacuous_pair_exits_2(self, capsys):
        assert main(["bound", "eval", "--c", "0.5", "--d", "1", "--eps", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestKsCommands:
    def test_two_sample_identical(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", CLUSTERED)
        b = write(tmp_path, "b.csv", CLUSTERED)
        assert main(["kstest", "two-sample", "--f", a, "--g", b]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 0.0
        assert payload["p_upper"] == 1.0
        assert payload["nu"] == pytest.approx(1.8)
        assert payload["xi"] == pytest.approx(1.8)

    def test_one_sample_uniform(self, tmp_path, capsys):
        rows = "value,cluster\n" + "".join(
            f"{(2 * i - 1) / 20:.3f},c{i % 5}\n" for i in range(1, 11)
        )
        path = write(tmp_path, "u.csv", rows)
        assert main(["kstest", "one-sample", "--data", path, "--ref", "uniform"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu"] == pytest.approx(5.0)  # 5 equal clusters of 2
        assert 0.0 <= payload["statistic"] <= 1.0
        assert payload["d"] == 1.0

    def test_one_sample_iid_note_in_payload(self, tmp_path, capsys):
        path = write(tmp_path, "v.csv", "value\n0.2\n0.4\n0.9\n")
        assert main(["kstest", "one-sample", "--data", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert any("own cluster" in note for note in payload["notes"])
        assert "own cluster" in captured.err

    def test_lipschitz_command(self, tmp_path, capsys):
        fa = write(tmp_path, "pa.csv", "time,unit_1,unit_2\n0.0,0.4,0.4\n0.5,0.4,0.4\n1.0,0.4,0.4\n")
        fb = write(tmp_path, "pb.csv", "time,unit_1,unit_2\n0.0,0.5,0.5\n0.5,0.5,0.5\n1.0,0.5,0.5\n")
        assert main(["kstest", "lipschitz", "--f", fa, "--g", fb, "--k-lip", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conservative"] is True
        assert payload["statistic"] == pytest.approx(0.1 + 0.2 * 0.5)
        assert payload["interval"] == [pytest.approx(0.1), pytest.approx(0.2)]
        assert payload["c"] == 0.5

    def test_lipschitz_overflowing_d_exits_2(self, tmp_path, capsys):
        fa = write(tmp_path, "pa.csv", "time,unit_1,unit_2\n0.0,0.4,0.4\n0.5,0.4,0.4\n1.0,0.4,0.4\n")
        fb = write(tmp_path, "pb.csv", "time,unit_1,unit_2\n0.0,0.5,0.5\n0.5,0.5,0.5\n1.0,0.5,0.5\n")
        assert main(["kstest", "lipschitz", "--f", fa, "--g", fb, "--k-lip", "1e155"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: range width plus Lipschitz constant 1e+155 is too large: "
            "its square overflows a float\n"
        )

    def test_lipschitz_grid_exhaustive(self, tmp_path, capsys):
        fa = write(tmp_path, "ga.csv", "time,unit_1,unit_2\n0.0,0.4,0.4\n1.0,0.4,0.4\n")
        fb = write(tmp_path, "gb.csv", "time,unit_1,unit_2\n0.0,0.5,0.5\n1.0,0.5,0.5\n")
        assert (
            main(
                ["kstest", "lipschitz", "--f", fa, "--g", fb, "--k-lip", "0", "--grid-exhaustive"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["conservative"] is False
        assert payload["x"] == pytest.approx(2 * 4)  # n_units * grid_size^2

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["kstest", "two-sample", "--f", "/nonexistent.csv", "--g", "/x.csv"]) == 1
        assert "io error" in capsys.readouterr().err

    def test_vacuous_clusters_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "one.csv", "value,cluster\n1.0,a\n2.0,a\n")
        assert main(["kstest", "two-sample", "--f", path, "--g", path]) == 2

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "a.csv", CLUSTERED)
        assert main(["kstest", "two-sample", "--f", path, "--g", path, "--alpha", "1.5"]) == 2


class TestSimulateCommands:
    def test_coverage_deterministic_bytes(self, capsys):
        argv = ["simulate", "coverage", "--n", "25", "--trials", "150", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["config"]["seed"] == 7
        assert len(payload["rows"]) == 10  # 5 thresholds x (adjusted, raw)

    def test_grid_command(self, capsys):
        argv = [
            "simulate", "grid", "--n", "8", "--m", "1", "4", "--eps", "0.25",
            "--trials", "100", "--seed", "3",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["m"] for row in payload["rows"]] == [1, 4]

    def test_sharpness_command(self, capsys):
        argv = ["simulate", "sharpness", "--n", "16", "--l-target", "0.25", "--trials", "200", "--seed", "5"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["info"]["m_n"] == 27.0

    def test_csv_format(self, capsys):
        argv = [
            "simulate", "coverage", "--n", "25", "--trials", "150", "--seed", "7",
            "--format", "csv",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eps,empirical,bound,stderr,violation,label,m,exact"
        assert len(lines) == 11

    def test_table_format(self, capsys):
        argv = ["simulate", "sharpness", "--n", "16", "--l-target", "0.25", "--trials", "100", "--seed", "2", "--format", "table"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "min_le_k" in out


class TestOutputFile:
    def test_out_writes_file_and_keeps_stdout_clean(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(["bound", "eval", "--c", "4", "--d", "1", "--eps", "1", "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(target.read_text())
        assert payload["eps"] == 1.0


class TestJsonRoundTrip:
    def test_floats_survive_round_trip(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "value,cluster\n0.11,a\n0.52,a\n0.93,b\n0.27,b\n0.64,c\n")
        b = write(tmp_path, "b.csv", "value,cluster\n0.21,x\n0.42,x\n0.83,y\n0.37,y\n0.74,z\n")
        assert main(["kstest", "two-sample", "--f", a, "--g", b]) == 0
        payload = json.loads(capsys.readouterr().out)

        from bvconc.kstests import two_sample_clustered
        from bvconc.cli import _ingest_clustered

        sample_f, _ = _ingest_clustered(a)
        sample_g, _ = _ingest_clustered(b)
        outcome = two_sample_clustered(sample_f, sample_g, TailSide.TWO_SIDED)
        assert payload["statistic"] == outcome.statistic
        assert payload["p_upper"] == outcome.p_upper
        for alpha, crit in outcome.critical_at.items():
            assert payload["critical"][repr(alpha)] == crit

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "bvconc" in capsys.readouterr().out


class TestLocaleIndependence:
    def test_decimal_point_under_comma_locale(self, tmp_path, capsys):
        import locale

        try:
            locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
        except locale.Error:
            pytest.skip("comma-decimal locale not installed")
        try:
            path = write(tmp_path, "loc.csv", CLUSTERED)
            assert main(["kstest", "two-sample", "--f", path, "--g", path]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["nu"] == pytest.approx(1.8)
        finally:
            locale.setlocale(locale.LC_NUMERIC, "C")


GOLDEN = Path(__file__).parent / "golden"


def write_golden_sample(path, rng, shift):
    """2k seeded rows in 150 clusters; each row's label is quoted or not at random."""
    codes = rng.integers(0, 150, 2000).tolist()
    values = rng.normal(shift, 1.0, 2000).tolist()
    quoted = (rng.random(2000) < 0.5).tolist()
    lines = ["value,cluster"]
    for value, code, quote in zip(values, codes, quoted):
        label = f"g,{code}" if code % 5 == 0 else f"c{code}"
        if quote or "," in label:
            label = f'"{label}"'
        lines.append(f"{value!r},{label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_golden_panel(path, rng, times, lo, hi, k_lip):
    """40 seeded K-Lipschitz units on the given time grid, clipped to [0, 1]."""
    vals = np.empty((40, times.size))
    vals[:, 0] = rng.uniform(lo, hi, 40)
    steps = rng.uniform(-0.9, 0.9, (40, times.size - 1)) * k_lip * np.diff(times)
    for j in range(times.size - 1):
        vals[:, j + 1] = np.clip(vals[:, j] + steps[:, j], 0.0, 1.0)
    rows = np.column_stack((times, vals.T)).tolist()
    header = "time," + ",".join(f"unit_{u}" for u in range(1, 41))
    text = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    Path(path).write_text(text, encoding="utf-8")


class TestGoldenCliOutputs:
    """Seeded CLI runs whose JSON stdout must match the recorded text byte for byte."""

    def test_two_sample(self, tmp_path, capsys):
        rng = np.random.default_rng(20231)
        f, g = str(tmp_path / "f.csv"), str(tmp_path / "g.csv")
        write_golden_sample(f, rng, 0.0)
        write_golden_sample(g, rng, 2.5)
        assert main(["kstest", "two-sample", "--f", f, "--g", g]) == 0
        expected = (GOLDEN / "kstest_two_sample.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_lipschitz(self, tmp_path, capsys):
        rng = np.random.default_rng(20232)
        times = (np.arange(200) + rng.uniform(0.1, 0.9, 200)) / 200
        f, g = str(tmp_path / "f.csv"), str(tmp_path / "g.csv")
        write_golden_panel(f, rng, times, 0.1, 0.45, 2.0)
        write_golden_panel(g, rng, times, 0.55, 0.9, 2.0)
        assert main(["kstest", "lipschitz", "--f", f, "--g", g, "--k-lip", "2.0"]) == 0
        expected = (GOLDEN / "kstest_lipschitz.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


def csv_reader_rows(path):
    """Non-blank records of ``path`` as ``csv.reader`` splits them: the reference dialect."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def write_raw(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# labels that strip alike, each first seen padded: " a" and "a", "b" and "\x1cb", " c " and "c"
STRIP_MERGE = 'value,cluster\n1, a\n2,b\n3,a\n4,\x1cb\n5," c "\n6,c\n7,"x,y"\n'


class TestCsvDialect:
    """The array reader splits, strips and parses cells exactly as ``csv.reader`` rows would."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "text",
        [
            "value,cluster\n1.0,a\n2.0,a\n3.0,b\n",
            "value,cluster\n\n1.0,a\n\n\n2.0,b\n\n",
            "value,cluster\r\n1.0,a\r\n2.0,b\r\n1.5,a\r\n",
            "value,cluster\r1.0,a\r2.0,b\r1.5,a\r",
            'value,cluster\n1.0,"a,b"\n2.0,a\n3.0,"a,b"\n',
            'value,cluster\n1.0,"a\nb"\n2.0,"a\r\nb"\n3.0,"a\nb"\n',
            'value,cluster\n1.0,"say ""hi"""\n2.0,say\n3.0,"say ""hi"""\n',
            'value,cluster\n1.0,a\n2.0,"b',
            "value , cluster \n 1.0 , a \n2.0,a\n\t3.0\t,\tb\t\n",
            "value,cluster\n1.0,#a\n2.0,b#\n3.0,#a\n",
            "value,cluster\n1.0,a\n2.0,b",
            '"value","cluster"\n"1.5","a"\n"-2e-3",a\n',
            "value\n1.0\n\n2.0\n0.5\n",
            STRIP_MERGE,
        ],
        ids=[
            "basic", "blank-lines", "crlf", "cr-only", "quoted-comma", "quoted-newline",
            "doubled-quote", "unterminated-quote", "spaces", "hash-in-label",
            "no-trailing-newline", "quoted-values", "iid-column", "strip-merge",
        ],
    )
    def test_clustered_parity(self, tmp_path, text):
        path = write_raw(tmp_path, "p.csv", text)
        sample, _ = _ingest_clustered(path)
        rows = csv_reader_rows(path)[1:]
        if len(rows[0]) == 2:
            labels = [row[1].strip() for row in rows]
        else:
            labels = list(range(2, len(rows) + 2))
        reference = ClusteredSample(values=[float(row[0].strip()) for row in rows], cluster_ids=labels)
        assert sample.values.tobytes() == reference.values.tobytes()
        assert np.array_equal(sample.cluster_ids, reference.cluster_ids)
        assert sample.cluster_spec().sizes == reference.cluster_spec().sizes

    @pytest.mark.parametrize(
        "text",
        [
            "time,unit_1,unit_2\n0.0,0.1,0.2\n0.5,0.3,0.2\n1.0,0.4,0.25\n",
            "time,unit_1,unit_2\r\n\r\n0.0,0.1,0.2\r\n1.0,0.4,0.25",
            ' time , "unit 1" ,"u,2"\r"0.0", 0.1 ,0.2\r1.0,0.4,0.25\r',
        ],
        ids=["basic", "crlf-blank-no-newline", "quoted-spaced-cr-only"],
    )
    def test_panel_parity(self, tmp_path, text):
        path = write_raw(tmp_path, "t.csv", text)
        panel = ingest_trajectory_csv(path, 1.0)
        matrix = np.array([[float(c.strip()) for c in row] for row in csv_reader_rows(path)[1:]])
        assert panel.times.tobytes() == matrix[:, 0].tobytes()
        assert panel.unit_values.tobytes() == np.ascontiguousarray(matrix[:, 1:].T).tobytes()

    def test_float_grammar(self, tmp_path):
        sample, _ = _ingest_clustered(write_raw(tmp_path, "g.csv", "value,cluster\n1_000,a\n١٢,a\n"))
        assert sample.values.tolist() == [1000.0, 12.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("value,cluster\n1.0,a\n2.0\n", "row 3: expected 2 columns, got 1"),
            ("value,cluster\n1.0,a,x\n2.0,b\n", "row 2: expected 2 columns, got 3"),
            ("value,cluster\n1.0,a\n  \n2.0,b\n", "row 3: expected 2 columns, got 1"),
            ("value,cluster\n1.0,a\n\n nan ,b\n", "row 3, column 1: cannot parse 'nan' as a finite number"),
            ("value,cluster\n1.0,a\n-inf,b\n", "row 3, column 1: cannot parse '-inf' as a finite number"),
            ("value,cluster\n1.0,a\nxyz,b\n", "row 3, column 1: cannot parse 'xyz' as a finite number"),
            ("value,cluster\n1e999,a\n", "row 2, column 1: cannot parse '1e999' as a finite number"),
            ("value,cluster\n1.0,a\n2.0, \n", "row 3, column 2: empty cluster label"),
            ('value,cluster\n1.0,""\n', "row 2, column 2: empty cluster label"),
            ("value,cluster\n1.0,\nxyz,a\n", "row 2, column 2: empty cluster label"),
            ("value,cluster\nxyz,a\n1.0,a\n2.0\n", "row 2, column 1: cannot parse 'xyz' as a finite number"),
            ("value\n1.0\n2.0,a\n", "row 3: expected 1 columns, got 2"),
            ("value\n1.0\ninf\n", "row 3, column 1: cannot parse 'inf' as a finite number"),
            ("x,y\n1.0,a\n2.0\n", "row 1: expected header 'value,cluster' or 'value', got 'x,y'"),
            ("\ufeffvalue,cluster\n1.0,a\n", "row 1: expected header 'value,cluster' or 'value', got '\\ufeffvalue,cluster'"),
            ("value,cluster\n", "no data rows"),
            ("value,cluster\n\n\n", "no data rows"),
            ("", "empty file"),
            ("\n\r\n\n", "empty file"),
        ],
    )
    def test_clustered_errors_name_the_row(self, tmp_path, text, message):
        path = write_raw(tmp_path, "e.csv", text)
        with pytest.raises(DataFormatError) as info:
            _ingest_clustered(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("time,unit_1,unit_2\n0.0,0.1,0.1\n0.5,0.1,oops\n", "row 3, column 3: cannot parse 'oops' as a finite number"),
            ("time,unit_1\n0.0,0.1\nnan,0.1\n", "row 3, column 1: cannot parse 'nan' as a finite number"),
            ("time,unit_1,unit_2\n0.0,0.1,0.1\n0.5,0.1\n", "row 3: expected 3 columns, got 2"),
            ("time,unit_1\n0.0,0.1\n\t\n", "row 3: expected 2 columns, got 1"),
            ("time,,unit_2\n0.0,0.1,0.1\n", "row 1: expected header 'time,unit_1,...,unit_n', got 'time,,unit_2'"),
            ("time,unit_1\n", "no data rows"),
            ("", "empty file"),
            ("\n\n", "empty file"),
        ],
    )
    def test_panel_errors_name_the_row(self, tmp_path, text, message):
        path = write_raw(tmp_path, "e.csv", text)
        with pytest.raises(DataFormatError) as info:
            ingest_trajectory_csv(path, 1.0)
        assert str(info.value) == f"{path}: {message}"


# cells for the reader parity property: digits, the float punctuation, ASCII and
# Unicode spaces, the separators \x1c-\x1f that str.strip removes, an Arabic-Indic
# digit, and the quote, comma and line ends that split records
JUNK = st.text("0123456789.eE+-_ \t\x1c\x1d\x1e\x1f\xa0١\",\r\n", max_size=6)
PAD = st.text(" \t\x1c\x1d\x1e\x1f\xa0", max_size=2)
NUMBERS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.from_regex(r"[+-]?(\d+(_\d+)?\.?\d*|\.\d+)([eE][+-]?\d{1,3})?", fullmatch=True),
)
LABELS = st.one_of(st.sampled_from(["a", " b ", '"a,b"', '"a\r\nb"', '""']), JUNK)
UNIT_VALUES = st.floats(0.0, 1.0).map(repr)


def spelled(numbers):
    """Cells that spell a number from ``numbers``: bare, padded, quoted, or replaced by junk."""
    return st.one_of(
        numbers,
        st.tuples(PAD, numbers, PAD).map("".join),
        numbers.map(lambda text: f'"{text}"'),
        JUNK,
    )


@st.composite
def csv_texts(draw, kind):
    """A small clustered, iid or panel CSV text built from the adversarial cells."""
    n_rows = draw(st.integers(1, 4))
    if kind == "panel":
        times = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows, max_size=n_rows, unique=True)))
        header = "time,unit_1,unit_2"
        rows = [
            [draw(spelled(st.just(repr(t)))), draw(spelled(UNIT_VALUES)), draw(spelled(UNIT_VALUES))]
            for t in times
        ]
    else:
        header = "value,cluster" if kind == "clustered" else "value"
        cells = [spelled(NUMBERS), LABELS] if kind == "clustered" else [spelled(NUMBERS)]
        rows = [[draw(cell) for cell in cells] for _ in range(n_rows)]
    lines = [header] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def ingest_outcome(ingest, path, read_table):
    """What ``ingest(path)`` returns, or the type and message it raises, with ``read_table`` as the reader."""
    with mock.patch("bvconc.cli._read_table", read_table):
        try:
            return ingest(path)
        except DataFormatError as exc:
            return type(exc), str(exc)


def assert_readers_agree(path, check_header):
    """Both readers give the same header, float bits and ``intp`` codes, or the same fault."""
    outcomes = []
    for read in (_read_table, _read_reference):
        try:
            outcomes.append(read(path, check_header))
        except DataFormatError as exc:
            outcomes.append((type(exc), str(exc)))
    fast, reference = outcomes
    if reference[0] is DataFormatError:
        assert fast == reference
        return
    (header, numbers, codes), (want_header, want_numbers, want_codes) = fast, reference
    assert header == want_header
    assert numbers.shape == want_numbers.shape and numbers.tobytes() == want_numbers.tobytes()
    assert codes.dtype == want_codes.dtype == np.intp and codes.tobytes() == want_codes.tobytes()


class TestReaderParity:
    """The array reader and the ``csv.reader`` reference agree cell for cell and fault for fault."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("kind", ["clustered", "iid"])
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_clustered_matches_reference(self, tmp_path, kind, data):
        path = write_raw(tmp_path, "p.csv", data.draw(csv_texts(kind)))
        assert_readers_agree(path, _clustered_header)
        fast = ingest_outcome(_ingest_clustered, path, _read_table)
        reference = ingest_outcome(_ingest_clustered, path, _read_reference)
        if isinstance(reference[0], ClusteredSample):
            (sample, notes), (expected, expected_notes) = fast, reference
            assert sample.values.tobytes() == expected.values.tobytes()
            assert sample.cluster_ids.tobytes() == expected.cluster_ids.tobytes()
            assert sample.cluster_spec().sizes == expected.cluster_spec().sizes
            assert notes == expected_notes
        else:
            assert fast == reference

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts("panel"))
    def test_panel_matches_reference(self, tmp_path, text):
        path = write_raw(tmp_path, "t.csv", text)
        assert_readers_agree(path, cli._panel_header)
        ingest = partial(ingest_trajectory_csv, k_lip=1e6)
        fast = ingest_outcome(ingest, path, _read_table)
        reference = ingest_outcome(ingest, path, _read_reference)
        if isinstance(reference, TrajectoryPanel):
            assert fast.times.tobytes() == reference.times.tobytes()
            assert fast.unit_values.tobytes() == reference.unit_values.tobytes()
        else:
            assert fast == reference

    @pytest.mark.parametrize(
        "text",
        [
            '"value\n",cluster\n1.5,a\n2.5,"a\nb"\n',
            '"value\r\n","\rcluster"\r\n1.5,a\r\n2.5,"a\nb"\r\n',
            '\n"value\n\n",cluster\n\n1.5,a\n2.5,"a\nb"',
        ],
        ids=["lf", "crlf-and-cr", "blank-lines"],
    )
    def test_header_spanning_lines(self, tmp_path, text):
        sample, _ = _ingest_clustered(write_raw(tmp_path, "h.csv", text))
        assert sample.values.tolist() == [1.5, 2.5]
        assert sample.cluster_spec().sizes == (1, 1)

    def test_panel_header_spanning_lines(self, tmp_path):
        text = 'time,"unit\r\n1",unit_2\r\n0.0,0.1,0.2\r\n1.0,0.4,0.25\r\n'
        panel = ingest_trajectory_csv(write_raw(tmp_path, "h.csv", text), 1.0)
        assert panel.times.tolist() == [0.0, 1.0]
        assert panel.unit_values.tolist() == [[0.1, 0.4], [0.2, 0.25]]

    @pytest.mark.parametrize("read", [_read_table, _read_reference], ids=["fast", "reference"])
    def test_separator_padding_is_stripped(self, tmp_path, read):
        path = write_raw(tmp_path, "s.csv", "value,cluster\n\x1c1.5,a\n2.5\x1f,a\n\x1d\x1e-3.5\x1e,\x1fb\x1c\n")
        header, numbers, codes = read(path, _clustered_header)
        assert (header, numbers.tolist(), codes.tolist()) == (["value", "cluster"], [[1.5], [2.5], [-3.5]], [0, 0, 1])

    @pytest.mark.parametrize("read", [_read_table, _read_reference], ids=["fast", "reference"])
    def test_labels_that_strip_alike_are_one_cluster(self, tmp_path, read):
        path = write_raw(tmp_path, "m.csv", STRIP_MERGE)
        assert read(path, _clustered_header)[2].tolist() == [0, 1, 0, 1, 2, 2, 3]
        sample, _ = ingest_outcome(_ingest_clustered, path, read)
        assert sample.cluster_ids.tobytes() == np.array([0, 1, 0, 1, 2, 2, 3], dtype=np.intp).tobytes()

    def test_separator_padding_in_panels(self, tmp_path):
        path = write_raw(tmp_path, "s.csv", "time,unit_1\n\x1c0.0\x1d,\x1e0.25\n1.0\x1f,0.5\n")
        panel = ingest_trajectory_csv(path, 1.0)
        assert panel.times.tolist() == [0.0, 1.0]
        assert panel.unit_values.tolist() == [[0.25, 0.5]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("value\n1.0,2.0\n3.0,4.0\n", "row 2: expected 1 columns, got 2"),
            ("value,cluster\n1.0\n2.0\n", "row 2: expected 2 columns, got 1"),
        ],
    )
    def test_consistently_wrong_width_clustered(self, tmp_path, text, message):
        path = write_raw(tmp_path, "w.csv", text)
        with pytest.raises(DataFormatError) as info:
            _ingest_clustered(path)
        assert str(info.value) == f"{path}: {message}"

    def test_consistently_wrong_width_panel(self, tmp_path):
        path = write_raw(tmp_path, "w.csv", "time,unit_1,unit_2\n0.0,0.1\n1.0,0.2\n")
        with pytest.raises(DataFormatError) as info:
            ingest_trajectory_csv(path, 1.0)
        assert str(info.value) == f"{path}: row 2: expected 3 columns, got 2"

    @pytest.mark.parametrize(
        "text, row",
        [
            ('"value,cluster\n' + "1.0,a\n" * 30_000, 1),
            ('value,cluster\n1.0,"' + "x" * 140_000 + '"\n2.0,b,c\n', 2),
        ],
        ids=["header", "body"],
    )
    def test_cell_over_csv_field_limit_is_a_format_error(self, tmp_path, text, row):
        path = write_raw(tmp_path, "big.csv", text)
        limit = csv.field_size_limit()
        with pytest.raises(DataFormatError) as info:
            _ingest_clustered(path)
        assert str(info.value) == f"{path}: row {row}: field larger than field limit ({limit})"

    def test_label_over_csv_field_limit_in_a_clean_file(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = write_raw(tmp_path, "big.csv", 'value,cluster\n1.0,"' + "x" * (limit + 1) + '"\n2.0,b\n')
        message = f"{path}: row 2: field larger than field limit ({limit})"
        for read in (_read_table, _read_reference):
            with pytest.raises(DataFormatError) as info:
                read(path, _clustered_header)
            assert str(info.value) == message
        assert main(["kstest", "one-sample", "--data", path, "--ref", "normal"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_label_at_csv_field_limit_is_read(self, tmp_path):
        label = "x" * csv.field_size_limit()
        path = write_raw(tmp_path, "big.csv", f'value,cluster\n1.0,"{label}"\n2.0,b\n')
        expected = (["value", "cluster"], [[1.0], [2.0]], [0, 1])
        for read in (_read_table, _read_reference):
            header, numbers, codes = read(path, _clustered_header)
            assert (header, numbers.tolist(), codes.tolist()) == expected


def write_matrix_inputs(directory: Path) -> None:
    """The small seeded files every golden-matrix case reads."""
    rng = np.random.default_rng(5150)

    def clustered(name, values, labels):
        rows = "".join(f"{v!r},{c}\n" for v, c in zip(values, labels))
        (directory / name).write_text("value,cluster\n" + rows, encoding="utf-8")

    clustered("f.csv", rng.normal(0.0, 1.0, 400).tolist(), [f"c{i % 100}" for i in range(400)])
    clustered("g.csv", rng.normal(-2.0, 1.0, 300).tolist(), [f"k{i % 75}" for i in range(300)])
    clustered("u.csv", rng.uniform(0.0, 1.0, 50).tolist(), [f"u{i % 8}" for i in range(50)])
    clustered("one.csv", [0.1, 0.2, 0.3], ["a", "a", "a"])
    iid = "".join(f"{v!r}\n" for v in rng.uniform(0.0, 1.0, 20).tolist())
    (directory / "iid.csv").write_text("value\n" + iid, encoding="utf-8")
    (directory / "bad.csv").write_text("value,cluster\n0.5,a\nxyz,b\n", encoding="utf-8")
    times = np.linspace(0.0, 1.0, 11)
    header = "time," + ",".join(f"unit_{u}" for u in range(1, 41))
    for name, start in (("pa.csv", 0.1), ("pb.csv", 0.8)):
        steps = rng.uniform(-0.9, 0.9, (40, 10)) * 0.1 * 0.25  # |slope| <= 0.225 < --k-lip 1
        units = np.clip(start + np.concatenate((np.zeros((40, 1)), np.cumsum(steps, axis=1)), axis=1), 0.0, 1.0)
        rows = np.column_stack((times, units.T)).tolist()
        text = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        (directory / name).write_text(text, encoding="utf-8")


def _formats(case_id, argv):
    return [(f"{case_id}-{fmt}", argv + ["--format", fmt]) for fmt in ("json", "csv", "table")]


CLI_MATRIX = [
    *_formats("bound-eval-one", ["bound", "eval", "--c", "100", "--d", "1", "--eps", "0.5"]),
    *_formats(
        "bound-eval-many",
        ["bound", "eval", "--c", "9", "--d", "2", "--side", "plus", "--eps", "0", "0.5", "1.25"],
    ),
    *_formats(
        "bound-critical",
        ["bound", "critical", "--c", "100", "--d", "1", "--side", "minus", "--alpha", "0.2", "0.01"],
    ),
    *_formats("one-sample-uniform", ["kstest", "one-sample", "--data", "{tmp}/u.csv"]),
    *_formats(
        "one-sample-normal",
        [
            "kstest", "one-sample", "--data", "{tmp}/f.csv", "--ref", "normal",
            "--ref-loc", "1.0", "--ref-scale", "0.5", "--side", "plus",
        ],
    ),
    *_formats("one-sample-iid", ["kstest", "one-sample", "--data", "{tmp}/iid.csv"]),
    *_formats(
        "two-sample",
        [
            "kstest", "two-sample", "--f", "{tmp}/f.csv", "--g", "{tmp}/g.csv",
            "--side", "minus", "--alpha", "0.2", "0.02",
        ],
    ),
    *_formats(
        "lipschitz", ["kstest", "lipschitz", "--f", "{tmp}/pa.csv", "--g", "{tmp}/pb.csv", "--k-lip", "1.0"]
    ),
    *_formats(
        "lipschitz-exhaustive",
        [
            "kstest", "lipschitz", "--f", "{tmp}/pa.csv", "--g", "{tmp}/pb.csv",
            "--k-lip", "1.0", "--grid-exhaustive",
        ],
    ),
    *_formats(
        "simulate-grid",
        ["simulate", "grid", "--n", "8", "--m", "1", "4", "--eps", "0.25", "--trials", "100", "--seed", "3"],
    ),
    *_formats(
        "simulate-coverage",
        ["simulate", "coverage", "--n", "25", "--trials", "150", "--seed", "7", "--eps", "0.5", "1", "--side", "plus"],
    ),
    *_formats(
        "simulate-sharpness",
        ["simulate", "sharpness", "--n", "16", "--l-target", "0.25", "--trials", "100", "--seed", "2"],
    ),
    ("out-file", ["bound", "eval", "--c", "4", "--d", "1", "--eps", "1", "--out", "{tmp}/out.json"]),
    ("missing-file", ["kstest", "two-sample", "--f", "{tmp}/missing.csv", "--g", "{tmp}/f.csv"]),
    (
        "alpha-high-missing-file",
        ["kstest", "two-sample", "--f", "{tmp}/missing.csv", "--g", "{tmp}/f.csv", "--alpha", "1.5"],
    ),
    ("alpha-zero-bad-csv", ["kstest", "one-sample", "--data", "{tmp}/bad.csv", "--alpha", "0"]),
    ("bad-csv", ["kstest", "one-sample", "--data", "{tmp}/bad.csv"]),
    ("ref-scale-zero", ["kstest", "one-sample", "--data", "{tmp}/f.csv", "--ref", "normal", "--ref-scale", "0"]),
    ("ref-scale-nan", ["kstest", "one-sample", "--data", "{tmp}/f.csv", "--ref", "normal", "--ref-scale", "nan"]),
    ("vacuous-clusters", ["kstest", "two-sample", "--f", "{tmp}/one.csv", "--g", "{tmp}/f.csv"]),
    (
        "lipschitz-too-fast",
        ["kstest", "lipschitz", "--f", "{tmp}/pa.csv", "--g", "{tmp}/pb.csv", "--k-lip", "0.01"],
    ),
    ("vacuous-pair", ["bound", "eval", "--c", "0.5", "--d", "1", "--eps", "1"]),
    ("eps-negative", ["bound", "eval", "--c", "4", "--d", "1", "--eps", "-1"]),
    ("bad-seed", ["simulate", "coverage", "--n", "10", "--trials", "10", "--seed", "abc"]),
    ("missing-required", ["bound", "eval", "--c", "4", "--d", "1"]),
    ("format-xml", ["bound", "eval", "--c", "4", "--d", "1", "--eps", "1", "--format", "xml"]),
    ("no-args", []),
    ("help-top", ["--help"]),
    *[(f"help-{group}", [group, "--help"]) for group in ("bound", "kstest", "simulate")],
    *[
        (f"help-{group}-{leaf}", [group, leaf, "--help"])
        for group, leaf in (
            ("bound", "eval"), ("bound", "critical"), ("kstest", "one-sample"),
            ("kstest", "two-sample"), ("kstest", "lipschitz"), ("simulate", "grid"),
            ("simulate", "coverage"), ("simulate", "sharpness"),
        )
    ],
]

CLI_MATRIX_GOLDEN = GOLDEN / "cli_matrix.json"


def run_matrix_case(argv: list[str], directory: Path) -> dict:
    """Run ``main`` on one matrix case; the input directory reads as ``{tmp}`` in the result."""
    real = [arg.replace("{tmp}", str(directory)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps --help and usage text to the terminal width it reads from COLUMNS
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        code = main(real)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(str(directory), "{tmp}"),
        "stderr": err.getvalue().replace(str(directory), "{tmp}"),
    }


def record_cli_matrix() -> None:
    """Rewrite the golden file from the current code: ``PYTHONPATH=src python tests/test_cli.py``."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_matrix_inputs(directory)
        cases = {case_id: run_matrix_case(argv, directory) for case_id, argv in CLI_MATRIX}
    golden = {"python": "{}.{}".format(*sys.version_info[:2]), "cases": cases}
    CLI_MATRIX_GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("matrix")
    write_matrix_inputs(directory)
    return directory


class TestGoldenCliMatrix:
    """Every command, format and error path: exit code, stdout and stderr byte for byte.

    Help and usage-error text is argparse's own and its wording differs between
    Python versions, so on a version other than the recorded one only the exit
    code and the ``usage: bvconc`` prefix of those cases are compared.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(CLI_MATRIX_GOLDEN.read_text(encoding="utf-8"))

    def test_matrix_ids_match_golden(self, golden):
        assert list(golden["cases"]) == [case_id for case_id, _ in CLI_MATRIX]

    @pytest.mark.parametrize("case_id, argv", CLI_MATRIX, ids=[case_id for case_id, _ in CLI_MATRIX])
    def test_case(self, case_id, argv, golden, matrix_dir):
        expected = golden["cases"][case_id]
        got = run_matrix_case(argv, matrix_dir)
        argparse_text = (expected["stdout"] + expected["stderr"]).startswith("usage: ")
        if argparse_text and golden["python"] != "{}.{}".format(*sys.version_info[:2]):
            assert got["exit"] == expected["exit"]
            assert (got["stdout"] + got["stderr"]).startswith("usage: bvconc")
        else:
            assert got == expected


class TestEntryPoints:
    """``python -m bvconc`` reaches ``main`` through ``entrypoint`` and exits with its code."""

    def run_module(self, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "bvconc", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )

    def test_module_matches_main(self, capsys):
        argv = ["bound", "eval", "--c", "4", "--d", "1", "--eps", "1"]
        done = self.run_module(*argv)
        assert main(argv) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_module_usage_error_exits_2(self):
        done = self.run_module("bound", "eval", "--c", "4")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage: bvconc bound eval")



class TestNonFiniteOptions:
    """Non-finite option values exit 2 with a message naming the option, and print nothing."""

    def test_coverage_eps_nan_inf(self, capsys):
        code = main(["simulate", "coverage", "--n", "10", "--trials", "100", "--eps", "nan", "inf"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "eps grid must be finite" in captured.err

    @pytest.mark.parametrize("loc", ["nan", "inf", "-inf"])
    def test_ref_loc(self, tmp_path, capsys, loc):
        path = write(tmp_path, "u.csv", CLUSTERED)
        # the = form lets argparse take "-inf" as a value
        code = main(["kstest", "one-sample", "--data", path, "--ref", "normal", f"--ref-loc={loc}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--ref-loc must be finite, got {float(loc)}" in captured.err


class TestReferenceOptionsBeforeIngest:
    """A bad ``--ref normal`` option is reported before the data file is read, like ``--alpha``."""

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--ref-scale=0", "--ref-scale must be positive, got 0.0"),
            ("--ref-loc=nan", "--ref-loc must be finite, got nan"),
        ],
    )
    @pytest.mark.parametrize("data", ["empty", "missing"])
    def test_option_error_wins(self, tmp_path, capsys, option, message, data):
        path = write(tmp_path, "empty.csv", "") if data == "empty" else str(tmp_path / "missing.csv")
        code = main(["kstest", "one-sample", "--data", path, "--ref", "normal", option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


if __name__ == "__main__":
    record_cli_matrix()


class TestSingleColumnIngest:
    def test_matches_row_number_labels(self, tmp_path):
        from bvconc.empirical import ecdf

        values = [0.5, 0.25, 0.5, 1.0, 0.25, 0.75]
        text = "value\n" + "".join(f"{v!r}\n" for v in values)
        sample = ingest_clustered_csv(write(tmp_path, "v.csv", text))
        want = ClusteredSample(values=values, cluster_ids=range(2, len(values) + 2))
        assert sample.values.tobytes() == want.values.tobytes()
        assert sample.cluster_ids.tobytes() == want.cluster_ids.tobytes()
        assert sample.cluster_spec().sizes == want.cluster_spec().sizes
        assert ecdf(sample).jump_points.tobytes() == ecdf(want).jump_points.tobytes()
        assert ecdf(sample).values.tobytes() == ecdf(want).values.tobytes()
        assert not sample.values.flags.writeable and not sample.cluster_ids.flags.writeable

    def test_clustered_arrays_give_empty_codes(self, tmp_path):
        values, codes = cli._clustered_arrays(write(tmp_path, "v.csv", "value\n0.5\n0.25\n"))
        assert values.tolist() == [0.5, 0.25]
        assert codes.dtype == np.intp and codes.shape == (0,)


class TestNonUtf8Input:
    """Bytes that are not UTF-8 are a DataFormatError naming the file, from either reader."""

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"\xff\xfe", "invalid start byte (byte 0xff)"),
            (b"value,cluster\n" + b"1.0,a\n" * 5000 + b"2.0,\xe9\n", "invalid continuation byte (byte 0xe9)"),
        ],
        ids=["bom", "past-first-chunk"],
    )
    def test_clustered(self, tmp_path, capsys, data, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = f"{path}: not UTF-8 text: {reason}"
        for read in (_read_table, _read_reference):
            with pytest.raises(DataFormatError) as info:
                read(str(path), _clustered_header)
            assert str(info.value) == message
        assert main(["kstest", "one-sample", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_panel(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time,unit_1\n0.0,0.5\n1.0,\xc3(\n")
        with pytest.raises(DataFormatError) as info:
            ingest_trajectory_csv(str(path), 1.0)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid continuation byte (byte 0xc3)"


class TestLongNumericCell:
    """A numeric cell over ``csv.field_size_limit()`` is rejected by both readers alike."""

    LIMIT = csv.field_size_limit()
    LONG = " " * 140_000 + "1.0"

    @pytest.mark.parametrize("ragged", [False, True], ids=["clean", "ragged"])
    @pytest.mark.parametrize(
        "text",
        [
            f"value,cluster\n{LONG},a\n2.0,b\n",
            'value,cluster\n"' + "\n" * 140_000 + '1.0",a\n2.0,b\n',
            f"value\n{LONG}\n2.0\n",
            'value\n"' + " \n" * 70_000 + '1.0"\n2.0\n',
        ],
        ids=["unquoted", "quoted-across-lines", "single-column", "single-column-quoted"],
    )
    def test_clustered(self, tmp_path, capsys, text, ragged):
        if ragged:
            text += "3.0,c,d\n" if text.startswith("value,") else "3.0,4.0\n"
        path = write_raw(tmp_path, "long.csv", text)
        message = f"{path}: row 2: field larger than field limit ({self.LIMIT})"
        for read in (_read_table, _read_reference):
            with pytest.raises(DataFormatError) as info:
                read(path, _clustered_header)
            assert str(info.value) == message
        assert main(["kstest", "one-sample", "--data", path, "--ref", "normal"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_quoted_label(self, tmp_path, capsys):
        # every probe holds a comma and a line feed, so the block scan clears the
        # file and only the label length check after loadtxt finds the long label
        label = '"' + "a,\n" * 50_000 + 'z"'
        path = write_raw(tmp_path, "label.csv", f"value,cluster\n1.0,a\n2.0,{label}\n")
        with open(path, "rb") as raw:
            assert not cli._may_hold_long_cell(raw)
        message = f"{path}: row 3: field larger than field limit ({self.LIMIT})"
        for read in (_read_table, _read_reference):
            with pytest.raises(DataFormatError) as info:
                read(path, _clustered_header)
            assert str(info.value) == message
        assert main(["kstest", "one-sample", "--data", path, "--ref", "normal"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, decision",
        [
            (f"value,cluster\n{LONG},a\n2.0,b\n", True),
            ('value,cluster\n"' + "\n" * 140_000 + '1.0",a\n2.0,b\n', True),
            (f"value\n{LONG}\n2.0\n", True),
            ('value\n"' + " \n" * 70_000 + '1.0"\n2.0\n', True),
            ('value,cluster\n1.0,a\n2.0,"' + "a,\n" * 50_000 + 'z"\n', False),
            ("value,cluster\n" + " " * (LIMIT - 3) + "1.0,a\n2.0,b\n", True),
        ],
        ids=["unquoted", "quoted-across-lines", "single-column", "single-column-quoted", "quoted-label", "at-the-limit"],
    )
    @pytest.mark.parametrize("kind", ["file", "bytes"])
    def test_check_reads_through_the_handle(self, tmp_path, text, decision, kind):
        # the open file or the in-memory copy of a pipe: the same decision, and the
        # handle's position put back
        path = write_raw(tmp_path, "long.csv", text)
        data = Path(path).read_bytes()
        with open(path, "rb") if kind == "file" else io.BytesIO(data) as raw:
            raw.readline()  # past the header; a buffered file has read ahead of its position
            position = raw.tell()
            assert cli._may_hold_long_cell(raw) is decision
            assert raw.tell() == position
            assert raw.read() == data[position:]

    def test_panel(self, tmp_path):
        path = write_raw(tmp_path, "long.csv", f"time,unit_1\n0.0,{self.LONG[2:]}\n1.0,0.5\n")
        with pytest.raises(DataFormatError) as info:
            ingest_trajectory_csv(path, 1.0)
        assert str(info.value) == f"{path}: row 2: field larger than field limit ({self.LIMIT})"

    def test_cell_at_the_limit_is_read(self, tmp_path):
        cell = " " * (self.LIMIT - 3) + "1.0"
        path = write_raw(tmp_path, "long.csv", f"value,cluster\n{cell},a\n2.0,b\n")
        expected = (["value", "cluster"], [[1.0], [2.0]], [0, 1])
        for read in (_read_table, _read_reference):
            header, numbers, codes = read(path, _clustered_header)
            assert (header, numbers.tolist(), codes.tolist()) == expected

    def test_long_line_of_short_cells_is_read(self, tmp_path):
        units = 35_000  # about 140,000 characters a line
        header = "time," + ",".join(f"u{u}" for u in range(units))
        rows = "".join(f"{t}," + ",".join(["0.5"] * units) + "\n" for t in (0.0, 1.0))
        path = write_raw(tmp_path, "wide.csv", header + "\n" + rows)
        panel = ingest_trajectory_csv(path, 1.0)
        assert panel.n_units == units and panel.times.tolist() == [0.0, 1.0]
        fast = _read_table(path, cli._panel_header)
        reference = _read_reference(path, cli._panel_header)
        assert fast[0] == reference[0] and fast[1].tobytes() == reference[1].tobytes()


class TestLabelMemory:
    """A labelled file is read with no Python object kept per row."""

    ROWS = 1 << 17

    @pytest.mark.parametrize("labels", [4, 8192])
    def test_clustered_arrays_peak(self, tmp_path, labels):
        # numpy's (value, code) records take 16 bytes a row, the values' copy 8
        # and the codes' copy 8: 32 bytes a row; a str and a list slot per row
        # would add more than 50
        rows = "".join(f"{i / 7!r},c{i % labels}\n" for i in range(self.ROWS))
        path = write_raw(tmp_path, "m.csv", "value,cluster\n" + rows)
        del rows
        cli._clustered_arrays(path)  # anything imported or cached on a first read is not counted
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            values, codes = cli._clustered_arrays(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert values.size == codes.size == self.ROWS and codes.max() == labels - 1
        assert peak < 48 * self.ROWS


# rows of one-byte labels that put the rows after them past the UTF-8 pass's first block
FILLER = "".join(f"{i / 7!r},f{i % 5}\n" for i in range(4000)).encode()
assert len(FILLER) > cli._SCAN_BLOCK

KEYED = [("value", "f8"), ("cluster", "S8")]


def labelled_file(tmp_path, labels, late):
    """A ``value,cluster`` file with one row per label in ``labels`` (bytes), after ``FILLER`` if ``late``."""
    rows = b"".join(b"%d.5,%s\n" % (i, label) for i, label in enumerate(labels))
    path = tmp_path / "k.csv"
    path.write_bytes(b"value,cluster\n" + (FILLER if late else b"") + rows)
    return str(path)


def reads_taken(path):
    """The label dtype of each ``np.loadtxt`` call that reading ``path`` makes: S8, intp, or none at all."""
    with loadtxt_spy() as spy, suppress(DataFormatError):
        _read_table(path, _clustered_header)
    return [np.dtype(call.kwargs["dtype"])["cluster"] for call in spy.call_args_list]


class TestByteKeyParity:
    """Labels read as 8-byte keys: the reference's table or fault for cells the keys cannot tell apart alone."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("late", [False, True], ids=["first-lines", "past-the-first-block"])
    @pytest.mark.parametrize(
        "labels, clusters",
        [
            ([b"abcdefg", b"abcdefh", b"abcdefg"], 2),
            ([b"abcdefgh", b"abcdefgi", b"abcdefgh"], 2),
            ([b"abcdefgh1", b"abcdefgh2", b"abcdefgh1"], 2),  # one key once cut to 8 bytes
            ([b"ab\0", b"ab", b"ab\0", b"ab"], 2),  # one key once S8 drops the NUL
            ([b"\xc3\xa9", b"\xd9\xa1", b"e", b"\xc3\xa9", b" \xd9\xa1 "], 3),  # "é", "١", "e", "é", " ١ "
        ],
        ids=["7-bytes", "8-bytes", "9-bytes", "nul", "utf-8"],
    )
    def test_labels(self, tmp_path, labels, clusters, late):
        path = labelled_file(tmp_path, labels, late)
        assert_readers_agree(path, _clustered_header)
        if b"\0" in b"".join(labels) and sys.version_info < (3, 11):
            return  # csv.reader rejects a NUL byte before Python 3.11, and so do both readers
        codes = _read_table(path, _clustered_header)[2][-len(labels):]
        assert len(set(codes.tolist())) == clusters

    @pytest.mark.parametrize("late", [False, True], ids=["first-lines", "past-the-first-block"])
    def test_lone_byte_by_a_number(self, tmp_path, late):
        # latin-1 reads 0xa0 as a no-break space, which numpy strips from a number
        path = labelled_file(tmp_path, [b"a", b"b"], late)
        Path(path).write_bytes(Path(path).read_bytes().replace(b"0.5,a", b"0.5\xa0,a"))
        assert_readers_agree(path, _clustered_header)
        with pytest.raises(DataFormatError) as info:
            _read_table(path, _clustered_header)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte (byte 0xa0)"

    def test_character_across_the_first_block_boundary(self, tmp_path):
        # "é" is two bytes; its first is the last byte of the UTF-8 pass's first block
        head = b"value,cluster\n"
        rows, pad = divmod(cli._SCAN_BLOCK - 1 - len(head) - len(b"2.0,"), len(b"1.0,a\n"))
        data = head + b"1.0,a\n" * rows + b"2.0" + b" " * pad + b",\xc3\xa9\n3.0,a\n"
        assert data[cli._SCAN_BLOCK - 1 : cli._SCAN_BLOCK + 1] == "é".encode()
        path = tmp_path / "k.csv"
        path.write_bytes(data)
        assert_readers_agree(str(path), _clustered_header)
        assert reads_taken(str(path)) == [np.dtype("S8")]

    @pytest.mark.parametrize(
        "labels, late, reads",
        [
            ([b"a", b"b"], False, ["S8"]),
            ([b"a", b"b"], True, ["S8"]),
            ([b"abcdefgh", b"a"], False, [np.intp]),  # seen in the first lines: no key read first
            ([b"abcdefgh", b"a"], True, ["S8", np.intp]),  # seen among the keys: read again
            ([b"a", b"a\0"], True, []),  # a NUL byte: the reference reads it
            ([b"a", b"\xe9"], True, []),  # not UTF-8: the reference reports it
        ],
        ids=["short", "short-late", "long", "long-late", "nul", "not-utf-8"],
    )
    def test_read_taken(self, tmp_path, labels, late, reads):
        assert reads_taken(labelled_file(tmp_path, labels, late)) == [np.dtype(read) for read in reads]


class TestNumpyByteKeys:
    """The numpy behaviour that the byte-key label read rests on."""

    def read(self, path):
        return cli._loadtxt(path, 1, KEYED, "latin-1")["cluster"]

    def test_s8_cells_keep_each_byte(self, tmp_path):
        cells = [bytes([b]) * 3 for b in range(1, 256) if b not in b'\n\r,"']
        path = labelled_file(tmp_path, cells, late=False)
        assert self.read(path).tolist() == cells

    def test_long_cell_is_cut_to_8_bytes(self, tmp_path):
        path = labelled_file(tmp_path, [b"abcdefghijkl", "éééé١".encode()], late=False)
        assert self.read(path).tolist() == [b"abcdefgh", "éééé".encode()]

    def test_trailing_nuls_are_dropped(self, tmp_path):
        path = labelled_file(tmp_path, [b"ab\0", b"ab", b"a\0b"], late=False)
        cells = self.read(path)
        assert cells.tolist() == [b"ab", b"ab", b"a\0b"]
        assert cells[0] == cells[1]

    def test_s8_views_as_little_endian_uint64(self):
        labels = [b"ab", b"abcdefgh", b"", "é".encode()]
        want = [int.from_bytes(label, "little") for label in labels]
        assert np.array(labels, "S8").view("<u8").tolist() == want
        records = np.zeros(len(labels), KEYED)
        records["cluster"] = labels
        assert records["cluster"].view("<u8").tolist() == want  # the strided field, too
        records["cluster"].view(np.intp)[:] = [3, 2, 1, 0]  # codes written over the cells
        assert records["cluster"].view(np.intp).tolist() == [3, 2, 1, 0]
        assert records["value"].tolist() == [0.0] * len(labels)


# ---------------------------------------------------------------------------
# Two-file commands read --g in a forked child while --f is read here
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork the files are read in order")

TWO_FILE_CASES = [
    (case_id, argv)
    for case_id, argv in CLI_MATRIX
    if argv[:2] in (["kstest", "two-sample"], ["kstest", "lipschitz"])
] + [
    ("two-sample-iid-f", ["kstest", "two-sample", "--f", "{tmp}/iid.csv", "--g", "{tmp}/u.csv"]),
    ("two-sample-iid-both", ["kstest", "two-sample", "--f", "{tmp}/iid.csv", "--g", "{tmp}/iid.csv"]),
    ("two-sample-bad-g", ["kstest", "two-sample", "--f", "{tmp}/f.csv", "--g", "{tmp}/bad.csv"]),
    ("two-sample-missing-g", ["kstest", "two-sample", "--f", "{tmp}/f.csv", "--g", "{tmp}/missing.csv"]),
]


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_main(argv):
    """``main(argv)`` with its exit code, stdout and stderr; no child may outlive it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert_no_child()
    return code, out.getvalue(), err.getvalue()


def run_serial(monkeypatch, run, *args):
    """``run(*args)`` with ``os.fork`` removed, so both files are read here, in order."""
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        return run(*args)


def layout(array):
    """Everything an array handed on must share with the serial path's."""
    flags = array.flags
    return (
        array.dtype.str, array.shape, array.strides, array.tobytes(),
        flags.writeable, flags.c_contiguous, flags.f_contiguous, flags.aligned,
    )


def sample_layout(sample):
    cdf = sample._ecdf
    assert cdf.values.base is cdf._padded
    arrays = (sample.values, sample.cluster_ids, cdf.jump_points, cdf.values, cdf._padded)
    return [layout(array) for array in arrays] + [sample.cluster_spec().sizes]


def panel_layout(panel):
    shared = np.shares_memory(panel.times, panel.unit_values)
    return [layout(panel.times), layout(panel.unit_values), panel.k_lip, shared]


@needs_fork
class TestForkedReadMatchesSerial:
    """The forked read gives the serial bytes, and hands on objects laid out the same."""

    @pytest.mark.parametrize("case_id, argv", TWO_FILE_CASES, ids=[case_id for case_id, _ in TWO_FILE_CASES])
    def test_matrix_case(self, case_id, argv, matrix_dir, monkeypatch):
        forked = run_matrix_case(argv, matrix_dir)
        assert_no_child()
        assert forked == run_serial(monkeypatch, run_matrix_case, argv, matrix_dir)

    def test_golden_outputs(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20231)
        f, g = str(tmp_path / "f.csv"), str(tmp_path / "g.csv")
        write_golden_sample(f, rng, 0.0)
        write_golden_sample(g, rng, 2.5)
        argv = ["kstest", "two-sample", "--f", f, "--g", g]
        expected = (GOLDEN / "kstest_two_sample.json").read_text(encoding="utf-8")
        assert run_main(argv) == run_serial(monkeypatch, run_main, argv) == (0, expected, "")
        rng = np.random.default_rng(20232)
        times = (np.arange(200) + rng.uniform(0.1, 0.9, 200)) / 200
        write_golden_panel(f, rng, times, 0.1, 0.45, 2.0)
        write_golden_panel(g, rng, times, 0.55, 0.9, 2.0)
        argv = ["kstest", "lipschitz", "--f", f, "--g", g, "--k-lip", "2.0"]
        expected = (GOLDEN / "kstest_lipschitz.json").read_text(encoding="utf-8")
        assert run_main(argv) == run_serial(monkeypatch, run_main, argv) == (0, expected, "")

    def handed_on(self, monkeypatch, test_name, argv):
        """The first two arguments ``main`` hands to ``cli.<test_name>``."""
        calls = []
        real = getattr(cli, test_name)

        def record(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, test_name, record)
        assert run_main(argv)[0] == 0
        return calls.pop()

    @pytest.mark.parametrize("f, g", [("f.csv", "g.csv"), ("iid.csv", "u.csv"), ("u.csv", "iid.csv")])
    def test_samples_handed_on(self, f, g, matrix_dir, monkeypatch):
        argv = ["kstest", "two-sample", "--f", str(matrix_dir / f), "--g", str(matrix_dir / g)]
        forked = self.handed_on(monkeypatch, "two_sample_clustered", argv)
        serial = run_serial(monkeypatch, self.handed_on, monkeypatch, "two_sample_clustered", argv)
        assert [sample_layout(s) for s in forked] == [sample_layout(s) for s in serial]
        for sample in forked:
            assert not sample.values.flags.writeable and not sample.cluster_ids.flags.writeable

    def test_panels_handed_on(self, matrix_dir, monkeypatch):
        argv = ["kstest", "lipschitz", "--f", str(matrix_dir / "pa.csv"), "--g", str(matrix_dir / "pb.csv")]
        argv += ["--k-lip", "1.0"]
        forked = self.handed_on(monkeypatch, "lipschitz_two_sample", argv)
        serial = run_serial(monkeypatch, self.handed_on, monkeypatch, "lipschitz_two_sample", argv)
        assert [panel_layout(p) for p in forked] == [panel_layout(p) for p in serial]


GOOD_SAMPLE = "value,cluster\n" + "".join(f"{i / 40!r},c{i}\n" for i in range(40))
SAMPLE_FAULTS = {
    "good": GOOD_SAMPLE,
    "missing": None,
    "ragged": "value,cluster\n1.0,a\n2.0,b,c\n",
    "non-utf8": b"value,cluster\n1.0,\xff\xfe\n",
    "empty-label": "value,cluster\n1.0,a\n2.0, \n",
}
GOOD_PANEL = "time,unit_1,unit_2\n0.0,0.2,0.4\n0.5,0.3,0.4\n1.0,0.3,0.5\n"
PANEL_FAULTS = {
    "good": GOOD_PANEL,
    "missing": None,
    "ragged": "time,unit_1\n0.0,0.5\n0.5\n",
    "non-utf8": b"time,unit_1\n0.0,\xff\n",
    "too-fast": "time,unit_1\n0.0,0.0\n0.5,1.0\n",
}


def write_fault(path: Path, content) -> str:
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        path.write_bytes(content)
    return str(path)


@needs_fork
class TestForkedReadErrorPrecedence:
    """Whatever the faults in ``--f`` and ``--g``, ``--f``'s is reported, as in the serial order."""

    def check(self, tmp_path, monkeypatch, faults, f_kind, g_kind, argv):
        f = write_fault(tmp_path / "f.csv", faults[f_kind])
        g = write_fault(tmp_path / "g.csv", faults[g_kind])
        argv = ["kstest", argv[0], "--f", f, "--g", g, *argv[1:]]
        forked = run_main(argv)
        assert forked == run_serial(monkeypatch, run_main, argv)
        code, out, err = forked
        if f_kind == g_kind == "good":
            assert code == 0 and err == ""
            return
        faulty = f if f_kind != "good" else g
        kind = f_kind if f_kind != "good" else g_kind
        assert out == ""
        assert code == (1 if kind == "missing" else 2)
        assert err.startswith("io error: " if kind == "missing" else f"error: {faulty}: ")
        assert faulty in err and (faulty == g or g not in err)

    @pytest.mark.parametrize("g_kind", list(SAMPLE_FAULTS))
    @pytest.mark.parametrize("f_kind", list(SAMPLE_FAULTS))
    def test_two_sample(self, tmp_path, monkeypatch, f_kind, g_kind):
        self.check(tmp_path, monkeypatch, SAMPLE_FAULTS, f_kind, g_kind, ["two-sample"])

    @pytest.mark.parametrize("g_kind", list(PANEL_FAULTS))
    @pytest.mark.parametrize("f_kind", list(PANEL_FAULTS))
    def test_lipschitz(self, tmp_path, monkeypatch, f_kind, g_kind):
        self.check(tmp_path, monkeypatch, PANEL_FAULTS, f_kind, g_kind, ["lipschitz", "--k-lip", "1.0"])


def in_child_only(monkeypatch, name, action):
    """Make ``cli.<name>`` run ``action()`` first when called in a child of this process."""
    parent = os.getpid()
    real = getattr(cli, name)

    def load(path):
        if os.getpid() != parent:
            action()
        return real(path)

    monkeypatch.setattr(cli, name, load)


def exit_now():
    os._exit(3)


def raise_runtime_error():
    raise RuntimeError("child failed")


def write_truncated_pickle(obj, file, protocol):
    file.write(pickle.dumps(obj, protocol=protocol)[:200])
    file.flush()
    os._exit(0)


TWO_FILE_COMMANDS = {
    "two-sample": ("_clustered_arrays", ["kstest", "two-sample", "--f", "{tmp}/f.csv", "--g", "{tmp}/g.csv"]),
    "lipschitz": (
        "_panel_matrix",
        ["kstest", "lipschitz", "--f", "{tmp}/pa.csv", "--g", "{tmp}/pb.csv", "--k-lip", "1.0"],
    ),
}


@needs_fork
class TestForkedReadChildEnds:
    """A child that ends without a result, or is killed, leaves the serial output and no process."""

    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    @pytest.mark.parametrize("action", [exit_now, raise_runtime_error], ids=["exit", "unexpected-error"])
    def test_child_ends_before_loading(self, command, action, matrix_dir, monkeypatch):
        name, argv = TWO_FILE_COMMANDS[command]
        serial = run_serial(monkeypatch, run_matrix_case, argv, matrix_dir)
        in_child_only(monkeypatch, name, action)
        assert run_matrix_case(argv, matrix_dir) == serial
        assert_no_child()

    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    def test_child_ends_mid_write(self, command, matrix_dir, monkeypatch):
        _, argv = TWO_FILE_COMMANDS[command]
        serial = run_serial(monkeypatch, run_matrix_case, argv, matrix_dir)
        monkeypatch.setattr(pickle, "dump", write_truncated_pickle)
        assert run_matrix_case(argv, matrix_dir) == serial
        assert_no_child()

    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    def test_child_writes_nothing(self, command, matrix_dir, monkeypatch, capfd):
        name, argv = TWO_FILE_COMMANDS[command]
        real = [arg.replace("{tmp}", str(matrix_dir)) for arg in argv]
        assert run_serial(monkeypatch, main, real) == 0
        serial = capfd.readouterr()

        def chatter():
            print("child stdout")
            print("child stderr", file=sys.stderr)
            warnings.warn("child warning")

        in_child_only(monkeypatch, name, chatter)
        assert main(real) == 0
        assert capfd.readouterr() == serial
        assert_no_child()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, DataFormatError], ids=["interrupt", "f-error"])
    def test_parent_failure_kills_the_child(self, interrupt, matrix_dir, monkeypatch):
        parent = os.getpid()

        def load(path):
            if os.getpid() != parent:
                time.sleep(60)
            raise interrupt("stop")

        monkeypatch.setattr(cli, "_clustered_arrays", load)
        _, argv = TWO_FILE_COMMANDS["two-sample"]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt) if interrupt is KeyboardInterrupt else nullcontext():
            run_matrix_case(argv, matrix_dir)
        assert time.monotonic() - start < 30
        assert_no_child()

    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    def test_no_process_to_spare(self, command, matrix_dir, monkeypatch):
        _, argv = TWO_FILE_COMMANDS[command]
        serial = run_serial(monkeypatch, run_matrix_case, argv, matrix_dir)
        opened = []
        real_pipe = os.pipe

        def pipe():
            opened.extend(real_pipe())
            return opened[-2], opened[-1]

        def refuse():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", refuse)
        assert run_matrix_case(argv, matrix_dir) == serial
        assert len(opened) == 2
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)


# ---------------------------------------------------------------------------
# Input that is not a regular file: a pipe or a FIFO, read once
# ---------------------------------------------------------------------------

PIPED_INPUTS = {
    # more than a pipe's buffer, so the writer waits on the reader
    "valid": "value,cluster\n" + "".join(f"{(i * 37) % 1000 / 1000!r},c{i % 50}\n" for i in range(8000)),
    "malformed-cell": "value,cluster\n1.0,a\nxyz,b\n",
    "long-cell": "value,cluster\n1.0,a\n1." + "0" * 140_000 + ",b\n",
    "empty": "",
    "header-only": "value,cluster\n",
}
WRITER_TIMEOUT = 30.0


class Hung(Exception):
    """A read that waited longer than any test input needs."""


def feed(open_writer, data):
    """A started thread that writes ``data`` through ``open_writer()`` and closes it."""

    def write():
        with suppress(BrokenPipeError), open_writer() as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def run_with_alarm(argv):
    """:func:`run_main`, failing with :class:`Hung` instead of blocking for good."""

    def hung(signum, frame):
        raise Hung(f"bvconc {' '.join(argv)} blocked for {WRITER_TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, WRITER_TIMEOUT)
    try:
        return run_main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def without_path(outcome, path):
    code, out, err = outcome
    return code, out.replace(path, "<path>"), err.replace(path, "<path>")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM to bound a blocked read")
class TestPipedInput:
    """A pipe or FIFO gives the regular file's exit code, stdout and stderr, named by its own path."""

    @staticmethod
    def argv(path):
        return ["kstest", "one-sample", "--data", path, "--ref", "normal"]

    def regular(self, tmp_path, name):
        path = write_raw(tmp_path, "regular.csv", PIPED_INPUTS[name])
        return without_path(run_main(self.argv(path)), path)

    @pytest.mark.parametrize("name", list(PIPED_INPUTS))
    def test_pipe(self, tmp_path, name):
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd to name a pipe by")
        want = self.regular(tmp_path, name)
        read_fd, write_fd = os.pipe()
        writer = feed(partial(open, write_fd, "wb"), PIPED_INPUTS[name].encode("utf-8"))
        path = f"/dev/fd/{read_fd}"
        try:
            got = without_path(run_with_alarm(self.argv(path)), path)
        finally:
            os.close(read_fd)  # a writer still waiting then sees a broken pipe
            writer.join(WRITER_TIMEOUT)
        assert not writer.is_alive()
        assert got == want
        if name != "valid":
            fault = {"empty": "empty file", "header-only": "no data rows"}.get(name, "row 3")
            assert got[0] == 2 and got[2].startswith(f"error: <path>: {fault}")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("name", list(PIPED_INPUTS))
    def test_fifo(self, tmp_path, name):
        want = self.regular(tmp_path, name)
        path = str(tmp_path / "fifo.csv")
        os.mkfifo(path)
        writer = feed(partial(open, path, "wb"), PIPED_INPUTS[name].encode("utf-8"))
        try:
            got = without_path(run_with_alarm(self.argv(path)), path)
        finally:
            if writer.is_alive():  # let a writer still waiting to open, or to write, end
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(WRITER_TIMEOUT)
        assert not writer.is_alive()
        assert got == want


def refuse_pickling():
    """Make this process's ``pickle.dump`` fail, so a forked read ends without a result."""

    def refuse(*args, **kwargs):
        raise pickle.PicklingError("refused")

    pickle.dump = refuse


@needs_fork
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM to bound a blocked read")
class TestPipedSecondFile:
    """A pipe or FIFO ``--g`` is read once, here, so a child that would have failed cannot drain it."""

    @pytest.mark.parametrize("kind", ["pipe", "fifo"])
    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    def test_child_failure_leaves_the_regular_file_outcome(
        self, command, kind, matrix_dir, tmp_path, monkeypatch
    ):
        name, argv = TWO_FILE_COMMANDS[command]
        real = [arg.replace("{tmp}", str(matrix_dir)) for arg in argv]
        at = real.index("--g") + 1
        data = Path(real[at]).read_bytes()
        want = without_path(run_main(real), real[at])
        in_child_only(monkeypatch, name, refuse_pickling)
        if kind == "pipe":
            if not os.path.isdir("/dev/fd"):
                pytest.skip("no /dev/fd to name a pipe by")
            read_fd, write_fd = os.pipe()
            writer = feed(partial(open, write_fd, "wb"), data)
            real[at] = f"/dev/fd/{read_fd}"
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes")
            real[at] = str(tmp_path / "g.fifo")
            os.mkfifo(real[at])
            writer = feed(partial(open, real[at], "wb"), data)
        try:
            got = without_path(run_with_alarm(real), real[at])
        finally:
            if kind == "pipe":
                os.close(read_fd)  # a writer still waiting then sees a broken pipe
            elif writer.is_alive():  # let a writer still waiting to open, or to write, end
                os.close(os.open(real[at], os.O_RDONLY | os.O_NONBLOCK))
            writer.join(WRITER_TIMEOUT)
        assert not writer.is_alive()
        assert got == want
        assert got[0] == 0


@needs_fork
class TestForkWithThreadsAlive:
    """From Python 3.12 ``os.fork`` warns when other threads are alive; the read stays the same.

    The warning is a ``DeprecationWarning`` that CPython reports without
    raising, even under ``warnings.simplefilter("error")``; on earlier versions
    there is no warning and this pins only the forked read itself.
    """

    @pytest.mark.parametrize("command", list(TWO_FILE_COMMANDS))
    def test_matches_serial_under_warnings_as_errors(self, command, matrix_dir, monkeypatch):
        _, argv = TWO_FILE_COMMANDS[command]
        real = [arg.replace("{tmp}", str(matrix_dir)) for arg in argv]
        serial = run_serial(monkeypatch, run_main, real)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                forked = run_main(real)  # asserts that no child is left
        finally:
            release.set()
            waiter.join()
        assert len(forks) == 1
        assert forked == serial
        assert forked[0] == 0


# ---------------------------------------------------------------------------
# One parser per process: later main() calls reuse the one the first call built
# ---------------------------------------------------------------------------


def fresh_parser() -> None:
    """Drop a parser kept from an earlier ``main`` call, so the next call builds one."""
    clear = getattr(cli.build_parser, "cache_clear", None)
    if clear is not None:
        clear()


class TestParserReuse:
    """A reused parser gives every call the bytes and exit code a freshly built one gives."""

    def test_second_call_builds_no_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        fresh_parser()
        argv = ["bound", "eval", "--c", "4", "--d", "1", "--eps", "1"]
        assert main(argv) == 0
        assert "bvconc" in built  # the first call builds the command table
        first = capsys.readouterr()
        built.clear()
        assert main(argv) == 0
        assert built == []
        assert capsys.readouterr() == first

    def test_matrix_in_order_twice(self, matrix_dir):
        # each case's first run meets the parser in the state every earlier command left
        fresh_parser()
        first = [run_matrix_case(argv, matrix_dir) for _, argv in CLI_MATRIX]
        assert [run_matrix_case(argv, matrix_dir) for _, argv in CLI_MATRIX] == first

    def test_usage_error_after_success(self):
        bad = ["simulate", "grid", "--n", "x"]
        fresh_parser()
        before = run_main(bad)
        assert before[:2] == (2, "")
        assert "argument --n: invalid int value: 'x'" in before[2]
        good = ["simulate", "grid", "--n", "8", "--m", "1", "4", "--eps", "0.25", "--trials", "10"]
        assert run_main(good)[0] == 0
        assert run_main(bad) == before


class TestImmutableDefaults:
    """List-valued option defaults are shared tuples, so no call can change another's."""

    def test_defaults_are_the_module_tuples(self):
        parser = cli.build_parser()
        alpha = parser.parse_args(["kstest", "one-sample", "--data", "x.csv"]).alpha
        eps = parser.parse_args(["simulate", "coverage", "--n", "2", "--trials", "1"]).eps
        assert alpha is DEFAULT_ALPHAS and isinstance(alpha, tuple)
        assert eps is cli.DEFAULT_COVERAGE_EPS and isinstance(eps, tuple)

    def test_explicit_values_leave_the_defaults(self, matrix_dir):
        fresh_parser()
        for argv in (
            ["kstest", "one-sample", "--data", "{tmp}/u.csv", "--alpha", "0.2"],
            ["simulate", "coverage", "--n", "100", "--trials", "300", "--seed", "7", "--eps", "0.3"],
        ):
            assert run_matrix_case(argv, matrix_dir)["exit"] == 0
        golden = json.loads(CLI_MATRIX_GOLDEN.read_text(encoding="utf-8"))["cases"]
        expected = golden["one-sample-uniform-json"]
        assert run_matrix_case(expected["argv"], matrix_dir) == expected
        report = json.loads((GOLDEN / "sim_reports.json").read_text(encoding="utf-8"))["coverage_default"]
        want = json.dumps({"command": "simulate-coverage", **report}, sort_keys=True, indent=2) + "\n"
        got = run_matrix_case(["simulate", "coverage", "--n", "100", "--trials", "300", "--seed", "7"], matrix_dir)
        assert got["exit"] == 0
        assert (got["stdout"], got["stderr"]) == (want, "")


def loadtxt_spy():
    """A patch that records every ``np.loadtxt`` call ``bvconc.cli`` makes and passes it on."""
    return mock.patch.object(cli.np, "loadtxt", wraps=np.loadtxt)


def sources(spy):
    """The first argument of each recorded ``np.loadtxt`` call."""
    return [call.args[0] for call in spy.call_args_list]


def assert_fast_matches_reference(path):
    """The array reader's sample from ``path`` has the reference's bits; returns its reference calls."""
    with mock.patch.object(cli, "_read_reference", wraps=cli._read_reference) as spy:
        fast = ingest_outcome(_ingest_clustered, path, _read_table)
    (sample, notes), (expected, expected_notes) = fast, ingest_outcome(_ingest_clustered, path, _read_reference)
    assert sample.values.tobytes() == expected.values.tobytes()
    assert sample.cluster_ids.tobytes() == expected.cluster_ids.tobytes()
    assert sample.cluster_spec().sizes == expected.cluster_spec().sizes
    assert notes == expected_notes
    return spy.call_count


# the suffixes numpy's loadtxt decompresses by when it opens a path
COMPRESSED_SUFFIXES = [".gz", ".bz2", ".xz", ".lzma"]


class NetworkLookup(Exception):
    """A host name lookup, which no CSV read may make."""


class TestPathRead:
    """numpy reads a regular file from its path, in blocks; other inputs reach it as the handle."""

    @pytest.fixture(autouse=True)
    def no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_regular_file_arrives_as_an_absolute_path(self, tmp_path, monkeypatch, relative):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        monkeypatch.chdir(tmp_path)
        with loadtxt_spy() as spy:
            _read_table("x.csv" if relative else path, _clustered_header)
        (source,) = sources(spy)
        assert isinstance(source, str) and os.path.isabs(source)
        assert source == path

    @pytest.mark.parametrize("spell", [Path, os.fsencode], ids=["pathlib", "bytes"])
    def test_path_objects_arrive_as_a_str(self, tmp_path, spell):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        with loadtxt_spy() as spy:
            sample = ingest_clustered_csv(spell(path))
        assert sources(spy) == [path]
        assert sample.values.tolist() == [1.0, 2.0, 3.0]

    def test_panel_arrives_as_an_absolute_path(self, tmp_path):
        path = write_raw(tmp_path, "t.csv", "time,unit_1\n0.0,0.1\n1.0,0.2\n")
        with loadtxt_spy() as spy:
            ingest_trajectory_csv(path, 1.0)
        assert sources(spy) == [path]

    @pytest.mark.parametrize("suffix", COMPRESSED_SUFFIXES)
    def test_compressed_name_arrives_as_the_handle(self, tmp_path, suffix):
        path = write_raw(tmp_path, "x" + suffix, CLUSTERED)
        with loadtxt_spy() as spy:
            _read_table(path, _clustered_header)
        (source,) = sources(spy)
        assert isinstance(source, io.TextIOBase)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
    def test_pipe_arrives_as_the_handle(self):
        read_fd, write_fd = os.pipe()
        os.write(write_fd, CLUSTERED.encode("utf-8"))  # far below a pipe's buffer
        os.close(write_fd)
        try:
            with loadtxt_spy() as spy:
                _, numbers, codes = _read_table(f"/dev/fd/{read_fd}", _clustered_header)
        finally:
            os.close(read_fd)
        (source,) = sources(spy)
        assert isinstance(source, io.TextIOBase)
        assert (numbers.ravel().tolist(), codes.tolist()) == ([1.0, 2.0, 3.0], [0, 0, 1])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_arrives_as_the_handle(self, tmp_path):
        path = str(tmp_path / "fifo.csv")
        os.mkfifo(path)
        writer = feed(partial(open, path, "wb"), CLUSTERED.encode("utf-8"))
        try:
            with loadtxt_spy() as spy:
                _, numbers, codes = _read_table(path, _clustered_header)
        finally:
            if writer.is_alive():  # let a writer still waiting to open, or to write, end
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(WRITER_TIMEOUT)
        assert not writer.is_alive()
        (source,) = sources(spy)
        assert isinstance(source, io.TextIOBase)
        assert (numbers.ravel().tolist(), codes.tolist()) == ([1.0, 2.0, 3.0], [0, 0, 1])

    @pytest.mark.parametrize("suffix", [".gz", ".xz"])
    def test_plain_text_with_a_compressed_suffix(self, tmp_path, suffix):
        assert_fast_matches_reference(write_raw(tmp_path, "x" + suffix, CLUSTERED))

    def test_url_shaped_relative_path(self, tmp_path, monkeypatch):
        (tmp_path / "http:" / "example.invalid").mkdir(parents=True)
        write_raw(tmp_path / "http:" / "example.invalid", "x.csv", CLUSTERED)
        lookups = []

        def lookup(*args, **kwargs):
            lookups.append(args)
            raise NetworkLookup(args)

        monkeypatch.setattr(socket, "getaddrinfo", lookup)
        monkeypatch.chdir(tmp_path)
        path = "http://example.invalid/x.csv"
        assert os.path.isfile(path)
        assert_fast_matches_reference(path)
        assert lookups == []

    def test_crlf_file_with_labels_differing_by_a_line_break(self, tmp_path):
        labels = ['"a\r\nb"', '"a\nb"', "c", " c ", '"a\rb"']
        rows = [f"{i / 7!r},{labels[i % len(labels)]}" for i in range(60_000)]
        path = write_raw(tmp_path, "crlf.csv", "\r\n".join(["value,cluster", *rows]) + "\r\n")
        assert os.path.getsize(path) >= 1 << 20
        assert_fast_matches_reference(path)
        sample, _ = _ingest_clustered(path)
        assert sample.cluster_spec().sizes == (12_000, 12_000, 24_000, 12_000)

    def test_multi_line_header_after_blank_lines(self, tmp_path):
        rows = [f"{i / 7!r},c{i % 97}" for i in range(60_000)]
        text = '\n\r\n\n"value\r\n\n",cluster\r\n' + "\n".join(rows) + "\n"
        path = write_raw(tmp_path, "header.csv", text)
        assert os.path.getsize(path) >= 1 << 20
        assert assert_fast_matches_reference(path) == 0  # read whole by numpy, past all six lines
        assert _ingest_clustered(path)[0].n == 60_000

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symbolic links")
    def test_dot_dot_after_a_symlink_resolves_as_open_does(self, tmp_path, monkeypatch):
        (tmp_path / "real" / "dir").mkdir(parents=True)
        write_raw(tmp_path / "real", "x.csv", CLUSTERED)
        write_raw(tmp_path, "x.csv", "value,cluster\n9.0,z\n")  # where ".." would lead lexically
        try:
            (tmp_path / "link").symlink_to(tmp_path / "real" / "dir", target_is_directory=True)
        except OSError as exc:  # not permitted here
            pytest.skip(str(exc))
        monkeypatch.chdir(tmp_path)
        path = os.path.join("link", "..", "x.csv")
        assert assert_fast_matches_reference(path) == 0
        assert _ingest_clustered(path)[0].values.tolist() == [1.0, 2.0, 3.0]


def racing_loadtxt(race):
    """A patch that runs ``race()`` just before ``np.loadtxt`` opens a file by its name."""
    loadtxt = np.loadtxt

    def racing(source, *args, **kwargs):
        if isinstance(source, str):
            race()
        return loadtxt(source, *args, **kwargs)

    return mock.patch.object(cli.np, "loadtxt", side_effect=racing)


OTHER_ROWS = "value,cluster\n7.0,z\n8.0,z\n9.0,z\n"


class TestNameChangedUnderTheRead:
    """A name that no longer leads to the open file once numpy has read it: the handle's bytes are read."""

    def assert_read_from_the_handle(self, path, spy):
        with mock.patch.object(cli, "_read_reference", wraps=cli._read_reference) as reference:
            _, numbers, codes = _read_table(path, _clustered_header)
        assert (numbers.ravel().tolist(), codes.tolist()) == ([1.0, 2.0, 3.0], [0, 0, 1])
        kinds = [isinstance(source, str) for source in sources(spy)]
        assert kinds == [True]  # numpy read the name once
        assert reference.call_count == 1  # then the reference read the handle's bytes

    @pytest.mark.parametrize("sibling", [True, False], ids=["gz-sibling", "no-sibling"])
    def test_removed(self, tmp_path, sibling):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        if sibling:  # numpy would decompress it in place of the missing name
            with gzip.open(path + ".gz", "wt", encoding="utf-8") as gz:
                gz.write(OTHER_ROWS)
        with racing_loadtxt(partial(os.remove, path)) as spy:
            self.assert_read_from_the_handle(path, spy)

    def test_renamed_over(self, tmp_path):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        other = write_raw(tmp_path, "y.csv", OTHER_ROWS)
        with racing_loadtxt(partial(os.replace, other, path)) as spy:
            self.assert_read_from_the_handle(path, spy)


def racing(race, target):
    """A patch of ``cli.<target>`` that runs ``race()`` just before each call delegates to it."""
    wrapped = getattr(cli, target)

    def call(*args, **kwargs):
        race()
        return wrapped(*args, **kwargs)

    return mock.patch.object(cli, target, side_effect=call)


RAGGED = "value,cluster\n1.0,a\n2.0,a,extra\n3.0,b\n"


class TestFallbackReadsTheOpenFile:
    """The long-cell check and the reference reader read the open file, never its name again."""

    def test_ragged_row_renamed_over_before_the_reference_read(self, tmp_path):
        path = write_raw(tmp_path, "x.csv", RAGGED)
        other = write_raw(tmp_path, "y.csv", OTHER_ROWS)
        with racing(partial(os.replace, other, path), "_read_reference") as spy:
            with pytest.raises(DataFormatError, match=r": row 3: expected 2 columns, got 3$"):
                _read_table(path, _clustered_header)
        assert spy.call_count == 1

    def test_ragged_row_removed_before_the_reference_read(self, tmp_path):
        path = write_raw(tmp_path, "x.csv", RAGGED)
        with racing(partial(os.remove, path), "_read_reference"):
            with pytest.raises(DataFormatError, match=r": row 3: expected 2 columns, got 3$"):
                _read_table(path, _clustered_header)

    def test_long_cell_check_reads_the_open_handle(self, tmp_path):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        long = write_raw(tmp_path, "y.csv", f"value,cluster\n{'1' * 140_000},a\n")
        with open(path, "rb") as raw:
            raw.read(4)
            os.replace(long, path)
            assert not cli._may_hold_long_cell(raw)
            assert raw.tell() == 4
        with open(path, "rb") as raw:
            assert cli._may_hold_long_cell(raw)

    def test_long_cell_check_renamed_over_during_the_read(self, tmp_path):
        path = write_raw(tmp_path, "x.csv", CLUSTERED)
        long = write_raw(tmp_path, "y.csv", f"value,cluster\n{'1' * 140_000},a\n")
        check = cli._may_hold_long_cell
        found = []

        def race_then_check(*args):
            if not found:
                os.replace(long, path)
            found.append(check(*args))
            return found[-1]

        with mock.patch.object(cli, "_may_hold_long_cell", side_effect=race_then_check):
            _, numbers, codes = _read_table(path, _clustered_header)
        # the open file's blocks, not the long cell's; numpy then read the new file by
        # its name, so the reference read the table from the handle's bytes
        assert found == [False]
        assert (numbers.ravel().tolist(), codes.tolist()) == ([1.0, 2.0, 3.0], [0, 0, 1])

    @pytest.mark.parametrize("race", ["renamed-over", "removed"])
    def test_ragged_row_raced_as_the_array_read_gives_up(self, tmp_path, race):
        # the race runs after numpy's read and before any byte of the fallback is read
        path = write_raw(tmp_path, "x.csv", RAGGED)
        other = write_raw(tmp_path, "y.csv", OTHER_ROWS)
        read_array = cli._read_array

        def give_up_then_race(*args):
            table = read_array(*args)
            assert table is None
            if race == "removed":
                os.remove(path)
            else:
                os.replace(other, path)
            return table

        with mock.patch.object(cli, "_read_array", side_effect=give_up_then_race) as spy:
            with pytest.raises(DataFormatError, match=r": row 3: expected 2 columns, got 3$"):
                _read_table(path, _clustered_header)
        assert spy.call_count == 1
