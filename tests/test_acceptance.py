"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from bvconc.bounds import (
    TailSide,
    denominator,
    entropy_exact_expfamily,
    one_sided_shift,
    residual,
    residual_star,
)
from bvconc.cli import main
from bvconc.coefficients import ClusterSpec, mcdiarmid_from_clusters
from bvconc.empirical import ClusteredSample, ecdf, sup_distance_two_sample
from bvconc.kstests import two_sample_clustered
from bvconc.montecarlo import (
    _STREAM_GRID,
    _binomial_half,
    _trial_blocks,
    conjecture_refutation_experiment,
    iid_coverage,
    sharpness_experiment,
)

import oracles


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_closed_form_fidelity():
    with criterion(1, "closed-form fidelity"):
        checks = [
            (residual, 4.0, oracles.residual_hp(4), 1.9091),
            (residual_star, 4.0, oracles.residual_star_hp(4), 1.1239),
            (denominator, 4.0, oracles.denominator_hp(4), 3.9091),
            (denominator, 42.0, oracles.denominator_hp(42), 4.1319),
            (one_sided_shift, 4.0, oracles.one_sided_shift_hp(4), 2.3013),
        ]
        for func, x, oracle, spot in checks:
            oracle = float(oracle)
            assert abs(func(x) - oracle) <= 1e-3, (func.__name__, x)
            # the implementation reproduces the 50-digit oracle to rounding error
            assert abs(func(x) - oracle) <= 1e-12, (func.__name__, x)
            # the published spot value is itself within the stated tolerance
            assert abs(spot - oracle) <= 1e-3, (func.__name__, x, spot)


def test_criterion_2_entropy_envelope():
    with criterion(2, "entropy envelope"):
        for x in (1.5, 2.0, 4.0, 16.0, 1e3, 1e6, 1e9):
            ev = entropy_exact_expfamily(x)
            margin = denominator(x) - ev.value
            assert margin >= -1e-9, (x, margin)


def test_criterion_3_coverage_suite():
    with criterion(3, "coverage suite"):
        eps_grid = (0.25, 0.5, 1.0, 1.5, 2.0)
        for n in (25, 100, 400):
            for side in (TailSide.TWO_SIDED, TailSide.PLUS, TailSide.MINUS):
                report = iid_coverage(n, 10_000, seed=2026, eps_grid=eps_grid, side=side)
                adjusted = [r for r in report.rows if r.label == "adjusted"]
                assert len(adjusted) == len(eps_grid)
                for row in adjusted:
                    assert not row.violation, (n, side, row)
                    assert row.empirical <= row.bound + 3.0 * row.stderr, (n, side, row)


def test_criterion_4_exact_enumeration():
    with criterion(4, "exact enumeration (2,2)"):
        atoms = oracles.grid_sup_distribution_exact(2, 2)
        assert atoms == {0.0: Fraction(1, 4), 0.25: Fraction(3, 4)}
        trials = 100_000
        bh = _binomial_half(2)
        stats = np.empty(trials)
        for start, block in _trial_blocks(2026, _STREAM_GRID, 0, trials, 2):
            u = bh.invert(block)
            stats[start : start + len(block)] = np.max(np.abs(u - 1.0), axis=1) / 4.0
        for value, prob in atoms.items():
            p = float(prob)
            emp = float(np.mean(stats == value))
            se = math.sqrt(p * (1.0 - p) / trials)
            assert abs(emp - p) <= 4.0 * se, (value, emp, p)


def test_criterion_5_conjecture_refutation():
    with criterion(5, "conjecture refutation"):
        report = conjecture_refutation_experiment(16, [1, 1000], 0.25, trials=2000, seed=2026)
        row_m1, row_m1000 = report.rows
        exact_m1 = 2 * 697 / 65536
        assert abs(row_m1.exact - 0.02127) <= 1e-5
        assert row_m1.exact == pytest.approx(exact_m1, abs=1e-12)
        assert row_m1000.empirical >= 0.999
        assert row_m1000.exact >= 1.0 - 5e-10


def test_criterion_6_sharpness_harness():
    with criterion(6, "sharpness harness"):
        report = sharpness_experiment(16, 0.25, trials=5000, seed=2026)
        info = dict(report.info)
        assert info["m_n"] == 27.0
        assert info["k"] == 4.0
        anchor = [r for r in report.rows if r.label == "min_le_k"][0]
        expected = float(1 - (1 - Fraction(2517, 65536)) ** 27)
        assert anchor.exact == pytest.approx(expected, abs=1e-12)
        se = math.sqrt(expected * (1.0 - expected) / 5000)
        assert abs(anchor.empirical - expected) <= 3.0 * se


def test_criterion_7_statistic_oracle():
    with criterion(7, "statistic oracle"):
        rng = np.random.default_rng(2026)
        for trial in range(1000):
            nx = int(rng.integers(1, 21))
            ny = int(rng.integers(1, 21))
            # lattice-valued samples keep every plateau wider than the grid step
            xs = rng.integers(0, 101, size=nx) / 100.0
            ys = rng.integers(0, 101, size=ny) / 100.0
            f, g = ecdf(ClusteredSample.iid(xs)), ecdf(ClusteredSample.iid(ys))
            plus, minus, two = oracles.dense_grid_sup_two_sample(xs, ys, -1.0, 2.0)
            assert abs(sup_distance_two_sample(f, g, TailSide.PLUS) - plus) <= 1e-12
            assert abs(sup_distance_two_sample(f, g, TailSide.MINUS) - minus) <= 1e-12
            assert abs(sup_distance_two_sample(f, g, TailSide.TWO_SIDED) - two) <= 1e-12


def test_criterion_8_triangular_inequality_oracle():
    with criterion(8, "triangular inequality oracle"):
        from test_empirical import exact_triangle_rhs

        rng = np.random.default_rng(2027)
        violations = 0
        for _ in range(500):
            k = int(rng.integers(1, 9))
            if k > 1:
                breaks = np.concatenate(([0.0], np.sort(rng.uniform(size=k - 1))))
            else:
                breaks = np.array([0.0])
            values = np.sort(rng.uniform(size=k))
            sup_plus = max(max(c - b for c, b in zip(values, breaks)), 0.0)
            for alpha, p in itertools.product((0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 2.0)):
                lhs = math.exp(p * alpha * sup_plus) - 1.0
                rhs = exact_triangle_rhs(breaks, values, alpha, p)
                if lhs > rhs * (1.0 + 1e-12) + 1e-12:
                    violations += 1
        assert violations == 0


def test_criterion_9_coefficient_identities():
    with criterion(9, "coefficient identities"):
        rng = np.random.default_rng(2028)
        for _ in range(1000):
            k = int(rng.integers(1, 60))
            sizes = rng.integers(1, 80, size=k).tolist()
            spec = ClusterSpec(sizes)
            assert abs(mcdiarmid_from_clusters(spec) - spec.nu_n) <= 1e-12 * spec.nu_n
        for k, m in ((1, 5), (7, 1), (12, 9), (400, 3)):
            spec = ClusterSpec([m] * k)
            assert spec.nu_n == float(k)
            assert mcdiarmid_from_clusters(spec) == float(k)


def test_criterion_10_cli_determinism_and_round_trip(tmp_path, capsys):
    with criterion(10, "CLI determinism and round-trip"):
        commands = [
            ["simulate", "coverage", "--n", "50", "--trials", "300", "--seed", "7"],
            ["simulate", "grid", "--n", "8", "--m", "1", "16", "--eps", "0.25",
             "--trials", "200", "--seed", "7"],
            ["simulate", "sharpness", "--n", "16", "--l-target", "0.25",
             "--trials", "300", "--seed", "7"],
        ]
        for argv in commands:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second
            assert json.loads(first) == json.loads(second)

        # JSON round-trip reproduces the in-memory outcome exactly
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("value,cluster\n0.12,a\n0.55,a\n0.91,b\n0.33,b\n0.72,c\n0.08,c\n")
        b.write_text("value,cluster\n0.22,x\n0.45,x\n0.81,y\n0.37,y\n0.66,z\n0.99,z\n")
        assert main(["kstest", "two-sample", "--f", str(a), "--g", str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        from bvconc.cli import _ingest_clustered

        sample_f, _ = _ingest_clustered(str(a))
        sample_g, _ = _ingest_clustered(str(b))
        outcome = two_sample_clustered(sample_f, sample_g, TailSide.TWO_SIDED)
        assert payload["statistic"] == outcome.statistic
        assert payload["p_upper"] == outcome.p_upper
        assert payload["p_upper_raw"] == outcome.p_upper_raw
        assert payload["nu"] == outcome.params[0].c
        assert payload["xi"] == outcome.params[1].c
        for alpha, crit in outcome.critical_at.items():
            assert payload["critical"][repr(alpha)] == crit
