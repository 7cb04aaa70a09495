"""Exact binomial machinery, enumeration oracles, and simulation determinism."""

import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from bvconc import montecarlo
from bvconc.bounds import TailSide
from bvconc.cli import main
from bvconc.empirical import StepCdf, sup_distance_reference
from bvconc.errors import DomainError
from bvconc.montecarlo import (
    BinomialHalf,
    SimConfig,
    binomial_grid_sup,
    conjecture_refutation_experiment,
    iid_coverage,
    sharpness_experiment,
    trial_rng,
)

import oracles


class TestBinomialHalf:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_cdf_matches_scipy(self, n):
        bh = BinomialHalf(n)
        ours = np.asarray([float(bh.cdf_fraction(k)) for k in range(n + 1)])
        theirs = sps.binom.cdf(np.arange(n + 1), n, 0.5)
        assert np.allclose(ours, theirs, atol=1e-14)

    def test_cdf_fraction_exact(self):
        bh = BinomialHalf(16)
        assert bh.cdf_fraction(3) == Fraction(697, 65536)
        assert bh.cdf_fraction(4) == Fraction(2517, 65536)
        assert bh.cdf_fraction(-1) == 0
        assert bh.cdf_fraction(16) == 1

    def test_inversion_sampling_distribution(self):
        bh = BinomialHalf(16)
        draws = bh.invert(trial_rng(3, 99, 0).random(200_000))
        for k in (3, 8, 12):
            p = float(bh.cdf_fraction(k))
            emp = float(np.mean(draws <= k))
            se = math.sqrt(p * (1 - p) / draws.size)
            assert abs(emp - p) <= 5 * se


class TestTrialRng:
    def test_reproducible_and_disjoint(self):
        a = trial_rng(7, 1, 5).random(8)
        b = trial_rng(7, 1, 5).random(8)
        c = trial_rng(7, 1, 6).random(8)
        d = trial_rng(8, 1, 5).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestBinomialGridSup:
    def test_forced_single_cell(self):
        for seed in range(20):
            assert binomial_grid_sup(1, 1, seed) == 0.5

    def test_enumeration_oracle_small_grids(self):
        # full 2^(n*m) enumeration against sampled frequencies, 4-sigma atoms
        for n, m, trials in ((2, 2, 40_000), (3, 2, 30_000), (1, 4, 30_000)):
            atoms = oracles.grid_sup_distribution_exact(n, m)
            samples = np.asarray([binomial_grid_sup_trials(n, m, seed=12, trials=trials)]).ravel()
            for value, prob in atoms.items():
                p = float(prob)
                emp = float(np.mean(np.isclose(samples, value)))
                se = math.sqrt(p * (1 - p) / trials) or 1.0 / trials
                assert abs(emp - p) <= 4 * se + 1e-12, (n, m, value)

    def test_two_by_two_exact_atoms(self):
        atoms = oracles.grid_sup_distribution_exact(2, 2)
        assert atoms == {0.0: Fraction(1, 4), 0.25: Fraction(3, 4)}

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            binomial_grid_sup(0, 2, 1)
        with pytest.raises(DomainError):
            binomial_grid_sup(2, 2, -1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**64 - 1))
    @example(1, 1, 0)
    @example(16, 60, 2**64 - 1)
    def test_bits_of_the_trial_rng_reference(self, n, m, seed):
        u = BinomialHalf(n).invert(trial_rng(seed, montecarlo._STREAM_GRID, 0).random(m))
        want = float(np.max(np.abs(u - n / 2.0))) / (n * m)
        assert binomial_grid_sup(n, m, seed).hex() == want.hex()


def binomial_grid_sup_trials(n, m, seed, trials):
    """Sample the grid statistic across many trials using the per-trial streams."""
    bh = montecarlo._binomial_half(n)
    out = np.empty(trials)
    for start, block in montecarlo._trial_blocks(seed, montecarlo._STREAM_GRID, 0, trials, m):
        u = bh.invert(block)
        out[start : start + len(block)] = np.max(np.abs(u - n / 2.0), axis=1) / (n * m)
    return out


class TestConjectureRefutation:
    def test_exact_single_column_probability(self):
        report = conjecture_refutation_experiment(16, [1], 0.25, trials=500, seed=3)
        (row,) = report.rows
        assert row.exact == pytest.approx(2 * 697 / 65536, abs=1e-12)
        assert dict(report.info)["column_exceedance_probability"] == pytest.approx(
            2 * 697 / 65536, abs=1e-15
        )

    def test_exact_growth_matches_independent_computation(self):
        report = conjecture_refutation_experiment(16, [1, 8, 64], 0.25, trials=200, seed=3)
        p1 = 2 * float(sps.binom.cdf(3, 16, 0.5))
        for row in report.rows:
            assert row.exact == pytest.approx(1 - (1 - p1) ** row.m, rel=1e-9)

    def test_empirical_tracks_exact_and_grows(self):
        report = conjecture_refutation_experiment(16, [1, 16, 256], 0.25, trials=2000, seed=21)
        emps = [r.empirical for r in report.rows]
        for row in report.rows:
            tol = 4 * math.sqrt(max(row.exact * (1 - row.exact), 1e-9) / 2000)
            assert abs(row.empirical - row.exact) <= tol
        assert emps[0] <= emps[1] + 0.05 and emps[1] <= emps[2] + 0.05

    def test_naive_bound_violated_for_large_m(self):
        report = conjecture_refutation_experiment(16, [1, 1000], 0.25, trials=400, seed=5)
        first, last = report.rows
        assert not first.violation
        assert last.violation
        assert last.empirical > last.bound

    def test_preconditions(self):
        with pytest.raises(DomainError):
            conjecture_refutation_experiment(16, [1], 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            conjecture_refutation_experiment(16, [], 0.25, trials=10, seed=0)


class TestIidCoverage:
    def test_report_shape_and_no_adjusted_violations(self):
        report = iid_coverage(25, 400, seed=17, eps_grid=(0.0, 0.5, 1.0), side=TailSide.TWO_SIDED)
        adjusted = [r for r in report.rows if r.label == "adjusted"]
        raw = [r for r in report.rows if r.label == "raw"]
        assert len(adjusted) == len(raw) == 3
        assert adjusted[0].bound == 1.0 and not adjusted[0].violation
        assert not any(r.violation for r in adjusted)

    def test_one_sided_shift_applies(self):
        report = iid_coverage(25, 200, seed=2, eps_grid=(0.25,), side=TailSide.PLUS)
        adjusted = [r for r in report.rows if r.label == "adjusted"][0]
        # the shifted statistic is almost always negative at modest n
        assert adjusted.empirical <= adjusted.bound + 3 * adjusted.stderr

    def test_preconditions(self):
        with pytest.raises(DomainError):
            iid_coverage(1, 200, 0, (0.5,), TailSide.TWO_SIDED)
        with pytest.raises(DomainError):
            iid_coverage(25, 50, 0, (0.5,), TailSide.TWO_SIDED)
        with pytest.raises(DomainError):
            iid_coverage(25, 200, 0, (0.5, 0.25), TailSide.TWO_SIDED)


class TestSharpness:
    def test_m_n_and_cut_arithmetic(self):
        report = sharpness_experiment(16, 0.25, trials=300, seed=9)
        info = dict(report.info)
        assert info["k"] == 4.0
        assert info["m_n"] == 27.0
        assert info["p_le_k"] == pytest.approx(2517 / 65536, abs=1e-15)
        anchor = [r for r in report.rows if r.label == "min_le_k"][0]
        assert anchor.exact == pytest.approx(1 - (1 - 2517 / 65536) ** 27, rel=1e-12)

    def test_delta_rows_match_exact(self):
        report = sharpness_experiment(16, 0.25, trials=4000, seed=29)
        for row in report.rows:
            se = math.sqrt(max(row.exact * (1 - row.exact), 1e-9) / 4000)
            assert abs(row.empirical - row.exact) <= 4 * se, row

    def test_preconditions(self):
        with pytest.raises(DomainError):
            sharpness_experiment(16, 0.5, trials=10, seed=0)
        with pytest.raises(DomainError):
            sharpness_experiment(16, 0.01, trials=10, seed=0)

    def test_truncation_cap(self):
        report = sharpness_experiment(16, 0.1, trials=50, seed=1, m_cap=100)
        assert dict(report.info)["truncated"] == 1.0
        assert report.config.m == 100
        assert report.notes


class TestDeterminism:
    def test_identical_config_identical_report(self):
        a = iid_coverage(25, 150, seed=77, eps_grid=(0.5, 1.0), side=TailSide.TWO_SIDED)
        b = iid_coverage(25, 150, seed=77, eps_grid=(0.5, 1.0), side=TailSide.TWO_SIDED)
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_seed_changes_results(self):
        a = iid_coverage(25, 150, seed=1, eps_grid=(0.25,), side=TailSide.TWO_SIDED)
        b = iid_coverage(25, 150, seed=2, eps_grid=(0.25,), side=TailSide.TWO_SIDED)
        assert a != b

    def test_refutation_and_sharpness_deterministic(self):
        r1 = conjecture_refutation_experiment(8, [1, 4], 0.25, trials=200, seed=13)
        r2 = conjecture_refutation_experiment(8, [1, 4], 0.25, trials=200, seed=13)
        assert r1 == r2
        s1 = sharpness_experiment(16, 0.25, trials=200, seed=13)
        s2 = sharpness_experiment(16, 0.25, trials=200, seed=13)
        assert s1 == s2


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n=0, m=1, trials=1, seed=0, eps_grid=())
        with pytest.raises(DomainError):
            SimConfig(n=1, m=1, trials=1, seed=-1, eps_grid=())
        with pytest.raises(DomainError):
            SimConfig(n=1, m=1, trials=1, seed=0, eps_grid=(1.0, 0.5))


# Reports recorded in tests/golden/sim_reports.json.  The first two cannot be
# reached from the command line: a truncated sharpness run (it has notes) and a
# coverage run with an empty threshold grid (it has no rows).
SIM_REPORT_CASES = {
    "sharpness_truncated": lambda: sharpness_experiment(16, 0.1, 50, 1, m_cap=100),
    "coverage_no_rows": lambda: iid_coverage(25, 150, 7, (), TailSide.TWO_SIDED),
    "grid_default": lambda: conjecture_refutation_experiment(16, [1, 16, 256], 0.25, 300, 7),
    "coverage_default": lambda: iid_coverage(
        100, 300, 7, (0.25, 0.5, 1.0, 1.5, 2.0), TailSide.TWO_SIDED
    ),
    "coverage_plus_default": lambda: iid_coverage(25, 200, 3, (0.0, 0.5), TailSide.PLUS),
    "sharpness_default": lambda: sharpness_experiment(16, 0.25, 500, 7),
}

SIM_REPORTS_GOLDEN = Path(__file__).parent / "golden" / "sim_reports.json"


def _dump_report(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def record_sim_reports() -> None:
    """Rewrite the golden file from the current code: ``PYTHONPATH=src python tests/test_montecarlo.py``."""
    reports = {case_id: json.loads(_dump_report(make())) for case_id, make in SIM_REPORT_CASES.items()}
    SIM_REPORTS_GOLDEN.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class TestGoldenSimReports:
    """``SimReport.to_dict`` against recorded reports: same bytes, and lists where JSON has lists."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(SIM_REPORTS_GOLDEN.read_text(encoding="utf-8"))

    def test_case_ids_match_golden(self, golden):
        assert sorted(golden) == sorted(SIM_REPORT_CASES)

    @pytest.mark.parametrize("case_id", list(SIM_REPORT_CASES))
    def test_report(self, case_id, golden):
        got = SIM_REPORT_CASES[case_id]().to_dict()
        expected = golden[case_id]
        assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(expected, sort_keys=True, indent=2)
        # a tuple never equals the list JSON decodes to, so this also pins container types
        assert got == expected

    def test_golden_exercises_notes_and_empty_rows(self, golden):
        assert golden["sharpness_truncated"]["notes"]
        assert golden["coverage_no_rows"]["rows"] == []



class TestNonFiniteThresholds:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sim_config_rejects(self, bad):
        with pytest.raises(DomainError, match="eps grid must be finite"):
            SimConfig(n=1, m=1, trials=1, seed=0, eps_grid=(0.5, bad))

    def test_iid_coverage_rejects_before_simulating(self):
        with pytest.raises(DomainError, match="eps grid must be finite"):
            iid_coverage(10, 100, 0, (math.nan, math.inf), TailSide.TWO_SIDED)


class TestSharpnessCap:
    @pytest.mark.parametrize("m_cap", [0, -3])
    def test_rejects_cap_below_one(self, m_cap):
        with pytest.raises(DomainError, match=f"m_cap must be >= 1, got {m_cap}"):
            sharpness_experiment(16, 0.1, trials=10, seed=0, m_cap=m_cap)

    def test_cap_of_one(self):
        report = sharpness_experiment(16, 0.1, trials=10, seed=0, m_cap=1)
        assert report.config.m == 1
        assert report.notes


# a budget of three 16-wide rows: width 1000 gets one row per block
TINY_BLOCK_BYTES = 3 * 16 * 8


class TestTrialBlocks:
    """Row t of each block is the fresh ``trial_rng`` stream of trial first + start + t."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    # 14 is the refutation experiment's offset j * trials for j = 2, trials = 7
    @pytest.mark.parametrize("first", [0, 14])
    @pytest.mark.parametrize("width", [1, 16, 1000])
    @pytest.mark.parametrize("budget", [TINY_BLOCK_BYTES, None])
    def test_rows_match_trial_rng(self, monkeypatch, seed, first, width, budget):
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", budget)
        trials = 7
        blocks = list(montecarlo._trial_blocks(seed, 2, first, trials, width))
        sizes = [len(block) for _, block in blocks]
        assert [start for start, _ in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == trials
        for start, block in blocks:
            assert block.shape[1] == width
            for t, row in enumerate(block):
                expected = trial_rng(seed, 2, first + start + t).random(width)
                assert np.array_equal(row, expected)

    def test_block_sizes(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
        sizes = lambda width: [len(b) for _, b in montecarlo._trial_blocks(0, 2, 0, 7, width)]
        assert sizes(16) == [3, 3, 1]
        assert sizes(1000) == [1] * 7
        assert sizes(1) == [7]


BLOCK_SIZE_CASES = {
    "coverage_two_sided": lambda: iid_coverage(30, 250, 11, (0.25, 0.5, 1.0), TailSide.TWO_SIDED),
    "coverage_plus": lambda: iid_coverage(30, 250, 11, (0.0, 0.5), TailSide.PLUS),
    "coverage_minus": lambda: iid_coverage(30, 250, 11, (0.0, 0.5), TailSide.MINUS),
    "grid": lambda: conjecture_refutation_experiment(16, [1, 16, 40], 0.25, 60, 11),
    "sharpness": lambda: sharpness_experiment(16, 0.25, 90, 11),
    "sharpness_truncated": lambda: sharpness_experiment(16, 0.1, 40, 11, m_cap=50),
}


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("case_id", list(BLOCK_SIZE_CASES))
    def test_tiny_blocks_give_the_same_report(self, monkeypatch, case_id):
        default = BLOCK_SIZE_CASES[case_id]().to_dict()
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
        assert BLOCK_SIZE_CASES[case_id]().to_dict() == default


class TestUniformSupDistance:
    """The batched coverage statistic against the per-trial step-CDF path."""

    @staticmethod
    def reference(row, side):
        uniform_cdf = lambda r: np.clip(r, 0.0, 1.0)
        return sup_distance_reference(StepCdf.empirical(row), uniform_cdf, side)

    @pytest.mark.parametrize("side", list(TailSide))
    @pytest.mark.parametrize("n, grid", [(12, 8), (7, 3), (100, 10)])
    def test_tied_rows(self, side, n, grid):
        # n values on a 1/grid grid: every row has ties, many include 0.0
        rng = np.random.default_rng(5)
        block = rng.integers(0, grid, size=(200, n)) / grid
        expected = [self.reference(row, side) for row in block]
        got = montecarlo._uniform_sup_distance(block.copy(), side)
        assert got.tolist() == expected

    @pytest.mark.parametrize("side", list(TailSide))
    def test_distinct_rows(self, side):
        block = np.vstack([trial_rng(3, 3, t).random(25) for t in range(200)])
        expected = [self.reference(row, side) for row in block]
        got = montecarlo._uniform_sup_distance(block.copy(), side)
        assert got.tolist() == expected


# Coverage reports whose threshold grid starts at zero (signed zeros included),
# recorded in tests/golden/sim_reports_zero_eps.json.  They pin the rows where
# the adjusted one-sided statistic sits at or below zero on many trials.
ZERO_EPS_CASES = {
    "coverage_minus_zero": lambda: iid_coverage(25, 200, 3, (-0.0, 0.0, 0.25, 1.0), TailSide.MINUS),
    "coverage_two_sided_zero": lambda: iid_coverage(
        40, 300, 5, (-0.0, 0.0, 0.5, 1.0), TailSide.TWO_SIDED
    ),
}

ZERO_EPS_GOLDEN = Path(__file__).parent / "golden" / "sim_reports_zero_eps.json"


def record_zero_eps_reports() -> None:
    reports = {case_id: make().to_dict() for case_id, make in ZERO_EPS_CASES.items()}
    ZERO_EPS_GOLDEN.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n", encoding="utf-8")


class TestGoldenZeroEpsReports:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(ZERO_EPS_GOLDEN.read_text(encoding="utf-8"))

    def test_case_ids_match_golden(self, golden):
        assert sorted(golden) == sorted(ZERO_EPS_CASES)

    @pytest.mark.parametrize("case_id", list(ZERO_EPS_CASES))
    def test_report(self, case_id, golden):
        got = ZERO_EPS_CASES[case_id]().to_dict()
        assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(golden[case_id], sort_keys=True, indent=2)
        assert got == golden[case_id]

    def test_golden_has_signed_zero_thresholds(self, golden):
        for report in golden.values():
            assert [math.copysign(1.0, e) for e in report["config"]["eps_grid"][:2]] == [-1.0, 1.0]


U64 = st.integers(0, 2**64 - 1)


class TestTrialBlocksPlainIntState:
    """The reset state held as Python ints gives the fresh ``trial_rng`` rows, call by call."""

    @settings(max_examples=200, deadline=None)
    # the last two trials wrap the counter word to 0 and 1
    @example(seed=2**64 - 1, stream=2**64 - 1, first=2**64 - 3, width=41)
    @given(seed=U64, stream=U64, first=st.integers(0, 2**64 - 3), width=st.integers(1, 41))
    def test_rows_match_trial_rng(self, seed, stream, first, width):
        trials = 5
        rows = 0
        for start, block in montecarlo._trial_blocks(seed, stream, first, trials, width):
            for t, row in enumerate(block, start):
                expected = trial_rng(seed, stream, first + t).random(width)
                assert row.tobytes() == expected.tobytes()
                rows += 1
        assert rows == trials

    def test_interleaved_calls_share_no_state(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
        calls = [(5, 2, 0, 7, 16), (5, 3, 0, 7, 16)]
        alone = [[block.tobytes() for _, block in montecarlo._trial_blocks(*args)] for args in calls]
        interleaved = [[], []]
        # one block from the first call, then one from the second, and so on
        for pair in zip(*(montecarlo._trial_blocks(*args) for args in calls)):
            for out, (_, block) in zip(interleaved, pair):
                out.append(block.tobytes())
        assert [len(blocks) for blocks in alone] == [3, 3]
        assert interleaved == alone
        assert alone[0] != alone[1]


# each case calls one experiment with ``value`` in place of the named integer argument
INTEGER_ARGUMENT_CASES = {
    "grid_n": ("n", lambda v: conjecture_refutation_experiment(v, [1], 0.25, 10, 0)),
    "grid_m": ("m", lambda v: conjecture_refutation_experiment(16, [1, v], 0.25, 10, 0)),
    "grid_trials": ("trials", lambda v: conjecture_refutation_experiment(16, [1], 0.25, v, 0)),
    "grid_seed": ("seed", lambda v: conjecture_refutation_experiment(16, [1], 0.25, 10, v)),
    "coverage_n": ("n", lambda v: iid_coverage(v, 100, 0, (0.5,), TailSide.TWO_SIDED)),
    "coverage_trials": ("trials", lambda v: iid_coverage(10, v, 0, (0.5,), TailSide.TWO_SIDED)),
    "coverage_seed": ("seed", lambda v: iid_coverage(10, 100, v, (0.5,), TailSide.TWO_SIDED)),
    "sharpness_n": ("n", lambda v: sharpness_experiment(v, 0.25, 10, 0)),
    "sharpness_trials": ("trials", lambda v: sharpness_experiment(16, 0.25, v, 0)),
    "sharpness_m_cap": ("m_cap", lambda v: sharpness_experiment(16, 0.25, 10, 0, m_cap=v)),
    "sharpness_seed": ("seed", lambda v: sharpness_experiment(16, 0.25, 10, v)),
    "grid_sup_n": ("n", lambda v: binomial_grid_sup(v, 2, 0)),
    "grid_sup_m": ("m", lambda v: binomial_grid_sup(2, v, 0)),
    "grid_sup_seed": ("seed", lambda v: binomial_grid_sup(2, 2, v)),
}


class TestIntegerArguments:
    """Integer arguments pass ``operator.index``: no truncation, no parsing, numpy integers accepted."""

    @pytest.mark.parametrize("bad", [1.5, 16.0, "3"])
    @pytest.mark.parametrize("case_id", list(INTEGER_ARGUMENT_CASES))
    def test_non_integer_rejected(self, case_id, bad):
        name, call = INTEGER_ARGUMENT_CASES[case_id]
        message = f"{name} must be an integer, got {type(bad).__name__}"
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(bad)

    @pytest.mark.parametrize(
        "make",
        [
            lambda i: conjecture_refutation_experiment(i(16), [i(1), i(16)], 0.25, i(30), i(3)),
            lambda i: iid_coverage(i(10), i(100), i(3), (0.5,), TailSide.TWO_SIDED),
            lambda i: sharpness_experiment(i(16), 0.1, i(30), i(3), m_cap=i(50)),
        ],
    )
    @pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
    def test_numpy_integers_give_the_python_int_report(self, make, integer):
        got = make(integer)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(make(int).to_dict(), sort_keys=True)
        assert type(got.config.seed) is int

    def test_numpy_seed_accepted(self):
        assert binomial_grid_sup(2, 2, np.int64(3)) == binomial_grid_sup(2, 2, 3)

    def test_sim_config_coerces(self):
        config = SimConfig(n=np.int64(2), m=np.int32(1), trials=np.uint64(5), seed=np.int64(3), eps_grid=())
        assert [type(v) for v in (config.n, config.m, config.trials, config.seed)] == [int] * 4
        with pytest.raises(DomainError, match="^trials must be an integer, got float$"):
            SimConfig(n=2, m=1, trials=5.0, seed=0, eps_grid=())


class TestIidCoverageSide:
    def test_rejects_non_tail_side_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew trials before checking side")

        monkeypatch.setattr(montecarlo, "_trial_blocks", no_draws)
        with pytest.raises(DomainError, match="^side must be a TailSide, got str$"):
            iid_coverage(10, 100, 0, (0.5,), "two")


class TestRealArguments:
    """Real arguments and threshold grids are type-checked, never parsed from strings."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: conjecture_refutation_experiment(16, [1], "0.25", 10, 0),
                "eps must be a real number, got str",
            ),
            (lambda: sharpness_experiment(16, "0.25", 10, 0), "l_target must be a real number, got str"),
            (
                lambda: iid_coverage(10, 100, 0, ("a",), TailSide.TWO_SIDED),
                "eps must be a real number, got str",
            ),
            (
                lambda: conjecture_refutation_experiment(16, 5, 0.25, 10, 0),
                "m_list must be iterable, got int",
            ),
            (
                lambda: iid_coverage(10, 100, 0, None, TailSide.TWO_SIDED),
                "eps_grid must be iterable, got NoneType",
            ),
            (
                lambda: iid_coverage(10, 100, 0, (10**400,), TailSide.TWO_SIDED),
                "eps is too large for a float",
            ),
            (
                lambda: conjecture_refutation_experiment(16, [1], 10**400, 10, 0),
                "eps is too large for a float",
            ),
            (lambda: sharpness_experiment(16, 10**400, 10, 0), "l_target is too large for a float"),
        ],
    )
    def test_rejected(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()

    def test_sim_config_does_not_parse_strings(self):
        with pytest.raises(DomainError, match="^eps must be a real number, got str$"):
            SimConfig(n=1, m=1, trials=1, seed=0, eps_grid=(0.25, "0.5"))

    def test_real_numbers_become_floats(self):
        config = SimConfig(n=1, m=1, trials=1, seed=0, eps_grid=[0, np.float32(0.5), Fraction(3, 4)])
        assert config.eps_grid == (0.0, 0.5, 0.75)
        assert all(type(e) is float for e in config.eps_grid)

    def test_decimal_threshold_becomes_a_float(self):
        # bounds._finite takes a Decimal as a real number, so the experiments do too
        config = SimConfig(n=1, m=1, trials=1, seed=0, eps_grid=[Decimal("0.5")])
        assert config.eps_grid == (0.5,) and type(config.eps_grid[0]) is float


def _fail_wide_blocks(monkeypatch, width):
    """Make ``np.empty`` raise ``MemoryError`` for a block of one ``width``-wide row."""
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if shape == (1, width):
            raise MemoryError(f"cannot allocate {width} uniforms")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)


class TestOversizedRows:
    """A trial row too wide to allocate raises a DomainError naming its width."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda w: conjecture_refutation_experiment(16, [w], 0.25, 1, 0),
            lambda w: iid_coverage(w, 100, 0, (0.5,), TailSide.TWO_SIDED),
            lambda w: sharpness_experiment(64, 0.05, 1, 0, m_cap=w),
            lambda w: binomial_grid_sup(16, w, 0),
        ],
    )
    def test_domain_error(self, monkeypatch, call):
        width = 10**12
        _fail_wide_blocks(monkeypatch, width)
        with pytest.raises(DomainError, match=f"^a trial row of width {width} does not fit in memory$"):
            call(width)

    def test_cli_exits_2(self, monkeypatch, capsys):
        _fail_wide_blocks(monkeypatch, 10**12)
        argv = ["simulate", "grid", "--n", "16", "--m", "1000000000000", "--eps", "0.25", "--trials", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a trial row of width 1000000000000 does not fit in memory\n"



def _fail_long_results(monkeypatch, trials):
    """Make ``np.empty`` raise ``MemoryError`` for a 1-d array of ``trials`` results."""
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if shape == trials:
            raise MemoryError(f"cannot allocate {trials} results")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)


class TestOversizedResults:
    """Per-trial results too long to allocate raise a DomainError naming the trial count."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: iid_coverage(2, t, 0, (0.5,), TailSide.TWO_SIDED),
            lambda t: sharpness_experiment(64, 0.05, t, 0),
        ],
    )
    def test_domain_error(self, monkeypatch, call):
        trials = 10**13
        _fail_long_results(monkeypatch, trials)
        with pytest.raises(DomainError, match=f"^a result array of {trials} trials does not fit in memory$"):
            call(trials)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "coverage", "--n", "2"],
            ["simulate", "sharpness", "--n", "64", "--l-target", "0.05"],
        ],
    )
    def test_cli_exits_2(self, monkeypatch, capsys, argv):
        _fail_long_results(monkeypatch, 10**13)
        assert main([*argv, "--trials", "10000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a result array of 10000000000000 trials does not fit in memory\n"


if __name__ == "__main__":
    record_sim_reports()
    record_zero_eps_reports()


class TestMonteCarloArgumentChecks:
    @pytest.mark.parametrize("n", [0, -3])
    def test_binomial_needs_a_trial(self, n):
        with pytest.raises(DomainError, match=f"^binomial trial count must be >= 1, got {n}$"):
            BinomialHalf(n)

    @pytest.mark.parametrize("side", [None, 3])
    def test_coverage_side_of_any_other_type(self, side, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew trials before checking side")

        monkeypatch.setattr(montecarlo, "_trial_blocks", no_draws)
        with pytest.raises(DomainError, match=f"^side must be a TailSide, got {type(side).__name__}$"):
            iid_coverage(10, 100, 0, (0.5,), side)


class TestPastNumpysDimensionLimit:
    """A trial count or width numpy cannot even shape is reported like one that does not fit.

    numpy refuses such a shape with a ValueError before it asks for memory, so
    these runs allocate nothing.
    """

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["simulate", "coverage", "--n", "10", "--trials", str(10**20)], f"a result array of {10**20} trials"),
            (
                ["simulate", "sharpness", "--n", "16", "--l-target", "0.3", "--trials", str(10**20)],
                f"a result array of {10**20} trials",
            ),
            (
                ["simulate", "grid", "--n", "16", "--m", str(10**20), "--eps", "0.25", "--trials", "1"],
                f"a trial row of width {10**20}",
            ),
        ],
        ids=["coverage", "sharpness", "grid"],
    )
    def test_cli_exits_2(self, capsys, argv, what):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} does not fit in memory\n"

    def test_size_past_the_limit(self):
        # within the dimension limit, but more bytes than numpy can address
        with pytest.raises(DomainError, match=f"^a result array of {2**62} trials does not fit in memory$"):
            iid_coverage(2, 2**62, 0, (0.5,), TailSide.TWO_SIDED)

    def test_grid_sup_width_past_the_limit(self):
        with pytest.raises(DomainError, match=f"^a trial row of width {2**63} does not fit in memory$"):
            binomial_grid_sup(16, 2**63, 0)


class TestRefutationResults:
    """The refutation experiment allocates its per-trial events before it draws, as the others do."""

    def test_domain_error(self, monkeypatch):
        trials = 10**13
        _fail_long_results(monkeypatch, trials)
        with pytest.raises(DomainError, match=f"^a result array of {trials} trials does not fit in memory$"):
            conjecture_refutation_experiment(16, [4], 0.25, trials, 0)

    def test_cli_exits_2_past_the_dimension_limit(self, capsys):
        argv = ["simulate", "grid", "--n", "16", "--m", "4", "--eps", "0.25", "--trials", str(10**20)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a result array of {10**20} trials does not fit in memory\n"


class TestRowFrequency:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200_000).flatmap(lambda size: st.tuples(st.just(size), st.integers(0, size))))
    @example((3, 1))
    @example((49_999, 12_345))
    def test_mean_is_the_count_over_the_size(self, size_and_count):
        size, count = size_and_count
        hits = np.zeros(size, dtype=bool)
        hits[np.random.default_rng(count).permutation(size)[:count]] = True
        row = montecarlo._row("x", 0.5, hits, 0.5)
        assert row.empirical.hex() == (int(hits.sum()) / hits.size).hex()
        assert row.stderr == math.sqrt(row.empirical * (1.0 - row.empirical) / size)
