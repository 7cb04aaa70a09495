"""The four benchmark workloads: seeded inputs, one operation, its checks and its trace.

Every workload is a closed loop with one client: one process, no threads,
and the next operation starts when the previous one returns.

Each workload provides

* ``generate(tmpdir)``: make the inputs from the seed (not timed);
* ``op()``: one untraced operation, returning its output as text;
* ``check(text, log)``: compare that output with ``oracles``;
* ``key(text)`` and ``traced_op(tracer)``: the same results reached through
  the traced calls, which must equal the untraced ones;
* ``probe(tracer, state)``: per-layer measurements outside the operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np

import oracles
from bvconc import cli, coefficients, empirical, kstests, montecarlo
from bvconc.bounds import TailSide, critical_statistic

ROOT2 = math.sqrt(2.0)


def normal_cdf(r):
    """Scalar-only standard normal CDF, as the CLI's ``--ref normal`` builds it."""
    return 0.5 * (1.0 + math.erf(r / ROOT2))


def per_call_us(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _critical_key(critical) -> tuple:
    return tuple(sorted((float(a), v) for a, v in critical.items()))


def clustered_values(rng, n: int, size_lo: int, size_hi: int, shift: float):
    """n values in clusters of uniform size in [size_lo, size_hi], rows shuffled.

    Value = cluster effect N(0, 1/2) + noise N(0, 1/2) + shift, so the pooled
    marginal is N(shift, 1).  Returns (values, integer cluster codes).
    """
    sizes = rng.integers(size_lo, size_hi + 1, size=n // size_lo + 1)
    ends = np.cumsum(sizes)
    k = int(np.searchsorted(ends, n)) + 1
    sizes = sizes[:k]
    sizes[-1] -= ends[k - 1] - n
    codes = np.repeat(np.arange(k), sizes)
    values = rng.normal(0.0, math.sqrt(0.5), k)[codes] + rng.normal(0.0, math.sqrt(0.5), n) + shift
    order = rng.permutation(n)
    return values[order], codes[order]


def _check_two_sample(log, stat, side, nu, xi, p_upper, critical, x_f, x_g, codes_f, codes_g, what):
    plus, minus = oracles.two_sample_parts(x_f, x_g)
    want = {"two": max(plus, minus), "plus": plus, "minus": minus}[side]
    two = side == "two"
    log.close_abs(stat, want, oracles.ABS_STAT, f"{what} statistic")
    log.close_rel(nu, oracles.effective_size(codes_f), oracles.REL_COEF, f"{what} nu")
    log.close_rel(xi, oracles.effective_size(codes_g), oracles.REL_COEF, f"{what} xi")
    log.p_upper(p_upper, oracles.two_sample_p(nu, xi, two, stat), f"{what} p_upper")
    oracles.check_critical(log, critical, lambda e: oracles.two_sample_p(nu, xi, two, e), f"{what}")


# spans that probe_two_sample records; two_sample_clustered runs each of them
# (cluster_spec and ecdf once per sample) inside every call
TWO_SAMPLE_PARTS = ("empirical.cluster_spec", "empirical.ecdf", "empirical.sup_distance_two_sample")


def probe_two_sample(tr, f, g) -> None:
    """Time the parts of one two_sample_clustered call on samples f and g."""
    specs, cdfs = [], []
    for sample in (f, g):
        with tr.span("empirical.cluster_spec"):
            specs.append(sample.cluster_spec())
    for spec in specs:
        with tr.span("coefficients.nu"):
            spec.nu_n
            coefficients.mcdiarmid_from_clusters(spec)
    for sample in (f, g):
        with tr.span("empirical.ecdf"):
            cdfs.append(empirical.ecdf(sample))
    with tr.span("empirical.sup_distance_two_sample"):
        empirical.sup_distance_two_sample(*cdfs, TailSide.TWO_SIDED)
    tr.record("empirical.jump_points", np.union1d(cdfs[0].jump_points, cdfs[1].jump_points).size)
    tr.record("coefficients.clusters", specs[0].k + specs[1].k)
    tr.record("coefficients.nu", specs[0].nu_n)


class Workload:
    name = ""
    # work_per_s counts work_unit; work_name is its workload-specific name
    work_name, work_unit, work_per_op = "", "", 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def key(self, text: str):
        return text


class ClusteredCsv(Workload):
    name = "clustered-csv"
    work_name, work_unit = "rows_per_s", "rows"
    rows, size_lo, size_hi, shift = 200_000, 1, 39, 0.5
    work_per_op = 2 * rows

    def generate(self, tmpdir) -> None:
        self.x, self.codes, self.paths = [], [], []
        for label, shift in (("f", 0.0), ("g", self.shift)):
            values, codes = clustered_values(self.rng, self.rows, self.size_lo, self.size_hi, shift)
            path = tmpdir / f"{label}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("value,cluster\n")
                fh.write("".join(f"{v!r},c{c}\n" for v, c in zip(values.tolist(), codes.tolist())))
            self.x.append(values)
            self.codes.append(codes)
            self.paths.append(str(path))
        # the shift must put the statistic between the 5% and 0.01% critical values
        stat = max(oracles.two_sample_parts(*self.x))
        p = oracles.two_sample_p(*(oracles.effective_size(c) for c in self.codes), True, stat)
        if not 1e-4 < p < 0.05:
            raise RuntimeError(f"generated statistic {stat} has p = {p}, outside (1e-4, 0.05)")
        self.argv = ["kstest", "two-sample", "--f", self.paths[0], "--g", self.paths[1]]

    def op(self) -> str:
        return run_cli(self.argv)

    def check(self, text, log) -> None:
        out = json.loads(text)
        log.require(out["n_f"] == self.rows and out["n_g"] == self.rows, "row counts")
        log.require(0.0 < out["p_upper"] < 1.0, "p_upper strictly inside (0, 1)")
        _check_two_sample(
            log, out["statistic"], out["side"], out["nu"], out["xi"], out["p_upper"],
            out["critical"], *self.x, *self.codes, "two-sample",
        )

    def key(self, text):
        out = json.loads(text)
        return (out["statistic"], out["p_upper"], _critical_key(out["critical"]), out["nu"], out["xi"])

    def traced_op(self, tr):
        with tr.span("cli.ingest_clustered_csv"):
            f = cli.ingest_clustered_csv(self.paths[0])
        with tr.span("cli.ingest_clustered_csv"):
            g = cli.ingest_clustered_csv(self.paths[1])
        with tr.span("kstests.two_sample_clustered"):
            o = kstests.two_sample_clustered(f, g, TailSide.TWO_SIDED)
        key = (o.statistic, o.p_upper, _critical_key(o.critical_at), o.params[0].c, o.params[1].c)
        return key, (f, g)

    def probe(self, tr, state) -> None:
        probe_two_sample(tr, *state)
        tr.record("cli.rows", self.work_per_op)
        tr.record("cli.cells", 2 * self.work_per_op)


class ClusteredApi(Workload):
    name = "clustered-api"
    work_name, work_unit = "obs_per_s", "observations"
    obs, size_lo, size_hi, shift = 1_000_000, 13, 27, 0.2
    work_per_op = 2 * obs

    def generate(self, tmpdir) -> None:
        self.x, self.codes, self.pairs = [], [], []
        for shift in (0.0, self.shift):
            values, codes = clustered_values(self.rng, self.obs, self.size_lo, self.size_hi, shift)
            labels = np.array([f"s{i}" for i in range(int(codes.max()) + 1)], dtype=object)
            self.pairs.append(list(zip(values.tolist(), labels[codes].tolist())))
            self.x.append(values)
            self.codes.append(codes)

    def op(self) -> str:
        f = empirical.ClusteredSample.from_pairs(self.pairs[0])
        g = empirical.ClusteredSample.from_pairs(self.pairs[1])
        return self._canon((
            kstests.two_sample_clustered(f, g, TailSide.TWO_SIDED),
            kstests.two_sample_clustered(f, g, TailSide.PLUS),
            kstests.one_sample_clustered(f, normal_cdf, TailSide.PLUS),
        ))

    @staticmethod
    def _canon(outcomes) -> str:
        rows = []
        for o in outcomes:
            params = o.params if isinstance(o.params, tuple) else (o.params,)
            rows.append({
                "statistic": o.statistic, "side": o.side.value, "p_upper": o.p_upper,
                "critical": [[a, v] for a, v in _critical_key(o.critical_at)],
                "params": [[p.c, p.d] for p in params],
            })
        return json.dumps(rows)

    def check(self, text, log) -> None:
        two, plus, one = json.loads(text)
        for out, what in ((two, "two-sided"), (plus, "plus")):
            (nu, _), (xi, _) = out["params"]
            _check_two_sample(
                log, out["statistic"], out["side"], nu, xi, out["p_upper"],
                dict(out["critical"]), *self.x, *self.codes, what,
            )
        c, d = one["params"][0]
        log.close_rel(c, oracles.effective_size(self.codes[0]), oracles.REL_COEF, "one-sample c")
        log.require(d == 1.0, "one-sample d")
        points = np.unique(self.x[0])
        ref = np.frompyfunc(normal_cdf, 1, 1)(points).astype(float)
        want, _ = oracles.one_sample_parts(self.x[0], ref, points)
        log.close_abs(one["statistic"], want, oracles.ABS_STAT, "one-sample statistic")
        log.p_upper(one["p_upper"], oracles.single_p(c, d, False, one["statistic"]), "one-sample p_upper")
        oracles.check_critical(
            log, dict(one["critical"]), lambda e: oracles.single_p(c, d, False, e), "one-sample"
        )

    def traced_op(self, tr):
        with tr.span("empirical.from_pairs"):
            f = empirical.ClusteredSample.from_pairs(self.pairs[0])
        with tr.span("empirical.from_pairs"):
            g = empirical.ClusteredSample.from_pairs(self.pairs[1])
        outcomes = []
        for side in (TailSide.TWO_SIDED, TailSide.PLUS):
            with tr.span("kstests.two_sample_clustered"):
                outcomes.append(kstests.two_sample_clustered(f, g, side))
        with tr.span("kstests.one_sample_clustered"):
            outcomes.append(kstests.one_sample_clustered(f, normal_cdf, TailSide.PLUS))
        return self._canon(outcomes), (f, g, outcomes[0].params[0])

    def probe(self, tr, state) -> None:
        f, g, params = state
        probe_two_sample(tr, f, g)
        calls = array_points = 0

        def counted_cdf(r):
            nonlocal calls, array_points
            calls += 1
            out = normal_cdf(r)  # raises on arrays, as a scalar-only callable does
            if isinstance(r, np.ndarray):
                array_points += r.size
            return out

        cdf = empirical.ecdf(f)
        with tr.span("empirical.sup_distance_reference"):
            empirical.sup_distance_reference(cdf, counted_cdf, TailSide.PLUS)
        tr.record("empirical.ref_calls", calls)
        tr.record("empirical.ref_vectorized_ratio", array_points / cdf.jump_points.size)
        tr.record("bounds.critical_statistic_us", per_call_us(
            lambda: critical_statistic(params, TailSide.PLUS, 0.05), 2000))


class PanelCsv(Workload):
    name = "panel-csv"
    work_name, work_unit = "cells_per_s", "cells"
    units, points, k_lip = 400, 1000, 1.0
    work_per_op = 2 * units * points

    def generate(self, tmpdir) -> None:
        n, t = self.units, self.points
        self.times = (np.arange(t) + self.rng.uniform(0.1, 0.9, t)) / t
        self.vals, self.paths = [], []
        header = "time," + ",".join(f"unit_{u}" for u in range(1, n + 1)) + "\n"
        for label, lo, hi in (("a", 0.1, 0.45), ("b", 0.55, 0.9)):
            vals = np.empty((n, t))
            vals[:, 0] = self.rng.uniform(lo, hi, n)
            # steps of at most 0.9 * K * dt keep each unit K-Lipschitz; clipping only shrinks them
            steps = self.rng.uniform(-0.9, 0.9, (n, t - 1)) * self.k_lip * np.diff(self.times)
            for j in range(t - 1):
                vals[:, j + 1] = np.clip(vals[:, j] + steps[:, j], 0.0, 1.0)
            rows = np.column_stack((self.times, vals.T)).tolist()
            path = tmpdir / f"{label}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header)
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))
            self.vals.append(vals)
            self.paths.append(str(path))
        self.argv = [
            "kstest", "lipschitz", "--f", self.paths[0], "--g", self.paths[1], "--k-lip", repr(self.k_lip),
        ]

    def op(self) -> str:
        return run_cli(self.argv)

    def check(self, text, log) -> None:
        out = json.loads(text)
        lower, upper = oracles.lipschitz_interval(self.times, *self.vals, self.k_lip)
        log.close_rel(out["interval"][0], lower, oracles.REL_COEF, "interval lower")
        log.close_rel(out["interval"][1], upper, oracles.REL_COEF, "interval upper")
        log.close_rel(out["statistic"], upper, oracles.REL_COEF, "statistic (upper end)")
        log.require(out["conservative"] is True and out["n_units"] == self.units, "panel flags")
        c, d = out["c"], out["d"]
        log.close_rel(c, self.units / 4, oracles.REL_COEF, "c")
        log.close_rel(d, 4 * (1 + self.k_lip) ** 2, oracles.REL_COEF, "d")
        log.p_upper(out["p_upper"], oracles.single_p(c, d, True, out["statistic"]), "lipschitz p_upper")
        oracles.check_critical(log, out["critical"], lambda e: oracles.single_p(c, d, True, e), "lipschitz")

    def key(self, text):
        out = json.loads(text)
        return (out["statistic"], out["p_upper"], _critical_key(out["critical"]), tuple(out["interval"]))

    def traced_op(self, tr):
        panels = []
        for path in self.paths:
            with tr.span("cli.ingest_trajectory_csv"):
                panels.append(cli.ingest_trajectory_csv(path, self.k_lip))
        with tr.span("empirical.lipschitz_sup_interval"):
            interval = empirical.lipschitz_sup_interval(*panels)
        with tr.span("kstests.lipschitz_two_sample"):
            o = kstests.lipschitz_two_sample(*panels)
        return (o.statistic, o.p_upper, _critical_key(o.critical_at), interval), (panels, o.params)

    def probe(self, tr, state) -> None:
        panels, params = state
        for p in panels:
            with tr.span("empirical.trajectory_panel"):
                empirical.TrajectoryPanel(times=p.times, unit_values=p.unit_values, k_lip=p.k_lip)
        tr.record("bounds.critical_statistic_us", per_call_us(
            lambda: critical_statistic(params, TailSide.TWO_SIDED, 0.05), 2000))
        tr.record("cli.rows", 2 * self.points)
        tr.record("cli.cells", self.work_per_op)


class MonteCarlo(Workload):
    name = "montecarlo"
    work_name, work_unit = "trials_per_s", "trials"
    coverage = dict(n=100, trials=10_000)
    grid = dict(n=16, m=(1, 16, 256, 1000), eps=0.25, trials=2_000)
    sharp = dict(n=16, l_target=0.25, trials=5_000)
    work_per_op = coverage["trials"] + len(grid["m"]) * grid["trials"] + sharp["trials"]

    def generate(self, tmpdir) -> None:
        s = str(self.seed)
        c, g, h = self.coverage, self.grid, self.sharp
        self.argvs = [
            ["simulate", "coverage", "--n", str(c["n"]), "--trials", str(c["trials"]), "--seed", s],
            ["simulate", "grid", "--n", str(g["n"]), "--m", *map(str, g["m"]), "--eps", repr(g["eps"]),
             "--trials", str(g["trials"]), "--seed", s],
            ["simulate", "sharpness", "--n", str(h["n"]), "--l-target", repr(h["l_target"]),
             "--trials", str(h["trials"]), "--seed", s],
        ]

    def op(self) -> str:
        return "".join(run_cli(argv) for argv in self.argvs)

    @staticmethod
    def _split(text: str) -> list[dict]:
        decoder, docs, pos = json.JSONDecoder(), [], 0
        while pos < len(text):
            doc, pos = decoder.raw_decode(text, pos)
            docs.append(doc)
            while pos < len(text) and text[pos].isspace():
                pos += 1
        return docs

    def check(self, text, log) -> None:
        cov, grid, sharp = self._split(text)
        g, h = self.grid, self.sharp
        log.require(cov["config"]["trials"] == self.coverage["trials"] and len(cov["rows"]) == 10, "coverage shape")
        log.require([r["m"] for r in grid["rows"]] == list(g["m"]), "grid m column")
        for r in grid["rows"]:
            exact = oracles.grid_exceedance(g["n"], g["eps"], r["m"])
            log.close_rel(r["exact"], exact, oracles.REL_EXACT, f"grid exact m={r['m']}")
            oracles.check_frequency(log, r["empirical"], float(exact), g["trials"], f"grid m={r['m']}")
        n, lt = h["n"], h["l_target"]
        k = round(lt * n)
        p_le_k = sum((oracles.binom_half(n, u) for u in range(k + 1)), Fraction(0))
        m_n = math.ceil(1 / p_le_k)
        log.close_rel(sharp["info"]["k"], k, oracles.REL_EXACT, "sharpness k")
        log.close_rel(sharp["info"]["m_n"], m_n, oracles.REL_EXACT, "sharpness m_n")
        expected = [oracles.min_below(n, m_n, Fraction(k), strict=False)]
        for delta in (-0.1, 0.0, 0.1):
            threshold = Fraction(n, 2) - (1 + Fraction(delta)) * n * (
                Fraction(1, 2) - Fraction(lt))
            expected.append(oracles.min_below(n, m_n, threshold, strict=True))
        log.require(len(sharp["rows"]) == len(expected), "sharpness rows")
        for r, exact in zip(sharp["rows"], expected):
            log.require(r["m"] == m_n, f"sharpness {r['label']} m")
            log.close_rel(r["exact"], exact, oracles.REL_EXACT, f"sharpness {r['label']} exact")
            oracles.check_frequency(log, r["empirical"], float(exact), h["trials"], f"sharpness {r['label']}")

    def key(self, text):
        return tuple(
            tuple((r["label"], r["eps"], r["empirical"], r["exact"]) for r in doc["rows"])
            for doc in self._split(text)
        )

    def traced_op(self, tr):
        c, g, h = self.coverage, self.grid, self.sharp
        with tr.span("montecarlo.iid_coverage"):
            cov = montecarlo.iid_coverage(c["n"], c["trials"], self.seed, cli.DEFAULT_COVERAGE_EPS, TailSide.TWO_SIDED)
        with tr.span("montecarlo.conjecture_refutation"):
            grid = montecarlo.conjecture_refutation_experiment(g["n"], g["m"], g["eps"], g["trials"], self.seed)
        with tr.span("montecarlo.sharpness"):
            sharp = montecarlo.sharpness_experiment(h["n"], h["l_target"], h["trials"], self.seed)
        reports = (cov, grid, sharp)
        key = tuple(tuple((r.label, r.eps, r.empirical, r.exact) for r in rep.rows) for rep in reports)
        return key, reports

    def probe(self, tr, reports) -> None:
        cov, grid, sharp = reports
        c = self.coverage
        tr.record("montecarlo.trials", cov.config.trials + len(grid.rows) * grid.config.trials + sharp.config.trials)
        tr.record("montecarlo.draws", cov.config.n * cov.config.trials
                  + sum(r.m for r in grid.rows) * grid.config.trials + sharp.config.m * sharp.config.trials)
        rng = np.random.default_rng(self.seed)
        u = np.sort(rng.random(c["n"]))
        values = np.arange(1, c["n"] + 1) / c["n"]
        tr.record("montecarlo.trial_rng_us", per_call_us(lambda: montecarlo.trial_rng(self.seed, 3, 7), 2000))
        tr.record("empirical.step_cdf_us", per_call_us(lambda: empirical.StepCdf(u, values), 2000))
        step = empirical.StepCdf(u, values)
        uniform = lambda r: np.clip(r, 0.0, 1.0)
        tr.record("empirical.sup_distance_reference_us", per_call_us(
            lambda: empirical.sup_distance_reference(step, uniform, TailSide.TWO_SIDED), 2000))


WORKLOADS = {w.name: w for w in (ClusteredCsv, ClusteredApi, PanelCsv, MonteCarlo)}
