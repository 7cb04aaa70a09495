"""bvconc benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload clustered-csv --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  Inputs are
generated from ``--seed`` before any timing, into a temporary directory under
``.bench_out/`` that is removed at the end.  One untimed warm-up operation
is checked against the oracles in ``oracles.py``; every later operation must
reproduce its results exactly.  ``gc.collect()`` runs between operations,
outside the timed region.

``--trace 0`` times untraced operations for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced
operations for ``--seconds``; a traced operation calls each layer's public
functions in the order the CLI path uses them, with a span around each
call, and then probes the layers' parts.  It reports the per-layer metrics
and writes the spans to ``.bench_out/`` when the run ends.

The speed of a shared host drifts by up to 2x within minutes, more than any
regression worth catching, so end-to-end times are reported at a fixed
machine speed: ``SpeedProbe`` times a fixed task before and after every
measured interval, and each interval is rescaled by the probe's reference
time over its measured time.  The raw wall times are printed alongside.
Per-layer times are raw.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
give the same numbers with their bases.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SEED_MASK = (1 << 63) - 1


class SpeedProbe:
    """Measures machine speed with a fixed task timed around each measured interval.

    The task mixes the two kinds of work the workloads do: interpreter-bound
    parsing, string hashing and small numpy calls, and passes over a large
    working set (a 200k-key Counter, a 1M-element sort).  ``rescale`` turns an
    interval's wall time t into t * REF_S / c, with c the mean of the probe
    times just before and just after it: seconds at the speed where the
    probe takes REF_S, a typical probe time on a 2-vCPU x86-64 VM.
    """

    REF_S = 0.08

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        small = np.random.default_rng(12345).random(20_000)
        self._floats = small.tolist()
        self._sorted = np.sort(small[:100])
        self._large = np.random.default_rng(7).random(1_000_000)
        self._keys = [f"k{i}" for i in range(200_000)]
        self.times: list[float] = []

    def measure(self) -> None:
        np = self._np
        start = time.perf_counter()
        tokens = [repr(v) for v in self._floats]
        values = [float(t) for t in tokens]
        Counter(t[:5] for t in tokens)
        np.unique(np.array(values))
        for v in self._floats[:2000]:
            np.searchsorted(self._sorted, v)
        Counter(self._keys)
        tuple(self._keys)
        np.sort(self._large)
        self.times.append(time.perf_counter() - start)

    def rescale(self, raw: list[float]) -> list[float]:
        """``raw[j]`` is the interval measured between probes j and j + 1."""
        brackets = zip(self.times, self.times[1:])
        return [t * 2.0 * self.REF_S / (before + after) for t, (before, after) in zip(raw, brackets)]


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and rescaled wall times of fresh interpreters running ``import bvconc``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import bvconc"]
    run = lambda: subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, check=True)
    run()  # untimed: writes the bytecode cache
    speed, times = SpeedProbe(), []
    for _ in range(SETUP_REPEATS):
        speed.measure()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    speed.measure()
    return times, speed.rescale(times)


def run_ops(ops, budget: float, min_rounds: int, errors: list[str]):
    """Closed loop over rounds; each round runs every ``(op, same)`` pair once, in turn.

    Rounds repeat while the next one is expected to end within ``budget``
    seconds, and at least ``min_rounds`` times.  ``same(result)`` says whether
    a result matches the checked reference.  Returns, per op, the raw and the
    rescaled wall times, and the number of failed operations.
    """
    speed, raw, order, rounds, failed = SpeedProbe(), [], [], [], 0
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start + statistics.median(rounds) <= budget:
        round_start = time.perf_counter()
        for i, (op, same) in enumerate(ops):
            gc.collect()
            speed.measure()
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            raw.append(time.perf_counter() - t0)
            order.append(i)
            if error is None and not same(result):
                error = "output differs from the checked reference"
            if error is not None:
                failed += 1
                errors.append(error)
        rounds.append(time.perf_counter() - round_start)
    speed.measure()
    scaled = speed.rescale(raw)
    return [
        ([t for t, k in zip(raw, order) if k == i], [t for t, k in zip(scaled, order) if k == i])
        for i in range(len(ops))
    ], failed


def tail(times: list[float]) -> tuple[float, float, str]:
    """Highest percentile with at least ten operations beyond it (the maximum if none has)."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, f"ten of {n} operations beyond it"
    return ordered[-1], 100.0, f"maximum: {n} operations, too few for ten beyond any percentile"


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def layer_metrics(tracer, log, p50: float, per_layer: dict[str, str], two_sample_parts):
    """Per-layer metrics, and the median self time of each traced stage of an operation."""
    values = {}
    for name, unit in per_layer.items():
        if name in tracer.values:
            values[name] = float(statistics.median(tracer.values[name]))
        elif unit == "s":
            values[name] = tracer.span_median(name[: -len("_s")])
        else:
            values[name] = 0.0
    stage_ops = tracer.per_op(parent="op").values()
    names = dict.fromkeys(name for v in stage_ops for name in v)
    stages = {name: statistics.median(v[name] for v in stage_ops) for name in names}
    op_total = statistics.median(s["end"] - s["start"] for s in tracer.spans if s["name"] == "op")
    values["cli.other_s"] = p50 - sum(stages.values())
    values["trace_overhead_s"] = op_total - p50
    calls = Counter(s["op"] for s in tracer.spans if s["name"] == "kstests.two_sample_clustered")
    if calls:
        parts = tracer.per_op({"kstests.two_sample_clustered", *two_sample_parts})
        values["kstests.two_sample_self_s"] = statistics.median(
            v["kstests.two_sample_clustered"] - calls[op] * sum(v[p] for p in two_sample_parts)
            for op, v in parts.items()
            if calls[op]
        )
    values["kstests.p_upper_checked"] = float(log.p_checked)
    values["kstests.p_upper_below_oracle"] = float(log.p_below)
    values["kstests.p_upper_max_rel_gap"] = log.p_max_rel_gap
    return values, stages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bvconc" / "__init__.py").is_file():
        print(f"error: no bvconc package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bvconc

    if Path(bvconc.__file__).resolve().parent != SRC / "bvconc":
        print(f"error: imported bvconc from {bvconc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracles
    from spans import Tracer
    from workloads import TWO_SAMPLE_PARTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed & SEED_MASK)
    traced = args.trace == 1
    end_to_end, per_layer = metric_units()

    if not traced:
        setup_raw, setup_times = measure_setup()
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    errors: list[str] = []
    try:
        wl.generate(tmpdir)
        reference = wl.op()  # untimed warm-up, checked against the oracles
        log = oracles.CheckLog()
        wl.check(reference, log)
        errors.extend(log.failures)
        ref_key = wl.key(reference)
        ops = [(wl.op, lambda out: out == reference)]
        if traced:
            tracer = Tracer()

            def traced_op():
                tracer.op_id += 1
                with tracer.span("op"):
                    key, state = wl.traced_op(tracer)
                with tracer.span("probe"):
                    wl.probe(tracer, state)
                return key

            ops.append((traced_op, lambda key: key == ref_key))
        ((raw, times), *traced_times), failed = run_ops(ops, args.seconds, 2 if traced else 3, errors)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    attempted = 1 + len(times) + sum(len(t) for t, _ in traced_times)
    if not log.ok:  # every operation reproduced the wrong reference
        failed = attempted
    correct = failed == 0

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  closed loop, one client")
    print(f"check: {'PASS' if correct else 'FAIL'}  error_rate {failed / attempted:.4g} "
          f"= {failed} failed / {attempted} attempted operations (base: warm-up + timed + traced)")
    for error in dict.fromkeys(errors):
        print(f"  failure: {error}")
    print(f"kstests.p_upper_below_oracle {log.p_below} of kstests.p_upper_checked {log.p_checked}; "
          f"kstests.p_upper_max_rel_gap {log.p_max_rel_gap:.6g} (reported, not gated)")
    print(f"output sha256 {hashlib.sha256(reference.encode()).hexdigest()} (same seed, same digest)")

    if traced:
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json")
        p50 = statistics.median(raw)
        metrics, stages = layer_metrics(tracer, log, p50, per_layer, TWO_SAMPLE_PARTS)
        print(f"traced breakdown in raw wall seconds, median per operation over {len(traced_times[0][0])} "
              f"traced operations; untraced latency_p50_s {p50:.6f} s (raw) over {len(raw)} operations:")
        for name, value in stages.items():
            print(f"  {name + '_s':<40} {value:.6f} s")
        print(f"  {'cli.other_s (untraced p50 - stages)':<40} {metrics['cli.other_s']:.6f} s")
        print(f"  {'= latency_p50_s':<40} {sum(stages.values()) + metrics['cli.other_s']:.6f} s")
        print(f"per-layer metrics (0 = not on this workload's path):")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:.6g} {per_layer[name]}")
    else:
        tail_s, tail_pct, tail_note = tail(times)
        work = wl.work_per_op * len(times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_s": statistics.median(times),
            "latency_tail_s": tail_s,
            "work_per_s": work / sum(times),
            "peak_rss_mb": rss_mb,
        }
        print(f"end-to-end metrics at the speed where the speed probe takes {SpeedProbe.REF_S} s "
              f"(raw wall figures in brackets):")
        print(f"  setup_s        {metrics['setup_s']:.6f} s   median of {SETUP_REPEATS} fresh interpreters "
              f"running `import bvconc` [{statistics.median(setup_raw):.6f} s]")
        print(f"  latency_p50_s  {metrics['latency_p50_s']:.6f} s   median of {len(times)} operations "
              f"[{statistics.median(raw):.6f} s]")
        print(f"  latency_tail_s {tail_s:.6f} s   p{tail_pct:.1f} ({tail_note}) [{tail(raw)[0]:.6f} s]")
        print(f"  work_per_s     {metrics['work_per_s']:.6g} 1/s  = {wl.work_name} ({wl.work_unit}/s): "
              f"{wl.work_per_op} {wl.work_unit}/op x {len(times)} ops / {sum(times):.4f} s "
              f"[{work / sum(raw):.6g} 1/s over {sum(raw):.4f} s]")
        print(f"  peak_rss_mb    {rss_mb:.2f} MB  (this process: inputs, warm-up and timed operations)")
    units = per_layer if traced else end_to_end
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
