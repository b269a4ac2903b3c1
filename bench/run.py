#!/usr/bin/env python3
"""catgeo benchmark: runs one workload and prints one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0

The documents are generated from the seed, catgeo is imported from
``src/`` of the checkout, and every op's output is checked against the
oracles in ``oracles.py``.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced quarters, and the result carries the per-layer metrics.
Progress and a summary go to stderr; the last stdout line is the result.
See README.md in this directory for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 5
MIN_SAMPLES = 120  # so that at least ten latencies lie above p90; a run goes on until it has them

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SPANS = (
    "cli.main",
    "documents.load_category",
    "category.build_thin",
    "category.build_free",
    "category.build_explicit",
    "category.validate_axioms",
    "vectors.atomic_basis",
    "vectors.compute_norms",
    "vectors.distance",
    "vectors.vec_add",
    "geometry.clifford_report",
    "geometry.anticommutator",
    "geometry.inner",
    "geometry.outer",
    "geometry.geometric",
    "geometry.is_orthogonal",
    "geometry.is_parallel",
    "realline.interval_products",
    "realline.interval_add",
    "render.export_dot",
    "render.export_embedding",
)
IMPORTS = ("catgeo", "catgeo.errors", "catgeo.category", "catgeo.documents", "catgeo.vectors",
           "catgeo.geometry", "catgeo.realline", "catgeo.render")
COUNTS = ("category.arrows", "category.table_entries", "category.composable_pairs",
          "category.composable_triples", "vectors.basis_size", "vectors.norm_max",
          "geometry.orthogonal_pairs")

PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[_span + ".calls"] = "count"
    PER_LAYER[_span + ".self_s"] = "s"
for _module in IMPORTS:
    PER_LAYER["import.%s.self_us" % _module] = "us"
PER_LAYER["import.other.self_us"] = "us"
PER_LAYER.update(dict.fromkeys(COUNTS, "count"))
PER_LAYER["documents.input_bytes"] = "B"
PER_LAYER["cli.output_bytes"] = "B"
PER_LAYER["oracle.checked_ops"] = "count"
PER_LAYER["oracle.known_defect_ops"] = "count"
PER_LAYER["trace.ops_per_s_untraced"] = "1/s"
PER_LAYER["trace.ops_per_s_traced"] = "1/s"
PER_LAYER["trace.slowdown"] = "ratio"


def load_library():
    """Import catgeo from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import catgeo.cli
    import catgeo.documents
    import catgeo.errors
    import catgeo.geometry
    import catgeo.realline
    import catgeo.vectors

    if Path(catgeo.__file__).resolve().parent != SRC / "catgeo":
        raise SystemExit("catgeo was imported from %s, not from %s" % (catgeo.__file__, SRC))
    return types.SimpleNamespace(
        root=str(ROOT), src=str(SRC), cli=catgeo.cli, documents=catgeo.documents, errors=catgeo.errors,
        geometry=catgeo.geometry, realline=catgeo.realline, vectors=catgeo.vectors,
    )


def make_api(lib, wrap=lambda fn, name=None: fn):
    """The functions the harness calls directly, traced or not."""
    g, v, r = lib.geometry, lib.vectors, lib.realline
    return types.SimpleNamespace(
        cli_main=wrap(lib.cli.main, "cli.main"),
        inner=wrap(g.inner), outer=wrap(g.outer), geometric=wrap(g.geometric),
        is_orthogonal=wrap(g.is_orthogonal), is_parallel=wrap(g.is_parallel),
        anticommutator=wrap(g.anticommutator),
        distance=wrap(v.distance), vec_add=wrap(v.vec_add),
        interval_products=wrap(r.interval_products), interval_add=wrap(r.interval_add),
    )


class Pace:
    """Machine-speed probe: a fixed piece of Python work, timed between ops.

    Shared virtual machines run the same code up to 40% faster or slower
    from one minute, or one second, to the next, which moves a run's raw
    figures by more than any bound worth setting.  The probe builds a dict,
    sorts it and dumps part of it as JSON, the kind of work catgeo's ops
    do, and each sample is scaled by ``REFERENCE / probe time`` around it.
    Timings are therefore reported at a fixed reference speed: the speed at
    which the probe takes ``REFERENCE`` seconds.
    """

    REFERENCE = 0.003
    every = 0.1  # seconds between probes

    def __init__(self):
        self.times = []
        self.last = float("-inf")

    def probe(self) -> int:
        start = perf_counter()
        table = {}
        for i in range(3000):
            table["k%d" % i] = (i, str(i))
        json.dumps(sorted(table.items(), key=lambda kv: kv[1][1])[:500])
        self.last = perf_counter()
        self.times.append(self.last - start)
        return len(self.times) - 1

    def current(self) -> int:
        """Index of the latest probe, probing first when the last is stale."""
        if perf_counter() - self.last >= self.every:
            return self.probe()
        return len(self.times) - 1

    def scale(self, before) -> list:
        """For each sample, given the probe before it, its factor to reference speed."""
        return [2.0 * self.REFERENCE / (self.times[p] + self.times[p + 1]) for p in before]


class Samples:
    """Latencies of one measured loop over a schedule of hashable ops."""

    def __init__(self, schedule):
        self.schedule = schedule
        # compact arrays: peak RSS must not grow with the number of ops run
        self.latencies, self.before = array("d"), array("l")
        self.known, self.failures = 0, []
        self.pace = Pace()

    def per_op(self) -> dict:
        """Distinct op -> its latencies at reference speed."""
        ops = {}
        for i, (x, factor) in enumerate(zip(self.latencies, self.pace.scale(self.before))):
            ops.setdefault(self.schedule[i % len(self.schedule)], []).append(x * factor)
        return ops

    def summary(self) -> tuple:
        return summarize(self.per_op())


def summarize(ops) -> tuple:
    """(ops per second, p50, p90, samples) with every distinct op weighted once.

    ``ops`` maps each distinct op to its latencies.  Runs repeat the
    schedule and stop part-way through a pass; weighting each sample by one
    over its op's count makes the figures describe one pass over the whole
    schedule.  Throughput takes each op's median latency.
    """
    ops_per_s = len(ops) / sum(statistics.median(v) for v in ops.values())
    weighted = sorted((x, 1.0 / len(v)) for v in ops.values() for x in v)

    def quantile(q):
        total = 0.0
        for x, w in weighted:
            total += w
            if total >= q * len(ops):
                return x
        return weighted[-1][0]

    return ops_per_s, quantile(0.5), quantile(0.9), len(weighted)


def measure(workload, seconds, api, tracer=None, min_samples=MIN_SAMPLES) -> Samples:
    """Closed loop, one client: run ops until the time is up and there are enough samples."""
    schedule = workload.schedule
    result = Samples(schedule)
    gc.collect()
    start = perf_counter()
    i = 0
    while True:
        result.before.append(result.pace.current())
        if tracer is not None:
            tracer.op += 1
        elapsed, verdict = workload.run(schedule[i % len(schedule)], api)
        result.latencies.append(elapsed)
        if verdict == "known":
            result.known += 1
        elif verdict != "ok":
            result.failures.append(verdict)
        i += 1
        wall = perf_counter() - start
        if wall >= seconds and i >= min_samples:
            result.pace.probe()
            return result


def setup_times(workload_class, args, workdir, lib):
    """Set up SETUP_REPEATS times; the durations at reference speed."""
    pace, durations, before = Pace(), [], []
    for _ in range(SETUP_REPEATS):
        workload = workload_class(args.seed, str(workdir), lib)
        before.append(pace.probe())
        start = perf_counter()
        workload.setup()
        durations.append(perf_counter() - start)
    pace.probe()
    return workload, [d * factor for d, factor in zip(durations, pace.scale(before))]


def run(args) -> dict:
    import spans
    import workloads

    lib = load_library()
    workdir = BUILD / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setups = setup_times(workloads.WORKLOADS[args.workload], args, workdir, lib)
        workload.prepare()
        if args.trace:
            metrics, segments = traced_run(args, workload, lib, spans)
            units = PER_LAYER
        else:
            metrics, segments = plain_run(args, workload, lib, setups)
            units = END_TO_END
        failures = [reason for segment in segments for reason in segment.failures]
        for reason in failures[:5]:
            print("FAILED: %s" % reason, file=sys.stderr)
        return {
            "correct": not failures,
            "attempted": sum(len(segment.latencies) for segment in segments),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def plain_run(args, workload, lib, setups):
    """The end-to-end metrics, tracing off."""
    result = measure(workload, args.seconds, make_api(lib))
    peak_rss_mb = workload.peak_rss_mb()
    ops_per_s, p50, p90, samples = result.summary()
    attempted = len(result.latencies)
    above = sum(1 for v in result.per_op().values() for x in v if x > p90)
    speed = statistics.median(result.pace.times) / Pace.REFERENCE
    print("%s seed %d: %d samples (%d above p90), %d known-defect ops, %d failed; probe at %.2fx reference time"
          % (args.workload, args.seed, samples, above, result.known, len(result.failures), speed), file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "op_ms_p50": p50 * 1000.0,
        "op_ms_p90": p90 * 1000.0,
        "ok_ratio": (attempted - result.known - len(result.failures)) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }, [result]


def traced_run(args, workload, lib, spans):
    """The per-layer metrics: untraced and traced quarters in turn, so that
    machine-speed phases hit both alike; only traced quarters record spans."""
    quarter = args.seconds / 4.0
    tracer = spans.Tracer()
    plain, traced, output_bytes, segments = {}, {}, 0, []
    for _ in range(2):
        segments.append(measure(workload, quarter, make_api(lib), min_samples=1))
        workload.importtime, before = True, workload.output_bytes
        with spans.boundaries(tracer, lib.cli, lib.documents, lib.realline):
            segments.append(measure(workload, quarter, make_api(lib, tracer.wrap), tracer, min_samples=1))
        workload.importtime = False
        output_bytes += workload.output_bytes - before
        for ops, segment in ((plain, segments[-2]), (traced, segments[-1])):
            for op, xs in segment.per_op().items():
                ops.setdefault(op, []).extend(xs)
    tracer.dump(BUILD / ("spans-%s.json" % args.workload))

    totals = tracer.self_times()
    metrics = {}
    for name in SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
    runs = getattr(workload, "import_runs", None) or [{}]
    for module in IMPORTS:
        metrics["import.%s.self_us" % module] = statistics.median(r.get(module, 0) for r in runs)
    metrics["import.other.self_us"] = statistics.median(
        sum(us for module, us in r.items() if module not in IMPORTS) for r in runs)
    metrics.update(workload.counts())
    metrics["documents.input_bytes"] = sum(
        os.path.getsize(os.path.join(workload.workdir, label + ".json")) for label in workload.models)
    metrics["cli.output_bytes"] = output_bytes
    metrics["oracle.checked_ops"] = sum(len(segment.latencies) for segment in segments[1::2])
    metrics["oracle.known_defect_ops"] = sum(segment.known for segment in segments[1::2])
    metrics["trace.ops_per_s_untraced"] = summarize(plain)[0]
    metrics["trace.ops_per_s_traced"] = summarize(traced)[0]
    metrics["trace.slowdown"] = metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"]

    print("%s seed %d: %d traced ops, tracing slowdown %.3f"
          % (args.workload, args.seed, metrics["oracle.checked_ops"], metrics["trace.slowdown"]), file=sys.stderr)
    busy = sum(self_s for _, self_s in totals.values()) or 1.0
    for name, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print("  %-28s %5.1f%% of span self time  %9d calls" % (name, 100.0 * self_s / busy, calls), file=sys.stderr)
    for name in sorted(metrics):
        if name.startswith("import.") and metrics[name]:
            print("  %-34s %8.0f us median" % (name, metrics[name]), file=sys.stderr)
    return metrics, segments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["structure", "products", "queries", "cli_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "catgeo" / "__init__.py").is_file():
        print("bench: no catgeo sources at %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    # one CPU for the runner, its probe and its subprocesses, so that the
    # probe measures the core the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
