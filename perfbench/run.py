"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload count-cone --seed 1 --seconds 55 --trace 0

Runs from the repository root and imports desir from ./src.  One
process, one thread, one client: the next query starts only when the
previous one has returned.  Phases:

1. set-up, SETUP_REPEATS times: import desir afresh, generate the
   seeded inputs (and write the script files), fill the space caches;
   setup_s is the median;
2. the timed phase: queries in schedule order until --seconds have
   passed; peak_rss_mb is read at its end;
3. checks: exact certificates, scipy float LPs and the reference
   answers (perfbench/checker.py); a failed query counts in "failed".

With --trace 1 the timed phase runs each query twice, untraced and with
every layer traced (perfbench/tracing.py), and the per-layer metrics
replace the end-to-end ones.  The spans are written to perfbench/.out/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"
REFERENCE = ROOT / "perfbench" / "reference"
SETUP_REPEATS = 9
# Rounds of the slot schedule generated per run; a run that gets through
# them all starts again from the first.
ROUNDS = 8


@dataclass
class Result:
    item: Any
    seconds: float
    verdict: str | None
    evidence: Any
    error: str | None


def calibrate() -> float:
    """Seconds for a fixed pure-Fraction loop: drift of the host, not of desir."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction((-1) ** i, i * i + 1)
    return time.perf_counter() - start


def run_one(item) -> Result:
    start = time.perf_counter()
    try:
        verdict, evidence = item.call()
        error = None
    except Exception:  # a failed query is counted, and the loop goes on
        verdict, evidence, error = None, None, traceback.format_exc(limit=3)
    return Result(item, time.perf_counter() - start, verdict, evidence, error)


def run_queries(items, seconds: float | None = None,
                count: int | None = None) -> tuple[list[Result], float]:
    """Closed loop over the items: until `seconds` have passed, or `count` queries."""
    results: list[Result] = []
    start = time.perf_counter()
    while True:
        results.append(run_one(items[len(results) % len(items)]))
        now = time.perf_counter()
        if len(results) == count or (count is None and now - start >= seconds):
            return results, now - start


def run_traced(items, seconds: float, lib, tracer) -> tuple[list[Result], list[Result]]:
    """Each query twice, untraced and traced, alternating which goes first.

    Pairing the two runs of a query keeps host drift out of trace.overhead.
    """
    plain: list[Result] = []
    traced: list[Result] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        item = items[len(plain) % len(items)]
        for trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if not trace:
                plain.append(run_one(item))
                continue
            tracer.query = len(traced)
            tracer.install(lib)
            try:
                traced.append(run_one(item))
            finally:
                tracer.uninstall()
    return plain, traced


def setup(workloads, workload, seed: int, out_dir: Path):
    start = time.perf_counter()
    lib = workloads.load_library()
    items = workloads.build_items(lib, workload,
                                  workloads.variant_schedule(workload, seed, ROUNDS), out_dir)
    workloads.fill_caches(lib, items)
    return lib, items, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("count-cone", "bernstein-scan", "exchangeable-script"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import desir
        from perfbench import tracing, workloads
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = json.loads((REFERENCE / f"{args.workload}.json").read_text(encoding="utf-8"))
    except (ImportError, OSError) as exc:
        print(f"error: cannot load desir and the benchmark from {ROOT}: {exc}", file=sys.stderr)
        return 1
    if Path(desir.__file__).resolve().parent != ROOT / "src" / "desir":
        print(f"error: desir was imported from {desir.__file__}, not {ROOT}/src", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        calib = [calibrate() for _ in range(3)]
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(scratch)
            scratch.mkdir()
            lib, items, seconds = setup(workloads, workload, args.seed, scratch)
            setups.append(seconds)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            plain, results = run_traced(items, args.seconds, lib, tracer)
            all_results = plain + results
        else:
            results, wall = run_queries(items, seconds=args.seconds)
            all_results = results
        rss = peak_rss_mb()
        calib += [calibrate() for _ in range(3)]

        from perfbench import checker
        reasons = checker.check_run(all_results, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [(r.item.key, why) for r, why in zip(all_results, reasons) if why]
    for key, why in failed[:20]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    times = [r.seconds for r in results]
    if tracer is not None:
        stdout_bytes = sum(len(r.evidence[0]) for r in results
                           if r.item.op == "run" and r.evidence is not None)
        values = tracing.layer_metrics(tracer.spans, times, stdout_bytes)
        values["trace.overhead"] = sum(times) / sum(r.seconds for r in plain) - 1
        values["host.calib_s"] = statistics.median(calib)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        p50, p90 = tracing.p50_p90(times)
        values = {"query_s.p50": p50, "query_s.p90": p90,
                  "queries_per_s": len(results) / wall,
                  "setup_s": statistics.median(setups), "peak_rss_mb": rss}
        wanted = spec["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {len(results)} queries in {sum(times):.2f} s, "
          f"{len(failed)} failed of {len(all_results)} checked, "
          f"host.calib_s {statistics.median(calib):.4f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
