"""Regenerate the reference answers of every input of every workload.

    python3 perfbench/reference.py [--workload NAME ...]

Runs each (slot, variant) input once through desir, requires every
certificate and float-LP check to pass, and writes
perfbench/reference/<workload>.json, which maps each query's key to its
verdict.  The reference covers every seed, because a seed only chooses
among these inputs.  Regenerate it when the inputs change, never to make
a run pass: an answer that changes when only the formulation changes is
exactly what the reference catches.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checker, workloads
    from perfbench.run import OUT, REFERENCE, run_queries

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    status = 0
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        pairs = [(slot, v) for slot in range(len(workload.slots))
                 for v in range(workloads.VARIANTS)]
        scratch = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=OUT))
        try:
            lib = workloads.load_library()
            items = workloads.build_items(lib, workload, pairs, scratch)
            results, wall = run_queries(items, count=len(items))
            answers = {r.item.key: r.verdict for r in results}
            reasons = checker.check_run(results, answers)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        bad = [(r.item.key, why) for r, why in zip(results, reasons) if why]
        for key, why in bad:
            print(f"FAILED {name} {key}: {why}", file=sys.stderr)
        if bad:
            status = 1
            continue
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(answers)} answers in {wall:.1f} s -> {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
