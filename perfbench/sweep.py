"""Size sweep: regenerate the baseline table of ROADMAP item 1 from one command.

    python3 perfbench/sweep.py [--limit SECONDS]

Each case runs in its own subprocess, timing one library call after its
inputs are built; a case that does not finish within --limit seconds
prints "timeout".  The sweep gates nothing: it shows how cost scales with
size, at sizes past the benchmark's workloads.  The k=4, N=10 lower
prevision alone takes minutes at the seed commit.

Models, as in the ROADMAP:
- "differs": g = -3 when all draws are equal, else 1, on k=2 sequences;
  the query is the indicator that the first draw is the first category.
- count cases: 3 generators g_i(m) = m[i mod k] - m[(i+1) mod k] + N//3;
  the query is f(m) = m0^2 - m1, and membership asks about f + N^2.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROWS = (
    ("`exchangeable_extension`, differs, k=2, N=6 / 8 / 9",
     ("extension-6", "extension-8", "extension-9")),
    ("sequence-cone `lower_prevision`, same model, N=6 / 8", ("sequence-lpr-6", "sequence-lpr-8")),
    ("count-side `member`, same model, N=8", ("count-member-8",)),
    ("count cone, k=3, N=12 (91 points): coherence / lower prevision / member",
     ("cone-3-12-coherence", "cone-3-12-lower", "cone-3-12-member")),
    ("count cone, k=3, N=20 (231 points): coherence / lower prevision / member",
     ("cone-3-20-coherence", "cone-3-20-lower", "cone-3-20-member")),
    ("count cone, k=4, N=10 (286 points): coherence / lower prevision / member",
     ("cone-4-10-coherence", "cone-4-10-lower", "cone-4-10-member")),
    ("`BernsteinPoly.raised`, k=3, degree 2→24 / 2→40", ("raise-24", "raise-40")),
    ("`extend_infinite`, undecided squared difference, cap 64", ("extend-infinite-64",)),
)


def _differs(desir, n: int):
    space = desir.SequenceSpace(("b", "w"), n)
    g = desir.Gamble.from_function(space, lambda x: -3 if len(set(x)) == 1 else 1)
    f = desir.Gamble.from_function(space, lambda x: 1 if x[0] == "b" else 0)
    return space, g, f


def _count_model(desir, k: int, n: int):
    space = desir.CountSpace(("a", "b", "c", "d")[:k], n)
    gens = [desir.Gamble.from_function(space, lambda m, i=i: m[i % k] - m[(i + 1) % k] + n // 3)
            for i in range(3)]
    f = desir.Gamble.from_function(space, lambda m: m[0] ** 2 - m[1])
    return space, gens, f


def prepare(desir, case: str):
    """The timed call of a case, with its inputs already built."""
    size = case.rpartition("-")[2]
    if case.startswith("extension-"):
        space, g, _ = _differs(desir, int(size))
        return lambda: desir.exchangeable_extension(space, [g])
    if case.startswith("sequence-lpr-"):
        space, g, f = _differs(desir, int(size))
        cone = desir.DesirCone(space, [g], desir.kernel_basis(space))
        return lambda: desir.lower_prevision(cone, f)
    if case.startswith("count-member-"):
        space, g, f = _differs(desir, int(size))
        model = desir.exchangeable_extension(space, [g])
        return lambda: model.member(f)
    if case.startswith("cone-"):
        _, k, n, op = case.split("-")
        space, gens, f = _count_model(desir, int(k), int(n))
        if op == "coherence":
            return lambda: desir.DesirCone(space, gens).avoidance()
        if op == "lower":
            return lambda: desir.lower_prevision(desir.DesirCone(space, gens), f)
        return lambda: desir.membership_report(desir.DesirCone(space, gens),
                                               f.shift(int(n) ** 2))
    if case.startswith("raise-"):
        space = desir.CountSpace(("a", "b", "c"), 2)
        square = {(2, 0, 0): 1, (1, 1, 0): -1, (0, 2, 0): 1}
        p = desir.BernsteinPoly(desir.Gamble.from_function(
            space, lambda m: Fraction(square.get(m, 0))))
        return lambda: p.raised(int(size))
    if case == "extend-infinite-64":
        space = desir.SequenceSpace(("a", "b"), 2)
        f = desir.Gamble.from_function(space, lambda x: 1 if x[0] == x[1] else -1)
        return lambda: desir.extend_infinite(space, [f], 64)
    raise ValueError(f"unknown case {case!r}")


def run_case(case: str) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    import desir

    call = prepare(desir, case)
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=float, default=300.0,
                        help="seconds a case may take before it counts as a timeout")
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        print(f"{run_case(args.case):.6f}")
        return 0
    print("| case | time |\n|---|---|")
    for label, cases in ROWS:
        cells = []
        for case in cases:
            try:
                done = subprocess.run([sys.executable, __file__, "--case", case],
                                      capture_output=True, text=True, timeout=args.limit,
                                      check=True)
                cells.append(f"{float(done.stdout):.3g}")
            except subprocess.TimeoutExpired:
                cells.append("timeout")
            except subprocess.CalledProcessError as exc:
                print(exc.stderr, file=sys.stderr)
                cells.append("error")
        print(f"| {label} | {' / '.join(cells)} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
