"""Inputs and query runners of the three benchmark workloads.

An input is a pure function of (workload, slot, variant).  A slot fixes
everything that sets a query's cost: the space, the operations, the
number of generators, whether the model is coherent, the window a degree
cap is drawn from.  The variant, one of VARIANTS, fixes the random
values.  A run's seed only picks the variant that fills each slot of
each round, so the reference answers in perfbench/reference cover every
seed, and the slot schedule keeps the size mix, and with it the spread
of query times, the same from seed to seed.  Slots are spread over many
sizes, so that query times have no gap around the 90th percentile.

Each query is one library call (count-cone, bernstein-scan) or one
``desir run`` call (exchangeable-script) on objects built fresh for it,
so no query benefits from a result an earlier query cached on an object.
A query returns its verdict, the formulation-independent answer stored
in the reference, and its evidence, which the checker re-checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from perfbench import exact

CATEGORIES = ("a", "b", "c", "d")
VARIANTS = 16


@dataclass
class Item:
    """One query: its reference key, its operation, its input and its call."""

    key: str
    op: str
    case: Any
    call: Callable[[], tuple[str, Any]]


def case_rng(workload: str, slot: int, variant: int) -> random.Random:
    return random.Random(f"{workload}/{slot}/{variant}")


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _gamble(lib, space, values: dict):
    """A desir Gamble from a point-to-value dict, in desir's point order."""
    return lib.gambles.Gamble(space, tuple(Fraction(values[p]) for p in space.points()))


def _shift_positive(values: dict, mass: dict) -> dict:
    """Shift values by a constant so that their mass-weighted sum is positive."""
    e = sum(mass[p] * v for p, v in values.items())
    if e > 0:
        return values
    shift = -e // sum(mass.values()) + 1
    return {p: v + shift for p, v in values.items()}


def _shift_negative(values: dict, mass: dict) -> dict:
    return {p: -v for p, v in _shift_positive({p: -v for p, v in values.items()}, mass).items()}


# -- count-cone -------------------------------------------------------------

# (categories, draws, generators, kind).  kind "yes" and "no" are coherent
# assessments whose membership query is answered yes or no; "sure" and
# "partial" are incoherent: g0 + g_last is -1, or -1 at one point (4 of
# 18, about a fifth).  Small spaces recur more often than large ones so
# that a run completes well over 100 queries; the order interleaves
# sizes so that any prefix of a round has about the round's size mix.
CC_SLOTS = (
    (3, 4, 3, "yes"), (4, 5, 4, "no"), (3, 5, 5, "sure"), (4, 3, 3, "yes"),
    (3, 6, 4, "no"), (3, 8, 3, "yes"), (4, 4, 5, "partial"), (3, 4, 4, "no"),
    (3, 7, 3, "yes"), (4, 3, 5, "no"), (3, 5, 3, "yes"), (3, 9, 4, "no"),
    (4, 4, 3, "yes"), (3, 4, 5, "sure"), (3, 6, 3, "yes"), (4, 3, 4, "partial"),
    (3, 7, 5, "no"), (3, 5, 4, "yes"),
)
CC_OPS = ("coherence", "lower", "upper", "member")


@dataclass
class CountCase:
    space: Any
    generators: tuple
    prevision_gamble: Any
    member_gamble: Any


def count_cone_case(lib, slot: int, variant: int, out_dir: Path) -> CountCase:
    k, n, count, kind = CC_SLOTS[slot]
    rng = case_rng("count-cone", slot, variant)
    space = lib.gambles.CountSpace(CATEGORIES[:k], n)
    points = space.points()
    mass = {p: rng.randint(1, 4) for p in points}
    gens = [_shift_positive({p: rng.randint(-6, 6) for p in points}, mass)
            for _ in range(count)]
    if kind in ("sure", "partial"):
        hit = rng.choice(points) if kind == "partial" else None
        gens[-1] = {p: -gens[0][p] - (1 if hit in (None, p) else 0) for p in points}
    if kind == "yes":
        weights = [rng.randint(0, 3) for _ in gens]
        weights[0] += 1
        extra = {p: rng.choice((0, 0, 1, 2)) for p in points}
        member = {p: sum(w * g[p] for w, g in zip(weights, gens)) + extra[p] for p in points}
    else:
        # Negative expectation under the mass that all generators favour.
        member = _shift_negative({p: rng.randint(-6, 6) for p in points}, mass)
    return CountCase(
        space,
        tuple(_gamble(lib, space, g) for g in gens),
        _gamble(lib, space, {p: rng.randint(-5, 5) for p in points}),
        _gamble(lib, space, member),
    )


def _prevision_verdict(pv) -> str:
    return fmt(pv.value) if pv.kind == "value" else pv.kind


def count_cone_items(lib, case: CountCase, key: str) -> list[Item]:
    cones = lib.cones

    def coherence():
        report = cones.DesirCone(case.space, case.generators).avoidance()
        return ("avoids" if report.avoids else "fails"), report

    def lower():
        pv = cones.lower_prevision(cones.DesirCone(case.space, case.generators),
                                   case.prevision_gamble)
        return _prevision_verdict(pv), pv

    def upper():
        pv = cones.upper_prevision(cones.DesirCone(case.space, case.generators),
                                   case.prevision_gamble)
        return _prevision_verdict(pv), pv

    def member():
        try:
            report = cones.membership_report(cones.DesirCone(case.space, case.generators),
                                             case.member_gamble)
        except cones.IncoherentConeError as exc:
            return "incoherent", exc
        return ("yes" if report.member else "no"), report

    calls = {"coherence": coherence, "lower": lower, "upper": upper, "member": member}
    return [Item(f"{key}:{op}", op, case, calls[op]) for op in CC_OPS]


# -- bernstein-scan -----------------------------------------------------------

# (operation, categories, degree, cap, shape, query).  For the expansion
# scans, "vanish" is a nonnegative polynomial with a zero inside the
# simplex, c (θi - θj)^2 q with q positive, undecided up to the cap
# (negated for "nonpositive"), and "random" is decided within a few
# degrees.  For the cone operations the shape is the cone's: "vanish" (a
# vanishing generator: avoidance undecided up to the cap), "violated" (p
# and -p - 1: violated at the first degree) or "avoided" (positive
# coefficients: avoided at once); family queries ask "yes" (twice a
# generator plus a positive polynomial) or "random" gambles.  The caps
# spread over 11-20 (k=3) and 28-62 (k=2), and the costliest slots lie
# close together, so that query times have no gap around the 90th
# percentile.
BS_SLOTS = (
    ("extend", 2, 4, 48, "vanish", None),
    ("positive", 2, 4, 40, "random", None),
    ("nonpositive", 3, 2, 15, "vanish", None),
    ("family", 2, 2, 33, "vanish", "yes"),
    ("extend", 3, 2, 14, "vanish", None),
    ("updated", 2, 2, 32, "avoided", None),
    ("positive", 2, 2, 62, "vanish", None),
    ("nonpositive", 2, 3, 44, "vanish", None),
    ("family", 2, 3, 28, "violated", "random"),
    ("positive", 3, 2, 20, "vanish", None),
    ("extend", 2, 2, 36, "vanish", None),
    ("updated", 2, 3, 38, "vanish", None),
    ("positive", 3, 2, 14, "random", None),
    ("family", 2, 2, 46, "vanish", "yes"),
    ("extend", 3, 2, 11, "vanish", None),
    ("nonpositive", 3, 2, 18, "vanish", None),
    ("extend", 2, 3, 28, "violated", None),
    ("nonpositive", 2, 4, 28, "vanish", None),
)
@dataclass
class BernsteinCase:
    op: str
    categories: tuple
    cap: int
    polys: tuple  # Bernstein coefficient dicts: the generators, or the scanned polynomial
    query: Any  # family: sequence gamble dict; updated: (observed, coefficient dict)
    length: int  # sequence length of the extend/family assessment
    # The same inputs as desir objects, built in set-up: the polynomials'
    # coefficient gambles, their lifts to sequences, and the query gamble.
    coefficients: tuple = ()
    sequence_gambles: tuple = ()
    query_gamble: Any = None


def _vanishing_poly(rng, k: int, degree: int) -> dict:
    """Coefficients of c (θi - θj)^2 q, with q positive: >= 0, zero inside the simplex."""
    i, j = rng.sample(range(k), 2)
    ei = tuple(int(t == i) for t in range(k))
    ej = tuple(int(t == j) for t in range(k))
    square = {
        tuple(2 * a for a in ei): Fraction(1),
        tuple(a + b for a, b in zip(ei, ej)): Fraction(-2),
        tuple(2 * b for b in ej): Fraction(1),
    }
    q = {m: Fraction(rng.randint(1, 3)) for m in exact.compositions(degree - 2, k)}
    scale = rng.randint(1, 3)
    mono: dict = {}
    for a, ca in square.items():
        for b, cb in q.items():
            m = tuple(x + y for x, y in zip(a, b))
            mono[m] = mono.get(m, 0) + scale * ca * cb
    # A homogeneous polynomial sum c_m θ^m has Bernstein coefficients c_m / C(m).
    return {m: mono.get(m, Fraction(0)) / exact.multinomial(m)
            for m in exact.compositions(degree, k)}


def _random_poly(rng, k: int, degree: int, low: int = -4, high: int = 6) -> dict:
    coeffs = {m: Fraction(rng.randint(low, high)) for m in exact.compositions(degree, k)}
    if not any(coeffs.values()):
        coeffs[next(iter(coeffs))] = Fraction(1)
    return coeffs


def bernstein_case(lib, slot: int, variant: int, out_dir: Path) -> BernsteinCase:
    op, k, degree, cap, shape, query_kind = BS_SLOTS[slot]
    rng = case_rng("bernstein-scan", slot, variant)
    cats = CATEGORIES[:k]
    if op in ("positive", "nonpositive"):
        if shape == "random":
            p = _random_poly(rng, k, degree)
        else:
            p = _vanishing_poly(rng, k, degree)
            if op == "nonpositive":
                p = {m: -c for m, c in p.items()}
        return _with_gambles(lib, BernsteinCase(op, cats, cap, (p,), None, degree))
    if shape == "vanish":
        polys = [_vanishing_poly(rng, k, degree), _random_poly(rng, k, degree, 0, 4)]
    elif shape == "violated":
        p = _random_poly(rng, k, degree)
        polys = [p, {m: -c - 1 for m, c in p.items()}]
    else:
        polys = [_random_poly(rng, k, degree, 1, 4), _random_poly(rng, k, degree, 0, 4)]
    query = None
    if op == "family":
        if query_kind == "yes":
            target = {m: 2 * polys[0][m] + rng.randint(1, 3) for m in polys[0]}
        else:
            target = _random_poly(rng, k, degree)
        query = exact.lift(target, cats, degree)
    elif op == "updated":
        observed = exact.compositions(rng.randint(1, 2), k)
        query = (rng.choice(observed), _random_poly(rng, k, degree, -2, 6))
    return _with_gambles(lib, BernsteinCase(op, cats, cap, tuple(polys), query, degree))


def _with_gambles(lib, case: BernsteinCase) -> BernsteinCase:
    gm = lib.gambles
    counts = gm.CountSpace(case.categories, case.length)
    sequences = gm.SequenceSpace(case.categories, case.length)
    case.coefficients = tuple(_gamble(lib, counts, p) for p in case.polys)
    case.sequence_gambles = tuple(
        _gamble(lib, sequences, exact.lift(p, case.categories, case.length)) for p in case.polys)
    if case.op == "family":
        case.query_gamble = _gamble(lib, sequences, case.query)
    elif case.op == "updated":
        case.query_gamble = _gamble(lib, counts, case.query[1])
    return case


def _expansion_verdict(v) -> str:
    return f"yes@{v.degree}" if v.status == "yes" else v.status


def bernstein_items(lib, case: BernsteinCase, key: str) -> list[Item]:
    bn = lib.bernstein

    def call():
        # Fresh BernsteinPoly objects: they memoize their raised coefficients.
        polys = [bn.BernsteinPoly(g) for g in case.coefficients]
        if case.op == "positive":
            v = bn.has_positive_expansion(polys[0], case.cap)
            return _expansion_verdict(v), v
        if case.op == "nonpositive":
            v = bn.has_nonpositive_expansion(polys[0], case.cap)
            return _expansion_verdict(v), v
        if case.op == "extend":
            space = lib.gambles.SequenceSpace(case.categories, case.length)
            d = bn.extend_infinite(space, case.sequence_gambles, case.cap)
            return d.status, d
        cone = bn.BernsteinCone(case.categories, polys, case.cap)
        if case.op == "family":
            v = bn.family_member(cone, case.query_gamble)
        else:
            v = bn.updated_frequency_member(cone, case.query[0],
                                            bn.BernsteinPoly(case.query_gamble))
        return v.status, v

    return [Item(f"{key}:{case.op}", case.op, case, call)]


# -- exchangeable-script ------------------------------------------------------

# (categories, draws, model, queries).  model "coherent", or "sure" or
# "partial" for an incoherent one (g0 + g_last = -1, or -1 on one
# sequence).  Sequence-view LPs at N=5 and k=3 dominate script time, so
# those slots are fewer and their scripts shorter.  Below the N=5 lpr
# script, the next four slots cost about the same, and the 90th
# percentile (two slots of 24 from the top) falls inside that group
# rather than in a gap between two slots.  Member queries ask about a
# gamble in the cone on even slots, and about a random gamble on odd ones.
SC_SLOTS = (
    (2, 3, "coherent", ("check", "member", "lpr", "update-counts", "extend-finite", "eval")),
    (2, 5, "coherent", ("check", "lpr", "eval", "range")),
    (2, 4, "coherent", ("member", "update-counts", "extend-infinite", "eval", "check")),
    (3, 3, "coherent", ("member", "extend-infinite", "range", "update-sample")),
    (2, 3, "sure", ("check", "member", "lpr", "update-sample")),
    (2, 4, "coherent", ("lpr", "update-sample", "range", "check", "update-counts")),
    (2, 5, "coherent", ("member", "check", "eval", "range", "update-counts", "update-sample")),
    (2, 3, "coherent", ("update-counts", "update-sample", "member", "extend-infinite",
                        "range", "check", "eval", "lpr")),
    (3, 3, "coherent", ("lpr", "eval", "range", "check")),
    (2, 4, "coherent", ("check", "update-counts", "eval", "extend-finite")),
    (2, 5, "coherent", ("check", "update-counts", "update-sample", "eval", "member")),
    (2, 4, "partial", ("check", "extend-finite", "update-counts", "member")),
    (3, 3, "coherent", ("lpr", "member", "range", "check")),
    (2, 3, "coherent", ("member", "extend-finite", "check", "range", "update-sample")),
    (3, 3, "sure", ("check", "extend-infinite", "range", "update-counts")),
    (2, 4, "coherent", ("check", "member", "extend-finite", "update-sample", "eval", "range")),
    (2, 3, "coherent", ("check", "update-counts", "extend-infinite", "member")),
    (2, 3, "coherent", ("eval", "member", "update-sample", "check", "range")),
    (2, 4, "coherent", ("update-sample", "check", "range", "member", "eval")),
    (2, 3, "partial", ("check", "update-counts", "eval", "member")),
    (2, 4, "coherent", ("update-counts", "check", "eval", "member")),
    (3, 3, "coherent", ("check", "update-sample", "extend-infinite", "range")),
    (2, 3, "coherent", ("range", "lpr", "update-sample", "check", "eval")),
    (2, 4, "coherent", ("eval", "extend-infinite", "update-counts", "range")),
)


@dataclass
class ScriptCase:
    categories: tuple
    length: int
    generators: tuple  # sequence gamble dicts
    queries: tuple  # (op, params) with the parameters as exact values
    path: Path


def _seq_key(x) -> str:
    return "".join(x)


def _count_key(m) -> str:
    return ",".join(str(c) for c in m)


def _values_json(g: dict, key) -> dict:
    return {key(p): fmt(Fraction(v)) for p, v in g.items()}


def script_case(lib, slot: int, variant: int, out_dir: Path) -> ScriptCase:
    k, n, model, ops = SC_SLOTS[slot]
    cats = CATEGORIES[:k]
    rng = case_rng("exchangeable-script", slot, variant)
    seqs = exact.sequences(cats, n)
    mass = {m: rng.randint(1, 4) for m in exact.compositions(n, k)}
    # Sequence-level mass: each count vector's mass spread evenly over its atom.
    seq_mass = {x: Fraction(mass[exact.counts_of(x, cats)],
                            exact.multinomial(exact.counts_of(x, cats))) for x in seqs}
    gens = [_shift_positive({x: rng.randint(-4, 4) for x in seqs}, seq_mass)
            for _ in range(1 + slot % 3)]
    if model != "coherent":
        hit = rng.choice(seqs) if model == "partial" else None
        gens.append({x: -gens[0][x] - (1 if hit in (None, x) else 0) for x in seqs})
    queries = []
    doc_queries = []
    for op in ops:
        if op == "check":
            queries.append((op, {}))
            doc_queries.append({"op": "check"})
        elif op in ("member", "lpr"):
            if op == "member" and slot % 2 == 0:
                f = {x: gens[0][x] * rng.randint(1, 2) + rng.choice((0, 1)) for x in seqs}
            else:
                f = {x: rng.randint(-4, 4) for x in seqs}
            queries.append((op, {"gamble": f}))
            doc_queries.append({"op": op, "gamble": {"values": _values_json(f, _seq_key)}})
        elif op == "update-counts":
            seen = rng.randint(1, n - 1)
            observed = rng.choice(exact.compositions(seen, k))
            g = {m: rng.randint(-3, 4) for m in exact.compositions(n - seen, k)}
            queries.append(("update", {"counts": observed, "gamble": g}))
            doc_queries.append({"op": "update", "counts": _count_key(observed),
                                "gamble": {"values": _values_json(g, _count_key)}})
        elif op == "update-sample":
            prefix = tuple(rng.choice(cats) for _ in range(rng.randint(1, n - 1)))
            f = {x: rng.randint(-3, 4) for x in exact.sequences(cats, n - len(prefix))}
            queries.append(("update", {"sample": prefix, "gamble": f}))
            doc_queries.append({"op": "update", "sample": _seq_key(prefix),
                                "gamble": {"values": _values_json(f, _seq_key)}})
        elif op == "extend-finite":
            # The extended model is built on all k^(N+extra) sequences: keep it
            # small, so no extend-finite on k=3 or N=5 slots.
            extra = 2 if (k, n) == (2, 3) else 1
            queries.append((op, {"extra": extra}))
            doc_queries.append({"op": op, "extra": extra})
        elif op == "extend-infinite":
            cap = rng.randint(8, 12 if k == 2 else 10)
            queries.append((op, {"cap": cap}))
            doc_queries.append({"op": op, "cap": cap})
        else:
            degree = rng.randint(1, 3)
            p = _random_poly(rng, k, degree)
            doc = {"op": "bernstein", "action": op,
                   "polynomial": {"categories": list(cats), "degree": degree,
                                  "coefficients": _values_json(p, _count_key)}}
            if op == "eval":
                cuts = sorted(rng.randint(0, 6) for _ in range(k - 1))
                theta = tuple(Fraction(b - a, 6) for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (6,)))
                doc["at"] = ",".join(fmt(t) for t in theta)
                queries.append((op, {"polynomial": p, "at": theta}))
            else:
                to = degree + rng.randint(0, 4)
                doc["to"] = to
                queries.append((op, {"polynomial": p, "to": to}))
            doc_queries.append(doc)
    document = {
        "space": {"categories": list(cats), "length": n},
        "model": {"generators": [{"values": _values_json(g, _seq_key)} for g in gens],
                  "lineality": "exchangeable"},
        "queries": doc_queries,
    }
    path = out_dir / f"script-{slot}-{variant}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return ScriptCase(cats, n, tuple(gens), tuple(queries), path)


# Report lines that state an answer rather than a certificate; the
# reference stores these and the exit code.
VERDICT_PREFIXES = (
    "avoids non-positivity", "member:", "lower prevision:", "upper prevision:",
    "updated member:", "extendable:", "extended length:", "searched up to degree:",
    "value at ", "coefficient range at degree ", "error:",
)


def script_verdict(stdout: str, code: int) -> str:
    lines = [line for line in stdout.splitlines()
             if line.startswith("[") or line.startswith(VERDICT_PREFIXES)]
    return "\n".join(lines + [f"exit {code}"])


def run_script(cli, path: Path) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", str(path)])
    return out.getvalue(), code


def script_items(lib, case: ScriptCase, key: str) -> list[Item]:
    def call():
        stdout, code = run_script(lib.cli, case.path)
        if code not in (0, 2):
            raise RuntimeError(f"desir run exited with {code}")
        return script_verdict(stdout, code), (stdout, code)

    return [Item(f"{key}:run", "run", case, call)]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    make_case: Callable
    make_items: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("count-cone", CC_SLOTS, count_cone_case, count_cone_items),
        Workload("bernstein-scan", BS_SLOTS, bernstein_case, bernstein_items),
        Workload("exchangeable-script", SC_SLOTS, script_case, script_items),
    )
}


def load_library():
    """Import desir afresh: every module object, cache and class is new."""
    import importlib
    import sys

    for name in [m for m in sys.modules if m == "desir" or m.startswith("desir.")]:
        del sys.modules[name]
    names = ("gambles", "lp", "cones", "exchangeability", "bernstein", "io", "cli")
    return SimpleNamespace(
        desir=importlib.import_module("desir"),
        **{n: importlib.import_module(f"desir.{n}") for n in names},
    )


def variant_schedule(workload: Workload, seed: int, rounds: int) -> list[tuple[int, int]]:
    """The (slot, variant) sequence a seed runs: every slot once per round."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [(slot, rng.randrange(VARIANTS)) for _ in range(rounds)
            for slot in range(len(workload.slots))]


def build_items(lib, workload: Workload, pairs, out_dir: Path) -> list[Item]:
    """Generate the inputs of the given (slot, variant) pairs, round by round.

    Within a round, block b takes from the i-th case its (b + i)-th query,
    so each block holds about a quarter of every count-cone operation and
    a run that stops mid-round still has about the round's mix.
    """
    cases: dict = {}
    items: list[Item] = []
    size = len(workload.slots)
    for start in range(0, len(pairs), size):
        lists = []
        for slot, variant in pairs[start:start + size]:
            if (slot, variant) not in cases:
                cases[slot, variant] = workload.make_case(lib, slot, variant, out_dir)
            lists.append(workload.make_items(lib, cases[slot, variant], f"{slot}:{variant}"))
        for block in range(len(lists[0])):
            items.extend(queries[(block + i) % len(queries)] for i, queries in enumerate(lists))
    return items


def fill_caches(lib, items: list[Item]) -> None:
    """Enumerate every space the queries touch, as a warmed-up process would have.

    That covers the count spaces a degree scan or update reaches and the
    longer sequence spaces of extend-finite, not just the input's space.
    """
    gm = lib.gambles
    spaces = set()
    for item in items:
        case = item.case
        if isinstance(case, CountCase):
            spaces.add(case.space)
            continue
        top = case.cap + 2 if isinstance(case, BernsteinCase) else case.length + 12
        longest = case.length + (2 if isinstance(case, ScriptCase) else 0)
        spaces.update(gm.CountSpace(case.categories, d) for d in range(top + 1))
        spaces.update(gm.SequenceSpace(case.categories, n) for n in range(1, longest + 1))
    for space in spaces:
        points = space.points()
        space.index(points[0])
        if isinstance(space, gm.SequenceSpace):
            gm.atom_members(space, gm.count_vector(points[0], space.categories))
