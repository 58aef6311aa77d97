"""Re-check every answer of a run: exact certificates, float LPs and references.

Nothing here calls desir's solver.  Certificates are re-checked in exact
arithmetic with perfbench.exact; verdicts and previsions are compared
with scipy's float LPs (scipy may be used by the benchmark, never by the
library); and every verdict must equal the stored reference answer for
its input.  The checker runs after the timed phase, so scipy's import
and memory count in neither the timings nor peak_rss_mb.

check_run returns one failure reason (or None) per result.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from perfbench import exact
from perfbench.workloads import BernsteinCase, CountCase, ScriptCase

TOL = 1e-6


class CheckError(Exception):
    """A certificate or value that does not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- float LPs on a count view -------------------------------------------------
#
# gens holds one row of values per generator, over the points of the
# space.  The cone is the positive hull of the generators and the
# nonnegative gambles, as in desir.cones without lineality.


def _linprog(c, **kw):
    return linprog(c, method="highs", **kw)


def lp_avoids(gens: np.ndarray) -> bool:
    """No normalized nonnegative combination of generators and indicators is <= 0."""
    n, p = gens.shape
    a_ub = np.hstack([gens.T, np.eye(p)])
    a_eq = np.ones((1, n + p))
    res = _linprog(np.zeros(n + p), A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=[1.0],
                   bounds=[(0, None)] * (n + p))
    return res.status == 2


def lp_lower(gens: np.ndarray, f: np.ndarray) -> float:
    """max mu with f - mu - sum(l g) >= 0, l >= 0; inf when unbounded."""
    n, p = gens.shape
    a_ub = np.hstack([np.ones((p, 1)), gens.T])
    c = np.zeros(n + 1)
    c[0] = -1.0
    res = _linprog(c, A_ub=a_ub, b_ub=f, bounds=[(None, None)] + [(0, None)] * n)
    if res.status == 3:
        return float("inf")
    require(res.status == 0, f"scipy lower prevision LP ended with status {res.status}")
    return -res.fun


def lp_member(gens: np.ndarray, f: np.ndarray) -> bool:
    """f != 0 and f - sum(l g) >= 0 for some l >= 0."""
    if not np.any(f):
        return False
    n, _ = gens.shape
    res = _linprog(np.zeros(n), A_ub=gens.T, b_ub=f, bounds=[(0, None)] * n)
    return res.status == 0


def close(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _rows(gambles) -> np.ndarray:
    return np.array([[float(v) for v in g.values] for g in gambles])


def _vec(g) -> np.ndarray:
    return np.array([float(v) for v in g.values])


# -- count-cone ----------------------------------------------------------------


def check_witness(gens: list[dict], weights, indicators: dict, combination: dict,
                  equivalent=None) -> None:
    """An avoidance witness: weights >= 0 summing to 1, combination <= 0 and recomputed.

    gens are point-to-value dicts; indicators maps points to weights.
    equivalent(a, b) decides when the recomputed combination matches the
    reported one; by default exact equality, for exchangeable models
    equality of atom averages (they differ by a lineality shift).
    """
    require(len(weights) == len(gens), "one weight per generator")
    require(all(w >= 0 for w in weights), "a generator weight is negative")
    require(all(w >= 0 for w in indicators.values()), "an indicator weight is negative")
    require(sum(weights) + sum(indicators.values()) == 1, "the weights do not sum to 1")
    recomputed = {p: sum(w * g[p] for w, g in zip(weights, gens)) + indicators.get(p, 0)
                  for p in combination}
    same = equivalent(recomputed, combination) if equivalent else recomputed == combination
    require(same, "the combination does not match its weights")
    require(all(v <= 0 for v in combination.values()), "the combination is positive somewhere")


def _as_dict(g) -> dict:
    return dict(zip(g.space.points(), g.values))


class CountChecks:
    """Certificate and LP checks for count-cone results, memoized per case."""

    def __init__(self) -> None:
        self._avoids: dict = {}

    def avoids(self, case: CountCase) -> bool:
        if id(case) not in self._avoids:
            self._avoids[id(case)] = lp_avoids(_rows(case.generators))
        return self._avoids[id(case)]

    def check(self, op: str, case: CountCase, verdict: str, evidence) -> None:
        gens = [_as_dict(g) for g in case.generators]
        if op == "coherence":
            require((verdict == "avoids") == self.avoids(case),
                    f"coherence {verdict} disagrees with the float LP")
            if verdict == "fails":
                self.witness(gens, evidence.witness)
        elif op in ("lower", "upper"):
            self.prevision(op, case, evidence)
        elif op == "member":
            if verdict == "incoherent":
                require(not self.avoids(case), "an IncoherentConeError on a coherent cone")
                self.witness(gens, evidence.witness)
                return
            f = _as_dict(case.member_gamble)
            if verdict == "yes":
                check_decomposition(gens, evidence.generator_weights,
                                    dict(evidence.indicator_weights), f)
            require((verdict == "yes") == lp_member(_rows(case.generators), _vec(case.member_gamble)),
                    f"membership {verdict} disagrees with the float LP")

    @staticmethod
    def witness(gens: list[dict], w) -> None:
        require(w is not None, "no witness for a failed avoidance check")
        require(not any(w.lineality_weights), "lineality weights on a cone without lineality")
        check_witness(gens, w.generator_weights, dict(w.indicator_weights),
                      _as_dict(w.combination))

    def prevision(self, op: str, case: CountCase, pv) -> None:
        f = case.prevision_gamble
        sign = 1 if op == "lower" else -1
        expected = sign * lp_lower(_rows(case.generators), sign * _vec(f))
        if pv.kind != "value":
            require(abs(expected) == float("inf") and pv.kind == (
                "unbounded_above" if op == "lower" else "unbounded_below"),
                f"{op} prevision {pv.kind}, float LP {expected}")
            return
        require(close(float(pv.value), expected), f"{op} prevision {pv.value}, float LP {expected}")
        if self.avoids(case):
            require(min(f.values) <= pv.value <= max(f.values),
                    f"{op} prevision {pv.value} outside [min f, max f]")
            other = -sign * lp_lower(_rows(case.generators), -sign * _vec(f))
            lower, upper = (float(pv.value), other) if op == "lower" else (other, float(pv.value))
            require(lower <= upper + TOL * max(1.0, abs(upper)), "lower prevision above upper")


def check_decomposition(gens: list[dict], weights, indicators: dict, f: dict,
                        equivalent=None) -> None:
    require(all(w >= 0 for w in weights), "a generator weight is negative")
    require(all(w >= 0 for w in indicators.values()), "an indicator weight is negative")
    require(any(weights) or any(indicators.values()), "the nonnegative part is zero")
    recomputed = {p: sum(w * g[p] for w, g in zip(weights, gens)) + indicators.get(p, 0)
                  for p in f}
    same = equivalent(recomputed, f) if equivalent else recomputed == f
    require(same, "the decomposition does not sum to the gamble")


# -- bernstein-scan ------------------------------------------------------------


def _coefficients(g) -> dict:
    return dict(zip(g.space.points(), g.values))


def check_expansion(op: str, p: dict, v) -> None:
    """A has_positive_expansion / has_nonpositive_expansion verdict against own raising."""
    positive = op == "positive"
    if v.status == "yes":
        raised = exact.raise_to(p, v.degree)
        require(_coefficients(v.certificate) == raised, "certificate is not p raised to its degree")
        if positive:
            require(all(c >= 0 for c in raised.values()) and any(raised.values()),
                    "positive certificate has a negative or no positive coefficient")
        else:
            require(all(c <= 0 for c in raised.values()), "nonpositive certificate has c > 0")
    elif v.status == "never":
        if v.witness_point is not None:
            value = exact.evaluate(p, v.witness_point.values)
            require(value == v.witness_value, "witness value is not p at the witness point")
            require(value < 0 if positive else value > 0, "witness value has the wrong sign")
        else:
            raised = exact.raise_to(p, v.degree)
            if positive:
                require(v.bound == max(raised.values()) and v.bound <= 0 and any(p.values()),
                        "the never bound is not a nonpositive largest coefficient")
            else:
                require(v.bound == min(raised.values()) and v.bound > 0,
                        "the never bound is not a positive smallest coefficient")
    else:
        raised = exact.raise_to(p, v.cap)
        if positive:
            require(min(raised.values()) < 0, "undecided, yet all coefficients >= 0 at the cap")
        else:
            require(max(raised.values()) > 0, "undecided, yet all coefficients <= 0 at the cap")


def check_cone_violation(polys, degree: int, weights, combination: dict) -> None:
    raised = [exact.raise_to(p, degree) for p in polys]
    require(all(w >= 0 for w in weights) and sum(weights) == 1,
            "violation weights are not normalized and nonnegative")
    require(len(weights) == len(polys), "one weight per generator")
    recomputed = {m: sum(w * r[m] for w, r in zip(weights, raised)) for m in raised[0]}
    require(recomputed == combination, "the violating combination does not match its weights")
    require(all(c <= 0 for c in combination.values()), "the violating combination is positive")


def check_bernstein(case: BernsteinCase, v) -> None:
    if case.op in ("positive", "nonpositive"):
        check_expansion(case.op, case.polys[0], v)
        return
    if case.op == "extend":
        verdict = v.verdict
        if v.status == "not_extendable":
            check_cone_violation(case.polys, verdict.degree, verdict.weights,
                                 _coefficients(verdict.combination))
        elif v.status == "extendable":
            raised = [exact.raise_to(p, verdict.degree) for p in case.polys]
            floor = min(min(r.values()) for r in raised)
            require(floor >= 0, "extendable, yet a generator has a negative coefficient")
            require(verdict.threshold in (None, floor), "the coefficient floor is misreported")
        else:
            raised = [exact.raise_to(p, case.cap) for p in case.polys]
            require(min(min(r.values()) for r in raised) < 0,
                    "undecided, yet every coefficient is >= 0 at the cap")
        return
    if v.status != "yes":
        return
    if case.op == "family":
        target = exact.atom_averages(case.query, case.categories)
    else:
        observed, coeffs = case.query
        target = exact.times_basis(observed, coeffs)
    raised_target = exact.raise_to(target, v.degree)
    raised = [exact.raise_to(p, v.degree) for p in case.polys]
    require(all(w >= 0 for w in v.weights), "a member weight is negative")
    residual = {m: raised_target[m] - sum(w * r[m] for w, r in zip(v.weights, raised))
                for m in raised_target}
    require(residual == _coefficients(v.residual), "the residual does not match the weights")
    require(all(c >= 0 for c in residual.values()), "the residual has a negative coefficient")


# -- exchangeable-script -------------------------------------------------------

_HEADER = re.compile(r"^\[(\d+)\] (\S+)$")


def blocks(stdout: str) -> list[list[str]]:
    """The report lines of each query, in order."""
    out: list[list[str]] = []
    for line in stdout.splitlines():
        if _HEADER.match(line):
            out.append([])
        else:
            require(bool(out), f"report line before any query header: {line!r}")
            out[-1].append(line)
    return out


def _value(text: str) -> Fraction:
    return Fraction(text.strip())


def _pairs(text: str) -> dict:
    """'k=v k=v' as a dict from key to Fraction."""
    out = {}
    for token in text.split():
        key, _, value = token.partition("=")
        out[key] = _value(value)
    return out


def _field(lines: list[str], prefix: str):
    for line in lines:
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    return None


def _seq_point(key: str) -> tuple:
    return tuple(key)


def _count_point(key: str) -> tuple:
    return tuple(int(c) for c in key.split(","))


class ScriptChecks:
    """Checks of one ``desir run`` report against the script's inputs."""

    def __init__(self) -> None:
        self._views: dict = {}

    def view(self, case: ScriptCase):
        """Count view of the model: atom averages, and coherence by float LP."""
        if id(case) not in self._views:
            points = exact.compositions(case.length, len(case.categories))
            avgs = [exact.atom_averages(g, case.categories) for g in case.generators]
            rows = np.array([[float(a[m]) for m in points] for a in avgs])
            self._views[id(case)] = (points, avgs, rows, lp_avoids(rows))
        return self._views[id(case)]

    def same_atoms(self, case: ScriptCase):
        def equivalent(a: dict, b: dict) -> bool:
            return (exact.atom_averages(a, case.categories)
                    == exact.atom_averages(b, case.categories))
        return equivalent

    def witness_lines(self, case: ScriptCase, lines: list[str]) -> None:
        combination = {_seq_point(k): v
                       for k, v in _pairs(_field(lines, "witness combination:")).items()}
        weights = _pairs(_field(lines, "generator weights:") or "")
        indicators = {_seq_point(k): v
                      for k, v in _pairs(_field(lines, "indicator weights:") or "").items()}
        check_witness(list(case.generators),
                      [weights.get(f"g{i}", Fraction(0)) for i in range(len(case.generators))],
                      indicators, combination, self.same_atoms(case))

    def check(self, case: ScriptCase, evidence) -> None:
        stdout, code = evidence
        points, avgs, rows, coherent = self.view(case)
        found = blocks(stdout)
        require(0 < len(found) <= len(case.queries), "the report has the wrong number of queries")
        for i, ((op, params), lines) in enumerate(zip(case.queries, found)):
            if lines and lines[0] == "error: incoherent model":
                require(not coherent, "an incoherent-model error on a coherent model")
                require(code == 2, "an incoherent-model error without exit code 2")
                require(i == len(found) - 1, "queries ran after an incoherent-model error")
                self.witness_lines(case, lines)
                return
            self.query(case, op, params, lines, coherent, rows)
        require(len(found) == len(case.queries), "the report stops early without an error")

    def query(self, case, op, params, lines, coherent, rows) -> None:
        cats = case.categories
        if op == "check":
            avoids = _field(lines, "avoids non-positivity under exchangeability:")
            require(avoids == ("true" if coherent else "false"),
                    f"check says {avoids}, the float LP disagrees")
            if avoids == "false":
                self.witness_lines(case, lines)
        elif op == "member":
            verdict = _field(lines, "member:")
            f = params["gamble"]
            if verdict == "yes":
                weights = _pairs(_field(lines, "generator weights:") or "")
                indicators = {_seq_point(k): v for k, v in
                              _pairs(_field(lines, "indicator weights:") or "").items()}
                check_decomposition(
                    list(case.generators),
                    [weights.get(f"g{i}", Fraction(0)) for i in range(len(case.generators))],
                    indicators, {x: Fraction(v) for x, v in f.items()}, self.same_atoms(case))
            avg = exact.atom_averages(f, cats)
            points = exact.compositions(case.length, len(cats))
            expected = lp_member(rows, np.array([float(avg[m]) for m in points]))
            require((verdict == "yes") == expected, f"member {verdict}, the float LP disagrees")
        elif op == "lpr":
            self.prevision(case, params["gamble"], lines, coherent, rows)
        elif op == "update":
            if "counts" in params:
                observed, g = params["counts"], params["gamble"]
            else:
                observed = exact.counts_of(params["sample"], cats)
                g = exact.atom_averages(params["gamble"], cats)
            expected = exact.times_basis(observed, {m: Fraction(v) for m, v in g.items()})
            reported = {_count_point(k): v for k, v in
                        _pairs(_field(lines, "transformed count gamble:")).items()}
            require(reported == expected, "the transformed count gamble is wrong")
        elif op == "extend-finite":
            verdict = _field(lines, "extendable:")
            if verdict == "yes":
                require(_field(lines, "extended length:") == str(case.length + params["extra"]),
                        "wrong extended length")
            else:
                # The witness lives on the raised count space; the sequence
                # loss is its lift.  A partial loss makes both zero.
                total = case.length + params["extra"]
                raised = [exact.raise_to(exact.atom_averages(g, cats), total)
                          for g in case.generators]
                combination = {_count_point(k): v for k, v in
                               _pairs(_field(lines, "witness combination:")).items()}
                weights = _pairs(_field(lines, "generator weights:") or "")
                indicators = {_count_point(k): v for k, v in
                              _pairs(_field(lines, "indicator weights:") or "").items()}
                check_witness(raised, [weights.get(f"g{i}", Fraction(0))
                                       for i in range(len(raised))], indicators, combination)
                loss = {_seq_point(k): v for k, v in
                        _pairs(_field(lines, "sure loss (sequences):")).items()}
                require(loss == exact.lift(combination, cats, total),
                        "the sequence loss is not the lifted witness combination")
        elif op == "extend-infinite":
            verdict = _field(lines, "extendable:")
            avgs = [exact.atom_averages(g, cats) for g in case.generators]
            if verdict == "no":
                degree = int(_field(lines, "violated at degree:"))
                weights = _pairs(_field(lines, "weights:"))
                combination = {_count_point(k): v
                               for k, v in _pairs(_field(lines, "combination:")).items()}
                check_cone_violation(avgs, degree,
                                     [weights[f"g{i}"] for i in range(len(avgs))], combination)
            elif verdict == "undecided":
                require(_field(lines, "searched up to degree:") == str(params["cap"]),
                        "undecided at the wrong cap")
        elif op == "eval":
            value = exact.evaluate(params["polynomial"], params["at"])
            reported = _field(lines, "value at")
            require(reported is not None and _value(reported.split(":")[1]) == value,
                    "wrong polynomial value")
        elif op == "range":
            raised = exact.raise_to(params["polynomial"], params["to"])
            text = _field(lines, f"coefficient range at degree {params['to']}:")
            lo, hi = (_value(t) for t in text.strip("[]").split(","))
            require((lo, hi) == (min(raised.values()), max(raised.values())),
                    "wrong coefficient range")

    def prevision(self, case, f, lines, coherent, rows) -> None:
        cats = case.categories
        lower_text = _field(lines, "lower prevision:")
        upper_text = _field(lines, "upper prevision:")
        if not coherent:
            return
        lower, upper = _value(lower_text), _value(upper_text)
        values = list(f.values())
        require(min(values) <= lower <= upper <= max(values),
                "previsions outside min f <= lower <= upper <= max f")
        avg = exact.atom_averages(f, cats)
        points = exact.compositions(case.length, len(cats))
        vec = np.array([float(avg[m]) for m in points])
        require(close(float(lower), lp_lower(rows, vec)), "lower prevision disagrees with the float LP")
        require(close(float(upper), -lp_lower(rows, -vec)), "upper prevision disagrees with the float LP")


# -- the run -------------------------------------------------------------------


def check_run(results, reference: dict) -> list:
    """One failure reason, or None, per result, in order."""
    counts, scripts = CountChecks(), ScriptChecks()
    reasons = []
    for r in results:
        reasons.append(check_result(r, reference, counts, scripts))
    return reasons


def check_result(r, reference: dict, counts: CountChecks, scripts: ScriptChecks):
    if r.error is not None:
        return f"raised {r.error}"
    expected = reference.get(r.item.key)
    if expected is None:
        return "no reference answer for this input"
    if expected != r.verdict:
        return f"verdict {r.verdict!r} differs from the reference {expected!r}"
    try:
        case = r.item.case
        if isinstance(case, CountCase):
            counts.check(r.item.op, case, r.verdict, r.evidence)
        elif isinstance(case, BernsteinCase):
            check_bernstein(case, r.evidence)
        else:
            scripts.check(case, r.evidence)
    except CheckError as exc:
        return f"certificate check failed: {exc}"
    except Exception as exc:  # a report the checker cannot read is a failed query
        return f"unreadable answer: {type(exc).__name__}: {exc}"
    return None
