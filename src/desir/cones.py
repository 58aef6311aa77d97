"""Finitely generated cones of desirable gambles.

A cone is described by a finite assessment of gambles, an optional
lineality basis (a linear subspace added to every element), and the
implicit positive orthant: the represented set is the positive hull of
the assessment together with all nonzero nonnegative gambles, shifted by
the lineality space.

Every query reduces to one exact rational linear program: does a gamble
decompose as a nonnegative combination of given gambles plus a lineality
shift plus a nonnegative remainder?  Pointwise, combination <= rhs, and
the remainder is the weights of the unit indicators.  The queries differ
only in what they feed it:

* coherence, as avoiding non-positivity: rhs zero, and the generator
  and unit-indicator weights normalized to sum to one; a solution is a
  pointwise nonpositive combination;
* membership in the natural extension: rhs the queried gamble, and the
  total nonnegative weight maximized, which must be positive;
* lower prevision: rhs the queried gamble, the constant gamble as one
  more free column, and its weight maximized.

The solver sees the dual of that program, in credal-set form (Walley
1991, ch. 3; Troffaes and de Cooman 2014, ch. 4): a linear prevision P
per point column, one row per generator (P . g >= cost), one per
lineality vector (P . v = cost), and sum P = 1 where the program
normalizes or shifts by the constant.  The lower prevision, for one, is
min P . f over the P >= 0 with sum P = 1, P . g >= 0 and P . v = 0.
The rows are few and the columns many, which suits the simplex's
largest-cost pivot rule.  The certificate comes back from the solver's
dual values: the generator and lineality weights are the values of
their rows, and the unit-indicator weights are the reduced costs of the
point columns, that is rhs minus the combination.

Coherence solves a Gordan-type dual: maximize t with q = P - t >= 0,
q . g_i + t (sum g_i - 1) >= 0, q . v_j + t sum v_j = 0 and
sum q + n t = 1, which puts the unit indicators in as a shift instead
of n more rows.  The cone avoids non-positivity exactly when t* > 0;
otherwise the dual values give a normalized combination equal to the
constant t*.  The program is infeasible exactly when the constant gamble
lies in the lineality span, and its Farkas multipliers then give a
combination equal to zero.

The Bernstein scans in desir.bernstein solve the same programs on raised
coefficient vectors.  Cones are immutable; the coherence verdict is
computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence as SequenceABC
from typing import Iterable, Optional

from .gambles import Gamble, Point, RationalLike, Space, _as_fraction
from .lp import LpProblem, solve

__all__ = [
    "AvoidanceReport",
    "DesirCone",
    "IncoherentConeError",
    "MemberReport",
    "NonPositivityWitness",
    "PrevisionValue",
    "avoids_nonpositivity",
    "is_marginally_desirable",
    "lower_prevision",
    "natural_extension_member",
    "membership_report",
    "updated_member",
    "upper_prevision",
]


@dataclass(frozen=True, slots=True)
class NonPositivityWitness:
    """A normalized combination certifying failure to avoid non-positivity.

    The weights satisfy: generator and indicator weights are nonnegative
    and sum to one, lineality weights are unrestricted, and the combined
    gamble is pointwise nonpositive.
    """

    generator_weights: tuple[Fraction, ...]
    indicator_weights: tuple[tuple[Point, Fraction], ...]
    lineality_weights: tuple[Fraction, ...]
    combination: Gamble


@dataclass(frozen=True, slots=True)
class AvoidanceReport:
    avoids: bool
    witness: Optional[NonPositivityWitness] = None


@dataclass(frozen=True, slots=True)
class MemberReport:
    """Membership verdict with, when positive, an explicit decomposition.

    The decomposition writes the queried gamble as a nonnegative
    combination of generators and unit indicators plus a lineality
    shift, with the nonnegative part not identically zero.  The
    indicator weights are a sequence of (point, weight) pairs.
    """

    member: bool
    generator_weights: tuple[Fraction, ...] = ()
    indicator_weights: SequenceABC[tuple[Point, Fraction]] = ()
    lineality_weights: tuple[Fraction, ...] = ()


class _Remainder(SequenceABC):
    """The nonzero values of rhs - sum_i weights_i gambles_i, as (point,
    value) pairs, computed when read.

    These are a decomposition's unit-indicator weights.  The view keeps
    references to gambles its caller holds anyway, not one value per
    point, which matters to callers that hold many reports.
    """

    __slots__ = ("_rhs", "_gambles", "_weights")

    def __init__(self, rhs: Gamble, gambles, weights) -> None:
        self._rhs = rhs
        self._gambles = gambles
        self._weights = weights

    def _pairs(self) -> tuple[tuple[Point, Fraction], ...]:
        values = _combine(self._rhs.space, self._weights, self._gambles)
        return tuple(
            (p, b - c) for p, b, c in zip(self._rhs.space.points(), self._rhs.values, values)
            if b != c
        )

    def __getitem__(self, index):
        return self._pairs()[index]

    def __iter__(self):
        return iter(self._pairs())

    def __len__(self) -> int:
        return len(self._pairs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return self._pairs() == tuple(other)

    def __hash__(self) -> int:
        return hash(self._pairs())

    def __repr__(self) -> str:
        return repr(self._pairs())


@dataclass(frozen=True, slots=True)
class PrevisionValue:
    """An exact prevision: a rational number or an unboundedness marker."""

    kind: str
    value: Optional[Fraction] = None

    _KINDS = ("value", "unbounded_above", "unbounded_below")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown prevision kind {self.kind!r}")
        if (self.kind == "value") != (self.value is not None):
            raise ValueError("a finite prevision carries a value, markers do not")

    @classmethod
    def of(cls, value: RationalLike) -> PrevisionValue:
        return cls("value", _as_fraction(value))

    @classmethod
    def unbounded_above(cls) -> PrevisionValue:
        return cls("unbounded_above")

    @classmethod
    def unbounded_below(cls) -> PrevisionValue:
        return cls("unbounded_below")

    @property
    def is_finite(self) -> bool:
        return self.kind == "value"

    def __neg__(self) -> PrevisionValue:
        if self.kind == "value":
            assert self.value is not None
            return PrevisionValue.of(-self.value)
        if self.kind == "unbounded_above":
            return PrevisionValue.unbounded_below()
        return PrevisionValue.unbounded_above()


# Reports are immutable, so the two that carry nothing are shared.
_AVOIDS = AvoidanceReport(True)
_NOT_MEMBER = MemberReport(False)


class IncoherentConeError(ValueError):
    """Raised when a query requires coherence the cone does not have."""

    def __init__(self, witness: Optional[NonPositivityWitness]) -> None:
        super().__init__(
            "the assessment admits a nonpositive combination; "
            "its natural extension is the whole gamble space"
        )
        self.witness = witness


@dataclass(frozen=True)
class _Decomposition:
    """A solution of the decomposition program, read back per column and row."""

    weights: tuple[Fraction, ...]
    shifts: tuple[Fraction, ...]
    slack: Gamble
    unbounded: bool


def _common_space(
    gambles: Iterable[Gamble], space: Optional[Space]
) -> Optional[Space]:
    for g in gambles:
        if space is None:
            space = g.space
        elif g.space != space:
            raise ValueError("all gambles must share one space")
    return space


def _decompose(
    space: Space,
    nonneg: SequenceABC[Gamble],
    free: SequenceABC[Gamble] = (),
    rhs: Optional[Gamble] = None,
    normalized: bool = False,
    costs: Optional[SequenceABC[RationalLike]] = None,
) -> Optional[_Decomposition]:
    """Solve the decomposition program that every cone query reduces to.

    The program asks for weights lambda >= 0 on the nonnegative columns
    and u on the free ones with, at every point w of the space,

        sum_i lambda_i nonneg_i(w) + sum_j u_j free_j(w) <= rhs(w),

    rhs zero when omitted.  When normalized, the lambda sum to one (rhs
    is then zero and there are no costs).  With costs, aligned with the
    nonnegative columns and then the free ones, the program maximizes;
    without, it asks for feasibility.  Returns None when infeasible.
    Otherwise the row slacks, rhs minus the combination, are read back
    as a gamble: they are the unit-indicator weights that complete the
    combination to exactly rhs.

    The solver sees the dual program, over linear previsions P with one
    column per point and one row per column here (see the module
    docstring); the weights are the dual values of those rows.  When
    the maximum is unbounded, the weights are an improving ray and the
    slack is minus its combination.  Only lower_prevision meets that
    case, and its program, shifted by the constant gamble, is always
    feasible; membership asks coherent cones only, whose programs have
    no improving ray.  A program without columns needs no solver: its
    only solution is empty.  Coherence, whose normalization counts the
    unit indicators as well, calls _normalized with units itself.
    """
    space.points()  # the size guard, before any column exists
    nonneg = tuple(nonneg)
    free = tuple(free)
    bound = rhs.values if rhs is not None else (Fraction(0),) * space.size
    if not nonneg and not free:
        if normalized or min(bound) < 0:
            return None
        return _solution(space, (), (), bound)
    if normalized:
        return _normalized(space, nonneg, free)
    if costs is not None:
        return _optimum(space, nonneg, free, bound, [_as_fraction(c) for c in costs])
    # Feasible exactly when rhs has a nonnegative lower prevision: the
    # program shifted by the constant gamble, its weight maximized.
    n = len(nonneg)
    shifted = _optimum(
        space, nonneg, (Gamble.unit(space),) + free, bound,
        [Fraction(0)] * n + [Fraction(1)] + [Fraction(0)] * len(free),
    )
    weights, mu, shifts = shifted.weights, shifted.shifts[0], shifted.shifts[1:]
    if shifted.unbounded:
        # A ray below -mu < 0 everywhere, scaled until it fits under rhs.
        scale = max(Fraction(0), -min(bound)) / mu
        weights = tuple(scale * x for x in weights)
        shifts = tuple(scale * x for x in shifts)
    elif mu < 0:
        return None
    combination = _combine(space, weights, nonneg, shifts, free)
    return _solution(space, weights, shifts, [b - c for b, c in zip(bound, combination)])


def _combine(space, weights, nonneg, shifts=(), free=()) -> list[Fraction]:
    total = [Fraction(0)] * space.size
    for weight, g in zip(tuple(weights) + tuple(shifts), tuple(nonneg) + tuple(free)):
        if weight:
            total = [t + weight * a for t, a in zip(total, g.values)]
    return total


_SMALL = tuple(Fraction(i) for i in range(-64, 65))


def _compact(values) -> tuple[Fraction, ...]:
    """The values as a tuple in which equal values share one object.

    Callers may hold reports in bulk, and a dense certificate repeats a
    few values at many points; small integers are shared across calls.
    """
    seen: dict[Fraction, Fraction] = {}
    out = []
    for v in values:
        if v.denominator == 1 and -64 <= v.numerator <= 64:
            v = _SMALL[v.numerator + 64]
        else:
            v = seen.setdefault(v, v)
        out.append(v)
    return tuple(out)


def _solution(space, weights, shifts, slack, unbounded=False) -> _Decomposition:
    return _Decomposition(
        _compact(weights), _compact(shifts), Gamble(space, _compact(slack)), unbounded
    )


def _row(values, scale=1) -> dict[str, Fraction]:
    """A gamble as LP coefficients over the point columns p0, p1, ..."""
    return {f"p{w}": scale * a for w, a in enumerate(values) if a}


def _optimum(space, nonneg, free, bound, costs) -> Optional[_Decomposition]:
    """The maximizing program, through its dual: min P . rhs over P >= 0
    with P . nonneg_i >= cost_i and P . free_j = cost_j.

    The dual values of those rows are lambda and minus u.  An unbounded
    dual means an infeasible program; an infeasible dual, whose Farkas
    multipliers are an improving ray, an unbounded one.
    """
    n = len(nonneg)
    variables = [(f"p{w}", "nonneg") for w in range(space.size)]
    below = [(_row(g.values, -1), -c) for g, c in zip(nonneg, costs)]
    level = [(_row(v.values), c) for v, c in zip(free, costs[n:])]
    outcome = solve(LpProblem(variables, level, below, (_row(bound, -1), "max")))
    if outcome.status == "unbounded":
        return None
    weights = outcome.duals[len(free):]
    shifts = tuple(-z for z in outcome.duals[: len(free)])
    combination = _combine(space, weights, nonneg, shifts, free)
    unbounded = outcome.status == "infeasible"
    base = (Fraction(0),) * space.size if unbounded else bound
    slack = [b - c for b, c in zip(base, combination)]
    return _solution(space, weights, shifts, slack, unbounded)


def _normalized(space, nonneg, free, units: bool = False) -> Optional[_Decomposition]:
    """The normalized program, through its Gordan-type dual.

    Maximize t over P >= 0 with P . nonneg_i >= t, P . free_j = 0 and
    sum P = 1: a normalized combination exists exactly when t* <= 0.
    The dual values of the rows are lambda, minus u, and t*.

    With units, every unit indicator is one more nonnegative column, and
    its weight is reported after the others.  Their rows P_w >= t are
    bounds, so the program runs in q = P - t >= 0 instead, with one row
    per other column: maximize t with q . g_i + t (sum g_i - 1) >= 0,
    q . v_j + t sum v_j = 0 and sum q + n t = 1.  The unit weights d are
    then the reduced costs of the point columns, and lambda . nonneg +
    u . free + d is the constant t*.
    """
    size = space.size
    shift = int(units)
    variables = [(f"p{w}", "nonneg") for w in range(size)] + [("t", "free")]
    below = [({**_row(g.values, -1), "t": 1 - shift * sum(g.values)}, 0) for g in nonneg]
    level = [({**_row(v.values), "t": shift * sum(v.values)}, 0) for v in free]
    level.append(({**_row((1,) * size), "t": shift * size}, 1))
    outcome = solve(LpProblem(variables, level, below, ({"t": 1}, "max")))
    if outcome.status == "unbounded" or (outcome.status == "bounded" and outcome.value > 0):
        return None
    shifts = tuple(-z for z in outcome.duals[: len(free)])
    sigma = outcome.duals[len(free)]
    if outcome.status == "bounded":
        weights = list(outcome.duals[len(free) + 1:])
        combination = _combine(space, weights, nonneg, shifts, free)
        if units:
            weights += [sigma - c for c in combination]
            combination = [sigma] * size
    else:
        # No P with sum P = 1 is level on the free columns: the Farkas
        # multipliers put u . free below sigma < 0 everywhere (equal to it
        # with units).  Any normalized start plus enough of u will do.
        if units:
            weights = [Fraction(0)] * len(nonneg) + [Fraction(1, size)] * size
            start = [Fraction(1, size)] * size
        elif nonneg:
            weights = [Fraction(1)] + [Fraction(0)] * (len(nonneg) - 1)
            start = list(nonneg[0].values)
        else:
            return None
        scale = max(Fraction(0), max(start)) / -sigma
        shifts = tuple(scale * x for x in shifts)
        combination = _combine(space, (), (), shifts, free)
        combination = [s + c for s, c in zip(start, combination)]
    return _solution(space, weights, shifts, [-c for c in combination])


def avoids_nonpositivity(
    assessment: SequenceABC[Gamble],
    lineality: SequenceABC[Gamble] = (),
    space: Optional[Space] = None,
) -> AvoidanceReport:
    """Decide whether an assessment avoids non-positivity.

    The decision asks for a normalized nonnegative combination of the
    assessment gambles and the unit indicators, shifted by an arbitrary
    lineality combination, that is pointwise nonpositive.  No such
    combination means the assessment is a sound starting point: its
    natural extension is coherent.  When one exists it is returned as an
    explicit witness.
    """
    assessment = tuple(assessment)
    lineality = tuple(lineality)
    space = _common_space(assessment, space)
    space = _common_space(lineality, space)
    if space is None:
        return _AVOIDS

    # The unit indicators count in the normalization: a witness may put
    # all its weight on them, as when the lineality alone holds a
    # nonnegative nonzero gamble.
    points = space.points()
    solution = _normalized(space, assessment, lineality, units=True)
    if solution is None:
        return _AVOIDS
    n = len(assessment)
    iw = tuple((p, d) for p, d in zip(points, solution.weights[n:]) if d)
    combination = Gamble(space, _compact(-s for s in solution.slack.values))
    witness = NonPositivityWitness(solution.weights[:n], iw, solution.shifts, combination)
    return AvoidanceReport(False, witness)


class DesirCone:
    """An immutable finitely generated cone of desirable gambles.

    The first coherence query runs the avoidance check and caches its
    report; afterwards every query is a pure function of the cone value.
    """

    __slots__ = ("_space", "_generators", "_lineality", "_report")

    def __init__(
        self,
        space: Space,
        generators: SequenceABC[Gamble] = (),
        lineality: SequenceABC[Gamble] = (),
    ) -> None:
        self._space = space
        self._generators = tuple(generators)
        self._lineality = tuple(lineality)
        for g in self._generators + self._lineality:
            if g.space != space:
                raise ValueError("all gambles must live on the cone's space")
        self._report: Optional[AvoidanceReport] = None

    @property
    def space(self) -> Space:
        return self._space

    @property
    def generators(self) -> tuple[Gamble, ...]:
        return self._generators

    @property
    def lineality(self) -> tuple[Gamble, ...]:
        return self._lineality

    def avoidance(self) -> AvoidanceReport:
        if self._report is None:
            self._report = avoids_nonpositivity(
                self._generators, self._lineality, self._space
            )
        return self._report

    @property
    def is_coherent(self) -> bool:
        return self.avoidance().avoids

    def ensure_coherent(self) -> None:
        report = self.avoidance()
        if not report.avoids:
            raise IncoherentConeError(report.witness)

    def __repr__(self) -> str:
        return (
            f"DesirCone(space={self._space!r}, generators={len(self._generators)}, "
            f"lineality={len(self._lineality)})"
        )


def _check_query_gamble(cone: DesirCone, f: Gamble) -> None:
    if f.space != cone.space:
        raise ValueError("the queried gamble lives on a different space")


def membership_report(cone: DesirCone, f: Gamble) -> MemberReport:
    """Membership of f in the cone, with a decomposition when it holds.

    The gamble belongs to the cone exactly when it is nonzero and splits
    into a nonnegative combination of generators and unit indicators
    plus a lineality shift, with the nonnegative part not identically
    zero.  That last requirement is what keeps the lineality space
    itself out of the cone; it is enforced by maximizing the total
    nonnegative weight and demanding a positive optimum.  The indicator
    weights are the row slacks, so the total weight is written over the
    generator and lineality columns, up to the constant sum of f.
    """
    # Raised here rather than in ensure_coherent: a caller that keeps the
    # exception keeps every frame of its traceback.
    report = cone.avoidance()
    if not report.avoids:
        raise IncoherentConeError(report.witness)
    _check_query_gamble(cone, f)
    if f.is_zero():
        return _NOT_MEMBER

    # A coherent cone keeps this maximum finite: an unbounded direction
    # would be a nonpositive combination of generators and indicators.
    costs = [1 - sum(g.values) for g in cone.generators]
    costs += [-sum(v.values) for v in cone.lineality]
    solution = _decompose(cone.space, cone.generators, cone.lineality, rhs=f, costs=costs)
    if solution is None or sum(solution.weights) + sum(solution.slack.values) == 0:
        return _NOT_MEMBER
    iw = _Remainder(f, cone.generators + cone.lineality, solution.weights + solution.shifts)
    return MemberReport(True, solution.weights, iw, solution.shifts)


def natural_extension_member(cone: DesirCone, f: Gamble) -> bool:
    """Does f belong to the natural extension the cone represents?"""
    return membership_report(cone, f).member


def lower_prevision(cone: DesirCone, f: Gamble) -> PrevisionValue:
    """Supremum price mu such that f minus mu stays in the cone.

    Computed as the decomposition program with the constant gamble as
    one more free column, maximizing its weight mu.  For a coherent cone
    the optimum is finite and lies between the minimum and maximum of f.
    An incoherent cone is not rejected.  Under a sure loss, a
    combination that is strictly negative everywhere, every gamble is
    priced arbitrarily high, reported as an unbounded marker.  A partial
    loss, nonpositive but zero somewhere, can leave a finite value.
    """
    _check_query_gamble(cone, f)
    space = cone.space
    shifts = (Gamble.unit(space),) + cone.lineality
    costs = [0] * len(cone.generators) + [1] + [0] * len(cone.lineality)
    solution = _decompose(space, cone.generators, shifts, rhs=f, costs=costs)
    if solution is None:
        raise AssertionError("the prevision program is always feasible")
    if solution.unbounded:
        return PrevisionValue.unbounded_above()
    return PrevisionValue.of(solution.shifts[0])


def upper_prevision(cone: DesirCone, f: Gamble) -> PrevisionValue:
    """Infimum selling price, conjugate to the lower prevision."""
    return -lower_prevision(cone, -f)


def is_marginally_desirable(cone: DesirCone, f: Gamble) -> bool:
    """Is the lower prevision of f exactly zero?"""
    cone.ensure_coherent()
    return lower_prevision(cone, f) == PrevisionValue.of(0)


def updated_member(cone: DesirCone, event: Iterable[Point], f: Gamble) -> bool:
    """Membership in the cone updated on observing the event.

    The updated cone keeps exactly the members vanishing outside the
    event, so the query is a support check followed by plain membership.
    """
    _check_query_gamble(cone, f)
    event_points = set(event)
    if not event_points:
        raise ValueError("cannot update on an empty event")
    index = {p: i for i, p in enumerate(cone.space.points())}
    for p in event_points:
        if p not in index:
            raise KeyError(f"{p!r} is not a point of {cone.space}")
    outside = [i for p, i in index.items() if p not in event_points]
    if any(f.values[i] != 0 for i in outside):
        return False
    return natural_extension_member(cone, f)
