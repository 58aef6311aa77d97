"""Finitely generated cones of desirable gambles.

A cone is described by a finite assessment of gambles, an optional
lineality basis (a linear subspace added to every element), and the
implicit positive orthant: the represented set is the positive hull of
the assessment together with all nonzero nonnegative gambles, shifted by
the lineality space.

Every query reduces to one exact rational linear program: does a gamble
decompose as a nonnegative combination of given gambles plus a lineality
shift plus a nonnegative remainder?  The program has one row per point,
combination <= rhs, and the row slacks are the remainder, that is the
weights of the unit indicators.  The queries differ only in what they
feed it:

* coherence, as avoiding non-positivity: rhs zero, the unit indicators
  as extra columns, and the nonnegative weights normalized to sum to
  one; a solution is a pointwise nonpositive combination;
* membership in the natural extension: rhs the queried gamble, and the
  total nonnegative weight maximized, which must be positive;
* lower prevision: rhs the queried gamble, the constant gamble as one
  more free column, and its weight maximized.

The Bernstein scans in desir.bernstein solve the same program on raised
coefficient vectors.  Cones are immutable; the coherence verdict is
computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence as SequenceABC

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class AvoidanceReport:
    avoids: bool
    witness: Optional[NonPositivityWitness] = None


@dataclass(frozen=True)
class MemberReport:
    """Membership verdict with, when positive, an explicit decomposition.

    The decomposition writes the queried gamble as a nonnegative
    combination of generators and unit indicators plus a lineality
    shift, with the nonnegative part not identically zero.
    """

    member: bool
    generator_weights: tuple[Fraction, ...] = ()
    indicator_weights: tuple[tuple[Point, Fraction], ...] = ()
    lineality_weights: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
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

    One row per point w of the space:

        sum_i lambda_i nonneg_i(w) + sum_j u_j free_j(w) <= rhs(w),

    with lambda >= 0, u free and rhs zero when omitted.  When normalized,
    the lambda sum to one.  With costs, aligned with the nonnegative
    columns and then the free ones, the program maximizes; without, it
    asks for feasibility.  Returns None when infeasible.  Otherwise the
    row slacks, rhs minus the combination, are read back as a gamble:
    they are the unit-indicator weights that complete the combination to
    exactly rhs.  A program without columns needs no solver: its only
    solution is empty.
    """
    columns = tuple(nonneg) + tuple(free)
    bound = rhs.values if rhs is not None else (Fraction(0),) * space.size
    x: list[Fraction] = []
    unbounded = False
    if columns:
        names = [f"x{c}" for c in range(len(columns))]
        variables = [
            (name, "nonneg" if c < len(nonneg) else "free") for c, name in enumerate(names)
        ]
        rows = [
            ({name: g.values[w] for name, g in zip(names, columns) if g.values[w]}, b)
            for w, b in enumerate(bound)
        ]
        normalization = [({name: 1 for name in names[: len(nonneg)]}, 1)] if normalized else []
        objective = None if costs is None else (dict(zip(names, costs)), "max")
        outcome = solve(LpProblem(variables, normalization, rows, objective))
        if not outcome.is_feasible:
            return None
        assert outcome.witness is not None
        x = [outcome.witness[name] for name in names]
        unbounded = outcome.status == "unbounded"
    elif normalized or min(bound) < 0:
        return None
    slack = list(bound)
    for weight, g in zip(x, columns):
        if weight:
            slack = [s - weight * a for s, a in zip(slack, g.values)]
    n = len(nonneg)
    return _Decomposition(tuple(x[:n]), tuple(x[n:]), Gamble(space, tuple(slack)), unbounded)


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
        return AvoidanceReport(True)

    # The unit indicators are explicit columns, counted in the
    # normalization: a witness may put all its weight on them, as when
    # the lineality alone holds a nonnegative nonzero gamble.
    points = space.points()
    units = tuple(Gamble.indicator(space, [p]) for p in points)
    solution = _decompose(space, assessment + units, lineality, normalized=True)
    if solution is None:
        return AvoidanceReport(True)
    n = len(assessment)
    iw = tuple((p, d) for p, d in zip(points, solution.weights[n:]) if d)
    witness = NonPositivityWitness(
        solution.weights[:n], iw, solution.shifts, -solution.slack
    )
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
    cone.ensure_coherent()
    _check_query_gamble(cone, f)
    if f.is_zero():
        return MemberReport(False)

    # A coherent cone keeps this maximum finite: an unbounded direction
    # would be a nonpositive combination of generators and indicators.
    costs = [1 - sum(g.values) for g in cone.generators]
    costs += [-sum(v.values) for v in cone.lineality]
    solution = _decompose(cone.space, cone.generators, cone.lineality, rhs=f, costs=costs)
    if solution is None or sum(solution.weights) + sum(solution.slack.values) == 0:
        return MemberReport(False)
    iw = tuple((p, d) for p, d in solution.slack.items() if d)
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
