"""Polynomial gambles on the simplex in Bernstein form.

A gamble on count vectors of total n induces a polynomial of degree at
most n on the simplex of category frequencies: the gamble's values are
its coefficients in the degree-n Bernstein basis.  This representation
is exact and closed under everything needed here: degree raising is a
rational linear map, multiplying by a basis polynomial is the count
updating transform, and evaluation is a finite sum.

Positivity questions are subtler than in the finite case.  A polynomial
can be strictly positive on the simplex while every Bernstein expansion
of it has a negative coefficient, so queries that quantify over "some
degree" get three-valued answers: yes with a certificate, never with a
witness, or undecided at a stated degree cap.  Two facts make the
definite answers sound: raising the degree never widens the coefficient
range, and every evaluation lies between the extreme coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence as SequenceABC

from .gambles import (
    CountSpace,
    Counts,
    Gamble,
    RationalLike,
    SequenceSpace,
    _as_fraction,
    atom_size,
    count_representation,
)
from .cones import _decompose
from .exchangeability import enl, update_count_gamble

__all__ = [
    "BernsteinCone",
    "BernsteinPoly",
    "ConeVerdict",
    "DEFAULT_CAP",
    "ExpansionVerdict",
    "FrequencyVector",
    "InfiniteExtensionDecision",
    "MemberVerdict",
    "avoids_bernstein_nonpositivity",
    "bern_multiply",
    "bernstein_eval",
    "coeff_range",
    "degree_raise",
    "extend_infinite",
    "family_member",
    "from_count_gamble",
    "from_sequence_gamble",
    "has_nonpositive_expansion",
    "has_positive_expansion",
    "multinomial_lpr",
    "updated_frequency_member",
]

DEFAULT_CAP = 64


@dataclass(frozen=True)
class FrequencyVector:
    """A point of the category-frequency simplex: nonnegative, summing to one."""

    categories: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.categories) != len(self.values):
            raise ValueError("one frequency per category")
        if any(v < 0 for v in self.values):
            raise ValueError("frequencies must be nonnegative")
        if sum(self.values) != 1:
            raise ValueError("frequencies must sum to one")

    @classmethod
    def from_mapping(
        cls, categories: tuple[str, ...], mapping: Mapping[str, RationalLike]
    ) -> FrequencyVector:
        return cls(categories, tuple(_as_fraction(mapping[z]) for z in categories))

    @classmethod
    def grid_point(cls, categories: tuple[str, ...], m: Counts, total: int) -> FrequencyVector:
        """The relative-frequency point m over total."""
        return cls(categories, tuple(Fraction(c, total) for c in m))

    def __getitem__(self, category: str) -> Fraction:
        return self.values[self.categories.index(category)]


def bernstein_eval(m: Counts, theta: FrequencyVector) -> Fraction:
    """Value of the basis polynomial of the count vector m at theta."""
    if len(m) != len(theta.categories):
        raise ValueError("count vector and frequencies have different widths")
    result = Fraction(atom_size(m))
    for count, value in zip(m, theta.values):
        result *= value**count
    return result


@dataclass(frozen=True)
class BernsteinPoly:
    """A polynomial on the simplex, stored by its Bernstein coefficients.

    The coefficients are a gamble on a count space; its total is the
    representation degree.  Raising the degree rewrites the same
    polynomial in a finer basis; raised coefficient gambles are memoized
    on the instance, so scanning consecutive degrees costs one
    incremental raise each.  Structural equality compares coefficients
    at the stored degrees; use same_polynomial for equality as functions
    on the simplex.
    """

    coefficients: Gamble
    _raised: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.coefficients.space, CountSpace):
            raise TypeError("coefficients must form a count gamble")

    @property
    def degree(self) -> int:
        space = self.coefficients.space
        assert isinstance(space, CountSpace)
        return space.total

    @property
    def categories(self) -> tuple[str, ...]:
        return self.coefficients.space.categories

    def raised(self, degree: int) -> Gamble:
        """Coefficients of this polynomial in the degree-n basis."""
        if degree < self.degree:
            raise ValueError("cannot lower the representation degree")
        if degree == self.degree:
            return self.coefficients
        best = self.degree
        for cached in self._raised:
            if best < cached <= degree:
                best = cached
        g = self.coefficients if best == self.degree else self._raised[best]
        # Refuse an over-budget degree before stepping through every degree below it.
        CountSpace(self.categories, degree).points()
        for n in range(best + 1, degree + 1):
            g = enl(g, n)
            self._raised[n] = g
        return g

    def evaluate(self, theta: FrequencyVector) -> Fraction:
        if theta.categories != self.categories:
            raise ValueError("frequency vector is over a different alphabet")
        return sum(
            (coeff * bernstein_eval(m, theta) for m, coeff in self.coefficients.items()
             if coeff),
            Fraction(0),
        )

    def is_zero(self) -> bool:
        return self.coefficients.is_zero()

    def same_polynomial(self, other: BernsteinPoly) -> bool:
        """Equality as functions on the simplex: compare at a common degree."""
        if self.categories != other.categories:
            return False
        common = max(self.degree, other.degree)
        return self.raised(common) == other.raised(common)


def from_count_gamble(g: Gamble) -> BernsteinPoly:
    """The polynomial whose Bernstein coefficients are the count gamble."""
    if not isinstance(g.space, CountSpace):
        raise TypeError("expected a count gamble")
    return BernsteinPoly(g)


def from_sequence_gamble(f: Gamble) -> BernsteinPoly:
    """The polynomial induced by a sequence gamble via its atom averages."""
    if not isinstance(f.space, SequenceSpace):
        raise TypeError("expected a sequence gamble")
    return BernsteinPoly(count_representation(f))


def degree_raise(p: BernsteinPoly, degree: int) -> BernsteinPoly:
    """The same polynomial rewritten in a higher-degree basis."""
    return BernsteinPoly(p.raised(degree))


def bern_multiply(observed: Counts, p: BernsteinPoly) -> BernsteinPoly:
    """Multiply by the basis polynomial of the observed count vector.

    The product of two basis polynomials is a likelihood weight times
    the basis polynomial of the summed counts, so on coefficients this
    is exactly the count-updating transform.  The one-draw basis
    polynomials sum to one, so the sum of the products with each of them
    is the same polynomial one degree up: that is how enl raises.
    """
    return BernsteinPoly(update_count_gamble(p.coefficients, observed))


def coeff_range(p: BernsteinPoly, degree: int) -> tuple[Fraction, Fraction]:
    """Smallest and largest coefficient in the degree-n basis.

    The interval shrinks (never grows) as the degree rises, and always
    contains the polynomial's range on the simplex.
    """
    g = p.raised(degree)
    return (g.min_value(), g.max_value())


@dataclass(frozen=True)
class ExpansionVerdict:
    """Outcome of a some-degree positivity question about one polynomial.

    yes carries the deciding degree and the coefficient vector found
    there; never carries either an evaluation witness (a simplex point
    with the disqualifying sign) or a coefficient bound that the nesting
    property propagates to all higher degrees; undecided names the cap.
    """

    status: str
    degree: Optional[int] = None
    certificate: Optional[Gamble] = None
    witness_point: Optional[FrequencyVector] = None
    witness_value: Optional[Fraction] = None
    bound: Optional[Fraction] = None
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in ("yes", "never", "undecided"):
            raise ValueError(f"unknown status {self.status!r}")


def _grid_witness(
    p: BernsteinPoly, degree: int, want_positive: bool
) -> Optional[tuple[FrequencyVector, Fraction]]:
    """First count-grid point at which p has the requested sign, if any."""
    if degree == 0:
        return None
    for m in CountSpace(p.categories, degree).points():
        theta = FrequencyVector.grid_point(p.categories, m, degree)
        value = p.evaluate(theta)
        if (value > 0) if want_positive else (value < 0):
            return theta, value
    return None


def has_nonpositive_expansion(p: BernsteinPoly, cap: int = DEFAULT_CAP) -> ExpansionVerdict:
    """Does some Bernstein expansion of p have all coefficients <= 0?

    Scans degrees up to the cap.  A degree where the largest coefficient
    is nonpositive answers yes.  A degree where the smallest coefficient
    is strictly positive answers never, since higher degrees only
    shrink the coefficient range; so does any grid point where p
    evaluates strictly positive, since every expansion's largest
    coefficient dominates every evaluation.
    """
    if cap < p.degree:
        raise ValueError("cap is below the polynomial's degree")
    for n in range(p.degree, cap + 1):
        g = p.raised(n)
        if g.max_value() <= 0:
            return ExpansionVerdict("yes", degree=n, certificate=g)
        if g.min_value() > 0:
            return ExpansionVerdict("never", degree=n, bound=g.min_value())
        witness = _grid_witness(p, n, want_positive=True)
        if witness is not None:
            theta, value = witness
            return ExpansionVerdict(
                "never", degree=n, witness_point=theta, witness_value=value
            )
    return ExpansionVerdict("undecided", cap=cap)


def has_positive_expansion(p: BernsteinPoly, cap: int = DEFAULT_CAP) -> ExpansionVerdict:
    """Does some Bernstein expansion of p have coefficients >= 0, not all zero?

    The zero polynomial never qualifies.  A degree with all coefficients
    nonnegative and some positive answers yes.  A degree whose largest
    coefficient is nonpositive answers never for a nonzero polynomial,
    by range nesting; so does a grid point with a strictly negative
    evaluation.
    """
    if cap < p.degree:
        raise ValueError("cap is below the polynomial's degree")
    if p.is_zero():
        return ExpansionVerdict("never", degree=p.degree, bound=Fraction(0))
    for n in range(p.degree, cap + 1):
        g = p.raised(n)
        if g.min_value() >= 0:
            return ExpansionVerdict("yes", degree=n, certificate=g)
        if g.max_value() <= 0:
            return ExpansionVerdict("never", degree=n, bound=g.max_value())
        witness = _grid_witness(p, n, want_positive=False)
        if witness is not None:
            theta, value = witness
            return ExpansionVerdict(
                "never", degree=n, witness_point=theta, witness_value=value
            )
    return ExpansionVerdict("undecided", cap=cap)


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of the avoidance check for a cone of polynomials.

    violated carries the degree, the normalized weights, and the
    nonpositive combined coefficient vector; avoided carries the degree
    it was certified at and, when the certificate is a uniform
    coefficient bound, that bound; undecided names the cap.
    """

    status: str
    degree: Optional[int] = None
    weights: tuple[Fraction, ...] = ()
    combination: Optional[Gamble] = None
    threshold: Optional[Fraction] = None
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in ("violated", "avoided", "undecided"):
            raise ValueError(f"unknown status {self.status!r}")


class BernsteinCone:
    """A finitely generated cone of polynomials on the simplex.

    The represented set is the positive hull of the generators together
    with every polynomial having some nonnegative, nonzero expansion.
    The avoidance verdict is computed once at the cone's degree cap and
    cached.
    """

    __slots__ = ("_categories", "_generators", "_cap", "_verdict")

    def __init__(
        self,
        categories: tuple[str, ...],
        generators: SequenceABC[BernsteinPoly] = (),
        cap: int = DEFAULT_CAP,
    ) -> None:
        self._categories = tuple(categories)
        self._generators = tuple(generators)
        for p in self._generators:
            if p.categories != self._categories:
                raise ValueError("all generators must share one alphabet")
        if cap < 1:
            raise ValueError("the degree cap must be positive")
        self._cap = cap
        self._verdict: Optional[ConeVerdict] = None

    @property
    def categories(self) -> tuple[str, ...]:
        return self._categories

    @property
    def generators(self) -> tuple[BernsteinPoly, ...]:
        return self._generators

    @property
    def cap(self) -> int:
        return self._cap

    def avoidance(self) -> ConeVerdict:
        if self._verdict is None:
            self._verdict = avoids_bernstein_nonpositivity(self)
        return self._verdict

    def __repr__(self) -> str:
        return (
            f"BernsteinCone(categories={self._categories!r}, "
            f"generators={len(self._generators)}, cap={self._cap})"
        )


def avoids_bernstein_nonpositivity(cone: BernsteinCone) -> ConeVerdict:
    """Can no normalized combination of generators expand nonpositively?

    Scans degrees from the largest generator degree to the cone's cap.
    At each degree the violation check is a feasibility program over
    normalized nonnegative weights.  Avoidance is certified when every
    generator's smallest coefficient is strictly positive (the bound
    survives all raising, so every combination stays above it), or when
    all generators' coefficients are nonnegative and no combination is
    nonpositive at this degree: raising preserves nonnegativity and is
    injective, so a nonpositive combination at a higher degree would
    force a zero combination already visible here.
    """
    generators = cone.generators
    if not generators:
        return ConeVerdict("avoided", degree=0)
    start = max(p.degree for p in generators)
    if cone.cap < start:
        raise ValueError("the degree cap is below a generator's degree")
    for n in range(start, cone.cap + 1):
        raised = [p.raised(n) for p in generators]
        solution = _decompose(CountSpace(cone.categories, n), raised, normalized=True)
        if solution is not None:
            return ConeVerdict(
                "violated", degree=n, weights=solution.weights, combination=-solution.slack
            )
        floor = min(g.min_value() for g in raised)
        if floor > 0:
            return ConeVerdict("avoided", degree=n, threshold=floor)
        if floor >= 0:
            return ConeVerdict("avoided", degree=n)
    return ConeVerdict("undecided", cap=cone.cap)


@dataclass(frozen=True)
class MemberVerdict:
    """Outcome of a membership query against a cone of polynomials.

    yes carries the deciding degree, the generator weights, and the
    residual coefficient vector; no_up_to_cap is an exhausted bounded
    search, not a proof of non-membership; incoherent reports that the
    cone's avoidance check found a violation.
    """

    status: str
    degree: Optional[int] = None
    weights: tuple[Fraction, ...] = ()
    residual: Optional[Gamble] = None
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status not in ("yes", "no_up_to_cap", "incoherent"):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def member(self) -> bool:
        return self.status == "yes"


def bernstein_natex_member(cone: BernsteinCone, q: BernsteinPoly) -> MemberVerdict:
    """Does q decompose over the cone's generators and a nonnegative part?

    At each degree the query is a feasibility program: nonnegative
    generator weights whose combination stays coefficientwise below q.
    Feasibility can only improve with degree, so the scan stops at the
    first success.  A violated cone answers incoherent; an undecided
    avoidance check does not block the search, since any decomposition
    found is valid on its own.
    """
    if q.categories != cone.categories:
        raise ValueError("the queried polynomial is over a different alphabet")
    if cone.avoidance().status == "violated":
        return MemberVerdict("incoherent")
    if q.is_zero():
        return MemberVerdict("no_up_to_cap", cap=cone.cap)
    generators = cone.generators
    start = max([q.degree] + [p.degree for p in generators])
    if cone.cap < start:
        raise ValueError("the degree cap is below the degrees involved")
    for n in range(start, cone.cap + 1):
        raised = [p.raised(n) for p in generators]
        solution = _decompose(CountSpace(cone.categories, n), raised, rhs=q.raised(n))
        if solution is not None:
            return MemberVerdict(
                "yes", degree=n, weights=solution.weights, residual=solution.slack
            )
    return MemberVerdict("no_up_to_cap", cap=cone.cap)


def updated_frequency_member(
    cone: BernsteinCone, observed: Counts, p: BernsteinPoly
) -> MemberVerdict:
    """Membership after observing counts: query the product polynomial."""
    return bernstein_natex_member(cone, bern_multiply(observed, p))


def multinomial_lpr(theta: FrequencyVector, g: Gamble) -> Fraction:
    """Expected value of a count gamble under iid sampling at theta.

    That is the polynomial with the gamble as Bernstein coefficients,
    evaluated at theta.
    """
    return BernsteinPoly(g).evaluate(theta)


@dataclass(frozen=True, eq=False)
class InfiniteExtensionDecision:
    """Outcome of asking for an arbitrarily long exchangeable family.

    Extendable decisions carry the frequency representation as a cone of
    polynomials; refusals carry the violation verdict with its witness
    combination; undecided names the cap.
    """

    status: str
    cone: Optional[BernsteinCone] = None
    verdict: Optional[ConeVerdict] = None
    cap: Optional[int] = None


def extend_infinite(
    space: SequenceSpace, assessment: SequenceABC[Gamble], cap: int = DEFAULT_CAP
) -> InfiniteExtensionDecision:
    """Can the assessment live inside a time-consistent exchangeable family?

    The assessment's polynomials must avoid Bernstein non-positivity;
    the scan is capped, so the answer may be undecided.  On success the
    cone of polynomials is the family's frequency representation.
    """
    assessment = tuple(assessment)
    for f in assessment:
        if f.space != space:
            raise ValueError("assessment gambles must live on the given space")
    polynomials = tuple(from_sequence_gamble(f) for f in assessment)
    cone = BernsteinCone(space.categories, polynomials, cap)
    verdict = cone.avoidance()
    if verdict.status == "violated":
        return InfiniteExtensionDecision("not_extendable", verdict=verdict)
    if verdict.status == "avoided":
        return InfiniteExtensionDecision("extendable", cone=cone, verdict=verdict)
    return InfiniteExtensionDecision("undecided", verdict=verdict, cap=cap)


def family_member(cone: BernsteinCone, f: Gamble) -> MemberVerdict:
    """Membership of a sequence gamble in the family the cone represents."""
    return bernstein_natex_member(cone, from_sequence_gamble(f))
