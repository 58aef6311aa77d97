"""Exchangeable models: extension, count-level transport, and updating.

An exchangeable subject judges permuted gambles equivalent, so their
cone of desirable gambles is closed under adding any gamble that
symmetrizes to zero.  Everything such a cone says is already determined
by its image under the atom-averaging map: a cone of gambles on count
vectors.  So every query on a model, coherence, membership and
previsions alike, is decided on the count cone, whose space is much
smaller.  Certificates are lifted back to sequences: each count
indicator weight lands on one sequence of its atom, and what is left is
a shift along the symmetrization kernel.  The sequence cone, with that
kernel as lineality, is kept as the cross-check for those answers.

Updating after observing a sample reduces to a one-shot transform of
count gambles built from sampling-without-replacement likelihoods, and
extending an assessment to more variables reduces to a degree-raising
map on count gambles followed by the usual avoidance check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence as SequenceABC

from .cones import (
    AvoidanceReport,
    DesirCone,
    IncoherentConeError,
    MemberReport,
    NonPositivityWitness,
    avoids_nonpositivity,
    membership_report,
    natural_extension_member,
)
from .gambles import (
    CountSpace,
    Counts,
    Gamble,
    Sequence,
    SequenceSpace,
    atom_members,
    atom_size,
    count_compositions,
    count_representation,
    count_vector,
    cylindrical_extend,
    kernel_basis,
    kernel_coordinates,
    lift_count_gamble,
)

__all__ = [
    "ExchangeableModel",
    "ExtensionDecision",
    "LikelihoodWeights",
    "enl",
    "exchangeable_extension",
    "extend_finite",
    "likelihood_weights",
    "sample_conditioned_gamble",
    "update_count_gamble",
    "updated_member",
    "updated_sample_member",
]


class ExchangeableModel:
    """Both views of one exchangeable natural extension.

    The sequence cone has the assessment as generators and the
    symmetrization kernel as lineality; the count cone has the atom
    averages of the assessment as generators and no lineality.  The two
    record the same set of desirable gambles, so queries are answered on
    the count cone: the lower prevision of f, for one, is that of the
    count cone at count_representation(f).  Building a model does not
    check its coherence.
    """

    __slots__ = ("_sequence_cone", "_count_cone")

    def __init__(self, space: SequenceSpace, assessment: SequenceABC[Gamble]) -> None:
        assessment = tuple(assessment)
        self._sequence_cone = DesirCone(space, assessment, kernel_basis(space))
        self._count_cone = DesirCone(
            space.count_space(), tuple(count_representation(f) for f in assessment)
        )

    @property
    def sequence_cone(self) -> DesirCone:
        return self._sequence_cone

    @property
    def count_cone(self) -> DesirCone:
        return self._count_cone

    @property
    def space(self) -> SequenceSpace:
        space = self._sequence_cone.space
        assert isinstance(space, SequenceSpace)
        return space

    @property
    def count_space(self) -> CountSpace:
        space = self._count_cone.space
        assert isinstance(space, CountSpace)
        return space

    @property
    def categories(self) -> tuple[str, ...]:
        return self.space.categories

    @property
    def length(self) -> int:
        return self.space.length

    def avoidance(self) -> AvoidanceReport:
        """Coherence, decided on the count cone, with a witness on sequences."""
        report = self._count_cone.avoidance()
        if report.avoids:
            return report
        w = report.witness
        assert w is not None
        # Lifting multiplies each indicator weight by its atom size, so
        # the weights are normalized again.
        total = sum(w.generator_weights) + sum(d * atom_size(m) for m, d in w.indicator_weights)
        scale = 1 / total
        weights = tuple(scale * x for x in w.generator_weights)
        combination = scale * lift_count_gamble(w.combination)
        count_indicators = [(m, scale * d) for m, d in w.indicator_weights]
        indicators, shift = self._lift(weights, count_indicators, combination)
        return AvoidanceReport(False, NonPositivityWitness(weights, indicators, shift, combination))

    def ensure_coherent(self) -> None:
        report = self.avoidance()
        if not report.avoids:
            raise IncoherentConeError(report.witness)

    def membership_report(self, f: Gamble) -> MemberReport:
        """Membership of a sequence gamble, with a decomposition on sequences."""
        if f.space != self.space:
            raise ValueError("the queried gamble lives on a different space")
        self.ensure_coherent()
        report = membership_report(self._count_cone, count_representation(f))
        if not report.member:
            return report
        indicators, shift = self._lift(report.generator_weights, report.indicator_weights, f)
        return MemberReport(True, report.generator_weights, indicators, shift)

    def member(self, f: Gamble) -> bool:
        return self.membership_report(f).member

    def _lift(self, weights, count_indicators, target: Gamble) -> tuple[tuple, tuple]:
        """Sequence indicator weights and kernel shift lifting a count certificate.

        Each count indicator weight goes on the first sequence of its atom,
        times the atom size, so that the atom averages agree.
        """
        space = self.space
        indicators = tuple(
            (atom_members(space, m)[0], d * atom_size(m)) for m, d in count_indicators
        )
        values = list(target.values)
        for w, g in zip(weights, self._sequence_cone.generators):
            values = [v - w * a for v, a in zip(values, g.values)]
        for x, d in indicators:
            values[space.index(x)] -= d
        return indicators, kernel_coordinates(Gamble(space, tuple(values)))

    def __repr__(self) -> str:
        return (
            f"ExchangeableModel(categories={self.categories!r}, "
            f"length={self.length}, generators={len(self._sequence_cone.generators)})"
        )


def exchangeable_extension(
    space: SequenceSpace, assessment: SequenceABC[Gamble]
) -> ExchangeableModel:
    """Smallest coherent exchangeable model accepting the assessment.

    The assessment must avoid non-positivity once the symmetrization
    kernel is available as lineality, which the count cone decides;
    otherwise the extension would contain every gamble, and the failure
    is raised with its witness.
    """
    model = ExchangeableModel(space, assessment)
    model.ensure_coherent()
    return model


@dataclass(frozen=True)
class LikelihoodWeights:
    """Sampling-without-replacement weights for one observed count vector.

    Each weight pairs a candidate count vector for the remaining draws
    with the relative likelihood of seeing the observed counts first;
    all weights are strictly positive.
    """

    observed: Counts
    remaining_total: int
    weights: tuple[tuple[Counts, Fraction], ...]

    def as_dict(self) -> dict[Counts, Fraction]:
        return dict(self.weights)


def likelihood_weights(observed: Counts, remaining_total: int) -> LikelihoodWeights:
    """Weight each completion of the observed counts by its likelihood.

    The weight of a completion is the size of the observed atom times
    the size of the completion atom over the size of the combined atom.
    """
    if remaining_total < 0:
        raise ValueError("remaining total must be nonnegative")
    if any(c < 0 for c in observed):
        raise ValueError("counts must be nonnegative")
    observed_size = atom_size(observed)
    weights = []
    for rest in count_compositions(remaining_total, len(observed)):
        combined = tuple(a + b for a, b in zip(observed, rest))
        weight = Fraction(observed_size * atom_size(rest), atom_size(combined))
        weights.append((rest, weight))
    return LikelihoodWeights(observed, remaining_total, tuple(weights))


def update_count_gamble(g: Gamble, observed: Counts) -> Gamble:
    """Push a count gamble forward through an observed count vector.

    The result lives on the combined count space: at totals dominating
    the observation it is the likelihood-weighted original at the
    difference, elsewhere it is zero.
    """
    space = g.space
    if not isinstance(space, CountSpace):
        raise TypeError("updating needs a count gamble")
    if len(observed) != len(space.categories):
        raise ValueError("observed counts do not match the alphabet")
    if any(c < 0 for c in observed):
        raise ValueError("counts must be nonnegative")
    weights = likelihood_weights(observed, space.total).as_dict()
    target = CountSpace(space.categories, space.total + sum(observed))
    values = []
    for big in target.points():
        rest = tuple(b - o for b, o in zip(big, observed))
        if any(c < 0 for c in rest):
            values.append(Fraction(0))
        else:
            values.append(weights[rest] * g[rest])
    return Gamble(target, tuple(values))


def updated_member(model: ExchangeableModel, observed: Counts, g: Gamble) -> bool:
    """Is the count gamble desirable after observing the given counts?"""
    space = g.space
    if not isinstance(space, CountSpace):
        raise TypeError("updating needs a count gamble")
    if space.categories != model.categories:
        raise ValueError("alphabets do not match")
    if sum(observed) + space.total != model.length:
        raise ValueError("observed plus remaining must exhaust the model length")
    model.ensure_coherent()
    return natural_extension_member(model.count_cone, update_count_gamble(g, observed))


def sample_conditioned_gamble(
    space: SequenceSpace, prefix: Sequence, f: Gamble
) -> Gamble:
    """Spread a tail gamble over full sequences, zero off the prefix event."""
    tail_space = f.space
    if not isinstance(tail_space, SequenceSpace):
        raise TypeError("conditioning needs a sequence gamble")
    n_obs = len(prefix)
    if tail_space.categories != space.categories:
        raise ValueError("alphabets do not match")
    if n_obs + tail_space.length != space.length:
        raise ValueError("prefix plus tail must exhaust the sequence length")
    for symbol in prefix:
        if symbol not in space.categories:
            raise ValueError(f"symbol {symbol!r} is outside the alphabet")
    values = []
    for x in space.points():
        if x[:n_obs] == tuple(prefix):
            values.append(f[x[n_obs:]])
        else:
            values.append(Fraction(0))
    return Gamble(space, tuple(values))


def updated_sample_member(
    model: ExchangeableModel, prefix: Sequence, f: Gamble
) -> bool:
    """Is the tail gamble desirable after observing the sample prefix?

    Only the counts of the prefix matter, so the query routes through
    the count-level update of the tail gamble's atom averages.
    """
    tail_space = f.space
    if not isinstance(tail_space, SequenceSpace):
        raise TypeError("sample updating needs a sequence gamble on the tail")
    if tail_space.categories != model.categories:
        raise ValueError("alphabets do not match")
    if len(prefix) + tail_space.length != model.length:
        raise ValueError("prefix plus tail must exhaust the model length")
    observed = count_vector(tuple(prefix), model.categories)
    return updated_member(model, observed, count_representation(f))


def enl(g: Gamble, total: int) -> Gamble:
    """Raise a count gamble to a larger total, preserving its meaning.

    The value at a big count vector is the likelihood-weighted average
    of the original over all small vectors it dominates.  The map is
    linear, injective, and fixes constants; raising the atom averages of
    a gamble equals taking atom averages of its cylindrical extension.

    The one-draw basis polynomials sum to one, so one more draw is the
    sum of the updates on each single-draw count vector, and the total
    is raised one draw at a time.
    """
    space = g.space
    if not isinstance(space, CountSpace):
        raise TypeError("degree raising needs a count gamble")
    if total < space.total:
        raise ValueError("cannot lower the total")
    # Refuse an over-budget target before stepping through every total below it.
    CountSpace(space.categories, total).points()
    draws = count_compositions(1, len(space.categories))
    for _ in range(space.total, total):
        steps = [update_count_gamble(g, e) for e in draws]
        g = sum(steps[1:], steps[0])
    return g


@dataclass(frozen=True, eq=False)
class ExtensionDecision:
    """Outcome of asking for a longer exchangeable model.

    Extendable decisions carry the extended model, built from the
    cylindrically extended assessment when it is first read; refusals
    have no model and carry the nonpositive count combination and its
    sequence-level image, the explicit sure loss any extension would
    have to accept.
    """

    extendable: bool
    witness: Optional[NonPositivityWitness] = None
    sequence_loss: Optional[Gamble] = None
    _space: Optional[SequenceSpace] = field(default=None, repr=False)
    _assessment: tuple[Gamble, ...] = field(default=(), repr=False)

    @cached_property
    def model(self) -> Optional[ExchangeableModel]:
        if self._space is None:
            return None
        extended = tuple(cylindrical_extend(f, self._space.length) for f in self._assessment)
        return ExchangeableModel(self._space, extended)


def extend_finite(
    space: SequenceSpace, assessment: SequenceABC[Gamble], extra: int
) -> ExtensionDecision:
    """Can the assessment live inside an exchangeable model on more variables?

    The answer is decided entirely on the count side: raise every atom
    average to the larger total and check avoidance there.  The extended
    model's assessment is the cylindrically extended one, whose atom
    averages are exactly the raised gambles, so its coherence needs no
    second check, and the model is built only when it is read.
    """
    assessment = tuple(assessment)
    for f in assessment:
        if f.space != space:
            raise ValueError("assessment gambles must live on the given space")
    if extra < 0:
        raise ValueError("the number of extra variables must be nonnegative")
    total = space.length + extra
    raised = tuple(enl(count_representation(f), total) for f in assessment)
    report: AvoidanceReport = avoids_nonpositivity(
        raised, (), CountSpace(space.categories, total)
    )
    if not report.avoids:
        assert report.witness is not None
        loss = lift_count_gamble(report.witness.combination)
        return ExtensionDecision(False, witness=report.witness, sequence_loss=loss)
    return ExtensionDecision(
        True, _space=SequenceSpace(space.categories, total), _assessment=assessment
    )
