"""Exchangeable models: construction, transport, updating, and extension."""

import random
from fractions import Fraction

import pytest

from desir.bernstein import BernsteinPoly
from desir.cones import (
    IncoherentConeError,
    avoids_nonpositivity,
    lower_prevision,
    membership_report,
    natural_extension_member,
    upper_prevision,
)
from desir.exchangeability import (
    ExchangeableModel,
    enl,
    exchangeable_extension,
    extend_finite,
    likelihood_weights,
    sample_conditioned_gamble,
    update_count_gamble,
    updated_member,
    updated_sample_member,
)
from desir.gambles import (
    CountSpace,
    Gamble,
    SequenceSpace,
    atom_size,
    count_representation,
    cylindrical_extend,
    kernel_basis,
    project_ex,
)

from oracles import raise_counts

F = Fraction
BW = ("b", "w")


def seq_gamble(space, *values):
    pts = list(space.points())
    return Gamble.from_mapping(space, dict(zip(pts, map(F, values))))


def count_gamble(space, *values):
    pts = list(space.points())
    return Gamble.from_mapping(space, dict(zip(pts, map(F, values))))


class TestModelConstruction:
    def test_model_shapes(self):
        space = SequenceSpace(BW, 3)
        model = exchangeable_extension(space, [])
        assert model.space == space
        assert model.count_space == CountSpace(BW, 3)
        assert model.categories == BW and model.length == 3

    def test_count_generators_are_representations(self):
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -3, 1, 1, -3)
        model = exchangeable_extension(space, [g])
        assert model.count_cone.generators == (count_representation(g),)

    def test_incoherent_assessment_raises_with_witness(self):
        space = SequenceSpace(BW, 2)
        # Symmetrizes to a sure loss even though no single value set is.
        g = seq_gamble(space, -3, 1, 1, -3)
        h = seq_gamble(space, 1, -3, -3, 1)
        with pytest.raises(IncoherentConeError) as info:
            exchangeable_extension(space, [g, h])
        witness = info.value.witness
        assert witness is not None
        assert witness.combination.is_nonpositive()

    def test_space_mismatch_rejected(self):
        space = SequenceSpace(BW, 2)
        g = Gamble.unit(SequenceSpace(BW, 3))
        with pytest.raises(ValueError):
            exchangeable_extension(space, [g])


class TestTransport:
    def test_sequence_membership_equals_count_membership(self):
        rng = random.Random(61)
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -3, 1, 1, -3)
        model = exchangeable_extension(space, [g])
        for _ in range(30):
            f = Gamble.from_function(space, lambda x: F(rng.randint(-3, 3)))
            by_sequence = natural_extension_member(model.sequence_cone, f)
            by_count = natural_extension_member(
                model.count_cone, count_representation(f)
            )
            assert by_sequence == by_count
            assert model.member(f) == by_count

    def test_kernel_directions_are_never_members(self):
        space = SequenceSpace(BW, 3)
        model = exchangeable_extension(space, [])
        for v in kernel_basis(space):
            assert not model.member(v)
            assert not model.member(-v)

    def test_membership_only_sees_the_symmetrized_gamble(self):
        rng = random.Random(67)
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -3, 1, 1, -3)
        model = exchangeable_extension(space, [g])
        for _ in range(20):
            f = Gamble.from_function(space, lambda x: F(rng.randint(-3, 3)))
            assert model.member(f) == model.member(project_ex(f))


class TestLikelihoodWeights:
    def test_known_two_draw_weights(self):
        # One b observed, one draw remaining: completing with b means the
        # urn held (2,0) and completing with w means (1,1).
        out = likelihood_weights((1, 0), 1)
        table = out.as_dict()
        assert table[(1, 0)] == F(atom_size((1, 0)) * atom_size((1, 0)), atom_size((2, 0)))
        assert table[(0, 1)] == F(atom_size((1, 0)) * atom_size((0, 1)), atom_size((1, 1)))
        assert table[(1, 0)] == 1 and table[(0, 1)] == F(1, 2)

    def test_weights_follow_the_ratio_formula(self):
        rng = random.Random(71)
        for _ in range(20):
            observed = (rng.randint(0, 2), rng.randint(0, 2))
            remaining = rng.randint(0, 3)
            out = likelihood_weights(observed, remaining)
            for completion, weight in out.weights:
                combined = tuple(a + b for a, b in zip(observed, completion))
                expected = F(
                    atom_size(observed) * atom_size(completion), atom_size(combined)
                )
                assert weight == expected

    def test_hypergeometric_row_normalization(self):
        # For a fixed urn M, the chance of each observable first-draw
        # count sums to one; this is the same ratio read the other way.
        for total, k in ((3, 1), (4, 2), (5, 3)):
            for M in CountSpace(BW, total).points():
                acc = F(0)
                for m in CountSpace(BW, k).points():
                    if all(a <= b for a, b in zip(m, M)):
                        rest = tuple(b - a for a, b in zip(m, M))
                        acc += F(atom_size(m) * atom_size(rest), atom_size(M))
                assert acc == 1


class TestUpdating:
    def test_symbolic_two_variable_update(self):
        # After seeing one b out of two variables, a gamble g on the one
        # remaining count transforms to g'(2,0) = g(1,0),
        # g'(1,1) = g(0,1)/2, g'(0,2) = 0.
        rng = random.Random(73)
        for _ in range(10):
            a = F(rng.randint(-9, 9), rng.randint(1, 5))
            b = F(rng.randint(-9, 9), rng.randint(1, 5))
            g = count_gamble(CountSpace(BW, 1), a, b)
            out = update_count_gamble(g, (1, 0))
            assert out.space == CountSpace(BW, 2)
            assert out[(2, 0)] == a
            assert out[(1, 1)] == b / 2
            assert out[(0, 2)] == 0

    def test_update_supports_only_dominating_counts(self):
        g = count_gamble(CountSpace(BW, 1), 5, 7)
        out = update_count_gamble(g, (0, 2))
        assert out.space == CountSpace(BW, 3)
        # Counts that cannot contain the two observed w draws get zero.
        assert out[(3, 0)] == 0
        assert out[(2, 1)] == 0
        # The rest carry the likelihood-weighted original values.
        assert out[(1, 2)] == F(5, 3)
        assert out[(0, 3)] == 7

    def test_count_and_sample_routes_agree(self):
        rng = random.Random(79)
        space = SequenceSpace(BW, 3)
        g = seq_gamble(space, -3, 1, 1, 1, 1, 1, 1, -3)
        model = exchangeable_extension(space, [g])
        tail_space = SequenceSpace(BW, 1)
        for _ in range(30):
            prefix = tuple(rng.choice(BW) for _ in range(2))
            f = Gamble.from_function(tail_space, lambda x: F(rng.randint(-3, 3)))
            by_sample = updated_sample_member(model, prefix, f)
            observed = tuple(sum(1 for s in prefix if s == z) for z in BW)
            by_count = updated_member(model, observed, count_representation(f))
            assert by_sample == by_count

    def test_sample_route_matches_conditioned_sequence_membership(self):
        rng = random.Random(83)
        space = SequenceSpace(BW, 3)
        g = seq_gamble(space, -3, 1, 1, 1, 1, 1, 1, -3)
        model = exchangeable_extension(space, [g])
        tail_space = SequenceSpace(BW, 1)
        for _ in range(20):
            prefix = tuple(rng.choice(BW) for _ in range(2))
            f = Gamble.from_function(tail_space, lambda x: F(rng.randint(-3, 3)))
            conditioned = sample_conditioned_gamble(space, prefix, f)
            assert updated_sample_member(model, prefix, f) == model.member(conditioned)

    def test_incoherent_model_refuses_updates_with_a_sequence_witness(self):
        space = SequenceSpace(BW, 2)
        model = ExchangeableModel(space, [seq_gamble(space, -3, 1, 1, -3),
                                          seq_gamble(space, 1, -3, -3, 1)])
        with pytest.raises(IncoherentConeError) as info:
            updated_member(model, (1, 0), count_gamble(CountSpace(BW, 1), 1, 1))
        witness = info.value.witness
        assert witness.combination.space == space
        assert witness.combination.is_nonpositive()

    def test_update_size_mismatch_rejected(self):
        space = SequenceSpace(BW, 3)
        model = exchangeable_extension(space, [])
        g = count_gamble(CountSpace(BW, 2), 1, 1, 1)
        with pytest.raises(ValueError):
            updated_member(model, (2, 0), g)


class TestEnl:
    def test_two_point_average(self):
        g = count_gamble(CountSpace(BW, 1), 4, 10)
        out = enl(g, 2)
        assert out[(2, 0)] == 4
        assert out[(1, 1)] == 7
        assert out[(0, 2)] == 10

    def test_known_degree_three_raise(self):
        g = count_gamble(CountSpace(BW, 2), -3, 1, -3)
        out = enl(g, 3)
        assert [out[m] for m in out.space.points()] == [-3, F(-1, 3), F(-1, 3), -3]

    def test_fixes_constants(self):
        for c in (F(0), F(1), F(-7, 3)):
            g = Gamble.constant(CountSpace(BW, 2), c)
            out = enl(g, 5)
            assert all(v == c for v in out.values)

    def test_linearity(self):
        rng = random.Random(89)
        space = CountSpace(BW, 2)
        for _ in range(10):
            g = Gamble.from_function(space, lambda m: F(rng.randint(-5, 5)))
            h = Gamble.from_function(space, lambda m: F(rng.randint(-5, 5)))
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            assert enl(g + c * h, 4) == enl(g, 4) + c * enl(h, 4)

    def test_composition_of_single_steps(self):
        rng = random.Random(97)
        space = CountSpace(BW, 2)
        for _ in range(10):
            g = Gamble.from_function(space, lambda m: F(rng.randint(-5, 5)))
            assert enl(enl(g, 3), 5) == enl(g, 5)

    def test_injective_on_random_pairs(self):
        rng = random.Random(101)
        space = CountSpace(BW, 2)
        for _ in range(20):
            g = Gamble.from_function(space, lambda m: F(rng.randint(-4, 4)))
            h = Gamble.from_function(space, lambda m: F(rng.randint(-4, 4)))
            if g != h:
                assert enl(g, 4) != enl(h, 4)

    def test_raising_commutes_with_cylindrical_extension(self):
        rng = random.Random(103)
        space = SequenceSpace(BW, 2)
        for _ in range(10):
            f = Gamble.from_function(space, lambda x: F(rng.randint(-4, 4)))
            lifted = count_representation(cylindrical_extend(f, 4))
            assert lifted == enl(count_representation(f), 4)

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_pairwise_oracle_at_more_categories(self, k):
        rng = random.Random(107 + k)
        categories = tuple("abcd"[:k])
        for gap in range(1, 7):
            for _ in range(2):
                space = CountSpace(categories, rng.randint(0, 4))
                g = Gamble.from_function(
                    space, lambda m: F(rng.randint(-5, 5), rng.randint(1, 3))
                )
                total = space.total + gap
                assert dict(enl(g, total).items()) == raise_counts(dict(g.items()), k, total)

    def test_raising_commutes_with_cylindrical_extension_at_three_categories(self):
        rng = random.Random(109)
        for length in (1, 2, 3):
            space = SequenceSpace(("a", "b", "c"), length)
            for length_up in range(length + 1, 7):
                f = Gamble.from_function(space, lambda x: F(rng.randint(-4, 4)))
                lifted = count_representation(cylindrical_extend(f, length_up))
                assert lifted == enl(count_representation(f), length_up)

    @pytest.mark.parametrize("k", [3, 4])
    def test_memoized_raising_equals_one_call(self, k):
        rng = random.Random(113 + k)
        categories = tuple("abcd"[:k])
        for start in (0, 1, 3):
            g = Gamble.from_function(
                CountSpace(categories, start), lambda m: F(rng.randint(-5, 5))
            )
            p = BernsteinPoly(g)
            for n in range(start, 13):
                assert p.raised(n) == enl(g, n)


class TestExtendFinite:
    def test_known_refusal_with_sure_loss(self):
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -3, 1, 1, -3)
        decision = extend_finite(space, [g], 1)
        assert not decision.extendable
        assert decision.model is None
        witness = decision.witness
        assert witness is not None
        assert witness.combination.is_nonpositive()
        loss = decision.sequence_loss
        assert loss is not None
        assert loss.space == SequenceSpace(BW, 3)
        assert loss.is_nonpositive() and not loss.is_zero()

    def test_extension_by_zero_extra_variables(self):
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -3, 1, 1, -3)
        decision = extend_finite(space, [g], 0)
        assert decision.extendable
        assert decision.model.length == 2

    def test_successful_extension_accepts_cylinders(self):
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, 0, 1, 1, 2)
        decision = extend_finite(space, [g], 2)
        assert decision.extendable
        model = decision.model
        assert model.length == 4
        assert model.member(cylindrical_extend(g, 4))

    def test_extended_count_generators_are_raised_originals(self):
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, 0, 1, 1, 2)
        decision = extend_finite(space, [g], 2)
        raised = enl(count_representation(g), 4)
        assert decision.model.count_cone.generators == (raised,)

    def test_incoherent_assessment_is_refused_outright(self):
        # A sure loss fits no exchangeable model at any length, so the
        # decision is a refusal with a witness rather than an error.
        space = SequenceSpace(BW, 2)
        g = seq_gamble(space, -1, -1, -1, -1)
        decision = extend_finite(space, [g], 1)
        assert not decision.extendable
        assert decision.witness is not None
        assert decision.sequence_loss.is_nonpositive()


def combine(space, weights, gambles, indicators=()):
    """sum w g over the weighted gambles plus sum d 1_x over the indicators."""
    total = Gamble.zero(space)
    for w, g in zip(weights, gambles):
        total = total + w * g
    for x, d in indicators:
        total = total + d * Gamble.indicator(space, [x])
    return total


class TestCountViewAgainstSequenceView:
    """Seeded random exchangeable models: the count view, whose answers
    every exchangeable query uses, against the sequence view with the
    symmetrization kernel as lineality.

    The seed fixes the shape, k=2 with N from 1 to 4 or k=3 with N from
    1 to 3, and draws 1-3 generators with values in [-3, 3].  On every
    third seed the last generator is the negated sum of the others minus
    one indicator, so that those models are incoherent.  The sequence
    view is the slow oracle here: a k=3, N=3 program takes up to 0.2 s.
    """

    SHAPES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3))

    @staticmethod
    def instance(seed):
        rng = random.Random(2000 + seed)
        k, length = TestCountViewAgainstSequenceView.SHAPES[seed % 7]
        space = SequenceSpace(("a", "b", "c")[:k], length)
        n = rng.randint(1, 3)
        gens = [Gamble.from_function(space, lambda x: F(rng.randint(-2, 3))) for _ in range(n)]
        if seed % 3 == 0:
            hit = Gamble.indicator(space, [rng.choice(space.points())])
            gens[-1] = -combine(space, [1] * (n - 1), gens[:-1]) - hit
        return rng, space, gens

    @pytest.mark.parametrize("seed", range(28))
    def test_verdicts_certificates_and_previsions(self, seed):
        rng, space, gens = self.instance(seed)
        kernel = kernel_basis(space)
        model = ExchangeableModel(space, gens)
        report = model.avoidance()
        assert report.avoids == avoids_nonpositivity(gens, kernel).avoids
        queries = [Gamble.from_function(space, lambda x: F(rng.randint(-3, 3)))
                   for _ in range(2)]
        queries.append(gens[0] + Gamble.constant(space, rng.randint(0, 1)))
        for f in queries:
            for prevision in (lower_prevision, upper_prevision):
                by_count = prevision(model.count_cone, count_representation(f))
                assert by_count == prevision(model.sequence_cone, f)
        if not report.avoids:
            witness = report.witness
            assert all(w >= 0 for w in witness.generator_weights)
            assert all(d >= 0 for _, d in witness.indicator_weights)
            assert sum(witness.generator_weights) + sum(
                d for _, d in witness.indicator_weights) == 1
            total = combine(space, witness.generator_weights, gens, witness.indicator_weights)
            total = total + combine(space, witness.lineality_weights, kernel)
            assert total == witness.combination
            assert total.is_nonpositive()
            with pytest.raises(IncoherentConeError):
                model.membership_report(queries[0])
            return
        for f in queries + [Gamble.zero(space)] + kernel[:1]:
            decomposition = model.membership_report(f)
            assert decomposition.member == membership_report(model.sequence_cone, f).member
            if not decomposition.member:
                continue
            assert all(w >= 0 for w in decomposition.generator_weights)
            assert all(d >= 0 for _, d in decomposition.indicator_weights)
            assert any(decomposition.generator_weights) or any(
                d for _, d in decomposition.indicator_weights)
            total = combine(space, decomposition.generator_weights, gens,
                            decomposition.indicator_weights)
            assert total + combine(space, decomposition.lineality_weights, kernel) == f

    def test_extension_refuses_what_the_sequence_view_refuses(self):
        for seed in range(0, 28, 3):
            _, space, gens = self.instance(seed)
            if avoids_nonpositivity(gens, kernel_basis(space)).avoids:
                assert exchangeable_extension(space, gens).sequence_cone.generators == tuple(gens)
            else:
                with pytest.raises(IncoherentConeError):
                    exchangeable_extension(space, gens)
