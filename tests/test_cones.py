"""Coherence checks, natural-extension membership, and prevision bounds."""

import random
from fractions import Fraction

import pytest

from desir.cones import (
    _decompose,
    DesirCone,
    IncoherentConeError,
    MemberReport,
    PrevisionValue,
    avoids_nonpositivity,
    is_marginally_desirable,
    lower_prevision,
    membership_report,
    natural_extension_member,
    updated_member,
    upper_prevision,
)
from desir.bernstein import (
    BernsteinCone,
    FrequencyVector,
    bernstein_natex_member,
    from_count_gamble,
    multinomial_lpr,
)
from desir.gambles import (
    CountSpace,
    Gamble,
    SequenceSpace,
    count_representation,
    kernel_basis,
)
from oracles import enumerate_lp_optimum, primal_decompose

F = Fraction
BW = ("b", "w")
SPACE2 = SequenceSpace(BW, 2)


def seq_gamble(space, *values):
    pts = list(space.points())
    assert len(pts) == len(values)
    return Gamble.from_mapping(space, dict(zip(pts, map(F, values))))


def random_gamble(rng, space, lo=-3, hi=3):
    return Gamble.from_function(space, lambda x: F(rng.randint(lo, hi)))


def verify_witness(witness, assessment, lineality):
    """Recompute the claimed non-positive combination from its weights."""
    space = witness.combination.space
    total = Gamble.zero(space)
    for lam, g in zip(witness.generator_weights, assessment):
        total = total + lam * g
    for point, weight in witness.indicator_weights:
        total = total + weight * Gamble.indicator(space, [point])
    for mu, v in zip(witness.lineality_weights, lineality):
        total = total + mu * v
    assert total == witness.combination
    assert total.is_nonpositive()
    normalization = sum(witness.generator_weights, F(0)) + sum(
        (w for _, w in witness.indicator_weights), F(0)
    )
    assert normalization == 1
    assert all(lam >= 0 for lam in witness.generator_weights)
    assert all(w >= 0 for _, w in witness.indicator_weights)


class TestAvoidance:
    def test_empty_assessment_avoids(self):
        report = avoids_nonpositivity((), space=SPACE2)
        assert report.avoids and report.witness is None

    def test_nonpositive_generator_is_caught(self):
        g = seq_gamble(SPACE2, -1, 0, 0, -2)
        report = avoids_nonpositivity([g])
        assert not report.avoids
        verify_witness(report.witness, [g], [])

    def test_single_mixed_generator_avoids(self):
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        assert avoids_nonpositivity([g]).avoids

    def test_opposed_pair_is_caught(self):
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        h = seq_gamble(SPACE2, 1, -3, -3, 1)
        report = avoids_nonpositivity([g, h])
        assert not report.avoids
        verify_witness(report.witness, [g, h], [])

    def test_lineality_can_break_avoidance(self):
        # f is fine alone, but subtracting the lineality direction v
        # with weight 1 sends it nonpositive.
        f = seq_gamble(SPACE2, -1, 2, 0, -1)
        v = seq_gamble(SPACE2, 0, 1, 0, 0)
        assert avoids_nonpositivity([f]).avoids
        report = avoids_nonpositivity([f], lineality=[v])
        assert not report.avoids
        verify_witness(report.witness, [f], [v])

    def test_zero_gamble_alone_is_caught(self):
        report = avoids_nonpositivity([Gamble.zero(SPACE2)])
        assert not report.avoids

    def test_space_mismatch_rejected(self):
        g = Gamble.unit(SequenceSpace(BW, 3))
        with pytest.raises(ValueError):
            avoids_nonpositivity([g], space=SPACE2)


class TestMembership:
    def setup_method(self):
        self.g = seq_gamble(SPACE2, -3, 1, 1, -3)
        self.cone = DesirCone(SPACE2, [self.g])

    def test_zero_is_never_a_member(self):
        assert not natural_extension_member(self.cone, Gamble.zero(SPACE2))

    def test_nonnegative_nonzero_is_always_a_member(self):
        rng = random.Random(3)
        for _ in range(20):
            f = Gamble.from_function(SPACE2, lambda x: F(rng.randint(0, 3)))
            if f.is_zero():
                continue
            assert natural_extension_member(self.cone, f)

    def test_generators_are_members(self):
        assert natural_extension_member(self.cone, self.g)

    def test_membership_decomposition_is_exact(self):
        f = self.g + Gamble.indicator(SPACE2, [("b", "b")])
        report = membership_report(self.cone, f)
        assert report.member
        total = Gamble.zero(SPACE2)
        for lam, g in zip(report.generator_weights, self.cone.generators):
            total = total + lam * g
        for point, weight in report.indicator_weights:
            total = total + weight * Gamble.indicator(SPACE2, [point])
        assert total == f
        assert all(lam >= 0 for lam in report.generator_weights)
        assert all(w >= 0 for _, w in report.indicator_weights)

    def test_uniform_loss_is_not_a_member(self):
        f = seq_gamble(SPACE2, -1, -1, -1, -1)
        assert not natural_extension_member(self.cone, f)

    def test_scaled_generator_with_slack_is_member(self):
        f = 2 * self.g + Gamble.unit(SPACE2)
        assert natural_extension_member(self.cone, f)

    def test_kernel_direction_is_not_a_member_under_lineality(self):
        # Lineality directions and their negatives are in the cone's
        # linear part, but membership asks for the strict cone.
        cone = DesirCone(SPACE2, [self.g], kernel_basis(SPACE2))
        for v in cone.lineality:
            assert not natural_extension_member(cone, v)
            assert not natural_extension_member(cone, -v)

    def test_member_plus_lineality_shift_is_member(self):
        cone = DesirCone(SPACE2, [self.g], kernel_basis(SPACE2))
        v = cone.lineality[0]
        assert natural_extension_member(cone, self.g + v)
        assert natural_extension_member(cone, self.g - 2 * v)

    def test_incoherent_cone_refuses_queries(self):
        bad = DesirCone(SPACE2, [seq_gamble(SPACE2, -1, -1, -1, -1)])
        with pytest.raises(IncoherentConeError):
            natural_extension_member(bad, Gamble.unit(SPACE2))

    def test_query_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            natural_extension_member(self.cone, Gamble.unit(SequenceSpace(BW, 3)))


class TestClosureProperties:
    """Random sampling of the cone axioms: addition and positive scaling."""

    def _random_coherent_cone(self, rng):
        while True:
            gens = [random_gamble(rng, SPACE2) for _ in range(rng.randint(1, 3))]
            cone = DesirCone(SPACE2, gens)
            if cone.is_coherent:
                return cone

    def _random_member(self, rng, cone):
        # Random positive-hull element: guaranteed member by construction.
        total = Gamble.zero(SPACE2)
        for g in cone.generators:
            total = total + F(rng.randint(0, 2)) * g
        for x in SPACE2.points():
            total = total + F(rng.randint(0, 2)) * Gamble.indicator(SPACE2, [x])
        if total.is_zero():
            total = Gamble.unit(SPACE2)
        return total

    def test_sums_and_scalings_stay_inside(self):
        rng = random.Random(17)
        for _ in range(25):
            cone = self._random_coherent_cone(rng)
            f = self._random_member(rng, cone)
            h = self._random_member(rng, cone)
            assert natural_extension_member(cone, f)
            assert natural_extension_member(cone, h)
            assert natural_extension_member(cone, f + h)
            assert natural_extension_member(cone, F(rng.randint(1, 5), rng.randint(1, 3)) * f)

    def test_dominating_gambles_stay_inside(self):
        rng = random.Random(19)
        for _ in range(25):
            cone = self._random_coherent_cone(rng)
            f = self._random_member(rng, cone)
            bump = Gamble.from_function(SPACE2, lambda x: F(rng.randint(0, 2)))
            assert natural_extension_member(cone, f + bump)


class TestPrevisions:
    def test_vacuous_previsions_are_min_and_max(self):
        cone = DesirCone(SPACE2, [])
        rng = random.Random(29)
        for _ in range(20):
            f = random_gamble(rng, SPACE2, -5, 5)
            assert lower_prevision(cone, f) == PrevisionValue.of(f.min_value())
            assert upper_prevision(cone, f) == PrevisionValue.of(f.max_value())

    def test_known_prevision_pair(self):
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g], kernel_basis(SPACE2))
        f = Gamble.indicator(SPACE2, [("b", "w")])
        assert lower_prevision(cone, f) == PrevisionValue.of(F(3, 8))
        assert upper_prevision(cone, f) == PrevisionValue.of(F(1, 2))

    def test_conjugacy(self):
        rng = random.Random(31)
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g])
        for _ in range(20):
            f = random_gamble(rng, SPACE2)
            assert upper_prevision(cone, f) == -lower_prevision(cone, -f)

    def test_constant_shift(self):
        rng = random.Random(33)
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g])
        for _ in range(10):
            f = random_gamble(rng, SPACE2)
            c = F(rng.randint(-3, 3), rng.randint(1, 4))
            base = lower_prevision(cone, f)
            shifted = lower_prevision(cone, f.shift(c))
            assert shifted == PrevisionValue.of(base.value + c)

    def test_bounds_bracket_the_gamble(self):
        rng = random.Random(35)
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g])
        for _ in range(20):
            f = random_gamble(rng, SPACE2, -4, 4)
            lo = lower_prevision(cone, f)
            hi = upper_prevision(cone, f)
            assert f.min_value() <= lo.value <= hi.value <= f.max_value()

    def test_incoherent_cone_is_unbounded(self):
        bad = DesirCone(SPACE2, [seq_gamble(SPACE2, -1, -1, -1, -1)])
        out = lower_prevision(bad, Gamble.unit(SPACE2))
        assert out == PrevisionValue.unbounded_above()
        assert not out.is_finite

    def test_marginal_desirability(self):
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g], kernel_basis(SPACE2))
        f = Gamble.indicator(SPACE2, [("b", "w")])
        assert is_marginally_desirable(cone, f.shift(F(-3, 8)))
        assert not is_marginally_desirable(cone, f)


class TestConditioning:
    def test_conditioning_on_sure_event_is_plain_membership(self):
        g = seq_gamble(SPACE2, -3, 1, 1, -3)
        cone = DesirCone(SPACE2, [g])
        f = g + Gamble.unit(SPACE2)
        assert updated_member(cone, SPACE2.points(), f) == natural_extension_member(cone, f)

    def test_conditioning_respects_the_event(self):
        cone = DesirCone(SPACE2, [seq_gamble(SPACE2, 2, -1, 0, 0)])
        event = [("b", "b"), ("b", "w")]
        # Supported on the event and a positive multiple of the generator
        # there: desirable contingent on the event.
        f = seq_gamble(SPACE2, 2, -1, 0, 0)
        assert updated_member(cone, event, f)
        # A sure loss on the event is not.
        loss = seq_gamble(SPACE2, -1, -1, 0, 0)
        assert not updated_member(cone, event, loss)

    def test_gamble_outside_event_support_is_not_a_member(self):
        # The updated cone contains only gambles vanishing off the event,
        # so anything with mass outside is out regardless of its values.
        cone = DesirCone(SPACE2, [seq_gamble(SPACE2, -3, 1, 1, -3)])
        event = [("b", "b")]
        assert not updated_member(cone, event, Gamble.unit(SPACE2))

    def test_empty_event_rejected(self):
        cone = DesirCone(SPACE2, [seq_gamble(SPACE2, -3, 1, 1, -3)])
        with pytest.raises(ValueError):
            updated_member(cone, [], Gamble.unit(SPACE2))


def lex_prevision_member(theta: FrequencyVector, f: Gamble) -> bool:
    """Membership in the lexicographic refinement of an iid prevision.

    The prevision of f under independent draws with chances theta comes
    first; ties on its zero hyperplane are broken by the coordinates in
    point order.  The result is a strict total ordering of the nonzero
    gambles against zero.
    """
    key = [multinomial_lpr(theta, count_representation(f))]
    key.extend(f[x] for x in f.space.points())
    for entry in key:
        if entry != 0:
            return entry > 0
    return False


class TestMaximality:
    """Maximal coherent sets accept every nonzero gamble or its negation."""

    THETA = FrequencyVector(BW, (F(1, 3), F(2, 3)))

    def test_refined_prevision_set_decides_every_nonzero_gamble(self):
        rng = random.Random(401)
        for _ in range(200):
            f = Gamble.from_function(
                SPACE2, lambda x: F(rng.randint(-3, 3), rng.randint(1, 3))
            )
            if f.is_zero():
                continue
            assert lex_prevision_member(self.THETA, f) != lex_prevision_member(
                self.THETA, -f
            )

    def test_refined_prevision_set_is_coherent(self):
        rng = random.Random(403)
        assert not lex_prevision_member(self.THETA, Gamble.zero(SPACE2))
        members = []
        for _ in range(120):
            f = Gamble.from_function(SPACE2, lambda x: F(rng.randint(-4, 4)))
            if f.is_zero():
                continue
            if f.is_nonnegative():
                assert lex_prevision_member(self.THETA, f)
            if f.is_nonpositive():
                assert not lex_prevision_member(self.THETA, f)
            if lex_prevision_member(self.THETA, f):
                members.append(f)
        for i in range(0, len(members) - 1, 2):
            combo = members[i] + F(rng.randint(1, 5), 2) * members[i + 1]
            assert lex_prevision_member(self.THETA, combo)

    def test_vacuous_set_leaves_gambles_undecided(self):
        cone = DesirCone(SPACE2, [])
        f = seq_gamble(SPACE2, 1, -1, 0, 0)
        assert not natural_extension_member(cone, f)
        assert not natural_extension_member(cone, -f)


def credal_lower_prevision(cone, f):
    """min P.f over the linear previsions P >= 0, sum P = 1, P.g >= 0, P.v = 0.

    The dual of the lower-prevision program, solved by basic-solution
    enumeration: one column per point and one surplus column per
    generator.  Its feasible region is bounded, as the oracle needs.
    """
    n = len(cone.generators)
    columns = [
        [F(1)] + [g.values[w] for g in cone.generators] + [v.values[w] for v in cone.lineality]
        for w in range(cone.space.size)
    ]
    columns += [[F(0)] + [F(-(i == j)) for j in range(n)] + [F(0)] * len(cone.lineality)
                for i in range(n)]
    rhs = [F(1)] + [F(0)] * (n + len(cone.lineality))
    objective = [-a for a in f.values] + [F(0)] * n
    status, best = enumerate_lp_optimum(columns, rhs, objective)
    assert status == "optimal"
    return -best


def weighted_sum(space, weights, gambles):
    total = Gamble.zero(space)
    for lam, g in zip(weights, gambles):
        total = total + lam * g
    return total


class TestRandomCountCones:
    """Seeded random count cones, k in {2, 3}, at most 6 points.

    The seed fixes the shape: k alternates every four seeds, the number
    of generators cycles through 0-3, and odd seeds add one lineality
    vector.  Every certificate is recomputed exactly and every lower
    prevision of a coherent cone is compared with the dual oracle.
    """

    @staticmethod
    def instance(seed):
        rng = random.Random(1000 + seed)
        k = 2 + (seed // 4) % 2
        space = CountSpace(("a", "b", "c")[:k], rng.randint(1, 5 if k == 2 else 2))
        generators = [random_gamble(rng, space) for _ in range(seed % 4)]
        lineality = [random_gamble(rng, space)] if seed % 2 else []
        return rng, DesirCone(space, generators, lineality)

    @pytest.mark.parametrize("seed", range(48))
    def test_certificates_and_previsions(self, seed):
        rng, cone = self.instance(seed)
        space = cone.space
        report = avoids_nonpositivity(cone.generators, cone.lineality, space)
        assert report.avoids == cone.is_coherent
        if not report.avoids:
            verify_witness(report.witness, cone.generators, cone.lineality)
            with pytest.raises(IncoherentConeError):
                membership_report(cone, Gamble.unit(space))
            return
        queries = [random_gamble(rng, space) for _ in range(4)]
        queries += [g + v for g in cone.generators for v in cone.lineality]
        for f in queries + list(cone.generators):
            lower = lower_prevision(cone, f)
            assert lower == PrevisionValue.of(credal_lower_prevision(cone, f))
            assert f.min_value() <= lower.value <= -lower_prevision(cone, -f).value
            member = membership_report(cone, f)
            if lower.value > 0:
                assert member.member
            if lower.value < 0 or f.is_zero():
                assert not member.member
            if f in cone.generators:
                assert member.member
            if not member.member:
                continue
            assert all(lam >= 0 for lam in member.generator_weights)
            assert all(d > 0 for _, d in member.indicator_weights)
            assert any(member.generator_weights) or member.indicator_weights
            total = weighted_sum(space, member.generator_weights, cone.generators)
            total = total + weighted_sum(space, member.lineality_weights, cone.lineality)
            for point, d in member.indicator_weights:
                total = total + d * Gamble.indicator(space, [point])
            assert total == f

    @pytest.mark.parametrize("seed", range(48))
    def test_bernstein_certificates(self, seed):
        rng, cone = self.instance(seed)
        polys = [from_count_gamble(g) for g in cone.generators]
        degree = cone.space.total
        bcone = BernsteinCone(cone.space.categories, polys, cap=degree + 3)
        verdict = bcone.avoidance()
        if verdict.status == "violated":
            raised = [p.raised(verdict.degree) for p in polys]
            assert all(lam >= 0 for lam in verdict.weights)
            assert sum(verdict.weights) == 1
            assert weighted_sum(verdict.combination.space, verdict.weights, raised) == (
                verdict.combination
            )
            assert verdict.combination.is_nonpositive()
            return
        for _ in range(3):
            q = from_count_gamble(random_gamble(rng, cone.space))
            answer = bernstein_natex_member(bcone, q)
            if not answer.member:
                continue
            raised = [p.raised(answer.degree) for p in polys]
            assert all(lam >= 0 for lam in answer.weights)
            assert answer.residual.is_nonnegative()
            combination = weighted_sum(answer.residual.space, answer.weights, raised)
            assert combination + answer.residual == q.raised(answer.degree)


def check_solution(solution, nonneg, free, rhs, normalized=False, costs=None):
    """Recompute a decomposition read back from the dual, by plain arithmetic.

    A solution splits rhs into its combination plus a nonnegative slack;
    an unbounded one is an improving ray, whose combination plus slack
    is zero.
    """
    space = solution.slack.space
    assert all(lam >= 0 for lam in solution.weights)
    assert solution.slack.is_nonnegative()
    total = weighted_sum(space, solution.weights, nonneg)
    total = total + weighted_sum(space, solution.shifts, free) + solution.slack
    assert total == (Gamble.zero(space) if solution.unbounded else rhs)
    if normalized:
        assert sum(solution.weights) == 1
    if solution.unbounded:
        gain = sum(c * x for c, x in zip(costs, solution.weights + solution.shifts))
        assert gain > 0


class TestDualAgainstPrimal:
    """The dual programs against the primal ones in tests/oracles.py.

    Seeded count cones with k in {2, 3} and totals 1-6 (up to 28
    points).  The seed fixes the shape: k alternates, the total cycles
    through 1-6, one to three generators, no lineality, a random
    lineality vector or the constant gamble (which puts the constant in
    the lineality span, so the Gordan program is infeasible), and every
    fourth seed adds a generator that cancels the first, with or without
    a sure loss.  Verdicts and values must agree exactly, and every
    certificate the dual gives is recomputed.
    """

    @staticmethod
    def instance(seed):
        rng = random.Random(7000 + seed)
        k = 2 + seed % 2
        space = CountSpace(("a", "b", "c")[:k], 1 + (seed // 2) % 6)
        generators = [random_gamble(rng, space, -2, 3) for _ in range(1 + seed % 3)]
        if seed % 4 == 0:
            generators.append(-generators[0] - F(seed % 8 // 4) * Gamble.unit(space))
        kind = (seed // 3) % 3
        lineality = [[], [random_gamble(rng, space)], [Gamble.unit(space)]][kind]
        return rng, space, generators, lineality

    @pytest.mark.parametrize("seed", range(36))
    def test_cone_programs(self, seed):
        rng, space, gens, lin = self.instance(seed)
        size = space.size
        vals = [g.values for g in gens]
        lvals = [v.values for v in lin]
        units = [Gamble.indicator(space, [p]).values for p in space.points()]

        report = avoids_nonpositivity(gens, lin, space)
        primal = primal_decompose(size, vals + units, lvals, normalized=True)
        assert report.avoids == (primal is None)
        if not report.avoids:
            verify_witness(report.witness, gens, lin)

        # The normalized program without unit indicators, as Bernstein runs it.
        dual = _decompose(space, gens, lin, normalized=True)
        primal = primal_decompose(size, vals, lvals, normalized=True)
        assert (dual is None) == (primal is None)
        if dual is not None:
            check_solution(dual, gens, lin, Gamble.zero(space), normalized=True)

        cone = DesirCone(space, gens, lin)
        queries = [random_gamble(rng, space) for _ in range(3)]
        queries += [g + Gamble.unit(space) for g in gens] + list(gens)
        for f in queries:
            shifts = (Gamble.unit(space),) + tuple(lin)
            costs = [0] * len(gens) + [1] + [0] * len(lin)
            dual = _decompose(space, gens, shifts, rhs=f, costs=costs)
            primal = primal_decompose(size, vals, [s.values for s in shifts], f.values,
                                      costs=[F(c) for c in costs])
            check_solution(dual, gens, shifts, f, costs=costs)
            assert dual.unbounded == primal[3]
            lower = lower_prevision(cone, f)
            if primal[3]:
                assert lower == PrevisionValue.unbounded_above()
            else:
                assert lower == PrevisionValue.of(primal[1][0]) == PrevisionValue.of(
                    dual.shifts[0])

            dual = _decompose(space, gens, lin, rhs=f)
            primal = primal_decompose(size, vals, lvals, f.values)
            assert (dual is None) == (primal is None)
            if dual is not None:
                check_solution(dual, gens, lin, f)

            if not report.avoids:
                continue
            costs = [1 - sum(g.values) for g in gens] + [-sum(v.values) for v in lin]
            dual = _decompose(space, gens, lin, rhs=f, costs=costs)
            primal = primal_decompose(size, vals, lvals, f.values, costs=costs)
            assert (dual is None) == (primal is None)
            if dual is None:
                assert not membership_report(cone, f).member
                continue
            check_solution(dual, gens, lin, f)
            assert not dual.unbounded and not primal[3]
            assert sum(dual.weights) + sum(dual.slack.values) == sum(primal[0]) + sum(primal[2])
            member = membership_report(cone, f)
            assert member.member == (not f.is_zero() and sum(primal[0]) + sum(primal[2]) > 0)

    @pytest.mark.parametrize("seed", range(36))
    def test_bernstein_programs(self, seed):
        rng, space, gens, _ = self.instance(seed)
        polys = [from_count_gamble(g) for g in gens]
        queries = [from_count_gamble(random_gamble(rng, space)) for _ in range(2)]
        for n in range(space.total, space.total + 3):
            raised_space = CountSpace(space.categories, n)
            raised = [p.raised(n) for p in polys]
            vals = [g.values for g in raised]
            dual = _decompose(raised_space, raised, normalized=True)
            primal = primal_decompose(raised_space.size, vals, normalized=True)
            assert (dual is None) == (primal is None)
            if dual is not None:
                check_solution(dual, raised, (), Gamble.zero(raised_space), normalized=True)
            for q in queries:
                target = q.raised(n)
                dual = _decompose(raised_space, raised, rhs=target)
                primal = primal_decompose(raised_space.size, vals, rhs=target.values)
                assert (dual is None) == (primal is None)
                if dual is not None:
                    check_solution(dual, raised, (), target)


def test_dual_lower_prevision_takes_few_pivots(monkeypatch):
    # k=4, N=10: 286 points, so 286 point columns in the dual program.
    import desir.cones as cones_module

    space = CountSpace(("a", "b", "c", "d"), 10)
    gens = [Gamble.from_function(space, lambda m, i=i: F(m[i % 4] - m[(i + 1) % 4] + 3))
            for i in range(3)]
    f = Gamble.from_function(space, lambda m: F(m[0] ** 2 - m[1]))
    solve, outcomes = cones_module.solve, []

    def recording_solve(problem):
        outcomes.append(solve(problem))
        return outcomes[-1]

    monkeypatch.setattr(cones_module, "solve", recording_solve)
    lower = lower_prevision(DesirCone(space, gens), f)
    assert lower.is_finite
    (outcome,) = outcomes
    stats = outcome.stats
    assert stats.columns > space.size
    assert stats.phase_one_pivots + stats.phase_two_pivots <= space.size // 20


def test_member_indicator_weights_read_as_pairs():
    # The weights are computed when read; they behave as the tuple of
    # (point, weight) pairs of the remainder, and so does the report.
    space = CountSpace(("a", "b"), 3)
    g = Gamble.from_function(space, lambda m: F(m[0] - m[1]))
    f = g + Gamble.from_function(space, lambda m: F(m[0] % 2))
    report = membership_report(DesirCone(space, [g]), f)
    assert report.member
    pairs = tuple(report.indicator_weights)
    remainder = f - weighted_sum(space, report.generator_weights, [g])
    assert pairs == tuple((p, d) for p, d in remainder.items() if d)
    assert len(report.indicator_weights) == len(pairs) > 0
    assert report.indicator_weights[0] == pairs[0]
    assert report.indicator_weights == pairs and pairs == report.indicator_weights
    assert hash(report.indicator_weights) == hash(pairs)
    assert repr(report.indicator_weights) == repr(pairs)
    twin = MemberReport(True, report.generator_weights, pairs, report.lineality_weights)
    assert twin == report and hash(twin) == hash(report)
