"""Spaces, gamble algebra, permutations, and the count-vector machinery."""

import random
from fractions import Fraction

import pytest

from desir.gambles import (
    MAX_VALUES,
    CountSpace,
    Gamble,
    Permutation,
    SequenceSpace,
    SpaceTooLargeError,
    atom_members,
    atom_size,
    count_compositions,
    count_representation,
    count_vector,
    cylindrical_extend,
    hypgeo_expectation,
    kernel_basis,
    kernel_coordinates,
    lift_count_gamble,
    permute_gamble,
    project_ex,
)

from oracles import all_sequences, atom_of, hypergeometric_mean, symmetrize

F = Fraction
BW = ("b", "w")


class TestSpaces:
    def test_sequence_points_in_lex_order(self):
        space = SequenceSpace(BW, 2)
        assert list(space.points()) == [("b", "b"), ("b", "w"), ("w", "b"), ("w", "w")]

    def test_count_points_in_decreasing_lex_order(self):
        space = CountSpace(BW, 2)
        assert list(space.points()) == [(2, 0), (1, 1), (0, 2)]

    def test_count_points_three_categories(self):
        space = CountSpace(("a", "b", "c"), 2)
        assert list(space.points()) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        ]

    def test_spaces_convert_both_ways(self):
        seq = SequenceSpace(BW, 3)
        assert seq.count_space() == CountSpace(BW, 3)
        assert CountSpace(BW, 3).sequence_space() == seq

    def test_composition_count_matches_enumeration(self):
        for parts in (1, 2, 3, 4):
            for total in range(5):
                pts = count_compositions(total, parts)
                assert len(set(pts)) == len(pts)
                assert all(sum(m) == total and len(m) == parts for m in pts)

    def test_rejects_degenerate_spaces(self):
        with pytest.raises(ValueError):
            SequenceSpace((), 2)
        with pytest.raises(ValueError):
            SequenceSpace(BW, 0)
        with pytest.raises(ValueError):
            CountSpace(BW, -1)
        with pytest.raises(ValueError):
            SequenceSpace(("b", "b"), 2)

    def test_enumeration_over_the_budget_is_refused(self):
        big = SequenceSpace(("a", "b", "c"), 20)
        assert big.size > MAX_VALUES
        with pytest.raises(SpaceTooLargeError):
            big.points()
        with pytest.raises(SpaceTooLargeError):
            Gamble.indicator(big, [])
        with pytest.raises(SpaceTooLargeError):
            CountSpace(("a", "b", "c", "d"), 2000).points()


class TestGambleAlgebra:
    def test_from_mapping_checks_domain(self):
        space = SequenceSpace(BW, 1)
        g = Gamble.from_mapping(space, {("b",): 1, ("w",): F(-1, 2)})
        assert g[("b",)] == 1 and g[("w",)] == F(-1, 2)
        with pytest.raises(KeyError):
            Gamble.from_mapping(space, {("b",): 1})
        with pytest.raises(KeyError):
            Gamble.from_mapping(space, {("b",): 1, ("w",): 0, ("x",): 0})

    def test_vector_operations(self):
        space = SequenceSpace(BW, 1)
        g = Gamble.from_mapping(space, {("b",): 2, ("w",): -1})
        h = Gamble.from_mapping(space, {("b",): 1, ("w",): 1})
        assert (g + h).values == (3, 0)
        assert (g - h).values == (1, -2)
        assert (3 * g).values == (6, -3)
        assert (g * h).values == (2, -1)
        assert (-g).values == (-2, 1)
        assert g.shift(F(1, 2)).values == (F(5, 2), F(-1, 2))

    def test_sign_predicates_and_bounds(self):
        space = SequenceSpace(BW, 1)
        g = Gamble.from_mapping(space, {("b",): 0, ("w",): 3})
        assert g.is_nonnegative() and not g.is_nonpositive() and not g.is_zero()
        assert g.min_value() == 0 and g.max_value() == 3
        assert Gamble.zero(space).is_zero()

    def test_indicator_and_unit(self):
        space = SequenceSpace(BW, 2)
        ind = Gamble.indicator(space, [("b", "w"), ("w", "b")])
        assert ind[("b", "w")] == 1 and ind[("b", "b")] == 0
        assert Gamble.unit(space).values == (1, 1, 1, 1)

    def test_mixed_space_arithmetic_rejected(self):
        g = Gamble.zero(SequenceSpace(BW, 1))
        h = Gamble.zero(SequenceSpace(BW, 2))
        with pytest.raises(ValueError):
            g + h


class TestPermutations:
    def test_identity_and_swap(self):
        p = Permutation.identity(3)
        assert p.apply(("a", "b", "c")) == ("a", "b", "c")
        s = Permutation.swap(3, 0, 2)
        assert s.apply(("a", "b", "c")) == ("c", "b", "a")

    def test_compose_and_inverse(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 5)
            images = list(range(n))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            q = Permutation(tuple(sorted(range(n), key=lambda _: rng.random())))
            x = tuple(rng.choice("abc") for _ in range(n))
            assert p.compose(p.inverse()).apply(x) == x
            assert p.compose(q).apply(x) == p.apply(q.apply(x))

    def test_permute_gamble_is_transpose_action(self):
        space = SequenceSpace(BW, 3)
        f = Gamble.from_function(space, lambda x: 1 if x == ("b", "w", "w") else 0)
        pi = Permutation((1, 2, 0))
        g = permute_gamble(pi, f)
        for x in space.points():
            assert g[x] == f[pi.apply(x)]

    def test_permutation_invariance_of_projection(self):
        rng = random.Random(11)
        space = SequenceSpace(BW, 3)
        for _ in range(20):
            f = Gamble.from_function(space, lambda x: F(rng.randint(-4, 4)))
            sym = project_ex(f)
            pi = Permutation(tuple(rng.sample(range(3), 3)))
            assert permute_gamble(pi, sym) == sym


class TestCountMachinery:
    def test_count_vector(self):
        assert count_vector(("b", "w", "b"), BW) == (2, 1)
        assert count_vector(("w",), BW) == (0, 1)

    def test_atom_size_and_members_match_enumeration(self):
        for n in (1, 2, 3, 4):
            space = SequenceSpace(BW, n)
            for m in CountSpace(BW, n).points():
                brute = atom_of(BW, n, m)
                members = atom_members(space, m)
                assert sorted(members) == sorted(brute)
                assert atom_size(m) == len(brute)

    def test_hypgeo_expectation_matches_atom_average(self):
        rng = random.Random(23)
        space = SequenceSpace(BW, 3)
        for _ in range(20):
            values = {x: F(rng.randint(-6, 6), rng.randint(1, 3)) for x in space.points()}
            f = Gamble.from_mapping(space, values)
            for m in CountSpace(BW, 3).points():
                assert hypgeo_expectation(f, m) == hypergeometric_mean(values, BW, 3, m)

    def test_projection_matches_permutation_average(self):
        rng = random.Random(37)
        for n in (2, 3):
            space = SequenceSpace(BW, n)
            for _ in range(10):
                values = {x: F(rng.randint(-5, 5)) for x in space.points()}
                f = Gamble.from_mapping(space, values)
                brute = symmetrize(values, BW, n)
                sym = project_ex(f)
                assert all(sym[x] == brute[x] for x in space.points())

    def test_count_representation_then_lift_is_projection(self):
        rng = random.Random(41)
        space = SequenceSpace(BW, 3)
        for _ in range(20):
            f = Gamble.from_function(space, lambda x: F(rng.randint(-5, 5)))
            assert lift_count_gamble(count_representation(f)) == project_ex(f)

    def test_lift_then_count_representation_is_identity(self):
        rng = random.Random(43)
        counts = CountSpace(BW, 3)
        for _ in range(20):
            g = Gamble.from_function(counts, lambda m: F(rng.randint(-5, 5)))
            assert count_representation(lift_count_gamble(g)) == g

    def test_cylindrical_extension_ignores_new_coordinates(self):
        space = SequenceSpace(BW, 2)
        f = Gamble.from_mapping(
            space,
            {("b", "b"): 1, ("b", "w"): 2, ("w", "b"): 3, ("w", "w"): 4},
        )
        ext = cylindrical_extend(f, 3)
        assert ext.space == SequenceSpace(BW, 3)
        for x in ext.space.points():
            assert ext[x] == f[x[:2]]


class TestKernelBasis:
    def test_basis_elements_vanish_under_projection(self):
        for n in (2, 3):
            space = SequenceSpace(BW, n)
            for v in kernel_basis(space):
                assert project_ex(v).is_zero()

    def test_basis_spans_differences_within_atoms(self):
        # Each basis gamble is one atom member minus the atom's first
        # member in sequence order, and every non-singleton atom member
        # appears exactly once.
        space = SequenceSpace(BW, 3)
        basis = kernel_basis(space)
        expected = 0
        for m in CountSpace(BW, 3).points():
            expected += atom_size(m) - 1
        assert len(basis) == expected

    def test_basis_size_matches_dimension_count(self):
        # The symmetric subspace has one dimension per count vector, so
        # the kernel has |sequences| - |count vectors| dimensions.
        for categories, n in ((BW, 2), (BW, 4), (("a", "b", "c"), 2)):
            space = SequenceSpace(categories, n)
            points = len(list(space.points()))
            counts = len(list(CountSpace(categories, n).points()))
            assert len(kernel_basis(space)) == points - counts

    def test_coordinates_round_trip(self):
        rng = random.Random(107)
        for space in (SequenceSpace(BW, 3), SequenceSpace(("a", "b", "c"), 2)):
            basis = kernel_basis(space)
            for _ in range(5):
                coordinates = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis)
                combination = Gamble.zero(space)
                for c, v in zip(coordinates, basis):
                    combination = combination + c * v
                assert kernel_coordinates(combination) == coordinates
            with pytest.raises(ValueError):
                kernel_coordinates(Gamble.indicator(space, [space.points()[1]]))

    def test_basis_over_the_budget_is_refused(self):
        # 2^11 sequences enumerate within budget, but the basis would hold
        # 2^11 values for each of its 2^11 - 12 gambles.
        space = SequenceSpace(BW, 11)
        assert space.size <= MAX_VALUES
        with pytest.raises(SpaceTooLargeError):
            kernel_basis(space)
