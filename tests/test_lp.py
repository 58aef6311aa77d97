"""Exact-simplex unit tests: known instances, certificates, and an oracle sweep."""

import random
from fractions import Fraction

import pytest

from desir.lp import (
    BOUNDED,
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    DEGENERATE_RUN,
    LpProblem,
    MalformedProblemError,
    solve,
)

from oracles import enumerate_lp_optimum

F = Fraction


def nn(*names):
    return [(n, "nonneg") for n in names]


def check_duals(problem, out):
    """The dual values certify the outcome by plain arithmetic.

    Bounded: dual-feasible, with b . y equal to the value.  Infeasible:
    a Farkas certificate, y . A >= 0 on nonnegative variables, zero on
    free ones, inequality values nonnegative and b . y < 0.
    """
    rows = problem.equalities + problem.inequalities
    y = out.duals
    assert y is not None and len(y) == len(rows)
    ineq = y[len(problem.equalities):]
    column = {name: F(0) for name, _ in problem.variables}
    for (coeffs, _rhs), yi in zip(rows, y):
        for name, c in coeffs:
            column[name] += yi * c
    by = sum((yi * rhs for (_coeffs, rhs), yi in zip(rows, y)), F(0))
    if out.status == INFEASIBLE:
        assert all(v >= 0 for v in ineq)
        for name, sign in problem.variables:
            assert column[name] == 0 if sign == "free" else column[name] >= 0
        assert by < 0
        return
    assert out.status == BOUNDED
    row, direction = problem.objective
    cost = {name: F(0) for name, _ in problem.variables}
    cost.update(dict(row))
    sense = 1 if direction == "max" else -1
    assert all(sense * v >= 0 for v in ineq)
    for name, sign in problem.variables:
        if sign == "free":
            assert column[name] == cost[name]
        else:
            assert sense * (column[name] - cost[name]) >= 0
    assert by == out.value


class TestKnownInstances:
    def test_simple_maximum(self):
        # max x + y with x + 2y <= 4, 3x + y <= 6: optimum 14/5 at (8/5, 6/5).
        problem = LpProblem(
            nn("x", "y"),
            inequalities=[({"x": 1, "y": 2}, 4), ({"x": 3, "y": 1}, 6)],
            objective=({"x": 1, "y": 1}, "max"),
        )
        out = solve(problem)
        assert out.status == BOUNDED
        assert out.value == F(14, 5)
        assert out.witness == {"x": F(8, 5), "y": F(6, 5)}

    def test_infeasible_equalities(self):
        problem = LpProblem(
            nn("x", "y"),
            equalities=[({"x": 1, "y": 1}, 1), ({"x": 1, "y": 1}, 2)],
        )
        assert solve(problem).status == INFEASIBLE

    def test_unbounded_with_ray(self):
        problem = LpProblem(
            nn("x", "y"),
            inequalities=[({"x": 1, "y": -1}, 1)],
            objective=({"y": 1}, "max"),
        )
        out = solve(problem)
        assert out.status == UNBOUNDED
        ray = out.ray
        assert ray["y"] > 0
        # The ray keeps the constraint slack from growing.
        assert ray["x"] - ray["y"] <= 0

    def test_minimization_sign(self):
        problem = LpProblem(
            nn("x"),
            inequalities=[({"x": -1}, -2)],
            objective=({"x": 1}, "min"),
        )
        out = solve(problem)
        assert out.status == BOUNDED and out.value == 2

    def test_free_variable_goes_negative(self):
        problem = LpProblem(
            [("x", "free")],
            equalities=[({"x": 2}, -3)],
        )
        out = solve(problem)
        assert out.status == FEASIBLE
        assert out.witness["x"] == F(-3, 2)

    def test_beale_cycling_example_terminates(self):
        # A classic degenerate instance that cycles under naive pivoting.
        problem = LpProblem(
            nn("x1", "x2", "x3", "x4"),
            inequalities=[
                ({"x1": F(1, 4), "x2": -8, "x3": -1, "x4": 9}, 0),
                ({"x1": F(1, 2), "x2": -12, "x3": F(-1, 2), "x4": 3}, 0),
                ({"x3": 1}, 1),
            ],
            objective=({"x1": F(3, 4), "x2": -20, "x3": F(1, 2), "x4": -6}, "max"),
        )
        out = solve(problem)
        assert out.status == BOUNDED and out.value == F(5, 4)

    def test_beale_example_leaves_the_cycle_by_the_fallback(self):
        # Largest-cost pivoting alone cycles here; the Bland fallback
        # shows up as degenerate pivots before the optimum.
        problem = LpProblem(
            nn("x1", "x2", "x3", "x4"),
            inequalities=[
                ({"x1": F(1, 4), "x2": -8, "x3": -1, "x4": 9}, 0),
                ({"x1": F(1, 2), "x2": -12, "x3": F(-1, 2), "x4": 3}, 0),
                ({"x3": 1}, 1),
            ],
            objective=({"x1": F(3, 4), "x2": -20, "x3": F(1, 2), "x4": -6}, "max"),
        )
        out = solve(problem)
        assert out.stats.degenerate_pivots >= DEGENERATE_RUN
        assert out.stats.phase_one_pivots == 0
        assert out.stats.phase_two_pivots > out.stats.degenerate_pivots
        assert (out.stats.rows, out.stats.columns) == (3, 7)
        check_duals(problem, out)

    def test_redundant_equality_rows(self):
        problem = LpProblem(
            nn("x", "y"),
            equalities=[
                ({"x": 1, "y": 1}, 2),
                ({"x": 2, "y": 2}, 4),
            ],
            objective=({"x": 1}, "max"),
        )
        out = solve(problem)
        assert out.status == BOUNDED and out.value == 2

    def test_feasibility_only_reports_feasible(self):
        problem = LpProblem(nn("x"), inequalities=[({"x": 1}, 5)])
        assert solve(problem).status == FEASIBLE

    def test_rejects_empty_variable_list(self):
        with pytest.raises(MalformedProblemError):
            LpProblem([])

    def test_rejects_undeclared_names(self):
        with pytest.raises(MalformedProblemError):
            LpProblem(nn("x"), equalities=[({"y": 1}, 0)])


class TestWitnessIntegrity:
    """Whatever the solver claims, the returned assignment must prove it."""

    def _check(self, problem, out):
        w = out.witness
        for name, sign in problem.variables:
            if sign == "nonneg":
                assert w[name] >= 0
        for coeffs, rhs in problem.equalities:
            assert sum(c * w[n] for n, c in coeffs) == rhs
        for coeffs, rhs in problem.inequalities:
            assert sum(c * w[n] for n, c in coeffs) <= rhs
        if out.status == BOUNDED:
            row, _direction = problem.objective
            assert sum(c * w[n] for n, c in row) == out.value

    def test_witnesses_satisfy_constraints(self):
        rng = random.Random(20260819)
        for _ in range(60):
            k = rng.randint(1, 4)
            names = [f"x{i}" for i in range(k)]
            eqs = []
            ineqs = []
            for _ in range(rng.randint(0, 2)):
                coeffs = {n: rng.randint(-3, 3) for n in names}
                ineqs.append((coeffs, rng.randint(0, 5)))
            for _ in range(rng.randint(0, 1)):
                coeffs = {n: rng.randint(-2, 2) for n in names}
                eqs.append((coeffs, rng.randint(-2, 2)))
            objective = ({n: rng.randint(-3, 3) for n in names}, "max")
            problem = LpProblem(nn(*names), eqs, ineqs, objective)
            out = solve(problem)
            if out.status in (BOUNDED, UNBOUNDED):
                self._check(problem, out)
            if out.status in (BOUNDED, INFEASIBLE):
                check_duals(problem, out)

    def test_unbounded_rays_improve(self):
        rng = random.Random(7)
        found = 0
        for _ in range(200):
            k = rng.randint(2, 3)
            names = [f"x{i}" for i in range(k)]
            ineqs = [({n: rng.randint(-2, 1) for n in names}, rng.randint(1, 3))
                     for _ in range(2)]
            row = {n: rng.randint(-1, 2) for n in names}
            problem = LpProblem(nn(*names), (), ineqs, (row, "max"))
            out = solve(problem)
            if out.status != UNBOUNDED:
                continue
            found += 1
            ray = out.ray
            assert sum(row.get(n, 0) * ray[n] for n in names) > 0
            assert all(ray[n] >= 0 for n in names)
            for coeffs, _rhs in problem.inequalities:
                assert sum(c * ray[n] for n, c in coeffs) <= 0
        assert found >= 10


class TestAgainstBasicSolutionEnumeration:
    """Random bounded standard-form programs against exhaustive search.

    Each instance carries a normalization row sum(x) = K, so the feasible
    region is bounded and optimality is attained at a basic solution the
    oracle can enumerate.
    """

    def test_status_and_value_agree(self):
        rng = random.Random(99)
        checked = {"optimal": 0, "infeasible": 0}
        for _ in range(120):
            k = rng.randint(2, 5)
            rows = rng.randint(1, 2)
            names = [f"x{i}" for i in range(k)]
            columns = [[F(rng.randint(-3, 3)) for _ in range(rows)] for _ in range(k)]
            rhs = [F(rng.randint(-2, 3)) for _ in range(rows)]
            # Normalization row: bounded region, vertices exist.
            for col in columns:
                col.append(F(1))
            rhs.append(F(rng.randint(1, 4)))
            objective = [F(rng.randint(-3, 3)) for _ in range(k)]

            status, value = enumerate_lp_optimum(columns, rhs, objective)
            problem = LpProblem(
                nn(*names),
                equalities=[
                    ({names[j]: columns[j][i] for j in range(k)}, rhs[i])
                    for i in range(rows + 1)
                ],
                objective=({names[j]: objective[j] for j in range(k)}, "max"),
            )
            out = solve(problem)
            if status == "infeasible":
                assert out.status == INFEASIBLE
            else:
                assert out.status == BOUNDED
                assert out.value == value
            check_duals(problem, out)
            checked[status] += 1
        assert checked["optimal"] >= 30 and checked["infeasible"] >= 10


class TestDualValues:
    """Dual values on mixed programs: free variables, both directions,
    equalities and inequalities with either sign of rhs."""

    def test_duals_certify_every_bounded_and_infeasible_outcome(self):
        rng = random.Random(4242)
        seen = {BOUNDED: 0, INFEASIBLE: 0}
        for _ in range(300):
            k = rng.randint(1, 4)
            names = [f"x{i}" for i in range(k)]
            variables = [(n, rng.choice(["nonneg", "nonneg", "free"])) for n in names]
            ineqs = [({n: rng.randint(-3, 3) for n in names}, rng.randint(-3, 4))
                     for _ in range(rng.randint(0, 3))]
            eqs = [({n: rng.randint(-2, 2) for n in names}, rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 2))]
            # A box keeps most programs bounded.
            ineqs += [({n: 1}, 5) for n in names] + [({n: -1}, 5) for n in names]
            direction = rng.choice(["max", "min"])
            objective = ({n: rng.randint(-3, 3) for n in names}, direction)
            problem = LpProblem(variables, eqs, ineqs, objective)
            out = solve(problem)
            if out.status in seen:
                check_duals(problem, out)
                seen[out.status] += 1
        assert seen[BOUNDED] >= 100 and seen[INFEASIBLE] >= 30

    def test_infeasible_equalities_carry_a_farkas_certificate(self):
        problem = LpProblem(
            nn("x", "y"),
            equalities=[({"x": 1, "y": 1}, 1), ({"x": 1, "y": 1}, 2)],
        )
        out = solve(problem)
        assert out.status == INFEASIBLE
        check_duals(problem, out)

    def test_feasibility_problems_have_zero_duals(self):
        problem = LpProblem(nn("x"), inequalities=[({"x": 1}, 5)], equalities=[({"x": 1}, 2)])
        out = solve(problem)
        assert out.status == FEASIBLE and out.duals == (0, 0)

    def test_redundant_rows_keep_their_duals(self):
        problem = LpProblem(
            nn("x", "y"),
            equalities=[({"x": 1, "y": 1}, 2), ({"x": 2, "y": 2}, 4)],
            inequalities=[({"x": 1}, -1), ({"y": -1}, 3)],
            objective=({"x": 1}, "min"),
        )
        out = solve(problem)
        check_duals(problem, out)
