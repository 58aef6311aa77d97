"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes answers from first principles with the dumbest
correct method available: permutation averaging enumerates all N! symbols,
membership search scans a rational coefficient grid, and the linear-program
oracle enumerates every basic solution with exact Gaussian elimination.
Nothing in this module imports from the package under test, except
primal_decompose: it keeps the primal form of the cone programs, one row
per point, and runs it on the package's simplex, which the enumeration
oracle checks on its own.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def all_sequences(categories: Sequence[str], length: int) -> list[tuple[str, ...]]:
    return [tuple(x) for x in itertools.product(categories, repeat=length)]


def counts_of(x: Sequence[str], categories: Sequence[str]) -> tuple[int, ...]:
    return tuple(sum(1 for s in x if s == z) for z in categories)


def atom_of(categories: Sequence[str], length: int, m: Sequence[int]) -> list[tuple[str, ...]]:
    """All sequences whose symbol counts equal m, by exhaustive filtering."""
    target = tuple(m)
    return [x for x in all_sequences(categories, length) if counts_of(x, categories) == target]


def symmetrize(values: dict, categories: Sequence[str], length: int) -> dict:
    """Average a sequence gamble over all N! coordinate permutations."""
    points = all_sequences(categories, length)
    result = {}
    perms = list(itertools.permutations(range(length)))
    for x in points:
        total = Fraction(0)
        for perm in perms:
            total += values[tuple(x[i] for i in perm)]
        result[x] = total / len(perms)
    return result


def hypergeometric_mean(values: dict, categories: Sequence[str], length: int,
                        m: Sequence[int]) -> Fraction:
    """Uniform average of a sequence gamble over one count atom."""
    atom = atom_of(categories, length, m)
    return sum((values[x] for x in atom), Fraction(0)) / len(atom)


def multinomial(m: Sequence[int]) -> int:
    """How many sequences have the counts m, as a product of binomials."""
    size, remaining = 1, sum(m)
    for c in m:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def raise_counts(values: dict, parts: int, total: int) -> dict:
    """Raise a count gamble to a larger total by the pairwise sum.

    The value at each big count vector M is the sum, over every small
    vector m it dominates, of values[m] weighted by the chance that the
    first draws of M without replacement have counts m:
    multinomial(m) * multinomial(M - m) / multinomial(M).
    """
    result = {}
    for big in itertools.product(range(total + 1), repeat=parts):
        if sum(big) != total:
            continue
        acc = Fraction(0)
        for small, value in values.items():
            rest = tuple(b - s for b, s in zip(big, small))
            if min(rest) >= 0:
                acc += Fraction(multinomial(small) * multinomial(rest), multinomial(big)) * value
        result[big] = acc
    return result


def coefficient_grid(max_value: int, max_denominator: int) -> list[Fraction]:
    """All distinct nonnegative rationals p/q with q <= max_denominator
    and p/q <= max_value, in increasing order."""
    seen = {Fraction(0)}
    for q in range(1, max_denominator + 1):
        for p in range(1, max_value * q + 1):
            seen.add(Fraction(p, q))
    return sorted(seen)


def grid_membership(
    f: Sequence[Fraction],
    generators: Sequence[Sequence[Fraction]],
    grid: Sequence[Fraction],
) -> Optional[tuple[Fraction, ...]]:
    """Search the grid for nonnegative lambdas with f - sum(lambda*g) >= 0.

    Returns the first witness found, or None when no grid point works.
    A nonzero f with such a residual belongs to the natural extension,
    because the residual itself supplies the indicator part.
    """
    n = len(f)
    zero = Fraction(0)

    def search(index: int, residual: tuple[Fraction, ...]):
        if all(v >= 0 for v in residual):
            return (zero,) * (len(generators) - index)
        if index == len(generators):
            return None
        g = generators[index]
        for lam in grid:
            if lam == 0:
                continue
            rest = search(index + 1, tuple(residual[i] - lam * g[i] for i in range(n)))
            if rest is not None:
                return (lam,) + rest
        return None

    return search(0, tuple(f))


def solve_unique(matrix: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Exact elimination on a possibly rectangular system.

    Returns the solution when it exists and is unique, None when the
    system is inconsistent or underdetermined.
    """
    m = len(matrix)
    s = len(matrix[0]) if matrix else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots: list[int] = []
    rank = 0
    for col in range(s):
        pivot = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(m):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [a[r][c] - factor * a[rank][c] for c in range(s + 1)]
        pivots.append(col)
        rank += 1
    if any(a[r][s] != 0 for r in range(rank, m)):
        return None
    if rank < s:
        return None
    solution: list[Fraction] = [Fraction(0)] * s
    for r, col in enumerate(pivots):
        solution[col] = a[r][s]
    return solution


def enumerate_lp_optimum(
    columns: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction],
) -> tuple[str, Optional[Fraction]]:
    """Solve max c.x with columns.x = rhs, x >= 0 by basic-solution search.

    Every support of a basic feasible solution is an independent column
    subset whose unique solution is nonnegative, so scanning all subsets
    up to the row count finds them all.  Only sound for problems whose
    feasible region is bounded (the tests arrange that with an explicit
    normalization row): boundedness makes the optimum basic.
    """
    m = len(rhs)
    k = len(columns)
    best: Optional[Fraction] = None
    if all(v == 0 for v in rhs):
        best = Fraction(0)
    for size in range(1, min(m, k) + 1):
        for subset in itertools.combinations(range(k), size):
            matrix = [[columns[j][i] for j in subset] for i in range(m)]
            solution = solve_unique(matrix, list(rhs))
            if solution is None or any(v < 0 for v in solution):
                continue
            value = sum(
                (objective[j] * v for j, v in zip(subset, solution)), Fraction(0)
            )
            if best is None or value > best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def primal_decompose(
    size: int,
    nonneg: Sequence[Sequence[Fraction]],
    free: Sequence[Sequence[Fraction]] = (),
    rhs: Optional[Sequence[Fraction]] = None,
    normalized: bool = False,
    costs: Optional[Sequence[Fraction]] = None,
):
    """The cone decomposition program in its primal form, on value lists.

    One row per point w, sum_i lambda_i nonneg_i(w) + sum_j u_j free_j(w)
    <= rhs(w), with lambda >= 0, u free and rhs zero when omitted; when
    normalized the lambda sum to one; with costs (nonnegative columns
    first) the program maximizes.  Returns None when infeasible, else
    (lambda, u, slack, unbounded, value) with slack = rhs - combination
    and value the objective at the solution (None without costs).
    """
    from desir.lp import LpProblem, solve

    columns = [list(g) for g in nonneg] + [list(v) for v in free]
    bound = list(rhs) if rhs is not None else [Fraction(0)] * size
    if not columns:
        if normalized or min(bound) < 0:
            return None
        return (), (), bound, False, Fraction(0) if costs is not None else None
    names = [f"x{c}" for c in range(len(columns))]
    variables = [(name, "nonneg" if c < len(nonneg) else "free")
                 for c, name in enumerate(names)]
    rows = [({name: g[w] for name, g in zip(names, columns) if g[w]}, b)
            for w, b in enumerate(bound)]
    normalization = [({name: 1 for name in names[: len(nonneg)]}, 1)] if normalized else []
    objective = None if costs is None else (dict(zip(names, costs)), "max")
    outcome = solve(LpProblem(variables, normalization, rows, objective))
    if not outcome.is_feasible:
        return None
    x = [outcome.witness[name] for name in names]
    slack = list(bound)
    for weight, g in zip(x, columns):
        slack = [s - weight * a for s, a in zip(slack, g)]
    n = len(nonneg)
    unbounded = outcome.status == "unbounded"
    return tuple(x[:n]), tuple(x[n:]), slack, unbounded, outcome.value
