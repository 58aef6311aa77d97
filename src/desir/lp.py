"""Exact linear programming over the rationals.

Every cone query in this package (coherence, membership, previsions)
reduces to a small feasibility or optimization problem with Fraction
coefficients.  The solver is a two-phase simplex on a dense tableau,
with exact arithmetic throughout and a deterministic outcome for a
given problem.

The entering column is the one of largest reduced cost, ties going to
the lowest index.  On the wide programs the cone queries build, with
few rows and one column per point, this takes a handful of pivots where
Bland's lowest-index rule takes about one per column.  The largest-cost
rule can cycle on a degenerate vertex, so after DEGENERATE_RUN
degenerate pivots in a row the solver enters by Bland's rule until the
next pivot that moves the objective; Bland's rule cannot cycle, so
every solve terminates.

Every outcome carries the dual values of the rows: an optimal dual
solution for a bounded program, a Farkas certificate for an infeasible
one.  Callers read the certificate of the dual program from them.

Strict inequalities never appear here.  Callers that need "not all
zero" or "strictly positive" encode it with a normalization row such
as sum(lambda) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional

Rational = Fraction

NONNEG = "nonneg"
FREE = "free"
MAXIMIZE = "max"
MINIMIZE = "min"

INFEASIBLE = "infeasible"
FEASIBLE = "feasible"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"

DEGENERATE_RUN = 10
"""Degenerate pivots in a row after which entering falls back to Bland's rule."""


class MalformedProblemError(ValueError):
    """Raised for problems with no variables or undeclared names in a row."""


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _freeze_row(coeffs: Mapping[str, object], rhs, names: frozenset[str]):
    frozen = []
    for name, c in coeffs.items():
        if name not in names:
            raise MalformedProblemError(f"row references undeclared variable {name!r}")
        c = _rat(c)
        if c != 0:
            frozen.append((name, c))
    return tuple(frozen), _rat(rhs)


class LpProblem:
    """Immutable exact-rational LP.

    variables: sequence of (name, sign) with sign "nonneg" or "free".
    equalities / inequalities: sequences of (coeffs, rhs) where coeffs maps
    variable names to rationals; an inequality row means coeffs . x <= rhs.
    objective: optional (coeffs, direction) with direction "max" or "min";
    None means a pure feasibility problem.
    """

    __slots__ = ("variables", "equalities", "inequalities", "objective")

    def __init__(self, variables, equalities=(), inequalities=(), objective=None):
        variables = tuple((str(n), s) for n, s in variables)
        if not variables:
            raise MalformedProblemError("a problem needs at least one variable")
        seen = set()
        for name, sign in variables:
            if sign not in (NONNEG, FREE):
                raise MalformedProblemError(f"unknown sign constraint {sign!r}")
            if name in seen:
                raise MalformedProblemError(f"duplicate variable {name!r}")
            seen.add(name)
        names = frozenset(seen)
        self.variables = variables
        self.equalities = tuple(_freeze_row(c, r, names) for c, r in equalities)
        self.inequalities = tuple(_freeze_row(c, r, names) for c, r in inequalities)
        if objective is None:
            self.objective = None
        else:
            coeffs, direction = objective
            if direction not in (MAXIMIZE, MINIMIZE):
                raise MalformedProblemError(f"unknown objective direction {direction!r}")
            row, _ = _freeze_row(coeffs, 0, names)
            self.objective = (row, direction)

    def __repr__(self):
        kind = "feasibility" if self.objective is None else self.objective[1]
        return (f"LpProblem({len(self.variables)} vars, {len(self.equalities)} eq, "
                f"{len(self.inequalities)} ineq, {kind})")


@dataclass(frozen=True)
class LpStats:
    """What a solve cost: the tableau's size, its pivots and its largest number.

    rows and columns count the tableau, slack and artificial columns
    included; a free variable takes two columns.  denominator_bits is
    the bit length of the largest denominator in the final tableau.
    """

    rows: int
    columns: int
    phase_one_pivots: int
    phase_two_pivots: int
    degenerate_pivots: int
    denominator_bits: int


@dataclass(frozen=True)
class LpOutcome:
    """Certified result of solve().

    witness assigns a Rational to every variable and satisfies every
    constraint exactly.  For bounded problems, value is attained by the
    witness.  For unbounded problems, ray is a direction that keeps all
    constraints satisfied from the witness and strictly improves the
    objective for every positive step.

    duals holds one value per row, the equalities first and then the
    inequalities, each in input order.  For a bounded problem they are
    an optimal solution of its dual: b . y equals value, y . A_j equals
    the objective coefficient c_j of every free variable, and for a
    maximization y . A_j >= c_j on the nonnegative variables with the
    inequality values nonnegative (a minimization reverses both signs).
    For an infeasible problem they are a Farkas certificate:
    inequality values nonnegative, y . A_j >= 0 on the nonnegative
    variables, zero on the free ones, and b . y < 0.  A feasibility
    problem has all duals zero; an unbounded one has none.
    """

    status: str
    witness: Optional[dict[str, Fraction]] = None
    value: Optional[Fraction] = None
    ray: Optional[dict[str, Fraction]] = None
    duals: Optional[tuple[Fraction, ...]] = None
    stats: Optional[LpStats] = None

    @property
    def is_feasible(self) -> bool:
        return self.status != INFEASIBLE


class _Tableau:
    """Dense simplex tableau, largest reduced cost first.

    Columns: one per nonnegative variable, a (plus, minus) pair per free
    variable, then one slack per inequality, then one artificial per row
    that needs one.  All entries are Fractions.  Each row starts with a
    unit column, its slack or its artificial; the reduced costs of these
    columns give the dual values.  Artificial columns stay in the
    tableau after phase one for that reason, but never enter again.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.var_cols: dict[str, tuple[int, ...]] = {}
        ncols = 0
        for name, sign in problem.variables:
            if sign == NONNEG:
                self.var_cols[name] = (ncols,)
                ncols += 1
            else:
                self.var_cols[name] = (ncols, ncols + 1)
                ncols += 2
        self.n_struct = ncols

        zero = Fraction(0)
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        slack_of_row: list[int | None] = []

        def dense(coeffs) -> list[Fraction]:
            row = [zero] * self.n_struct
            for name, c in coeffs:
                cols = self.var_cols[name]
                row[cols[0]] += c
                if len(cols) == 2:
                    row[cols[1]] -= c
            return row

        for coeffs, b in problem.equalities:
            rows.append(dense(coeffs))
            rhs.append(b)
            slack_of_row.append(None)
        n_ineq = len(problem.inequalities)
        for k, (coeffs, b) in enumerate(problem.inequalities):
            rows.append(dense(coeffs))
            rhs.append(b)
            slack_of_row.append(k)
        # Slack block.
        one = Fraction(1)
        for i, row in enumerate(rows):
            row.extend([zero] * n_ineq)
            k = slack_of_row[i]
            if k is not None:
                row[self.n_struct + k] = one
        ncols = self.n_struct + n_ineq

        # Normalize to rhs >= 0, then pick an initial basis: a slack with
        # coefficient +1 where available, an artificial otherwise.
        self.basis: list[int] = []
        self.flipped: list[bool] = []
        art_rows = []
        for i, row in enumerate(rows):
            self.flipped.append(rhs[i] < 0)
            if rhs[i] < 0:
                rows[i] = [-c for c in row]
                rhs[i] = -rhs[i]
            k = slack_of_row[i]
            if k is not None and rows[i][self.n_struct + k] == one:
                self.basis.append(self.n_struct + k)
            else:
                art_rows.append(i)
                self.basis.append(-1)  # placeholder
        self.n_before_art = ncols
        for i in art_rows:
            for row in rows:
                row.append(zero)
            rows[i][ncols] = one
            self.basis[i] = ncols
            ncols += 1
        self.unit_col = list(self.basis)
        self.A = rows
        self.b = rhs
        self.ncols = ncols
        self.pivots = [0, 0]
        self.phase = 0
        self.degenerate = 0

    # -- pivoting ------------------------------------------------------

    def _pivot(self, i: int, j: int) -> None:
        piv = self.A[i][j]
        if piv != 1:
            inv = 1 / piv
            self.A[i] = [c * inv if c else c for c in self.A[i]]
            self.b[i] *= inv
        row_i = self.A[i]
        b_i = self.b[i]
        for k, row in enumerate(self.A):
            if k == i:
                continue
            f = row[j]
            if f:
                self.A[k] = [c - f * d if d else c for c, d in zip(row, row_i)]
                self.b[k] -= f * b_i
        f = self.red[j]
        if f:
            self.red = [c - f * d if d else c for c, d in zip(self.red, row_i)]
            self.objval += f * b_i
        self.basis[i] = j

    def _set_costs(self, costs: list[Fraction]) -> None:
        """Install a maximize objective and price out the current basis."""
        self.costs = costs
        red = list(costs)
        objval = Fraction(0)
        for i, col in enumerate(self.basis):
            f = red[col]
            if f:
                red = [c - f * d if d else c for c, d in zip(red, self.A[i])]
                objval += f * self.b[i]
        # Basic columns now have reduced cost exactly zero.
        self.red = red
        self.objval = objval

    def _enter(self, allowed: int, bland: bool) -> int:
        """The entering column among [0, allowed), or -1 at optimality."""
        red = self.red
        enter, best = -1, 0
        for j in range(allowed):
            r = red[j]
            if r > best:
                if bland:
                    return j
                enter, best = j, r
        return enter

    def _run(self, allowed: int) -> str:
        """Pivot over columns [0, allowed) until optimal or unbounded.

        Enters the largest reduced cost; after DEGENERATE_RUN degenerate
        pivots in a row, enters by Bland's rule until the objective moves.
        """
        run = 0
        while True:
            enter = self._enter(allowed, run >= DEGENERATE_RUN)
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i, row in enumerate(self.A):
                a = row[enter]
                if a > 0:
                    ratio = self.b[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                self.unbounded_col = enter
                return "unbounded"
            if best == 0:
                run += 1
                self.degenerate += 1
            else:
                run = 0
            self.pivots[self.phase] += 1
            self._pivot(leave, enter)

    # -- phases --------------------------------------------------------

    def phase_one(self) -> bool:
        zero = Fraction(0)
        costs = [zero] * self.ncols
        for j in range(self.n_before_art, self.ncols):
            costs[j] = Fraction(-1)
        self._set_costs(costs)
        if self.ncols == self.n_before_art:
            return True
        self._run(self.ncols)
        if self.objval != 0:
            return False
        # Drive any zero-valued artificial out of the basis where a real
        # column allows; a row that is identically zero over the real
        # columns keeps its artificial, basic at zero, for good.
        for i in range(len(self.A)):
            if self.basis[i] >= self.n_before_art:
                for j in range(self.n_before_art):
                    if self.A[i][j] != 0:
                        self._pivot(i, j)
                        break
        return True

    def phase_two(self) -> str:
        self.phase = 1
        coeffs, direction = self.problem.objective
        zero = Fraction(0)
        costs = [zero] * self.ncols
        flip = -1 if direction == MINIMIZE else 1
        for name, c in coeffs:
            cols = self.var_cols[name]
            costs[cols[0]] += flip * c
            if len(cols) == 2:
                costs[cols[1]] -= flip * c
        self._set_costs(costs)
        return self._run(self.n_before_art)

    # -- extraction ----------------------------------------------------

    def _col_values(self) -> list[Fraction]:
        vals = [Fraction(0)] * self.ncols
        for i, col in enumerate(self.basis):
            vals[col] = self.b[i]
        return vals

    def _per_variable(self, vals: list[Fraction]) -> dict[str, Fraction]:
        out = {}
        for name, _ in self.problem.variables:
            cols = self.var_cols[name]
            v = vals[cols[0]]
            if len(cols) == 2:
                v -= vals[cols[1]]
            out[name] = v
        return out

    def witness(self) -> dict[str, Fraction]:
        return self._per_variable(self._col_values())

    def ray(self) -> dict[str, Fraction]:
        j = self.unbounded_col
        delta = [Fraction(0)] * self.ncols
        delta[j] = Fraction(1)
        for i, col in enumerate(self.basis):
            a = self.A[i][j]
            if a:
                delta[col] = -a
        return self._per_variable(delta)

    def duals(self, sign: int = 1) -> tuple[Fraction, ...]:
        """y = c_B B^-1 of the installed costs, per input row.

        Row i's unit column u has y_i = c_u - red_u; a row negated to
        make its rhs nonnegative gets its sign back, and sign turns the
        values of a maximization into those of the original problem.
        """
        return tuple(
            sign * (-1 if flipped else 1) * (self.costs[u] - self.red[u])
            for u, flipped in zip(self.unit_col, self.flipped)
        )

    def stats(self) -> LpStats:
        bits = max(x.denominator.bit_length() for x in chain(self.red, self.b, *self.A))
        return LpStats(
            rows=len(self.A),
            columns=self.ncols,
            phase_one_pivots=self.pivots[0],
            phase_two_pivots=self.pivots[1],
            degenerate_pivots=self.degenerate,
            denominator_bits=bits,
        )


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for a fixed problem."""
    tab = _Tableau(problem)
    if not tab.phase_one():
        return LpOutcome(INFEASIBLE, duals=tab.duals(), stats=tab.stats())
    if problem.objective is None:
        zeros = (Fraction(0),) * len(tab.A)
        return LpOutcome(FEASIBLE, witness=tab.witness(), duals=zeros, stats=tab.stats())
    status = tab.phase_two()
    if status == "unbounded":
        return LpOutcome(UNBOUNDED, witness=tab.witness(), ray=tab.ray(), stats=tab.stats())
    value = tab.objval
    sign = 1
    if problem.objective[1] == MINIMIZE:
        value, sign = -value, -1
    return LpOutcome(BOUNDED, witness=tab.witness(), value=value,
                     duals=tab.duals(sign), stats=tab.stats())
