"""Exact linear programming over ordered fields.

Problems are min or max of c.x subject to rows A_i.x <= b_i or
A_i.x >= b_i, each with b_i >= 0, and all variables nonnegative.  That
is the only form the package's two programs need: the covering LP has
">=" rows with right-hand side 1, the character LP "<=" rows with a
multinomial right-hand side.  The arithmetic is duck-typed: any
ordered-field scalar with +, -, *, / and comparisons works, so the
covering LP runs over ``fractions.Fraction`` and the character-sum
bound over a real quadratic extension field.  Answers are exact in that
field.

``solve_lp`` works in three steps.  First it proposes bases: every
column basic and every row tight when there are as many rows as
variables, then, only if that fails, the basis of a bounded float
simplex (Dantzig pricing, a small fixed perturbation of the right-hand
side, a step cap) on the same tableau over ``float``.  Floats do
nothing else: second, exact arithmetic solves a proposal for the
primal point x and the dual multipliers y (the block of basic
variables and tight rows, and its transpose), and one routine checks
the pair: x >= 0, every row, the sign of every y_i for its relation,
every reduced cost and c.x == b.y.  Only the solve depends on the
field.  Rational programs (field ``Fraction``) stay in integers: int
coefficients are never lifted to ``Fraction`` on the way in, each row
and the objective are cleared of denominators, fraction-free (Bareiss)
elimination gives x and y as integer numerators over the basis
determinant D > 0, and the checks run on those numerators against
right-hand sides and costs scaled by D; ``Fraction``s are built only
for the result.  Other fields use one LU factorisation in the field.
Those checks prove optimality whatever produced the basis.  Third,
when no proposal passes, a two-phase simplex with Bland's rule runs
in the exact field (a rational program's ints become ``Fraction``s for
it, as it divides), and its final basis passes the same checks.  Both
simplexes pivot on a condensed tableau (the dictionary form): one
column per nonbasic variable and one for the right-hand side.  A basic
variable, be it structural, slack or artificial, is only a label; a
pivot hands the entering variable's column to the leaving one, and an
artificial that leaves takes its column with it.  So a tall character
LP pivots on rows x (columns + 1) entries, not rows x (rows + columns
+ 1).  Ties in pricing go to the lowest variable index, never to the
lowest column position, so the pivots do not depend on where a
variable's column sits.  Only the exact simplex ever reports
INFEASIBLE or UNBOUNDED, and every OPTIMAL result carries its checked
dual as ``LPResult.y``.  ``solve_linear_system`` uses the same integer
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm

__all__ = [
    "LPStatus",
    "LPResult",
    "LinearProgram",
    "solve_lp",
    "solve_linear_system",
]

# Float simplex settings, on a problem scaled to unit magnitudes: a
# pivot entry or reduced cost within _FLOAT_TOL of zero counts as zero
# (covering-LP coefficients span many orders of magnitude, so coarser
# thresholds misprice columns), row i's right-hand side grows by
# _FLOAT_PERTURB * (1 + i / m) so that ties in the ratio test are rare,
# and at most _FLOAT_CAP_PER_SIZE * (rows + columns) + 10 pivots are
# tried before the exact simplex takes over (the covering LP and the
# character LP up to n = 3 need at most 1.7 * (rows + columns), table-3
# cell (4,6) needs 6.6 * (rows + columns)).
_FLOAT_TOL = 1e-12
_FLOAT_PERTURB = 1e-9
_FLOAT_CAP_PER_SIZE = 10


class LPStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    """Status, and for OPTIMAL the value, the point x and the dual y.

    y has one multiplier per row of the program as given.  For a max
    problem y_i >= 0 on "<=" rows and <= 0 on ">=" rows, and every
    column has (A^T y)_j >= c_j; for a min problem the signs and the
    inequality flip.  b.y equals the value, so y certifies it.
    """

    status: LPStatus
    value: object = None
    x: list = None
    y: list = None


@dataclass
class LinearProgram:
    """min or max objective.x over x >= 0 subject to linear rows, each
    ``coeffs.x <= rhs`` or ``coeffs.x >= rhs`` with rhs >= 0; ``add``
    refuses any other relation, ``=`` included, and a negative rhs."""

    objective: list
    sense: str = "min"
    rows: list = field(default_factory=list)  # (coeffs, relation, rhs)

    def add(self, coeffs, relation: str, rhs) -> None:
        if relation not in ("<=", ">="):
            raise ValueError(f"unsupported relation {relation!r}: rows are '<=' or '>='")
        if rhs < 0:
            raise ValueError(f"negative right-hand side {rhs!r}: negate the row and flip it")
        if len(coeffs) != len(self.objective):
            raise ValueError("coefficient count does not match variable count")
        self.rows.append((list(coeffs), relation, rhs))


def _pivot(tab: list, basis: list, nonbasic: list, row: int, col: int, one, nreal: int) -> None:
    """Exchange basic ``basis[row]`` for nonbasic ``nonbasic[col]``.

    The leaving variable takes over the entering one's column: its
    unit column would read 1/piv in the pivot row and -f/piv in a row
    whose entry f sat in the pivot column.  An artificial (label >=
    ``nreal``) leaves for good, so its column is deleted instead.
    """
    piv = tab[row][col]
    top = tab[row] = [v / piv for v in tab[row]]
    # only the pivot row's nonzero columns change the other rows
    support = [j for j, v in enumerate(top) if v]
    support.remove(col)
    leaving = basis[row]
    basis[row] = nonbasic[col]
    inv = top[col] = one / piv
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f:
            for j in support:
                r[j] = r[j] - f * top[j]
            r[col] = -f * inv
    if leaving < nreal:
        nonbasic[col] = leaving
    else:
        del nonbasic[col]
        for r in tab:
            del r[col]


def _bland(tab: list, basis: list, nonbasic: list, nreal: int, zero, one, on_step) -> str:
    """Run exact simplex steps on a tableau whose last row is the cost row.

    Returns "optimal" or "unbounded".  Bland's rule throughout: the
    entering variable is the lowest-index one with a negative reduced
    cost, the leaving row minimises the ratio with ties broken by the
    smallest basic variable index.
    """
    m = len(tab) - 1
    while True:
        on_step()
        cost = tab[m]
        col = min(
            (j for j, v in enumerate(cost[:len(nonbasic)]) if v < zero),
            key=nonbasic.__getitem__, default=-1,
        )
        if col < 0:
            return "optimal"
        best_row = -1
        best_ratio = None
        for i in range(m):
            a = tab[i][col]
            if a > zero:
                ratio = tab[i][-1] / a
                if (
                    best_row < 0
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_row = i
                    best_ratio = ratio
        if best_row < 0:
            return "unbounded"
        _pivot(tab, basis, nonbasic, best_row, col, one, nreal)


def _dantzig(tab: list, basis: list, nonbasic: list, nreal: int, on_step, cap: int) -> str:
    """Float simplex steps: most negative reduced cost enters (ties to
    the lowest variable index), the smallest ratio leaves.  Returns
    "optimal", "unbounded" or, after ``cap`` pivots, "stalled"."""
    m = len(tab) - 1
    for _ in range(cap):
        cost = tab[m]
        col = min(range(len(nonbasic)), key=cost.__getitem__, default=-1)
        if col < 0 or cost[col] >= -_FLOAT_TOL:
            return "optimal"
        low = cost[col]
        if cost.count(low) > 1:
            col = min(
                (j for j in range(len(nonbasic)) if cost[j] == low),
                key=nonbasic.__getitem__,
            )
        on_step()
        best_row = -1
        best_ratio = float("inf")
        for i in range(m):
            a = tab[i][col]
            if a > _FLOAT_TOL:
                ratio = max(tab[i][-1], 0.0) / a
                if ratio < best_ratio:
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return "unbounded"
        _pivot(tab, basis, nonbasic, best_row, col, 1.0, nreal)
    return "stalled"


def _simplex(rows, obj, minimize, zero, one, iterate, tol=None):
    """Two-phase simplex on the condensed tableau of ``rows``.

    Returns ``(outcome, basic, tight)``: outcome is "optimal",
    "infeasible", "unbounded" or "stalled"; for "optimal", ``basic``
    lists the structural columns in the final basis and ``tight`` the
    rows whose slack is not basic, both in the order of ``rows``.
    The tableau has one row per constraint (and the cost row) and one
    column per nonbasic variable, ``nonbasic[j]`` labelling column j,
    then the right-hand side; basic variables are the labels in
    ``basis``.  Variables 0..nvars-1 are structural, row i's slack is
    nvars + i, and a ">=" row's artificial is the label nreal + i
    (nreal = nvars + rows).  The slacks make the rows independent, so
    after phase 1 every artificial can leave the basis; if one cannot,
    the exact simplex raises ``ArithmeticError`` and the float one
    reports "stalled".  ``iterate(tab, basis, nonbasic, nreal)`` runs
    one phase; ``tol`` is the magnitude up to which a float entry counts
    as zero (None: exact).
    """
    nonzero = (lambda v: v != zero) if tol is None else (lambda v: abs(v) > tol)
    nvars = len(obj)
    nreal = nvars + len(rows)
    width = nvars + sum(1 for _, rel, _ in rows if rel == ">=")
    tab, basis, nonbasic = [], [], list(range(nvars))
    for i, (coeffs, relation, rhs) in enumerate(rows):
        row = [zero] * (width + 1)
        row[:nvars] = coeffs
        row[-1] = rhs
        if relation == "<=":
            basis.append(nvars + i)
        else:
            row[len(nonbasic)] = -one
            nonbasic.append(nvars + i)
            basis.append(nreal + i)
        tab.append(row)

    if any(b >= nreal for b in basis):
        # Phase 1: minimise the artificial total.
        cost = [zero] * (width + 1)
        for i, b in enumerate(basis):
            if b >= nreal:
                cost = [c - v for c, v in zip(cost, tab[i])]
        tab.append(cost)
        outcome = iterate(tab, basis, nonbasic, nreal)
        if outcome != "optimal":
            return outcome, None, None
        # the cost row holds -(phase objective)
        if tab.pop()[-1] < (zero if tol is None else -tol):
            return "infeasible", None, None
        # Drive leftover artificials out of the basis, each through its
        # row's lowest-index nonzero variable.
        for i, b in enumerate(basis):
            if b >= nreal:
                row = tab[i]
                piv_col = min(
                    (j for j in range(len(nonbasic)) if nonzero(row[j])),
                    key=nonbasic.__getitem__, default=-1,
                )
                if piv_col < 0:
                    if tol is None:
                        raise ArithmeticError(
                            f"the artificial of row {b - nreal} cannot leave the basis"
                        )
                    return "stalled", None, None
                _pivot(tab, basis, nonbasic, i, piv_col, one, nreal)

    # Phase 2 on the real objective, as a minimisation.
    signed = obj if minimize else [-c for c in obj]
    cost = [signed[v] if v < nvars else zero for v in nonbasic]
    cost.append(zero)
    for i, b in enumerate(basis):
        if b < nvars and nonzero(signed[b]):
            f = signed[b]
            cost = [c - f * v for c, v in zip(cost, tab[i])]
    tab.append(cost)
    outcome = iterate(tab, basis, nonbasic, nreal)
    if outcome != "optimal":
        return outcome, None, None
    loose = {b - nvars for b in basis if b >= nvars}
    tight = [i for i in range(len(rows)) if i not in loose]
    return outcome, sorted(b for b in basis if b < nvars), tight


def _float_basis(rows, obj, minimize, on_step):
    """Basis proposed by the float simplex, or None when it gives up.

    Columns, then rows, are scaled to unit largest magnitude and the
    objective likewise; scaling moves no basis.  Row i's right-hand
    side then grows by _FLOAT_PERTURB * (1 + i / m).  Numbers beyond
    the float range, or a field without ``float()``, leave the problem
    to the exact simplex.
    """
    try:
        frows = [([float(c) for c in coeffs], rel, float(b)) for coeffs, rel, b in rows]
        fobj = [float(c) for c in obj]
    except (OverflowError, TypeError):
        return None
    colmax = [max((abs(r[0][j]) for r in frows), default=0.0) or 1.0 for j in range(len(obj))]
    m = len(rows)
    scaled = []
    for i, (coeffs, rel, b) in enumerate(frows):
        coeffs = [c / s for c, s in zip(coeffs, colmax)]
        big = max(map(abs, coeffs), default=0.0) or 1.0
        scaled.append(([c / big for c in coeffs], rel, b / big + _FLOAT_PERTURB * (1 + i / m)))
    fobj = [c / s for c, s in zip(fobj, colmax)]
    big = max(map(abs, fobj), default=0.0) or 1.0
    fobj = [c / big for c in fobj]
    cap = _FLOAT_CAP_PER_SIZE * (m + len(obj)) + 10
    outcome, basic, tight = _simplex(
        scaled, fobj, minimize, 0.0, 1.0,
        lambda tab, basis, nonbasic, nreal: _dantzig(tab, basis, nonbasic, nreal, on_step, cap),
        tol=_FLOAT_TOL,
    )
    return (basic, tight) if outcome == "optimal" else None


def _proposals(rows, obj, minimize, on_step):
    """Bases to certify: all-tight if square, then the float simplex's (lazily)."""
    if len(rows) == len(obj):
        yield list(range(len(obj))), list(range(len(rows)))
    proposal = _float_basis(rows, obj, minimize, on_step)
    if proposal is not None:
        yield proposal


def _lu(matrix, zero, on_step):
    """Factorisation P.A = L.U of a square matrix, or None when
    it is singular.  Returns ``(lu, perm)``: L (unit diagonal, below)
    and U (on and above the diagonal) share ``lu``, and row i of P.A is
    row perm[i] of A."""
    k = len(matrix)
    a = [list(row) for row in matrix]
    perm = list(range(k))
    for c in range(k):
        on_step()
        p = next((r for r in range(c, k) if a[r][c] != zero), -1)
        if p < 0:
            return None
        a[c], a[p] = a[p], a[c]
        perm[c], perm[p] = perm[p], perm[c]
        top = a[c]
        nz = [j for j in range(c + 1, k) if top[j] != zero]
        for r in range(c + 1, k):
            row = a[r]
            if row[c] != zero:
                f = row[c] / top[c]
                row[c] = f
                for j in nz:
                    row[j] = row[j] - f * top[j]
    return a, perm


def _lu_solve(lu, perm, rhs, zero):
    """x with A.x = rhs, from ``_lu``."""
    k = len(lu)
    z = []
    for i in range(k):
        v = rhs[perm[i]]
        for j in range(i):
            if lu[i][j] != zero:
                v = v - lu[i][j] * z[j]
        z.append(v)
    x = [zero] * k
    for i in reversed(range(k)):
        v = z[i]
        for j in range(i + 1, k):
            if lu[i][j] != zero:
                v = v - lu[i][j] * x[j]
        x[i] = v / lu[i][i]
    return x


def _lu_solve_transposed(lu, perm, rhs, zero):
    """y with A^T.y = rhs, from ``_lu`` (U^T.w = rhs, L^T.v = w, y = P^T.v)."""
    k = len(lu)
    w = []
    for i in range(k):
        v = rhs[i]
        for j in range(i):
            if lu[j][i] != zero:
                v = v - lu[j][i] * w[j]
        w.append(v / lu[i][i])
    y = [zero] * k
    for i in reversed(range(k)):
        v = w[i]
        for j in range(i + 1, k):
            if lu[j][i] != zero:
                v = v - lu[j][i] * y[perm[j]]
        y[perm[i]] = v
    return y


def _optimal_value(rows, obj, minimize, basic, tight, xs, ys, zero):
    """c.x when x and y prove each other optimal, else None.

    x is ``xs`` on the columns ``basic`` and zero elsewhere, y is ``ys``
    on the rows ``tight`` and zero elsewhere.  The checks: x >= 0,
    every row A_i.x against b_i, the sign of every y_i for its
    relation, every reduced cost c_j - (A^T y)_j, and c.x == b.y.
    """
    if any(v < zero for v in xs):
        return None
    support = [(j, v) for j, v in zip(basic, xs) if v != zero]
    priced = [(i, v) for i, v in zip(tight, ys) if v != zero]
    for coeffs, relation, rhs in rows:
        lhs = sum((coeffs[j] * v for j, v in support), zero)
        if (lhs > rhs) if relation == "<=" else (lhs < rhs):
            return None
    for i, v in priced:
        # max: y >= 0 on "<=" rows, y <= 0 on ">=" rows; min: the reverse
        if (v > zero) != ((rows[i][1] == "<=") != minimize):
            return None
    for j, c in enumerate(obj):
        reduced = c - sum((rows[i][0][j] * v for i, v in priced), zero)
        if (reduced < zero) if minimize else (reduced > zero):
            return None
    value = sum((obj[j] * v for j, v in support), zero)
    if value != sum((rows[i][2] * v for i, v in priced), zero):
        return None
    return value


def _certify(rows, obj, minimize, basic, tight, zero, on_step):
    """Solve the basis exactly and check it; the LPResult, or None.

    x solves the tight rows on the basic columns, y the transposed
    system on the basic objective coefficients, and ``_optimal_value``
    checks the pair: in integers when the field is ``Fraction``, in the
    field after one LU factorisation otherwise.
    """
    if len(basic) != len(tight):
        return None
    check = _certify_rational if type(zero) is Fraction else _certify_lu
    return check(rows, obj, minimize, basic, tight, zero, on_step)


def _certify_lu(rows, obj, minimize, basic, tight, zero, on_step):
    """``_certify`` in any ordered field, through one LU factorisation."""
    factored = _lu([[rows[i][0][j] for j in basic] for i in tight], zero, on_step)
    if factored is None:
        return None
    lu, perm = factored
    xs = _lu_solve(lu, perm, [rows[i][2] for i in tight], zero)
    if any(v < zero for v in xs):
        return None
    ys = _lu_solve_transposed(lu, perm, [obj[j] for j in basic], zero)
    on_step()
    value = _optimal_value(rows, obj, minimize, basic, tight, xs, ys, zero)
    if value is None:
        return None
    x = [zero] * len(obj)
    for j, v in zip(basic, xs):
        x[j] = v
    y = [zero] * len(rows)
    for i, v in zip(tight, ys):
        y[i] = v
    return LPResult(LPStatus.OPTIMAL, value, x, y)


def _cleared(values):
    """``(s, ints)``: the least s > 0 making every rational s*v an
    integer, and those integers."""
    s = 1
    for v in values:
        if type(v) is not int:  # an int's denominator is 1
            s = lcm(s, v.denominator)
    if s == 1:
        return 1, [v.numerator for v in values]
    return s, [v.numerator * (s // v.denominator) for v in values]


def _bareiss_solve(augmented, on_step):
    """Solve an integer k x (k+1) system [B | b] fraction-free.

    Bareiss elimination keeps every entry an integer minor of the
    input; back substitution then yields the integer numerators X of
    x = X / D, where D = |det B|.  Returns ``(X, D)``, or None when B
    is singular.  ``augmented`` is consumed.

    A row whose entry in the pivot column is zero would only be
    multiplied by piv_c / piv_(c-1), and over consecutive such steps
    those factors telescope.  So such a row is left alone, and
    ``scale`` records the pivot s it was last brought up to: its next
    update is (v piv - f t) / s, or, when it becomes the pivot row,
    v prev / s.  Both quotients are exact, and every value read is the
    minor that plain Bareiss would hold.
    """
    a = augmented
    k = len(a)
    scale = [1] * k  # the pivot each row was last brought up to
    prev = 1
    for c in range(k):
        on_step()
        p = next((r for r in range(c, k) if a[r][c]), -1)
        if p < 0:
            return None
        a[c], a[p] = a[p], a[c]
        scale[c], scale[p] = scale[p], scale[c]
        top = a[c]
        if scale[c] != prev:
            s = scale[c]
            top[c:] = [v * prev // s for v in top[c:]]
        piv = top[c]
        tail = top[c + 1:]
        for r in range(c + 1, k):
            row = a[r]
            f = row[c]
            if f:
                s = scale[r]
                row[c + 1:] = [(v * piv - f * t) // s for v, t in zip(row[c + 1:], tail)]
                scale[r] = piv
        prev = piv
    # row i now reads a[i][i] x_i + sum_{j>i} a[i][j] x_j = a[i][k] and
    # prev = +-det B, so each X_i = prev * x_i is an exact quotient
    det = prev
    numer = [0] * k
    for i in reversed(range(k)):
        row = a[i]
        v = det * row[k]
        for j in range(i + 1, k):
            if row[j]:
                v -= row[j] * numer[j]
        numer[i] = v // row[i]
    if det < 0:
        return [-v for v in numer], -det
    return numer, det


def _certify_rational(rows, obj, minimize, basic, tight, zero, on_step):
    """``_certify`` for rational programs, in integer arithmetic.

    Row i times s_i and the objective times t have integer entries
    (a_i, b_i, c); x is the same for the scaled rows, and their dual
    y' relates to y by y_i = s_i y'_i / t.  With x = X / D and
    y' = Y / D (D > 0), ``_optimal_value`` checks X and Y against the
    rows (a_i, D b_i) and the costs D c: every check is the original
    one multiplied by a positive integer.
    """
    scales, coeff_rows, rhs = [], [], []
    for coeffs, _, b in rows:
        s, ints = _cleared([*coeffs, b])
        scales.append(s)
        rhs.append(ints.pop())
        coeff_rows.append(ints)
    t, cost = _cleared(obj)
    primal = _bareiss_solve([[coeff_rows[i][j] for j in basic] + [rhs[i]] for i in tight], on_step)
    if primal is None or any(v < 0 for v in primal[0]):
        return None
    dual = _bareiss_solve(
        [[coeff_rows[i][j] for i in tight] + [cost[j]] for j in basic], on_step
    )
    xs, det = primal
    ys, _ = dual  # the same |det|, as det B^T = det B
    on_step()
    scaled = [(a, relation, b * det) for a, (_, relation, _), b in zip(coeff_rows, rows, rhs)]
    value = _optimal_value(
        scaled, [c * det for c in cost], minimize, basic, tight, xs, ys, 0
    )
    if value is None:
        return None
    x = [zero] * len(obj)
    for j, v in zip(basic, xs):
        if v:
            x[j] = Fraction(v, det)
    y = [zero] * len(rows)
    for i, v in zip(tight, ys):
        if v:
            y[i] = Fraction(scales[i] * v, t * det)
    # the checked value is (D t c).(D x)
    return LPResult(LPStatus.OPTIMAL, Fraction(value, t * det * det), x, y)


def _no_step() -> None:
    pass


def _rational(v):
    """``Fraction`` lift that keeps ints, already exact rationals, as they are."""
    return v if type(v) is int else Fraction(v)


def _lifted(rows, objective, lift):
    """The rows and the objective with every number passed through ``lift``."""
    return (
        [([lift(c) for c in coeffs], relation, lift(rhs)) for coeffs, relation, rhs in rows],
        [lift(c) for c in objective],
    )


def solve_lp(lp: LinearProgram, convert=Fraction, on_step=None) -> LPResult:
    """Solve exactly; x >= 0 is implicit for every variable.

    ``convert`` lifts plain numbers into the working field and is also
    applied to the supplied coefficients, so callers may mix ints with
    field scalars.  With ``convert=Fraction`` ints are used as they
    are, already exact rationals; only the exact simplex, which
    divides, works on their ``Fraction`` lifts.  ``float()`` of a field
    element, where defined, must approximate it; a field without it is
    solved by the exact simplex alone.
    ``on_step``, when given, runs before every float and exact pivot,
    once per elimination column of each exact basis solve, all-tight
    attempt included (a ``Fraction`` basis, then its transpose unless
    x < 0; in other fields one LU factorisation) and once before the
    checks; raising from it aborts the solve (time budgets use this hook).
    """
    if lp.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {lp.sense!r}")
    minimize = lp.sense == "min"
    on_step = on_step or _no_step
    zero = convert(0)
    lift = _rational if convert is Fraction else convert
    rows, obj = _lifted(lp.rows, lp.objective, lift)

    for proposal in _proposals(rows, obj, minimize, on_step):
        result = _certify(rows, obj, minimize, *proposal, zero, on_step)
        if result is not None:
            return result
    if lift is not convert:
        # the simplex divides, and int / int would give floats
        rows, obj = _lifted(rows, obj, convert)
    one = convert(1)
    outcome, basic, tight = _simplex(
        rows, obj, minimize, zero, one,
        lambda tab, basis, nonbasic, nreal: _bland(tab, basis, nonbasic, nreal, zero, one, on_step),
    )
    if outcome == "infeasible":
        return LPResult(LPStatus.INFEASIBLE)
    if outcome == "unbounded":
        return LPResult(LPStatus.UNBOUNDED)
    result = _certify(rows, obj, minimize, basic, tight, zero, on_step)
    if result is None:
        raise ArithmeticError("the exact simplex basis failed its optimality check")
    return result


def solve_linear_system(matrix, rhs):
    """Solve a square rational system exactly, fraction-free.

    Each row is cleared of denominators and Bareiss elimination gives
    the solution as integer numerators over the determinant, so no
    ``Fraction`` is built before the answer.  Entries are ints or
    ``Fraction``s; raises ``ArithmeticError`` when the matrix is
    singular.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix) or len(rhs) != n:
        raise ValueError("system is not square")
    solved = _bareiss_solve([_cleared([*row, b])[1] for row, b in zip(matrix, rhs)], _no_step)
    if solved is None:
        raise ArithmeticError("singular matrix")
    numer, det = solved
    return [Fraction(v, det) for v in numer]
