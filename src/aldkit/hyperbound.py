"""Upper bounds on code size from a covering LP over distance balls.

Codewords at pairwise distance >= 2r+1 have disjoint radius-r balls, so
the maximum code size is at most the optimum of the fractional covering
LP: put a weight on every word so that each ball collects total weight
at least 1, minimising the total.  The automorphism group acts
transitively on words of equal strand-disagreement weight, which folds
the 4^n-variable LP down to n+1 weight classes; ``balls.class_matrix``
(imported here) counts each ball class by class.

Besides the exact LP optimum this module evaluates four feasible
assignments with closed forms (reciprocal weights at radius lam,
reciprocal ball sizes, the binomial-denominator form, and the solution
of a capped class-matrix system).  One routine values every covering
bound, the LP included, from its weights alone, once they pass a
substitution check, so no solver's objective is trusted.  The check is
in integers: the weights are put over their least common denominator
L, and each ball's integer row sum must reach L, before any weight is
checked for a negative sign; the value is read off the same integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .balls import ClassMatrix, ball_size, class_matrix
from .core import _check_int, _check_lambda
from .lp import LinearProgram, LPStatus, _cleared, solve_linear_system, solve_lp

__all__ = [
    "BoundReport",
    "lp_hypergraph_bound",
    "naive_weight_bound",
    "optimal1_bound",
    "simple_bound",
    "weights1_bound",
    "packing_comparison",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated upper bound: exact rational value and its floor."""

    method: str
    n: int
    d: int
    lam: int
    exact: Fraction
    floored: int
    weights: tuple = None

    def __post_init__(self):
        if self.floored != self.exact.__floor__():
            raise ValueError("floored value out of sync with exact value")


def _radius(n: int, d: int, lam: int) -> int:
    """The ball radius of cell (n, d, lam), once its arguments check out."""
    _check_int(n, "n", 1)
    _check_lambda(lam)
    return (_check_int(d, "d", 2) - 1) // 2


def _check_feasible(mat: ClassMatrix, weights) -> tuple:
    """Substitute the weight vector, over its common denominator, into
    every ball-cover row; returns the ``_cleared`` pair ``(L, scaled)``."""
    common, scaled = _cleared(weights)
    for i in range(mat.n + 1):
        got = sum(map(mul, mat.row(i), scaled))
        if got < common:
            raise ArithmeticError(
                f"weight vector infeasible at centre class {i}: {Fraction(got, common)} < 1"
            )
    for w in scaled:
        if w < 0:
            raise ArithmeticError("negative weight in covering assignment")
    return common, scaled


def _class_sizes(n: int) -> list:
    """Words of each pair_weight class: 2^n C(n, j) at weight j."""
    return [comb(n, j) << n for j in range(n + 1)]


def _covering(method: str, n: int, d: int, lam: int, mat: ClassMatrix, weights) -> BoundReport:
    """The report of a class-weight vector, valued only once ``mat``'s
    substitution check passes: sum_j 2^n C(n, j) w_j, summed on the
    cleared integers."""
    common, scaled = _check_feasible(mat, weights)
    exact = Fraction(sum(map(mul, _class_sizes(n), scaled)), common)
    return BoundReport(method, n, d, lam, exact, exact.__floor__(), tuple(weights))


def lp_hypergraph_bound(n: int, d: int, lam: int) -> BoundReport:
    """Exact optimum of the folded covering LP."""
    r = _radius(n, d, lam)
    mat = class_matrix(n, r, lam)
    lp = LinearProgram(objective=_class_sizes(n), sense="min")
    for i in range(n + 1):
        lp.add(list(mat.row(i)), ">=", 1)
    res = solve_lp(lp)
    if res.status is not LPStatus.OPTIMAL:
        raise ArithmeticError(f"covering LP reported {res.status}")
    return _covering("lp", n, d, lam, mat, res.x)


def optimal1_bound(n: int, lam: int = 1) -> BoundReport:
    """Closed form for radius lam (distance 2*lam+1) covers.

    With radius lam only the cheap swaps fit in a ball, the class
    matrix is diagonal with entries i+1, and reciprocal weights are
    simultaneously primal and dual optimal, giving
    2^n (2^(n+1) - 1)/(n+1) exactly.
    """
    mat = class_matrix(n, lam, lam)
    weights = [Fraction(1, i + 1) for i in range(n + 1)]
    return _covering("optimal1", n, 2 * lam + 1, lam, mat, weights)


def naive_weight_bound(n: int, d: int, lam: int, strict: bool = False) -> BoundReport:
    """Reciprocal-ball-size weights, shifted down by mu = r // (1+lam).

    The shift buys feasibility: the ball around a weight-i centre only
    reaches weights down to i - mu, so under-indexing each reciprocal
    keeps every row sum at 1 or more.  Checked by substitution.

    By default the weight classes below the shift (i < mu) carry the
    ball size itself rather than its reciprocal.  That convention
    reproduces the reference tables this package is checked against;
    it is feasible (the weights only grow) but weaker.  Pass
    strict=True for the uniformly-reciprocal assignment, which is also
    feasible and gives a tighter value.
    """
    r = _radius(n, d, lam)
    mu = r // (1 + lam)
    def weight(i: int) -> Fraction:
        if i < mu and not strict:
            return Fraction(ball_size(n, 0, lam, r))
        return Fraction(1, ball_size(n, max(i - mu, 0), lam, r))
    weights = [weight(i) for i in range(n + 1)]
    method = "naive-strict" if strict else "naive"
    return _covering(method, n, d, lam, class_matrix(n, r, lam), weights)


def simple_bound(n: int, d: int, lam: int) -> BoundReport:
    """Binomial-denominator closed form.

    Weight class l gets 1/(sum of C(l,j) for j <= r // lam): the count
    of cheap-swap patterns a ball centre can absorb.
    """
    r = _radius(n, d, lam)
    cap = r // lam
    weights = [
        Fraction(1, sum(comb(l, j) for j in range(min(l, cap) + 1)))
        for l in range(n + 1)
    ]
    return _covering("simple", n, d, lam, class_matrix(n, r, lam), weights)


def weights1_bound(n: int, r: int) -> BoundReport:
    """Solve a capped class-matrix system for the weights (lam = 1).

    Off-diagonal entries are capped at (diagonal - 1)/r so the system
    solution stays nonnegative; the weights are then checked against
    the true class matrix before the objective is reported.  The
    recorded ``weights1`` column of table 2 comes from a cap of
    diagonal/r instead, whose solution has negative weights (n = 5:
    w1, w3, w5 < 0) and a cover row of about -2.57 at class 0, so it
    is no covering assignment and certifies nothing.
    """
    lam = 1
    # class_matrix checks n and accepts r = 0, but the cap divides by r
    mat = class_matrix(n, _check_int(r, "r", 1), lam)
    # each row times r, so the system is in integers and the cap is diagonal - 1
    capped = []
    for i in range(n + 1):
        row = mat.row(i)
        capped.append([r * m if j == i else min(r * m, row[i] - 1)
                       for j, m in enumerate(row)])
    weights = solve_linear_system(capped, [r] * (n + 1))
    return _covering("weights1", n, 2 * r + 1, lam, mat, weights)


def packing_comparison(v: int) -> dict:
    """Compare sphere-packing bounds with the kernel-code guarantee.

    For n = (2^v - 2)/2 and distance 5 (lam = 1): the binary packing
    bound on 2n bits with radius 2, the quaternary packing bound with
    radius 2, and the 4^n/(2n+2)^2 lower bound for the doubled-column
    kernel construction.
    """
    n = (2 ** _check_int(v, "v", 3) - 2) // 2
    binary = Fraction(2 ** (2 * n), sum(comb(2 * n, j) for j in range(5)))
    quaternary = Fraction(
        4 ** n, sum(comb(n, j) * 3 ** j for j in range(3))
    )
    kernel_lower = Fraction(4 ** n, (2 * n + 2) ** 2)
    return {
        "n": n,
        "binary_packing": binary,
        "quaternary_packing": quaternary,
        "kernel_lower": kernel_lower,
    }
