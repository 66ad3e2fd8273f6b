"""Character-sum LP upper bound over the ten-digit difference alphabet.

Every pair of paired words has a componentwise difference that lives in
Z10 once each symbol pair is mapped to the digits {0, 1, 9, 5}.  Counting
those differences by digit profile gives a distance enumerator, and the
enumerator's character transform must be coefficient-wise nonnegative.
Maximizing the enumerator mass subject to that cone (plus the kill rules
for digits no difference can produce and for profiles cheaper than the
design distance) yields an upper bound on the largest code size.

Characters are powers of zeta = exp(2 pi i / 10).  Every column
coefficient is a sum of such powers, kept as ten integer counts (how many
terms equal zeta^k), so multiplying by a character shifts the counts
cyclically.  After the variable symmetrization m ~ reverse(m) every
constraint coefficient is real: a sum of 2cos(2 pi k / 10), each of which
lies in the quadratic field Q(sqrt 5).  The LP is solved exactly over
that ordered field - no floating point, no dropped constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .core import BUDGET_ENV, Budget, BudgetExceeded, _check_lambda
from .lp import LinearProgram, LPStatus, solve_lp


# 2cos(2 pi k / 10) = (_COS_A[k] + _COS_B[k] * sqrt 5) / 2.
_COS_A = (4, 1, -1, 1, -1, -4, -1, 1, -1, 1)
_COS_B = (0, 1, 1, -1, -1, 0, -1, -1, 1, 1)
# Coefficients of Phi_10 = 1 - x + x^2 - x^3 + x^4, the minimal
# polynomial of zeta.
_PHI10 = (1, -1, 1, -1, 1)


def chi(i: int, j: int) -> int:
    """Character value zeta^(-i*j), given as its exponent in 0..9."""
    if not (0 <= i <= 9 and 0 <= j <= 9):
        raise ValueError("digits must lie in 0..9")
    return (-i * j) % 10


@dataclass(frozen=True)
class Q5:
    """Element a + b*sqrt(5) of the real quadratic field, exact.

    Comparisons use the real embedding with sqrt(5) > 0.
    """

    a: Fraction
    b: Fraction

    @classmethod
    def lift(cls, v) -> "Q5":
        if isinstance(v, Q5):
            return v
        return cls(Fraction(v), Fraction(0))

    def _sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        lhs, rhs = a * a, 5 * b * b
        if lhs == rhs:  # impossible for b != 0 over the rationals
            raise ArithmeticError("sqrt(5) cannot be rational")
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __add__(self, o):
        o = Q5.lift(o)
        return Q5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, o):
        o = Q5.lift(o)
        return Q5(self.a - o.a, self.b - o.b)

    def __rsub__(self, o):
        return Q5.lift(o) - self

    def __neg__(self):
        return Q5(-self.a, -self.b)

    def __mul__(self, o):
        o = Q5.lift(o)
        return Q5(
            self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Q5.lift(o)
        norm = o.a * o.a - 5 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        inv = Q5(o.a / norm, -o.b / norm)
        return self * inv

    def __eq__(self, o):
        o = Q5.lift(o)
        return self.a == o.a and self.b == o.b

    def __ne__(self, o):
        return not self.__eq__(o)

    def __lt__(self, o):
        return (self - Q5.lift(o))._sign() < 0

    def __le__(self, o):
        return (self - Q5.lift(o))._sign() <= 0

    def __gt__(self, o):
        return (self - Q5.lift(o))._sign() > 0

    def __ge__(self, o):
        return (self - Q5.lift(o))._sign() >= 0

    def __hash__(self):
        return hash((self.a, self.b))

    def __floor__(self) -> int:
        est = math.floor(float(self.a) + float(self.b) * math.sqrt(5))
        while (self - Q5.lift(est))._sign() < 0:
            est -= 1
        while (self - Q5.lift(est + 1))._sign() >= 0:
            est += 1
        return est

    def __repr__(self):
        if self.b == 0:
            return f"Q5({self.a})"
        return f"Q5({self.a} + {self.b}*sqrt5)"


# ---------------------------------------------------------------- profiles

def profiles(n: int):
    """All 10-tuples of nonnegative integers summing to n, lexicographic."""

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for tail in rec(remaining - head, slots - 1):
                yield (head,) + tail

    yield from rec(n, 10)


def reverse_profile(m: tuple) -> tuple:
    """Digit negation i -> (10 - i) mod 10 applied to the index axis."""
    return tuple(m[(10 - i) % 10] for i in range(10))


def identity_profile(n: int) -> tuple:
    return (n,) + (0,) * 9


def profile_cost(m: tuple, lam: int) -> int:
    """Cheapest total distance any difference with this profile carries."""
    return (
        (1 + lam) * (m[1] + m[4] + m[6] + m[9])
        + lam * (m[2] + m[8])
        + 2 * (1 + lam) * m[5]
    )


def _multinomial(m: tuple) -> int:
    total = sum(m)
    out = 1
    for part in m:
        out *= math.comb(total, part)
        total -= part
    return out


def coefficient_column(m: tuple, budget: Budget | None = None) -> dict:
    """Monomial-profile coefficients of prod_j (sum_i z_i chi(i,j))^m_j.

    Returns {p: counts} where p records the multidegree of the
    z-monomial as a profile and counts[k] is how many of its terms equal
    zeta^k, so the coefficient is sum_k counts[k] zeta^k.  Multiplying
    by chi(i,j) shifts the counts cyclically.  Cross-checkable against
    the direct sum of chi over words with a fixed difference profile.
    """
    one = (1,) + (0,) * 9
    if sum(m) == 0:
        return {(): one}
    state = {(0,) * 10: one}
    for j in range(10):
        shifts = [10 - chi(i, j) for i in range(10)]
        for _ in range(m[j]):
            if budget is not None:
                budget.check("coefficient assembly")
            nxt = {}
            for p, v in state.items():
                for i, s in enumerate(shifts):
                    w = v[s:] + v[:s]  # w[k] = v[k - chi(i, j)]
                    key = p[:i] + (p[i] + 1,) + p[i + 1:]
                    cur = nxt.get(key)
                    nxt[key] = w if cur is None else tuple(map(add, cur, w))
            state = nxt
    return state


def _vanishes(v) -> bool:
    """Whether sum_k v[k] zeta^k is 0.  Folding with zeta^5 = -1 leaves
    a polynomial of degree <= 4, which vanishes at zeta exactly when it
    is a multiple of Phi_10."""
    e = [v[k] - v[k + 5] for k in range(5)]
    return all(x == c * e[0] for x, c in zip(e, _PHI10))


def column_entry(v, orbit: int) -> Q5:
    """LP coefficient of the column entry with zeta-power counts v.

    A paired column (orbit 2) carries c + conj(c) = sum_k v[k] 2cos(2 pi
    k/10); a self-reverse column (orbit 1) carries c, which is real,
    and so half of that.
    """
    if orbit == 1 and not _vanishes([v[k] - v[-k] for k in range(10)]):
        raise ValueError(f"not a real element: {v}")
    den = 4 // orbit
    return Q5(
        Fraction(sum(map(mul, v, _COS_A)), den),
        Fraction(sum(map(mul, v, _COS_B)), den),
    )


@dataclass(frozen=True)
class DelsarteReport:
    """Outcome of the character LP: either an exact optimum or Unbounded."""

    method: str
    n: int
    d: int
    lam: int
    status: LPStatus
    exact: Fraction | None = None
    sqrt5_part: Fraction | None = None
    floored: int | None = None

    @property
    def unbounded(self) -> bool:
        return self.status is LPStatus.UNBOUNDED


def delsarte_bound(n: int, d: int, lam: int, budget_secs=None) -> DelsarteReport:
    """Exact character-LP upper bound on the largest (d, lam) code.

    Unbounded is a distinguished status, never a large number, but
    this LP is always bounded: every non-identity column sums to 0 over
    all profiles (sum_i zeta^(-ij) = 0 for j != 0), and the row of the
    profile (n, 0, ..., 0) equals the objective, so adding all other
    rows gives objective <= 10^n - 1 and a reported value <= 10^n.
    That holds at low design distances too, where the reference tables
    print no value; the number there is still a valid upper bound (the
    LP relaxes a true-code constraint system), just not a tabulated one.

    The time budget is ``budget_secs``, else ``ALDKIT_BUDGET_SECS``, else
    none.  From n = 4 on, cells can take hours, so there one is required.
    """
    _check_lambda(lam)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1, d >= 1")
    budget = Budget(budget_secs)
    if n >= 4 and budget.seconds is None:
        raise BudgetExceeded(
            f"n={n} needs a time budget: pass budget_secs or set {BUDGET_ENV}"
        )

    ident = identity_profile(n)
    survivors = []
    seen = set()
    for m in profiles(n):
        if m == ident or m in seen:
            continue
        if m[3] > 0 or m[7] > 0:
            continue
        if profile_cost(m, lam) < d:
            continue
        rev = reverse_profile(m)
        seen.add(m)
        seen.add(rev)
        survivors.append((m, 1 if rev == m else 2))

    # Column of the identity profile is the plain multinomial expansion
    # (all characters against digit 0 equal 1), handled as constants.
    columns = []
    for m, orbit in survivors:
        budget.check("column assembly")
        columns.append((coefficient_column(m, budget), orbit))

    absent = (0,) * 10
    rows = {}
    for p in profiles(n):
        budget.check("row assembly")
        entries = [column_entry(col.get(p, absent), orbit) for col, orbit in columns]
        rhs = Q5.lift(-_multinomial(p))
        if all(e == Q5.lift(0) for e in entries):
            continue  # 0 >= -multinomial holds vacuously
        rows[tuple(entries) + (rhs,)] = None
    row_list = [list(k) for k in rows]

    if not survivors:
        return DelsarteReport(
            "delsarte", n, d, lam, LPStatus.OPTIMAL,
            exact=Fraction(1), sqrt5_part=Fraction(0), floored=1,
        )

    lp = LinearProgram(
        objective=[Q5.lift(orbit) for _, orbit in survivors], sense="max"
    )
    for row in row_list:
        lp.add(row[:-1], ">=", row[-1])
    result = solve_lp(
        lp, convert=Q5.lift, on_step=lambda: budget.check("solve")
    )
    if result.status is LPStatus.UNBOUNDED:
        return DelsarteReport("delsarte", n, d, lam, LPStatus.UNBOUNDED)
    if result.status is not LPStatus.OPTIMAL:
        raise ArithmeticError(f"unexpected LP status {result.status}")
    total = Q5.lift(1) + result.value
    exact = total.a if total.b == 0 else None
    return DelsarteReport(
        "delsarte", n, d, lam, LPStatus.OPTIMAL,
        exact=exact, sqrt5_part=total.b, floored=total.__floor__(),
    )
