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
lies in the quadratic field Q(sqrt 5).  The row of a profile p states
its transform coefficient's nonnegativity in the one row form
``solve_lp`` takes: -(transform entries) . x <= multinomial(p), a
nonnegative right-hand side.  The LP is solved exactly over that
ordered field, with no dropped constraints; floating point only
proposes the basis, and the reported optimum comes with exactly checked
dual multipliers, the rows' duals u = y >= 0 themselves.

Assembly.  Columns are expanded a factor at a time on packed integers:
a profile key is one int with a byte per digit (n <= 20 < 256), and its
counts are one int with ten slots, one per power of zeta.  Multiplying
by zeta^c moves slot k to slot k + c mod 10, a cyclic shift of the int,
and adding two terms is one int addition.  A count at profile p never
exceeds multinomial(p) <= n!, so every slot is the smallest of 1, 2, 4
or 8 bytes that holds n!, and no slot can carry into its neighbour.
The coefficient at reverse_profile(p) is the conjugate of the one at p,
so both give the same real entry in every symmetrised column and the
same multinomial right-hand side: only the lexicographically first
profile of each reverse pair names a row.  So the LP never expands a
column in full.  It expands the head of each column, every factor but
the last one, at the column's highest nonzero digit j (through
``coefficient_column`` with ``packed_for=n``), and pulls that last
factor straight into the rows: the coefficient at a first profile
p is the sum, over the nonzero digits i of p, of the head's counts at p
minus one i, each rotated by chi(i, j).  Entries are computed once per
distinct ``(packed counts, orbit)`` within a call, and only then are
the counts unpacked, with ``struct``.

What depends on n alone is built once per length and shared by every
cell of it: ``_profile_layout(n)`` lists each first profile with its
orbit, the packed keys of its predecessors p - e_i and its row's
multinomial right-hand side.  It must never hold anything that depends
on d or lam (a survivor, a column, an entry or a row), so no answer is
ever read from an earlier cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from numbers import Number
from operator import mul, sub
from struct import unpack

from .core import Budget, BudgetExceeded, _check_int, _check_lambda
from .lp import LinearProgram, LPStatus, solve_lp

__all__ = [
    "DelsarteReport",
    "Q5",
    "chi",
    "coefficient_column",
    "delsarte_bound",
]


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


class Q5:
    """Element a + b*sqrt(5) of the real quadratic field, exact.

    Stored as integers, (p + q*sqrt(5)) / r with r > 0 and gcd(p, q, r)
    = 1, so each element has one representation; ``a`` and ``b`` give
    its rational parts.  ``_q5`` is the only constructor (``Q5(a, b)``
    and ``lift`` call it), and no value changes after ``_q5`` returns
    it.  Comparisons use the real embedding with sqrt(5) > 0: a - b has
    the sign of the integer pair (p*r' - p'*r, q*r' - q'*r), read off by
    ``_sign`` without building the difference.
    """

    __slots__ = ("p", "q", "r")

    def __new__(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        return _q5(a.numerator * b.denominator, b.numerator * a.denominator,
                   a.denominator * b.denominator)

    def __reduce__(self):
        return Q5, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    @classmethod
    def lift(cls, v) -> "Q5":
        if type(v) is int:
            return _q5(v, 0, 1)
        return v if isinstance(v, Q5) else Q5(v, 0)

    def __add__(self, o):
        if type(o) is not Q5:
            o = Q5.lift(o)
        if self.r == o.r:
            return _q5(self.p + o.p, self.q + o.q, self.r)
        return _q5(self.p * o.r + o.p * self.r, self.q * o.r + o.q * self.r, self.r * o.r)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not Q5:
            o = Q5.lift(o)
        if self.r == o.r:
            return _q5(self.p - o.p, self.q - o.q, self.r)
        return _q5(self.p * o.r - o.p * self.r, self.q * o.r - o.q * self.r, self.r * o.r)

    def __rsub__(self, o):
        return Q5.lift(o) - self

    def __neg__(self):
        return _q5(-self.p, -self.q, self.r)

    def __mul__(self, o):
        if type(o) is not Q5:
            o = Q5.lift(o)
        return _q5(
            self.p * o.p + 5 * self.q * o.q, self.p * o.q + self.q * o.p, self.r * o.r
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        # multiply by the conjugate: 1 / (p + q sqrt5) = (p - q sqrt5) / norm
        o = Q5.lift(o)
        norm = o.p * o.p - 5 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return _q5(
            (self.p * o.p - 5 * self.q * o.q) * o.r,
            (self.q * o.p - self.p * o.q) * o.r,
            self.r * norm,
        )

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __eq__(self, o):
        if type(o) is not Q5:
            o = _operand(o)
            if o is None:
                return NotImplemented
        return self.p == o.p and self.q == o.q and self.r == o.r

    def __ne__(self, o):
        if type(o) is not Q5:
            o = _operand(o)
            if o is None:
                return NotImplemented
        return self.p != o.p or self.q != o.q or self.r != o.r

    def __lt__(self, o):
        return _compare(self, o) < 0

    def __le__(self, o):
        return _compare(self, o) <= 0

    def __gt__(self, o):
        return _compare(self, o) > 0

    def __ge__(self, o):
        return _compare(self, o) >= 0

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals
        if self.q == 0:
            return hash(self.p) if self.r == 1 else hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r))

    def __float__(self) -> float:
        return self.p / self.r + self.q / self.r * math.sqrt(5)

    def __floor__(self) -> int:
        # floor((p + q sqrt5) / r) = floor(p + q sqrt5) // r for r > 0, and
        # q sqrt5 = +-sqrt(5 q^2) is irrational for q != 0
        f = math.isqrt(5 * self.q * self.q)
        if self.q < 0:
            f = -f - 1
        return (self.p + f) // self.r

    def __repr__(self):
        if self.q == 0:
            return f"Q5({self.a})"
        return f"Q5({self.a} + {self.b}*sqrt5)"


def _operand(o) -> Q5 | None:
    """``Q5.lift(o)``, or None when o is not a number lift can read."""
    if type(o) is int or isinstance(o, Number):
        try:
            return Q5.lift(o)
        except (TypeError, ValueError, OverflowError):
            pass
    return None


def _q5(p: int, q: int, r: int) -> Q5:
    """(p + q*sqrt(5)) / r in lowest terms, for integers with r != 0."""
    g = math.gcd(p, q, r)
    if r < 0:
        g = -g
    out = object.__new__(Q5)
    out.p = p // g
    out.q = q // g
    out.r = r // g
    return out


def _sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(5) for integers p and q."""
    if p >= 0 and q >= 0:
        return 0 if p == q == 0 else 1
    if p <= 0 and q <= 0:
        return -1
    # p*p == 5*q*q is impossible for q != 0, since sqrt(5) is irrational
    if p > 0:  # q < 0
        return 1 if p * p > 5 * q * q else -1
    return 1 if 5 * q * q > p * p else -1


def _compare(a: Q5, o) -> int:
    """Sign of a - o, for o in Q5 or a rational; r, r' > 0 keep the sign
    of the cross-multiplied numerator."""
    if type(o) is int:
        return _sign(a.p - o * a.r, a.q)
    if type(o) is not Q5:
        o = Q5.lift(o)
    r, s = a.r, o.r
    if r == s:
        return _sign(a.p - o.p, a.q - o.q)
    return _sign(a.p * s - o.p * r, a.q * s - o.q * r)


# ---------------------------------------------------------------- profiles

def profiles(n: int):
    """All 10-tuples of nonnegative integers summing to n, lexicographic.

    Stars and bars: the running sums c_0 <= ... <= c_8 of the first nine
    digits' counts run over the nondecreasing 9-tuples in 0..n, in the
    same lexicographic order as the profiles they give.
    """
    for c in combinations_with_replacement(range(n + 1), 9):
        yield tuple(map(sub, (*c, n), (0, *c)))


def reverse_profile(m: tuple) -> tuple:
    """Digit negation i -> (10 - i) mod 10 applied to the index axis."""
    return (m[0], *m[:0:-1])


def profile_cost(m: tuple, lam: int) -> int:
    """Cheapest total distance any difference with this profile carries."""
    return (
        (1 + lam) * (m[1] + m[4] + m[6] + m[9])
        + lam * (m[2] + m[8])
        + 2 * (1 + lam) * m[5]
    )


# struct codes of the unsigned integer sizes a count slot may take
_SLOT_CODES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _slot_layout(n: int) -> tuple:
    """``(size, width, full, fmt)`` of the packed counts at length n.

    A count at profile p never exceeds multinomial(p) <= n!, so each of
    the ten zeta-power slots is the smallest struct size with room for
    n!: ``size`` bytes, ``width`` bits, ``full`` the mask of all ten
    slots and ``fmt`` their ``struct`` format.  20! is the largest
    factorial below 2^64.  Multiplying by zeta^c rotates the slots,
    ``((v << c * width) & full) | (v >> (10 - c) * width)``, which the
    expansion loops write inline.
    """
    if n > 20:
        raise ValueError(f"n={n} is too long: column counts need n <= 20")
    need = math.factorial(n).bit_length()
    for size, code in _SLOT_CODES:
        if 8 * size >= need:
            return size, 8 * size, (1 << 80 * size) - 1, f"<10{code}"


def _digit_steps(j: int) -> tuple:
    """``(c, steps)`` per distinct c = chi(i, j), in order of first
    appearance: the packed profile steps 1 << 8i of the digits i with
    character zeta^c against j."""
    cs = [chi(i, j) for i in range(10)]
    return tuple((c, tuple(1 << 8 * i for i in range(10) if cs[i] == c)) for c in dict.fromkeys(cs))


# each digit's zeta-move groups, which depend on neither the column nor n
_DIGIT_STEPS = tuple(map(_digit_steps, range(10)))


def _packed_column(m: tuple, budget: Budget | None, n: int) -> dict:
    """``{packed profile: packed counts}`` of the column of m, with count
    slots laid out for length n >= sum(m); see "Assembly" in the module
    docstring."""
    _, width, full, _ = _slot_layout(n)
    state = {0: 1}  # the empty monomial, one term equal to zeta^0
    for j in range(10):
        # one (down, up, digit steps) move per distinct value c = chi(i, j)
        moves = [((10 - c) * width, c * width, s) for c, s in _DIGIT_STEPS[j]]
        for _ in range(m[j]):
            if budget is not None:
                budget.check("coefficient assembly")
            nxt = {}
            get = nxt.get
            for p, v in state.items():
                for down, up, digit_steps in moves:
                    w = ((v << up) & full) | (v >> down)  # slot k -> k + c, see _slot_layout
                    for step in digit_steps:
                        q = p + step
                        nxt[q] = get(q, 0) + w
            state = nxt
    return state


def coefficient_column(
    m: tuple, budget: Budget | None = None, *, packed_for: int | None = None
) -> dict:
    """Monomial-profile coefficients of prod_j (sum_i z_i chi(i,j))^m_j.

    Returns {p: counts} where p records the multidegree of the
    z-monomial as a profile and counts[k] is how many of its terms equal
    zeta^k, so the coefficient is sum_k counts[k] zeta^k.  Cross-checkable
    against the direct sum of chi over words with a fixed difference
    profile.

    With ``packed_for=n`` (n >= sum(m)) the column is returned as the
    LP's assembly reads it, ``{packed profile: packed counts}`` with the
    count slots of length n; see "Assembly" in the module docstring.
    """
    if packed_for is not None:
        return _packed_column(m, budget, packed_for)
    n = sum(m)
    size, _, _, fmt = _slot_layout(n)
    return {
        tuple(p.to_bytes(10, "little")): unpack(fmt, v.to_bytes(10 * size, "little"))
        for p, v in _packed_column(m, budget, n).items()
    }


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
    return _q5(sum(map(mul, v, _COS_A)), sum(map(mul, v, _COS_B)), 4 // orbit)


@dataclass(frozen=True)
class DelsarteReport:
    """An optimum of the character LP, the only outcome ``delsarte_bound``
    reports (any other solver status raises).  The value is 1 + the LP
    optimum, a + b sqrt 5 with ``sqrt5_part`` b; ``exact`` is a when b =
    0, else None.

    ``dual`` holds the dual multipliers that certify it, as ``(profile,
    u)`` pairs with u > 0 in Q(sqrt 5), one per LP row with a nonzero
    multiplier; the row is the transform constraint of that profile.
    For every surviving column m, orbit(m) + sum_p u_p * entry(p, m) <=
    0, and the value is 1 + sum_p u_p * multinomial(p), so it is an
    upper bound whatever solver produced it.  With no surviving column
    the empty program is solved too: value 1, no multipliers.
    """

    method: str
    n: int
    d: int
    lam: int
    status: LPStatus
    exact: Fraction | None
    sqrt5_part: Fraction
    floored: int
    dual: tuple


@lru_cache(maxsize=8)
def _profile_layout(n: int) -> tuple:
    """The part of the LP at length n that depends on neither d nor lam.

    One ``(p, orbit, preds, rhs)`` per first profile p of a reverse pair
    (reverse_profile(p) >= p), in lexicographic order: ``orbit`` is 1
    when p is its own reverse and 2 otherwise, ``preds`` the
    ``(i, packed p - e_i)`` pair of each nonzero digit i of p, and
    ``rhs`` the row's right-hand side, multinomial(p) in Q5.  See
    "Assembly" in the module docstring.
    """
    fact = [math.factorial(k) for k in range(n + 1)]
    # equal right-hand sides share one Q5, so equal rows match by identity
    rhs_of = {}
    layout = []
    for p in profiles(n):
        rev = reverse_profile(p)
        if rev < p:
            continue
        key = int.from_bytes(bytes(p), "little")
        preds = tuple((i, key - (1 << 8 * i)) for i in range(10) if p[i])
        mult = fact[n] // math.prod(map(fact.__getitem__, p))
        if mult not in rhs_of:
            rhs_of[mult] = Q5.lift(mult)
        layout.append((p, 1 if rev == p else 2, preds, rhs_of[mult]))
    return tuple(layout)


def _assemble(n: int, d: int, lam: int, budget: Budget) -> tuple:
    """The LP's columns and rows: ``(survivors, rows)``.

    ``survivors`` lists ``(m, orbit)`` for the first profile m of each
    reverse pair whose column survives the kill rules; ``rows`` maps each
    distinct row, its entries (the negated transform coefficients) then
    its right-hand side, to the first profile that gives it.  The row of
    reverse_profile(p) equals the row of p, so only the first profile of
    each pair is visited.
    """
    size, width, full, fmt = _slot_layout(n)  # refuses n > 20 before the table
    layout = _profile_layout(n)
    # the identity profile costs 0 < d, so it never survives
    survivors = [
        (m, orbit) for m, orbit, _, _ in layout
        if m[3] == m[7] == 0 and profile_cost(m, lam) >= d
    ]

    preds = [digits for _, _, digits, _ in layout]
    entry_of = {}  # (packed counts, orbit) -> -column_entry(counts, orbit)
    columns = []  # each survivor's entries, one per first profile
    for m, orbit in survivors:
        budget.check("column assembly")
        j = max(i for i in range(10) if m[i])
        head = m[:j] + (m[j] - 1,) + m[j + 1:]
        get = coefficient_column(head, budget, packed_for=n).get
        shifts = [((10 - c) * width, c * width) for c in (chi(i, j) for i in range(10))]
        column = []
        for digits in preds:
            w = 0
            for i, q in digits:
                v = get(q)
                if v:
                    down, up = shifts[i]
                    w += ((v << up) & full) | (v >> down)  # slot k -> k + chi(i, j)
            key = (w, orbit)
            entry = entry_of.get(key)
            if entry is None:
                counts = unpack(fmt, w.to_bytes(10 * size, "little"))
                entry = entry_of[key] = -column_entry(counts, orbit)
            column.append(entry)
        columns.append(column)

    rows = {}  # distinct row -> the first profile that gives it
    for (p, _, _, rhs), entries in zip(layout, zip(*columns)):
        if not any(entries):
            continue  # 0 <= multinomial holds vacuously
        rows.setdefault(entries + (rhs,), p)
    return survivors, rows


def delsarte_bound(n: int, d: int, lam: int, budget_secs=None) -> DelsarteReport:
    """Exact character-LP upper bound on the largest (d, lam) code.

    This LP is always bounded: every non-identity column sums to 0 over
    all profiles (sum_i zeta^(-ij) = 0 for j != 0), and the row of the
    profile (n, 0, ..., 0) equals the objective, so adding all other
    rows gives objective <= 10^n - 1 and a reported value <= 10^n.
    That holds at low design distances too, where the reference tables
    print no value; the number there is still a valid upper bound (the
    LP relaxes a true-code constraint system), just not a tabulated one.
    Any solver status other than optimal raises ``ArithmeticError``.

    The time budget is ``budget_secs``, else none.  From n = 4 on, cells
    can take hours, so there one is required.
    """
    _check_int(n, "n", 1)
    _check_int(d, "d", 1)
    _check_lambda(lam)
    _slot_layout(n)  # refuses n > 20 before any profile is listed
    budget = Budget(budget_secs)
    if n >= 4 and budget.seconds is None:
        raise BudgetExceeded(
            f"n={n} needs a time budget: pass budget_secs (--budget on the CLI)"
        )
    survivors, rows = _assemble(n, d, lam, budget)
    lp = LinearProgram(objective=[Q5.lift(orbit) for _, orbit in survivors])
    for row in rows:
        lp.add(row[:-1], "<=", row[-1])
    result = solve_lp(
        lp, convert=Q5.lift, on_step=lambda: budget.check("solve")
    )
    if result.status is not LPStatus.OPTIMAL:
        raise ArithmeticError(f"unexpected LP status {result.status}")
    total = Q5.lift(1) + result.value
    exact = total.a if total.b == 0 else None
    # y >= 0 on these "<=" rows of a max: they are the multipliers u
    dual = tuple((p, y) for p, y in zip(rows.values(), result.y) if y != 0)
    return DelsarteReport(
        "delsarte", n, d, lam, LPStatus.OPTIMAL,
        exact=exact, sqrt5_part=total.b, floored=total.__floor__(), dual=dual,
    )
