import cmath
import copy
import hashlib
import math
import pickle
from functools import cache
from fractions import Fraction
from struct import unpack

import pytest
from hypothesis import given, settings, strategies as st

from aldkit import delsarte
from aldkit.core import Budget, BudgetExceeded
from aldkit.delsarte import (
    Q5,
    chi,
    coefficient_column,
    column_entry,
    delsarte_bound,
    profile_cost,
    profiles,
    reverse_profile,
)
from aldkit.lp import LinearProgram, LPStatus

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
count_vectors = st.tuples(*[st.integers(-6, 6)] * 10)


def identity_profile(n):
    """The profile of the zero difference: all n positions at digit 0."""
    return (n,) + (0,) * 9


def unit(k):
    """Counts of the single power zeta^k."""
    return tuple(1 if i == k else 0 for i in range(10))


ONE = unit(0)


def conj(v):
    """Counts of the complex conjugate, zeta^k -> zeta^(-k)."""
    return tuple(v[-k % 10] for k in range(10))


def plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


def times(u, v):
    """Counts of the product: the cyclic convolution of u and v."""
    return tuple(
        sum(u[i] * v[(k - i) % 10] for i in range(10)) for k in range(10)
    )


def value(v):
    """Floating-point value of sum_k v[k] zeta^k, an independent check."""
    return sum(c * cmath.exp(2j * math.pi * k / 10) for k, c in enumerate(v))


# ---------------------------------------------- counts to Q(sqrt5) entries


def test_two_cos_table():
    for k in range(10):
        q = column_entry(unit(k), 2)
        want = 2 * math.cos(2 * math.pi * k / 10)
        assert abs(float(q.a) + float(q.b) * math.sqrt(5) - want) < 1e-12, k
    # 2 cos(2 pi / 10) = (1 + sqrt5) / 2
    assert column_entry(unit(1), 2) == Q5(Fraction(1, 2), Fraction(1, 2))


def test_zeta_fifth_power_is_minus_one():
    assert column_entry(unit(5), 1) == Q5.lift(-1)
    # 1 + zeta^5 = 0 although its counts are not zero
    assert column_entry(plus(ONE, unit(5)), 1) == Q5.lift(0)


def test_sqrt5_squares_to_five():
    # sqrt5 = 1 + 2 zeta^2 - 2 zeta^3 is real although its counts are
    # not conjugation-symmetric
    sqrt5 = (1, 0, 2, -2, 0, 0, 0, 0, 0, 0)
    assert column_entry(sqrt5, 1) == Q5(Fraction(0), Fraction(1))
    assert column_entry(times(sqrt5, sqrt5), 1) == Q5.lift(5)


def test_real_parts_round_trip():
    assert column_entry(ONE, 1) == Q5.lift(1)
    for k in (1, 2, 3, 4, 6, 7, 8, 9):
        with pytest.raises(ValueError):
            column_entry(unit(k), 1)
    # 2 cos(2 pi / 10) = (1 + sqrt5) / 2
    golden = plus(unit(1), unit(9))
    assert column_entry(golden, 1) == Q5(Fraction(1, 2), Fraction(1, 2))


@given(count_vectors)
@settings(max_examples=80)
def test_norm_is_real_and_nonnegative(v):
    assert column_entry(times(v, conj(v)), 1) >= 0


@given(count_vectors)
@settings(max_examples=150)
def test_realness_check_matches_the_complex_value(v):
    if abs(value(v).imag) < 1e-9:
        q = column_entry(v, 1)
        assert abs(float(q.a) + float(q.b) * math.sqrt(5) - value(v).real) < 1e-9
    else:
        with pytest.raises(ValueError):
            column_entry(v, 1)
    # c + conj(c) is real; as a self-reverse entry it equals the paired
    # entry of c
    assert column_entry(plus(v, conj(v)), 1) == column_entry(v, 2)


# ------------------------------------------------------------- characters


def test_chi_at_zero_is_one():
    for j in range(10):
        assert chi(0, j) == 0
        assert chi(j, 0) == 0


def test_chi_half_turn():
    # exp(-pi i) = -1
    assert chi(1, 5) == 5
    assert abs(value(unit(chi(1, 5))) + 1) < 1e-12


def test_chi_product_law_exhaustive():
    for i in range(10):
        for j in range(10):
            for k in range(10):
                assert (chi(i, j) + chi(i, k)) % 10 == chi(i, (j + k) % 10)


def test_chi_rejects_out_of_range_digits():
    with pytest.raises(ValueError):
        chi(10, 0)
    with pytest.raises(ValueError):
        chi(0, -1)


# ------------------------------------------------------- the Q(sqrt5) field


def test_q5_is_ordered_correctly():
    root = Q5(Fraction(0), Fraction(1))
    assert 2 < root < 3
    assert Q5(Fraction(-2), Fraction(1)) > 0  # sqrt5 - 2 > 0
    assert Q5(Fraction(9, 4), Fraction(-1)) > 0  # 9/4 > sqrt5
    assert Q5(Fraction(2), Fraction(-1)) < 0  # 2 < sqrt5


def test_q5_field_identities():
    a = Q5(Fraction(3, 2), Fraction(-2, 3))
    b = Q5(Fraction(-1), Fraction(5, 7))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (Q5.lift(1) / a) == Q5.lift(1)
    conj = Q5(a.a, -a.b)
    assert a * conj == Q5.lift(a.a * a.a - 5 * a.b * a.b)
    with pytest.raises(ZeroDivisionError):
        a / Q5.lift(0)


def test_q5_keeps_the_eq_hash_contract():
    # a rational element equals, and hashes as, the int or Fraction it is
    half = Q5(Fraction(1, 2), 0)
    for x, plain in ((Q5(1, 0), 1), (Q5(-7, 0), -7), (half, Fraction(1, 2)), (half, 0.5)):
        assert x == plain and plain == x and not x != plain
        assert hash(x) == hash(plain) and len({x, plain}) == 1
    root = Q5(0, 1)
    assert hash(root) == hash(Q5(0, 2) / 2) and root != 0 and len({root, 0}) == 2
    # anything that is not a number compares unequal instead of raising
    for other in ("x", "1", None, [], 1j, float("nan")):
        assert not Q5(1, 0) == other and Q5(1, 0) != other
        assert not other == Q5(1, 0) and other != Q5(1, 0)


def test_q5_lifts_an_int_without_building_fractions(monkeypatch):
    x = Q5(1, 2)
    built = []
    fraction = delsarte.Fraction

    def counting(*args):
        built.append(args)
        return fraction(*args)

    monkeypatch.setattr(delsarte, "Fraction", counting)
    seven, total, product = Q5.lift(7), x + 3, x * 3
    assert built == []
    monkeypatch.undo()
    assert (seven, total, product) == (Q5(7, 0), Q5(4, 2), Q5(3, 6))
    assert hash(seven) == hash(7)


def test_q5_floor_anchors():
    assert math.floor(Q5(Fraction(0), Fraction(1))) == 2
    assert math.floor(Q5(Fraction(0), Fraction(-1))) == -3
    assert math.floor(Q5(Fraction(5, 2), Fraction(0))) == 2
    assert math.floor(Q5(Fraction(1, 2), Fraction(1, 2))) == 1  # golden ratio
    # phi^n = (L_n + F_n sqrt 5) / 2 lies within |psi|^n of the Lucas
    # number L_n: just below it for even n, just above it for odd n.  At
    # n = 38 the float rounds up onto L_38, so its floor is one too high;
    # at n = 79 it rounds down below L_79, so its floor is one too low.
    phi = Q5(Fraction(1, 2), Fraction(1, 2))
    powers = [Q5.lift(1)]
    for _ in range(79):
        powers.append(powers[-1] * phi)
    for n, lucas, float_floor, want in (
        (38, 87403803, 87403803, 87403802),
        (79, 32361122672259149, 32361122672259148, 32361122672259149),
    ):
        assert powers[n].a == Fraction(lucas, 2)
        assert math.floor(float(powers[n])) == float_floor
        assert math.floor(powers[n]) == want


def test_q5_floor_past_the_float_range():
    # float(Q5(10**400, 1)) overflows; the floor never takes a float
    assert math.floor(Q5(10**400, 1)) == 10**400 + 2
    assert math.floor(Q5(-10**400, -1)) == -10**400 - 3
    assert math.floor(Q5(Fraction(1, 10**400), Fraction(-1, 10**400))) == -1


@given(small_fractions, small_fractions)
@settings(max_examples=120)
def test_q5_floor_brackets_the_value(a, b):
    q = Q5(a, b)
    f = math.floor(q)
    assert Q5.lift(f) <= q < Q5.lift(f + 1)


def float_sign(x, y):
    """Sign of x + y*sqrt(5) for the small rationals drawn here.  Their
    denominators divide 56 and |x|, |y| <= 10, so a nonzero value,
    |x^2 - 5y^2| / |x - y*sqrt(5)|, is at least 1 / (56^2 * 33) > 9e-6
    away from 0, far past float error."""
    v = float(x) + float(y) * math.sqrt(5)
    return (v > 0) - (v < 0)


def assert_orders_by(a, b, s):
    """Every comparison of a with b reads as the sign s of a - b."""
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
        s < 0, s <= 0, s > 0, s >= 0, s == 0, s != 0), (a, b, s)


q5_values = st.builds(Q5, small_fractions, small_fractions)


def q5_parts(x):
    """Rational and sqrt(5) parts of a Q5, an int or a Fraction."""
    return (x.a, x.b) if isinstance(x, Q5) else (x, 0)


@given(q5_values, st.one_of(q5_values, st.integers(-6, 6), small_fractions))
@settings(max_examples=400)
def test_q5_comparisons_follow_the_sign_of_the_difference(a, b):
    (p, q), (p2, q2) = q5_parts(a), q5_parts(b)
    s = float_sign(p - p2, q - q2)
    assert_orders_by(a, b, s)
    assert_orders_by(b, a, -s)
    assert_orders_by(a, Q5(a.a, a.b), 0)


wide_fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@given(wide_fractions, st.one_of(st.just(Fraction(0)), wide_fractions))
@settings(max_examples=300)
def test_q5_constructor_gives_lowest_terms(a, b):
    x = Q5(a, b)
    assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1
    assert (x.a, x.b) == (a, b)
    if b == 0:
        assert x == Q5.lift(a) == a


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_q5_pickles_and_deep_copies(protocol):
    # Q5(a, b) needs its two arguments and __slots__ leaves no __dict__,
    # so every protocol goes through __reduce__
    for x in (Q5(Fraction(3, 2), Fraction(-2, 3)), Q5.lift(-7), Q5(0, 1)):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is Q5 and (back.p, back.q, back.r) == (x.p, x.q, x.r)
        deep = copy.deepcopy(x)
        assert type(deep) is Q5 and deep == x


def test_q5_keeps_only_its_slots():
    x = Q5(1, 0)
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.s = 1


# ---------------------------------------------------------------- profiles


def profiles_oracle(n, slots=10):
    """Compositions of n into ``slots`` parts by recursion on the head."""
    if slots == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in profiles_oracle(n - head, slots - 1):
            yield (head,) + tail


@pytest.mark.parametrize("n", [1, 2, 3])
def test_profiles_enumerate_all_compositions(n):
    seen = list(profiles(n))
    assert len(seen) == math.comb(n + 9, 9)
    assert len(set(seen)) == len(seen)
    assert all(sum(p) == n and min(p) >= 0 for p in seen)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_profiles_are_in_lexicographic_order(n):
    assert list(profiles(n)) == list(profiles_oracle(n))


def test_reverse_profile_is_an_involution():
    for p in profiles(2):
        assert reverse_profile(reverse_profile(p)) == p
    assert reverse_profile(identity_profile(3)) == identity_profile(3)
    assert reverse_profile((0, 1, 0, 0, 0, 0, 0, 0, 0, 1)) == (
        0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
    )


def test_profile_cost_of_the_edge_classes():
    # single-position profiles: strand swap costs lam, one flipped bit
    # costs 1+lam, a double flip costs 2(1+lam), digits 3 and 7 are free
    # of cost because no difference produces them
    for lam in (1, 2, 3):
        unit = lambda j: tuple(1 if i == j else 0 for i in range(10))
        assert profile_cost(unit(0), lam) == 0
        assert profile_cost(unit(1), lam) == 1 + lam
        assert profile_cost(unit(2), lam) == lam
        assert profile_cost(unit(4), lam) == 1 + lam
        assert profile_cost(unit(5), lam) == 2 * (1 + lam)
        assert profile_cost(unit(6), lam) == 1 + lam
        assert profile_cost(unit(8), lam) == lam
        assert profile_cost(unit(9), lam) == 1 + lam


# ------------------------------------------------- coefficient extraction


@cache
def words_by_profile(n):
    """The 10^n words of Z_10^n grouped by their digit profile."""
    words = [()]
    for _ in range(n):
        words = [w + (digit,) for w in words for digit in range(10)]
    out = {}
    for y in words:
        p = tuple(sum(1 for v in y if v == digit) for digit in range(10))
        out.setdefault(p, []).append(y)
    return out


def character_sum_oracle(n, m):
    """Direct evaluation of the column: fix a word with digit profile m,
    sum chi against every word of Z_10^n, grouped by the profile of the
    second word, counting the terms that equal each zeta^k."""
    x = []
    for digit, count in enumerate(m):
        x.extend([digit] * count)
    out = {}
    for p, ys in words_by_profile(n).items():
        counts = [0] * 10
        for y in ys:
            counts[sum(chi(xi, yi) for xi, yi in zip(x, y)) % 10] += 1
        out[p] = tuple(counts)
    return out


def multinomial(p):
    return math.factorial(sum(p)) // math.prod(map(math.factorial, p))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_coefficient_column_matches_character_sums(n):
    for m in profiles(n):
        assert coefficient_column(m) == character_sum_oracle(n, m), m


@pytest.mark.parametrize("n", [5, 6])
def test_column_counts_fill_their_slots(n):
    # Every term at p is one of multinomial(p) products, so a column's
    # counts at p sum to it; the identity column puts them all on zeta^0.
    # At n = 6 that reaches 6! = 720, past one byte: a count slot narrower
    # than the one derived from n would carry into its neighbour.
    ident = identity_profile(n)
    assert coefficient_column(ident) == {
        p: (multinomial(p),) + (0,) * 9 for p in profiles(n)
    }
    spread = (n - 5, 1, 1, 0, 1, 1, 0, 0, 1, 0)
    column = coefficient_column(spread)
    assert len(column) == math.comb(n + 9, 9)
    for p, counts in column.items():
        assert min(counts) >= 0 and sum(counts) == multinomial(p), p


def expand_column_oracle(m):
    """The column expanded one factor at a time: each factor's digit i
    rotates the 10-tuple of counts by chi(i, j)."""
    state = {(0,) * 10: ONE}
    for j, power in enumerate(m):
        for _ in range(power):
            nxt = {}
            for p, v in state.items():
                for i in range(10):
                    s = chi(i, j)
                    w = v[10 - s:] + v[:10 - s]  # w[k] = v[k - s]
                    key = p[:i] + (p[i] + 1,) + p[i + 1:]
                    nxt[key] = plus(nxt[key], w) if key in nxt else w
            state = nxt
    return state


def test_expand_column_oracle_matches_character_sums():
    for m in profiles(2):
        assert expand_column_oracle(m) == character_sum_oracle(2, m), m


def test_unit_profile_columns_are_single_characters():
    for j in range(10):
        m = tuple(1 if i == j else 0 for i in range(10))
        column = coefficient_column(m)
        for i in range(10):
            p = tuple(1 if k == i else 0 for k in range(10))
            assert column[p] == unit(chi(i, j))


def test_all_z0_coefficient_is_always_one():
    for n in (1, 2, 3):
        for m in list(profiles(n))[:: max(1, math.comb(n + 9, 9) // 8)]:
            column = coefficient_column(m)
            assert column[identity_profile(n)] == ONE


def test_column_mass_vanishes_except_at_identity():
    # Setting every z to 1 sums the coefficients; each factor is a full
    # character sum, zero unless the difference digit is 0.
    for n in (1, 2):
        for m in profiles(n):
            column = coefficient_column(m)
            total = tuple(map(sum, zip(*column.values())))
            if m == identity_profile(n):
                assert total == (10**n,) + (0,) * 9
            else:
                assert abs(value(total)) < 1e-9, m


def test_paired_columns_are_real():
    # The constraint assembly relies on c(p, rev m) being the complex
    # conjugate of c(p, m), so the paired sum must be a real element.
    for m in profiles(2):
        column = coefficient_column(m)
        rev = reverse_profile(m)
        rev_column = coefficient_column(rev)
        for p, c in column.items():
            assert rev_column[p] == conj(c)
            assert column_entry(plus(c, conj(c)), 1) == column_entry(c, 2)
            if rev == m:
                assert column_entry(c, 1) * 2 == column_entry(c, 2)


# ---------------------------------------- assembly against the old algorithm


@cache
def oracle_column(m):
    return expand_column_oracle(m)


def oracle_rows(n, d, lam):
    """The LP as assembled before the reverse-pair half loop: one column
    per surviving reverse pair, then one row per profile of all of them,
    keeping the first profile of each distinct row.  Returns the
    survivors and {row: first profile}."""
    ident = identity_profile(n)
    survivors, seen = [], set()
    for m in profiles_oracle(n):
        if m == ident or m in seen or m[3] or m[7] or profile_cost(m, lam) < d:
            continue
        rev = reverse_profile(m)
        seen |= {m, rev}
        survivors.append((m, 1 if rev == m else 2))
    rows = {}
    for p in profiles_oracle(n):
        entries = [column_entry(oracle_column(m).get(p, (0,) * 10), orbit)
                   for m, orbit in survivors]
        if any(entries):
            # the transform's nonnegativity, stated as -transform <= multinomial
            rows.setdefault(tuple(-e for e in entries) + (Q5.lift(multinomial(p)),), p)
    return survivors, rows


def oracle_lp(n, d, lam):
    """The oracle's LinearProgram; with no surviving column it has no
    variables and no rows."""
    survivors, rows = oracle_rows(n, d, lam)
    lp = LinearProgram(objective=[Q5.lift(orbit) for _, orbit in survivors])
    for row in rows:
        lp.add(row[:-1], "<=", row[-1])
    return lp


class _Captured(Exception):
    pass


def assembled_lp(monkeypatch, n, d, lam):
    """The LinearProgram delsarte_bound hands to its solver: every cell,
    one without surviving columns too, is solved."""
    got = []

    def capture(lp, **kwargs):
        got.append(lp)
        raise _Captured

    monkeypatch.setattr(delsarte, "solve_lp", capture)
    with pytest.raises(_Captured):
        delsarte_bound(n, d, lam, budget_secs=math.inf)
    return got[0]


ORACLE_CELLS = [
    (n, lam, d)
    for n in (1, 2, 3)
    for lam in (1, 2, 3)
    for d in range(1, 2 * (1 + lam) * n + 2)
] + [(4, 1, d) for d in range(13, 18)]


@pytest.mark.parametrize("n,lam", sorted({(n, lam) for n, lam, _ in ORACLE_CELLS}))
def test_assembly_matches_the_one_factor_oracle(monkeypatch, n, lam):
    for cell_n, cell_lam, d in ORACLE_CELLS:
        if (cell_n, cell_lam) == (n, lam):
            assert assembled_lp(monkeypatch, n, d, lam) == oracle_lp(n, d, lam), d


def test_pulled_rows_match_full_columns_past_one_byte_slots():
    # The assembly pulls each column's last factor into the rows, on count
    # slots sized by n.  At n = 6 a slot needs two bytes (5! < 256 < 6!),
    # and the all-fives column reaches 6! = 720 at (1, 1, 1, 1, 1, 1, 0, ...).
    n, d, lam = 6, 21, 1
    survivors, rows = delsarte._assemble(n, d, lam, Budget())
    assert survivors[-1] == ((0,) * 5 + (6,) + (0,) * 4, 1)
    columns = [(coefficient_column(m), orbit) for m, orbit in survivors]
    assert max(map(max, columns[-1][0].values())) == 720
    want = {}
    for p in profiles(n):
        if reverse_profile(p) < p:
            continue
        entries = tuple(-column_entry(col[p], orbit) for col, orbit in columns)
        if any(entries):
            want.setdefault(entries + (Q5.lift(multinomial(p)),), p)
    assert list(rows.items()) == list(want.items())


def test_assembly_expands_each_head_through_the_public_column(monkeypatch):
    # Profilers and the benchmark's tracer wrap delsarte.coefficient_column,
    # so the assembly calls it by that name, once per surviving column.
    calls = []
    original = delsarte.coefficient_column

    def counting(m, budget=None, **kwargs):
        calls.append(kwargs)
        return original(m, budget, **kwargs)

    monkeypatch.setattr(delsarte, "coefficient_column", counting)
    survivors, _ = delsarte._assemble(3, 9, 1, Budget())
    assert survivors and calls == [{"packed_for": 3}] * len(survivors)
    # the packed form holds the same counts, in slots of any wider layout
    m = (0, 1, 2, 0, 0, 1, 0, 0, 0, 0)
    size, _, _, fmt = delsarte._slot_layout(6)
    packed = original(m, packed_for=6)
    assert {
        tuple(p.to_bytes(10, "little")): unpack(fmt, v.to_bytes(10 * size, "little"))
        for p, v in packed.items()
    } == coefficient_column(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reverse_profile_rows_are_equal(n):
    # The assembly visits only the first profile of each reverse pair:
    # entry(p, m) is the real part of a coefficient whose conjugate is
    # the coefficient at reverse_profile(p), and the multinomial is
    # symmetric in the digits.
    for m in profiles(n):
        rev_m = reverse_profile(m)
        if rev_m < m:
            continue
        orbit = 1 if rev_m == m else 2
        column = coefficient_column(m)
        for p in profiles(n):
            rev = reverse_profile(p)
            assert column_entry(column[p], orbit) == column_entry(column[rev], orbit)
            assert multinomial(p) == multinomial(rev)


# ------------------------------------------------------------- the LP bound


def test_single_position_cells():
    rep = delsarte_bound(1, 3, 1)
    assert rep.status is LPStatus.OPTIMAL
    assert rep.exact == 2 and rep.floored == 2
    rep = delsarte_bound(1, 4, 1)
    assert rep.exact == 2
    # below the tabulated range the optimum exists but is irrational
    rep = delsarte_bound(1, 1, 1)
    assert rep.exact == 5 and rep.floored == 5
    rep = delsarte_bound(1, 2, 1)
    assert rep.exact is None
    assert rep.sqrt5_part == 2
    assert rep.floored == 4


def test_two_position_cells():
    for d, floor_want in ((5, 2), (6, 2), (7, 2), (8, 2)):
        rep = delsarte_bound(2, d, 1)
        assert rep.status is LPStatus.OPTIMAL
        assert rep.floored == floor_want, d
    rep = delsarte_bound(2, 5, 1)
    assert rep.exact is None and rep.sqrt5_part == Fraction(3, 31)
    rep = delsarte_bound(2, 7, 1)
    assert rep.exact == 2


def test_low_distance_cells_stay_valid_bounds():
    # The reference table prints no value below d = 2n+1.  The exact LP
    # still has a finite optimum there, and it must dominate the true
    # maximum code sizes (4, 3, 2 known exactly at n = 1; 10 and 5 at
    # n = 2, d = 2 and 3).
    assert delsarte_bound(1, 1, 1).floored >= 4
    assert delsarte_bound(1, 2, 1).floored >= 3
    assert delsarte_bound(2, 2, 1).floored >= 10
    assert delsarte_bound(2, 3, 1).floored >= 5
    assert delsarte_bound(2, 3, 1).floored == 8  # frozen exact value


def test_three_position_spot_cell():
    # One n = 3 cell in the module suite; the remaining tabulated row is
    # exercised by the acceptance suite where the 10-minute budget lives.
    rep = delsarte_bound(3, 9, 1)
    assert rep.status is LPStatus.OPTIMAL
    assert rep.floored == 2


def test_huge_distance_kills_every_profile():
    # No column survives: the empty program is solved and certified like
    # any other, with value 0 and no multipliers.
    rep = delsarte_bound(1, 100, 1)
    assert rep.status is LPStatus.OPTIMAL
    assert rep.exact == 1 and rep.floored == 1
    assert rep.sqrt5_part == 0 and rep.dual == ()
    # with no column there is no assembly check, but the solve still checks
    with pytest.raises(BudgetExceeded, match="during solve"):
        delsarte_bound(1, 100, 1, budget_secs=-1)


@pytest.mark.parametrize("n,d,lam", [(1, 2, 1), (2, 3, 1), (2, 5, 1), (2, 2, 2), (3, 9, 1)])
def test_dual_multipliers_certify_the_value(n, d, lam):
    # Rebuild every surviving column from the public pieces and check the
    # reported multipliers from scratch: each column's transform weighted
    # by them prices the column at or above its objective coefficient,
    # and 1 + sum u * multinomial gives the reported value.
    rep = delsarte_bound(n, d, lam)
    assert rep.status is LPStatus.OPTIMAL and rep.dual
    assert all(u > 0 for _, u in rep.dual)
    survivors = {}
    for m in profiles(n):
        if m != identity_profile(n) and m[3] == m[7] == 0 and profile_cost(m, lam) >= d:
            survivors.setdefault(min(m, reverse_profile(m)), m)
    for m in survivors.values():
        orbit = 1 if reverse_profile(m) == m else 2
        column = coefficient_column(m)
        priced = Q5.lift(orbit)
        for p, u in rep.dual:
            priced = priced + u * column_entry(column.get(p, (0,) * 10), orbit)
        assert priced <= 0, m
    # each multiplier names the first profile that gives its row
    firsts = set(oracle_rows(n, d, lam)[1].values())
    assert all(p in firsts for p, _ in rep.dual)
    total = Q5.lift(1)
    for p, u in rep.dual:
        total = total + u * (math.factorial(n) // math.prod(map(math.factorial, p)))
    assert total.b == rep.sqrt5_part and math.floor(total) == rep.floored
    assert rep.exact is None or total == Q5.lift(rep.exact)


def test_unbounded_solver_status_raises(monkeypatch, capsys):
    from aldkit import cli
    from aldkit.lp import LPResult

    monkeypatch.setattr(delsarte, "solve_lp",
                        lambda lp, **kw: LPResult(LPStatus.UNBOUNDED))
    with pytest.raises(ArithmeticError, match="unexpected LP status"):
        delsarte_bound(2, 3, 1)
    assert cli.main(["bound", "delsarte", "--n", "2", "--d", "3"]) == 1
    assert "internal error" in capsys.readouterr().err


def test_argument_validation():
    for bad in ((0, 3, 1), (1, 0, 1), (1, 3, 0), (1, 3, True), (1, 3, 1.5),
                (1, 2.5, 1), (True, 3, 1), (1.5, 3, 1), (1, True, 1), (21, 3, 1)):
        with pytest.raises(ValueError):
            delsarte_bound(*bad)


def test_large_n_requires_a_budget():
    with pytest.raises(BudgetExceeded, match="budget_secs"):
        delsarte_bound(4, 9, 1)


def test_exhausted_budget_refuses():
    with pytest.raises(BudgetExceeded):
        delsarte_bound(4, 9, 1, budget_secs=-1)


def test_env_budget_applies_at_every_n(monkeypatch):
    # the budget argument applies below n = 4 too, where none is required;
    # a leftover ALDKIT_BUDGET_SECS is read at no n
    monkeypatch.setenv("ALDKIT_BUDGET_SECS", "-1")
    assert delsarte_bound(3, 9, 1).floored == 2
    with pytest.raises(BudgetExceeded):
        delsarte_bound(3, 9, 1, budget_secs=-1)
    monkeypatch.setenv("ALDKIT_BUDGET_SECS", "inf")
    with pytest.raises(BudgetExceeded, match="budget_secs"):
        delsarte_bound(4, 9, 1)


def test_nan_budget_is_rejected():
    # NaN never expires, so it would lift the mandatory n >= 4 budget;
    # True and "5" are not numbers of seconds either
    with pytest.raises(ValueError):
        delsarte_bound(4, 16, 1, budget_secs=float("nan"))
    for bad in (True, "5"):
        with pytest.raises(ValueError, match="budget"):
            delsarte_bound(2, 3, 1, budget_secs=bad)


def test_infinite_budget_means_no_limit():
    assert delsarte_bound(4, 16, 1, budget_secs=math.inf).floored == 2


# SHA-256 over every report at the 22 table-3 cells the character-lp
# benchmark times (lambda = 1, n = 4 with an unlimited budget) and at
# every n <= 3 cell with lambda = 2 up to d = 2(1 + lambda)n + 1.  It was
# computed with the assembly that expanded every column through its last
# factor and the Q5 comparisons that built each difference, so any change
# to a value, a floor or a dual multiplier shows.
REPORT_CELLS = (
    [(1, d, 1) for d in range(1, 5)]
    + [(2, d, 1) for d in range(1, 9)]
    + [(3, d, 1) for d in range(7, 13)]
    + [(4, d, 1) for d in range(13, 17)]
    + [(n, d, 2) for n in (1, 2, 3) for d in range(1, 6 * n + 2)]
)
REPORT_SHA256 = "84f953a3306ae78c056d1f507b65d80e37e784e66661763af72918c8f12fefe9"


def report_digest(fresh_tables):
    """SHA-256 over the reports at REPORT_CELLS; with ``fresh_tables``
    each cell builds its own per-length profile table."""
    digest = hashlib.sha256()
    for n, d, lam in REPORT_CELLS:
        if fresh_tables:
            delsarte._profile_layout.cache_clear()
        rep = delsarte_bound(n, d, lam, budget_secs=math.inf if n >= 4 else None)
        dual = tuple((p, u.p, u.q, u.r) for p, u in rep.dual)
        digest.update(repr((n, d, lam, rep.exact, rep.sqrt5_part, rep.floored, dual)).encode())
    return digest.hexdigest()


def test_reports_are_pinned():
    # a table shared by every cell of a length answers as one built per cell
    assert report_digest(fresh_tables=True) == REPORT_SHA256
    assert report_digest(fresh_tables=False) == REPORT_SHA256


# ------------------------------------------------- the per-length table


def packed(p):
    return sum(c << 8 * i for i, c in enumerate(p))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_table_matches_its_definition(n):
    want = []
    for p in profiles_oracle(n):
        rev = reverse_profile(p)
        if rev < p:
            continue
        preds = tuple(
            (i, packed(p[:i] + (p[i] - 1,) + p[i + 1:])) for i in range(10) if p[i]
        )
        want.append((p, 1 if rev == p else 2, preds, Q5.lift(multinomial(p))))
    assert delsarte._profile_layout(n) == tuple(want)


def test_profile_table_is_built_once_per_length(monkeypatch):
    builds = []
    original = delsarte.profiles

    def counting(n):
        builds.append(n)
        return original(n)

    monkeypatch.setattr(delsarte, "profiles", counting)
    delsarte._profile_layout.cache_clear()
    for d, lam in ((7, 1), (9, 1), (12, 1), (8, 2), (13, 2), (19, 2)):
        delsarte_bound(3, d, lam)
    assert builds == [3]


def test_long_words_are_refused_before_any_table():
    before = delsarte._profile_layout.cache_info().currsize
    for budget_secs in (None, math.inf):
        with pytest.raises(ValueError, match="n <= 20"):
            delsarte_bound(21, 3, 1, budget_secs=budget_secs)
    with pytest.raises(ValueError, match="n <= 20"):
        delsarte._assemble(21, 3, 1, Budget())
    assert delsarte._profile_layout.cache_info().currsize == before


def test_long_words_are_refused_before_any_factorial(monkeypatch):
    # n! at n = 10^9 would not finish; the length is compared with 20 first
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or factorial(n))
    with pytest.raises(ValueError, match="n <= 20"):
        delsarte_bound(10**9, 3, 1)
    assert calls == []
    delsarte._slot_layout(20)
    assert calls == [20]
