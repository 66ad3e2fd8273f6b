import hashlib
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from aldkit import hyperbound, lp as lp_module
from aldkit.cli import _load_reference
from aldkit.delsarte import Q5, delsarte_bound
from aldkit.hyperbound import lp_hypergraph_bound
from aldkit.lp import (
    LinearProgram,
    LPStatus,
    solve_linear_system,
    solve_lp,
)


def dot(a, b):
    return sum(Fraction(u) * v for u, v in zip(a, b))


def assert_certified(lp, res):
    """Check an OPTIMAL result from scratch: x is feasible, y >= 0
    prices every column at least at its cost, and b.y == c.x."""
    assert len(res.x) == len(lp.objective) and len(res.y) == len(lp.rows)
    assert all(v >= 0 for v in res.x)
    assert dot(lp.objective, res.x) == res.value
    for (coeffs, relation, rhs), y in zip(lp.rows, res.y):
        assert relation == "<=" and dot(coeffs, res.x) <= rhs and y >= 0
    for j, c in enumerate(lp.objective):
        assert dot([row[0][j] for row in lp.rows], res.y) >= c
    assert dot([rhs for _, _, rhs in lp.rows], res.y) == res.value


def _no_proposals(*args):
    """Stands in for ``lp._proposals``: nothing to certify, so every
    answer comes from the exact simplex."""
    return iter(())


class NoFloat:
    """The rationals as a field scalar that ``float()`` refuses."""

    def __init__(self, v):
        self.v = v.v if isinstance(v, NoFloat) else Fraction(v)

    def __add__(self, o):
        return NoFloat(self.v + NoFloat(o).v)

    def __sub__(self, o):
        return NoFloat(self.v - NoFloat(o).v)

    def __mul__(self, o):
        return NoFloat(self.v * NoFloat(o).v)

    def __truediv__(self, o):
        return NoFloat(self.v / NoFloat(o).v)

    def __neg__(self):
        return NoFloat(-self.v)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, o):
        return self.v == NoFloat(o).v

    def __lt__(self, o):
        return self.v < NoFloat(o).v

    def __le__(self, o):
        return self.v <= NoFloat(o).v

    def __gt__(self, o):
        return self.v > NoFloat(o).v

    def __ge__(self, o):
        return self.v >= NoFloat(o).v


def test_minimize_simple():
    # min x + y  st  x + 2y >= 4,  3x + y >= 6  is solved as its dual,
    # max 4u + 6v  st  u + 3v <= 1,  2u + v <= 1: the same value 14/5,
    # and the min problem's point (8/5, 6/5) is the dual's multipliers
    lp = LinearProgram(objective=[4, 6])
    lp.add([1, 3], "<=", 1)
    lp.add([2, 1], "<=", 1)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == Fraction(14, 5)
    assert res.x == [Fraction(2, 5), Fraction(1, 5)]
    assert res.y == [Fraction(8, 5), Fraction(6, 5)]


def test_maximize_simple():
    # max 3x + 5y  st  x <= 4, 2y <= 12, 3x + 2y <= 18  -> value 36 at (2, 6)
    lp = LinearProgram(objective=[3, 5])
    lp.add([1, 0], "<=", 4)
    lp.add([0, 2], "<=", 12)
    lp.add([3, 2], "<=", 18)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 36
    assert res.x == [Fraction(2), Fraction(6)]


def test_equality_constraints():
    # An equation is refused, and so is its ">=" half: x = 0 must stay
    # feasible, so a program states only "<=" rows.
    lp = LinearProgram(objective=[2, 3])
    with pytest.raises(ValueError, match="unsupported relation '='"):
        lp.add([1, 1], "=", 10)
    with pytest.raises(ValueError, match="unsupported relation '>='"):
        lp.add([1, 1], ">=", 10)
    assert lp.rows == []
    lp.add([1, 1], "<=", 10)
    assert lp.rows == [([1, 1], "<=", 10)]


def test_infeasible():
    # x >= 3, x <= 2 cannot be stated: the ">=" row is refused, so every
    # program solve_lp sees has x = 0 feasible and is OPTIMAL or UNBOUNDED.
    lp = LinearProgram(objective=[1])
    with pytest.raises(ValueError, match="unsupported relation"):
        lp.add([1], ">=", 3)
    lp.add([1], "<=", 2)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL and res.x == [2]
    assert [status.name for status in LPStatus] == ["OPTIMAL", "UNBOUNDED"]


def test_unbounded():
    lp = LinearProgram(objective=[1, 1])
    lp.add([1, -1], "<=", 1)
    assert solve_lp(lp).status is LPStatus.UNBOUNDED


def test_unbounded_without_constraints():
    lp = LinearProgram(objective=[1, 0])
    assert solve_lp(lp).status is LPStatus.UNBOUNDED
    lp2 = LinearProgram(objective=[-1, -2])
    res = solve_lp(lp2)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 0


def test_degenerate_cycling_guard():
    # A classic cycling example for naive pivot rules; Bland's rule must
    # terminate on it.
    lp = LinearProgram(objective=[Fraction(3, 4), -150, Fraction(1, 50), -6])
    lp.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0)
    lp.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0)
    lp.add([0, 0, 1, 0], "<=", 1)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == Fraction(1, 20)


def test_negative_rhs_normalisation():
    # A negative right-hand side is refused in every field, and so is the
    # row negated, a ">=" row: -x <= rhs cannot be stated.  x <= -rhs can.
    for rhs, convert in ((-1, Fraction), (Fraction(-1, 3), Fraction), (Q5(1, -1), Q5.lift)):
        lp = LinearProgram(objective=[1])
        with pytest.raises(ValueError, match="negative right-hand side"):
            lp.add([-1], "<=", rhs)
        with pytest.raises(ValueError, match="unsupported relation"):
            lp.add([1], ">=", -rhs)
        assert lp.rows == []
        lp.add([1], "<=", -rhs)
        res = solve_lp(lp, convert=convert)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == -rhs


def test_rejects_bad_relation_and_shape():
    lp = LinearProgram(objective=[1, 2])
    for relation in ("<", ">=", "=", "==", "=>"):
        with pytest.raises(ValueError, match="unsupported relation"):
            lp.add([1, 0], relation, 1)
    with pytest.raises(ValueError):
        lp.add([1], "<=", 1)
    assert lp.rows == []


def brute_force_max(c, rows, ub):
    """Enumerate candidate vertices of {Ax <= b, 0 <= x <= ub}."""
    n = len(c)
    eqs = [(row, rhs) for row, rhs in rows]
    for i in range(n):
        eqs.append(([1 if j == i else 0 for j in range(n)], ub))
        eqs.append(([1 if j == i else 0 for j in range(n)], 0))
    best = None
    for combo in itertools.combinations(range(len(eqs)), n):
        mat = [eqs[i][0] for i in combo]
        rhs = [eqs[i][1] for i in combo]
        try:
            x = solve_linear_system(mat, rhs)
        except ArithmeticError:
            continue
        if any(v < 0 or v > ub for v in x):
            continue
        if any(
            sum(Fraction(a) * v for a, v in zip(row, x)) > rhs_
            for row, rhs_ in rows
        ):
            continue
        val = sum(Fraction(ci) * v for ci, v in zip(c, x))
        if best is None or val > best:
            best = val
    return best


@given(st.data())
@settings(max_examples=40)
def test_against_vertex_enumeration(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    c = [data.draw(st.integers(-4, 4)) for _ in range(n)]
    rows = []
    for _ in range(m):
        rows.append(
            ([data.draw(st.integers(-3, 3)) for _ in range(n)], data.draw(st.integers(0, 6)))
        )
    ub = 10
    lp = LinearProgram(objective=list(c))
    for coeffs, rhs in rows:
        lp.add(coeffs, "<=", rhs)
    for i in range(n):
        lp.add([1 if j == i else 0 for j in range(n)], "<=", ub)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == brute_force_max(c, rows, ub)
    # y >= 0 prices every column at least at its cost, and b.y == value
    assert all(y >= 0 for y in res.y)
    for j, cj in enumerate(c):
        assert dot([row[0][j] for row in lp.rows], res.y) >= cj
    assert dot([rhs for _, _, rhs in lp.rows], res.y) == res.value


@given(st.data())
@settings(max_examples=60)
def test_mixed_relations_carry_a_dual_certificate(data):
    # Rows drawn with every relation and sign of the right-hand side: the
    # "<=" rows with rhs >= 0 go in, every other row is refused and
    # leaves the program as it was.  With no basis proposed (exact
    # simplex only) the status and value must be the same (the point
    # may differ between optimal vertices).
    n = data.draw(st.integers(1, 3))
    lp = LinearProgram(objective=[data.draw(st.integers(-4, 4)) for _ in range(n)])
    for _ in range(data.draw(st.integers(0, 6))):
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        relation = data.draw(st.sampled_from(["<=", "<=", ">=", "="]))
        rhs = data.draw(st.integers(-2, 6))
        if relation == "<=" and rhs >= 0:
            lp.add(coeffs, relation, rhs)
        else:
            before = list(lp.rows)
            with pytest.raises(ValueError):
                lp.add(coeffs, relation, rhs)
            assert lp.rows == before
    res = solve_lp(lp)
    if res.status is LPStatus.OPTIMAL:
        assert_certified(lp, res)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_proposals", _no_proposals)
        exact = solve_lp(lp)
    assert (exact.status, exact.value) == (res.status, res.value)
    if exact.status is LPStatus.OPTIMAL:
        assert_certified(lp, exact)


def _converted(lp):
    rows = [([Fraction(c) for c in coeffs], rel, Fraction(b)) for coeffs, rel, b in lp.rows]
    return rows, [Fraction(c) for c in lp.objective]


def _both_certificates(lp, basic, tight):
    """The integer and the LU certificate of one proposed basis."""
    args = (*_converted(lp), list(basic), list(tight), Fraction(0), lambda: None)
    return lp_module._certify(*args), lp_module._certify_lu(*args)


@given(st.data())
@settings(max_examples=60)
def test_a_wrong_proposal_never_changes_the_answer(data):
    # Propose every square basis (structural columns x tight rows) in
    # place of the all-tight and float ones: the exact checks must
    # reject each one that is not optimal, so the answer is always the
    # exact simplex's, and the integer certificate must agree with the
    # LU one on each.
    # The data are integers or fractions with denominators 1-6.
    n = data.draw(st.integers(1, 3))
    rational = data.draw(st.booleans())

    def scalar(bound):
        q = data.draw(st.integers(1, 6)) if rational else 1
        return Fraction(data.draw(st.integers(-bound * q, bound * q)), q)

    lp = LinearProgram(objective=[scalar(4) for _ in range(n)])
    for _ in range(data.draw(st.integers(1, 4))):
        lp.add([scalar(3) for _ in range(n)], "<=", abs(scalar(6)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_proposals", _no_proposals)
        want = solve_lp(lp)
        for k in range(min(n, len(lp.rows)) + 1):
            for basic in itertools.combinations(range(n), k):
                for tight in itertools.combinations(range(len(lp.rows)), k):
                    integer, lu = _both_certificates(lp, basic, tight)
                    assert integer == lu
                    proposal = (list(basic), list(tight))
                    m.setattr(lp_module, "_proposals", lambda *args: iter([proposal]))
                    got = solve_lp(lp)
                    assert (got.status, got.value) == (want.status, want.value)
                    if got.status is LPStatus.OPTIMAL:
                        assert_certified(lp, got)


def _program(objective, *rows):
    lp = LinearProgram(objective=objective)
    for row in rows:
        lp.add(*row)
    return lp


@pytest.mark.parametrize(
    "lp, basic, tight, value",
    [
        # empty basis (k = 0): x = 0 is optimal
        (_program([-1, -2], ([1, -1], "<=", 3)), [], [], 0),
        # empty basis, refused: raising x1 pays (a positive reduced cost)
        (_program([1], ([1], "<=", 1)), [], [], None),
        # B = [[0, 1], [1, 0]], determinant -1
        (_program([1, 1], ([0, 1], "<=", 1), ([1, 0], "<=", 2)),
         [0, 1], [0, 1], 3),
        # B = [[1/2, 1/2], [1, 0]]: row 0 scaled by 2, then the
        # elimination ends on the pivot -1
        (_program([3, 2], ([Fraction(1, 2), Fraction(1, 2)], "<=", Fraction(3, 2)),
                  ([1, 0], "<=", 1)),
         [0, 1], [0, 1], 7),
        # singular basis
        (_program([1, 1], ([1, 1], "<=", 2), ([2, 2], "<=", 4)),
         [0, 1], [0, 1], None),
        # x feasible, reduced costs right, c.x == b.y, but y_0 = -1 < 0
        (_program([-1], ([1], "<=", 1), ([1], "<=", 3)), [0], [0], None),
        # x feasible, duals signed right, but x2's reduced cost is positive
        (_program([1, 1], ([1, 0], "<=", 1), ([0, 1], "<=", 1)), [0], [0], None),
        # fractional objective over fractional rows: x = (46/57, 5/38),
        # y = (34/57, 20/57)
        (_program([Fraction(1, 2), Fraction(2, 3)],
                  ([Fraction(1, 4), 1], "<=", Fraction(1, 3)),
                  ([1, Fraction(1, 5)], "<=", Fraction(5, 6))),
         [0, 1], [0, 1], Fraction(28, 57)),
    ],
)
def test_integer_certificate_on_fixed_proposals(lp, basic, tight, value):
    integer, lu = _both_certificates(lp, basic, tight)
    assert integer == lu
    # the same checks on the LU solution in a field that is not Fraction,
    # where nothing is scaled by a determinant
    rows = [([NoFloat(c) for c in coeffs], rel, NoFloat(b)) for coeffs, rel, b in lp.rows]
    other = lp_module._certify_lu(rows, [NoFloat(c) for c in lp.objective],
                                  list(basic), list(tight), NoFloat(0), lambda: None)
    if value is None:
        assert integer is None and other is None
    else:
        assert integer.value == value
        assert_certified(lp, integer)
        assert (other.value.v, [v.v for v in other.x], [v.v for v in other.y]) == (
            integer.value, integer.x, integer.y)


@pytest.mark.parametrize("field", [int, NoFloat])
@pytest.mark.parametrize(
    "objective, rows, xs, ys, value",
    [
        # x = 1, y = 1 on the one tight row: an optimal pair
        ([1], [([1], "<=", 1)], [1], [1], 1),
        # each pair below fails exactly one check, always at basic [0]
        # and tight [0]: x >= 0
        ([-1], [([1], "<=", 1)], [-1], [1], None),
        # a row: x = 1 breaks x <= 0
        ([1], [([1], "<=", 1), ([1], "<=", 0)], [1], [1], None),
        # a dual sign: y = -1 < 0 (its reduced cost and b.y = c.x hold)
        ([-1], [([1], "<=", 1)], [1], [-1], None),
        # a reduced cost: raising x2 pays
        ([1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)], [1], [1], None),
        # c.x == b.y: 1 against 2 (a basis solve cannot give this pair)
        ([1], [([1], "<=", 1)], [1], [2], None),
    ],
    ids=["optimal", "negative-x", "row", "dual-sign", "reduced-cost", "duality-gap"],
)
def test_each_optimality_check_refuses_on_its_own(objective, rows, xs, ys, value, field):
    rows = [([field(c) for c in coeffs], rel, field(b)) for coeffs, rel, b in rows]
    got = lp_module._optimal_value(
        rows, [field(c) for c in objective], [0], [0],
        [field(v) for v in xs], [field(v) for v in ys], field(0),
    )
    assert got == (None if value is None else field(value))


def test_integer_certificate_matches_lu_on_covering_lps(monkeypatch):
    # LU stays the certificate in other fields, so it is the reference:
    # on the packing LP of every covering-bound cell of tables 1, 2, 4
    # and 5, and at lam = 2, 3 for n <= 8, both certify the float
    # simplex's basis alike.
    cells = {(n, d, 2 + extra) for extra in (0, 1) for n in range(1, 9)
             for d in range(2, 2 * (3 + extra) * n + 3)}
    for idx in (1, 2, 4, 5):
        ref = _load_reference(idx)
        for cell in ref.get("cells") or ref["rows"]:
            cells.add((cell["n"], cell.get("d", ref.get("d")), ref["lambda"]))
    accepted = []

    def solve_both_ways(lp):
        proposal = lp_module._float_basis(*_converted(lp), lambda: None)
        integer, lu = _both_certificates(lp, *proposal)
        assert integer == lu
        accepted.append(integer is not None)
        return solve_lp(lp)

    monkeypatch.setattr(hyperbound, "solve_lp", solve_both_ways)
    for cell in sorted(cells):
        lp_hypergraph_bound(*cell)
    assert len(accepted) == len(cells) and all(accepted)


def test_float_step_cap_hands_over_to_the_exact_simplex(monkeypatch):
    # max x_1 + ... + x_12  st  x_i <= 1: every x_i enters once, so the
    # float simplex needs 12 pivots, past the 10 a zero cap leaves it.
    # The redundant row x_1 + ... + x_12 <= 13 makes the program
    # non-square, so no all-tight basis is tried before the simplex; it
    # is never tight, so the optimal dual stays unique.
    lp = LinearProgram(objective=[1] * 12)
    for i in range(12):
        lp.add([int(i == j) for j in range(12)], "<=", 1)
    lp.add([1] * 12, "<=", 13)
    outcomes, exact_runs = [], []
    dantzig, bland = lp_module._dantzig, lp_module._bland
    monkeypatch.setattr(
        lp_module, "_dantzig", lambda *args: outcomes.append(dantzig(*args)) or outcomes[-1]
    )
    monkeypatch.setattr(
        lp_module, "_bland", lambda *args: exact_runs.append(1) or bland(*args)
    )
    want = solve_lp(lp)
    assert outcomes == ["optimal"] and not exact_runs
    monkeypatch.setattr(lp_module, "_FLOAT_CAP_PER_SIZE", 0)
    got = solve_lp(lp)
    assert outcomes == ["optimal", "stalled"] and exact_runs
    assert got == want
    assert got.value == 12 and got.x == [1] * 12
    assert_certified(lp, got)


def test_rounding_trap_goes_to_the_exact_simplex(monkeypatch):
    # 1 + 2^-60 rounds to 1.0, so the float simplex cannot tell the
    # columns apart and proposes x1; the exact reduced cost of x2 is
    # 2^-60 > 0, the check fails, and the exact simplex answers.
    eps = Fraction(1, 2**60)
    lp = LinearProgram(objective=[1, 1 + eps])
    lp.add([1, 1], "<=", 1)
    proposals, exact_runs = [], []
    float_basis, bland = lp_module._float_basis, lp_module._bland
    monkeypatch.setattr(
        lp_module, "_float_basis",
        lambda *args: proposals.append(float_basis(*args)) or proposals[-1],
    )
    monkeypatch.setattr(
        lp_module, "_bland", lambda *args: exact_runs.append(1) or bland(*args)
    )
    res = solve_lp(lp)
    assert proposals == [([0], [0])]
    assert exact_runs
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 1 + eps
    assert res.x == [0, 1]
    assert res.y == [1 + eps]


def test_numbers_beyond_the_float_range_go_to_the_exact_simplex():
    huge = 10**400  # float(huge) raises OverflowError
    lp = LinearProgram(objective=[1, 1])
    lp.add([huge, 1], "<=", huge)
    lp.add([1, huge], "<=", huge)
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.x == [Fraction(huge, huge + 1)] * 2
    assert_certified(lp, res)


def test_a_field_without_float_goes_to_the_exact_simplex():
    with pytest.raises(TypeError):
        float(NoFloat(1))
    for lp in _named_programs():
        expected = solve_lp(lp)
        res = solve_lp(lp, convert=NoFloat)
        assert res.status is expected.status
        if res.status is LPStatus.OPTIMAL:
            assert res.value.v == expected.value
            assert [v.v for v in res.x] == expected.x
            assert [v.v for v in res.y] == expected.y


def _named_programs():
    # the dual of min x + y st x + 2y >= 4, 3x + y >= 6 (value 14/5)
    lp1 = _program([4, 6], ([1, 3], "<=", 1), ([2, 1], "<=", 1))
    lp2 = _program([3, 5], ([1, 0], "<=", 4), ([0, 2], "<=", 12), ([3, 2], "<=", 18))
    # a zero right-hand side: x = 0 is a degenerate vertex (value 4)
    lp3 = _program([1, 1], ([1, -1], "<=", 0), ([1, 2], "<=", 6))
    lp4 = _program([1, 1], ([1, -1], "<=", 1))
    return [lp1, lp2, lp3, lp4]


def test_answers_do_not_depend_on_the_float_oracle(monkeypatch):
    def answers():
        return (
            [solve_lp(lp) for lp in _named_programs()],
            lp_hypergraph_bound(6, 5, 1),
            delsarte_bound(2, 5, 1),
        )

    with_oracle = answers()
    monkeypatch.setattr(lp_module, "_proposals", _no_proposals)
    assert answers() == with_oracle
    statuses = [r.status for r in with_oracle[0]]
    assert statuses == [LPStatus.OPTIMAL] * 3 + [LPStatus.UNBOUNDED]


def test_spent_budget_interrupts_float_phase_and_certificate(monkeypatch):
    lp = _named_programs()[1]
    certificates = []  # one entry per _certify call, True once it returns
    certify = lp_module._certify

    def traced_certify(*args):
        certificates.append(False)
        result = certify(*args)
        certificates[-1] = True
        return result

    monkeypatch.setattr(lp_module, "_certify", traced_certify)
    phases = []
    res = solve_lp(lp, on_step=lambda: phases.append(len(certificates)))
    assert res.status is LPStatus.OPTIMAL and certificates == [True]
    # steps fire in the float phase (before any certificate) and inside it
    assert phases.count(0) >= 2 and phases.count(1) >= 2

    class Spent(Exception):
        pass

    def spend(when):
        def on_step():
            if when():
                raise Spent
        return on_step

    certificates.clear()
    with pytest.raises(Spent):
        solve_lp(lp, on_step=spend(lambda: True))
    assert certificates == []  # stopped in the float phase
    with pytest.raises(Spent):
        solve_lp(lp, on_step=spend(lambda: certificates == [False]))
    assert certificates == [False]  # stopped inside the certificate


def test_solve_linear_system_exact():
    x = solve_linear_system([[2, 1], [1, 3]], [5, 10])
    assert x == [Fraction(1), Fraction(3)]
    with pytest.raises(ArithmeticError):
        solve_linear_system([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ValueError):
        solve_linear_system([[1, 2]], [1])


@given(st.data())
@settings(max_examples=40)
def test_linear_system_random_roundtrip(data):
    n = data.draw(st.integers(1, 4))
    mat = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    b = [data.draw(st.integers(-5, 5)) for _ in range(n)]
    try:
        x = solve_linear_system(mat, b)
    except ArithmeticError:
        return
    for row, rhs in zip(mat, b):
        assert sum(Fraction(a) * v for a, v in zip(row, x)) == rhs


def _fraction_solve(matrix, rhs):
    """(x, det) of B.x = b by Gaussian elimination in Fraction, or None
    when B is singular."""
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    k = len(a)
    det = Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return None
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            a[r] = [v - f * t for v, t in zip(a[r], a[c])]
    x = [Fraction(0)] * k
    for i in reversed(range(k)):
        x[i] = (a[i][k] - sum(a[i][j] * x[j] for j in range(i + 1, k))) / a[i][i]
    return x, det


def _check_bareiss(matrix, rhs):
    steps = []
    got = lp_module._bareiss_solve(
        [list(row) + [b] for row, b in zip(matrix, rhs)], lambda: steps.append(1)
    )
    want = _fraction_solve(matrix, rhs)
    if want is None:
        assert got is None
        assert len(steps) <= len(matrix)
        return
    x, det = want
    assert got is not None
    numer, d = got
    assert all(type(v) is int for v in numer) and type(d) is int
    assert d == abs(det)
    assert [Fraction(v, d) for v in numer] == x
    assert len(steps) == len(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        # upper triangular: row r sits untouched (zero in every pivot
        # column before r) for r steps, then becomes the pivot row
        [[2, 1, 3, 1], [0, 3, 1, 2], [0, 0, 5, 1], [0, 0, 0, 7]],
        # tridiagonal: row r waits r - 1 steps, then one update catches
        # it up over all of them at once
        [[2, 1, 0, 0, 0], [1, 3, 1, 0, 0], [0, 1, 4, 1, 0], [0, 0, 1, 5, 1], [0, 0, 0, 1, 6]],
        # rows swap first; the last row waits, is updated at step 2,
        # waits again at step 3, then pivots
        [[0, 2, 1, 0, 0], [3, 1, 0, 2, 1], [0, 0, 2, 0, 1], [0, 0, 0, 5, 1], [0, 0, 4, 0, 3]],
        # at step 1 the last row, which waited, swaps with row 1, which
        # step 0 updated: each row keeps its own scale
        [[3, 0, 2, 1], [1, 0, 2, 0], [2, 0, 1, -1], [0, 2, 0, 1]],
        # singular at the last column, after rows that waited
        [[1, 2, 0], [0, 1, 3], [0, 2, 6]],
    ],
)
def test_bareiss_rows_catch_up_after_waiting(matrix):
    _check_bareiss(matrix, list(range(1, len(matrix) + 1)))


@given(st.data())
def test_bareiss_matches_fraction_elimination(data):
    # Sparse, banded, triangular and singular integer systems up to
    # 8 x 8, rows optionally shuffled so that pivots swap.
    k = data.draw(st.integers(1, 8))
    shape = data.draw(st.sampled_from(["sparse", "banded", "upper", "lower", "singular"]))
    width = data.draw(st.integers(0, 2))
    entry = st.integers(-4, 4)  # small, so that entries often cancel

    def cell(i, j):
        if shape == "sparse" and not data.draw(st.integers(0, 3)):
            return data.draw(entry)
        if shape == "banded" and abs(i - j) <= width:
            return data.draw(entry)
        if shape in ("upper", "singular") and j >= i or shape == "lower" and j <= i:
            return data.draw(entry)
        return 0

    matrix = [[cell(i, j) for j in range(k)] for i in range(k)]
    if shape == "singular" and k > 1:
        # one row becomes a combination of two others
        i, j, l = data.draw(st.permutations(range(k)))[:3] if k > 2 else (0, 1, 1)
        u, v = data.draw(entry), data.draw(entry)
        matrix[i] = [u * a + v * b for a, b in zip(matrix[j], matrix[l])]
    matrix = [matrix[i] for i in data.draw(st.permutations(range(k)))]
    rhs = [data.draw(entry) for _ in range(k)]
    _check_bareiss(matrix, rhs)


def _covering_program(n, d, lam):
    """The packing LP that ``lp_hypergraph_bound(n, d, lam)`` solves."""
    programs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hyperbound, "solve_lp", lambda lp: programs.append(lp) or solve_lp(lp))
        lp_hypergraph_bound(n, d, lam)
    return programs[0]


def test_all_int_programs_stay_int_until_the_result(monkeypatch):
    # An all-int program reaches the all-tight check and the float
    # simplex with its ints as they are; the exact simplex still runs in
    # Fraction, and every number of the result is a Fraction, whichever
    # route it took.
    seen = []
    float_basis, certify, bland = lp_module._float_basis, lp_module._certify, lp_module._bland

    def traced(inner):
        def handed(rows, obj, *args):
            seen.extend(c for coeffs, _, b in rows for c in (*coeffs, b))
            seen.extend(obj)
            return inner(rows, obj, *args)
        return handed

    def traced_bland(tab, *args):
        outcome = bland(tab, *args)
        assert not any(type(v) is float for row in tab for v in row)
        return outcome

    monkeypatch.setattr(lp_module, "_float_basis", traced(float_basis))
    monkeypatch.setattr(lp_module, "_certify", traced(certify))
    monkeypatch.setattr(lp_module, "_bland", traced_bland)
    programs = _named_programs()[:3] + [_covering_program(5, 5, 1)]
    for lp in programs:
        assert all(type(c) is int for coeffs, _, b in lp.rows for c in (*coeffs, b))
        seen.clear()
        proposed = solve_lp(lp)
        assert seen and all(type(v) is int for v in seen)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lp_module, "_proposals", _no_proposals)
            exact = solve_lp(lp)
        for res in (proposed, exact):
            assert res.status is LPStatus.OPTIMAL
            assert type(res.value) is Fraction
            assert all(type(v) is Fraction for v in (*res.x, *res.y))
            assert_certified(lp, res)
        assert exact == proposed


# SHA-256 over the covering LP's value, weights and dual at lam 1-3,
# n <= 8 and every d, and over weights1_bound(n, 2) for n = 2..15.  The
# covering dual is u_i = 2^n C(n, i) t_i, t the packing LP's point.
COVERING_DIGEST = "2f300e8595ceb1a0d6ba6b0f72f332d8cd338e725fbd604600c8bb097ea64d8c"


def test_covering_lp_answers_are_pinned(monkeypatch):
    duals = []

    def traced(lp):
        res = solve_lp(lp)
        n = len(lp.objective) - 1
        duals.append([(comb(n, i) << n) * t for i, t in enumerate(res.x)])
        return res

    monkeypatch.setattr(hyperbound, "solve_lp", traced)
    lines = []
    for lam in (1, 2, 3):
        for n in range(1, 9):
            for d in range(2, 2 * (1 + lam) * n + 3):
                rep = lp_hypergraph_bound(n, d, lam)
                lines.append(f"lp {n} {d} {lam} {rep.exact} {rep.weights} {tuple(duals.pop())}")
    for n in range(2, 16):
        rep = hyperbound.weights1_bound(n, 2)
        lines.append(f"weights1 {n} {rep.exact} {rep.weights}")
    assert len(lines) == 686
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COVERING_DIGEST


# lp_hypergraph_bound(n, d, 1).exact at the covering LP's largest cells.
LARGE_COVERING_VALUES = {
    (20, 5): "53134667580329255390046059314228363264/4481920125500929395991592789",
    (20, 11): "18459045545692959670981275677470981380948847997353984/"
              "211033481946105089388706352769591893961805615",
    (30, 5): "469071980414653261347844688124890781538360371350451633450980999168/"
             "71107659753099773695205483596367030545022203141943",
    (30, 11): "126033474635644813268767920729883921747649582835278399122400002265619526707240113970"
              "059514761707520/6099887138567288274457209714114067795741488665650420242455983934227"
              "417170730495850241",
    (40, 5): "136137318981592701497427673582348779971069877598580438437876262475478160676657037312/"
             "31699729870211255563160584176836762230451204043742243347824137",
    (40, 11): "660562241023555203088680224794769166018494723402599357609018945836764110895731171890"
              "58542620092590020285462561779252577201582248150498673062264011513597836394496/"
              "911676802080794385866358300523748165556165999017029473957893836897445366517248053"
              "1958993792914919711095851918011424633501484115365644413511027",
}
# SHA-256 over "n d weights" of the six cells above, one line each.
LARGE_COVERING_WEIGHTS_DIGEST = "b82b18c3fe19362e505357b76a094955bdeeee21752c7118a16ecb5bf27e26d9"


def test_large_covering_lps_are_pinned(monkeypatch):
    # At d = 5 the all-tight basis is optimal; at d = 11 it is not, and
    # the float simplex's basis is certified instead.
    float_runs = []
    float_basis = lp_module._float_basis
    monkeypatch.setattr(
        lp_module, "_float_basis", lambda *args: float_runs.append(1) or float_basis(*args)
    )
    lines = []
    for (n, d), value in LARGE_COVERING_VALUES.items():
        float_runs.clear()
        rep = lp_hypergraph_bound(n, d, 1)
        assert rep.exact == Fraction(value)
        assert len(float_runs) == (d == 11)
        lines.append(f"{n} {d} {rep.weights}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LARGE_COVERING_WEIGHTS_DIGEST


def test_square_programs_try_the_all_tight_basis_first(monkeypatch):
    # lp1 (two rows in two variables) and the (6,5,1) packing LP are
    # optimal with every column basic and every row tight, so the float
    # simplex is never asked.
    programs = [_named_programs()[0], _covering_program(6, 5, 1)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_proposals", _no_proposals)
        exact = [solve_lp(lp) for lp in programs]

    def no_float(*args):
        pytest.fail("the float simplex ran on a program its all-tight basis solves")

    monkeypatch.setattr(lp_module, "_float_basis", no_float)
    for lp, want in zip(programs, exact):
        res = solve_lp(lp)
        assert res.status is LPStatus.OPTIMAL
        assert res.value == want.value
        assert_certified(lp, res)


def test_a_rejected_all_tight_basis_costs_one_elimination(monkeypatch):
    # max x  st  x <= 2, x + y <= 1: with both rows tight, y = -1, so
    # the primal solve rejects the basis before any dual solve runs.
    lp = _program([1, 0], ([1, 0], "<=", 2), ([1, 1], "<=", 1))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_proposals", _no_proposals)
        exact = solve_lp(lp)
    solves, before_float = [], []
    bareiss, float_basis = lp_module._bareiss_solve, lp_module._float_basis
    monkeypatch.setattr(
        lp_module, "_bareiss_solve", lambda *args: solves.append(1) or bareiss(*args)
    )
    monkeypatch.setattr(
        lp_module, "_float_basis",
        lambda *args: before_float.append(len(solves)) or float_basis(*args),
    )
    res = solve_lp(lp)
    assert before_float == [1]
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 1 and res.x == [1, 0]
    assert res == exact
    assert_certified(lp, res)
    # In a field without float() the LU certificate rejects the same
    # basis before its transposed solve: the only one left is the
    # exact simplex basis's.
    transposed = []
    lu_solve_transposed = lp_module._lu_solve_transposed
    monkeypatch.setattr(
        lp_module, "_lu_solve_transposed",
        lambda *args: transposed.append(1) or lu_solve_transposed(*args),
    )
    res = solve_lp(lp, convert=NoFloat)
    assert transposed == [1]
    assert res.value.v == 1 and [v.v for v in res.x] == [1, 0]


def test_the_tableau_has_one_column_per_nonbasic_variable(monkeypatch):
    # The tableau holds one column per nonbasic variable and the
    # right-hand side, the slacks start basic, and a pivot hands the
    # entering variable's column to the leaving one: three variables
    # and five rows give rows 3 + 1 wide through every pivot, float and
    # exact.
    lp = _program(
        [1, 2, 4],
        ([1, 1, 1], "<=", 6), ([1, -1, 0], "<=", 1), ([-1, 1, 0], "<=", 1),
        ([0, 0, 1], "<=", 4), ([0, 1, 1], "<=", 5),
    )
    widths = []
    pivot = lp_module._pivot

    def traced(tab, basis, nonbasic, *args):
        pivot(tab, basis, nonbasic, *args)
        widths.append(({len(row) for row in tab}, len(nonbasic)))

    monkeypatch.setattr(lp_module, "_pivot", traced)
    res = solve_lp(lp)  # not square: the float simplex proposes the basis
    float_pivots = len(widths)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp_module, "_proposals", _no_proposals)
        exact = solve_lp(lp)
    assert 0 < float_pivots < len(widths)
    assert all(width == ({4}, 3) for width in widths)
    for got in (res, exact):
        assert got.status is LPStatus.OPTIMAL
        assert got.value == 19 and got.x == [1, 1, 4]
        assert_certified(lp, got)


# The dense simplex that the condensed tableau replaced, kept as a
# reference and restated for the one row form: every row's slack has a
# column, basic or not, so a row is structural + row count + 1 wide.
def _dense_pivot(tab, basis, row, col):
    piv = tab[row][col]
    top = tab[row] = [v / piv for v in tab[row]]
    support = [j for j, v in enumerate(top) if v]
    for i, r in enumerate(tab):
        f = r[col]
        if i != row and f:
            for j in support:
                r[j] = r[j] - f * top[j]
    basis[row] = col


def _dense_bland(tab, basis, ncols, zero, on_step):
    m = len(tab) - 1
    cost = tab[m]
    while True:
        on_step()
        col = -1
        for j in range(ncols):
            if cost[j] < zero:
                col = j
                break
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
        _dense_pivot(tab, basis, best_row, col)
        cost = tab[m]


def _dense_dantzig(tab, basis, ncols, on_step, cap):
    m = len(tab) - 1
    for _ in range(cap):
        cost = tab[m]
        col = min(range(ncols), key=cost.__getitem__, default=-1)
        if col < 0 or cost[col] >= -lp_module._FLOAT_TOL:
            return "optimal"
        on_step()
        best_row = -1
        best_ratio = float("inf")
        for i in range(m):
            a = tab[i][col]
            if a > lp_module._FLOAT_TOL:
                ratio = max(tab[i][-1], 0.0) / a
                if ratio < best_ratio:
                    best_row, best_ratio = i, ratio
        if best_row < 0:
            return "unbounded"
        _dense_pivot(tab, basis, best_row, col)
    return "stalled"


def _dense_simplex(rows, obj, zero, one, iterate):
    nvars = len(obj)
    ncols = nvars + len(rows)
    tab, basis = [], []
    for i, (coeffs, _, rhs) in enumerate(rows):
        row = [zero] * (ncols + 1)
        row[:nvars] = coeffs
        row[nvars + i] = one
        row[-1] = rhs
        basis.append(nvars + i)
        tab.append(row)
    cost = [zero] * (ncols + 1)
    cost[:nvars] = [-c for c in obj]
    tab.append(cost)
    outcome = iterate(tab, basis, ncols)
    if outcome != "optimal":
        return outcome, None, None
    loose = {b - nvars for b in basis if b >= nvars}
    tight = [i for i in range(len(rows)) if i not in loose]
    return outcome, sorted(b for b in basis if b < nvars), tight


def _both_simplexes(rows, obj, exact, cap=1000):
    """``(answer, pivots)`` of the dense reference and of ``lp._simplex``
    on one program: Bland's rule in ``Fraction``s when ``exact``, else
    Dantzig's in floats, zero up to ``_FLOAT_TOL``, at most ``cap`` pivots."""
    lift = Fraction if exact else float
    rows = [([lift(c) for c in coeffs], rel, lift(b)) for coeffs, rel, b in rows]
    obj = [lift(c) for c in obj]
    zero, one = lift(0), lift(1)
    dense_steps, steps = [], []
    if exact:
        dense_iterate = lambda tab, basis, ncols: _dense_bland(
            tab, basis, ncols, zero, lambda: dense_steps.append(1))
        iterate = lambda tab, basis, nonbasic: lp_module._bland(
            tab, basis, nonbasic, zero, one, lambda: steps.append(1))
    else:
        dense_iterate = lambda tab, basis, ncols: _dense_dantzig(
            tab, basis, ncols, lambda: dense_steps.append(1), cap)
        iterate = lambda tab, basis, nonbasic: lp_module._dantzig(
            tab, basis, nonbasic, lambda: steps.append(1), cap)
    want = _dense_simplex(rows, obj, zero, one, dense_iterate)
    got = lp_module._simplex(rows, obj, zero, iterate)
    return (want, len(dense_steps)), (got, len(steps))


@given(st.data())
@settings(max_examples=200)
def test_condensed_simplex_pivots_as_the_dense_one(data):
    # Rows with coefficients of both signs and zero right-hand sides
    # among the positive ones, rational entries (whose floats round),
    # and now and then a redundant scaled copy of a row or a small pivot
    # cap: the same answer after as many pivots, float and exact.
    n = data.draw(st.integers(1, 5))

    def scalar(bound):
        q = data.draw(st.sampled_from([1, 1, 2, 3, 6]))
        return Fraction(data.draw(st.integers(-bound * q, bound * q)), q)

    rows = [
        ([scalar(2) for _ in range(n)], "<=", abs(scalar(6)))
        for _ in range(data.draw(st.integers(0, 8)))
    ]
    if rows and data.draw(st.booleans()):
        coeffs, _, b = data.draw(st.sampled_from(rows))
        k = data.draw(st.sampled_from([1, 2, 3]))
        rows.insert(data.draw(st.integers(0, len(rows))), ([k * c for c in coeffs], "<=", k * b))
    obj = [scalar(4) for _ in range(n)]
    cap = data.draw(st.sampled_from([0, 1, 2, 1000]))
    for exact in (False, True):
        want, got = _both_simplexes(rows, obj, exact, cap)
        assert got == want


@pytest.mark.parametrize("lp, outcome", [
    (_named_programs()[0], "optimal"),
    (_named_programs()[2], "optimal"),
    # no rows: x = 0 is optimal once no cost is positive
    (_program([-1, -2]), "optimal"),
    (_named_programs()[3], "unbounded"),
    # x + y <= 1 twice over, and once more scaled: redundant rows
    (_program([1, 2], ([1, 1], "<=", 1), ([2, 2], "<=", 2), ([1, 1], "<=", 1)), "optimal"),
    # coefficients and costs of both signs
    (_program([-1, 1, -2], ([-1, 1, 0], "<=", 1), ([1, 0, 1], "<=", 5),
              ([0, -1, 1], "<=", 2)), "optimal"),
    (_program([1, 1], ([-1, 1], "<=", 1), ([1, -1], "<=", 1)), "unbounded"),
    # x <= 1 twice: both rows tie in the ratio test, the lower label leaves
    (_program([1], ([1], "<=", 1), ([1], "<=", 1)), "optimal"),
    # Found by search: two variables tie for Dantzig's entering variable
    # after a slack took over a structural column, so the variable
    # index, not the column position, must decide.
    (_program([1, 0, 0], ([0, -1, 2], "<=", 0), ([1, -1, 0], "<=", 1),
              ([2, -1, -1], "<=", 2)), "unbounded"),
    # The same for Bland's rule.
    (_program([1, 1, 2], ([2, 1, -2], "<=", 0), ([0, 1, 1], "<=", 3)), "optimal"),
    # fractional rows whose floats round
    (_program([3, 2], ([Fraction(1, 2), Fraction(1, 3)], "<=", Fraction(3, 2)),
              ([1, 0], "<=", 1)), "optimal"),
])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_condensed_simplex_pivots_as_the_dense_one_on_each_outcome(lp, outcome, exact):
    want, got = _both_simplexes(lp.rows, lp.objective, exact)
    assert got == want
    assert got[0][0] == outcome
