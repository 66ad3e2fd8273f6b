"""Class-matrix census and the weighted covering bounds built on it."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aldkit.balls import ball_size, enumerate_ball
from aldkit.core import PairedWord, canonical_weight_word, pair_weight
from aldkit.hyperbound import (
    BoundReport,
    ClassMatrix,
    _check_feasible,
    class_matrix,
    lp_hypergraph_bound,
    naive_weight_bound,
    optimal1_bound,
    packing_comparison,
    simple_bound,
    weights1_bound,
)

# Reference-table columns for d=5, lambda=1, n = 5..15 (frozen).
TABLE2_LP = [67, 219, 731, 2483, 8563, 29901, 105490, 375448, 1346201,
             4858171, 17631726]
TABLE2_NAIVE = [427, 1079, 2750, 7181, 19485, 55529, 166902, 527725,
                1742275, 5949948, 20833123]
TABLE2_SIMPLE = [254, 793, 2508, 8048, 26190, 86393, 288649, 975954,
                 3336118, 11518362, 40130869]
# The solved-system column as this implementation computes it (the
# reference table prints different numbers; see the acceptance suite).
TABLE2_WEIGHTS1 = [141, 426, 1315, 4155, 13353, 43921, 146492, 496858,
                   1707080, 5920977, 20871276]


class TestClassMatrix:
    def test_diagonal_base_case(self):
        mat = class_matrix(1, 1, 1)
        assert [[mat.entry(i, j) for j in range(2)] for i in range(2)] == [
            [1, 0],
            [0, 2],
        ]

    def test_radius2_closed_forms(self):
        # tridiagonal at r=2, lambda=1: diag 1+i+C(i,2), off-diag 2i / 2(n-i)
        n = 5
        mat = class_matrix(n, 2, 1)
        for i in range(n + 1):
            assert mat.entry(i, i) == 1 + i + math.comb(i, 2)
            if i > 0:
                assert mat.entry(i, i - 1) == 2 * i
            if i < n:
                assert mat.entry(i, i + 1) == 2 * (n - i)

    def test_row_sums_are_ball_sizes(self):
        for n in range(1, 6):
            for r in range(0, 7):
                for lam in (1, 2):
                    mat = class_matrix(n, r, lam)
                    for i in range(n + 1):
                        assert sum(mat.row(i)) == ball_size(n, i, lam, r)

    def test_unaffordable_entries_vanish(self):
        mat = class_matrix(6, 3, 2)
        for i in range(7):
            for j in range(7):
                if 3 * abs(i - j) > 3:
                    assert mat.entry(i, j) == 0

    def test_matches_enumeration_oracle(self):
        # every entry, at every radius up to the diameter 2(1+lam)n: the
        # covering LP reads each one
        for n in range(1, 5):
            for lam in (1, 2, 3):
                for r in range(2 * (1 + lam) * n + 1):
                    mat = class_matrix(n, r, lam)
                    for i in range(n + 1):
                        centre = canonical_weight_word(n, i)
                        ball = enumerate_ball(centre, r, lam)
                        for j in range(n + 1):
                            count = sum(1 for y in ball if pair_weight(y) == j)
                            assert mat.entry(i, j) == count

    @given(st.integers(1, 4), st.integers(0, 8), st.integers(1, 2))
    @settings(max_examples=40)
    def test_entries_nonnegative_and_centre_counted(self, n, r, lam):
        mat = class_matrix(n, r, lam)
        for i in range(n + 1):
            assert mat.entry(i, i) >= 1
            assert all(v >= 0 for v in mat.row(i))


class TestLPBound:
    def test_small_exact_values(self):
        rep = lp_hypergraph_bound(2, 3, 1)
        assert rep.exact == Fraction(28, 3)
        assert rep.floored == 9

    def test_table1_spot_anchors(self):
        assert lp_hypergraph_bound(5, 3, 1).floored == 336
        assert lp_hypergraph_bound(8, 5, 1).floored == 2483
        assert lp_hypergraph_bound(10, 13, 1).floored == 340
        assert lp_hypergraph_bound(5, 11, 1).floored == 9

    def test_even_d_duplicates_odd(self):
        for n in (2, 4):
            for r in (1, 2):
                odd = lp_hypergraph_bound(n, 2 * r + 1, 1)
                even = lp_hypergraph_bound(n, 2 * r + 2, 1)
                assert odd.exact == even.exact

    def test_d5_column(self):
        for n, want in zip(range(5, 16), TABLE2_LP):
            assert lp_hypergraph_bound(n, 5, 1).floored == want

    def test_rejects_degenerate_distance(self):
        with pytest.raises(ValueError):
            lp_hypergraph_bound(3, 1, 1)
        # n, d and r must be ints, and not bools
        for bound, args in [
            (lp_hypergraph_bound, (3, 5.5, 1)),
            (lp_hypergraph_bound, (True, 5, 1)),
            (lp_hypergraph_bound, (3.0, 5, 1)),
            (naive_weight_bound, (3, 5.0, 1)),
            (simple_bound, (2.0, 5, 1)),
            (optimal1_bound, (True,)),
            (weights1_bound, (3, True)),
            (weights1_bound, (3.0, 2)),
            (class_matrix, (3, 1.5, 1)),
            (class_matrix, (True, 1, 1)),
            (class_matrix, (3, 1, 0)),
            (class_matrix, (3, -1, 1)),
        ]:
            with pytest.raises(ValueError, match="must be"):
                bound(*args)


class TestCheckFeasible:
    DIAGONAL = class_matrix(1, 1, 1)  # rows [1, 0] and [0, 2]

    def test_row_sum_of_exactly_one_is_accepted(self):
        _check_feasible(self.DIAGONAL, (Fraction(1), Fraction(1, 2)))
        _check_feasible(self.DIAGONAL, (1, Fraction(3, 6)))

    def test_row_sum_just_below_one_is_refused(self):
        short = 1 - Fraction(1, 10**30)
        message = f"weight vector infeasible at centre class 0: {10**30 - 1}/{10**30} < 1"
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            _check_feasible(self.DIAGONAL, (short, Fraction(1, 2)))
        message = "weight vector infeasible at centre class 1: 4/5 < 1"
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            _check_feasible(self.DIAGONAL, (Fraction(1), Fraction(2, 5)))

    def test_negative_weight_is_refused_after_the_rows(self):
        mat = ClassMatrix(1, 1, 1, ((1, 1), (1, 1)))
        with pytest.raises(ArithmeticError, match="^negative weight in covering assignment$"):
            _check_feasible(mat, (Fraction(2), Fraction(-1, 2)))
        # a short row is reported before a negative weight
        with pytest.raises(ArithmeticError, match="^weight vector infeasible at centre class 0: 1/2 < 1$"):
            _check_feasible(mat, (Fraction(1), Fraction(-1, 2)))


class TestClosedFormBounds:
    def test_optimal1_equals_lp_exactly(self):
        # closed form 2^n (2^(n+1) - 1)/(n+1) is the true LP optimum at d=3
        for n in range(1, 11):
            closed = optimal1_bound(n)
            lp = lp_hypergraph_bound(n, 3, 1)
            assert closed.exact == lp.exact

    def test_optimal1_general_lambda(self):
        # same closed form holds whenever r = lambda (diagonal census)
        for lam in (2, 3):
            rep = optimal1_bound(4, lam)
            lp = lp_hypergraph_bound(4, 2 * lam + 1, lam)
            assert rep.exact == lp.exact

    def test_optimal1_matches_its_closed_form(self):
        for lam in (1, 2, 3):
            for n in range(1, 41):
                rep = optimal1_bound(n, lam)
                assert rep.exact == Fraction(2 ** n * (2 ** (n + 1) - 1), n + 1)
                assert (rep.d, rep.lam) == (2 * lam + 1, lam)

    def test_simple_bound_values(self):
        assert simple_bound(1, 3, 1).exact == Fraction(3)
        for n, want in zip(range(5, 16), TABLE2_SIMPLE):
            assert simple_bound(n, 5, 1).floored == want

    def test_naive_tabulated_column(self):
        for n, want in zip(range(5, 16), TABLE2_NAIVE):
            assert naive_weight_bound(n, 5, 1).floored == want

    def test_naive_strict_is_tighter(self):
        loose = naive_weight_bound(5, 5, 1)
        tight = naive_weight_bound(5, 5, 1, strict=True)
        assert tight.floored == 77
        assert tight.exact < loose.exact

    def test_naive_collapses_to_optimal1_at_d3(self):
        # mu = 0 at r = lambda, so both modes agree with the closed form
        for n in (2, 5, 8):
            assert naive_weight_bound(n, 3, 1).exact == optimal1_bound(n).exact
            assert (
                naive_weight_bound(n, 3, 1, strict=True).exact
                == optimal1_bound(n).exact
            )

    def test_weights1_solved_column(self):
        assert weights1_bound(5, 2).exact == Fraction(2824688, 19927)
        for n, want in zip(range(5, 16), TABLE2_WEIGHTS1):
            assert weights1_bound(n, 2).floored == want

    def test_weights1_tiny_case(self):
        # n=1, r=1: system is [[1,0],[0,2]], so the value is the d=3 closed form
        assert weights1_bound(1, 1).exact == optimal1_bound(1).exact

    def test_weights_are_reported(self):
        rep = naive_weight_bound(4, 5, 1)
        assert rep.weights is not None and len(rep.weights) == 5
        assert all(w > 0 for w in rep.weights)


class TestOrderingAndReports:
    def test_documented_ordering_on_d5_range(self):
        # stated for n <= 10; the solved column overtakes the tabulated
        # naive column at n = 15, so the range matters
        for n in range(5, 11):
            lp = lp_hypergraph_bound(n, 5, 1).floored
            w1 = weights1_bound(n, 2).floored
            nv = naive_weight_bound(n, 5, 1).floored
            assert lp <= w1 <= nv

    def test_lp_is_never_above_closed_forms(self):
        for n in (2, 4, 6):
            lp = lp_hypergraph_bound(n, 5, 1).exact
            assert lp <= simple_bound(n, 5, 1).exact
            assert lp <= naive_weight_bound(n, 5, 1).exact

    def test_report_floor_invariant_enforced(self):
        with pytest.raises(ValueError):
            BoundReport("x", 1, 3, 1, Fraction(7, 2), 4)

    def test_report_fields(self):
        rep = simple_bound(3, 5, 2)
        assert (rep.n, rep.d, rep.lam) == (3, 5, 2)
        assert rep.floored == rep.exact.__floor__()

    # SHA-256 over the closed forms' values and weights: naive (default
    # and strict) and simple at lam 1-3, n <= 8 and every d, each lam
    # followed by optimal1 at n <= 15.
    CLOSED_FORM_DIGEST = "e42c946162ff178565581be9896ff6b9841c948c74c4edb31b6eb37e570a4d8e"

    def test_closed_form_answers_are_pinned(self):
        lines = []
        for lam in (1, 2, 3):
            for n in range(1, 9):
                for d in range(2, 2 * (1 + lam) * n + 3):
                    for name, rep in (
                        ("naive", naive_weight_bound(n, d, lam)),
                        ("naive-strict", naive_weight_bound(n, d, lam, strict=True)),
                        ("simple", simple_bound(n, d, lam)),
                    ):
                        lines.append(f"{name} {n} {d} {lam} {rep.exact} {rep.weights}")
            for n in range(1, 16):
                rep = optimal1_bound(n, lam)
                lines.append(f"optimal1 {n} {lam} {rep.exact} {rep.weights}")
        assert len(lines) == 2061
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CLOSED_FORM_DIGEST


class TestPackingComparison:
    def test_v3_all_positive(self):
        rec = packing_comparison(3)
        assert rec["n"] == 3
        for key in ("binary_packing", "quaternary_packing", "kernel_lower"):
            assert rec[key] > 0

    def test_kernel_lower_closed_form(self):
        rec = packing_comparison(5)
        assert rec["kernel_lower"] == Fraction(4**15, 1024)

    def test_quaternary_crosses_kernel_at_v6(self):
        # the quaternary packing value first drops below the kernel lower
        # bound at v = 6; at v = 5 the order is still reversed
        at5 = packing_comparison(5)
        assert at5["quaternary_packing"] > at5["kernel_lower"]
        at6 = packing_comparison(6)
        assert at6["quaternary_packing"] < at6["kernel_lower"]

    def test_rejects_tiny_v(self):
        with pytest.raises(ValueError):
            packing_comparison(2)

    def test_rejects_non_integer_v(self):
        for v in (3.0, True):
            with pytest.raises(ValueError, match="v must"):
                packing_comparison(v)
