import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from aldkit import balls
from aldkit.balls import ball_size, class_matrix, enumerate_ball, sphere_size
from aldkit.core import (
    LIST_LIMIT,
    BudgetExceeded,
    PairedWord,
    ald_distance,
    all_words,
    canonical_weight_word,
    pair_weight,
)


def brute_sphere(n, w, lam, r):
    centre = canonical_weight_word(n, max(w, 0))
    return sum(1 for y in all_words(n) if ald_distance(centre, y, lam) == r)


def test_radius_two_counts_frozen():
    # Worked small case: around a weight-1 centre of length 3 the unit
    # ball at radius 2 holds 8 words, around a weight-0 centre only 7.
    assert ball_size(3, 1, 1, 2) == 8
    assert ball_size(3, 0, 1, 2) == 7


@pytest.mark.parametrize("n", range(1, 9))
def test_radius_two_closed_form(n):
    # At lam=1 and r=2 the ball size collapses to 1 + w + C(w,2) + 2n.
    for w in range(n + 1):
        assert ball_size(n, w, 1, 2) == 1 + w + w * (w - 1) // 2 + 2 * n


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_matches_brute_force(n, lam):
    for w in range(n + 1):
        for r in range(2 * (1 + lam) * n + 2):
            assert sphere_size(n, w, lam, r) == brute_sphere(n, w, lam, r), (n, w, lam, r)


def test_ball_covers_everything_at_diameter():
    for n in (1, 2, 3):
        for lam in (1, 2):
            for w in range(n + 1):
                assert ball_size(n, w, lam, 2 * (1 + lam) * n) == 4**n


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_ball_depends_only_on_weight(n, lam, data):
    # Any centre with the same strand-disagreement count sees the same
    # ball census, whichever positions carry the disagreements.
    from aldkit.core import PairedWord

    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    centre = PairedWord(n, a, b)
    w = pair_weight(centre)
    r = data.draw(st.integers(0, 2 * (1 + lam) * n))
    got = sum(1 for y in all_words(n) if ald_distance(centre, y, lam) <= r)
    assert got == ball_size(n, w, lam, r)


def test_ball_monotone_in_radius():
    for n in (1, 3, 5):
        for lam in (1, 2):
            for w in (0, n // 2, n):
                prev = 0
                for r in range(2 * (1 + lam) * n + 1):
                    cur = ball_size(n, w, lam, r)
                    assert cur >= prev
                    prev = cur
                assert prev == 4**n


def test_enumerate_ball_matches_brute_force():
    for n in (1, 2, 3):
        for lam in (1, 2):
            for w in range(n + 1):
                centre = canonical_weight_word(n, w)
                for r in range(2 * (1 + lam) * n + 1):
                    want = {
                        y for y in all_words(n) if ald_distance(centre, y, lam) <= r
                    }
                    got = enumerate_ball(centre, r, lam)
                    assert got == want
                    assert len(got) == ball_size(n, w, lam, r)


def test_enumerate_ball_worked_example():
    # Length 3, weight-1 centre, radius 2: eight words, seven around the
    # all-agree centre.
    centre = PairedWord.from_bits([0, 1, 1], [1, 1, 1])
    ball = enumerate_ball(centre, 2, 1)
    assert len(ball) == 8
    assert centre in ball
    # The single cheap swap at the disagreeing position stays inside.
    assert PairedWord.from_bits([1, 1, 1], [0, 1, 1]) in ball
    zero = PairedWord(3, 0, 0)
    assert len(enumerate_ball(zero, 2, 1)) == 7


def test_enumerate_ball_edge_cases():
    centre = PairedWord.from_digits("0123")
    assert enumerate_ball(centre, 0, 1) == {centre}
    # the cap is on the ball's size, not on the length
    for n, r in ((13, 2), (200, 2)):
        long = PairedWord(n, 0, 0)
        assert len(enumerate_ball(long, r, 1)) == ball_size(n, 0, 1, r)
    assert enumerate_ball(PairedWord(13, 0, 0), 1, 1) == {PairedWord(13, 0, 0)}
    with pytest.raises(ValueError):
        enumerate_ball(centre, -1, 1)


def test_enumerate_ball_refuses_by_the_ball_size_before_the_walk(monkeypatch):
    centre = PairedWord(12, 0, 0)
    assert ball_size(12, 0, 1, 11) == 55455 <= LIST_LIMIT < ball_size(12, 0, 1, 12) == 190051
    assert len(enumerate_ball(centre, 11, 1)) == 55455
    # n past the recursion limit: the walk keeps its own stack
    n = sys.getrecursionlimit() + 1
    assert len(enumerate_ball(PairedWord(n, 0, 0), 2, 1)) == ball_size(n, 0, 1, 2) == 2 * n + 1
    monkeypatch.setattr(balls, "_position_costs",
                        lambda lam: pytest.fail("walked a ball over the cap"))
    with pytest.raises(BudgetExceeded, match="radius-12 ball at n=12: 190051, over the cap"):
        enumerate_ball(centre, 12, 1)
    # a radius that changes t positions freely holds 4^t words or more:
    # refused before the census, at any length
    monkeypatch.setattr(balls, "_census_row", lambda *args: pytest.fail("counted the ball"))
    with pytest.raises(BudgetExceeded, match=r"radius-48 ball at n=12, at least: 4\^12, over"):
        enumerate_ball(centre, 48, 1)
    with pytest.raises(BudgetExceeded, match=r"radius-36 ball at n=10000, at least: 4\^9, over"):
        enumerate_ball(PairedWord(10**4, 0, 0), 36, 1)


def test_negative_weight_clamps_to_zero():
    assert sphere_size(4, -2, 1, 3) == sphere_size(4, 0, 1, 3)
    assert ball_size(4, -1, 2, 5) == ball_size(4, 0, 2, 5)


def test_zero_radius():
    assert ball_size(6, 2, 3, 0) == 1
    assert sphere_size(6, 2, 3, 0) == 1


def test_argument_validation():
    with pytest.raises(ValueError):
        ball_size(0, 0, 1, 1)
    with pytest.raises(ValueError):
        ball_size(3, 4, 1, 1)
    with pytest.raises(ValueError):
        ball_size(3, 1, 0, 1)
    with pytest.raises(ValueError):
        ball_size(3, 1, 1, -1)
    # n, w and r must be ints, and not bools, even when an equal int
    # argument list is already cached
    assert ball_size(3, 1, 1, 2) == 8
    for args in [(3, True, 1, 2), (3, 1, 1, 2.5), (3.0, 1, 1, 2), (3, 1.0, 1, 2),
                 (True, 1, 1, 2), (3, 1, 1, True)]:
        with pytest.raises(ValueError, match="must be"):
            ball_size(*args)
        with pytest.raises(ValueError, match="must be"):
            sphere_size(*args)
    with pytest.raises(ValueError, match="must be"):
        enumerate_ball(PairedWord(2, 0, 0), 1.5, 1)


def test_class_matrix_counts_each_pair_from_both_ends():
    # |class i| M[i][j] and |class j| M[j][i] both count the pairs of a
    # weight-i and a weight-j word at distance <= r, with |class i| =
    # 2^n C(n, i); the covering LP's dual is its packing LP only because
    # of this identity (hyperbound.lp_hypergraph_bound).
    for lam in (1, 2, 3):
        for n in range(1, 13):
            sizes = [comb(n, i) << n for i in range(n + 1)]
            for r in range(2 * (1 + lam) * n + 1):
                m = class_matrix(n, r, lam).entries
                for i in range(n + 1):
                    for j in range(i):
                        assert sizes[i] * m[i][j] == sizes[j] * m[j][i], (n, r, lam, i, j)
