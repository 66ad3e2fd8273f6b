import pytest
from hypothesis import given, settings, strategies as st

from aldkit.balls import ball_size, enumerate_ball, sphere_size
from aldkit.core import (
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
    with pytest.raises(BudgetExceeded):
        enumerate_ball(PairedWord(13, 0, 0), 1, 1)
    with pytest.raises(ValueError):
        enumerate_ball(centre, -1, 1)


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
