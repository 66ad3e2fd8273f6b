"""Sphere and ball sizes under the asymmetric Lee distance.

Ball sizes depend only on the length and the weight of the centre (the
number of positions with disagreeing strands).  One census counts them:
around a weight-i centre a word is reached by m cheap swaps at
disagreeing positions and k expensive swaps at agreeing ones (weight
unchanged), and by single-bit flips at l- disagreeing positions (weight
down one) and l+ agreeing ones (weight up one), two choices each, at
cost (1 + lam)(l- + l+ + 2k) + lam * m.  ``class_matrix`` splits each
ball by the weight of its members, ``ball_size`` sums a row of it, and
``sphere_size`` is the difference of two ball sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import (PairedWord, _check_int, _check_lambda, _position_costs, _refuse_over,
                   pair_weight)

__all__ = ["ClassMatrix", "class_matrix", "sphere_size", "ball_size", "enumerate_ball"]


def _check_args(n: int, w: int, lam: int, r: int) -> None:
    _check_int(n, "n", 1)
    if _check_int(w, "w") > n:
        raise ValueError("weight exceeds length")
    _check_lambda(lam)
    _check_int(r, "r", 0)


@dataclass(frozen=True)
class ClassMatrix:
    """Ball census by weight class.

    ``entries[i][j]`` counts the words of weight j inside the radius-r
    ball around a (any) word of weight i.
    """

    n: int
    r: int
    lam: int
    entries: tuple

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int):
        return self.entries[i]


def _census_row(n: int, i: int, lam: int, r: int) -> tuple:
    """Words of each weight within distance r of a weight-i centre."""
    row = [0] * (n + 1)
    for m in range(i + 1):
        if lam * m > r:
            break
        cm = comb(i, m)
        for lminus in range(i - m + 1):
            base_l = (1 + lam) * lminus + lam * m
            if base_l > r:
                break
            cl = comb(i - m, lminus) * (2 ** lminus)
            for k in range(n - i + 1):
                base = base_l + (1 + lam) * 2 * k
                if base > r:
                    break
                ck = comb(n - i, k)
                for lplus in range(n - i - k + 1):
                    if base + (1 + lam) * lplus > r:
                        break
                    j = i - lminus + lplus
                    row[j] += (
                        cm * cl * ck * comb(n - i - k, lplus) * (2 ** lplus)
                    )
    return tuple(row)


def class_matrix(n: int, r: int, lam: int) -> ClassMatrix:
    """Count ball members weight class by weight class (see the module
    docstring for the census)."""
    _check_args(n, 0, lam, r)
    return ClassMatrix(n, r, lam, tuple(_census_row(n, i, lam, r) for i in range(n + 1)))


def ball_size(n: int, w: int, lam: int, r: int) -> int:
    """Number of words within distance r of a weight-w centre.

    Negative w is clamped to 0; callers indexing centres by shifted
    weights rely on that.
    """
    _check_args(n, w, lam, r)
    return sum(_census_row(n, max(w, 0), lam, r))


def sphere_size(n: int, w: int, lam: int, r: int) -> int:
    """Number of words at distance exactly r from a weight-w centre,
    with w clamped as in ``ball_size``."""
    _check_args(n, w, lam, r)
    if r == 0:
        return 1
    return ball_size(n, w, lam, r) - ball_size(n, w, lam, r - 1)


def enumerate_ball(centre: PairedWord, r: int, lam: int) -> set[PairedWord]:
    """All words within distance r of a centre, by pruned enumeration.

    Refuses, before the walk, a ball of more than ``core.LIST_LIMIT``
    words, counted by ``ball_size`` unless the radius alone shows it.
    Walks positions left to right with an explicit stack, trying each of
    the four digits and abandoning any prefix whose cost already exceeds
    the radius, so the work is at most (n + 1) times the result size,
    not 4^n.  The cost of digit t at position i is
    ``core._position_costs(lam)[s][t]``, s the centre's digit there.
    """
    n = centre.n
    _check_int(r, "r", 0)
    what = f"words in the radius-{r} ball at n={n}"
    # Any change at t <= r / 2(1 + lam) positions stays inside, so the ball
    # has at least 4^t words; this refuses a large radius before the census,
    # which costs up to about n^4 / 24 steps, and leaves it radii under
    # 18(1 + lam), where it is cheap at any n.
    _refuse_over(what + ", at least", 4, min(n, r // (2 + 2 * _check_lambda(lam))))
    _refuse_over(what, ball_size(n, pair_weight(centre), lam, r))
    costs = _position_costs(lam)
    rows = [costs[s] for s in centre.digits()]
    out: set[PairedWord] = set()
    stack = [(0, 0, 0, r)]  # (position, first strand, second strand, radius left)
    while stack:
        i, a, b, left = stack.pop()
        if i == n:
            out.add(PairedWord(n, a, b))
            continue
        for t, c in enumerate(rows[i]):
            if c <= left:
                stack.append((i + 1, a | ((t >> 1) << i), b | ((t & 1) << i), left - c))
    return out
