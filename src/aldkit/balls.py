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

from .core import BudgetExceeded, PairedWord, _check_int, _check_lambda, _position_costs

__all__ = ["ClassMatrix", "class_matrix", "sphere_size", "ball_size", "enumerate_ball"]

_ENUM_MAX_N = 12


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

    Walks positions left to right, trying each of the four digits and
    abandoning any prefix whose cost already exceeds the radius, so the
    work is proportional to the result size rather than 4^n.  The cost
    of digit t at position i is ``core._position_costs(lam)[s][t]``, s
    the centre's digit there.
    """
    _check_int(r, "r", 0)
    if centre.n > _ENUM_MAX_N:
        raise BudgetExceeded(
            f"ball enumeration refused for n={centre.n} (limit {_ENUM_MAX_N})"
        )
    costs = _position_costs(lam)
    rows = [costs[s] for s in centre.digits()]
    out: set[PairedWord] = set()

    def walk(i: int, a: int, b: int, left: int) -> None:
        if i == centre.n:
            out.add(PairedWord(centre.n, a, b))
            return
        for t, c in enumerate(rows[i]):
            if c <= left:
                walk(i + 1, a | ((t >> 1) << i), b | ((t & 1) << i), left - c)

    walk(0, 0, 0, r)
    return out
