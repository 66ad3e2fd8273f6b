"""Sphere and ball sizes under the asymmetric Lee distance.

Ball sizes depend only on the length and the weight of the centre (the
number of positions with disagreeing strands).  A word at distance
exactly r from a weight-w centre is reached by choosing m of the w
mixed positions for class-1 swaps, k of the n - w pure positions for
class-3 swaps, and l of the remaining positions for class-2 flips (two
choices each), subject to (2k + l)(1 + lam) + lam * m = r.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import BudgetExceeded, PairedWord, _check_lambda, classify_position

__all__ = ["sphere_size", "ball_size", "enumerate_ball"]

_ENUM_MAX_N = 12


def _check_args(n: int, w: int, lam: int, r: int) -> None:
    if n < 1:
        raise ValueError("length must be at least 1")
    if w > n:
        raise ValueError("weight exceeds length")
    _check_lambda(lam)
    if r < 0:
        raise ValueError("radius must be nonnegative")


@lru_cache(maxsize=None)
def sphere_size(n: int, w: int, lam: int, r: int) -> int:
    """Number of words at distance exactly r from a weight-w centre.

    Negative w is clamped to 0; callers indexing centres by shifted
    weights rely on that.
    """
    _check_args(n, w, lam, r)
    w = max(w, 0)
    if r == 0:
        return 1
    total = 0
    for m in range(w + 1):
        rem = r - lam * m
        if rem < 0:
            break
        if rem % (1 + lam):
            continue
        budget = rem // (1 + lam)  # 2k + l
        for k in range(budget // 2 + 1):
            ell = budget - 2 * k
            if k > n - w or ell > n - k - m:
                continue
            total += comb(w, m) * comb(n - w, k) * comb(n - k - m, ell) * (2 ** ell)
    return total


@lru_cache(maxsize=None)
def ball_size(n: int, w: int, lam: int, r: int) -> int:
    """Number of words within distance r of a weight-w centre."""
    _check_args(n, w, lam, r)
    return sum(sphere_size(n, w, lam, j) for j in range(r + 1))


def enumerate_ball(centre: PairedWord, r: int, lam: int) -> set[PairedWord]:
    """All words within distance r of a centre, by pruned enumeration.

    Walks positions left to right, trying each of the four symbols and
    abandoning any prefix whose cost already exceeds the radius, so the
    work is proportional to the result size rather than 4^n.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if centre.n > _ENUM_MAX_N:
        raise BudgetExceeded(
            f"ball enumeration refused for n={centre.n} (limit {_ENUM_MAX_N})"
        )
    symbols = [(0, 0), (0, 1), (1, 0), (1, 1)]
    costs = []
    for i in range(centre.n):
        s = centre.symbol(i)
        costs.append([classify_position(s, t).edge_weight(lam) for t in symbols])
    out: set[PairedWord] = set()

    def walk(i: int, a: int, b: int, left: int) -> None:
        if i == centre.n:
            out.add(PairedWord(centre.n, a, b))
            return
        row = costs[i]
        for sym_idx, (x, y) in enumerate(symbols):
            c = row[sym_idx]
            if c <= left:
                walk(i + 1, a | (x << i), b | (y << i), left - c)

    walk(0, 0, 0, r)
    return out
