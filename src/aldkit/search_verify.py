"""Ground-truth oracles for code sizes and distances.

Three layers of certainty, all exact:

* ``min_distance`` scans every pair of an explicit codebook.
* ``exact_max_code`` finds the true largest code by branch-and-bound
  maximum-clique search on the distinguishability graph.
* ``sandwich_check`` squeezes the exact value between verified
  constructive lower bounds and every applicable upper bound, reporting
  any violation as an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .codes import (ENUM_LIMIT_N, Codebook, best_cn_coset, build_cl, build_cp,
                    OddPrimeField)
from .core import BudgetExceeded, PairedWord, ald_distance, all_words
from .delsarte import delsarte_bound
from .hyperbound import (
    lp_hypergraph_bound,
    naive_weight_bound,
    optimal1_bound,
    simple_bound,
    weights1_bound,
)

# Explicit pair scans refuse beyond this many words (about 4.3e9 pairs).
WORD_BUDGET = 4 ** ENUM_LIMIT_N
# Exhaustive clique search caps at 4^4 = 256 vertices.
SEARCH_LIMIT_N = 4


class _Found(Exception):
    pass


@lru_cache(maxsize=None)
def symbol_distance_table(lam: int) -> tuple:
    """Distance contributions of two-position chunks, as a 16x16 table.

    A chunk nibble packs the two first-strand bits (low) and the two
    second-strand bits (high) of positions 2k and 2k+1; entry
    ``(x << 4) | y`` holds the distance those two positions contribute.
    """
    table = []
    for x in range(16):
        xw = PairedWord(2, x & 3, x >> 2)
        for y in range(16):
            yw = PairedWord(2, y & 3, y >> 2)
            table.append(ald_distance(xw, yw, lam))
    return tuple(table)


def _nibbles(word: PairedWord) -> tuple:
    a, b = word.a, word.b
    return tuple(
        ((a >> (2 * k)) & 3) | (((b >> (2 * k)) & 3) << 2)
        for k in range((word.n + 1) // 2)
    )


def min_distance(c: Codebook, lam: int):
    """Minimum pairwise distance over an explicit codebook.

    Returns ``math.inf`` below two words; refuses implicit codebooks
    and word counts past the quadratic-scan budget.
    """
    if c.words is None:
        raise BudgetExceeded("codebook is implicit; pair scan needs explicit words")
    if len(c.words) > WORD_BUDGET:
        raise BudgetExceeded(
            f"{len(c.words)} words exceed the {WORD_BUDGET}-word pair-scan budget"
        )
    if len(c.words) <= 1:
        return math.inf
    table = symbol_distance_table(lam)
    packed = [_nibbles(w) for w in c.words]
    best = math.inf
    for i, xi in enumerate(packed):
        for j in range(i + 1, len(packed)):
            yj = packed[j]
            total = 0
            for xk, yk in zip(xi, yj):
                total += table[(xk << 4) | yk]
                if total >= best:
                    break
            else:
                best = total
    return best


@dataclass(frozen=True)
class DistanceGraph:
    """All words of a given length, with edges joining pairs at distance >= d.

    Cliques are exactly the codebooks of minimum distance >= d.
    """

    n: int
    d: int
    lam: int
    vertices: tuple
    adjacency: tuple

    def adjacent(self, i: int, j: int) -> bool:
        return i != j and (self.adjacency[i] >> j) & 1 == 1

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()


def distance_graph(n: int, d: int, lam: int) -> DistanceGraph:
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 1:
        raise ValueError("need d >= 1")
    if n > SEARCH_LIMIT_N:
        raise BudgetExceeded(
            f"graph on 4^{n} vertices exceeds the 4^{SEARCH_LIMIT_N} search budget"
        )
    vertices = tuple(sorted(all_words(n), key=PairedWord.to_digits))
    table = symbol_distance_table(lam)
    packed = [_nibbles(w) for w in vertices]
    adjacency = [0] * len(vertices)
    for i, xi in enumerate(packed):
        for j in range(i + 1, len(packed)):
            yj = packed[j]
            if sum(table[(xk << 4) | yk] for xk, yk in zip(xi, yj)) >= d:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return DistanceGraph(n, d, lam, vertices, tuple(adjacency))


def _color_order(cand: int, adj) -> list:
    # Greedy coloring: each class is independent, lowest index first.
    order = []
    color = 0
    rem = cand
    while rem:
        color += 1
        avail = rem
        while avail:
            v = (avail & -avail).bit_length() - 1
            bit = 1 << v
            order.append((v, color))
            rem &= ~bit
            avail &= ~bit & ~adj[v]
    return order


def _max_clique_size(adj, cand: int, lower: int = 0, stop_at: int = None) -> int:
    """Largest clique inside ``cand``, never reported below ``lower``.

    Tomita-style search: the greedy coloring of the candidate set upper
    bounds any clique through it, so branches that cannot beat the
    incumbent are cut.  ``stop_at`` short-circuits yes/no queries.
    """
    best = lower

    def expand(size: int, cand: int) -> None:
        nonlocal best
        for v, color in reversed(_color_order(cand, adj)):
            if size + color <= best:
                return
            if size + 1 > best:
                best = size + 1
                if stop_at is not None and best >= stop_at:
                    raise _Found
            sub = cand & adj[v]
            if sub:
                expand(size + 1, sub)
            cand &= ~(1 << v)

    try:
        expand(0, cand)
    except _Found:
        pass
    return best


def exact_max_code(n: int, d: int, lam: int):
    """Exact largest code size, with a reproducible maximizing codebook.

    The witness is the lexicographically lowest maximum codebook in
    digit order, found by greedy extension with feasibility queries.
    """
    graph = distance_graph(n, d, lam)
    nv = len(graph.vertices)
    # Search in degree-descending order (ties by index) for tight colorings.
    perm = sorted(range(nv), key=lambda v: (-graph.degree(v), v))
    pos = [0] * nv
    for k, v in enumerate(perm):
        pos[v] = k
    padj = [0] * nv
    for k, v in enumerate(perm):
        mask = graph.adjacency[v]
        remapped = 0
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            remapped |= 1 << pos[w]
        padj[k] = remapped
    full = (1 << nv) - 1
    size = _max_clique_size(padj, full)

    chosen = []
    cand = full
    need = size
    for v in range(nv):
        if need == 0:
            break
        k = pos[v]
        if not (cand >> k) & 1:
            continue
        rest = cand & padj[k]
        if need == 1 or _max_clique_size(padj, rest, need - 2, need - 1) >= need - 1:
            chosen.append(v)
            cand = rest
            need -= 1
    assert len(chosen) == size
    words = tuple(graph.vertices[v] for v in chosen)
    book = Codebook(
        n=n,
        lam=lam,
        design_distance=d,
        construction="exact_search",
        params={"vertices": nv},
        words=words,
    )
    got = min_distance(book, lam)
    assert got >= d or size <= 1, f"witness distance {got} below {d}"
    return size, book


def averaging_lower_bound(n: int, d: int) -> int:
    """Some congruence coset holds at least the average share of all words."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 1 or d % 2 == 0:
        raise ValueError("odd minimum distance required")
    return -((-(4 ** n)) // (d * (n + 1) ** (d // 2)))


def _lower_candidates(n: int, d: int, lam: int):
    """Verified constructive lower bounds applicable at these parameters."""
    yield 1, "singleton"
    extremes = Codebook(
        n=n,
        lam=lam,
        design_distance=d,
        construction="extremes",
        params={},
        words=(PairedWord(n, 0, 0), PairedWord(n, (1 << n) - 1, (1 << n) - 1)),
    )
    if min_distance(extremes, lam) >= d:
        yield 2, "all-same-symbol pair"
    if d <= lam:
        # any two distinct words already differ by at least one cheap swap
        yield 4 ** n, "full space"
    candidates = [(build_cp(n), "single-parity")]
    if n == 2:
        candidates.append((build_cl(2, 0), "strand-sum kernel"))
    if n == 4 and d % 2 == 1 and d >= 3 and 5 >= d + 1:
        _, _, coset = best_cn_coset(OddPrimeField(5), d)
        candidates.append((coset, "power-sum coset"))
    for book, source in candidates:
        if book.size >= 2 and min_distance(book, lam) >= d:
            yield book.size, source
    if lam == 1 and d % 2 == 1:
        yield averaging_lower_bound(n, d), "coset averaging"


def _upper_candidates(n: int, d: int, lam: int, delsarte_budget_secs):
    """(method, floor) upper bounds, plus (method, reason) skips."""
    uppers = [("space", 4 ** n)]
    skipped = []
    if d >= 2:
        uppers.append(("lp", lp_hypergraph_bound(n, d, lam).floored))
        uppers.append(("naive", naive_weight_bound(n, d, lam).floored))
        uppers.append(("simple", simple_bound(n, d, lam).floored))
        if lam == 1 and d % 2 == 1:
            try:
                uppers.append(("weights1", weights1_bound(n, (d - 1) // 2).floored))
            except ArithmeticError:
                # the capped-system recipe is not feasible at every radius;
                # when its substitution check fails it is no bound at all
                skipped.append(("weights1", "weight recipe infeasible here"))
    if d == 2 * lam + 1:
        uppers.append(("optimal1", optimal1_bound(n, lam).floored))
    try:
        report = delsarte_bound(n, d, lam, budget_secs=delsarte_budget_secs)
        uppers.append(("delsarte", report.floored))
    except BudgetExceeded as refusal:
        skipped.append(("delsarte", str(refusal)))
    return uppers, skipped


@dataclass(frozen=True)
class SandwichReport:
    """Exact value pinned between verified lower and upper bounds."""

    n: int
    d: int
    lam: int
    exact: int
    witness: Codebook
    lower: int
    lower_source: str
    uppers: tuple
    skipped: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def sandwich_check(n: int, d: int, lam: int, delsarte_budget_secs=60.0) -> SandwichReport:
    """Cross-check constructions, exact search, and bounds at one cell.

    Any reported violation means a bug somewhere in this package, never
    new mathematics; the offending pair of numbers is spelled out.
    """
    exact, witness = exact_max_code(n, d, lam)
    lower, lower_source = 0, "none"
    for size, source in _lower_candidates(n, d, lam):
        if size > lower:
            lower, lower_source = size, source
    uppers, skipped = _upper_candidates(n, d, lam, delsarte_budget_secs)
    violations = []
    if lower > exact:
        violations.append(
            f"lower bound {lower} ({lower_source}) exceeds exact value {exact}"
        )
    for method, value in uppers:
        if exact > value:
            violations.append(
                f"exact value {exact} exceeds upper bound {value} ({method})"
            )
    return SandwichReport(
        n=n,
        d=d,
        lam=lam,
        exact=exact,
        witness=witness,
        lower=lower,
        lower_source=lower_source,
        uppers=tuple(uppers),
        skipped=tuple(skipped),
        violations=tuple(violations),
    )
