"""Ground-truth oracles for code sizes and distances.

Three layers of certainty, all exact:

* ``min_distance`` finds the closest pair of an explicit codebook by
  one branch and bound over pairs of word sets, position by position:
  every pair of words is walked at once.
* ``exact_max_code`` finds the true largest code by branch-and-bound
  maximum-clique search on the distinguishability graph, branching
  once per orbit of the metric's isometry group at its top levels.
  The search starts from the greedy lexicode in digit order and only
  has to beat it; when it cannot, the lexicode is the witness.
* ``sandwich_check`` squeezes the exact value between verified
  constructive lower bounds and every applicable upper bound, reporting
  any violation as an implementation bug.  The upper bounds come from
  ``_UPPER_BOUNDS``, the one table of bound methods and of the cells
  where each applies; ``aldkit bound`` and ``aldkit table`` read it too.

Symbols are the digits of ``PairedWord.digits``: 2x + y for (x;y).
``min_distance`` and the orbit pruning of ``_max_clique`` read a
per-position index ``have[k][s]``, the bitmask of list indices whose
digit at position k is s.  ``distance_graph`` builds every row at once
by a recursion over positions on distance thresholds, with the words
in the order the clique search wants them.  Both it and
``min_distance`` take the 4x4 per-position costs from
``core._position_costs``, and the orbit pruning takes the four
isometries of one position from ``core._POSITION_MAPS``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .codes import Codebook, best_cn_coset, build_cl, build_cp, OddPrimeField
from .core import (_POSITION_MAPS, Budget, BudgetExceeded, PairedWord, _check_int,
                   _position_costs, _refuse_over)
from .delsarte import delsarte_bound
from .hyperbound import (
    lp_hypergraph_bound,
    naive_weight_bound,
    optimal1_bound,
    simple_bound,
    weights1_bound,
)

__all__ = [
    "DistanceGraph",
    "SandwichReport",
    "averaging_lower_bound",
    "distance_graph",
    "exact_max_code",
    "min_distance",
    "sandwich_check",
    "symbol_distance_table",
]

# Exhaustive clique search caps at 4^4 = 256 vertices.
SEARCH_LIMIT_N = 4
# Levels of the clique search that drop a whole orbit after each branch.
# For (4,6,1), measured in October 2026 on one core of a 2-core machine
# (Python 3.11): about 0.33 s with one level, 0.043 s with two, 0.019 s
# with three and 0.023 s with all four, where orbits cost more than they save.
ORBIT_LEVELS = 3


@lru_cache(maxsize=None)
def symbol_distance_table(lam: int) -> tuple:
    """Distance contributions of two-position chunks, as a 16x16 table.

    A chunk nibble packs the two first-strand bits (low) and the two
    second-strand bits (high) of positions 2k and 2k+1; entry
    ``(x << 4) | y`` holds the distance those two positions contribute.
    """
    costs = _position_costs(lam)
    # the digits of each nibble's positions 2k and 2k+1
    pairs = [((x & 1) << 1 | (x >> 2) & 1, x & 2 | (x >> 3) & 1) for x in range(16)]
    return tuple(costs[s][t] + costs[u][v] for s, u in pairs for t, v in pairs)


# The digits in the order the clique search takes them at each position:
# the pure symbols 0 = (0;0) and 3 = (1;1) first.  A pure symbol costs
# more to leave: 1 + λ to either mixed symbol and 2(1 + λ) to the other
# pure one, where a mixed symbol costs 1 + λ to either pure one and λ to
# the other mixed one.  So words heavy in pure symbols have the most
# neighbours, and putting them first keeps the greedy colourings tight.
SEARCH_DIGITS = (0, 3, 1, 2)


@lru_cache(maxsize=None)
def _search_order(n: int) -> tuple:
    """Every word of length n, in search order: sorted by digits,
    position 0 leading, each digit read through ``SEARCH_DIGITS``.
    Words are built from the last position forward."""
    strands = [(0, 0)]
    for k in range(n - 1, -1, -1):
        strands = [
            (a | ((digit >> 1) << k), b | ((digit & 1) << k))
            for digit in SEARCH_DIGITS
            for a, b in strands
        ]
    return tuple(PairedWord(n, a, b) for a, b in strands)


@lru_cache(maxsize=None)
def _search_index(n: int) -> tuple:
    """For each word of length n in digit order, its index in search order."""
    rank = [SEARCH_DIGITS.index(digit) for digit in range(4)]
    index = [0]
    for _ in range(n):
        index = [4 * i + r for i in index for r in rank]
    return tuple(index)


# _BIT_DIGITS[k][v]: bit k of the byte v, as the digit b"0" or b"1".
_BIT_DIGITS = tuple(bytes(b"01"[(v >> k) & 1] for v in range(256)) for k in range(8))


def _strand_columns(values, n: int) -> list:
    """Per position k, the bitmask of list indices whose value has bit k set."""
    columns = []
    for base in range(0, n, 8):
        # one byte of each value, the last value first, so index 0 is bit 0
        lane = bytes([(v >> base) & 255 for v in reversed(values)])
        columns += [int(lane.translate(_BIT_DIGITS[k]), 2) for k in range(min(8, n - base))]
    return columns


def _symbol_index(words, n: int) -> list:
    """``have[k][s]``: bitmask of list indices whose digit at position k is s."""
    full = (1 << len(words)) - 1
    a_cols = _strand_columns([w.a for w in words], n)
    b_cols = _strand_columns([w.b for w in words], n)
    return [
        (full & ~(a | b), b & ~a, a & ~b, a & b)
        for a, b in zip(a_cols, b_cols)
    ]


@lru_cache(maxsize=None)
def _move_lists(costs: tuple) -> tuple:
    """The moves ``(cost, s, t)`` of a pair state, then those of a same
    state (s < t only), each as ``(move_costs, cheapest)``.

    ``move_costs`` is ascending and ``cheapest[m]`` holds the m cheapest
    moves, dearest first, so the moves costing less than b are
    ``cheapest[bisect_left(move_costs, b)]``, ready to be pushed with
    the cheapest on top.
    """
    lists = []
    for pair in (True, False):
        moves = sorted((costs[s][t], s, t) for s in range(4) for t in range(4)
                       if pair or s < t)
        lists.append((tuple(move[0] for move in moves),
                      tuple(moves[:m][::-1] for m in range(len(moves) + 1))))
    return tuple(lists)


def min_distance(c: Codebook, lam: int):
    """Minimum pairwise distance over an explicit codebook.

    Returns ``math.inf`` below two words; refuses implicit codebooks
    and books of more than ``core.LIST_LIMIT`` words, 4^8: the walk
    keeps word sets as bitmasks over the book, so the cap bounds their
    width, not a count of pairs.  One branch and bound
    walks pairs of word sets position by position, reading the sets
    from the per-position symbol index.  A same state holds the words
    sharing a prefix; it splits into a same state per symbol s and a
    pair state (X_s, X_t) per two symbols s < t, at cost
    ``costs[s][t]``.  A pair state (X, Y) moves to (X_s, Y_t) for all
    16 (s, t), adding ``costs[s][t]``; the costs are symmetric, so each
    pair of prefixes is walked once, one way round.  Moves are tried
    cheapest first, and a state ends once its cost reaches the best
    found or a side is empty.  A pair state with both sides non-empty
    at the last position is a closer pair; a same state left with two
    words there is a repeated word, at distance 0.
    """
    if c.words is None:
        raise BudgetExceeded("codebook is implicit; pair scan needs explicit words")
    words = c.words
    _refuse_over("words in the pair scan", len(words))
    costs = _position_costs(lam)
    if len(words) <= 1:
        return math.inf
    n = words[0].n
    have = _symbol_index(words, n)
    pair_moves, split_moves = _move_lists(costs)
    best = math.inf
    # (position, X, Y, cost so far): a pair state, or a same state when Y is 0
    stack = [(0, (1 << len(words)) - 1, 0, 0)]
    while stack:
        k, x, y, spent = stack.pop()
        if spent >= best:
            continue
        c0, c1, c2, c3 = have[k]
        xs = (x & c0, x & c1, x & c2, x & c3)
        k += 1
        if y:
            ys = (y & c0, y & c1, y & c2, y & c3)
            move_costs, moves = pair_moves
        else:
            ys = xs
            move_costs, moves = split_moves
        for cost, s, t in moves[bisect_left(move_costs, best - spent)]:
            if xs[s] and ys[t]:
                if k == n:
                    best = spent + cost
                else:
                    stack.append((k, xs[s], ys[t], spent + cost))
        if not y:
            for part in xs:
                if part & (part - 1):  # two words or more
                    if k == n:
                        return 0
                    stack.append((k, part, 0, 0))
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
    """Distinguishability graph on all 4^n words in search order.

    ``vertices`` lists the words sorted by their digits, position 0
    leading, each digit read through ``SEARCH_DIGITS``; ``exact_max_code``
    searches the rows in this order as they are.  Built by a recursion
    over positions, as the distance is a sum of per-position costs.
    ``far[t][x]`` is the bitmask, in search order, of the length-k words
    at distance >= t from the length-k word x (every word once t <= 0).
    A word's index is the rank of its leading digit times 4^(k-1) plus
    its tail's index, so the words far from x = (s, tail) are, for each
    leading digit u, the words far by t - cost(s, u) from the tail,
    shifted up by rank(u)·4^(k-1).  A level with m positions above it is
    asked only for d minus a sum of m costs, at most C(m+3, 3)
    thresholds whatever d and λ are; row x is ``far[d][x]`` at length n.
    """
    _check_int(n, "n", 1)
    _check_int(d, "d", 1)
    _refuse_over("graph vertices at n={exp}", 4, n, 4**SEARCH_LIMIT_N)
    costs = _position_costs(lam)
    costs = [[costs[s][t] for t in SEARCH_DIGITS] for s in SEARCH_DIGITS]
    cost_values = {c for row in costs for c in row}
    # wanted[m]: the thresholds asked with m positions above, clamped at 0
    wanted = [{d}]
    for _ in range(n):
        wanted.append({t - c if t > c else 0 for t in wanted[-1] for c in cost_values})
    far = {t: [0 if t else 1] for t in wanted.pop()}  # the empty word
    for k in range(1, n + 1):
        size = 4 ** (k - 1)  # words of the tail's length
        blocks = {}  # (t, u): far[t] moved up into leading digit u's block
        longer = {}
        for t in wanted.pop():
            rows = []
            for cost in costs:
                parts = []
                for u, c in enumerate(cost):
                    key = (t - c if t > c else 0, u)
                    if key not in blocks:
                        blocks[key] = [row << (u * size) for row in far[key[0]]]
                    parts.append(blocks[key])
                rows += [w | x | y | z for w, x, y, z in zip(*parts)]
            longer[t] = rows
        far = longer
    return DistanceGraph(n, d, lam, _search_order(n), tuple(far[d]))


def _color_order(cand: int, inv, floor: int) -> list:
    """Greedy colouring of ``cand``, as the bitmasks of its classes
    above colour ``floor``: ``classes[k]`` has colour ``floor + k + 1``.

    Each class takes, lowest index first, every remaining vertex not
    adjacent to one it already holds; ``inv[v]`` is the bitmask of the
    vertices other than v and not adjacent to it.
    """
    classes = []
    color = 0
    while cand:
        color += 1
        cls = 0
        avail = cand
        while avail:
            bit = avail & -avail
            cls |= bit
            avail &= inv[bit.bit_length() - 1]
        cand ^= cls
        if color > floor:
            classes.append(cls)
    return classes


def _max_clique(adj, cand: int, stop_at: int = None, words=None,
                incumbent: int = 0) -> tuple:
    """Largest clique inside ``cand``, as ``(size, members)``.

    ``members`` is a bitmask.  ``incumbent``, a clique inside ``cand``
    as a bitmask, is the clique to beat: the search looks only for
    larger ones and returns it when there is none.  Tomita-style search
    (Tomita and Kameda, 2007): a greedy colouring of the candidate set
    upper bounds any clique through it, so branches that cannot beat
    the incumbent are cut.  The colouring is bit-parallel as in BBMC
    (San Segundo, Rodríguez-Losada and Jiménez, 2011): each colour class
    is one bitmask, grown by masking the still-available vertices with
    ``inv[v]``, the vertices neither v nor adjacent to it, built once
    per call.  A node at depth ``size`` keeps only the classes above
    ``floor = best - size``: a vertex of a lower class can never be
    branched on, as ``best`` only grows.  The kept classes are walked
    from the highest colour down, and each from its highest vertex
    down, rechecking the bound before every vertex.  ``stop_at = k``
    (k >= 1) answers whether a k-clique exists: it returns the first
    one found, or ``(k - 1, 0)`` when there is none; an incumbent of
    at least k vertices is that answer at once.

    Given ``words``, the word of each vertex, ``cand`` must be a union
    of word orbits of the metric's isometry group.  Then in the first
    ``ORBIT_LEVELS`` levels a branch on v ends by dropping v's whole
    orbit under the isometries that fix the clique so far, not v alone.
    Such an isometry maps any clique through the clique so far and a
    member of that orbit onto one through v, and it maps the remaining
    candidates onto themselves, as they are what is left of whole
    orbits; so v's branch has already met a clique that large.  At the
    top, where nothing is fixed, that leaves n + 1 branches, one per
    value of ``pair_weight``.
    """
    best, members = incumbent.bit_count(), incumbent
    if stop_at is not None:
        if best >= stop_at:
            return best, members
        best, members = stop_at - 1, 0
    full = (1 << len(adj)) - 1
    inv = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    if words is not None:
        have = _symbol_index(words, words[0].n)

    def expand(size: int, cand: int, clique: int) -> bool:
        # True once a stop_at-sized clique is found: every caller returns
        nonlocal best, members
        orbits = None
        floor = best - size
        classes = _color_order(cand, inv, floor)
        color = floor + len(classes)
        for cls in reversed(classes):
            while cls:
                if size + color <= best:
                    return False
                v = cls.bit_length() - 1
                bit = 1 << v
                cls ^= bit
                if not cand & bit:
                    continue  # dropped with an earlier vertex's orbit
                grown = clique | bit
                if size + 1 > best:
                    best, members = size + 1, grown
                    if stop_at is not None and best >= stop_at:
                        return True
                sub = cand & adj[v]
                if sub and expand(size + 1, sub, grown):
                    return True
                if words is None or size >= ORBIT_LEVELS:
                    cand ^= bit
                    continue
                if orbits is None:
                    fixed = [words[u].digits() for u in range(len(adj)) if (clique >> u) & 1]
                    orbits = _stabilizer_orbits(have, list(zip(*fixed)) or [()] * len(have))
                cand &= ~next(o for o in orbits if o & bit)
            color -= 1
        return False

    expand(0, cand, 0)
    # expand refers to itself; unlinking it frees what it holds now,
    # not at the next garbage collection.
    del expand
    return best, members


@lru_cache(maxsize=None)
def _column_parts(fixed: tuple) -> tuple:
    """The four symbols, grouped by the class of the column ``fixed``
    extends to with them.

    ``fixed`` holds the symbols some words have at one position.  Two
    columns are in one class when one of the four maps a position
    allows (``core._POSITION_MAPS``) carries one onto the other; each
    class is named by its smallest member.
    """
    groups = {}
    for t in range(4):
        column = fixed + (t,)
        name = min(tuple([m[s] for s in column]) for m in _POSITION_MAPS)
        groups.setdefault(name, []).append(t)
    return tuple((name, tuple(symbols)) for name, symbols in groups.items())


def _stabilizer_orbits(have, columns) -> list:
    """Orbits of the isometries that fix some words, as bitmasks.

    ``have`` is the symbol index of all words and ``columns[k]`` the
    tuple of the fixed words' symbols at position k.  Two words share
    an orbit when each class of ``_column_parts`` takes equally many of
    their positions: a permutation pairs those positions, and
    per-position maps carry each column onto its partner.  With no
    word fixed the orbits are the n + 1 classes of ``pair_weight``.
    """
    shift = len(have).bit_length()  # bits enough for a count of positions
    kinds = {}
    classes = {0: -1}  # counts so far -> words; -1 holds every word
    for col, fixed in zip(have, columns):
        parts = []
        for name, symbols in _column_parts(fixed):
            part = 0
            for t in symbols:
                part |= col[t]
            parts.append((1 << (shift * kinds.setdefault(name, len(kinds))), part))
        refined = {}
        for key, mask in classes.items():
            for step, part in parts:
                sub = mask & part
                if sub:
                    refined[key + step] = refined.get(key + step, 0) | sub
        classes = refined
    return list(classes.values())


def _lexicode(adj, order, cand: int) -> list:
    """The greedy clique of ``cand`` in ``order``, as a list in that order.

    Each vertex of ``cand`` is kept when it is adjacent to all those
    kept before it (Conway and Sloane, *Lexicographic codes*, 1986).
    """
    kept = []
    for v in order:
        if not cand:
            break
        if (cand >> v) & 1:
            kept.append(v)
            cand &= adj[v]
    return kept


def _lowest_max_clique(adj, order, witness: int) -> list:
    """The maximum clique that comes first in ``order``, as a list in that order.

    ``witness`` is any maximum clique, as a bitmask.  Greedy extension:
    a vertex is taken when some maximum clique of the remaining
    candidates contains it.  What is left of the witness answers most
    of these questions: a vertex in it, or one non-adjacent to exactly
    one of its members (which it then replaces), is taken without a
    search.  Before a query on a vertex k, the lexicode (``_lexicode``)
    of k's remaining neighbours over the vertices after k in ``order``
    is tried; when it has ``need - 1`` vertices, k and it end the list.

    That ending is the one the greedy extension would build.  Every
    vertex of ``cand`` before k lies on no maximum clique with those
    chosen, so k is next in the first maximum clique once any contains
    k, and the completion g shows that one does.  Let m be the rest of
    another maximum clique through k, both in order, and i the first
    place where they differ.  ``m[i]`` comes after ``m[i - 1] = g[i - 1]``
    (after k when i = 0), lies in ``rest`` and is adjacent to ``g[:i]``,
    so the greedy scan met it and took ``g[i]`` no later: g comes first.
    Both have ``need - 1`` vertices, so neither is a prefix of the other.
    """
    full = (1 << len(adj)) - 1
    size = witness.bit_count()
    # Invariant: ``witness`` is a clique of ``need`` vertices inside
    # ``cand``, and no clique inside ``cand`` is larger.
    chosen = []
    cand = full
    need = size
    for i, k in enumerate(order):
        if need == 0:
            break
        if not (cand >> k) & 1:
            continue
        bit = 1 << k
        rest = cand & adj[k]
        misses = witness & ~bit & ~adj[k]
        if misses & (misses - 1):
            completion = _lexicode(adj, order[i + 1:], rest)
            if len(completion) == need - 1:
                chosen += [k, *completion]
                break
            found, members = _max_clique(adj, rest, need - 1)
            if found < need - 1:
                continue
            witness = members
        else:
            witness &= ~bit & ~misses
        chosen.append(k)
        cand = rest
        need -= 1
    if len(chosen) != size:
        raise RuntimeError("greedy extension lost the maximum clique")
    return chosen


def exact_max_code(n: int, d: int, lam: int):
    """Exact largest code size, with a reproducible maximizing codebook.

    The witness is the lexicographically lowest maximum codebook in
    digit order.  The lexicode of the whole graph over the words in
    digit order (``_lexicode``) comes first, and the search only has to
    beat it.  The maximum clique the search returns, the lexicode when
    nothing beats it, starts the greedy extension
    (``_lowest_max_clique``), whose queries search without orbit
    pruning: their candidate sets are not unions of orbits.  When the
    lexicode is maximum, every step of that extension takes a vertex of
    the witness without a search, and it ends on the lexicode.

    Optimality is proved once per word orbit of the metric's isometry
    group (``core.Automorphism``), whose n + 1 orbits are the words with
    a given number of mixed positions, and at the next two levels once
    per orbit of the isometries fixing the words chosen so far: the one
    ``_max_clique`` call given ``words``.  It searches the graph's rows
    in search order as ``distance_graph`` builds them.
    """
    graph = distance_graph(n, d, lam)
    adj, words = graph.adjacency, graph.vertices
    order = _search_index(n)
    full = (1 << len(words)) - 1
    incumbent = sum(1 << v for v in _lexicode(adj, order, full))
    size, witness = _max_clique(adj, full, words=words, incumbent=incumbent)
    chosen = _lowest_max_clique(adj, order, witness)
    book = Codebook(
        n=n,
        lam=lam,
        design_distance=d,
        construction="exact_search",
        params={"vertices": len(words)},
        words=tuple(words[k] for k in chosen),
    )
    got = min_distance(book, lam)
    if got < d and size > 1:
        raise RuntimeError(f"witness distance {got} below {d}")
    return size, book


def averaging_lower_bound(n: int, d: int) -> int:
    """Some congruence coset holds at least the average share of all words."""
    _check_int(n, "n", 1)
    if _check_int(d, "d", 1) % 2 == 0:
        raise ValueError("odd minimum distance required")
    return -((-(4 ** n)) // (d * (n + 1) ** (d // 2)))


def _lower_candidates(n: int, d: int, lam: int):
    """Verified constructive lower bounds applicable at these parameters."""
    yield 1, "singleton"
    # the all-0 and all-3 words differ by n inversions, each 2(1 + lam)
    if 2 * (1 + lam) * n >= d:
        yield 2, "all-same-symbol pair"
    if d <= lam:
        # any two distinct words already differ by at least one cheap swap
        yield 4 ** n, "full space"
    candidates = [(build_cp(n), "single-parity")]
    if n == 2:
        candidates.append((build_cl(2, 0), "strand-sum kernel"))
    if n == 4 and d == 3:
        _, _, coset = best_cn_coset(OddPrimeField(5), d)
        candidates.append((coset, "power-sum coset"))
    for book, source in candidates:
        if book.size >= 2 and min_distance(book, lam) >= d:
            yield book.size, source
    if lam == 1 and d % 2 == 1:
        yield averaging_lower_bound(n, d), "coset averaging"


def _weights1(module, n, d, lam, budget_secs):
    if lam != 1:
        raise ValueError("weights1 weights are defined at lambda=1 only")
    if d < 3:
        raise ValueError("weights1 requires d >= 3")
    try:
        # the radius-(d-1)//2 cover bounds codes of even distance d too
        return module.weights1_bound(n, (d - 1) // 2)
    except ArithmeticError as err:
        # the capped system's weights fail the cover check at some radii
        raise ValueError(f"weights1 recipe is infeasible at n={n}, d={d}: {err}") from err


def _optimal1(module, n, d, lam, budget_secs):
    if d is not None and d != 2 * lam + 1:  # None asks for its own distance
        raise ValueError(f"optimal1 is the distance-{2 * lam + 1} closed form at this lambda")
    return module.optimal1_bound(n, lam)


# The upper-bound methods: method -> bound(module, n, d, lam, budget_secs),
# a report.  Each entry calls its bound function as an attribute of
# ``module``, so ``cli`` and this module each read their own names, and a
# wrapper set on either is used.  An entry raises ValueError at a cell
# where its method gives no bound (lp, naive and simple refuse d < 2 in
# ``hyperbound``); only delsarte takes the budget.
_UPPER_BOUNDS = {
    "lp": lambda module, n, d, lam, budget_secs: module.lp_hypergraph_bound(n, d, lam),
    "naive": lambda module, n, d, lam, budget_secs: module.naive_weight_bound(n, d, lam),
    "simple": lambda module, n, d, lam, budget_secs: module.simple_bound(n, d, lam),
    "weights1": _weights1,
    "optimal1": _optimal1,
    "delsarte": lambda module, n, d, lam, budget_secs: module.delsarte_bound(
        n, d, lam, budget_secs=budget_secs),
}


@dataclass(frozen=True)
class SandwichReport:
    """Exact value pinned between verified lower and upper bounds;
    ``skipped`` names each upper-bound method that gave none, and why."""

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
    new mathematics; the offending pair of numbers is spelled out.  The
    upper bounds are the whole space and each method of ``_UPPER_BOUNDS``;
    one that raises ``ValueError`` or ``BudgetExceeded`` is skipped with
    its message, and any other exception propagates.
    """
    Budget(delsarte_budget_secs)  # a bad budget is the caller's error, not a skip
    exact, witness = exact_max_code(n, d, lam)
    lower, lower_source = 0, "none"
    for size, source in _lower_candidates(n, d, lam):
        if size > lower:
            lower, lower_source = size, source
    uppers = [("space", 4 ** n)]
    skipped = []
    for method, bound in _UPPER_BOUNDS.items():
        try:
            report = bound(sys.modules[__name__], n, d, lam, delsarte_budget_secs)
        except (ValueError, BudgetExceeded) as reason:
            skipped.append((method, str(reason)))
        else:
            uppers.append((method, report.floored))
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
