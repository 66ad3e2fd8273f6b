import hashlib
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest
from conftest import _budget_spent_at
from hypothesis import given, settings, strategies as st

import aldkit.search_verify as sv
from aldkit import delsarte
from aldkit.codes import Codebook, OddPrimeField, best_cn_coset, build_cl, build_cp
from aldkit.core import (
    Automorphism,
    BudgetExceeded,
    PairedWord,
    ald_distance,
    all_words,
    apply_automorphism,
    pair_weight,
)
from aldkit.search_verify import (
    DistanceGraph,
    averaging_lower_bound,
    distance_graph,
    exact_max_code,
    min_distance,
    sandwich_check,
    symbol_distance_table,
)


# ------------------------------------------------------------- chunk table


def test_symbol_table_matches_the_metric():
    for lam in (1, 2):
        table = symbol_distance_table(lam)
        assert len(table) == 256
        for x in range(16):
            xw = PairedWord(2, x & 3, x >> 2)
            for y in range(16):
                yw = PairedWord(2, y & 3, y >> 2)
                assert table[(x << 4) | y] == ald_distance(xw, yw, lam)
        assert all(table[(x << 4) | x] == 0 for x in range(16))


def test_symbol_table_scales_with_lambda():
    t1, t2 = symbol_distance_table(1), symbol_distance_table(2)
    assert any(a != b for a, b in zip(t1, t2))
    assert all(a <= b for a, b in zip(t1, t2))


def test_position_costs_match_the_metric():
    for lam in (1, 2, 3):
        costs = sv._position_costs(lam)
        for s in range(4):
            for t in range(4):
                x, y = PairedWord.from_digits(str(s)), PairedWord.from_digits(str(t))
                assert costs[s][t] == ald_distance(x, y, lam)


def test_digit_order_sorts_every_word_by_its_digits():
    # Search order reads each digit through SEARCH_DIGITS, pure symbols
    # first; _search_index maps digit order onto it.
    assert sv.SEARCH_DIGITS == (0, 3, 1, 2)
    for n in range(1, 6):
        words = sv._search_order(n)
        assert words == tuple(sorted(
            all_words(n), key=lambda w: [sv.SEARCH_DIGITS.index(int(c)) for c in w.to_digits()]
        ))
        where = {w: i for i, w in enumerate(words)}
        by_digits = sorted(all_words(n), key=PairedWord.to_digits)
        assert sv._search_index(n) == tuple(where[w] for w in by_digits)


def test_symbol_index_matches_each_words_symbols():
    # Lengths around the byte boundaries, up to three bytes per strand.
    rng = random.Random(0)
    for n in (1, 2, 7, 8, 9, 15, 16, 17, 20):
        for count in (1, 5, 40):
            words = [PairedWord(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]
            want = [[0] * 4 for _ in range(n)]
            for i, w in enumerate(words):
                for k, s in enumerate(w.digits()):
                    want[k][s] |= 1 << i
            assert sv._symbol_index(words, n) == [tuple(row) for row in want]


# ----------------------------------------------------------- pair-scan oracle


def test_min_distance_known_codes():
    assert min_distance(build_cp(2), 1) == 2
    assert min_distance(build_cl(2, 0), 1) == 3
    assert min_distance(build_cl(3, 0), 1) == 3


def test_min_distance_agrees_with_direct_scan():
    book = build_cp(2)
    for lam in (1, 2, 3):
        direct = min(
            ald_distance(x, y, lam) for x, y in combinations(book.words, 2)
        )
        assert min_distance(book, lam) == direct


@st.composite
def word_lists(draw):
    """Random lists of 0..300 distinct words of one length, then up to
    three of them repeated, each at a drawn place."""
    n = draw(st.integers(1, 7))
    count = draw(st.integers(0, min(300, 4**n)))
    picks = draw(st.lists(st.integers(0, 4**n - 1), min_size=count,
                          max_size=count, unique=True))
    if picks:
        for _ in range(draw(st.integers(0, 3))):
            word = draw(st.sampled_from(picks))
            picks.insert(draw(st.integers(0, len(picks))), word)
    return tuple(PairedWord(n, c & ((1 << n) - 1), c >> n) for c in picks)


# Codebook refuses repeated words; the scan reads only ``words``, so a
# plain namespace carries lists with repeats, whose distance must be 0.
@settings(max_examples=80)
@given(word_lists(), st.integers(1, 4))
def test_min_distance_agrees_with_direct_scan_on_random_lists(words, lam):
    direct = min(
        (ald_distance(x, y, lam) for x, y in combinations(words, 2)),
        default=math.inf,
    )
    got = min_distance(SimpleNamespace(words=words), lam)
    assert got == direct
    assert (got == 0) == (len(set(words)) < len(words))


def test_min_distance_of_a_repeated_word_is_zero():
    words = tuple(PairedWord.from_digits(t) for t in ("0123", "3210", "0123"))
    assert min_distance(SimpleNamespace(words=words), 1) == 0
    words = build_cp(4).words
    assert min_distance(SimpleNamespace(words=words + words[-1:]), 1) == 0
    assert min_distance(SimpleNamespace(words=words[7:8] + words), 2) == 0


# SHA-256 of the scan books of the exact-search benchmark: per book a
# line with its name and min_distance at lam = 1, 2, 3, then a line of
# its words' digit strings in book order.
SCAN_BOOKS_DIGEST = "7e072d48ca94ca6a04b963989c04d7d9dd92cd2bd71fc56b0d4f3562025cb769"


def test_scan_books_match_their_pinned_digest():
    books = {"cl3": build_cl(3, 0), "cp5": build_cp(5), "cp6": build_cp(6),
             "cn5": best_cn_coset(OddPrimeField(5), 3)[2]}
    lines = []
    for name, book in books.items():
        lines.append(f"{name} " + " ".join(str(min_distance(book, lam)) for lam in (1, 2, 3)))
        lines.append(" ".join(w.to_digits() for w in book.words))
    assert lines[::2] == ["cl3 3 5 7", "cp5 2 3 4", "cp6 2 3 4", "cn5 4 6 8"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SCAN_BOOKS_DIGEST


def test_min_distance_degenerate_sizes():
    single = Codebook(
        n=2, lam=1, design_distance=1, construction="manual", params={},
        words=(PairedWord(2, 0, 0),),
    )
    assert min_distance(single, 1) == math.inf
    empty = Codebook(
        n=2, lam=1, design_distance=1, construction="manual", params={},
        words=(),
    )
    assert min_distance(empty, 1) == math.inf


def test_min_distance_checks_lam_below_two_words():
    for words in ((), (PairedWord(2, 0, 0),)):
        book = Codebook(n=2, lam=1, design_distance=1, construction="manual",
                        params={}, words=words)
        with pytest.raises(ValueError, match="lam must"):
            min_distance(book, 0)


def test_min_distance_refuses_implicit_codebooks():
    with pytest.raises(BudgetExceeded):
        min_distance(build_cl(4, 0), 1)


def test_min_distance_refuses_oversized_scans():
    words = tuple(
        PairedWord(9, a, b) for a in range(256) for b in range(256)
    ) + (PairedWord(9, 256, 0),)
    book = Codebook(
        n=9, lam=1, design_distance=1, construction="manual", params={},
        words=words,
    )
    with pytest.raises(BudgetExceeded):
        min_distance(book, 1)


# ------------------------------------------------------- distinguishability graph


def test_graph_structure_at_one_position():
    g = distance_graph(1, 2, 1)
    assert isinstance(g, DistanceGraph)
    assert [w.to_digits() for w in g.vertices] == ["0", "3", "1", "2"]
    assert [g.degree(i) for i in range(4)] == [3, 3, 2, 2]
    assert not g.adjacent(2, 3)  # the two mixed symbols sit at distance 1
    assert g.adjacent(0, 1)


def test_graph_is_symmetric_and_loop_free():
    g = distance_graph(2, 3, 1)
    nv = len(g.vertices)
    for i in range(nv):
        assert not g.adjacent(i, i)
        for j in range(nv):
            assert g.adjacent(i, j) == g.adjacent(j, i)
            if g.adjacent(i, j):
                assert ald_distance(g.vertices[i], g.vertices[j], 1) >= 3


def _definition_distance(x, y, lam):
    """The asymmetric Lee distance from its definition, apart from ``core``.

    Per position: 0 on equal symbols, λ for swapping the mixed symbols
    (1;0) and (0;1), 2(1 + λ) for inverting the pure symbols (0;0) and
    (1;1), and 1 + λ for flipping a single strand bit.
    """
    total = 0
    for s, t in zip(x.symbols(), y.symbols()):
        if s == t:
            continue
        if s[0] != s[1] and t[0] != t[1]:
            total += lam
        elif s[0] == s[1] and t[0] == t[1]:
            total += 2 * (1 + lam)
        else:
            total += 1 + lam
    return total


# Every d up to one past the diameter 2(1 + λ)n.
GRAPH_CELLS = [
    (n, d, lam)
    for lam in (1, 2, 3)
    for n in (1, 2, 3)
    for d in range(1, 2 * (1 + lam) * n + 2)
] + [(4, d, lam) for lam in (1, 2, 3) for d in (2, 6, 10, 8 * (1 + lam) + 1)]
# Far past the costs: at λ = 1000 a swap costs d = 1000 and falls short
# of 1001, 6006 is the diameter and 6007 one past it; at (4, 10^9, 1)
# every row is empty.
EXTREME_GRAPH_CELLS = [(3, d, 1000) for d in (1000, 1001, 2002, 4004, 6006, 6007)] + [
    (4, 10**9, 1)
]


def test_graph_adjacency_matches_pairwise_distances():
    distances = {}
    for n, d, lam in GRAPH_CELLS + EXTREME_GRAPH_CELLS:
        g = distance_graph(n, d, lam)
        if (n, lam) not in distances:
            distances[(n, lam)] = [
                [_definition_distance(x, y, lam) for y in g.vertices] for x in g.vertices
            ]
        want = tuple(
            sum(1 << j for j, dist in enumerate(row) if dist >= d)
            for row in distances[(n, lam)]
        )
        assert g.adjacency == want, (n, d, lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_degree_depends_only_on_pair_weight(n):
    # The isometries move any word to any other with as many mixed
    # positions; exact_max_code's orbit pruning relies on it.  Words with
    # fewer mixed positions have at least as many neighbours, which is
    # why the search order takes the pure symbols first.
    for lam in (1, 2):
        for d in (1, lam + 1, 3, 2 * (1 + lam), 2 * (1 + lam) * n):
            g = distance_graph(n, d, lam)
            degrees = {}
            for i, w in enumerate(g.vertices):
                degrees.setdefault(pair_weight(w), set()).add(g.degree(i))
            assert sorted(degrees) == list(range(n + 1))
            assert all(len(seen) == 1 for seen in degrees.values()), (n, d, lam, degrees)
            by_weight = [degrees[w].pop() for w in range(n + 1)]
            assert by_weight == sorted(by_weight, reverse=True), (n, d, lam)


def test_graph_budget_and_validation():
    with pytest.raises(BudgetExceeded):
        distance_graph(5, 3, 1)
    with pytest.raises(ValueError):
        distance_graph(0, 3, 1)
    with pytest.raises(ValueError):
        distance_graph(2, 0, 1)
    for n, d in ((2, 2.5), (True, 1), (2.0, 3), (2, True)):
        with pytest.raises(ValueError):
            distance_graph(n, d, 1)
        with pytest.raises(ValueError):
            exact_max_code(n, d, 1)


# ------------------------------------------------------------- exact search


KNOWN_OPTIMA = [
    ((1, 1, 1), 4),
    ((1, 2, 1), 3),
    ((1, 3, 1), 2),
    ((2, 2, 1), 10),
    ((2, 3, 1), 5),
    ((4, 6, 1), 11),
]


# exact_max_code is deterministic; the cells pinned twice, below and in
# PINNED_WITNESSES, are searched once.
_exact = lru_cache(maxsize=None)(exact_max_code)


@pytest.mark.parametrize("cell,want", KNOWN_OPTIMA)
def test_exact_values(cell, want):
    size, book = _exact(*cell)
    assert size == want
    assert len(book) == want
    n, d, lam = cell
    assert min_distance(book, lam) >= d or want <= 1


def test_exact_search_builds_its_graph_through_the_module_attribute(monkeypatch):
    # Profilers time and count the graph build by wrapping
    # search_verify.distance_graph; exact_max_code must build its one
    # graph through that attribute, not around it.
    want_size, want_book = exact_max_code(2, 3, 1)
    build = sv.distance_graph
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sv, "distance_graph", counting)
    size, book = exact_max_code(2, 3, 1)
    assert calls == [(2, 3, 1)]
    assert size == want_size == 5
    assert book.words == want_book.words


def _count_colourings(monkeypatch):
    """Count ``_color_order`` calls: one per search node."""
    colour = sv._color_order
    calls = [0]

    def counting(cand, inv, floor):
        calls[0] += 1
        return colour(cand, inv, floor)

    monkeypatch.setattr(sv, "_color_order", counting)
    return calls


def test_exact_search_work_is_pinned(monkeypatch):
    # A deterministic work count: every search node colours its
    # candidates once, and search order takes 27,775 at (4,5,1).
    calls = _count_colourings(monkeypatch)
    assert exact_max_code(4, 5, 1)[0] == 16
    assert calls[0] <= 27_775


# The exact_max_code cells of the exact-search benchmark workload.
BENCHMARK_EXACT_CELLS = [
    (n, d, lam) for n in (1, 2, 3) for lam in (1, 2) for d in range(1, 11)
] + [
    (4, 2, 1), (4, 4, 1), (4, 7, 1), (4, 8, 1), (4, 9, 1), (4, 10, 1),
    (4, 3, 2), (4, 6, 2), (4, 10, 2), (4, 12, 2),
]


def test_benchmark_cells_work_is_pinned(monkeypatch):
    # The same count over the 70 benchmark cells: 421 in search order.
    calls = _count_colourings(monkeypatch)
    for cell in BENCHMARK_EXACT_CELLS:
        exact_max_code(*cell)
    assert len(BENCHMARK_EXACT_CELLS) == 70
    assert calls[0] <= 421


def test_exact_search_keeps_a_maximum_lexicode(monkeypatch):
    # (4,2,1): the lexicode has all 136 words of the parity code, so the
    # search colours its root once, cuts it, and the lexicode is the
    # witness.  (3,3,1): the lexicode has 15 words against 19, so the
    # search beats it and the greedy extension finds the witness.
    calls = _count_colourings(monkeypatch)
    extend = sv._lowest_max_clique
    extensions = []

    def counting(adj, order, witness):
        extensions.append(witness.bit_count())
        return extend(adj, order, witness)

    monkeypatch.setattr(sv, "_lowest_max_clique", counting)
    assert exact_max_code(4, 2, 1)[0] == 136
    assert (calls[0], extensions) == (1, [])
    graph = distance_graph(3, 3, 1)
    full = (1 << len(graph.vertices)) - 1
    assert len(sv._lexicode(graph.adjacency, sv._search_index(3), full)) == 15
    assert exact_max_code(3, 3, 1)[0] == 19
    assert extensions == [19]


def test_exact_search_checks_its_witness_under_optimisation():
    # The witness re-check is an explicit raise, so ``python -O`` keeps it.
    src = os.path.dirname(os.path.dirname(sv.__file__))
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import aldkit.search_verify as sv;"
        "sv.min_distance = lambda book, lam: book.design_distance - 1;"
        "sv.exact_max_code(2, 3, 1)"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, src],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "RuntimeError: witness distance 2 below 3" in proc.stderr


def test_exact_witnesses_are_lexicographically_lowest():
    _, book = exact_max_code(1, 2, 1)
    assert [w.to_digits() for w in book.words] == ["0", "1", "3"]
    _, book = exact_max_code(2, 3, 1)
    assert [w.to_digits() for w in book.words] == ["00", "03", "11", "30", "33"]
    again = exact_max_code(2, 3, 1)[1]
    assert [w.to_digits() for w in again.words] == [
        w.to_digits() for w in book.words
    ]


# Size and SHA-256 of the newline-joined sorted digit strings of the
# witness, as the pair-by-pair search first found it: every n = 3 cell
# with d <= 10 and the ten n = 4 cells the benchmark times; (4, 6, 1)
# as the search before the orbit reduction found it, in about 40 s.  A
# faster search must return the same lexicographically lowest maximum
# code.
PINNED_WITNESSES = {
    (3, 1, 1): (64, "f169a41eafba72f881d310a193c53528f7354a8733769f3efcf9547ce3ca1e9f"),
    (3, 2, 1): (36, "49da666952e020b1da5847a84ad1b81fbab4dd4d70c07093ea9dee3f177f9819"),
    (3, 3, 1): (19, "aca0fbc46def9bbe81c7bdacb677257487b38b089194ec9156ab2c4dd8f77c0b"),
    (3, 4, 1): (15, "3137da3c4b17d84750dc58448afb9cf90c0c8e4eec7af1973dd9d531e2fa899d"),
    (3, 5, 1): (6, "6260ccc2703191a98cb5aac55efbd363f42b99eea6396d12d065810676b984f6"),
    (3, 6, 1): (5, "59a364f6ceda3049de486053321c9fb1cc3763961571c2dedca9f81a481e29f5"),
    (3, 7, 1): (4, "108d3665bf22dcddd8330516e4ad8061130dfc9967ea61c31dbebda42b4b86ed"),
    (3, 8, 1): (4, "108d3665bf22dcddd8330516e4ad8061130dfc9967ea61c31dbebda42b4b86ed"),
    (3, 9, 1): (2, "b0ec718cdc1d35cd2ce4be84e0bb60efee4b30c67373cac9d7859665531d2b40"),
    (3, 10, 1): (2, "b0ec718cdc1d35cd2ce4be84e0bb60efee4b30c67373cac9d7859665531d2b40"),
    (3, 1, 2): (64, "f169a41eafba72f881d310a193c53528f7354a8733769f3efcf9547ce3ca1e9f"),
    (3, 2, 2): (64, "f169a41eafba72f881d310a193c53528f7354a8733769f3efcf9547ce3ca1e9f"),
    (3, 3, 2): (36, "49da666952e020b1da5847a84ad1b81fbab4dd4d70c07093ea9dee3f177f9819"),
    (3, 4, 2): (22, "a05cbc58634649c46b3d8cab3b6855d7a62785c97b020b58cb1bec4116869fb9"),
    (3, 5, 2): (19, "aca0fbc46def9bbe81c7bdacb677257487b38b089194ec9156ab2c4dd8f77c0b"),
    (3, 6, 2): (15, "3137da3c4b17d84750dc58448afb9cf90c0c8e4eec7af1973dd9d531e2fa899d"),
    (3, 7, 2): (6, "6260ccc2703191a98cb5aac55efbd363f42b99eea6396d12d065810676b984f6"),
    (3, 8, 2): (6, "6260ccc2703191a98cb5aac55efbd363f42b99eea6396d12d065810676b984f6"),
    (3, 9, 2): (5, "59a364f6ceda3049de486053321c9fb1cc3763961571c2dedca9f81a481e29f5"),
    (3, 10, 2): (4, "108d3665bf22dcddd8330516e4ad8061130dfc9967ea61c31dbebda42b4b86ed"),
    (4, 2, 1): (136, "ee2dd65c986e2da79c47a6791013cd369d290f4c3da2beac8f82a24fa2b487e2"),
    (4, 4, 1): (49, "abc92724e7a1630d2b9d389d7e4bf78fc2cc1f5b5aae81b54fe470cba92f3371"),
    (4, 7, 1): (9, "0bd7fb54345bac36371627b1d0e32f16dc47f2cce49d42f311748ad1d934f77d"),
    (4, 8, 1): (9, "0bd7fb54345bac36371627b1d0e32f16dc47f2cce49d42f311748ad1d934f77d"),
    (4, 9, 1): (4, "3c98e74bd1e61878716bb2be3408bf0ff9f4b174d3a2fbcde607b724305b8493"),
    (4, 10, 1): (3, "3bfd90dc9f8787864a453b3fd5cfd6d555fe29bb856d45489943859313e7bb64"),
    (4, 3, 2): (136, "ee2dd65c986e2da79c47a6791013cd369d290f4c3da2beac8f82a24fa2b487e2"),
    (4, 6, 2): (49, "abc92724e7a1630d2b9d389d7e4bf78fc2cc1f5b5aae81b54fe470cba92f3371"),
    (4, 10, 2): (9, "0bd7fb54345bac36371627b1d0e32f16dc47f2cce49d42f311748ad1d934f77d"),
    (4, 12, 2): (9, "0bd7fb54345bac36371627b1d0e32f16dc47f2cce49d42f311748ad1d934f77d"),
    (4, 6, 1): (11, "4f2c803daf3a6ab535c82f55467116007a2e3b8d5bada1339c41224023840c7d"),
}


@pytest.mark.parametrize("cell", list(PINNED_WITNESSES),
                         ids=lambda c: "-".join(map(str, c)))
def test_exact_witness_matches_its_pinned_digest(cell):
    size, book = _exact(*cell)
    digits = sorted(w.to_digits() for w in book.words)
    digest = hashlib.sha256("\n".join(digits).encode()).hexdigest()
    assert size == len(digits)
    assert (len(digits), digest) == PINNED_WITNESSES[cell]


def _adjacency(nv, edges):
    adj = [0] * nv
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _lowest(adj, order):
    """``_lowest_max_clique`` started from whichever maximum clique the search finds."""
    _, witness = sv._max_clique(adj, (1 << len(adj)) - 1)
    return sv._lowest_max_clique(adj, order, witness)


def test_lowest_max_clique_does_not_take_a_two_miss_candidate():
    # The only triangle is {1, 2, 3}; vertex 0 misses two of its members
    # and lies on no triangle, so it must not be taken.
    adj = _adjacency(4, [(0, 3), (1, 2), (1, 3), (2, 3)])
    assert _lowest(adj, range(4)) == [1, 2, 3]


def test_lowest_max_clique_swaps_in_a_one_miss_candidate():
    # Triangles {0, 2, 3} and {1, 2, 3}; in order 1, 0, 2, 3 the first is
    # 1, 2, 3 whichever triangle the search found first.
    adj = _adjacency(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert _lowest(adj, [1, 0, 2, 3]) == [1, 2, 3]
    assert _lowest(adj, [0, 1, 2, 3]) == [0, 2, 3]
    for witness in (0b1101, 0b1110):
        assert sv._lowest_max_clique(adj, [1, 0, 2, 3], witness) == [1, 2, 3]


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    edges = [p for p in pairs if draw(st.booleans())]
    order = draw(st.permutations(range(nv)))
    return _adjacency(nv, edges), order


@settings(max_examples=200)
@given(st.data())
def test_color_order_is_greedy_first_fit(data):
    nv = data.draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    adj = _adjacency(nv, [p for p in pairs if data.draw(st.booleans())])
    cand = data.draw(st.integers(0, (1 << nv) - 1))
    full = (1 << nv) - 1
    inv = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    classes = sv._color_order(cand, inv, 0)
    assert all(classes)
    # disjoint, covering exactly the candidates, and independent
    assert sum(map(int.bit_count, classes)) == cand.bit_count()
    union = 0
    for cls in classes:
        union |= cls
    assert union == cand
    for cls in classes:
        assert all(not cls & adj[v] for v in range(nv) if (cls >> v) & 1)
    # first fit: each vertex meets a lower-indexed neighbour in every
    # earlier class, and none in its own (independence)
    for k, cls in enumerate(classes):
        for v in range(nv):
            if (cls >> v) & 1:
                below = (1 << v) - 1
                assert all(earlier & adj[v] & below for earlier in classes[:k]), (v, k)
    for floor in range(len(classes) + 2):
        assert sv._color_order(cand, inv, floor) == classes[floor:]


@settings(max_examples=150)
@given(small_graphs())
def test_lowest_max_clique_agrees_with_brute_force(graph):
    adj, order = graph
    nv = len(adj)
    rank = {v: r for r, v in enumerate(order)}
    cliques = [
        sorted(c, key=rank.get)
        for size in range(1, nv + 1)
        for c in combinations(range(nv), size)
        if all((adj[i] >> j) & 1 for i, j in combinations(c, 2))
    ]
    top = max(len(c) for c in cliques)
    want = min((c for c in cliques if len(c) == top), key=lambda c: [rank[v] for v in c])
    assert _lowest(adj, order) == want
    # exact_max_code's path: the lexicode, the search seeded with it, and
    # the greedy extension only when the search beat it
    lexicode = sv._lexicode(adj, order, (1 << nv) - 1)
    assert lexicode in cliques
    size, witness = sv._max_clique(adj, (1 << nv) - 1, incumbent=_mask(lexicode))
    assert size == top
    if size == len(lexicode):
        assert lexicode == want
    assert sv._lowest_max_clique(adj, order, witness) == want


@settings(max_examples=150)
@given(small_graphs())
def test_max_clique_agrees_with_brute_force(graph):
    adj, _ = graph
    nv = len(adj)
    full = (1 << nv) - 1

    def is_clique(vertices):
        return all((adj[i] >> j) & 1 for i, j in combinations(vertices, 2))

    def members_form_clique(members, size):
        vertices = [v for v in range(nv) if (members >> v) & 1]
        return len(vertices) == size and is_clique(vertices)

    top = max(len(c) for size in range(1, nv + 1)
              for c in combinations(range(nv), size) if is_clique(c))
    size, members = sv._max_clique(adj, full)
    assert size == top and members_form_clique(members, top)
    # stop_at = k: a k-clique when one exists, else (k - 1, 0)
    for k in range(1, nv + 2):
        size, members = sv._max_clique(adj, full, stop_at=k)
        if k <= top:
            assert size == k and members_form_clique(members, k)
        else:
            assert (size, members) == (k - 1, 0)


@settings(max_examples=150)
@given(small_graphs(), st.data())
def test_max_clique_beats_a_smaller_incumbent(graph, data):
    # A maximum incumbent comes back as it is; a smaller one is beaten.
    # With stop_at = k, an incumbent of k or more vertices is the answer,
    # and otherwise the search answers as it does without one.
    adj, _ = graph
    nv = len(adj)
    full = (1 << nv) - 1
    cliques = [c for size in range(1, nv + 1) for c in combinations(range(nv), size)
               if all((adj[i] >> j) & 1 for i, j in combinations(c, 2))]
    top = max(map(len, cliques))
    incumbent = data.draw(st.sampled_from(cliques))
    size, members = sv._max_clique(adj, full, incumbent=_mask(incumbent))
    assert size == top == members.bit_count()
    assert tuple(v for v in range(nv) if (members >> v) & 1) in cliques
    if len(incumbent) == top:
        assert members == _mask(incumbent)
    for k in range(1, nv + 2):
        got = sv._max_clique(adj, full, stop_at=k, incumbent=_mask(incumbent))
        if len(incumbent) >= k:
            assert got == (len(incumbent), _mask(incumbent))
        elif k <= top:
            assert got[0] == k == got[1].bit_count()
            assert tuple(v for v in range(nv) if (got[1] >> v) & 1) in cliques
        else:
            assert got == (k - 1, 0)


def test_lowest_max_clique_completes_past_a_rejected_vertex(monkeypatch):
    # Two 4-cliques, {1, 2, 3, 4} and the witness {5, 6, 7, 8}, and the
    # triangle {0, 1, 2}.  Vertices 0 and 1 miss the whole witness.
    # Vertex 0 lies on no 4-clique: its lexicode [1, 2] falls short and
    # one query rejects it.  Vertex 1's lexicode over the vertices after
    # it, [2, 3, 4], is maximum, so no second query runs; one scanning
    # from the start would take the rejected 0 first and fall short.
    adj = _adjacency(9, [(0, 1), (0, 2)]
                     + list(combinations(range(1, 5), 2))
                     + list(combinations(range(5, 9), 2)))
    search = sv._max_clique
    queries = []

    def counting(adj, cand, stop_at=None, words=None, incumbent=0):
        queries.append(cand)
        return search(adj, cand, stop_at, words, incumbent)

    monkeypatch.setattr(sv, "_max_clique", counting)
    assert sv._lowest_max_clique(adj, range(9), _mask(range(5, 9))) == [1, 2, 3, 4]
    assert queries == [0b110]


# The cells PINNED_WITNESSES leaves out; at those it pins, the size of
# exact_max_code already checks the orbit-reduced search.
ORBIT_CELLS = [
    (n, d, lam)
    for lam in (1, 2) for n in (1, 2, 3) for d in range(1, 13)
    if (n, d, lam) not in PINNED_WITNESSES
] + [(1, 100, 1)]


def test_orbit_reduced_search_finds_a_maximum_clique():
    # Against the unreduced search, on the graph as distance_graph
    # builds it and exact_max_code searches it.  For n = 1 and d past
    # the diameter every neighbourhood is empty, and the answer is a
    # single word.
    for n, d, lam in ORBIT_CELLS:
        graph = distance_graph(n, d, lam)
        adj, nv = graph.adjacency, len(graph.vertices)
        _, clique = sv._max_clique(adj, (1 << nv) - 1, words=graph.vertices)
        members = [v for v in range(nv) if (clique >> v) & 1]
        assert all((adj[v] >> w) & 1 for v, w in combinations(members, 2))
        assert len(members) == sv._max_clique(adj, (1 << nv) - 1)[0], (n, d, lam)


def _isometry_images(n):
    """Every isometry of length-n words, as the tuple of the images of
    ``range(4 ** n)`` in digit order, and that order."""
    words = sorted(all_words(n), key=PairedWord.to_digits)
    index = {w: i for i, w in enumerate(words)}
    group = [
        Automorphism(n, sigma, z, s)
        for sigma in permutations(range(n))
        for z in range(1 << n)
        for s in range(1 << n)
    ]
    return [tuple(index[apply_automorphism(w, g)] for w in words) for g in group], words


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stabilizer_orbits_match_the_enumerated_group(n):
    # Fixed sets: none, every word, and at n <= 2 every pair (at n = 3,
    # the pairs through two words with one and two mixed positions).
    images, words = _isometry_images(n)
    have = sv._symbol_index(words, n)
    nv = len(words)
    singles = [(i,) for i in range(nv)]
    starts = range(nv) if n <= 2 else (1, 5)
    pairs = [(i, j) for i in starts for j in range(nv) if j != i]
    for fixed in [()] + singles + pairs:
        stabilizer = [g for g in images if all(g[f] == f for f in fixed)]
        want = {frozenset(g[v] for g in stabilizer) for v in range(nv)}
        columns = list(zip(*(words[f].digits() for f in fixed))) or [()] * n
        got = sv._stabilizer_orbits(have, columns)
        assert sum(map(int.bit_count, got)) == nv, fixed
        assert {frozenset(v for v in range(nv) if (o >> v) & 1) for o in got} == want, fixed


def test_exact_full_space_and_empty_regimes():
    size, book = exact_max_code(2, 1, 1)
    assert size == 16
    assert exact_max_code(1, 5, 1)[0] == 1
    size, book = exact_max_code(1, 100, 1)
    assert size == 1
    assert book.words[0] == PairedWord(1, 0, 0)


def test_exact_parity_code_is_optimal_at_distance_two():
    for n in (1, 2, 3):
        assert exact_max_code(n, 2, 1)[0] == len(build_cp(n))


def test_exact_monotone_in_distance():
    for lam in (1, 2):
        for n in (1, 2, 3):
            sizes = [exact_max_code(n, d, lam)[0] for d in range(1, 11)]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] == 4**n


def test_exact_monotone_in_length():
    for d in (3, 5):
        sizes = [exact_max_code(n, d, 1)[0] for n in (1, 2, 3)]
        assert sizes == sorted(sizes)


def test_exact_grows_with_lambda():
    # larger lambda only stretches distances, so optima never shrink
    for n in (1, 2):
        for d in (2, 3, 4):
            assert exact_max_code(n, d, 2)[0] >= exact_max_code(n, d, 1)[0]


def test_exact_search_budget():
    with pytest.raises(BudgetExceeded):
        exact_max_code(5, 3, 1)


def test_exact_desk_limit_case():
    size, _ = exact_max_code(4, 2, 1)
    assert size == len(build_cp(4)) == 136


# ------------------------------------------------------------ averaging formula


TABLE5_LOWER = {
    3: [1, 2, 6, 18, 57, 196, 683, 2428, 8739, 31776],
    5: [1, 1, 1, 3, 6, 17, 52, 162, 525, 1734],
    7: [1, 1, 1, 1, 1, 2, 5, 13, 38, 113],
}


def test_averaging_reproduces_the_reference_column():
    for d, column in TABLE5_LOWER.items():
        got = [averaging_lower_bound(n, d) for n in range(1, 11)]
        assert got == column


def test_averaging_validation():
    with pytest.raises(ValueError):
        averaging_lower_bound(0, 3)
    with pytest.raises(ValueError):
        averaging_lower_bound(3, 4)
    for n, d in ((2.0, 3), (True, 3), (2, 3.0), (2, True)):
        with pytest.raises(ValueError):
            averaging_lower_bound(n, d)


# ------------------------------------------------------------- sandwich reports


def test_sandwich_delsarte_tight_cell():
    rep = sandwich_check(1, 3, 1)
    assert rep.ok
    assert (rep.lower, rep.exact) == (2, 2)
    uppers = dict(rep.uppers)
    assert uppers["delsarte"] == 2
    assert uppers["lp"] == 3


def test_sandwich_parity_code_cell():
    rep = sandwich_check(2, 2, 1)
    assert rep.ok
    assert rep.exact == 10
    assert rep.lower == 10
    assert rep.lower_source == "single-parity"


def test_sandwich_distance_three_cell():
    rep = sandwich_check(2, 3, 1)
    assert rep.ok
    assert rep.exact == 5
    uppers = dict(rep.uppers)
    assert rep.exact <= uppers["lp"] == 9
    assert rep.exact <= uppers["delsarte"] == 8


def test_sandwich_records_budget_refusals(monkeypatch):
    # a stand-in budget that runs out at its first check, whatever the clock
    monkeypatch.setattr(delsarte, "Budget", _budget_spent_at(1))
    rep = sandwich_check(3, 3, 1, delsarte_budget_secs=600.0)
    assert rep.ok
    reasons = [reason for method, reason in rep.skipped if method == "delsarte"]
    assert reasons == ["time budget exhausted during column assembly"]
    assert all(method != "delsarte" for method, _ in rep.uppers)


def test_sandwich_small_grid_is_consistent():
    for lam in (1, 2):
        for n in (1, 2):
            for d in range(1, 9):
                rep = sandwich_check(n, d, lam, delsarte_budget_secs=30.0)
                assert rep.ok, rep.violations
                assert rep.lower <= rep.exact
                for _, value in rep.uppers:
                    assert rep.exact <= value


def test_sandwich_flags_planted_inconsistencies(monkeypatch):
    real = sv.lp_hypergraph_bound

    class FakeReport:
        floored = 1

    monkeypatch.setattr(
        sv, "lp_hypergraph_bound", lambda n, d, lam: FakeReport()
    )
    rep = sandwich_check(2, 2, 1, delsarte_budget_secs=0.001)
    assert not rep.ok
    assert any("exceeds upper bound 1 (lp)" in v for v in rep.violations)
    monkeypatch.setattr(sv, "lp_hypergraph_bound", real)
    monkeypatch.setattr(sv, "averaging_lower_bound", lambda n, d: 10**9)
    rep = sandwich_check(2, 3, 1, delsarte_budget_secs=0.001)
    assert not rep.ok
    assert any("exceeds exact value" in v for v in rep.violations)


def test_lower_candidates_include_the_power_sum_coset():
    found = {source: size for size, source in sv._lower_candidates(4, 3, 2)}
    assert found["power-sum coset"] == 18
    _, _, book = best_cn_coset(OddPrimeField(5), 3)
    assert book.size == 18 and min_distance(book, 2) >= 3


def test_lower_candidates_pair_the_constant_words_by_their_distance():
    # the all-0 and all-3 words are 2(1 + lam)n apart
    for n, lam in ((1, 1), (2, 1), (3, 2)):
        far = 2 * (1 + lam) * n
        pairs = [size for size, source in sv._lower_candidates(n, far, lam)
                 if source == "all-same-symbol pair"]
        assert pairs == [2]
        assert all(source != "all-same-symbol pair"
                   for _, source in sv._lower_candidates(n, far + 1, lam))


def test_sandwich_checks_weights1_at_even_distance(capsys):
    from aldkit.cli import main

    def bound(method, n, d, lam):
        rc = main(["bound", method, "--n", str(n), "--d", str(d),
                   "--lambda", str(lam)])
        out, err = capsys.readouterr()
        return rc, out.strip(), err

    rep = sandwich_check(3, 4, 1)
    assert rep.ok
    assert dict(rep.uppers)["weights1"] == 30
    assert bound("weights1", 3, 4, 1) == (0, "30", "")
    # the sandwich and `aldkit bound` read one method table: each bound
    # the sandwich reports is what the command prints, and each method
    # it skips is one the command refuses there, with the same reason
    for n, d, lam in product((1, 2), range(1, 9), (1, 2)):
        rep = sandwich_check(n, d, lam)
        methods = [method for method, _ in rep.uppers + rep.skipped]
        assert sorted(methods) == sorted(["space", *sv._UPPER_BOUNDS]), (n, d, lam)
        for method, value in rep.uppers[1:]:
            assert bound(method, n, d, lam) == (0, str(value), ""), (method, n, d, lam)
        for method, reason in rep.skipped:
            rc, out, err = bound(method, n, d, lam)
            assert (rc, out) == (2, "") and reason in err, (method, n, d, lam)


def test_sandwich_propagates_a_bound_that_fails(monkeypatch):
    # only ValueError and BudgetExceeded mean "no bound here"; anything
    # else is a fault and must not read as a skip
    def broken(n, d, lam):
        raise ArithmeticError("planted fault")

    monkeypatch.setattr(sv, "naive_weight_bound", broken)
    with pytest.raises(ArithmeticError, match="planted fault"):
        sandwich_check(2, 3, 1)
    # nor does a budget the caller got wrong
    with pytest.raises(ValueError, match="budget"):
        sandwich_check(1, 3, 1, delsarte_budget_secs=float("nan"))


def test_sandwich_skips_infeasible_weight_recipe():
    rep = sandwich_check(3, 9, 1, delsarte_budget_secs=0.001)
    assert rep.ok
    assert any(method == "weights1" for method, _ in rep.skipped)
