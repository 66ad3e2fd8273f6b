import copy
import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aldkit.core import (
    _POSITION_MAPS,
    Automorphism,
    Budget,
    BudgetExceeded,
    ErrorClass,
    PairedWord,
    ald_distance,
    all_words,
    apply_automorphism,
    canonical_weight_word,
    classify_position,
    lee_distance,
    map_symbols,
    pair_weight,
    _position_costs,
)

from conftest import lambdas, word_tuples, words

SYMBOLS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def expected_symbol_cost(s, t, lam):
    # Independent restatement of the confusion graph, kept separate from
    # the implementation on purpose.
    if s == t:
        return 0
    if {s, t} == {(0, 1), (1, 0)}:
        return lam
    if {s, t} == {(0, 0), (1, 1)}:
        return 2 * (1 + lam)
    return 1 + lam


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_symbol_pair_costs_exhaustive(lam):
    for s, t in itertools.product(SYMBOLS, repeat=2):
        x = PairedWord(1, s[0], s[1])
        y = PairedWord(1, t[0], t[1])
        want = expected_symbol_cost(s, t, lam)
        assert ald_distance(x, y, lam) == want
        assert classify_position(s, t).edge_weight(lam) == want


@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_position_costs_match_classify_position(lam):
    # SYMBOLS lists the symbols in digit order
    costs = _position_costs(lam)
    for s, t in itertools.product(range(4), repeat=2):
        assert costs[s][t] == classify_position(SYMBOLS[s], SYMBOLS[t]).edge_weight(lam)


@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_position_costs_are_symmetric_with_a_zero_diagonal(lam):
    # min_distance walks each pair of prefixes one way round only
    costs = _position_costs(lam)
    for s, t in itertools.product(range(4), repeat=2):
        assert costs[s][t] == costs[t][s]
        assert (costs[s][t] == 0) == (s == t)


def test_position_costs_refuse_bad_lam_even_with_1_cached():
    _position_costs(1)  # True and 1.0 equal the cached 1 but are refused
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError, match="lam must"):
            _position_costs(bad)


def test_position_maps_are_the_one_position_automorphisms():
    for k, row in enumerate(_POSITION_MAPS):
        pi = Automorphism(1, (0,), k & 1, k >> 1)
        for s in range(4):
            image = apply_automorphism(PairedWord(1, s >> 1, s & 1), pi)
            assert image.digits() == (row[s],)


@given(words(max_n=40))
def test_digits_agree_with_symbols_and_renderings(w):
    digits = w.digits()
    assert digits == tuple(2 * a + b for a, b in w.symbols())
    assert digits == tuple(int(c) for c in w.to_digits())
    assert digits == map_symbols(w, "nat4")


def test_classify_position_classes():
    assert classify_position((0, 1), (1, 0)) is ErrorClass.CLASS1
    assert classify_position((0, 0), (1, 1)) is ErrorClass.CLASS3
    assert classify_position((0, 0), (0, 1)) is ErrorClass.CLASS2
    assert classify_position((1, 1), (1, 0)) is ErrorClass.CLASS2
    assert classify_position((1, 0), (1, 0)) is ErrorClass.NO_ERROR


@given(word_tuples(2), lambdas)
def test_distance_matches_positionwise_sum(pair, lam):
    x, y = pair
    total = sum(
        classify_position(x.symbol(i), y.symbol(i)).edge_weight(lam)
        for i in range(x.n)
    )
    assert ald_distance(x, y, lam) == total


@given(word_tuples(2), lambdas)
def test_distance_symmetric_and_separating(pair, lam):
    x, y = pair
    assert ald_distance(x, y, lam) == ald_distance(y, x, lam)
    assert (ald_distance(x, y, lam) == 0) == (x == y)


@given(word_tuples(3, max_n=6), lambdas)
def test_triangle_inequality(triple, lam):
    x, y, z = triple
    assert ald_distance(x, z, lam) <= ald_distance(x, y, lam) + ald_distance(y, z, lam)


def test_distance_rejects_bad_inputs():
    x = PairedWord(2, 0, 0)
    y = PairedWord(3, 0, 0)
    with pytest.raises(ValueError):
        ald_distance(x, y, 1)
    for bad in (0, 1.5, True, "1"):
        with pytest.raises(ValueError):
            ald_distance(x, PairedWord(2, 1, 1), bad)


def test_distance_accepts_an_int_subclass():
    class Lam(int):
        pass

    x, y = PairedWord.from_digits("0123"), PairedWord.from_digits("3102")
    for lam in (1, 2, 3):
        assert ald_distance(x, y, Lam(lam)) == ald_distance(x, y, lam)


def test_word_constructors_roundtrip():
    w = PairedWord.from_digits("0123")
    assert w.symbols() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert w.to_digits() == "0123"
    assert PairedWord.from_dna("GCTA") == w
    assert w.to_dna() == "GCTA"
    assert PairedWord.from_bits([0, 0, 1, 1], [0, 1, 0, 1]) == w
    with pytest.raises(ValueError):
        PairedWord.from_digits("014")
    with pytest.raises(ValueError):
        PairedWord.from_dna("GCX")
    with pytest.raises(ValueError):
        PairedWord.from_bits([0, 1], [0])
    with pytest.raises(ValueError):
        PairedWord.from_digits("")


def test_word_validation():
    with pytest.raises(ValueError):
        PairedWord(0, 0, 0)
    with pytest.raises(ValueError):
        PairedWord(2, 4, 0)
    # masks are ints: a float, a bool or a str fails here, not later in
    # ald_distance
    for a, b in ((1.0, 0), (0, 1.0), (True, False), (0, True), ("1", 0), (0, "1")):
        with pytest.raises(ValueError, match="bit masks"):
            PairedWord(2, a, b)

    class Length(int):
        pass

    assert PairedWord(Length(2), 3, 1) == PairedWord(2, 3, 1)
    with pytest.raises(IndexError):
        PairedWord(2, 0, 0).symbol(2)


def test_paired_word_is_a_frozen_value():
    w = PairedWord(3, 5, 2)
    for field in ("n", "a", "b"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, field, 1)
    assert (w.n, w.a, w.b) == (3, 5, 2)
    assert PairedWord(n=3, a=5, b=2) == PairedWord(3, b=2, a=5) == w
    assert dataclasses.replace(w) == w
    assert dataclasses.replace(w, b=7) == PairedWord(3, 5, 7)
    with pytest.raises(ValueError, match="bit masks"):
        dataclasses.replace(w, a=8)
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert twin == w and type(twin) is PairedWord
        assert hash(twin) == hash(w)


def test_paired_word_order_and_hash_follow_the_field_tuple():
    ws = [PairedWord(n, a, b) for n in (1, 2) for a in range(1 << n) for b in range(1 << n)]
    keys = [(w.n, w.a, w.b) for w in ws]
    for (x, kx), (y, ky) in itertools.product(zip(ws, keys), repeat=2):
        assert (x < y) == (kx < ky)
        assert (x <= y) == (kx <= ky)
        assert (x == y) == (kx == ky)
    assert sorted(reversed(ws)) == ws
    assert len({*ws, *(PairedWord(*k) for k in keys)}) == len(ws)


@pytest.mark.parametrize("lam", [1, 2, 3, 7])
def test_distance_is_the_position_cost_sum_at_short_lengths(lam):
    costs = _position_costs(lam)
    for n in (1, 2, 3):
        ws = list(all_words(n))
        for x, y in itertools.product(ws, repeat=2):
            want = sum(costs[s][t] for s, t in zip(x.digits(), y.digits()))
            assert ald_distance(x, y, lam) == want


def test_pair_weight_and_canonical_word():
    assert pair_weight(PairedWord.from_digits("0123")) == 2
    w = canonical_weight_word(5, 3)
    assert pair_weight(w) == 3
    assert w.a == 0
    assert w.to_digits() == "11100"
    with pytest.raises(ValueError):
        canonical_weight_word(3, 4)


def test_symbol_maps_frozen_values():
    w = PairedWord.from_digits("0123")
    assert map_symbols(w, "nat4") == (0, 1, 2, 3)
    assert map_symbols(w, "gray4") == (1, 2, 0, 3)
    assert map_symbols(w, "z10") == (0, 1, 9, 5)
    with pytest.raises(ValueError):
        map_symbols(w, "octal")


def test_lee_distance_basics():
    assert lee_distance((0, 1, 3), (3, 1, 0)) == 2
    assert lee_distance((0,), (5,), q=10) == 5
    assert lee_distance((0,), (9,), q=10) == 1
    with pytest.raises(ValueError):
        lee_distance((0, 1), (0,))
    with pytest.raises(ValueError):
        lee_distance((0, 4), (0, 0))


def test_lee_distance_refuses_float_and_bool_entries():
    for u, v in (((0.5, 1), (0, 1)), ((0, 1), (0, True)), ((0, 1.0), (0, 1))):
        with pytest.raises(ValueError, match="entry must"):
            lee_distance(u, v, 4)


def test_lee_distance_needs_an_integer_modulus():
    for q in (2.5, True, 0):
        with pytest.raises(ValueError, match="q must"):
            lee_distance((0, 1), (1, 0), q)


@given(word_tuples(2, max_n=8), lambdas)
def test_gray_map_sandwiches_lee_distance(pair, lam):
    # Under the walk map the weighted distance is pinched between
    # (lam/2) and (1+lam) times the Lee distance over Z_4.
    x, y = pair
    dl = lee_distance(map_symbols(x, "gray4"), map_symbols(y, "gray4"))
    d = ald_distance(x, y, lam)
    assert lam * dl <= 2 * d
    assert d <= (1 + lam) * dl


@given(word_tuples(2, max_n=6), lambdas, st.randoms(use_true_random=False))
def test_automorphisms_preserve_distance(pair, lam, rng):
    x, y = pair
    sigma = list(range(x.n))
    rng.shuffle(sigma)
    pi = Automorphism(x.n, tuple(sigma), rng.getrandbits(x.n), rng.getrandbits(x.n))
    assert ald_distance(apply_automorphism(x, pi), apply_automorphism(y, pi), lam) == (
        ald_distance(x, y, lam)
    )
    assert pair_weight(apply_automorphism(x, pi)) == pair_weight(x)


def _generators(n):
    """Adjacent transpositions, and a complement and a strand swap at each position."""
    ident = tuple(range(n))
    for i in range(n - 1):
        sigma = list(ident)
        sigma[i], sigma[i + 1] = i + 1, i
        yield Automorphism(n, tuple(sigma), 0)
    for i in range(n):
        yield Automorphism(n, ident, 1 << i)
        yield Automorphism(n, ident, 0, 1 << i)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isometry_group_orbits_are_the_mixed_position_counts(n):
    words = list(all_words(n))
    gens = list(_generators(n))
    images = {w: [apply_automorphism(w, g) for g in gens] for w in words}
    for lam in (1, 2, 3):
        dist = {(x, y): ald_distance(x, y, lam) for x in words for y in words}
        for i, g in enumerate(gens):
            assert all(
                dist[images[x][i], images[y][i]] == d for (x, y), d in dist.items()
            ), (g, lam)
    orbits = []
    unseen = set(words)
    while unseen:
        frontier = [unseen.pop()]
        orbit = set(frontier)
        while frontier:
            for image in images[frontier.pop()]:
                if image not in orbit:
                    orbit.add(image)
                    unseen.discard(image)
                    frontier.append(image)
        orbits.append(orbit)
    classes = {}
    for w in words:
        classes.setdefault(pair_weight(w), set()).add(w)
    assert sorted(map(sorted, orbits)) == sorted(map(sorted, classes.values()))
    assert len(orbits) == n + 1


def test_lengths_and_weights_must_be_ints():
    # One float and one bool for each checked argument.
    for bad in (2.0, True):
        with pytest.raises(ValueError):
            PairedWord(bad, 0, 1)
        with pytest.raises(ValueError):
            canonical_weight_word(bad, 1)
        with pytest.raises(ValueError):
            canonical_weight_word(2, bad)
        with pytest.raises(ValueError):
            Automorphism(bad, (0,), 0)


def test_automorphism_validation():
    with pytest.raises(ValueError):
        Automorphism(2, (0, 0), 0)
    with pytest.raises(ValueError):
        Automorphism(2, (0, 1), 4)
    with pytest.raises(ValueError):
        Automorphism(2, (0, 1), 0, 4)
    with pytest.raises(ValueError):
        apply_automorphism(PairedWord(3, 0, 0), Automorphism(2, (1, 0), 0))


def test_complement_automorphism_swaps_pure_symbols():
    pi = Automorphism(2, (0, 1), 0b11)
    w = PairedWord.from_digits("03")
    assert apply_automorphism(w, pi).to_digits() == "30"
    single = Automorphism(1, (0,), 1)
    assert apply_automorphism(PairedWord.from_digits("1"), single).to_digits() == "2"


def test_strand_swap_exchanges_mixed_symbols_after_the_complement():
    swap = Automorphism(4, (0, 1, 2, 3), 0, 0b1111)
    word = PairedWord.from_digits("0123")
    assert apply_automorphism(word, swap).to_digits() == "0213"
    both = Automorphism(2, (1, 0), 0b01, 0b11)
    # permuted to "10", complemented to "20", then swapped to "10"
    assert apply_automorphism(PairedWord.from_digits("01"), both).to_digits() == "10"


def test_all_words_enumeration():
    seen = list(all_words(2))
    assert len(seen) == 16
    assert len(set(seen)) == 16
    assert seen[0] == PairedWord(2, 0, 0)


def test_budget_precedence():
    # the explicit value, else no limit
    assert Budget().seconds is None
    assert Budget(None).seconds is None
    assert Budget(5).seconds == 5.0
    assert Budget(math.inf).seconds == math.inf


def test_budget_check_and_remaining():
    spent = Budget(-1)
    assert spent.remaining() < 0
    with pytest.raises(BudgetExceeded, match="exhausted during row assembly"):
        spent.check("row assembly")
    for unlimited in (Budget(), Budget(math.inf)):
        unlimited.check("solve")
        assert unlimited.remaining() == math.inf
    assert 0 < Budget(3600).remaining() <= 3600


def test_budget_rejects_nan_and_non_numbers():
    with pytest.raises(ValueError, match="budget must be a number"):
        Budget(float("nan"))
    for raw in ("abc", "", "5", True, False):
        with pytest.raises(ValueError):
            Budget(raw)
    assert Budget(Fraction(3, 2)).seconds == 1.5 and Budget(2).seconds == 2.0
