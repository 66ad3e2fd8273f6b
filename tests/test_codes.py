import hashlib
import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from aldkit import codes
from aldkit.codes import (
    BinaryParityCheck,
    Codebook,
    DecodingError,
    DetectionFlag,
    OddPrimeField,
    _cl_columns,
    _cl_syndrome,
    _kernel_basis,
    _span,
    _syndrome,
    bch_parity_check,
    best_cn_coset,
    build_H01,
    build_cL,
    build_cl,
    build_clambda,
    build_cn,
    build_cp,
    build_partition_code,
    decode_cl,
    decode_cn,
    distance_decomposition,
    greedy_clambda,
    greedy_manhattan_code,
    hamming_component,
    min_hamming_distance,
    min_l1_distance,
    s_subsequence,
)
from aldkit.core import (
    BudgetExceeded,
    PairedWord,
    ald_distance,
    all_words,
    map_symbols,
    pair_weight,
)


def exhaustive_min_ald(book, lam=1):
    return min(
        ald_distance(x, y, lam) for x, y in combinations(book.words, 2)
    )


def word_pairs(n):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return st.tuples(masks, masks, masks, masks).map(
        lambda t: (PairedWord(n, t[0], t[1]), PairedWord(n, t[2], t[3]))
    )


# -------------------------------------------------------- parity-check helper


def test_h01_small_column_sets():
    assert build_H01(2).columns == (1, 2)
    h3 = build_H01(3)
    assert h3.rows == 3
    assert h3.columns == (1, 2, 3, 4, 5, 6)  # no zero, no all-ones
    for v in (2, 3, 4, 5):
        assert build_H01(v).ncols == (1 << v) - 2


def test_h01_rejects_tiny_v():
    with pytest.raises(ValueError):
        build_H01(1)


def test_distance_ladder_is_exact(monkeypatch):
    # columns 1,2,3 are dependent, so the null space has distance 3
    h = BinaryParityCheck(rows=3, columns=(1, 2, 3, 4, 5, 6), claimed_distance=3)
    assert h.distance_at_least(3)
    assert not h.distance_at_least(4)
    assert h.min_distance() == 3
    # a zero column forces distance 1
    z = BinaryParityCheck(rows=2, columns=(0, 1), claimed_distance=1)
    assert z.distance_at_least(1)
    assert not z.distance_at_least(2)
    # duplicate columns force distance 2
    dup = BinaryParityCheck(rows=2, columns=(1, 1), claimed_distance=2)
    assert dup.distance_at_least(2)
    assert not dup.distance_at_least(3)
    assert dup.min_distance() == 2
    # The extended Hamming code [8, 4, 4] (columns j | 8, j < 8): no
    # column is the sum of two others, but 8 ^ 9 ^ 10 = 11 is a column,
    # so the pair rung says >= 4 and the triple rung refuses 5, with no
    # null-space scan below 6.
    ext = BinaryParityCheck(rows=4, columns=tuple(j | 8 for j in range(8)), claimed_distance=4)
    wide = BinaryParityCheck(rows=5, columns=(1, 2, 4, 8, 16, 31), claimed_distance=6)
    with monkeypatch.context() as m:
        m.setattr(BinaryParityCheck, "min_distance", lambda self: pytest.fail("scanned below 6"))
        assert ext.distance_at_least(4)
        assert not ext.distance_at_least(5)
        assert wide.distance_at_least(5)
    # Past 5 the null space is scanned: its one nonzero word has all six
    # columns, so the distance is exactly 6.
    assert wide.min_distance() == 6
    assert wide.distance_at_least(6)
    assert not wide.distance_at_least(7)
    # The d = 5 BCH check at v = 6 passes the rungs, and its null space
    # (62 columns, 12 rows) has 2^50 words: refused, not scanned.
    with pytest.raises(BudgetExceeded, match=r"2\^50 words"):
        bch_parity_check(6, 5).distance_at_least(6)


def test_validate_rejects_false_claims():
    bad = BinaryParityCheck(rows=3, columns=(1, 2, 3), claimed_distance=4)
    with pytest.raises(ValueError):
        bad.validate()
    good = bch_parity_check(4, 5)
    good.validate()


def test_parity_check_entry_validation():
    with pytest.raises(ValueError):
        BinaryParityCheck(rows=2, columns=(4,), claimed_distance=1)
    with pytest.raises(ValueError):
        BinaryParityCheck(rows=0, columns=(), claimed_distance=1)
    # bools and floats are not counts
    for rows, claimed in ((True, 1), (2, 2.5), (2, True), (2.0, 1)):
        with pytest.raises(ValueError, match="rows|claimed_distance"):
            BinaryParityCheck(rows=rows, columns=(1,), claimed_distance=claimed)


@st.composite
def parity_checks(draw):
    rows = draw(st.integers(1, 4))
    columns = draw(st.lists(st.integers(0, (1 << rows) - 1), max_size=10))
    return BinaryParityCheck(rows=rows, columns=columns, claimed_distance=1)


def test_f2_layer_matches_brute_force():
    # The strand-sum syndrome must equal the XOR of its 2n check columns
    # and the closed form spelled out: XOR of p+1 over first-strand bits
    # p, XOR all-ones when the second strand has odd weight.
    for v in (2, 3):
        ones = (1 << v) - 1
        columns = _cl_columns(v)
        for w in all_words((1 << v) - 2):
            closed = 0
            for p in range(w.n):
                if (w.a >> p) & 1:
                    closed ^= p + 1
            if w.b.bit_count() & 1:
                closed ^= ones
            assert _cl_syndrome(v, w) == closed == _syndrome(w, columns)
    rng = random.Random(4)
    columns = _cl_columns(4)
    for _ in range(2000):
        w = PairedWord(14, rng.getrandbits(14), rng.getrandbits(14))
        assert _cl_syndrome(4, w) == _syndrome(w, columns)

    @given(parity_checks())
    @settings(max_examples=200)
    def kernel_and_distance(check):
        null_space = set()
        for x in range(1 << check.ncols):
            s = 0
            for j, c in enumerate(check.columns):
                if (x >> j) & 1:
                    s ^= c
            if s == 0:
                null_space.add(x)
        basis = _kernel_basis(check.columns, check.rows)
        assert 1 << len(basis) == len(null_space)
        assert set(_span(basis)) == null_space
        weights = [x.bit_count() for x in null_space if x]
        assert check.min_distance() == (min(weights) if weights else None)

    kernel_and_distance()


def test_bch_shapes_and_exact_distances():
    h3 = bch_parity_check(3, 3)
    assert (h3.rows, h3.ncols) == (3, 6)
    assert h3.min_distance() == 3
    h5 = bch_parity_check(4, 5)
    assert (h5.rows, h5.ncols) == (8, 14)
    assert h5.min_distance() == 5
    # columns of every output are nonzero and distinct
    for v, d in ((3, 3), (4, 3), (3, 5), (4, 5), (5, 5)):
        h = bch_parity_check(v, d)
        assert 0 not in h.columns
        assert len(set(h.columns)) == h.ncols


def test_ladder_refuses_before_trying_column_sets(monkeypatch):
    # v <= 9 still validates; the v = 10 and 11 checks would try 178
    # million and 1.4 billion pairs and triples
    assert math.comb(510, 2) + math.comb(510, 3) <= codes.LADDER_LIMIT
    assert math.comb(1022, 2) + math.comb(1022, 3) > codes.LADDER_LIMIT
    calls = []
    monkeypatch.setattr(codes, "combinations", lambda *a: calls.append(a))
    check = bch_parity_check(11, 5)
    with pytest.raises(BudgetExceeded, match="2046 columns"):
        build_cL(check.ncols // 2, check)
    assert calls == []


def test_bch_rejects_unsupported_parameters():
    with pytest.raises(ValueError):
        bch_parity_check(3, 4)
    with pytest.raises(ValueError):
        bch_parity_check(17, 5)


# ------------------------------------------------------- strand-sum coset code


def test_cl_v2_matches_the_known_word_list():
    book = build_cl(2, 0)
    assert sorted(w.to_digits() for w in book) == ["00", "11", "23", "32"]
    assert sorted((w.a, w.b) for w in book) == [(0, 0), (0, 3), (3, 1), (3, 2)]
    assert exhaustive_min_ald(book) == 3


@pytest.mark.parametrize("v", [2, 3])
def test_cl_size_and_distance(v):
    book = build_cl(v, 0)
    n = (1 << v) - 2
    assert len(book) == 4**n // (1 << v)
    assert exhaustive_min_ald(book) >= 3


@pytest.mark.parametrize("v", [2, 3])
def test_cl_cosets_partition_the_space(v):
    n = (1 << v) - 2
    seen = set()
    for u in range(1 << v):
        coset = build_cl(v, u)
        # listed from per-strand syndrome tables, in all_words order
        assert coset.words == tuple(w for w in all_words(n) if _cl_syndrome(v, w) == u)
        assert len(coset) == 4**n // (1 << v)
        assert exhaustive_min_ald(coset) >= 3
        for w in coset:
            key = (w.a, w.b)
            assert key not in seen
            seen.add(key)
    assert len(seen) == 4**n


def test_cl_base_code_is_closed_under_addition():
    for v in (2, 3):
        book = build_cl(v, 0)
        keys = {(w.a, w.b) for w in book}
        words = list(book)[:64]
        for x in words:
            for y in words:
                assert (x.a ^ y.a, x.b ^ y.b) in keys


def test_cl_implicit_above_desk_scale(monkeypatch):
    book = build_cl(4, 0)
    assert book.words is None
    assert len(book) == 4**14 // 16
    zero = PairedWord(14, 0, 0)
    assert zero in book
    # single swap moves the word out of the code
    assert PairedWord(14, 1, 1) not in book
    # The size is the closed form 4^n / 2^v; n = 65534 here, so anything
    # that builds the 2n-column kernel, or a strand's syndrome table of
    # 2^65534 entries, would never finish.
    tables = []
    real = codes._strand_syndromes
    monkeypatch.setattr(codes, "_strand_syndromes",
                        lambda columns: tables.append(columns) or real(columns))
    book = build_cl(16, 5)
    assert book.words is None
    assert book.size == 4**65534 >> 16
    assert PairedWord(65534, 0b10000, 0) in book  # column 5
    assert tables == []


def test_column_tables_refuse_above_the_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(codes, "_cl_columns", lambda v: calls.append(v))
    for call in (lambda: build_cl(40), lambda: build_partition_code(40),
                 lambda: build_H01(40), lambda: build_cl(codes.COLUMN_LIMIT_V + 1),
                 lambda: decode_cl(40, 0, PairedWord(1, 0, 0), "detect_class2")):
        with pytest.raises(BudgetExceeded, match="over the cap"):
            call()
    assert calls == []


def test_size_is_exact_where_len_overflows():
    # len() is capped at sys.maxsize; callers read .size
    book = build_cl(6)
    assert book.words is None
    assert book.size == 2**118
    with pytest.raises(OverflowError):
        len(book)


def test_cl_validation():
    with pytest.raises(ValueError):
        build_cl(1, 0)
    with pytest.raises(ValueError):
        build_cl(2, 4)


def test_strand_sum_coset_label_is_not_a_bool():
    for call in (lambda: build_cl(3, True), lambda: build_partition_code(3, True),
                 lambda: decode_cl(3, True, PairedWord(6, 0, 0), "detect_class2")):
        with pytest.raises(ValueError, match="u must"):
            call()


def test_float_degrees_and_orders_are_refused_as_values():
    for call, name in ((lambda: build_cl(3.0), "v"), (lambda: build_H01(3.0), "v"),
                       (lambda: build_partition_code(3.0), "v"),
                       (lambda: OddPrimeField(5.0), "q")):
        with pytest.raises(ValueError, match=f"{name} must"):
            call()


def test_decode_cl_corrects_every_single_swap():
    book = build_cl(3, 0)
    cases = 0
    for w in book:
        assert decode_cl(3, 0, w, "correct_class1") == w
        mixed = w.a ^ w.b
        for p in range(6):
            if (mixed >> p) & 1:
                bad = PairedWord(6, w.a ^ (1 << p), w.b ^ (1 << p))
                assert decode_cl(3, 0, bad, "correct_class1") == w
                cases += 1
    # every codeword contributes exactly its own mixed-position count
    assert cases == sum(pair_weight(w) for w in book) == 1536


def test_decode_cl_flags_every_single_flip():
    book = build_cl(3, 0)
    for w in list(book)[::7]:
        assert decode_cl(3, 0, w, "detect_class2") == w
        for p in range(6):
            bad_a = PairedWord(6, w.a ^ (1 << p), w.b)
            flag = decode_cl(3, 0, bad_a, "detect_class2")
            assert isinstance(flag, DetectionFlag)
            assert flag.strand == "a" and flag.position == p
            bad_b = PairedWord(6, w.a, w.b ^ (1 << p))
            flag = decode_cl(3, 0, bad_b, "detect_class2")
            assert isinstance(flag, DetectionFlag)
            assert flag.strand == "b" and flag.position is None


def test_decode_cl_coset_shift():
    book = build_cl(3, 5)
    w = next(iter(book))
    bad = PairedWord(6, w.a ^ 1, w.b ^ 1)
    assert decode_cl(3, 5, bad, "correct_class1") == w


def test_decode_cl_uncorrectable_and_bad_arguments():
    w = next(iter(build_cl(3, 0)))
    # a lone second-strand flip is outside the swap-correction guarantee
    bad = PairedWord(6, w.a, w.b ^ 1)
    with pytest.raises(DecodingError):
        decode_cl(3, 0, bad, "correct_class1")
    with pytest.raises(ValueError):
        decode_cl(3, 0, w, "fix_everything")
    with pytest.raises(ValueError):
        decode_cl(2, 0, w, "correct_class1")
    with pytest.raises(ValueError):
        decode_cl(3, 9, w, "correct_class1")


# ----------------------------------------------------- doubled parity-check code


def test_cL_from_shortened_bch():
    book = build_cL(7, bch_parity_check(4, 5))
    assert len(book) == 64  # meets 4^n/(2n+2)^2 with equality
    assert exhaustive_min_ald(book) >= 5


def test_cL_closed_under_addition():
    book = build_cL(7, bch_parity_check(4, 5))
    keys = {(w.a, w.b) for w in book}
    for x in book:
        for y in book:
            assert (x.a ^ y.a, x.b ^ y.b) in keys


def test_cL_lists_its_kernel_in_all_words_order():
    check = bch_parity_check(4, 5)
    n = check.ncols // 2
    cols = check.columns
    effective = cols[:n] + tuple(cols[i] ^ cols[n + i] for i in range(n))
    want = tuple(w for w in all_words(n) if _syndrome(w, effective) == 0)
    assert build_cL(n, check).words == want


def test_cL_rejects_wrong_shapes_and_low_distance():
    with pytest.raises(ValueError):
        build_cL(6, bch_parity_check(4, 5))  # 14 columns, need 12
    with pytest.raises(ValueError):
        build_cL(3, bch_parity_check(3, 3))  # distance 3 below the gate
    lying = BinaryParityCheck(
        rows=3, columns=(1, 2, 3, 4, 5, 6), claimed_distance=4
    )
    with pytest.raises(ValueError):
        build_cL(3, lying)


# ------------------------------------------------------------ single-parity code


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cp_size_formula(n):
    assert len(build_cp(n)) == 2 ** (2 * n - 1) + 2 ** (n - 1)


def test_cp_small_cases():
    assert sorted(w.to_digits() for w in build_cp(1)) == ["0", "1", "3"]
    for n in (1, 2, 3, 4):
        assert exhaustive_min_ald(build_cp(n)) == 2


def test_cp_validation():
    for n in (0, True, 2.0):
        with pytest.raises(ValueError):
            build_cp(n)
    with pytest.raises(BudgetExceeded):
        build_cp(9)


# ------------------------------------------------------ weight-partitioned code


def test_subsequence_extraction():
    w = PairedWord.from_digits("0123")  # symbols (0;0),(0;1),(1;0),(1;1)
    # strands differ at positions 1 and 2; first-strand bits there: 0, 1
    assert s_subsequence(w) == 0b10
    assert s_subsequence(PairedWord.from_digits("00")) == 0


def test_hamming_components_have_distance_three():
    for w, size in ((1, 1), (3, 2), (5, 4), (7, 16)):
        comp = hamming_component(w)
        assert len(comp) == size
        dist = min_hamming_distance(comp)
        assert dist is None or dist >= 3
    with pytest.raises(ValueError):
        hamming_component(4)
    # length 5 needs three check rows (with two, column 4 reads as zero and
    # the weight-1 word 0b1000 gets in); it is the length-7 code shortened
    seven = hamming_component(7)
    assert hamming_component(5) == {c for c in seven if c >> 5 == 0}
    assert min_hamming_distance(hamming_component(5)) == 3


def test_partition_code_at_v3():
    book = build_partition_code(3, 0)
    # n=6 keeps only the odd-weight classes 1, 3, 5
    expected = sum(
        math.comb(6, w) * 2 ** (6 - w) * len(hamming_component(w))
        for w in (1, 3, 5)
    )
    assert len(book) == expected == 560
    assert exhaustive_min_ald(book) >= 3
    assert all(pair_weight(w) % 2 == 1 for w in book)


def test_partition_code_excludes_even_weights():
    book = build_partition_code(3, 0)
    for w in all_words(6):
        if pair_weight(w) in (0, 2, 4, 6):
            assert w not in book


def test_partition_code_implicit_branch():
    book = build_partition_code(4, 0)
    assert book.words is None
    # weight-14 word: all positions disagree, so membership defers to
    # the strand-sum coset test
    w = PairedWord(14, 0, (1 << 14) - 1)
    from aldkit.codes import _cl_syndrome

    assert (w in book) == (_cl_syndrome(4, w) == 0)
    # weight-2 words are never members
    assert PairedWord(14, 0, 0b11) not in book


def test_partition_code_validation():
    with pytest.raises(ValueError):
        build_partition_code(1, 0)
    with pytest.raises(ValueError):
        build_partition_code(3, 8)


# ------------------------------------------------------------- odd prime fields


def test_field_refuses_more_than_two_to_the_sixteen_elements(monkeypatch):
    # F_49, the largest stored extension, is under the cap
    assert OddPrimeField(7, 2).size == 49 <= codes.FIELD_LIMIT
    calls = []
    monkeypatch.setattr(OddPrimeField, "mul", lambda self, x, y: calls.append((x, y)))
    for q, l in ((10000019, 1), (65537, 1), (257, 2), (3, 17), (3, 10**12)):
        with pytest.raises(BudgetExceeded, match=f"q={q}, l={l}"):
            OddPrimeField(q, l)
    assert calls == []


def test_field_rejects_bad_parameters():
    for q in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            OddPrimeField(q)
    for l in (0, True, 1.0):
        with pytest.raises(ValueError, match="l must"):
            OddPrimeField(5, l)
    with pytest.raises(ValueError):
        OddPrimeField(5, 1, alpha=4)  # order 2, not a generator
    with pytest.raises(ValueError):
        OddPrimeField(5, 1, alpha=0)


def test_prime_field_power_table():
    f = OddPrimeField(5, 1, alpha=2)
    assert [f.alpha_pow(k) for k in range(5)] == [1, 2, 4, 3, 1]
    assert f.from_int(7) == 2
    assert f.sub(1, 3) == 3


def test_default_generator_is_found():
    f = OddPrimeField(7)
    seen = {f.alpha_pow(k) for k in range(6)}
    assert seen == {1, 2, 3, 4, 5, 6}


def test_extension_field_axioms():
    f = OddPrimeField(3, 2)
    assert f.size == 9
    elements = range(9)
    for x in elements:
        assert f.add(x, f.neg(x)) == 0
        assert f.mul(x, 1) == x
        for y in elements:
            assert f.mul(x, y) == f.mul(y, x)
            for z in elements:
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    powers = {f.alpha_pow(k) for k in range(8)}
    assert len(powers) == 8 and 0 not in powers


def test_extension_field_rejects_reducible_modulus(monkeypatch):
    with pytest.raises(ValueError):
        OddPrimeField(3, 2, modulus=(2, 0, 1))  # x^2 + 2 has root 1
    # (x^2 + 1)^2 has no root in F_3 but is reducible
    with pytest.raises(ValueError, match="reducible"):
        OddPrimeField(3, 4, modulus=(1, 0, 2, 0, 1))
    # x^8 + x: the search stops at x, the first non-unit, instead of
    # computing the order of all 3^8 candidates (tens of millions of
    # multiplications)
    calls = []
    real = OddPrimeField.mul
    monkeypatch.setattr(OddPrimeField, "mul",
                        lambda self, x, y: calls.append(None) or real(self, x, y))
    with pytest.raises(ValueError, match="reducible"):
        OddPrimeField(3, 8, modulus=(0, 1, 0, 0, 0, 0, 0, 0, 1))
    assert len(calls) < 10**5


# ------------------------------------------------------- power-sum congruence code


def test_cn_parameter_validation():
    f = OddPrimeField(5, 1, alpha=2)
    with pytest.raises(ValueError):
        build_cn(f, 4, 0, (0, 0))  # even distance
    for d in (3.0, True):
        with pytest.raises(ValueError, match="d must"):
            build_cn(f, d, 0, (0,))
    with pytest.raises(ValueError):
        build_cn(f, 5, 0, (0, 0))  # q < d+1
    with pytest.raises(ValueError):
        build_cn(f, 3, 3, (0,))  # congruence class out of range
    with pytest.raises(ValueError):
        build_cn(f, 3, 0, ())  # wrong number of power sums
    with pytest.raises(ValueError):
        build_cn(f, 3, 0, (5,))  # target outside the field


def test_cn_class_and_targets_are_not_bools():
    f = OddPrimeField(5)
    with pytest.raises(ValueError, match="u must"):
        build_cn(f, 3, True, (0,))
    with pytest.raises(ValueError, match="z entry must"):
        build_cn(f, 3, 0, (False,))


def test_decode_cn_checks_its_class_and_targets():
    f = OddPrimeField(5)
    w = next(iter(build_cn(f, 3, 0, (0,))))
    assert decode_cn(f, 3, 0, (0,), w) == w
    for u, z, message in ((3, (0,), "congruence class"), (True, (0,), "u must"),
                          (-1, (0,), "congruence class"), (0, (False,), "z entry must"),
                          (0, (5,), "power-sum target"), (0, (0, 0), "floor")):
        with pytest.raises(ValueError, match=message):
            decode_cn(f, 3, u, z, w)


def test_cn_cosets_partition_and_hold_distance():
    f = OddPrimeField(5, 1, alpha=2)
    total = 0
    for u in range(3):
        for z in range(5):
            book = build_cn(f, 3, u, (z,))
            total += len(book)
            if len(book) >= 2:
                assert exhaustive_min_ald(book) >= 3
    assert total == 4**4


def test_best_cn_coset_meets_the_averaging_bound():
    f = OddPrimeField(5, 1, alpha=2)
    u, z, book = best_cn_coset(f, 3)
    assert len(book) >= math.ceil(4**4 / (3 * 5))
    assert exhaustive_min_ald(book) >= 3
    assert (u, z) == (0, (0,))


def test_cn_with_two_power_sums():
    f = OddPrimeField(7)
    u, z, book = best_cn_coset(f, 5)
    assert len(book) >= math.ceil(4**6 / (5 * 7 * 7))
    assert exhaustive_min_ald(book) >= 5


def test_decode_cn_round_trips_single_shifts():
    f = OddPrimeField(5, 1, alpha=2)
    u, z, book = best_cn_coset(f, 3)
    cases = 0
    for w in book:
        assert decode_cn(f, 3, u, z, w) == w
        phis = map_symbols(w, "nat4")
        for pos in range(4):
            for delta in (1, -1):
                moved = phis[pos] + delta
                if not (0 <= moved <= 3):
                    continue
                values = list(phis)
                values[pos] = moved
                a = sum((p >> 1) << i for i, p in enumerate(values))
                b = sum((p & 1) << i for i, p in enumerate(values))
                assert decode_cn(f, 3, u, z, PairedWord(4, a, b)) == w
                cases += 1
    assert cases > 0


def test_decode_cn_refuses_unmapped_syndromes():
    f = OddPrimeField(5, 1, alpha=2)
    # any word from congruence class u+1 with matching power sums has a
    # syndrome outside the weight-one error table
    stranger = next(iter(build_cn(f, 3, 1, (0,))))
    with pytest.raises(DecodingError):
        decode_cn(f, 3, 0, (0,), stranger)


# ---------------------------------------------------------- two-component code


def even_sum_ternary(n):
    return [w for w in product((0, 1, 2), repeat=n) if sum(w) % 2 == 0]


def repetition_family(n, d):
    family = {0: {0}}
    for w in range(1, n + 1):
        if w < d:
            family[w] = {0}
        else:
            family[w] = {0, (1 << w) - 1}
    return family


def test_clambda_reference_cell():
    book = build_clambda(4, 4, 1, even_sum_ternary(4), repetition_family(4, 4))
    assert len(book) > 0
    assert exhaustive_min_ald(book) >= 4


def test_clambda_distance_decomposition_certifies_pairs():
    book = build_clambda(4, 4, 1, even_sum_ternary(4), repetition_family(4, 4))
    lam = 1
    for x, y in combinations(book.words, 2):
        i, j, k = distance_decomposition(x, y)
        assert lam * i + (1 + lam) * k + 2 * (1 + lam) * j >= 4


def test_clambda_rejects_component_shortfalls():
    full_ternary = list(product((0, 1, 2), repeat=4))
    with pytest.raises(ValueError, match="shortfall"):
        build_clambda(4, 4, 1, full_ternary, repetition_family(4, 4))
    weak_family = dict(repetition_family(4, 4))
    weak_family[2] = {0b00, 0b11}  # Hamming distance 2, need 4
    with pytest.raises(ValueError, match="shortfall"):
        build_clambda(4, 4, 1, even_sum_ternary(4), weak_family)


def test_clambda_missing_weight_classes_contribute_nothing():
    family = repetition_family(4, 4)
    trimmed = {w: c for w, c in family.items() if w != 4}
    full = build_clambda(4, 4, 1, even_sum_ternary(4), family)
    cut = build_clambda(4, 4, 1, even_sum_ternary(4), trimmed)
    dropped = {(w.a, w.b) for w in full} - {(w.a, w.b) for w in cut}
    assert all(
        pair_weight(PairedWord(4, a, b)) == 4 for a, b in dropped
    )
    assert len(cut) <= len(full)


def test_clambda_degenerate_ceilings():
    # d <= lam: both component requirements collapse to 1
    book = build_clambda(
        2, 2, 3, list(product((0, 1, 2), repeat=2)),
        {w: set(range(1 << w)) for w in range(3)},
    )
    assert len(book) == 4**2  # every word passes
    assert exhaustive_min_ald(book, 3) >= 2


def test_clambda_input_validation(monkeypatch):
    # greedy_clambda validates before it builds a component
    def no_greedy(*args):
        pytest.fail("greedy_clambda built a component before refusing")

    monkeypatch.setattr(codes, "_greedy", no_greedy)
    with pytest.raises(ValueError):
        build_clambda(4, 4, 1, [(0, 1, 2)], repetition_family(4, 4))
    with pytest.raises(ValueError):
        build_clambda(4, 4, 1, [(0, 1, 2, 7)], repetition_family(4, 4))
    with pytest.raises(ValueError):
        build_clambda(4, 4, 1, even_sum_ternary(4), {4: {1 << 5}})
    with pytest.raises(BudgetExceeded):
        build_clambda(9, 3, 1, [(0,) * 9], {0: {0}})
    with pytest.raises(BudgetExceeded):
        greedy_clambda(9, 3, 1)
    for lam in (0, 1.5, True):
        with pytest.raises(ValueError, match="lam"):
            build_clambda(2, 2, lam, [(0, 0)], {0: {0}})
        with pytest.raises(ValueError, match="lam"):
            greedy_clambda(2, 2, lam)
    for n, d in ((2, 2.5), (2, 0), (True, 2), (2.0, 2)):
        with pytest.raises(ValueError, match="n must|d must"):
            build_clambda(n, d, 1, [(0, 0)], {0: {0}})
        with pytest.raises(ValueError, match="n must|d must"):
            greedy_clambda(n, d, 1)


def test_greedy_clambda_scans_its_ternary_component_once(monkeypatch):
    # greedy_manhattan_code keeps only words at distance >= d from those
    # kept, so only build_clambda's component check measures it.
    calls = []
    scan = codes.min_l1_distance
    monkeypatch.setattr(codes, "min_l1_distance", lambda code: calls.append(1) or scan(code))
    book = greedy_clambda(4, 3, 1)
    assert calls == [1]
    assert exhaustive_min_ald(book, 1) >= 3


def test_greedy_manhattan_small_cases():
    assert greedy_manhattan_code(1, 1) == ((0,), (1,), (2,))
    assert greedy_manhattan_code(1, 3) == ((0,),)
    book = greedy_manhattan_code(2, 2)
    assert min_l1_distance(book) >= 2
    assert (0, 0) in book
    for n, d in ((0, 1), (2, 1.5), (True, 1), (2, 0), (2.0, 2)):
        with pytest.raises(ValueError):
            greedy_manhattan_code(n, d)
    with pytest.raises(BudgetExceeded):
        greedy_manhattan_code(11, 2)


# ------------------------------------------------------------ shared invariants


@given(word_pairs(6))
@settings(max_examples=200)
def test_decomposition_reproduces_the_distance(pair):
    x, y = pair
    i, j, k = distance_decomposition(x, y)
    for lam in (1, 2, 3):
        assert ald_distance(x, y, lam) == lam * i + (1 + lam) * k + 2 * (
            1 + lam
        ) * j


@given(word_pairs(5))
@settings(max_examples=100)
def test_subsequence_lengths_match_weights(pair):
    x, _ = pair
    assert s_subsequence(x) < (1 << pair_weight(x))


def test_codebook_guards():
    book = build_cp(2)
    with pytest.raises(ValueError):
        type(book)(
            n=2, lam=1, design_distance=2, construction="cp", params={},
            words=(PairedWord(2, 0, 0), PairedWord(2, 0, 0)),
        )
    with pytest.raises(ValueError):
        type(book)(
            n=3, lam=1, design_distance=2, construction="cp", params={},
            words=(PairedWord(2, 0, 0),),
        )


def test_codebook_checks_its_integer_fields():
    base = dict(n=2, lam=1, design_distance=2, construction="manual", params={})
    for field, value in (("n", True), ("n", 0), ("lam", 0), ("lam", 1.0),
                         ("design_distance", 0), ("design_distance", True)):
        with pytest.raises(ValueError, match=f"{field} must"):
            Codebook(**{**base, field: value}, words=())
        with pytest.raises(ValueError, match=f"{field} must"):
            Codebook(**{**base, field: value}, membership=lambda w: True)


# ------------------------------------------------------------ pinned codebooks

# Size and SHA-256 of the newline-joined sorted digit strings of each
# codebook, as first built; a refactor of the constructions must keep
# every one.
PINNED = {
    ("cl", 2, 0): (4, "a960aa1533ebf8ad158657e2fb6fa02be2a2fdc01069c9b6f2bb15c68d1198c5"),
    ("cl", 2, 1): (4, "d8d95f092d427b476f1deadffdbf19886e6c7333432464025cd420c646fe1525"),
    ("cl", 2, 3): (4, "a04baeefee0fc44aaae8e981b2a446c6368044f0e1dcf6286ef3ca3d22df821b"),
    ("cl", 3, 0): (512, "33144fdaf832a34a0c41bd080fec37f3533ffa8be9c925612495a90b41171a58"),
    ("cl", 3, 1): (512, "fc53f7b7a2e4d3e050a095a26664bd7c3a1011039b2c03ffcb921a58baa9b33d"),
    ("cl", 3, 3): (512, "7d8100299dedfdeb7f03f461badecd6ec3081b0ba9cd693fa1f37b096f26d2b1"),
    ("partition", 2, 0): (4, "6570bd18ed03d46644e7fcaa0885621ff50fa6d68d9cb66c590b6b96e5694a83"),
    ("partition", 2, 1): (4, "6570bd18ed03d46644e7fcaa0885621ff50fa6d68d9cb66c590b6b96e5694a83"),
    ("partition", 2, 3): (4, "6570bd18ed03d46644e7fcaa0885621ff50fa6d68d9cb66c590b6b96e5694a83"),
    ("partition", 3, 0): (560, "3aaf0824b90f82a96a4782e764ab416cc10cc49c1120b132a977b74a276244a3"),
    ("partition", 3, 1): (560, "3aaf0824b90f82a96a4782e764ab416cc10cc49c1120b132a977b74a276244a3"),
    ("partition", 3, 3): (560, "3aaf0824b90f82a96a4782e764ab416cc10cc49c1120b132a977b74a276244a3"),
    ("cL", 3, 5): (1, "2ac9a6746aca543af8dff39894cfe8173afba21eb01c6fae33d52947222855ef"),
    ("cL", 4, 5): (64, "7b502ce0ced5835b395a4f436db7e666d4aa50ebdc74e1b7d16927df453edb06"),
    ("cp", 1): (3, "9573fef23628dc1332fa8b58ddacfdcbc57471ac5d8815057d3e3789c3ac2c7f"),
    ("cp", 2): (10, "f97690fbe94eca91e34f85960174503ae194f4c555bfaa481a6140bf9398a3b5"),
    ("cp", 3): (36, "768aa600318790d558189b055300de7e3a77239cb8d2abf2bcaf9505ada858ee"),
    ("cp", 4): (136, "3468ed868119eb07e44e8b007a7ea3dca153307954a6c589e3f6d8296973cce5"),
    ("cp", 5): (528, "e56b98228a2beb6ee5e003e0c2b65cfb143e0db45e34351ab4d412bbc701d1ce"),
    ("cp", 6): (2080, "f46e086ea6ec8e995cbfb19fd26b11a6998571c924c20e5261fb00186f0d235a"),
    ("cn", 5, 3): (18, "73fc56ee3fd60e2c8c4dc95b1ae7de9f0936bf987fff02a4dace805230b09feb"),
    ("cn", 5, 3, 1, 2): (17, "7c69d08f6802f1dfddc15b3ceed72e43060b536bb4a6bad0e13fdcb5567f4ed6"),
    ("cn", 7, 5): (24, "1a0e859479f5fa0c0cff9ab9a01e2dede6005e6ca018277ce3ee675a0ea09ee5"),
    ("clambda", 3, 4, 1): (14, "619e2c150065e567d9b8ae0e451cd222fed1a0f5427bc6d709cd8ac74c10cf14"),
    ("clambda", 4, 3, 2): (136, "ee2dd65c986e2da79c47a6791013cd369d290f4c3da2beac8f82a24fa2b487e2"),
    ("clambda", 4, 4, 1): (42, "e06fd7cc9e55644e98bf401bacf4c035f9c9c9cbfa2a09827b68caa520062495"),
    ("clambda", 5, 6, 1): (23, "62cbf5e968e8cf9d20c66f871fe6824420bdf1e8a82d3d82f0e28be9cffb4614"),
    ("clambda", 2, 2, 3): (16, "a44c5cde79dcb77c14bc5f33ddafe5b627e2a498b7316f872a03b95067fe37a1"),
}


def pinned_book(key):
    family, *args = key
    if family == "cl":
        return build_cl(*args)
    if family == "partition":
        return build_partition_code(*args)
    if family == "cL":
        check = bch_parity_check(*args)
        return build_cL(check.ncols // 2, check)
    if family == "cp":
        return build_cp(*args)
    if family == "cn":
        field = OddPrimeField(args[0])
        if len(args) == 2:  # best coset
            return best_cn_coset(field, args[1])[2]
        return build_cn(field, args[1], args[2], (args[3],))
    return greedy_clambda(*args)


@pytest.mark.parametrize("key", list(PINNED),
                         ids=lambda k: "-".join(map(str, k)))
def test_construction_matches_its_pinned_digest(key):
    digits = sorted(w.to_digits() for w in pinned_book(key))
    digest = hashlib.sha256("\n".join(digits).encode()).hexdigest()
    assert (len(digits), digest) == PINNED[key]
