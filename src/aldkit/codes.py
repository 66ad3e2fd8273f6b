"""Code constructions over the paired-strand alphabet, with decoders.

Six families, all at desk scale with exhaustively verifiable distance:

- a strand-sum coset code correcting one symbol swap or detecting one
  single-bit flip (distance 3 at unit weighting),
- a doubled parity-check code lifting any binary matrix of null-space
  Hamming distance d >= 4 to the same guarantee on paired words,
- a single-parity code meeting the exact optimum for distance 2,
- a weight-partitioned union code combining small Hamming-type
  components on the disagreement subsequence with the coset code,
- a power-sum congruence code over an odd-prime field (odd design
  distance, positions weighted by powers of a primitive element),
- a two-component product-style code whose strand sums follow a ternary
  Manhattan-distance code and whose disagreement subsequence follows a
  binary Hamming-distance code (any integer weighting).

Codebooks are explicit word lists while 4^n <= core.LIST_LIMIT (n <= 8)
and membership predicates above that; _book makes that choice
for every construction, and lists the words in ``all_words`` order.
Binary component codewords are int bitmasks (bit j = symbol at kept
position j); ternary words are tuples.

Syndromes: a paired word is the 2n-bit vector a | b << n, so the syndrome
of a word under 2n check columns (ints, bit r = row r) is the XOR of
columns[:n] at the first strand's set bits and columns[n:] at the
second's.  The strand-sum code and the doubled parity-check code are
cosets of such checks.  The syndrome is linear, so it is first[a] ^
second[b] for two tables of 2^n syndromes, one per strand:
_syndrome_coset lists a coset's own 4^n / 2^rank words from those
tables and hands only them to _book, which still checks each one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import comb

from .core import (
    PairedWord,
    _check_int,
    _check_lambda,
    _over,
    _refuse_over,
    all_words,
    pair_weight,
)

__all__ = [
    "BinaryParityCheck",
    "Codebook",
    "DecodingError",
    "DetectionFlag",
    "OddPrimeField",
    "bch_parity_check",
    "best_cn_coset",
    "build_H01",
    "build_cL",
    "build_cl",
    "build_clambda",
    "build_cn",
    "build_cp",
    "build_partition_code",
    "decode_cl",
    "decode_cn",
    "distance_decomposition",
    "greedy_manhattan_code",
    "hamming_component",
    "min_hamming_distance",
    "min_l1_distance",
    "s_subsequence",
]

# caps that bound time or other tables than core.LIST_LIMIT's lists,
# checked by core._refuse_over before the work they bound starts
COLUMN_LIMIT_V = 20  # v of the 2^v - 2 column tables of cl, partition and H01
LADDER_LIMIT = 1 << 25  # column pairs and triples distance_at_least tries


# Primitive polynomials over F2, degree v, as bitmask ints (LSB = x^0).
_PRIMITIVE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class DecodingError(RuntimeError):
    """Received word is outside the decoder's guaranteed error set."""


@dataclass(frozen=True)
class DetectionFlag:
    """Detector outcome: a nonzero syndrome, with the strand and
    position named when the syndrome determines them (single-flip
    patterns), None otherwise."""

    syndrome: int
    strand: str | None = None
    position: int | None = None


# ----------------------------------------------------------- F2 linear algebra


def _kernel_basis(columns: tuple[int, ...], nrows: int) -> list[int]:
    """Basis of {x in F2^N : xor of x_j * column_j = 0}, columns as ints."""
    ncols = len(columns)
    rows = []
    for r in range(nrows):
        acc = 0
        for j, c in enumerate(columns):
            if (c >> r) & 1:
                acc |= 1 << j
        rows.append(acc)
    reduced: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for prow, pcol in zip(reduced, pivots):
            if (row >> pcol) & 1:
                row ^= prow
        if row == 0:
            continue
        pcol = (row & -row).bit_length() - 1
        for i, prow in enumerate(reduced):
            if (prow >> pcol) & 1:
                reduced[i] = prow ^ row
        reduced.append(row)
        pivots.append(pcol)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for prow, pcol in zip(reduced, pivots):
            if (prow >> free) & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return basis


def _span(basis):
    """Every F2 combination of basis, zero first, in Gray-code order:
    each word is the previous one XOR a single basis vector."""
    word = 0
    yield word
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        yield word


def _syndrome(word: PairedWord, columns) -> int:
    """XOR of columns at the set bits of a | b << n: columns[:n] are the
    first strand's, columns[n:] the second's."""
    s = 0
    bits = word.a | word.b << word.n
    while bits:
        low = bits & -bits
        s ^= columns[low.bit_length() - 1]
        bits ^= low
    return s


@dataclass(frozen=True)
class BinaryParityCheck:
    """A binary parity-check matrix with columns stored as ints.

    Bit r of a column is the entry in row r.  claimed_distance is the
    asserted Hamming distance of the null-space code; distance_at_least
    verifies it exactly at desk scale.
    """

    rows: int
    columns: tuple[int, ...]
    claimed_distance: int

    def __post_init__(self):
        _check_int(self.rows, "rows", 1)
        _check_int(self.claimed_distance, "claimed_distance", 1)
        top = 1 << self.rows
        object.__setattr__(self, "columns", tuple(self.columns))
        if any(not (0 <= c < top) for c in self.columns):
            raise ValueError("column entries out of range for row count")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def distance_at_least(self, k: int) -> bool:
        """Exact check that the null-space Hamming distance is >= k.

        Distance >= k means no k-1 columns are linearly dependent; the
        ladder below is exact through k = 5, larger k falls back to
        null-space enumeration.  The ladder refuses, before it starts,
        to try more than LADDER_LIMIT pairs and triples of columns.
        """
        if k <= 1:
            return True
        if 0 in self.columns:
            return False
        if k == 2:
            return True
        if len(set(self.columns)) < self.ncols:
            return False
        if k == 3:
            return True
        tries = comb(self.ncols, 2) + (comb(self.ncols, 3) if k >= 5 else 0)
        _refuse_over(f"the distance-{k} check of {self.ncols} columns, column sets tried",
                     tries, cap=LADDER_LIMIT)
        colset = set(self.columns)
        for c1, c2 in combinations(self.columns, 2):
            if c1 ^ c2 in colset:
                return False
        if k == 4:
            return True
        for c1, c2, c3 in combinations(self.columns, 3):
            if c1 ^ c2 ^ c3 in colset:
                return False
        if k == 5:
            return True
        dist = self.min_distance()
        return dist is None or dist >= k

    def min_distance(self) -> int | None:
        """Exact null-space minimum weight; None for the trivial code."""
        basis = _kernel_basis(self.columns, self.rows)
        if not basis:
            return None
        _refuse_over("words of the null space", 2, len(basis), 1 << 20)
        return min(w.bit_count() for w in islice(_span(basis), 1, None))

    def validate(self):
        """Raise unless the claimed distance holds (exact at desk scale)."""
        if not self.distance_at_least(self.claimed_distance):
            raise ValueError(
                f"null-space distance is below the claimed "
                f"{self.claimed_distance}"
            )


# ------------------------------------------------------------------- codebooks


@dataclass
class Codebook:
    """A set of paired words with a designed minimum distance.

    words is the explicit list at desk scale and None above it;
    membership testing always works.  size is exact in either case
    whenever the construction pins it down.
    """

    n: int
    lam: int
    design_distance: int
    construction: str
    params: dict
    words: tuple | None = None
    size: int | None = None
    membership: object = field(default=None, repr=False)

    def __post_init__(self):
        _check_int(self.n, "n", 1)
        _check_lambda(self.lam)
        _check_int(self.design_distance, "design_distance", 1)
        if self.words is not None:
            self.words = tuple(self.words)
            keys = {(w.a, w.b) for w in self.words}
            if len(keys) != len(self.words):
                raise ValueError("duplicate words in codebook")
            if any(w.n != self.n for w in self.words):
                raise ValueError("word length mismatch")
            self.size = len(self.words)
            if self.membership is None:
                self.membership = lambda w: (w.a, w.b) in keys

    def __contains__(self, word) -> bool:
        if self.membership is None:
            raise TypeError("codebook has no membership predicate")
        return bool(self.membership(word))

    def __len__(self) -> int:
        """The exact size, for books of at most ``sys.maxsize`` words.

        Python's ``len()`` raises OverflowError above that (an implicit
        ``build_cl(6)`` has 2^118 words); read ``size`` for any book.
        """
        if self.size is None:
            raise TypeError("codebook size not determined")
        return self.size

    def __iter__(self):
        if self.words is None:
            raise TypeError("codebook is implicit, no word list")
        return iter(self.words)


def _book(n, lam, d, construction, params, member, size=None,
          candidates=None) -> Codebook:
    """The explicit list of words passing member while 4^n <= core.LIST_LIMIT,
    else the predicate itself.  A given size must match the enumeration.

    candidates, words in ``all_words`` order that include every member,
    narrows the enumeration (``all_words(n)`` when None); it is read only
    for an explicit list, so a generator costs nothing above the cap.
    """
    if _over(4, n):
        return Codebook(n, lam, d, construction, params, size=size,
                        membership=member)
    if candidates is None:
        candidates = all_words(n)
    words = tuple(w for w in candidates if member(w))
    book = Codebook(n, lam, d, construction, params, words=words)
    if size is not None and book.size != size:
        raise AssertionError("kernel size does not match enumeration")
    return book


def _strand_syndromes(columns) -> list:
    """The syndrome of every mask of len(columns) bits, indexed by mask."""
    table = [0]
    for c in columns:
        table += [s ^ c for s in table]
    return table


def _coset_words(columns, u):
    """Every word whose syndrome under columns is u, in ``all_words``
    order: the syndrome of (a; b) is first[a] ^ second[b], so for each
    first strand a the second strands b are those with second[b] equal
    to first[a] ^ u, listed in increasing order."""
    n = len(columns) // 2
    by_syndrome = {}
    for b, s in enumerate(_strand_syndromes(columns[n:])):
        by_syndrome.setdefault(s, []).append(b)
    for a, s in enumerate(_strand_syndromes(columns[:n])):
        for b in by_syndrome.get(s ^ u, ()):
            yield PairedWord(n, a, b)


def _syndrome_coset(construction, params, d, columns, u, size) -> Codebook:
    """Words of length len(columns) // 2 whose syndrome is u; size is the
    caller's count of them, checked against the enumeration.  Only the
    coset's own words are enumerated, each still checked by syndrome."""
    return _book(len(columns) // 2, 1, d, construction, params,
                 lambda w: _syndrome(w, columns) == u, size=size,
                 candidates=_coset_words(columns, u))


# -------------------------------------------- strand-sum coset code, distance 3


def build_H01(v: int) -> BinaryParityCheck:
    """The v x (2^v - 2) matrix whose columns are every nonzero
    vector except all-ones, ordered as increasing binary integers."""
    _check_cl_params(v, 0)
    return BinaryParityCheck(
        rows=v, columns=tuple(range(1, (1 << v) - 1)), claimed_distance=3
    )


def _check_cl_params(v: int, u: int) -> int:
    """Length n = 2^v - 2 of the strand-sum code with coset label u,
    refused above COLUMN_LIMIT_V before any 2^v-sized table is built."""
    _refuse_over("column-table entries at v={exp}", 2, _check_int(v, "v", 2), 1 << COLUMN_LIMIT_V)
    if not (0 <= _check_int(u, "u") < (1 << v)):
        raise ValueError("coset label out of range")
    return (1 << v) - 2


def _cl_columns(v: int) -> tuple[int, ...]:
    # Column for first-strand position p is the integer p+1; every
    # second-strand column is all-ones, so that strand adds its parity.
    n = (1 << v) - 2
    return tuple(range(1, n + 1)) + ((1 << v) - 1,) * n


def _cl_syndrome(v: int, word: PairedWord) -> int:
    """``_syndrome(word, _cl_columns(v))`` in closed form: the XOR of p+1
    over the set bits p of the first strand, then all-ones when the
    second strand has odd weight."""
    s = 0
    a = word.a
    while a:
        low = a & -a
        s ^= low.bit_length()  # p + 1 for low = 1 << p
        a ^= low
    if word.b.bit_count() & 1:
        s ^= (1 << v) - 1
    return s


def build_cl(v: int, u: int = 0) -> Codebook:
    """Coset code: first strand weighted by the nonzero non-ones columns
    plus second-strand parity times all-ones must equal u.

    Size is exactly 4**n / 2**v (the syndrome map is surjective).
    Minimum distance 3 at unit weighting, for every coset.
    """
    n = _check_cl_params(v, u)
    return _syndrome_coset("cl", {"v": v, "u": u}, 3, _cl_columns(v), u,
                           4**n >> v)


def decode_cl(v: int, u: int, received: PairedWord, mode: str):
    """Syndrome decoder for the strand-sum coset code.

    correct_class1: assumes at most one symbol-swap error; returns the
    decoded word or raises DecodingError on an impossible syndrome.
    detect_class2: assumes at most one single-bit flip; returns the word
    when the syndrome is clean, else a DetectionFlag naming the strand
    (and position, for first-strand flips).
    """
    n = _check_cl_params(v, u)
    if received.n != n:
        raise ValueError("received word length does not match v")
    ones = (1 << v) - 1
    s = _cl_syndrome(v, received) ^ u
    if mode == "detect_class2":
        if s == 0:
            return received
        if s == ones:
            return DetectionFlag(syndrome=s, strand="b")
        return DetectionFlag(syndrome=s, strand="a", position=s - 1)
    if mode == "correct_class1":
        st = s ^ ones
        if st == ones:
            return received
        if 1 <= st < ones:
            flip = 1 << (st - 1)
            return PairedWord(n, received.a ^ flip, received.b ^ flip)
        raise DecodingError("uncorrectable pattern")
    raise ValueError(f"unknown decode mode {mode!r}")


# --------------------------------------- doubled parity-check code, distance d


def build_cL(n: int, check: BinaryParityCheck) -> Codebook:
    """Lift a binary code with null-space distance d >= 4 on 2n bits to
    paired words: first strand takes the first n columns, second strand
    the XOR of matching first and second halves."""
    if check.ncols != 2 * n:
        raise ValueError("parity check must have exactly 2n columns")
    if check.claimed_distance < 4:
        raise ValueError("need null-space distance at least 4")
    check.validate()
    first = check.columns[:n]
    effective = tuple(first) + tuple(
        check.columns[i] ^ check.columns[n + i] for i in range(n)
    )
    params = {"claimed_distance": check.claimed_distance}
    size = 1 << len(_kernel_basis(effective, check.rows))
    return _syndrome_coset("cL", params, check.claimed_distance, effective,
                           0, size)


def _gf2_alpha_powers(v: int) -> list[int]:
    """x^0, x^1, ..., x^(2^v - 2) in GF(2^v) as bitmask ints, modulo the
    stored primitive polynomial (so the class of x is primitive)."""
    try:
        poly = _PRIMITIVE_POLY[v]
    except KeyError:
        raise ValueError(f"unsupported field degree {v}") from None
    out = [1]
    for _ in range((1 << v) - 2):
        x = out[-1] << 1
        out.append(x ^ poly if x >> v else x)
    return out


def bch_parity_check(v: int, d: int) -> BinaryParityCheck:
    """Parity check of a one-position-shortened cyclic code, length
    2^v - 2.  d=3 drops the all-ones column from the all-nonzero-columns
    check; d=5 stacks first and third powers of a primitive element,
    dropping the zeroth position."""
    if d == 3:
        return build_H01(v)
    if d == 5:
        powers = _gf2_alpha_powers(v)
        cols = []
        for i in range(1, (1 << v) - 1):
            cols.append((powers[i] << v) | powers[(3 * i) % len(powers)])
        return BinaryParityCheck(
            rows=2 * v, columns=tuple(cols), claimed_distance=5
        )
    raise ValueError("only distances 3 and 5 are tabulated")


# ------------------------------------------------- single-parity code, distance 2


def build_cp(n: int) -> Codebook:
    """All words whose strands disagree somewhere and whose first strand
    has even parity, plus every word with identical strands.  Exactly
    2^(2n-1) + 2^(n-1) words, minimum distance 2 at unit weighting."""
    _check_int(n, "n", 1)
    _refuse_over("words", 4, n)
    # every b for an even-parity a, b = a alone for an odd one
    words = (PairedWord(n, a, b) for a in range(1 << n)
             for b in (range(1 << n) if a.bit_count() % 2 == 0 else (a,)))
    return _book(n, 1, 2, "cp", {},
                 lambda w: w.a == w.b or w.a.bit_count() % 2 == 0,
                 size=2 ** (2 * n - 1) + 2 ** (n - 1), candidates=words)


# -------------------------------------- weight-partitioned union code, distance 3


def s_subsequence(word: PairedWord) -> int:
    """First-strand bits at the positions where the strands disagree,
    packed as a bitmask in increasing position order."""
    out = 0
    j = 0
    diff = word.a ^ word.b
    for p in range(word.n):
        if (diff >> p) & 1:
            out |= ((word.a >> p) & 1) << j
            j += 1
    return out


def hamming_component(w: int) -> frozenset[int]:
    """A length-w binary code of Hamming distance >= 3 (vacuous below
    two words), w in {1,3,5,7}, as bitmask ints: the kernel of the check
    matrix whose columns are 1..w over the w.bit_length() rows they need,
    the zero-containing member of the standard coset partition (for
    w = 5, the length-7 Hamming code shortened on its last positions)."""
    if w not in (1, 3, 5, 7):
        raise ValueError("components exist for weights 1, 3, 5, 7 only")
    return frozenset(_span(_kernel_basis(tuple(range(1, w + 1)), w.bit_length())))


def build_partition_code(v: int, u: int = 0) -> Codebook:
    """Union code on n = 2^v - 2 positions: words of odd disagreement
    weight at most 7 whose disagreement subsequence lies in a distance-3
    component, plus words of weight at least 9 drawn from the strand-sum
    coset u.  Minimum distance 3 at unit weighting."""
    n = _check_cl_params(v, u)
    components = {w: hamming_component(w) for w in (1, 3, 5, 7) if w <= n}

    def member(word: PairedWord) -> bool:
        w = pair_weight(word)
        if w in components:
            return s_subsequence(word) in components[w]
        if w >= 9:
            return _cl_syndrome(v, word) == u
        return False

    return _book(n, 1, 3, "partition", {"v": v, "u": u}, member)


# ------------------------------------ power-sum congruence code, odd distance d


def _is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


# Monic irreducible polynomials for small extensions, coefficients
# little-endian including the leading 1.
_IRREDUCIBLE = {
    (3, 2): (1, 0, 1),
    (5, 2): (3, 0, 1),
    (7, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
}


class OddPrimeField:
    """F_{q^l} for an odd prime q, elements encoded as ints in
    [0, q^l) whose base-q digits are polynomial coefficients
    (little-endian).  alpha must generate the multiplicative group."""

    def __init__(self, q: int, l: int = 1, alpha: int | None = None,
                 modulus: tuple | None = None):
        _check_int(l, "l", 1)
        if _check_int(q, "q") >= 3:
            _refuse_over("elements of the field q={base}, l={exp}", q, l)
        if not _is_odd_prime(q):
            raise ValueError("q must be an odd prime")
        self.q = q
        self.l = l
        self.size = q**l
        if l == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = _IRREDUCIBLE.get((q, l))
                if modulus is None:
                    raise ValueError(
                        f"no stored modulus for ({q}, {l}); pass one"
                    )
            modulus = tuple(c % q for c in modulus)
            if len(modulus) != l + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree l")
            self.modulus = modulus
        # A reducible modulus leaves no element of order q^l - 1.
        if alpha is None:
            alpha = self._find_generator()
        if not (1 <= alpha < self.size):
            raise ValueError("alpha out of field range")
        if self._order(alpha) != self.size - 1:
            raise ValueError("alpha does not generate the multiplicative group")
        self.alpha = alpha
        self._alpha_powers = [1]
        for _ in range(self.size - 2):
            self._alpha_powers.append(self.mul(self._alpha_powers[-1], alpha))

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.l):
            out.append(x % self.q)
            x //= self.q
        return out

    def _pack(self, digits) -> int:
        out = 0
        for c in reversed(list(digits)):
            out = out * self.q + (c % self.q)
        return out

    def add(self, x: int, y: int) -> int:
        if self.l == 1:
            return (x + y) % self.q
        dx, dy = self._digits(x), self._digits(y)
        return self._pack((a + b) % self.q for a, b in zip(dx, dy))

    def neg(self, x: int) -> int:
        if self.l == 1:
            return (-x) % self.q
        return self._pack((-c) % self.q for c in self._digits(x))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.l == 1:
            return (x * y) % self.q
        dx, dy = self._digits(x), self._digits(y)
        raw = [0] * (2 * self.l - 1)
        for i, a in enumerate(dx):
            if a:
                for j, b in enumerate(dy):
                    raw[i + j] = (raw[i + j] + a * b) % self.q
        # Reduce x^k = -(modulus minus leading term) * x^(k-l).
        for k in range(2 * self.l - 2, self.l - 1, -1):
            c = raw[k]
            if c:
                raw[k] = 0
                for j in range(self.l):
                    raw[k - self.l + j] = (
                        raw[k - self.l + j] - c * self.modulus[j]
                    ) % self.q
        return self._pack(raw[: self.l])

    def _order(self, x: int) -> int:
        """Multiplicative order of x, or 0 when x is not a unit."""
        acc = x
        for k in range(1, self.size):
            if acc == 1:
                return k
            acc = self.mul(acc, x)
        return 0

    def _find_generator(self) -> int:
        for cand in range(2, self.size):
            order = self._order(cand)
            if order == self.size - 1:
                return cand
            if order == 0:  # a non-unit: the ring is not a field
                break
        raise ValueError("the modulus is reducible")

    def from_int(self, k: int) -> int:
        return k % self.q

    def alpha_pow(self, k: int) -> int:
        return self._alpha_powers[k % (self.size - 1)]


def _cn_signature(field: OddPrimeField, d: int, phis) -> tuple:
    """(sum of phis mod d, power sums sum_i phi_i * alpha^(i*k) for
    k = 1..floor(d/2)), positions i from 1; phis are integers, so an
    error pattern's signature is computed the same way as a word's."""
    half = d // 2
    sums = []
    for k in range(1, half + 1):
        acc = 0
        for i, phi in enumerate(phis, start=1):
            if phi:
                acc = field.add(
                    acc, field.mul(field.from_int(phi), field.alpha_pow(i * k))
                )
        sums.append(acc)
    return sum(phis) % d, tuple(sums)


def _check_cn_params(field: OddPrimeField, d: int):
    if _check_int(d, "d", 1) % 2 == 0:
        raise ValueError("design distance must be odd")
    if field.q < d + 1:
        raise ValueError("need q >= d + 1")


def _check_cn_coset(field: OddPrimeField, d: int, u: int, z) -> tuple:
    """The power-sum targets z as a tuple, once d, the congruence class
    u and every target are checked."""
    _check_cn_params(field, d)
    if not (0 <= _check_int(u, "u") < d):
        raise ValueError("congruence class out of range")
    z = tuple(z)
    if len(z) != d // 2:
        raise ValueError("need exactly floor(d/2) power-sum targets")
    if any(not (0 <= _check_int(zk, "z entry") < field.size) for zk in z):
        raise ValueError("power-sum target out of field range")
    return z


def build_cn(field: OddPrimeField, d: int, u: int, z: tuple) -> Codebook:
    """Power-sum congruence code on n = q^l - 1 positions: the word's
    digit values must sum to u modulo d and match the prescribed first
    floor(d/2) power sums over the field.  Minimum distance >= d at
    unit weighting; the cosets over all (u, z) partition the space."""
    z = _check_cn_coset(field, d, u, z)
    n = field.size - 1
    _refuse_over("words", 4, n)
    params = {"q": field.q, "l": field.l, "alpha": field.alpha,
              "u": u, "z": z}
    return _book(n, 1, d, "cn", params,
                 lambda w: _cn_signature(field, d, w.digits()) == (u, z))


def best_cn_coset(field: OddPrimeField, d: int):
    """Scan every (u, z) coset and return the largest as (u, z, book).

    The averaging bound guarantees size >= 4^n / (d (n+1)^floor(d/2))
    for the winner.  Ties break toward the smallest (u, z)."""
    _check_cn_params(field, d)
    n = field.size - 1
    _refuse_over("words", 4, n)
    buckets: dict = {}
    for w in all_words(n):
        sig = _cn_signature(field, d, w.digits())
        buckets.setdefault(sig, []).append(w)
    u, z = min(buckets, key=lambda sig: (-len(buckets[sig]), sig))
    params = {"q": field.q, "l": field.l, "alpha": field.alpha,
              "u": u, "z": z}
    book = Codebook(n, 1, d, "cn", params, words=tuple(buckets[(u, z)]))
    return u, z, book


def decode_cn(field: OddPrimeField, d: int, u: int, z: tuple,
              received: PairedWord) -> PairedWord:
    """Syndrome-lookup decoder: corrects any digit-error pattern of Lee
    weight at most floor(d/2) over F_q by matching the syndrome against
    a precomputed table.  Desk scale only; algebraic decoding of the
    power sums is out of scope."""
    z = _check_cn_coset(field, d, u, z)
    n = field.size - 1
    if received.n != n:
        raise ValueError("received word length does not match the field")
    half = d // 2
    # Integer lifts with Lee weight (sum of absolute values) <= half.
    table: dict = {}
    magnitudes = range(-half, half + 1)

    def patterns(prefix, budget, pos):
        if pos == n:
            yield tuple(prefix)
            return
        for m in magnitudes:
            if abs(m) <= budget:
                yield from patterns(prefix + [m], budget - abs(m), pos + 1)

    for lift in patterns([], half, 0):
        key = _cn_signature(field, d, lift)
        if key in table and table[key] != lift:
            raise ArithmeticError("syndrome collision inside the error set")
        table[key] = lift
    phis = received.digits()
    got_u, got_z = _cn_signature(field, d, phis)
    delta = (
        (got_u - u) % d,
        tuple(field.sub(a, b) for a, b in zip(got_z, z)),
    )
    lift = table.get(delta)
    if lift is None:
        raise DecodingError("uncorrectable pattern")
    fixed = [p - m for p, m in zip(phis, lift)]
    if any(not (0 <= p <= 3) for p in fixed):
        raise DecodingError("uncorrectable pattern")
    out = PairedWord.from_bits([p >> 1 for p in fixed], [p & 1 for p in fixed])
    if _cn_signature(field, d, out.digits()) != (u, z):
        raise DecodingError("uncorrectable pattern")
    return out


# ------------------------------------ two-component code, arbitrary weighting


def distance_decomposition(x: PairedWord, y: PairedWord) -> tuple[int, int, int]:
    """Split the differing positions of two words into the three edge
    classes: I swaps (both words mixed, first strands differ), J double
    flips (both words pure, first strands differ), K single flips (the
    rest).  The distance at weighting lam is lam*I + (1+lam)*K +
    2*(1+lam)*J."""
    if x.n != y.n:
        raise ValueError("word lengths differ")
    # the masks of core.ald_distance: a position where both strand bits
    # flip is a swap when x is mixed there, and a double flip otherwise
    da = x.a ^ y.a
    db = x.b ^ y.b
    both = da & db
    i_count = (both & (x.a ^ x.b)).bit_count()
    return i_count, both.bit_count() - i_count, (da ^ db).bit_count()


def _l1(x, y) -> int:
    return sum(abs(a - b) for a, b in zip(x, y))


def _hamming(x: int, y: int) -> int:
    return (x ^ y).bit_count()


def _min_pairwise(items, dist) -> int | None:
    return min((dist(x, y) for x, y in combinations(items, 2)), default=None)


def _greedy(candidates, dist, d: int) -> list:
    """Lexicographic greedy scan: keep each candidate at distance >= d
    from everything kept so far."""
    kept = []
    for cand in candidates:
        if all(dist(cand, w) >= d for w in kept):
            kept.append(cand)
    return kept


def min_l1_distance(code) -> int | None:
    """Minimum pairwise Manhattan distance; None below two words."""
    return _min_pairwise([tuple(w) for w in code], _l1)


def min_hamming_distance(code) -> int | None:
    """Minimum pairwise Hamming distance over int bitmasks; None below
    two words."""
    return _min_pairwise(list(code), _hamming)


def _component_distances(n: int, d: int, lam: int) -> tuple[int, int]:
    """(ceil(d/(1+lam)), ceil(d/lam)): the Manhattan and Hamming
    distances the two components of a distance-d clambda code need.
    The family's only validator, which build_clambda and greedy_clambda
    call first: it checks n, d and lam and refuses more than
    core.LIST_LIMIT words."""
    _check_int(n, "n", 1)
    _check_int(d, "d", 1)
    _check_lambda(lam)
    _refuse_over("words", 4, n)
    return -(-d // (1 + lam)), -(-d // lam)


def build_clambda(n: int, d: int, lam: int, cm, ch_family) -> Codebook:
    """Two-component code for any weighting: the per-position strand
    sums (real addition, values 0/1/2) must form a word of the ternary
    Manhattan code cm with distance >= ceil(d/(1+lam)), and the
    disagreement subsequence must lie in ch_family[weight], a binary
    code of Hamming distance >= ceil(d/lam).  Weights missing from
    ch_family contribute no words."""
    need_m, need_h = _component_distances(n, d, lam)
    cm_set = set()
    for w in cm:
        w = tuple(w)
        if len(w) != n or any(c not in (0, 1, 2) for c in w):
            raise ValueError("ternary component word malformed")
        cm_set.add(w)
    got = min_l1_distance(cm_set)
    if got is not None and got < need_m:
        raise ValueError(
            f"component distance shortfall: ternary code has Manhattan "
            f"distance {got}, need {need_m}"
        )
    family = {}
    for w, code in ch_family.items():
        masks = frozenset(code)
        if any(not (0 <= m < (1 << w)) for m in masks):
            raise ValueError(f"weight-{w} component mask out of range")
        got = min_hamming_distance(masks)
        if got is not None and got < need_h:
            raise ValueError(
                f"component distance shortfall: weight-{w} code has "
                f"Hamming distance {got}, need {need_h}"
            )
        family[w] = masks

    def member(word: PairedWord) -> bool:
        sums = tuple(
            ((word.a >> p) & 1) + ((word.b >> p) & 1) for p in range(n)
        )
        if sums not in cm_set:
            return False
        code = family.get(pair_weight(word))
        if code is None:
            return False
        return s_subsequence(word) in code

    params = {"manhattan_distance": need_m, "hamming_distance": need_h}
    return _book(n, lam, d, "clambda", params, member)


def greedy_clambda(n: int, d: int, lam: int) -> Codebook:
    """build_clambda on greedy components: greedy_manhattan_code for the
    strand sums and, for every weight 0..n, the lexicographic greedy
    binary code of the needed Hamming distance."""
    need_m, need_h = _component_distances(n, d, lam)
    cm = greedy_manhattan_code(n, need_m)
    family = {w: _greedy(range(1 << w), _hamming, need_h)
              for w in range(n + 1)}
    return build_clambda(n, d, lam, cm, family)


def greedy_manhattan_code(n: int, d: int):
    """Lexicographic greedy scan of {0,1,2}^n keeping words at Manhattan
    distance >= d from everything kept, so distance >= d by construction."""
    _check_int(n, "n", 1)
    _check_int(d, "d", 1)
    _refuse_over("ternary words", 3, n)
    if d == 1:
        return tuple(product((0, 1, 2), repeat=n))
    return tuple(_greedy(product((0, 1, 2), repeat=n), _l1, d))
