"""Paired binary words and the asymmetric Lee distance.

A quaternary symbol is stored as a pair (a_i; b_i) of bits.  Per position
the four symbols sit on a weighted confusion graph parameterised by a
positive integer lam:

* swapping (1;0) <-> (0;1) costs lam            (class 1),
* flipping one strand bit costs 1 + lam         (class 2),
* swapping (0;0) <-> (1;1) costs 2 * (1 + lam)  (class 3).

The distance between two words is the sum of the per-position edge
weights.  Words are stored as two bit masks so that lengths up to the
machine-int comfort zone (and beyond, Python ints are unbounded) need no
per-symbol heap objects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from numbers import Real

__all__ = [
    "Budget",
    "BudgetExceeded",
    "ErrorClass",
    "PairedWord",
    "Automorphism",
    "ald_distance",
    "classify_position",
    "pair_weight",
    "map_symbols",
    "lee_distance",
    "apply_automorphism",
    "all_words",
    "canonical_weight_word",
]


class BudgetExceeded(RuntimeError):
    """An enumeration or solve was refused or cut short by its budget."""


class Budget:
    """A time budget of ``seconds``.  ``self.seconds`` is None when no
    limit is given; the budget then never runs out, as with ``inf``.
    Only real numbers are read: a bool or a string is rejected, and so
    is NaN, since no clock reading would ever pass it.
    """

    def __init__(self, seconds=None):
        if seconds is not None:
            if (isinstance(seconds, bool) or not isinstance(seconds, Real)
                    or math.isnan(seconds)):
                raise ValueError(f"budget must be a number of seconds, got {seconds!r}")
            seconds = float(seconds)
        self.seconds = seconds
        self.expiry = time.monotonic() + (math.inf if seconds is None else seconds)

    def remaining(self) -> float:
        """Seconds left; negative once the budget has run out."""
        return self.expiry - time.monotonic()

    def check(self, stage: str):
        if time.monotonic() > self.expiry:
            raise BudgetExceeded(f"time budget exhausted during {stage}")


# Objects one call may list in memory: 4^8 words, 3^10 ternary words, the
# elements of a field, the words of a ball or of a pair scan.
LIST_LIMIT = 1 << 16


def _over(base: int, exp: int = 1, cap: int = LIST_LIMIT) -> bool:
    """Whether base**exp > cap, decided without building a huge power:
    for base >= 2, base**exp >= 2**exp, already over once exp exceeds
    cap's bit length."""
    if base >= 2 and exp > cap.bit_length():
        return True
    return base**exp > cap


def _refuse_over(what: str, base: int, exp: int = 1, cap: int = LIST_LIMIT):
    """The one size refusal: ``BudgetExceeded`` when base**exp ``what``
    would be more than cap, raised before the work they bound starts.
    ``what`` may name ``{base}`` and ``{exp}``; they are filled in only
    on refusal, so a check on a per-call path builds no string."""
    if _over(base, exp, cap):
        count = base if exp == 1 else f"{base}^{exp}"
        what = what.format(base=base, exp=exp)
        raise BudgetExceeded(f"{what}: {count}, over the cap of {cap}")


# A symbol (a;b) is the digit 2a + b; each alphabet string below, and
# each row of the tables after it, is indexed by digit.
_DIGITS = "0123"
_DNA = "GCTA"

# Digit-to-integer maps.  gray4 walks the confusion graph so that
# adjacent integers are cheap transitions; nat4 is the plain binary
# reading used for wire formats; z10 spreads the symbols over Z_10 so
# that class-1 pairs land distance +-2 apart, class-2 pairs +-1 or +-4,
# and the class-3 pair exactly 5 apart.
_MAPS = {"gray4": (1, 2, 0, 3), "nat4": (0, 1, 2, 3), "z10": (0, 1, 9, 5)}

# The four isometries of one position, as digit permutations: identity,
# complement, strand swap, and both.  Row k is ``Automorphism``'s map at
# a position whose complement bit is k & 1 and strand-swap bit k >> 1.
_POSITION_MAPS = ((0, 1, 2, 3), (3, 2, 1, 0), (0, 2, 1, 3), (3, 1, 2, 0))


def _check_int(value, name: str, least=None) -> int:
    """``value`` if it is an int (not a bool) of at least ``least``;
    ValueError otherwise."""
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        if least is None or value >= least:
            return value
    kind = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
    raise ValueError(
        f"{name} must be {kind.get(least, f'an integer >= {least}')}, got {value!r}"
    )


def _check_lambda(lam) -> int:
    return _check_int(lam, "lam", 1)


class ErrorClass(Enum):
    """Edge classes of the per-position confusion graph."""

    NO_ERROR = "no_error"
    CLASS1 = "class1"
    CLASS2 = "class2"
    CLASS3 = "class3"

    def edge_weight(self, lam: int) -> int:
        """Distance contribution of one position in this class."""
        _check_lambda(lam)
        if self is ErrorClass.NO_ERROR:
            return 0
        if self is ErrorClass.CLASS1:
            return lam
        if self is ErrorClass.CLASS2:
            return 1 + lam
        return 2 * (1 + lam)


@dataclass(frozen=True, order=True, slots=True)
class PairedWord:
    """A length-n word of paired bits, stored as two bit masks.

    Bit i of ``a`` and ``b`` holds the symbol at position i, so position
    0 corresponds to the least significant bit.  String constructors and
    renderers treat the leftmost character as position 0.
    """

    n: int
    a: int
    b: int

    def __init__(self, n: int, a: int, b: int):
        # Written by hand, not generated: the slots are set through their
        # descriptors, past the frozen __setattr__.  That takes a word
        # from about 0.65 to 0.41 µs (Python 3.11, 2 cores).
        if type(n) is not int or n < 1:
            _check_int(n, "word length", 1)  # raises unless n is an int subclass
        top = 1 << n
        if not (type(a) is int and type(b) is int and 0 <= a < top and 0 <= b < top):
            raise ValueError("bit masks must be ints in range for the word length")
        _set_n(self, n)
        _set_a(self, a)
        _set_b(self, b)

    @classmethod
    def from_bits(cls, a_bits, b_bits) -> "PairedWord":
        a_bits = list(a_bits)
        b_bits = list(b_bits)
        if len(a_bits) != len(b_bits):
            raise ValueError("strand lengths differ")
        a = 0
        b = 0
        for i, (x, y) in enumerate(zip(a_bits, b_bits)):
            if x not in (0, 1) or y not in (0, 1):
                raise ValueError("strand entries must be bits")
            a |= x << i
            b |= y << i
        return cls(len(a_bits), a, b)

    @classmethod
    def from_digits(cls, text: str) -> "PairedWord":
        """Parse a word from quaternary digits, '0'=(0;0) '1'=(0;1) '2'=(1;0) '3'=(1;1)."""
        return cls._parse(text, _DIGITS, "quaternary digit")

    @classmethod
    def from_dna(cls, text: str) -> "PairedWord":
        """Parse a word from DNA letters, G=(0;0) C=(0;1) T=(1;0) A=(1;1)."""
        return cls._parse(text.upper(), _DNA, "DNA letter")

    @classmethod
    def _parse(cls, text: str, alphabet: str, what: str) -> "PairedWord":
        a = 0
        b = 0
        for i, ch in enumerate(text):
            s = alphabet.find(ch)
            if s < 0:
                raise ValueError(f"invalid {what} {ch!r} at position {i}")
            a |= (s >> 1) << i
            b |= (s & 1) << i
        if not text:
            raise ValueError("empty word")
        return cls(len(text), a, b)

    def symbol(self, i: int) -> tuple[int, int]:
        if not (0 <= i < self.n):
            raise IndexError("position out of range")
        return ((self.a >> i) & 1, (self.b >> i) & 1)

    def symbols(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.symbol(i) for i in range(self.n))

    def digits(self) -> tuple[int, ...]:
        """The digit 2a + b of each position's symbol (a;b), position 0 first."""
        a, b = self.a, self.b
        return tuple([((a >> i) & 1) << 1 | ((b >> i) & 1) for i in range(self.n)])

    def to_digits(self) -> str:
        return "".join([_DIGITS[s] for s in self.digits()])

    def to_dna(self) -> str:
        return "".join([_DNA[s] for s in self.digits()])


_set_n, _set_a, _set_b = PairedWord.n.__set__, PairedWord.a.__set__, PairedWord.b.__set__


def pair_weight(x: PairedWord) -> int:
    """Number of positions where the two strands disagree."""
    return (x.a ^ x.b).bit_count()


def canonical_weight_word(n: int, w: int) -> PairedWord:
    """The canonical weight-w word: a = 0^n, b with ones in the first w positions."""
    _check_int(n, "n", 1)
    if not (0 <= _check_int(w, "w") <= n):
        raise ValueError("weight out of range")
    return PairedWord(n, 0, (1 << w) - 1)


def classify_position(s: tuple[int, int], t: tuple[int, int]) -> ErrorClass:
    """Classify the confusion-graph edge between two symbols."""
    if s == t:
        return ErrorClass.NO_ERROR
    da = s[0] ^ t[0]
    db = s[1] ^ t[1]
    if da and db:
        # Both bits changed: either the two mixed symbols swapped, or
        # the two pure symbols swapped.
        return ErrorClass.CLASS1 if s[0] != s[1] else ErrorClass.CLASS3
    return ErrorClass.CLASS2


def ald_distance(x: PairedWord, y: PairedWord, lam: int) -> int:
    """Asymmetric Lee distance between two words of equal length.

    Computed bit-parallel from the flipped bits da = x.a ^ y.a and
    db = x.b ^ y.b.  A position where one bit flips costs 1 + lam and
    one where both flip costs 2 * (1 + lam), except a swap: both bits
    flip where x holds a mixed symbol (1;0) or (0;1).  A swap costs lam
    = 2 * (1 + lam) - (2 + lam), so the sum over positions is

        (1 + lam) * (|da| + |db|) - (2 + lam) * #swaps.
    """
    if type(lam) is not int or lam < 1:  # a plain int needs no further check
        _check_lambda(lam)
    if x.n != y.n:
        raise ValueError("word lengths differ")
    xa = x.a
    xb = x.b
    da = xa ^ y.a
    db = xb ^ y.b
    swaps = (da & db & (xa ^ xb)).bit_count()
    return (1 + lam) * (da.bit_count() + db.bit_count()) - (2 + lam) * swaps


def _position_costs(lam: int) -> tuple:
    """``costs[s][t]``: the distance one position contributes, digit s against t."""
    return _cost_table(_check_lambda(lam))


@lru_cache(maxsize=None)
def _cost_table(lam: int) -> tuple:
    words = [PairedWord(1, s >> 1, s & 1) for s in range(4)]
    return tuple(tuple(ald_distance(x, y, lam) for y in words) for x in words)


def map_symbols(x: PairedWord, target: str) -> tuple[int, ...]:
    """Render a word as integers under one of the symbol maps.

    Targets: ``gray4`` (confusion-graph walk over Z_4), ``nat4`` (plain
    binary reading, the wire alphabet), ``z10`` (spread over Z_10).
    """
    try:
        table = _MAPS[target]
    except KeyError:
        raise ValueError(f"unknown symbol map {target!r}") from None
    return tuple([table[s] for s in x.digits()])


def lee_distance(u, v, q: int = 4) -> int:
    """Lee distance between integer sequences over Z_q."""
    _check_int(q, "q", 1)
    u = tuple(u)
    v = tuple(v)
    if len(u) != len(v):
        raise ValueError("sequence lengths differ")
    total = 0
    for s, t in zip(u, v):
        if not (0 <= _check_int(s, "entry") < q and 0 <= _check_int(t, "entry") < q):
            raise ValueError("entries out of alphabet range")
        d = (s - t) % q
        total += min(d, q - d)
    return total


@dataclass(frozen=True)
class Automorphism:
    """A distance-preserving map: permute positions, then complement
    some, then swap the strands at some.

    ``sigma[i]`` is the source position for output position i; bit i of
    ``z`` says whether both strand bits at output position i are
    complemented, and bit i of ``s`` whether the two strand bits there
    are then exchanged.  These maps form the metric's whole isometry
    group, of order 4^n * n!.  It keeps the number of mixed positions,
    ``pair_weight``, and is transitive on the words with any one count,
    so it has exactly n + 1 word orbits.
    """

    n: int
    sigma: tuple[int, ...]
    z: int
    s: int = 0

    def __post_init__(self):
        _check_int(self.n, "n", 1)
        if sorted(self.sigma) != list(range(self.n)):
            raise ValueError("sigma is not a permutation of range(n)")
        if not (0 <= self.z < (1 << self.n)):
            raise ValueError("complement mask out of range")
        if not (0 <= self.s < (1 << self.n)):
            raise ValueError("strand-swap mask out of range")


def apply_automorphism(x: PairedWord, pi: Automorphism) -> PairedWord:
    if pi.n != x.n:
        raise ValueError("word length does not match automorphism")
    a = 0
    b = 0
    for i, src in enumerate(pi.sigma):
        flip = (pi.z >> i) & 1
        a |= (((x.a >> src) & 1) ^ flip) << i
        b |= (((x.b >> src) & 1) ^ flip) << i
    swap = (a ^ b) & pi.s  # exchanging equal bits changes nothing
    return PairedWord(x.n, a ^ swap, b ^ swap)


def all_words(n: int):
    """Iterate every length-n word in a fixed deterministic order."""
    for a in range(1 << n):
        for b in range(1 << n):
            yield PairedWord(n, a, b)
