"""Acceptance checks, one per numbered criterion, one PASS/FAIL line each.

Every check compares live computation against the shipped reference data
at the stated tolerance (exact integer equality unless noted). Where the
reference records numbers that no sound method gives (the ``weights1``
column of table 2, the "--" cells of table 3), the check reproduces or
bounds the recorded claim and shows why the certified value differs,
rather than patching either side. Run with ``pytest -s`` to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from aldkit.balls import ball_size, enumerate_ball
from aldkit.cli import _load_reference, main
from aldkit.codes import (
    OddPrimeField,
    best_cn_coset,
    build_cl,
    build_clambda,
    build_cn,
    decode_cl,
    greedy_manhattan_code,
)
from aldkit.core import (
    Automorphism,
    PairedWord,
    ald_distance,
    all_words,
    apply_automorphism,
    canonical_weight_word,
    lee_distance,
    map_symbols,
)
from aldkit.delsarte import delsarte_bound
from aldkit.hyperbound import (
    class_matrix,
    lp_hypergraph_bound,
    naive_weight_bound,
    optimal1_bound,
    simple_bound,
    weights1_bound,
)
from aldkit.lp import LPStatus, solve_linear_system
from aldkit.search_verify import exact_max_code, min_distance, sandwich_check


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


def csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_01_table1_speed_and_anchors(capsys):
    t0 = time.monotonic()
    rc = main(["table", "1", "--max-n", "8"])
    elapsed = time.monotonic() - t0
    rows = csv_rows(capsys.readouterr().out)
    cell = {(r["n"], r["d"]): r for r in rows}
    ok = (
        rc == 0
        and elapsed < 60.0
        and len(rows) == 48
        and all(r["match"] == "yes" for r in rows)
        and cell[("5", "3")]["value_floor"] == "336"
        and cell[("8", "5")]["value_floor"] == "2483"
        and lp_hypergraph_bound(10, 13, 1).floored == 340
    )
    assert report(1, ok, f"48 LP cells exact in {elapsed:.2f}s (limit 60s), "
                         "anchors (5,3)=336 (8,5)=2483 (10,13)=340")


def covers(mat, weights):
    """Every ball-cover row of the class matrix collects weight >= 1."""
    return all(
        sum(k * w for k, w in zip(mat.row(i), weights)) >= 1
        for i in range(mat.n + 1)
    )


def recorded_weights1_system(n, r):
    """The capped system the recorded ``weights1`` column comes from.

    Same recipe as ``weights1_bound`` except that off-diagonal entries
    are capped at diag/r instead of (diag - 1)/r.  Returns the class
    matrix, the solved weights and the floored class objective.
    """
    mat = class_matrix(n, r, 1)
    system = [
        [
            Fraction(mat.entry(i, j)) if i == j
            else min(Fraction(mat.entry(i, j)), Fraction(mat.entry(i, i), r))
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]
    weights = solve_linear_system(system, [1] * (n + 1))
    value = (2 ** n) * sum(math.comb(n, i) * w for i, w in enumerate(weights))
    return mat, weights, math.floor(value)


def test_criterion_02_table2_columns_and_ordering():
    ref = _load_reference(2)
    computed = {}
    for row in ref["rows"]:
        n = row["n"]
        computed[n] = {
            "lp": lp_hypergraph_bound(n, 5, 1).floored,
            "naive": naive_weight_bound(n, 5, 1).floored,
            "simple": simple_bound(n, 5, 1).floored,
            "weights1": weights1_bound(n, 2),
        }
    col_ok = {
        method: all(computed[row["n"]][method] == row[method]
                    for row in ref["rows"])
        for method in ("lp", "naive", "simple")
    }
    # The recorded weights1 column is the diag/r system, and none of its
    # weight vectors is a covering assignment, so it certifies nothing.
    recorded_ok = infeasible_ok = True
    for row in ref["rows"]:
        mat, weights, value = recorded_weights1_system(row["n"], 2)
        recorded_ok = recorded_ok and value == row["weights1"]
        infeasible_ok = infeasible_ok and (
            min(weights) < 0 or not covers(mat, weights)
        )
    ref_order_ok = all(
        row["lp"] <= row["weights1"] <= row["naive"] for row in ref["rows"]
    )
    # The certified (diag-1)/r value is a covering assignment, hence at
    # least the LP optimum.  Neither method promises weights1 <= naive,
    # so that ordering is printed, not asserted.
    certified_ok = all(
        min(c["weights1"].weights) >= 0
        and covers(class_matrix(n, 2, 1), c["weights1"].weights)
        and c["lp"] <= c["weights1"].floored
        for n, c in computed.items()
    )
    above_naive = [n for n, c in computed.items()
                   if c["weights1"].floored > c["naive"]]
    ok = (all(col_ok.values()) and recorded_ok and infeasible_ok
          and ref_order_ok and certified_ok)
    report(2, ok, "columns exact lp/naive/simple: "
                  f"{col_ok['lp']}/{col_ok['naive']}/{col_ok['simple']}; "
                  f"recorded weights1 = diag/r system on all "
                  f"{len(ref['rows'])} rows: {recorded_ok}, each infeasible: "
                  f"{infeasible_ok}; recorded lp<=weights1<=naive: "
                  f"{ref_order_ok}; certified weights1 covers and >= lp: "
                  f"{certified_ok} (above naive at n={above_naive})")
    assert ok, (
        f"lp/naive/simple exact {col_ok}, recorded weights1 reproduced "
        f"{recorded_ok}, recorded weights infeasible {infeasible_ok}, "
        f"recorded ordering {ref_order_ok}, certified weights1 sound "
        f"{certified_ok}"
    )


def test_criterion_03_optimal1_agrees_with_lp():
    ok = all(
        optimal1_bound(n).exact == lp_hypergraph_bound(n, 3, 1).exact
        for n in range(1, 11)
    )
    assert report(3, ok, "closed-form distance-3 bound equals the LP value "
                         "for every n up to 10")


def test_criterion_04_pair_lp_small_cells_and_unbounded_claim():
    deadline = time.monotonic() + 600.0
    want = {(1, 3): 2, (2, 5): 2, (3, 7): 4, (3, 9): 2}
    got = {}
    for (n, d), expected in want.items():
        remaining = deadline - time.monotonic()
        got[(n, d)] = delsarte_bound(n, d, 1, budget_secs=remaining).floored
    cells_ok = got == want
    # n = 4 and 5 need a budget; this one is far above either cell's
    # cost (seconds), so the verdict does not depend on machine speed.
    table3 = {(c["n"], c["d"]): c["value"] for c in _load_reference(3)["cells"]}
    stretch = {(n, d): delsarte_bound(n, d, 1, budget_secs=3600.0).floored
               for n, d in ((4, 9), (5, 11))}
    stretch_ok = (stretch == {(4, 9): 4, (5, 11): 6}
                  and all(stretch[cell] == table3[cell] for cell in stretch))
    # The reference prints "--" ("reported unbounded") at low design
    # distances, but this LP cannot be unbounded: every non-identity
    # column sums to 0 over all profiles (sum_i zeta^(-ij) = 0 for j != 0)
    # and the row of profile (n,0,...,0) equals the objective, so adding
    # every other row gives objective <= 10^n - 1.  The reported value
    # adds 1 for the identity profile, so a sound answer lies between the
    # exact optimum and 10^n.
    def sound(n, d, rep):
        return (rep.status is LPStatus.OPTIMAL
                and exact_max_code(n, d, 1)[0] <= rep.floored <= 10 ** n)

    dash_cells = [(c["n"], c["d"]) for c in _load_reference(3)["cells"]
                  if c["value"] is None and c["n"] <= 2]
    small = {}
    for n, d in dash_cells:
        remaining = deadline - time.monotonic()
        small[(n, d)] = delsarte_bound(n, d, 1, budget_secs=remaining)
    small_ok = len(small) == 6 and all(
        sound(n, d, rep) for (n, d), rep in small.items()
    )
    # (3,3) is solved without a budget and must be sound
    rep = delsarte_bound(3, 3, 1)
    outcome = f"{rep.status.value} {rep.floored}"
    big_ok = sound(3, 3, rep)
    ok = cells_ok and stretch_ok and small_ok and big_ok
    report(4, ok, f"cells (1,3)/(2,5)/(3,7)/(3,9) exact: {cells_ok}; "
                  f"stretch (4,9)=4 and (5,11)=6: {stretch_ok} ({stretch}); "
                  f"{len(small)} '--' cells at n<=2 finite and between the "
                  f"exact optimum and 10^n: {small_ok} "
                  f"({ {k: r.floored for k, r in small.items()} }); "
                  f"(3,3) finite in [19, 1000]: {big_ok} "
                  f"(got {outcome})")
    assert ok, (
        f"exact cells {got}, stretch {stretch_ok}, '--' cells at n<=2 "
        f"{ {k: (r.status.value, r.floored) for k, r in small.items()} }, "
        f"(3,3) {outcome}"
    )


def test_criterion_05_pair_hypergraph_table_small_n():
    cells = [c for c in _load_reference(4)["cells"] if c["n"] <= 3]
    results = {
        (c["n"], c["d"]): lp_hypergraph_bound(c["n"], c["d"], 1).floored
        for c in cells
    }
    ok = (
        all(results[(c["n"], c["d"])] == c["value"] for c in cells)
        and results[(3, 7)] == 5
        and results[(3, 8)] == 5
    )
    assert report(5, ok, f"all {len(cells)} hypergraph-LP cells for n<=3 "
                         "exact, including (3,7)=(3,8)=5")


def test_criterion_06_averaging_lower_bound_formula():
    from aldkit.search_verify import averaging_lower_bound

    cells = [c for c in _load_reference(5)["cells"] if c["lower"] is not None]
    ok = all(
        averaging_lower_bound(c["n"], c["d"]) == c["lower"] for c in cells
    )
    assert report(6, ok, f"averaging lower bound reproduces all {len(cells)} "
                         "reference cells for n<=10, d in {3,5,7}")


def test_criterion_07_sandwich_grid_and_exact_anchors():
    violations = []
    skipped = []
    for n, d, lam in itertools.product((1, 2, 3), range(1, 11), (1, 2)):
        # no wall-clock limit: the character LP must finish at every cell
        rep = sandwich_check(n, d, lam, delsarte_budget_secs=None)
        violations.extend(f"(n={n},d={d},lam={lam}) {v}"
                          for v in rep.violations)
        skipped.extend((n, d, lam) for method, _ in rep.skipped
                       if method == "delsarte")
    anchors_ok = (
        exact_max_code(2, 2, 1)[0] == 10 and exact_max_code(1, 3, 1)[0] == 2
    )
    ok = not violations and not skipped and anchors_ok
    assert report(7, ok, "constructive <= exact <= every upper bound over "
                         "n<=3, d<=10, lam in {1,2} "
                         f"({len(violations)} violations, character LP "
                         f"skipped at {skipped}); exact anchors "
                         f"(2,2)=10 and (1,3)=2: {anchors_ok}")


def test_criterion_08_ball_oracle_examples_monotone():
    mismatches = 0
    monotone = True
    for n, lam in itertools.product(range(1, 5), (1, 2)):
        radius_cap = 2 * n * (1 + lam) + 1
        for w in range(n + 1):
            centre = canonical_weight_word(n, w)
            sizes = []
            for r in range(radius_cap + 1):
                size = ball_size(n, w, lam, r)
                sizes.append(size)
                if size != len(enumerate_ball(centre, r, lam)):
                    mismatches += 1
            monotone = monotone and sizes == sorted(sizes)
            monotone = monotone and sizes[-1] == 4 ** n
    examples_ok = ball_size(3, 1, 1, 2) == 8 and ball_size(3, 0, 1, 2) == 7
    ok = mismatches == 0 and monotone and examples_ok
    assert report(8, ok, "counting formula equals brute enumeration for "
                         f"n<=4 ({mismatches} mismatches), balls grow "
                         f"monotonically and saturate: {monotone}, "
                         f"example counts 8 and 7: {examples_ok}")


def test_criterion_09_constructions_and_decoders():
    book = build_cl(3, 0)
    words = list(book)
    cl_ok = len(words) == 512 and min_distance(book, 1) == 3

    correct_cases = correct_hits = 0
    detect_cases = flags = attribution_errors = 0
    for word in words:
        correct_cases += 1
        correct_hits += decode_cl(3, 0, word, "correct_class1") == word
        mixed = word.a ^ word.b
        for i in range(word.n):
            if (mixed >> i) & 1:
                swapped = PairedWord(word.n, word.a ^ (1 << i),
                                     word.b ^ (1 << i))
                correct_cases += 1
                correct_hits += (
                    decode_cl(3, 0, swapped, "correct_class1") == word
                )
        detect_cases += 1
        if decode_cl(3, 0, word, "detect_class2") != word:
            attribution_errors += 1
        for strand, i in itertools.product("ab", range(word.n)):
            corrupt = PairedWord(
                word.n,
                word.a ^ ((strand == "a") << i),
                word.b ^ ((strand == "b") << i),
            )
            detect_cases += 1
            result = decode_cl(3, 0, corrupt, "detect_class2")
            if not hasattr(result, "strand"):
                continue  # not flagged; counted by the flags total below
            flags += 1
            if result.strand != strand or (
                result.position is not None and result.position != i
            ):
                attribution_errors += 1
    decode_ok = (
        correct_cases == 2048 and correct_hits == 2048
        and detect_cases == 6656 and flags == 6144
        and attribution_errors == 0
    )

    field = OddPrimeField(5)
    u, z, best = best_cn_coset(field, 3)
    cosets = [build_cn(field, 3, uu, (zz,))
              for uu in range(3) for zz in range(5)]
    cn_ok = (
        len(cosets) == 15
        and sum(len(c) for c in cosets) == 4 ** 4
        and len(best) >= 18
        and min_distance(best, 1) >= 3
    )

    def binary_greedy(width, dist):
        chosen = []
        for value in range(1 << width):
            if all((value ^ c).bit_count() >= dist for c in chosen):
                chosen.append(value)
        return chosen

    cm = greedy_manhattan_code(4, 2)
    family = {w: binary_greedy(w, 4) for w in range(5)}
    two_part = build_clambda(4, 4, 1, cm, family)
    clambda_ok = len(two_part) > 0 and min_distance(two_part, 1) >= 4

    ok = cl_ok and decode_ok and cn_ok and clambda_ok
    assert report(
        9, ok,
        f"coset code 512 words at distance 3: {cl_ok}; decoder exact on "
        f"{correct_hits}/2048 correction cases and {flags}/6144 flags over "
        f"6656 detection cases: {decode_ok}; best power-sum coset >=18 words "
        f"at distance >=3 over 15 cosets: {cn_ok}; two-part code meets its "
        f"design distance: {clambda_ok}")


def test_criterion_10_metric_axioms_sandwich_automorphisms():
    axioms_ok = sandwich_ok = True
    for n in (1, 2):
        words = list(all_words(n))
        gray = {w: map_symbols(w, "gray4") for w in words}
        for lam in (1, 2, 3):
            for x, y in itertools.product(words, repeat=2):
                d = ald_distance(x, y, lam)
                axioms_ok = axioms_ok and (d == 0) == (x == y)
                axioms_ok = axioms_ok and d == ald_distance(y, x, lam)
                dl = lee_distance(gray[x], gray[y])
                sandwich_ok = sandwich_ok and lam * dl <= 2 * d <= 2 * (1 + lam) * dl
            for x, y, z in itertools.product(words, repeat=3):
                axioms_ok = axioms_ok and (
                    ald_distance(x, z, lam)
                    <= ald_distance(x, y, lam) + ald_distance(y, z, lam)
                )

    rng = random.Random(20260819)
    auto_ok = True
    words2 = list(all_words(2))
    for _ in range(3):
        sigma = tuple(rng.sample(range(2), 2))
        pi = Automorphism(2, sigma, rng.randrange(4))
        for lam in (1, 2, 3):
            auto_ok = auto_ok and all(
                ald_distance(apply_automorphism(x, pi),
                             apply_automorphism(y, pi), lam)
                == ald_distance(x, y, lam)
                for x, y in itertools.product(words2, repeat=2)
            )

    triangle_ok = True
    for _ in range(10_000):
        x, y, z = (PairedWord(16, rng.getrandbits(16), rng.getrandbits(16))
                   for _ in range(3))
        for lam in (1, 2, 3):
            triangle_ok = triangle_ok and (
                ald_distance(x, z, lam)
                <= ald_distance(x, y, lam) + ald_distance(y, z, lam)
            )

    ok = axioms_ok and sandwich_ok and auto_ok and triangle_ok
    assert report(10, ok, f"axioms on n<=2 for lam in 1..3: {axioms_ok}; "
                          f"Lee-distance pinch: {sandwich_ok}; automorphism "
                          f"invariance: {auto_ok}; 10^4 random triangle "
                          f"checks at n=16: {triangle_ok}")
