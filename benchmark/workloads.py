"""Workloads of the aldkit benchmark: generated inputs, cells and the answer oracle.

Each workload is a fixed list of cells that ``run.py`` solves one after
another in one process: a closed loop with one client, like the
single-threaded CLI.

* ``covering-tables``: ``aldkit table`` 1 (``--max-n 10``), 2, 4 and 5
  through ``aldkit.cli.main`` in-process (190 rows), plus the covering LP
  at n in {20, 30, 40}, d in {5, 11}.  Nearly all of its time is the exact
  simplex over ``Fraction``; it never reaches the character LP or the
  clique search.
* ``character-lp``: ``delsarte_bound`` on every table-3 cell that finishes
  without depending on a time budget.  The same simplex runs over ``Q5``
  on tableaus ten to twenty times taller, after column assembly.
* ``exact-search``: clique search, pair scans, decoders and the metric,
  none of which runs in the other two workloads.

The seed fixes the cell order of every pass and the random decoder and
metric inputs; aldkit receives only the generated inputs.  Cells left out
on purpose, with their measured reasons, are listed in ``plan.json``.

An answer is ``ok`` when it matches the reference or pinned value,
``known`` when it matches a documented divergence instead, and
``failed`` otherwise, including refusals and exceptions.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

from aldkit import cli, codes, core, delsarte, hyperbound, search_verify
from aldkit.codes import DetectionFlag
from aldkit.core import PairedWord

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "aldkit" / "data"

OK, KNOWN, FAILED = "ok", "known", "failed"

WORKLOADS = ("covering-tables", "character-lp", "exact-search")

TABLE_RUNS = ((1, ("--max-n", "10")), (2, ()), (4, ()), (5, ()))

TABLE3_CELLS = (
    [(1, d) for d in range(1, 5)]
    + [(2, d) for d in range(1, 9)]
    + [(3, d) for d in range(7, 13)]
    + [(4, d) for d in range(13, 17)]
)
# n = 4 needs a budget; this one is far above any cell's cost, so no
# refusal depends on how fast the machine is.
N4_BUDGET_S = 3600.0

EXACT_CELLS = [(n, d, lam) for n in (1, 2, 3) for lam in (1, 2) for d in range(1, 11)] + [
    (4, 2, 1), (4, 4, 1), (4, 7, 1), (4, 8, 1), (4, 9, 1), (4, 10, 1),
    (4, 3, 2), (4, 6, 2), (4, 10, 2), (4, 12, 2),
]
PAIR_SCANS = {
    "cl3": lambda: codes.build_cl(3, 0),
    "cp5": lambda: codes.build_cp(5),
    "cp6": lambda: codes.build_cp(6),
}
DECODE_V = 3
DECODE_TRIALS = 2048
DIST_N = 16
DIST_PAIRS = 50_000


@dataclass
class Cell:
    """One timed call.  ``run(tracer)`` returns what ``check`` judges;
    ``check`` returns one ``(op, verdict, detail)`` per answer."""

    id: str
    run: Callable
    check: Callable
    ops: int


@dataclass
class Workload:
    name: str
    cells: list
    order_rng: random.Random
    inputs: list  # every generated input, for the determinism self-test

    def pass_order(self) -> list:
        cells = list(self.cells)
        self.order_rng.shuffle(cells)
        return cells


def setup(name: str, seed: int) -> Workload:
    """Load reference data, generate inputs and expected answers, prime caches."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())
    for lam in (1, 2):
        search_verify.symbol_distance_table(lam)
    rng = random.Random(f"inputs/{seed}")
    if name == "covering-tables":
        cells, inputs = _covering_cells(expected), []
    elif name == "character-lp":
        cells, inputs = _character_cells(), []
    else:
        cells, inputs = _search_cells(expected, rng)
    return Workload(name, cells, random.Random(f"order/{seed}"), inputs)


def _judge(got, want, known=None):
    if got == want:
        return OK, ""
    if known is not None and got == known:
        return KNOWN, f"documented divergence: {got}, reference {want}"
    return FAILED, f"got {got}, expected {want}"


def reference_distance(x: PairedWord, y: PairedWord, lam: int) -> int:
    """Asymmetric Lee distance from its definition, independent of aldkit.core.

    Where both strands differ the error is a cheap swap (cost lam) if the
    symbol was mixed and a full inversion (cost 2(1+lam)) if it was pure;
    where one strand differs it is a single flip (cost 1+lam).
    """
    da, db = x.a ^ y.a, x.b ^ y.b
    both = da & db
    mixed = x.a ^ x.b
    return (
        lam * (both & mixed).bit_count()
        + 2 * (1 + lam) * (both & ~mixed).bit_count()
        + (1 + lam) * (da ^ db).bit_count()
    )


# ----------------------------------------------------------- covering-tables


def _table_expectations(table: int, ref: dict) -> dict:
    """(n, d, method) -> reference value for every row ``aldkit table`` prints."""
    if table == 2:
        return {(row["n"], ref["d"], m): row[m] for row in ref["rows"] for m in ref["methods"]}
    if table == 5:
        out = {}
        for c in ref["cells"]:
            out[(c["n"], c["d"], "averaging")] = c["lower"]
            out[(c["n"], c["d"], "lp")] = c["upper"]
        return out
    return {(c["n"], c["d"], "lp"): c["value"] for c in ref["cells"]}


def _run_table(argv, tracer):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    text = buf.getvalue()
    tracer.count("cli.rows", max(text.count("\n") - 1, 0))
    return rc, text


def check_table(table, want, known, result):
    rc, text = result
    if rc != 0:
        return [(f"table{table}", FAILED, f"exit code {rc}")] * len(want)
    got = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (int(row["n"]), int(row["d"]), row["method"])
        got[key] = int(row["value_floor"]) if row["value_floor"] else None
    verdicts = [
        (f"table{table}:{key}", *_judge(got.get(key), ref, known.get(key)))
        for key, ref in want.items()
    ]
    verdicts += [(f"table{table}:{key}", FAILED, "row not in the reference") for key in got.keys() - want.keys()]
    return verdicts


def _run_lp(n, d, tracer):
    return hyperbound.lp_hypergraph_bound(n, d, 1)


def _check_lp(n, d, exact, report):
    return [(f"lp({n},{d})", *_judge((report.exact, report.floored), (exact, exact.__floor__())))]


def _covering_cells(expected) -> list:
    cells = []
    for table, extra in TABLE_RUNS:
        ref = json.loads((DATA / f"table{table}.json").read_text())
        want = _table_expectations(table, ref)
        known = {(n, d, m): v for n, d, m, v in expected["table_divergences"].get(str(table), [])}
        cells.append(Cell(
            f"table-{table}",
            partial(_run_table, ("table", str(table), *extra)),
            partial(check_table, table, want, known),
            len(want),
        ))
    for n, d, text in expected["covering_slice"]:
        cells.append(Cell(f"lp-{n}-{d}", partial(_run_lp, n, d), partial(_check_lp, n, d, Fraction(text)), 1))
    return cells


# -------------------------------------------------------------- character-lp


def _run_delsarte(n, d, tracer):
    return delsarte.delsarte_bound(n, d, 1, budget_secs=N4_BUDGET_S if n >= 4 else None)


def check_delsarte(n, d, ref, floor, report):
    """A numbered reference cell must match; a ``--`` cell must be at least ``floor``."""
    op = f"delsarte({n},{d})"
    if report.status.value != "optimal":
        return [(op, FAILED, f"status {report.status.value}")]
    if ref is not None:
        return [(op, *_judge(report.floored, ref))]
    if report.floored >= floor:
        return [(op, OK, "")]
    return [(op, FAILED, f"bound {report.floored} below the exact optimum {floor}")]


def _character_cells() -> list:
    ref = {(c["n"], c["d"]): c["value"] for c in json.loads((DATA / "table3.json").read_text())["cells"]}
    cells = []
    for n, d in TABLE3_CELLS:
        floor = None if ref[(n, d)] is not None else search_verify.exact_max_code(n, d, 1)[0]
        cells.append(Cell(f"delsarte-{n}-{d}", partial(_run_delsarte, n, d),
                          partial(check_delsarte, n, d, ref[(n, d)], floor), 1))
    return cells


# -------------------------------------------------------------- exact-search


def _run_exact(n, d, lam, tracer):
    return search_verify.exact_max_code(n, d, lam)


def _check_exact(n, d, lam, size, result):
    got, book = result
    op = f"exact({n},{d},{lam})"
    words = book.words
    if got != size:
        return [(op, FAILED, f"size {got}, pinned {size}")]
    if len(words) != size or len(set(words)) != size or any(w.n != n for w in words):
        return [(op, FAILED, "witness is not a set of size-many length-n words")]
    worst = min((reference_distance(x, y, lam) for x, y in combinations(words, 2)), default=d)
    if worst < d:
        return [(op, FAILED, f"witness distance {worst} below {d}")]
    return [(op, OK, "")]


def _run_pair_scan(build, tracer):
    book = build()
    return {"size": len(book), "distance": search_verify.min_distance(book, 1)}


def _run_cn_scan(tracer):
    u, z, book = codes.best_cn_coset(codes.OddPrimeField(5), 3)
    return {"u": u, "z": list(z), "size": len(book), "distance": search_verify.min_distance(book, 1)}


def _check_pinned(op, pinned, got):
    return [(op, *_judge(got, pinned))]


def _run_decode(trials, tracer):
    return [codes.decode_cl(DECODE_V, 0, received, mode) for received, mode, _ in trials]


def check_decode(trials, results):
    """Corrections must return the sent codeword; detections must name the
    flipped strand, and the position for a first-strand flip."""
    wrong = []
    for (received, mode, want), got in zip(trials, results):
        if mode == "correct_class1":
            ok = got == want
        else:
            ok = isinstance(got, DetectionFlag) and (got.strand, got.position) == want
        if not ok:
            wrong.append(f"{received.to_digits()} {mode}: got {got}, expected {want}")
    if len(results) != len(trials):
        wrong.append(f"{len(results)} results for {len(trials)} trials")
    return [("decode_cl sweep", FAILED if wrong else OK, "; ".join(wrong[:3]))]


def _run_distances(pairs, tracer):
    dist = core.ald_distance
    with tracer.span("core.ald_distance_sweep"):
        out = [dist(x, y, 1) for x, y in pairs]
    tracer.count("core.ald_distance_calls", len(pairs))
    return out


def _check_distances(want, got):
    bad = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    return [("ald_distance sweep", FAILED if bad else OK, f"{bad} wrong distances" if bad else "")]


def _decode_trials(rng) -> list:
    n = (1 << DECODE_V) - 2
    words = codes.build_cl(DECODE_V, 0).words
    trials = []
    for _ in range(DECODE_TRIALS):
        word = rng.choice(words)
        pos = rng.randrange(n)
        kind = rng.choice(("swap", "flip-a", "flip-b"))
        bit = 1 << pos
        if kind == "swap":
            trials.append((PairedWord(n, word.a ^ bit, word.b ^ bit), "correct_class1", word))
        elif kind == "flip-a":
            trials.append((PairedWord(n, word.a ^ bit, word.b), "detect_class2", ("a", pos)))
        else:
            trials.append((PairedWord(n, word.a, word.b ^ bit), "detect_class2", ("b", None)))
    return trials


def _search_cells(expected, rng):
    sizes = {(n, d, lam): s for n, d, lam, s in expected["exact_sizes"]}
    cells = [
        Cell(f"exact-{n}-{d}-{lam}", partial(_run_exact, n, d, lam),
             partial(_check_exact, n, d, lam, sizes[(n, d, lam)]), 1)
        for n, d, lam in EXACT_CELLS
    ]
    pinned = expected["pair_scans"]
    for name, build in PAIR_SCANS.items():
        cells.append(Cell(f"scan-{name}", partial(_run_pair_scan, build),
                          partial(_check_pinned, f"scan {name}", pinned[name]), 1))
    cells.append(Cell("scan-cn5", _run_cn_scan, partial(_check_pinned, "scan cn5", pinned["cn5"]), 1))

    trials = _decode_trials(rng)
    cells.append(Cell("decode-sweep", partial(_run_decode, trials), partial(check_decode, trials), 1))
    bits = partial(rng.getrandbits, DIST_N)
    pairs = [
        (PairedWord(DIST_N, bits(), bits()), PairedWord(DIST_N, bits(), bits()))
        for _ in range(DIST_PAIRS)
    ]
    want = [reference_distance(x, y, 1) for x, y in pairs]
    cells.append(Cell("distance-sweep", partial(_run_distances, pairs), partial(_check_distances, want), 1))
    inputs = [(r.a, r.b, mode) for r, mode, _ in trials] + [(x.a, x.b, y.a, y.b) for x, y in pairs]
    return cells, inputs
