"""Command-line surface: distances, ball sizes, bounds, constructions,
decoding, exhaustive verification, exact search, and reference-table
reproduction with per-cell match reporting.

The bound methods, and where each applies, are one table shared with
``sandwich_check``: ``search_verify._UPPER_BOUNDS``.  ``_bound`` calls it
with this module and adds table 5's lower bound, ``averaging``; ``aldkit
bound`` answers one cell through it, and ``aldkit table`` walks a
reference file's cells through it in one loop, ``_table_rows``.

Exit codes: 0 success, 1 internal error, 2 usage error, 3 budget refusal
(partial results may have been printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import cache
from importlib import resources

from .balls import ball_size, enumerate_ball
from .codes import (
    Codebook,
    DecodingError,
    DetectionFlag,
    OddPrimeField,
    bch_parity_check,
    best_cn_coset,
    build_cL,
    build_cl,
    build_cn,
    build_cp,
    build_partition_code,
    decode_cl,
    greedy_clambda,
)
from .core import (Budget, BudgetExceeded, PairedWord, _check_int, ald_distance,
                   canonical_weight_word)
from .delsarte import delsarte_bound
from .hyperbound import (
    lp_hypergraph_bound,
    naive_weight_bound,
    optimal1_bound,
    simple_bound,
    weights1_bound,
)
from .search_verify import (_UPPER_BOUNDS, averaging_lower_bound, exact_max_code,
                            min_distance)

SCHEMA_VERSION = 1
CSV_HEADER = [
    "n", "d", "lambda", "method",
    "value_floor", "value_num", "value_den", "expected", "match",
]
TABLE_DEFAULT_MAX_N = {1: 10, 2: 15, 3: 3, 4: 5, 5: 10}


# ------------------------------------------------------------- codebook files


def _from_jsonable(value):
    if isinstance(value, list):
        return tuple(_from_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {k: _from_jsonable(v) for k, v in value.items()}
    return value


def write_codebook(path: str, book: Codebook) -> None:
    if book.words is None:
        raise BudgetExceeded(
            "codebook is implicit (no explicit word list); cannot serialize"
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": book.n,
        "lambda": book.lam,
        "design_distance": book.design_distance,
        "construction": book.construction,
        "params": book.params,
        "words": [w.to_digits() for w in book.words],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_codebook(path: str) -> Codebook:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: malformed JSON at line {err.lineno}: {err.msg}")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    for field in ("schema_version", "n", "lambda", "design_distance",
                  "construction", "params", "words"):
        if field not in data:
            raise ValueError(f"{path}: missing field '{field}'")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"{path}: field 'schema_version': unsupported version")
    for field in ("n", "lambda", "design_distance"):
        try:
            _check_int(data[field], field, 1)
        except ValueError as err:
            raise ValueError(f"{path}: field '{field}': {err}")
    if not isinstance(data["words"], list):
        raise ValueError(f"{path}: field 'words': need a list")
    n = data["n"]
    words = []
    for i, text in enumerate(data["words"]):
        if not isinstance(text, str) or len(text) != n:
            raise ValueError(
                f"{path}: field 'words', entry {i}: need a length-{n} string"
            )
        try:
            words.append(PairedWord.from_digits(text))
        except ValueError as err:
            raise ValueError(f"{path}: field 'words', entry {i}: {err}")
    try:
        return Codebook(
            n=n,
            lam=data["lambda"],
            design_distance=data["design_distance"],
            construction=data["construction"],
            params=_from_jsonable(data["params"]),
            words=tuple(words),
        )
    except ValueError as err:
        raise ValueError(f"{path}: {err}")


# ------------------------------------------------------------------ utilities


def _parse_word(text: str, dna: bool) -> PairedWord:
    return PairedWord.from_dna(text) if dna else PairedWord.from_digits(text)


def _render(word: PairedWord, dna: bool) -> str:
    return word.to_dna() if dna else word.to_digits()


def _load_reference(idx: int) -> dict:
    ref = resources.files("aldkit.data").joinpath(f"table{idx}.json")
    with ref.open() as fh:
        return json.load(fh)


# -------------------------------------------------------------- bound methods


def _bound(method, n, d, lam, budget_secs):
    """A report or an exact int; the table reads this module's bound names."""
    if method == "averaging":
        return averaging_lower_bound(n, d)
    return _UPPER_BOUNDS[method](sys.modules[__name__], n, d, lam, budget_secs)


def _value(result):
    """(floor, numerator, denominator) of a report or an exact int: the
    fraction is None for an irrational optimum, all three when refused."""
    if result is None:
        return None, None, None
    if isinstance(result, int):
        return result, result, 1
    if result.exact is None:
        return result.floored, None, None
    return result.floored, result.exact.numerator, result.exact.denominator


# ------------------------------------------------------------------- commands


def cmd_dist(args) -> int:
    x = _parse_word(args.word1, args.dna)
    y = _parse_word(args.word2, args.dna)
    print(ald_distance(x, y, args.lam))
    return 0


def cmd_ball(args) -> int:
    size = ball_size(args.n, args.w, args.lam, args.r)
    # ball_size clamps a negative weight to 0; the centre refuses it
    centre = canonical_weight_word(args.n, args.w)
    if args.enumerate:
        members = enumerate_ball(centre, args.r, args.lam)
        for word in sorted(members, key=PairedWord.to_digits):
            print(_render(word, args.dna))
        if len(members) != size:
            raise AssertionError(
                f"enumerated {len(members)} words but formula gives {size}"
            )
    print(size)
    return 0


def cmd_bound(args) -> int:
    method = args.method
    if args.budget is not None and method != "delsarte":
        raise ValueError("--budget applies to delsarte only")
    if args.d is None and method != "optimal1":
        raise ValueError(f"{method} requires --d")
    report = _bound(method, args.n, args.d, args.lam, args.budget)
    floor, num, den = _value(report)
    if not args.exact_rational:
        print(floor)
    elif num is not None:
        print(f"{num}/{den}")
    else:
        part = report.sqrt5_part
        print(f"{floor} (irrational optimum; sqrt5 coefficient "
              f"{part.numerator}/{part.denominator})")
    return 0


def cmd_construct(args) -> int:
    family = args.family
    if family == "cl":
        book = build_cl(args.v, args.u)
    elif family == "cL":
        check = bch_parity_check(args.v, args.d)
        try:
            book = build_cL(check.ncols // 2, check)
        except BudgetExceeded as err:
            raise BudgetExceeded(f"cL --v {args.v} --d {args.d}: {err}") from err
    elif family == "cp":
        book = build_cp(args.n)
    elif family == "partition":
        book = build_partition_code(args.v, args.u)
    elif family == "cn":
        field = OddPrimeField(args.q, args.l)
        if args.u is None and args.z is None:
            u, z, book = best_cn_coset(field, args.d)
            print(f"best coset: u={u} z={list(z)}", file=sys.stderr)
        else:
            if args.u is None or args.z is None:
                raise ValueError("cn needs both --u and --z, or neither")
            z = tuple(int(part) for part in args.z.split(",") if part != "")
            book = build_cn(field, args.d, args.u, z)
    else:  # clambda
        book = greedy_clambda(args.n, args.d, args.lam)
    write_codebook(args.out, book)
    print(f"{family}: {book.size} words of length {book.n} -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    book = read_codebook(args.infile)
    expected_n = (1 << args.v) - 2
    if book.n != expected_n:
        raise ValueError(
            f"length mismatch: file words have n={book.n}, v={args.v} needs {expected_n}"
        )
    mode = {"correct1": "correct_class1", "detect2": "detect_class2"}[args.mode]
    for word in book.words:
        received = word.to_digits()
        try:
            result = decode_cl(args.v, args.u, word, mode)
        except DecodingError as err:
            print(json.dumps(
                {"received": received, "status": "error", "reason": str(err)}
            ))
            continue
        if isinstance(result, DetectionFlag):
            print(json.dumps({
                "received": received,
                "status": "flagged",
                "strand": result.strand,
                "position": result.position,
            }))
        else:
            print(json.dumps({
                "received": received,
                "status": "decoded",
                "word": result.to_digits(),
            }))
    return 0


def cmd_verify(args) -> int:
    book = read_codebook(args.infile)
    got = min_distance(book, book.lam if args.lam is None else args.lam)
    print("Infinity" if got == math.inf else got)
    return 0


def cmd_exact(args) -> int:
    size, book = exact_max_code(args.n, args.d, args.lam)
    print(size)
    for word in book.words:
        print(_render(word, args.dna))
    return 0


# -------------------------------------------------------------------- tables


def _row(n, d, lam, method, result, expected):
    """One table row; ``result`` is a report, an exact int, or None when
    the cell was refused."""
    floor, num, den = _value(result)
    if result is None:
        match = "refused"
    elif expected is None or expected == "--":
        match = "no"  # the reference prints no number here; ours is finite
    else:
        match = "yes" if floor == expected else "no"
    shown = "--" if expected is None or expected == "--" else expected
    return {
        "n": n, "d": d, "lambda": lam, "method": method,
        "value_floor": floor, "value_num": num, "value_den": den,
        "expected": shown, "match": match,
    }


def _table_rows(idx, max_n, budget):
    """Every method of reference table ``idx`` on its cells at n <= max_n,
    in reference order.  Cells are solved cheap-first (low n, then high
    d: few character-LP survivors) under ``budget``, and a cell that
    runs it out is reported as refused."""
    ref = _load_reference(idx)
    lam = ref["lambda"]
    methods = ref.get("methods") or [ref["method"]]
    # table 2 is one row per n at one d; each method's value column is
    # its own name there, else "value" or table 5's "lower" and "upper"
    cells = ref.get("cells") or [dict(row, d=ref["d"]) for row in ref["rows"]]
    columns = [key for key in cells[0] if key not in ("n", "d")]
    cells = [cell for cell in cells if cell["n"] <= max_n]
    rows = {}
    for cell in sorted(cells, key=lambda c: (c["n"], -c["d"])):
        n, d = cell["n"], cell["d"]
        for method, column in zip(methods, columns):
            try:
                # a spent budget makes delsarte_bound refuse at its first check
                result = _bound(method, n, d, lam, budget.remaining())
            except BudgetExceeded:
                result = None
            rows[n, d, method] = _row(n, d, lam, method, result, cell[column])
    return [rows[cell["n"], cell["d"], method]
            for cell in cells for method in methods]


def cmd_table(args) -> int:
    idx = args.table
    max_n = args.max_n if args.max_n is not None else TABLE_DEFAULT_MAX_N[idx]
    if idx != 3 and args.budget is not None:
        raise ValueError("--budget applies to table 3 only")
    # only the character LP of table 3 reads the budget
    rows = _table_rows(idx, max_n, Budget(600.0 if args.budget is None else args.budget))
    if args.format == "json":
        print(json.dumps({"table": idx, "rows": rows}, indent=1))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                ["" if row[key] is None else row[key] for key in CSV_HEADER]
            )
        sys.stdout.write(buf.getvalue())
    return 3 if any(row["match"] == "refused" for row in rows) else 0


# ------------------------------------------------------------------ argparse


def _add_lambda(parser, default=1, shown="%(default)s"):
    parser.add_argument("--lambda", dest="lam", type=int, default=default,
                        help=f"cheap-swap cost parameter (default {shown})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldkit",
        description="Exact tools for codes under the asymmetric Lee distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two words")
    p.add_argument("word1")
    p.add_argument("word2")
    _add_lambda(p)
    p.add_argument("--dna", action="store_true",
                   help="read words over {G,C,T,A} instead of digits")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("ball", help="ball size around a canonical centre")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_lambda(p)
    p.add_argument("--enumerate", action="store_true",
                   help="list the ball's words before the size")
    p.add_argument("--dna", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("bound", help="upper bounds on code sizes")
    p.add_argument("method", choices=list(_UPPER_BOUNDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    _add_lambda(p)
    p.add_argument("--exact-rational", action="store_true",
                   help="print the exact value instead of its floor")
    p.add_argument("--budget", type=float,
                   help="delsarte's time budget in seconds (none by default; n >= 4 needs one)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build a codebook and write it to a file")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("cl", help="swap-correcting kernel code coset")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--u", type=int, default=0)
    q = fam.add_parser("cL", help="doubled parity-check code from a BCH matrix")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q = fam.add_parser("cp", help="single-parity code, distance 2")
    q.add_argument("--n", type=int, required=True)
    q = fam.add_parser("partition", help="weight-partitioned code, distance 3")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--u", type=int, default=0)
    q = fam.add_parser("cn", help="power-sum congruence coset")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--l", type=int, default=1)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--u", type=int)
    q.add_argument("--z", help="comma-separated power-sum targets")
    q = fam.add_parser("clambda", help="two-component code from greedy parts")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    _add_lambda(q)
    for q in fam.choices.values():
        q.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decode", help="decode received words through a decoder")
    dec = p.add_subparsers(dest="decoder", required=True)
    q = dec.add_parser("cl", help="swap correction / flip detection")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--u", type=int, default=0)
    q.add_argument("--mode", choices=["correct1", "detect2"], required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="exhaustive checks on a codebook file")
    ver = p.add_subparsers(dest="check", required=True)
    q = ver.add_parser("mindist", help="exhaustive minimum pairwise distance")
    q.add_argument("--in", dest="infile", required=True)
    _add_lambda(q, default=None, shown="the codebook's lambda")
    q.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact largest code by exhaustive search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_lambda(p)
    p.add_argument("--dna", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("table", help="reproduce a reference table with matching")
    p.add_argument("table", type=int, choices=[1, 2, 3, 4, 5])
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--budget", type=float,
                   help="table 3's total time budget in seconds (default 600)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process: parsing leaves
    it unchanged, and each build leaves thousands of cyclic objects."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone early raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed the pipe (say `| head`): send what is still
        # buffered to the null device, so exiting does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceeded as err:
        print(f"budget refusal: {err}", file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
