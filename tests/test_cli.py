import hashlib
import json
import subprocess
import sys

import pytest
from conftest import _budget_spent_at

from aldkit import cli, delsarte
from aldkit.cli import CSV_HEADER, main, read_codebook, write_codebook
from aldkit.codes import build_cl, build_cp
from aldkit.core import PairedWord
from aldkit.delsarte import delsarte_bound
from aldkit.search_verify import exact_max_code


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- file format


def test_codebook_round_trip(tmp_path):
    book = build_cp(2)
    path = tmp_path / "cp2.json"
    write_codebook(path, book)
    back = read_codebook(path)
    assert (back.n, back.lam, back.design_distance) == (2, 1, 2)
    assert back.construction == book.construction
    assert back.params == book.params
    assert [w.to_digits() for w in back.words] == [
        w.to_digits() for w in book.words
    ]


def test_cn_codebook_file_is_pinned(capsys, tmp_path):
    # cn's params hold a tuple (z): written as a list, read back as a tuple
    path = tmp_path / "cn5.json"
    rc, _, _ = run(capsys, "construct", "cn", "--q", 5, "--d", 3, "--out", path)
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "bb0678ad1920fe0d6d95dddf4659cb3205b70bae9c5eaa77be2fee107dd16e0b")
    assert json.loads(path.read_text())["params"]["z"] == [0]
    assert read_codebook(path).params["z"] == (0,)
    assert run(capsys, "verify", "mindist", "--in", path)[:2] == (0, "4\n")


def test_codebook_file_is_digit_strings(tmp_path):
    path = tmp_path / "cl.json"
    write_codebook(path, build_cl(2, 0))
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    assert sorted(data["words"]) == ["00", "11", "23", "32"]


def test_read_codebook_error_reporting(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,')
    with pytest.raises(ValueError, match="malformed JSON at line 1"):
        read_codebook(path)
    path.write_text('{"schema_version": 1, "n": 2}')
    with pytest.raises(ValueError, match="missing field 'lambda'"):
        read_codebook(path)
    good = {
        "schema_version": 1, "n": 2, "lambda": 1, "design_distance": 2,
        "construction": "manual", "params": {}, "words": ["04"],
    }
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError, match="entry 0"):
        read_codebook(path)
    good["words"] = ["00", "00"]
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError, match="duplicate"):
        read_codebook(path)
    bad_fields = [("words", 5), ("words", None), ("words", "00"),
                  ("n", True), ("n", 0), ("n", 2.0),
                  ("lambda", "a"), ("lambda", 0), ("lambda", False),
                  ("design_distance", None), ("design_distance", -1)]
    for field, value in bad_fields:
        path.write_text(json.dumps({**good, "words": ["00"], field: value}))
        with pytest.raises(ValueError, match=f"field '{field}'"):
            read_codebook(path)
    path.write_text(json.dumps(dict(good, words=None)))
    rc = main(["verify", "mindist", "--in", str(path)])
    assert rc == 2  # a usage error, not a traceback
    path.write_text(json.dumps([good]))
    with pytest.raises(ValueError, match="top level must be an object"):
        read_codebook(path)
    path.write_text(json.dumps(dict(good, schema_version=2)))
    with pytest.raises(ValueError, match="field 'schema_version': unsupported version"):
        read_codebook(path)


@pytest.mark.parametrize("argv,named", [
    (("cl", "--v", 40), "v=40"),
    (("partition", "--v", 27), "v=27"),
    (("cL", "--v", 11, "--d", 5), "cL --v 11 --d 5: the distance-5 check of 2046 columns"),
    (("cn", "--q", 10000019, "--d", 3), "q=10000019"),
])
def test_oversized_constructions_are_refused(capsys, tmp_path, argv, named):
    path = tmp_path / "book.json"
    rc, out, err = run(capsys, "construct", *argv, "--out", path)
    assert (rc, out) == (3, "") and err.startswith("budget refusal:") and named in err
    assert not path.exists()


def test_write_refuses_implicit_codebooks(tmp_path):
    from aldkit.core import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        write_codebook(tmp_path / "big.json", build_cl(4, 0))


# ------------------------------------------------------------------- commands


def test_dist_command(capsys):
    rc, out, _ = run(capsys, "dist", "22", "11", "--lambda", 1)
    assert (rc, out.strip()) == (0, "2")
    rc, out, _ = run(capsys, "dist", "GG", "CC", "--dna")
    assert (rc, out.strip()) == (0, "4")
    rc, _, err = run(capsys, "dist", "24", "11")
    assert rc == 2 and "digit" in err


def test_ball_command(capsys):
    rc, out, _ = run(capsys, "ball", "--n", 3, "--w", 1, "--r", 2, "--lambda", 1)
    assert (rc, out.strip()) == (0, "8")
    rc, out, _ = run(capsys, "ball", "--n", 3, "--w", 0, "--r", 2, "--enumerate")
    lines = out.strip().splitlines()
    assert lines[-1] == "7"
    assert len(lines) == 8  # 7 member words plus the size line
    assert lines[0] == "000"
    for extra in ([], ["--enumerate"]):
        rc, out, err = run(capsys, "ball", "--n", 3, "--w", -1, "--r", 2, *extra)
        assert (rc, out) == (2, "") and "weight out of range" in err


def test_bound_command_methods(capsys):
    cases = [
        (["bound", "lp", "--n", 5, "--d", 3], "336"),
        (["bound", "optimal1", "--n", 5], "336"),
        (["bound", "naive", "--n", 5, "--d", 5], "427"),
        (["bound", "simple", "--n", 5, "--d", 5], "254"),
        (["bound", "weights1", "--n", 5, "--d", 5], "141"),
        (["bound", "delsarte", "--n", 1, "--d", 3], "2"),
    ]
    for argv, want in cases:
        rc, out, _ = run(capsys, *argv)
        assert (rc, out.strip()) == (0, want), argv


def test_bound_exact_rational(capsys):
    rc, out, _ = run(capsys, "bound", "lp", "--n", 2, "--d", 3,
                     "--exact-rational")
    assert (rc, out.strip()) == (0, "28/3")
    rc, out, _ = run(capsys, "bound", "delsarte", "--n", 1, "--d", 2,
                     "--exact-rational")
    assert rc == 0 and out.startswith("4 (irrational optimum; sqrt5 coefficient")


def test_bound_usage_errors(capsys):
    rc, _, err = run(capsys, "bound", "optimal1", "--n", 5, "--d", 5)
    assert rc == 2 and "closed form" in err
    rc, _, err = run(capsys, "bound", "weights1", "--n", 3, "--d", 5,
                     "--lambda", 2)
    assert rc == 2
    rc, _, err = run(capsys, "bound", "lp", "--n", 2)
    assert rc == 2 and "requires --d" in err
    # the capped weights1 system fails its cover check at radius 4 here:
    # the method does not apply, as sandwich_check records it
    rc, out, err = run(capsys, "bound", "weights1", "--n", 3, "--d", 9)
    assert (rc, out) == (2, "") and "infeasible at n=3, d=9" in err


def test_bound_delsarte_budget_refusal(capsys, monkeypatch):
    cases = [
        (3, 3, 1, "column assembly"),
        (3, 3, 2, "coefficient assembly"),
        (1, 100, 1, "solve"),  # no column survives, and the solve still checks
    ]
    for n, d, k, stage in cases:
        monkeypatch.setattr(delsarte, "Budget", _budget_spent_at(k))
        rc, out, err = run(capsys, "bound", "delsarte", "--n", n, "--d", d,
                           "--budget", 600)
        assert (rc, out) == (3, "") and f"exhausted during {stage}" in err, (n, d, k)


def test_budget_values(capsys):
    rc, out, err = run(capsys, "bound", "delsarte", "--n", 4, "--d", 16,
                       "--budget", "nan")
    assert (rc, out) == (2, "") and "budget" in err
    rc, _, err = run(capsys, "bound", "delsarte", "--n", 3, "--d", 9,
                     "--budget", -1)
    assert rc == 3 and "budget" in err
    # the other methods have no budget, so they refuse --budget
    for method in ("lp", "naive", "simple", "weights1", "optimal1"):
        rc, out, err = run(capsys, "bound", method, "--n", 5, "--d", 3,
                           "--budget", "nan")
        assert (rc, out) == (2, "") and "delsarte only" in err, method
    # nor does any table but 3: --budget is a usage error, not ignored
    for argv in (("1", "--max-n", 1, "--budget", "nan"),
                 ("2", "--max-n", 5, "--budget", 5)):
        rc, out, err = run(capsys, "table", *argv)
        assert (rc, out) == (2, "") and "table 3 only" in err


def test_budget_variable_has_no_effect(capsys, monkeypatch):
    # budgets are arguments only; an ambient variable changes no answer
    monkeypatch.delenv("ALDKIT_BUDGET_SECS", raising=False)
    report = delsarte_bound(3, 9, 1)
    answer = run(capsys, "bound", "delsarte", "--n", 3, "--d", 9)
    assert answer[0] == 0
    for raw in ("-1", "nan"):
        monkeypatch.setenv("ALDKIT_BUDGET_SECS", raw)
        assert delsarte_bound(3, 9, 1) == report
        assert run(capsys, "bound", "delsarte", "--n", 3, "--d", 9) == answer
        rc, out, err = run(capsys, "bound", "delsarte", "--n", 4, "--d", 16)
        assert (rc, out) == (3, "") and "budget_secs" in err


@pytest.mark.parametrize(
    "argv,design",
    [
        (["construct", "cp", "--n", 2], 2),
        (["construct", "cl", "--v", 2, "--u", 1], 3),
        (["construct", "partition", "--v", 2], 3),
        (["construct", "cn", "--q", 5, "--d", 3], 3),
        (["construct", "cn", "--q", 5, "--d", 3, "--u", 1, "--z", "2"], 3),
        (["construct", "clambda", "--n", 4, "--d", 4], 4),
        (["construct", "cL", "--v", 4, "--d", 5], 5),
    ],
)
def test_construct_then_verify(capsys, tmp_path, argv, design):
    path = tmp_path / "book.json"
    rc, out, _ = run(capsys, *argv, "--out", path)
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "mindist", "--in", path)
    assert rc == 0
    assert int(out.strip()) >= design


def test_verify_defaults_to_the_codebook_lambda(capsys, tmp_path):
    path = tmp_path / "book.json"
    rc, _, _ = run(capsys, "construct", "clambda", "--n", 4, "--d", 6,
                   "--lambda", 2, "--out", path)
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "mindist", "--in", path)
    assert (rc, out.strip()) == (0, "6")
    # an explicit --lambda still wins
    rc, out, _ = run(capsys, "verify", "mindist", "--in", path, "--lambda", 1)
    assert (rc, out.strip()) == (0, "3")


def test_construct_usage_and_budget(capsys, tmp_path):
    rc, _, err = run(capsys, "construct", "cn", "--q", 5, "--d", 3,
                     "--u", 1, "--out", tmp_path / "x.json")
    assert rc == 2 and "both --u and --z" in err
    rc, _, err = run(capsys, "construct", "cl", "--v", 4,
                     "--out", tmp_path / "x.json")
    assert rc == 3  # implicit codebook cannot be serialized
    for lam in (0, -1):  # refused before the component distances divide
        rc, _, err = run(capsys, "construct", "clambda", "--n", 3, "--d", 4,
                         "--lambda", lam, "--out", tmp_path / "x.json")
        assert rc == 2 and "lam must be a positive integer" in err


def test_verify_empty_codebook(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "schema_version": 1, "n": 2, "lambda": 1, "design_distance": 2,
        "construction": "manual", "params": {}, "words": [],
    }))
    rc, out, _ = run(capsys, "verify", "mindist", "--in", path)
    assert (rc, out.strip()) == (0, "Infinity")


def test_decode_command(capsys, tmp_path):
    words = list(build_cl(3, 0))
    clean = words[5]
    mixed = clean.a ^ clean.b
    pos = (mixed & -mixed).bit_length() - 1
    swapped = PairedWord(6, clean.a ^ (1 << pos), clean.b ^ (1 << pos))
    flipped = PairedWord(6, clean.a ^ (1 << 2), clean.b)
    # a flip on the second strand is no class-1 error: correct1 cannot fix it
    flipped_b = PairedWord(6, clean.a, clean.b ^ 1)
    path = tmp_path / "rx.json"
    received = {
        "schema_version": 1, "n": 6, "lambda": 1, "design_distance": 3,
        "construction": "received", "params": {},
        "words": [clean.to_digits(), swapped.to_digits(), flipped.to_digits(),
                  flipped_b.to_digits()],
    }
    path.write_text(json.dumps(received))
    rc, out, _ = run(capsys, "decode", "cl", "--v", 3, "--u", 0,
                     "--mode", "correct1", "--in", path)
    assert rc == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0] == {
        "received": clean.to_digits(), "status": "decoded",
        "word": clean.to_digits(),
    }
    assert records[1]["word"] == clean.to_digits()
    assert records[3] == {
        "received": flipped_b.to_digits(), "status": "error",
        "reason": "uncorrectable pattern",
    }
    rc, out, _ = run(capsys, "decode", "cl", "--v", 3, "--u", 0,
                     "--mode", "detect2", "--in", path)
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0]["status"] == "decoded"
    assert records[2] == {
        "received": flipped.to_digits(), "status": "flagged",
        "strand": "a", "position": 2,
    }
    path.write_text(json.dumps(dict(received, n=4, words=["0000"])))
    rc, out, err = run(capsys, "decode", "cl", "--v", 3, "--u", 0,
                       "--mode", "correct1", "--in", path)
    assert (rc, out) == (2, "")
    assert "length mismatch: file words have n=4, v=3 needs 6" in err


def test_decode_refuses_v_past_the_column_cap_before_reading(capsys, tmp_path):
    # 2^(10^12) - 2 positions would be a 125 GB int: v is checked first
    path = tmp_path / "missing.json"
    rc, out, err = run(capsys, "decode", "cl", "--v", 10**12, "--mode", "correct1",
                       "--in", path)
    assert (rc, out) == (3, "")
    assert "column-table entries at v=1000000000000: 2^1000000000000, over the cap" in err


def test_exact_command(capsys):
    rc, out, _ = run(capsys, "exact", "--n", 2, "--d", 3, "--lambda", 1)
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "5"
    assert lines[1:] == ["00", "03", "11", "30", "33"]
    rc, out, _ = run(capsys, "exact", "--n", 1, "--d", 3, "--dna")
    assert out.strip().splitlines()[1:] == ["G", "A"]
    rc, _, err = run(capsys, "exact", "--n", 5, "--d", 3)
    assert rc == 3


# --------------------------------------------------------------------- tables


def parse_csv(out):
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    return [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]


def test_table1_small(capsys):
    rc, out, _ = run(capsys, "table", "1", "--max-n", 2)
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert all(row["match"] == "yes" for row in rows)
    cell = next(r for r in rows if (r["n"], r["d"]) == ("2", "3"))
    assert (cell["value_floor"], cell["value_num"], cell["value_den"]) == (
        "9", "28", "3",
    )


def test_table_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "table", "1", "--max-n", 3)
    rc2, out2, _ = run(capsys, "table", "1", "--max-n", 3)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_table2_reports_honest_mismatches(capsys):
    rc, out, _ = run(capsys, "table", "2", "--max-n", 6)
    assert rc == 0
    rows = parse_csv(out)
    for row in rows:
        if row["method"] == "weights1":
            assert row["match"] == "no"
        else:
            assert row["match"] == "yes", row


def test_table3_budgeted_run(capsys):
    # Every cell at n <= 3 finishes under the default budget, so the
    # verdict does not depend on machine speed; the refusal path is
    # covered by test_table3_spent_budget_refuses_every_cell.
    rc, out, _ = run(capsys, "table", "3")
    rows = parse_csv(out)
    assert rc == 0 and len(rows) == 24
    by_cell = {(r["n"], r["d"]): r for r in rows}
    assert by_cell[("1", "3")]["match"] == "yes"
    assert by_cell[("2", "5")]["match"] == "yes"
    assert by_cell[("3", "9")]["match"] == "yes"
    # cells the reference marks unbounded but the sound program prices
    assert by_cell[("1", "1")]["value_floor"] == "5"
    assert by_cell[("1", "1")]["expected"] == "--"
    assert by_cell[("1", "1")]["match"] == "no"
    for r in rows:
        if r["expected"] != "--":
            assert r["match"] == "yes", r
        else:
            # a finite (OPTIMAL) bound, at least the exact optimum
            n, d = int(r["n"]), int(r["d"])
            assert r["value_floor"] != "", r
            assert int(r["value_floor"]) >= exact_max_code(n, d, 1)[0], r


def test_table3_spent_budget_refuses_every_cell(capsys):
    rc, out, _ = run(capsys, "table", "3", "--max-n", 2, "--budget", -1)
    rows = parse_csv(out)
    assert rc == 3 and len(rows) == 12
    assert all(r["match"] == "refused" and r["value_floor"] == "" for r in rows)


def test_table4_matches(capsys):
    rc, out, _ = run(capsys, "table", "4", "--max-n", 3)
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert all(row["match"] == "yes" for row in rows)
    assert {r["value_floor"] for r in rows if r["n"] == "3" and r["d"] in ("7", "8")} == {"5"}


def test_table5_matches(capsys):
    rc, out, _ = run(capsys, "table", "5")
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 56
    assert all(row["match"] == "yes" for row in rows)


def test_table5_calls_the_module_level_bound(capsys, monkeypatch):
    # wrappers set on aldkit.cli (as the benchmark's tracer does) must be seen
    import aldkit.cli as cli

    calls = []
    real = cli.lp_hypergraph_bound
    monkeypatch.setattr(cli, "lp_hypergraph_bound",
                        lambda *a: calls.append(a) or real(*a))
    rc, out, _ = run(capsys, "table", "5", "--max-n", 2)
    assert rc == 0
    assert len(calls) == sum(r["method"] == "lp" for r in parse_csv(out)) == 4


@pytest.mark.parametrize("table,max_n", [(2, 8), (5, 4)])
def test_bound_agrees_with_table_rows(capsys, table, max_n):
    rc, out, _ = run(capsys, "table", table, "--max-n", max_n)
    rows = [r for r in parse_csv(out) if r["method"] != "averaging"]
    assert rc == 0 and len(rows) == {2: 16, 5: 10}[table]
    for r in rows:
        argv = ["bound", r["method"], "--n", r["n"], "--d", r["d"],
                "--lambda", r["lambda"]]
        assert run(capsys, *argv)[:2] == (0, r["value_floor"] + "\n"), r
        assert run(capsys, *argv, "--exact-rational")[:2] == (
            0, f"{r['value_num']}/{r['value_den']}\n"), r


# SHA-256 of the CSV each table prints; every row's floor, numerator,
# denominator, reference value and match is pinned, byte for byte.
TABLE_CSV_SHA256 = {
    ("1",): "ff3c4dbb712aff9f1909a5cbdd0b3809d84ee71ccff886719769804aee5c5ea1",
    ("2",): "4bf9ed57845a2707dae1e09a71f3927b877296fa971cd6971b910cae2c2a92de",
    ("3", "--max-n", "2"):
        "b78ac2432609d6528ac97e536a220bf265401e1f6adb43a507b2e90e45137f87",
    ("4",): "496c9518c270579aaf0245b5b548b83f7fe9d73eaf5f4ee0e0ceef6013b72d6d",
    ("5",): "c2f0521871800cb3158dbaceac20bd8e25e1eb9b030d22827ae10fe7b262eb3c",
}


@pytest.mark.parametrize("argv", list(TABLE_CSV_SHA256), ids=" ".join)
def test_table_csv_bytes_are_pinned(capsys, argv):
    rc, out, _ = run(capsys, "table", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_CSV_SHA256[argv]


SHARED_PARSER_CALLS = (
    ("table", "5", "--max-n", "2", "--format", "json"),
    ("table", "5", "--max-n", "2"),
    ("bound", "lp", "--n", "3", "--d", "3"),
)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with one parser per process; no option of one call may
    # leak into the next (the json table must not turn the next into json)
    shared = [run(capsys, *argv) for argv in SHARED_PARSER_CALLS]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in SHARED_PARSER_CALLS]
    assert shared == fresh
    assert shared[0][1].startswith("{") and shared[1][1].startswith(",".join(CSV_HEADER))


def test_table_json_format(capsys):
    rc, out, _ = run(capsys, "table", "5", "--max-n", 2, "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["table"] == 5
    assert len(data["rows"]) == 8
    assert data["rows"][0]["match"] == "yes"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aldkit.cli", "table", "1", "--max-n", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(CSV_HEADER)


def test_cli_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "aldkit", "dist", "22", "11", "--lambda", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_closed_pipe_exits_1_without_a_traceback():
    # The reader stops after one line, as `| head -n 1` does; the 160 kB
    # of output left overflow the pipe, so the writer meets the closed end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "aldkit", "ball", "--n", "9", "--w", "4", "--r", "9", "--enumerate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"000000000\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
