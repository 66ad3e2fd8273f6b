"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark

They check the oracle, the span arithmetic, seeded input generation, the
repeatability of traced work counts, and that ``BENCHMARK.json`` and
``plan.json`` agree with what the harness emits.  The repository's own
test run (``testpaths = tests``) does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aldkit.lp import LPStatus  # noqa: E402
from workloads import FAILED, KNOWN, OK  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())


def _cell(work, cell_id):
    return next(c for c in work.cells if c.id == cell_id)


def _subset(work, ids):
    work.cells = [c for c in work.cells if c.id in ids]
    return work


def test_oracle_flags_a_wrong_table_floor():
    cell = _cell(workloads.setup("covering-tables", 1), "table-1")
    rc, text = cell.run(tracing.NULL)
    verdicts = cell.check((rc, text))
    assert [v[1] for v in verdicts].count(KNOWN) == 1
    assert FAILED not in [v[1] for v in verdicts]

    # Raise the floor of row (10, 3) by one.
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines) if line.startswith("10,3,1,lp,"))
    fields = lines[idx].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[idx] = ",".join(fields)
    verdicts = cell.check((rc, "\n".join(lines) + "\n"))
    failed = [v for v in verdicts if v[1] == FAILED]
    assert [v[0] for v in failed] == ["table1:(10, 3, 'lp')"]

    assert all(v[1] == FAILED for v in cell.check((3, text)))


def test_oracle_flags_wrong_character_lp_floors():
    report = lambda floored: SimpleNamespace(status=LPStatus.OPTIMAL, floored=floored)
    assert workloads.check_delsarte(3, 7, 4, None, report(4))[0][1] == OK
    assert workloads.check_delsarte(3, 7, 4, None, report(5))[0][1] == FAILED
    # A "--" reference cell must stay at least the exact optimum.
    assert workloads.check_delsarte(2, 3, None, 5, report(8))[0][1] == OK
    assert workloads.check_delsarte(2, 3, None, 5, report(4))[0][1] == FAILED
    unbounded = SimpleNamespace(status=LPStatus.UNBOUNDED, floored=None)
    assert workloads.check_delsarte(2, 3, None, 5, unbounded)[0][1] == FAILED


def test_oracle_flags_wrong_exact_size_and_decoder_strand():
    work = workloads.setup("exact-search", 1)
    cell = _cell(work, "exact-3-5-1")
    size, book = cell.run(tracing.NULL)
    assert cell.check((size, book))[0][1] == OK
    assert cell.check((size + 1, book))[0][1] == FAILED

    cell = _cell(work, "decode-sweep")
    results = cell.run(tracing.NULL)
    assert cell.check(results)[0][1] == OK
    k = next(i for i, r in enumerate(results) if getattr(r, "strand", None) == "a")
    results[k] = SimpleNamespace(strand="b", position=None)
    assert cell.check(results)[0][1] == FAILED


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["cell", 0.0, 10.0, None, "c"],
        ["cli.main", 1.0, 4.0, 0, "c"],
        ["hyperbound.lp_hypergraph_bound", 2.0, 3.5, 1, "c"],
        ["lp.fraction.solve_lp", 2.5, 3.0, 2, "c"],
        ["search.min_distance", 5.0, 9.0, 0, "c"],
    ]
    assert tracing.self_times(spans) == [3.0, 1.5, 1.0, 0.5, 4.0]
    metrics = tracing.layer_metrics(spans, {"cli.rows": 7})
    assert metrics["cli.self_s"] == 1.5
    assert metrics["hyperbound.self_s"] == 1.0
    assert metrics["lp.fraction.solve_s"] == 0.5
    assert metrics["search.pairscan_s"] == 4.0
    assert metrics["bench.self_s"] == 3.0
    assert metrics["cli.rows"] == 7
    assert sum(metrics[k] for k in tracing.TIME_METRICS) == 10.0


def test_speedometer_divides_out_slowdown_and_sampling_time():
    ref = speed.KERNEL_REF_S
    meter = speed.Speedometer()
    margin = speed.MARGIN_S
    meter.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (3.5 + margin / 2, 3 * ref), (9.0, ref)]
    # Samples 2x and 4x end inside [1.5, 3.5]; 3x ends within the margin.
    assert meter.over(1.5, 3.5) == pytest.approx((3.0, 6 * ref))
    # An interval with no sample near it takes its neighbours.
    assert meter.over(5.0, 6.0) == pytest.approx((2.0, 0))


def test_same_seed_generates_identical_inputs():
    a, b, c = (workloads.setup("exact-search", s) for s in (5, 5, 6))
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs
    assert [x.id for x in a.pass_order()] == [x.id for x in b.pass_order()]


def _traced_counts(name, ids):
    work = _subset(workloads.setup(name, 1), ids)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, verdicts = run.run_pass(work, tracer)
    finally:
        tracer.uninstall()
    assert FAILED not in [v[1] for v in verdicts]
    return tracing.layer_metrics(tracer.spans, tracer.counts)


def test_traced_work_counts_repeat_exactly():
    cases = {
        "covering-tables": ({"table-4", "table-5", "lp-20-5"},
                            ("lp.fraction.solves", "lp.fraction.steps", "lp.fraction.cell_updates", "cli.rows")),
        "character-lp": ({"delsarte-1-3", "delsarte-2-3", "delsarte-2-5", "delsarte-3-12"},
                         ("lp.q5.solves", "lp.q5.steps", "lp.q5.cell_updates", "delsarte.columns", "delsarte.lp_rows")),
        "exact-search": ({"exact-3-3-1", "scan-cl3", "decode-sweep"},
                         ("search.graph_edges", "search.pairscan_pairs", "codes.decode_calls", "codes.words_built")),
    }
    for name, (ids, keys) in cases.items():
        first, second = _traced_counts(name, ids), _traced_counts(name, ids)
        for key in keys:
            assert first[key] > 0, (name, key)
            assert first[key] == second[key], (name, key)


def test_tracing_restores_every_wrapped_attribute():
    from aldkit import cli, delsarte, hyperbound

    before = (cli.main, delsarte.solve_lp, hyperbound.class_matrix)
    tracer = tracing.Tracer()
    tracer.install()
    assert delsarte.solve_lp is not before[1]
    tracer.uninstall()
    assert (cli.main, delsarte.solve_lp, hyperbound.class_matrix) == before


def test_spec_and_plan_cover_what_the_harness_emits():
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    emitted = list(tracing.TIME_METRICS) + list(tracing.COUNT_METRICS) + ["trace.overhead_s"]
    assert sorted(per_layer) == sorted(emitted)
    predicted = [name for row in PLAN["predictions"] for name in row["layer_metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for row in PLAN["predictions"]:
        assert set(row["moves"]) | set(row["no_change"]) <= names
        assert all(set(ms) <= e2e for ms in row["moves"].values())

    exact = set(workloads.EXACT_CELLS)
    table3 = set(workloads.TABLE3_CELLS)
    for row in PLAN["excluded_cells"]:
        if isinstance(row["cells"], list):
            cells = {tuple(c) for c in row["cells"]}
            assert not cells & (exact if row["workload"] == "exact-search" else table3)
    assert all(n < 5 for n, _ in table3)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "exact-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
