"""Run one aldkit benchmark workload, check every answer and print its metrics.

    python3 benchmark/run.py --workload covering-tables --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; aldkit is imported from its ``src``.
With ``--trace 0`` the workload's cells are solved pass after pass, with
tracing off, until the cells have taken ``--seconds`` reference seconds
(at least one whole pass), and the end-to-end metrics are printed.  With
``--trace 1`` untraced and traced passes alternate for the same time,
and the per-layer metrics of the traced passes are printed, with
``trace.overhead_s`` the traced minus the untraced pass wall time.

Times are in reference seconds: the host's speed is sampled while the
cells run and each time is divided by the slowdown seen (see
``speed.py``), so that drifts in a shared machine's speed do not read
as changes in aldkit.  Counting the run's length in the same seconds
keeps the number of passes, and so the rank ``cell_s_tail`` is read at,
the same from run to run.  Raw seconds are printed beside them.
Per-layer times are raw seconds and include the sampling, about 2% of a
pass.

The last line of standard output is one JSON object; the lines before
it give each metric by name and unit, and the environment.  The run's
record, with the spans of traced passes, is written under
``.bench_out/``.  The exit code is 0 when every answer was correct or a
documented divergence, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import Speedometer, slowdown_now
from tracing import NULL, TIME_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 5


def import_checkout():
    """Put this checkout's ``src`` first on the path and import aldkit from it."""
    if not (SRC / "aldkit" / "__init__.py").is_file():
        sys.exit(f"error: no aldkit sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import aldkit

    if Path(aldkit.__file__).resolve().parent != (SRC / "aldkit").resolve():
        sys.exit(f"error: aldkit was imported from {aldkit.__file__}, not from {SRC}")


class CellTime(NamedTuple):
    """One cell's seconds: wall and CPU at the reference speed, then raw."""

    id: str
    wall: float
    cpu: float
    raw_wall: float
    raw_cpu: float


def run_pass(work, tracer):
    """Solve every cell once, in this pass's seeded order.

    Returns ``(times, verdicts)``: a ``CellTime`` per cell and the
    oracle's verdicts.  Answers are checked after the pass, outside the
    timed cells.
    """
    raw, outcomes = [], []
    with Speedometer() as meter:
        for cell in work.pass_order():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with tracer.span("cell", cell=cell.id):
                    outcome = (cell.run(tracer), None)
            except Exception as err:  # a raise is a failed answer; the run goes on
                outcome = (None, f"{type(err).__name__}: {err}")
            t1, c1 = time.perf_counter(), time.process_time()
            raw.append((cell.id, t0, t1, c1 - c0))
            outcomes.append((cell, outcome))
    times = []
    for cell_id, t0, t1, cpu in raw:
        slowdown, sampling = meter.over(t0, t1)
        times.append(CellTime(cell_id, (t1 - t0 - sampling) / slowdown, (cpu - sampling) / slowdown, t1 - t0, cpu))
    return times, [v for cell, outcome in outcomes for v in judge(cell, *outcome)]


def judge(cell, result, failure):
    from workloads import FAILED

    if failure is None:
        try:
            return cell.check(result)
        except Exception as err:  # a malformed answer is a failed answer
            failure = f"unreadable answer: {type(err).__name__}: {err}"
    return [(cell.id, FAILED, failure)] * cell.ops


def tail(samples):
    """(value, percentile): the highest percentile with ten samples beyond it,
    or the maximum when there are too few samples for that."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * k / max(len(ordered) - 1, 1)


def pass_seconds(times, field="wall"):
    return sum(getattr(t, field) for t in times)


def timed_run(work, seconds):
    passes, measured = [], 0.0
    while not passes or measured < seconds:
        passes.append(run_pass(work, NULL))
        measured += pass_seconds(passes[-1][0])
    cells = [t.wall for times, _ in passes for t in times]
    value, pct = tail(cells)
    metrics = {
        "wall_s": (statistics.median(pass_seconds(t) for t, _ in passes), "s"),
        "cpu_s": (statistics.median(pass_seconds(t, "cpu") for t, _ in passes), "s"),
        "cell_s_p50": (statistics.median(cells), "s"),
        "cell_s_tail": (value, "s"),
    }
    raw = lambda field: statistics.median(pass_seconds(t, field) for t, _ in passes)
    notes = {
        "wall_s": f"median of {len(passes)} passes; raw {raw('raw_wall'):.4f} s",
        "cpu_s": f"median of {len(passes)} passes; raw {raw('raw_cpu'):.4f} s",
        "cell_s_p50": f"{len(cells)} cell samples",
        "cell_s_tail": f"p{pct:.0f} of {len(cells)} cell samples",
    }
    record = {"passes": [t for t, _ in passes]}
    return metrics, notes, [v for _, verdicts in passes for v in verdicts], record


def traced_run(work, seconds):
    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_pass(work, tracer))
        finally:
            tracer.uninstall()
        spans.append((tracer.spans, layer_metrics(tracer.spans, tracer.counts)))

    plain, traced, spans = [], [], []
    while not traced or sum(pass_seconds(t) for t, _ in plain + traced) < seconds:
        # Alternate which side of the pair runs first, so that warm-up
        # in the first pass does not fall on one side only.
        if len(traced) % 2:
            traced_pass()
            plain.append(run_pass(work, NULL))
        else:
            plain.append(run_pass(work, NULL))
            traced_pass()
    wall = lambda runs: statistics.median(pass_seconds(t) for t, _ in runs)
    metrics = {
        name: (statistics.median(m[name] for _, m in spans), "s" if name.endswith("_s") else "count")
        for name in spans[0][1]
    }
    metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    # The time metrics partition the cell spans, so they must add up to
    # the traced wall time; report the largest gap over traced passes.
    gap = max(
        abs(sum(m[k] for k in TIME_METRICS) - sum(e - s for name, s, e, _, _ in sp if name == "cell"))
        for sp, m in spans
    )
    notes = {"trace.overhead_s": (
        f"traced {wall(traced):.4f} s - untraced {wall(plain):.4f} s per pass, "
        f"median of {len(traced)} pairs; time metrics sum to the traced cells within {gap:.2e} s"
    )}
    verdicts = [v for _, vs in plain + traced for v in vs]
    record = {"spans": [sp for sp, _ in spans], "passes": [t for t, _ in plain + traced]}
    return metrics, notes, verdicts, record


def fresh_setup_seconds(workload, seed):
    """(reference, raw) seconds of one set-up in a fresh interpreter; the
    slowdown is sampled just before and just after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    before = slowdown_now()
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
    took = time.perf_counter() - start
    return took / ((before + slowdown_now()) / 2), took


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the package sources and data, to tell checkouts apart."""
    h = hashlib.sha256()
    pkg = SRC / "aldkit"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="perform one set-up and exit (timed by the parent run as setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    import workloads

    if args.setup_only:
        workloads.setup(args.workload, args.seed)
        return 0
    env = environment(args)
    setup_times = [] if args.trace else [
        fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)
    ]
    work = workloads.setup(args.workload, args.seed)
    if args.trace:
        metrics, notes, verdicts, record = traced_run(work, args.seconds)
    else:
        metrics, notes, verdicts, record = timed_run(work, args.seconds)
        ok = sum(1 for _, v, _ in verdicts if v == workloads.OK)
        metrics["ops_ok_frac"] = (ok / len(verdicts), "ratio")
        metrics["setup_s"] = (statistics.median(ref for ref, _ in setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        notes["ops_ok_frac"] = f"{ok} of {len(verdicts)} answers match; ops_failed_frac = {1 - ok / len(verdicts):.4f}"
        notes["setup_s"] = (f"median of {len(setup_times)} fresh interpreters; "
                            f"raw {statistics.median(raw for _, raw in setup_times):.4f} s")
    env["loadavg_end"] = os.getloadavg()

    failed = [v for v in verdicts if v[1] == workloads.FAILED]
    known = sorted({v[0] for v in verdicts if v[1] == workloads.KNOWN})
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"answers: {len(verdicts)} checked, {len(failed)} failed, "
          f"{sum(1 for v in verdicts if v[1] == workloads.KNOWN)} documented divergences "
          f"({', '.join(known) or 'none'})")
    for op, _, detail in failed[:10]:
        print(f"FAILED {op}: {detail}")

    OUT.mkdir(exist_ok=True)
    record.update(env=env, metrics=metrics, setup_samples_s=setup_times,
                  not_ok=[v for v in verdicts if v[1] != workloads.OK])
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
