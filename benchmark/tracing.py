"""In-memory span recorder for the traced benchmark run.

The tracer measures aldkit from the outside: it replaces module
attributes such as ``aldkit.delsarte.solve_lp`` with wrappers that open
a span around each call, and puts the originals back afterwards.  The
package itself is never edited.  A span is ``(name, start, end, parent,
cell)``; spans of one benchmark cell share the cell id.  Counts are
recorded at the same boundaries.

Per-layer metrics are derived from one pass's spans and counts by
``layer_metrics``; a layer's self time is its span's duration minus the
part of it covered by child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from math import comb

__all__ = ["NULL", "Tracer", "self_times", "layer_metrics", "TIME_METRICS", "COUNT_METRICS"]


class _NullTracer:
    """Stand-in used with tracing off: every hook is a no-op."""

    @contextmanager
    def span(self, name, cell=None):
        yield

    def count(self, name, amount=1):
        pass


NULL = _NullTracer()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, cell id]
        self.counts = Counter()
        self.cell = None
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, cell=None):
        """Record one span; passing ``cell`` tags it and its descendants."""
        if cell is not None:
            self.cell = cell
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.cell])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` by a spanning wrapper until ``uninstall``.

        ``before(args, kwargs)`` may rewrite the call's keyword arguments
        and returns a state value; ``after(state, args, result)`` records
        counts once the span has closed.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self):
        """Wrap the public entry points of every aldkit layer the workloads reach."""
        from aldkit import cli, codes, delsarte, hyperbound, search_verify

        for fn in ("lp_hypergraph_bound", "naive_weight_bound", "simple_bound", "weights1_bound"):
            self.wrap(cli, fn, "hyperbound." + fn)
        self.wrap(cli, "main", "cli.main")
        self.wrap(hyperbound, "lp_hypergraph_bound", "hyperbound.lp_hypergraph_bound")
        self.wrap(hyperbound, "class_matrix", "hyperbound.class_matrix")
        self.wrap(hyperbound, "ball_size", "balls.ball_size",
                  after=lambda s, a, r: self.count("balls.ball_size_calls"))
        self.wrap(hyperbound, "solve_lp", "lp.fraction.solve_lp",
                  *self._lp_hooks("lp.fraction"))
        self.wrap(delsarte, "delsarte_bound", "delsarte.delsarte_bound")
        self.wrap(delsarte, "coefficient_column", "delsarte.coefficient_column",
                  after=self._after_column)
        before, after_lp = self._lp_hooks("lp.q5")

        def after_q5(state, args, result):
            after_lp(state, args, result)
            self.count("delsarte.lp_rows", len(args[0].rows))

        self.wrap(delsarte, "solve_lp", "lp.q5.solve_lp", before, after_q5)
        self.wrap(search_verify, "exact_max_code", "search.exact_max_code")
        self.wrap(search_verify, "distance_graph", "search.distance_graph",
                  after=self._after_graph)
        self.wrap(search_verify, "min_distance", "search.min_distance",
                  after=self._after_pairscan)
        for fn in ("build_cl", "build_cp"):
            self.wrap(codes, fn, "codes." + fn, after=self._after_build)
        self.wrap(codes, "best_cn_coset", "codes.best_cn_coset",
                  after=lambda s, a, r: self._after_build(s, a, r[2]))
        self.wrap(codes, "decode_cl", "codes.decode_cl",
                  after=lambda s, a, r: self.count("codes.decode_calls"))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------ count hooks

    def _lp_hooks(self, prefix):
        def before(args, kwargs):
            steps = [0]
            inner = kwargs.get("on_step")

            def on_step():
                steps[0] += 1
                if inner is not None:
                    inner()

            kwargs["on_step"] = on_step
            return steps

        def after(steps, args, result):
            rows, cols = tableau_shape(args[0])
            self.count(prefix + ".solves")
            self.count(prefix + ".steps", steps[0])
            self.count(prefix + ".cell_updates", steps[0] * rows * cols)
            key = prefix + ".tableau_cells_max"
            self.counts[key] = max(self.counts[key], rows * cols)

        return before, after

    def _after_column(self, state, args, result):
        self.count("delsarte.columns")
        self.count("delsarte.column_terms", len(result))

    def _after_graph(self, state, args, graph):
        degrees = sum(graph.degree(i) for i in range(len(graph.vertices)))
        self.count("search.graph_edges", degrees // 2)

    def _after_pairscan(self, state, args, result):
        self.count("search.pairscan_pairs", comb(len(args[0].words), 2))

    def _after_build(self, state, args, book):
        self.count("codes.words_built", len(book))


def tableau_shape(lp):
    """(rows, columns) of the simplex tableau ``lp.solve_lp`` builds.

    Rows are the constraints plus the cost row; columns are the
    variables, one slack per inequality, one artificial per row that is
    not ``<=`` after the right-hand side is made nonnegative, and the
    right-hand side.  A pivot rewrites at most every cell, and
    ``on_step`` also fires once per phase without a pivot, so
    steps x rows x columns is an upper estimate of the cells updated.
    """
    nslack = nart = 0
    for _, relation, rhs in lp.rows:
        if relation != "=":
            nslack += 1
        flipped = rhs < 0 and relation != "="
        if relation == "=" or (relation == ">=") != flipped:
            nart += 1
    return len(lp.rows) + 1, len(lp.objective) + nslack + nart + 1


def self_times(spans):
    """Self time of every span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for name, start, end, parent, cell in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, cell), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Each time metric is ("total" or "self", span names it sums over).
TIME_METRICS = {
    "lp.fraction.solve_s": ("total", ("lp.fraction.solve_lp",)),
    "lp.q5.solve_s": ("total", ("lp.q5.solve_lp",)),
    "delsarte.column_s": ("total", ("delsarte.coefficient_column",)),
    "delsarte.assembly_self_s": ("self", ("delsarte.delsarte_bound",)),
    "hyperbound.class_matrix_s": ("total", ("hyperbound.class_matrix",)),
    "hyperbound.self_s": ("self", (
        "hyperbound.lp_hypergraph_bound", "hyperbound.naive_weight_bound",
        "hyperbound.simple_bound", "hyperbound.weights1_bound",
    )),
    "balls.ball_size_s": ("total", ("balls.ball_size",)),
    "search.graph_s": ("total", ("search.distance_graph",)),
    "search.clique_self_s": ("self", ("search.exact_max_code",)),
    "search.pairscan_s": ("total", ("search.min_distance",)),
    "codes.build_s": ("total", ("codes.build_cl", "codes.build_cp", "codes.best_cn_coset")),
    "codes.decode_s": ("total", ("codes.decode_cl",)),
    "core.ald_distance_s": ("total", ("core.ald_distance_sweep",)),
    "cli.self_s": ("self", ("cli.main",)),
    "bench.self_s": ("self", ("pass", "cell")),
}

COUNT_METRICS = (
    "lp.fraction.solves", "lp.fraction.steps", "lp.fraction.cell_updates",
    "lp.q5.solves", "lp.q5.steps", "lp.q5.cell_updates", "lp.q5.tableau_cells_max",
    "delsarte.columns", "delsarte.column_terms", "delsarte.lp_rows",
    "balls.ball_size_calls",
    "search.graph_edges", "search.pairscan_pairs",
    "codes.words_built", "codes.decode_calls",
    "core.ald_distance_calls",
    "cli.rows",
)


def layer_metrics(spans, counts):
    """Per-layer times and counts of one traced pass.

    Every span the tracer opens belongs to exactly one time metric and
    every leaf span is summed whole, so the time metrics add up to the
    duration of the root ``pass`` span.
    """
    selfs = self_times(spans)
    totals = Counter()
    own = Counter()
    for (name, start, end, parent, cell), s in zip(spans, selfs):
        totals[name] += end - start
        own[name] += s
    out = {}
    for metric, (kind, names) in TIME_METRICS.items():
        source = totals if kind == "total" else own
        out[metric] = float(sum(source[n] for n in names))
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    return out
