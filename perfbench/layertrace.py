"""Outside-in layer tracing for the benchmark.

`install` replaces the public functions of each weakbruhat module by
timing wrappers, in the namespaces of the modules that call them (a
`from .perm import leq_weak` binds a name in the caller, so that is
where a call crosses the layer boundary).  Nothing under src/ changes.

Every wrapped call becomes a span (name, start, end, parent, query id)
kept in memory and written out by `write_spans` when the run ends.
Calls, total and self time per name are summed as spans close, so they
stay exact when the span store is full.  Self time is a span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from array import array

MAX_SPANS = 1_000_000

# (span name, defining module, attribute, modules whose binding is wrapped)
BOUNDARIES = (
    ("perm.Permutation", "perm", "Permutation",
     ("separable", "poset", "weak_order", "bijection", "survey", "verify", "cli")),
    ("perm.leq_weak", "perm", "leq_weak", ("weak_order",)),
    ("separable.is_separable", "separable", "is_separable",
     ("bijection", "survey", "verify", "cli")),
    ("separable.gf_below_recursive", "separable", "gf_below_recursive",
     ("survey", "verify", "cli")),
    ("separable.gf_above_recursive", "separable", "gf_above_recursive", ("verify", "cli")),
    ("poset.le_gf", "poset", "le_gf", ("survey", "verify", "cli")),
    ("poset.inversion_poset", "poset", "inversion_poset", ("survey", "verify", "cli")),
    ("poset.order_polynomial_values", "poset", "order_polynomial_values", ("verify",)),
    ("qpoly.is_cyclotomic_product", "qpoly", "is_cyclotomic_product",
     ("survey", "verify", "cli")),
    ("weak_order.interval", "weak_order", "interval",
     ("bijection", "survey", "verify", "cli")),
    # check_bijection reaches build_pair_table and phi inside bijection,
    # so those two are wrapped in their own module as well
    ("bijection.check_bijection", "bijection", "check_bijection", ("verify", "cli")),
    ("bijection.build_pair_table", "bijection", "build_pair_table", ("bijection", "cli")),
    ("bijection.phi", "bijection", "phi", ("bijection", "verify")),
    ("bijection.invert_phi", "bijection", "invert_phi", ("verify", "cli")),
    ("survey.scan", "survey", "scan", ("cli",)),
    ("survey.format_row", "survey", "_format_row", ("survey",)),
)


class Tracer:
    """Span store plus per-name aggregates for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.query_id = 0
        self.dropped = 0
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_query = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # frames: [child time so far, span index or -1]
        self._stack: list[list] = []
        # a forked pool worker inherits the wrappers; its spans could
        # never reach this process, so it runs the plain functions
        self._active = [True]
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self._active[0] = False

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return got

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span called `name`."""
        nid = self.name_id(name)
        active, stack = self._active, self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        sp_name, sp_parent, sp_query = self.sp_name, self.sp_parent, self.sp_query
        sp_start, sp_end = self.sp_start, self.sp_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(sp_name)
            if idx < MAX_SPANS:
                sp_name.append(nid)
                sp_parent.append(stack[-1][1] if stack else -1)
                sp_query.append(tracer.query_id)
                sp_start.append(0.0)
                sp_end.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    sp_start[idx] = t0
                    sp_end[idx] = t1

        return wrapper

    def iter_span(self, name: str, fn):
        """Wrap a generator function so that each step of the generator
        records one span: the time the consumer waits for the next item."""
        step = self.span(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            done = object()
            try:
                while True:
                    item = step(it, done)
                    if item is done:
                        return
                    yield item
            finally:
                it.close()

        return wrapper

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def write_spans(self, path: str) -> None:
        """Tab-separated: index, name, start, end, parent index, query id.
        Times are perf_counter seconds of the traced process."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            names = self.names
            for i in range(len(self.sp_name)):
                fh.write(
                    f"{i}\t{names[self.sp_name[i]]}\t{self.sp_start[i]:.9f}\t"
                    f"{self.sp_end[i]:.9f}\t{self.sp_parent[i]}\t{self.sp_query[i]}\n"
                )


def _count_elements(tracer: Tracer, interval):
    @functools.wraps(interval)
    def counted(*args, **kwargs):
        iv = interval(*args, **kwargs)
        tracer.add("weak_order.interval.elements", iv.size)
        return iv

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES, the survey's chunk stream and
    fsync, and the verify suite runner.  Call after weakbruhat.cli has
    been imported, so that every caller module holds its bindings."""
    import weakbruhat.cli  # noqa: F401  (imports every layer module)

    mods = {name: sys.modules[f"weakbruhat.{name}"] for name in (
        "perm", "separable", "poset", "qpoly", "weak_order", "bijection",
        "survey", "verify", "cli")}
    for span_name, owner, attr, sites in BOUNDARIES:
        fn = getattr(mods[owner], attr)
        if span_name == "weak_order.interval":
            fn = _count_elements(tracer, fn)
        wrapped = tracer.span(span_name, fn)
        for site in sites:
            if not hasattr(mods[site], attr):
                raise AttributeError(f"weakbruhat.{site} has no binding {attr!r}")
            setattr(mods[site], attr, wrapped)

    survey = mods["survey"]
    survey._iter_chunk_results = tracer.iter_span(
        "survey.chunk_wait", survey._iter_chunk_results
    )
    # survey reaches fsync as os.fsync; give it an os of its own so that
    # only its calls are counted
    own_os = types.ModuleType("os")
    own_os.__dict__.update(os.__dict__)
    own_os.fsync = tracer.span("survey.fsync", os.fsync)
    survey.os = own_os

    run_suite = mods["cli"].run_suite

    @functools.wraps(run_suite)
    def traced_suite(name, *args, **kwargs):
        return tracer.span(f"verify.{name}", run_suite)(name, *args, **kwargs)

    mods["cli"].run_suite = traced_suite
