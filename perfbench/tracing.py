"""Spans and exact counts around the calls into each cmop layer.

The tracer replaces a public function at the name its caller binds, for
example ``cmop.harness.pgd_solve`` (which ``run_experiment`` calls) or
``cmop.solvers.project_rows`` (which the iteration loop calls), with a
wrapper that records a span: name, layer, start, end, parent span and op
id. The op itself, one ``cmop.cli.main`` call, is the root span. Spans stay
in memory until the run ends; ``self_ns`` reduces them to self time, a
span's duration minus the part its direct children cover.

Nothing is recorded outside an op, so the benchmark's own output checks,
which call the same functions, leave no spans or counts behind.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import time

# (module, attribute, layer): each is a call from one layer into another.
SPANNED = (
    ("cmop.harness", "read_instance", "harness"),
    ("cmop.harness", "read_solution", "harness"),
    ("cmop.harness", "write_solution", "harness"),
    ("cmop.harness", "write_trace", "harness"),
    ("cmop.harness", "precompute", "objective"),
    ("cmop.harness", "gd_solve", "solvers.loop"),
    ("cmop.harness", "pgd_solve", "solvers.loop"),
    ("cmop.harness", "real_augmented_pgd", "solvers.loop"),
    ("cmop.harness", "active_set_oracle", "solvers.oracle"),
    ("cmop.solvers", "project_rows", "projection"),
    ("cmop.diagnostics", "kkt_check", "diagnostics.kkt"),
    ("cmop.diagnostics", "monitor_thm2", "diagnostics.monitors"),
    ("cmop.diagnostics", "monitor_thm3", "diagnostics.monitors"),
    ("cmop.diagnostics", "monitor_lemma2", "diagnostics.monitors"),
    ("cmop.diagnostics", "monitor_lemma4", "diagnostics.monitors"),
    ("cmop.diagnostics", "monitor_lipschitz", "diagnostics.monitors"),
)
ROOT_NAME = "cmop.cli.main"
ROOT_LAYER = "cli"

# cmat primitives are counted, not spanned: at paper scale they run a few
# microseconds each, so a span would cost as much as the call.
CMAT_PRIMITIVES = (
    "cmatrix", "rvector", "re_frob_inner", "frob_norm", "row_sq_norms", "adjoint_product",
)
CMAT_CALLERS = ("cmop.objective", "cmop.projection", "cmop.solvers", "cmop.diagnostics", "cmop.harness")

KKT_CONDITIONS = 4


class Tracer:
    """Records spans and counts while installed and inside an op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, op]
        self.counts: collections.Counter = collections.Counter()
        self.instances: set[str] = set()
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, layer in SPANNED:
            module = importlib.import_module(mod_name)
            self._replace(module, attr, self._spanning(getattr(module, attr), f"{mod_name}.{attr}", attr, layer))
        cmat = importlib.import_module("cmop.cmat")
        for mod_name in CMAT_CALLERS:
            module = importlib.import_module(mod_name)
            for attr in CMAT_PRIMITIVES:
                if getattr(module, attr, None) is getattr(cmat, attr):
                    self._replace(module, attr, self._counting(getattr(module, attr)))
        diagnostics = importlib.import_module("cmop.diagnostics")
        self._replace(diagnostics, "_build_report", self._counting_checks(diagnostics._build_report))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanning(self, fn, name, attr, layer):
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, layer, 0, 0, self._stack[-1], self._op]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._stack.pop()
            self._count(attr, args, out)
            return out

        return wrapper

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counts["cmat.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_checks(self, build_report):
        def wrapper(name, margins_and_checks):
            if self._op is None:
                return build_report(name, margins_and_checks)
            checks = list(margins_and_checks)
            self.counts["diagnostics.checks"] += len(checks)
            return build_report(name, checks)

        return wrapper

    def _count(self, attr, args, out) -> None:
        c = self.counts
        if attr in ("read_instance", "read_solution"):
            size = os.path.getsize(args[0])
            c["harness.bytes_read"] += size
            if attr == "read_instance":
                c["harness.read_instance_bytes"] += size
                self.instances.add(str(args[0]))
        elif attr == "precompute":
            c["objective.precompute_calls"] += 1
        elif attr in ("gd_solve", "pgd_solve", "real_augmented_pgd"):
            from cmop.solvers import per_iteration_flops

            n, k = out.w_final.shape
            c["solvers.solves"] += 1
            c["solvers.converged"] += int(out.converged)
            c["solvers.iterations"] += out.iterations
            c["solvers.flops"] += out.iterations * per_iteration_flops(n, k)
        elif attr == "active_set_oracle":
            c["solvers.oracle_calls"] += 1
            c["solvers.oracle_linear_solves"] += out.iterations
        elif attr == "project_rows":
            c["projection.project_rows_calls"] += 1
        elif attr == "kkt_check":
            c["diagnostics.checks"] += KKT_CONDITIONS

    # -- passes and ops ---------------------------------------------------

    def start_pass(self) -> None:
        self.counts = collections.Counter()
        self.instances = set()

    def end_pass(self) -> collections.Counter:
        """The pass's counts, with the number of distinct instances read."""
        self.counts["instances"] = len(self.instances)
        return self.counts

    def begin(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append([ROOT_NAME, ROOT_LAYER, 0, 0, -1, op_id])

    def end(self, start_ns: int, end_ns: int) -> None:
        root = self.spans[self._stack[0]]
        root[2], root[3] = start_ns, end_ns
        self._op = None
        self._stack = []

    # -- reducing ---------------------------------------------------------

    def self_ns(self) -> tuple[collections.Counter, collections.Counter]:
        """Self time summed per layer and per span name."""
        covered = [0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_layer: collections.Counter = collections.Counter()
        by_name: collections.Counter = collections.Counter()
        for (name, layer, start, end, parent, op), cov in zip(self.spans, covered):
            by_layer[layer] += end - start - cov
            by_name[name] += end - start - cov
        return by_layer, by_name

    def inclusive_ns(self, layer: str) -> int:
        return sum(end - start for _, lay, start, end, _, _ in self.spans if lay == layer)

    def write(self, path) -> None:
        fields = ("name", "layer", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
