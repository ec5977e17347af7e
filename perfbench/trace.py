"""Span tracing of rigorkit from outside the library.

`Tracer.install()` wraps each module's public functions, and the Evaluator
query methods, and rebinds every name that refers to an original, so calls
bound with `from ... import` are traced as well as `module.name` calls.
`Tracer.uninstall()` restores the originals.  Nothing in rigorkit changes.

Each span records its name, start, end, parent span and job id, and is
kept in memory until `write_spans`.  The interval kernels run millions of
times per workload, so their spans are not stored one by one: each kernel
keeps an exact call count and its self time, and its duration is charged
to the enclosing span as child time.  Self time is a span's duration minus
the time its child spans cover.

A span that re-enters a function already open on the stack (recursion in
`differentiate`, say) is folded into the outer span.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("interval", "expr", "taylor", "prover", "lp", "assembly",
          "graphgen", "geom", "cli")

# Functions run inside every interval kernel; a span around them would
# double the cost of tracing the kernels themselves.
_SKIP = {"interval": {"next_up", "next_down"}}
# cli: only the job entry point.  Its self time is file reading, argument
# and task parsing, and report formatting.
_ONLY = {"cli": {"dispatch"}}
_EVALUATOR_METHODS = ("__init__", "value", "germ", "hessian_entry", "hessian",
                      "plan_lines")

REPLAY_OPS = ("add", "mul", "div", "sqrt_interval", "atan_interval")
REPLAY_SAMPLES = 3000


class Tracer:
    def __init__(self):
        self.stack = [[0, 0, "harness"]]  # frames: [child_ns, span_id, name]
        self.spans: list[tuple] = []      # (id, parent, job, name, start, end)
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> calls, total_ns, self_ns
        self.open = defaultdict(int)
        self.counters = defaultdict(int)
        self.operands = {op: [] for op in REPLAY_OPS}
        self.job = None
        self._next_id = 1
        self._restore: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook=None):
        stack, stats, open_ = self.stack, self.stats, self.open
        spans, clock = self.spans, time.perf_counter_ns
        st = stats[name]

        def traced(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            open_[name] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0, span_id, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[name] -= 1
                dur = t1 - t0
                stack[-1][0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                spans.append((span_id, parent, self.job, name, t0, t1))
            if hook is not None:
                result = hook(args, result)
            return result

        return traced

    def _kernel_wrapper(self, name, fn, samples):
        stack, clock = self.stack, time.perf_counter_ns
        st = self.stats[name]

        def traced(*args, **kwargs):
            frame = [0, stack[-1][1], name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
            if samples is not None and len(samples) < REPLAY_SAMPLES:
                samples.append(args)
            return result

        return traced

    # -- hooks: counts taken where the work happens ---------------------------

    def _hooks(self):
        c = self.counters

        def reduce_cell(args, cell):
            c["prover.reduce_calls"] += 1
            if cell is not args[1]:
                c["prover.collapsed"] += 1
            return cell

        def report(args, rep):
            c["prover.report_cells"] += rep.cells_processed
            c["prover.undecided_cells"] += len(rep.undecided_cells)
            c["prover.max_depth"] = max(c["prover.max_depth"], rep.max_depth_reached)
            return rep

        def certify(args, cert):
            p = args[0]
            c["lp.nonzeros"] += sum(1 for row in p.aeq for v in row if v != 0.0)
            c["lp.nonzeros"] += sum(1 for row in p.aineq for v in row if v != 0.0)
            return cert

        def verify(args, outcome):
            c["assembly.verified"] += 1
            c["assembly.certified"] += bool(outcome.certified)
            return outcome

        def check(args, res):
            c["geom.checks"] += 1
            c["geom.refuted"] += bool(res.refuted)
            return res

        def prune_spec(args, predicate):
            # The predicate is a closure; a span keeps its face walks and
            # is_terminal reads out of generate()'s own.
            return self._span_wrapper("graphgen.prune", predicate)

        return {
            "prover.reduce_cell": reduce_cell,
            "prover.prove_negative": report,
            "prover.prove_nonpositive": report,
            "lp.certify_upper_bound": certify,
            "assembly.verify_duality": verify,
            "geom.check_simplex_interior_point": check,
            "geom.check_segment_through_triangle": check,
            "geom.check_linked_line": check,
            "graphgen.compile_prune_spec": prune_spec,
        }

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        import rigorkit.cli  # noqa: F401  (loads every module)
        from rigorkit import expr, graphgen

        hooks = self._hooks()
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"rigorkit.{layer}"]
            names = _ONLY.get(layer, set(mod.__all__) | {
                n for n, v in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(v)})
            for fname in sorted(names - _SKIP.get(layer, set())):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{fname}"
                if layer == "interval":
                    samples = self.operands.get(fname)
                    wrapper = self._kernel_wrapper(span, fn, samples)
                else:
                    wrapper = self._span_wrapper(span, fn, hooks.get(span))
                originals[id(fn)] = (fn, wrapper)
        # Rebind every module-level name that refers to an original.
        for modname, mod in list(sys.modules.items()):
            if modname != "rigorkit" and not modname.startswith("rigorkit."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        for meth in _EVALUATOR_METHODS:
            fn = getattr(expr.Evaluator, meth)
            label = "compile" if meth == "__init__" else meth
            self._set(expr.Evaluator, meth, self._span_wrapper(f"expr.{label}", fn))
        # States: each popped state reads is_terminal exactly once, directly
        # inside generate().
        prop = graphgen.DecoratedGraph.is_terminal
        stack, counters = self.stack, self.counters

        def is_terminal(g):
            if stack[-1][2] == "graphgen.generate":
                counters["graphgen.states"] += 1
            return prop.fget(g)

        self._set(graphgen.DecoratedGraph, "is_terminal", property(is_terminal))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st[2] for name, st in self.stats.items()
                   if name.startswith(prefix)) / 1e9

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def mean_us(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] / st[0] / 1e3 if st and st[0] else 0.0

    def total_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] / 1e9 if st else 0.0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] / 1e9 if st else 0.0

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span_id, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start_ns": t0, "end_ns": t1}))
                fh.write("\n")
