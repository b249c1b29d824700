"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of each padicint module
with timing wrappers.  A replaced function is patched on its class, on its
module and on every other padicint module that bound it with
`from ... import`, so calls between modules go through the wrapper too.
Nothing inside the package changes; uninstall() restores every binding.

For every wrapped call the tracer keeps, on a stack, its start time and
the time its children took; self time is duration minus children.  A call
whose caller is in another layer, or is the op itself, belongs to a span:
name, start, end, parent span and op id.  Repeated calls of one name under
one parent share a span, which also counts them and sums their durations,
so a loop of a million calls costs one span.  Spans stay in memory and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("aqring", "integrate", "presburger", "kcells", "padic", "polys", "poincare", "parsing", "cli")

# (layer, owner, attribute, counter, phase).  owner is a class name or None
# for a module-level function.  A phase labels the self time of every call
# beneath it, so integrate's self time splits into symbolic and oracle work.
TARGETS = (
    ("aqring", "AqElem", "__init__", None, None),
    ("aqring", "AqElem", "__add__", "aqring.add_calls", None),
    ("aqring", "AqElem", "__sub__", None, None),
    ("aqring", "AqElem", "__rsub__", None, None),
    ("aqring", "AqElem", "__neg__", None, None),
    ("aqring", "AqElem", "__mul__", "aqring.mul_calls", None),
    ("aqring", "AqElem", "__pow__", None, None),
    ("aqring", "AqElem", "__eq__", "aqring.eq_calls", None),
    ("aqring", "AqElem", "eval_at", "aqring.eval_calls", None),
    ("aqring", "AqElem", "render", None, None),
    ("aqring", "AqElem", "as_rational", None, None),
    ("aqring", "AqElem", "zero", None, None),
    ("aqring", "AqElem", "one", None, None),
    ("aqring", "AqElem", "from_rational", None, None),
    ("aqring", "AqElem", "q_power", None, None),
    ("aqring", "AqElem", "geom", None, None),
    ("aqring", "LaurentPoly", "divexact", "aqring.divexact_calls", None),
    ("aqring", None, "aq_add", "aqring.add_calls", None),
    ("aqring", None, "aq_mul", "aqring.mul_calls", None),
    ("aqring", None, "aq_eval", "aqring.eval_calls", None),
    ("aqring", None, "_polydiv", None, None),
    ("integrate", None, "integrate", None, "symbolic"),
    ("integrate", None, "brute_force_integrate", None, "oracle"),
    ("integrate", None, "eval_constructible", None, None),
    ("integrate", None, "identity_lin", None, None),
    ("integrate", "ConstructibleExpr", "eval", "integrate.expr_eval_calls", None),
    ("integrate", "ConstructibleExpr", "__add__", None, None),
    ("integrate", "ConstructibleExpr", "__sub__", None, None),
    ("integrate", "ConstructibleExpr", "__neg__", None, None),
    ("integrate", "ConstructibleExpr", "__mul__", None, None),
    ("integrate", "ConstructibleExpr", "scale", None, None),
    ("integrate", "ConstructibleExpr", "free_vars", None, None),
    ("integrate", "ConstructibleExpr", "constant", None, None),
    ("integrate", "ConstructibleExpr", "q_exponent", None, None),
    ("integrate", "ConstructibleExpr", "factor", None, None),
    ("integrate", "ConstructibleExpr", "ord_factor", None, None),
    ("integrate", "Term", "__init__", "integrate.terms_built", None),
    ("integrate", "Domain", "__init__", None, None),
    ("integrate", "Domain", "from_json", None, None),
    ("presburger", None, "weighted_tail", "presburger.weighted_tail_calls", None),
    ("presburger", None, "geom_sum", None, None),
    ("presburger", None, "weighted_sum", None, None),
    ("presburger", None, "gamma_weight_sum", None, None),
    ("presburger", None, "intersect_cells", None, None),
    ("presburger", None, "cells_disjoint", None, None),
    ("presburger", None, "cell_cardinality", None, None),
    ("presburger", None, "poly_eval", None, None),
    ("presburger", None, "poly_shift", None, None),
    ("presburger", None, "finite_differences", None, None),
    ("presburger", None, "binom_int", None, None),
    ("presburger", None, "prepared_eval", None, None),
    ("presburger", None, "wellorder_min", None, None),
    ("presburger", None, "wellorder_min_product", None, None),
    ("presburger", None, "wellorder_less", None, None),
    ("presburger", "GammaCell", "contains", None, None),
    ("presburger", "GammaCell", "tau_bounds", None, None),
    ("presburger", "GammaCell", "is_empty", None, None),
    ("presburger", "GammaCell", "members", None, None),
    ("presburger", "PreparedLinear", "eval", None, None),
    ("kcells", None, "partition_unit_ball", "kcells.partition_calls", None),
    ("kcells", None, "kcells_disjoint", "kcells.disjoint_calls", None),
    ("kcells", None, "kcell_contains", None, None),
    ("kcells", None, "kcell_measure", None, None),
    ("kcells", "KCell", "contains_value", "kcells.contains_calls", None),
    ("kcells", "KCell", "gamma_cell", None, None),
    ("kcells", "KCell", "from_json", None, None),
    ("padic", None, "rational_ord", "padic.ord_calls", None),
    ("padic", None, "rational_ac", None, None),
    ("padic", None, "enumerate_residues", None, None),
    ("padic", None, "is_prime", None, None),
    ("padic", None, "ord_of", None, None),
    ("padic", None, "ac_of", None, None),
    ("padic", "AngularResidue", "validate", None, None),
    ("polys", "Polynomial", "eval", "polys.eval_calls", None),
    ("polys", "Polynomial", "eval_mod", "polys.eval_mod_calls", None),
    ("polys", "Polynomial", "shift_var", "polys.shift_calls", None),
    ("polys", "Polynomial", "eval_int", None, None),
    ("polys", "Polynomial", "single_monomial", None, None),
    ("polys", "Polynomial", "__add__", None, None),
    ("polys", "Polynomial", "__sub__", None, None),
    ("polys", "Polynomial", "__neg__", None, None),
    ("polys", "Polynomial", "__mul__", None, None),
    ("polys", "Polynomial", "__pow__", None, None),
    ("polys", "Polynomial", "constant", None, None),
    ("polys", "Polynomial", "variable", None, None),
    ("polys", "Polynomial", "render", None, None),
    ("poincare", None, "series_table", None, "lift"),
    ("poincare", None, "fit_rational", None, "fit"),
    ("poincare", None, "measure_identity_check", None, "identity"),
    ("poincare", None, "count_Nm", None, None),
    ("poincare", None, "poincare_report", None, None),
    ("poincare", "PoincareReport", "to_json", None, None),
    ("poincare", "PoincareReport", "render", None, None),
    ("parsing", None, "parse_integrand", None, None),
    ("parsing", None, "parse_polynomial", None, None),
    ("parsing", None, "render_constructible", None, None),
    ("cli", None, "main", None, None),
    ("cli", None, "build_parser", None, None),
)

# exact work counters reported on every traced run, besides calls and errors
COUNTERS = (
    "aqring.add_calls",
    "aqring.mul_calls",
    "aqring.eq_calls",
    "aqring.divexact_calls",
    "aqring.eval_calls",
    "integrate.terms_built",
    "integrate.expr_eval_calls",
    "integrate.oracle_classes",
    "integrate.oracle_boundary",
    "presburger.weighted_tail_calls",
    "kcells.partition_calls",
    "kcells.disjoint_calls",
    "kcells.contains_calls",
    "padic.residues_yielded",
    "padic.ord_calls",
    "polys.eval_calls",
    "polys.eval_mod_calls",
    "polys.shift_calls",
    "poincare.lift_candidates",
    "poincare.lift_solutions",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.phase_self_s = defaultdict(float)  # (layer, phase) -> seconds
        self.counts = Counter()
        self.phase = None
        self.op = None
        self.names: dict = {}
        # spans: [name id, first start, last end, parent span, op id, calls, busy seconds]
        self.spans: list = []
        self._span_index: dict = {}  # (parent span, name id) -> span
        # frames [layer, start, child seconds, span]; the root frame is never popped
        self.stack: list = [["root", 0.0, 0.0, -1]]
        self._undo: list = []

    # -- spans per op ------------------------------------------------------------

    def begin_op(self, op_id: str):
        self.op = op_id
        start = time.perf_counter()
        self.spans.append([self._name_id("op"), start, None, -1, op_id, 1, 0.0])
        self.stack.append(["op", start, 0.0, len(self.spans) - 1])

    def end_op(self):
        frame = self.stack.pop()
        span = self.spans[frame[3]]
        span[2] = time.perf_counter()
        span[6] = span[2] - span[1]
        self.op = None

    def _name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def _span(self, parent: int, name_id: int, start: float) -> int:
        key = (parent, name_id)
        span = self._span_index.get(key)
        if span is None:
            span = len(self.spans)
            self._span_index[key] = span
            self.spans.append([name_id, start, start, parent, self.op, 0, 0.0])
        return span

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, counter, phase, after):
        tracer = self
        perf = time.perf_counter
        name_id = self._name_id(name)
        calls, counts, self_s, phase_self_s, errors = (
            self.calls,
            self.counts,
            self.self_s,
            self.phase_self_s,
            self.errors,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            crossing = parent[0] != layer
            start = perf()
            frame = [layer, start, 0.0, tracer._span(parent[3], name_id, start) if crossing else parent[3]]
            stack.append(frame)
            outer_phase = tracer.phase
            if phase is not None:
                tracer.phase = phase
            calls[layer] += 1
            if counter is not None:
                counts[counter] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                self_s[layer] += own
                phase_self_s[(layer, tracer.phase)] += own
                tracer.phase = outer_phase
                parent[2] += duration
                if crossing:
                    span = tracer.spans[frame[3]]
                    span[2] = end
                    span[5] += 1
                    span[6] += duration
            if after is not None:
                result = after(result)
            return result

        return wrapper

    def _timed_iter(self, layer: str, counter: str, iterator):
        """Attribute the work of each next() to the layer, and count items."""
        perf = time.perf_counter
        while True:
            parent = self.stack[-1]
            start = perf()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                duration = perf() - start
                self.self_s[layer] += duration
                self.phase_self_s[(layer, self.phase)] += duration
                parent[2] += duration
            self.counts[counter] += 1
            yield item

    def _after(self, layer: str, attr: str):
        if attr == "enumerate_residues":
            return lambda it: self._timed_iter(layer, "padic.residues_yielded", it)
        if attr == "brute_force_integrate":

            def oracle(result):
                self.counts["integrate.oracle_classes"] += result.classes
                self.counts["integrate.oracle_boundary"] += result.boundary
                return result

            return oracle
        if attr == "series_table":

            def lifting(table):
                width = table.prime.p**table.f.nvars
                counts = table.counts
                self.counts["poincare.lift_candidates"] += sum(width * c for c in counts[:-1])
                self.counts["poincare.lift_solutions"] += sum(counts[1:])
                return table

            return lifting
        return None

    def install(self, pkg):
        """Wrap every target; pkg has one attribute per padicint module."""
        package_modules = [m for n, m in sorted(sys.modules.items()) if n == "padicint" or n.startswith("padicint.")]
        for layer, owner, attr, counter, phase in TARGETS:
            module = getattr(pkg, layer)
            after = self._after(layer, attr)
            if owner is None:
                original = getattr(module, attr)
                wrapper = self._wrap(layer, f"{layer}.{attr}", original, counter, phase, after)
                for m in package_modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapper)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(layer, f"{layer}.{owner}.{attr}", raw.__func__, counter, phase, after))
            else:
                wrapper = self._wrap(layer, f"{layer}.{owner}.{attr}", raw, counter, phase, after)
            for name, value in list(cls.__dict__.items()):
                if value is raw:
                    self._set(cls, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count the traced run reports; identical across runs of one
        seed unless the amount of work changed."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS})
        out.update({name: self.counts[name] for name in COUNTERS})
        return out

    def write_spans(self, path: str):
        """Gzipped JSON; times in microseconds from the first span."""
        names = sorted(self.names, key=self.names.get)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((a - t0) * 1e6), round((b - t0) * 1e6), parent, op, count, round(busy * 1e6)]
            for name, a, b, parent, op, count, busy in self.spans
        ]
        fields = ["name", "start_us", "end_us", "parent", "op", "calls", "busy_us"]
        with gzip.open(path, "wt") as handle:
            json.dump({"names": names, "fields": fields, "spans": rows}, handle)
