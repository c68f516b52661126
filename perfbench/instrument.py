"""Span tracing and call counting around jetgauge's module boundaries.

Both are installed from outside the program by replacing a function object
in every jetgauge namespace that holds it, so a caller that imported the name
(`proca` does `from .exactnum import trace_metric`) and a caller that looks it
up through module globals (`dynamics.field_strength_em`) both reach the
wrapper. Methods are replaced on their class.

The tracer keeps spans in memory as (name, start, end, parent) and writes
them when the request ends. The counter is separate because QuadScalar
methods run about two million times per `verify-all`: wrapping them with
spans would distort every span around them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# (span name, module, attribute) for every traced boundary. Several
# attributes may share one span name; their times then merge.
SPAN_TARGETS = [
    ("exactnum.matmul", "jetgauge.exactnum", "ExactMatrix.__matmul__"),
    ("exactnum.trace_metric", "jetgauge.exactnum", "trace_metric"),
    ("exactnum.elim", "jetgauge.exactnum", "ExactMatrix.det"),
    ("exactnum.elim", "jetgauge.exactnum", "solve_exact"),
    ("exactnum.elim", "jetgauge.exactnum", "nullspace_exact"),
    ("exactnum.elim", "jetgauge.exactnum", "rank_exact"),
    ("liealg.dense_realization", "jetgauge.liealg", "so_generator"),
    ("liealg.bracket", "jetgauge.liealg", "LieElement.bracket"),
    ("liealg.killing", "jetgauge.liealg", "killing_adjoint"),
    ("liealg.killing", "jetgauge.liealg", "killing_adjoint_in_basis"),
    ("liealg.killing", "jetgauge.liealg", "killing_table_in_basis"),
    ("liealg.killing", "jetgauge.liealg", "killing_metric_twisted"),
    ("proca.table", "jetgauge.proca", "proca_table"),
    ("proca.gram", "jetgauge.proca", "gram_matrix"),
    ("proca.isotropic_basis", "jetgauge.proca", "isotropic_33_basis"),
    ("proca.isotropic_basis", "jetgauge.proca", "isotropic_23_basis"),
    ("proca.isotropic_basis", "jetgauge.proca", "isotropic_13_basis"),
    ("proca.u1y", "jetgauge.proca", "u1y_first_order_variation"),
    ("proca.u1y", "jetgauge.proca", "u1y_finite_rotation_residual"),
    ("octonion.cross", "jetgauge.octonion", "cross"),
    ("octonion.ad_matrix", "jetgauge.octonion", "ad_matrix"),
    ("octonion.is_derivation", "jetgauge.octonion", "is_derivation"),
    ("octonion.so7_decompose", "jetgauge.octonion", "so7_decompose"),
    ("octonion.stabilizer", "jetgauge.octonion", "stabilizer_su3"),
    ("report.serialize", "jetgauge.report", "VerificationReport.to_dict"),
    ("report.serialize", "jetgauge.report", "dump_json"),
    ("dynamics.integrate", "jetgauge.dynamics", "integrate_lorentz"),
    ("dynamics.integrate", "jetgauge.dynamics", "integrate_wong"),
    ("dynamics.grid_node", "jetgauge.dynamics", "field_strength_em"),
]
# Modules under 1% of verify-all: one span name covers all their functions.
WHOLE_MODULES = ["jetgauge.jetspace", "jetgauge.electroweak", "jetgauge.pheno"]
# verify-all suites, by the suffix of their verify.suite_<name> function.
SUITES = [
    "signatures", "so4", "killing", "proca_table", "censuses",
    "isotropy", "electroweak", "octonions", "pheno",
]


def _jetgauge_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("jetgauge") and m]


def replace_everywhere(module: str, attr: str, make_wrapper) -> None:
    """Swap module.attr (or module.Class.method) for make_wrapper(original)."""
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name] if path else getattr(owner, name)
    wrapper = make_wrapper(original)
    if path:  # a method: callers reach it through the class
        setattr(owner, name, wrapper)
        return
    for mod in _jetgauge_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Records one span per call at each traced boundary of one request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        import jetgauge.cli as cli
        import jetgauge.liealg as liealg

        for name, module, attr in SPAN_TARGETS:
            replace_everywhere(module, attr, lambda fn, n=name: self.wrap(n, fn))
        for module in WHOLE_MODULES:
            mod = sys.modules[module]
            label = module.split(".")[1]
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == module and attr[0] != "_":
                    replace_everywhere(module, attr, lambda f, n=label: self.wrap(n, f))
        for suite in SUITES:
            replace_everywhere(
                "jetgauge.verify", f"suite_{suite}",
                lambda fn, n=f"verify.{suite}": self.wrap(n, fn),
            )

        # LieElement.matrix builds its dense matrix once, on first access.
        build = self.wrap("liealg.dense_realization", liealg.LieElement.matrix.fget)
        cached = liealg.LieElement.matrix.fget

        def matrix(el):
            return cached(el) if el._matrix is not None else build(el)

        liealg.LieElement.matrix = property(matrix)

        # The field evaluator is a closure that cli builds per request.
        setup = self.wrap("cli.field_setup", cli._field_from_config)
        cli._field_from_config = lambda cfg: self.wrap("dynamics.field_eval", setup(cfg))

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rid = self.request_id
        rows = [[rid, index[n], a, b, p] for n, a, b, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh)


class Counter:
    """Counts QuadScalar operations and dynamics work; records no time."""

    def __init__(self):
        self.counts = {
            "exactnum.qs_mul.calls": 0,
            "exactnum.qs_mul.irrational": 0,
            "exactnum.qs_bool.calls": 0,
            "exactnum.qs_new.calls": 0,
            "exactnum.qs_inverse.calls": 0,
            "dynamics.rk4_steps": 0,
            "dynamics.grid_nodes.computed": 0,
        }

    def install(self) -> None:
        from jetgauge.exactnum import QuadScalar

        c = self.counts
        mul, boolean = QuadScalar.__mul__, QuadScalar.__bool__
        init, inverse = QuadScalar.__init__, QuadScalar.inverse

        def counted_mul(self, other):
            c["exactnum.qs_mul.calls"] += 1
            # The general product runs only when both factors are irrational;
            # Fraction truth tests here keep __bool__ counts unchanged.
            if (self.b or self.c or self.d) and type(other) is QuadScalar and (
                other.b or other.c or other.d
            ):
                c["exactnum.qs_mul.irrational"] += 1
            return mul(self, other)

        def counted_bool(self):
            c["exactnum.qs_bool.calls"] += 1
            return boolean(self)

        def counted_init(self, *args, **kwargs):
            c["exactnum.qs_new.calls"] += 1
            init(self, *args, **kwargs)

        def counted_inverse(self):
            c["exactnum.qs_inverse.calls"] += 1
            return inverse(self)

        QuadScalar.__mul__ = QuadScalar.__rmul__ = counted_mul
        QuadScalar.__bool__ = counted_bool
        QuadScalar.__init__ = counted_init
        QuadScalar.inverse = counted_inverse

        def count_steps(fn):
            def counted(*args, **kwargs):
                traj = fn(*args, **kwargs)
                c["dynamics.rk4_steps"] += len(traj) - 1
                return traj

            return counted

        def count_nodes(fn):
            def counted(*args, **kwargs):
                c["dynamics.grid_nodes.computed"] += 1
                return fn(*args, **kwargs)

            return counted

        replace_everywhere("jetgauge.dynamics", "integrate_lorentz", count_steps)
        replace_everywhere("jetgauge.dynamics", "integrate_wong", count_steps)
        replace_everywhere("jetgauge.dynamics", "field_strength_em", count_nodes)
