"""Spans around the public functions of charcalc, installed from outside.

``Tracer.install()`` wraps every function a layer module lists in
``__all__``, plus the methods behind the per-layer metrics, and rebinds the
wrapper wherever charcalc holds a reference to the original: in the defining
module, in every module that imported the name, and in the package
namespace.  Calls from one layer into another are therefore recorded too.

A span records its name, its parent span, and its start and end in
nanoseconds.  Self time is a span's duration minus the time covered by the
spans nested directly inside it.  Counts are computed by the wrapper from the
arguments and results it sees.  Spans stay in memory until ``dump`` writes
them out; totals per span name are kept alongside for the metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

LAYERS = (
    "exactring",
    "symfun",
    "bundlecalc",
    "flagcoh",
    "coupling",
    "equivariant",
    "obstruction",
    "cli",
)


def _terms(poly) -> int:
    return len(getattr(poly, "terms", ()))


def _count_mul(args, result) -> dict:
    left, right = args[0], args[1]
    products = _terms(left) * (_terms(right) if hasattr(right, "terms") else 1)
    return {"term_products": products, "terms_out": _terms(result)}


def _count_normal_form(args, result) -> dict:
    return {"terms_in": _terms(args[1]), "terms_out": _terms(result)}


def _count_rules(args, result) -> dict:
    return {"rules": len(result.rules)}


# (module, class, method) -> counter; methods whose spans feed the metrics.
METHODS = {
    ("exactring", "GradedPoly", "__mul__"): _count_mul,
    ("exactring", "GradedPoly", "__pow__"): None,
    ("exactring", "RingPresentation", "normal_form"): _count_normal_form,
    ("exactring", "RingPresentation", "fiber_coefficient"): None,
}

FUNCTION_COUNTERS = {
    "flagcoh.grassmannian_presentation": _count_rules,
    "flagcoh.flag_presentation": _count_rules,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, max_spans: int = 300_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}  # "name:key" -> sum
        self._stack: list[list] = []  # [span_id, child_ns]
        self._next_id = 1
        self._installed: list[tuple] = []
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own input building and checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        tracer = self
        clock = time.perf_counter_ns
        totals = self.totals.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span_id, parent, name, start, end))
                else:
                    tracer.dropped += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    slot = f"{name}:{key}"
                    tracer.counts[slot] = tracer.counts.get(slot, 0) + value
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == package.__name__ or name.startswith(package.__name__ + "."))
            and m is not None
        ]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not _is_function(fn) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[id(fn)] = self.wrap(name, fn, FUNCTION_COUNTERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, value))
        for (layer, cls_name, method), counter in METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{layer}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", original, counter))
            self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "totals": {name: list(v) for name, v in self.totals.items() if v[0]},
            "counts": dict(self.counts),
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated id, parent, name, start_ns, end_ns."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(str(x) for x in span) + "\n")
            if self.dropped:
                handle.write(f"# {self.dropped} further spans counted but not kept\n")


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType) or isinstance(
        value, functools._lru_cache_wrapper
    )


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the totals and counts of several traced processes."""
    totals: dict[str, list] = {}
    counts: dict[str, int] = {}
    for summary in summaries:
        for name, (calls, total, own) in summary["totals"].items():
            slot = totals.setdefault(name, [0, 0, 0])
            slot[0] += calls
            slot[1] += total
            slot[2] += own
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"totals": totals, "counts": counts}


def _self_s(totals: dict, *names: str) -> float:
    return sum(totals.get(n, [0, 0, 0])[2] for n in names) / 1e9


def _calls(totals: dict, *names: str) -> int:
    return sum(totals.get(n, [0, 0, 0])[0] for n in names)


def _prefixed(totals: dict, prefix: str) -> list[str]:
    return [name for name in totals if name.startswith(prefix)]


def layer_metrics(merged: dict, cli_import_s: float) -> dict[str, float]:
    """The per-layer metrics of one round, from merged span totals and counts."""
    t = merged["totals"]
    c = merged["counts"]
    pres = ("flagcoh.grassmannian_presentation", "flagcoh.flag_presentation")
    nf = "exactring.RingPresentation.normal_form"
    mul = "exactring.GradedPoly.__mul__"
    chern = ("bundlecalc.chern_class", "bundlecalc.total_chern_class", "bundlecalc.chern_roots")
    coupling = _prefixed(t, "coupling.")
    products = c.get(f"{mul}:term_products", 0)
    return {
        "flagcoh.presentation.calls": _calls(t, *pres),
        "flagcoh.presentation.self_s": _self_s(t, *pres),
        "flagcoh.presentation.rules": sum(c.get(f"{n}:rules", 0) for n in pres),
        "flagcoh.basis_monomials.self_s": _self_s(t, "flagcoh.basis_monomials"),
        "exactring.monomials_of_degree.self_s": _self_s(t, "exactring.monomials_of_degree"),
        "exactring.normal_form.calls": _calls(t, nf),
        "exactring.normal_form.self_s": _self_s(t, nf),
        "exactring.normal_form.terms_in": c.get(f"{nf}:terms_in", 0),
        "exactring.normal_form.terms_out": c.get(f"{nf}:terms_out", 0),
        "exactring.fiber_coefficient.self_s": _self_s(
            t, "exactring.RingPresentation.fiber_coefficient", "exactring.fiber_coefficient"
        ),
        "coupling.calls": _calls(t, *coupling),
        "coupling.self_s": _self_s(t, *coupling),
        "exactring.mul.calls": _calls(t, mul),
        "exactring.mul.self_s": _self_s(t, mul),
        "exactring.mul.term_products": products,
        "exactring.mul.terms_out": c.get(f"{mul}:terms_out", 0),
        "exactring.mul.merge_ratio": c.get(f"{mul}:terms_out", 0) / products if products else 0.0,
        "exactring.pow.calls": _calls(t, "exactring.GradedPoly.__pow__"),
        "symfun.to_elementary.calls": _calls(t, "symfun.to_elementary"),
        "symfun.to_elementary.self_s": _self_s(t, "symfun.to_elementary"),
        "symfun.monomial_symmetric.self_s": _self_s(t, "symfun.monomial_symmetric"),
        "bundlecalc.chern_class.self_s": _self_s(t, *chern),
        "bundlecalc.sphere_eval.calls": _calls(t, "bundlecalc.sphere_eval"),
        "bundlecalc.sphere_eval.self_s": _self_s(t, "bundlecalc.sphere_eval"),
        "equivariant.mu_of_circle.self_s": _self_s(t, "equivariant.mu_of_circle"),
        "equivariant.simplex_integral.calls": _calls(t, "equivariant.simplex_integral"),
        "equivariant.simplex_integral.self_s": _self_s(t, "equivariant.simplex_integral"),
        "equivariant.su_product_integral.self_s": _self_s(t, "equivariant.su_product_integral"),
        "flagcoh.phi_pullback.self_s": _self_s(t, "flagcoh.phi_pullback"),
        "obstruction.ideal_membership.self_s": _self_s(t, "obstruction.ideal_membership"),
        "obstruction.hard_lefschetz_check.self_s": _self_s(t, "obstruction.hard_lefschetz_check"),
        "obstruction.criteria.self_s": _self_s(
            t, "obstruction.whitehead_square_criterion", "obstruction.whitehead_cube_criterion"
        ),
        "cli.import_s": cli_import_s,
        "cli.run.calls": _calls(t, "cli.run"),
        "cli.run.self_s": _self_s(t, "cli.run"),
    }
