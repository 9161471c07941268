"""Per-layer tracing from outside the program.

Spans are recorded by wrappers that the benchmark binds over the public
functions of each ``reembed`` module, at every name through which a caller
looks the function up: ``from .x import y`` copies the binding into the
importing module, so ``reembed.jobs.buchberger`` and
``reembed.groebner.buchberger`` are separate bindings and both get a
wrapper.  Nothing inside the program changes.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-layer totals as they close (a stack holds the
child time of every open span), so memory stays flat however many
determinant calls a run makes.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Open-span stack plus per-layer call counts, self time and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = []       # child time of each open span
        self._undo = []

    def reset_stack(self):
        """Forget open spans, after a job was interrupted inside one."""
        self._child.clear()

    def span(self, layer, fn, count=None):
        """fn wrapped so each call records a span of the given layer."""
        clock = time.perf_counter
        child = self._child
        calls, self_s = self.calls, self.self_s
        counts = self.counts

        def wrapper(*args, **kwargs):
            start = clock()
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop() if child else 0.0
                if child:
                    child[-1] += duration
                calls[layer] += 1
                self_s[layer] += duration - inner
            if count is not None:
                count(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def bind(self, owner, name, layer, count=None):
        original = getattr(owner, name)
        setattr(owner, name, self.span(layer, original, count))
        self._undo.append((owner, name, original))

    def unbind_all(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ---------- counters ----------

def _count_gb(counts, gb):
    counts["groebner.calls"] += 1
    counts["groebner.steps"] += gb.steps
    counts["groebner.aborts"] += gb.status == "aborted"


def _count_search(counts, report):
    counts["search.candidates"] += len(report.tried)
    counts["search.verified"] += len(report.results)


def _count_cells(counts, bases):
    counts["linear_gfan.cells"] += len(bases)


def _count_dets(counts, _):
    counts["linalg.det_calls"] += 1


def _count_generators(counts, gens):
    counts["border_basis.generators"] += len(gens)


def bind_layers(tracer, modules):
    """Wrap every binding the job path looks up, by layer.

    ``modules`` maps short module names to the imported ``reembed``
    submodules.  Functions a module only calls through its own globals are
    wrapped in that module; functions copied by ``from .x import y`` are
    wrapped at every copy the job path uses.
    """
    m = modules
    poly_cls = m["poly"].Poly
    scheme_cls = m["border_basis"].BorderBasisScheme
    plan = [
        # search: candidate sweeps and certificates, bound in jobs
        (m["jobs"], "find_reembedding_via_gfan", "search", _count_search),
        (m["jobs"], "find_reembedding_via_cotangent", "search",
         _count_search),
        (m["jobs"], "certify_optimal", "search", None),
        (m["jobs"], "certify_affine_cell", "search", None),
        # groebner: the engine and the separating-tuple machinery
        (m["jobs"], "buchberger", "groebner", _count_gb),
        (m["groebner"], "buchberger", "groebner", _count_gb),
        (m["search"], "check_Z_separating", "groebner", None),
        (m["search"], "coherent_interreduce", "groebner", None),
        (m["search"], "eliminate_by_substitution", "groebner", None),
        # poly: substitution of images into polynomials
        (poly_cls, "substitute", "poly.substitute", None),
        # border_basis: construction and structural verification
        (m["jobs"], "order_ideal", "border_basis.construct", None),
        (scheme_cls, "__init__", "border_basis.construct", None),
        (scheme_cls, "neighbour_generators", "border_basis.construct",
         _count_generators),
        (scheme_cls, "verify_structure", "border_basis.verify", None),
        # linear_gfan: fan enumeration and per-cell bases
        (m["jobs"], "gfan_linear", "linear_gfan", None),
        (m["linear_gfan"], "ltgfan_linear", "linear_gfan", None),
        (m["linear_gfan"], "matroid_bases", "linear_gfan", _count_cells),
        (m["linear_gfan"], "reduced_gb_for_basis", "linear_gfan", None),
        # cotangent: classes and the closed-form fan
        (m["jobs"], "cotangent_classes", "cotangent", None),
        (m["search"], "cotangent_classes", "cotangent", None),
        (m["border_basis"], "cotangent_classes", "cotangent", None),
        (m["jobs"], "enumerate_ltgfan_binomial", "cotangent", None),
        # linalg: every entry point, looked up through the module
        (m["linalg"], "rref", "linalg", None),
        (m["linalg"], "rank", "linalg", None),
        (m["linalg"], "det", "linalg", None),
        (m["linalg"], "bareiss_det_int", "linalg", _count_dets),
        (m["linalg"], "bareiss_rank_int", "linalg", None),
        (m["linalg"], "solve_left_inverse_times", "linalg", None),
        (m["linalg"], "int_scaled_rows", "linalg", None),
        (m["ordering"], "int_matrix_rank", "linalg", None),
    ]
    for owner, name, layer, count in plan:
        tracer.bind(owner, name, layer, count)


# layer -> (workloads that must record spans of it, workloads that must
# record none); a workload in neither may go either way
PREDICTIONS = {
    "groebner": (("reembed-dense", "bbs-scheme"), ("linear-fan",)),
    "search": (("reembed-dense", "bbs-scheme"), ("linear-fan",)),
    "poly.substitute": (("reembed-dense", "bbs-scheme"), ("linear-fan",)),
    "border_basis.construct": (("bbs-scheme",),
                               ("linear-fan", "reembed-dense")),
    "border_basis.verify": (("bbs-scheme",), ("linear-fan", "reembed-dense")),
    "linalg": (("linear-fan",), ()),
    "linear_gfan": (("linear-fan", "reembed-dense"), ()),
    "cotangent": (("linear-fan", "reembed-dense", "bbs-scheme"), ()),
}


def prediction_errors(workload, calls):
    """Layers whose span count contradicts PREDICTIONS."""
    errors = []
    for layer, (loaded, idle) in PREDICTIONS.items():
        n = calls.get(layer, 0)
        if workload in loaded and n == 0:
            errors.append(f"{layer}: no spans, work expected")
        if workload in idle and n:
            errors.append(f"{layer}: {n} spans, none expected")
    return errors
