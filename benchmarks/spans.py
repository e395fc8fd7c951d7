"""Span tracing for the benchmark's traced passes.

A traced pass replaces public functions of diagfree's modules with
wrappers that record one span per call: name, start, end, parent span and
request id. Spans stay in memory; the benchmark writes them out once at
exit. Untraced passes run the unmodified modules: `Tracer.installed`
restores every attribute it replaced.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans, so the layer self times plus the time outside
every span add up to the pass's total.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, layer): the module attributes a traced pass wraps.
# `identify` reaches Tietze through groupid's own import of it.
PATCHES = (
    ("green", "dclass_data", "green.dclass_s"),
    ("biorder", "enumerate_singular_squares", "biorder.squares_s"),
    ("biorder", "linked_triangles", "biorder.triangles_s"),
    ("biorder", "label", "biorder.labels_s"),
    ("ghgraph", "t_pg", "ghgraph.tree_s"),
    ("ghgraph", "t_s", "ghgraph.tree_s"),
    ("ghgraph", "p0_projections", "ghgraph.tree_s"),
    ("ghgraph", "p1_projections", "ghgraph.tree_s"),
    ("ghgraph", "friendliness_tree", "ghgraph.tree_s"),
    ("ghgraph", "build_gh_graph", "ghgraph.tree_s"),
    ("ghgraph", "verify_spanning_tree", "ghgraph.tree_s"),
    ("present", "presn_ig", "present.build_s"),
    ("present", "presn_pg_squares", "present.build_s"),
    ("present", "presn_pg_triangles", "present.build_s"),
    ("present", "tietze_simplify", "present.tietze_s"),
    ("groupid", "tietze_simplify", "present.tietze_s"),
    ("groupid", "identify", "groupid.identify_self_s"),
    ("groupid", "todd_coxeter", "groupid.todd_coxeter_s"),
    ("groupid", "abelianization", "groupid.abelianization_s"),
    ("groupid", "check_label_homomorphism", "groupid.label_check_s"),
)

# Handle methods whose explicit calls make up the enumeration layer.
HANDLE_METHODS = ("elements", "idempotents", "projections")
ENUMERATE = "diagram.enumerate_s"

LAYERS = tuple(sorted({layer for _, _, layer in PATCHES} | {ENUMERATE}))


def _adder(key: str, measure):
    def hook(counts, result) -> None:
        counts[key] += measure(result)

    return hook


def _count_tietze(counts, res) -> None:
    counts["present.tietze_calls"] += 1
    counts["present.tietze_eliminations"] += res.eliminations
    counts["present.tietze_relators_out"] += len(res.presentation.relators)


def _count_dclass(counts, d) -> None:
    counts["green.dclass_size"] += d.size
    counts["green.projections"] += len(d.projections)
    counts["green.idempotents"] += len(d.idempotents)


def _count_elements(counts, elems) -> None:
    counts["diagram.elements"] = len(elems)


# Counters read from a wrapped function's result, keyed by attribute name.
HOOKS = {
    "tietze_simplify": _count_tietze,
    "dclass_data": _count_dclass,
    "todd_coxeter": _adder("groupid.cosets_defined", lambda t: t.cosets_defined),
    "enumerate_singular_squares": _adder("biorder.squares_found", len),
    "linked_triangles": _adder("biorder.triangles_found", len),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # Each span is [name, layer, start, end, parent index, request id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: str | None = None
        self.counts: defaultdict[str, int] = defaultdict(int)
        # Argument pairs of every handle product, in call order; distinct
        # pairs are counted after the pass, so no hashing runs inside it.
        self.products: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the PATCHES attributes of diagfree's modules."""
        saved = []
        try:
            for mod, attr, layer in PATCHES:
                m = importlib.import_module(f"diagfree.{mod}")
                original = getattr(m, attr)
                saved.append((m, attr, original))
                setattr(m, attr, self._wrap(original, f"{mod}.{attr}", layer, HOOKS.get(attr)))
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    def instrument_handle(self, h) -> None:
        """Span the handle's enumeration methods and log its products, by
        instance attributes on a handle the pass owns."""
        for attr in HANDLE_METHODS:
            hook = _count_elements if attr == "elements" else None
            setattr(h, attr, self._wrap(getattr(h, attr), f"diagram.{attr}", ENUMERATE, hook))
        product = h.product
        log = self.products.append

        def logged(x, y):
            log((x, y))
            return product(x, y)

        h.product = logged

    def layer_times(self, total: float) -> dict[str, float]:
        """Self time per layer, plus `trace.unattributed_s`: the part of
        `total` outside every span."""
        own = [s[3] - s[2] for s in self.spans]
        top = 0.0
        for s in self.spans:
            if s[4] is None:
                top += s[3] - s[2]
            else:
                own[s[4]] -= s[3] - s[2]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            out[s[1]] += t
        out["trace.unattributed_s"] = total - top
        return out

    def records(self, pass_index: int) -> list[dict]:
        return [
            {
                "pass": pass_index,
                "name": s[0],
                "start": s[2],
                "end": s[3],
                "parent": s[4],
                "request": s[5],
            }
            for s in self.spans
        ]
