"""The benchmark's span tracer against the library as it stands.

`benchmarks/spans.py` wraps module attributes by name and `benchmarks/run.py`
drives the passes; a rename in diagfree breaks `run.py --trace 1` without
failing any library test.  These tests import both unchanged, check every
wrapped attribute, and run traced passes in process against their pins,
writing no files: one of the P_3 smoke workload, and one of each benchmark
workload to count its products.
"""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_patched_attribute_resolves():
    for mod, attr, layer in spans.PATCHES:
        m = importlib.import_module(f"diagfree.{mod}")
        assert callable(getattr(m, attr, None)), f"diagfree.{mod}.{attr}"
        assert layer in spans.LAYERS


def test_traced_smoke_pass_meets_pins():
    wl = workloads.WORKLOADS["smoke_p3"]
    originals = [
        getattr(importlib.import_module(f"diagfree.{mod}"), attr)
        for mod, attr, _ in spans.PATCHES
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        p = run.run_pass(wl, range(len(wl.requests)), tracer)
    assert p.check(workloads.PINS["smoke_p3"]) == 0
    assert tracer.counts["biorder.squares_found"] == 240
    assert tracer.counts["biorder.triangles_found"] == 63
    assert tracer.products
    traced = {name for name, *_ in tracer.spans}
    assert {"green.dclass_data", "biorder.enumerate_singular_squares",
            "biorder.linked_triangles", "groupid.identify",
            "ghgraph.build_gh_graph", "ghgraph.verify_spanning_tree"} <= traced
    restored = [
        getattr(importlib.import_module(f"diagfree.{mod}"), attr)
        for mod, attr, _ in spans.PATCHES
    ]
    assert restored == originals


def test_traced_pass_product_counts():
    """Handle products per traced pass, as `run.py --trace 1` counts them:
    366 on `squares_p4r2` (331 friendly-pair products for E_D and 35 for
    the witness pool; friendliness and the square search's tables are read
    off θ on class keys), and 225 on `triangles_p4r0`, one per friendly
    pair of its D-class.  Coset enumeration per pass, read off the
    same spans and counter: two `groupid.todd_coxeter` calls defining 4
    cosets in all on `squares_p4r2`, none on `triangles_p4r0`."""
    counts, enumerations = {}, {}
    for name in ("squares_p4r2", "triangles_p4r0"):
        wl = workloads.WORKLOADS[name]
        tracer = spans.Tracer()
        with tracer.installed():
            p = run.run_pass(wl, range(len(wl.requests)), tracer)
        assert p.check(workloads.PINS[name]) == 0
        counts[name] = len(tracer.products)
        enumerations[name] = (
            sum(s[0] == "groupid.todd_coxeter" for s in tracer.spans),
            tracer.counts["groupid.cosets_defined"],
        )
    assert counts["squares_p4r2"] == 366
    assert counts["triangles_p4r0"] == 225
    assert enumerations == {"squares_p4r2": (2, 4), "triangles_p4r0": (0, 0)}
