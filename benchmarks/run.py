"""diagfree benchmark: time to verdict on fixed `identify` workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload squares_p4r2 --seed 1 --seconds 55 --trace 0

One client in a closed loop, no threads: a pass sends the workload's
requests back to back on a fresh handle, and the run repeats passes until
--seconds have elapsed: at least two passes (one untraced and one traced
with --trace 1), and no further pass starts that is expected to end after
that. Successive passes (rounds, with --trace 1) run pinned to successive
allowed CPUs, and garbage is collected before each. Every pass goes
through the correctness gate in workloads.py. The seed orders the
requests of each pass and draws the pairs of the multiply micro-benchmark.

--trace 0 reports the end-to-end metrics: the mean time to verdict of a
pass, the median set-up time of fresh interpreters, and peak RSS. The mean,
not the median, because contention on a shared host comes in bursts: pass
times mix a fast and a slowed group, and the median jumps between the two
as the share of slowed passes crosses one half, while the mean moves in
proportion to that share. The median and the 90th percentile go to
standard error beside it.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the traced ones, with the tracing overhead; it writes the
spans to benchmarks/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 15
MULTIPLY_PAIRS = 20_000
MULTIPLY_REPEATS = 3

# A fresh interpreter that imports diagfree and constructs the handle.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import diagfree; "
    "diagfree.PartitionMonoid(int(sys.argv[2]))"
)


def _load_diagfree() -> None:
    """Put the checkout's own sources first on sys.path; never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "diagfree", "__init__.py")):
        sys.exit(f"benchmark: diagfree sources not found under {SRC}")
    sys.path.insert(0, SRC)


@contextmanager
def _rotating_cpus():
    """Yield pin(i), which moves this process (and the children it starts
    next) to the i-th of its allowed CPUs in turn; the mask is restored on
    exit. Virtual CPUs of a shared host can differ in speed for minutes,
    and a process mostly stays on one, so rotating samples over all of
    them keeps that placement out of the run-to-run spread."""
    if not hasattr(os, "sched_getaffinity"):
        yield lambda i: None
        return
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, allowed)


def setup_seconds(n: int) -> float:
    """Median wall time of fresh interpreters doing the set-up."""
    samples = []
    with _rotating_cpus() as pin:
        for i in range(SETUP_SAMPLES):
            pin(i)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, str(n)], check=True)
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class Pass:
    """One pass of a workload: its requests back to back on a fresh handle."""

    seconds: float  # from the first request to the last verdict
    handle: object
    stages: dict
    outcomes: list

    def check(self, pins) -> int:
        """Gate the pass; returns the number of failed requests."""
        import workloads

        report = workloads.gate(self.handle, self.stages, self.outcomes, pins)
        for key, problems in report.items():
            for msg in problems:
                print(f"FAIL {key}: {msg}", file=sys.stderr)
        return sum(1 for problems in report.values() if problems)


def run_pass(wl, order, tracer=None) -> Pass:
    import workloads

    h = workloads.new_handle(wl)
    if tracer is not None:
        tracer.instrument_handle(h)
    stages: dict = {}
    outcomes = []
    t0 = time.perf_counter()
    for i in order:
        family, rank = wl.requests[i]
        if tracer is not None:
            tracer.request = f"{family}@{rank}"
        outcomes.append(workloads.run_request(h, stages, family, rank))
    return Pass(time.perf_counter() - t0, h, stages, outcomes)


def multiply_us(h, rng: random.Random) -> float:
    """Median microseconds per `multiply` over random pairs of elements."""
    from diagfree import multiply

    elems = h.elements()
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(MULTIPLY_PAIRS)]
    times = []
    for _ in range(MULTIPLY_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            multiply(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / MULTIPLY_PAIRS * 1e6


def _rounds(wl, rng: random.Random, seconds: float, minimum: int):
    """Request orders, one per round: at least `minimum` rounds, then more
    while another is expected to end within `seconds` by the mean duration
    of the rounds so far. Successive rounds run on successive CPUs."""
    start = time.perf_counter()
    rounds = 0
    with _rotating_cpus() as pin:
        while True:
            elapsed = time.perf_counter() - start
            if rounds >= minimum and elapsed + elapsed / rounds > seconds:
                return
            order = list(range(len(wl.requests)))
            rng.shuffle(order)
            pin(rounds)
            gc.collect()
            yield order
            rounds += 1


def end_to_end(wl, args, rng, pins):
    setup = setup_seconds(wl.n)
    passes, failed, attempted = [], 0, 0
    for order in _rounds(wl, rng, args.seconds, 2):
        p = run_pass(wl, order)
        failed += p.check(pins)
        attempted += len(p.outcomes)
        passes.append(p.seconds)
        print(f"pass {len(passes)}: {p.seconds:.3f} s", file=sys.stderr)
        del p
    deciles = statistics.quantiles(passes, n=10)
    print(
        f"{len(passes)} passes: median {statistics.median(passes):.4f} s, "
        f"p90 {deciles[-1]:.4f} s",
        file=sys.stderr,
    )
    metrics = {
        "time_to_verdict_s": (statistics.mean(passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, metrics


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def per_layer(wl, args, rng, pins):
    import spans
    import workloads

    untraced, traced, records = [], [], []
    failed = attempted = 0
    for order in _rounds(wl, rng, args.seconds, 1):
        plain = run_pass(wl, order)
        gc.collect()
        tracer = spans.Tracer()
        with tracer.installed():
            p = run_pass(wl, order, tracer)
        for q in (plain, p):
            failed += q.check(pins)
            attempted += len(q.outcomes)
        untraced.append(plain.seconds)
        del plain
        records.extend(tracer.records(len(traced)))
        row = tracer.layer_times(p.seconds)
        row.update(tracer.counts)
        candidates = sum(
            workloads.square_candidates(st.d)
            for st in p.stages.values()
            if st.built("squares")
        )
        calls, distinct = len(tracer.products), len(set(tracer.products))
        tracer.products.clear()
        row.update(
            {
                "biorder.square_candidates": candidates,
                "diagram.product_calls": calls,
                "diagram.product_distinct": distinct,
                "present.generators": sum(
                    len(o.presentation.generators) for o in p.outcomes if o.error is None
                ),
                "present.relators": sum(
                    len(o.presentation.relators) for o in p.outcomes if o.error is None
                ),
                "trace.total_s": p.seconds,
            }
        )
        traced.append(row)
        print(
            f"pass {len(traced)}: untraced {untraced[-1]:.3f} s, traced {p.seconds:.3f} s",
            file=sys.stderr,
        )
        del p, tracer

    values = {k: _mean([row.get(k, 0) for row in traced]) for k in PER_LAYER_UNITS}
    calls, distinct = values["diagram.product_calls"], values["diagram.product_distinct"]
    values["diagram.product_reuse"] = 1 - distinct / calls if calls else 0.0
    found, cands = values["biorder.squares_found"], values["biorder.square_candidates"]
    values["biorder.square_yield"] = found / cands if cands else 0.0
    values["diagram.multiply_us"] = multiply_us(
        workloads.new_handle(wl), random.Random(f"{args.seed}:multiply")
    )
    values["trace.untraced_s"] = _mean(untraced)
    values["trace.overhead_s"] = values["trace.total_s"] - values["trace.untraced_s"]

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": records}, f)
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    return attempted, failed, metrics


# Every per-layer metric with its unit, in the order they are reported.
PER_LAYER_UNITS = {
    "diagram.enumerate_s": "s",
    "diagram.elements": "count",
    "diagram.product_calls": "count",
    "diagram.product_distinct": "count",
    "diagram.product_reuse": "ratio",
    "diagram.multiply_us": "us",
    "green.dclass_s": "s",
    "green.dclass_size": "count",
    "green.projections": "count",
    "green.idempotents": "count",
    "biorder.squares_s": "s",
    "biorder.square_candidates": "count",
    "biorder.squares_found": "count",
    "biorder.square_yield": "ratio",
    "biorder.triangles_s": "s",
    "biorder.triangles_found": "count",
    "biorder.labels_s": "s",
    "ghgraph.tree_s": "s",
    "present.build_s": "s",
    "present.generators": "count",
    "present.relators": "count",
    "present.tietze_s": "s",
    "present.tietze_calls": "count",
    "present.tietze_eliminations": "count",
    "present.tietze_relators_out": "count",
    "groupid.identify_self_s": "s",
    "groupid.todd_coxeter_s": "s",
    "groupid.cosets_defined": "count",
    "groupid.abelianization_s": "s",
    "groupid.label_check_s": "s",
    "trace.unattributed_s": "s",
    "trace.total_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    _load_diagfree()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    pins = workloads.PINS[args.workload]
    rng = random.Random(args.seed)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics = measure(wl, args, rng, pins)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
