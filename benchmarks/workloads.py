"""The benchmark's workloads: fixed `identify` requests through diagfree's
public library API, and the pinned outputs that gate every pass.

A workload is a degree n and a list of requests, each a presentation
family at a rank. The requests of one pass share one handle, and one
D-class, square list, triangle list and label map per rank, built on first
use, as `diagfree.verify` shares them. Importing this module needs
diagfree on `sys.path`.
"""

from __future__ import annotations

import hashlib
import itertools
import traceback
from dataclasses import dataclass
from functools import cached_property

import diagfree
from diagfree import biorder, ghgraph, green, groupid, present


@dataclass(frozen=True)
class Workload:
    n: int
    requests: tuple[tuple[str, int], ...]  # (family, rank)


WORKLOADS = {
    # PG and IG share one D-class and square list: the singular-square
    # search is about half of a pass, and the IG request is the one that
    # reaches Todd-Coxeter and the Z x S_r route.
    "squares_p4r2": Workload(4, (("pg_squares", 2), ("ig_squares", 2))),
    # No square search at all: linked triangles, then Tietze collapses
    # 225 generators and 1,126 relators.
    "triangles_p4r0": Workload(4, (("pg_triangles", 0),)),
    # The same pipeline on P_3, for the benchmark's own smoke test.
    "smoke_p3": Workload(
        3, (("pg_squares", 1), ("ig_squares", 1), ("pg_triangles", 0))
    ),
}


class Stages:
    """The D-class of one rank and the data derived from it."""

    def __init__(self, h, rank: int):
        self.h = h
        self.rank = rank

    def built(self, name: str) -> bool:
        """Whether the cached stage `name` has been computed."""
        return name in self.__dict__

    @cached_property
    def d(self):
        return green.dclass_data(self.h, self.rank)

    @cached_property
    def squares(self):
        return biorder.enumerate_singular_squares(self.d)

    @cached_property
    def triangles(self):
        return biorder.linked_triangles(self.d)

    @cached_property
    def labels(self):
        return {
            present.gen_name_for_idempotent(self.h, e): biorder.label(e)
            for e in self.d.idempotents
        }


def _pg_squares(st: Stages):
    n, r = st.h.n, st.rank
    pres = present.presn_pg_squares(st.d, ghgraph.t_pg(n, r), st.squares)
    hints = groupid.IdentifyHints(rank=r, labels=st.labels)
    return pres, groupid.identify(pres, hints)


def _ig_squares(st: Stages):
    n, r = st.h.n, st.rank
    tree = ghgraph.t_s(n, r, ghgraph.p0_projections(n, r)[0])
    pres = present.presn_ig(st.d, tree, st.squares)
    quotient = present.gen_name_for_idempotent(st.h, ghgraph.p1_projections(n, r)[0])
    hints = groupid.IdentifyHints(
        rank=r, labels=st.labels, quotient_generators=(quotient,)
    )
    return pres, groupid.identify(pres, hints)


def _pg_triangles(st: Stages):
    f_tree = ghgraph.friendliness_tree(st.d, 0)
    pres = present.presn_pg_triangles(st.d, st.triangles, f_tree)
    return pres, groupid.identify(pres)


FAMILIES = {
    "pg_squares": _pg_squares,
    "ig_squares": _ig_squares,
    "pg_triangles": _pg_triangles,
}


@dataclass
class Outcome:
    key: str  # "family@rank"
    rank: int
    presentation: object = None
    verdict: object = None
    error: str | None = None


def new_handle(w: Workload):
    return diagfree.PartitionMonoid(w.n)


def run_request(h, stages: dict[int, Stages], family: str, rank: int) -> Outcome:
    out = Outcome(f"{family}@{rank}", rank)
    st = stages.setdefault(rank, Stages(h, rank))
    try:
        out.presentation, out.verdict = FAMILIES[family](st)
    except Exception:
        out.error = traceback.format_exc()
    return out


# -- the correctness gate ----------------------------------------------------


def square_candidates(d) -> int:
    """Non-degenerate 2x2 grids of group H-classes, counted from d.friendly:
    C(c, 2) for each pair of rows sharing c columns."""
    cols: dict[int, set[int]] = {}
    for i, j in d.friendly:
        cols.setdefault(i, set()).add(j)
    total = 0
    for a, b in itertools.combinations(sorted(cols), 2):
        c = len(cols[a] & cols[b])
        total += c * (c - 1) // 2
    return total


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def squares_digest(h, squares) -> str:
    return _digest(
        f"{s.rows[0]} {s.rows[1]} {s.cols[0]} {s.cols[1]} {s.oclass} "
        f"{s.orientation} {h.text(s.u)}"
        for s in squares
    )


def triangles_digest(h, triangles) -> str:
    return _digest(" | ".join(h.text(x) for x in t) for t in triangles)


def observe(h, stages: dict[int, Stages], outcomes: list[Outcome]) -> dict:
    """The pinned quantities of one pass, for whatever stages it built."""
    classes = {}
    for rank, st in stages.items():
        if not st.built("d"):
            continue
        d = st.d
        c = {
            "size": d.size,
            "projections": len(d.projections),
            "idempotents": len(d.idempotents),
        }
        if st.built("squares"):
            c["square_candidates"] = square_candidates(d)
            c["squares"] = len(st.squares)
            c["squares_sha256"] = squares_digest(h, st.squares)
        if st.built("triangles"):
            c["triangles"] = len(st.triangles)
            c["triangles_sha256"] = triangles_digest(h, st.triangles)
        classes[rank] = c
    requests = {}
    for o in outcomes:
        if o.error is not None:
            continue
        v = o.verdict
        requests[o.key] = {
            "verdict": (v.kind, v.rank, v.order, v.tag, v.certification),
            "generators": len(o.presentation.generators),
            "relators": len(o.presentation.relators),
        }
    return {"classes": classes, "requests": requests}


def _diff(where: str, seen: dict | None, pinned: dict) -> list[str]:
    seen = seen or {}
    return [
        f"{where} {k}: got {seen.get(k)!r}, pinned {v!r}"
        for k, v in pinned.items()
        if seen.get(k) != v
    ]


def gate(h, stages, outcomes, pins: dict) -> dict[str, list[str]]:
    """Mismatches per request: an error, its own pins, or the pins of the
    class its rank uses."""
    seen = observe(h, stages, outcomes)
    class_bad = {
        rank: _diff(f"rank {rank}", seen["classes"].get(rank), c)
        for rank, c in pins["classes"].items()
    }
    report = {}
    for o in outcomes:
        if o.error is not None:
            report[o.key] = [o.error.strip().splitlines()[-1]]
            continue
        report[o.key] = (
            _diff(o.key, seen["requests"].get(o.key), pins["requests"][o.key])
            + class_bad.get(o.rank, [f"rank {o.rank}: no pinned class"])
        )
    return report


# Seed values of the gate: class sizes |D|, |P_D|, |E_D|, the square
# candidate and square counts, the triangle count, presentation sizes,
# verdicts as (kind, rank, order, tag, certification), and sha256 digests
# of the square list (rows, cols, orientation class, orientation, witness
# text) and of the triangle list, which must stay byte-identical.
PINS = {
    "squares_p4r2": {
        "classes": {
            2: {
                "size": 1922,
                "projections": 31,
                "idempotents": 331,
                "square_candidates": 3240,
                "squares": 1656,
                "squares_sha256": "9f3db39e53c89ae264447f11ab9583a5cdf29cecd41587f3d8b27f65a7d93147",
            },
        },
        "requests": {
            "pg_squares@2": {
                "verdict": ("finite", None, 2, "S_2", "certified"),
                "generators": 331,
                "relators": 1304,
            },
            "ig_squares@2": {
                "verdict": ("z_cross_finite", None, 2, "S_2", "partial"),
                "generators": 331,
                "relators": 1123,
            },
        },
    },
    "triangles_p4r0": {
        "classes": {
            0: {
                "size": 225,
                "projections": 15,
                "idempotents": 225,
                "triangles": 992,
                "triangles_sha256": "57bb1b2c626feaf4ce5881ec5321b0a9a482b8f41213e8740184b4d153105459",
            },
        },
        "requests": {
            "pg_triangles@0": {
                "verdict": ("finite", 0, 1, None, None),
                "generators": 225,
                "relators": 1126,
            },
        },
    },
    "smoke_p3": {
        "classes": {
            0: {
                "size": 25,
                "projections": 5,
                "idempotents": 25,
                "triangles": 63,
                "triangles_sha256": "da87092ec9b089283ae073b8ebd26d48ecf3bd9f3725c1e1226f618b39d4cf48",
            },
            1: {
                "size": 100,
                "projections": 10,
                "idempotents": 70,
                "square_candidates": 492,
                "squares": 240,
                "squares_sha256": "00d9284522b3c354521ab791d1ad21dcc3588999d9c8ebb653b13ee970e847b9",
            },
        },
        "requests": {
            "pg_squares@1": {
                "verdict": ("finite", None, 1, "S_1", "certified"),
                "generators": 70,
                "relators": 221,
            },
            "ig_squares@1": {
                "verdict": ("free", 1, None, None, None),
                "generators": 70,
                "relators": 181,
            },
            "pg_triangles@0": {
                "verdict": ("finite", 0, 1, None, None),
                "generators": 25,
                "relators": 82,
            },
        },
    },
}
