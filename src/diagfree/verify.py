"""The acceptance suite: one callable per criterion, shared by the test
module and the `verify` CLI command.  Every check is exact."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .biorder import (
    Square,
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    f_set,
    find_singularizers,
    is_lr_singular,
    is_nt_reducing,
    is_ud_singular,
    label,
    nt_reducing_square_for,
    square_at,
    witness_orientations,
)
from .diagram import (
    AdjacencySemigroup,
    BrauerMonoid,
    PartitionMonoid,
    floating_components,
    idempotent_components,
    involution,
    is_projection,
    multiply,
    multiply_with_floats,
    partition_from_blocks,
)
from .green import (
    d_related,
    dclass_data,
    gen_name_for_idempotent,
    l_related,
    left_ideal,
    r_related,
    right_ideal,
)
from .ghgraph import build_gh_graph, is_connected, p1_projections
from .groupid import (
    abelianization,
    check_label_homomorphism,
    identify,
    perm_inv,
    smith_normal_form,
    subgroup_hints,
    todd_coxeter,
)
from .present import GroupPresentation, subgroup_presentation, tietze_simplify


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str = ""


@lru_cache(maxsize=None)
def monoid(kind: str, n: int):
    if kind == "pn":
        return PartitionMonoid(n)
    if kind == "brauer":
        return BrauerMonoid(n)
    raise ValueError(kind)


@lru_cache(maxsize=None)
def dclass(kind: str, n: int, r: int):
    return dclass_data(monoid(kind, n), r)


@lru_cache(maxsize=None)
def squares(kind: str, n: int, r: int):
    return enumerate_singular_squares(dclass(kind, n, r))


def _presentation(family: str, n: int, r: int) -> GroupPresentation:
    """The default-tree presentation of P_n's rank-r class, over the cached
    square list."""
    return subgroup_presentation(dclass("pn", n, r), family, squares=squares("pn", n, r))


# -- criteria ------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    a = partition_from_blocks(6, [{1, 4}, {2, 3, -4, -5}, {5, 6}, {-1, -2, -6}, {-3}])
    b = partition_from_blocks(6, [{1, 2}, {3, 4, -1}, {5, -5, -6}, {6}, {-2, -3}, {-4}])
    expected = partition_from_blocks(6, [{1, 4}, {2, 3, -1, -5, -6}, {5, 6}, {-2, -3}, {-4}])
    prod, phi = multiply_with_floats(a, b)
    ok = (
        multiply(a, b) == expected
        and prod == expected
        and phi == 1
        and floating_components(a, b) == [frozenset({1, 2, 6})]
    )
    return CriterionResult(
        1, "worked product and floating component", ok,
        f"phi={phi}, floating={floating_components(a, b)}",
    )


def criterion_2() -> CriterionResult:
    bad = 0
    total = 0
    for n in (2, 3, 4):
        h = monoid("pn", n)
        for a in h.elements():
            total += 1
            if (idempotent_components(a) is not None) != (multiply(a, a) == a):
                bad += 1
    return CriterionResult(
        2, "idempotent decomposition characterization", bad == 0,
        f"{total} elements checked, {bad} mismatches",
    )


def criterion_3() -> CriterionResult:
    h = monoid("pn", 3)
    elems = h.elements()
    rid = {a: right_ideal(h, a) for a in elems}
    lid = {a: left_ideal(h, a) for a in elems}
    # D oracle: D = R o L, so a D b iff some c has c R a and c L b
    rl = {(rid[c], lid[c]) for c in elems}
    bad = 0
    for a in elems:
        for b in elems:
            if r_related(h, a, b) != (rid[a] == rid[b]):
                bad += 1
            if l_related(h, a, b) != (lid[a] == lid[b]):
                bad += 1
            if d_related(h, a, b) != ((rid[a], lid[b]) in rl):
                bad += 1
    return CriterionResult(
        3, "Green's relations fast path vs ideal oracle on P_3", bad == 0,
        f"{len(elems)}^2 pairs, {bad} mismatches",
    )


def criterion_4() -> CriterionResult:
    got = []
    wanted = []
    for n in (3, 4, 5):
        d = dclass("pn", n, n - 1)
        got.append((len(d.projections), len(d.idempotents)))
        c2 = n * (n - 1) // 2
        wanted.append((n + c2, n + 5 * c2))
    ok = got == wanted == [(6, 18), (10, 34), (15, 55)]
    return CriterionResult(
        4,
        "|P(n,n-1)| = n + C(n,2) and |E(n,n-1)| = n + 5C(n,2) for n=3,4,5",
        ok,
        f"counted {got}, formula {wanted}",
    )


def criterion_5() -> CriterionResult:
    bad = []
    for n in (2, 3, 4):
        for r in range(n):
            if not is_connected(build_gh_graph(dclass("pn", n, r))):
                bad.append((n, r))
    return CriterionResult(
        5, "Graham-Houghton connectivity, n <= 4", not bad, f"failures: {bad}"
    )


def criterion_6() -> CriterionResult:
    details = []
    ok = True
    for n in (3, 4):
        sq = squares("pn", n, n - 1)
        v = identify(_presentation("ig", n, n - 1))
        want = (n - 1) * (3 * n - 2) // 2
        good = not sq and v.kind == "free" and v.rank == want
        ok = ok and good
        details.append(f"n={n}: squares={len(sq)}, verdict={v.describe()} (want free {want})")
    return CriterionResult(6, "IG at rank n-1 is free", ok, "; ".join(details))


def criterion_7() -> CriterionResult:
    details = []
    ok = True
    for n in (3, 4):
        v = identify(_presentation("pg", n, n - 1))
        want = (n - 1) * (n - 2) // 2
        good = v.kind == "free" and v.rank == want
        ok = ok and good
        details.append(f"n={n}: {v.describe()} (want free {want})")
    return CriterionResult(7, "PG at rank n-1 is free", ok, "; ".join(details))


def criterion_8(include_slow: bool = False) -> CriterionResult:
    cases = [(3, 1), (4, 1), (4, 2)]
    if include_slow:
        cases.append((5, 3))
    details = []
    ok = True
    for n, r in cases:
        pres = _presentation("pg", n, r)
        hints = subgroup_hints(dclass("pn", n, r), "pg")
        lc = check_label_homomorphism(pres, hints.labels)
        v = identify(pres, hints)
        good = (
            lc.valid and lc.image_order == math.factorial(r)
            and v.kind == "finite"
            and v.order == math.factorial(r)
            and v.certification == "certified"
            and v.tag == f"S_{r}"
        )
        ok = ok and good
        details.append(f"({n},{r}): {v.describe()}")
    return CriterionResult(
        8, "PG verdict S_r via coset enumeration + label homomorphism", ok,
        "; ".join(details),
    )


def criterion_9() -> CriterionResult:
    details = []
    ok = True
    for n in (1, 2, 3, 4):
        v = identify(subgroup_presentation(dclass("pn", n, 0), "pg-linked"))
        good = v.is_trivial
        ok = ok and good
        details.append(f"n={n}: {v.describe()}")
    return CriterionResult(
        9, "PG at rank 0 is trivial (linked-diamond presentation)", ok,
        "; ".join(details),
    )


def criterion_10() -> CriterionResult:
    details = []
    ok = True
    for n in (2, 3, 4):
        pres = _presentation("ig", n, 0)
        res = tietze_simplify(pres)
        simp = res.presentation
        v = identify(pres, simplified=res)
        good = (
            len(simp.generators) == 1
            and not simp.relators
            and v.kind == "free"
            and v.rank == 1
        )
        ok = ok and good
        details.append(
            f"n={n}: {len(simp.generators)} gens / {len(simp.relators)} rels -> {v.describe()}"
        )
    return CriterionResult(10, "IG at rank 0 is Z", ok, "; ".join(details))


def criterion_11() -> CriterionResult:
    h3, h4 = monoid("pn", 3), monoid("pn", 4)
    cases = [(h3, 3, 1), (h4, 4, 1), (h4, 4, 2)]
    details = []
    ok = True
    for h, n, r in cases:
        pres = _presentation("ig", n, r)
        hints = subgroup_hints(dclass("pn", n, r), "ig")
        simp = tietze_simplify(pres)
        ab = abelianization(simp.presentation)
        expected_torsion = () if r <= 1 else (2,)
        lc = check_label_homomorphism(pres, hints.labels)
        t_choices = p1_projections(n, r)[:2]
        orders = []
        for t in t_choices:
            name = gen_name_for_idempotent(h, t)
            ct = todd_coxeter(simp.quotient([(pres.gen_index(name) + 1,)]))
            orders.append(ct.order)
        v = identify(pres, hints, simplified=simp)
        partial_ok = (v.kind == "z_cross_finite" and v.certification == "partial") or (
            r == 1 and v.kind == "free" and v.rank == 1
        )
        good = (
            ab.free_rank == 1
            and ab.torsion == expected_torsion
            and lc.valid
            and lc.image_order == math.factorial(r)
            and all(o == math.factorial(r) for o in orders)
            and partial_ok
        )
        ok = ok and good
        details.append(
            f"({n},{r}): ab={ab.describe()}, quotient orders {orders}, "
            f"labels valid={lc.valid}, verdict={v.describe()}"
        )
    return CriterionResult(
        11, "IG consistent with Z x S_r (partial certification)", ok,
        "; ".join(details),
    )


def criterion_12() -> CriterionResult:
    d = dclass("brauer", 4, 0)
    v = identify(subgroup_presentation(d, "pg-linked"))
    formula = (len(d.idempotents) - 3 * len(d.projections)) // 2 + 1
    ok = (
        v.kind == "free"
        and v.rank == 1
        and formula == 1
        and len(d.projections) == 3
        and len(d.idempotents) == 9
    )
    return CriterionResult(
        12, "Brauer B_4 bottom class: free cyclic", ok,
        f"|P_D|={len(d.projections)}, |E_D|={len(d.idempotents)}, "
        f"formula={formula}, verdict={v.describe()}",
    )


def criterion_13() -> CriterionResult:
    graphs = {
        "K3 with loops": ("abc", [("a", "b"), ("b", "c"), ("a", "c")]),
        "4-cycle with loops": ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        "path on 3 with loops": ("abc", [("a", "b"), ("b", "c")]),
    }
    expected = [1, 1, 0]
    details = []
    ok = True
    for (name, (vs, es)), want in zip(graphs.items(), expected):
        g = AdjacencySemigroup(vs, es)
        v = identify(subgroup_presentation(dclass_data(g, 1), "pg"))
        want_rank = g.simple_edge_count() - len(g.vertices) + 1
        good = (
            want == want_rank
            and (
                (v.kind == "free" and v.rank == want)
                or (want == 0 and v.is_trivial)
            )
        )
        ok = ok and good
        details.append(f"{name}: {v.describe()} (want free {want})")
    return CriterionResult(
        13, "adjacency semigroups: free of rank k-n+1", ok, "; ".join(details)
    )


def criterion_14() -> CriterionResult:
    h = monoid("pn", 3)
    checked_a = checked_b = checked_c = 0
    bad = []
    for r in (0, 1, 2):
        d = dclass("pn", 3, r)
        fr = d.friendly
        # (a) linked square -> two UD-singular squares
        for dia in enumerate_linked_diamonds(d):
            s, u, v, w, p = dia.s, dia.u, dia.v, dia.w, dia.p
            e, f = multiply(s, v), multiply(s, w)
            g, hh = multiply(u, v), multiply(u, w)
            vw, wv = multiply(v, w), multiply(w, v)
            if not is_ud_singular(h, Square(e, f, v, vw), p):
                bad.append(("a1", r))
            if not is_ud_singular(h, Square(g, hh, wv, w), p):
                bad.append(("a2", r))
            checked_a += 1
        # (b) pq-singularised -> two p-singularised squares
        for entry in squares("pn", 3, r):
            if entry.orientation not in ("LR", "RL"):
                continue
            sq = square_at(d, entry.rows, entry.cols)
            if entry.orientation == "LR":
                e, f, g, hh = sq.e, sq.f, sq.g, sq.h
            else:
                e, f, g, hh = sq.f, sq.e, sq.h, sq.g
            uu = entry.u
            p = multiply(uu, involution(uu))
            ep, gp = multiply(e, p), multiply(g, p)
            if not is_lr_singular(h, Square(e, ep, g, gp), p):
                bad.append(("b1", r))
            if not is_lr_singular(h, Square(f, ep, hh, gp), p):
                bad.append(("b2", r))
            checked_b += 1
            # (c) projection-singularised with friendliness hypotheses
            if involution(uu) != uu:
                continue
            pr = uu
            s, uq = multiply(e, involution(e)), multiply(g, involution(g))
            v, w = multiply(involution(e), e), multiply(involution(f), f)
            hyp = all(
                (d.pindex[x], d.pindex[y]) in fr
                for x, y in ((s, v), (s, w), (uq, v), (uq, w))
            )
            if not hyp:
                continue
            def prp(x):
                return multiply(multiply(pr, x), pr)

            if not (prp(s) == s and prp(v) == w and prp(uq) == uq):
                bad.append(("c1", r))
            if multiply(s, w) != f or multiply(v, s) != involution(e):
                bad.append(("c2", r))
            if multiply(uq, w) != hh or multiply(v, uq) != involution(g):
                bad.append(("c3", r))
            checked_c += 1
    ok = not bad
    return CriterionResult(
        14, "derived-square relationships, exhaustive at n=3", ok,
        f"linked->UD: {checked_a}, pq->p: {checked_b}, proj->diamonds: {checked_c}, "
        f"failures: {sorted(set(bad))}",
    )


def criterion_15() -> CriterionResult:
    bad = []
    checked = 0
    for n, r in ((3, 1), (4, 1), (4, 2)):
        h = monoid("pn", n)
        d = dclass("pn", n, r)
        fs = set(f_set(d))
        for e in d.idempotents:
            if e in fs:
                continue
            sq, u = nt_reducing_square_for(e)
            orients = witness_orientations(h, sq, u)
            if sq.h != e or not is_nt_reducing(sq) or not orients:
                bad.append((n, r, h.text(e)))
            checked += 1
    # labels
    label_bad = 0
    for n in (2, 3, 4):
        h = monoid("pn", n)
        for e in h.idempotents():
            if e.rank() == 0:
                continue
            if is_projection(e) and any(label(e)[i] != i for i in range(e.rank())):
                label_bad += 1
            if label(involution(e)) != perm_inv(label(e)):
                label_bad += 1
    ok = not bad and label_bad == 0
    return CriterionResult(
        15, "NT-reducing squares outside F(n,r); label identities", ok,
        f"{checked} bases checked, failures {bad[:3]}, label failures {label_bad}",
    )


def criterion_16() -> CriterionResult:
    h2, h3 = monoid("pn", 2), monoid("pn", 3)
    e1 = partition_from_blocks(2, [{1, 2, -1, -2}])
    f1 = partition_from_blocks(2, [{1, 2, -1}, {-2}])
    g1 = partition_from_blocks(2, [{1, -1, -2}, {2}])
    hh1 = partition_from_blocks(2, [{1, -1}, {2}, {-2}])
    w1 = find_singularizers(h2, Square(e1, f1, g1, hh1))
    e2 = partition_from_blocks(3, [{1, 2, 3, -1, -2}, {-3}])
    f2 = partition_from_blocks(3, [{1, 2, 3, -2, -3}, {-1}])
    g2 = partition_from_blocks(3, [{2, -1, -2}, {1}, {3}, {-3}])
    hh2 = partition_from_blocks(3, [{2, -2, -3}, {1}, {3}, {-1}])
    w2 = find_singularizers(h3, Square(e2, f2, g2, hh2))
    e3 = partition_from_blocks(3, [{1, -1}, {2}, {3}, {-2, -3}])
    f3 = partition_from_blocks(3, [{1, -1, -2, -3}, {2}, {3}])
    g3 = partition_from_blocks(3, [{1, -1}, {2, 3}, {-2, -3}])
    hh3 = partition_from_blocks(3, [{1, -1, -2, -3}, {2, 3}])
    u = partition_from_blocks(3, [{1, -1}, {2, 3, -2, -3}])
    w3 = find_singularizers(h3, Square(e3, f3, g3, hh3))
    ud_found = ("UD", u) in w3
    ok = not w1 and not w2 and ud_found
    return CriterionResult(
        16, "printed non-singular squares and the printed UD witness", ok,
        f"band witnesses: {len(w1)}, {len(w2)}; UD witness found: {ud_found}",
    )


def criterion_17() -> CriterionResult:
    t1 = todd_coxeter(GroupPresentation(("a",), ((1, 1, 1),)))
    t2 = todd_coxeter(
        GroupPresentation(("s1", "s2"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))
    )
    snf = smith_normal_form([[2, 0], [0, 3]])
    ok = t1.order == 3 and t2.order == 6 and snf == [1, 6]
    return CriterionResult(
        17, "tooling sanity: coset enumeration and Smith form", ok,
        f"orders {t1.order}, {t2.order}; snf {snf}",
    )


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14, criterion_15,
    criterion_16, criterion_17,
]


def run_all(include_slow: bool = False) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if fn is criterion_8:
            results.append(fn(include_slow))
        else:
            results.append(fn())
    return results
