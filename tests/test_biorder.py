"""Singular squares, linked diamonds and triangles, NT-reduction, labels."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diagfree import diagram
from diagfree.biorder import (
    HORIZONTAL,
    LinkedDiamond,
    Square,
    SquareEntry,
    _shared_columns,
    _WitnessIndex,
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    f_set,
    find_singularizers,
    is_linked_diamond,
    is_linked_pair,
    is_lr_singular,
    is_nt_reducing,
    is_rl_singular,
    is_ud_singular,
    is_coxeter_idempotent,
    label,
    linked_triangles,
    nt_reducing_square_for,
    projection_nt_square,
    square_at,
    witness_orientations,
)
from diagfree.diagram import (
    AdjacencySemigroup,
    BrauerMonoid,
    PartitionMonoid,
    full_domain_projection,
    identity,
    involution,
    multiply,
    partition_from_blocks,
    transformation_partition,
)
from diagfree.ghgraph import friendliness_tree
from diagfree.green import dclass_data, l_related, r_related
from diagfree.groupid import perm_inv
from diagfree.present import _square_relators, presn_pg_linked, presn_pg_triangles, to_cas_text

P2 = PartitionMonoid(2)
P3 = PartitionMonoid(3)
P4 = PartitionMonoid(4)


def test_totally_degenerate_square_lr_singular():
    p = full_domain_projection(2, [{1, 2}])
    sq = Square(p, p, p, p)
    assert is_lr_singular(P2, sq, p)
    assert is_ud_singular(P2, sq, p)


def test_identity_singularises_nothing_nondegenerate():
    e1 = partition_from_blocks(2, [{1, 2, -1, -2}])
    f1 = partition_from_blocks(2, [{1, 2, -1}, {-2}])
    g1 = partition_from_blocks(2, [{1, -1, -2}, {2}])
    h1 = partition_from_blocks(2, [{1, -1}, {2}, {-2}])
    sq = Square(e1, f1, g1, h1)
    assert not is_lr_singular(P2, sq, identity(2))
    assert not is_ud_singular(P2, sq, identity(2))
    assert find_singularizers(P2, sq) == []


def test_derived_ud_square_from_linked_diamond():
    d = dclass_data(P3, 1)
    dias = [x for x in enumerate_linked_diamonds(d) if not x.degenerate]
    assert dias
    for dia in dias[:20]:
        e = multiply(dia.s, dia.v)
        f = multiply(dia.s, dia.w)
        vw = multiply(dia.v, dia.w)
        assert is_ud_singular(P3, Square(e, f, dia.v, vw), dia.p)


def brute_force_singular_squares(d):
    """Independent oracle: try every 4-tuple grid and every idempotent u
    against the raw orientation equations.  Returns dedup keys."""
    h = d.handle
    keys = set()
    for i, k, common in _shared_columns(d):
        for j, l in itertools.combinations(common, 2):
            sq = Square(
                d.e_of_pair[(i, j)],
                d.e_of_pair[(i, l)],
                d.e_of_pair[(k, j)],
                d.e_of_pair[(k, l)],
            )
            for u in h.idempotents():
                for orient in witness_orientations(h, sq, u):
                    oclass = "horizontal" if orient in HORIZONTAL else "vertical"
                    keys.add(((i, k), (j, l), oclass))
    return keys


def test_enumerate_matches_brute_force_d31():
    d = dclass_data(P3, 1)
    fast = {(s.rows, s.cols, s.oclass) for s in enumerate_singular_squares(d)}
    assert fast == brute_force_singular_squares(d)


C4 = AdjacencySemigroup("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def pool_oracle_entries(d):
    """Independent oracle for the entries, orientation and witness
    included: every candidate square against every pool element, in pool
    order, through witness_orientations.  An orientation class is entered
    as LR (UD) when some element singularises the square that way, as RL
    (DU) otherwise, with the first such element as its witness."""
    h = d.handle
    pool = _WitnessIndex(d).pool
    entries = {}
    for i, k, common in _shared_columns(d):
        for cols in itertools.combinations(common, 2):
            sq = square_at(d, (i, k), cols)
            found = [witness_orientations(h, sq, u) for u in pool]
            for oclass, pair in (("horizontal", ("LR", "RL")), ("vertical", ("UD", "DU"))):
                for orient in pair:
                    first = next((u for u, os in zip(pool, found) if orient in os), None)
                    if first is not None:
                        entries[((i, k), cols, oclass)] = (orient, first)
                        break
    return entries


@pytest.mark.parametrize(
    "h, r, count",
    [
        (P3, 0, 48),
        (P3, 1, 240),
        *((BrauerMonoid(4), r, 0) for r in BrauerMonoid(4).ranks()),
        (C4, 1, 0),
    ],
    ids=["P3r0", "P3r1", "B4r0", "B4r2", "B4r4", "C4"],
)
def test_square_entries_match_pool_oracle(h, r, count):
    """The classes no digest pins: each entry's orientation and witness
    equal the pool oracle's, and no other candidate is singular."""
    d = dclass_data(h, r)
    entries = {
        (s.rows, s.cols, s.oclass): (s.orientation, s.u)
        for s in enumerate_singular_squares(d)
    }
    assert len(entries) == count
    assert entries == pool_oracle_entries(d)


@pytest.mark.parametrize(
    "h, r",
    [
        *((PartitionMonoid(n), r) for n in (2, 3, 4) for r in range(n + 1)),
        *((BrauerMonoid(n), r) for n in (4, 5) for r in BrauerMonoid(n).ranks()),
        (C4, 1),
    ],
    ids=lambda x: "C4" if x is C4 else getattr(x, "describe", x.__repr__)(),
)
def test_square_list_in_strictly_increasing_key_order(h, r):
    """The search emits its entries in strictly increasing (rows, cols,
    oclass) order, which the square relators keep without a sort."""
    keys = [(s.rows, s.cols, s.oclass) for s in enumerate_singular_squares(dclass_data(h, r))]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_empty_at_rank_n_minus_1():
    assert enumerate_singular_squares(dclass_data(P3, 2)) == []


def test_adjacency_no_nondegenerate_singular_squares():
    from diagfree.diagram import AdjacencySemigroup

    g = AdjacencySemigroup("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    d = dclass_data(g, 1)
    assert enumerate_singular_squares(d) == []
    dias = enumerate_linked_diamonds(d)
    assert all(x.degenerate for x in dias)


@pytest.mark.parametrize(
    "h, r",
    [
        (P3, 1),
        (P4, 2),
        (AdjacencySemigroup("abc", [("a", "b"), ("b", "c")]), 1),
        (P4, 1),
        (BrauerMonoid(5), 1),
    ],
    ids=["P3r1", "P4r2", "adjacency", "P4r1", "B5r1"],
)
def test_witness_index_bits(h, r):
    d = dclass_data(h, r)
    widx = _WitnessIndex(d)
    assert widx.pool
    for i, p in enumerate(d.projections):
        for b, u in enumerate(widx.pool):
            assert bool(widx.lid[i] >> b & 1) == (h.product(u, p) == p)
            assert bool(widx.rid[i] >> b & 1) == (h.product(p, u) == p)
        assert widx.lid[i] >> len(widx.pool) == 0
        assert widx.rid[i] >> len(widx.pool) == 0
        lowest_first = [b for b in range(len(widx.pool)) if widx.lid[i] >> b & 1]
        assert [widx.pool[b] for b in lowest_first] == [
            u for u in widx.pool if h.product(u, p) == p
        ]


@pytest.mark.parametrize(
    "h, r, shares",
    [
        (P4, 2, True),
        (BrauerMonoid(5), 1, True),
        (AdjacencySemigroup("abc", [("a", "b"), ("b", "c")]), 1, False),
    ],
    ids=["P4r2", "B5r1", "adjacency"],
)
def test_witness_tables_depend_on_column_only(h, r, shares):
    """L is a right congruence and R a left one, so for the corners x of
    one column that u fixes on the left, the products x u either all leave
    E_D or all land in one column; dually for rows and u x.  The square
    search's per-column tables rest on the first half, and read that
    column off the projection algebra: it is the column of the L-class
    projection u* q_j u = θ_{u*u}(θ_{uu*}(q_j)) of x u, which leaves P_D
    exactly when x u leaves E_D.  The search reads its row tables off the
    column tables through the involution: for x u = x, u x = y iff
    x* u* = y*, so the row of u x is the column of x* u*.

    In the adjacency semigroup u = (a, b) fixes only the corner in row a of
    each column, so no line there has two fixed corners (shares is False)."""
    d = dclass_data(h, r)
    row = {e: i for (i, j), e in d.e_of_pair.items()}
    col = {e: j for (i, j), e in d.e_of_pair.items()}
    rows: dict[int, list] = {}
    cols: dict[int, list] = {}
    for (i, j), x in sorted(d.e_of_pair.items()):
        rows.setdefault(i, []).append(x)
        cols.setdefault(j, []).append(x)
    widx = _WitnessIndex(d)
    key = h.projection_key
    P = h.projections()
    theta = dict(zip(P, h.theta_rows(map(key, P), [key(q) for q in d.projections])))
    shared = 0  # (line, u) with two or more fixed corners and images in E_D
    for u in widx.pool:
        ustar = h.star(u)
        uu, su = theta[h.product(u, ustar)], theta[h.product(ustar, u)]
        for j, xs in cols.items():
            fixed = [x for x in xs if h.product(u, x) == x]
            images = {col.get(h.product(x, u)) for x in fixed}
            assert len(images) <= 1
            shared += len(fixed) > 1 and images != {None}
            if fixed:
                t = uu[j]
                assert images == {None if t is None else su[t]}
        for xs in rows.values():
            fixed = [x for x in xs if h.product(x, u) == x]
            images = [row.get(h.product(u, x)) for x in fixed]
            assert len(set(images)) <= 1
            assert images == [col.get(h.product(h.star(x), ustar)) for x in fixed]
            shared += len(fixed) > 1 and set(images) != {None}
    assert bool(shared) == shares


# Count and sha256 of the square list with its witnesses.  The witness is
# the one with the lowest pool bit, so a change to the scan order or to a
# product shows here even when the set of squares stays the same.
SQUARE_DIGESTS = {
    (PartitionMonoid, 3, 1): (240, "00d9284522b3c354521ab791d1ad21dcc3588999d9c8ebb653b13ee970e847b9"),
    (PartitionMonoid, 4, 2): (1656, "9f3db39e53c89ae264447f11ab9583a5cdf29cecd41587f3d8b27f65a7d93147"),
    (PartitionMonoid, 4, 1): (35660, "911f723d9f66e03c588d59fbea8b2fce99e447f4758abf358c4d3988755d42e9"),
    (BrauerMonoid, 5, 1): (1800, "0d44e2fd5081a502a680b884f77fa6125712d2d16525d1f0d1e1e480106115a4"),
    (PartitionMonoid, 5, 3): (6840, "69fefdfdbd8f408ef883be732f105122216278e506b30e01c6397b092fa2cafe"),
}


@pytest.mark.parametrize(
    "monoid, n, r",
    [
        pytest.param(*case, marks=pytest.mark.slow) if case == (PartitionMonoid, 5, 3) else case
        for case in SQUARE_DIGESTS
    ],
    ids=["3-1", "4-2", "4-1", "B5-1", "5-3"],
)
def test_square_list_with_witnesses_pinned(monoid, n, r):
    h = monoid(n)
    d = dclass_data(h, r)
    squares = enumerate_singular_squares(d)
    text = "\n".join(
        f"{s.rows[0]} {s.rows[1]} {s.cols[0]} {s.cols[1]} {s.oclass} "
        f"{s.orientation} {h.text(s.u)}"
        for s in squares
    )
    assert (len(squares), hashlib.sha256(text.encode()).hexdigest()) == SQUARE_DIGESTS[(monoid, n, r)]


def test_square_search_product_count():
    """The search at (P_4, 2) makes 35 products, all for the witness pool
    (one per friendly pair of projections of ranks 3 and 4, 101 when one
    was made per ordered pair; q p = p is tested on class keys).  Its
    tables are read off θ on class keys, so no product has a factor of
    rank 2 (745 when each table entry was a product x u with x a corner
    of the class; 846 in all then, 28,986 without reuse, 5,220 with one
    memoised product per corner and scanned bit, 3,158 when the pool was
    grouped by u u* products, 2,994 with products for q p = p, 1,591 with
    a second product table per row, made of products u x)."""
    h = PartitionMonoid(4)
    d = dclass_data(h, 2)
    calls = []
    product = h.product

    def counted(x, y):
        calls.append((x, y))
        return product(x, y)

    h.product = counted
    assert len(enumerate_singular_squares(d)) == 1656
    assert len(calls) == 35
    assert all(x.rank() > 2 and y.rank() > 2 for x, y in calls)


def test_linked_triangles_make_no_products():
    """At (P_4, 0) every θ_p(s) = p s p is computed on class keys: the
    triangle scan makes no handle products (2,820 with two per pair)."""
    h = PartitionMonoid(4)
    d = dclass_data(h, 0)

    def refused(x, y):
        raise AssertionError("handle product in the triangle scan")

    h.product = refused
    assert len(linked_triangles(d)) == 992


def count_joins(monkeypatch) -> list:
    """Record each call of `diagram._join`, the costly part of θ on class
    keys, from now on."""
    calls = []
    join = diagram._join

    def counted(a, b):
        calls.append((a, b))
        return join(a, b)

    monkeypatch.setattr(diagram, "_join", counted)
    return calls


def test_linked_triangle_scan_builds_one_join_per_kernel(monkeypatch):
    """At (P_4, 0) the 94 projections of P_4 have 15 kernels, and P_D has
    15 projections: the class build's θ table takes 15 x 15 = 225 joins
    ker(p) v ker(s), one per kernel and s (1,410 with one per θ), and
    the scans read that table, so neither builds a join (225 each when
    every scan built its own table)."""
    h = PartitionMonoid(4)
    calls = count_joins(monkeypatch)
    d = dclass_data(h, 0)
    assert len(calls) == 225
    calls.clear()
    assert len(linked_triangles(d)) == 992
    enumerate_linked_diamonds(d)
    assert len(calls) == 0


@pytest.mark.parametrize(
    "monoid, n, r, count",
    [
        (PartitionMonoid, 4, 2, 70 + 1),
        (PartitionMonoid, 4, 1, 434 + 70 + 1),
        (BrauerMonoid, 5, 1, 110 + 1),
    ],
    ids=["P4r2", "P4r1", "B5r1"],
)
def test_square_search_theta_count(monkeypatch, monoid, n, r, count):
    """The joins ker(p) v ker(s) behind the square search's θ values, on a
    class built before the count starts: only the θ tables of the witness
    pool's higher classes (`test_friendliness_theta_count`), a join per
    distinct kernel of each class's projections of rank >= its rank and
    projection of its P_D: ranks 3 and 4 at (P_4, 2), ranks 2 to 4 at
    (P_4, 1), ranks 3 and 5 at (B_5, 1).  The class's own table is read
    off `d.theta` (505, 1,060 and 491 when the search built it again).  A
    second θ path would show here."""
    h = monoid(n)
    d = dclass_data(h, r)
    calls = count_joins(monkeypatch)
    enumerate_singular_squares(d)
    assert len(calls) == count


def test_friendliness_theta_count(monkeypatch):
    """The joins behind the class's θ table, one per distinct kernel of
    its projections of rank >= r and projection of P_D: 14 x 31 = 434 for
    the D-class of P_4 at rank 2, whose 42 projections of rank >= 2 have
    14 kernels; friendliness reads P_D's rows of it.  Its witness index
    adds only the pool classes' tables, 7 x 10 = 70 at rank 3 and 1 at
    rank 4 (505 when it built the class's table again)."""
    h = PartitionMonoid(4)
    calls = count_joins(monkeypatch)
    d = dclass_data(h, 2)
    assert len(calls) == 434
    calls.clear()
    _WitnessIndex(d)
    assert len(calls) == 70 + 1


PATH = AdjacencySemigroup("abc", [("a", "b"), ("b", "c")])
K3 = AdjacencySemigroup("abc", [("a", "b"), ("b", "c"), ("a", "c")])
LINKED_FACT_CLASSES = {
    **{f"P{n}r{r}": (PartitionMonoid(n), r) for n in (1, 2, 3, 4) for r in range(n + 1)},
    **{
        f"B{n}r{r}": (BrauerMonoid(n), r)
        for n in (2, 3, 4, 5)
        for r in BrauerMonoid(n).ranks()
    },
    "path": (PATH, 1),
    "C4": (C4, 1),
    "K3": (K3, 1),
}


@pytest.mark.parametrize("h, r", LINKED_FACT_CLASSES.values(), ids=LINKED_FACT_CLASSES)
def test_linked_scans_need_one_friendliness_test(h, r):
    """The facts that let the diamond and triangle scans make one
    friendliness test, with θ_p(s) = p s p by products: for every
    projection p and s, u in P_D whose images v = θ_p(s) and w = θ_p(u) lie
    in P_D, (s, v) is friendly, and (s, w) is friendly iff (u, v) is."""
    d = dclass_data(h, r)
    fr = d.friendly
    index = {q: i for i, q in enumerate(d.projections)}
    pairs = 0
    for p in h.projections():
        images = {}
        for i, s in enumerate(d.projections):
            j = index.get(h.product(h.product(p, s), p))
            if j is not None:
                images[i] = j
        for si, vi in images.items():
            assert (si, vi) in fr
            for ui, wi in images.items():
                assert ((si, wi) in fr) == ((ui, vi) in fr)
            pairs += len(images)
    assert pairs


THETA_ROW_CLASSES = {**LINKED_FACT_CLASSES, "path0": (PATH, 0), "C4r0": (C4, 0)}


@pytest.mark.parametrize(
    "h, r",
    [
        *THETA_ROW_CLASSES.values(),
        *(pytest.param(PartitionMonoid(5), r, marks=pytest.mark.slow) for r in range(6)),
    ],
    ids=[*THETA_ROW_CLASSES, *(f"P5r{r}" for r in range(6))],
)
def test_theta_rows_match_theta(h, r):
    """The handle's rows of θ-images against p s p by products, for every
    projection p of the monoid and every s in P_D: the index of θ_p(s) in
    P_D, or None when it leaves P_D."""
    d = dclass_data(h, r)
    key = h.projection_key
    index = {s: i for i, s in enumerate(d.projections)}
    P = h.projections()
    want = [[index.get(h.product(h.product(p, s), p)) for s in d.projections] for p in P]
    keys = [key(s) for s in d.projections]
    assert list(h.theta_rows(map(key, P), keys)) == want


@pytest.mark.parametrize("h, r", THETA_ROW_CLASSES.values(), ids=THETA_ROW_CLASSES)
def test_class_theta_matches_products(h, r):
    """The class's one θ table: its keys are the projections of rank >= r
    in canonical order, and each row holds, for s in P_D, the index of
    p s p in P_D by products, or None when it leaves P_D."""
    d = dclass_data(h, r)
    index = {s: i for i, s in enumerate(d.projections)}
    assert list(d.theta) == [p for p in h.projections() if h.rank(p) >= r]
    for p, row in d.theta.items():
        assert row == [index.get(h.product(h.product(p, s), p)) for s in d.projections]


@pytest.mark.parametrize("h, r", THETA_ROW_CLASSES.values(), ids=THETA_ROW_CLASSES)
def test_lower_rank_projections_leave_the_class(h, r):
    """The premise of the θ table keyed by the projections of rank >= r:
    for a projection p of lower rank, p s p leaves P_D for every s in
    P_D, by products, so p's row would be all None; and the R-class
    projections u u* of the witness pool are exactly the projections of
    rank >= r, the keys the witness index groups the pool by."""
    d = dclass_data(h, r)
    P_D = set(d.projections)
    for p in h.projections():
        if h.rank(p) < r:
            assert all(h.product(h.product(p, s), p) not in P_D for s in P_D)
    pool = _WitnessIndex(d).pool
    assert {h.product(u, h.star(u)) for u in pool} == {
        p for p in h.projections() if h.rank(p) >= r
    }


@pytest.mark.parametrize(
    "h, r",
    [
        (P3, 0),
        (P3, 1),
        (P4, 0),
        (BrauerMonoid(4), 0),
        (C4, 1),
        pytest.param(P4, 1, marks=pytest.mark.slow),
        (BrauerMonoid(5), 1),
    ],
    ids=["P3r0", "P3r1", "P4r0", "B4r0", "C4", "P4r1", "B5r1"],
)
def test_linked_scans_match_definition_oracle(h, r):
    """Both scans against `is_linked_diamond`, which tests all four
    friendly pairs: every (s, u; v, w) with v = p s p and w = p u p by
    products, p in canonical order, each diamond kept with its first p
    under (s, u; v, w) ~ (u, s; w, v), and each triangle (v = s) with its
    first p."""
    d = dclass_data(h, r)
    P = d.projections
    dias, tris = {}, {}
    for p in h.projections():
        conj = [h.product(h.product(p, s), p) for s in P]
        for (si, s), (ui, u) in itertools.product(enumerate(P), repeat=2):
            v, w = conj[si], conj[ui]
            if is_linked_diamond(h, d, s, u, v, w, p):
                vi, wi = d.pindex[v], d.pindex[w]
                key = min((si, ui, vi, wi), (ui, si, wi, vi))
                dias.setdefault(key, LinkedDiamond(s, u, v, w, p))
                if v == s:
                    tris.setdefault((si, ui, wi), (s, u, w, p))
    assert enumerate_linked_diamonds(d) == [dias[k] for k in sorted(dias)]
    assert linked_triangles(d) == [tris[k] for k in sorted(tris)]


def reference_witness_index(d):
    """The pool, lid and rid as built from the whole-monoid filter
    h.idempotents(), grouping the pool by the products u u*."""
    h = d.handle
    pool = [u for u in h.idempotents() if h.rank(u) >= d.rank]
    nt = {u: u.nt() if isinstance(u, diagram.Partition) else 0 for u in pool}
    pool = sorted(pool, key=lambda u: (nt[u], h.sort_key(u)))
    bit = {u: 1 << b for b, u in enumerate(pool)}
    groups = {}
    for b, u in enumerate(pool):
        g = groups.setdefault(h.product(u, h.star(u)), [0, 0])
        g[0] |= 1 << b
        g[1] |= bit[h.star(u)]
    lid, rid = [], []
    for p in d.projections:
        lbits = rbits = 0
        for q, g in groups.items():
            if h.product(q, p) == p:
                lbits |= g[0]
                rbits |= g[1]
        lid.append(lbits)
        rid.append(rbits)
    return pool, lid, rid


@pytest.mark.parametrize(
    "h, r",
    [
        (P4, 1),
        (P4, 2),
        (BrauerMonoid(5), 1),
        (AdjacencySemigroup("abc", [("a", "b"), ("b", "c")]), 1),
        pytest.param(PartitionMonoid(5), 2, marks=pytest.mark.slow),
        pytest.param(PartitionMonoid(5), 3, marks=pytest.mark.slow),
    ],
    ids=["P4r1", "P4r2", "B5r1", "path", "P5r2", "P5r3"],
)
def test_pair_built_witness_pool_matches_idempotent_filter(h, r):
    d = dclass_data(h, r)
    widx = _WitnessIndex(d)
    assert (widx.pool, widx.lid, widx.rid) == reference_witness_index(d)


def test_rank0_diamonds_tau_linked():
    d = dclass_data(P3, 0)
    nab = partition_from_blocks(3, [{1, 2, 3}, {-1, -2, -3}])
    sig = partition_from_blocks(3, [{1, 2}, {3}, {-1, -2}, {-3}])
    tau = nab
    taut = full_domain_projection(3, [{1, 2, 3}])
    assert is_linked_diamond(P3, d, nab, sig, nab, tau, taut)
    assert is_linked_pair(P3, taut, nab, sig)


def test_linked_diamond_false_outside_p_d():
    """A corner that is a projection of another class is no vertex of the
    D-class's graph, so the diamond is not linked (rather than a lookup
    error)."""
    d = dclass_data(P3, 1)
    s = d.projections[0]
    outside = next(p for p in P3.projections() if p.rank() == 2)
    assert is_linked_diamond(P3, d, s, s, s, s, s)
    for k in range(4):
        corners = [s] * 4
        corners[k] = outside
        assert not is_linked_diamond(P3, d, *corners, s)


def test_brauer_b4_diamonds_all_degenerate():
    d = dclass_data(BrauerMonoid(4), 0)
    assert all(x.degenerate for x in enumerate_linked_diamonds(d))


def test_diamond_implies_vfw():
    for r in (0, 1):
        d = dclass_data(P3, r)
        for dia in enumerate_linked_diamonds(d):
            i = d.pindex[dia.v]
            j = d.pindex[dia.w]
            assert (i, j) in d.friendly


def test_linked_triangles_are_diamonds():
    d = dclass_data(P3, 0)
    tris = linked_triangles(d)
    assert tris
    for (s, u, w, p) in tris[:25]:
        assert is_linked_diamond(P3, d, s, u, s, w, p)


# Every class of P_2-P_4 and B_3-B_5, the non-zero class of the path and
# of the 4-cycle, and (slow) P_5 at ranks 0 and 2, by the ids of the test.
LINKED_CLASSES = {
    **{f"{n}-{r}": (PartitionMonoid(n), r) for n in (2, 3, 4) for r in range(n + 1)},
    **{f"B{n}-{r}": (BrauerMonoid(n), r) for n in (3, 4, 5) for r in BrauerMonoid(n).ranks()},
    "path": (PATH, 1),
    "C4": (C4, 1),
    "5-0": (PartitionMonoid(5), 0),
    "5-2": (PartitionMonoid(5), 2),
}

# id -> linked_digests(*LINKED_CLASSES[id]).
LINKED_DIGESTS = {
    "2-0": (
        6, 7,
        "409d2b7aa0032dea03230bbea1704aebe061f7a912970c51e88ff4b413bf7dfa",
        "43077f7e1dde5cbd134033359840146ceffc0f62367d38ba665c2914212853b1",
        "6216e61cd3ae64f3835f96bfee49c8a465a9ab5372b0ad32d1a24f248f3dd79d",
        "83d96314b49d8d9eceebae135ceb193ab373fd8cf98d606dfca7d33c5f3bd2ac",
    ),
    "2-1": (
        11, 14,
        "4b9d9557457c06deebf50883eec09ae2eca72ea4d872366d1552ce8293f645b5",
        "bcad1b4571ea97155071ca717c89be2a497202fd1694ae91b7324bf2611057a9",
        "2c65f0761788feab673d0a2f70dad898c43db269d39dedaa69414bdc0db95e56",
        "1d05f3e5db5e511e7b18599010a95a99f16e77e588d23218767313a271eb11e0",
    ),
    "2-2": (
        1, 1,
        "baa0fad1b2171bf5b9ccedd464fd98f2d2404ce8168bcd543fe91d205402575a",
        "516c5cb2c4bb7fe32dbacafe74ea77f16f8a5224c81eaafb63253a90c4482ac5",
        "4be909baaa371a518b9e1d7d68197f1dcfc65573bc051e7f91c5f9f165d5931e",
        "587601017f00194a4410d6eb1b4f03b9d34c25fd650c006e4ee17997d5e48bdf",
    ),
    "3-0": (
        63, 115,
        "c6891fdcd6c4d5861350e2e9b32fc470009db15ea3b7b9bdb85bacf7875b0ab6",
        "d1f1eaa9b13e83c061ac3c7ad74572086dc08a78cbf503f2dd0c12ddfb0aa40f",
        "0d768e08ee4a900a71b69df7366bc635878cb694d4401511ca39eee73e2cc244",
        "59604b1a7b0a8a0cbce0712e428153083efa56e14f0ff79508204ae7c61b5f05",
    ),
    "3-1": (
        181, 421,
        "f4c720ca2403c9082ed665c9d3701cc83d6bc98ee29f82cabc8b646aa8834247",
        "375e50402f755788e588e44b5b5fcf00a215a1e76d5275d76e6222efb04842e9",
        "f729509a0010364684876833a9a3f62ea6daabc3ccf4430baeadff7db7a4a68c",
        "613ce6ee7f48452d282544a0ae4784046c2d7163e392813f0ceb5943784687bd",
    ),
    "3-2": (
        30, 42,
        "de841a68d3c58cd6027c4988791ea90c63835d7628dd1593b903e91646144f1b",
        "f90c331c91fe568c2f1f6ad1b38aff007d93938692a70eeb798cdae0da82440b",
        "5d94f641f9338b144241889ce4b830a56ce28de3de40932650618b1e7dc02ab0",
        "800646d35475099589d7d8365d4b6032d8664840b273600ad484d450954b388f",
    ),
    "3-3": (
        1, 1,
        "a10fc3761be2b2e933bce0971fc1fe4ef6a821fcfd4756648c33d4f51a255c29",
        "e739dbf53f9c9669b534a52bee1215be57bb4106b18197045a426299d7516f68",
        "e43376683bdb2e1653f858ea2b6beeba8e88d7a64ac63b6c5121c9e82e83be04",
        "3bdfd725d0f88601b762c1fa4f2af066f399c7418543f8b5326a33305f7e3e75",
    ),
    "4-0": (
        992, 3800,
        "bce5c7e8960a78d1b8e1ef9f3b9216680daea1de85901f657cec1457f673d549",
        "5c17cabbbb3af32f0105a4b3ce9c9c402d296dfb3b4ef0fbc3d05de76d7035f1",
        "d98d82fec9b982ff6533b555f83a2398d8338c3a5026aaef34e5e3075c93ff46",
        "cec84eadf31dbb7fd7cacf0e742fefedd804a619571f19c2488cd7f63ef47d21",
    ),
    "4-1": (
        3975, 21909,
        "5fd1f274bba65b2d7ab4e61b11f4f5b4d0d82f1789340b1ae20c405e22a090eb",
        "0fe49960aebb62bcd68423602217ebf2930acc6903dfadf6ebb5985951b60059",
        "25acecc3a2e32e9997d9584527cf37f133fe160c03f2fb9301b3487f56b9d0c3",
        "0eec9774f249ac380c5af07830b3acc86952c1ddbc35f6e6b6543cc9dcc09733",
    ),
    "4-2": (
        931, 2731,
        "44fb9b91f457cb18ff8d4e605a3d8af8b4af52eaf1290b2a6a3b8735debcf407",
        "0473dff3e4a12e72799ec6653b62eb3a10b1cf11b44b86a7aac21d105377ea87",
        "a6207b52be6f26b3825380e0a7f296a4dbbf014e7f4e73394c29e61d08d6e4f7",
        "77718378e7122b1f32bc27820b6b65e7e5d69b0a4565d2eeac2210e8a5bd54cd",
    ),
    "4-3": (
        58, 88,
        "5236d71b4001adc3c44684c333b723cb6176a9d5a9379ac5624157fe927e5120",
        "74dce53a06550b87c2f267a7401234e2918ff0105a186d66e0daf8015265e7ab",
        "802b8cf944d6f54e7897cf945f499dc7779900fb210518ac85fddd31d9355b78",
        "f8d3267da68126ab08e180e30f1f7cded2484034552fdf1a18744595a38de2a3",
    ),
    "4-4": (
        1, 1,
        "12465efa34413a752bbbcde59007dc2dc0f30f901fc3864a3c57933496b05515",
        "4e471056be37eb74f4c2a2aef9e8cde3c1fc019381ed1bdf821486bcb042a487",
        "b9380952bde38f002b0bc50e9b6c2f8cf2e4c15d293c7cbe3d0202394827acb3",
        "eb8f0bf1b32193502e0b79674b76e1ce2d5cdb7c83614675fe5872555143bf3a",
    ),
    "B3-1": (
        15, 21,
        "b2c38b864121e3e53999bc3fe28e46cc59315b09b064178c80b5d8a9ed7e097c",
        "d1b06143ef10673eb3a6d033173177e96c0eba236720767e335d7d9a75536e0e",
        "07dd73408c0599e2bc9abb3936793ad2e869e4af1f4cbeeefca1c13159e6abfd",
        "1b0efd67a17bf78e4fe9fc0243a6a4e097c00cb25f92c2d6108b5ee6dab061af",
    ),
    "B3-3": (
        1, 1,
        "a10fc3761be2b2e933bce0971fc1fe4ef6a821fcfd4756648c33d4f51a255c29",
        "e739dbf53f9c9669b534a52bee1215be57bb4106b18197045a426299d7516f68",
        "e43376683bdb2e1653f858ea2b6beeba8e88d7a64ac63b6c5121c9e82e83be04",
        "3bdfd725d0f88601b762c1fa4f2af066f399c7418543f8b5326a33305f7e3e75",
    ),
    "B4-0": (
        15, 21,
        "31189cb64d0c5d8d1e7fe5464dd861f32b8bc39684e96e81579e970da87da47c",
        "6c1580f56e087e6a4890a3c81b03b18d37bc94f90e09b98fcc1067c2696006fc",
        "2a323232cad50d6e5908df4ce29070bcfdba2531359ef7d7c903493786ae8967",
        "b8b07bad9848dcfd53cc92f214bdc25469520dfb8e0fd91d5933b725be2527da",
    ),
    "B4-2": (
        54, 102,
        "7175445d2d2b0376ad3d3fb05dc680a453cf11040f263039f7b2a28ca7c8e122",
        "f71afc9af081e0f93e6815469fcf1096a266ff3e97f7880816e3386568a8ffd4",
        "ea274b4c3523bea6ad14beb453a518887bb560ab64c0854fbf4b5faa8e14e96f",
        "20a75626fe6131e6f630a348d5ee940361b5a9e7d37bd963ce093ecf76b97047",
    ),
    "B4-4": (
        1, 1,
        "12465efa34413a752bbbcde59007dc2dc0f30f901fc3864a3c57933496b05515",
        "4e471056be37eb74f4c2a2aef9e8cde3c1fc019381ed1bdf821486bcb042a487",
        "b9380952bde38f002b0bc50e9b6c2f8cf2e4c15d293c7cbe3d0202394827acb3",
        "eb8f0bf1b32193502e0b79674b76e1ce2d5cdb7c83614675fe5872555143bf3a",
    ),
    "B5-1": (
        675, 2625,
        "fa878f37d2a12908b50abf69483010f296f8cc6bad98585c5582fa5833c017c4",
        "0d8a51623fc6de24942911d7be175255f40311a5ab42eac85608b4e60c7925b7",
        "2d26feeff7f92d50ddd61b067212aae32d6e0f38fe0fc2af7f2738d039229a41",
        "53bfcc34e8eace1f3b91c9562047e3d1672d1617a5039d1b9d7f493a657c5cd0",
    ),
    "B5-3": (
        130, 310,
        "e222d42569675feb2bfd8dcb2eede11b7e89e12ae49a7c11e35b01c6539bd55f",
        "eb13dccc424cc7cdf8557bbc6a6bc0283799c37ae5e1d8b0a167ba43c1fb6bb6",
        "f2fa40cca48027f37a14804eca803b834dd7ee9114dd78ece81f720b48f43167",
        "dca74c760719911a6bda2f565081ec66d7ba796fd7e3a3f1b76d2828333e54ad",
    ),
    "B5-5": (
        1, 1,
        "b47681111b693b56ccdd9888ca39f8325225f2a1bde1a1e6b01bd77f44eac15f",
        "b7d50e75d4c7ee844a5abb305cded74804879ea4d41a6b94ac4754382e000076",
        "afe63b7ea99b8b2b721409066ee1ffe98ba34325a7f00e6e9ec8078c94a9f713",
        "dc45f2a9aca81936dca7f504aa9c75b244faf1989cd65b36d30aca646bbacae0",
    ),
    "path": (
        7, 12,
        "bdf904d81e721309da452211d1be02c9b3841869fb6e1cc630eb30056ade6c3b",
        "a1137aa2b804685f5a342bb7127f66e8962078abf397a05635743770fdeaaf39",
        "720a69f3bf7d4cc4ef2bb238adde78706fc9fa52ac71f6ddabc9222fbb1c79c7",
        "4eb7b10a2b2947a90f1edce143386ffbc8e111f5685a61b299729ad425fd6f0d",
    ),
    "C4": (
        12, 24,
        "936af978bafed8603d42326a95c6a48c6661cee1f764533bb409b512d705169e",
        "f8e1dde48f88e32e9da5f542f7d16d7f32d05d30f61d0496ef46685e2d3a32f3",
        "a44942b01ce94298ac44cf8bb34a9e1aeb7c09ee8ef3a8bca20a6293e7d48457",
        "9dccbe08c91e1597d0e02c94b704d65748c7692e4ca60f343dd01078b91dbf1f",
    ),
    "5-0": (
        20966, 204277,
        "79e91ef14d1768a737f98567c66838666a5ac22235235bef976f8a3c8c17af85",
        "71f2a215b4e9bc3cc94f04c79c9caf3f2176e66a815ff59fef70fe66cd5a2039",
        "47aba52c9eadb59e9f8a47a48881cdf499148e3b1b0456daf5d366803ed55080",
        "cf3fc99a7b5233f9b382e8186326e7d2f2b517e99f3150e7b9a295f154a2a6d8",
    ),
    "5-2": (
        32700, 252855,
        "d9f5d03ac6844bf01d588f3d6d5a5e1e7ab497fd725fc8add7024e372d4723e0",
        "087c0e13930bb72642885a9b1dfe56a539b6d9833a7948c2bc9994c2be7d6583",
        "25b9526af31097e7b303d3c6faa12eaf4db8ae01a624a039ae8df67eda332521",
        "3480de024060c9e662cad10c4e125e4b87565d320dbd42581f4fff4016292e9a",
    ),
}


def linked_digests(h, r) -> tuple:
    """(triangles, diamonds, sha256 of the triangle list, of the diamond
    list, of the linked-diamond presentation and of the triangle one): the
    lists as text with their witnesses p, in returned order, and both
    friendly-pair presentations over friendliness_tree(d, 0)."""
    d = dclass_data(h, r)
    tris = linked_triangles(d)
    dias = enumerate_linked_diamonds(d)
    tree = friendliness_tree(d, 0)
    texts = (
        "\n".join(" ".join(h.text(x) for x in t) for t in tris),
        "\n".join(" ".join(h.text(x) for x in (x.s, x.u, x.v, x.w, x.p)) for x in dias),
        to_cas_text(presn_pg_linked(d, dias, tree)),
        to_cas_text(presn_pg_triangles(d, tris, tree)),
    )
    return (len(tris), len(dias), *(hashlib.sha256(t.encode()).hexdigest() for t in texts))


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=pytest.mark.slow) if case.startswith("5-") else case
        for case in LINKED_DIGESTS
    ],
    ids=list(LINKED_DIGESTS),
)
def test_linked_lists_pinned(case):
    """Both linked lists with their witnesses, and both friendly-pair
    presentations, against their digests."""
    assert linked_digests(*LINKED_CLASSES[case]) == LINKED_DIGESTS[case]


@pytest.mark.parametrize(
    "case", [case for case in LINKED_CLASSES if not case.startswith("5-")]
)
def test_square_relators_have_four_distinct_generators(case):
    """Each square relator's four letters are four distinct generators, as
    a non-degenerate square has i != k and j != l: the relators need no
    free reduction."""
    d = dclass_data(*LINKED_CLASSES[case])
    gid = {pair: g for g, pair in enumerate(d.e_of_pair, 1)}
    squares = enumerate_singular_squares(d)
    relators = _square_relators(squares, gid)
    assert len(relators) == len({(s.rows, s.cols) for s in squares})
    for w in relators:
        assert len({abs(x) for x in w}) == 4


def test_degenerate_square_not_nt_reducing():
    p = full_domain_projection(2, [{1, 2}])
    assert not is_nt_reducing(Square(p, p, p, p))


def test_projection_nt_square_in_p4():
    # base (A | B | C ; A | B | C) + f with a transversal and two upper blocks
    e = partition_from_blocks(4, [{1, -1}, {2, 3}, {-2, -3}, {4}, {-4}])
    sq, u = projection_nt_square(e)
    assert sq.h == e
    assert is_nt_reducing(sq)
    assert is_rl_singular(P4, sq, u)


def test_ehresmann_square_witnessed_across_d31():
    """For every L-related pair with nested kernels in the rank-1 class of
    P_3, the square (fD(e) f; eD(e) e) is RL-singularised by D(e)."""
    from diagfree.biorder import ehresmann_square
    from diagfree.diagram import d_projection, eq_refines
    from diagfree.green import l_related

    d = dclass_data(P3, 1)
    pairs = 0
    for e in d.idempotents:
        for f in d.idempotents:
            if not (l_related(P3, e, f) and eq_refines(e.ker(), f.ker())):
                continue
            sq, u = ehresmann_square(e, f)
            assert u == d_projection(e)
            assert is_rl_singular(P3, sq, u)
            if e.ker() != f.ker() and not eq_refines(e.ker(), e.coker()):
                assert is_nt_reducing(sq)
            pairs += 1
    assert pairs > len(d.idempotents)  # some non-trivial pairs exist


def test_nt_reducing_ehresmann_instance_d41():
    # kernel strictly inside the merged kernel, kernel not inside cokernel
    d = dclass_data(P4, 1)
    fs = set(f_set(d))
    bases = [e for e in d.idempotents if e not in fs][:40]
    assert bases
    for e in bases:
        sq, u = nt_reducing_square_for(e)
        assert sq.h == e
        assert is_nt_reducing(sq)
        assert witness_orientations(P4, sq, u)


# -- the label's definition, the reference for `label` --------------------


def label_prime(e):
    """Partial bijection pairing minima of the two halves of each transversal:
    the first top point and the first bottom point of each label found in
    both rows, ascending by top point as the top labels are canonical."""
    n, labels = e.n, e.labels
    top = {}
    for i, x in enumerate(labels[:n], 1):
        top.setdefault(x, i)
    bottom = {}
    for i, x in enumerate(labels[n:], 1):
        if x in top:
            bottom.setdefault(x, i)
    return tuple((i, bottom[x]) for x, i in top.items() if x in bottom)


def scale_down(pairs):
    """Compress a partial bijection to a permutation of [r] (0-based images)."""
    tops = sorted(a for a, _ in pairs)
    bots = sorted(b for _, b in pairs)
    trank = {x: i for i, x in enumerate(tops)}
    brank = {x: i for i, x in enumerate(bots)}
    perm = [0] * len(pairs)
    for a, b in pairs:
        perm[trank[a]] = brank[b]
    return tuple(perm)


@pytest.mark.parametrize(
    "h",
    [PartitionMonoid(n) for n in range(1, 5)] + [BrauerMonoid(n) for n in range(2, 6)],
    ids=[f"P{n}" for n in range(1, 5)] + [f"B{n}" for n in range(2, 6)],
)
def test_label_matches_scaled_down_label_prime(h):
    """The one-scan label equals its definition on every element of rank
    >= 1, and is undefined at rank 0."""
    ranked = 0
    for e in h.elements():
        if e.rank() >= 1:
            assert label(e) == scale_down(label_prime(e))
            ranked += 1
        else:
            with pytest.raises(ValueError):
                label(e)
    assert ranked


def test_label_worked_example_e53():
    e = partition_from_blocks(
        5, [{1, 4, -4}, {2, -2}, {3}, {5, -3, -5}, {-1}]
    )
    assert label_prime(e) == ((1, 4), (2, 2), (5, 3))
    assert label(e) == (2, 0, 1)  # 1->3, 2->1, 3->2 in 1-based terms


def test_labels_of_figure_elements():
    a6 = partition_from_blocks(6, [{1, 4}, {2, 3, -4, -5}, {5, 6}, {-1, -2, -6}, {-3}])
    b6 = partition_from_blocks(6, [{1, 2}, {3, 4, -1}, {5, -5, -6}, {6}, {-2, -3}, {-4}])
    assert label(a6) == (0,)
    assert label(b6) == (0, 1)


def test_label_star_inverse_exhaustive_e42():
    d = dclass_data(P4, 2)
    for e in d.idempotents:
        assert label(involution(e)) == perm_inv(label(e))
        comp = [label(e)[perm_inv(label(e))[i]] for i in range(2)]
        assert comp == [0, 1]


def blocks_label_prime(e):
    """label_prime by its definition: the minima of the two halves of each
    transversal block, sorted."""
    pairs = []
    for b in e.blocks():
        tops = [p for p in b if p > 0]
        bots = [-p for p in b if p < 0]
        if tops and bots:
            pairs.append((min(tops), min(bots)))
    return tuple(sorted(pairs))


@pytest.mark.parametrize("h", [P4, BrauerMonoid(4)], ids=["P4", "B4"])
def test_label_prime_matches_block_definition(h):
    elements = [e for e in h.elements() if e.rank() >= 1]
    assert elements
    for e in elements:
        assert label_prime(e) == blocks_label_prime(e)


def test_label_rank0_error():
    z = partition_from_blocks(2, [{1}, {2}, {-1}, {-2}])
    with pytest.raises(ValueError):
        label(z)


def test_label_consecutive_stability():
    # perturbing one pair by 1 without reordering leaves the label fixed
    base = ((1, 4), (2, 2), (5, 3))
    wiggled = ((1, 5), (2, 2), (5, 3))
    assert scale_down(base) == scale_down(wiggled)
    base2 = ((1, 1), (3, 4))
    wiggled2 = ((2, 1), (3, 4))
    assert scale_down(base2) == scale_down(wiggled2)


def test_coxeter_idempotent():
    # the idempotent maps with kernel {1, 4}, {2, 3}: onto 4, 2 (label
    # (1 2)) and onto 1, 2 (trivial label)
    e = transformation_partition(4, [4, 2, 2, 4])
    assert label(e) == (1, 0)
    assert is_coxeter_idempotent(e)
    ident = transformation_partition(4, [1, 2, 2, 1])
    assert not is_coxeter_idempotent(ident)


def test_witness_orientations_consistency():
    """Every entry's corners, read off the class, form a square (e R f,
    g R h, e L g, f L h) that its witness singularises in its
    orientation."""
    for h, r, count in ((P3, 1, 240), (P4, 2, 1656), (BrauerMonoid(5), 1, 1800)):
        d = dclass_data(h, r)
        entries = enumerate_singular_squares(d)
        assert len(entries) == count
        for entry in entries:
            sq = square_at(d, entry.rows, entry.cols)
            assert r_related(h, sq.e, sq.f) and r_related(h, sq.g, sq.h)
            assert l_related(h, sq.e, sq.g) and l_related(h, sq.f, sq.h)
            assert entry.orientation in witness_orientations(h, sq, entry.u)


def test_square_entry_holds_keys_only():
    d = dclass_data(P3, 1)
    entry = enumerate_singular_squares(d)[0]
    assert not hasattr(entry, "__dict__")
    fields = tuple(f.name for f in dataclasses.fields(SquareEntry))
    assert fields == ("rows", "cols", "orientation", "u")
    witnesses = find_singularizers(P3, square_at(d, entry.rows, entry.cols))
    assert (entry.orientation, entry.u) in witnesses


# A copy of the four corners in each entry would show here: with one, this
# search peaked at 182 MB (CPython 3.11, x86-64 Linux); with keys only, at
# 85 MB.
SEARCH_RSS = """
from diagfree import PartitionMonoid
from diagfree.biorder import enumerate_singular_squares
from diagfree.green import dclass_data

squares = enumerate_singular_squares(dclass_data(PartitionMonoid(5), 2))
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(len(squares), hwm)
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads the peak RSS (VmHWM) from /proc/self/status, which only Linux has",
)
def test_square_search_memory_p5r2():
    """The (P_5, 2) square search peaks at <= 150 MB RSS in a fresh
    interpreter.  The child reads its own VmHWM, which starts anew at
    exec; its ru_maxrss would start at the peak of the test process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SEARCH_RSS],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    count, kib = map(int, proc.stdout.split())
    assert count == 421140
    assert kib <= 150 * 1024
