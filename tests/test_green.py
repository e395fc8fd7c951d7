"""Green's relations, D-class assembly, friendliness, strata, sandwich sets."""

import random
from functools import lru_cache

import pytest

from diagfree import green
from diagfree.biorder import enumerate_singular_squares, linked_triangles
from diagfree.diagram import (
    ADJ_ZERO,
    AdjacencySemigroup,
    BrauerMonoid,
    PartitionMonoid,
    TransformationMonoid,
    involution,
    multiply,
    partition_from_blocks,
)
from diagfree.green import (
    EmptyClassError,
    dclass_data,
    friendly_products,
    d_related,
    l_related,
    left_ideal,
    r_related,
    right_ideal,
    sandwich_set,
)
from diagfree.groupid import identify, subgroup_hints
from diagfree.present import FAMILIES, subgroup_presentation


def test_counts_closed_formulas():
    d = dclass_data(PartitionMonoid(4), 3)
    assert len(d.projections) == 10 and len(d.idempotents) == 34
    d = dclass_data(PartitionMonoid(3), 2)
    assert len(d.projections) == 6 and len(d.idempotents) == 18


def test_rank0_p2_all_idempotent():
    d = dclass_data(PartitionMonoid(2), 0)
    assert d.size == 4
    assert len(d.idempotents) == 4


def test_empty_class_errors():
    with pytest.raises(EmptyClassError):
        dclass_data(PartitionMonoid(3), 5)
    with pytest.raises(EmptyClassError):
        dclass_data(BrauerMonoid(4), 1)  # parity
    with pytest.raises(EmptyClassError):
        dclass_data(PartitionMonoid(3), None)


def test_r_related_projections():
    h = PartitionMonoid(3)
    p = partition_from_blocks(3, [{1, 2, -1, -2}, {3, -3}])
    q = partition_from_blocks(3, [{1, 2, -1, -2, 3, -3}])
    # distinct rank-2/other projections with equal kernels are R-related
    a = partition_from_blocks(3, [{1, 2, -1, -2}, {3, -3}])
    b = partition_from_blocks(3, [{1, 2, -3}, {3, -1, -2}])
    assert a.ker() == b.ker() and a.dom() == b.dom()
    assert r_related(h, a, b)
    assert not r_related(h, p, q)


def test_green_fast_path_vs_ideals_sampled():
    h = PartitionMonoid(3)
    els = h.elements()
    rng = random.Random(23)
    for _ in range(300):
        a, b = rng.choice(els), rng.choice(els)
        assert r_related(h, a, b) == (right_ideal(h, a) == right_ideal(h, b))
        assert l_related(h, a, b) == (left_ideal(h, a) == left_ideal(h, b))


def test_rank_differs_implies_not_d_related():
    from diagfree.diagram import identity

    h = PartitionMonoid(3)
    a = partition_from_blocks(3, [{1, -1}, {2}, {3}, {-2}, {-3}])
    assert not d_related(h, a, identity(3))
    assert d_related(h, a, involution(a))


def test_aa_star_projection_indexing():
    h = PartitionMonoid(3)
    for r in (0, 1, 2):
        d = dclass_data(h, r)
        for a in d.elements:
            p = multiply(a, involution(a))
            q = multiply(involution(a), a)
            assert p in set(d.projections) and q in set(d.projections)
            assert p.rank() == r and r_related(h, p, a)
            assert l_related(h, q, a)


def test_friendliness_bijection():
    for (h, r) in ((PartitionMonoid(3), 1), (PartitionMonoid(4), 2), (BrauerMonoid(4), 0)):
        d = dclass_data(h, r)
        assert len(d.friendly) == len(d.idempotents)


def test_h_class_idempotent():
    h = PartitionMonoid(3)
    d = dclass_data(h, 0)
    # rank-0 class is a rectangular band: every pair is friendly
    for i, p in enumerate(d.projections):
        assert d.e_of_pair[(i, i)] == p
        for j, q in enumerate(d.projections):
            e = d.e_of_pair[(i, j)]
            assert e == multiply(p, q)


def test_group_h_class_count_oracle_p3():
    h = PartitionMonoid(3)
    els = h.elements()
    rid = {}
    lid = {}
    for a in els:
        rid[a] = frozenset([a] + [multiply(a, s) for s in els])
        lid[a] = frozenset([a] + [multiply(s, a) for s in els])
    for r in (0, 1, 2):
        d = dclass_data(h, r)
        hclasses = {}
        for a in d.elements:
            hclasses.setdefault((rid[a], lid[a]), []).append(a)
        groups = sum(
            1
            for members in hclasses.values()
            if any(multiply(e, e) == e for e in members)
        )
        assert groups == len(d.idempotents)


@pytest.mark.parametrize(
    "h, r",
    [
        *((PartitionMonoid(n), r) for n in (1, 2, 3, 4) for r in range(n + 1)),
        *((BrauerMonoid(n), r) for n in (4, 5) for r in BrauerMonoid(n).ranks()),
        *((TransformationMonoid(n), r) for n in (3, 4) for r in range(1, n + 1)),
    ],
    ids=lambda x: getattr(x, "describe", x.__repr__)(),
)
def test_strata_partition_and_tn_corner(h, r):
    """The strata partition E_D by (NTu, NTd), each in E_D order.  In P_n
    the (0, n - r) stratum is the full-domain idempotents whose cokernel
    is trivial: the transformations of the class."""
    d = dclass_data(h, r)
    flat = [e for es in d.strata.values() for e in es]
    assert sorted(flat, key=h.sort_key) == d.idempotents
    for (k, l), es in d.strata.items():
        assert es and all((e.ntu(), e.ntd()) == (k, l) for e in es)
        assert es == [e for e in d.idempotents if (e.ntu(), e.ntd()) == (k, l)]
    if isinstance(h, PartitionMonoid):
        for e in d.strata.get((0, h.n - r), []):
            assert all(len(c) == 1 for c in e.coker())


def test_sandwich_sets():
    h = PartitionMonoid(3)
    E = h.idempotents()
    for e in E[:12]:
        assert e in sandwich_set(h, e, e)
    rng = random.Random(5)
    for _ in range(40):
        e, f = rng.choice(E), rng.choice(E)
        sw = sandwich_set(h, e, f)
        ef = multiply(e, f)
        for x in sw:
            assert multiply(multiply(e, x), f) == ef
            assert multiply(multiply(f, x), e) == x
    non_idem = next(a for a in h.elements() if not h.is_idempotent(a))
    with pytest.raises(ValueError):
        sandwich_set(h, non_idem, E[0])


def test_sandwich_nonempty_all_pairs_p3():
    h = PartitionMonoid(3)
    E = h.idempotents()
    mul = lru_cache(maxsize=None)(multiply)
    for e in E:
        for f in E:
            ef = mul(e, f)
            assert any(
                mul(mul(e, x), f) == ef and mul(mul(f, x), e) == x
                for x in E
            ), "regular biordered set must have non-empty sandwich sets"


def test_sandwich_duplicate_evaluation_oracle_p4():
    h = PartitionMonoid(4)
    E = h.idempotents()
    rng = random.Random(99)
    pairs = [(rng.choice(E), rng.choice(E)) for _ in range(100)]
    mul = lru_cache(maxsize=None)(multiply)
    for e, f in pairs:
        first = sandwich_set(h, e, f)
        second = [
            x
            for x in E
            if mul(mul(e, x), f) == mul(e, f) and mul(mul(f, x), e) == x
        ]
        assert first == second


PATH = AdjacencySemigroup("abc", [("a", "b"), ("b", "c")])
C4 = AdjacencySemigroup("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
K3 = AdjacencySemigroup("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_adjacency_ranks_name_the_zero_and_the_non_zero_class():
    """Rank 0 is the zero class and rank 1 the non-zero class, whose
    H-classes are trivial (|D| = 4 * 4 * 1!); no other rank names a class."""
    zero = dclass_data(C4, 0)
    assert zero.size == 1
    assert zero.projections == zero.idempotents == [ADJ_ZERO]
    d = dclass_data(C4, 1)
    assert (d.size, len(d.projections), len(d.idempotents)) == (16, 4, 12)
    assert ADJ_ZERO not in d.idempotents and d.strata == {}
    with pytest.raises(EmptyClassError):
        dclass_data(C4, 2)


@pytest.mark.parametrize("h", [C4, K3, PATH], ids=("C4", "K3", "path"))
def test_green_relations_vs_ideals_on_adjacency_semigroups(h):
    """r_related, l_related and d_related agree with the principal-ideal
    oracle on every pair of elements, D being R o L: a D b iff some c has
    c R a and c L b."""
    elems = h.elements()
    rid = {a: right_ideal(h, a) for a in elems}
    lid = {a: left_ideal(h, a) for a in elems}
    rl = {(rid[c], lid[c]) for c in elems}
    for a in elems:
        for b in elems:
            assert r_related(h, a, b) == (rid[a] == rid[b])
            assert l_related(h, a, b) == (lid[a] == lid[b])
            assert d_related(h, a, b) == ((rid[a], lid[b]) in rl)


PAIR_BUILT_CLASSES = [
    *((PartitionMonoid(n), r) for n in (1, 2, 3, 4) for r in range(n + 1)),
    *((BrauerMonoid(n), r) for n in (4, 5) for r in BrauerMonoid(n).ranks()),
    (PATH, 1),
    (C4, 1),
    pytest.param(PartitionMonoid(5), 2, marks=pytest.mark.slow),
    pytest.param(PartitionMonoid(5), 3, marks=pytest.mark.slow),
]


def reference_dclass(h, elems):
    """P_D, E_D and e_of_pair read off the whole-monoid filter
    h.idempotents(): e sits at (index of e e*, index of e* e)."""
    members = set(elems)
    idem = [e for e in h.idempotents() if e in members]
    P = [e for e in idem if h.star(e) == e]
    index = {p: i for i, p in enumerate(P)}
    e_of_pair = {
        (index[h.product(e, h.star(e))], index[h.product(h.star(e), e)]): e
        for e in idem
    }
    return P, idem, e_of_pair


@pytest.mark.parametrize(
    "h, r",
    PAIR_BUILT_CLASSES,
    ids=lambda x: {id(PATH): "path", id(C4): "C4"}.get(id(x)) or getattr(x, "describe", x.__repr__)(),
)
def test_pair_built_dclass_matches_idempotent_filter(h, r):
    """E_D built from friendly pairs is the x x = x filter, one distinct
    idempotent per pair: each pair product is idempotent and the map from
    pairs to idempotents is injective, which dclass_data does not
    re-check."""
    d = dclass_data(h, r)
    P, idem, e_of_pair = reference_dclass(h, d.elements)
    assert d.projections == P
    assert d.idempotents == idem
    assert d.friendly == set(e_of_pair)
    assert d.e_of_pair == e_of_pair
    assert list(d.e_of_pair.values()) == idem


def two_product_friendly(h, P):
    """p_i p_j for the pairs with p_i p_j p_i = p_i and p_j p_i p_j = p_j."""
    half = {}
    for i, p in enumerate(P):
        for j, q in enumerate(P):
            x = h.product(p, q)
            if h.product(x, p) == p:
                half[(i, j)] = x
    return {(i, j): x for (i, j), x in half.items() if (j, i) in half}


@pytest.mark.parametrize(
    "h, r",
    [
        *((PartitionMonoid(n), r) for n in (1, 2, 3, 4) for r in range(n + 1)),
        *((BrauerMonoid(n), r) for n in (2, 3, 4, 5) for r in BrauerMonoid(n).ranks()),
        (PATH, 1),
        (C4, 1),
    ],
    ids=lambda x: {id(PATH): "path", id(C4): "C4"}.get(id(x)) or getattr(x, "describe", x.__repr__)(),
)
def test_friendly_products_match_two_product_definition(h, r):
    """One θ test per unordered pair of one class, and one product per
    friendly pair, give the friendly pairs of the definition on each
    class."""
    P = dclass_data(h, r).projections
    got = friendly_products(h, P)
    assert got == two_product_friendly(h, P)
    assert list(got) == sorted(got)


@pytest.mark.parametrize("r", range(4))
def test_friendly_products_one_product_per_friendly_pair(r):
    """`friendly_products` multiplies the friendly pairs of P_4's class of
    rank r, each once, in ascending (i, j) order, and nothing else."""
    h = PartitionMonoid(4)
    P = dclass_data(h, r).projections
    calls = []
    product = h.product

    def counted(x, y):
        calls.append((x, y))
        return product(x, y)

    h.product = counted
    got = friendly_products(h, P)
    assert calls == [(P[i], P[j]) for i, j in got]
    assert list(got) == sorted(got)


def test_pipeline_never_filters_all_idempotents():
    """The D-class, the square search, the linked triangles, every
    presentation family and `identify` read P_D off the generated
    projections and E_D off friendly projection pairs: P_4 is never listed
    and never filtered for x x = x."""
    h = PartitionMonoid(4)

    def refuse(name):
        def refused():
            raise RuntimeError(f"h.{name}() called")

        return refused

    h.idempotents = refuse("idempotents")
    h.elements = refuse("elements")
    d = dclass_data(h, 2)
    squares = enumerate_singular_squares(d)
    assert len(squares) == 1656
    d0 = dclass_data(h, 0)
    assert len(linked_triangles(d0)) == 992
    presentations = {
        family: subgroup_presentation(d, family, squares=squares) for family in FAMILIES
    }
    assert all(p.generators for p in presentations.values())
    pg = identify(presentations["pg"], subgroup_hints(d, "pg"))
    assert (pg.kind, pg.order, pg.tag, pg.certification) == ("finite", 2, "S_2", "certified")
    ig = identify(presentations["ig"], subgroup_hints(d, "ig"))
    assert (ig.kind, ig.order, ig.tag, ig.certification) == (
        "z_cross_finite", 2, "S_2", "partial"
    )
    triangles = subgroup_presentation(d0, "pg-triangles")
    assert identify(triangles, subgroup_hints(d0, "pg-triangles")).is_trivial


def test_dclass_product_count():
    """dclass_data at (P_4, 2) makes 331 products, one per friendly pair
    (`test_friendly_products_one_product_per_friendly_pair`), and nothing
    else: the friendly-pair invariants are checked in the tests, not on
    each build (961 with one product per ordered pair of projections,
    1,292 with an e e = e check over E_D, 2,253 with two products per
    pair, 6,724 with an x x = x test over all of P_4)."""
    h = PartitionMonoid(4)
    calls = 0
    product = h.product

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    h.product = counted
    assert len(dclass_data(h, 2).idempotents) == 331
    assert calls == 331


@pytest.mark.parametrize(
    "h, r, ranks, products",
    [(PartitionMonoid(4), 2, [2, 3, 4], 366), (BrauerMonoid(5), 1, [1, 3, 5], 296)],
    ids=["P4r2", "B5r1"],
)
def test_friendly_products_get_one_class(h, r, ranks, products, monkeypatch):
    """`friendly_products` reads no ranks: its precondition is that P lies
    in one D-class.  The class build and the square search's witness pool
    pass one class's P_D per call, the class itself and then each class
    above it, one product per friendly pair: at (P_4, 2) the 331 + 35
    products of a traced `squares_p4r2` pass, at (B_5, 1) 225 + 70 + 1."""
    calls = []
    friendly = green.friendly_products

    def spy(handle, P):
        out = friendly(handle, P)
        calls.append(({handle.rank(p) for p in P}, len(out)))
        return out

    monkeypatch.setattr(green, "friendly_products", spy)
    enumerate_singular_squares(dclass_data(h, r))
    assert [cls for cls, _ in calls] == [{k} for k in ranks]
    assert sum(n for _, n in calls) == products


COUNTED_HANDLES = [
    *(PartitionMonoid(n) for n in (1, 2, 3, 4)),
    *(BrauerMonoid(n) for n in (2, 3, 4, 5)),
    TransformationMonoid(3),
    TransformationMonoid(4),
    PATH,
    C4,
    pytest.param(PartitionMonoid(5), marks=pytest.mark.slow),
]


@pytest.mark.parametrize(
    "h",
    COUNTED_HANDLES,
    ids=lambda x: {id(PATH): "path", id(C4): "C4"}.get(id(x)) or x.describe(),
)
def test_dclass_size_is_counted_not_listed(h):
    """|D| = |rows| |cols| |H| agrees with the class listed by a filter
    over the whole monoid, and P(P_n) as generated is the generic
    a* = a = a a filter over P_n, in order."""
    for r in (0, 1) if isinstance(h, AdjacencySemigroup) else h.ranks():
        d = dclass_data(h, r)
        assert d.elements == [x for x in h.elements() if h.rank(x) == r]
        assert d.size == len(d.elements)
    if isinstance(h, PartitionMonoid):
        generic = [x for x in h.elements() if h.star(x) == x and h.is_idempotent(x)]
        assert h.projections() == generic
