"""Partition arithmetic, handles, and the twisting statistic."""

import hashlib
import random

import pytest

from diagfree.diagram import (
    ADJ_ZERO,
    AdjacencySemigroup,
    BlockError,
    BrauerMonoid,
    DegreeError,
    Partition,
    PartitionMonoid,
    TransformationMonoid,
    TwistedElement,
    d_projection,
    eq_join,
    eq_refines,
    floating_components,
    identity,
    idempotent_components,
    involution,
    is_projection,
    multiply,
    multiply_with_floats,
    partition_from_blocks,
    partition_from_text,
    projection_classes,
    r_projection,
    twisted_multiply,
)

A6 = partition_from_blocks(6, [{1, 4}, {2, 3, -4, -5}, {5, 6}, {-1, -2, -6}, {-3}])
B6 = partition_from_blocks(6, [{1, 2}, {3, 4, -1}, {5, -5, -6}, {6}, {-2, -3}, {-4}])
AB6 = partition_from_blocks(6, [{1, 4}, {2, 3, -1, -5, -6}, {5, 6}, {-2, -3}, {-4}])


def test_worked_product():
    assert multiply(A6, B6) == AB6


def test_identity_element():
    p1 = partition_from_blocks(1, [{1, -1}])
    assert p1 == identity(1)
    h = PartitionMonoid(3)
    for a in h.elements():
        assert multiply(identity(3), a) == a
        assert multiply(a, identity(3)) == a


def test_finest_partition():
    z = partition_from_blocks(3, [{1}, {2}, {3}, {-1}, {-2}, {-3}])
    assert z.rank() == 0
    assert z.ntu() == z.ntd() == 3


def test_from_blocks_validation():
    with pytest.raises(BlockError, match="more than one block"):
        partition_from_blocks(2, [{1, 2}, {2, -1, -2}])
    with pytest.raises(BlockError, match="not covered"):
        partition_from_blocks(2, [{1, 2}, {-1}])
    with pytest.raises(BlockError, match="out of range"):
        partition_from_blocks(2, [{1, 2, 3}, {-1, -2}])
    with pytest.raises(DegreeError):
        partition_from_blocks(0, [])


def test_text_round_trip():
    assert A6.to_text() == "1 4; 2 3 4' 5'; 5 6; 1' 2' 6'; 3'"
    h = PartitionMonoid(3)
    for a in h.elements():
        assert partition_from_text(3, a.to_text()) == a


def blocks_text(a):
    """The text form by its definition: the blocks in first-occurrence
    order, points k and k' separated by spaces, blocks by semicolons."""
    return "; ".join(
        " ".join(str(p) if p > 0 else f"{-p}'" for p in block) for block in a.blocks()
    )


@pytest.mark.parametrize("h", [PartitionMonoid(4), BrauerMonoid(4)], ids=["P4", "B4"])
def test_text_matches_block_definition(h):
    for a in h.elements():
        assert a.to_text() == blocks_text(a)


def test_degree_mismatch():
    with pytest.raises(DegreeError):
        multiply(identity(2), identity(3))


def test_associativity_exhaustive_p2():
    els = PartitionMonoid(2).elements()
    for x in els:
        for y in els:
            xy = multiply(x, y)
            for z in els:
                assert multiply(xy, z) == multiply(x, multiply(y, z))


@pytest.mark.parametrize("n,samples", [(3, 10000), (4, 10000)])
def test_associativity_sampled(n, samples):
    els = PartitionMonoid(n).elements()
    rng = random.Random(0xD1A6 + n)
    for _ in range(samples):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_involution_axioms_p3():
    els = PartitionMonoid(3).elements()
    for a in els:
        assert involution(involution(a)) == a
        assert multiply(multiply(a, involution(a)), a) == a
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.choice(els), rng.choice(els)
        assert involution(multiply(a, b)) == multiply(involution(b), involution(a))


def test_involution_of_figure_element():
    expected = partition_from_blocks(
        6, [{-1, -4}, {-2, -3, 4, 5}, {-5, -6}, {1, 2, 6}, {3}]
    )
    assert involution(A6) == expected


def test_floats_worked_example():
    prod, phi = multiply_with_floats(A6, B6)
    assert prod == AB6 and phi == 1
    assert floating_components(A6, B6) == [frozenset({1, 2, 6})]


def test_floats_identity_and_singletons():
    assert multiply_with_floats(identity(4), identity(4))[1] == 0
    z = partition_from_blocks(2, [{1}, {2}, {-1}, {-2}])
    assert multiply_with_floats(z, z)[1] == 2


def test_phi_nonnegative_and_agrees():
    els2 = PartitionMonoid(2).elements()
    for a in els2:
        for b in els2:
            prod, phi = multiply_with_floats(a, b)
            assert phi >= 0 and prod == multiply(a, b)
    els = PartitionMonoid(3).elements()
    rng = random.Random(3)
    for _ in range(3000):
        a, b = rng.choice(els), rng.choice(els)
        prod, phi = multiply_with_floats(a, b)
        assert phi >= 0
        assert prod == multiply(a, b)


def _reference_product(a, b):
    """The product graph on 3n vertices, by union-find over points.

    Slots 0..n-1 are the top row, n..2n-1 the bottom row and 2n..3n-1 the
    middle row: a occupies top + middle, b middle + bottom.  Returns the
    product and its floating components.
    """
    if a.n != b.n:
        raise DegreeError(f"degree mismatch: {a.n} vs {b.n}")
    n = a.n
    parent = list(range(3 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(labels, upper, lower):
        first = {}
        for i, lab in enumerate(labels):
            slot = upper + i if i < n else lower + i - n
            if lab in first:
                parent[find(slot)] = find(first[lab])
            else:
                first[lab] = slot

    join(a.labels, 0, 2 * n)
    join(b.labels, 2 * n, n)
    roots = [find(x) for x in range(3 * n)]
    outer = set(roots[: 2 * n])
    comps = {}
    for i in range(n):
        r = roots[2 * n + i]
        if r not in outer:
            comps.setdefault(r, set()).add(i + 1)
    floats = sorted((frozenset(v) for v in comps.values()), key=sorted)
    return Partition(n, roots[: 2 * n]), floats


def _random_partition(rng, n):
    return Partition(n, [rng.randrange(2 * n) for _ in range(2 * n)])


def _reference_pairs():
    rng = random.Random(2024)
    for n in range(1, 6):
        for _ in range(1500):
            yield _random_partition(rng, n), _random_partition(rng, n)
    for h in (BrauerMonoid(4), TransformationMonoid(3)):
        els = h.elements()
        for _ in range(1500):
            yield rng.choice(els), rng.choice(els)


def test_products_match_reference_graph():
    for a, b in _reference_pairs():
        ref, floats = _reference_product(a, b)
        assert multiply(a, b).labels == ref.labels
        prod, phi = multiply_with_floats(a, b)
        assert prod.labels == ref.labels and phi == len(floats)
        assert floating_components(a, b) == floats


def test_products_reject_degree_mismatch():
    a, b = identity(3), identity(4)
    for fn in (_reference_product, multiply, multiply_with_floats, floating_components):
        with pytest.raises(DegreeError, match="degree mismatch: 3 vs 4"):
            fn(a, b)


def test_twisted_multiply():
    x = TwistedElement(0, A6)
    y = TwistedElement(0, B6)
    assert twisted_multiply(x, y) == TwistedElement(1, AB6)
    i4 = identity(4)
    assert twisted_multiply(TwistedElement(3, i4), TwistedElement(-3, i4)) == (
        TwistedElement(0, i4)
    )


def test_twisted_element_value_semantics():
    x, y = TwistedElement(0, A6), TwistedElement(shift=0, part=A6)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != TwistedElement(1, A6) and x != TwistedElement(0, B6)
    assert (x.shift, x.part) == (0, A6) and x == (0, A6)
    assert repr(x) == f"TwistedElement(shift=0, part={A6!r})"
    with pytest.raises(AttributeError):
        x.shift = 1


def test_twisted_associativity_sampled():
    els = PartitionMonoid(3).elements()
    rng = random.Random(11)
    for _ in range(4000):
        xs = [TwistedElement(rng.randint(-2, 2), rng.choice(els)) for _ in range(3)]
        left = twisted_multiply(twisted_multiply(xs[0], xs[1]), xs[2])
        right = twisted_multiply(xs[0], twisted_multiply(xs[1], xs[2]))
        assert left == right


def test_rank_dom_ker():
    assert A6.rank() == 1
    assert identity(4).rank() == 4
    assert identity(4).ntu() == identity(4).ntd() == 0
    for n in (2, 3, 4):
        for a in PartitionMonoid(n).elements():
            assert a.ntu() == len(a.ker()) - a.rank()
            assert a.ntd() == len(a.coker()) - a.rank()


def test_idempotent_examples():
    assert multiply(A6, A6) == A6 and multiply(B6, B6) == B6
    assert multiply(AB6, AB6) != AB6
    comps = idempotent_components(B6)
    assert {frozenset(c) for c, _ in comps} == {
        frozenset({1, 2, 3, 4}),
        frozenset({5, 6}),
    }
    assert idempotent_components(AB6) is None


def test_projection_ops():
    assert is_projection(identity(3))
    dp = d_projection(A6)
    assert dp.ker() == A6.ker() and dp.ntu() == 0 and is_projection(dp)
    assert multiply(dp, A6) == A6
    assert multiply(A6, r_projection(A6)) == A6


def test_rs7_star_conjugation_preserves_projections():
    h = PartitionMonoid(3)
    for p in h.projections():
        for a in h.elements():
            q = multiply(multiply(involution(a), p), a)
            assert is_projection(q)


def test_monoid_sizes():
    assert PartitionMonoid(3).size() == 203
    assert PartitionMonoid(4).size() == 4140
    assert TransformationMonoid(3).size() == 27
    assert BrauerMonoid(4).size() == 105
    assert len(PartitionMonoid(2).idempotents()) == 12


def test_enumeration_duplicate_free():
    for h in (PartitionMonoid(3), BrauerMonoid(3), TransformationMonoid(2)):
        els = h.elements()
        assert len(els) == len(set(els))


def test_brauer_blocks_size_two():
    for a in BrauerMonoid(3).elements():
        assert all(len(b) == 2 for b in a.blocks())


def test_transformation_elements_shape():
    for a in TransformationMonoid(3).elements():
        assert a.ntu() == 0  # full domain
        assert all(len(c) == 1 for c in a.coker())  # trivial cokernel


# sha256 of the labels of T_n's elements, in order, each from
# `transformation_partition`.
TRANSFORMATION_DIGESTS = {
    3: (27, "e7153c8e1106e3d1918d25a220da8d37060badba0ffb25202d2f6000ef6e6b56"),
    4: (256, "c1e6aced4d1876764cb7f7d204a941b6d404761be5cc6a71c2a2fc1d9c58748c"),
}


@pytest.mark.parametrize("n", TRANSFORMATION_DIGESTS)
def test_transformation_elements_are_pinned(n):
    elements = TransformationMonoid(n).elements()
    digest = hashlib.sha256()
    for a in elements:
        digest.update(f"{a.labels}\n".encode())
    assert (len(elements), digest.hexdigest()) == TRANSFORMATION_DIGESTS[n]


def test_degree_cap():
    with pytest.raises(DegreeError):
        PartitionMonoid(9)
    PartitionMonoid(9, allow_large=True)


def test_adjacency_semigroup():
    g = AdjacencySemigroup("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert g.size() == 10
    assert g.star(ADJ_ZERO) == ADJ_ZERO
    assert g.product(("a", "b"), ("b", "c")) == ("a", "c")
    gp = AdjacencySemigroup("abc", [("a", "b"), ("b", "c")])
    assert gp.product(("b", "a"), ("c", "a")) == ADJ_ZERO
    with pytest.raises(ValueError, match="connected"):
        AdjacencySemigroup("abcd", [("a", "b"), ("c", "d")])
    # The zero D-class, then the one non-zero class.
    assert g.rank(ADJ_ZERO) == 0 and g.rank(("a", "b")) == 1


def test_eq_helpers():
    s1 = frozenset({frozenset({1, 2}), frozenset({3})})
    s2 = frozenset({frozenset({1}), frozenset({2, 3})})
    assert eq_join(s1, s2, 3) == frozenset({frozenset({1, 2, 3})})
    assert eq_refines(s1, frozenset({frozenset({1, 2, 3})}))
    assert not eq_refines(s2, s1)


def test_partition_hash_and_order():
    a = partition_from_blocks(2, [{1, 2}, {-1, -2}])
    b = partition_from_text(2, "1 2; 1' 2'")
    assert a == b and hash(a) == hash(b)
    assert sorted([identity(2), a]) == sorted([a, identity(2)])


@pytest.mark.parametrize(
    "h",
    [PartitionMonoid(n) for n in (1, 2, 3, 4)] + [BrauerMonoid(n) for n in (2, 3, 4, 5)],
    ids=["P1", "P2", "P3", "P4", "B2", "B3", "B4", "B5"],
)
def test_label_projection_test_matches_products(h):
    """is_projection reads the canonical labels; the reference is a* = a
    and a a = a by products, and projections() keeps the element order."""
    reference = [a for a in h.elements() if involution(a) == a and multiply(a, a) == a]
    assert [a for a in h.elements() if is_projection(a)] == reference
    assert h.projections() == reference


@pytest.mark.parametrize(
    "h",
    [
        *(PartitionMonoid(n) for n in (1, 2, 3, 4)),
        *(BrauerMonoid(n) for n in (2, 3, 4, 5)),
        pytest.param(PartitionMonoid(5), marks=pytest.mark.slow),
        pytest.param(BrauerMonoid(6), marks=pytest.mark.slow),
    ],
    ids=["P1", "P2", "P3", "P4", "B2", "B3", "B4", "B5", "P5", "B6"],
)
def test_class_key_algebra_matches_products(h):
    """On every pair of projections, the handle's θ rows on class keys give
    p s p as products do, and p <= q, i.e. q p = p, is θ_q(p) = p; the keys
    are `projection_classes`, one per projection."""
    P = h.projections()
    assert h.projection_key is projection_classes
    K = [projection_classes(p) for p in P]
    assert len(set(K)) == len(P)
    index = {p: i for i, p in enumerate(P)}
    for q, row in zip(P, h.theta_rows(K, K)):
        assert row == [index[multiply(multiply(q, s), q)] for s in P]
        assert [row[i] == i for i in range(len(P))] == [multiply(q, p) == p for p in P]
