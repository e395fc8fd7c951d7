"""Graham-Houghton graphs, the named spanning trees, and exports."""

import dataclasses
import hashlib
import itertools
import math

import pytest

from diagfree import ghgraph
from diagfree.diagram import (
    AdjacencySemigroup,
    BrauerMonoid,
    PartitionMonoid,
    TransformationMonoid,
    partition_from_blocks,
    partition_projections,
    transformation_partition,
)
from diagfree.green import dclass_data
from diagfree.ghgraph import (
    GHGraph,
    build_gh_graph,
    e_p_edge,
    friendliness_tree,
    gh_to_dot,
    is_connected,
    p0_projections,
    p1_projections,
    spanning_tree_bfs,
    spanning_tree_with_projections,
    t_fc,
    t_fd,
    t_lex,
    t_pg,
    t_rank0,
    t_s,
    tree_scope,
    verify_spanning_tree,
)

P3 = PartitionMonoid(3)
P4 = PartitionMonoid(4)


def test_gh_tn_42_shape():
    d = dclass_data(TransformationMonoid(4), 2)
    g = build_gh_graph(d)
    assert g.n_left == 7 and g.n_right == 6
    assert len(g.edges) == 24  # brute-force count of rank-2 idempotent maps
    assert is_connected(g)


def test_connectivity_all_classes():
    for n in (2, 3, 4):
        h = PartitionMonoid(n)
        for r in range(n):
            assert is_connected(build_gh_graph(dclass_data(h, r)))


def test_bfs_tree_properties():
    d = dclass_data(P3, 1)
    g = build_gh_graph(d)
    t = spanning_tree_bfs(g)
    assert len(t) == g.n_left + g.n_right - 1
    assert verify_spanning_tree(g, t)


def test_bfs_tree_refuses_a_disconnected_graph():
    """A BFS that misses a vertex refuses the graph, whether the isolated
    vertex is the root or another one."""
    d = dclass_data(P3, 1)
    g = build_gh_graph(d)
    for isolated in (0, 1):
        cut = GHGraph(d, {ij: e for ij, e in g.edges.items() if ij[0] != isolated})
        assert not is_connected(cut)
        with pytest.raises(ValueError, match="graph is not connected"):
            spanning_tree_bfs(cut)


def test_bfs_depth_on_rank0_class():
    # the rank-0 friendliness is complete, so the BFS tree is a double star
    d = dclass_data(P3, 0)
    g = build_gh_graph(d)
    t = spanning_tree_bfs(g)
    depth = {("L", 0): 0}
    place = {e: pair for pair, e in d.e_of_pair.items()}
    edges = [place[e] for e in t.edges]
    frontier = [("L", 0)]
    while frontier:
        nxt = []
        for side, v in frontier:
            for (i, j) in edges:
                if side == "L" and i == v and ("R", j) not in depth:
                    depth[("R", j)] = depth[(side, v)] + 1
                    nxt.append(("R", j))
                if side == "R" and j == v and ("L", i) not in depth:
                    depth[("L", i)] = depth[(side, v)] + 1
                    nxt.append(("L", i))
        frontier = nxt
    assert len(depth) == g.n_left + g.n_right
    assert max(depth.values()) <= 2


def test_lex_cross_section_example():
    blocks = [[1, 2], [3, 4]]
    assert [min(b) for b in blocks] == [1, 3]


def idempotent_transformation(n, blocks, image):
    """e_{V,C}: maps each block V_i to its chosen cross-section point c_i."""
    images = [0] * n
    for block, c in zip(blocks, image):
        for x in block:
            images[x - 1] = c
    return transformation_partition(n, images)


def test_t_lex_42_is_figure_tree():
    t = t_lex(4, 2)
    red = {
        ((1,), (2, 3, 4)): (1, 2),
        ((1, 2), (3, 4)): (1, 3),
        ((1, 2, 3), (4,)): (1, 4),
        ((1, 2, 4), (3,)): (1, 3),
        ((1, 3), (2, 4)): (1, 2),
        ((1, 3, 4), (2,)): (1, 2),
        ((1, 4), (2, 3)): (1, 2),
    }
    blue = {
        (1, 2): ((1,), (2, 3, 4)),
        (1, 3): ((1,), (2, 3, 4)),
        (1, 4): ((1,), (2, 3, 4)),
        (2, 3): ((1, 2), (3, 4)),
        (2, 4): ((1, 2), (3, 4)),
        (3, 4): ((1, 2, 3), (4,)),
    }
    expected = set()
    for v, c in red.items():
        blocks = [list(b) for b in v]
        image = [min(b) for b in blocks]
        assert tuple(sorted(image)) == c
        expected.add(idempotent_transformation(4, blocks, image))
    for c, v in blue.items():
        blocks = [list(b) for b in v]
        image = sorted(c)
        expected.add(idempotent_transformation(4, blocks, image))
    assert set(t.edges) == expected
    assert len(t) == 12


def test_t_lex_31_size():
    t = t_lex(3, 1)
    # |I| = S(3,1) = 1, |J| = C(3,1) = 3 so a spanning tree has 3 edges
    assert len(t) == 3
    g = build_gh_graph(dclass_data(P3, 1))
    assert verify_spanning_tree(g, t)


def test_t_lex_range_errors():
    with pytest.raises(ValueError):
        t_lex(3, 2)
    with pytest.raises(ValueError):
        t_lex(3, 0)
    with pytest.raises(ValueError):
        t_rank0(1)


def test_e_p_edge_example():
    # p with transversal classes {1}, {2} and one upper block {3, 4}
    p = partition_from_blocks(4, [[1, -1], [2, -2], [3, 4], [-3, -4]])
    e = e_p_edge(p)
    expected = partition_from_blocks(4, [{1, 3, 4, -1}, {2, -2}, {-3, -4}])
    assert e == expected
    from diagfree.biorder import label

    assert label(e) == (0, 1)


def _e_p_edge_blocks(p):
    """The full-domain idempotent of a projection with an upper block, made
    block by block: the upper blocks join the transversal class with the
    least minimum, and reappear below as lower blocks."""
    trans, upper = [], []
    for b in p.blocks():
        tops = sorted(x for x in b if x > 0)
        if tops:
            (trans if min(b) < 0 else upper).append(tops)
    a1, *rest = sorted(trans, key=min)
    blocks = [a1 + [x for b in upper for x in b] + [-x for x in a1]]
    blocks += [a + [-x for x in a] for a in rest]
    blocks += [[-x for x in b] for b in upper]
    return partition_from_blocks(p.n, blocks)


def test_e_p_edge_matches_the_block_construction():
    """e_p_edge(p) = q p equals the block construction on every projection
    of rank >= 1 with an upper non-transversal block, n <= 5: one per set
    partition of [n] into k blocks and proper non-empty subset of them
    made transversal."""
    for n in range(2, 6):
        ps = [p for p in partition_projections(n) if p.rank() >= 1 and p.ntu() >= 1]
        assert len(ps) == sum(_stirling2(n, k) * (2**k - 2) for k in range(n + 1))
        for p in ps:
            assert e_p_edge(p) == _e_p_edge_blocks(p), p


def test_t_fd_labels_are_trivial():
    from diagfree.biorder import label

    for e in t_fd(4, 2).edges:
        assert label(e) == (0, 1)


def test_t_fd_t_fc_verify():
    for (n, r) in ((4, 1), (4, 2), (3, 1)):
        d = dclass_data(PartitionMonoid(n), r)
        g = build_gh_graph(d)
        assert verify_spanning_tree(g, t_fd(n, r))
        assert verify_spanning_tree(g, t_fc(n, r))


def test_t_fd_union_t_fc_two_components():
    n, r = 4, 2
    d = dclass_data(P4, r)
    g = build_gh_graph(d)
    union = set(t_fd(n, r).edges) | set(t_fc(n, r).edges)
    # count components of the union on the full vertex set
    nl = g.n_left
    place = {e: pair for pair, e in d.e_of_pair.items()}
    adj = {}
    for e in union:
        i, j = place[e]
        j += nl
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    seen = set()
    comps = 0
    for v in range(nl + g.n_right):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    assert comps == 2


def test_t_s_all_choices():
    d = dclass_data(P4, 2)
    g = build_gh_graph(d)
    choices = p0_projections(4, 2)
    assert len(choices) == 7  # one per partition of [4] into two blocks
    for s in choices:
        assert verify_spanning_tree(g, t_s(4, 2, s))
    with pytest.raises(ValueError):
        t_s(4, 2, p1_projections(4, 2)[0])


def test_t_pg_contains_projections_and_spans():
    d = dclass_data(P3, 1)
    g = build_gh_graph(d)
    t = t_pg(3, 1)
    assert set(d.projections) <= set(t.edges)
    assert verify_spanning_tree(g, t)


def test_t_rank0():
    for n in (2, 3):
        d = dclass_data(PartitionMonoid(n), 0)
        g = build_gh_graph(d)
        t = t_rank0(n)
        for e in t.edges:
            assert len(e.ker()) == 1 or len(e.coker()) == 1
        assert verify_spanning_tree(g, t)


def test_spanning_tree_with_projections():
    d = dclass_data(P4, 3)
    g = build_gh_graph(d)
    t = spanning_tree_with_projections(g)
    assert set(d.projections) <= set(t.edges)
    assert verify_spanning_tree(g, t)


def test_cycle_rank_nonnegative():
    for (n, r) in ((3, 1), (3, 0), (4, 3)):
        d = dclass_data(PartitionMonoid(n), r)
        g = build_gh_graph(d)
        assert len(g.edges) - g.n_left - g.n_right + 1 >= 0


def test_friendliness_tree():
    d = dclass_data(P3, 1)
    edges = friendliness_tree(d, 0)
    assert len(edges) == len(d.projections) - 1
    children = {c for (_p, c) in edges}
    assert len(children) == len(edges)  # a tree reaches each vertex once
    assert 0 not in children


def test_friendliness_tree_refuses_a_disconnected_digraph():
    """With every friendly pair of projection 0 dropped but (0, 0), the
    walk from 0 reaches no other projection."""
    d = dclass_data(P3, 1)
    kept = {ij: e for ij, e in d.e_of_pair.items() if 0 not in ij or ij == (0, 0)}
    cut = dataclasses.replace(d, e_of_pair=kept)
    with pytest.raises(ValueError, match="friendliness digraph is not connected"):
        friendliness_tree(cut, 0)


C4 = AdjacencySemigroup("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
PATH = AdjacencySemigroup("abc", [("a", "b"), ("b", "c")])
WALK_HANDLES = {
    **{f"P{n}": PartitionMonoid(n) for n in (2, 3, 4, 5)},
    **{f"B{n}": BrauerMonoid(n) for n in (3, 4, 5, 6)},
    "T3": TransformationMonoid(3),
    "T4": TransformationMonoid(4),
    "C4": C4,
    "path": PATH,
}

# sha256 of the walks of each class: the texts of its BFS tree's edges in
# their returned order, then, for a class with projections, the pairs of
# friendliness_tree(d, 0) in the order the walk finds them.
WALK_DIGESTS = {
    ("P2", 0): "86196bdbb8ce4ccc95afd916112adc5f3d663fecda13c43e58144072f7b48b07",
    ("P2", 1): "3fbad39927c42ded547feefe97552cf55421fcfa9e1cecbc0da4c111aa7ccdec",
    ("P2", 2): "93b4e3480b19510fbdceb78dd78e4fe8f5466edab7c280fba63ce485a7a41040",
    ("P3", 0): "4cb50d4783699264adceba9aec57c7454f02ca30598efdb2a4d0fbc06817c056",
    ("P3", 1): "c805fdbbdab848e73282596148f62c8207b73d6c066adf65cc74f17c02e96ec8",
    ("P3", 2): "9f90ec602e46d22f44b089692480a67331811ec4ebb34b73567b063b4c1bf4ac",
    ("P3", 3): "4741764ba812084654869819defbda7b5bd256888867811eae078a4591dd8246",
    ("P4", 0): "5ee6001862f452b679e270b4c96a76607a583fd8ae0d211293c6f33dcb29abc4",
    ("P4", 1): "0189ebdcfff494f13f21d171b4a984f060c666a901fd59f85335b746249a297b",
    ("P4", 2): "5889feddcdf7d62fcacd910914c38a0e04b1be6353b60df8dd6a31ef66f34daf",
    ("P4", 3): "e1d3f4aeb679c9e6978bb97f2d2e14c9b97832c72d0fcf547d879b5e1d565f5c",
    ("P4", 4): "13f5ebde58e048fc95d8108a9029f2544572350c3c4ee4cf4c8079328915e170",
    ("P5", 0): "3983423774db233d5ee26f841f068ea54574025ce810e1eb36f5d3d589c32f3f",
    ("P5", 1): "2f2f794fee810257e8a5c9cfc83024f43ecc37f57995f6a531d30c9747ac952f",
    ("P5", 2): "c05da850ec1e124faca3b4cdf6dfd5214bd81e7a896b7d034d5ab117c3bb23c8",
    ("P5", 3): "f0a21d79b60cf9c528a606473758e81644d52d3f82cd51a83f2e05f189b9d4b9",
    ("P5", 4): "27787bddf3c343715f28a22c5064264a9a31b6dd5a494e5083d1719d87358cb0",
    ("P5", 5): "69ed9e153bfdd1c232e946b74117424d88bc894de8ef7e9b40e6ccd224fe9a7b",
    ("B3", 1): "939c9bee08c4c843cc63b45ab158cd9b087293d8f1b0002baad52d1e1c659a40",
    ("B3", 3): "4741764ba812084654869819defbda7b5bd256888867811eae078a4591dd8246",
    ("B4", 0): "e040d64a013f5d62f2c96cda8dde5bf15f70be862051ae8f4eb31d230f6a48e4",
    ("B4", 2): "1c5547c70ef0b88ca6e03a0caeff1dd63cbe2552d2b264ba372e4fe0b4fa418e",
    ("B4", 4): "13f5ebde58e048fc95d8108a9029f2544572350c3c4ee4cf4c8079328915e170",
    ("B5", 1): "ea6198baaedb96588df83aa502ee92157a1d69f0ffb1148843d4a434f312af72",
    ("B5", 3): "25ca70ef32777725d3cd466b2d8ce485f9c57db41c70e9d63d059e2741d909b0",
    ("B5", 5): "69ed9e153bfdd1c232e946b74117424d88bc894de8ef7e9b40e6ccd224fe9a7b",
    ("B6", 0): "8637cc79d04d7212e1d037ce255032303733db7bcc7ea77668cf9aa82a17bc20",
    ("B6", 2): "16f5169fa0197245bd19349f83ec8a1b3de8b223f564779458dec1aded8cd9f8",
    ("B6", 4): "a4a8e36e4f5e81a59e86d73f64fa88e2d2a6202b7f4671c96e1da6be1236bc14",
    ("B6", 6): "c268ec626734f23acbc4579be4f2eed851394ab4410f142c24b9a6f6a6d6a76a",
    ("T3", 1): "16dd7e2446aca88eb44a2792585013480213ce4060a01cd51ef2543f5831f941",
    ("T3", 2): "7d248f57968fc6d99c7f805dfb7ebe98135c751e6123a3a1db87d8ce1e08928e",
    ("T3", 3): "4741764ba812084654869819defbda7b5bd256888867811eae078a4591dd8246",
    ("T4", 1): "9a2e4a88bbce0ddb38d65456e8ebb947aeaf3e8519fa8ca72b300cbffff54d17",
    ("T4", 2): "2bd8f52b3063572702ae0a527f23dbddb7f8ea8d738f0f997e5b15506f83ce5c",
    ("T4", 3): "a26fe5a2c14b66420ae29e2dba6cc811d29de42a7bfe77d829d8ff394b5588c1",
    ("T4", 4): "13f5ebde58e048fc95d8108a9029f2544572350c3c4ee4cf4c8079328915e170",
    ("C4", 0): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("C4", 1): "8d42d7d973e9f97acec12f7bd74125821a4af727f887a506ea6cb2aeb4c9a0ad",
    ("path", 0): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    ("path", 1): "debd76b174b5e8225da718c3e09b625090d54c4af17521ea4ef3af54707ea01c",
}


def test_walks_cover_every_class():
    for name, h in WALK_HANDLES.items():
        ranks = [0, 1] if isinstance(h, AdjacencySemigroup) else h.ranks()
        assert sorted(r for key, r in WALK_DIGESTS if key == name) == ranks


@pytest.mark.parametrize("name, r", WALK_DIGESTS, ids=[f"{k}r{r}" for k, r in WALK_DIGESTS])
def test_walks_are_pinned(name, r):
    h = WALK_HANDLES[name]
    d = dclass_data(h, r)
    digest = hashlib.sha256()
    for e in spanning_tree_bfs(build_gh_graph(d)).edges:
        digest.update(f"{h.text(e)}\n".encode())
    if h.has_star:
        for pair in friendliness_tree(d, 0):
            digest.update(f"{pair}\n".encode())
    assert digest.hexdigest() == WALK_DIGESTS[name, r]


def _stirling2(n, k):
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _set_partitions(n):
    """The set partitions of [n], as the kernels of all maps [n] -> [n]:
    each a tuple of blocks, each block a sorted tuple, blocks by minimum."""
    kernels = set()
    for images in itertools.product(range(n), repeat=n):
        blocks = {}
        for x, y in enumerate(images, 1):
            blocks.setdefault(y, []).append(x)
        kernels.add(tuple(sorted(tuple(b) for b in blocks.values())))
    return sorted(kernels)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_projection_strata_counts(n):
    """|P_0(n, r)| = S(n, r): a projection with no upper non-transversal
    block is fixed by its kernel.  |P_{n-r}(n, r)| = C(n, r): one with n - r
    is fixed by its domain.  T_rank0 has an edge with one upper block and
    one with one lower block per set partition of [n], the one-block
    partition giving the same edge twice."""
    for r in range(n + 1):
        assert len(ghgraph._projections_by_stratum(n, r, 0)) == _stirling2(n, r)
        assert len(ghgraph._projections_by_stratum(n, r, n - r)) == math.comb(n, r)
    bell = sum(_stirling2(n, k) for k in range(n + 1))
    assert len(t_rank0(n)) == 2 * bell - 1


@pytest.mark.parametrize("n", (3, 4, 5))
def test_lex_and_rank0_trees_match_an_independent_enumeration(n):
    """T_lex: each kernel with r classes maps every class to its least
    point, and each r-set C = {c_1 < ... < c_r} is the image of the map
    sending [1, c_1], (c_1, c_2], ..., (c_{r-1}, n] to c_1, ..., c_r.
    T_rank0: each set partition of [n] over a single block of the other
    row, either way up."""
    partitions = _set_partitions(n)
    for r in range(1, n - 1):
        want = set()
        for blocks in partitions:
            if len(blocks) == r:
                images = [0] * n
                for b in blocks:
                    for x in b:
                        images[x - 1] = b[0]
                want.add(transformation_partition(n, images))
        for c in itertools.combinations(range(1, n + 1), r):
            images = [min((ci for ci in c if ci >= x), default=c[-1]) for x in range(1, n + 1)]
            want.add(transformation_partition(n, images))
        assert set(t_lex(n, r).edges) == want
    points = list(range(1, n + 1))
    want = set()
    for blocks in partitions:
        want.add(partition_from_blocks(n, [[-x for x in points], *blocks]))
        want.add(partition_from_blocks(n, [points, *([-x for x in b] for b in blocks)]))
    assert set(t_rank0(n).edges) == want


# sha256 of the named P_n trees' edge labels at each degree n: T_rank0, then
# T_lex, T_fd, T_fc, T_s (over the first P_0 projection) and T_pg at each
# 1 <= r <= n-2, pinned on the block-by-block constructions the products
# replaced.
TREE_DIGESTS = {
    3: "de001d17ce37a99064ed46c71b78eb8d6c94f8b093767ea0582c1dbd6507a9a7",
    4: "778a8489ba356a5939b813d394959f498dd0a15b0e44f8f5665dd544ecc5a663",
    5: "a9ca7babacb54a0f012a6db57191d051c4c691608eea21b38764833be32c9ad3",
    6: "9e3604e0f903161df52abc132f47b126a847a489359bc2fa1be6ee9559721fbb",
    7: "a4210ed647d9536f0cc3a8fb0dcfd0af48d060679a4c9ad41148b004937542f0",
}


@pytest.mark.parametrize("n", (3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)))
def test_named_trees_are_pinned(n):
    trees = [t_rank0(n)]
    for r in range(1, n - 1):
        s = p0_projections(n, r)[0]
        trees += [t_lex(n, r), t_fd(n, r), t_fc(n, r), t_s(n, r, s), t_pg(n, r)]
    digest = hashlib.sha256()
    for t in trees:
        digest.update(f"{t.kind} {[e.labels for e in t.edges]}\n".encode())
    assert digest.hexdigest() == TREE_DIGESTS[n]


def test_dot_export():
    d = dclass_data(P3, 2)
    g = build_gh_graph(d)
    t = spanning_tree_bfs(g)
    dot = gh_to_dot(g, t)
    assert dot.startswith("graph gh {") and dot.count("--") == len(g.edges)
    assert dot.count("color=red") == len(t.edges)


def test_tree_scope_resolution():
    """T_lex spans the full-domain rows against the full-image columns,
    T_fd those rows against every column with an upper non-transversal
    block, and T_fc is T_fd's mirror image."""
    for n, r in ((4, 2), (5, 2)):
        d = dclass_data(PartitionMonoid(n), r)
        g = build_gh_graph(d)
        ntu = [p.ntu() for p in d.projections]
        full = {i for i, k in enumerate(ntu) if k == 0}
        some = {i for i, k in enumerate(ntu) if k >= 1}
        assert tree_scope(g, t_lex(n, r)) == (full, {j for j, k in enumerate(ntu) if k == n - r})
        assert tree_scope(g, t_fd(n, r)) == (full, some)
        assert tree_scope(g, t_fc(n, r)) == (some, full)
        assert t_fc(n, r).scope == t_fd(n, r).scope[::-1]
        for t in (t_lex(n, r), t_fd(n, r), t_fc(n, r)):
            assert verify_spanning_tree(g, t)


def test_rank_projections_built_once_per_class(monkeypatch):
    """A PG and an IG build at (P_4, 2), with their hints, generate P(P_4)
    once: T_pg, T_s and the P_0 and P_1 lists read one memoised tuple of
    rank-2 projections, where each would otherwise make its own."""
    from diagfree import ghgraph
    from diagfree.biorder import enumerate_singular_squares
    from diagfree.groupid import subgroup_hints
    from diagfree.present import subgroup_presentation

    calls = 0
    generate = ghgraph.partition_projections

    def counted(n):
        nonlocal calls
        calls += 1
        return generate(n)

    monkeypatch.setattr(ghgraph, "partition_projections", counted)
    ghgraph._rank_projections.cache_clear()
    d = dclass_data(P4, 2)
    squares = enumerate_singular_squares(d)
    for family in ("pg", "ig"):
        subgroup_presentation(d, family, squares=squares)
        subgroup_hints(d, family)
    assert calls == 1
    assert ghgraph._rank_projections(4, 2) == tuple(
        p for p in generate(4) if p.rank() == 2
    )
