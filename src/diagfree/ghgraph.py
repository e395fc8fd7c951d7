"""Graham-Houghton graphs of regular D-classes and the named spanning trees.

The graph of a D-class is bipartite on the R-class indices I and L-class
indices J (two copies of the projection list for star handles); its edges
are the idempotents of the class.  Tree constructors return TreeSet values
whose edges are monoid elements; `verify_spanning_tree` certifies spanning
either of the full graph or of a stated induced subgraph.  Each edge of a
named P_n tree is the product p q of a friendly pair: p indexes its row
and q its column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable

from .diagram import (
    Partition,
    PartitionMonoid,
    bfs_edges,
    full_domain_projection,
    involution,
    is_projection,
    multiply,
    partition_projections,
)
from .green import DClassData


@dataclass
class GHGraph:
    dclass: DClassData
    edges: dict[tuple[int, int], Any]  # (i, j) -> idempotent

    @property
    def n_left(self) -> int:
        return len(self.dclass.projections)

    @property
    def n_right(self) -> int:
        return len(self.dclass.lreps)


@dataclass
class TreeSet:
    kind: str
    edges: list  # idempotents, canonical order
    # None for a tree of the whole graph; for a tree of an induced subgraph,
    # the NTu values of the projections indexing its rows and its columns
    scope: tuple[set[int], set[int]] | None = None

    def __len__(self) -> int:
        return len(self.edges)


def build_gh_graph(d: DClassData) -> GHGraph:
    return GHGraph(d, dict(d.e_of_pair))


def _forest(size: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The positions of the edges (a, b) in `pairs` that join two
    components of the edges before them: a spanning forest of the vertices
    0 .. size - 1 grown in list order by union-find.  It has size - 1
    positions exactly when the edges connect the vertices, and every
    position exactly when they close no cycle.  On a Graham-Houghton graph
    left i is vertex i and right j is vertex n_left + j."""
    root = list(range(size))
    taken = []
    for pos, (a, b) in enumerate(pairs):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[b] = a
            taken.append(pos)
    return taken


def is_connected(g: GHGraph) -> bool:
    total = g.n_left + g.n_right
    fused = ((i, g.n_left + j) for i, j in g.edges)
    return total > 0 and len(_forest(total, fused)) == total - 1


def spanning_tree_bfs(g: GHGraph) -> TreeSet:
    """The `bfs_edges` tree of the full graph, rooted at left 0, in
    canonical edge order.  Left i is vertex i and right j is vertex
    n_left + j; each vertex tries its neighbours in sorted edge order."""
    nl = g.n_left
    adj: list[list[int]] = [[] for _ in range(nl + g.n_right)]
    for i, j in sorted(g.edges):
        adj[i].append(nl + j)
        adj[nl + j].append(i)
    tree = bfs_edges(adj.__getitem__, 0)
    if len(tree) != len(adj) - 1:
        raise ValueError("graph is not connected")
    edges = [g.edges[(v, w - nl) if v < nl else (w, v - nl)] for v, w in tree]
    edges.sort(key=g.dclass.handle.sort_key)
    return TreeSet("generic", edges)


def spanning_tree_with_projections(g: GHGraph) -> TreeSet:
    """A spanning tree of the full graph containing every projection edge.

    The projection edges (i_p, j_p) form a perfect matching between the two
    sides, so greedily extending them in canonical edge order cannot create
    a cycle before the graph is spanned.
    """
    d = g.dclass
    if not d.handle.has_star:
        raise ValueError("requires a projection-indexed D-class")
    nl = g.n_left
    pairs = [(i, i) for i in range(nl)] + sorted(g.edges)
    if any(pair not in g.edges for pair in pairs[:nl]):
        raise ValueError("graph lacks a projection edge")
    taken = _forest(nl + g.n_right, [(i, nl + j) for i, j in pairs])
    if len(taken) != nl + g.n_right - 1:
        raise ValueError("graph is not connected")
    edges = sorted((g.edges[pairs[k]] for k in taken), key=d.handle.sort_key)
    return TreeSet("generic-with-projections", edges)


def tree_scope(g: GHGraph, t: TreeSet) -> tuple[set[int], set[int]]:
    """The vertex scope a tree states, as (left, right) index sets: the
    whole graph, or the rows and columns whose projections have the NTu
    values in t.scope."""
    if t.scope is None:
        return set(range(g.n_left)), set(range(g.n_right))
    rows, cols = t.scope
    ntu = [p.ntu() for p in g.dclass.projections]
    return (
        {i for i, k in enumerate(ntu) if k in rows},
        {j for j, k in enumerate(ntu) if k in cols},
    )


def verify_spanning_tree(g: GHGraph, t: TreeSet) -> bool:
    """Edge membership, then the tree test on the stated scope (full graph,
    or the induced subgraph the tree kind claims): |V| - 1 edges inside the
    scope that close no cycle."""
    place = {e: pair for pair, e in g.edges.items()}
    pairs = [place.get(e) for e in t.edges]
    left, right = tree_scope(g, t)
    if any(pair is None or pair[0] not in left or pair[1] not in right for pair in pairs):
        return False
    size = len(left) + len(right)
    fused = [(i, g.n_left + j) for i, j in pairs]
    return len(pairs) == size - 1 and len(_forest(g.n_left + g.n_right, fused)) == size - 1


# -- named trees for the partition monoid -------------------------------------


def _lex_kernel(c: frozenset[int], n: int) -> frozenset[frozenset[int]]:
    """The least partition of [n] that c = {c_1 < ... < c_r} crosses:
    [1, c_1], (c_1, c_2], ..., (c_{r-1}, n]."""
    cuts = [0, *sorted(c)[:-1], n]
    return frozenset(frozenset(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]))


def _tree(
    kind: str, edges: Iterable[Partition], scope: tuple[set[int], set[int]] | None = None
) -> TreeSet:
    """A named tree with its edges in label order."""
    return TreeSet(kind, sorted(edges, key=lambda e: e.labels), scope)


def t_lex(n: int, r: int) -> TreeSet:
    """Spanning tree of the transformation part of the rank-r class.

    Each projection p of P_0(n, r), with kernel V, times the projection of
    P_{n-r}(n, r) whose domain is the set of minima of V's classes: the map
    of each class onto its least point.  Each projection q of P_{n-r}(n, r),
    with domain C, after the projection of P_0(n, r) whose kernel is the
    least partition C crosses.  The base idempotent is listed by both.
    """
    if not (1 <= r <= n - 2):
        raise ValueError("t_lex requires 1 <= r <= n-2")
    by_ker = {p.ker(): p for p in _projections_by_stratum(n, r, 0)}
    by_dom = {q.dom(): q for q in _projections_by_stratum(n, r, n - r)}
    edges = {multiply(p, by_dom[frozenset(map(min, v))]) for v, p in by_ker.items()}
    edges.update(multiply(by_ker[_lex_kernel(c, n)], q) for c, q in by_dom.items())
    return _tree("T_lex", edges, ({0}, {n - r}))


def e_p_edge(p: Partition) -> Partition:
    """Full-domain idempotent q p attached to a projection p with an upper
    block, where q is the full-domain projection whose kernel merges p's
    upper blocks into p's transversal class with the least minimum: that
    class takes in the upper blocks, which reappear below as lower blocks."""
    dom = p.dom()
    kept = [c for c in p.ker() if c <= dom and min(dom) not in c]
    merged = set(range(1, p.n + 1)).difference(*kept)
    return multiply(full_domain_projection(p.n, [merged, *kept]), p)


def _projections_by_stratum(n: int, r: int, k: int) -> list[Partition]:
    """P_k(n, r): projections of rank r with exactly k upper non-transversal
    blocks."""
    return [p for p in _rank_projections(n, r) if p.ntu() == k]


def t_fd(n: int, r: int) -> TreeSet:
    """t_lex extended by the absorbing edges of every projection with
    between 1 and n-r-1 upper blocks; spans full-domain rows against all
    columns except the full-codomain ones."""
    if not (1 <= r <= n - 2):
        raise ValueError("t_fd requires 1 <= r <= n-2")
    edges = set(t_lex(n, r).edges)
    edges.update(e_p_edge(p) for p in _rank_projections(n, r) if 0 < p.ntu() < n - r)
    return _tree("T_fd", edges, ({0}, set(range(1, n - r + 1))))


@functools.cache
def _rank_projections(n: int, r: int) -> tuple[Partition, ...]:
    """The rank-r projections of P_n, built once per (n, r): the trees and
    the P_0 and P_1 lists of one class all read them."""
    return tuple(p for p in partition_projections(n) if p.rank() == r)


def t_fc(n: int, r: int) -> TreeSet:
    """The mirror image of t_fd: full-codomain columns against all rows
    except the full-domain ones."""
    fd = t_fd(n, r)
    return _tree("T_fc", map(involution, fd.edges), fd.scope[::-1])


def t_s(n: int, r: int, s: Partition) -> TreeSet:
    """t_fd + t_fc joined by a single full-(co)domain projection s."""
    if not (1 <= r <= n - 2):
        raise ValueError("t_s requires 1 <= r <= n-2")
    if not (s.n == n and s.rank() == r and s.ntu() == 0 and is_projection(s)):
        raise ValueError("s must be a full-domain projection of rank r")
    fd = t_fd(n, r).edges
    return _tree("T_s", set(fd) | {involution(e) for e in fd} | {s})


def t_pg(n: int, r: int) -> TreeSet:
    """t_fd together with every projection of the class; contains P_D."""
    if not (1 <= r <= n - 2):
        raise ValueError("t_pg requires 1 <= r <= n-2")
    return _tree("T_pg", set(t_fd(n, r).edges).union(_rank_projections(n, r)))


def t_rank0(n: int) -> TreeSet:
    """All rank-0 idempotents with a single upper or a single lower block:
    p q_1 and q_1 p for each rank-0 projection p, where q_1 is the one
    whose kernel has a single class."""
    if n < 2:
        raise ValueError("t_rank0 requires n >= 2")
    (q1,) = _projections_by_stratum(n, 0, 1)
    ps = _rank_projections(n, 0)
    return _tree("T_rank0", {multiply(p, q1) for p in ps} | {multiply(q1, p) for p in ps})


def p0_projections(n: int, r: int) -> list[Partition]:
    return _projections_by_stratum(n, r, 0)


def p1_projections(n: int, r: int) -> list[Partition]:
    return _projections_by_stratum(n, r, 1)


# The kinds `named_tree` takes: trees of the whole Graham-Houghton graph,
# which presentations need, and trees of induced subgraphs.
SPANNING_TREES = ("auto", "bfs", "s", "pg", "rank0")
INDUCED_TREES = ("lex", "fd", "fc")


def named_tree(d: DClassData, kind: str = "auto") -> TreeSet:
    """The tree `kind` of d's Graham-Houghton graph: bfs, s (T_s over the
    first P_0 projection), pg (contains P_D: T_pg at 1 <= r <= n-2, else
    the projection tree), rank0, the induced lex, fd and fc, or auto:
    T_rank0 at rank 0 (bfs on P_1), T_s at 1 <= r <= n-2, bfs above.
    T_s, T_pg, T_rank0, lex, fd and fc are built only for P_n: on every
    other handle auto is bfs, pg the projection tree, and the others are
    refused; so are s and rank0 at ranks they do not span."""
    n, r = getattr(d.handle, "n", None), d.rank
    pn = isinstance(d.handle, PartitionMonoid)
    if kind == "auto":
        if not pn or n < 2:
            kind = "bfs"
        elif r == 0:
            kind = "rank0"
        else:
            kind = "s" if r <= n - 2 else "bfs"
    if kind in ("lex", "fd", "fc", "s", "rank0") and not pn:
        raise ValueError(
            f"--tree {kind} is a partition monoid tree; {d.handle.describe()} has none"
        )
    if kind == "bfs":
        return spanning_tree_bfs(build_gh_graph(d))
    if kind == "pg":
        if pn and 1 <= r <= n - 2:
            return t_pg(n, r)
        return spanning_tree_with_projections(build_gh_graph(d))
    if kind == "s":
        if not 1 <= r <= n - 2:
            raise ValueError("t_s requires 1 <= r <= n-2")
        return t_s(n, r, p0_projections(n, r)[0])
    if kind == "rank0":
        if r != 0:
            raise ValueError("t_rank0 requires rank 0")
        return t_rank0(n)
    induced = {"lex": t_lex, "fd": t_fd, "fc": t_fc}
    if kind in induced:
        return induced[kind](n, r)
    raise ValueError(f"unknown tree kind {kind!r}")


def friendliness_tree(d: DClassData, root: int = 0) -> list[tuple[int, int]]:
    """Directed BFS spanning tree of the friendliness digraph, rooted at
    the projection with the given index; edges point away from the root.
    Each projection tries its friends in `row_cols` order."""
    out = bfs_edges(d.row_cols.__getitem__, root)
    if len(out) != len(d.projections) - 1:
        raise ValueError("friendliness digraph is not connected")
    return out


# -- exports -------------------------------------------------------------------


def gh_to_dot(g: GHGraph, tree: TreeSet | None = None) -> str:
    """DOT rendering with tree edges coloured."""
    d = g.dclass
    h = d.handle
    tree_edges = set(tree.edges) if tree is not None else set()
    lines = ["graph gh {", "  rankdir=TB;", "  node [shape=box, fontsize=9];"]
    for i, p in enumerate(d.projections):
        label = h.text(p) if d.handle.has_star else str(p)
        lines.append(f'  L{i} [label="R: {_dot_escape(label)}"];')
    for j, q in enumerate(d.lreps):
        label = h.text(q) if d.handle.has_star else str(q)
        lines.append(f'  R{j} [label="L: {_dot_escape(label)}"];')
    for (i, j) in sorted(g.edges):
        e = g.edges[(i, j)]
        style = ' [color=red, penwidth=2]' if e in tree_edges else ""
        lines.append(f"  L{i} -- R{j}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(s) -> str:
    return str(s).replace('"', '\\"')
