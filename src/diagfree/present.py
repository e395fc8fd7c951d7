"""Group presentations for the maximal subgroups, semigroup presentation
documents, and deterministic Tietze simplification.

Words over a presentation's generators are tuples of signed 1-based
indices: +k is generator k-1, -k its inverse.  Relators are freely
reduced.  Generator names are keyed by the canonical text form of the
indexing idempotent (or projection pair), so presentations are
byte-for-byte reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .biorder import (
    LinkedDiamond,
    SquareEntry,
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    linked_triangles,
)
from . import ghgraph
from .diagram import FiniteStarSemigroup
from .green import DClassData, sandwich_set

Word = tuple[int, ...]


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def gen_index(self, name: str) -> int:
        return self.generators.index(name)


def free_reduce(w: Sequence[int]) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    return _cyclic_strip(free_reduce(w))


def _cyclic_strip(w: Sequence[int]) -> Word:
    """The cyclic reduction of a freely reduced word."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return tuple(w[i : j + 1])


def invert_word(w: Sequence[int]) -> Word:
    return tuple([-x for x in reversed(w)])


def relator_key(w: Word) -> Word:
    """Canonical form up to rotation and inversion, for deduplication."""
    w = cyclic_reduce(w)
    return _rotation_key(w) if w else ()


def _rotation_key(w: Word) -> Word:
    """The least rotation of w or of its inverse; w is cyclically reduced
    and not empty.  Only a rotation that starts with the least letter m can
    be least.  m is min(w) or the inverse of max(w); the inverse word
    contains m only when -m occurs in w, and is built only then."""
    lo = min(w)
    hi = max(w)
    if lo + hi < 0:
        m, words = lo, (w,)
    elif lo + hi > 0:
        m, words = -hi, (invert_word(w),)
    else:
        m, words = lo, (w, invert_word(w))
    best = None
    for v in words:
        i = -1
        for _ in range(v.count(m)):
            i = v.index(m, i + 1)
            r = v[i:] + v[:i]
            if best is None or r < best:
                best = r
    return best


# -- presentation constructors -------------------------------------------------


def gen_name_for_idempotent(h: FiniteStarSemigroup, e) -> str:
    return f"a[{h.text(e)}]"


def _square_relators(squares: Iterable[SquareEntry], gid: dict) -> list[Word]:
    """One relator a_e^-1 a_f a_h^-1 a_g per deduplicated (rows, cols) key,
    in the order of `squares` (the search's key order)."""
    out = []
    for (i, k), (j, l) in dict.fromkeys((s.rows, s.cols) for s in squares):
        w = free_reduce((-gid[(i, j)], gid[(i, l)], -gid[(k, l)], gid[(k, j)]))
        if w:
            out.append(w)
    return out


def _tree_presentation(
    d: DClassData, t: ghgraph.TreeSet, squares: Iterable[SquareEntry], star: bool
) -> GroupPresentation:
    """Generators a_e for E_D in canonical order, numbered by friendly pair:
    e = p_i p_j is generator gid[(i, j)].  Relators a_e = 1 on the tree,
    one per singular square, and with `star` a_e a_{e*} = 1 for e <= e*,
    read off the transposed pair: (p_i p_j)* = p_j p_i."""
    if t.scope is not None:
        raise ValueError(
            f"{t.kind} spans an induced subgraph, not the Graham-Houghton graph"
        )
    if not ghgraph.verify_spanning_tree(ghgraph.build_gh_graph(d), t):
        raise ValueError("tree does not span the Graham-Houghton graph")
    gid = {pair: g for g, pair in enumerate(d.e_of_pair, 1)}
    tree = set(t.edges)
    relators = [(g,) for g, e in enumerate(d.idempotents, 1) if e in tree]
    relators += _square_relators(squares, gid)
    if star:
        relators += [(g, gid[(j, i)]) for (i, j), g in gid.items() if g <= gid[(j, i)]]
    gens = tuple(gen_name_for_idempotent(d.handle, e) for e in d.idempotents)
    return GroupPresentation(gens, tuple(relators))


def presn_ig(
    d: DClassData, t: ghgraph.TreeSet, squares: Sequence[SquareEntry]
) -> GroupPresentation:
    """Maximal-subgroup presentation over a spanning tree: a_e = 1 on the
    tree, plus one quotient relation per singular square."""
    return _tree_presentation(d, t, squares, star=False)


def presn_pg_squares(
    d: DClassData, t: ghgraph.TreeSet, squares: Sequence[SquareEntry]
) -> GroupPresentation:
    """The same presentation with a_e a_{e*} = 1 adjoined; the tree must
    contain every projection of the class."""
    tree = set(t.edges)
    if any(p not in tree for p in d.projections):
        raise ValueError("tree must contain every projection of the D-class")
    return _tree_presentation(d, t, squares, star=True)


def _pair_presentation(
    d: DClassData,
    f_tree: Sequence[tuple[int, int]],
    quotient: Callable[[dict[tuple[int, int], int]], Iterable[Word]],
) -> GroupPresentation:
    """Presentation on generators a_{p,q} for the friendly pairs: tree edges
    and diagonal generators trivial, a_{p,q} inverse to a_{q,p}, and one
    relator per quotient word.  quotient(gid) gives the words over the
    generator numbers gid[(i, j)] of the pairs (i, j) of P_D indices.
    f_tree must be a spanning tree of P_D: |P_D| - 1 friendly pairs that,
    read as undirected edges, connect every projection."""
    text = [d.handle.text(p) for p in d.projections]
    pairs = sorted(d.friendly)
    gens = tuple(f"a[{text[i]} | {text[j]}]" for (i, j) in pairs)
    gid = {pair: idx + 1 for idx, pair in enumerate(pairs)}
    tree_pairs = set(f_tree)
    if tree_pairs - gid.keys():
        raise ValueError("tree edge outside the friendliness relation")
    size = len(text)
    if len(f_tree) != size - 1 or len(ghgraph._forest(size, f_tree)) != size - 1:
        raise ValueError("tree does not span the projections of the D-class")
    relators: list[Word] = [(gid[pair],) for pair in sorted(tree_pairs)]
    relators.extend((gid[(i, i)],) for i in range(size))
    for (i, j) in pairs:
        if i < j and (j, i) in gid:
            relators.append((gid[(i, j)], gid[(j, i)]))
    for word in quotient(gid):
        word = free_reduce(word)
        if word:
            relators.append(word)
    return GroupPresentation(gens, tuple(relators))


def presn_pg_linked(
    d: DClassData,
    diamonds: Sequence[LinkedDiamond],
    f_tree: Sequence[tuple[int, int]],
) -> GroupPresentation:
    """Presentation on generators a_{p,q} for friendly pairs with one
    quotient relation a_{s,v}^-1 a_{s,w} a_{u,w}^-1 a_{u,v} per
    non-degenerate linked diamond (s,u;v,w)."""
    at = d._pindex

    def quotient(gid):
        for dia in diamonds:
            if not dia.degenerate:
                s, u, v, w = at[dia.s], at[dia.u], at[dia.v], at[dia.w]
                yield -gid[(s, v)], gid[(s, w)], -gid[(u, w)], gid[(u, v)]

    return _pair_presentation(d, f_tree, quotient)


def presn_pg_triangles(
    d: DClassData,
    triangles: Sequence[tuple],
    f_tree: Sequence[tuple[int, int]],
) -> GroupPresentation:
    """Variant whose quotient relations are a_{u,s} a_{s,w} = a_{u,w} over
    the linked triangles."""
    at = d._pindex

    def quotient(gid):
        for s, u, w, _p in triangles:
            s, u, w = at[s], at[u], at[w]
            yield gid[(u, s)], gid[(s, w)], -gid[(u, w)]

    return _pair_presentation(d, f_tree, quotient)


FAMILIES = ("ig", "pg", "pg-linked", "pg-triangles")


def subgroup_presentation(
    d: DClassData,
    family: str,
    tree: str = "auto",
    *,
    squares: Sequence[SquareEntry] | None = None,
) -> GroupPresentation:
    """The maximal-subgroup presentation of `family` over d: ig or pg over
    `named_tree(d, tree)`, where auto means the pg tree for pg, or
    pg-linked or pg-triangles over the friendliness tree, which take only
    tree="auto".  `squares`, d's singular squares that the caller already
    holds, is used instead of searching again."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in ("ig", "pg"):
        t = ghgraph.named_tree(d, "pg" if family == "pg" and tree == "auto" else tree)
        if squares is None:
            squares = enumerate_singular_squares(d)
        build = presn_ig if family == "ig" else presn_pg_squares
        return build(d, t, squares)
    if tree != "auto":
        raise ValueError(f"{family} presents over the friendliness tree, not --tree {tree}")
    if family == "pg-linked":
        return presn_pg_linked(d, enumerate_linked_diamonds(d), ghgraph.friendliness_tree(d, 0))
    return presn_pg_triangles(d, linked_triangles(d), ghgraph.friendliness_tree(d, 0))


# -- semigroup presentation documents -------------------------------------------

# The largest handle whose elements `emit_semigroup_presentation` enumerates.
EMIT_SIZE_CAP = 20000


@dataclass(frozen=True)
class SemigroupPresentationDoc:
    family: str
    generators: tuple[str, ...]
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def render(self) -> str:
        lines = [f"# {self.family} presentation", f"generators ({len(self.generators)}):"]
        lines.extend(f"  {g}" for g in self.generators)
        lines.append(f"relations ({len(self.relations)}):")
        for lhs, rhs in self.relations:
            lines.append("  " + " ".join(lhs) + " = " + " ".join(rhs))
        return "\n".join(lines) + "\n"


def emit_semigroup_presentation(h: FiniteStarSemigroup, family: str) -> SemigroupPresentationDoc:
    """Symbolic defining presentations over the idempotents or projections.

    family: "ig" (basic pairs), "rig" (ig plus sandwich relations),
    "pg" (projection generators), or "pg-e" (idempotent generators with the
    projection-product relations adjoined).  The size check counts at most
    EMIT_SIZE_CAP + 1 elements, so a handle over the cap is refused before
    its element list is built.  An unknown family is refused first, before
    any product.
    """
    if family not in ("ig", "rig", "pg", "pg-e"):
        raise ValueError(f"unknown family {family!r}")
    if sum(1 for _ in itertools.islice(h._enumerate(), EMIT_SIZE_CAP + 1)) > EMIT_SIZE_CAP:
        raise ValueError("handle too large to enumerate for emission")
    if family == "pg":
        P = h.projections()
        name_p = {p: f"x[{h.text(p)}]" for p in P}
        rels = []
        for p in P:
            rels.append(((name_p[p], name_p[p]), (name_p[p],)))
        for p in P:
            for q in P:
                pq = (name_p[p], name_p[q])
                rels.append((pq + pq, pq))
        for p in P:
            for q in P:
                pqp = h.product(h.product(p, q), p)
                rels.append(
                    ((name_p[p], name_p[q], name_p[p]), (name_p[pqp],))
                )
        return SemigroupPresentationDoc(
            "pg", tuple(name_p[p] for p in P), tuple(rels)
        )
    E = h.idempotents()
    name_e = {e: f"x[{h.text(e)}]" for e in E}

    def basic_relations():
        return [
            ((name_e[e], name_e[f]), (name_e[h.product(e, f)],))
            for e, f in basic_pairs(h)
        ]

    if family == "ig":
        return SemigroupPresentationDoc(
            "ig", tuple(name_e[e] for e in E), tuple(basic_relations())
        )
    if family == "rig":
        rels = basic_relations()
        for e in E:
            for f in E:
                ef = (name_e[e], name_e[f])
                for s in sandwich_set(h, e, f):
                    rels.append(
                        ((name_e[e], name_e[s], name_e[f]), ef)
                    )
        return SemigroupPresentationDoc(
            "rig", tuple(name_e[e] for e in E), tuple(rels)
        )
    # pg-e
    P = h.projections()
    rels = basic_relations()
    for p in P:
        for q in P:
            pq = h.product(p, q)
            rels.append(((name_e[p], name_e[q]), (name_e[pq],)))
    return SemigroupPresentationDoc("pg-e", tuple(name_e[e] for e in E), tuple(rels))


def basic_pairs(h: FiniteStarSemigroup) -> list[tuple]:
    E = h.idempotents()
    out = []
    for e in E:
        for f in E:
            if h.product(e, f) in (e, f) or h.product(f, e) in (e, f):
                out.append((e, f))
    return out


# -- Tietze simplification -------------------------------------------------------


@dataclass
class SimplifyResult:
    """A simplified presentation and the eliminations that produced it.

    `record` lists the eliminations in order as pairs (g, value): input
    generator g (1-based) equals `value`, a word over the generators still
    present when g was eliminated.  `kept` lists the surviving input
    generators in the order of the output's generators.
    """

    presentation: GroupPresentation
    record: tuple[tuple[int, Word], ...]
    kept: tuple[int, ...]

    @property
    def eliminations(self) -> int:
        return len(self.record)

    def image(self, word: Sequence[int]) -> Word:
        """A word over the input generators rewritten as an equal, freely
        reduced word over the output generators."""
        w = free_reduce(word)
        for g, value in self.record:
            if g in w or -g in w:
                w = _substitute(w, g, value, invert_word(value))
        renum = {g: i + 1 for i, g in enumerate(self.kept)}
        return tuple(renum[x] if x > 0 else -renum[-x] for x in w)

    def quotient(self, words: Iterable[Sequence[int]]) -> GroupPresentation:
        """The output presentation with the images of `words` (over the
        input generators) adjoined as relators; an empty image adds none."""
        q = self.presentation
        extra = tuple(w for w in map(self.image, words) if w)
        return GroupPresentation(q.generators, q.relators + extra)


def tietze_simplify(p: GroupPresentation) -> SimplifyResult:
    """Deterministic elimination in two stages.

    `_collapse` first eliminates every generator that a relator makes equal
    to 1 or to another generator or its inverse.  A plain loop then takes
    the least eliminable generator in the order of (name, index) and
    applies the first move that fits it: a generator equal to 1 (length-1
    relator), a generator equal to another generator or its inverse
    (length-2 relator on two distinct generators), a generator occurring
    exactly once in exactly one relator (the relator is solved for it and
    discarded), and, when nothing else applies, a generator with a single
    occurrence in some relator (that relator is solved for it and the
    value substituted everywhere).  Every move removes a generator, so the
    loop terminates, and it runs until no move applies.  Relators are kept
    freely and cyclically reduced and deduplicated up to rotation and
    inversion.  The output presents a group isomorphic to the input's.

    Cost model.  Almost every elimination on the suite's presentations is
    an identification (at (P_5, 2), 99.6% set a generator equal to 1 or to
    another generator or its inverse), and the collapse makes them all
    without rewriting relators one elimination at a time: a pass rewrites
    every relator once through `find`, which path compression keeps near
    constant per letter, and takes one rotation key per survivor, and the
    passes repeat until one eliminates nothing.  What the collapse leaves
    is small (at most 26 generators and 219 relators for PG and IG at
    (P_4, 2), (P_4, 1), (P_5, 2) and (P_5, 0), after two or three passes),
    so the loop simply rescans every relator for each move.
    """
    names = p.generators
    store, record = _collapse(p)
    while True:
        move = _next_move(names, store)
        if move is None:
            return _finish(names, store.values(), record)
        g, key = move
        value = _solve(store.pop(key), g)
        record.append((g, value))
        inv = invert_word(value)
        # In the order of their keys: when two rewrites meet on one key,
        # the first one's rotation is kept.
        for key in sorted(k for k, w in store.items() if g in w or -g in w):
            w = _cyclic_strip(_substitute(store.pop(key), g, value, inv))
            if w:
                store.setdefault(_rotation_key(w), w)


def _collapse(
    p: GroupPresentation,
) -> tuple[dict[Word, Word], list[tuple[int, Word]]]:
    """The first stage of `tietze_simplify`: eliminate every generator that
    a relator makes equal to 1 or to another generator or its inverse.

    A signed union-find holds the identifications.  A generator's parent
    is itself while it is alive, 0 once it is set equal to 1, and otherwise
    the signed letter it was set equal to; `find` follows the parents to
    the identity or a letter of a live generator and points every
    generator on the way straight at it.  Each pass rewrites every relator
    through `find` and reduces it freely and cyclically.  An empty relator
    is dropped; one letter kills its generator; two letters on distinct
    generators eliminate the one that comes first in the order of (name,
    index) in favour of the other, so every recorded value is () or a
    letter of a live generator.  Passes repeat until one eliminates
    nothing.

    Returns the surviving relators over the input generators, keyed by
    their rotation keys, and the record of eliminations.
    """
    names = p.generators
    parent = list(range(len(names) + 1))
    record: list[tuple[int, Word]] = []

    def find(g: int) -> int:
        path = []
        while parent[g] not in (g, 0):
            path.append(g)
            g = abs(parent[g])
        r = parent[g]
        for x in reversed(path):
            r = parent[x] = r if parent[x] > 0 else -r
        return r

    words: Iterable[Word] = p.relators
    while True:
        before = len(record)
        kept: dict[Word, Word] = {}
        for w in words:
            # Reduced inline, not by `free_reduce`: each letter is rewritten
            # in the same pass, on the hot path.  `find` runs only for a
            # chain: a parent that is 0 or a live generator's letter is
            # the value as it stands.
            out: list[int] = []
            for x in w:
                a = x if x > 0 else -x
                y = parent[a]
                if y != a:
                    if y and parent[abs(y)] != abs(y):
                        y = find(a)
                    if not y:
                        continue
                    x = y if x > 0 else -y
                if out and out[-1] == -x:
                    out.pop()
                else:
                    out.append(x)
            w = _cyclic_strip(out)
            if not w:
                continue
            if len(w) == 1 or (len(w) == 2 and w[0] != w[1]):
                g = min((names[abs(x) - 1], abs(x)) for x in w)[1]
                value = _solve(w, g)
                parent[g] = value[0] if value else 0
                record.append((g, value))
                continue
            kept.setdefault(_rotation_key(w), w)
        if len(record) == before:
            return kept, record
        words = kept.values()


def _next_move(
    names: Sequence[str], store: dict[Word, Word]
) -> tuple[int, Word] | None:
    """The generator the plain loop eliminates next and the key of the
    relator it is solved from, or None when no move applies."""
    occ: dict[int, int] = {}
    where: dict[int, Word] = {}
    # (name, g, move, key), where move 1 solves a length-1 relator, 2 a
    # length-2 relator and 3 the only relator that g occurs in.
    moves = []
    for key, w in store.items():
        if len(w) == 1 or (len(w) == 2 and w[0] != w[1]):
            moves.extend((names[abs(x) - 1], abs(x), len(w), key) for x in w)
        for x in w:
            occ[abs(x)] = occ.get(abs(x), 0) + 1
            where[abs(x)] = key
    moves.extend((names[g - 1], g, 3, where[g]) for g, c in occ.items() if c == 1)
    if moves:
        _, g, _, key = min(moves)
        return g, key
    # General elimination: a single occurrence inside some relator.  Choose
    # the substitution with the least growth of total relator length (ties
    # by length, then names) rather than by generator name alone:
    # name-first choices can wedge the simplification.
    general = None
    for key, w in store.items():
        counts: dict[int, int] = {}
        for x in w:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        for g, c in counts.items():
            if c != 1:
                continue
            cand = ((occ[g] - 1) * (len(w) - 1) - len(w), len(w), names[g - 1], key, g)
            if general is None or cand < general:
                general = cand
    return None if general is None else (general[4], general[3])


def _substitute(w: Word, g: int, value: Word, inverse: Word) -> Word:
    """w with g replaced by value and g^-1 by inverse, freely reduced."""
    return free_reduce(
        [y for x in w for y in (value if x == g else inverse if x == -g else (x,))]
    )


def _solve(w: Word, g: int) -> Word:
    """The value of g given by relator w, in which g occurs once."""
    i = next(i for i, x in enumerate(w) if abs(x) == g)
    rest = w[i + 1 :] + w[:i]
    return invert_word(rest) if w[i] > 0 else rest


def _finish(names, words, record) -> SimplifyResult:
    gone = {g for g, _ in record}
    kept = tuple(g for g in range(1, len(names) + 1) if g not in gone)
    renum = {g: i + 1 for i, g in enumerate(kept)}
    new_rels = []
    for w in words:
        assert all(abs(x) in renum for x in w)
        new_rels.append(tuple(renum[abs(x)] * (1 if x > 0 else -1) for x in w))
    new_rels.sort(key=lambda w: (len(w), w))
    return SimplifyResult(
        GroupPresentation(tuple(names[g - 1] for g in kept), tuple(new_rels)),
        tuple(record),
        kept,
    )


# -- emitters ---------------------------------------------------------------------


def to_cas_text(p: GroupPresentation, title: str = "") -> str:
    """Generic CAS-readable form with positional names and a trailing key."""
    lines = []
    if title:
        lines.append(f"# {title}")
    short = [f"a{i+1}" for i in range(len(p.generators))]
    quoted = ", ".join(f'"{s}"' for s in short)
    lines.append(f"F := FreeGroup({quoted});")
    body = []
    for w in p.relators:
        toks = []
        for x in w:
            toks.append(short[abs(x) - 1] + ("" if x > 0 else "^-1"))
        body.append("*".join(toks) if toks else "One(F)")
    lines.append("rels := [")
    for i, b in enumerate(body):
        comma = "," if i + 1 < len(body) else ""
        lines.append(f"  {b}{comma}")
    lines.append("];")
    for i, name in enumerate(p.generators):
        lines.append(f"# {short[i]} = {name}")
    return "\n".join(lines) + "\n"


def to_json_doc(p: GroupPresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [list(w) for w in p.relators],
    }
