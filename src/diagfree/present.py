"""Group presentations for the maximal subgroups, semigroup presentation
documents, and deterministic Tietze simplification.

Words over a presentation's generators are tuples of signed 1-based
indices: +k is generator k-1, -k its inverse.  Relators are freely
reduced.  Generator names are keyed by the canonical text form of the
indexing idempotent (or projection pair), so presentations are
byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .biorder import LinkedDiamond, SquareEntry
from .diagram import FiniteStarSemigroup
from .green import DClassData
from .ghgraph import TreeSet

Word = tuple[int, ...]


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def gen_index(self, name: str) -> int:
        return self.generators.index(name)

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        for x in w:
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else name + "^-1")
        return "*".join(parts)

    def describe(self) -> str:
        return (
            f"<{len(self.generators)} generators | {len(self.relators)} relators>"
        )


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
    and not empty.  Only a rotation that starts with the least letter can
    be least."""
    n = len(w)
    ww = w + w
    vv = invert_word(ww)
    m = min(min(w), -max(w))
    return min([x[i : i + n] for x in (ww, vv) for i in range(n) if x[i] == m])


# -- presentation constructors -------------------------------------------------


def gen_name_for_idempotent(h: FiniteStarSemigroup, e) -> str:
    return f"a[{h.text(e)}]"


def gen_name_for_pair(h: FiniteStarSemigroup, p, q) -> str:
    return f"a[{h.text(p)} | {h.text(q)}]"


def _square_relators(
    d: DClassData, squares: Iterable[SquareEntry], gen_of: dict
) -> list[Word]:
    """One relator a_e^-1 a_f a_h^-1 a_g per deduplicated (rows, cols) key."""
    seen = set()
    out = []
    for s in sorted(squares, key=lambda s: (s.rows, s.cols, s.oclass)):
        key = (s.rows, s.cols)
        if key in seen:
            continue
        seen.add(key)
        i, k = key[0]
        j, l = key[1]
        e = gen_of[d.e_of_pair[(i, j)]]
        f = gen_of[d.e_of_pair[(i, l)]]
        g = gen_of[d.e_of_pair[(k, j)]]
        hh = gen_of[d.e_of_pair[(k, l)]]
        out.append(free_reduce((-e, f, -hh, g)))
    return [w for w in out if w]


def presn_ig(
    d: DClassData, t: TreeSet, squares: Sequence[SquareEntry]
) -> GroupPresentation:
    """Maximal-subgroup presentation over a spanning tree: a_e = 1 on the
    tree, plus one quotient relation per singular square."""
    h = d.handle
    from .ghgraph import build_gh_graph, verify_spanning_tree

    if not verify_spanning_tree(build_gh_graph(d), t, scope="full"):
        raise ValueError("tree does not span the Graham-Houghton graph")
    gens = tuple(gen_name_for_idempotent(h, e) for e in d.idempotents)
    gen_of = {e: idx + 1 for idx, e in enumerate(d.idempotents)}
    relators: list[Word] = []
    for e in sorted(t.edges, key=h.sort_key):
        relators.append((gen_of[e],))
    relators.extend(_square_relators(d, squares, gen_of))
    return GroupPresentation(gens, tuple(relators))


def presn_pg_squares(
    d: DClassData, t: TreeSet, squares: Sequence[SquareEntry]
) -> GroupPresentation:
    """The same presentation with a_e a_{e*} = 1 adjoined; the tree must
    contain every projection of the class."""
    h = d.handle
    missing = [p for p in d.projections if p not in set(t.edges)]
    if missing:
        raise ValueError("tree must contain every projection of the D-class")
    base = presn_ig(d, t, squares)
    gen_of = {e: idx + 1 for idx, e in enumerate(d.idempotents)}
    inv_rel: list[Word] = []
    for e in d.idempotents:
        es = h.star(e)
        if h.sort_key(e) <= h.sort_key(es):
            inv_rel.append((gen_of[e], gen_of[es]))
    return GroupPresentation(base.generators, base.relators + tuple(inv_rel))


def presn_pg_linked(
    d: DClassData,
    diamonds: Sequence[LinkedDiamond],
    f_tree: Sequence[tuple[int, int]],
) -> GroupPresentation:
    """Presentation on generators a_{p,q} for friendly pairs: tree edges and
    diagonal generators trivial, a_{p,q} inverse to a_{q,p}, and one quotient
    relation per non-degenerate linked diamond."""
    h = d.handle
    P = d.projections
    pairs = sorted(d.friendly)
    gens = tuple(gen_name_for_pair(h, P[i], P[j]) for (i, j) in pairs)
    gid = {pair: idx + 1 for idx, pair in enumerate(pairs)}
    tree_pairs = set(f_tree)
    if tree_pairs - set(pairs):
        raise ValueError("tree edge outside the friendliness relation")
    relators: list[Word] = []
    for (i, j) in sorted(tree_pairs):
        relators.append((gid[(i, j)],))
    for i in range(len(P)):
        relators.append((gid[(i, i)],))
    for (i, j) in pairs:
        if i < j and (j, i) in gid:
            relators.append((gid[(i, j)], gid[(j, i)]))
    for dia in diamonds:
        if dia.degenerate:
            continue
        s, u = d.proj_index(dia.s), d.proj_index(dia.u)
        v, w = d.proj_index(dia.v), d.proj_index(dia.w)
        word = free_reduce(
            (-gid[(s, v)], gid[(s, w)], -gid[(u, w)], gid[(u, v)])
        )
        if word:
            relators.append(word)
    return GroupPresentation(gens, tuple(relators))


def presn_pg_triangles(
    d: DClassData,
    triangles: Sequence[tuple],
    f_tree: Sequence[tuple[int, int]],
) -> GroupPresentation:
    """Variant whose quotient relations are a_{u,s} a_{s,w} = a_{u,w} over
    the linked triangles."""
    h = d.handle
    P = d.projections
    pairs = sorted(d.friendly)
    gens = tuple(gen_name_for_pair(h, P[i], P[j]) for (i, j) in pairs)
    gid = {pair: idx + 1 for idx, pair in enumerate(pairs)}
    relators: list[Word] = []
    for (i, j) in sorted(set(f_tree)):
        relators.append((gid[(i, j)],))
    for i in range(len(P)):
        relators.append((gid[(i, i)],))
    for (i, j) in pairs:
        if i < j and (j, i) in gid:
            relators.append((gid[(i, j)], gid[(j, i)]))
    for (s, u, w, _p) in triangles:
        si, ui, wi = d.proj_index(s), d.proj_index(u), d.proj_index(w)
        word = free_reduce((gid[(ui, si)], gid[(si, wi)], -gid[(ui, wi)]))
        if word:
            relators.append(word)
    return GroupPresentation(gens, tuple(relators))


# -- semigroup presentation documents -------------------------------------------


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


def emit_semigroup_presentation(
    h: FiniteStarSemigroup, family: str, size_cap: int = 20000
) -> SemigroupPresentationDoc:
    """Symbolic defining presentations over the idempotents or projections.

    family: "ig" (basic pairs), "rig" (ig plus sandwich relations),
    "pg" (projection generators), or "pg-e" (idempotent generators with the
    projection-product relations adjoined).
    """
    from .green import sandwich_set

    if h.size() > size_cap:
        raise ValueError("handle too large to enumerate for emission")
    E = h.idempotents()
    name_e = {e: f"x[{h.text(e)}]" for e in E}

    def basic_relations():
        rels = []
        for e in E:
            for f in E:
                ef = h.product(e, f)
                fe = h.product(f, e)
                if ef in (e, f) or fe in (e, f):
                    rels.append(((name_e[e], name_e[f]), (name_e[ef],)))
        return rels

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
    P = h.projections()
    name_p = {p: f"x[{h.text(p)}]" for p in P}
    if family == "pg":
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
    if family == "pg-e":
        rels = basic_relations()
        for p in P:
            for q in P:
                pq = h.product(p, q)
                rels.append(((name_e[p], name_e[q]), (name_e[pq],)))
        return SemigroupPresentationDoc(
            "pg-e", tuple(name_e[e] for e in E), tuple(rels)
        )
    raise ValueError(f"unknown family {family!r}")


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
    generators in the order of the output's generators.  Both stay valid
    when a budget cuts the simplification short.
    """

    presentation: GroupPresentation
    complete: bool
    eliminations: int
    record: tuple[tuple[int, Word], ...]
    kept: tuple[int, ...]

    def image(self, word: Sequence[int]) -> Word:
        """A word over the input generators rewritten as an equal, freely
        reduced word over the output generators."""
        w = free_reduce(word)
        for g, value in self.record:
            if g in w or -g in w:
                w = tuple(_substitute(w, g, value, invert_word(value)))
        renum = {g: i + 1 for i, g in enumerate(self.kept)}
        return tuple(renum[x] if x > 0 else -renum[-x] for x in w)

    def quotient(self, words: Iterable[Sequence[int]]) -> GroupPresentation:
        """The output presentation with the images of `words` (over the
        input generators) adjoined as relators; an empty image adds none."""
        q = self.presentation
        extra = tuple(w for w in map(self.image, words) if w)
        return GroupPresentation(q.generators, q.relators + extra)


def tietze_simplify(
    p: GroupPresentation, budget: int | None = None
) -> SimplifyResult:
    """Deterministic elimination loop.

    Moves, applied to the least eliminable generator in the order of
    (name, index): a generator equal to 1 (length-1 relator), a generator
    equal to another generator or its inverse (length-2 relator on two
    distinct generators), a generator occurring exactly once in exactly one
    relator (the relator is solved for it and discarded), and, when nothing
    else applies, a generator with a single occurrence in some relator
    (that relator is solved for it and the value substituted everywhere).
    Every move removes a generator, so the loop terminates.  Relators are
    kept freely and cyclically reduced and deduplicated up to rotation and
    inversion.  The output presents a group isomorphic to the input's.

    The counts that decide the first three moves are kept per generator
    and updated as relators come and go, and the next generator comes off
    a lazy heap of name ranks, so an elimination costs work in proportion
    to the relators it touches (the bookkeeping of Havas, Kenne,
    Richardson and Robertson, "A Tietze transformation program", 1984).
    """
    names = p.generators
    n = len(names)
    order = sorted(range(1, n + 1), key=lambda g: (names[g - 1], g))
    rank = [0] * (n + 1)
    for r, g in enumerate(order):
        rank[g] = r
    store: dict[Word, Word] = {}
    occ = [0] * (n + 1)
    len1 = [0] * (n + 1)  # length-1 relators on g
    len2 = [0] * (n + 1)  # length-2 relators on g and another generator
    by_gen: list[set[Word]] = [set() for _ in range(n + 1)]
    # Name ranks of generators that may be eliminable by the first three
    # moves; stale entries are dropped when they reach the top.
    heap: list[int] = []

    def add(w: Word) -> None:
        """Store w, which must be cyclically reduced."""
        if not w:
            return
        key = _rotation_key(w)
        if key in store:
            return
        store[key] = w
        for x in w:
            occ[abs(x)] += 1
        gens = {abs(x) for x in w}
        for a in gens:
            by_gen[a].add(key)
            if occ[a] == 1:
                heappush(heap, rank[a])
        if len(w) == 1:
            len1[abs(w[0])] += 1
            heappush(heap, rank[abs(w[0])])
        elif len(w) == 2 and len(gens) == 2:
            for a in gens:
                len2[a] += 1
                heappush(heap, rank[a])

    def remove(key: Word) -> Word:
        w = store.pop(key)
        for x in w:
            occ[abs(x)] -= 1
        gens = {abs(x) for x in w}
        for a in gens:
            by_gen[a].discard(key)
            if occ[a] == 1:
                heappush(heap, rank[a])
        if len(w) == 1:
            len1[abs(w[0])] -= 1
        elif len(w) == 2 and len(gens) == 2:
            for a in gens:
                len2[a] -= 1
        return w

    for w in p.relators:
        add(cyclic_reduce(w))

    record: list[tuple[int, Word]] = []
    while True:
        if budget is not None and len(record) >= budget:
            return _finish(names, store, record, False)
        drop = None
        while heap:
            g = order[heap[0]]
            if len1[g] or len2[g] or occ[g] == 1:
                break
            heappop(heap)
        else:
            # General elimination: a single occurrence inside some relator.
            # Choose the substitution with the least growth of total relator
            # length (ties by length, then names) rather than by generator
            # name alone: name-first choices can wedge the collapse.
            general: tuple | None = None
            for key, w in store.items():
                counts: dict[int, int] = {}
                for x in w:
                    counts[abs(x)] = counts.get(abs(x), 0) + 1
                for g, c in counts.items():
                    if c != 1:
                        continue
                    delta = (occ[g] - 1) * (len(w) - 1) - len(w)
                    cand = (delta, len(w), names[g - 1], key, g)
                    if general is None or cand < general:
                        general = cand
            if general is None:
                return _finish(names, store, record, True)
            g, drop = general[4], general[3]
        if drop is not None:
            value = _solve(store[drop], g)
        elif len1[g]:
            drop = (-g,)  # the key of both (g,) and (-g,)
            value = ()
        elif len2[g]:
            drop = min(
                k for k in by_gen[g] if len(k) == 2 and abs(k[0]) != abs(k[1])
            )
            w = store[drop]
            pos = 0 if abs(w[0]) == g else 1
            x, y = w[pos], w[1 - pos]
            value = (-y,) if x > 0 else (y,)
        else:
            (drop,) = by_gen[g]
            value = _solve(store[drop], g)
        remove(drop)
        record.append((g, value))
        inv = invert_word(value)
        for key in sorted(by_gen[g]):
            old = remove(key)
            add(_cyclic_strip(_substitute(old, g, value, inv)))


def _substitute(w: Word, g: int, value: Word, inverse: Word) -> list[int]:
    """w with g replaced by value and g^-1 by inverse, freely reduced in
    the same pass."""
    out: list[int] = []
    for x in w:
        if x == g:
            seq = value
        elif x == -g:
            seq = inverse
        else:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
            continue
        for y in seq:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


def _solve(w: Word, g: int) -> Word:
    """The value of g given by relator w, in which g occurs once."""
    i = next(i for i, x in enumerate(w) if abs(x) == g)
    rest = w[i + 1 :] + w[:i]
    return invert_word(rest) if w[i] > 0 else rest


def _finish(names, store, record, complete) -> SimplifyResult:
    gone = {g for g, _ in record}
    kept = tuple(g for g in range(1, len(names) + 1) if g not in gone)
    renum = {g: i + 1 for i, g in enumerate(kept)}
    new_rels = []
    for w in store.values():
        assert all(abs(x) in renum for x in w)
        new_rels.append(tuple(renum[abs(x)] * (1 if x > 0 else -1) for x in w))
    new_rels.sort(key=lambda w: (len(w), w))
    return SimplifyResult(
        GroupPresentation(tuple(names[g - 1] for g in kept), tuple(new_rels)),
        complete,
        len(record),
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


def presentation_from_json(doc: dict) -> GroupPresentation:
    return GroupPresentation(
        tuple(doc["generators"]),
        tuple(tuple(w) for w in doc["relators"]),
    )
