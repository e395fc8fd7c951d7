"""Squares of idempotents: singular squares with witness search, linked
diamonds/triangles/pairs, NT-reducing square constructions, and permutation
labels of idempotents."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from .diagram import (
    FiniteStarSemigroup,
    Partition,
    d_projection,
    eq_refines,
    idempotent_components,
    involution,
    multiply,
    partition_from_blocks,
)
from .green import DClassData, dclass_data

ORIENTATIONS = ("LR", "RL", "UD", "DU")
HORIZONTAL = ("LR", "RL")


@dataclass(frozen=True)
class Square:
    """Array (e f; g h) with e R f, g R h, e L g, f L h."""

    e: Any
    f: Any
    g: Any
    h: Any

    def corners(self):
        return (self.e, self.f, self.g, self.h)


@dataclass(frozen=True)
class LinkedDiamond:
    """(s, u; v, w): four friendly pairs with psp = v and pup = w."""

    s: Any
    u: Any
    v: Any
    w: Any
    p: Any  # one witnessing projection

    def degeneracy(self) -> tuple[str, ...]:
        flags = []
        if self.s == self.u:
            flags.append("D1")
        if self.v == self.w:
            flags.append("D2")
        if self.s == self.v and self.u == self.w:
            flags.append("D3")
        return tuple(flags)

    @property
    def degenerate(self) -> bool:
        return bool(self.degeneracy())


# -- orientation equations ---------------------------------------------------


def is_lr_singular(h: FiniteStarSemigroup, sq: Square, u) -> bool:
    """ue=e, ug=g, eu=f, gu=h."""
    e, f, g, hh = sq.corners()
    p = h.product
    return p(u, e) == e and p(u, g) == g and p(e, u) == f and p(g, u) == hh


def is_rl_singular(h: FiniteStarSemigroup, sq: Square, u) -> bool:
    e, f, g, hh = sq.corners()
    return is_lr_singular(h, Square(f, e, hh, g), u)


def is_ud_singular(h: FiniteStarSemigroup, sq: Square, u) -> bool:
    """eu=e, fu=f, ue=g, uf=h."""
    e, f, g, hh = sq.corners()
    p = h.product
    return p(e, u) == e and p(f, u) == f and p(u, e) == g and p(u, f) == hh


def is_du_singular(h: FiniteStarSemigroup, sq: Square, u) -> bool:
    e, f, g, hh = sq.corners()
    return is_ud_singular(h, Square(g, hh, e, f), u)


_CHECKS = {
    "LR": is_lr_singular,
    "RL": is_rl_singular,
    "UD": is_ud_singular,
    "DU": is_du_singular,
}


def witness_orientations(h: FiniteStarSemigroup, sq: Square, u) -> list[str]:
    """The orientations in which u singularises sq."""
    return [o for o in ORIENTATIONS if _CHECKS[o](h, sq, u)]


def _nt_of(h: FiniteStarSemigroup, u) -> int:
    return u.nt() if isinstance(u, Partition) else 0


def find_singularizers(h: FiniteStarSemigroup, sq: Square) -> list[tuple[str, Any]]:
    """All (orientation, u) witnesses of sq, scanning E(S) in increasing NT(u)."""
    pool = sorted(h.idempotents(), key=lambda u: (_nt_of(h, u), h.sort_key(u)))
    return [(orient, u) for u in pool for orient in witness_orientations(h, sq, u)]


# -- D-class enumeration -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class SquareEntry:
    """One deduplicated singular square of a D-class, as keys: rows and
    cols are ascending index pairs (its corners are `square_at(d, rows,
    cols)`), u is the witness with the lowest pool bit and orientation the
    one it singularises that layout in."""

    rows: tuple[int, int]
    cols: tuple[int, int]
    orientation: str
    u: Any

    @property
    def oclass(self) -> str:
        return "horizontal" if self.orientation in HORIZONTAL else "vertical"


def square_at(d: DClassData, rows: tuple[int, int], cols: tuple[int, int]) -> Square:
    """The square of d's idempotents in rows (i, k) and columns (j, l)."""
    (i, k), (j, l) = rows, cols
    at = d.e_of_pair
    return Square(at[(i, j)], at[(i, l)], at[(k, j)], at[(k, l)])


def _pair_triples(c: DClassData) -> list[tuple]:
    """(u, u u*, u*, u* u) for each friendly pair product u = p_i p_j of
    the class c: u u* = p_i, u* = p_j p_i and u* u = p_j."""
    P, at = c.projections, c.e_of_pair
    return [(u, P[i], at[(j, i)], P[j]) for (i, j), u in at.items()]


class _WitnessIndex:
    """Left/right identity sets over E(S), keyed by the projections of a
    D-class: u x = x iff u (x x*) = x x*, and dually.

    The pool is E_D plus the idempotents of each class of higher rank,
    each class built by `dclass_data`, so every element is a friendly
    projection pair product: u = p q, with u u* = p and u* = q p.  The
    sets are int bitsets in which bit b stands for pool[b], and the pool is
    in scan order.  For an idempotent u, u p = p holds iff p lies in u S^1,
    which depends only on the R-class of u; in a regular *-semigroup that
    class holds exactly one projection, q = u u*, and u S^1 = q S^1.  So
    the pool is grouped by q, and q p = p, i.e. p <= q, is read once per
    distinct q and projection p off q's θ row as θ_q(p) = p.  The rows are
    `_conjugations(d)`, whose projections of rank >= r are exactly the q of
    the pool.  Since p* = p, p u = p holds exactly when u* p = p, so each
    right identity set comes from the left one through the involution;
    star[b] is the bit of pool[b]*.  ends[b] = (the θ rows of u u* and of
    u* u) for u = pool[b].
    """

    def __init__(self, d: DClassData):
        h = d.handle
        rows = _conjugations(d)
        triples = _pair_triples(d)
        for r in sorted({h.rank(q) for q in rows}):
            if r > d.rank:
                triples += _pair_triples(dclass_data(h, r))
        triples.sort(key=lambda t: (_nt_of(h, t[0]), h.sort_key(t[0])))
        self.pool = [u for u, _, _, _ in triples]
        bit = {u: 1 << b for b, u in enumerate(self.pool)}
        self.star = [bit[s] for _, _, s, _ in triples]
        self.ends = [(rows[q], rows[t]) for _, q, _, t in triples]
        # q -> [bits of the pool elements u with u u* = q, bits of their u*]
        groups: dict[Any, list[int]] = {}
        for b, (_, q, _, _) in enumerate(triples):
            g = groups.setdefault(q, [0, 0])
            g[0] |= 1 << b
            g[1] |= self.star[b]
        self.lid = [0] * len(d.projections)
        self.rid = [0] * len(d.projections)
        for q, (lbits, rbits) in groups.items():
            for i, t in enumerate(rows[q]):
                if t == i:
                    self.lid[i] |= lbits
                    self.rid[i] |= rbits


def _shared_columns(d: DClassData) -> list[tuple[int, int, list[int]]]:
    """(i, k, C) for rows i < k sharing two or more group H-class columns,
    C sorted.  Each pair j < l in C is one candidate square (i, k; j, l): a
    non-degenerate 2x2 grid of group H-classes, canonically oriented."""
    cols = d.row_cols
    out = []
    for i, ci in enumerate(cols):
        si = set(ci)
        for k in range(i + 1, len(cols)):
            common = sorted(si.intersection(cols[k]))
            if len(common) > 1:
                out.append((i, k, common))
    return out


def enumerate_singular_squares(d: DClassData) -> list[SquareEntry]:
    """All non-degenerate singular squares of the D-class, deduplicated by
    unordered row pair + unordered column pair + orientation class, in
    strictly increasing (rows, cols, oclass) order: the grids are scanned
    by row pair, then column pair, and "horizontal" comes before
    "vertical".

    at[(i, j)] = p_i p_j (`d.e_of_pair`) is the idempotent of row i and
    column j, and at[(j, i)] its star.  Each orientation is decided by one
    AND of bitsets, through one table per column read off θ_p(s) = p s p:

    * L is a right congruence.  Let x = at[(i, j)] and let u be a pool
      element with u x = x (u in lid[i]).  Then x u is idempotent and
      x u <=_R x, so it is at[(i, c)], where p_c = (x u)* x u = u* p_j u =
      θ_{u* u}(θ_{u u*}(p_j)) as u = (u u*)(u* u), or outside E_D when
      that leaves P_D.  right[j] maps c = c(j, u) to the bits of those u.
    * Dually R is a left congruence: for x u = x (u in rid[j]), u x is
      outside E_D or equal to at[(r, j)] with r = r(i, u).  These rows
      cost no product: u x = y iff x* u* = y*, so when x = at[(i, j)] and
      x u = at[(i, c)], r(j, u*) = c, read at x* = at[(j, i)].  left[j]
      maps c to the bits of those u*.

    So for the candidate (i, k; j, l), a u in lid[i] & lid[k] & rid[l]
    satisfies both LR equations e u = f and g u = h exactly when
    c(j, u) = l; likewise RL is c(l, u) = j, UD is r(i, u) = k and DU is
    r(k, u) = i.  The witness is the lowest set bit, the first in scan
    order.  Of the three identity sets each orientation needs, the AND
    keeps only the two the table does not imply: e u = f gives f u = f, so
    lid[i] & lid[k] & right[j][l] lies inside rid[l], and dually.

    Column j's table holds the bits of need_col[j], the OR of
    lid[i] & lid[k] over the row pairs (i, k) sharing column j, and reads
    c(j, u) off the θ rows of u u* and u* u in `ends`.  No rid enters it:
    the table is read only at a shared column l != j, and c(j, u) = l puts
    u in rid[l] already, since then at[(i, l)] u = x u u = at[(i, l)].  The tables serve the vertical ANDs
    too: friendliness is symmetric, so each candidate's transpose
    (j, l; i, k) is a candidate, and u is a vertical witness of
    (i, k; j, l) iff u* is a horizontal witness of the transpose.
    """
    widx = _WitnessIndex(d)
    lid, rid, pool, star, ends = widx.lid, widx.rid, widx.pool, widx.star, widx.ends
    grids = _shared_columns(d)

    need_col = [0] * len(d.lreps)
    for i, k, common in grids:
        lik = lid[i] & lid[k]
        for j in common:
            need_col[j] |= lik

    right: list[dict[int, int]] = []
    left: list[dict[int, int]] = [{} for _ in d.projections]
    for j, todo in enumerate(need_col):
        table: dict[int, int] = {}
        right.append(table)
        row = left[j]
        while todo:
            low = todo & -todo
            todo ^= low
            b = low.bit_length() - 1
            q, s = ends[b]
            c = q[j]
            if c is not None and (c := s[c]) is not None:
                table[c] = table.get(c, 0) | low
                row[c] = row.get(c, 0) | star[b]

    entries = []
    for i, k, common in grids:
        rows = (i, k)
        lik = lid[i] & lid[k]
        down, up = left[i].get(k, 0), left[k].get(i, 0)
        for cols in itertools.combinations(common, 2):
            j, l = cols
            horizontal = "LR"
            w = right[j].get(l, 0) & lik
            if not w:
                horizontal = "RL"
                w = right[l].get(j, 0) & lik
            vertical = "UD"
            v = down & rid[j] & rid[l] if down else 0
            if not v:
                vertical = "DU"
                v = up & rid[j] & rid[l] if up else 0
            if w:
                u = pool[(w & -w).bit_length() - 1]
                entries.append(SquareEntry(rows, cols, horizontal, u))
            if v:
                u = pool[(v & -v).bit_length() - 1]
                entries.append(SquareEntry(rows, cols, vertical, u))
    return entries


# -- linked diamonds / triangles / pairs --------------------------------------


def _conjugations(d: DClassData) -> dict:
    """p -> row for each projection p of rank >= r, in canonical order:
    row[i] = j when θ_p(P[i]) = P[j], None when θ_p(P[i]) leaves P_D.
    The rows come from the handle's `theta_rows` on projection keys, which
    for P_n and B_n builds each join ker(p) v ker(s) once per kernel.  A
    projection p of lower rank is left out: rank(p s p) <= rank(p) < r, so
    its row would be all None."""
    h = d.handle
    key = h.projection_key
    ps = [p for p in h.projections() if h.rank(p) >= d.rank]
    return dict(zip(ps, h.theta_rows(map(key, ps), [key(s) for s in d.projections])))


def _by_image(row: list) -> dict[int, list[int]]:
    """w -> the indices u with row[u] = w, ascending, for the w in P_D."""
    out: dict[int, list[int]] = {}
    for u, w in enumerate(row):
        if w is not None:
            out.setdefault(w, []).append(u)
    return out


def enumerate_linked_diamonds(d: DClassData) -> list[LinkedDiamond]:
    """All linked diamonds (s,u;v,w) over P_D, one witness kept per diamond
    (the earliest conjugating projection in canonical order), deduplicated
    under (s,u;v,w) ~ (u,s;w,v).

    With v = θ_p(s) and w = θ_p(u) in P_D, one test decides all four
    friendly pairs, as p q p = p alone makes p, q in P_D friendly.  For
    a = s p, a a* = s p s <= s is D-related to a* a = v, so s p s = s
    and (s, v) is friendly; so is (u, w).  For a = s p u, a a* = s w s <= s
    and a* a = u v u <= u are D-related, so (s, w) is friendly iff (u, v)
    is.  That test depends on u only through w, so it runs once per
    (s, w) over the row grouped by image."""
    P = d.projections
    fr = d.friendly
    found: dict[tuple, LinkedDiamond] = {}
    for p, row in _conjugations(d).items():
        images = _by_image(row)
        for si, vi in enumerate(row):
            if vi is None:
                continue
            for wi, us in images.items():
                if (si, wi) in fr:
                    for ui in us:
                        key = min((si, ui, vi, wi), (ui, si, wi, vi))
                        if key not in found:
                            found[key] = LinkedDiamond(P[si], P[ui], P[vi], P[wi], p)
    return [found[k] for k in sorted(found)]


def linked_triangles(d: DClassData) -> list[tuple]:
    """p-linked triangles (s,u,w): psp=s, pup=w, with (s,w),(u,s),(u,w)
    friendly.  They are the linked diamonds with v = s, so one test
    decides all three (see `enumerate_linked_diamonds`).

    The corners s are the fixed points of θ_p, D_p = {s in P_D : s <= p},
    collected once per p, and the row is grouped by image w, so the test
    (s, w) runs once per (s, w) rather than once per (s, u).  Each
    triangle keeps its first p in canonical order."""
    P = d.projections
    fr = d.friendly
    found: dict[tuple, Any] = {}
    for p, row in _conjugations(d).items():
        fixed = [s for s, v in enumerate(row) if v == s]
        if not fixed:
            continue
        images = _by_image(row)
        for si in fixed:
            for wi, us in images.items():
                if (si, wi) in fr:
                    for ui in us:
                        key = (si, ui, wi)
                        if key not in found:
                            found[key] = (P[si], P[ui], P[wi], p)
    return [found[k] for k in sorted(found)]


def is_linked_pair(h: FiniteStarSemigroup, p, s, u) -> bool:
    """s = spups and u = upspu."""
    def m(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = h.product(acc, x)
        return acc

    return m(s, p, u, p, s) == s and m(u, p, s, p, u) == u


def is_linked_diamond(h: FiniteStarSemigroup, d: DClassData, s, u, v, w, p) -> bool:
    """(s, u; v, w) over P_D is linked by p; False when a corner lies
    outside P_D."""
    fr = d.friendly
    try:
        i, j, k, l = map(d.proj_index, (s, u, v, w))
    except KeyError:
        return False
    if not ((i, k) in fr and (i, l) in fr and (j, k) in fr and (j, l) in fr):
        return False
    return (
        h.product(h.product(p, s), p) == v
        and h.product(h.product(p, u), p) == w
    )


# -- NT-reducing squares ------------------------------------------------------


def is_nt_reducing(sq: Square) -> bool:
    """NTu of the top-right corner and NTd of the bottom-left corner both
    drop strictly below those of the base (bottom-right)."""
    return sq.f.ntu() < sq.h.ntu() and sq.g.ntd() < sq.h.ntd()


def _merge_blocks(e: Partition, blocks_to_merge: list[tuple[int, ...]]) -> Partition:
    merged = []
    pool = set()
    for b in blocks_to_merge:
        pool.update(b)
    merged.append(tuple(sorted(pool, key=lambda p: (p < 0, abs(p)))))
    for b in e.blocks():
        if tuple(b) not in [tuple(x) for x in blocks_to_merge]:
            merged.append(b)
    return partition_from_blocks(e.n, merged)


def projection_nt_square(e: Partition) -> tuple[Square, Partition]:
    """NT-reducing singular square with base a projection having a
    transversal and at least two upper blocks; returns (square, witness)."""
    blocks = e.blocks()
    trans = sorted(
        [b for b in blocks if any(p > 0 for p in b) and any(p < 0 for p in b)]
    )
    uppers = sorted([tuple(p for p in b) for b in blocks if all(p > 0 for p in b)])
    if not trans or len(uppers) < 2:
        raise ValueError("base must be a projection with a transversal and >= 2 upper blocks")
    A = tuple(sorted(p for p in trans[0] if p > 0))
    B, C = uppers[0], uppers[1]
    rest = [
        b
        for b in blocks
        if b != trans[0]
        and tuple(b) not in (B, C)
        and tuple(-p for p in b) not in (B, C)
    ]
    n = e.n
    negb = tuple(-p for p in B)
    negc = tuple(-p for p in C)
    nega = tuple(-p for p in A)
    e1 = partition_from_blocks(n, [A + C + nega + negb, B, negc, *rest])
    e2 = partition_from_blocks(n, [A + C + nega, B, negb, negc, *rest])
    e3 = partition_from_blocks(n, [A + nega + negb, B, C, negc, *rest])
    u = partition_from_blocks(n, [A + nega + negb, B, C + negc, *rest])
    return Square(e1, e2, e3, e), u


def nt_reducing_square_for(e: Partition) -> tuple[Square, Partition]:
    """An NT-reducing singular square with base e, for any idempotent of
    rank >= 1 outside F(n,r); returns (square, witness).

    Projections with >= 2 upper blocks use the three-block construction;
    non-projections merge an upper block into a transversal (preferring the
    same super-kernel component) and use the Ehresmann square, on the star
    side when the kernel sits inside the cokernel.
    """
    if involution(e) == e:
        return projection_nt_square(e)
    if eq_refines(e.ker(), e.coker()):
        sq, u = _nonprojection_nt_square(involution(e))
        return (
            Square(
                involution(sq.e), involution(sq.g), involution(sq.f), involution(sq.h)
            ),
            involution(u),
        )
    return _nonprojection_nt_square(e)


def _nonprojection_nt_square(e: Partition) -> tuple[Square, Partition]:
    assert not eq_refines(e.ker(), e.coker())
    blocks = e.blocks()
    uppers = sorted([b for b in blocks if all(p > 0 for p in b)])
    assert uppers, "base must have an upper non-transversal"
    comp_of = {x: k for k, (cls, _) in enumerate(idempotent_components(e)) for x in cls}
    trans = sorted(
        [b for b in blocks if any(p > 0 for p in b) and any(p < 0 for p in b)]
    )
    A = uppers[0]
    same = [t for t in trans if comp_of[t[0]] == comp_of[A[0]]]
    target = same[0] if same else trans[0]
    return ehresmann_square(e, _merge_blocks(e, [A, target]))


def ehresmann_square(e: Partition, f: Partition) -> tuple[Square, Partition]:
    """(fD(e) f; eD(e) e), RL-singularised by D(e), for e L f with
    ker(e) contained in ker(f)."""
    De = d_projection(e)
    return Square(multiply(f, De), f, multiply(e, De), e), De


# -- F(n, r) -----------------------------------------------------------------


def f_set(d: DClassData) -> list:
    """Full-domain or full-codomain idempotents plus P_1, for rank >= 1."""
    assert d.rank >= 1
    out = [
        e
        for e in d.idempotents
        if e.ntu() == 0
        or e.ntd() == 0
        or (involution(e) == e and e.ntu() == 1)
    ]
    return out


# -- labels -------------------------------------------------------------------


def label_prime(e: Partition) -> tuple[tuple[int, int], ...]:
    """Partial bijection pairing minima of the two halves of each transversal:
    the first top point and the first bottom point of each label found in
    both rows, ascending by top point as the top labels are canonical."""
    n, labels = e.n, e.labels
    top: dict[int, int] = {}
    for i, x in enumerate(labels[:n], 1):
        top.setdefault(x, i)
    bottom: dict[int, int] = {}
    for i, x in enumerate(labels[n:], 1):
        if x in top:
            bottom.setdefault(x, i)
    return tuple((i, bottom[x]) for x, i in top.items() if x in bottom)


def scale_down(pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Compress a partial bijection to a permutation of [r] (0-based images)."""
    tops = sorted(a for a, _ in pairs)
    bots = sorted(b for _, b in pairs)
    trank = {x: i for i, x in enumerate(tops)}
    brank = {x: i for i, x in enumerate(bots)}
    perm = [0] * len(pairs)
    for a, b in pairs:
        perm[trank[a]] = brank[b]
    return tuple(perm)


def label(e: Partition) -> tuple[int, ...]:
    """The permutation of [r] scaled down from label_prime(e); rank 0 errors."""
    pairs = label_prime(e)
    if not pairs:
        raise ValueError("label is undefined for rank-0 elements")
    return scale_down(pairs)


def is_coxeter_idempotent(e: Partition) -> bool:
    """Label is an adjacent transposition (i, i+1)."""
    perm = label(e)
    moved = [i for i, x in enumerate(perm) if x != i]
    return (
        len(moved) == 2
        and moved[1] == moved[0] + 1
        and perm[moved[0]] == moved[1]
        and perm[moved[1]] == moved[0]
    )
