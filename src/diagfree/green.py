"""Green's relations, regular D-class assembly and friendliness structure.

For a handle with involution the R- and L-classes of a D-class are indexed
by the projections it contains (a a* and a*a pick out the indices); generic
handles without involution fall back to arbitrary class representatives.
"""

from __future__ import annotations

import math
from collections.abc import KeysView
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .diagram import FiniteStarSemigroup, PartitionHandleBase


class EmptyClassError(ValueError):
    pass


# -- Green's relations ------------------------------------------------------


def r_related(h: FiniteStarSemigroup, a, b) -> bool:
    if isinstance(h, PartitionHandleBase):
        return a.dom() == b.dom() and a.ker() == b.ker()
    return right_ideal(h, a) == right_ideal(h, b)


def l_related(h: FiniteStarSemigroup, a, b) -> bool:
    if isinstance(h, PartitionHandleBase):
        return a.codom() == b.codom() and a.coker() == b.coker()
    return left_ideal(h, a) == left_ideal(h, b)


def d_related(h: FiniteStarSemigroup, a, b) -> bool:
    """a D b: every handle's `rank` names the D-class of an element."""
    return h.rank(a) == h.rank(b)


def right_ideal(h: FiniteStarSemigroup, a) -> frozenset:
    """The principal right ideal a S^1."""
    out = {a}
    out.update(h.product(a, s) for s in h.elements())
    return frozenset(out)


def left_ideal(h: FiniteStarSemigroup, a) -> frozenset:
    """The principal left ideal S^1 a."""
    out = {a}
    out.update(h.product(s, a) for s in h.elements())
    return frozenset(out)


# -- D-class data -----------------------------------------------------------


@dataclass
class DClassData:
    """A regular D-class as its Graham-Houghton graph.

    The vertices are the R- and L-classes: for star handles `projections`
    indexes both.  The edges are the idempotents: `e_of_pair` maps each
    friendly index pair (i, j), whose H-class is a group, to the unique
    idempotent p_i p_j in it, in canonical order of E_D.  Every other fact
    is read off these on first use: `friendly` (a view of the pairs),
    `idempotents`, `size`, `strata`, the projection index, and `row_cols`,
    the ascending columns of each row.  `rank` is the class's `h.rank`: on
    an adjacency semigroup 0 for the zero and 1 for the non-zero class.

    `size` is |D| = |rows| |cols| r!, read off the indices: the R- and
    L-classes of D index its H-classes, which all have the order of a group
    H-class.  That order is r! in P_n, B_n and T_n (the group H-class of a
    rank-r projection or idempotent is S_r) and 1 = 0! = 1! in an adjacency
    class, whose elements are pairwise H-inequivalent.
    """

    handle: FiniteStarSemigroup
    rank: int
    projections: list          # P_D (star handles); R-class reps otherwise
    lreps: list                # == projections for star handles
    e_of_pair: dict[tuple[int, int], Any]  # in canonical order of E_D

    @property
    def size(self) -> int:
        return len(self.projections) * len(self.lreps) * math.factorial(self.rank)

    @cached_property
    def idempotents(self) -> list:
        """E_D in canonical order."""
        return list(self.e_of_pair.values())

    @property
    def friendly(self) -> KeysView[tuple[int, int]]:
        """The friendly index pairs: a read-only view of `e_of_pair`."""
        return self.e_of_pair.keys()

    @cached_property
    def strata(self) -> dict[tuple[int, int], list]:
        """E_D grouped by (NTu, NTd); empty unless the elements are partitions."""
        out: dict[tuple[int, int], list] = {}
        if isinstance(self.handle, PartitionHandleBase):
            for e in self.idempotents:
                out.setdefault((e.ntu(), e.ntd()), []).append(e)
        return out

    @cached_property
    def row_cols(self) -> list[list[int]]:
        """row_cols[i]: the columns j of the idempotents in row i, ascending."""
        out: list[list[int]] = [[] for _ in self.projections]
        for i, j in sorted(self.e_of_pair):
            out[i].append(j)
        return out

    @cached_property
    def elements(self) -> list:
        """The members of D, by a filter over the whole monoid: a reference
        for the tests, which no pipeline stage reads."""
        h = self.handle
        return [x for x in h.elements() if h.rank(x) == self.rank]

    @cached_property
    def _pindex(self) -> dict:
        return {p: i for i, p in enumerate(self.projections)}

    def proj_index(self, p) -> int:
        return self._pindex[p]

    @staticmethod
    def _rkey(a):
        return (
            tuple(sorted(a.dom())),
            tuple(sorted(tuple(sorted(c)) for c in a.ker())),
        )

    @staticmethod
    def _lkey(a):
        return (
            tuple(sorted(a.codom())),
            tuple(sorted(tuple(sorted(c)) for c in a.coker())),
        )


def friendly_products(h: FiniteStarSemigroup, P: list) -> dict[tuple[int, int], Any]:
    """p_i p_j for each friendly pair (i, j) of the projections P of one
    D-class: p_i p_j p_i = p_i and p_j p_i p_j = p_j.

    In a regular *-semigroup such a product e is idempotent, with e e* = p_i
    and e* e = p_j, and e* = p_j p_i.  Every idempotent e is (e e*)(e* e),
    the product of a friendly pair (Nordahl and Scheiblich, Regular
    *-semigroups, 1978), so over the projections of one D-class the map is
    a bijection onto its idempotents.

    The pairs are read off the rows of θ on projection keys: (i, j) is
    friendly when θ_{p_i}(p_j) = p_i and θ_{p_j}(p_i) = p_j.  Only the
    friendly pairs are multiplied, in ascending (i, j) order.  A projection
    is friendly with itself.
    """
    key = h.projection_key
    K = [key(p) for p in P]
    rows = list(h.theta_rows(K, K))
    return {
        (i, j): h.product(P[i], P[j])
        for i, row in enumerate(rows)
        for j, t in enumerate(row)
        if t == i and rows[j][i] == j
    }


def dclass_data(h: FiniteStarSemigroup, r: int) -> DClassData:
    """Assemble the D-class of rank r, the class whose elements x have
    h.rank(x) == r; a rank that names no class raises `EmptyClassError`.

    For a star handle P_D is the class's part of `h.projections()` and
    E_D the products of its friendly pairs (`friendly_products`), so no
    element outside P_D is tested for idempotency.  A handle without
    involution takes E_D from `h.idempotents()` and indexes rows and
    columns by the kernel and cokernel keys of its rank-r idempotents: in
    a regular D-class every R- and every L-class holds one.  `e_of_pair`
    is filled in canonical order of E_D, and every other fact of the class
    is derived from it on first use.  The class is not listed: |D| =
    |rows| |cols| |H| (see `DClassData`), so on P_n no stage here
    enumerates the monoid.

    Nothing is re-checked here: that each friendly pair product is
    idempotent, that the pair -> idempotent map is injective and that the
    strata partition E_D follow from the Nordahl-Scheiblich bijection (see
    `friendly_products`), and the tests check them against the x x = x
    filter over the whole monoid."""
    if h.has_star:
        projections = [p for p in h.projections() if h.rank(p) == r]
        lreps = projections
        pairs = friendly_products(h, projections).items()
    else:
        rank_idem = [e for e in h.idempotents() if h.rank(e) == r]
        projections = sorted({DClassData._rkey(e) for e in rank_idem})
        lreps = sorted({DClassData._lkey(e) for e in rank_idem})
        rindex = {k: i for i, k in enumerate(projections)}
        lindex = {k: j for j, k in enumerate(lreps)}
        pairs = [
            ((rindex[DClassData._rkey(e)], lindex[DClassData._lkey(e)]), e)
            for e in rank_idem
        ]
    if not projections:
        raise EmptyClassError(f"{h.describe()} has no elements of rank {r}")
    e_of_pair = dict(sorted(pairs, key=lambda item: h.sort_key(item[1])))
    return DClassData(h, r, projections, lreps, e_of_pair)


def sandwich_set(h: FiniteStarSemigroup, e, f) -> list:
    """S(e,f) = {idempotents h' with e h' f = ef and f h' e = h'}."""
    if not h.is_idempotent(e) or not h.is_idempotent(f):
        raise ValueError("sandwich_set requires idempotent arguments")
    ef = h.product(e, f)
    out = []
    for x in h.idempotents():
        if h.product(h.product(e, x), f) == ef and h.product(h.product(f, x), e) == x:
            out.append(x)
    return out
