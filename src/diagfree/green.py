"""Green's relations, regular D-class assembly and friendliness structure.

For a handle with involution the R- and L-classes of a D-class are indexed
by the projections it contains (a a* and a*a pick out the indices); generic
handles without involution fall back to arbitrary class representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .diagram import (
    ADJ_ZERO,
    AdjacencySemigroup,
    FiniteStarSemigroup,
    Partition,
    PartitionHandleBase,
)


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
    if isinstance(h, PartitionHandleBase):
        return a.rank() == b.rank()
    # D = R o L in a finite semigroup
    ra = right_ideal(h, a)
    for c in h.elements():
        if right_ideal(h, c) == ra and left_ideal(h, c) == left_ideal(h, b):
            return True
    return False


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
    """A regular D-class with projection-indexed structure.

    For star handles, `projections` indexes both the R- and the L-classes;
    `friendly` holds the index pairs (i, j) whose H-class is a group, and
    `e_of_pair` maps such a pair to the unique idempotent p_i p_j in it.
    The zero D-class of an adjacency semigroup is excluded: only the unique
    non-zero class is built.

    `size` is |D| = |rows| |cols| |H|, read off the indices: the R- and
    L-classes of D index its H-classes, which all have the order of a group
    H-class.  That order is r! in P_n, B_n and T_n (the group H-class of a
    rank-r projection or idempotent is S_r) and 1 in an adjacency class,
    whose non-zero elements are pairwise H-inequivalent.
    """

    handle: FiniteStarSemigroup
    rank: int | None
    size: int
    projections: list          # P_D (star handles); R-class reps otherwise
    lreps: list                # == projections for star handles
    idempotents: list          # E_D in canonical order
    friendly: set[tuple[int, int]]
    e_of_pair: dict[tuple[int, int], Any]
    strata: dict[tuple[int, int], list] = field(default_factory=dict)

    @property
    def is_star(self) -> bool:
        return self.handle.has_star

    @cached_property
    def elements(self) -> list:
        """The members of D, by a filter over the whole monoid: a reference
        for the tests, which no pipeline stage reads."""
        return [x for x in self.handle.elements() if _in_class(x, self.rank)]

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

    def finish(self) -> "DClassData":
        """Build the index of `projections`; called once by `dclass_data`."""
        self._pindex = {p: i for i, p in enumerate(self.projections)}
        return self

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        """For star handles: each friendly pair product p q is idempotent,
        and (p, q) -> p q is injective, so E_D has one idempotent per
        friendly pair.  The strata partition E_D."""
        h = self.handle
        if self.is_star:
            seen = set()
            for e in self.e_of_pair.values():
                assert h.product(e, e) == e, "a friendly pair product must be idempotent"
                assert e not in seen, "the map (p,q) -> pq must be injective"
                seen.add(e)
        if self.strata:
            total = sum(len(v) for v in self.strata.values())
            assert total == len(self.idempotents), "strata must partition E_D"
            for (k, l), es in self.strata.items():
                for e in es:
                    assert e.ntu() == k and e.ntd() == l


def friendly_products(h: FiniteStarSemigroup, P: list) -> dict[tuple[int, int], Any]:
    """p_i p_j for each friendly pair (i, j) of the projections P:
    p_i p_j p_i = p_i and p_j p_i p_j = p_j.

    In a regular *-semigroup such a product e is idempotent, with e e* = p_i
    and e* e = p_j, and e* = p_j p_i.  Every idempotent e is (e e*)(e* e),
    the product of a friendly pair (Nordahl and Scheiblich, Regular
    *-semigroups, 1978), so over the projections of one D-class the map is
    a bijection onto its idempotents.  One product per ordered pair:
    (p q)(p q)* = p q p, so p q R p iff p q p = p, and dually p q L q iff
    q p q = q.  As p q <=_R p and p q <=_L q, in a finite semigroup both
    hold iff p D q and p q D p.
    """
    prod = h.product
    cls = [_class_of(p) for p in P]
    out = {}
    for i, p in enumerate(P):
        for j, q in enumerate(P):
            x = prod(p, q)
            if _class_of(x) == cls[i] == cls[j]:
                out[(i, j)] = x
    return out


def _class_of(x):
    """The D-class of x: its rank, or for an adjacency element whether it
    is the zero."""
    return x.rank() if isinstance(x, Partition) else x == ADJ_ZERO


def _in_class(x, r: int | None) -> bool:
    """Membership of the rank-r class, or of the non-zero adjacency class
    when r is None."""
    return x != ADJ_ZERO if r is None else x.rank() == r


def dclass_data(h: FiniteStarSemigroup, r: int | None = None) -> DClassData:
    """Assemble the D-class of rank r, or the unique non-zero class of an
    adjacency semigroup (rank None, no strata).

    For a star handle P_D is the class's part of `h.projections()` and
    E_D the products of its friendly pairs (`friendly_products`), so no
    element outside P_D is tested for idempotency.  A handle without
    involution takes E_D from `h.idempotents()` and indexes rows and
    columns by the kernel and cokernel keys of its rank-r idempotents: in
    a regular D-class every R- and every L-class holds one.  E_D is in
    canonical order, and `e_of_pair` and `friendly` are filled in that
    order.  The class is not listed: |D| = |rows| |cols| |H| (see
    `DClassData`), so on P_n no stage here enumerates the monoid."""
    if isinstance(h, AdjacencySemigroup):
        r = None
    elif r is None:
        raise EmptyClassError("a rank is required for partition-like handles")
    if h.has_star:
        projections = [p for p in h.projections() if _in_class(p, r)]
        lreps = projections
        pairs = friendly_products(h, projections).items()
    else:
        rank_idem = [e for e in h.idempotents() if _in_class(e, r)]
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
    idem = list(e_of_pair.values())
    d = DClassData(
        handle=h,
        rank=r,
        size=len(projections) * len(lreps) * (1 if r is None else math.factorial(r)),
        projections=projections,
        lreps=lreps,
        idempotents=idem,
        friendly=set(e_of_pair),
        e_of_pair=e_of_pair,
    )
    d.finish()
    if r is not None:
        for e in idem:
            d.strata.setdefault((e.ntu(), e.ntd()), []).append(e)
    d.check_invariants()
    return d


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
