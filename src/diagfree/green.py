"""Green's relations, regular D-class assembly and friendliness structure.

For a handle with involution the R- and L-classes of a D-class are indexed
by the projections it contains (a a* and a*a pick out the indices); generic
handles without involution fall back to arbitrary class representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .diagram import (
    ADJ_ZERO,
    AdjacencySemigroup,
    FiniteStarSemigroup,
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
    """

    handle: FiniteStarSemigroup
    rank: int | None
    size: int
    projections: list          # P_D (star handles); R-class reps otherwise
    lreps: list                # == projections for star handles
    idempotents: list          # E_D in canonical order
    friendly: set[tuple[int, int]]
    e_of_pair: dict[tuple[int, int], Any]
    elements: list
    strata: dict[tuple[int, int], list] = field(default_factory=dict)

    @property
    def is_star(self) -> bool:
        return self.handle.has_star

    def proj_index(self, p) -> int:
        return self._pindex[p]

    def r_index_of(self, e) -> int:
        """Index of the R-class of the idempotent e."""
        h = self.handle
        if self.is_star:
            return self._pindex[h.product(e, h.star(e))]
        return self._pindex[self._rkey(e)]

    def l_index_of(self, e) -> int:
        h = self.handle
        if self.is_star:
            return self._lindex[h.product(h.star(e), e)]
        return self._lindex[self._lkey(e)]

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
        """Build the lookup dictionaries; called once by `dclass_data`."""
        self._pindex = {p: i for i, p in enumerate(self.projections)}
        self._lindex = {q: j for j, q in enumerate(self.lreps)}
        return self

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        h = self.handle
        if self.is_star:
            # pq[(i, j)] = p_i p_j for the pairs with p_i p_j p_i = p_i; each
            # product p_i p_j and (p_i p_j) p_i is made once
            P = self.projections
            pq = {}
            for i, p in enumerate(P):
                for j, q in enumerate(P):
                    x = h.product(p, q)
                    if h.product(x, p) == p:
                        pq[(i, j)] = x
            for i in range(len(P)):
                for j in range(len(P)):
                    fr = (i, j) in pq and (j, i) in pq
                    assert ((i, j) in self.friendly) == fr, "friendliness mismatch"
            assert len(self.friendly) == len(self.idempotents), (
                "the map (p,q) -> pq must biject onto E_D"
            )
            seen = set()
            for (i, j) in self.friendly:
                e = pq[(i, j)]
                assert e == self.e_of_pair[(i, j)]
                assert e not in seen
                seen.add(e)
        if self.strata:
            total = sum(len(v) for v in self.strata.values())
            assert total == len(self.idempotents), "strata must partition E_D"
            for (k, l), es in self.strata.items():
                for e in es:
                    assert e.ntu() == k and e.ntd() == l


def dclass_data(h: FiniteStarSemigroup, r: int | None = None) -> DClassData:
    """Assemble the D-class of rank r, or the unique non-zero class of an
    adjacency semigroup (rank None, no strata)."""
    if isinstance(h, AdjacencySemigroup):
        r = None
        elems = [x for x in h.elements() if x != ADJ_ZERO]
    elif r is None:
        raise EmptyClassError("a rank is required for partition-like handles")
    else:
        elems = [a for a in h.elements() if a.rank() == r]
    if not elems:
        raise EmptyClassError(f"{h.describe()} has no elements of rank {r}")
    members = set(elems)
    idem = [e for e in h.idempotents() if e in members]
    if h.has_star:
        projections = [p for p in idem if h.star(p) == p]
        lreps = projections
    else:
        rkeys = sorted({DClassData._rkey(a) for a in elems})
        lkeys = sorted({DClassData._lkey(a) for a in elems})
        projections, lreps = list(rkeys), list(lkeys)
    d = DClassData(
        handle=h,
        rank=r,
        size=len(elems),
        projections=projections,
        lreps=lreps,
        idempotents=idem,
        friendly=set(),
        e_of_pair={},
        elements=elems,
    )
    d.finish()
    for e in idem:
        pair = (d.r_index_of(e), d.l_index_of(e))
        d.friendly.add(pair)
        d.e_of_pair[pair] = e
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
