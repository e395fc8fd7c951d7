"""Identify finitely presented groups at desk scale: abelianization via
integer Smith normal form, Todd-Coxeter coset enumeration, free-group
detection, label-homomorphism certification, and a combined verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .biorder import label
from .diagram import PartitionMonoid, bfs_edges
from .green import DClassData, gen_name_for_idempotent
from .ghgraph import p1_projections
from .present import GroupPresentation, SimplifyResult, tietze_simplify

# -- Smith normal form --------------------------------------------------------


def smith_normal_form(M: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form, d_1 | d_2 | ..., zeros last.

    Exact arbitrary-precision integer arithmetic throughout.
    """
    A = [list(map(int, row)) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    k = min(m, n)
    t = 0
    while t < k:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                for j in range(t, n):
                    A[i][j] -= q * A[t][j]
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                for i in range(t, m):
                    A[i][j] -= q * A[i][t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        witness = None
        d = A[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d != 0:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            for j in range(t, n):
                A[t][j] += A[witness][j]
            continue
        t += 1
    # The pivots before t are nonzero and the block from (t, t) on is zero.
    return [abs(A[i][i]) for i in range(k)]


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # in divisibility order, each > 1

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "trivial"


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    g = len(p.generators)
    if not p.relators:
        return AbelianInvariants(g, ())
    rows = []
    for w in p.relators:
        row = [0] * g
        for x in w:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    diag = smith_normal_form(rows)
    nonzero = [d for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return AbelianInvariants(g - len(nonzero), torsion)


# -- Todd-Coxeter coset enumeration ---------------------------------------------

# The default bound on the cosets of one enumeration (`--max-cosets`).
MAX_COSETS = 10**6


@dataclass
class CosetTable:
    order: int | None  # None when the enumeration exceeded its limit
    cosets_defined: int

    @property
    def complete(self) -> bool:
        return self.order is not None


class _Overflow(Exception):
    """Raised inside `todd_coxeter` by the definition that passes its bound."""


def todd_coxeter(p: GroupPresentation, max_cosets: int = MAX_COSETS) -> CosetTable:
    """HLT enumeration of the cosets of the trivial subgroup: scan each live
    coset's relators in turn, defining a coset wherever a scan stops short
    of closing, then fill the coset's empty entries.  Every relator a scan
    closes and every clash an entry meets queues a coincidence, and the
    queue is merged, each pair into its smaller coset, before the next scan.
    Deterministic.

    Bound contract: the table holds at most max_cosets cosets (and always
    coset 0).  The definition that would pass the bound stops the
    enumeration incomplete, not failed: order None and cosets_defined
    max_cosets + 1 (2 when max_cosets is 0).
    """
    nl = 2 * len(p.generators)
    if not nl:
        return CosetTable(1, 1)
    rels = [tuple(2 * (abs(x) - 1) + (x < 0) for x in w) for w in p.relators if w]
    table: list[list[int | None]] = [[None] * nl]
    rep = [0]
    queue: list[tuple[int, int]] = []

    def find(c: int) -> int:
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    def link(c: int, l: int, d: int) -> None:
        """c·l = d and d·l⁻¹ = c, queueing the entries they overwrite."""
        c, d = find(c), find(d)
        if (old := table[c][l]) is not None and find(old) != d:
            queue.append((find(old), d))
        table[c][l] = d
        if (old := table[d][l ^ 1]) is not None and find(old) != c:
            queue.append((find(old), c))
        table[d][l ^ 1] = c

    def settle() -> None:
        """Merge each queued coincidence into the smaller of its cosets."""
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x != y:
                x, y = min(x, y), max(x, y)
                rep[y] = x
                for l, ty in enumerate(table[y]):
                    if ty is not None:
                        link(x, l, ty)

    def define(c: int, l: int) -> int:
        """A new coset d = c·l: the one place a coset is created."""
        d = len(table)
        table.append([None] * nl)
        rep.append(d)
        if d >= max_cosets:
            raise _Overflow
        link(c, l, d)
        return d

    def scan(c: int, r: tuple[int, ...]) -> None:
        """Scan r from c both ways, defining cosets until it closes."""
        f, i, b, j = c, 0, c, len(r) - 1
        while True:
            while i <= j and (nxt := table[find(f)][r[i]]) is not None:
                f, i = nxt, i + 1
            while i <= j and (prv := table[find(b)][r[j] ^ 1]) is not None:
                b, j = prv, j - 1
            if i > j:
                queue.append((f, b))
                return settle()
            if i == j:
                link(f, r[i], b)
                return settle()
            f, i = define(f, r[i]), i + 1

    try:
        c = 0
        while c < len(table):
            for r in rels:
                if find(c) != c:
                    break
                scan(c, r)
            if find(c) == c:
                for l in range(nl):
                    if table[c][l] is None:
                        define(c, l)
            c += 1
    except _Overflow:
        return CosetTable(None, len(table))
    return CosetTable(sum(find(c) == c for c in range(len(table))), len(table))


# -- label homomorphism -----------------------------------------------------------


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b (diagram order)."""
    return tuple(map(b.__getitem__, a))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def permutation_group_order(gens: list[tuple[int, ...]]) -> int:
    """|<gens>|: the identity and every element that the breadth-first
    tree of the Cayley graph reaches from it."""
    if not gens:
        return 1
    ident = tuple(range(len(gens[0])))
    return 1 + len(bfs_edges(lambda x: (perm_compose(x, g) for g in gens), ident))


@dataclass(frozen=True)
class LabelCheck:
    valid: bool
    image_order: int


def check_label_homomorphism(
    p: GroupPresentation, assignment: dict[str, tuple[int, ...]]
) -> LabelCheck:
    """True iff every relator maps to the identity permutation; also
    reports the order of the permutation group the assignment generates."""
    perms = []
    for name in p.generators:
        if name not in assignment:
            raise KeyError(f"assignment missing generator {name}")
        perms.append(tuple(assignment[name]))
    deg = len(perms[0]) if perms else 0
    ident = tuple(range(deg))
    inverses = [perm_inv(g) for g in perms]
    valid = True
    for w in p.relators:
        acc = ident
        for x in w:
            acc = perm_compose(acc, perms[x - 1] if x > 0 else inverses[-x - 1])
        if acc != ident:
            valid = False
            break
    return LabelCheck(valid, permutation_group_order(perms))


# -- combined verdict ---------------------------------------------------------------


@dataclass
class IdentifyHints:
    rank: int | None = None  # the r of a hoped-for S_r / Z x S_r
    labels: dict[str, tuple[int, ...]] | None = None
    quotient_generators: tuple[str, ...] = ()
    max_cosets: int = MAX_COSETS


def subgroup_hints(
    d: DClassData, family: str, max_cosets: int = MAX_COSETS
) -> IdentifyHints:
    """Hints for the `family` presentation of `subgroup_presentation` over
    d: ig and pg of a P_n class at rank r >= 1 get r and the label of each
    generator's idempotent, and ig at 1 <= r <= n-2 also the quotient by
    the first P_1 projection, of order r! for Z x S_r.  Other handles get
    no label map or quotient: both are P_n's."""
    h, r = d.handle, d.rank
    if family not in ("ig", "pg") or not isinstance(h, PartitionMonoid) or r < 1:
        return IdentifyHints(max_cosets=max_cosets)
    labels = dict(zip(d.gen_names, map(label, d.idempotents)))
    quot = ()
    if family == "ig" and r <= h.n - 2:
        quot = (gen_name_for_idempotent(h, p1_projections(h.n, r)[0]),)
    return IdentifyHints(
        rank=r, labels=labels, quotient_generators=quot, max_cosets=max_cosets
    )


@dataclass
class Verdict:
    kind: str  # "free" | "finite" | "z_cross_finite" | "unknown"
    rank: int | None = None
    order: int | None = None
    tag: str | None = None
    certification: str | None = None  # "certified" | "partial"
    evidence: list[str] = field(default_factory=list)

    @property
    def is_trivial(self) -> bool:
        return (self.kind == "free" and self.rank == 0) or (
            self.kind == "finite" and self.order == 1
        )

    def describe(self) -> str:
        if self.kind == "free":
            if self.rank == 0:
                return "trivial (free of rank 0)"
            if self.rank == 1:
                return "Z (free rank 1)"
            return f"free of rank {self.rank}"
        if self.kind == "finite":
            if self.tag and self.certification == "certified":
                return f"{self.tag} (order {self.order}, certified)"
            if self.order == 1:
                return "trivial"
            return f"finite of order {self.order}"
        if self.kind == "z_cross_finite":
            base = f"consistent with Z x {self.tag or 'finite'}"
            return f"{base} (finite part order {self.order}, certification: {self.certification})"
        return "unknown"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rank": self.rank,
            "order": self.order,
            "tag": self.tag,
            "certification": self.certification,
            "description": self.describe(),
            "evidence": list(self.evidence),
        }


def identify(
    p: GroupPresentation,
    hints: IdentifyHints | None = None,
    *,
    simplified: SimplifyResult | None = None,
) -> Verdict:
    """Combined verdict pipeline.

    simplify -> free detection -> abelianization -> (S_r route) full coset
    enumeration plus a surjective label homomorphism, or (Z x S_r route,
    reported as partial) abelian invariants, quotient by a hinted generator
    enumerating to r!, and the label homomorphism.  The quotient is the
    simplified presentation plus the hinted generators' images through the
    elimination record; it is enumerated only when its abelianization is
    finite, and only once the torsion and the label map fit the target.
    `simplified`, a `tietze_simplify` result for p that the caller already
    holds, is used instead of simplifying again.

    The labels are checked on Q, the simplified presentation, and only Q's
    generators' labels are read.  Q presents p's group G, so a map killing
    Q's relators is a homomorphism G -> S_r; with |Q| = r! and image order
    r! it certifies S_r.  Where the check on p holds, each eliminated
    generator's label equals that of the word replacing it, so the check on
    Q gives the same result and image order.
    """
    hints = hints or IdentifyHints()
    ev: list[str] = []
    simp = simplified
    if simp is None:
        simp = tietze_simplify(p)
    q = simp.presentation
    ev.append(
        f"simplified to {len(q.generators)} generators, {len(q.relators)} relators"
        f" in {simp.eliminations} eliminations"
    )
    r = hints.rank
    sr_order = None  # r! when the label map is a homomorphism onto S_r
    if hints.labels is not None:
        label_check = check_label_homomorphism(q, hints.labels)
        ev.append(
            f"label homomorphism valid={label_check.valid}, "
            f"image order {label_check.image_order}"
        )
        order = label_check.image_order
        if label_check.valid and r is not None and order == math.factorial(r):
            sr_order = order

    def certified() -> Verdict:
        """S_r: Q has order r!, and the labels map it onto S_r."""
        return Verdict(
            "finite", order=sr_order, tag=f"S_{r}", certification="certified", evidence=ev
        )

    if not q.relators:
        if not q.generators:
            if sr_order == 1:
                return certified()
            return Verdict("finite", rank=0, order=1, evidence=ev)
        return Verdict("free", rank=len(q.generators), evidence=ev)
    ab = abelianization(q)
    ev.append(f"abelianization: {ab.describe()}")
    if ab.free_rank == 0:
        ct = todd_coxeter(q, hints.max_cosets)
        if not ct.complete:
            ev.append(f"coset enumeration exceeded {hints.max_cosets} cosets")
            return Verdict("unknown", evidence=ev)
        ev.append(f"coset enumeration: order {ct.order}")
        if ct.order == sr_order:
            return certified()
        return Verdict("finite", order=ct.order, evidence=ev)
    if ab.free_rank == 1 and hints.quotient_generators:
        expected_torsion = () if (r is None or r <= 1) else (2,)
        torsion_ok = ab.torsion == expected_torsion
        ev.append(
            f"torsion {ab.torsion} {'matches' if torsion_ok else 'differs from'} "
            f"the direct-product target {expected_torsion}"
        )
        if not torsion_ok or sr_order is None:
            return Verdict("unknown", evidence=ev)
        qp = simp.quotient(
            (p.gen_index(name) + 1,) for name in hints.quotient_generators
        )
        qsimp = tietze_simplify(qp)
        names = ", ".join(hints.quotient_generators)
        qab = abelianization(qsimp.presentation)
        if qab.free_rank:
            ev.append(f"quotient by {names} is infinite: abelianization {qab.describe()}")
            return Verdict("unknown", evidence=ev)
        ct = todd_coxeter(qsimp.presentation, hints.max_cosets)
        if ct.complete:
            ev.append(f"quotient by {names}: order {ct.order}")
        else:
            ev.append("quotient enumeration incomplete")
            return Verdict("unknown", evidence=ev)
        if ct.order == sr_order:
            ev.append(
                "certification is partial: the final direct-product step is "
                "not mechanised"
            )
            return Verdict(
                "z_cross_finite",
                order=ct.order,
                tag=f"S_{r}",
                certification="partial",
                evidence=ev,
            )
        return Verdict("unknown", evidence=ev)
    return Verdict("unknown", evidence=ev)
