"""Identify finitely presented groups at desk scale: abelianization via
integer Smith normal form, Todd-Coxeter coset enumeration, free-group
detection, label-homomorphism certification, and a combined verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    diag = []
    for i in range(k):
        v = abs(A[i][i]) if i < m and i < n else 0
        diag.append(v)
    # zeros can only trail by construction; normalize anyway
    nonzero = [d for d in diag if d]
    return nonzero + [0] * (k - len(nonzero))


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


@dataclass
class CosetTable:
    status: str  # "complete" | "exceeded"
    order: int | None
    cosets_defined: int

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def todd_coxeter(p: GroupPresentation, max_cosets: int = 10**6) -> CosetTable:
    """HLT-style enumeration of the cosets of the trivial subgroup.

    Relator scanning with immediate deductions and ordered coset
    definition; deterministic.  If the table would exceed max_cosets the
    enumeration stops with status "exceeded" (not a failure).
    """
    ngens = len(p.generators)
    if ngens == 0:
        return CosetTable("complete", 1, 1)
    nl = 2 * ngens
    rels = []
    for w in p.relators:
        rels.append(
            tuple((2 * (abs(x) - 1)) + (0 if x > 0 else 1) for x in w)
        )
    rels = [r for r in rels if r]

    table: list[list[int | None]] = [[None] * nl]
    rep = [0]
    defined = 1

    def find(c: int) -> int:
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    pending: list[tuple[int, int]] = []

    def set_entry(c: int, l: int, d: int) -> None:
        c, d = find(c), find(d)
        ec = table[c][l]
        if ec is not None and find(ec) != d:
            pending.append((find(ec), d))
        table[c][l] = d
        ed = table[d][l ^ 1]
        if ed is not None and find(ed) != c:
            pending.append((find(ed), c))
        table[d][l ^ 1] = c

    def coincide(a: int, b: int) -> None:
        pending.append((a, b))
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            rep[y] = x
            for l in range(nl):
                ty = table[y][l]
                if ty is None:
                    continue
                ty = find(ty)
                tx = table[x][l]
                if tx is None:
                    table[x][l] = ty
                    if table[ty][l ^ 1] is None:
                        table[ty][l ^ 1] = x
                    else:
                        pending.append((find(table[ty][l ^ 1]), x))
                else:
                    pending.append((find(tx), ty))

    def drain() -> None:
        if pending:
            coincide(*pending.pop())

    def new_coset() -> int:
        table.append([None] * nl)
        rep.append(len(rep))
        return len(rep) - 1

    def scan_and_fill(c: int, r: tuple[int, ...]) -> None:
        nonlocal defined
        f, i = c, 0
        b, j = c, len(r) - 1
        while True:
            # forward as far as defined
            while i <= j:
                nxt = table[find(f)][r[i]]
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            if i > j:
                if find(f) != find(b):
                    coincide(f, b)
                return
            # backward as far as defined
            while j >= i:
                prv = table[find(b)][r[j] ^ 1]
                if prv is None:
                    break
                b = find(prv)
                j -= 1
            if j < i:
                if find(f) != find(b):
                    coincide(f, b)
                return
            if i == j:
                set_entry(find(f), r[i], find(b))
                drain()
                return
            d = new_coset()
            defined += 1
            set_entry(find(f), r[i], d)
            drain()
            f = find(d)
            i += 1
            if defined > max_cosets:
                raise _Exceeded

    class _Exceeded(Exception):
        pass

    try:
        c = 0
        while c < len(table):
            if find(c) != c:
                c += 1
                continue
            for r in rels:
                if find(c) != c:
                    break
                scan_and_fill(c, r)
            if find(c) == c:
                for l in range(nl):
                    if table[c][l] is None:
                        d = new_coset()
                        defined += 1
                        set_entry(c, l, d)
                        if defined > max_cosets:
                            raise _Exceeded
            c += 1
    except _Exceeded:
        return CosetTable("exceeded", None, defined)
    live = sum(1 for c in range(len(rep)) if find(c) == c)
    return CosetTable("complete", live, defined)


# -- label homomorphism -----------------------------------------------------------


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b (diagram order)."""
    return tuple(b[a[i]] for i in range(len(a)))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def permutation_group_order(gens: list[tuple[int, ...]]) -> int:
    if not gens:
        return 1
    deg = len(gens[0])
    ident = tuple(range(deg))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


@dataclass(frozen=True)
class LabelCheck:
    valid: bool
    image_order: int
    failures: tuple[str, ...] = ()


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
    failures = []
    for w in p.relators:
        acc = ident
        for x in w:
            g = perms[abs(x) - 1]
            acc = perm_compose(acc, g if x > 0 else perm_inv(g))
        if acc != ident:
            failures.append(p.word_str(w))
            if len(failures) >= 5:
                break
    return LabelCheck(
        valid=not failures,
        image_order=permutation_group_order(perms),
        failures=tuple(failures),
    )


# -- combined verdict ---------------------------------------------------------------


@dataclass
class IdentifyHints:
    rank: int | None = None  # the r of a hoped-for S_r / Z x S_r
    labels: dict[str, tuple[int, ...]] | None = None
    quotient_generators: tuple[str, ...] = ()
    max_cosets: int = 10**6
    simplify_budget: int | None = None


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
    elimination record.  `simplified`, a `tietze_simplify` result for p
    that the caller already holds, is used instead of simplifying again.
    """
    hints = hints or IdentifyHints()
    ev: list[str] = []
    simp = simplified
    if simp is None:
        simp = tietze_simplify(p, hints.simplify_budget)
    q = simp.presentation
    ev.append(
        f"simplified to {len(q.generators)} generators, {len(q.relators)} relators"
        f" in {simp.eliminations} eliminations"
        + ("" if simp.complete else " (budget exhausted)")
    )
    label_check = None
    if hints.labels is not None:
        label_check = check_label_homomorphism(p, hints.labels)
        ev.append(
            f"label homomorphism valid={label_check.valid}, "
            f"image order {label_check.image_order}"
        )
    if not q.relators:
        if not q.generators:
            if (
                hints.rank is not None
                and math.factorial(hints.rank) == 1
                and label_check is not None
                and label_check.valid
                and label_check.image_order == 1
            ):
                return Verdict(
                    "finite",
                    order=1,
                    tag=f"S_{hints.rank}",
                    certification="certified",
                    evidence=ev,
                )
            return Verdict("finite", rank=0, order=1, evidence=ev)
        return Verdict("free", rank=len(q.generators), evidence=ev)
    ab = abelianization(q)
    ev.append(f"abelianization: {ab.describe()}")
    r = hints.rank
    if ab.free_rank == 0:
        ct = todd_coxeter(q, hints.max_cosets)
        if not ct.complete:
            ev.append(f"coset enumeration exceeded {hints.max_cosets} cosets")
            return Verdict("unknown", evidence=ev)
        ev.append(f"coset enumeration: order {ct.order}")
        if (
            r is not None
            and label_check is not None
            and ct.order == math.factorial(r)
            and label_check.valid
            and label_check.image_order == math.factorial(r)
        ):
            return Verdict(
                "finite",
                order=ct.order,
                tag=f"S_{r}",
                certification="certified",
                evidence=ev,
            )
        return Verdict("finite", order=ct.order, evidence=ev)
    if ab.free_rank == 1 and hints.quotient_generators:
        expected_torsion = () if (r is None or r <= 1) else (2,)
        torsion_ok = ab.torsion == expected_torsion
        ev.append(
            f"torsion {ab.torsion} {'matches' if torsion_ok else 'differs from'} "
            f"the direct-product target {expected_torsion}"
        )
        qp = simp.quotient(
            (p.gen_index(name) + 1,) for name in hints.quotient_generators
        )
        qsimp = tietze_simplify(qp, hints.simplify_budget)
        ct = todd_coxeter(qsimp.presentation, hints.max_cosets)
        if ct.complete:
            ev.append(
                f"quotient by {', '.join(hints.quotient_generators)}: order {ct.order}"
            )
        else:
            ev.append("quotient enumeration incomplete")
            return Verdict("unknown", evidence=ev)
        if (
            r is not None
            and torsion_ok
            and ct.order == math.factorial(r)
            and label_check is not None
            and label_check.valid
            and label_check.image_order == math.factorial(r)
        ):
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
