"""Exact arithmetic for set partitions of {1..n, 1'..n'} and related monoids.

Points are signed integers: k > 0 is the top point k, k < 0 is the bottom
point |k|'.  A partition of degree n is stored as a labelling of the 2n
points in the fixed order 1..n, 1'..n', with block ids canonicalised to
first-occurrence order, so equal partitions have equal labellings and a
stable fingerprint.  `bfs_edges` is the one breadth-first search of the
package, here because every module that walks a graph imports this one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

DEGREE_CAP = 8


class DegreeError(ValueError):
    pass


class BlockError(ValueError):
    pass


V = TypeVar("V", bound=Hashable)


def bfs_edges(neighbours: Callable[[V], Iterable[V]], root: V) -> list[tuple[V, V]]:
    """The breadth-first tree of the component of root: each edge (v, w)
    that first reaches a vertex w, from v, in the order found.
    neighbours(v) gives the order in which v's neighbours are tried.  The
    component has len(edges) + 1 vertices."""
    seen = {root}
    frontier = [root]
    edges = []
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbours(v):
                if w not in seen:
                    seen.add(w)
                    edges.append((v, w))
                    nxt.append(w)
        frontier = nxt
    return edges


def _canonical(raw: Sequence[int]) -> tuple[int, ...]:
    """Relabel arbitrary block ids to 0,1,2,... in first-occurrence order."""
    seen: dict[int, int] = {}
    out = []
    for x in raw:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


class Partition:
    """A set partition of the 2n points, canonically labelled; immutable."""

    __slots__ = ("n", "labels", "_hash")

    def __init__(self, n: int, labels: Sequence[int], _canon: bool = False):
        if n < 1:
            raise DegreeError("degree must be a positive integer")
        if len(labels) != 2 * n:
            raise BlockError("labelling must cover exactly 2n points")
        self.n = n
        self.labels = tuple(labels) if _canon else _canonical(labels)
        self._hash = hash((n, self.labels))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Partition") -> bool:
        return (self.n, self.labels) < (other.n, other.labels)

    def __repr__(self) -> str:
        return f"Partition({self.n}, {self.to_text()!r})"

    # -- block views ---------------------------------------------------

    def blocks(self) -> list[tuple[int, ...]]:
        """Blocks as tuples of signed points, in first-occurrence order."""
        n = self.n
        out: list[list[int]] = []
        for pos, lab in enumerate(self.labels):
            point = pos + 1 if pos < n else -(pos - n + 1)
            if lab == len(out):
                out.append([point])
            else:
                out[lab].append(point)
        return [tuple(b) for b in out]

    def to_text(self) -> str:
        """The blocks in first-occurrence order, read off the labels."""
        n = self.n
        names = _POINT_NAMES.get(n) or _POINT_NAMES.setdefault(
            n, [_point_name(p) for p in (*range(1, n + 1), *range(-1, -n - 1, -1))]
        )
        parts: list[list[str]] = []
        for name, lab in zip(names, self.labels):
            if lab == len(parts):
                parts.append([name])
            else:
                parts[lab].append(name)
        return "; ".join(map(" ".join, parts))

    # -- derived data ---------------------------------------------------

    def _half_classes(self, lower: bool) -> frozenset[frozenset[int]]:
        n = self.n
        by_label: dict[int, set[int]] = {}
        off = n if lower else 0
        for i in range(n):
            by_label.setdefault(self.labels[off + i], set()).add(i + 1)
        return frozenset(frozenset(v) for v in by_label.values())

    def ker(self) -> frozenset[frozenset[int]]:
        """Equivalence on [n] induced by the top half."""
        return self._half_classes(False)

    def coker(self) -> frozenset[frozenset[int]]:
        return self._half_classes(True)

    def _transversal_labels(self) -> set[int]:
        n = self.n
        return set(self.labels[:n]) & set(self.labels[n:])

    def rank(self) -> int:
        return len(self._transversal_labels())

    def dom(self) -> frozenset[int]:
        trans = self._transversal_labels()
        return frozenset(
            i + 1 for i in range(self.n) if self.labels[i] in trans
        )

    def codom(self) -> frozenset[int]:
        trans = self._transversal_labels()
        n = self.n
        return frozenset(
            i + 1 for i in range(n) if self.labels[n + i] in trans
        )

    def ntu(self) -> int:
        """Number of upper non-transversal blocks."""
        return len(set(self.labels[: self.n])) - self.rank()

    def ntd(self) -> int:
        return len(set(self.labels[self.n :])) - self.rank()

    def nt(self) -> int:
        return self.ntu() + self.ntd()


def identity(n: int) -> Partition:
    return Partition(n, tuple(range(n)) * 2, _canon=True)


def partition_from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> Partition:
    """Build a canonical partition from blocks of signed points.

    Raises BlockError naming the offending point on overlap, omission or
    out-of-range input.
    """
    if n < 1:
        raise DegreeError("degree must be a positive integer")
    raw = [-1] * (2 * n)
    for bid, block in enumerate(blocks):
        block = tuple(block)
        if not block:
            raise BlockError("empty block")
        for p in block:
            if p == 0 or abs(p) > n:
                raise BlockError(f"point {_point_name(p)} out of range for degree {n}")
            pos = p - 1 if p > 0 else n + (-p) - 1
            if raw[pos] != -1:
                raise BlockError(f"point {_point_name(p)} appears in more than one block")
            raw[pos] = bid
    for pos, bid in enumerate(raw):
        if bid == -1:
            p = pos + 1 if pos < n else -(pos - n + 1)
            raise BlockError(f"point {_point_name(p)} is not covered by any block")
    return Partition(n, raw)


def _point_name(p: int) -> str:
    return str(p) if p > 0 else f"{-p}'"


# degree n -> the names of its points in label order, made on first use
_POINT_NAMES: dict[int, list[str]] = {}


def partition_from_text(n: int, text: str) -> Partition:
    """Parse the semicolon-separated block text form."""
    blocks = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if not toks:
            raise BlockError("empty block in text form")
        block = []
        for tok in toks:
            if tok.endswith("'"):
                block.append(-int(tok[:-1]))
            else:
                block.append(int(tok))
        blocks.append(block)
    return partition_from_blocks(n, blocks)


# -- product ------------------------------------------------------------


def _product(a: Partition, b: Partition) -> tuple[Partition, list[int], dict[int, int]]:
    """Product of a and b by union-find over block labels.

    Block id l is the label l of a and 2n + l the label l of b (labels are
    below 2n); the middle point i'' joins a's lower label at i with b's
    upper label at i.  The outer rows are relabelled in first-occurrence
    order as they are read.  Returns the product, the union-find parent
    array and the map from each outer root to its product label.
    """
    if a.n != b.n:
        raise DegreeError(f"degree mismatch: {a.n} vs {b.n}")
    n = a.n
    la, lb = a.labels, b.labels
    k = 2 * n
    parent = list(range(2 * k))
    for x, y in zip(la[n:], lb[:n]):
        y += k
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[y] = x
    outer: dict[int, int] = {}
    out = []
    for x in la[:n]:
        while parent[x] != x:
            x = parent[x]
        out.append(outer.setdefault(x, len(outer)))
    for y in lb[n:]:
        x = y + k
        while parent[x] != x:
            x = parent[x]
        out.append(outer.setdefault(x, len(outer)))
    return Partition(n, out, _canon=True), parent, outer


def multiply(a: Partition, b: Partition) -> Partition:
    """Product in the partition monoid."""
    return _product(a, b)[0]


def _floating(a: Partition, b: Partition) -> tuple[Partition, dict[int, set[int]]]:
    """The product and its floating components: the middle points i'' whose
    root occurs in neither outer row, grouped by root."""
    prod, parent, outer = _product(a, b)
    comps: dict[int, set[int]] = {}
    for i, x in enumerate(a.labels[a.n :]):
        while parent[x] != x:
            x = parent[x]
        if x not in outer:
            comps.setdefault(x, set()).add(i + 1)
    return prod, comps


def multiply_with_floats(a: Partition, b: Partition) -> tuple[Partition, int]:
    """Product together with the count of floating (middle-only) components."""
    prod, comps = _floating(a, b)
    return prod, len(comps)


def floating_components(a: Partition, b: Partition) -> list[frozenset[int]]:
    """Floating components of the product graph, as sets of middle points i''."""
    comps = _floating(a, b)[1]
    return sorted((frozenset(v) for v in comps.values()), key=sorted)


def involution(a: Partition) -> Partition:
    """Swap dashed and undashed points."""
    n = a.n
    return Partition(n, a.labels[n:] + a.labels[:n])


# -- equivalences on [n] --------------------------------------------------


def eq_join(
    sigma: frozenset[frozenset[int]], tau: frozenset[frozenset[int]], n: int
) -> frozenset[frozenset[int]]:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cls in itertools.chain(sigma, tau):
        it = iter(sorted(cls))
        first = next(it)
        for other in it:
            ra, rb = find(first), find(other)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), set()).add(x)
    return frozenset(frozenset(v) for v in groups.values())


def eq_refines(
    sigma: frozenset[frozenset[int]], tau: frozenset[frozenset[int]]
) -> bool:
    """True iff sigma <= tau as relations (each sigma-class inside a tau-class)."""
    lookup = {}
    for cls in tau:
        for x in cls:
            lookup[x] = cls
    return all(cls <= lookup[next(iter(cls))] for cls in sigma)


def super_kernel(a: Partition) -> frozenset[frozenset[int]]:
    return eq_join(a.ker(), a.coker(), a.n)


def idempotent_components(a: Partition):
    """KER(a)-component decomposition certifying idempotency, or None.

    Returns a list of (component point set on [n], rank of the restriction)
    exactly when a decomposes as a disjoint union over its KER-classes with
    every component of rank <= 1; returns None otherwise.  The truthiness of
    the result matches a a == a.
    """
    n = a.n
    classes = sorted(super_kernel(a), key=sorted)
    cls_of = {}
    for idx, cls in enumerate(classes):
        for x in cls:
            cls_of[x] = idx
    ranks = [0] * len(classes)
    for block in a.blocks():
        tops = [p for p in block if p > 0]
        bots = [-p for p in block if p < 0]
        home = {cls_of[x] for x in tops} | {cls_of[x] for x in bots}
        if len(home) != 1:
            return None
        if tops and bots:
            ranks[next(iter(home))] += 1
    if any(r > 1 for r in ranks):
        return None
    return [(classes[i], ranks[i]) for i in range(len(classes))]


# -- projections ----------------------------------------------------------


def is_projection(a: Partition) -> bool:
    """a* = a = a a, read off the canonical labels without a product.

    The top labels are 0..t-1.  The test: each point's bottom label is its
    own top label or at least t, and top label -> bottom label is a
    bijection.  Let A be the top points with label x.  The bijection makes
    A' exactly the bottom points with one label y; y = x makes A u A' a
    block, and y >= t (a label found only below) makes A and A' two
    blocks.  So every block is A u A', A or A', with A a block exactly when
    A' is, and such an a is a projection: a* = a, and a a keeps each block,
    the middle copy A'' of each pair A, A' floating.  Conversely a
    projection has this shape.  a* = a maps blocks to blocks, so a block
    A u B' with A and B non-empty is its own mirror image (A = B) unless A
    and B are disjoint, and then it and its mirror image B u A' would join
    A to A' in a a; the mirror image of a block A is the block A'.
    """
    n = a.n
    top, bottom = a.labels[:n], a.labels[n:]
    t = max(top) + 1
    image: dict[int, int] = {}
    for x, y in zip(top, bottom):
        if (y != x and y < t) or image.setdefault(x, y) != y:
            return False
    return len(set(bottom)) == len(image)


def full_domain_projection(
    n: int, classes: Iterable[Iterable[int]]
) -> Partition:
    """The full-(co)domain projection whose transversals are the given classes."""
    raw = [-1] * (2 * n)
    for bid, cls in enumerate(sorted((sorted(c) for c in classes))):
        for x in cls:
            raw[x - 1] = bid
            raw[n + x - 1] = bid
    if -1 in raw:
        raise BlockError("classes do not cover [n]")
    return Partition(n, raw)


def d_projection(a: Partition) -> Partition:
    """id_{ker(a)}: the full-domain projection with D(a) * a = a."""
    return full_domain_projection(a.n, a.ker())


def r_projection(a: Partition) -> Partition:
    """id_{coker(a)}: a * R(a) = a."""
    return full_domain_projection(a.n, a.coker())


def projection_classes(p: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The class key of the projection p: its top classes as bitmasks of
    [n] (bit i - 1 for point i), (transversal, non-transversal), sorted."""
    n = p.n
    trans: dict[int, int] = {}
    non: dict[int, int] = {}
    for i, (x, y) in enumerate(zip(p.labels[:n], p.labels[n:])):
        side = trans if x == y else non
        side[x] = side.get(x, 0) | 1 << i
    return tuple(sorted(trans.values())), tuple(sorted(non.values()))


def _join(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The classes of the join of two equivalences on [n], each given by
    its classes as bitmasks."""
    join = list(a)
    for c in b:
        rest = []
        for k in join:
            if k & c:
                c |= k
            else:
                rest.append(k)
        join = rest + [c]
    return join


def _conjugate(tp: int, non: tuple, ts: int, join: list[int]) -> tuple:
    """θ_p(s) = p s p on class keys, from tp and non, the union of the
    transversal classes of p and its non-transversal classes, ts, the union
    of the transversal classes of s, and the classes of J = ker(p) v ker(s).
    Each middle row of the product graph is joined into the classes of J,
    and a J-class of one row meets the same J-class of the other iff it
    meets a transversal class of s.  So the non-transversal classes of p
    stay, and the transversal classes of p inside one J-class merge into
    one class, transversal iff that J-class meets a transversal class of s."""
    trans, non = [], list(non)
    for k in join:
        if k & tp:
            (trans if k & ts else non).append(k & tp)
    return tuple(sorted(trans)), tuple(sorted(non))


# -- twisted product -------------------------------------------------------


class TwistedElement(NamedTuple):
    shift: int
    part: Partition


def twisted_multiply(x: TwistedElement, y: TwistedElement) -> TwistedElement:
    prod, phi = multiply_with_floats(x.part, y.part)
    return TwistedElement(x.shift + y.shift + phi, prod)


# -- finite (star) semigroup handles ---------------------------------------


class FiniteStarSemigroup:
    """Abstract finite semigroup with optional involution.

    Subclasses define `kind`, `_enumerate`, `product`, and (optionally)
    `star`.  All values are immutable and all operations pure.
    """

    kind: str = "abstract"
    has_star: bool = True

    def __init__(self):
        self._elements: list | None = None
        self._idempotents: list | None = None
        self._projections: list | None = None

    # subclass surface
    def _enumerate(self) -> Iterator:
        raise NotImplementedError

    def product(self, x, y):
        raise NotImplementedError

    def star(self, x):
        raise NotImplementedError

    def text(self, x) -> str:
        raise NotImplementedError

    def sort_key(self, x):
        return x

    def rank(self, x) -> int:
        """The D-class of x, as `green.dclass_data` indexes it."""
        raise NotImplementedError

    # shared helpers
    def elements(self) -> list:
        if self._elements is None:
            self._elements = sorted(self._enumerate(), key=self.sort_key)
        return self._elements

    def size(self) -> int:
        return len(self.elements())

    def is_idempotent(self, x) -> bool:
        return self.product(x, x) == x

    def is_projection(self, x) -> bool:
        return self.star(x) == x and self.is_idempotent(x)

    def idempotents(self) -> list:
        """E(S) by one x x == x test per element: the reference list.  The
        D-class pipeline reads E_D off friendly projection pairs instead
        (`green.friendly_products`)."""
        if self._idempotents is None:
            self._idempotents = [x for x in self.elements() if self.is_idempotent(x)]
        return self._idempotents

    # The projection algebra on keys made once per projection by
    # `projection_key`: here the projections themselves, with products.
    def projection_key(self, p):
        return p

    def theta_rows(self, ps: Iterable, keys: list) -> Iterator[list]:
        """For each projection key p of ps, p's row of θ-images on keys:
        row[i] = j when θ_p(keys[i]) = p keys[i] p = keys[j], None when it
        is not in keys.  p <= q is θ_q(p) = p."""
        index = {s: i for i, s in enumerate(keys)}
        for p in ps:
            yield [index.get(self.product(self.product(p, s), p)) for s in keys]

    def projections(self) -> list:
        if self._projections is None:
            if not self.has_star:
                raise ValueError(f"{self.kind} has no involution")
            self._projections = [x for x in self.elements() if self.is_projection(x)]
        return self._projections

    def describe(self) -> str:
        return self.kind


def _rgs_strings(m: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length m (canonical set partitions).

    A string satisfies a[0] = 0 and a[i] <= 1 + max(a[0..i-1]); the bound
    array b tracks that maximum plus one.
    """
    a = [0] * m
    b = [1] * m
    while True:
        yield tuple(a)
        i = m - 1
        while i >= 1 and a[i] == b[i]:
            i -= 1
        if i <= 0:
            return
        a[i] += 1
        nb = max(b[i], a[i] + 1)
        for j in range(i + 1, m):
            a[j] = 0
            b[j] = nb


def partition_projections(n: int) -> list[Partition]:
    """P(P_n), in label order, written from the set partitions of [n].

    A projection is fixed by its top classes (a restricted growth string,
    whose labels are canonical as they stand) and the set of them that are
    transversal (`is_projection`).  Below, a transversal class keeps its
    label and every other class gets the next fresh label >= t, which is
    first-occurrence order.  There are sum_k S(n, k) 2^k of them: 94 at
    n = 4, 454 at n = 5.
    """
    out = []
    for top in _rgs_strings(n):
        t = max(top) + 1
        for mask in range(1 << t):
            fresh: dict[int, int] = {}
            bottom = tuple(
                x if mask >> x & 1 else fresh.setdefault(x, t + len(fresh))
                for x in top
            )
            out.append(Partition(n, top + bottom, _canon=True))
    out.sort(key=lambda p: p.labels)
    return out


class PartitionHandleBase(FiniteStarSemigroup):
    """Shared surface for handles whose elements are Partitions."""

    def __init__(self, n: int, allow_large: bool = False):
        super().__init__()
        if n < 1:
            raise DegreeError("degree must be positive")
        if n > DEGREE_CAP and not allow_large:
            raise DegreeError(
                f"degree {n} exceeds the default cap {DEGREE_CAP}; "
                "pass allow_large=True (on the command line, --allow-large) to override"
            )
        self.n = n

    def product(self, x: Partition, y: Partition) -> Partition:
        return multiply(x, y)

    def star(self, x: Partition) -> Partition:
        return involution(x)

    def is_projection(self, x: Partition) -> bool:
        return is_projection(x)

    # No products: the class keys of `projection_classes`.
    projection_key = staticmethod(projection_classes)

    def theta_rows(self, ps: Iterable, keys: list) -> Iterator[list]:
        """As `FiniteStarSemigroup.theta_rows`, on class keys by
        `_conjugate`, with each join ker(p) v ker(s) built once per distinct
        kernel of p."""
        index = {s: i for i, s in enumerate(keys)}
        kers = [(*s[0], *s[1]) for s in keys]
        ts = [sum(s[0]) for s in keys]
        joins: dict[tuple, list] = {}
        for p in ps:
            ker = tuple(sorted((*p[0], *p[1])))
            if ker not in joins:
                joins[ker] = [_join(ker, k) for k in kers]
            tp, non = sum(p[0]), p[1]
            yield [index.get(_conjugate(tp, non, t, j)) for t, j in zip(ts, joins[ker])]

    def text(self, x: Partition) -> str:
        return x.to_text()

    def sort_key(self, x: Partition):
        return x.labels

    def rank(self, x: Partition) -> int:
        return x.rank()

    def ranks(self) -> list[int]:
        raise NotImplementedError


class PartitionMonoid(PartitionHandleBase):
    kind = "partition"

    def _enumerate(self) -> Iterator[Partition]:
        n = self.n
        for rgs in _rgs_strings(2 * n):
            yield Partition(n, rgs, _canon=True)

    def projections(self) -> list[Partition]:
        """P(P_n) from `partition_projections`, computed on first use; the
        monoid itself is not listed."""
        if self._projections is None:
            self._projections = partition_projections(self.n)
        return self._projections

    def ranks(self) -> list[int]:
        return list(range(self.n + 1))

    def describe(self) -> str:
        return f"P_{self.n}"


class BrauerMonoid(PartitionHandleBase):
    kind = "brauer"

    def _enumerate(self) -> Iterator[Partition]:
        n = self.n
        points = list(range(2 * n))

        def matchings(free: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
            if not free:
                yield []
                return
            x, rest = free[0], free[1:]
            for k, y in enumerate(rest):
                sub = rest[:k] + rest[k + 1 :]
                for m in matchings(sub):
                    yield [(x, y)] + m

        for m in matchings(tuple(points)):
            raw = [0] * (2 * n)
            for bid, (x, y) in enumerate(m):
                raw[x] = bid
                raw[y] = bid
            yield Partition(n, raw)

    def ranks(self) -> list[int]:
        return list(range(self.n % 2, self.n + 1, 2))

    def describe(self) -> str:
        return f"B_{self.n}"


class TransformationMonoid(PartitionHandleBase):
    """T_n as the partitions with full domain and trivial cokernel."""

    kind = "transformation"
    has_star = False

    def _enumerate(self) -> Iterator[Partition]:
        n = self.n
        for images in itertools.product(range(1, n + 1), repeat=n):
            yield transformation_partition(n, images)

    def star(self, x):
        raise ValueError("T_n is not closed under the involution")

    def ranks(self) -> list[int]:
        return list(range(1, self.n + 1))

    def describe(self) -> str:
        return f"T_{self.n}"


def transformation_partition(n: int, images: Sequence[int]) -> Partition:
    """The partition of the map i -> images[i-1] (full domain, trivial
    cokernel): top point i is labelled by its image, bottom point j' by j,
    or by -j when j is not an image, and `Partition` canonicalises."""
    hit = set(images)
    return Partition(n, [*images, *(j if j in hit else -j for j in range(1, n + 1))])


ADJ_ZERO = ("0",)


class AdjacencySemigroup(FiniteStarSemigroup):
    """Adjacency semigroup of a finite symmetric reflexive connected digraph.

    Elements are ordered vertex pairs plus a distinguished zero; the product
    of (p,q) and (r,s) is (p,s) when (q,r) is an edge and zero otherwise.
    """

    kind = "adjacency"

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        super().__init__()
        self.vertices = tuple(sorted(set(map(str, vertices))))
        if not self.vertices:
            raise ValueError("vertex set is empty")
        es = set()
        for u, v in edges:
            es.add((str(u), str(v)))
            es.add((str(v), str(u)))
        for v in self.vertices:
            es.add((v, v))
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in es:
            if u not in nbrs or v not in nbrs:
                raise ValueError(f"edge endpoint {u!r} or {v!r} is not a vertex")
            nbrs[u].append(v)
        self.edges = frozenset(es)
        if len(bfs_edges(nbrs.__getitem__, self.vertices[0])) != len(self.vertices) - 1:
            raise ValueError("the simple reduct of the graph must be connected")

    def simple_edge_count(self) -> int:
        return len({frozenset((u, v)) for u, v in self.edges if u != v})

    def _enumerate(self) -> Iterator:
        yield ADJ_ZERO
        for p in self.vertices:
            for q in self.vertices:
                yield (p, q)

    def product(self, x, y):
        if x == ADJ_ZERO or y == ADJ_ZERO:
            return ADJ_ZERO
        if (x[1], y[0]) in self.edges:
            return (x[0], y[1])
        return ADJ_ZERO

    def star(self, x):
        if x == ADJ_ZERO:
            return ADJ_ZERO
        return (x[1], x[0])

    def text(self, x) -> str:
        if x == ADJ_ZERO:
            return "0"
        return f"({x[0]},{x[1]})"

    def sort_key(self, x):
        return (0,) if x == ADJ_ZERO else (1, x)

    def rank(self, x) -> int:
        """0 for the zero, 1 for the one non-zero D-class."""
        return 0 if x == ADJ_ZERO else 1

    def describe(self) -> str:
        return f"A(graph on {len(self.vertices)} vertices)"
