"""Presentation construction, Tietze simplification, emitters."""

import hashlib
import json
import random

import pytest

from diagfree import present
from diagfree.biorder import (
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    linked_triangles,
)
from diagfree.diagram import BrauerMonoid, PartitionMonoid, involution
from diagfree.green import dclass_data
from diagfree.ghgraph import (
    build_gh_graph,
    friendliness_tree,
    p1_projections,
    spanning_tree_bfs,
    spanning_tree_with_projections,
    t_pg,
    t_rank0,
    t_lex,
    t_s,
    p0_projections,
)
from diagfree.groupid import abelianization, identify, subgroup_hints, todd_coxeter
from diagfree.present import (
    GroupPresentation,
    Word,
    cyclic_reduce,
    emit_semigroup_presentation,
    free_reduce,
    gen_name_for_idempotent,
    invert_word,
    presn_ig,
    presn_pg_linked,
    presn_pg_squares,
    presn_pg_triangles,
    relator_key,
    subgroup_presentation,
    tietze_simplify,
    to_cas_text,
    to_json_doc,
)

P2 = PartitionMonoid(2)
P3 = PartitionMonoid(3)


def test_word_helpers():
    assert free_reduce((1, -1, 2)) == (2,)
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert relator_key((2, 1)) == relator_key((1, 2))
    assert relator_key((1, 2)) == relator_key((-2, -1))


def test_rotation_key_matches_all_rotations():
    """The key read off the positions of the least letter m is the least
    rotation of w or of its inverse, also when m repeats and when both m
    and -m occur."""
    rng = random.Random(7)
    words = [(1, 2, 1, 3), (-1, 2, 1, 3), (2, -1, 3, 1, 2, -1), (-2, 1, 1)]
    while len(words) < 3000:
        k = rng.randint(1, 4)
        length = rng.randint(1, 12)
        w = cyclic_reduce(
            tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(length))
        )
        if w:
            words.append(w)
    repeated = both = 0
    for w in words:
        v = invert_word(w)
        want = min(x[i:] + x[:i] for x in (w, v) for i in range(len(w)))
        assert relator_key(w) == want
        m = min(min(w), -max(w))
        repeated += (w + v).count(m) > 1
        both += m in w and -m in w
    assert repeated > 1000 and both > 300


def test_presn_ig_d32_counts():
    d = dclass_data(P3, 2)
    sq = enumerate_singular_squares(d)
    g = build_gh_graph(d)
    pres = presn_ig(d, spanning_tree_bfs(g), sq)
    assert len(pres.generators) == 18
    assert len(pres.relators) == 11  # tree relators only; no singular squares
    assert all(pres.relators)  # degenerate (empty) relators are never emitted


def test_presn_ig_rejects_non_spanning_tree():
    from diagfree.ghgraph import TreeSet

    d = dclass_data(P3, 2)
    sq = enumerate_singular_squares(d)
    with pytest.raises(ValueError):
        presn_ig(d, TreeSet("generic", d.idempotents[:3]), sq)
    # T_lex spans only an induced subgraph of the rank-2 class of P_4
    d = dclass_data(PartitionMonoid(4), 2)
    with pytest.raises(ValueError, match="induced subgraph"):
        presn_ig(d, t_lex(4, 2), enumerate_singular_squares(d))


def test_presn_pg_squares_requires_projections():
    d = dclass_data(P3, 1)
    sq = enumerate_singular_squares(d)
    g = build_gh_graph(d)
    bfs = spanning_tree_bfs(g)
    if not set(d.projections) <= set(bfs.edges):
        with pytest.raises(ValueError):
            presn_pg_squares(d, bfs, sq)


def test_pg_ig_differ_exactly_by_inverse_relators():
    d = dclass_data(P3, 1)
    sq = enumerate_singular_squares(d)
    t = t_pg(3, 1)
    ig = presn_ig(d, t, sq)
    pg = presn_pg_squares(d, t, sq)
    assert pg.generators == ig.generators
    extra = set(pg.relators) - set(ig.relators)
    assert set(ig.relators) <= set(pg.relators)
    gen_of = {e: i + 1 for i, e in enumerate(d.idempotents)}
    expected = set()
    for e in d.idempotents:
        es = involution(e)
        if e.labels <= es.labels:
            expected.add((gen_of[e], gen_of[es]))
    assert extra == expected


@pytest.mark.parametrize("build", (presn_pg_linked, presn_pg_triangles))
def test_pair_presentations_reject_non_friendly_tree_edge(build):
    d = dclass_data(P3, 0)
    with pytest.raises(ValueError, match="outside the friendliness relation"):
        build(d, [], [(0, 99)])


@pytest.mark.parametrize("build", (presn_pg_linked, presn_pg_triangles))
def test_pair_presentations_reject_non_spanning_tree(build):
    """The pairs must be |P_D| - 1 undirected edges connecting P_D: an
    empty tree, one edge, a tree short an edge, one edge too many, and the
    right count with an edge repeated backwards are all refused."""
    d = dclass_data(P3, 0)
    tree = friendliness_tree(d, 0)
    back = tree[0][::-1]
    for bad in ([], tree[:1], tree[:-1], tree + [back], tree[:-1] + [back]):
        with pytest.raises(ValueError, match="does not span"):
            build(d, [], bad)
    assert build(d, [], tree[::-1]).relators


def test_pg_linked_vs_triangles_same_group():
    from diagfree.groupid import identify

    d = dclass_data(P3, 0)
    dias = enumerate_linked_diamonds(d)
    tris_pres = presn_pg_triangles(d, linked_triangles(d), friendliness_tree(d, 0))
    link_pres = presn_pg_linked(d, dias, friendliness_tree(d, 0))
    assert identify(link_pres).is_trivial
    assert identify(tris_pres).is_trivial


def test_square_linked_presentations_agree_d31():
    """The squares-based and diamonds-based constructions present the same
    group for the rank-1 class of P_3."""
    from diagfree.groupid import identify, IdentifyHints
    from diagfree.biorder import label
    from diagfree.present import gen_name_for_idempotent

    d = dclass_data(P3, 1)
    sq = enumerate_singular_squares(d)
    labels = {gen_name_for_idempotent(P3, e): label(e) for e in d.idempotents}
    v1 = identify(
        presn_pg_squares(d, t_pg(3, 1), sq), IdentifyHints(rank=1, labels=labels)
    )
    v2 = identify(presn_pg_linked(d, enumerate_linked_diamonds(d), friendliness_tree(d, 0)))
    assert v1.order == v2.order == 1


# (n, r) -> (the verdict of pg, pg-linked and pg-triangles, its
# abelianization, the ig verdict or None).  IG at (6, 2) reads unknown.
BRAUER_VERDICTS = {
    (5, 1): ("finite of order 2", "Z_2", "Z (free rank 1)"),
    (6, 0): ("finite of order 2", "Z_2", "Z (free rank 1)"),
    (6, 2): ("finite of order 4", "Z_2 x Z_2", None),
}


@pytest.mark.parametrize("n, r", BRAUER_VERDICTS, ids=lambda x: str(x))
def test_brauer_verdicts_pinned(n, r):
    """`identify` on B_n classes, each family over its default tree: the
    three PG constructions agree, on the verdict and on the abelianization
    line of its evidence."""
    d = dclass_data(BrauerMonoid(n), r)
    squares = enumerate_singular_squares(d)

    def verdict(family):
        pres = subgroup_presentation(d, family, squares=squares)
        return identify(pres, subgroup_hints(d, family))

    pg, ab, ig = BRAUER_VERDICTS[(n, r)]
    for family in ("pg", "pg-linked", "pg-triangles"):
        v = verdict(family)
        assert v.describe() == pg, family
        assert f"abelianization: {ab}" in v.evidence, family
    if ig is not None:
        assert verdict("ig").describe() == ig


def test_tietze_simple_cases():
    p = GroupPresentation(("a", "b"), ((1,), (1, -2)))
    res = tietze_simplify(p)
    assert res.presentation.generators == ()
    assert res.presentation.relators == ()
    # torsion relators survive
    p2 = GroupPresentation(("a",), ((1, 1),))
    assert tietze_simplify(p2).presentation.relators == ((1, 1),)


def test_tietze_idempotent_and_budget():
    d = dclass_data(P3, 1)
    sq = enumerate_singular_squares(d)
    pres = presn_ig(d, t_s(3, 1, p0_projections(3, 1)[0]), sq)
    full = tietze_simplify(pres)
    again = tietze_simplify(full.presentation)
    assert again.presentation == full.presentation


def test_tietze_preserves_abelianization():
    d31 = dclass_data(P3, 1)
    sq31 = enumerate_singular_squares(d31)
    d30 = dclass_data(P3, 0)
    sq30 = enumerate_singular_squares(d30)
    d32 = dclass_data(P3, 2)
    sq32 = enumerate_singular_squares(d32)
    cases = [
        presn_ig(d31, t_s(3, 1, p0_projections(3, 1)[0]), sq31),
        presn_pg_squares(d31, t_pg(3, 1), sq31),
        presn_ig(d30, t_rank0(3), sq30),
        presn_pg_linked(d30, enumerate_linked_diamonds(d30), friendliness_tree(d30, 0)),
        presn_ig(d32, spanning_tree_bfs(build_gh_graph(d32)), sq32),
        GroupPresentation(("a", "b"), ((1, 1, 1), (2, 2), (1, 2, -1, -2))),
        GroupPresentation(("a", "b", "c"), ((1, 2, 3), (3, 3))),
    ]
    for p in cases:
        before = abelianization(p)
        after = abelianization(tietze_simplify(p).presentation)
        assert before == after


# -- Tietze against the rescanning reference -------------------------------------


def reference_tietze_simplify(p, budget=None):
    """The elimination loop before incremental bookkeeping: it rescans
    every relator for each elimination.  Returns (presentation, complete,
    eliminations).

    Moves, applied to the lexicographically least eliminable generator:
    a generator equal to 1 (length-1 relator), a generator equal to another
    generator or its inverse (length-2 relator on two distinct generators),
    a generator occurring exactly once in exactly one relator (the relator
    is solved for it and discarded), and, when nothing else applies, a
    generator with a single occurrence in some relator (that relator is
    solved for it and the value substituted everywhere).  Every move
    removes a generator, so the loop terminates.  Relators are kept freely
    and cyclically reduced and deduplicated up to rotation and inversion.
    The output presents a group isomorphic to the input's.
    """
    names = list(p.generators)
    store: dict[Word, Word] = {}
    occ: dict[int, int] = {}
    by_gen: dict[int, set[Word]] = {}

    def add(w: Word) -> None:
        key = _reference_key(w)
        if not key or key in store:
            return
        store[key] = w
        for x in w:
            occ[abs(x)] = occ.get(abs(x), 0) + 1
            by_gen.setdefault(abs(x), set()).add(key)

    def remove(key: Word) -> Word:
        w = store.pop(key)
        for x in w:
            occ[abs(x)] -= 1
        gens_in = {abs(x) for x in w}
        for g in gens_in:
            by_gen[g].discard(key)
        return w

    for w in p.relators:
        add(cyclic_reduce(w))

    eliminations = 0
    alive = set(range(1, len(names) + 1))

    while True:
        if budget is not None and eliminations >= budget:
            return _finish(names, alive, store, False, eliminations)
        candidates: dict[int, int] = {}  # gen -> move rank (0 best)
        for key, w in store.items():
            if len(w) == 1:
                g = abs(w[0])
                if candidates.get(g, 9) > 0:
                    candidates[g] = 0
            elif len(w) == 2 and abs(w[0]) != abs(w[1]):
                for x in w:
                    g = abs(x)
                    if candidates.get(g, 9) > 1:
                        candidates[g] = 1
        for g, cnt in occ.items():
            if cnt == 1 and g not in candidates:
                candidates[g] = 2
        general: tuple | None = None
        if not candidates:
            # General elimination: a single occurrence inside some relator.
            # Choose the substitution with the least growth of total relator
            # length (ties by length, then names) rather than by generator
            # name alone: name-first choices can wedge the collapse.
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
        if not candidates and general is None:
            return _finish(names, alive, store, True, eliminations)
        if candidates:
            g = min(candidates, key=lambda x: names[x - 1])
            move = candidates[g]
        else:
            g = general[4]
            move = 3
        if move == 0:
            drop = min(k for k in by_gen[g] if len(store[k]) == 1)
            repl = ()
        elif move == 1:
            drop = min(
                k
                for k in by_gen[g]
                if len(store[k]) == 2 and abs(store[k][0]) != abs(store[k][1])
            )
            w = store[drop]
            pos = 0 if abs(w[0]) == g else 1
            x, y = w[pos], w[1 - pos]
            repl = (-y,) if x > 0 else (y,)
        elif move == 2:
            drop = min(by_gen[g])
            repl = None
        else:
            drop = general[3]
            w = store[drop]
            idx = next(i for i, x in enumerate(w) if abs(x) == g)
            gamma = w[idx + 1 :] + w[:idx]
            repl = invert_word(gamma) if w[idx] > 0 else gamma
        remove(drop)
        alive.discard(g)
        eliminations += 1
        if repl is not None:
            affected = sorted(by_gen.get(g, ()))
            for key in affected:
                old = remove(key)
                add(cyclic_reduce(_substitute(old, g, repl)))


def _substitute(w, g, repl):
    out = []
    for x in w:
        if x == g:
            out.extend(repl)
        elif x == -g:
            out.extend(invert_word(repl))
        else:
            out.append(x)
    return free_reduce(out)


def _finish(names, alive, relators, complete, eliminations):
    keep = sorted(alive)
    renum = {g: i + 1 for i, g in enumerate(keep)}
    new_gens = tuple(names[g - 1] for g in keep)
    new_rels = []
    for w in relators.values():
        assert all(abs(x) in renum for x in w)
        new_rels.append(tuple(renum[abs(x)] * (1 if x > 0 else -1) for x in w))
    new_rels.sort(key=lambda w: (len(w), w))
    return GroupPresentation(new_gens, tuple(new_rels)), complete, eliminations


def _reference_key(w):
    w = cyclic_reduce(w)
    if not w:
        return ()
    best = None
    for v in (w, invert_word(w)):
        for i in range(len(v)):
            rot = v[i:] + v[:i]
            if best is None or rot < best:
                best = rot
    return best


def _suite_presentations(n):
    """Every presentation family the acceptance suite and these tests build
    on P_n, from the suite's cached D-classes and square lists."""
    from diagfree import verify

    for r in range(n):
        d = verify.dclass("pn", n, r)
        sq = verify.squares("pn", n, r)
        if r == 0:
            f_tree = friendliness_tree(d, 0)
            yield presn_ig(d, t_rank0(n), sq)
            yield presn_pg_linked(d, enumerate_linked_diamonds(d), f_tree)
            yield presn_pg_triangles(d, linked_triangles(d), f_tree)
        elif r == n - 1:
            g = build_gh_graph(d)
            yield presn_ig(d, spanning_tree_bfs(g), sq)
            yield presn_pg_squares(d, spanning_tree_with_projections(g), sq)
        else:
            yield presn_ig(d, t_s(n, r, p0_projections(n, r)[0]), sq)
            yield presn_pg_squares(d, t_pg(n, r), sq)


def _random_presentation(rng):
    ngens = rng.randint(1, 8)
    names = [f"g{i:02d}" for i in rng.sample(range(100), ngens)]
    relators = []
    for _ in range(rng.randint(0, 10)):
        length = rng.choice((1, 2, 2, 3, 4, 5, 6))
        relators.append(
            tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))
        )
    return GroupPresentation(tuple(names), tuple(relators))


def _assert_matches_reference(p):
    """tietze_simplify is the collapse followed by the reference loop."""
    relators, record = present._collapse(p, present._name_ranks(p.generators))
    collapsed = present._finish(p.generators, relators.values(), record).presentation
    want, complete, eliminations = reference_tietze_simplify(collapsed)
    assert complete
    res = tietze_simplify(p)
    assert res.presentation == want
    assert res.eliminations == len(record) + eliminations == len(res.record)


def _assert_collapse_sound(p):
    """Every collapse sets a generator equal to 1 or to a letter of a live
    generator, and no identification is left behind.  Every input relator
    becomes trivial or, up to rotation and inversion, an output relator
    when the record is substituted into it.  The abelianization is kept;
    it is compared only up to 250 input relators, beyond which the input's
    Smith form takes seconds."""
    relators, record = present._collapse(p, present._name_ranks(p.generators))
    alive = set(range(1, len(p.generators) + 1))
    for g, value in record:
        alive.remove(g)
        assert value == () or (len(value) == 1 and abs(value[0]) in alive)
    words = relators.values()
    assert all(len(w) > 2 or (len(w) == 2 and w[0] == w[1]) for w in words)
    final = {}  # an eliminated generator as () or a letter of a survivor
    for g, value in reversed(record):
        if value and abs(value[0]) not in alive:
            h = final[abs(value[0])]
            value = h if value[0] > 0 else invert_word(h)
        final[g] = value

    def image(x):
        value = final.get(abs(x), (abs(x),))
        return value if x > 0 else invert_word(value)

    keys = set(relators) | {()}
    for w in p.relators:
        assert relator_key([y for x in w for y in image(x)]) in keys
    if len(p.relators) <= 250:
        collapsed = present._finish(p.generators, words, record).presentation
        assert abelianization(collapsed) == abelianization(p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tietze_matches_reference_families(n):
    for p in _suite_presentations(n):
        _assert_matches_reference(p)
        _assert_collapse_sound(p)


def test_tietze_matches_reference_random():
    rng = random.Random(2024)
    for _ in range(300):
        p = _random_presentation(rng)
        _assert_matches_reference(p)
        _assert_collapse_sound(p)


# (presentation, the number of eliminations the collapse makes, the full
# record): names that sort opposite to index order, and names shared by
# two generators.  Each identification keeps the generator that comes
# last in the order of (name, index).
NAME_ORDER_CASES = [
    (
        GroupPresentation(("e", "d", "c", "b", "a"), ((5,), (1, -2), (3, 4), (1, 1, 3, 3, 3))),
        3,
        ((5, ()), (2, (1,)), (4, (-3,))),
    ),
    (
        GroupPresentation(("e", "d", "c", "b", "a"), ((1, -2), (2, 3, 4), (4, -5), (3, 5, 3))),
        2,
        ((2, (1,)), (5, (4,)), (1, (-4, -3)), (4, (-3, -3))),
    ),
    (GroupPresentation(("x", "y", "x"), ((1, -3), (2, 3, 2, 3))), 1, ((1, (3,)),)),
    # Only the general move applies, and it ties between generators 1 and
    # 2, both named x: the key of (2, 3, 3) is less than that of (2, 2, 1),
    # so generator 2 goes first, although its index is the larger.
    (
        GroupPresentation(("x", "x", "y"), ((1, 1, 3), (2, 3, 3), (2, 2, 1))),
        0,
        ((2, (-3, -3)), (1, (3, 3, 3, 3))),
    ),
]


@pytest.mark.parametrize("p, collapsed, record", NAME_ORDER_CASES)
def test_tietze_ties_follow_names(p, collapsed, record):
    """The collapse and the plain loop order generators by (name, index),
    through integer ranks, and the general move breaks a tie of names by
    relator key before index, as the reference does."""
    _, made = present._collapse(p, present._name_ranks(p.generators))
    assert made == list(record[:collapsed])
    want, complete, eliminations = reference_tietze_simplify(p)
    assert complete
    res = tietze_simplify(p)
    assert res.presentation == want
    assert res.record == record and eliminations == len(record)
    _assert_matches_reference(p)


def test_names_rendered_once_per_class():
    """Both presentations of one class and its IG hints render each
    idempotent's text once, plus the quotient generator's."""
    h = PartitionMonoid(4)
    d = dclass_data(h, 2)
    squares = enumerate_singular_squares(d)
    ig_tree, pg_tree = t_s(4, 2, p0_projections(4, 2)[0]), t_pg(4, 2)
    calls = []
    text = h.text
    h.text = lambda x: calls.append(x) or text(x)
    ig = presn_ig(d, ig_tree, squares)
    pg = presn_pg_squares(d, pg_tree, squares)
    hints = subgroup_hints(d, "ig")
    assert len(calls) == len(d.idempotents) + 1 == 332
    assert ig.generators == pg.generators == tuple(hints.labels)
    assert hints.quotient_generators[0] in ig.generators


@pytest.mark.parametrize("n,r", [(3, 1), (4, 2)])
def test_tietze_record_gives_quotients(n, r):
    """q + image(g) presents the quotient by g."""
    from diagfree import verify

    h = verify.monoid("pn", n)
    d = verify.dclass("pn", n, r)
    pres = subgroup_presentation(d, "ig", squares=verify.squares("pn", n, r))
    full = tietze_simplify(pres)
    for t in p1_projections(n, r)[:2]:
        g = (pres.gen_index(gen_name_for_idempotent(h, t)) + 1,)
        slow = GroupPresentation(pres.generators, pres.relators + (g,))
        want = todd_coxeter(tietze_simplify(slow).presentation).order
        assert want is not None
        assert todd_coxeter(full.quotient([g])).order == want


def _pinned_presentation(family, n, r):
    from diagfree import verify

    d = verify.dclass("pn", n, r)
    if family == "triangles":
        return subgroup_presentation(d, "pg-triangles")
    return subgroup_presentation(d, family, squares=verify.squares("pn", n, r))


# sha256 of repr((record, kept)), taken with `tietze_simplify` as the
# union-find collapse followed by the rescanning loop.  The record is what
# `SimplifyResult.image` and `identify`'s quotient read, so the
# eliminations, their order and their values must all stay put.
RECORD_DIGESTS = {
    ("pg", 3, 1): "d7615a6f3cd8b975d9bffd36b382e9501fce0a49d63d104db6a48c8e8d4507b5",
    ("ig", 3, 1): "2cd6b58bf3e36a43fbd019ee025d62fdc25ccafeccd8685ce2ad5cda617591c7",
    ("pg", 4, 2): "8ef8193cd8df5f1b4651b789d3650b12d56ae593c171ba6ef03588a797cd9268",
    ("ig", 4, 2): "cd473386ecf2d7e5f408131751471076128421d160ae345c4804f3cf06c09be2",
    ("triangles", 4, 0): "f14f593016b48796766b981baaae220aaa2f5ea50567622d571ddb552d411ca1",
    ("pg", 5, 3): "6ee595cffff11a3bc1753ce96d19cbec8e511bef298aceae88ecce333e66f4c7",
    ("ig", 5, 3): "b82929eb7b95101125d358beb9173ad087d4a15034ab9f6a535912317ca39648",
}


@pytest.mark.parametrize(
    "family, n, r",
    [
        pytest.param(*case, marks=pytest.mark.slow) if case[1] == 5 else case
        for case in RECORD_DIGESTS
    ],
    ids=[f"{family}-{n}-{r}" for family, n, r in RECORD_DIGESTS],
)
def test_tietze_record_pinned(family, n, r):
    res = tietze_simplify(_pinned_presentation(family, n, r))
    text = repr((res.record, res.kept))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_DIGESTS[(family, n, r)]


def test_tietze_image_of_relators_and_survivors():
    p = GroupPresentation(("a", "b", "c"), ((1, -2), (3, 3)))
    res = tietze_simplify(p)
    assert res.presentation == GroupPresentation(("b", "c"), ((2, 2),))
    assert res.record == ((1, (2,)),)
    assert res.kept == (2, 3)
    assert res.image((1, 3, -2)) == (1, 2, -1)
    assert res.image((1, -2)) == ()
    assert res.quotient([(1, -2)]) == res.presentation


def test_tietze_duplicate_names_tie_break_by_index():
    """Equal names fall back to the generator index, whatever the order in
    which the relators list the generators."""
    for rel in ((2, -1), (-1, 2)):
        res = tietze_simplify(GroupPresentation(("a", "a"), (rel,)))
        assert res.record == ((1, (2,)),)
        assert res.kept == (2,)


def test_emit_ig_doc_p2():
    doc = emit_semigroup_presentation(P2, "ig")
    assert len(doc.generators) == 12
    for (lhs, rhs) in doc.relations:
        assert len(lhs) == 2 and len(rhs) == 1
    text = doc.render()
    assert "generators (12):" in text


def test_emit_pg_doc_third_family_count():
    doc = emit_semigroup_presentation(P2, "pg")
    p_count = len(P2.projections())
    third = [rel for rel in doc.relations if len(rel[0]) == 3]
    assert len(third) == p_count * p_count


def test_emit_pg_doc_golden():
    from pathlib import Path

    doc = emit_semigroup_presentation(P2, "pg")
    golden = Path(__file__).parent / "golden" / "semigroup_pg_p2.txt"
    assert doc.render() == golden.read_text()


def test_emit_pg_doc_products():
    """PG's relations need p q and then (p q) p for each pair of the 22
    projections of P_3: 2 * 22^2 = 968 products, and no idempotent test."""
    h = PartitionMonoid(3)
    calls = 0
    product = h.product

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    h.product = counted
    emit_semigroup_presentation(h, "pg")
    assert len(h.projections()) == 22
    assert calls == 968


def test_emit_pg_e_and_rig():
    doc = emit_semigroup_presentation(P2, "pg-e")
    assert len(doc.generators) == 12
    rig = emit_semigroup_presentation(P2, "rig")
    assert len(rig.relations) > len(emit_semigroup_presentation(P2, "ig").relations)
    with pytest.raises(ValueError):
        emit_semigroup_presentation(P2, "nope")


def test_emit_unknown_family_refused_before_any_product():
    """An unknown family is refused before E(S) is listed: no product
    (203, one x x test per element of P_3, when E(S) came first)."""
    h = PartitionMonoid(3)
    calls = 0
    product = h.product

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    h.product = counted
    with pytest.raises(ValueError, match="^unknown family 'nope'$"):
        emit_semigroup_presentation(h, "nope")
    assert calls == 0


def test_semigroup_presentation_refuses_a_handle_over_the_cap():
    """The adjacency semigroup of a path on 142 vertices has 142^2 + 1 =
    20,165 elements, past the emission cap of 20,000."""
    from diagfree.diagram import AdjacencySemigroup

    vertices = [f"v{i:03d}" for i in range(142)]
    h = AdjacencySemigroup(vertices, zip(vertices, vertices[1:]))
    assert h.size() == 20165 > present.EMIT_SIZE_CAP
    with pytest.raises(ValueError, match="too large to enumerate"):
        emit_semigroup_presentation(h, "ig")


def test_semigroup_presentation_refuses_before_listing_the_handle():
    """P_7 has B_14 elements, far past the cap: the refusal counts at most
    EMIT_SIZE_CAP + 1 of them and never builds the element list."""
    h = PartitionMonoid(7)
    with pytest.raises(ValueError, match="too large to enumerate"):
        emit_semigroup_presentation(h, "ig")
    assert h._elements is None


def test_basic_pairs_products_idempotent():
    from diagfree.present import basic_pairs
    for e, f in basic_pairs(P2):
        assert P2.is_idempotent(P2.product(e, f))
        assert P2.is_idempotent(P2.product(f, e))


def test_cas_and_json_emitters():
    p = GroupPresentation(("a[x]", "a[y]"), ((1, -2), (2, 2)))
    text = to_cas_text(p, "demo")
    assert 'F := FreeGroup("a1", "a2");' in text
    assert "a1*a2^-1" in text
    assert "# a2 = a[y]" in text
    doc = to_json_doc(p)
    assert doc == {"generators": ["a[x]", "a[y]"], "relators": [[1, -2], [2, 2]]}
    assert json.loads(json.dumps(doc)) == doc
