"""Presentation construction, Tietze simplification, emitters."""

import json
import random

import pytest

from diagfree.biorder import (
    enumerate_linked_diamonds,
    enumerate_singular_squares,
    linked_triangles,
)
from diagfree.diagram import PartitionMonoid, involution
from diagfree.green import dclass_data
from diagfree.ghgraph import (
    build_gh_graph,
    friendliness_tree,
    p1_projections,
    spanning_tree_bfs,
    spanning_tree_with_projections,
    t_pg,
    t_rank0,
    t_s,
    p0_projections,
)
from diagfree.groupid import abelianization, todd_coxeter
from diagfree.present import (
    GroupPresentation,
    Word,
    cyclic_reduce,
    emit_semigroup_presentation,
    free_reduce,
    gen_name_for_idempotent,
    invert_word,
    presentation_from_json,
    presn_ig,
    presn_pg_linked,
    presn_pg_squares,
    presn_pg_triangles,
    relator_key,
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


def test_tietze_simple_cases():
    p = GroupPresentation(("a", "b"), ((1,), (1, -2)))
    res = tietze_simplify(p)
    assert res.complete
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
    capped = tietze_simplify(pres, budget=3)
    assert not capped.complete
    assert capped.eliminations == 3


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
    for budget in (None, 3):
        res = tietze_simplify(p, budget)
        got = (res.presentation, res.complete, res.eliminations)
        assert got == reference_tietze_simplify(p, budget)
        assert len(res.record) == res.eliminations


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tietze_matches_reference_families(n):
    for p in _suite_presentations(n):
        _assert_matches_reference(p)


def test_tietze_matches_reference_random():
    rng = random.Random(2024)
    for _ in range(300):
        _assert_matches_reference(_random_presentation(rng))


@pytest.mark.parametrize("n,r", [(3, 1), (4, 2)])
def test_tietze_record_gives_quotients(n, r):
    """q + image(g) presents the quotient by g, also from a record that a
    budget cut short."""
    from diagfree import verify

    h = verify.monoid("pn", n)
    pres = verify._ig_presentation(n, r)
    full = tietze_simplify(pres)
    capped = tietze_simplify(pres, budget=50)
    assert not capped.complete and capped.eliminations == 50
    for t in p1_projections(n, r)[:2]:
        g = (pres.gen_index(gen_name_for_idempotent(h, t)) + 1,)
        slow = GroupPresentation(pres.generators, pres.relators + (g,))
        want = todd_coxeter(tietze_simplify(slow).presentation).order
        assert want is not None
        for simp in (full, capped):
            assert todd_coxeter(simp.quotient([g])).order == want


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


def test_emit_pg_e_and_rig():
    doc = emit_semigroup_presentation(P2, "pg-e")
    assert len(doc.generators) == 12
    rig = emit_semigroup_presentation(P2, "rig")
    assert len(rig.relations) > len(emit_semigroup_presentation(P2, "ig").relations)
    with pytest.raises(ValueError):
        emit_semigroup_presentation(P2, "nope")


def test_basic_pairs_products_idempotent():
    from diagfree.present import basic_pairs
    from diagfree.diagram import multiply, is_idempotent

    for e, f in basic_pairs(P2):
        assert is_idempotent(multiply(e, f))
        assert is_idempotent(multiply(f, e))


def test_cas_and_json_emitters():
    p = GroupPresentation(("a[x]", "a[y]"), ((1, -2), (2, 2)))
    text = to_cas_text(p, "demo")
    assert 'F := FreeGroup("a1", "a2");' in text
    assert "a1*a2^-1" in text
    assert "# a2 = a[y]" in text
    doc = to_json_doc(p)
    assert presentation_from_json(json.loads(json.dumps(doc))) == p
