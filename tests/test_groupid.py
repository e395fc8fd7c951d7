"""Smith normal form, coset enumeration, labels, and the verdict pipeline."""

import math
import random
from dataclasses import replace

import pytest

from diagfree.groupid import (
    AbelianInvariants,
    GroupPresentation,
    IdentifyHints,
    abelianization,
    check_label_homomorphism,
    identify,
    perm_compose,
    perm_inv,
    permutation_group_order,
    smith_normal_form,
    subgroup_hints,
    todd_coxeter,
)
from diagfree.present import subgroup_presentation, tietze_simplify

S3 = GroupPresentation(("s1", "s2"), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)))


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == [0, 0]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[4]]) == [4]


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _unimodular(n, rng):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(15):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_snf_unimodular_sandwich_oracle():
    rng = random.Random(17)
    for diag in ([1, 2, 6], [3, 3, 0], [2, 4, 8]):
        n = len(diag)
        D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        M = _matmul(_matmul(_unimodular(n, rng), D), _unimodular(n, rng))
        want = smith_normal_form(D)
        assert smith_normal_form(M) == want


def test_snf_divisibility_chain():
    rng = random.Random(29)
    for _ in range(25):
        M = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        diag = smith_normal_form(M)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


def test_abelianization_examples():
    assert abelianization(GroupPresentation(("a",), ((1, 1, 1),))) == (
        AbelianInvariants(0, (3,))
    )
    assert abelianization(GroupPresentation(("a", "b"), ())) == (
        AbelianInvariants(2, ())
    )
    zs2 = GroupPresentation(("t", "x"), ((2, 2), (1, 2, -1, -2)))
    assert abelianization(zs2) == AbelianInvariants(1, (2,))


def test_todd_coxeter_small_groups():
    assert todd_coxeter(GroupPresentation(("a",), ((1, 1, 1),))).order == 3
    assert todd_coxeter(S3).order == 6
    q8 = GroupPresentation(("a", "b"), ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
    assert todd_coxeter(q8).order == 8
    assert todd_coxeter(GroupPresentation((), ())).order == 1


def test_todd_coxeter_incomplete_is_not_failure():
    free = GroupPresentation(("a", "b"), ())
    ct = todd_coxeter(free, max_cosets=200)
    assert not ct.complete and ct.order is None


def _coxeter(m):
    """The Coxeter presentation with order matrix m, one generator a row."""
    n = len(m)
    rels = [(g + 1, g + 1) for g in range(n)]
    rels += [(a + 1, b + 1) * m[a][b] for a in range(n) for b in range(a + 1, n)]
    return GroupPresentation(tuple(f"s{g}" for g in range(1, n + 1)), tuple(rels))


def _ig_quotient_p42():
    """The simplified quotient the Z x S_2 route enumerates at (P_4, 2)."""
    from diagfree import verify

    d = verify.dclass("pn", 4, 2)
    pres = subgroup_presentation(d, "ig", squares=verify.squares("pn", 4, 2))
    simp = tietze_simplify(pres)
    quot = subgroup_hints(d, "ig").quotient_generators
    return tietze_simplify(simp.quotient((pres.gen_index(x) + 1,) for x in quot)).presentation


# (name, presentation, group order, cosets defined by a complete enumeration);
# None for an infinite group, which no bound completes.  The counts follow
# the scan and definition order, so any change to that order moves them.
PINNED_ENUMERATIONS = [
    *((f"C_{n}", GroupPresentation(("a",), ((1,) * n,)), n, n) for n in range(1, 9)),
    *(
        (f"I_2({m})", _coxeter([[1, m], [m, 1]]), 2 * m, cosets)
        for m, cosets in zip(range(1, 7), (3, 4, 8, 12, 16, 20))
    ),
    ("S_4", _coxeter([[1, 3, 2], [3, 1, 3], [2, 3, 1]]), 24, 36),
    ("A_5", GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 5)), 60, 82),
    ("H_3", _coxeter([[1, 5, 2], [5, 1, 3], [2, 3, 1]]), 120, 201),
    (
        "PSL(2,7)",
        GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2), (1, 2) * 7, (1, -2, 1, 2) * 4)),
        168,
        470,
    ),
    ("F_2", GroupPresentation(("a", "b"), ()), None, None),
]


@pytest.mark.parametrize("bound", (0, 1, 3, 17, 200, 5000))
def test_todd_coxeter_counts_pinned(bound):
    """(order, cosets_defined) at each bound: complete when the enumeration
    needs at most max(bound, 1) cosets (coset 0 is always there), otherwise
    stopped by the definition that passes the bound."""
    room = max(bound, 1)
    corpus = PINNED_ENUMERATIONS + [("P_4 r2 ig quotient", _ig_quotient_p42(), 2, 2)]
    for name, p, order, cosets in corpus:
        want = (order, cosets) if cosets is not None and cosets <= room else (None, room + 1)
        ct = todd_coxeter(p, bound)
        assert (ct.order, ct.cosets_defined) == want, name


def test_todd_coxeter_invariance_under_shuffles():
    rng = random.Random(3)
    base = list(S3.relators)
    for _ in range(4):
        rng.shuffle(base)
        assert todd_coxeter(GroupPresentation(S3.generators, tuple(base))).order == 6
    renamed = GroupPresentation(("x2", "x1"), S3.relators)
    assert todd_coxeter(renamed).order == 6


def test_quotient_never_increases_order():
    for extra in ((1,), (2,), (1, 2)):
        q = GroupPresentation(S3.generators, S3.relators + (extra,))
        assert todd_coxeter(q).order <= 6


def test_label_homomorphism_checks():
    ok = check_label_homomorphism(S3, {"s1": (1, 0, 2), "s2": (0, 2, 1)})
    assert ok.valid and ok.image_order == 6
    bad = check_label_homomorphism(S3, {"s1": (1, 0, 2), "s2": (1, 2, 0)})
    assert not bad.valid and bad.image_order == 6
    with pytest.raises(KeyError):
        check_label_homomorphism(S3, {"s1": (1, 0, 2)})
    assert permutation_group_order([]) == 1


@pytest.mark.parametrize(
    "gens, order",
    [
        ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 120),
        ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),
        ([(1, 2, 0)], 3),
        ([(0, 1, 2)], 1),
        ([], 1),
    ],
    ids=["S5", "Klein4", "C3", "identity", "empty"],
)
def test_permutation_group_order_exact(gens, order):
    assert permutation_group_order(gens) == order


def _reference_label_check(p, assignment):
    """The label check that inverts a permutation at every inverse letter:
    (valid, image_order)."""
    perms = [tuple(assignment[name]) for name in p.generators]
    ident = tuple(range(len(perms[0])))
    valid = True
    for w in p.relators:
        acc = ident
        for x in w:
            g = perms[abs(x) - 1]
            acc = perm_compose(acc, g if x > 0 else perm_inv(g))
        valid = valid and acc == ident
    return valid, permutation_group_order(perms)


def test_label_check_matches_per_letter_inverses():
    """Inverting each generator once gives the verdict and the image order
    of inverting at every letter, on the labels and on a deliberately wrong
    assignment of 4-cycles and 3-cycles, whose inverses differ from
    themselves."""
    from diagfree import verify

    d = verify.dclass("pn", 4, 2)
    pres = subgroup_presentation(d, "ig", squares=verify.squares("pn", 4, 2))
    labels = subgroup_hints(d, "ig").labels
    rng = random.Random(6)
    wrong = {name: tuple(rng.sample(range(4), 4)) for name in pres.generators}
    assert any(perm_inv(g) != g for g in wrong.values())
    for assignment, valid in ((labels, True), (wrong, False)):
        got = check_label_homomorphism(pres, assignment)
        assert (got.valid, got.image_order) == _reference_label_check(pres, assignment)
        assert got.valid is valid


@pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (4, 2), (5, 3)])
@pytest.mark.parametrize("family, tree", [("ig", "s"), ("pg", "pg")])
def test_label_check_on_q_matches_full_presentation(n, r, family, tree, monkeypatch):
    """The labels are a homomorphism onto S_r on the full presentation,
    and the check on Q gives the same result and image order; identify
    checks them on Q alone, reading only the labels of Q's generators."""
    from diagfree import groupid, verify

    d = verify.dclass("pn", n, r)
    pres = subgroup_presentation(d, family, tree, squares=verify.squares("pn", n, r))
    hints = subgroup_hints(d, family)
    simp = tietze_simplify(pres)
    full = check_label_homomorphism(pres, hints.labels)
    assert full.valid and full.image_order == math.factorial(r)
    assert check_label_homomorphism(simp.presentation, hints.labels) == full
    checked = []
    check = groupid.check_label_homomorphism
    monkeypatch.setattr(
        groupid,
        "check_label_homomorphism",
        lambda p, labels: checked.append(p.generators) or check(p, labels),
    )
    identify(pres, hints, simplified=simp)
    assert checked == [simp.presentation.generators]


def test_identify_free_and_trivial():
    assert identify(GroupPresentation(("a", "b"), ())).rank == 2
    v = identify(GroupPresentation(("a",), ((1,),)))
    assert v.is_trivial
    z = identify(GroupPresentation(("a", "b"), ((1, -2),)))
    assert z.kind == "free" and z.rank == 1
    assert z.describe() == "Z (free rank 1)"


def test_identify_finite_certified():
    labels = {"s1": (1, 0, 2), "s2": (0, 2, 1)}
    v = identify(S3, IdentifyHints(rank=3, labels=labels))
    assert v.kind == "finite" and v.order == 6
    assert v.certification == "certified" and v.tag == "S_3"
    # without labels: plain finite verdict
    v2 = identify(S3)
    assert v2.kind == "finite" and v2.order == 6 and v2.certification is None


def test_identify_z_cross_partial():
    # Z x S_2 presented directly: t central, x^2 = 1
    p = GroupPresentation(("t", "x"), ((2, 2), (1, 2, -1, -2)))
    hints = IdentifyHints(rank=2, labels={"t": (0, 1), "x": (1, 0)},
                          quotient_generators=("t",))
    v = identify(p, hints)
    assert v.kind == "z_cross_finite"
    assert v.order == 2 and v.certification == "partial"
    assert "consistent with Z x S_2" in v.describe()


def test_identify_unknown_carries_evidence():
    # free rank 1 abelianization but no quotient hints: unknown
    p = GroupPresentation(("t", "x"), ((2, 2), (1, 2, -1, -2)))
    v = identify(p)
    assert v.kind == "unknown"
    assert v.evidence[0] == "simplified to 2 generators, 2 relators in 0 eliminations"
    assert any("abelianization" in line for line in v.evidence)


def test_identify_never_certifies_beyond_its_evidence():
    """On each certifying route, a label map that is not a homomorphism
    on Q, the simplified presentation, or whose image order is not r!,
    gives no certified or partial tag: no generators left (PG at (3, 1),
    S_1), Todd-Coxeter (S_3, and PG at (5, 3), whose Q keeps 2 generators
    and 10 relators) and the Z x S_2 quotient.  The first hints of each
    case certify."""
    from diagfree import verify

    d = verify.dclass("pn", 3, 1)
    pg = subgroup_presentation(d, "pg", squares=verify.squares("pn", 3, 1))
    pg_hints = subgroup_hints(d, "pg")
    d5 = verify.dclass("pn", 5, 3)
    pg5 = subgroup_presentation(d5, "pg", squares=verify.squares("pn", 5, 3))
    pg5_hints = subgroup_hints(d5, "pg")
    a, b = tietze_simplify(pg5).presentation.generators
    labels5 = pg5_hints.labels
    zs2 = GroupPresentation(("t", "x"), ((2, 2), (1, 2, -1, -2)))

    def zs2_hints(t, x):
        return IdentifyHints(rank=2, labels={"t": t, "x": x}, quotient_generators=("t",))

    # Every tree relator of PG at (3, 1) maps to a transposition, but its Q
    # has no generators: the group is trivial, and S_1 is the right verdict.
    transpositions = replace(pg_hints, labels={g: (1, 0) for g in pg.generators})
    assert identify(pg, transpositions).describe() == "S_1 (order 1, certified)"
    cases = [
        (pg, "S_1 (order 1, certified)", [
            pg_hints,
            # image order 1, not 2!
            replace(pg_hints, rank=2),
        ]),
        (pg5, "S_3 (order 6, certified)", [
            pg5_hints,
            # onto S_3, but Q's relator a^-2 maps to a 3-cycle
            replace(pg5_hints, labels={**labels5, a: labels5[b], b: labels5[a]}),
        ]),
        (S3, "S_3 (order 6, certified)", [
            IdentifyHints(rank=3, labels={"s1": (1, 0, 2), "s2": (0, 2, 1)}),
            # onto S_3, but s2^2 maps to a 3-cycle
            IdentifyHints(rank=3, labels={"s1": (1, 0, 2), "s2": (1, 2, 0)}),
            # a homomorphism of image order 2
            IdentifyHints(rank=3, labels={"s1": (1, 0, 2), "s2": (1, 0, 2)}),
            # onto S_3, which is not of order 2!
            IdentifyHints(rank=2, labels={"s1": (1, 0, 2), "s2": (0, 2, 1)}),
        ]),
        (zs2, "consistent with Z x S_2 (finite part order 2, certification: partial)", [
            zs2_hints((0, 1), (1, 0)),
            # t and x do not commute
            zs2_hints((1, 0, 2), (0, 2, 1)),
            # image order 1, not 2!
            zs2_hints((0, 1), (0, 1)),
        ]),
    ]
    for p, want, (good, *bad) in cases:
        assert identify(p, good).describe() == want
        for hints in bad:
            v = identify(p, hints)
            assert v.certification is None and v.tag is None, (want, hints)
            assert "certif" not in v.describe()


def test_identify_coset_overflow_is_unknown():
    """Both coset enumerations of identify end in an unknown verdict that
    says which one ran out: the S_r route's, and the Z x S_r quotient's."""
    from diagfree import verify

    v = identify(S3, IdentifyHints(max_cosets=3))
    assert v.kind == "unknown"
    assert v.evidence[-1] == "coset enumeration exceeded 3 cosets"
    d = verify.dclass("pn", 4, 2)
    p = subgroup_presentation(d, "ig", squares=verify.squares("pn", 4, 2))
    v = identify(p, subgroup_hints(d, "ig", max_cosets=1))
    assert v.kind == "unknown"
    assert v.evidence[-1] == "quotient enumeration incomplete"


def test_verdict_json():
    v = identify(S3)
    doc = v.to_json()
    assert doc["kind"] == "finite" and doc["order"] == 6
    assert isinstance(doc["evidence"], list)


@pytest.mark.parametrize(
    "n, r, want",
    [
        (5, 4, {"pg": "free of rank 6", "ig": "free of rank 26"}),
        (5, 3, {
            "pg": "S_3 (order 6, certified)",
            "ig": "consistent with Z x S_3 (finite part order 6, certification: partial)",
        }),
        (5, 0, {"pg-triangles": "trivial"}),
        (6, 5, {"pg": "free of rank 10", "ig": "free of rank 40"}),
        (6, 4, {
            "pg": "S_4 (order 24, certified)",
            "ig": "consistent with Z x S_4 (finite part order 24, certification: partial)",
        }),
        (7, 6, {"pg": "free of rank 15", "ig": "free of rank 57"}),
        pytest.param(5, 2, {
            "pg": "S_2 (order 2, certified)",
            "ig": "consistent with Z x S_2 (finite part order 2, certification: partial)",
        }, marks=pytest.mark.slow),
        pytest.param(5, 0, {"ig": "Z (free rank 1)"}, marks=pytest.mark.slow),
        pytest.param(7, 5, {
            "pg": "S_5 (order 120, certified)",
            "ig": "consistent with Z x S_5 (finite part order 120, certification: partial)",
        }, marks=pytest.mark.slow),
        pytest.param(6, 0, {"pg-triangles": "trivial"}, marks=pytest.mark.slow),
    ],
    ids=[
        "P5r4", "P5r3", "P5r0-triangles", "P6r5", "P6r4", "P7r6", "P5r2", "P5r0", "P7r5",
        "P6r0-triangles",
    ],
)
def test_identify_degrees_5_and_6(n, r, want):
    """identify's verdicts at degrees 5, 6 and 7 on each family's
    presentation, with its default tree and hints: at rank n-1 PG is free
    of rank C(n-1, 2) and IG free of rank (n-1)(3n-2)/2; at 1 <= r <= n-2
    PG is S_r and IG consistent with Z x S_r; at rank 0 PG, through linked
    triangles, is trivial and IG is Z.  ig and pg share one square search.
    (7, 5) is the first r = 5 and the first 120-coset enumeration."""
    from diagfree.biorder import enumerate_singular_squares
    from diagfree.diagram import PartitionMonoid
    from diagfree.green import dclass_data

    d = dclass_data(PartitionMonoid(n), r)
    squares = enumerate_singular_squares(d) if {"ig", "pg"} & set(want) else None
    got = {
        family: identify(
            subgroup_presentation(d, family, squares=squares), subgroup_hints(d, family)
        ).describe()
        for family in want
    }
    assert got == want
