"""Smith normal form, coset enumeration, labels, and the verdict pipeline."""

import random

import pytest

from diagfree.groupid import (
    AbelianInvariants,
    GroupPresentation,
    IdentifyHints,
    abelianization,
    check_label_homomorphism,
    identify,
    permutation_group_order,
    smith_normal_form,
    todd_coxeter,
)

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
    assert ct.status == "exceeded" and ct.order is None


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
    assert not bad.valid and bad.failures
    with pytest.raises(KeyError):
        check_label_homomorphism(S3, {"s1": (1, 0, 2)})
    assert permutation_group_order([]) == 1


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
    capped = identify(
        GroupPresentation(("a", "b"), ((1,), (2, 2))), IdentifyHints(simplify_budget=1)
    )
    assert capped.evidence[0] == (
        "simplified to 1 generators, 1 relators in 1 eliminations (budget exhausted)"
    )


def test_verdict_json():
    v = identify(S3)
    doc = v.to_json()
    assert doc["kind"] == "finite" and doc["order"] == 6
    assert isinstance(doc["evidence"], list)
