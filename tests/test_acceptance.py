"""The acceptance suite: one test per criterion, each printing a PASS/FAIL
line and comparing the criterion's detail with the line `diagfree verify
--verbose` printed when it was pinned, so a change to any verdict, count or
evidence line of the suite shows here.  The slow degree-5 extension of
criterion 8 is marked `slow` and excluded from the default run.  The last
test counts the θ tables the whole suite builds."""

import pytest

from diagfree import biorder, cli, diagram, green, verify


def _check(result, detail):
    status = "PASS" if result.ok else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.title} -- {result.detail}")
    assert result.ok, f"criterion {result.number}: {result.detail}"
    assert result.detail == detail


DETAIL_01 = "phi=1, floating=[frozenset({1, 2, 6})]"


def test_criterion_01_worked_product():
    _check(verify.criterion_1(), DETAIL_01)


DETAIL_02 = "4358 elements checked, 0 mismatches"


def test_criterion_02_idempotent_characterization():
    _check(verify.criterion_2(), DETAIL_02)


DETAIL_03 = "203^2 pairs, 0 mismatches"


def test_criterion_03_green_oracle_equivalence():
    _check(verify.criterion_3(), DETAIL_03)


DETAIL_04 = (
    "counted [(6, 18), (10, 34), (15, 55)], formula [(6, 18), (10, 34), (15, 55)]"
)


def test_criterion_04_projection_idempotent_counts():
    _check(verify.criterion_4(), DETAIL_04)


DETAIL_05 = "failures: []"


def test_criterion_05_gh_connectivity():
    _check(verify.criterion_5(), DETAIL_05)


DETAIL_06 = (
    "n=3: squares=0, verdict=free of rank 7 (want free 7); "
    "n=4: squares=0, verdict=free of rank 15 (want free 15)"
)


def test_criterion_06_ig_rank_n_minus_1_free():
    _check(verify.criterion_6(), DETAIL_06)


DETAIL_07 = "n=3: Z (free rank 1) (want free 1); n=4: free of rank 3 (want free 3)"


def test_criterion_07_pg_rank_n_minus_1_free():
    _check(verify.criterion_7(), DETAIL_07)


DETAIL_08 = (
    "(3,1): S_1 (order 1, certified); "
    "(4,1): S_1 (order 1, certified); "
    "(4,2): S_2 (order 2, certified)"
)


def test_criterion_08_pg_symmetric_group():
    _check(verify.criterion_8(), DETAIL_08)


DETAIL_08_SLOW = (
    "(3,1): S_1 (order 1, certified); "
    "(4,1): S_1 (order 1, certified); "
    "(4,2): S_2 (order 2, certified); "
    "(5,3): S_3 (order 6, certified)"
)


@pytest.mark.slow
def test_criterion_08_pg_symmetric_group_degree5():
    _check(verify.criterion_8(include_slow=True), DETAIL_08_SLOW)


DETAIL_09 = "n=1: trivial; n=2: trivial; n=3: trivial; n=4: trivial"


def test_criterion_09_pg_rank0_trivial():
    _check(verify.criterion_9(), DETAIL_09)


DETAIL_10 = (
    "n=2: 1 gens / 0 rels -> Z (free rank 1); "
    "n=3: 1 gens / 0 rels -> Z (free rank 1); "
    "n=4: 1 gens / 0 rels -> Z (free rank 1)"
)


def test_criterion_10_ig_rank0_infinite_cyclic():
    _check(verify.criterion_10(), DETAIL_10)


DETAIL_11 = (
    "(3,1): ab=Z, quotient orders [1, 1], labels valid=True, verdict=Z (free rank 1); "
    "(4,1): ab=Z, quotient orders [1, 1], labels valid=True, verdict=Z (free rank 1); "
    "(4,2): ab=Z x Z_2, quotient orders [2, 2], labels valid=True, "
    "verdict=consistent with Z x S_2 (finite part order 2, certification: partial)"
)


def test_criterion_11_ig_z_cross_sr_partial():
    _check(verify.criterion_11(), DETAIL_11)


DETAIL_12 = "|P_D|=3, |E_D|=9, formula=1, verdict=Z (free rank 1)"


def test_criterion_12_brauer_free_cyclic():
    _check(verify.criterion_12(), DETAIL_12)


DETAIL_13 = (
    "K3 with loops: Z (free rank 1) (want free 1); "
    "4-cycle with loops: Z (free rank 1) (want free 1); "
    "path on 3 with loops: trivial (want free 0)"
)


def test_criterion_13_adjacency_free_ranks():
    _check(verify.criterion_13(), DETAIL_13)


DETAIL_14 = "linked->UD: 578, pq->p: 144, proj->diamonds: 48, failures: []"


def test_criterion_14_square_lemmas():
    _check(verify.criterion_14(), DETAIL_14)


DETAIL_15 = "1065 bases checked, failures [], label failures 0"


def test_criterion_15_nt_reduction_and_labels():
    _check(verify.criterion_15(), DETAIL_15)


DETAIL_16 = "band witnesses: 0, 0; UD witness found: True"


def test_criterion_16_printed_squares():
    _check(verify.criterion_16(), DETAIL_16)


DETAIL_17 = "orders 3, 6; snf [1, 6]"


def test_criterion_17_tooling_sanity():
    _check(verify.criterion_17(), DETAIL_17)


def test_one_theta_table_per_class(monkeypatch):
    """Over the whole suite, slow criteria included, the handles' θ rows
    are built once per D-class: `theta_rows` is called exactly once for
    each `dclass_data` call on a handle with involution, and no other
    stage builds θ rows (56 calls when the square search and each linked
    scan built their own table)."""
    for cached in (verify.monoid, verify.dclass, verify.squares):
        cached.cache_clear()
    counts = {"theta_rows": 0, "dclass_data": 0}
    for cls in (diagram.FiniteStarSemigroup, diagram.PartitionHandleBase):
        def counted(self, ps, keys, original=cls.theta_rows):
            counts["theta_rows"] += 1
            return original(self, ps, keys)

        monkeypatch.setattr(cls, "theta_rows", counted)
    build = green.dclass_data

    def spy(h, r):
        counts["dclass_data"] += h.has_star
        return build(h, r)

    for module in (green, biorder, cli, verify):
        monkeypatch.setattr(module, "dclass_data", spy)
    results = verify.run_all(include_slow=True)
    for cached in (verify.monoid, verify.dclass, verify.squares):
        cached.cache_clear()
    assert all(res.ok for res in results)
    assert counts == {"theta_rows": 36, "dclass_data": 36}
