"""Aut-versus-A comparisons, the stem-pair structure, and standing witnesses."""
import json
import time
from itertools import combinations_with_replacement

import pytest

from groupdet import autcompare, maps, matrices
from groupdet import (
    CATALOG,
    AutComparison,
    PreconditionError,
    ProductGroup,
    ResourceLimitError,
    StructuralError,
    aut_order,
    build_group,
    central_aut_group,
    classify_pair,
    compare_aut_vs_A,
    compare_autc_vs_Z,
    direct_product,
    enumerate_A,
    enumerate_Z,
    enumerate_aut_matrices,
    enumerate_autos,
    in_A,
    in_Z,
    is_bijective,
    is_central_automorphism,
    lemcomm_witness,
    q8_noncommuting_witness,
    recompose,
    verify_stem_semidirect,
)
from groupdet.autcompare import WITNESS_CAP


def _g(spec):
    return build_group(spec)


def test_stem_pair_equality():
    cmp = compare_aut_vs_A(_g("S3"), _g("C4"))
    assert cmp.aut_order == 24 and cmp.a_order == 24
    assert cmp.equal
    assert cmp.violating_matrices == ((), ())


def test_shared_factor_breaks_both_inclusions():
    cmp = compare_aut_vs_A(_g("C2"), _g("C2"))
    assert cmp.aut_order == 6 and cmp.a_order == 4
    assert not cmp.a_subset_aut
    assert not cmp.aut_subset_a
    assert not cmp.equal
    set_minus_aut, aut_minus_set = cmp.violating_matrices
    assert set_minus_aut and aut_minus_set
    for m in set_minus_aut:
        assert not is_bijective(recompose(m))
    for m in aut_minus_set:
        assert not in_A(m)


def test_more_equality_instances():
    cmp = compare_aut_vs_A(_g("C3"), _g("C4"))
    assert cmp.equal and cmp.aut_order == 4
    cmp = compare_aut_vs_A(_g("Q8"), _g("C2"))
    assert cmp.equal and cmp.aut_order == 192
    cmp = compare_aut_vs_A(_g("C2"), _g("C4"))
    assert cmp.equal and cmp.aut_order == 8


def test_witness_cap_and_serialization():
    cmp = compare_aut_vs_A(_g("C4"), _g("C4"))
    assert cmp.aut_order == 96 and cmp.a_order == 64
    _, aut_minus_set = cmp.violating_matrices
    assert len(aut_minus_set) == WITNESS_CAP
    payload = json.loads(json.dumps(cmp.as_dict()))
    assert payload["equal"] is False
    assert len(payload["aut_minus_set"]) == WITNESS_CAP


def test_comparison_consistency_guard():
    with pytest.raises(StructuralError):
        AutComparison(
            aut_order=6, a_order=4,
            a_subset_aut=True, aut_subset_a=True,
            violating_matrices=((), ()),
        )


def test_resource_bounds():
    with pytest.raises(ResourceLimitError):
        compare_aut_vs_A(_g("C12"), _g("C12"))
    with pytest.raises(ResourceLimitError):
        compare_autc_vs_Z(_g("C12"), _g("C12"))
    cmp = compare_aut_vs_A(_g("C12"), _g("C12"), max_product_order=144)
    assert cmp.aut_order == 4608 and not cmp.equal


def test_central_aut_group():
    c12 = _g("C12")
    assert len(central_aut_group(c12)) == len(enumerate_autos(c12))
    s3 = _g("S3")
    centrals = central_aut_group(s3)
    assert len(centrals) == 1
    assert centrals[0].values == tuple(range(6))


def test_central_aut_vs_Z():
    cmp = compare_autc_vs_Z(_g("S3"), _g("C4"))
    assert cmp.equal
    assert cmp.aut_order == 4 and cmp.a_order == 4
    cmp = compare_autc_vs_Z(_g("C2"), _g("C4"))
    assert cmp.equal and cmp.aut_order == 8


def test_stem_semidirect_structure():
    verified, report = verify_stem_semidirect(_g("S3"), _g("Q8"))
    assert verified
    assert report.group_order == 288
    assert report.diagonal_order == 144
    assert report.normal_order == 2
    assert report.n_is_subgroup and report.n_is_normal
    assert report.u_l_commute
    assert report.d_intersect_n_trivial and report.d_n_covers
    assert report.as_dict()["verified"] is True


def test_stem_semidirect_preconditions():
    with pytest.raises(PreconditionError):
        verify_stem_semidirect(_g("S3"), _g("C4"))  # C4 is not stem
    with pytest.raises(PreconditionError):
        verify_stem_semidirect(_g("C2"), _g("Q8"))  # C2 is not stem
    with pytest.raises(PreconditionError):
        verify_stem_semidirect(_g("S3"), _g("S3"))  # shared factor


def test_q8_noncommuting_witness():
    u, l, ul, lu = q8_noncommuting_witness()
    assert ul != lu
    assert in_A(u) and in_A(l) and in_A(ul) and in_A(lu)
    assert is_bijective(recompose(ul)) and is_bijective(recompose(lu))
    # the difference is confined to the corner entry on the big factor
    assert ul.entries[0][1].values == lu.entries[0][1].values
    assert ul.entries[1][0].values == lu.entries[1][0].values
    assert ul.entries[0][0].values != lu.entries[0][0].values


def test_lemcomm_witness_escapes_A():
    for specs in (("C2", "C2"), ("S3", "S3"), ("C2 x C4", "C4"), ("C2 x S3", "S3")):
        h, k = _g(specs[0]), _g(specs[1])
        w = lemcomm_witness(h, k)
        assert not in_A(w)
        assert is_bijective(recompose(w))
        assert not is_bijective(w.entries[0][0])
    with pytest.raises(PreconditionError):
        lemcomm_witness(_g("S3"), _g("C4"))


def test_lemcomm_witness_consistent_with_comparison():
    h, k = _g("C2"), _g("C2")
    w = lemcomm_witness(h, k)
    cmp = compare_aut_vs_A(h, k)
    _, aut_minus_set = cmp.violating_matrices
    assert w.key() in {m.key() for m in aut_minus_set}


def test_classify_verdicts_match_the_comparison():
    # classify_pair reads A <= Aut off a_subgroup_check (1 + xi.mu and
    # 1 - xi.mu run over the same maps) and Aut = A off the orders, with no
    # witness; compare_aut_vs_A, which lists witnesses, is its oracle.
    cases = [(a, b, 144) for a, b in combinations_with_replacement(CATALOG, 2)]
    cases += [("C2 x S4", "S4", 1152), ("D8 x D8", "C2", 128)]
    verdicts, a_not_inside = set(), 0
    for a, b, bound in cases:
        h, k = _g(a), _g(b)
        report = classify_pair(h, k, bound)
        cmp = compare_aut_vs_A(h, k, bound)
        assert not report.incomplete, (a, b)
        assert report.a_equals_aut == cmp.equal, (a, b)
        assert report.a_is_subgroup == cmp.a_subset_aut, (a, b)
        verdicts.add(report.a_equals_aut)
        a_not_inside += not cmp.a_subset_aut
    assert verdicts == {True, False}
    assert a_not_inside == 12  # the pairs decided without building H x K
    report = classify_pair(_g("C12"), _g("C12"), 143)
    assert report.incomplete
    assert report.a_is_subgroup is None and report.a_equals_aut is None


def _listing_comparison(h, k, max_product_order, central=False):
    """Aut(H x K) against A, or Aut_c(H x K) against Z, by listing both sides.

    Every automorphism of the product is decomposed and every member of A
    built; for Z and Aut_c both lists are filtered by the full predicates
    ``in_Z`` and ``is_central_automorphism``.  No count, chain order or
    determinant is used.  Returns the figures of an AutComparison and the
    key sets of both differences.
    """
    aut_mats = enumerate_aut_matrices(ProductGroup.of(h, k), max_product_order)
    set_mats = enumerate_A((h, k), max_product_order)
    if central:
        aut_mats = [m for m in aut_mats if is_central_automorphism(recompose(m))]
        set_mats = [m for m in set_mats if in_Z(m)]
    aut_keys = {m.key() for m in aut_mats}
    set_keys = {m.key() for m in set_mats}
    set_minus_aut = set_keys - aut_keys
    aut_minus_set = aut_keys - set_keys
    return {
        "aut_order": len(aut_mats),
        "a_order": len(set_mats),
        "a_subset_aut": not set_minus_aut,
        "aut_subset_a": not aut_minus_set,
        "equal": not set_minus_aut and not aut_minus_set,
        "witness_counts": (
            min(WITNESS_CAP, len(set_minus_aut)),
            min(WITNESS_CAP, len(aut_minus_set)),
        ),
    }, set_minus_aut, aut_minus_set


def _check_witnesses(cmp, set_minus_aut_keys=None, aut_minus_set_keys=None, central=False):
    member = in_Z if central else in_A
    set_minus_aut, aut_minus_set = cmp.violating_matrices
    for m in set_minus_aut:
        assert member(m) and not is_bijective(recompose(m))
    for m in aut_minus_set:
        f = recompose(m)
        assert not member(m) and is_bijective(f)
        if central:
            assert is_central_automorphism(f)
    for side, keys in ((set_minus_aut, set_minus_aut_keys), (aut_minus_set, aut_minus_set_keys)):
        assert len({m.key() for m in side}) == len(side)
        if keys is not None:
            assert {m.key() for m in side} <= keys


def _check_counting_against_listing(compare, central, monkeypatch):
    groups = [_g(s) for s in CATALOG]
    pairs = [(h, k) for i, h in enumerate(groups) for k in groups[i:]]
    assert len(pairs) == 55
    for h, k in pairs:
        want, set_minus_aut, aut_minus_set = _listing_comparison(h, k, 144, central)
        cmp = compare(h, k, max_product_order=144)
        got = {
            "aut_order": cmp.aut_order,
            "a_order": cmp.a_order,
            "a_subset_aut": cmp.a_subset_aut,
            "aut_subset_a": cmp.aut_subset_a,
            "equal": cmp.equal,
            "witness_counts": tuple(len(side) for side in cmp.violating_matrices),
        }
        assert got == want, (h.name, k.name)
        _check_witnesses(cmp, set_minus_aut, aut_minus_set, central)
    # Without the cap the witnesses are both differences in full, so the
    # counted |set n Aut| that bounds the chain walk is checked as well.
    monkeypatch.setattr(autcompare, "WITNESS_CAP", 10**9)
    for h, k in pairs:
        if h.order * k.order <= 64:
            _, set_minus_aut, aut_minus_set = _listing_comparison(h, k, 64, central)
            uncapped = compare(h, k).violating_matrices
            assert [{m.key() for m in side} for side in uncapped] == [
                set_minus_aut, aut_minus_set
            ], (h.name, k.name)


def test_counting_matches_listing_on_catalog_pairs(monkeypatch):
    _check_counting_against_listing(compare_aut_vs_A, False, monkeypatch)


def test_counted_Z_comparison_matches_listing_on_catalog_pairs(monkeypatch):
    _check_counting_against_listing(compare_autc_vs_Z, True, monkeypatch)


def test_Z_is_A_restricted_to_central_diagonals():
    groups = [_g(s) for s in CATALOG]
    for i, h in enumerate(groups):
        for k in groups[i:]:
            if h.order * k.order <= 64:
                want = [m.key() for m in enumerate_A((h, k)) if in_Z(m)]
                assert [m.key() for m in enumerate_Z((h, k))] == want, (h.name, k.name)


def test_central_aut_group_is_the_filtered_automorphism_list():
    specs = list(CATALOG) + ["S3 x C2", "D8 x C2", "Q8 x C4", "D8 x C4", "S3 x S3"]
    for spec in specs:
        g = _g(spec)
        want = [f.values for f in enumerate_autos(g) if is_central_automorphism(f)]
        assert [f.values for f in central_aut_group(g)] == want, spec


def test_comparison_without_listing_the_product_automorphisms():
    # |Aut(C2^4 x C4)| = 10,321,920; listing them exhausted memory.
    cmp = compare_aut_vs_A(_g("E2^3"), _g("C2 x C4"))
    assert cmp.aut_order == 10_321_920
    assert cmp.a_order == 5_505_024  # |Aut E2^3| |Aut(C2 x C4)| |Hom|^2 = 168 * 8 * 64 * 64
    assert not cmp.a_subset_aut and not cmp.aut_subset_a
    assert [len(side) for side in cmp.violating_matrices] == [WITNESS_CAP] * 2
    _check_witnesses(cmp)


def test_Z_comparison_without_listing_the_product_automorphisms():
    # The product is abelian, so Aut_c = Aut and Z = A: listing the
    # 10,321,920 central automorphisms is over the listing bound.
    h, k = _g("E2^3"), _g("C2 x C4")
    t0 = time.perf_counter()
    cmp = compare_autc_vs_Z(h, k)
    assert time.perf_counter() - t0 < 1.0
    assert cmp.aut_order == 10_321_920
    assert cmp.a_order == 5_505_024
    assert not cmp.a_subset_aut and not cmp.aut_subset_a
    assert [len(side) for side in cmp.violating_matrices] == [WITNESS_CAP] * 2
    _check_witnesses(cmp, central=True)


def test_Z_side_lists_no_automorphism_group(monkeypatch):
    def refuse(g):
        raise AssertionError(f"listed Aut({g.name})")

    # A fresh product, so nothing is cached on it yet.
    product = direct_product(_g("Q8"), _g("C4"))
    monkeypatch.setattr(maps, "enumerate_autos", refuse)
    monkeypatch.setattr(matrices, "enumerate_autos", refuse)
    cmp = compare_autc_vs_Z(_g("C4"), _g("C4"))
    assert cmp.aut_order == 96 and cmp.a_order == 64 and not cmp.equal
    assert len(central_aut_group(product)) == 64
    assert aut_order(product) == 384  # counted, not listed
    assert (maps._chain_listing, False) not in product._cache  # enumerate_autos' key
    with pytest.raises(ResourceLimitError, match="central automorphisms"):
        central_aut_group(_g("E2^5"))  # |GL(5, 2)| = 9,999,360, all central
