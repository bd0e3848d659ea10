"""Pairs with larger factors, each with a pinned wall-clock budget.

The expected verdicts come from the Krull-Remak-Schmidt theorem, not from
the code: a finite group is a direct product of indecomposable factors,
unique up to isomorphism and order, so two groups share a nontrivial direct
factor exactly when their decompositions share an indecomposable.

- D8 x D8 and C2: D8 is indecomposable, so D8 x D8 has no C2 factor and
  the pair has no common direct factor.  It is incompatible, centrally
  incompatible and totally incompatible (length 1), A is a subgroup of
  Aut(H x K), and Aut(H x K) = A.
- C2 x S4 and S4: S4 is a common factor, of order 24.  Z(S4) = 1, so S4
  has no central direct factor and the pair has no central common factor.
  It is compatible, centrally incompatible, A is a subgroup, and
  Aut(H x K) != A.
- D8 x C4 and Q8 x C2: the indecomposable factors are {D8, C4} and
  {Q8, C2}, so no factor is shared.  The pair is incompatible and centrally
  incompatible.  The product has order 512, over the default bound of 64,
  so the Aut-level facts are left open (``incomplete``).  At bound 4096
  they are decided: A is closed, and by Bidwell, Curran and McCaughan
  Aut(H x K) = A.  Its ``total_length`` 2 is pinned to the output of the
  code before the chain's failing searches were cut; no theorem gives it.
- S4 x S4 and C2: S4 is indecomposable and Z(S4 x S4) = 1, so S4 x S4 has
  no C2 factor.  The pair is incompatible and centrally incompatible; the
  product has order 1152, over the default bound, so it is ``incomplete``.
- S4 x S4 and S4: S4 is a common factor, of order 24, and no factor is
  central since the center is trivial.  The pair is compatible and
  centrally incompatible, and ``incomplete`` at the default bound (the
  product has order 13,824).
- E2^6 and C2: E2^6 is C2^6, so C2 is a common factor, and it is central
  in both.  The pair is compatible, centrally compatible and not totally
  incompatible, its smallest common factor has order 2, and the product
  has order 128, over the default bound, so it is ``incomplete``.
- E2^3 and E2^3: as for E2^6 and C2, C2 is a common central factor, so the
  pair is compatible, centrally compatible and not totally incompatible.
  A central common factor makes A not closed, and any common factor makes
  Aut(H x K) != A.  The product has order 64, inside the default bound.
- E2^4 and E2^4 at bound 256: the same verdicts as E2^3 and E2^3.
- E2^4 and C4 x C4 at bound 256: the indecomposable factors are {C2} and
  {C4}, so no factor is shared and the pair is incompatible and centrally
  incompatible; A is closed, and by Bidwell, Curran and McCaughan
  Aut(H x K) = A.  It is also totally incompatible of length 1: sigma lands
  in the elements of order 2 of C4 x C4, which are squares, and tau kills
  squares, so tau.sigma = 0.

The orders |Aut(D8 x C4 x Q8 x C2)| = 100,663,296 and
|Aut(D16 x C4 x C4)| = 196,608 are pinned to the same earlier output.  The
first is also |A| of the pair D8 x C4 and Q8 x C2 (Bidwell, Curran and
McCaughan's product), as that pair's Aut = A verdict requires.

The budgets are fixed; a run over them means the code got slower.
"""
import time

import pytest

from groupdet import DEFAULT_AUT_ENUM_LIMIT, FiniteGroup, aut_order, build_group, classify_pair


def _timed(h, k, bound=DEFAULT_AUT_ENUM_LIMIT):
    start = time.perf_counter()
    report = classify_pair(h, k, max_product_order=bound)
    return report, time.perf_counter() - start


def test_d8_x_d8_and_c2_share_no_factor():
    report, elapsed = _timed("D8 x D8", "C2", 128)
    assert not report.incomplete
    assert report.common_factor is None
    assert report.incompatible
    assert report.centrally_incompatible
    assert report.totally_incompatible and report.total_length == 1
    assert report.a_is_subgroup is True
    assert report.a_equals_aut is True
    print(f"LARGE PAIR D8 x D8 / C2: {elapsed:.2f}s")
    assert elapsed < 4.0


def test_c2_x_s4_and_s4_share_s4_but_no_central_factor():
    report, elapsed = _timed("C2 x S4", "S4", 1152)
    assert not report.incomplete
    assert report.common_factor is not None
    assert report.common_factor.h_factor.order == 24
    assert report.common_factor.k_factor.order == 24
    assert not report.incompatible
    assert report.centrally_incompatible
    assert report.a_is_subgroup is True
    assert report.a_equals_aut is False
    print(f"LARGE PAIR C2 x S4 / S4: {elapsed:.2f}s")
    assert elapsed < 4.0


def test_d8_x_c4_and_q8_x_c2_share_no_factor_at_the_default_bound():
    start = time.perf_counter()
    report = classify_pair("D8 x C4", "Q8 x C2")
    elapsed = time.perf_counter() - start
    assert report.incomplete
    assert report.a_is_subgroup is None and report.a_equals_aut is None
    assert report.common_factor is None
    assert report.incompatible
    assert report.centrally_incompatible
    print(f"LARGE PAIR D8 x C4 / Q8 x C2: {elapsed:.2f}s")
    assert elapsed < 5.0


def test_d8_x_c4_and_q8_x_c2_share_no_factor_at_bound_4096():
    report, elapsed = _timed("D8 x C4", "Q8 x C2", 4096)
    assert not report.incomplete
    assert report.common_factor is None
    assert report.incompatible
    assert report.centrally_incompatible
    assert report.totally_incompatible and report.total_length == 2
    assert report.a_is_subgroup is True
    assert report.a_equals_aut is True
    print(f"LARGE PAIR D8 x C4 / Q8 x C2 at 4096: {elapsed:.2f}s")
    assert elapsed < 3.0


@pytest.mark.parametrize(
    "spec, order", [("D8 x C4 x Q8 x C2", 100_663_296), ("D16 x C4 x C4", 196_608)]
)
def test_aut_order_of_a_large_product(spec, order):
    g = FiniteGroup(build_group(spec).table, name=spec)  # nothing is kept on it yet
    start = time.perf_counter()
    assert aut_order(g) == order
    elapsed = time.perf_counter() - start
    print(f"LARGE AUT {spec}: {elapsed:.2f}s")
    assert elapsed < 1.0


def test_s4_x_s4_and_c2_share_no_factor_at_the_default_bound():
    report, elapsed = _timed("S4 x S4", "C2")
    assert report.incomplete
    assert report.a_is_subgroup is None and report.a_equals_aut is None
    assert report.common_factor is None
    assert report.incompatible
    assert report.centrally_incompatible
    print(f"LARGE PAIR S4 x S4 / C2: {elapsed:.2f}s")
    assert elapsed < 4.0


def test_s4_x_s4_and_s4_share_s4_but_no_central_factor_at_the_default_bound():
    report, elapsed = _timed("S4 x S4", "S4")
    assert report.incomplete
    assert report.a_is_subgroup is None and report.a_equals_aut is None
    assert report.common_factor is not None
    assert report.common_factor.h_factor.order == 24
    assert report.common_factor.k_factor.order == 24
    assert not report.incompatible
    assert report.centrally_incompatible
    print(f"LARGE PAIR S4 x S4 / S4: {elapsed:.2f}s")
    assert elapsed < 4.0


def test_e2_6_and_c2_share_a_central_c2_at_the_default_bound():
    report, elapsed = _timed("E2^6", "C2")
    assert report.incomplete
    assert report.a_is_subgroup is None and report.a_equals_aut is None
    assert report.common_factor is not None
    assert report.common_factor.h_factor.order == 2
    assert report.common_factor.k_factor.order == 2
    assert not report.incompatible
    assert not report.centrally_incompatible
    assert not report.totally_incompatible and report.total_length is None
    print(f"LARGE PAIR E2^6 / C2: {elapsed:.2f}s")
    assert elapsed < 5.0


def _shares_a_central_c2(report):
    assert not report.incomplete
    assert report.common_factor is not None
    assert report.common_factor.h_factor.order == 2
    assert not report.incompatible
    assert not report.centrally_incompatible
    assert not report.totally_incompatible and report.total_length is None
    assert report.a_is_subgroup is False
    assert report.a_equals_aut is False


def test_e2_3_and_e2_3_share_a_central_c2():
    report, elapsed = _timed("E2^3", "E2^3")
    _shares_a_central_c2(report)
    print(f"LARGE PAIR E2^3 / E2^3: {elapsed:.2f}s")
    assert elapsed < 2.0


def test_e2_4_and_e2_4_share_a_central_c2_at_bound_256():
    report, elapsed = _timed("E2^4", "E2^4", 256)
    _shares_a_central_c2(report)
    print(f"LARGE PAIR E2^4 / E2^4: {elapsed:.2f}s")
    assert elapsed < 5.0


def test_e2_4_and_c4_x_c4_share_no_factor_at_bound_256():
    report, elapsed = _timed("E2^4", "C4 x C4", 256)
    assert not report.incomplete
    assert report.common_factor is None
    assert report.incompatible
    assert report.centrally_incompatible
    assert report.totally_incompatible and report.total_length == 1
    assert report.a_is_subgroup is True
    assert report.a_equals_aut is True
    print(f"LARGE PAIR E2^4 / C4 x C4: {elapsed:.2f}s")
    assert elapsed < 4.0
