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
  so the Aut-level facts are left open (``incomplete``).
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

The budgets are fixed; a run over them means the code got slower.
"""
import time

from groupdet import DEFAULT_AUT_ENUM_LIMIT, classify_pair


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
