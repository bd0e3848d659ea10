"""Pair predicates and their collapse onto direct-factor structure."""
import hashlib
import json
from itertools import combinations_with_replacement

import pytest

from groupdet import autcompare, matrices, pairs
from groupdet import (
    CATALOG,
    FiniteGroup,
    GroupMap,
    PairReport,
    PairWitness,
    ProductGroup,
    ResourceLimitError,
    StructuralError,
    a_subgroup_check,
    build_group,
    classify_pair,
    compose,
    enumerate_homs,
    identity_map,
    is_bijective,
    is_centrally_incompatible,
    is_centrally_totally_incompatible_of_length,
    is_incompatible,
    is_normal_endo,
    is_totally_incompatible,
    nilpotency_index,
    pointwise_sum,
    zero_map,
)

SMALL_SPECS = ("C2", "C3", "C4", "C5", "C6", "S3", "D8", "Q8")


def test_classify_pairs_with_the_trivial_group():
    # Every map into or out of C1 is trivial, so every composite is 0: no
    # nontrivial fixed point, nilpotent of length 1, no common factor.  A
    # homomorphism out of C1 has a one-entry value tuple.
    for h, k in (("C1", "C1"), ("C1", "S3")):
        r = classify_pair(h, k).as_dict()
        assert r["incompatible"] and r["centrally_incompatible"], (h, k)
        assert r["totally_incompatible"] and r["total_length"] == 1, (h, k)
        assert r["common_factor"] is None and r["witnesses"] == [], (h, k)
        assert r["a_is_subgroup"] and r["a_equals_aut"] and not r["incomplete"], (h, k)


def _g(spec):
    return build_group(spec)


# Reference loops for the pair predicates: one walk per predicate, every
# pair composed through ``compose`` and tested for normality on its own,
# nothing shared between pairs.  ``groupdet.pairs`` decides all of them in
# one pass over distinct composites and must agree with these exactly.


def qualifying_pairs(h, k, central=False):
    """Yield (sigma, tau, sigma.tau, tau.sigma) with both compositions normal."""
    sigmas = enumerate_homs(h, k, restrict_codomain=k.center() if central else None)
    taus = enumerate_homs(k, h, restrict_codomain=h.center() if central else None)
    for sigma in sigmas:
        for tau in taus:
            st = compose(sigma, tau)
            ts = compose(tau, sigma)
            if is_normal_endo(st) and is_normal_endo(ts):
                yield sigma, tau, st, ts


def _oracle_fixed_point(f):
    for x in range(f.domain.order):
        if x != f.domain.identity and f.values[x] == x:
            return x
    return None


def _oracle_nilpotency_index(f):
    trivial = (f.domain.identity,) * f.domain.order
    current = f
    for n in range(1, f.domain.order + 1):
        if current.values == trivial:
            return n
        current = compose(f, current)
    return None


def _oracle_orbit_index(f, x):
    y = f.values[x]
    for n in range(1, f.domain.order + 1):
        if y == f.domain.identity:
            return n
        y = f.values[y]
    return None


def oracle_is_incompatible(h, k, central=False):
    kind = "centrally_compatible" if central else "compatible"
    for sigma, tau, st, _ in qualifying_pairs(h, k, central):
        fixed = _oracle_fixed_point(st)
        if fixed is not None:
            return False, PairWitness(kind, sigma, tau, fixed)
    return True, None


def oracle_is_totally_incompatible(h, k, central=False):
    kind = "centrally_not_totally" if central else "not_totally"
    length = 0
    for sigma, tau, st, ts in qualifying_pairs(h, k, central):
        n_st = _oracle_nilpotency_index(st)
        n_ts = _oracle_nilpotency_index(ts)
        if n_st is None and n_ts is None:
            survivor = next(
                x for x in range(k.order) if _oracle_orbit_index(st, x) is None
            )
            return False, None, PairWitness(kind, sigma, tau, survivor)
        if n_st is None or n_ts is None:
            raise StructuralError("one composition nilpotent and the other not")
        length = max(length, min(n_st, n_ts))
    return True, max(length, 1), None


def _power_trivial(f, n):
    for x in range(f.domain.order):
        y = x
        for _ in range(n):
            y = f.values[y]
        if y != f.domain.identity:
            return False
    return True


def oracle_of_length(h, k, n):
    return all(
        _power_trivial(st, n) or _power_trivial(ts, n)
        for _, _, st, ts in qualifying_pairs(h, k, central=True)
    )


def _witness_key(w):
    if w is None:
        return None
    return (w.kind, w.sigma.values, w.tau.values, w.element)


def _relabelled(g, perm):
    """A validated copy of g with each element x renamed perm[x]."""
    back = {p: x for x, p in enumerate(perm)}
    table = [
        [perm[g.table[back[a]][back[b]]] for b in range(g.order)]
        for a in range(g.order)
    ]
    return FiniteGroup(table, name=f"relabelled {g.name}")


def _oracle_pairs():
    catalog = [_g(spec) for spec in CATALOG]
    pairs = [(h, k) for h in catalog for k in catalog]
    e8 = _g("E2^3")
    # Reversed numbering puts the identity last, not at 0.
    pairs.append((e8, _relabelled(e8, range(7, -1, -1))))
    pairs.append((_g("S3 x C2"), _g("C2 x C2")))
    # Pairs whose plain verdicts settle before the first center-valued hit.
    pairs.append((_g("S3 x C2"), _g("C2 x S3")))
    pairs.append((_g("D8 x C2"), _g("C2 x D8")))
    return pairs


def test_qualifying_pairs_include_zero_and_respect_normality():
    h, k = _g("S3"), _g("C4")
    seen = list(qualifying_pairs(h, k))
    assert len(seen) == 8  # |Hom(S3,C4)| = 2, |Hom(C4,S3)| = 4, all qualify
    for sigma, tau, st, ts in seen:
        assert st.domain is k and st.codomain is k
        assert ts.domain is h and ts.codomain is h
    central = list(qualifying_pairs(h, k, central=True))
    assert len(central) == 2  # Hom(C4, Z(S3)) collapses to the zero map


def test_one_pass_matches_the_per_pair_loops():
    pairs = _oracle_pairs()
    assert len(pairs) == 104
    assert pairs[100][1].identity == 7
    for h, k in pairs:
        label = (h.name, k.name)
        for central in (False, True):
            ok, w = is_incompatible(h, k, central=central)
            ok_o, w_o = oracle_is_incompatible(h, k, central)
            assert (ok, _witness_key(w)) == (ok_o, _witness_key(w_o)), label
            got = is_totally_incompatible(h, k, central=central)
            want = oracle_is_totally_incompatible(h, k, central)
            assert got[:2] == want[:2], label
            assert _witness_key(got[2]) == _witness_key(want[2]), label
        report = classify_pair(h, k, max_product_order=1)
        assert report.incompatible == is_incompatible(h, k)[0], label
        assert report.total_length == is_totally_incompatible(h, k)[1], label


def test_length_n_predicate_matches_the_power_loop():
    catalog = [_g(spec) for spec in CATALOG]
    for h in catalog:
        for k in catalog:
            for n in range(1, 5):
                assert is_centrally_totally_incompatible_of_length(h, k, n) == (
                    oracle_of_length(h, k, n)
                ), (h.name, k.name, n)


def test_is_incompatible_examples():
    ok, w = is_incompatible(_g("C2"), _g("C4"))
    assert ok and w is None
    ok, w = is_incompatible(_g("S3"), _g("C4"))
    assert ok and w is None
    for spec in ("C2", "S3", "Q8"):
        g = _g(spec)
        ok, w = is_incompatible(g, g)
        assert not ok
        assert w.kind == "compatible"
        assert w.sigma.values == identity_map(g).values
        assert w.tau.values == identity_map(g).values
        assert w.element != g.identity
        assert compose_fixed(w)


def compose_fixed(w: PairWitness) -> bool:
    st = tuple(w.sigma.values[x] for x in w.tau.values)
    return st[w.element] == w.element


def test_side_symmetry():
    for a, b in combinations_with_replacement(SMALL_SPECS, 2):
        h, k = _g(a), _g(b)
        assert is_incompatible(h, k)[0] == is_incompatible(k, h)[0]
        assert is_centrally_incompatible(h, k)[0] == is_centrally_incompatible(k, h)[0]
        assert is_totally_incompatible(h, k)[0] == is_totally_incompatible(k, h)[0]


def test_centrally_incompatible_examples():
    assert is_centrally_incompatible(_g("S3"), _g("C4"))[0]
    assert is_centrally_incompatible(_g("Q8"), _g("C4"))[0]
    assert is_centrally_incompatible(_g("D8"), _g("Q8"))[0]
    ok, w = is_centrally_incompatible(_g("C2"), _g("C2"))
    assert not ok and w.kind == "centrally_compatible"


def test_nilpotency_index():
    c4 = _g("C4")
    assert nilpotency_index(zero_map(c4, c4)) == 1
    assert nilpotency_index(identity_map(c4)) is None
    doubling = GroupMap(c4, c4, [0, 2, 0, 2])
    assert nilpotency_index(doubling) == 2
    with pytest.raises(StructuralError):
        nilpotency_index(zero_map(c4, _g("C2")))


def test_totally_incompatible_examples():
    ok, length, w = is_totally_incompatible(_g("C2"), _g("C4"))
    assert (ok, length, w) == (True, 1, None)
    ok, length, w = is_totally_incompatible(_g("C2"), _g("C3"))
    assert (ok, length, w) == (True, 1, None)
    ok, length, w = is_totally_incompatible(_g("C4"), _g("C8"))
    assert (ok, length) == (True, 2)
    for spec in ("C2", "C4", "S3"):
        g = _g(spec)
        ok, length, w = is_totally_incompatible(g, g)
        assert not ok and length is None
        assert w.kind == "not_totally"
        assert w.element != g.identity


def test_length_n_predicate():
    assert is_centrally_totally_incompatible_of_length(_g("S3"), _g("C12"), 1)
    assert is_centrally_totally_incompatible_of_length(_g("Q8"), _g("C6"), 1)
    assert is_centrally_totally_incompatible_of_length(_g("C2"), _g("C4"), 1)
    assert not is_centrally_totally_incompatible_of_length(_g("C2"), _g("C2"), 1)
    assert not is_centrally_totally_incompatible_of_length(_g("C2"), _g("C2"), 5)
    assert not is_centrally_totally_incompatible_of_length(_g("C4"), _g("C8"), 1)
    assert is_centrally_totally_incompatible_of_length(_g("C4"), _g("C8"), 2)
    with pytest.raises(StructuralError):
        is_centrally_totally_incompatible_of_length(_g("C2"), _g("C4"), 0)


def test_a_subgroup_check_examples():
    ok, w = a_subgroup_check(_g("C2"), _g("C4"))
    assert ok and w is None
    ok, w = a_subgroup_check(_g("S3"), _g("C4"))
    assert ok and w is None
    ok, w = a_subgroup_check(_g("C2"), _g("C2"))
    assert not ok
    # the witness is 1 + xi.mu = identity + identity, the zero map on C2
    assert w.values == (0, 0)
    # the witness is on the h side; some 1 + mu.xi on the k side fails too
    h, k = _g("C2 x C4"), _g("C2")
    ok, w = a_subgroup_check(h, k)
    assert not ok and w.domain is h and not is_bijective(w)
    with pytest.raises(ResourceLimitError):
        a_subgroup_check(_g("C12"), _g("C12"))


# Catalog groups and small products: their ordered pairs with |H||K| <= 1152.
LEMMA_SPECS = CATALOG + (
    "C2 x C2", "C2 x C4", "C2 x S3", "C2 x D8", "Q8 x C2", "S4", "C2 x S4", "D8 x D8",
)


def _first_failing_sum(a, b, sign):
    """The first x -> x * xi.mu(x)^sign on a that is not onto, or None when none.

    xi runs over Hom(b, Z(a)) and mu over Hom(a, Z(b)), both sorted, xi
    outermost.  Each distinct composite xi.mu is tested at its first pair,
    the product taken as if the images commute, as they do: xi.mu is central.
    """
    xis = enumerate_homs(b, a, restrict_codomain=a.center())
    mus = enumerate_homs(a, b, restrict_codomain=b.center())
    seen = set()
    for xi in xis:
        for mu in mus:
            phi = tuple(xi.values[y] for y in mu.values)
            if phi in seen:
                continue
            seen.add(phi)
            powers = phi if sign > 0 else [a.inverse[y] for y in phi]
            values = tuple(a.mul(x, y) for x, y in enumerate(powers))
            if len(set(values)) != a.order:
                return values
    return None


def test_a_subgroup_check_needs_neither_the_k_side_nor_the_minus_sign():
    # Lemma 1: 1 + xi.mu is bijective on h iff 1 + mu.xi is on k, so
    # a_subgroup_check tests the h side only; both sides are checked here.
    # Lemma 2: xi -> xi^-1 permutes Hom(k, Z(h)), so "every 1 - xi.mu is
    # bijective" (A inside Aut) is the same test.  The witness is the first
    # failing 1 + xi.mu in (xi, mu) order, found here by composing each pair.
    seen = set()
    for a in LEMMA_SPECS:
        for b in LEMMA_SPECS:
            h, k = _g(a), _g(b)
            if h.order * k.order > 1152:
                continue
            ok, w = a_subgroup_check(h, k, 1152)
            first = _first_failing_sum(h, k, 1)
            assert (None if w is None else w.values) == first, (a, b)
            assert ok == (first is None), (a, b)
            assert ok == (_first_failing_sum(k, h, 1) is None), (a, b)
            assert ok == (_first_failing_sum(h, k, -1) is None), (a, b)
            seen.add(ok)
    assert seen == {True, False}


def test_classify_stem_pair():
    report = classify_pair("S3", "C4")
    assert report.incompatible and report.centrally_incompatible
    assert report.totally_incompatible and report.total_length == 1
    assert report.common_factor is None
    assert report.a_is_subgroup and report.a_equals_aut
    assert report.witnesses == ()
    assert not report.incomplete


def test_classify_shared_factor_pair():
    report = classify_pair("C2", "C2")
    assert not report.incompatible
    assert not report.centrally_incompatible
    assert not report.totally_incompatible
    assert report.total_length is None
    assert report.common_factor is not None
    assert report.common_factor.h_factor.order == 2
    assert report.a_is_subgroup is False
    assert report.a_equals_aut is False
    assert len(report.witnesses) == 3


def test_classify_coprime_cyclic_pair():
    report = classify_pair("C3", "C4")
    assert report.totally_incompatible and report.total_length == 1
    assert report.a_is_subgroup and report.a_equals_aut


def test_classify_handles_group_arguments_and_json():
    report = classify_pair(_g("Q8"), _g("C2"))
    assert report.h_spec == "Q8" and report.k_spec == "C2"
    assert report.totally_incompatible and report.total_length == 1
    payload = json.dumps(report.as_dict())
    again = json.loads(payload)
    assert again["a_equals_aut"] is True
    report = classify_pair("C2 x C4", "C4")
    assert report.common_factor is not None
    assert json.loads(json.dumps(report.as_dict()))["common_factor"]["factor_order"] == 4


def test_classify_degrades_over_resource_bound():
    partial = classify_pair("C12", "C12")
    assert partial.incomplete
    assert partial.a_is_subgroup is None and partial.a_equals_aut is None
    assert not partial.incompatible  # the predicate side still ran
    full = classify_pair("C12", "C12", max_product_order=144)
    assert not full.incomplete
    assert full.a_is_subgroup is False and full.a_equals_aut is False


def test_classify_cross_checks_all_small_pairs():
    for a, b in combinations_with_replacement(SMALL_SPECS, 2):
        report = classify_pair(a, b)  # raises StructuralError on any violation
        assert report.incompatible == (report.common_factor is None)
        if report.totally_incompatible:
            assert report.total_length >= 1


# SHA-256 of the JSON text below, taken when Aut(H x K) was still built by
# one search per candidate image.  The reports hold no Aut-vs-A witness, so
# a change in how automorphisms are found must leave this digest unchanged.
CATALOG_CLASSIFY_DIGEST = "5204767625cdf74cc9171ada31dd08ef30f6e51e428f2c20f5e8a708f73986e5"


def test_classify_json_of_every_catalog_pair_is_pinned():
    reports = [
        classify_pair(a, b, max_product_order=144).as_dict()
        for a, b in combinations_with_replacement(CATALOG, 2)
    ]
    text = json.dumps(reports, sort_keys=True)
    assert len(reports) == 55
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_CLASSIFY_DIGEST


def test_classify_reads_the_verdict_without_witnesses_or_needless_products(monkeypatch):
    calls = {"product": 0, "decompose": 0, "comparison": 0}

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ProductGroup, "of", staticmethod(counting("product", ProductGroup.of)))
    monkeypatch.setattr(
        matrices, "direct_product", counting("product", matrices.direct_product)
    )
    monkeypatch.setattr(pairs, "direct_product", counting("product", pairs.direct_product))
    for module in (autcompare, matrices):
        monkeypatch.setattr(module, "decompose", counting("decompose", module.decompose))
    # compare_aut_vs_A and compare_autc_vs_Z both run through this routine.
    monkeypatch.setattr(
        autcompare,
        "_counted_comparison",
        counting("comparison", autcompare._counted_comparison),
    )
    # A is not inside Aut(C12 x C12): decided before H x K is built.
    report = classify_pair("C12", "C12", max_product_order=144)
    assert report.a_equals_aut is False
    assert calls == {"product": 0, "decompose": 0, "comparison": 0}
    # A is inside Aut: the product is built for its order, no witness for Aut = A.
    for a, b, equal in (("S3", "C4", True), ("S3", "S3", False)):
        assert classify_pair(a, b).a_equals_aut is equal
        assert calls["decompose"] == 0 and calls["comparison"] == 0, (a, b)
    assert calls["product"] > 0


def test_report_consistency_guards():
    with pytest.raises(StructuralError):
        PairReport(
            h_spec="C2", k_spec="C2",
            incompatible=False, centrally_incompatible=True,
            totally_incompatible=True, total_length=1,
            common_factor=None, a_is_subgroup=None, a_equals_aut=None,
        )
    with pytest.raises(StructuralError):
        PairReport(
            h_spec="C2", k_spec="C2",
            incompatible=True, centrally_incompatible=False,
            totally_incompatible=False, total_length=None,
            common_factor=None, a_is_subgroup=None, a_equals_aut=None,
        )


def test_classify_pair_forms_no_composite_but_the_witness(monkeypatch):
    composed = []

    def counted(f, g):
        composed.append(compose(f, g))
        return composed[-1]

    monkeypatch.setattr(pairs, "compose", counted)
    for hs, ks, closed in (("C4", "C2", True), ("Q8", "C2", True), ("C4", "C4", False)):
        # Fresh copies, so no hom listing is kept on them from an earlier test.
        h = FiniteGroup(_g(hs).table, name=f"h = {hs}")
        k = FiniteGroup(_g(ks).table, name=f"k = {ks}")
        composed.clear()
        assert classify_pair(h, k, max_product_order=64).a_is_subgroup is closed
        # A closed: no composite; not closed: only the witness's xi.mu.
        assert len(composed) == (0 if closed else 1), (hs, ks)
        if not closed:
            _, w = a_subgroup_check(h, k, 64)
            assert w.values == pointwise_sum(identity_map(h), composed[0]).values


def test_each_view_lists_only_the_hom_sets_of_its_family(monkeypatch):
    listed = []

    def recording(domain, codomain, restrict_codomain=None):
        assert restrict_codomain in (None, codomain.center())
        listed.append(restrict_codomain is not None)
        return enumerate_homs(domain, codomain, restrict_codomain)

    monkeypatch.setattr(pairs, "enumerate_homs", recording)
    h, k = _g("D8"), _g("C4 x C2")
    views = {
        False: (
            lambda: is_incompatible(h, k),
            lambda: is_totally_incompatible(h, k),
        ),
        True: (
            lambda: is_centrally_incompatible(h, k),
            lambda: is_incompatible(h, k, central=True),
            lambda: is_totally_incompatible(h, k, central=True),
            lambda: is_centrally_totally_incompatible_of_length(h, k, 2),
        ),
    }
    for central, calls in views.items():
        for call in calls:
            listed.clear()
            call()
            # Hom(k, h), then Hom(h, k); center-restricted exactly for the central views.
            assert listed == [central, central]
    listed.clear()
    classify_pair(h, k, max_product_order=1)
    assert listed == [False, False, True, True]
