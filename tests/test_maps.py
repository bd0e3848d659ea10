"""Map algebra, homomorphism enumeration, and normality machinery."""
import itertools
import time
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    CATALOG,
    FiniteGroup,
    GroupMap,
    InversionError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
    Subgroup,
    aut_order,
    build_group,
    central_aut_group,
    compose,
    direct_product,
    enumerate_autos,
    enumerate_endos,
    enumerate_homs,
    fitting_decomposition,
    identity_map,
    invert,
    is_bijective,
    is_central_automorphism,
    is_normal_endo,
    map_from_dict,
    negate,
    pointwise_diff,
    pointwise_sum,
    power_map,
    zero_map,
)
from groupdet import groups, maps
from groupdet.maps import (
    AUT_LIST_LIMIT,
    _aut_chain,
    _candidate_images,
    _chain_listing,
    _first_isomorphism,
    _prefix_layers,
)

HOM_COUNTS = {
    ("C4", "C2"): 2,
    ("S3", "C4"): 2,
    ("C3", "C4"): 1,
    ("C2", "C4"): 2,
    ("Q8", "D8"): 28,
    ("D8", "Q8"): 4,
}

END_COUNTS = {"C2": 2, "C4": 4, "S3": 10, "Q8": 28, "D8": 36}
AUT_COUNTS = {"C4": 2, "S3": 6, "Q8": 24, "D8": 8, "E2^2": 6, "C12": 4}

SMALL_SPECS = ("C2", "C3", "C4", "C5", "C6", "C8", "S3", "D8", "Q8")


def _fresh(spec):
    """A new group with the table of ``spec``, so nothing is kept on it or on its products."""
    return FiniteGroup(build_group(spec).table, name=spec)


def _power(g, x, k):
    """x^k (k >= 1) by repeated multiplication."""
    acc = x
    for _ in range(k - 1):
        acc = g.mul(acc, x)
    return acc


def _is_normal(g, elems):
    """Closed under conjugation by every element of g."""
    es = set(elems)
    return all(g.mul(g.mul(g.inverse[a], x), a) in es for x in elems for a in range(g.order))


def test_compose_examples():
    c4, c2, c3 = build_group("C4"), build_group("C2"), build_group("C3")
    f = enumerate_homs(c4, c2)[-1]  # the surjection
    assert f.values != (0, 0, 0, 0)
    doubling = GroupMap(c4, c4, [_power(c4, x, 2) for x in range(4)])
    assert compose(f, doubling).values == (0, 0, 0, 0)
    g = identity_map(c4)
    assert compose(g, doubling).values == doubling.values
    inv3 = GroupMap(c3, c3, [c3.inv(x) for x in range(3)])
    assert compose(inv3, inv3).values == identity_map(c3).values


def test_compose_requires_matching_groups():
    with pytest.raises(StructuralError):
        compose(identity_map(build_group("C2")), identity_map(build_group("C3")))


def test_pointwise_sum_examples():
    c4 = build_group("C4")
    ident = identity_map(c4)
    zero = zero_map(c4, c4)
    assert pointwise_sum(ident, zero).values == ident.values
    doubling = pointwise_sum(ident, ident)
    assert doubling.values == tuple(_power(c4, x, 2) for x in range(4))


def test_pointwise_diff_examples():
    c3 = build_group("C3")
    ident = identity_map(c3)
    doubling = GroupMap(c3, c3, [_power(c3, x, 2) for x in range(3)])
    assert pointwise_diff(ident, ident).values == (c3.identity,) * 3
    assert pointwise_diff(doubling, ident).values == ident.values
    assert pointwise_diff(ident, zero_map(c3, c3)).values == ident.values


def test_negate_is_pointwise_inverse():
    s3 = build_group("S3")
    f = enumerate_endos(s3)[-1]
    assert negate(f).values == tuple(s3.inv(v) for v in f.values)


def test_is_homomorphism_examples():
    c3 = build_group("C3")
    assert identity_map(c3).is_homomorphism()
    swap = GroupMap(c3, c3, [0, 2, 1])  # fixes identity, swaps the two 3-cycles
    assert swap.is_homomorphism()  # inversion on C3 actually is one
    c4 = build_group("C4")
    bad = GroupMap(c4, c4, [0, 2, 1, 3])
    assert not bad.is_homomorphism()
    assert bad.hom_flag is False  # cached after the check


def test_public_constructor_validates_values():
    # derived maps skip these checks, so the public entry points must keep them
    c4, c2 = build_group("C4"), build_group("C2")
    for values in ([0, 0, 0], [0, 0, 0, 0, 0], []):
        with pytest.raises(StructuralError):
            GroupMap(c4, c2, values)
        with pytest.raises(StructuralError):
            map_from_dict({"domain": "C4", "codomain": "C2", "values": values})
    for values in ([0, 1, 0, 2], [0, -1, 0, 1]):
        with pytest.raises(StructuralError):
            GroupMap(c4, c2, values)
        with pytest.raises(StructuralError):
            map_from_dict({"domain": "C4", "codomain": "C2", "values": values})
    assert GroupMap(c4, c2, [0, 1, 0, 1]).values == (0, 1, 0, 1)
    # Exact integers only: no rounding, parsing or bools, here or for subgroups.
    for values in ([0, 1.9], ["0", "1"], [0, True], [0.0, 1.0]):
        with pytest.raises(StructuralError, match="integers"):
            GroupMap(c2, c2, values)
    for elements in ([0.5, 1.2], ["0"], [False], [0, 1.0]):
        with pytest.raises(StructuralError, match="integers"):
            Subgroup(c2, elements)
    for elements in ([0, 2], [0, -1]):
        with pytest.raises(StructuralError, match="outside"):
            Subgroup(c2, elements)
    # numpy integers are exact, so they pass and come out as Python ints.
    f = GroupMap(c2, c2, np.array([0, 1]))
    assert f.values == (0, 1) and {type(v) for v in f.values} == {int}
    assert Subgroup(c2, np.array([1, 0])).elements == (0, 1)


def test_public_constructor_checks_a_hom_claim():
    # A false claim used to be stored as given: EndoMatrix accepted the first
    # map below, and decompose split the second into a matrix recomposing to 0.
    c3, c2 = build_group("C3"), build_group("C2")
    p = direct_product(c3, c2)
    for dom, values in ((c3, [0, 0, 1]), (p, [0, 0, 0, 0, 0, 1])):
        with pytest.raises(StructuralError, match="hom=True"):
            GroupMap(dom, dom, values, hom=True)
        assert GroupMap(dom, dom, values, hom=False).hom_flag is False
    with pytest.raises(StructuralError, match="hom=False"):
        GroupMap(c3, c3, [0, 2, 1], hom=False)
    assert GroupMap(c3, c3, [0, 2, 1], hom=True).hom_flag is True


def test_identity_and_zero_maps_skip_the_validating_constructor(monkeypatch):
    calls = []
    init = GroupMap.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupMap, "__init__", counting_init)
    s3, c4 = build_group("S3"), build_group("C4")
    assert identity_map(s3).values == tuple(range(6)) and identity_map(s3).hom_flag
    assert zero_map(s3, c4).values == (0,) * 6 and zero_map(s3, c4).hom_flag
    assert calls == []
    GroupMap(s3, s3, range(6))
    assert calls == [1]


def test_trivial_group_maps():
    c1 = build_group("C1")
    assert c1.order == 1 and c1.generators() == ()
    assert aut_order(c1) == 1
    assert [f.values for f in enumerate_autos(c1)] == [(0,)]
    assert [f.values for f in enumerate_homs(c1, build_group("S3"))] == [(0,)]
    assert invert(identity_map(c1)) == identity_map(c1)
    # a one-entry value tuple: itemgetter of one key would return an item
    assert groups._composer((0,))((7,)) == (7,)


def test_enumerate_homs_counts():
    for (hs, ks), n in HOM_COUNTS.items():
        homs = enumerate_homs(build_group(hs), build_group(ks))
        assert len(homs) == n, (hs, ks)
        values = {m.values for m in homs}
        assert len(values) == n  # pairwise distinct
        for m in homs:
            assert m.is_homomorphism()


def test_enumerate_homs_restricted_to_center():
    s3, q8 = build_group("S3"), build_group("Q8")
    into_center = enumerate_homs(s3, q8, restrict_codomain=q8.center())
    assert len(into_center) == 2  # trivial + sign onto the central C2
    center = set(q8.center().elements)
    for m in into_center:
        assert set(m.values) <= center


def test_end_and_aut_counts():
    for spec, n in END_COUNTS.items():
        assert len(enumerate_endos(build_group(spec))) == n, spec
    for spec, n in AUT_COUNTS.items():
        assert len(enumerate_autos(build_group(spec))) == n, spec
        assert aut_order(build_group(spec)) == n, spec


def test_homset_sorted_canonically():
    members = enumerate_endos(build_group("S3"))
    assert [m.values for m in members] == sorted(m.values for m in members)


def _naive_hom_count(h, k):
    """Count product-preserving value tables directly, identity pinned."""
    n, m = h.order, k.order
    td = np.array(h.table)
    tc = np.array(k.table)
    rest = [x for x in range(n) if x != h.identity]
    total = m ** len(rest)
    count = 0
    chunk = 250_000
    for start in range(0, total, chunk):
        block = np.arange(start, min(start + chunk, total))
        vals = np.empty((len(block), n), dtype=np.int64)
        vals[:, h.identity] = k.identity
        q = block.copy()
        for pos in rest:
            vals[:, pos] = q % m
            q //= m
        ok = np.ones(len(block), dtype=bool)
        for a in range(n):
            for b in range(n):
                ok &= vals[:, td[a][b]] == tc[vals[:, a], vals[:, b]]
            if not ok.any():
                break
        count += int(ok.sum())
    return count


def test_enumerate_homs_matches_naive_oracle_up_to_order_8():
    groups = [build_group(s) for s in SMALL_SPECS]
    for h in groups:
        for k in groups:
            expected = _naive_hom_count(h, k)
            got = len(enumerate_homs(h, k))
            assert got == expected, (h.name, k.name, got, expected)


def _generator_image_oracle(g, bijective_only):
    """Sorted value tuples of every endomorphism (or automorphism) of g.

    Tries every tuple of generator images, extends it along a breadth-first
    word for each element and keeps it when it passes the full n^2 product
    check against the raw table; no prefix layers and no pruning.
    """
    n, t, gens = g.order, g.table, g.generators()
    words = []  # (x, prev, i) with x = prev * gens[i], prev reached earlier
    reached = [g.identity]
    for prev in reached:
        for i, s in enumerate(gens):
            x = t[prev][s]
            if x not in reached:
                reached.append(x)
                words.append((x, prev, i))
    assert len(reached) == n
    found = []
    for images in itertools.product(range(n), repeat=len(gens)):
        values = [g.identity] * n
        for x, prev, i in words:
            values[x] = t[values[prev]][images[i]]
        if bijective_only and len(set(values)) != n:
            continue
        if all(values[t[a][b]] == t[values[a]][values[b]] for a in range(n) for b in range(n)):
            found.append(tuple(values))
    return sorted(found)


@pytest.mark.parametrize(
    "spec", ["C2xC2", "C2xC4", "S3xC2", "C2xC2xC3", "C4xC6", "Q8 x C2", "D8 x C2"]
)
def test_enumeration_matches_generator_image_oracle(spec):
    g = build_group(spec)
    assert [m.values for m in enumerate_autos(g)] == _generator_image_oracle(g, True)
    assert [m.values for m in enumerate_endos(g)] == _generator_image_oracle(g, False)


# Closed forms: |GL(4, 2)|, |GL(3, 3)|, |GL(2, Z/12)| = |GL(2, Z/4)| * |GL(2, Z/3)|
# = 96 * 48, and |GL(2, Z/8)| = 8^4 * (1 - 1/2) * (1 - 1/4).
@pytest.mark.parametrize(
    "spec, count",
    [("E2^4", 20160), ("E3^3", 11232), ("C12 x C12", 4608), ("C8 x C8", 1536)],
)
def test_automorphism_counts_match_closed_forms(spec, count):
    g = build_group(spec)
    assert aut_order(g) == count
    autos = enumerate_autos(g)
    assert len(autos) == count
    assert len({f.values for f in autos}) == count
    for f in autos:
        fresh = GroupMap(g, g, f.values)
        assert fresh.is_homomorphism() and is_bijective(fresh)


def test_aut_order_counts_without_listing():
    g = build_group("E2^6")
    t0 = time.perf_counter()
    assert aut_order(g) == 20_158_709_760  # |GL(6, 2)|
    assert time.perf_counter() - t0 < 1.0
    # A fresh group small enough to list: counting must not list it either.
    small = direct_product(_fresh("C2"), _fresh("C4"))
    assert aut_order(small) == 8
    for h in (g, small):
        assert (_chain_listing, False) not in h._cache  # the key enumerate_autos fills


def test_enumerate_autos_refuses_over_the_listing_bound():
    g = build_group("E2^5")
    assert aut_order(g) == 9_999_360  # |GL(5, 2)|
    with pytest.raises(ResourceLimitError):
        enumerate_autos(g)


def _count_searches(monkeypatch):
    """Count the generator-image searches started from now on: hom
    enumerations and isomorphism searches alike."""
    calls = []
    for name in ("_maps_from_generator_images", "_first_isomorphism"):
        def counted(*args, _search=getattr(maps, name), **kwargs):
            calls.append(args[0])
            return _search(*args, **kwargs)

        monkeypatch.setattr(maps, name, counted)
    return calls


def test_each_structure_is_computed_once_whichever_entry_point_asks_first(monkeypatch):
    calls = _count_searches(monkeypatch)
    for first, then in ((aut_order, enumerate_autos), (enumerate_autos, aut_order)):
        g = direct_product(_fresh("C2"), _fresh("C4"))  # nothing is kept on it yet
        first(g)
        searched = len(calls)
        assert searched > 0
        then(g)
        assert len(calls) == searched, (first.__name__, then.__name__)
    # The central chain too, and a restricted hom listing however it is asked for.
    g = direct_product(_fresh("C2"), _fresh("C4"))
    central_aut_group(g)
    searched = len(calls)
    assert _aut_chain(g, True) and len(calls) == searched
    h = direct_product(_fresh("C2"), _fresh("C2"))
    before = len(calls)
    homs = enumerate_homs(h, g, restrict_codomain=g.center())
    assert len(calls) == before + 1
    assert enumerate_homs(h, g, g.center()) is homs
    assert len(calls) == before + 1


def test_a_call_that_raises_stores_nothing():
    g = build_group("E2^5")  # 9,999,360 automorphisms, all of them central
    for listing in (enumerate_autos, central_aut_group):
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                listing(g)
    assert not any(key[0] is _chain_listing for key in g._cache)


def _per_candidate_chain(g, central):
    """Stabiliser-chain representatives with one search per candidate image.

    Levels run from the first generator to the last.  Level i tries every
    element c of the order of gens[i] (with c gens[i]^-1 central, for the
    central chain) and keeps the first automorphism, if any, that fixes
    gens[:i] and sends gens[i] to c.  No orbit is tracked and no class size
    is used.
    """
    gens, orders, t, inv = g.generators(), g.element_orders, g.table, g.inverse
    center = set(g.center().elements)
    pools = [
        [c for c in range(g.order) if orders[c] == orders[x]
         and (not central or t[c][inv[x]] in center)]
        for x in gens
    ]
    levels = []
    for i in range(len(gens)):
        pinned = [(x,) for x in gens[:i]]
        reps = []
        for c in pools[i]:
            found = _first_isomorphism(g, g, pinned + [(c,)] + pools[i + 1:])
            if found is not None:
                reps.append(found)
        levels.append(reps)
    return levels


def _chain_product_values(levels, n):
    """Sorted value tuples of the products r_0 r_1 ... r_{k-1}, one per level."""
    products = [tuple(range(n))]
    for reps in reversed(levels):
        products = [tuple(r[x] for x in p) for r in reps for p in products]
    return sorted(products)


CHAIN_SPECS = [f"{a} x {b}" for a, b in itertools.combinations_with_replacement(CATALOG, 2)]


@pytest.mark.parametrize("central", [False, True], ids=["full", "central"])
@pytest.mark.parametrize("spec", CHAIN_SPECS + ["Q8 x Q8 x C2"])
def test_orbit_chain_matches_per_candidate_chain(spec, central):
    g = build_group(spec)
    gens, t, inv = g.generators(), g.table, g.inverse
    center = set(g.center().elements)
    levels = _aut_chain(g, central)
    oracle = _per_candidate_chain(g, central)
    assert [len(reps) for reps in levels] == [len(reps) for reps in oracle]
    for i, reps in enumerate(levels):
        for r in reps:
            f = GroupMap(g, g, r)
            assert f.is_homomorphism() and is_bijective(f)
            assert all(r[x] == x for x in gens[:i])
            if central:
                assert all(t[r[x]][inv[x]] in center for x in range(g.order))
        assert len({r[gens[i]] for r in reps}) == len(reps)
    if prod(len(reps) for reps in oracle) <= AUT_LIST_LIMIT:
        listing = central_aut_group(g) if central else enumerate_autos(g)
        assert [f.values for f in listing] == _chain_product_values(oracle, g.order)


START_SPECS = [s for s in CHAIN_SPECS if build_group(s).order <= 64] + ["E2^4", "Q8 x Q8 x C2"]


@pytest.mark.parametrize("spec", START_SPECS)
def test_search_started_at_its_level_matches_the_pinned_pools(spec):
    """A chain search started at level i, with gens[:i] fixed, finds the same
    first completion (or none) as the search with those generators pinned
    to themselves by one-element pools."""
    g = build_group(spec)
    gens = g.generators()
    pools = _candidate_images(g, g, None, exact_order=True)
    for i in range(len(gens)):
        pinned = [(x,) for x in gens[:i]]
        for c in pools[i]:
            rest = [(c,)] + pools[i + 1:]
            started = _first_isomorphism(g, g, pools[:i] + rest, start=i)
            slow = _first_isomorphism(g, g, pinned + rest)
            assert started == slow, (i, c)


@pytest.mark.parametrize("central", [False, True], ids=["full", "central"])
@pytest.mark.parametrize("spec", START_SPECS)
def test_chain_bounds_change_no_first_completion(spec, central):
    """A node of level j extends to |O_j| completions or to none, so giving
    it up after |pool_j| - |O_j| + 1 failures (the chain's own bounds) finds
    the same first completion, or none, as the unbounded search."""
    g = build_group(spec)
    gens, t, inv = g.generators(), g.table, g.inverse
    center = g.center_set()
    pools = [[c for c in pool if not central or t[c][inv[x]] in center]
             for x, pool in zip(gens, _candidate_images(g, g, None, exact_order=True))]
    slack = [len(pool) - len(reps) for pool, reps in zip(pools, _aut_chain(g, central))]
    for i in range(len(gens)):
        for c in pools[i]:
            rest = pools[:i] + [(c,)] + pools[i + 1:]
            bounded = _first_isomorphism(g, g, rest, start=i, slack=slack)
            assert bounded == _first_isomorphism(g, g, rest, start=i), (i, c)


@pytest.mark.parametrize("spec", CHAIN_SPECS + ["E2^4", "Q8 x Q8 x C2"])
def test_prefix_layers_meet_each_product_once_after_its_ends(spec):
    g = build_group(spec)
    gens, levels = _prefix_layers(g)
    t = g.table
    assigned, met = {g.identity}, []
    for i, steps in enumerate(levels):
        for target, source, j, new in steps:
            assert j <= i and t[source][gens[j]] == target
            assert source in assigned
            assert (target in assigned) != new
            assigned.add(target)
            met.append((source, j))
        assert sorted(met) == sorted((x, j) for x in assigned for j in range(i + 1))
    assert len(assigned) == g.order


def test_is_bijective_examples():
    c4 = build_group("C4")
    assert is_bijective(identity_map(c4))
    assert not is_bijective(zero_map(c4, c4))
    assert not is_bijective(zero_map(build_group("C2"), c4))  # order mismatch


def test_invert_examples():
    c4 = build_group("C4")
    assert invert(identity_map(c4)).values == identity_map(c4).values
    triple = GroupMap(c4, c4, [_power(c4, x, 3) for x in range(4)])
    assert invert(triple).values == triple.values  # 3*3 = 9 = 1 mod 4
    with pytest.raises(InversionError):
        invert(zero_map(c4, c4))


def test_is_normal_endo():
    c12 = build_group("C12")
    for f in enumerate_endos(c12):
        assert is_normal_endo(f)  # abelian domain
    s3 = build_group("S3")
    assert is_normal_endo(identity_map(s3))
    onto_c2 = [f for f in enumerate_endos(s3)
               if len(f.image()) == 2]
    assert onto_c2 and all(not is_normal_endo(f) for f in onto_c2)
    with pytest.raises(StructuralError):
        is_normal_endo(zero_map(s3, c12))


def test_is_normal_endo_matches_conjugation_by_every_element():
    for spec in ("S3", "D8", "Q8", "S3 x C2", "D8 x C2"):
        g = build_group(spec)

        def conj(x, a):
            return g.mul(g.mul(g.inverse[a], x), a)

        verdicts = set()
        for f in enumerate_endos(g):
            v = f.values
            want = all(
                v[conj(x, a)] == conj(v[x], a)
                for x in range(g.order)
                for a in range(g.order)
            )
            assert is_normal_endo(f) == want, (spec, v)
            verdicts.add(want)
        assert verdicts == {True, False}, spec


def test_normal_endo_image_and_kernel_are_normal():
    from groupdet import Subgroup

    for spec in ("S3", "D8", "Q8", "C12"):
        g = build_group(spec)
        for f in enumerate_endos(g):
            if not is_normal_endo(f):
                continue
            image = Subgroup(g, f.image())
            kernel = Subgroup(g, [x for x in range(g.order) if f(x) == g.identity])
            assert _is_normal(g, image.elements), (spec, f.values)
            assert _is_normal(g, kernel.elements), (spec, f.values)


def test_power_map():
    c4 = build_group("C4")
    ident = identity_map(c4)
    assert power_map(ident, 3).values == ident.values
    doubling = pointwise_sum(ident, ident)
    assert power_map(doubling, 2).values == (0, 0, 0, 0)


def test_fitting_decomposition_examples():
    c12 = build_group("C12")
    ident = identity_map(c12)
    r, fz = fitting_decomposition(ident)
    assert r == 1 and fz.left.order == 12 and fz.right.order == 1
    r, fz = fitting_decomposition(zero_map(c12, c12))
    assert r == 1 and fz.left.order == 1 and fz.right.order == 12
    by4 = GroupMap(c12, c12, [_power(c12, x, 4) for x in range(12)])
    r, fz = fitting_decomposition(by4)
    assert fz.left.order == 3 and fz.right.order == 4
    image_orders = {c12.element_order(x) for x in fz.left.elements}
    assert image_orders == {1, 3}


def test_fitting_decomposition_rejects_non_normal():
    s3 = build_group("S3")
    onto_c2 = next(f for f in enumerate_endos(s3)
                   if len(f.image()) == 2)
    with pytest.raises(PreconditionError):
        fitting_decomposition(onto_c2)


def test_fitting_satisfies_factorization_invariants():
    for spec in ("C12", "Q8", "D8", "S3", "C2 x C4"):
        g = build_group(spec)
        for f in enumerate_endos(g):
            if not is_normal_endo(f):
                continue
            r, fz = fitting_decomposition(f)
            assert r >= 1
            assert fz.left.order * fz.right.order == g.order
            # DirectFactorization already validates normality, intersection,
            # and commutation in __post_init__; reaching here is the test.


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_near_ring_identities_into_abelian_codomains(data):
    domain = build_group(data.draw(st.sampled_from(("C4", "S3", "Q8", "C6"))))
    codomain = build_group(data.draw(st.sampled_from(("C2", "C4", "C6", "E2^2"))))
    elem = st.integers(min_value=0, max_value=codomain.order - 1)
    draw_map = lambda: GroupMap(
        domain, codomain, [data.draw(elem) for _ in range(domain.order)]
    )
    f, g, h = draw_map(), draw_map(), draw_map()
    left = pointwise_sum(pointwise_sum(f, g), h)
    right = pointwise_sum(f, pointwise_sum(g, h))
    assert left.values == right.values
    assert pointwise_sum(f, g).values == pointwise_sum(g, f).values


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_homomorphisms_distribute_over_pointwise_sum(data):
    domain = build_group(data.draw(st.sampled_from(("C4", "C6", "S3"))))
    mid = build_group(data.draw(st.sampled_from(("C2", "C4", "C6"))))
    codomain = build_group(data.draw(st.sampled_from(("C2", "C4", "C12"))))
    homs = enumerate_homs(mid, codomain)
    f = data.draw(st.sampled_from(homs))
    elem = st.integers(min_value=0, max_value=mid.order - 1)
    g = GroupMap(domain, mid, [data.draw(elem) for _ in range(domain.order)])
    h = GroupMap(domain, mid, [data.draw(elem) for _ in range(domain.order)])
    left = compose(f, pointwise_sum(g, h))
    right = pointwise_sum(compose(f, g), compose(f, h))
    assert left.values == right.values


def test_sums_check_commuting_and_public_operations_share_the_interned_maps(monkeypatch):
    from groupdet import (
        NoncommutingImagesError,
        det_h,
        enumerate_A,
        invert_via_det,
        is_invertible_via_det,
        matrix_multiply,
    )

    s3 = build_group("S3")
    ident = identity_map(s3)
    # identity + identity evaluates x*x, whose image elements commute with
    # themselves, so the checked sum is fine
    pointwise_sum(ident, ident)
    endos = enumerate_endos(s3)
    noncommuting = None
    for f in endos:
        for g in endos:
            values = [(f(x), g(x)) for x in range(s3.order)]
            if any(s3.mul(a, b) != s3.mul(b, a) for a, b in values):
                noncommuting = (f, g)
                break
        if noncommuting:
            break
    assert noncommuting is not None
    with pytest.raises(NoncommutingImagesError):
        pointwise_sum(*noncommuting)
    with pytest.raises(NoncommutingImagesError):
        pointwise_diff(*noncommuting)

    # on operands with equal values but new ids, a public operation returns
    # the very map the product or the elimination interned
    h, k = _fresh("D8"), _fresh("C4")
    m = next(
        m for m in enumerate_A((h, k))
        if m.entries[0][1] != zero_map(k, h) and m.entries[1][0] != zero_map(h, k)
        and is_invertible_via_det(m)
    )
    cell = matrix_multiply(m, m).entries[0][1]
    det = det_h(m)
    corner = invert_via_det(m).entries[0][1]
    (alpha, beta), (gamma, delta) = (
        [GroupMap(e.domain, e.codomain, e.values) for e in row] for row in m.entries
    )
    assert pointwise_sum(compose(alpha, beta), compose(beta, delta)) is cell
    w = invert(delta)
    assert pointwise_diff(alpha, compose(compose(beta, w), gamma)) is det
    assert negate(GroupMap(k, h, [h.inv(y) for y in corner.values])) is corner
    assert zero_map(k, h) is maps._intern_table(k, h)[(h.identity,) * k.order]

    # a repeated public call forms no map
    calls = [
        (compose, (alpha, beta)),
        (pointwise_sum, (alpha, alpha)),
        (pointwise_diff, (alpha, compose(compose(beta, w), gamma))),
        (negate, (gamma,)),
        (invert, (delta,)),
        (zero_map, (h, k)),
    ]
    first = [fn(*args) for fn, args in calls]
    formed = []
    monkeypatch.setattr(maps, "_interned", lambda *args: formed.append(args))
    assert all(fn(*args) is out for (fn, args), out in zip(calls, first))
    assert formed == []


def test_outside_operands_leave_no_memo_entries_of_their_own():
    """200,000 composites with new maps of the 10 endomorphisms of S3: each
    operand is read as the interned map of its values, so the left operand
    keeps at most one memo entry per endomorphism."""
    g = _fresh("S3")
    endos = [f.values for f in enumerate_endos(g)]
    assert len(endos) == 10
    f = enumerate_autos(g)[-1]
    for i in range(200_000):
        compose(f, GroupMap(g, g, endos[i % 10]))
    assert len(f._composites) <= 10


def _inverse_values(values):
    out = [0] * len(values)
    for x, y in enumerate(values):
        out[y] = x
    return tuple(out)


def test_a_known_hom_flag_is_recorded_on_a_map_interned_unflagged():
    """The inverse of a bijective homomorphism is marked as one even when a map
    of its values was interned first with its flag unknown: by a sum, or as
    the inverse of an unflagged copy; so is a listed automorphism, and a
    composite of homomorphisms.  Listed maps are interned, so each group is
    fresh and its values are interned unflagged before anything is listed."""
    for spec in ("S3", "C5"):
        v = next(f.values for f in enumerate_autos(_fresh(spec)) if f.values != _inverse_values(f.values))

        g = _fresh(spec)
        zero = zero_map(g, g)
        summed = pointwise_sum(GroupMap(g, g, v), zero)
        assert summed.hom_flag is None
        inverse = pointwise_sum(GroupMap(g, g, _inverse_values(v)), zero)
        assert inverse.hom_flag is None
        a = next(f for f in enumerate_autos(g) if f.values == v)
        assert a.hom_flag is True
        assert compose(a, identity_map(g)) is summed and summed.hom_flag is True
        assert invert(a) is inverse and inverse.hom_flag is True

        g = _fresh(spec)
        unflagged = invert(GroupMap(g, g, v))
        assert unflagged.hom_flag is None
        a = next(f for f in enumerate_autos(g) if f.values == v)
        assert invert(a) is unflagged and unflagged.hom_flag is True

        # a flag that only an outside operand knows reaches the interned map
        g = _fresh(spec)
        unflagged = invert(GroupMap(g, g, v))
        assert unflagged.hom_flag is None
        assert invert(GroupMap(g, g, v, hom=True)) is unflagged and unflagged.hom_flag is True

    # S3 onto the subgroup {1, t} of a reflection t, then an automorphism: a
    # composite whose values no listing of automorphisms meets
    g = _fresh("S3")
    a = next(f for f in enumerate_autos(g) if f.values != _inverse_values(f.values))
    t = next(x for x in range(g.order) if g.element_orders[x] == 2)
    onto = [t if g.element_orders[x] == 2 else g.identity for x in range(g.order)]
    summed = pointwise_sum(GroupMap(g, g, [a(y) for y in onto]), zero_map(g, g))
    assert summed.hom_flag is None
    assert compose(a, GroupMap(g, g, onto, hom=True)) is summed and summed.hom_flag is True


@pytest.mark.parametrize("k", [2.0, "3", True])
def test_power_map_takes_only_an_int_of_at_least_one(k):
    ident = identity_map(build_group("C4"))
    with pytest.raises(PreconditionError, match="power must be an int >= 1"):
        power_map(ident, k)
