"""Acceptance suite: one test per shipped claim, each with a pinned time budget.

Every test prints a single CRITERION line with the measured facts so a plain
``pytest -v -s`` run reads as a checklist.  All equality checks are exact;
the only tolerances are the wall-clock budgets asserted at the end of each
test.
"""
import itertools
import random
import time

from groupdet import (
    CATALOG,
    DeterminantUndefinedError,
    EndoMatrix,
    GroupMap,
    ProductGroup,
    build_group,
    common_nontrivial_factor,
    compare_aut_vs_A,
    compare_autc_vs_Z,
    compose,
    classify_pair,
    decompose,
    det_A,
    determinant_step_bound,
    detiff_check,
    enumerate_A,
    enumerate_autos,
    enumerate_endos,
    enumerate_homs,
    enumerate_m_matrices,
    identity_map,
    identity_matrix,
    in_A,
    invert,
    invert_via_det,
    is_bijective,
    is_invertible_via_det,
    is_normal_endo,
    matrix_multiply,
    naive_step_bound,
    q8_noncommuting_witness,
    recompose,
    run_bench,
    verify_stem_semidirect,
)

SEED = 20240815

_groups = {spec: build_group(spec) for spec in CATALOG}


def _pairs(max_product=None, max_factor=None):
    out = []
    for a, b in itertools.combinations_with_replacement(CATALOG, 2):
        h, k = _groups[a], _groups[b]
        if max_product is not None and h.order * k.order > max_product:
            continue
        if max_factor is not None and max(h.order, k.order) > max_factor:
            continue
        out.append((h, k))
    return out


def _valid_rows(h, k, i):
    """All commuting-image rows for row index i of a 2 x 2 matrix over (h, k)."""
    facs = (h, k)
    target = facs[i]
    t = target.table
    pools = [enumerate_homs(facs[j], target) for j in range(2)]
    rows = []
    for fa, fb in itertools.product(*pools):
        if all(t[x][y] == t[y][x] for x in fa.image() for y in fb.image()):
            rows.append((fa, fb))
    return rows


def test_criterion_01_endomorphisms_are_matrices():
    t0 = time.perf_counter()
    n_pairs = n_products = 0
    for h, k in _pairs(max_product=16):
        pg = ProductGroup.of(h, k)
        mats = enumerate_m_matrices((h, k))
        endos = enumerate_endos(pg.product)
        assert len(mats) == len(endos)
        vals = [recompose(m, pg).values for m in mats]
        key_of = {v: m.key() for v, m in zip(vals, mats)}
        assert len(key_of) == len(mats)
        for phi in endos:
            assert phi.values in key_of
            assert decompose(phi, pg).key() == key_of[phi.values]
        for av, ma in zip(vals, mats):
            for bv, mb in zip(vals, mats):
                assert matrix_multiply(ma, mb).key() == key_of[tuple(av[x] for x in bv)]
                n_products += 1
        n_pairs += 1
    assert n_pairs == 13

    rng = random.Random(SEED)
    n_sampled = 0
    for h, k in _pairs(max_product=64):
        if h.order * k.order <= 16:
            continue
        pg = ProductGroup.of(h, k)
        rows0 = _valid_rows(h, k, 0)
        rows1 = _valid_rows(h, k, 1)
        sample = []
        for _ in range(500):
            m = EndoMatrix((h, k), (rng.choice(rows0), rng.choice(rows1)))
            phi = recompose(m, pg)
            assert decompose(phi, pg).key() == m.key()
            sample.append((m, phi))
        for m, phi in sample[:10]:
            fresh = GroupMap(pg.product, pg.product, phi.values)
            assert fresh.is_homomorphism()
        for (ma, pa), (mb, pb) in zip(sample[0::2], sample[1::2]):
            assert matrix_multiply(ma, mb).key() == decompose(compose(pa, pb), pg).key()
        n_sampled += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"CRITERION 1 PASS: {n_pairs} exhaustive pairs ({n_products} products), "
        f"{n_sampled} sampled pairs x 500 ({elapsed:.1f}s < 60s)"
    )


def test_criterion_02_determinant_verdict_matches_oracle():
    t0 = time.perf_counter()
    n_checked = 0
    for h, k in _pairs(max_factor=8):
        pg = ProductGroup.of(h, k)
        for m in enumerate_m_matrices((h, k)):
            if not (is_bijective(m.entries[0][0]) or is_bijective(m.entries[1][1])):
                continue
            assert is_invertible_via_det(m) == is_bijective(recompose(m, pg))
            n_checked += 1
    assert n_checked == 136584
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"CRITERION 2 PASS: {n_checked} matrices with a bijective diagonal entry "
        f"agree with the oracle ({elapsed:.1f}s < 120s)"
    )


def test_criterion_03_formula_inverses():
    t0 = time.perf_counter()
    cases = (("S3", "C4"), ("C2", "C4"), ("Q8", "C2"), ("C2", "C2", "C3"))
    expected_autos = {cases[0]: 24, cases[1]: 8, cases[2]: 192, cases[3]: 12}
    n_inverted = 0
    for specs in cases:
        facs = tuple(build_group(s) for s in specs)
        pg = ProductGroup.of(*facs)
        ident = identity_matrix(pg.factors).key()
        autos = enumerate_autos(pg.product)
        assert len(autos) == expected_autos[specs]
        dead = 0
        for phi in autos:
            m = decompose(phi, pg)
            try:
                w = invert_via_det(m)
            except DeterminantUndefinedError:
                # no elimination order has bijective pivots; the map itself
                # is still invertible, just not through the formula
                dead += 1
                assert is_bijective(phi)
                continue
            n_inverted += 1
            assert matrix_multiply(m, w).key() == ident
            assert matrix_multiply(w, m).key() == ident
            assert recompose(w, pg).values == invert(phi).values
            if in_A(m):
                assert in_A(w)
                assert det_A(w).values == invert(m.entries[0][0]).values
        assert dead == (2 if len(specs) == 3 else 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"CRITERION 3 PASS: {n_inverted} formula inverses verified both ways, "
        f"2 route-free swap maps on the 3-factor product ({elapsed:.2f}s < 30s)"
    )


def test_criterion_04_determinant_branches_agree():
    t0 = time.perf_counter()
    n_members = n_invertible = 0
    for h, k in _pairs(max_factor=8):
        for m in enumerate_A((h, k), max_product_order=64):
            rep = detiff_check(m)
            assert rep.deth_invertible == rep.detk_invertible
            if rep.deth_invertible:
                n_invertible += 1
                assert rep.reciprocal_identities_hold
            n_members += 1
    assert n_members == 18346
    assert n_invertible == 17931
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"CRITERION 4 PASS: {n_members} A-members, both determinants invertible "
        f"together ({n_invertible} cases) with reciprocal identities "
        f"({elapsed:.1f}s < 60s)"
    )


def test_criterion_05_inverse_relations_and_normality():
    t0 = time.perf_counter()
    n_autos = 0
    pairs = _pairs(max_product=24)
    for h, k in pairs:
        pg = ProductGroup.of(h, k)
        ident = identity_matrix(pg.factors).key()
        for phi in enumerate_autos(pg.product):
            m = decompose(phi, pg)
            w = decompose(invert(phi), pg)
            # the two matrix products pin all eight component relations
            assert matrix_multiply(m, w).key() == ident
            assert matrix_multiply(w, m).key() == ident
            (_, be), (ga, _) = m.entries
            (_, bep), (gap, _) = w.entries
            assert is_normal_endo(compose(be, gap))
            assert is_normal_endo(compose(bep, ga))
            assert is_normal_endo(compose(ga, bep))
            assert is_normal_endo(compose(gap, be))
            n_autos += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"CRITERION 5 PASS: eight relations and four normal cross products for "
        f"{n_autos} automorphisms over {len(pairs)} pairs ({elapsed:.2f}s < 60s)"
    )


def test_criterion_06_pair_equivalences():
    t0 = time.perf_counter()
    pairs = _pairs()
    for h, k in pairs:
        rep = classify_pair(h, k, max_product_order=144)
        assert not rep.incomplete
        central_common = common_nontrivial_factor(h, k, central_only=True)
        assert rep.incompatible == (rep.common_factor is None)
        assert rep.centrally_incompatible == (central_common is None)
        assert rep.a_is_subgroup == rep.centrally_incompatible
        assert rep.a_equals_aut == rep.incompatible
        if rep.totally_incompatible:
            assert rep.incompatible and rep.a_equals_aut
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"CRITERION 6 PASS: all {len(pairs)} catalog pairs satisfy the five "
        f"equivalences with complete reports ({elapsed:.1f}s < 300s)"
    )


def test_criterion_07_stem_pair_structure():
    t0 = time.perf_counter()
    cmp = compare_aut_vs_A(_groups["S3"], _groups["C4"])
    assert cmp.aut_order == 24 and cmp.a_order == 24
    assert cmp.equal
    assert cmp.violating_matrices == ((), ())

    ok, rep = verify_stem_semidirect(_groups["S3"], _groups["Q8"])
    assert ok and rep.verified
    assert (rep.group_order, rep.diagonal_order, rep.normal_order) == (288, 144, 2)

    u, l, ul, lu = q8_noncommuting_witness()
    assert in_A(u) and in_A(l)
    assert ul.key() != lu.key()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "CRITERION 7 PASS: Aut = A of order 24 on (S3, C4), semidirect structure "
        f"288 = 144 x 2 on (S3, Q8), non-commuting witness ({elapsed:.2f}s < 30s)"
    )


def test_criterion_08_central_automorphisms():
    t0 = time.perf_counter()
    cmp = compare_autc_vs_Z(_groups["S3"], _groups["C4"])
    assert cmp.aut_order == 4 and cmp.a_order == 4
    assert cmp.equal
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"CRITERION 8 PASS: central automorphisms of S3 x C4 equal Z, order 4 "
        f"({elapsed:.2f}s < 10s)"
    )


def test_criterion_09_step_counts():
    t0 = time.perf_counter()
    table = (
        (("C3", "C4"), 7, 66),
        (("S3", "C4"), 19, 276),
    )
    for (a, b), det_steps, naive_steps in table:
        h, k = _groups[a], _groups[b]
        assert determinant_step_bound(h, k, branch="h") == det_steps
        assert naive_step_bound(h, k) == naive_steps
        records = run_bench(h, k, trials=1000, seed=SEED)
        assert len(records) == 2000
        naive = records[0::2]
        det = records[1::2]
        assert {r.method for r in naive} == {"naive"}
        assert {r.method for r in det} == {"determinant"}
        for rn, rd in zip(naive, det):
            assert rn.verdict == rd.verdict
        # every A-member of these pairs is invertible, so the counters
        # always do the full certification work
        assert {r.verdict for r in records} == {True}
        assert {r.steps_headline for r in naive} == {naive_steps}
        assert {r.steps_headline for r in det} == {det_steps}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "CRITERION 9 PASS: headline counters 7 vs 66 and 19 vs 276, verdicts "
        f"agree on 1000 samples per pair ({elapsed:.1f}s < 30s)"
    )


def test_criterion_10_three_factor_sampling():
    t0 = time.perf_counter()
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    pg = ProductGroup.of(*facs)
    mats = enumerate_m_matrices(facs)
    assert len(mats) == 48
    rng = random.Random(SEED)
    admissible = draws = 0
    while admissible < 1000:
        draws += 1
        assert draws < 20000
        m = mats[rng.randrange(len(mats))]
        try:
            verdict = is_invertible_via_det(m)
        except DeterminantUndefinedError:
            continue
        admissible += 1
        assert verdict == is_bijective(recompose(m, pg))
    assert det_A(identity_matrix(facs)).values == identity_map(facs[0]).values
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"CRITERION 10 PASS: {admissible} admissible draws ({draws} total) agree "
        f"with the oracle, identity determinant is the identity "
        f"({elapsed:.1f}s < 60s)"
    )
