"""Determinants, invertibility decisions, and the closed-form inverses."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import (
    CATALOG,
    DeterminantUndefinedError,
    EndoMatrix,
    FiniteGroup,
    GroupMap,
    InversionError,
    NoncommutingImagesError,
    PreconditionError,
    ProductGroup,
    branch_determinant,
    build_group,
    catalog_groups,
    central_aut_group,
    compose,
    decompose,
    det_A,
    det_h,
    det_k,
    detiff_check,
    enumerate_A,
    enumerate_aut_matrices,
    enumerate_autos,
    enumerate_homs,
    enumerate_m_matrices,
    f_determinant,
    identity_map,
    identity_matrix,
    in_A,
    invert,
    invert_via_det,
    is_bijective,
    is_invertible_via_det,
    matrix_multiply,
    recompose,
    zero_map,
)
from groupdet import determinant
from groupdet.maps import _intern_table
from groupdet.matrices import _built_matrix


def _pg(*specs):
    return ProductGroup.of(*(build_group(s) for s in specs))


def _route_inverse(m, branch):
    """The inverse read off one 2 x 2 branch's chain ('h' eliminates delta,
    'k' alpha); None when that branch's determinant is not bijective."""
    chain = determinant._chain(m, determinant._BRANCH_SEQUENCES[branch])
    return determinant._inverse_from(m, chain)


def _swap_matrix(g):
    return EndoMatrix((g, g), (
        (zero_map(g, g), identity_map(g)),
        (identity_map(g), zero_map(g, g)),
    ))


def _singular_c2c2():
    c2 = build_group("C2")
    one = identity_map(c2)
    return EndoMatrix((c2, c2), ((one, one), (one, one)))


def test_matrices_over_a_trivial_factor():
    # Over C1 x C2 every entry in the first row or column has a one-entry
    # domain or codomain; C1 x C2 has one automorphism and two endomorphisms.
    c1, c2 = build_group("C1"), build_group("C2")
    pg = ProductGroup.of(c1, c2)
    mats = enumerate_m_matrices((c1, c2))
    assert len(mats) == 2
    for m in mats:
        phi = recompose(m, pg)
        assert decompose(phi, pg) == m
        assert matrix_multiply(m, m) == decompose(compose(phi, phi), pg)
        assert is_invertible_via_det(m) == is_bijective(phi)
    (m,) = enumerate_aut_matrices(pg)
    assert matrix_multiply(invert_via_det(m), m) == identity_matrix((c1, c2))


def test_one_factor_matrices_are_their_own_determinant():
    s3 = build_group("S3")
    for m in enumerate_m_matrices((s3,)):
        (entry,), = m.entries
        assert f_determinant(m) == [((), (0,), {(0, 0): entry})]
        assert is_invertible_via_det(m) == is_bijective(entry)
        if is_bijective(entry):
            assert invert_via_det(m).entries == ((invert(entry),),)
            assert det_A(m) == entry
        else:
            with pytest.raises(InversionError):
                invert_via_det(m)
        with pytest.raises(PreconditionError):
            branch_determinant(m)


def test_f_determinant_sequence_validation():
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    ident = identity_matrix(facs)
    assert f_determinant(ident)[-1][:2] == ((2, 1), (0,))
    assert f_determinant(ident, (0, 2))[-1][1] == (1,)
    assert f_determinant(ident, [2])[-1][1] == (0, 1)
    for bad in ((1, 1), (3,), (-1,), ("a",), (2, 1, 0), 5):
        with pytest.raises(PreconditionError):
            f_determinant(ident, bad)


def test_det_examples():
    s3, c4 = build_group("S3"), build_group("C4")
    ident = identity_matrix((s3, c4))
    assert det_h(ident).values == identity_map(s3).values
    assert det_k(ident).values == identity_map(c4).values
    # a vanishing correction term leaves the diagonal entry itself
    alpha = enumerate_autos(s3)[-1]
    gamma = next(f for f in enumerate_homs(s3, c4)
                 if f.values != (0,) * 6)
    m = EndoMatrix((s3, c4), (
        (alpha, zero_map(c4, s3)),
        (gamma, identity_map(c4)),
    ))
    assert det_h(m).values == alpha.values
    swap = _swap_matrix(s3)
    with pytest.raises(DeterminantUndefinedError) as err_h:
        det_h(swap)
    assert err_h.value.pivot_index == 1
    with pytest.raises(DeterminantUndefinedError) as err_k:
        det_k(swap)
    assert err_k.value.pivot_index == 0


def test_f_determinant_two_factor_consistency():
    h, k = build_group("C2"), build_group("C4")
    for m in enumerate_m_matrices((h, k)):
        if is_bijective(m.entries[1][1]):
            (_, _, maps), = f_determinant(m, (1,))[1:]
            assert maps[0, 0].values == det_h(m).values
        if is_bijective(m.entries[0][0]):
            (_, _, maps), = f_determinant(m, (0,))[1:]
            assert maps[1, 1].values == det_k(m).values


def test_f_determinant_chain_shape():
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    chain = f_determinant(identity_matrix(facs))
    assert [survivors for _, survivors, _ in chain] == [(0, 1, 2), (0, 1), (0,)]
    assert [gone for gone, _, _ in chain] == [(), (2,), (2, 1)]
    for _, survivors, maps in chain:
        assert sorted(maps) == [(i, j) for i in survivors for j in survivors]
        assert all(f.domain is facs[j] and f.codomain is facs[i] for (i, j), f in maps.items())
    assert chain[-1][2][0, 0].values == identity_map(facs[0]).values
    # any other full sequence on the identity also ends in an identity map
    other = f_determinant(identity_matrix(facs), (0, 1))
    assert other[-1][2][2, 2].values == identity_map(facs[2]).values


def test_every_live_sequence_decides_invertibility():
    # The paper: any elimination sequence with bijective pivots decides
    # invertibility.  So on every M-set member of the small catalog triples,
    # every full sequence whose chain is live ends in a determinant that is
    # bijective exactly when the recomposed endomorphism is.
    triples = [t for t in itertools.combinations_with_replacement(CATALOG, 3)
               if math.prod(build_group(s).order for s in t) <= 24]
    members = live = 0
    for specs in triples:
        facs = tuple(build_group(s) for s in specs)
        pg = ProductGroup.of(*facs)
        for m in enumerate_m_matrices(facs):
            members += 1
            expected = is_bijective(recompose(m, pg))
            for images in itertools.permutations(range(3), 2):
                try:
                    _, (s,), maps = f_determinant(m, images)[-1]
                except DeterminantUndefinedError:
                    continue
                live += 1
                assert is_bijective(maps[s, s]) == expected, (specs, m, images)
    assert (len(triples), members, live) == (8, 5250, 6552)


def test_det_A_examples():
    s3, c4 = build_group("S3"), build_group("C4")
    assert det_A(identity_matrix((s3, c4))).values == identity_map(s3).values
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    assert det_A(identity_matrix(facs)).values == identity_map(facs[0]).values
    alpha = enumerate_autos(s3)[-1]
    delta = enumerate_autos(c4)[-1]
    diag = EndoMatrix((s3, c4), (
        (alpha, zero_map(c4, s3)),
        (zero_map(s3, c4), delta),
    ))
    assert det_A(diag).values == alpha.values
    with pytest.raises(PreconditionError):
        det_A(_swap_matrix(s3))
    pg = _pg("C2", "C4")
    for m in enumerate_A(pg.factors):
        assert is_bijective(det_A(m)) == is_bijective(recompose(m, pg))


def test_verdict_matches_oracle_where_decidable():
    for specs in (("C2", "C4"), ("C3", "C4"), ("C2", "C2")):
        pg = _pg(*specs)
        for m in enumerate_m_matrices(pg.factors):
            try:
                verdict = is_invertible_via_det(m)
            except DeterminantUndefinedError:
                continue
            assert verdict == is_bijective(recompose(m, pg))


def _tried_orders(facs):
    """The elimination orders decide tries, in order, as documented: on 2 x 2
    the branch with the smaller |pivot| + C(|tested|, 2) first, h (pivot
    delta, index 1) on a tie; on three factors the canonical (2, 1), then
    the rest lexicographically by survivor."""
    if len(facs) == 2:
        h, k = (g.order for g in facs)
        h_first = k + h * (h - 1) // 2 <= h + k * (k - 1) // 2
        return [(1,), (0,)] if h_first else [(0,), (1,)]
    assert len(facs) == 3
    return [(2, 1), (1, 2), (0, 2), (2, 0), (0, 1), (1, 0)]


def _raw_inverse(v):
    """The inverse of a bijection held as a value tuple."""
    out = [0] * len(v)
    for x, y in enumerate(v):
        out[y] = x
    return tuple(out)


def _raw_composite(*vs):
    """The composite of value tuples, the last applied first."""
    out = vs[-1]
    for v in reversed(vs[:-1]):
        out = tuple(v[x] for x in out)
    return out


def _raw_diff(g, a, b):
    """x -> a(x) * b(x)^-1 in g, on value tuples."""
    return tuple(g.table[x][g.inverse[y]] for x, y in zip(a, b))


def _dead_pivot(m, order):
    """The first pivot of ``order`` that is not bijective once the earlier
    ones are eliminated, or None; computed on raw value tuples."""
    state = {(i, j): m.entries[i][j].values for i in range(m.n) for j in range(m.n)}
    alive = list(range(m.n))
    for k, p in enumerate(order, 1):
        if len(set(state[p, p])) != len(state[p, p]):
            return p
        if k == len(order):
            return None
        w = _raw_inverse(state[p, p])
        alive.remove(p)
        state = {
            (i, j): _raw_diff(m.factors[i], state[i, j], _raw_composite(state[i, p], w, state[p, j]))
            for i in alive for j in alive
        }


# Ordered pairs of catalog groups with product order <= 32, and C2 x C2 x C3.
_DECIDE_FACTORS = [
    (h, k) for h, k in itertools.product(catalog_groups(), repeat=2) if h.order * k.order <= 32
] + [tuple(build_group(s) for s in ("C2", "C2", "C3"))]


def test_decide_is_exact_on_every_small_m_set():
    """Every member of each M-set of ``_DECIDE_FACTORS``: a verdict equals
    the bijectivity of the recomposed map and has a pivot route; an undefined
    determinant has no route, and its pivot_index is the dead pivot of the
    last order tried."""
    members = undefined = 0
    for facs in _DECIDE_FACTORS:
        pg = ProductGroup.of(*facs)
        orders = _tried_orders(facs)
        for m in enumerate_m_matrices(facs):
            members += 1
            try:
                verdict = is_invertible_via_det(m)
            except DeterminantUndefinedError as exc:
                undefined += 1
                dead = [_dead_pivot(m, order) for order in orders]
                assert None not in dead, (m, dead)
                assert exc.pivot_index == dead[-1], (m, dead)
                continue
            assert verdict == is_bijective(recompose(m, pg)), m
            assert any(_dead_pivot(m, order) is None for order in orders), m
    assert len(_DECIDE_FACTORS) == 53 and members == 14460
    assert 0 < undefined < members


def test_singular_A_member():
    m = _singular_c2c2()
    assert in_A(m)
    assert not is_bijective(branch_determinant(m, "h")[1])
    pg = _pg("C2", "C2")
    assert not is_bijective(recompose(m, pg))
    with pytest.raises(InversionError):
        invert_via_det(m)
    report = detiff_check(m)
    assert (report.deth_invertible, report.detk_invertible) == (False, False)
    assert report.reciprocal_identities_hold is None


def test_invert_identity_and_diagonal():
    s3, c4 = build_group("S3"), build_group("C4")
    ident = identity_matrix((s3, c4))
    assert invert_via_det(ident).entries == ident.entries
    alpha = enumerate_autos(s3)[3]
    delta = enumerate_autos(c4)[-1]
    diag = EndoMatrix((s3, c4), (
        (alpha, zero_map(c4, s3)),
        (zero_map(s3, c4), delta),
    ))
    got = invert_via_det(diag)
    assert got.entries[0][0].values == invert(alpha).values
    assert got.entries[1][1].values == invert(delta).values
    assert got.entries[0][1].values == zero_map(c4, s3).values
    assert got.entries[1][0].values == zero_map(s3, c4).values


def test_invert_matches_functional_inverse_on_autos():
    pg = _pg("S3", "C4")
    autos = enumerate_autos(pg.product)
    by_values = {phi.values: phi for phi in autos}
    for m in enumerate_aut_matrices(pg):
        phi = recompose(m, pg)
        expected = by_values[tuple(phi.values.index(x) for x in range(24))]
        for w in (invert_via_det(m), _route_inverse(m, "h"), _route_inverse(m, "k")):
            assert recompose(w, pg).values == expected.values


def test_swap_has_no_determinant_route():
    swap = _swap_matrix(build_group("S3"))
    with pytest.raises(DeterminantUndefinedError):
        invert_via_det(swap)
    for branch in ("h", "k", "auto"):
        with pytest.raises(DeterminantUndefinedError):
            branch_determinant(swap, branch)
    with pytest.raises(DeterminantUndefinedError):
        is_invertible_via_det(swap)


def test_undefined_route_names_its_dead_pivot():
    """A single branch tried names its pivot; only when both 2 x 2 branches
    were tried is no diagonal entry bijective.  [[1, 1], [1, 0]] over
    C2 x C2 has delta zero but alpha bijective, so its k route is live."""
    c2 = build_group("C2")
    one, zero = identity_map(c2), zero_map(c2, c2)
    m = EndoMatrix((c2, c2), ((one, one), (one, zero)))
    with pytest.raises(DeterminantUndefinedError) as err:
        branch_determinant(m, "h")
    assert str(err.value) == "delta is not bijective, so det_h is undefined"
    assert err.value.pivot_index == 1
    assert branch_determinant(m, "k")[0] == branch_determinant(m)[0] == "k"
    swap = _swap_matrix(c2)
    with pytest.raises(DeterminantUndefinedError) as err:
        branch_determinant(swap, "k")
    assert str(err.value) == "alpha is not bijective, so det_k is undefined"
    with pytest.raises(DeterminantUndefinedError) as err:
        branch_determinant(swap)
    assert str(err.value).startswith("no bijective diagonal entry")


def test_inverse_determinant_identities():
    """det_K of the inverse is the inverse pivot, and the determinant used
    is forced to be a homomorphism once the matrix proves invertible."""
    for specs in (("C2", "C4"), ("S3", "C4")):
        pg = _pg(*specs)
        for m in enumerate_m_matrices(pg.factors):
            (alpha, beta), (gamma, delta) = m.entries
            if is_bijective(delta):
                try:
                    dh = det_h(m)
                except DeterminantUndefinedError:  # pragma: no cover
                    continue
                if is_bijective(dh):
                    w = _route_inverse(m, "h")
                    assert det_k(w).values == invert(delta).values
                    assert dh.is_homomorphism()
            if is_bijective(alpha):
                dk = det_k(m)
                if is_bijective(dk):
                    w = _route_inverse(m, "k")
                    assert det_h(w).values == invert(alpha).values
                    assert dk.is_homomorphism()


def test_inverse_stays_in_A_with_reciprocal_det():
    for specs in (("S3", "C4"), ("C2", "C2"), ("C6", "C3")):
        h, k = (build_group(s) for s in specs)
        for m in enumerate_A((h, k)):
            dh = det_h(m)
            if not is_bijective(dh):
                continue
            w = invert_via_det(m)
            assert in_A(w)
            assert det_h(w).values == invert(m.entries[0][0]).values


def _pleasant_inverse(m):
    """The paper's symmetric inverse of a 2 x 2 member of A with bijective
    determinants, from raw value tuples:

        ( det_h^-1,                       -alpha^-1 . beta . det_k^-1 )
        ( -delta^-1 . gamma . det_h^-1,   det_k^-1                    )
    """
    h, k = m.factors
    (alpha, beta), (gamma, delta) = ((e.values for e in row) for row in m.entries)
    alpha_inv, delta_inv = _raw_inverse(alpha), _raw_inverse(delta)
    dh_inv = _raw_inverse(_raw_diff(h, alpha, _raw_composite(beta, delta_inv, gamma)))
    dk_inv = _raw_inverse(_raw_diff(k, delta, _raw_composite(gamma, alpha_inv, beta)))
    ne = _raw_diff(h, (h.identity,) * k.order, _raw_composite(alpha_inv, beta, dk_inv))
    sw = _raw_diff(k, (k.identity,) * h.order, _raw_composite(delta_inv, gamma, dh_inv))
    return (
        (GroupMap(h, h, dh_inv), GroupMap(k, h, ne)),
        (GroupMap(h, k, sw), GroupMap(k, k, dk_inv)),
    )


def test_pleasant_form_agrees():
    pg = _pg("S3", "C4")
    for m in enumerate_aut_matrices(pg):
        assert _pleasant_inverse(m) == invert_via_det(m).entries
    for m in enumerate_A(_pg("C2", "C4").factors):
        if is_bijective(det_h(m)):
            assert _pleasant_inverse(m) == invert_via_det(m).entries


def test_detiff_reports():
    s3, c4 = build_group("S3"), build_group("C4")
    report = detiff_check(identity_matrix((s3, c4)))
    assert report == detiff_check(identity_matrix((s3, c4)))
    assert report.deth_invertible and report.detk_invertible
    assert report.reciprocal_identities_hold
    for specs in (("C2", "C4"), ("Q8", "C2")):
        h, k = (build_group(s) for s in specs)
        for m in enumerate_A((h, k)):
            r = detiff_check(m)
            assert r.deth_invertible == r.detk_invertible
            if r.deth_invertible:
                assert r.reciprocal_identities_hold
    with pytest.raises(PreconditionError):
        detiff_check(_swap_matrix(s3))


def test_three_factor_inverses():
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    pg = ProductGroup.of(*facs)
    ident = identity_map(pg.product).values
    invertible = 0
    for m in enumerate_A(facs):
        if not is_bijective(recompose(m, pg)):
            with pytest.raises(InversionError):
                invert_via_det(m)
            continue
        invertible += 1
        w = invert_via_det(m)
        assert compose(recompose(m, pg), recompose(w, pg)).values == ident
        assert compose(recompose(w, pg), recompose(m, pg)).values == ident
        assert in_A(w)
        assert det_A(w).values == invert(m.entries[0][0]).values
    assert invertible == 6


def test_inverses_pass_full_validation():
    # inverses are built unchecked; fresh public maps make the validating
    # constructor recheck every entry and every row
    groups = catalog_groups()
    pgs = [ProductGroup.of(h, k) for i, h in enumerate(groups) for k in groups[i:]
           if h.order * k.order <= 32]
    pgs.append(_pg("C2", "C2", "C3"))
    inverted = 0
    for pg in pgs:
        for phi in enumerate_autos(pg.product):
            try:
                w = invert_via_det(decompose(phi, pg))
            except DeterminantUndefinedError:
                continue
            fresh = [[GroupMap(e.domain, e.codomain, e.values) for e in row] for row in w.entries]
            assert EndoMatrix(pg.factors, fresh) == w
            inverted += 1
    assert inverted > 0


def test_three_factor_dead_pivots():
    """The two automorphisms swapping the order-2 factors admit no pivot
    route at all, while remaining genuinely invertible."""
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    pg = ProductGroup.of(*facs)
    undecidable = 0
    for phi in enumerate_autos(pg.product):
        m = decompose(phi, pg)
        try:
            assert is_invertible_via_det(m)
        except DeterminantUndefinedError:
            undecidable += 1
            with pytest.raises(DeterminantUndefinedError):
                invert_via_det(m)
            assert is_bijective(phi)
    assert undecidable == 2


def test_one_sequence_names_its_dead_pivot_on_three_factors():
    """f_determinant tries only the sequence it is given, so its error names
    that sequence and its dead pivot on three factors too.  The 16 members of
    M(C2 x C2 x C3) whose entry (2, 2) is not bijective die at the first
    canonical pivot; the full search decides 5 of them by another sequence."""
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    pg = ProductGroup.of(*facs)
    dead = [m for m in enumerate_m_matrices(facs) if not is_bijective(m.entries[2][2])]
    decided = 0
    for m in dead:
        with pytest.raises(DeterminantUndefinedError) as err:
            f_determinant(m)
        assert str(err.value) == "elimination sequence (2, 1) is undefined: its pivot 2 is not bijective"
        assert err.value.pivot_index == 2
        try:
            verdict = is_invertible_via_det(m)
        except DeterminantUndefinedError as exc:
            assert str(exc) == "no elimination sequence has bijective pivots"
            continue
        decided += 1
        assert verdict == is_bijective(recompose(m, pg))
    assert (len(dead), decided) == (16, 5)


def test_full_search_runs_on_nine_factors():
    """The full search lists its sequences lazily, so nine factors (9! - 1
    sequences after the canonical one) decide and invert at once: the 9 x C2
    identity by the canonical sequence, and a matrix whose canonical first
    pivot (8, 8) is zero by the next sequence, (1, 2, ..., 8)."""
    c2 = build_group("C2")
    one, zero = identity_map(c2), zero_map(c2, c2)
    ident = identity_matrix((c2,) * 9)
    assert is_invertible_via_det(ident) and invert_via_det(ident) == ident
    # rows 7 and 8 hold the block [[1, 1], [1, 0]], its own inverse's transpose
    rows = [[one if i == j else zero for j in range(9)] for i in range(9)]
    rows[7][8] = rows[8][7] = one
    rows[8][8] = zero
    m = EndoMatrix((c2,) * 9, rows)
    with pytest.raises(DeterminantUndefinedError, match=r"sequence \(8, 7, 6, 5, 4, 3, 2, 1\)"):
        f_determinant(m)
    assert is_invertible_via_det(m) and is_bijective(recompose(m))
    assert matrix_multiply(m, invert_via_det(m)) == ident


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inversion_round_trip_property(data):
    pg = _pg("C2", "C4")
    mats = enumerate_m_matrices(pg.factors)
    m = data.draw(st.sampled_from(mats))
    try:
        verdict = is_invertible_via_det(m)
    except DeterminantUndefinedError:
        return
    if not verdict:
        return
    w = invert_via_det(m)
    ident = identity_map(pg.product).values
    assert compose(recompose(m, pg), recompose(w, pg)).values == ident


# Ordered three- and four-factor catalog products of order <= 48.
_SMALL_PRODUCTS = [
    facs
    for n in (3, 4)
    for facs in itertools.product(catalog_groups(), repeat=n)
    if math.prod(g.order for g in facs) <= 48
]


def _commute(t, xs, ys):
    return all(t[x][y] == t[y][x] for x in xs for y in ys)


@st.composite
def _row_commuting_matrices(draw):
    """A matrix over a small product, drawn row by row from the hom sets.

    A row's diagonal entry comes first, from the bijective homs about half
    the time so that invertible matrices are common.  Each other entry is
    drawn from the homs whose images commute with the images already drawn
    in its row; the zero map always does.
    """
    facs = draw(st.sampled_from(_SMALL_PRODUCTS))
    rows = []
    for i, fi in enumerate(facs):
        row, images = [None] * len(facs), []
        for j in [i] + [j for j in range(len(facs)) if j != i]:
            pool = [f for f in enumerate_homs(facs[j], fi)
                    if _commute(fi.table, f.image(), images)]
            if i == j and draw(st.booleans()):
                pool = [f for f in pool if is_bijective(f)]
            row[j] = draw(st.sampled_from(pool))
            images.extend(row[j].image())
        rows.append(row)
    return EndoMatrix(facs, rows)


@settings(max_examples=300, deadline=None)
@given(_row_commuting_matrices())
def test_chain_decide_and_invert_agree_with_brute_force(m):
    """Both functions read the same elimination chain, and recompose (which
    calls no determinant code) is the oracle for every verdict and inverse."""
    pg = ProductGroup.of(*m.factors)
    phi = recompose(m, pg)
    decide_err = invert_err = None
    try:
        verdict = is_invertible_via_det(m)
    except DeterminantUndefinedError as exc:
        decide_err = exc
    try:
        w = invert_via_det(m)
    except (DeterminantUndefinedError, InversionError) as exc:
        invert_err = exc
    if decide_err is not None or isinstance(invert_err, DeterminantUndefinedError):
        assert isinstance(decide_err, DeterminantUndefinedError)
        assert isinstance(invert_err, DeterminantUndefinedError)
        assert invert_err.pivot_index == decide_err.pivot_index
        return
    assert verdict == is_bijective(phi)
    assert isinstance(invert_err, InversionError) == (not verdict)
    if verdict:
        ident = identity_map(pg.product).values
        assert compose(phi, recompose(w, pg)).values == ident
        assert compose(recompose(w, pg), phi).values == ident


def _conjugation_by_transposition(s3):
    g = 1  # the transposition swapping the last two points
    t, inv = s3.table, s3.inverse
    return GroupMap(s3, s3, [t[t[g][x]][inv[g]] for x in range(s3.order)])


def test_elimination_checks_that_schur_images_commute():
    """The difference a - b . w . c assumes commuting images; an unchecked
    matrix whose first row does not commute must be refused, not silently used."""
    s3, c2 = build_group("S3"), build_group("C2")
    one, c_g = identity_map(s3), _conjugation_by_transposition(s3)
    two = _built_matrix((s3, s3), ((one, one), (c_g, one)))
    three = _built_matrix((s3, c2, s3), (
        (one, zero_map(c2, s3), one),
        (zero_map(s3, c2), identity_map(c2), zero_map(s3, c2)),
        (c_g, zero_map(c2, s3), one),
    ))
    # twice over: a difference that raised is not kept in any memo
    for _ in range(2):
        for m in (two, three):
            with pytest.raises(NoncommutingImagesError):
                is_invertible_via_det(m)
            with pytest.raises(NoncommutingImagesError):
                invert_via_det(m)
        with pytest.raises(NoncommutingImagesError):
            det_h(two)
        with pytest.raises(NoncommutingImagesError):
            f_determinant(three)


def test_elimination_claims_no_homomorphism_it_has_not_checked():
    """On an unchecked matrix a Schur difference need not be a homomorphism,
    nor is a composite the next step forms from it; so no map the elimination
    interns may claim to be one (``hom_flag``) unless it is."""
    (s3,) = _fresh("S3")
    rows = (
        ((0, 1, 5, 4, 3, 2), (0,) * 6, (0, 2, 1, 4, 3, 5)),
        ((0, 1, 2, 3, 4, 5), (0, 5, 1, 3, 4, 2), (0,) * 6),
        ((0,) * 6, (0, 1, 5, 4, 3, 2), (0, 5, 2, 4, 3, 1)),
    )
    m = _built_matrix((s3,) * 3, tuple(tuple(GroupMap(s3, s3, v) for v in r) for r in rows))
    with pytest.raises(NoncommutingImagesError):
        f_determinant(m)
    interned = list(_intern_table(s3, s3).values())
    homs = [GroupMap(s3, s3, f.values).is_homomorphism() for f in interned]
    assert not all(homs)
    assert all(f.hom_flag in (None, hom) for f, hom in zip(interned, homs))
    # the way back: the inverse's composites, sums, negations and zero maps
    for facs, mats in _fresh_aut_matrices():
        for m in mats:
            try:
                invert_via_det(m)
            except DeterminantUndefinedError:
                pass
        if len(facs) == 2:
            for m in enumerate_A(facs):
                detiff_check(m)
        for dom in facs:
            for cod in facs:
                interned = list(_intern_table(dom, cod).values())
                assert interned, (dom.name, cod.name)
                homs = [GroupMap(dom, cod, f.values).is_homomorphism() for f in interned]
                assert all(f.hom_flag in (None, hom) for f, hom in zip(interned, homs))


def _fresh_aut_matrices():
    """(factors, every automorphism matrix) of S3 x C4 and C2 x C2 x C3 over
    fresh factors, whose intern tables and memos start empty."""
    out = []
    for specs in (("S3", "C4"), ("C2", "C2", "C3")):
        facs = _fresh(*specs)
        out.append((facs, list(enumerate_aut_matrices(ProductGroup.of(*facs)))))
    return out


def test_a_repeated_invert_reads_only_memos(monkeypatch):
    """A second invert of a matrix forms no map: on every automorphism matrix
    of S3 x C4 and C2 x C2 x C3 it calls none of the routines that form or
    intern one, and returns the very entries of the first."""
    import groupdet.maps as maps_mod
    import groupdet.matrices as mat_mod

    names = ("_product_of_composites", "_interned", "_composite", "_sum", "_diff")
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for mod in (maps_mod, mat_mod, determinant):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    mats = [m for _, mats in _fresh_aut_matrices() for m in mats]
    passes = []
    for _ in range(2):
        calls.update(dict.fromkeys(names, 0))
        entries = []
        for m in mats:
            try:
                entries.append(invert_via_det(m).entries)
            except DeterminantUndefinedError:
                entries.append(None)
        passes.append((entries, dict(calls)))
    (first, cold), (second, warm) = passes
    assert cold["_composite"] and cold["_interned"], cold
    assert not any(warm.values()), warm
    assert sum(e is not None for e in first) > len(mats) // 2
    for a, b in zip(first, second):
        assert (a is None) == (b is None)
        if a is not None:
            assert all(x is y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _counted_det_mod(monkeypatch):
    """The determinant module with its steps, pivot-inverse lookups and raw
    inversions (``maps._pivot_inverse`` calls ``_inverse``) each appended
    to a list as they run; a lookup is recorded as the (factor, values) of
    the map looked up."""
    import groupdet.determinant as det_mod
    import groupdet.maps as maps_mod

    steps, lookups, inversions = [], [], []
    step, lookup, inverse = det_mod._step, det_mod._pivot_inverse, maps_mod._inverse

    def counted_step(factors, node, p):
        out = step(factors, node, p)
        steps.append((node[0] + (p,), out is not None))
        return out

    def counted_lookup(f):
        lookups.append((f.domain, f.values))
        return lookup(f)

    def counted_inverse(values):
        inversions.append(values)
        return inverse(values)

    monkeypatch.setattr(det_mod, "_step", counted_step)
    monkeypatch.setattr(det_mod, "_pivot_inverse", counted_lookup)
    monkeypatch.setattr(maps_mod, "_inverse", counted_inverse)
    return det_mod, steps, lookups, inversions


def _fresh(*specs):
    """New groups for the specs: build_group keeps one group per spec, and a
    group's memo would carry inverses over from earlier tests."""
    return tuple(FiniteGroup(build_group(s).table, name=s) for s in specs)


def test_elimination_walks_each_sequence_afresh_and_inverts_each_pivot_once(monkeypatch):
    """Per call, the sequences are walked in order, each from the top to its
    first dead pivot, until one has every pivot live; a dead prefix is never
    extended.  Each step, live or dead, looks its pivot up once, and a
    finished chain looks up its determinant once.  Over all the calls each
    distinct (factor, values) is inverted exactly once, and maps.invert is
    never called (the module does not import it)."""
    det_mod, steps, lookups, inversions = _counted_det_mod(monkeypatch)
    assert not hasattr(det_mod, "invert")
    facs = _fresh("C2", "C2", "C3")
    mats = enumerate_m_matrices(facs)
    assert len(mats) == 48
    seen = set()
    for m in mats:
        for fn in (is_invertible_via_det, invert_via_det):
            steps.clear()
            lookups.clear()
            inversions.clear()
            try:
                fn(m)
                chained = True
            except DeterminantUndefinedError:
                chained = False
            except InversionError:
                chained = True
            keys = [key for key, _ in steps]
            alive = dict(steps)
            assert len(alive) == len(set(steps))  # a key is live or dead, not both
            # the walk those live and dead steps give, rebuilt from the sequences
            walk = []
            for seq in det_mod._full_sequences(3):
                for k in range(1, len(seq) + 1):
                    walk.append(seq[:k])
                    if not alive[seq[:k]]:
                        break
                else:
                    break
            assert keys == walk
            dead = {key for key, alive in steps if not alive}
            assert not any(key[:k] in dead for key in keys for k in range(1, len(key)))
            assert len(lookups) == len(steps) + chained
            assert all(g in facs for g, _ in lookups)
            new = {(g, v) for g, v in lookups if (g, v) not in seen}
            assert sorted(inversions) == sorted(v for _, v in new if len(set(v)) == len(v))
            seen |= new
    assert seen and len(seen) <= sum(len(enumerate_homs(g, g)) for g in facs)


def test_decide_verdicts_hold_cold_warm_and_on_fresh_factors():
    """A memo answers only for the values it was formed from: on every member
    of M(S3 x C4) and M(C2 x C2 x C3), over the shared factors and over fresh
    copies whose memos start empty, two passes of decide and invert give the
    same outcomes.  Every verdict is is_bijective(recompose(m)), every
    inverse is decompose(invert(recompose(m))), and over three factors its
    product with m is the identity both ways."""
    for specs in (("S3", "C4"), ("C2", "C2", "C3")):
        for facs in (tuple(build_group(s) for s in specs), _fresh(*specs)):
            pg = ProductGroup.of(*facs)
            ident = identity_matrix(facs)
            mats = enumerate_m_matrices(facs)
            phis = [recompose(m, pg) for m in mats]
            expected = [decompose(invert(phi), pg) if is_bijective(phi) else None for phi in phis]
            passes = []
            for _ in range(2):
                outcomes = []
                for m, want in zip(mats, expected):
                    for fn in (is_invertible_via_det, invert_via_det):
                        try:
                            got = fn(m)
                        except DeterminantUndefinedError as exc:
                            outcomes.append(("undefined", exc.pivot_index))
                            continue
                        except InversionError:
                            assert want is None, (specs, m)
                            outcomes.append(("singular", None))
                            continue
                        if fn is is_invertible_via_det:
                            assert got == (want is not None), (specs, m)
                            outcomes.append(("decided", got))
                            continue
                        assert got == want, (specs, m)
                        if len(facs) == 3:
                            assert matrix_multiply(m, got) == ident == matrix_multiply(got, m)
                        outcomes.append(("inverted", got.key()))
                passes.append(outcomes)
            assert passes[0] == passes[1], specs
            kinds = {kind for kind, _ in passes[0]}
            assert {"decided", "inverted", "singular"} <= kinds, specs
            assert ("decided", True) in passes[0] and ("decided", False) in passes[0]


def test_two_by_two_calls_step_once_per_branch(monkeypatch):
    """On every member of M(S3 x C4) and M(C4 x S3), decide and invert step
    each branch at most once, in the order the step bound gives, with
    distinct keys; each step looks its pivot up once and a finished chain
    its determinant once.  Over all the calls each distinct (factor, values)
    is inverted exactly once."""
    _, steps, lookups, inversions = _counted_det_mod(monkeypatch)
    seen = set()
    for specs in (("S3", "C4"), ("C4", "S3")):
        facs = _fresh(*specs)
        orders = _tried_orders(facs)
        mats = enumerate_m_matrices(facs)
        assert len(mats) == 128
        for m in mats:
            for fn in (is_invertible_via_det, invert_via_det):
                steps.clear()
                lookups.clear()
                inversions.clear()
                try:
                    fn(m)
                    chained = True
                except DeterminantUndefinedError:
                    chained = False
                except InversionError:
                    chained = True
                keys = [key for key, _ in steps]
                assert keys == orders[:len(keys)] and 1 <= len(keys) <= 2, keys
                assert len(keys) == len(set(keys))
                assert [alive for _, alive in steps] == [False] * (len(keys) - 1) + [chained]
                assert len(lookups) == len(steps) + chained
                assert all(g in facs for g, _ in lookups)
                new = {(g, v) for g, v in lookups if (g, v) not in seen}
                assert sorted(inversions) == sorted(v for _, v in new if len(set(v)) == len(v))
                seen |= new


def _corrects_both_pivots(m):
    """m is invertible, and beta . delta^-1 . gamma and gamma . alpha^-1 . beta
    are both nonzero, so det_h differs from alpha and det_k from delta;
    read from raw value tuples, so no map keeps an inverse."""
    (alpha, beta), (gamma, delta) = ((e.values for e in row) for row in m.entries)
    h, k = m.factors
    return (_raw_composite(beta, _raw_inverse(delta), gamma) != (h.identity,) * h.order
            and _raw_composite(gamma, _raw_inverse(alpha), beta) != (k.identity,) * k.order
            and is_bijective(recompose(m, ProductGroup.of(h, k))))


def test_both_branch_views_read_one_chain_per_branch(monkeypatch):
    """detiff_check eliminates each branch's pivot once and makes four
    look-ups, of exactly alpha, delta, det_h and det_k; on fresh factors it
    inverts each distinct one of those once.  The inverse it reads agrees
    with the paper's symmetric form."""
    _, steps, lookups, inversions = _counted_det_mod(monkeypatch)
    cases = [
        # Z(S3) = 1, so beta is zero (det_h = alpha, det_k = delta); take
        # a member with gamma nonzero
        (("S3", "C4"), lambda m: m.entries[1][0] != zero_map(*m.factors), 2),
        (("C4", "C4"), _corrects_both_pivots, 4),
    ]
    for specs, pick, distinct in cases:
        h, k = _fresh(*specs)
        m = next(m for m in enumerate_A((h, k)) if pick(m))
        inversions.clear()
        steps.clear()
        lookups.clear()
        detiff_check(m)
        assert sorted(p for (p,), _ in steps) == [0, 1]
        assert len(lookups) == 4  # two pivots, two determinants
        (alpha, _), (_, delta) = m.entries
        four = {(h, alpha.values), (k, delta.values), (h, det_h(m).values), (k, det_k(m).values)}
        assert len(four) == distinct, specs
        assert set(lookups) == four, specs
        assert sorted(inversions) == sorted(v for _, v in four), specs
        assert _pleasant_inverse(m) == invert_via_det(m).entries
        assert detiff_check(m).reciprocal_identities_hold


def test_pivot_inverse_decides_bijectivity_and_keeps_each_inverse():
    """On every endomorphism of S3, D8, Q8 and C12: False when it is not a
    bijection, else the inverse as a map of the factor, and the same object
    when asked again, for the map or for a new map of equal values."""
    from groupdet.maps import _pivot_inverse

    for g in _fresh("S3", "D8", "Q8", "C12"):
        endos = enumerate_homs(g, g)
        assert any(is_bijective(f) for f in endos) and not all(is_bijective(f) for f in endos)
        for f in endos:
            w = _pivot_inverse(f)
            if not is_bijective(f):
                assert w is False, (g.name, f.values)
                continue
            assert w.domain is g and w.codomain is g, (g.name, f.values)
            assert all(w(f(x)) == x for x in range(g.order)), (g.name, f.values)
            assert all(f(w(y)) == y for y in range(g.order)), (g.name, f.values)
            assert _pivot_inverse(f) is w
            assert _pivot_inverse(GroupMap(g, g, f.values)) is w


def _memo_entries(facs):
    """Entries of the map-algebra memos on the interned maps between ``facs``."""
    return sum(
        len(memo or ())
        for dom in facs for cod in facs for f in _intern_table(dom, cod).values()
        for memo in (f._composites, f._sums, f._diffs)
    )


def test_every_map_the_library_keeps_is_the_one_interned_map_of_its_values():
    """Listings, identity and zero maps, product projections and injections
    and decompose entries are each ``_intern_table(dom, cod)[values]``, over
    the catalog, its products of order <= 32 and C2 x C2 x C3.  Deciding and
    inverting every member of M(S3 x C4) and M(C2 x C2 x C3) then leaves no
    two live maps of one (domain, codomain, values)."""
    import gc

    def interned(f):
        return _intern_table(f.domain, f.codomain).get(f.values) is f

    cat = catalog_groups()
    products = [ProductGroup.of(*p) for p in itertools.combinations_with_replacement(cat, 2)
                if p[0].order * p[1].order <= 32]
    products.append(_pg("C2", "C2", "C3"))
    for g in cat:
        for k in cat:
            homs = enumerate_homs(g, k) + enumerate_homs(g, k, restrict_codomain=k.center())
            assert all(map(interned, homs)), (g.name, k.name)
    for g in cat + [pg.product for pg in products]:
        kept = enumerate_autos(g) + central_aut_group(g) + (identity_map(g), zero_map(g, g))
        assert all(map(interned, kept)), g.name
    for pg in products:
        assert all(map(interned, pg.projections + pg.injections)), pg
        entries = [e for f in enumerate_autos(pg.product) for row in decompose(f, pg).entries
                   for e in row]
        assert all(map(interned, entries)), pg

    groups = set()
    for specs in (("S3", "C4"), ("C2", "C2", "C3")):
        facs = _fresh(*specs)
        groups.update(facs)
        for m in enumerate_m_matrices(facs):
            if _decided_invertible(m):
                invert_via_det(m)
    gc.collect()
    live = [f for f in gc.get_objects() if isinstance(f, GroupMap) and f.domain in groups]
    assert len({f.key() for f in live}) == len(live) > 0


def _decided_invertible(m):
    """The determinant's verdict on m; False when it has no pivot route."""
    try:
        return is_invertible_via_det(m)
    except DeterminantUndefinedError:
        return False


def test_inverting_outside_copies_keeps_the_memos_bounded():
    """100,000 inverts of the invertible members of M(S3 x C4), each rebuilt
    from new maps of its values through the validated constructor: the
    constructor holds the interned maps, so the memos end where one pass
    over the members leaves them."""
    facs = _fresh("S3", "C4")
    members = [m for m in enumerate_m_matrices(facs) if _decided_invertible(m)]
    assert len(members) == 24

    def copy(m):
        return EndoMatrix(facs, [[GroupMap(e.domain, e.codomain, e.values) for e in row]
                                 for row in m.entries])

    inverses = [invert_via_det(copy(m)).entries for m in members]
    after_one_pass = _memo_entries(facs)
    for i in range(100_000):
        invert_via_det(copy(members[i % len(members)]))
    assert _memo_entries(facs) == after_one_pass
    for m, inverse in zip(members, inverses):
        again = invert_via_det(copy(m)).entries
        assert all(a is b for ra, rb in zip(again, inverse) for a, b in zip(ra, rb))
