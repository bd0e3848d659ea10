"""Determinants, invertibility decisions, and the closed-form inverses."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdet import (
    DeterminantUndefinedError,
    EndoMatrix,
    FSequence,
    FiniteGroup,
    GroupMap,
    InversionError,
    NoncommutingImagesError,
    PreconditionError,
    ProductGroup,
    branch_determinant,
    build_group,
    catalog_groups,
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
    negate,
    pointwise_diff,
    recompose,
    zero_map,
)
from groupdet.matrices import _built_matrix


def _pg(*specs):
    return ProductGroup.of(*(build_group(s) for s in specs))


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


def test_fsequence_validation():
    assert FSequence.canonical(3).images == (2, 1)
    assert FSequence.canonical(3).survivors == (0,)
    assert FSequence(3, (0, 2)).survivors == (1,)
    with pytest.raises(PreconditionError):
        FSequence(3, (1, 1))
    with pytest.raises(PreconditionError):
        FSequence(2, (2,))


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
            chain = f_determinant(m, FSequence(2, (1,)))
            assert chain[-1].final_map.values == det_h(m).values
        if is_bijective(m.entries[0][0]):
            chain = f_determinant(m, FSequence(2, (0,)))
            assert chain[-1].final_map.values == det_k(m).values


def test_f_determinant_chain_shape():
    facs = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    chain = f_determinant(identity_matrix(facs))
    assert [len(state.survivors) for state in chain] == [3, 2, 1]
    assert chain[0].eliminated == ()
    assert chain[-1].eliminated == (2, 1)
    assert chain[-1].final_map.values == identity_map(facs[0]).values
    with pytest.raises(PreconditionError):
        chain[1].final_map
    # any other full sequence on the identity also ends in an identity map
    other = f_determinant(identity_matrix(facs), FSequence(3, (0, 1)))
    assert other[-1].final_map.values == identity_map(facs[2]).values


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


def _dead_pivot(m, order):
    """The first pivot of ``order`` that is not bijective once the earlier
    ones are eliminated, or None; computed with maps operations only."""
    state = {(i, j): m.entries[i][j] for i in range(m.n) for j in range(m.n)}
    alive = list(range(m.n))
    for k, p in enumerate(order, 1):
        if not is_bijective(state[p, p]):
            return p
        if k == len(order):
            return None
        w = invert(state[p, p])
        alive.remove(p)
        state = {
            (i, j): pointwise_diff(state[i, j], compose(state[i, p], compose(w, state[p, j])))
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
        invert_via_det(m, branch="h")
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
    got = invert_via_det(diag, branch="h")
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
        for branch in ("h", "k", "auto"):
            w = invert_via_det(m, branch=branch)
            assert recompose(w, pg).values == expected.values


def test_swap_has_no_determinant_route():
    swap = _swap_matrix(build_group("S3"))
    for branch in ("h", "k", "auto"):
        with pytest.raises(DeterminantUndefinedError):
            invert_via_det(swap, branch=branch)
        with pytest.raises(DeterminantUndefinedError):
            branch_determinant(swap, branch)
    with pytest.raises(DeterminantUndefinedError):
        is_invertible_via_det(swap)


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
                    w = invert_via_det(m, branch="h")
                    assert det_k(w).values == invert(delta).values
                    assert dh.is_homomorphism()
            if is_bijective(alpha):
                dk = det_k(m)
                if is_bijective(dk):
                    w = invert_via_det(m, branch="k")
                    assert det_h(w).values == invert(alpha).values
                    assert dk.is_homomorphism()


def test_inverse_stays_in_A_with_reciprocal_det():
    for specs in (("S3", "C4"), ("C2", "C2"), ("C6", "C3")):
        h, k = (build_group(s) for s in specs)
        for m in enumerate_A((h, k)):
            dh = det_h(m)
            if not is_bijective(dh):
                continue
            w = invert_via_det(m, branch="h")
            assert in_A(w)
            assert det_h(w).values == invert(m.entries[0][0]).values


def _pleasant_inverse(m):
    """The paper's symmetric inverse of a 2 x 2 member of A with bijective
    determinants, from the public API:

        ( det_h^-1,                       -alpha^-1 . beta . det_k^-1 )
        ( -delta^-1 . gamma . det_h^-1,   det_k^-1                    )
    """
    (alpha, beta), (gamma, delta) = m.entries
    dh_inv, dk_inv = invert(det_h(m)), invert(det_k(m))
    return (
        (dh_inv, negate(compose(invert(alpha), compose(beta, dk_inv)))),
        (negate(compose(invert(delta), compose(gamma, dh_inv))), dk_inv),
    )


def test_pleasant_form_agrees():
    pg = _pg("S3", "C4")
    for m in enumerate_aut_matrices(pg):
        assert _pleasant_inverse(m) == invert_via_det(m, branch="h").entries
    for m in enumerate_A(_pg("C2", "C4").factors):
        if is_bijective(det_h(m)):
            assert _pleasant_inverse(m) == invert_via_det(m, branch="h").entries


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
    with pytest.raises(PreconditionError):
        invert_via_det(identity_matrix(facs), branch="h")


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
    for m in (two, three):
        with pytest.raises(NoncommutingImagesError):
            is_invertible_via_det(m)
        with pytest.raises(NoncommutingImagesError):
            invert_via_det(m)
    with pytest.raises(NoncommutingImagesError):
        det_h(two)
    with pytest.raises(NoncommutingImagesError):
        f_determinant(three)


def _counted_det_mod(monkeypatch):
    """The determinant module with its steps, pivot-inverse lookups and raw
    inversions each appended to a list as they run."""
    import groupdet.determinant as det_mod

    steps, lookups, inversions = [], [], []
    step, lookup, inverse = det_mod._step, det_mod._pivot_inverse, det_mod._inverse

    def counted_step(factors, node, p):
        out = step(factors, node, p)
        steps.append((node[0] + (p,), out is not None))
        return out

    def counted_lookup(g, values):
        lookups.append((g, values))
        return lookup(g, values)

    def counted_inverse(values):
        inversions.append(values)
        return inverse(values)

    monkeypatch.setattr(det_mod, "_step", counted_step)
    monkeypatch.setattr(det_mod, "_pivot_inverse", counted_lookup)
    monkeypatch.setattr(det_mod, "_inverse", counted_inverse)
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
    are both nonzero, so det_h differs from alpha and det_k from delta."""
    (alpha, beta), (gamma, delta) = m.entries
    h, k = m.factors
    return (compose(beta, compose(invert(delta), gamma)) != zero_map(h, h)
            and compose(gamma, compose(invert(alpha), beta)) != zero_map(k, k)
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
        assert _pleasant_inverse(m) == invert_via_det(m, branch="h").entries
        assert detiff_check(m).reciprocal_identities_hold


def test_pivot_inverse_decides_bijectivity_and_keeps_each_inverse():
    """On every endomorphism of S3, D8, Q8 and C12: None when it is not a
    bijection, else the inverse value tuple, and the same object when asked
    again."""
    from groupdet.determinant import _pivot_inverse

    for g in _fresh("S3", "D8", "Q8", "C12"):
        endos = enumerate_homs(g, g)
        assert any(is_bijective(f) for f in endos) and not all(is_bijective(f) for f in endos)
        for f in endos:
            w = _pivot_inverse(g, f.values)
            if not is_bijective(f):
                assert w is None, (g.name, f.values)
                continue
            assert all(w[f.values[x]] == x for x in range(g.order)), (g.name, f.values)
            assert all(f.values[w[y]] == y for y in range(g.order)), (g.name, f.values)
            assert _pivot_inverse(g, f.values) is w
