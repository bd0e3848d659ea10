"""Matrix representation of product endomorphisms: round trips, M and A."""
import itertools
import random

import pytest

from groupdet import (
    EndoMatrix,
    FactorizationError,
    GroupMap,
    ParseError,
    PreconditionError,
    ProductGroup,
    ResourceLimitError,
    StructuralError,
    astruc_factorize,
    build_group,
    catalog_groups,
    compose,
    decompose,
    direct_product,
    enumerate_A,
    enumerate_Z,
    enumerate_aut_matrices,
    enumerate_autos,
    enumerate_endos,
    enumerate_homs,
    enumerate_m_matrices,
    group_from_table,
    identity_map,
    identity_matrix,
    in_A,
    in_Z,
    is_bijective,
    is_normal_endo,
    map_from_dict,
    map_to_dict,
    matrix_from_dict,
    matrix_multiply,
    matrix_to_dict,
    pointwise_sum,
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


def test_product_group_projections_and_injections():
    pg = _pg("S3", "C4")
    assert pg.product.order == 24
    for i in range(2):
        roundtrip = compose(pg.projections[i], pg.injections[i])
        assert roundtrip.values == identity_map(pg.factors[i]).values
    # injected images of distinct factors commute
    t = pg.product.table
    for a in pg.injections[0].values:
        for b in pg.injections[1].values:
            assert t[a][b] == t[b][a]


def _c3_with_identity_2():
    # old element x becomes relabel[x], so the identity 0 becomes 2
    t, relabel = build_group("C3").table, (2, 0, 1)
    table = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            table[relabel[a]][relabel[b]] = relabel[t[a][b]]
    return group_from_table(table, name="C3'")


def _check_numbering_against_raw_tables(pg, factors):
    """Table, projections, injections and recompose against raw coordinates."""
    tables = [f.table for f in factors]
    n = len(tables)
    ids = [next(e for e in range(len(t)) if list(t[e]) == list(range(len(t)))) for t in tables]
    coords = list(itertools.product(*(range(len(t)) for t in tables)))  # last fastest
    index = {c: x for x, c in enumerate(coords)}
    table = pg.product.table
    for a, ca in enumerate(coords):
        for b, cb in enumerate(coords):
            assert table[a][b] == index[tuple(t[x][y] for t, x, y in zip(tables, ca, cb))]
    for i, t in enumerate(tables):
        assert pg.projections[i].values == tuple(c[i] for c in coords)
        assert pg.injections[i].values == tuple(
            index[tuple(y if j == i else ids[j] for j in range(n))] for y in range(len(t))
        )
    mats = enumerate_m_matrices(pg.factors)
    assert len(mats) > 1
    for m in mats:
        raw = []
        for c in coords:
            image = []
            for i, t in enumerate(tables):
                acc = ids[i]
                for j in range(n):
                    acc = t[acc][m.entries[i][j].values[c[j]]]
                image.append(acc)
            raw.append(index[tuple(image)])
        assert recompose(m, pg).values == tuple(raw)


def test_product_numbering_matches_raw_coordinates():
    s3, c3, c2 = build_group("S3"), _c3_with_identity_2(), build_group("C2")
    assert c3.identity == 2
    pg = ProductGroup.of(s3, c3, c2)
    assert pg.product.table == direct_product(s3, c3, c2).table
    _check_numbering_against_raw_tables(pg, (s3, c3, c2))
    # a composite block kept whole: its elements are single coordinates
    block = direct_product(c2, c3)
    nested = ProductGroup(direct_product(block, s3))
    assert nested.factors == (block, s3) and block.identity == 2
    _check_numbering_against_raw_tables(nested, (block, s3))


def test_decompose_identity_gives_identity_matrix():
    pg = _pg("C2", "C4")
    m = decompose(identity_map(pg.product), pg)
    ident = identity_matrix(pg.factors)
    assert m.entries == ident.entries


def _write_table(path, g):
    lines = [str(g.order)] + [" ".join(str(v) for v in row) for row in g.table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_decompose_without_pg_round_trips_every_automorphism(tmp_path):
    path = tmp_path / "s3.txt"
    _write_table(path, build_group("S3"))
    # |Aut(S3 x C4)| = 6 * 2 * 2 and Aut(C2 x S3) = Aut(D12) = D12.
    for spec, count in (("S3 x C4", 24), (f"@{path} x C4", 24), (f"C2 x @{path}", 12)):
        g = build_group(spec)
        autos = enumerate_autos(g)
        assert len(autos) == count, spec
        for f in autos:
            m = decompose(f)
            assert m.factors == g.factors
            assert recompose(m) == f, spec


def test_decomposed_matrix_multiplies_with_one_over_the_spec_atoms():
    c2, c4 = build_group("C2"), build_group("C4")
    m = decompose(identity_map(build_group("C2 x C4")))
    ident = identity_matrix((c2, c4))
    assert matrix_multiply(m, ident) == ident == matrix_multiply(ident, m)


def test_decompose_without_pg_builds_one_product_group(monkeypatch):
    import groupdet.matrices as matrices

    built = []
    init = matrices.ProductGroup.__init__

    def counted(self, product):
        built.append(product)
        init(self, product)

    monkeypatch.setattr(matrices.ProductGroup, "__init__", counted)
    # Over new factor groups, so no ProductGroup exists for the product yet.
    c2, c4 = (group_from_table(build_group(s).table, name=s) for s in ("C2", "C4"))
    g = direct_product(c2, c4)
    phi = identity_map(g)
    assert decompose(phi) == decompose(phi)
    assert built == [g]
    assert ProductGroup.of(c2, c4).product is g and built == [g]


def test_decompose_swap_automorphism():
    s3 = build_group("S3")
    pg = _pg("S3", "S3")
    (p0, p1), (i0, i1) = pg.projections, pg.injections
    t = pg.product.table
    swap_phi = [t[i0(p1(x))][i1(p0(x))] for x in range(pg.product.order)]
    m = decompose(GroupMap(pg.product, pg.product, swap_phi), pg)
    zero = zero_map(s3, s3).values
    ident = identity_map(s3).values
    assert m.entries[0][0].values == zero
    assert m.entries[0][1].values == ident
    assert m.entries[1][0].values == ident
    assert m.entries[1][1].values == zero


def test_decompose_recompose_round_trip_on_autos():
    pg = _pg("C2", "C4")
    for phi in enumerate_autos(pg.product):
        m = decompose(phi, pg)
        assert recompose(m, pg).values == phi.values


def test_decompose_passes_full_validation_on_catalog_products():
    # decompose builds its matrix unchecked; fresh public maps make the
    # validating constructor recheck every entry and every row
    groups = catalog_groups()
    for i, h in enumerate(groups):
        for k in groups[i:]:
            if h.order * k.order > 32:
                continue
            pg = ProductGroup.of(h, k)
            for phi in enumerate_autos(pg.product):
                m = decompose(phi, pg)
                fresh = [[GroupMap(e.domain, e.codomain, e.values) for e in row] for row in m.entries]
                assert EndoMatrix(pg.factors, fresh) == m


def test_recompose_decompose_round_trip_on_matrices():
    from groupdet import enumerate_m_matrices

    pg = _pg("C2", "C4")
    mats = enumerate_m_matrices(pg.factors)
    assert len(mats) == 32  # equals |End(C2 x C4)|
    assert len(enumerate_endos(pg.product)) == 32
    for m in mats:
        back = decompose(recompose(m, pg), pg)
        assert back.entries == m.entries


def test_recompose_example_s3_c4_automorphism():
    s3, c4 = build_group("S3"), build_group("C4")
    pg = ProductGroup.of(s3, c4)
    gamma = next(f for f in enumerate_homs(s3, c4)
                 if f.values != (0,) * 6)
    m = EndoMatrix((s3, c4), (
        (identity_map(s3), zero_map(c4, s3)),
        (gamma, identity_map(c4)),
    ))
    assert is_bijective(recompose(m, pg))


def test_entry_validation():
    s3, c4 = build_group("S3"), build_group("C4")
    with pytest.raises(StructuralError, match="2 x 2"):
        EndoMatrix((s3, c4), ((identity_map(s3), zero_map(c4, s3)),))
    with pytest.raises(StructuralError):
        EndoMatrix((s3, c4), (
            (identity_map(s3), zero_map(c4, s3)),
            (zero_map(s3, c4), identity_map(s3)),  # wrong codomain
        ))
    # x -> x^-1 is not a homomorphism of S3
    flip = GroupMap(s3, s3, s3.inverse)
    with pytest.raises(StructuralError, match="not a homomorphism"):
        EndoMatrix((s3, c4), (
            (flip, zero_map(c4, s3)),
            (zero_map(s3, c4), identity_map(c4)),
        ))
    # M-condition: images within a row must commute elementwise
    inner = next(
        f for f in enumerate_autos(s3)
        if f.values != identity_map(s3).values
    )
    embed = None
    for f in enumerate_homs(c4, s3):
        if len(f.image()) == 2:
            embed = f
            break
    assert embed is not None
    with pytest.raises(StructuralError):
        EndoMatrix((s3, c4), (
            (inner, embed),
            (zero_map(s3, c4), identity_map(c4)),
        ))


def test_matrix_multiply_identity_and_oracle():
    pg = _pg("C2", "C4")
    from groupdet import enumerate_m_matrices

    mats = enumerate_m_matrices(pg.factors)
    ident = identity_matrix(pg.factors)
    rng = random.Random(20240817)
    for _ in range(100):
        a = rng.choice(mats)
        b = rng.choice(mats)
        prod = matrix_multiply(a, b)
        composed = compose(recompose(a, pg), recompose(b, pg))
        assert recompose(prod, pg).values == composed.values
    some = rng.choice(mats)
    assert matrix_multiply(some, ident).entries == some.entries
    assert matrix_multiply(ident, some).entries == some.entries


def test_matrix_multiply_memo_keeps_groups_and_failures():
    from groupdet import FiniteGroup, NoncommutingImagesError, enumerate_m_matrices

    # two factors with one table: a memo keyed by value tuples alone would
    # hand out maps with the wrong codomain
    c3 = build_group("C3")
    facs = (FiniteGroup(c3.table, "left copy"), FiniteGroup(c3.table, "right copy"))
    pg = ProductGroup.of(*facs)
    mats = enumerate_m_matrices(facs)[:12]
    for a in mats:
        for b in mats:
            prod = matrix_multiply(a, b)
            for i, row in enumerate(prod.entries):
                for j, e in enumerate(row):
                    assert e.domain is facs[j] and e.codomain is facs[i]
            composed = compose(recompose(a, pg), recompose(b, pg))
            assert recompose(prod, pg).values == composed.values
    # an unchecked matrix breaking the row condition fails on every product,
    # not only on the first one that meets the offending sum
    s3 = build_group("S3")
    ident, zero = identity_map(s3), zero_map(s3, s3)
    sigma = next(
        f for f in enumerate_autos(s3)
        if any(s3.mul(x, f(x)) != s3.mul(f(x), x) for x in range(s3.order))
    )
    a = _built_matrix((s3, s3), ((ident, ident), (zero, zero)))
    b = _built_matrix((s3, s3), ((ident, zero), (sigma, zero)))
    for _ in range(2):
        with pytest.raises(NoncommutingImagesError):
            matrix_multiply(a, b)


def _row_by_column(a, b):
    """The product's cells from the public compose and pointwise_sum alone,
    each summed in ascending column order."""
    n = len(a.factors)
    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = compose(a.entries[i][0], b.entries[0][j])
            for k in range(1, n):
                term = compose(a.entries[i][k], b.entries[k][j])
                acc = pointwise_sum(acc, term, require_commuting=True)
            row.append(acc)
        cells.append(row)
    return cells


def _assert_matches_reference(a, b):
    prod = matrix_multiply(a, b)
    assert prod.factors is a.factors
    for got_row, want_row in zip(prod.entries, _row_by_column(a, b), strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            assert got.domain is want.domain and got.codomain is want.codomain
            assert got.values == want.values


def test_matrix_multiply_matches_a_row_by_column_reference():
    from groupdet import FiniteGroup

    c3 = build_group("C3")
    copies = (FiniteGroup(c3.table, "left copy"), FiniteGroup(c3.table, "right copy"))
    sets = [
        enumerate_m_matrices((build_group("C2"),)),
        enumerate_m_matrices((build_group("C2"), build_group("C4"))),
        enumerate_m_matrices((build_group("S3"), build_group("C2"))),
        enumerate_m_matrices(copies),
        enumerate_m_matrices(tuple(build_group(s) for s in ("C2", "C2", "C3"))),
    ]
    assert [len(s) for s in sets] == [2, 32, 64, 81, 48]
    for mats in sets:
        for a in mats:
            for b in mats:
                _assert_matches_reference(a, b)


def test_matrix_multiply_refuses_mismatched_factors():
    c2, c3 = build_group("C2"), build_group("C3")
    c3_copy = group_from_table(c3.table, "C3 copy")
    for left, right in [
        ((c2, c3), (c3, c2)),
        ((c2, c3), (c2, c3_copy)),
        ((c2,), (c2, c2)),
        ((c2, c2, c3), (c2, c3)),
    ]:
        with pytest.raises(StructuralError, match="matrix factors do not match"):
            matrix_multiply(identity_matrix(left), identity_matrix(right))


def test_matrix_multiply_bounds_the_number_of_factors():
    c2 = build_group("C2")
    ident = identity_matrix((c2,) * 16)
    assert matrix_multiply(ident, ident) == ident
    big = identity_matrix((c2,) * 17)
    with pytest.raises(ResourceLimitError, match="17 factors"):
        matrix_multiply(big, big)


def _fresh_m_matrices(*specs):
    """M over new groups for the specs, so no entry carries memos from
    earlier tests (build_group keeps one group per spec)."""
    from groupdet import FiniteGroup

    return enumerate_m_matrices(tuple(FiniteGroup(build_group(s).table, name=s) for s in specs))


def test_matrix_multiply_calls_the_memos_in_the_loop_order(monkeypatch):
    # The misses of a stream of products are the composites and sums a
    # plain row-by-column loop forms, first sight only, in its order: cells
    # row-major, terms in ascending k, each composite before the sum that
    # takes it.  The misses take maps; each is read back as (domain,
    # codomain, value tuple).
    def loop_calls(a, b, seen):
        facs, n = a.factors, len(a.factors)
        calls = []

        def form(call):
            if call not in seen:
                seen.add(call)
                calls.append(call)

        for i in range(n):
            for j in range(n):
                dom, cod = facs[j], facs[i]
                acc = None
                for k in range(n):
                    fv, gv = a.entries[i][k].values, b.entries[k][j].values
                    form(("composite", (facs[k], cod, fv), (dom, facs[k], gv)))
                    term = tuple(fv[v] for v in gv)
                    if acc is None:
                        acc = term
                    else:
                        form(("sum", (dom, cod, acc), (dom, cod, term)))
                        acc = tuple(cod.table[x][y] for x, y in zip(acc, term))
        return calls

    from groupdet import matrices

    calls = []

    def recording(kind, miss):
        def record(f, g):
            calls.append((kind, *((h.domain, h.codomain, h.values) for h in (f, g))))
            return miss(f, g)
        return record

    monkeypatch.setattr(matrices, "_composite", recording("composite", matrices._composite))
    monkeypatch.setattr(matrices, "_sum", recording("sum", matrices._sum))
    rng = random.Random(30)
    for specs in [("S3", "C4"), ("C2", "C2", "C3")]:
        mats = _fresh_m_matrices(*specs)
        seen = set()
        for _ in range(20):
            a, b = rng.choice(mats), rng.choice(mats)
            del calls[:]
            matrix_multiply(a, b)
            assert calls == loop_calls(a, b, seen)
        del calls[:]
        matrix_multiply(a, b)
        assert calls == [] and seen  # a product seen before only hits


def test_matrix_multiply_interns_every_map_it_forms():
    from groupdet import matrices

    # composites of different operand pairs that are equal by value are one map
    mats = _fresh_m_matrices("S3", "C2")
    s3, c2 = mats[0].factors
    zero = next(e for e in enumerate_homs(s3, s3) if e.image() == {s3.identity})
    homs = enumerate_homs(c2, s3)
    assert len(homs) > 1
    assert len({id(matrices._composite(zero, g)) for g in homs}) == 1
    # so are the cells of every product over M(S3 x C2)
    cells = {}
    for a in mats:
        for b in mats:
            for e in (e for row in matrix_multiply(a, b).entries for e in row):
                assert cells.setdefault((e.domain, e.codomain, e.values), e) is e
    # a product of products agrees with the reference
    rng = random.Random(31)
    for m_set in (mats, _fresh_m_matrices("C2", "C2", "C3")):
        for _ in range(200):
            a, b, c = (rng.choice(m_set) for _ in range(3))
            ab = matrix_multiply(a, b)
            _assert_matches_reference(ab, c)
            _assert_matches_reference(c, ab)
    # operands made by the public constructor give the same products
    mats = _fresh_m_matrices("S3", "C4")

    def rebuilt(m):
        rows = [[GroupMap(e.domain, e.codomain, list(e.values)) for e in row] for row in m.entries]
        return EndoMatrix(m.factors, rows)

    for _ in range(50):
        a, b = rng.choice(mats), rng.choice(mats)
        want = matrix_multiply(a, b)
        got = matrix_multiply(rebuilt(a), rebuilt(b))
        assert got == want
        assert all(x is y for x, y in zip(itertools.chain(*got.entries), itertools.chain(*want.entries)))


def test_library_builds_skip_the_validating_constructor(monkeypatch):
    from groupdet import compare_aut_vs_A, invert_via_det

    calls = []
    init = EndoMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EndoMatrix, "__init__", counting_init)
    s3, c2 = build_group("S3"), build_group("C2")
    pg = ProductGroup.of(s3, c2)
    phi = enumerate_autos(pg.product)[-1]
    a = decompose(phi, pg)
    builds = {
        "enumerate_m_matrices": lambda: tuple(enumerate_m_matrices((s3, c2))),
        "enumerate_A": lambda: tuple(enumerate_A((s3, c2))),
        "enumerate_Z": lambda: tuple(enumerate_Z((s3, c2))),
        "matrix_multiply": lambda: matrix_multiply(a, a),
        "decompose": lambda: decompose(phi, pg),
        "identity_matrix": lambda: identity_matrix((s3, c2)),
        "invert_via_det": lambda: invert_via_det(a),
        "compare_aut_vs_A": lambda: compare_aut_vs_A(c2, c2).violating_matrices[0],
    }
    for name, build in builds.items():
        del calls[:]
        assert build(), name
        assert calls == [], name
    EndoMatrix((s3, c2), a.entries)
    assert calls == [1]


def test_matrix_set_order_is_pinned():
    # The order of every matrix set feeds each seeded draw from it, so a
    # change to how matrices are built must not reorder them: one digest over
    # the key sequences of the row-commuting sets with factors of order <= 8
    # (and C2 x C2 x C3), and of A and Z on the catalog pairs of product
    # order <= 64.
    import hashlib

    from groupdet import CATALOG

    groups = {s: build_group(s) for s in CATALOG}
    pairs = list(itertools.combinations_with_replacement(CATALOG, 2))
    msets = [p for p in pairs if max(groups[s].order for s in p) <= 8] + [("C2", "C2", "C3")]
    assert len(msets) == 46
    digest = hashlib.sha256()

    def feed(specs, tag, mats):
        digest.update((" x ".join(specs) + f":{tag}:{len(mats)};").encode())
        for m in mats:
            for v in m.key():
                digest.update(bytes(v))

    for p in msets:
        feed(p, "M", enumerate_m_matrices(tuple(build_group(s) for s in p)))
    for p in pairs:
        facs = tuple(groups[s] for s in p)
        if facs[0].order * facs[1].order <= 64:
            feed(p, "A", enumerate_A(facs))
            feed(p, "Z", enumerate_Z(facs))
    assert digest.hexdigest() == (
        "c53325469f5e90dca78b618140be0172ebd163cb3ff0a38878b3c22656fca613"
    )


def test_in_A_examples():
    s3 = build_group("S3")
    assert in_A(identity_matrix((s3, build_group("C4"))))
    assert not in_A(_swap_matrix(s3))
    a = enumerate_A((build_group("C2"), build_group("C4")))
    assert len(a) == 8
    assert all(in_A(m) for m in a)


def test_in_Z_examples():
    s3, c4, c2 = build_group("S3"), build_group("C4"), build_group("C2")
    assert in_Z(identity_matrix((s3, c4)))
    inner = next(
        f for f in enumerate_autos(s3)
        if f.values != identity_map(s3).values
    )
    m = EndoMatrix((s3, c4), (
        (inner, zero_map(c4, s3)),
        (zero_map(s3, c4), identity_map(c4)),
    ))
    assert in_A(m) and not in_Z(m)
    for m in enumerate_A((c2, c4)):
        assert in_Z(m)  # abelian factors: every automorphism is central


def test_enumerate_A_counts_and_bound():
    c2 = build_group("C2")
    assert len(enumerate_A((c2, c2))) == 4
    assert len(enumerate_Z((c2, c2))) == 4
    with pytest.raises(ResourceLimitError):
        enumerate_A((build_group("C12"), build_group("C12")))


def _reference_keys(facs, kind):
    """The keys of the M, A or Z set over ``facs``, from the hom listings and
    the group tables alone: one cell pool per entry, rows filtered for
    commuting images (M), and the rows combined by ``itertools.product``."""
    n = len(facs)
    tables = [f.table for f in facs]
    centers = [
        {z for z in range(len(t)) if all(t[z][x] == t[x][z] for x in range(len(t)))}
        for t in tables
    ]

    def keep(i, j, values):
        if kind == "M":
            return True
        if i != j:
            return set(values) <= centers[i]
        if len(set(values)) != len(values):
            return False
        t, e = tables[i], facs[i].identity
        inv = [row.index(e) for row in t]
        return kind == "A" or all(t[v][inv[x]] in centers[i] for x, v in enumerate(values))

    def commutes(t, row):
        images = [set(values) for values in row]
        return all(
            t[x][y] == t[y][x]
            for a in range(n) for b in range(a + 1, n)
            for x in images[a] for y in images[b]
        )

    rows = []
    for i in range(n):
        cells = [
            [f.values for f in enumerate_homs(facs[j], facs[i]) if keep(i, j, f.values)]
            for j in range(n)
        ]
        rows.append([r for r in itertools.product(*cells) if commutes(tables[i], r)])
    return (tuple(itertools.chain(*pick)) for pick in itertools.product(*rows))


def test_commuting_rows_match_the_product_filter():
    """``_commuting_rows`` keeps the rows, in the order, of the filter it
    replaced: every combination of homs in ``itertools.product`` order, kept
    when each two of its images commute."""
    from groupdet.matrices import _commuting_rows

    def product_filter(facs, target):
        n = len(facs)
        t = target.table
        return [
            combo
            for combo in itertools.product(*(enumerate_homs(f, target) for f in facs))
            if all(
                t[x][y] == t[y][x]
                for a in range(n) for b in range(a + 1, n)
                for x in combo[a].image() for y in combo[b].image()
            )
        ]

    small = catalog_groups(8)
    cases = [tuple(p) for p in itertools.combinations_with_replacement(small, 2)]
    cases += [tuple(build_group(s) for s in specs)
              for specs in (("C2", "C2", "C3"), ("S3", "C2", "C2"))]
    for facs in cases:
        for target in facs:
            assert _commuting_rows(facs, target) == product_filter(facs, target), (
                [f.name for f in facs], target.name)


def test_matrix_sets_are_sequences_built_on_access():
    # M, A and Z are read-only sequences: iteration, indexing from either
    # end and an independent product of the cell pools agree member by
    # member, an index past the end raises, and a slice is a tuple.
    from groupdet import CATALOG

    groups = {s: build_group(s) for s in CATALOG}
    cases = [
        tuple(groups[s] for s in p)
        for p in itertools.combinations_with_replacement(CATALOG, 2)
        if groups[p[0]].order * groups[p[1]].order <= 64
    ]
    sets = [(facs, kind, fn(facs))
            for facs in cases
            for kind, fn in (("M", enumerate_m_matrices), ("A", enumerate_A), ("Z", enumerate_Z))]
    c2c2c3 = tuple(build_group(s) for s in ("C2", "C2", "C3"))
    sets.append((c2c2c3, "M", enumerate_m_matrices(c2c2c3)))
    for facs, kind, s in sets:
        where = (kind, [f.name for f in facs])
        n = len(s)
        walked = 0
        for a, i, want in itertools.zip_longest(s, range(n), _reference_keys(facs, kind)):
            b = s[i]
            assert a.factors == b.factors == facs, where
            assert a.key() == b.key() == want, (where, i)
            walked += 1
        assert walked == n > 0, where
        assert s[-1] == s[n - 1] and s[-n] == s[0], where
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                s[bad]
        head = s[:12]
        assert isinstance(head, tuple) and head == tuple(itertools.islice(s, 12)), where


def test_m_matrix_set_is_not_materialised(monkeypatch):
    # 313,600 matrices over D8 x D8, each built only when indexed: the set
    # holds the 560 row choices per row, not its members.
    import tracemalloc

    from groupdet import matrices

    d8 = build_group("D8")
    enumerate_homs(d8, d8)
    tracemalloc.start()
    try:
        mats = enumerate_m_matrices((d8, d8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mats) == 313_600
    assert peak < 1_000_000
    # The bound is on the set's size, checked when the set is made.
    monkeypatch.setattr(matrices, "_M_MATRIX_LIMIT", 313_599)
    with pytest.raises(ResourceLimitError):
        enumerate_m_matrices((d8, d8))


def test_aut_matrices_all_in_A_for_stem_pair():
    pg = _pg("S3", "C4")
    mats = enumerate_aut_matrices(pg)
    assert len(mats) == 24
    assert all(in_A(m) for m in mats)
    a_keys = {tuple(e.values for row in m.entries for e in row)
              for m in enumerate_A(pg.factors)}
    aut_keys = {tuple(e.values for row in m.entries for e in row) for m in mats}
    assert a_keys == aut_keys


def test_aut_vs_A_when_factors_share_a_factor():
    pg = _pg("C2", "C2")
    aut_keys = {tuple(e.values for row in m.entries for e in row)
                for m in enumerate_aut_matrices(pg)}
    a_keys = {tuple(e.values for row in m.entries for e in row)
              for m in enumerate_A(pg.factors)}
    assert len(aut_keys) == 6 and len(a_keys) == 4
    assert not (a_keys <= aut_keys)
    assert not (aut_keys <= a_keys)


def test_three_factor_round_trip():
    pg = _pg("C2", "C2", "C3")
    endos = enumerate_endos(pg.product)
    assert len(endos) == 48
    for phi in endos:
        m = decompose(phi, pg)
        assert m.n == 3
        assert recompose(m, pg).values == phi.values


def test_astruc_identity_and_diagonal():
    s3, c4 = build_group("S3"), build_group("C4")
    ident = identity_matrix((s3, c4))
    d1, u, l, d2 = astruc_factorize(ident)
    for part in (d1, u, l, d2):
        assert part.entries == ident.entries
    alpha = enumerate_autos(s3)[-1]
    delta = enumerate_autos(c4)[-1]
    diag = EndoMatrix((s3, c4), (
        (alpha, zero_map(c4, s3)),
        (zero_map(s3, c4), delta),
    ))
    d1, u, l, d2 = astruc_factorize(diag)
    assert u.entries == ident.entries and l.entries == ident.entries
    assert matrix_multiply(matrix_multiply(d1, u), matrix_multiply(l, d2)).entries == diag.entries


def test_astruc_recomposes_everything_in_A():
    s3, c4 = build_group("S3"), build_group("C4")
    for m in enumerate_A((s3, c4)):
        d1, u, l, d2 = astruc_factorize(m)
        prod = matrix_multiply(matrix_multiply(d1, u), matrix_multiply(l, d2))
        assert prod.entries == m.entries
        # shape claims from the factorization
        assert d1.entries[0][1].values == zero_map(c4, s3).values
        assert d1.entries[1][0].values == zero_map(s3, c4).values
        assert d1.entries[1][1].values == identity_map(c4).values
        assert u.entries[0][0].values == identity_map(s3).values
        assert u.entries[1][0].values == zero_map(s3, c4).values
        assert l.entries[0][1].values == zero_map(c4, s3).values


def test_astruc_requires_membership():
    s3 = build_group("S3")
    with pytest.raises(PreconditionError):
        astruc_factorize(_swap_matrix(s3))


def test_cases_relations_and_norm_for_small_pairs():
    """Inverse-pair component identities and normality, on two pairs."""
    for specs in (("C2", "C4"), ("S3", "C4")):
        pg = _pg(*specs)
        h, k = pg.factors
        autos = enumerate_autos(pg.product)
        by_values = {phi.values: phi for phi in autos}
        for phi in autos:
            psi = by_values[tuple(
                phi.values.index(x) for x in range(pg.product.order)
            )]
            m, w = decompose(phi, pg), decompose(psi, pg)
            (a, b), (g, d) = m.entries
            (ap, bp), (gp, dp) = w.entries
            id_h, id_k = identity_map(h).values, identity_map(k).values
            zero_hk = zero_map(h, k).values
            zero_kh = zero_map(k, h).values
            # composing a matrix with its inverse gives the identity matrix,
            # entry by entry, read off in both orders
            assert pointwise_sum(compose(a, ap), compose(b, gp)).values == id_h
            assert pointwise_sum(compose(a, bp), compose(b, dp)).values == zero_kh
            assert pointwise_sum(compose(g, ap), compose(d, gp)).values == zero_hk
            assert pointwise_sum(compose(g, bp), compose(d, dp)).values == id_k
            assert pointwise_sum(compose(ap, a), compose(bp, g)).values == id_h
            assert pointwise_sum(compose(ap, b), compose(bp, d)).values == zero_kh
            assert pointwise_sum(compose(gp, a), compose(dp, g)).values == zero_hk
            assert pointwise_sum(compose(gp, b), compose(dp, d)).values == id_k
            # the four cross products are normal endomorphisms
            assert is_normal_endo(compose(b, gp)) and is_normal_endo(compose(bp, g))
            assert is_normal_endo(compose(g, bp)) and is_normal_endo(compose(gp, b))
            # diagonal entries keep conjugation-closed images even when they
            # are not normal endomorphisms themselves (inner pieces are not)
            for f, grp in ((a, h), (ap, h), (d, k), (dp, k)):
                img = set(f.image())
                for x in img:
                    for z in range(grp.order):
                        conj = grp.table[grp.table[z][x]][grp.inverse[z]]
                        assert conj in img
            # surjective diagonal forces central off-diagonal image
            if is_bijective(a):
                center = set(h.center().elements)
                assert set(b.image()) <= center


def test_serialization_round_trip():
    s3, c4 = build_group("S3"), build_group("C4")
    f = enumerate_homs(s3, c4)[-1]
    assert map_from_dict(map_to_dict(f)) == f
    for m in enumerate_A((s3, c4))[:4]:
        back = matrix_from_dict(matrix_to_dict(m))
        assert back.entries == m.entries
        assert [g.name for g in back.factors] == [g.name for g in m.factors]


@pytest.mark.parametrize("bad", [1.9, True, "2"])
def test_payload_values_must_be_integers(bad):
    payload = {"domain": "C4", "codomain": "C4", "values": [0, 1, 2, bad]}
    with pytest.raises(ParseError):
        map_from_dict(payload)
    m = matrix_to_dict(identity_matrix((build_group("C4"), build_group("C2"))))
    m["entries"][0][0] = payload
    with pytest.raises(ParseError):
        matrix_from_dict(m)


_C4 = {"domain": "C4", "codomain": "C4", "values": [0, 1, 2, 3]}


@pytest.mark.parametrize("bad", [
    [],
    "x",
    {"domain": 2, "codomain": "C4", "values": [0, 1, 2, 3]},
    {"domain": "C4", "codomain": ["C4"], "values": [0, 1, 2, 3]},
])
def test_map_payload_shapes(bad):
    with pytest.raises(ParseError):
        map_from_dict(bad)
    with pytest.raises(ParseError):
        matrix_from_dict({"factors": ["C4"], "entries": [[bad]]})


@pytest.mark.parametrize("bad", [
    [],
    "x",
    {"factors": 5, "entries": [[_C4]]},
    {"factors": ["C4"], "entries": 7},
    {"factors": ["C4"], "entries": [_C4]},
    {"factors": ["C4", "C2"], "entries": [[1, 2], [3, 4]]},
    {"factors": [5, 6], "entries": [[_C4, _C4], [_C4, _C4]]},
])
def test_matrix_payload_shapes(bad):
    with pytest.raises(ParseError):
        matrix_from_dict(bad)
    assert isinstance(matrix_from_dict({"factors": ["C4"], "entries": [[_C4]]}), EndoMatrix)
