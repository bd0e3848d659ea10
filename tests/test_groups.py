"""Group construction, structure queries, and factor machinery."""
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from groupdet import (
    CATALOG,
    DirectFactorization,
    FiniteGroup,
    GroupMap,
    ParseError,
    StructuralError,
    Subgroup,
    ValidationError,
    are_isomorphic,
    build_group,
    common_nontrivial_factor,
    direct_product,
    group_from_table,
    is_bijective,
    load_table_file,
)
from groupdet import groups

EXPECTED_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
    "C8": 8, "C12": 12, "S3": 6, "D8": 8, "Q8": 8,
}

CENTER_ORDERS = {"S3": 1, "D8": 2, "Q8": 2, "C12": 12}
DERIVED_ORDERS = {"S3": 3, "D8": 2, "Q8": 2, "C12": 1}


def test_catalog_builds_with_expected_orders():
    for spec in CATALOG:
        g = build_group(spec)
        assert g.order == EXPECTED_ORDERS[spec]
        assert g.name == spec
        assert len(g.labels) == g.order


def test_build_group_caches_per_spec():
    assert build_group("S3") is build_group("S3")
    assert build_group("C2 x C4") is build_group("C2 x C4")


def test_identity_and_inverse_axioms():
    for spec in CATALOG:
        g = build_group(spec)
        e = g.identity
        for x in range(g.order):
            assert g.mul(e, x) == x
            assert g.mul(x, e) == x
            assert g.mul(x, g.inv(x)) == e


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(CATALOG + ("C2 x C4", "S3 x C4", "E2^3")),
    data=st.data(),
)
def test_associativity_on_random_triples(spec, data):
    g = build_group(spec)
    elem = st.integers(min_value=0, max_value=g.order - 1)
    x, y, z = data.draw(elem), data.draw(elem), data.draw(elem)
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_bad_tables_rejected():
    with pytest.raises(ValidationError):
        group_from_table([[0, 1], [0, 1]])  # repeated row: not a Latin square
    with pytest.raises(ValidationError):
        # Latin square without associativity (order 5 loop)
        group_from_table([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ])
    with pytest.raises(ValidationError, match="label 'a' is repeated"):
        FiniteGroup([[0, 1], [1, 0]], labels=["a", "a"])


def test_validation_error_names_its_row_or_column():
    """The constructor counts rows and columns from 0, as the table is indexed."""
    for table, line, text in [
        ([[0, 1], [1, 5]], ("row", 1), "row 1 is not a permutation of 0..1: not a Latin square"),
        ([[0, 1], [0, 1]], ("column", 0), "column 0 is not a permutation of 0..1: not a Latin square"),
    ]:
        with pytest.raises(ValidationError) as err:
            group_from_table(table)
        assert err.value.line == line and str(err.value) == text


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1.9], [True, 0.0]],  # floats and bools that int() would coerce to C2
        [["0", "1"], ["1", "0"]],  # strings
        [[False, True], [True, False]],  # bools only
        [[0, 1], [1]],  # ragged
        [[0, 1, 2], [1, 2, 0]],  # not square
        [[0, 1], [1, 2]],  # entry out of range
        [0, 1],  # rows that are not sequences
        [],
    ],
)
def test_malformed_tables_are_validation_errors(table):
    with pytest.raises(ValidationError):
        group_from_table(table)


def _swap_intercalate(table, a, u, c):
    """Swap the two values of the 2x2 subsquare at rows (a, a*u), columns (c, u*c).

    With u an involution, row a at column c and row a*u at column u*c hold
    the same value, and so do the other two corners; swapping the two values
    keeps a Latin square.
    """
    t = [list(row) for row in table]
    b, d = t[a][u], t[u][c]
    t[a][c], t[a][d], t[b][c], t[b][d] = t[a][d], t[a][c], t[b][d], t[b][c]
    return t


def test_intercalate_swap_above_order_256_is_caught_every_time():
    g = build_group("S4 x S4")
    assert g.order > 256
    e, t = g.identity, g.table
    involutions = [u for u in range(g.order) if u != e and t[u][u] == e]
    rng = random.Random(7)
    for _ in range(6):
        u = rng.choice(involutions)
        # Keep the identity's row and column intact, so the defect can only
        # show as a failing associativity triple.
        a = rng.choice([x for x in range(g.order) if x not in (e, u)])
        c = rng.choice([x for x in range(g.order) if x not in (e, u)])
        bad = _swap_intercalate(t, a, u, c)
        assert sum(x != y for r, s in zip(t, bad) for x, y in zip(r, s)) == 4
        with pytest.raises(ValidationError) as info:
            group_from_table(bad)
        m = re.search(r"triple \((\d+), (\d+), (\d+)\)", str(info.value))
        assert m, str(info.value)
        x, y, z = (int(v) for v in m.groups())
        assert bad[bad[x][y]][z] != bad[x][bad[y][z]]


def _group_oracle(t):
    """The identity of t when t is a group table, else None: the full n^3 check."""
    n = len(t)
    span = list(range(n))
    if any(sorted(row) != span for row in t) or any(
        sorted(t[x][y] for x in range(n)) != span for y in range(n)
    ):
        return None
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not ids:
        return None
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return None
    return ids[0]


def _random_latin_square(rng, n):
    """A random Latin square, filled cell by cell; restarts at a dead end."""
    while True:
        t = [[None] * n for _ in range(n)]
        try:
            for i in range(n):
                for j in range(n):
                    used = set(t[i][:j]) | {t[r][j] for r in range(i)}
                    t[i][j] = rng.choice([v for v in range(n) if v not in used])
        except IndexError:
            continue
        return t


def _with_identity(t):
    """Permute columns then rows so that element 0 is a two-sided identity."""
    n = len(t)
    cols = [t[0].index(j) for j in range(n)]
    t = [[row[c] for c in cols] for row in t]
    return sorted(t, key=lambda row: row[0])


def _relabel(t, rng):
    n = len(t)
    s = list(range(n))
    rng.shuffle(s)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[s[x]][s[y]] = s[t[x][y]]
    return out


def test_validation_agrees_with_full_associativity_oracle():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(4, 8)
        kind = rng.randrange(4)
        if kind == 0:
            t = _random_latin_square(rng, n)  # usually without identity
        elif kind == 1:
            t = _with_identity(_random_latin_square(rng, n))  # a random loop
        else:
            # Z_n or, at 4 and 8, Z_2^k: a group, relabelled; at even n kind 3
            # first swaps one intercalate.
            if n in (4, 8) and rng.random() < 0.5:
                t = [[x ^ y for y in range(n)] for x in range(n)]
            else:
                t = [[(x + y) % n for y in range(n)] for x in range(n)]
            if kind == 3 and n % 2 == 0:
                u = 1 if t[1][1] == 0 else n // 2  # an involution
                t = _swap_intercalate(t, rng.randrange(n), u, rng.randrange(n))
            t = _relabel(t, rng)
        want = _group_oracle(t)
        verdicts[want is not None] += 1
        if want is None:
            with pytest.raises(ValidationError):
                group_from_table(t)
        else:
            assert group_from_table(t).identity == want
    assert min(verdicts.values()) >= 100, verdicts


def test_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, groupdet; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, groupdet; print('groupdet.cli' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout.strip() == "False", proc.stderr  # the package root leaves the CLI out


def test_grammar_errors():
    for bad in ("C0", "C-3", "D3", "Q16", "E4^2", "E2^0", "x C2", "C2 x", "", "C2 C4", "C2xxC4"):
        with pytest.raises(ParseError):
            build_group(bad)


def test_table_file_round_trip(tmp_path):
    g = build_group("S3")
    lines = [str(g.order)]
    lines += [" ".join(str(v) for v in row) for row in g.table]
    lines.append("labels: " + " ".join(g.labels))
    path = tmp_path / "s3.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_table_file(str(path))
    assert loaded.table == g.table
    assert loaded.labels == g.labels
    via_spec = build_group(f"@{path}")
    assert via_spec.table == g.table


def _write_table(path, g):
    lines = [str(g.order)] + [" ".join(str(v) for v in row) for row in g.table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_table_file_edits_are_reread(tmp_path):
    path = tmp_path / "t.txt"
    _write_table(path, build_group("C2"))
    first = build_group(f"@{path}")
    assert first.order == 2
    assert build_group(f"@{path}") is first
    _write_table(path, build_group("C3"))
    edited = build_group(f"@{path}")
    assert edited.order == 3
    assert build_group(f"@{path}") is edited


def test_rewritten_table_file_gives_a_new_atom_and_a_new_product(tmp_path):
    path = tmp_path / "t.txt"
    _write_table(path, build_group("C2"))
    old_atom = build_group(f"@{path}")
    old = build_group(f"@{path} x C3")
    assert old.factors[0] is old_atom and load_table_file(str(path)) is old_atom
    old_table = old.table
    _write_table(path, build_group("C4"))
    atom = load_table_file(str(path))
    assert atom is not old_atom and atom.order == 4
    assert build_group(f"@{path}") is atom
    product = build_group(f"@{path} x C3")
    assert product is not old and product.order == 12
    assert product.factors[0] is atom and product.factors[1] is build_group("C3")
    # The old product still describes the old file.
    assert old.table == old_table and old.order == 6 and old.factors[0] is old_atom


def test_rewritten_table_file_leaves_no_product_on_a_catalog_atom(tmp_path):
    # A product is kept on the factor built last, so a product with a table
    # file's group goes with that group when the file is rewritten, on
    # either side of the catalog atom.
    import gc
    import weakref

    atoms = [build_group(s) for s in CATALOG]
    sizes = [len(g._cache) for g in atoms]
    path = tmp_path / "t.txt"
    old = []
    for i in range(10):
        _write_table(path, build_group(("C2", "C3")[i % 2]))
        for spec in (f"C2 x @{path}", f"@{path} x C2"):
            product = build_group(spec)
            assert build_group(spec) is product
            old.append(weakref.ref(product))
    assert [len(g._cache) for g in atoms] == sizes
    del product
    gc.collect()
    assert [r() is None for r in old] == [True] * 18 + [False] * 2


def test_table_file_path_with_spaces(tmp_path):
    folder = tmp_path / "dir with space"
    folder.mkdir()
    path = folder / "t.txt"
    _write_table(path, build_group("S3"))
    assert build_group(f"@{path}").table == build_group("S3").table
    assert build_group(f"@{path} x C2").order == 12
    assert build_group(f"C2 x @{path}").order == 12


def test_undecodable_table_file_is_a_parse_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xff\xfe2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        build_group(f"@{path}")
    with pytest.raises(ParseError):
        load_table_file(str(path))


# Each malformed table file, with a phrase of the ParseError it must raise.
BAD_TABLE_FILES = {
    "": "empty table file",
    "two\n0 1\n1 0\n": "first line must be the order",
    "0\n": "the order must be positive, got 0",
    "-1\n0\n": "the order must be positive, got -1",
    "2\n0 1\n": "expected 2 table rows, found 1",
    "2\n0 1\n1\n": "row 2 has 1 entries, expected 2",
    "2\n0 1\n1 a\n": "row 2 contains a non-integer entry",
    "2\n0 1\n1 0\n0 1\n": "unexpected trailing content after table rows",
    "2\n0 1\n1 0\nlabels: e\n": "expected 2 labels, got 1",
    "2\n0 1\n1 0\nlabels: a a\n": "label 'a' is repeated",
    # FiniteGroup's row and column checks, counted from 1 as the file counts
    "2\n0 1\n1 5\n": "row 2 is not a permutation of 0..1",
    "3\n0 1 2\n1 2 0\n2 1 0\n": "column 2 is not a permutation of 0..2",
}


@pytest.mark.parametrize("text, phrase", BAD_TABLE_FILES.items())
def test_malformed_table_file_is_a_parse_error_naming_the_file(tmp_path, text, phrase):
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        build_group(f"@{path}")
    assert str(err.value).startswith(f"{path}: ") and phrase in str(err.value)


def test_table_file_that_is_no_group_names_the_file(tmp_path):
    """A table file whose rows and columns are permutations but which has no
    identity, or is not associative, raises a ValidationError that names the
    file."""
    for text, phrase in [
        ("3\n0 2 1\n2 1 0\n1 0 2\n", "table has no identity element"),  # x * y = -x - y
        ("5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n", "associativity fails"),
    ]:
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            build_group(f"@{path}")
        assert str(err.value).startswith(f"{path}: ") and phrase in str(err.value)


def test_elementary_abelian_and_products():
    e8 = build_group("E2^3")
    assert e8.order == 8 and e8.is_abelian
    assert all(e8.element_order(x) in (1, 2) for x in range(e8.order))
    pg = build_group("C2 x C4")
    assert pg.order == 8 and pg.factors is not None
    assert [f.order for f in pg.factors] == [2, 4]


def test_product_spec_factors_are_the_groups_of_its_atoms():
    for spec in ("C2 x C4", "S3 x C4 x Q8", "C2xC2", "E2^2 x C3"):
        g = build_group(spec)
        atoms = [build_group(a) for a in re.split(r"\s*x\s*", spec)]
        assert len(g.factors) == len(atoms)
        assert all(f is a for f, a in zip(g.factors, atoms)), spec


def test_one_group_object_per_product():
    from groupdet import ProductGroup

    c2, c4, s3 = build_group("C2"), build_group("C4"), build_group("S3")
    g = build_group("C2 x C4")
    assert build_group("C2xC4") is g
    assert direct_product(c2, c4) is g
    assert ProductGroup.of(c2, c4).product is g
    assert ProductGroup.of(c2, c4) is ProductGroup.of(c2, c4)
    three = build_group("S3 x C2 x C4")
    assert direct_product(s3, c2, c4) is three
    assert ProductGroup.of(s3, c2, c4).product is three
    # A composite block is a factor of its own; the flat product is another group.
    nested = direct_product(c2, g)
    assert nested is direct_product(c2, g) and nested is not build_group("C2 x C2 x C4")


def test_unflattened_product_keeps_blocks():
    block = build_group("C2 x C4")
    g = direct_product(build_group("C2"), block)
    assert len(g.factors) == 2
    assert g.factors[1] is block
    assert g.name == "C2 x (C2 x C4)"


def _table_structure(g):
    """Inverses, element orders and class sizes of g by plain loops over its table."""
    t, e, n = g.table, g.identity, g.order
    inverse = tuple(next(y for y in range(n) if t[x][y] == e) for x in range(n))
    orders = []
    for x in range(n):
        y, k = x, 1
        while y != e:
            y, k = t[y][x], k + 1
        orders.append(k)
    sizes = tuple(len({t[t[inverse[a]][x]][a] for a in range(n)}) for x in range(n))
    return inverse, tuple(orders), sizes


def test_product_structure_from_factors_matches_its_table():
    c1, c2, c3, s3 = (build_group(s) for s in ("C1", "C2", "C3", "S3"))
    products = [build_group(f"{a} x {b}") for i, a in enumerate(CATALOG) for b in CATALOG[i:]]
    assert len(products) == 55
    products += [
        build_group("C2 x C2 x C3"),
        direct_product(direct_product(s3, s3), c2),
        direct_product(c2, c1, c3),
        direct_product(build_group("D8 x C4"), build_group("Q8 x C2")),
    ]
    for g in products:
        assert (g.inverse, g.element_orders, g.class_sizes) == _table_structure(g), g.name
        names = [f.labels for f in g.factors]
        assert g.labels == tuple(
            "(" + ", ".join(names[i][c] for i, c in enumerate(cs)) + ")" for cs in g.coords
        ), g.name
    assert products[-3].labels[1] == "((012, 012), 1)"
    assert products[-1].labels[-1] == "((sr3, 3), (-k, 1))"
    # The orders and class sizes are given, not walked: no classes are found.
    fresh = direct_product(*(FiniteGroup(g.table, g.name) for g in (s3, c2)))
    assert fresh.class_sizes == _table_structure(fresh)[2]
    assert (FiniteGroup.conjugacy_classes.fget,) not in fresh._cache


def test_center_and_derived_subgroup():
    for spec, z_order in CENTER_ORDERS.items():
        g = build_group(spec)
        z = g.center()
        assert z.order == z_order
        assert _oracle_is_normal(g, z.elements) and z.is_central()
    for spec, d_order in DERIVED_ORDERS.items():
        g = build_group(spec)
        d = g.derived_subgroup()
        assert d.order == d_order
        assert _oracle_is_normal(g, d.elements)


def test_stem_predicate():
    # center inside the derived subgroup
    assert build_group("S3").is_stem()
    assert build_group("D8").is_stem()
    assert build_group("Q8").is_stem()
    assert not build_group("C4").is_stem()
    assert not build_group("C2 x C4").is_stem()


def test_direct_factorizations_satisfy_invariants():
    for spec in ("C6", "C12", "C2 x C4", "E2^2", "C2 x S3"):
        g = build_group(spec)
        facts = g.direct_factorizations()
        assert facts, spec
        for fz in facts:
            left, right = fz.left, fz.right
            assert set(left.elements) & set(right.elements) == {g.identity}
            assert left.order * right.order == g.order
            for a in left.elements:
                for b in right.elements:
                    assert g.mul(a, b) == g.mul(b, a)


def test_direct_factorization_rejects_a_non_normal_factor():
    # <s> and A3 in S3 meet trivially and their orders multiply to 6, but
    # <s> is not normal; the commute check is what rejects the pair.
    g = build_group("S3")
    s = next(x for x in range(g.order) if g.element_order(x) == 2)
    r = next(x for x in range(g.order) if g.element_order(x) == 3)
    reflection = Subgroup(g, [g.identity, s])
    a3 = Subgroup(g, g.closure([r]))
    assert not _oracle_is_normal(g, reflection.elements) and _oracle_is_normal(g, a3.elements)
    for left, right in ((reflection, a3), (a3, reflection)):
        with pytest.raises(StructuralError):
            DirectFactorization(g, left, right)


def test_indecomposables_have_only_trivial_factorizations():
    for spec in ("C4", "C8", "S3", "D8", "Q8", "C3"):
        g = build_group(spec)
        for fz in g.direct_factorizations():
            assert {fz.left.order, fz.right.order} == {1, g.order}


def test_are_isomorphic_examples():
    c4 = build_group("C4")
    assert are_isomorphic(c4, c4) is not None
    assert are_isomorphic(c4, build_group("E2^2")) is None
    iso = are_isomorphic(build_group("D6"), build_group("S3"))
    assert iso is not None
    d6 = build_group("D6")
    s3 = build_group("S3")
    for a in range(6):
        for b in range(6):
            assert iso[d6.mul(a, b)] == s3.mul(iso[a], iso[b])


def test_are_isomorphic_is_symmetric_on_catalog():
    groups = [build_group(s) for s in CATALOG]
    pairs = [(g1, g2) for g1 in groups for g2 in groups
             if g1.order * g2.order <= 24]
    for g1, g2 in pairs:
        assert (are_isomorphic(g1, g2) is not None) == (
            are_isomorphic(g2, g1) is not None
        )


def test_isomorphisms_between_equal_order_catalog_groups_are_bijective_homs():
    # The extra products have non-injective homomorphisms onto themselves
    # that send each generator to an element of the same order.
    specs = CATALOG + ("E2^2", "E2^3", "C2 x C4", "C2 x C6")
    found = 0
    for s1 in specs:
        for s2 in specs:
            g1, g2 = build_group(s1), build_group(s2)
            if g1.order != g2.order:
                continue
            # A fresh copy of g2, so equal specs still run the search.
            copy = FiniteGroup(g2.table, name=f"copy of {s2}")
            iso = are_isomorphic(g1, copy)
            assert (iso is not None) == (s1 == s2), (s1, s2)
            if iso is not None:
                f = GroupMap(g1, copy, iso)
                assert f.is_homomorphism() and is_bijective(f), (s1, s2)
                found += 1
    assert found == len(specs)


def test_common_nontrivial_factor_examples():
    w = common_nontrivial_factor(build_group("C2 x C3"), build_group("C2"))
    assert w is not None and w.h_factor.order == 2
    assert common_nontrivial_factor(build_group("S3"), build_group("C4")) is None
    g = build_group("S3")
    w = common_nontrivial_factor(g, g)
    assert w is not None and w.h_factor.order == g.order
    # the isomorphism in the witness really is one, on local positions
    hg, _ = w.h_factorization.left.as_group()
    kg, _ = w.k_factorization.left.as_group()
    for a in range(hg.order):
        for b in range(hg.order):
            assert w.iso_values[hg.mul(a, b)] == kg.mul(w.iso_values[a], w.iso_values[b])


def test_central_only_common_factor():
    # S3 x C2 and C2 share the central C2; S3 x S3 and S3 share only S3 itself,
    # which is not central, so the central-only search comes back empty.
    assert common_nontrivial_factor(
        build_group("S3 x C2"), build_group("C2"), central_only=True
    ) is not None
    assert common_nontrivial_factor(
        build_group("S3"), build_group("S3"), central_only=True
    ) is None


def _oracle_factor_list(g, central_only=False):
    """The factor list the common-factor search once rebuilt on every call:
    each nontrivial side of a factorization in ``direct_factorizations()``,
    with the other side of the first factorization it appears in, sorted by
    (order, elements)."""
    out, seen = [], set()
    for fact in g.direct_factorizations():
        for side, other in ((fact.left, fact.right), (fact.right, fact.left)):
            if side.order == 1 or side.elements in seen:
                continue
            if central_only and not side.is_central():
                continue
            seen.add(side.elements)
            out.append((side.elements, other.elements))
    out.sort(key=lambda f: (len(f[0]), f[0]))
    return out


def test_direct_factors_match_the_listing_of_every_factorization():
    for spec in CATALOG + ("E2^4",) + PRODUCTS_72:
        g = build_group(spec)
        factors = groups._direct_factors(g)
        got = [(f.left.elements, f.right.elements) for f in factors]
        assert got == _oracle_factor_list(g), spec
        central = [(f.left.elements, f.right.elements) for f in factors if f.left.is_central()]
        assert central == _oracle_factor_list(g, central_only=True), spec
        for i, f in enumerate(factors):
            fg = groups._factor_group(g, i)
            assert fg.order == f.left.order and f.parent is g, spec
            assert groups._factor_group(g, i) is fg, spec


def test_common_factor_search_extracts_each_factor_once(monkeypatch):
    calls = []
    as_group = Subgroup.as_group

    def counted(self):
        calls.append(self.parent)
        return as_group(self)

    # Fresh copies, so no factor list is kept on them from an earlier test.
    h = FiniteGroup(build_group("C2 x S3").table, name="h")
    k = FiniteGroup(build_group("C2 x C2").table, name="k")
    monkeypatch.setattr(Subgroup, "as_group", counted)
    for _ in range(3):
        assert common_nontrivial_factor(h, k).h_factor.order == 2
        assert common_nontrivial_factor(h, k, central_only=True).h_factor.order == 2
        assert common_nontrivial_factor(k, h) is not None
    # Each search stops at the first factor of h, C2, and the first of k.
    assert calls == [h, k]

    # No common factor, so the searches compare every factor whose order
    # the other side has, and extract only those, each once.
    calls.clear()
    h = FiniteGroup(build_group("S3 x S3").table, name="h")
    k = FiniteGroup(build_group("C6 x C6").table, name="k")
    h_orders, k_orders = ({len(x) for x, _ in _oracle_factor_list(g)} for g in (h, k))
    expected = sum(len(x) in k_orders for x, _ in _oracle_factor_list(h)) + sum(
        len(x) in h_orders for x, _ in _oracle_factor_list(k)
    )
    for _ in range(3):
        assert common_nontrivial_factor(h, k) is None
        assert common_nontrivial_factor(k, h) is None
    assert expected > 2 and len(calls) == expected


def test_subgroup_closure_validation():
    from groupdet import Subgroup

    g = build_group("S3")
    three_cycle = next(x for x in range(g.order) if g.element_order(x) == 3)
    with pytest.raises(StructuralError):
        Subgroup(g, [g.identity, three_cycle])  # missing its square


def test_element_orders_multiply_out():
    g = build_group("C12")
    assert sorted(set(g.element_orders)) == [1, 2, 3, 4, 6, 12]
    q8 = build_group("Q8")
    assert sorted(g for g in q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_class_sizes_match_centralizer_index():
    # |class of x| = |G| / |C_G(x)|, with the centralizer counted by brute force.
    for spec in CATALOG + ("S3 x Q8", "D8 x C4"):
        g = build_group(spec)
        t = g.table
        want = tuple(
            g.order // sum(t[x][y] == t[y][x] for y in range(g.order))
            for x in range(g.order)
        )
        assert g.class_sizes == want, spec
    assert sorted(build_group("S3").class_sizes) == [1, 2, 2, 3, 3, 3]



# The catalog, S4, E2^4 and every product of two catalog groups (unordered,
# repeats allowed) of order at most 72: 63 groups.
PRODUCTS_72 = tuple(
    f"{a} x {b}"
    for i, a in enumerate(CATALOG)
    for b in CATALOG[i:]
    if EXPECTED_ORDERS[a] * EXPECTED_ORDERS[b] <= 72
)
LATTICE_SPECS = CATALOG + ("S4", "E2^4") + PRODUCTS_72


def _oracle_lattice(g):
    """Every subgroup, by closing each one found with every element in turn."""
    found = {(g.identity,): None}
    frontier = [(g.identity,)]
    while frontier:
        elems = frontier.pop()
        for x in range(g.order):
            if x in elems:
                continue
            bigger = g.closure(elems + (x,))
            if bigger not in found:
                found[bigger] = None
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), s))


def _oracle_conj(g, x, a):
    """a^-1 * x * a."""
    return g.mul(g.mul(g.inverse[a], x), a)


def _oracle_is_normal(g, elems):
    es = set(elems)
    return all(_oracle_conj(g, x, a) in es for x in elems for a in range(g.order))


def test_both_lattices_match_the_oracle_walk_and_its_conjugation_filter():
    assert len(LATTICE_SPECS) == 63
    for spec in LATTICE_SPECS:
        g = build_group(spec)
        lattice = _oracle_lattice(g)
        want = [s for s in lattice if _oracle_is_normal(g, s)]
        assert [s.elements for s in g.normal_subgroups()] == want, spec
        assert [s.elements for s in g.all_subgroups()] == lattice, spec


def test_conjugacy_classes_partition_the_group_into_conjugation_orbits():
    for spec in CATALOG + ("S4", "D8 x C4"):
        g = build_group(spec)
        classes = g.conjugacy_classes
        assert sorted(x for cls in classes for x in cls) == list(range(g.order)), spec
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes), spec
        for cls in classes:
            assert cls == tuple(sorted({_oracle_conj(g, cls[0], a) for a in range(g.order)})), spec


def test_center_and_abelianness_match_the_commute_scans():
    for spec in CATALOG + PRODUCTS_72:
        g = build_group(spec)
        t, n = g.table, g.order
        center = tuple(z for z in range(n) if all(t[z][x] == t[x][z] for x in range(n)))
        assert g.center().elements == center, spec
        abelian = all(t[a][b] == t[b][a] for a in range(n) for b in range(a))
        assert g.is_abelian == abelian, spec
